"""Config-driven verification suites and deterministic JSON reports.

A run configuration is an INI file. The [masks] section names the mask
file that fully determines the system; optional [field] and [system]
sections are cross-checked against it and rejected on disagreement, so a
config can never silently reinterpret a mask file. [scales] bounds the
scale ranges, [suite] fixes the random test family (PCG64 with a recorded
64-bit seed), and [tolerances] may override verdict thresholds.

Reports are plain dicts; render_report renders them with sorted keys and
fixed indentation so identical runs produce identical bytes.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .algebra import FieldConfig, SystemConfig, uindex
from .errors import ConfigError, DegenerateInput, WalshFramesError
from .framekit import (
    FrameAnalyzer,
    bessel_mask_check,
    check_partition,
    derive_generators,
    energy_balance,
    iterate_refinement,
    load_masks,
    sigma_v0,
    uep_gram,
    wavelet_generators,
)
from .periodic import (
    PeriodicSystemSpec,
    folded_energies,
    periodic_tightness_check,
    projection_energy_scan,
)
from .stepfn import CELL_CAP, StepFunction, dump_csv, within_cap

__all__ = [
    "GRAM_TOL",
    "RESIDUAL_TOL",
    "TAIL_TOL",
    "RunConfig",
    "dump_wavelets_report",
    "field_info_report",
    "render_report",
    "suite_blocks",
    "suite_functions",
    "uindex_report",
    "verify_report",
    "periodic_report",
]

GRAM_TOL = 1e-10   # [tolerances] gram: Gram deviation, and Bessel sum minus 1
RESIDUAL_TOL = 1e-9
TAIL_TOL = 1e-12
# Table entries of one block of suite functions (see suite_blocks): 256 KiB
# of complex entries, so a full block stays a few MB; the shipped configs
# check their 100 functions in one block (two for periodic on fourier_q3).
SUITE_BLOCK = 2 ** 14
MAX_SEED = 2 ** 64
# Largest uindex count: every report row, about 1.5 KB, is held until the
# report is written, so a table at the cap adds about 25 MB of peak memory.
UINDEX_CAP = 2 ** 14
# every section and option a run configuration may hold (configparser
# lowercases option names)
CONFIG_OPTIONS = {
    "field": {"p", "c", "modulus"},
    "system": {"n", "r", "dilation_unit", "normalization"},
    "masks": {"file"},
    "scales": {"j0", "j1", "j_max", "epsilon", "cascade_iterations"},
    "suite": {"seed", "count", "resolution"},
    "tolerances": {"gram", "residual", "tail"},
}


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Parsed run configuration: system, scale ranges, suite, tolerances."""

    cfg: FieldConfig
    sys: SystemConfig | None
    j0: int
    j1: int
    j_max: int
    epsilon: float
    cascade_iterations: int
    seed: int
    count: int
    resolution: int
    gram_tol: float
    residual_tol: float
    tail_tol: float

    @classmethod
    def load(cls, path: str, seed: int | None = None,
             need_masks: bool = True) -> "RunConfig":
        parser = configparser.ConfigParser()
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config file {path!r} ({exc})") from exc
        if parser.defaults():
            raise ConfigError("unknown section [DEFAULT]")
        for section in parser.sections():
            if section not in CONFIG_OPTIONS:
                raise ConfigError(f"unknown section [{section}]")
            unknown = sorted(set(parser.options(section)) - CONFIG_OPTIONS[section])
            if unknown:
                raise ConfigError(f"unknown option {unknown[0]!r} in [{section}]")
        try:
            return cls._build(parser, path, seed, need_masks)
        except (ValueError, configparser.Error) as exc:
            if isinstance(exc, WalshFramesError):
                raise
            raise ConfigError(f"malformed config value ({exc})") from exc

    @classmethod
    def _build(cls, parser, path, seed, need_masks):
        sys_cfg = None
        cfg = None
        mask_file = parser.get("masks", "file", fallback=None)
        if mask_file is not None:
            if not os.path.isabs(mask_file):
                mask_file = os.path.join(
                    os.path.dirname(os.path.abspath(path)), mask_file)
            if not os.path.exists(mask_file):
                raise ConfigError(f"masks file {mask_file!r} does not exist")
            sys_cfg = load_masks(mask_file)
            cfg = sys_cfg.field

        if parser.has_section("field"):
            # an empty 'modulus =' states none
            want = FieldConfig.from_text(parser.get("field", "p"),
                                         parser.get("field", "c", fallback="1"),
                                         parser.get("field", "modulus", fallback="") or None)
            if cfg is not None and want != cfg:
                raise ConfigError("field section disagrees with the masks file")
            if cfg is None:
                cfg = want
        if cfg is None:
            raise ConfigError("config needs a [field] section or a [masks] file")
        if need_masks and sys_cfg is None:
            raise ConfigError("this command needs a [masks] file entry")

        if sys_cfg is not None and parser.has_section("system"):
            for key, actual in (("n", sys_cfg.N), ("r", sys_cfg.r),
                                ("dilation_unit", sys_cfg.nu)):
                if parser.has_option("system", key) and \
                        parser.getint("system", key) != actual:
                    raise ConfigError(
                        f"system option {key} disagrees with the masks file")
            stated = parser.get("system", "normalization", fallback=None)
            if stated is not None and stated != sys_cfg.normalization:
                raise ConfigError(
                    "system normalization disagrees with the masks file")

        resolution = parser.getint("suite", "resolution", fallback=4)
        count = parser.getint("suite", "count", fallback=100)
        cfg_seed = parser.getint("suite", "seed", fallback=0)
        seed = cfg_seed if seed is None else seed
        if not 0 <= seed < MAX_SEED:
            raise ConfigError(f"seed must fit in 64 bits, got {seed}")
        if count < 1:
            raise ConfigError(f"suite count must be positive, got {count}")
        if resolution < 0:
            raise ConfigError(f"suite resolution must be >= 0, got {resolution}")
        if not within_cap(cfg.q, resolution):
            raise ConfigError(
                f"suite resolution {resolution} needs q^{resolution} cells, "
                f"above the cap of {CELL_CAP}")

        j0 = parser.getint("scales", "j0", fallback=0)
        j1 = parser.getint("scales", "j1", fallback=resolution)
        j_max = parser.getint("scales", "j_max", fallback=resolution)
        epsilon = parser.getfloat("scales", "epsilon", fallback=0.01)
        iterations = parser.getint("scales", "cascade_iterations", fallback=4)
        if j1 < j0:
            raise ConfigError(f"need j0 <= j1, got [{j0}, {j1}]")
        if j_max < 0 or iterations < 0:
            raise ConfigError("j_max and cascade_iterations must be >= 0")
        if not 0 < epsilon < math.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {epsilon}")
        if sys_cfg is not None:
            # generators hold at most q^(K + iterations) cells
            K = max((m.constancy_resolution for m in sys_cfg.masks), default=0)
            if not within_cap(cfg.q, K + iterations):
                raise ConfigError(f"cascade_iterations needs tables of q^{K + iterations} "
                                  f"cells, above the cap of {CELL_CAP}")

        tolerances = []
        for option, default in (("gram", GRAM_TOL), ("residual", RESIDUAL_TOL),
                                ("tail", TAIL_TOL)):
            tolerances.append(parser.getfloat("tolerances", option, fallback=default))
            if not 0 <= tolerances[-1] < math.inf:
                raise ConfigError(f"[tolerances] {option} must be finite and >= 0, "
                                  f"got {tolerances[-1]}")
        return cls(cfg, sys_cfg, j0, j1, j_max, epsilon, iterations,
                   seed, count, resolution, *tolerances)

    def config_block(self) -> dict:
        cfg = self.cfg
        block = {
            "p": cfg.p,
            "c": cfg.c,
            "modulus": list(cfg.modulus) if cfg.modulus is not None else None,
            "q": cfg.q,
            "j0": self.j0,
            "j1": self.j1,
            "j_max": self.j_max,
            "epsilon": self.epsilon,
            "cascade_iterations": self.cascade_iterations,
            "seed": self.seed,
            "count": self.count,
            "resolution": self.resolution,
            "rng": "pcg64",
        }
        if self.sys is not None:
            block.update({
                "N": self.sys.N,
                "r": self.sys.r,
                "nu": self.sys.nu,
                "normalization": self.sys.normalization,
                "branches": self.sys.branches,
                "lambda_degenerate": self.sys.lambda_degenerate,
                "dilation_amplitude": self.sys.dilation_amplitude,
                "mask_norm_const": self.sys.mask_norm_const,
                "mask_count": len(self.sys.masks),
            })
        return block


def render_report(report: dict) -> str:
    """Strict JSON: a non-finite number is refused rather than written."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DegenerateInput(f"report holds a non-finite number ({exc})") from exc


def suite_blocks(cfg: FieldConfig, resolution: int, count: int, seed: int,
                 width: int = 1):
    """The deterministic random test family: complex standard-normal value
    tables over the resolution grid, drawn from PCG64(seed), real then
    imaginary part per function, in blocks of max(1, SUITE_BLOCK //
    max(q^resolution, width)) functions, width being the entries one
    function adds to the largest table of its checks. Peak memory thus
    does not grow with count, and the stream does not depend on the block.
    A width above CELL_CAP is refused before anything is drawn."""
    if width > CELL_CAP:
        raise ConfigError(f"a suite function needs a table of {width} entries, "
                          f"above the cap of {CELL_CAP}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = cfg.q ** resolution
    size = max(1, SUITE_BLOCK // max(n, width))
    for start in range(0, count, size):
        draw = rng.standard_normal((min(size, count - start), 2, n))
        values = draw[:, 0] + 1j * draw[:, 1]
        del draw   # not kept alive while the block is checked
        yield StepFunction(cfg, resolution, values)


def suite_functions(cfg: FieldConfig, resolution: int, count: int, seed: int):
    """The functions of suite_blocks one at a time."""
    for block in suite_blocks(cfg, resolution, count, seed):
        yield from (StepFunction(cfg, resolution, v) for v in block.values)


def _require_system(rc: RunConfig) -> SystemConfig:
    if rc.sys is None or not rc.sys.masks:
        raise ConfigError("this command needs a masks file with coefficients")
    return rc.sys


# ------------------------------------------------------------- commands --

def field_info_report(rc: RunConfig) -> dict:
    cfg = rc.cfg
    return {
        "version": __version__,
        "command": "field-info",
        "field": {
            "p": cfg.p,
            "c": cfg.c,
            "q": cfg.q,
            "modulus": list(cfg.modulus) if cfg.modulus is not None else None,
            "prime_element": cfg.monomial(1, 1).text(),
            "unit_ball_measure": 1.0,
            "prime_ideal_measure": 1.0 / cfg.q,
        },
        "uindex_table": _uindex_rows(cfg, 32),
    }


def _uindex_rows(cfg: FieldConfig, count: int) -> list[dict]:
    rows = []
    for n in range(count):
        x = uindex(cfg, n)
        rows.append({
            "n": n,
            "element": x.text(),
            "valuation": None if x.is_zero else x.valuation(),
            "norm": x.norm(),
        })
    return rows


def uindex_report(rc: RunConfig, count: int) -> dict:
    if not 1 <= count <= UINDEX_CAP:
        raise ConfigError(f"need an enumeration count in [1, UINDEX_CAP = {UINDEX_CAP}], "
                          f"got {count}")
    return {
        "version": __version__,
        "command": "uindex",
        "p": rc.cfg.p,
        "c": rc.cfg.c,
        "q": rc.cfg.q,
        "table": _uindex_rows(rc.cfg, count),
    }


def verify_report(rc: RunConfig) -> dict:
    sys_cfg = _require_system(rc)

    phi_hat = iterate_refinement(sys_cfg.masks[0], sys_cfg, rc.cascade_iterations)
    part = check_partition(phi_hat, sys_cfg)
    part_min = float(part.values.real.min())
    part_max = float(part.values.real.max())
    partition_ok = abs(part_max - 1.0) <= rc.residual_tol and \
        abs(part_min - 1.0) <= rc.residual_tol
    phi_at_zero = abs(phi_hat.values[0])

    gram = uep_gram(sys_cfg)
    gram.update(tolerance=rc.gram_tol, verdict=gram["max_deviation"] <= rc.gram_tol)
    bessel = bessel_mask_check(sys_cfg.masks[0], sys_cfg)
    bessel.update(tolerance=rc.gram_tol,
                  verdict=bessel["max_sum"] <= 1.0 + rc.gram_tol)

    analyzer = FrameAnalyzer(sys_cfg, wavelet_generators(phi_hat, sys_cfg))
    worst = worst_ratio = 0.0
    width = analyzer.table_width(rc.resolution, rc.j0, rc.j1)
    for f in suite_blocks(sys_cfg.field, rc.resolution, rc.count, rc.seed, width):
        residuals, total = energy_balance(*analyzer.energies(f, rc.j0, rc.j1))
        worst = max(worst, float(residuals.max(initial=0.0)))
        worst_ratio = max(worst_ratio, float(np.abs(total / f.norm2() - 1.0).max()))
        del f, residuals, total   # not alive during the next block

    verdicts = {
        "partition": partition_ok,
        "gram": gram["verdict"],
        "bessel": bessel["verdict"],
        "two_scale": worst <= rc.residual_tol,
        "frame_ratio": worst_ratio <= rc.residual_tol,
    }
    verdicts["overall"] = all(verdicts.values())
    return {
        "version": __version__,
        "command": "verify",
        "config": rc.config_block(),
        "partition_check": {
            "resolution": part.resolution,
            "min": part_min,
            "max": part_max,
            "phi_hat_at_zero": phi_at_zero,
            "degenerate_family": sys_cfg.lambda_degenerate,
            "tolerance": rc.residual_tol,
        },
        "sigma_v0_fraction": sigma_v0(part).norm2(),
        "gram": gram,
        "bessel": bessel,
        "two_scale": {
            "count": rc.count,
            "j0": rc.j0,
            "j1": rc.j1,
            "max_residual": worst,
            # kept for the benchmark's reference report: max_residual itself
            "max_projector_residual": worst,
            "tolerance": rc.residual_tol,
        },
        "frame_ratio": {
            "count": rc.count,
            "j0": rc.j0,
            "j1": rc.j1,
            "max_abs_deviation": worst_ratio,
            "tolerance": rc.residual_tol,
        },
        "verdicts": verdicts,
    }


def periodic_report(rc: RunConfig) -> dict:
    sys_cfg = _require_system(rc)
    cfg = sys_cfg.field

    gram = uep_gram(sys_cfg)
    gram.update(tolerance=rc.gram_tol, verdict=gram["max_deviation"] <= rc.gram_tol)
    generators = derive_generators(sys_cfg, rc.cascade_iterations)
    spec = PeriodicSystemSpec(sys_cfg, generators, rc.j_max)

    all_finite = True
    finite_js = set()
    first_scan = None
    worst_residual = worst_tightness = worst_tail = 0.0
    for f in suite_blocks(cfg, rc.resolution, rc.count, rc.seed, spec.table_width(rc.resolution)):
        energies = folded_energies(f, spec)   # (S, W, ||f||^2, residuals, total)
        Js, S = projection_energy_scan(f, rc.epsilon, spec, energies)
        if first_scan is None:
            first_scan = {"J": Js[0], "sums": S[:, 0].tolist()}
        all_finite = all_finite and None not in Js
        finite_js.update(J for J in Js if J is not None)
        worst_residual = max(worst_residual, float(energies[3].max(initial=0.0)))
        out = periodic_tightness_check(f, spec, energies)
        worst_tightness = max(worst_tightness, float(out["residual"].max()))
        worst_tail = max(worst_tail, float(out["tail"].max()))
        del f, energies, Js, S, out   # not alive during the next block
    max_j = max(finite_js, default=None)

    verdicts = {
        "gram": gram["verdict"],
        "scan_finite": all_finite,
        "two_scale": worst_residual <= rc.residual_tol,
        "tightness": worst_tightness <= rc.residual_tol and worst_tail <= rc.tail_tol,
    }
    verdicts["overall"] = all(verdicts.values())
    return {
        "version": __version__,
        "command": "periodic",
        "config": rc.config_block(),
        "gram": gram,
        "scaling_scan": {
            "epsilon": rc.epsilon,
            "count": rc.count,
            "all_finite": all_finite,
            "max_J": max_j,
            "first_function": first_scan,
        },
        "two_scale_residuals": {
            "count": rc.count,
            "scales": list(range(rc.j_max)),
            "max_residual": worst_residual,
            "tolerance": rc.residual_tol,
        },
        "tightness": {
            "count": rc.count,
            "max_residual": worst_tightness,
            "max_tail": worst_tail,
            "residual_tolerance": rc.residual_tol,
            "tail_tolerance": rc.tail_tol,
        },
        "verdicts": verdicts,
    }


def dump_wavelets_report(rc: RunConfig, out_dir: str) -> dict:
    sys_cfg = _require_system(rc)
    generators = derive_generators(sys_cfg, rc.cascade_iterations)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    norms = []
    resolutions = []
    for l, g in enumerate(generators):
        name = "phi.csv" if l == 0 else f"psi_{l}.csv"
        dump_csv(g, os.path.join(out_dir, name))
        files.append(name)
        norms.append(g.norm2())
        resolutions.append(g.resolution)
    return {
        "version": __version__,
        "command": "dump-wavelets",
        "config": rc.config_block(),
        "directory": out_dir,
        "files": files,
        "norm2": norms,
        "resolutions": resolutions,
    }
