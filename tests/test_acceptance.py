"""End-to-end acceptance gate.

One test per acceptance criterion, in order; each prints a single
pass/fail line and enforces the stated tolerance and runtime budget.
"""

import json
import os
import time

import numpy as np
import pytest
from oracles import character_table, dense_transform, modulate_table

from walshframes.algebra import FieldConfig, SystemConfig, uindex
from walshframes.cli import main
from walshframes.framekit import (
    FrameAnalyzer,
    Mask,
    derive_generators,
    uep_gram,
)
from walshframes.harmonic import fast_inverse_transform, fast_transform, fourier_table
from walshframes.periodic import (
    PeriodicSystemSpec,
    folded_energies,
    periodic_tightness_check,
    projection_energy_scan,
)
from walshframes.runner import RunConfig, periodic_report, verify_report
from walshframes.stepfn import (
    StepFunction,
    inner,
    translate,
    unit_ball,
)

_T0 = time.perf_counter()

CONFIGS = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "configs"))

FIELDS = (FieldConfig(2), FieldConfig(3), FieldConfig(2, 2, (1, 1, 1)))


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_table(cfg, resolution, rng):
    n = cfg.q ** resolution
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return StepFunction(cfg, resolution, vals)


def test_criterion_1_character_orthonormality():
    start = time.perf_counter()
    worst = 0.0
    for cfg in FIELDS:
        count = cfg.q ** 4
        table = np.array([character_table(cfg, uindex(cfg, n), 4)
                          for n in range(count)])
        gram = table @ table.conj().T / cfg.q ** 4
        worst = max(worst, float(np.abs(gram - np.eye(count)).max()))
        # tie the dense grid route to the step-function integral
        for n, m in ((0, 0), (1, 1), (1, 2), (3, 7)):
            a = modulate_table(unit_ball(cfg), uindex(cfg, n))
            b = modulate_table(unit_ball(cfg), uindex(cfg, m))
            assert abs(inner(a, b) - gram[n, m]) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-10 and elapsed < 5.0,
            f"max gram deviation {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_uindex_identities():
    ok = True
    for cfg in FIELDS:
        q = cfg.q
        for k in range(4):
            shift = cfg.monomial(1, -k)
            for r in range(q ** 3):
                base = uindex(cfg, r) * shift
                for s in range(q ** k):
                    if uindex(cfg, r * q ** k + s) != base + uindex(cfg, s):
                        ok = False
        seen = {uindex(cfg, n).terms for n in range(q ** 6)}
        ok = ok and len(seen) == q ** 6
    _report(2, ok, "digit-splitting identity and injectivity, exact")


def test_criterion_3_plancherel_and_parseval():
    worst_plancherel = 0.0
    worst_parseval = 0.0
    for cfg in FIELDS:
        rng = np.random.default_rng(314159 + cfg.q)
        for _ in range(100):
            f = _random_table(cfg, 3, rng)
            coeffs = fourier_table(f)
            n2 = f.norm2()
            worst_parseval = max(
                worst_parseval,
                abs(float(np.sum(np.abs(coeffs) ** 2)) - n2) / n2)
            g = translate(f, uindex(cfg, 1))
            defect = abs(fast_transform(g).norm2() - g.norm2()) / g.norm2()
            worst_plancherel = max(worst_plancherel, defect)
    _report(3, worst_plancherel <= 1e-9 and worst_parseval <= 1e-9,
            f"plancherel {worst_plancherel:.3e}, parseval {worst_parseval:.3e}")


def test_criterion_4_fast_transform_oracle():
    cfg = FieldConfig(2)
    rng = np.random.default_rng(8128)
    worst = 0.0

    def cellwise(a, b):
        diff = a - b
        return max((abs(v) for v in diff.cells.values()), default=0.0)

    for _ in range(100):
        f = translate(_random_table(cfg, 6, rng), uindex(cfg, 1))
        worst = max(worst, cellwise(fast_transform(f), dense_transform(f)))
        worst = max(worst, cellwise(fast_inverse_transform(f),
                                    dense_transform(f, forward=False)))
    _report(4, worst <= 1e-9,
            f"fast vs dense character matrix, max cellwise difference {worst:.3e}")


def test_criterion_5_uniform_baseline_verification():
    start = time.perf_counter()
    worst_gram = 0.0
    worst_residual = 0.0
    worst_ratio = 0.0
    for name in ("haar_q2.cfg", "fourier_q3.cfg"):
        rc = RunConfig.load(os.path.join(CONFIGS, name))
        report = verify_report(rc)
        assert report["verdicts"]["overall"] is True
        assert report["config"]["count"] == 100
        assert (report["config"]["j0"], report["config"]["j1"]) == (0, 4)
        worst_gram = max(worst_gram, report["gram"]["max_deviation"])
        worst_residual = max(worst_residual,
                             report["two_scale"]["max_residual"],
                             report["two_scale"]["max_projector_residual"])
        worst_ratio = max(worst_ratio,
                          report["frame_ratio"]["max_abs_deviation"])
    elapsed = time.perf_counter() - start
    _report(5, worst_gram <= 1e-10 and worst_residual <= 1e-9
            and worst_ratio <= 1e-9 and elapsed < 30.0,
            f"gram {worst_gram:.3e}, two-scale {worst_residual:.3e}, "
            f"ratio dev {worst_ratio:.3e}, {elapsed:.2f}s")


def test_criterion_6_periodic_tight_frame():
    worst_tight = 0.0
    worst_scale = 0.0
    scans_ok = True
    for name in ("haar_q2.cfg", "fourier_q3.cfg"):
        rc = RunConfig.load(os.path.join(CONFIGS, name))
        assert rc.count == 100 and rc.resolution == 4 and rc.j_max == 4
        report = periodic_report(rc)
        assert report["verdicts"]["overall"] is True
        worst_tight = max(worst_tight, report["tightness"]["max_residual"])
        worst_scale = max(worst_scale,
                          report["two_scale_residuals"]["max_residual"])
        scans_ok = scans_ok and report["scaling_scan"]["all_finite"]
        # scan values must be exact (to tolerance) from the found scale on
        sys_cfg = rc.sys
        spec = PeriodicSystemSpec(
            sys_cfg, derive_generators(sys_cfg, rc.cascade_iterations),
            rc.j_max)
        rng = np.random.default_rng(271828)
        for _ in range(5):
            f = _random_table(sys_cfg.field, 4, rng)
            J, sums = projection_energy_scan(f, rc.epsilon, spec,
                                             folded_energies(f, spec))
            scans_ok = scans_ok and J is not None and all(
                abs(sums[j] - f.norm2()) <= 1e-9 * f.norm2()
                for j in range(J, rc.j_max + 1))
    _report(6, worst_tight <= 1e-9 and worst_scale <= 1e-9 and scans_ok,
            f"tightness {worst_tight:.3e}, per-scale {worst_scale:.3e}, "
            f"scans finite and exact past J")


def _perturbed_system(base_sys, rows, l, key):
    rows = [dict(r) for r in rows]
    rows[l][key] = rows[l][key] + 0.01
    return base_sys.with_masks(
        tuple(Mask(base_sys, row) for row in rows))


def test_criterion_7_negative_controls():
    import math
    rt2 = 1 / math.sqrt(2)
    rt3 = 1 / math.sqrt(3)
    w3 = complex(np.exp(2j * np.pi / 3))
    cases = (
        (SystemConfig(FieldConfig(2), N=1, r=1),
         [{(0, 0): rt2, (1, 0): rt2}, {(0, 0): rt2, (1, 0): -rt2}]),
        (SystemConfig(FieldConfig(3), N=1, r=1),
         [{(n, 0): rt3 * w3 ** (l * n) for n in range(3)} for l in range(3)]),
    )
    flipped = True
    for base, rows in cases:
        cfg = base.field
        for l in range(len(rows)):
            for key in rows[l]:
                sys_p = _perturbed_system(base, rows, l, key)
                gram_dev = uep_gram(sys_p)["max_deviation"]
                gens = derive_generators(sys_p, 4)
                analyzer = FrameAnalyzer(sys_p, gens)
                spec = PeriodicSystemSpec(sys_p, gens, 3)
                rng = np.random.default_rng(1000 + cfg.q + 10 * l)
                worst_scale = 0.0
                worst_tight = 0.0
                for _ in range(5):
                    f = _random_table(cfg, 3, rng)
                    worst_scale = max(
                        worst_scale,
                        analyzer.two_scale_check(f, 0))
                    worst_tight = max(
                        worst_tight,
                        periodic_tightness_check(
                            f, spec, folded_energies(f, spec))["residual"])
                this = gram_dev >= 1e-3 and worst_scale >= 1e-3 \
                    and worst_tight >= 1e-3
                flipped = flipped and this
    runner_exit = main(["verify", "--config",
                        os.path.join(CONFIGS, "haar_q2_perturbed.cfg"),
                        "--out", os.devnull])
    _report(7, flipped and runner_exit == 1,
            f"all single-coefficient perturbations flip all three verdicts, "
            f"runner exit {runner_exit}")


def test_criterion_8_nonuniform_detection(tmp_path):
    ok = True
    for name in ("nonuniform_q2_N3_r1.cfg", "nonuniform_q2_N3_r5.cfg"):
        out = str(tmp_path / (name + ".json"))
        code = main(["verify", "--config", os.path.join(CONFIGS, name),
                     "--out", out])
        with open(out) as fh:
            report = json.load(fh)
        ok = ok and code == 1
        ok = ok and report["config"]["lambda_degenerate"] is True
        ok = ok and abs(report["partition_check"]["max"] - 2.0) <= 1e-12
        ok = ok and abs(report["partition_check"]["min"] - 2.0) <= 1e-12
    _report(8, ok, "partition sum is exactly 2, degeneracy flagged, exit 1")


def test_criterion_9_reproducibility_and_runtime(tmp_path):
    identical = True
    for command in ("verify", "periodic"):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main([command, "--config",
                         os.path.join(CONFIGS, "haar_q2.cfg"),
                         "--out", out]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            identical = identical and fa.read() == fb.read()
    elapsed = time.perf_counter() - _T0
    _report(9, identical and elapsed < 60.0,
            f"byte-identical reports, acceptance module {elapsed:.2f}s")
