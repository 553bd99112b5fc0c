"""Mask calculus and exact frame verification.

A mask is a finitely supported character polynomial over the translation
family: m(xi) = norm_const * sum_idx a_idx * conj(chi(lambda_idx * xi)),
the transform of F_m, the amplitudes a_idx placed on the cells
lambda_idx + D. Mask values come from harmonic's kernel alone, and a shift
in D only translates their digits. Masks are locally constant, so every
check below reduces to finitely many exact evaluations:

  * refinement and wavelet generation in the frequency domain,
  * the partition-of-unity sum over the translation family,
  * the shift-Gram (perfect reconstruction) matrix and a Bessel bound,
  * the per-scale energy identity and the frame sum of the squared
    coefficients, each energy one product of transforms (see
    FrameAnalyzer.energies), so no translated member is built.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .algebra import FieldConfig, LambdaIndex, SystemConfig, cell_index, digit_count
from .errors import ConfigError, DegenerateInput, InputDataError
from .harmonic import fast_inverse_transform, fast_transform
from .stepfn import (
    CELL_CAP,
    StepFunction,
    dilate,
    inner,
    periodize,
    prune,
    refine,
    rescale,
    translate,
    unit_ball,
    within_cap,
)

__all__ = [
    "FrameAnalyzer",
    "Mask",
    "PRUNE_TOL",
    "STRUCTURAL_TOL",
    "bessel_mask_check",
    "check_partition",
    "derive_generators",
    "energy_balance",
    "iterate_refinement",
    "load_masks",
    "mask_refine",
    "nu_power",
    "sigma_v0",
    "system_member",
    "uep_gram",
]

STRUCTURAL_TOL = 1e-12   # identities that involve no transform roundoff
PRUNE_TOL = 1e-14        # noise floor for iterated frequency products

MASK_MAGIC = "# walshframes-masks v1"
MASK_HEADER_KEYS = ("p", "c", "modulus", "N", "r", "nu", "normalization")


class Mask:
    """Finitely supported coefficients over the translation family."""

    __slots__ = ("sys", "coeffs", "name", "_cells", "constancy_resolution", "_table")

    def __init__(self, sys: SystemConfig,
                 coeffs: Mapping | Iterable[tuple], name: str = "a mask"):
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        table: dict[LambdaIndex, complex] = {}
        for idx, value in items:
            idx = LambdaIndex(int(idx[0]), int(idx[1]))
            if idx.n < 0 or idx.delta not in (0, 1):
                raise ValueError(f"bad coefficient index {idx!r}")
            value = complex(value)
            if value != 0:
                table[idx] = value
        self.sys = sys
        self.coeffs = table
        self.name = name   # "mask l" in its mask file, for error messages
        # lambda_idx has negative exponents only, so lambda_idx + D is the
        # cell of this index at resolution 0; K is the widest one's digit count
        self._cells = [(cell_index(sys.q, sys.lambda_element(idx).terms, 0), a)
                       for idx, a in sorted(table.items())]
        self.constancy_resolution = digit_count(
            sys.q, max((cell for cell, _ in self._cells), default=0))
        self._table = None

    @property
    def table(self) -> StepFunction:
        """The finitely many values m takes on D, one cell per coset of B^K:
        the transform of F_m times mask_norm_const, formed on first use and
        kept (read-only). m is lattice periodic, so this determines it.
        ConfigError, naming the mask, if a value passes the largest double."""
        if self._table is None:
            cfg, K = self.sys.field, self.constancy_resolution
            F_m = np.zeros(cfg.q ** K, dtype=complex)
            for cell, a in self._cells:
                F_m[cell] += a   # two indices of the degenerate family share a cell
            try:
                m_hat = fast_transform(StepFunction(cfg, 0, F_m, -K))
            except InputDataError as exc:
                raise ConfigError(f"the values of {self.name} exceed the largest double") from exc
            self._table = refine(m_hat, K).scale(self.sys.mask_norm_const)
            self._table.values.flags.writeable = False
        return self._table

    def __repr__(self):
        return f"<Mask terms={len(self.coeffs)} K={self.constancy_resolution}>"


# --------------------------------------------------- frequency-side products --

def mask_refine(phi_hat: StepFunction, mask: Mask, sys: SystemConfig,
                step: int | None = None) -> StepFunction:
    """xi -> mask(w xi) * phi_hat(w xi) with w = t * nu^(-1), exact cellwise:
    the refinement product for the low-pass mask (of the given step), a
    wavelet's transform for a high-pass one. ConfigError if it overflows,
    rather than letting prune read its NaN cells as zero."""
    g = refine(phi_hat, max(phi_hat.resolution, mask.constancy_resolution))
    # the mask repeats its table on D across every lattice translate of D
    m = np.resize(refine(mask.table, g.resolution).values, g.values.size)
    with np.errstate(over="ignore", invalid="ignore"):
        product = g.values * m
    if not np.isfinite(product).all():
        at = "" if step is None else f" in refinement step {step}"
        raise ConfigError(f"the product with {mask.name}{at} exceeds the largest double")
    return rescale(StepFunction(sys.field, g.resolution, product, g.lo), sys.nu, -1)


def iterate_refinement(m0: Mask, sys: SystemConfig, iterations: int) -> StepFunction:
    """Iterate the refinement product from the unit-ball seed; cells whose
    amplitude falls below PRUNE_TOL are dropped so that roundoff cannot
    inflate the support of a genuinely refinable limit."""
    if iterations < 0:
        raise ConfigError("iteration count must be nonnegative")
    phi_hat = unit_ball(sys.field)
    for step in range(1, iterations + 1):
        phi_hat = prune(mask_refine(phi_hat, m0, sys, step), PRUNE_TOL)
    return phi_hat


def derive_generators(sys: SystemConfig, iterations: int = 4) -> tuple[StepFunction, ...]:
    """The generators' transforms (phi^, psi_1^, ..., psi_L^): m_0's
    refinement iterate, and its refinement product with each high-pass mask.
    No gate, so detectably broken masks still produce inspectable ones."""
    if not sys.masks:
        raise ConfigError("system has no masks configured")
    phi_hat = iterate_refinement(sys.masks[0], sys, iterations)
    return (phi_hat,) + tuple(prune(mask_refine(phi_hat, ml, sys), PRUNE_TOL)
                              for ml in sys.masks[1:])


# ------------------------------------------------------ partition of unity --

def check_partition(phi_hat: StepFunction, sys: SystemConfig) -> StepFunction:
    """Per-cell value of sum_lambda |phi_hat(xi + lambda)|^2 on D.

    Every translation has purely negative digits, so a support cell h + B^K
    lands in D under exactly one lattice value, its own fractional part; the
    indexed family hits that value `branches` times. The sum is therefore
    the periodization of branches * |phi_hat|^2.
    """
    g = refine(phi_hat, max(phi_hat.resolution, 0))
    return periodize(StepFunction(g.cfg, g.resolution,
                                  np.abs(g.values) ** 2 * sys.branches, g.lo))


def sigma_v0(part: StepFunction) -> StepFunction:
    """Indicator of the cells of D where the partition sum (check_partition's
    table) exceeds STRUCTURAL_TOL.

    The norm2 of the result is the Haar measure of that cell set.
    """
    return StepFunction(part.cfg, part.resolution,
                        np.abs(part.values) > STRUCTURAL_TOL)


# ------------------------------------------------------------- UEP matrix --

def _shifted_tables(m: Mask, shifts, resolution: int) -> np.ndarray:
    """m(xi + shift) over the cells xi of D at the given resolution (at least
    m's constancy resolution), one row per shift: every shift lies in D, so a
    row is m's one table with its digits translated, exactly."""
    table = refine(m.table, resolution)
    return np.array([translate(table, -shift).window(0).values for shift in shifts])


def uep_gram(sys: SystemConfig) -> dict:
    """Max deviation of G(xi) = sum_l m_l(xi+tau_s) conj(m_l(xi+tau_s'))
    from the identity over the cells of D."""
    if not sys.masks:
        raise ConfigError("system has no masks configured")
    K = max(m.constancy_resolution for m in sys.masks)
    T = np.array([_shifted_tables(m, sys.shift_set, K) for m in sys.masks])
    G = np.einsum("lsc,ltc->cst", T, np.conj(T))
    dev = np.abs(G - np.eye(len(sys.shift_set)))
    return {
        "max_deviation": float(dev.max()),
        "resolution": K,
        "cells_checked": int(dev.shape[0]),
    }


def bessel_mask_check(m0: Mask, sys: SystemConfig) -> dict:
    """The largest per-cell sum_s |m0(xi + tau_s)|^2; the Bessel bound is 1."""
    rows = _shifted_tables(m0, sys.shift_set, m0.constancy_resolution)
    return {"max_sum": float(np.sum(np.abs(rows) ** 2, axis=0).max())}


# ------------------------------------------------------------ member system --

def system_member(l: int, j: int, idx: LambdaIndex, sys: SystemConfig,
                  transforms: Sequence[StepFunction]) -> StepFunction:
    """Generator l, the inverse transform of transforms[l], translated by
    lambda_idx, then taken through j dilation steps."""
    g = translate(fast_inverse_transform(transforms[l]), sys.lambda_element(idx))
    for _ in range(abs(j)):
        g = dilate(g, sys, "fine" if j > 0 else "coarse")
    return g


def nu_power(sys: SystemConfig, j: int) -> int:
    """nu^j in GF(q), for any integer j: nu^(q-1) = 1."""
    return functools.reduce(sys.field.gf_mul, [sys.nu] * (j % (sys.q - 1)), 1)


def _table(f: StepFunction, lo: int, k: int) -> np.ndarray:
    """f's table over B^lo / B^k, for f.lo <= lo and f.resolution <= k: the
    cells of f's window inside B^lo, refined to resolution k."""
    q, r = f.cfg.q, f.resolution
    values = f.values[..., :1] if lo >= r else f.values[..., :q ** (r - lo)]
    return np.repeat(values, q ** (k - max(r, lo)), axis=-1)


def _folded_norm2(a: StepFunction, b: StepFunction) -> np.ndarray:
    """q^k ||periodize(a conj(b))||^2 over D per function of a block a, formed
    at resolution k = max(res(a), res(b)) over the smaller of the windows."""
    q, lo = a.cfg.q, max(a.lo, b.lo)
    k = max(a.resolution, b.resolution, lo)
    F = _table(a, lo, k) * np.conj(_table(b, lo, k))
    if k <= 0:   # constant on D: a cell holds q^-k lattice points
        return np.abs(F.sum(axis=-1)) ** 2 * float(q) ** -k
    if lo < 0:   # sum over the digits at negative exponents
        F = F.reshape(F.shape[:-1] + (-1, q ** k)).sum(axis=-2)
    return np.sum(np.abs(F) ** 2, axis=-1)


def energy_balance(S: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residuals, total) of n + 1 consecutive scales, scale along the first
    axis: S the scaling energies, W the wavelet energies (the first n read).
    residuals[i] = |S[i+1] - (S[i] + W[i])|, the two-scale balance of step i;
    total = S[0] + W[0] + ... + W[n-1], added in that order: the frame sum."""
    n = len(S) - 1
    total = np.cumsum(np.concatenate((S[:1], W[:n])), axis=0)[-1]
    return np.abs(S[1:] - (S[:-1] + W[:n])), total


class FrameAnalyzer:
    """Coefficient analysis against one system, given by the transforms of
    its generators (derive_generators). The checks take one function, or a
    block with one number per function."""

    __slots__ = ("sys", "transforms", "_members")

    def __init__(self, sys: SystemConfig, transforms: Sequence[StepFunction]):
        if not transforms:
            raise ConfigError("need at least the refinable generator")
        self.sys = sys
        self.transforms = tuple(transforms)
        self._members: dict = {}   # always empty: perfbench's cache probe reads it

    def member(self, l: int, j: int, idx: LambdaIndex) -> StepFunction:
        """The member D^j T_lambda(idx) g_l as a step function."""
        return system_member(l, j, idx, self.sys, self.transforms)

    def coefficient_row(self, f: StepFunction, l: int, j: int) -> dict[LambdaIndex, complex]:
        """All <f, member(l, j, idx)> whose supports overlap, for one f, member
        by member. The scan is exhaustive: a translation outside B^A,
        A = min(ball(f) - j, -res(g_l^)), cannot meet f's support, since g_l
        lies in B^-res(g_l^)."""
        exp = max(0, j - f.support_ball(), self.transforms[l].resolution)
        if self.sys.branches == 2:
            exp = max(exp, -self.sys.theta.valuation())
        if not within_cap(self.sys.q, exp):
            raise ConfigError(f"the coefficient row of generator {l} at scale {j} scans "
                              f"q^{exp} translations, above the cap of {CELL_CAP}")
        ind = StepFunction(f.cfg, f.resolution, f.values != 0, f.lo)
        row = {}
        for delta in range(self.sys.branches):
            for idx in (LambdaIndex(n, delta) for n in range(self.sys.q ** exp)):
                h = self.member(l, j, idx)
                # the supports overlap where |h| has a nonzero integral over f's cells
                if inner(ind, StepFunction(h.cfg, h.resolution, np.abs(h.values), h.lo)):
                    row[idx] = inner(f, h)
        return row

    def energies(self, f: StepFunction, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
        """(S, W) over the scales j0..j1 in folded_energies' layout: per scale,
        then per function of a block, the summed |<f, member>|^2 of the scaling
        generator (S) and of the wavelet generators (W, to j1 - 1).

        By Plancherel and the fiberization identity of Ron and Shen (1997),
        the members of (l, j) give B s^(2j) ||periodize(F)||^2 over D, with
        F(xi) = f^(a^j xi) conj(g_l^(xi)), a = t^(-1) nu, s the dilation
        amplitude and B the branch count: the offset branch is the lattice
        relabelled. Multiplying xi by the unit nu^-j maps the lattice and D
        onto themselves, so F may take f^(t^-j xi) conj(g_l^(nu^-j xi)): f^
        is transformed once, and only its window moves with j. Up to the scale
        lo(g_l^) - res(f^), F is f^(0) times g_l^ with its cells permuted by
        nu^-j, and from max(res(g_l^), 0) - lo(f^) on, f^ times g_l^(0): the
        norm is formed at the scales between and kept for the rest, and only
        s^(2j) q^-k = (s^2 / q)^j q^(j - k), k = max(res(f^) + j, res(g_l^)),
        moves with j there."""
        fhat = fast_transform(f)
        S = np.zeros((j1 - j0 + 1,) + f.values.shape[:-1])
        W = np.zeros_like(S[1:])
        B, ratio, q = self.sys.branches, self.sys.dilation_ratio, self.sys.q
        for l, ghat in enumerate(self.transforms):   # W adds generator l = 1, 2, ... in turn
            E = W if l else S
            last = j0 + len(E) - 1   # E may be empty: then one empty slice below
            js = np.arange(j0, last + 1).reshape((-1,) + (1,) * (S.ndim - 1))
            # powers below 2^-1100 are 0.0: left unformed, off numpy's slow underflow path
            x = np.minimum(-fhat.resolution, js - ghat.resolution)   # j - k
            scale = B * np.power(float(q), x, out=np.zeros(js.shape), where=x >= -1100)
            if ratio > 1:
                scale *= np.power(float(ratio), js, out=np.zeros(js.shape), where=js >= -1100)
            c0 = min(max(j0, ghat.lo - fhat.resolution), last)
            c1 = max(min(last, max(ghat.resolution, 0) - fhat.lo), c0)
            for c in range(c0, c1 + 1):
                fc = StepFunction(f.cfg, fhat.resolution + c, fhat.values, fhat.lo + c)
                at = slice(0 if c == c0 else c - j0, None if c == c1 else c - j0 + 1)
                E[at] += scale[at] * _folded_norm2(fc, rescale(ghat, nu_power(self.sys, c), 0))
        return S, W

    def table_width(self, k: int, j0: int, j1: int) -> int:
        """Entries one function on D at resolution k adds to the largest table
        the checks over [j0, j1) form: its j1 - j0 + 1 energies, checked
        first, its transform, or a product with a generator's transform,
        which holds no more cells than the larger of the two. A range whose
        energy factor B (s^2 / q)^j1 passes the largest double is refused."""
        q = self.sys.q
        if j1 - j0 + 1 > CELL_CAP:
            raise ConfigError(f"the energies of scales {j0} to {j1} need {j1 - j0 + 1} "
                              f"entries per function, above the cap of {CELL_CAP}")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.sys.branches * np.power(
                    float(self.sys.dilation_ratio), float(j1))):
                raise ConfigError(f"the energies of scale {j1} carry a factor "
                                  f"B (s^2/q)^{j1} past the largest double")
        return max(j1 - j0 + 1, q ** k, *(g.values.shape[-1] for g in self.transforms))

    def two_scale_check(self, f: StepFunction, j: int):
        """energy_balance's residual across one scale step of the summed
        squared coefficients."""
        return energy_balance(*self.energies(f, j, j + 1))[0][0]

    def frame_ratio(self, f: StepFunction, j0: int, j1: int):
        """(coarse-scale energy + wavelet energies over [j0, j1)) / ||f||^2."""
        n2 = f.norm2()
        if np.any(n2 == 0.0):
            raise DegenerateInput("frame ratio of the zero function")
        return energy_balance(*self.energies(f, j0, j1))[1] / n2


# ---------------------------------------------------------------- mask files --

def _lines(src: TextIO) -> Iterator[tuple[int, str]]:
    """src's lines numbered from 1, refusing one with a surrogate-escaped byte."""
    for n, line in enumerate(src, start=1):
        if any("\udc80" <= c <= "\udcff" for c in line):
            raise InputDataError(f"line {n}: a byte that is not UTF-8")
        yield n, line


def load_masks(src: str | TextIO) -> SystemConfig:
    """The system a mask file describes, with its masks attached: a
    field/system header of "key = value" lines, then one block per mask,
    "mask l" and rows "n delta re im".

    Structural problems in the file raise InputDataError with a line
    number; inconsistent field/system parameters raise ConfigError.
    """
    if isinstance(src, str):
        with open(src, encoding="utf-8", errors="surrogateescape") as fh:
            return load_masks(fh)
    lines = _lines(src)
    if not next(lines, (1, ""))[1].startswith(MASK_MAGIC):
        raise InputDataError("line 1: missing mask file header")
    header: dict[str, str] = {}
    rows: list[dict[tuple[int, int], complex]] = []
    offset_lines: list[int] = []
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("mask"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) != len(rows):
                raise InputDataError(
                    f"line {lineno}: mask sections must be numbered consecutively")
            rows.append({})
            continue
        if not rows:
            key, sep, val = (part.strip() for part in line.partition("="))
            if not sep:
                raise InputDataError(f"line {lineno}: expected 'key = value'")
            if key not in MASK_HEADER_KEYS:
                raise InputDataError(f"line {lineno}: unknown header key {key!r}")
            if key in header:
                raise InputDataError(f"line {lineno}: repeated header key {key!r}")
            header[key] = val
            continue
        parts = line.split()
        if len(parts) != 4:
            raise InputDataError(f"line {lineno}: expected 'n delta re im'")
        try:
            key = (int(parts[0]), int(parts[1]))
            value = complex(float(parts[2]), float(parts[3]))
        except ValueError as exc:
            raise InputDataError(f"line {lineno}: malformed row ({exc})") from exc
        if key[0] < 0 or key[1] not in (0, 1):
            raise InputDataError(
                f"line {lineno}: index needs n >= 0 and delta in {{0, 1}}")
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise InputDataError(f"line {lineno}: non-finite coefficient")
        if key in rows[-1]:
            raise InputDataError(f"line {lineno}: duplicate coefficient index")
        if key[1]:
            offset_lines.append(lineno)
        rows[-1][key] = value
    try:
        cfg = FieldConfig.from_text(header["p"], header["c"], header.get("modulus"))
    except KeyError as exc:
        raise ConfigError(f"mask file header needs p and c ({exc})") from exc
    try:
        N = int(header.get("N", "1"))
        r = int(header.get("r", "1"))
        nu = int(header["nu"]) if "nu" in header else None
    except ValueError as exc:
        raise ConfigError(f"mask file header has a malformed value ({exc})") from exc
    if N == 1 and offset_lines:
        raise InputDataError(
            f"line {offset_lines[0]}: delta = 1 needs an offset branch, but N = 1")
    base = SystemConfig(cfg, N, r, dilation_unit=nu,
                        normalization=header.get("normalization", "unitary"))
    return base.with_masks(tuple(Mask(base, block, f"mask {l}")
                                 for l, block in enumerate(rows)))
