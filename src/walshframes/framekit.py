"""Mask calculus and exact frame verification.

A mask is a finitely supported character polynomial over the translation
family: m(xi) = norm_const * sum_idx a_idx * conj(chi(lambda_idx * xi)).
Masks are locally constant, so every check below reduces to finitely many
exact evaluations:

  * refinement and wavelet generation in the frequency domain,
  * the partition-of-unity sum over the translation family,
  * the shift-Gram (perfect reconstruction) matrix and a Bessel bound,
  * frame-coefficient analysis of the dilate/translate system with
    support-exact truncation of the translation sums, and
  * the per-scale energy identity with materialized projection operators.

The FrameAnalyzer keeps one MemberBank per (generator, scale) pair: every
translation member the scan can reach, as numpy arrays, so a whole suite of
test functions is pushed through the same system by vectorized reductions.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .algebra import (
    FieldConfig,
    FieldElement,
    LambdaIndex,
    SystemConfig,
    chi,
)
from .errors import ConfigError, DegenerateInput, InputDataError, NotNormalized
from .harmonic import character_table, fast_inverse_transform
from .stepfn import (
    StepFunction,
    cell_digits,
    cell_index,
    cell_integrals,
    digit_count,
    dilate,
    periodize,
    prune,
    refine,
    rescale,
    translate,
    unit_ball,
)

__all__ = [
    "FrameAnalyzer",
    "GRAM_TOL",
    "Mask",
    "MemberBank",
    "NORMALIZATION_GATE",
    "PRUNE_TOL",
    "STRUCTURAL_TOL",
    "TRANSFORM_TOL",
    "bessel_mask_check",
    "cascade",
    "check_partition",
    "derive_generators",
    "iterate_refinement",
    "load_masks",
    "mask_cells",
    "mask_refine",
    "save_masks",
    "sigma_v0",
    "system_member",
    "translation_digits",
    "uep_gram",
]

STRUCTURAL_TOL = 1e-12   # identities that involve no transform roundoff
TRANSFORM_TOL = 1e-9     # identities mediated by transforms / long sums
GRAM_TOL = 1e-10         # verdict threshold for the shift-Gram matrix
NORMALIZATION_GATE = 1e-6
PRUNE_TOL = 1e-14        # noise floor for iterated frequency products

MASK_MAGIC = "# walshframes-masks v1"
MASK_HEADER_KEYS = ("p", "c", "modulus", "N", "r", "nu", "normalization")


class Mask:
    """Finitely supported coefficients over the translation family."""

    __slots__ = ("sys", "coeffs", "_terms", "constancy_resolution")

    def __init__(self, sys: SystemConfig,
                 coeffs: Mapping | Iterable[tuple]):
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
        self._terms = tuple((idx, sys.lambda_element(idx), a)
                            for idx, a in sorted(table.items()))
        K = 0
        for _, lam, _ in self._terms:
            if not lam.is_zero:
                K = max(K, -lam.valuation())
        self.constancy_resolution = K

    def items_sorted(self) -> list[tuple[LambdaIndex, complex]]:
        return [(idx, a) for idx, _, a in self._terms]

    def __repr__(self):
        return f"<Mask terms={len(self._terms)} K={self.constancy_resolution}>"


def mask_cells(m: Mask) -> StepFunction:
    """The finitely many values m takes on D, one cell per coset of B^K;
    m is lattice periodic, so this table determines it everywhere."""
    K = m.constancy_resolution
    return StepFunction(m.sys.field, K, _mask_table(m, m.sys.field.zero(), K))


# --------------------------------------------------- frequency-side products --

def mask_refine(phi_hat: StepFunction, mask: Mask, sys: SystemConfig) -> StepFunction:
    """xi -> mask(w xi) * phi_hat(w xi) with w = t * nu^(-1), exact cellwise:
    the refinement product for the low-pass mask, a wavelet's transform for
    a high-pass one."""
    g = refine(phi_hat, max(phi_hat.resolution, mask.constancy_resolution))
    # the mask repeats its table on D across every lattice translate of D
    m = np.resize(refine(mask_cells(mask), g.resolution).values, g.values.size)
    return rescale(StepFunction(sys.field, g.resolution, g.values * m, g.lo),
                   sys.nu, -1)


def iterate_refinement(m0: Mask, sys: SystemConfig, iterations: int) -> StepFunction:
    """Iterate the refinement product from the unit-ball seed; cells whose
    amplitude falls below PRUNE_TOL are dropped so that roundoff cannot
    inflate the support of a genuinely refinable limit."""
    if iterations < 0:
        raise ConfigError("iteration count must be nonnegative")
    phi_hat = unit_ball(sys.field)
    for _ in range(iterations):
        phi_hat = prune(mask_refine(phi_hat, m0, sys), PRUNE_TOL)
    return phi_hat


def cascade(m0: Mask, sys: SystemConfig, iterations: int) -> StepFunction:
    """Time-side refinable approximant; requires m0 normalized at 0."""
    dev = abs(mask_cells(m0).values[0] - 1)
    if dev > NORMALIZATION_GATE:
        raise NotNormalized(
            f"mask value at 0 is off by {dev:.3e} (gate {NORMALIZATION_GATE})")
    return fast_inverse_transform(iterate_refinement(m0, sys, iterations))


def derive_generators(sys: SystemConfig, iterations: int = 4) -> tuple[StepFunction, ...]:
    """(phi, psi_1, ..., psi_L) from the configured masks; no normalization
    gate, so detectably broken masks still produce inspectable generators."""
    if not sys.masks:
        raise ConfigError("system has no masks configured")
    phi_hat = iterate_refinement(sys.masks[0], sys, iterations)
    gens = [fast_inverse_transform(phi_hat)]
    for ml in sys.masks[1:]:
        gens.append(fast_inverse_transform(
            prune(mask_refine(phi_hat, ml, sys), PRUNE_TOL)))
    return tuple(gens)


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


def sigma_v0(phi_hat: StepFunction, sys: SystemConfig) -> StepFunction:
    """Indicator of the cells of D where the partition sum exceeds
    STRUCTURAL_TOL.

    The norm2 of the result is the Haar measure of that cell set.
    """
    part = check_partition(phi_hat, sys)
    return StepFunction(sys.field, part.resolution,
                        np.abs(part.values) > STRUCTURAL_TOL)


# ------------------------------------------------------------- UEP matrix --

def _mask_table(m: Mask, shift: FieldElement, resolution: int) -> np.ndarray:
    """m(xi + shift) over the cells xi of D at the given resolution."""
    cfg = m.sys.field
    out = np.zeros(cfg.q ** resolution, dtype=complex)
    for _, lam, a in m._terms:
        phase = chi(lam * shift).conjugate()
        out += (a * phase) * np.conj(character_table(cfg, lam, resolution))
    return out * m.sys.mask_norm_const


def uep_gram(sys: SystemConfig, sigma: StepFunction | None = None) -> dict:
    """Max deviation of G(xi) = sum_l m_l(xi+tau_s) conj(m_l(xi+tau_s'))
    from the identity over the cells of sigma (default: all of D)."""
    if not sys.shift_set:
        raise ConfigError("shift set is empty")
    if not sys.masks:
        raise ConfigError("system has no masks configured")
    K = max(m.constancy_resolution for m in sys.masks)
    if sigma is not None:
        K = max(K, sigma.resolution)
    T = np.array([[_mask_table(m, tau, K) for tau in sys.shift_set]
                  for m in sys.masks])
    G = np.einsum("lsc,ltc->cst", T, np.conj(T))
    dev = np.abs(G - np.eye(len(sys.shift_set)))
    if sigma is not None:
        sel = refine(sigma, K).window(0).values != 0
        dev = dev[sel]
    cells = int(dev.shape[0])
    max_dev = float(dev.max()) if cells else 0.0
    return {
        "max_deviation": max_dev,
        "tolerance": GRAM_TOL,
        "verdict": bool(max_dev <= GRAM_TOL),
        "resolution": K,
        "cells_checked": cells,
    }


def bessel_mask_check(m0: Mask, sys: SystemConfig) -> dict:
    """Per-cell sum_s |m0(xi + tau_s)|^2 against the Bessel bound 1."""
    if not sys.shift_set:
        raise ConfigError("shift set is empty")
    K = m0.constancy_resolution
    rows = np.array([_mask_table(m0, tau, K) for tau in sys.shift_set])
    sums = np.sum(np.abs(rows) ** 2, axis=0)
    max_sum = float(sums.max())
    return {
        "max_sum": max_sum,
        "tolerance": GRAM_TOL,
        "verdict": bool(max_sum <= 1.0 + GRAM_TOL),
    }


# ------------------------------------------------------------ member system --

def system_member(l: int, j: int, idx: LambdaIndex, sys: SystemConfig,
                  generators: Sequence[StepFunction]) -> StepFunction:
    """Translate generator l by lambda_idx, then apply j dilation steps."""
    g = translate(generators[l], sys.lambda_element(idx))
    for _ in range(abs(j)):
        g = dilate(g, sys, "fine" if j > 0 else "coarse")
    return g


def translation_digits(sys: SystemConfig, j: int, n: np.ndarray,
                       delta: np.ndarray, lo: int, hi: int) -> dict[int, np.ndarray]:
    """Digits of mu = (t nu^(-1))^j lambda(n, delta) at the exponents in
    [lo, hi), one array entry per index; exponent -> digit array.

    D^j T_lambda g = T_mu D^j g, so these are the translations that carry
    member (l, j, 0) onto the others. Digits of mu at or above the member
    resolution are cut, exactly as translate() truncates lambda.
    """
    cfg = sys.field
    unit = cfg.gf_inv(sys.nu) if j >= 0 else sys.nu
    c = 1
    for _ in range(abs(j)):
        c = cfg.gf_mul(c, unit)
    theta = sys.theta if delta.any() else cfg.zero()
    width = max(0 if theta.is_zero else -theta.valuation(),
                digit_count(sys.q, int(n.max(initial=0))))
    out = {}
    # the cell of u(n) has index n at resolution 0
    for e, d in cell_digits(sys.q, n, 0, -width):
        if not lo <= e + j < hi:
            continue
        t = theta.coefficient(e)
        if t:
            d = np.where(delta == 1, cfg.add_table[d, t], d)
        out[e + j] = cfg.mul_table[c, d]
    return out


class MemberBank:
    """Every reachable translate of one dilated generator h = member (l, j, 0).

    All members of a (generator, scale) pair share h's nonzero cell values,
    so the bank stores those once (conjugated) plus, per row, the table
    indices of the cells x + mu_row, x running over h's nonzero cells and
    mu_row over the rows' translations. An index is the cell's position in
    every table at h's resolution whose window holds the cell (see stepfn).
    Memory grows like rows x member cells. Each row is reduced on its own,
    so an entry does not depend on how many rows the bank holds.

    mu maps an exponent to the digit of each row's translation there; rows
    are shaped by `shape`.
    """

    __slots__ = ("resolution", "conj_values", "cells")

    def __init__(self, h: StepFunction, mu: Mapping[int, np.ndarray],
                 shape: tuple[int, ...]):
        q, k = h.cfg.q, h.resolution
        x = np.flatnonzero(h.values)
        lo = min([h.lo] + [e for e in mu if e < k])
        if (k - lo) * math.log2(q) > 62:
            raise ConfigError("member window too wide for 64-bit cell indices")
        add = h.cfg.add_table
        # one digit of x + mu at a time, added into idx in place
        idx = cell_index(q, ((e, add[mu[e][:, None], d] if e in mu else d)
                             for e, d in cell_digits(q, x, k, lo)),
                         k, out=np.zeros((int(np.prod(shape)), x.size), dtype=np.int64))
        self.resolution = k
        self.conj_values = np.conj(h.values[x])
        self.cells = idx.reshape(*shape, x.size)

    def coefficients(self, integrals: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """<f, member> per row, from the cell integrals of f (a table, or a
        block of them) over the rows' cells (self.cells, or a slice of it
        clipped to a sentinel). A sum, not a BLAS matrix product, which would
        make an entry depend on how many rows are reduced with it."""
        gathered = integrals[..., cells]   # the largest table of a check
        gathered *= self.conj_values
        return gathered.sum(axis=-1)


def _coefficient_energy(coeffs: np.ndarray) -> np.ndarray:
    """sum |<f, member>|^2 over a bank's rows, per function of a block."""
    return np.sum(np.abs(coeffs) ** 2, axis=(-2, -1))


class FrameAnalyzer:
    """Coefficient analysis against one system, one member bank per (l, j).
    The checks take one function, or a block with one number per function."""

    __slots__ = ("sys", "generators", "_members")

    def __init__(self, sys: SystemConfig, generators: Sequence[StepFunction]):
        if not generators:
            raise ConfigError("need at least the refinable generator")
        self.sys = sys
        self.generators = tuple(generators)
        self._members: dict[tuple[int, int], MemberBank] = {}

    def member(self, l: int, j: int, idx: LambdaIndex) -> StepFunction:
        """The member D^j T_lambda(idx) g_l as a step function."""
        return system_member(l, j, idx, self.sys, self.generators)

    def _bank(self, l: int, j: int, lf: int, margin: int = 0) -> tuple[MemberBank, int]:
        """(bank of (l, j), bound): every branch's translations n < bound,
        rows shaped (delta, n), the bank grown by rebuilding. Translations
        outside B^A, A = min(lf - j, ball(g_l)), cannot meet a function
        supported in B^lf, so this scan is provably exhaustive; margin
        widens it by a factor q^margin."""
        exp = max(0, j - lf, -self.generators[l].support_ball())
        if self.sys.branches == 2:
            exp = max(exp, -self.sys.theta.valuation())
        bound = self.sys.q ** (exp + margin)
        got = self._members.get((l, j))
        if got is None or got.cells.shape[1] < bound:
            h = self.member(l, j, LambdaIndex(0, 0))
            B = self.sys.branches
            n = np.tile(np.arange(bound), B)
            delta = np.repeat(np.arange(B), bound)
            mu = translation_digits(self.sys, j, n, delta, -math.inf, h.resolution)
            got = self._members[(l, j)] = MemberBank(h, mu, (B, bound))
        return got, bound

    def _row(self, f: StepFunction, l: int, j: int, margin: int = 0,
             tables: dict | None = None):
        """(bank, window cells, f's cell integrals, coefficients), rows
        (delta, n) over the translation scan of the union of f's supports;
        tables keeps the integrals per bank resolution, so that a block forms
        them once."""
        lf = f.support_ball()
        bank, bound = self._bank(l, j, lf, margin)
        K = bank.resolution
        tables = {} if tables is None else tables
        if K not in tables:
            tables[K] = self._integrals(f, lf, K)
        integrals = tables[K]
        cells = np.minimum(bank.cells[:, :bound], integrals.shape[-1] - 1)
        return bank, cells, integrals, bank.coefficients(integrals, cells)

    def _integrals(self, f: StepFunction, lf: int, K: int) -> np.ndarray:
        """f's cell integrals at resolution K over the window down to
        B^min(lf, K), each table ending in a zero sentinel for every member
        cell outside that window."""
        values = f.window(min(lf, K)).values
        pad = [(0, 0)] * (values.ndim - 1) + [(0, 1)]
        return np.pad(cell_integrals(values, f.resolution, K, self.sys.q), pad)

    def coefficient_row(self, f: StepFunction, l: int, j: int,
                        margin: int = 0) -> dict[LambdaIndex, complex]:
        """All <f, member(l, j, idx)> whose supports overlap, for one f; the
        scan is exhaustive (see _bank), so margin must not change the row."""
        bank, cells, _, coeffs = self._row(f, l, j, margin)
        # a member meets f's support where the indicator of f's nonzero cells
        # has a positive integral over one of its cells
        ind = StepFunction(f.cfg, f.resolution, f.values != 0, f.lo)
        support = self._integrals(ind, f.support_ball(), bank.resolution).real > 0
        hit = support[cells].any(axis=-1)
        return {LambdaIndex(int(n), int(delta)): complex(coeffs[delta, n])
                for delta, n in zip(*np.nonzero(hit))}

    def analysis(self, f: StepFunction, j_range: Iterable[int],
                 margin: int = 0) -> dict[tuple[int, int], dict]:
        """(l, j) -> coefficient row for the wavelet generators l >= 1."""
        return {(l, j): self.coefficient_row(f, l, j, margin)
                for l in range(1, len(self.generators)) for j in j_range}

    def _energies(self, f: StepFunction, l: int, j: int, tables: dict | None = None):
        """(sum |<f, member>|^2, <P f, f>) with P f = sum <f, member> member
        materialized on f's cells: one bincount over a block, the flat
        indices offset by function."""
        bank, cells, integrals, coeffs = self._row(f, l, j, tables=tables)
        lead, size = integrals.shape[:-1], integrals.shape[-1]
        b = math.prod(lead)
        # real and imaginary parts as adjacent floats, summed by one bincount
        # (its index and weight tables die before the projection is read)
        proj = np.bincount(
            (2 * (cells + size * np.arange(b).reshape(-1, 1, 1, 1))[..., None]
             + [0, 1]).ravel(),
            weights=(coeffs[..., None] * np.conj(bank.conj_values)).view(float).ravel(),
            minlength=2 * b * size).view(complex).reshape(*lead, size)
        return (_coefficient_energy(coeffs),
                np.sum(proj[..., :-1] * np.conj(integrals[..., :-1]), axis=-1))

    def energies(self, f: StepFunction, j0: int, j1: int) -> dict:
        """(l, j) -> _energies of f for every bank the checks over [j0, j1)
        read, each reduced once; two_scale_check and frame_ratio take them
        as `energies`, so that a block computes them once for both."""
        tables: dict = {}
        return {(l, j): self._energies(f, l, j, tables) for l, j in self._pairs(j0, j1)}

    def _pairs(self, j0: int, j1: int) -> list[tuple[int, int]]:
        """The (l, j) of every bank the checks over [j0, j1) read."""
        return [(0, j) for j in range(j0, j1 + 1)] + [
            (l, j) for l in range(1, len(self.generators)) for j in range(j0, j1)]

    def table_width(self, k: int, j0: int, j1: int) -> int:
        """Entries one function on D at resolution k adds to the largest table
        the checks over [j0, j1) form: a bank's gather, the cell integrals at
        its resolution K, or the function over B^K when K < 0."""
        q, banks = self.sys.q, (self._bank(l, j, 0) for l, j in self._pairs(j0, j1))
        return max(max(bank.cells[:, :bound].size, q ** max(bank.resolution, 0) + 1,
                       q ** (k - min(bank.resolution, 0))) for bank, bound in banks)

    def two_scale_check(self, f: StepFunction, j: int, energies=None):
        """Energy balance across one scale step, by two independent routes.

        Returns (residual, projector_residual): the first compares summed
        squared coefficients, the second materializes the projections P_j f
        and Q_j f and compares <P_j f, f> + <Q_j f, f> with <P_{j+1} f, f>.
        """
        E = self.energies(f, j, j + 1) if energies is None else energies
        e_fine, p_fine = E[(0, j + 1)]
        e_coarse, p_coarse = E[(0, j)]
        waves = [E[(l, j)] for l in range(1, len(self.generators))]
        residual = np.abs(e_fine - (e_coarse + sum(e for e, _ in waves)))
        projector_residual = np.abs(p_coarse + sum(p for _, p in waves) - p_fine)
        return residual, projector_residual

    def frame_ratio(self, f: StepFunction, j0: int, j1: int, energies=None):
        """(coarse-scale energy + wavelet energies over [j0, j1)) / ||f||^2."""
        n2 = f.norm2()
        if np.any(n2 == 0.0):
            raise DegenerateInput("frame ratio of the zero function")
        pairs = [(l, j) for l, j in self._pairs(j0, j1) if l or j == j0]
        if energies is None:   # the coefficient energies alone
            tables: dict = {}
            energies = {pair: (_coefficient_energy(self._row(f, *pair, tables=tables)[3]),)
                        for pair in pairs}
        return sum(energies[pair][0] for pair in pairs) / n2


# ---------------------------------------------------------------- mask files --

def save_masks(sys: SystemConfig, dest: str | TextIO) -> None:
    """Write the full system description: field/system header plus one
    coefficient block per mask, rows "n delta re im"."""
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            save_masks(sys, fh)
        return
    cfg = sys.field
    w = dest.write
    w(MASK_MAGIC + "\n")
    w(f"p = {cfg.p}\n")
    w(f"c = {cfg.c}\n")
    if cfg.modulus is not None:
        w("modulus = " + ".".join(str(d) for d in cfg.modulus) + "\n")
    w(f"N = {sys.N}\n")
    w(f"r = {sys.r}\n")
    w(f"nu = {sys.nu}\n")
    w(f"normalization = {sys.normalization}\n")
    for l, m in enumerate(sys.masks):
        w(f"mask {l}\n")
        for idx, a in m.items_sorted():
            w(f"{idx.n} {idx.delta} {a.real!r} {a.imag!r}\n")


def load_masks(src: str | TextIO) -> SystemConfig:
    """Inverse of save_masks; returns the system with masks attached.

    Structural problems in the file raise InputDataError with a line
    number; inconsistent field/system parameters raise ConfigError.
    """
    if isinstance(src, str):
        with open(src) as fh:
            return load_masks(fh)
    first = src.readline()
    if not first.startswith(MASK_MAGIC):
        raise InputDataError("line 1: missing mask file header")
    header: dict[str, str] = {}
    rows: list[dict[tuple[int, int], complex]] = []
    offset_lines: list[int] = []
    for lineno, raw in enumerate(src, start=2):
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
        p = int(header["p"])
        c = int(header["c"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"mask file header needs integer p and c ({exc})") from exc
    if c > 1 and "modulus" not in header:
        raise ConfigError("mask file with c > 1 must state the modulus")
    try:
        modulus = (tuple(int(d) for d in header["modulus"].split("."))
                   if "modulus" in header else None)
        N = int(header.get("N", "1"))
        r = int(header.get("r", "1"))
        nu = int(header["nu"]) if "nu" in header else None
    except ValueError as exc:
        raise ConfigError(f"mask file header has a malformed value ({exc})") from exc
    if N == 1 and offset_lines:
        raise InputDataError(
            f"line {offset_lines[0]}: delta = 1 needs an offset branch, but N = 1")
    cfg = FieldConfig(p, c, modulus)
    base = SystemConfig(cfg, N, r, dilation_unit=nu,
                        normalization=header.get("normalization", "unitary"))
    return base.with_masks(tuple(Mask(base, block) for block in rows))
