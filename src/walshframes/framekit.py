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
  * frame-coefficient analysis of the dilate/translate system with
    support-exact truncation of the translation sums, and
  * the per-scale energy identity and the frame sum of the squared coefficients.

The FrameAnalyzer keeps one MemberBank per (generator, scale) pair: every
translation member the scan can reach, as numpy arrays, so a whole suite of
test functions is pushed through the same system by vectorized reductions.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .algebra import (
    FieldConfig,
    LambdaIndex,
    SystemConfig,
    cell_digits,
    cell_index,
    digit_count,
)
from .errors import ConfigError, DegenerateInput, InputDataError
from .harmonic import fast_inverse_transform, fast_transform
from .stepfn import (
    CELL_CAP,
    StepFunction,
    cell_integrals,
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
    "Mask",
    "MemberBank",
    "PRUNE_TOL",
    "STRUCTURAL_TOL",
    "bank_entries",
    "bessel_mask_check",
    "cell_table",
    "check_partition",
    "derive_generators",
    "energy_balance",
    "iterate_refinement",
    "load_masks",
    "mask_refine",
    "save_masks",
    "sigma_v0",
    "system_member",
    "translation_digits",
    "uep_gram",
    "wavelet_generators",
]

STRUCTURAL_TOL = 1e-12   # identities that involve no transform roundoff
PRUNE_TOL = 1e-14        # noise floor for iterated frequency products

MASK_MAGIC = "# walshframes-masks v1"
MASK_HEADER_KEYS = ("p", "c", "modulus", "N", "r", "nu", "normalization")


class Mask:
    """Finitely supported coefficients over the translation family."""

    __slots__ = ("sys", "coeffs", "_cells", "constancy_resolution", "_table")

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
        kept (read-only). m is lattice periodic, so this determines it."""
        if self._table is None:
            cfg, K = self.sys.field, self.constancy_resolution
            F_m = np.zeros(cfg.q ** K, dtype=complex)
            for cell, a in self._cells:
                F_m[cell] += a   # two indices of the degenerate family share a cell
            m_hat = fast_transform(StepFunction(cfg, 0, F_m, -K))
            self._table = refine(m_hat, K).scale(self.sys.mask_norm_const)
            self._table.values.flags.writeable = False
        return self._table

    def items_sorted(self) -> list[tuple[LambdaIndex, complex]]:
        return sorted(self.coeffs.items())

    def __repr__(self):
        return f"<Mask terms={len(self.coeffs)} K={self.constancy_resolution}>"


# --------------------------------------------------- frequency-side products --

def mask_refine(phi_hat: StepFunction, mask: Mask, sys: SystemConfig) -> StepFunction:
    """xi -> mask(w xi) * phi_hat(w xi) with w = t * nu^(-1), exact cellwise:
    the refinement product for the low-pass mask, a wavelet's transform for
    a high-pass one."""
    g = refine(phi_hat, max(phi_hat.resolution, mask.constancy_resolution))
    # the mask repeats its table on D across every lattice translate of D
    m = np.resize(refine(mask.table, g.resolution).values, g.values.size)
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


def derive_generators(sys: SystemConfig, iterations: int = 4) -> tuple[StepFunction, ...]:
    """(phi, psi_1, ..., psi_L): wavelet_generators of m_0's refinement iterate."""
    if not sys.masks:
        raise ConfigError("system has no masks configured")
    return wavelet_generators(iterate_refinement(sys.masks[0], sys, iterations), sys)


def wavelet_generators(phi_hat: StepFunction, sys: SystemConfig) -> tuple[StepFunction, ...]:
    """(phi, psi_1, ..., psi_L) from phi_hat and the high-pass masks; no gate,
    so detectably broken masks still produce inspectable generators."""
    return (fast_inverse_transform(phi_hat),) + tuple(
        fast_inverse_transform(prune(mask_refine(phi_hat, ml, sys), PRUNE_TOL))
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


def uep_gram(sys: SystemConfig, sigma: StepFunction | None = None) -> dict:
    """Max deviation of G(xi) = sum_l m_l(xi+tau_s) conj(m_l(xi+tau_s'))
    from the identity over the cells of sigma (default: all of D)."""
    if not sys.masks:
        raise ConfigError("system has no masks configured")
    K = max(m.constancy_resolution for m in sys.masks)
    if sigma is not None:
        K = max(K, sigma.resolution)
    T = np.array([_shifted_tables(m, sys.shift_set, K) for m in sys.masks])
    G = np.einsum("lsc,ltc->cst", T, np.conj(T))
    dev = np.abs(G - np.eye(len(sys.shift_set)))
    if sigma is not None:
        sel = refine(sigma, K).window(0).values != 0
        dev = dev[sel]
    cells = int(dev.shape[0])
    return {
        "max_deviation": float(dev.max()) if cells else 0.0,
        "resolution": K,
        "cells_checked": cells,
    }


def bessel_mask_check(m0: Mask, sys: SystemConfig) -> dict:
    """The largest per-cell sum_s |m0(xi + tau_s)|^2; the Bessel bound is 1."""
    rows = _shifted_tables(m0, sys.shift_set, m0.constancy_resolution)
    return {"max_sum": float(np.sum(np.abs(rows) ** 2, axis=0).max())}


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


def bank_entries(l: int, j: int, rows: int, arrays: int, index: int) -> int:
    """Integer entries a build of bank (l, j) holds at once: `arrays` arrays of
    `rows` entries and the index table of `index`, with the digit plane added
    into it (MemberBank). ConfigError above CELL_CAP, before any exists; the
    member's own table is capped as a table, at load or by stepfn.window."""
    count = arrays * rows + 2 * index
    if count > CELL_CAP:
        raise ConfigError(f"the member bank of generator {l} at scale {j} needs "
                          f"{count} table entries, above the cap of {CELL_CAP}")
    return count


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

    def gather(self, integrals: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """f's cell integrals (a table, or a block of them) over the rows' cells
        (self.cells, or a slice of it clipped to a sentinel) times conj(h): summed
        over the last axis, <f, member> per row. A sum, not a BLAS matrix product,
        which would make an entry depend on how many rows are reduced with it."""
        gathered = integrals[..., cells]   # the largest table of a check
        gathered *= self.conj_values
        return gathered

    def energy(self, products: np.ndarray, weights=1) -> np.ndarray:
        """sum over the rows of a gather of weights * |<f, member>|^2, each
        coefficient the sum of its row's products; per function of a block."""
        rows = tuple(range(1 - self.cells.ndim, 0))
        return np.sum(weights * np.abs(products.sum(axis=-1)) ** 2, axis=rows)


def cell_table(f: StepFunction, lo: int, K: int, tables: dict) -> np.ndarray:
    """f's cell integrals at resolution K over the window down to B^min(lo, K),
    ending in a zero sentinel for every member cell outside that window;
    tables keeps one per K, so that the banks of a check form it once."""
    if K not in tables:
        table = cell_integrals(f.window(min(lo, K)).values, f.resolution, K, f.cfg.q)
        tables[K] = np.concatenate((table, np.zeros(table.shape[:-1] + (1,))), axis=-1)
    return tables[K]


def energy_balance(S: np.ndarray, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residuals, total) of n + 1 consecutive scales, scale along the first
    axis: S the scaling energies, W the wavelet energies (the first n read).
    residuals[i] = |S[i+1] - (S[i] + W[i])|, the two-scale balance of step i;
    total = S[0] + W[0] + ... + W[n-1], added in that order: the frame sum."""
    n = len(S) - 1
    total = S[0]
    for w in W[:n]:
        total = total + w
    return np.abs(S[1:] - (S[:-1] + W[:n])), total


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

    def _scan(self, l: int, j: int, lf: int) -> tuple[int, int]:
        """(bound, cells) of bank (l, j): every branch's translations n < bound,
        and the index entries of their rows. Those outside B^A, A = min(lf - j,
        ball(g_l)), cannot meet a function in B^lf, so the scan is provably
        exhaustive. The entries are counted, and checked (bank_entries), from
        g_l's nonzero cells before any build: member (l, j, 0) has no more,
        as the zero translation and each dilation only move cells."""
        exp = max(0, j - lf, -self.generators[l].support_ball())
        if self.sys.branches == 2:
            exp = max(exp, -self.sys.theta.valuation())
        B, bound = self.sys.branches, self.sys.q ** exp
        cells = B * bound * np.count_nonzero(self.generators[l].values)
        # the labels n and delta, the digits of n < bound, three in flight
        bank_entries(l, j, B * bound, exp + 5, cells)
        return bound, cells

    def _bank(self, l: int, j: int, lf: int) -> tuple[MemberBank, int]:
        """(bank of (l, j), bound) over _scan's translations, rows shaped
        (delta, n), the bank grown by rebuilding."""
        bound = self._scan(l, j, lf)[0]
        got = self._members.get((l, j))
        if got is None or got.cells.shape[1] < bound:
            h = self.member(l, j, LambdaIndex(0, 0))
            B = self.sys.branches
            mu = translation_digits(self.sys, j, np.tile(np.arange(bound), B),
                                    np.repeat(np.arange(B), bound), -math.inf, h.resolution)
            got = self._members[(l, j)] = MemberBank(h, mu, (B, bound))
        return got, bound

    def _row(self, f: StepFunction, l: int, j: int, tables: dict):
        """(bank, window cells, gather), rows (delta, n) over the translation
        scan of the union of f's supports; tables as in cell_table."""
        lf = f.support_ball()
        bank, bound = self._bank(l, j, lf)
        integrals = cell_table(f, lf, bank.resolution, tables)
        cells = np.minimum(bank.cells[:, :bound], integrals.shape[-1] - 1)
        return bank, cells, bank.gather(integrals, cells)

    def coefficient_row(self, f: StepFunction, l: int, j: int) -> dict[LambdaIndex, complex]:
        """All <f, member(l, j, idx)> whose supports overlap, for one f; the
        scan is exhaustive (see _bank)."""
        bank, cells, products = self._row(f, l, j, {})
        # a member meets f's support where the indicator of f's nonzero cells
        # has a positive integral over one of its cells
        ind = StepFunction(f.cfg, f.resolution, f.values != 0, f.lo)
        support = cell_table(ind, f.support_ball(), bank.resolution, {}).real > 0
        hit = support[cells].any(axis=-1)
        return {LambdaIndex(int(n), int(delta)): complex(products[delta, n].sum())
                for delta, n in zip(*np.nonzero(hit))}

    def energies(self, f: StepFunction, j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
        """(S, W) over the scales j0..j1 in folded_energies' layout: per scale,
        then per function of a block, the summed |<f, member>|^2 of the scaling
        bank (S) and of the wavelet banks (W, to j1 - 1). Each bank is gathered once."""
        tables: dict = {}
        S = np.zeros((j1 - j0 + 1,) + f.values.shape[:-1])
        W = np.zeros_like(S[1:])
        for l, j in self._pairs(j0, j1):   # W adds generator l = 1, 2, ... in turn
            bank, _, products = self._row(f, l, j, tables)
            (W if l else S)[j - j0] += bank.energy(products)
        return S, W

    def _pairs(self, j0: int, j1: int) -> Iterator[tuple[int, int]]:
        """The (l, j) of every bank the checks over [j0, j1) read, one at a time."""
        yield from ((0, j) for j in range(j0, j1 + 1))
        yield from ((l, j) for l in range(1, len(self.generators)) for j in range(j0, j1))

    def table_width(self, k: int, j0: int, j1: int) -> int:
        """Entries one function on D at resolution k adds to the largest table
        the checks over [j0, j1) form: a bank's gather, the cell integrals at
        its resolution K, or the function over B^K when K < 0. Every bank is
        counted and checked by _scan, in _pairs order, and none is built: its
        resolution is g_l's moved by j dilations."""
        q, g = self.sys.q, self.generators
        return max(max(self._scan(l, j, 0)[1], q ** max(g[l].resolution + j, 0) + 1,
                       q ** (k - min(g[l].resolution + j, 0))) for l, j in self._pairs(j0, j1))

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
    if cfg.modulus_text:
        w(f"modulus = {cfg.modulus_text}\n")
    w(f"N = {sys.N}\n")
    w(f"r = {sys.r}\n")
    w(f"nu = {sys.nu}\n")
    w(f"normalization = {sys.normalization}\n")
    for l, m in enumerate(sys.masks):
        w(f"mask {l}\n")
        for idx, a in m.items_sorted():
            w(f"{idx.n} {idx.delta} {a.real!r} {a.imag!r}\n")


def _lines(src: TextIO) -> Iterator[tuple[int, str]]:
    """src's lines numbered from 1, refusing one with a surrogate-escaped byte."""
    for n, line in enumerate(src, start=1):
        if any("\udc80" <= c <= "\udcff" for c in line):
            raise InputDataError(f"line {n}: a byte that is not UTF-8")
        yield n, line


def load_masks(src: str | TextIO) -> SystemConfig:
    """Inverse of save_masks; returns the system with masks attached.

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
    return base.with_masks(tuple(Mask(base, block) for block in rows))
