"""Step functions on K = GF(q)((t)) as dense digit tables.

A StepFunction at resolution k is constant on the cosets of B^k and
vanishes outside a ball B^lo, lo <= k. It is stored as the complete table
of its q^(k - lo) amplitudes over the window B^lo / B^k: values[i] is the
amplitude on the coset whose digit at exponent e is the base-q digit
k-1-e of i, so the digit at exponent k-1 is the least significant. A
cell's index does not depend on lo, hence the table over a wider window is
the same table padded with zeros at the end; refining by one level repeats
each value q times. Haar measure gives every cell mass q^(-k), so inner
products and norms are finite exact sums.

A function on the unit ball D is the lo = 0 case, the complete table over
the q^k cells of D. Every operator is an array operation on the table;
FieldElement-keyed cells appear only at the edges: from_cells builds a
function from {canonical representative: amplitude}, .cells reads one
back, and the CSV format stores one row per nonzero cell. CELL_CAP bounds
the windows that input files and run configurations may ask for.

The table is the digit group of the window, which harmonic's
Vilenkin-Chrestenson transform runs over. The codec between its indices
and digits is algebra's cell_digits, cell_index and digit_count (exported
here too), the one that also defines u(n): at resolution 0 the cell of
u(n) has index n.
"""

from __future__ import annotations

import cmath
import functools
import math
from types import MappingProxyType
from typing import Mapping, TextIO

import numpy as np

from .algebra import (FieldConfig, FieldElement, SystemConfig, cell_digits, cell_index,
                      digit_count)
from .errors import InputDataError, ResolutionError

__all__ = [
    "CELL_CAP",
    "PeriodicStepFunction",
    "StepFunction",
    "cell_digits",
    "cell_index",
    "digit_count",
    "dilate",
    "dump_csv",
    "from_cells",
    "indicator",
    "inner",
    "load_csv",
    "periodize",
    "prune",
    "refine",
    "rescale",
    "translate",
    "unit_ball",
    "within_cap",
]

CSV_MAGIC = "# walshframes-stepfn v1"
CSV_HEADER_KEYS = ("p", "c", "modulus", "resolution")

# Largest dense table (cells of one window) that a step-function file or a
# run configuration may ask for: 2^24 complex cells take 256 MiB, far above
# the 65,536 of a q=4, 8-digit transform yet small enough to allocate.
CELL_CAP = 2 ** 24


def within_cap(q: int, digits: int) -> bool:
    """Whether a window of q^digits cells stays within CELL_CAP."""
    return digits < 64 and q ** digits <= CELL_CAP


class StepFunction:
    """The amplitudes of a step function over the window B^lo / B^resolution.

    values may hold a block of functions on one window, one table per row;
    window, norm2 (per row) and support_ball (of the union) take a block.
    """

    __slots__ = ("cfg", "resolution", "lo", "values")

    def __init__(self, cfg: FieldConfig, resolution: int, values, lo: int = 0):
        resolution, lo = int(resolution), int(lo)
        if lo > resolution:
            raise ValueError(f"window B^{lo} / B^{resolution} holds no cell")
        values = np.asarray(values, dtype=complex)
        if values.ndim not in (1, 2) or values.shape[-1] != cfg.q ** (resolution - lo):
            raise ValueError(f"need q^(resolution - lo) = "
                             f"{cfg.q ** (resolution - lo)} values, got {values.shape}")
        self.cfg = cfg
        self.resolution = resolution
        self.lo = lo
        self.values = values

    # -- bookkeeping -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.values.any()

    @property
    def cells(self) -> Mapping[FieldElement, complex]:
        """Read-only {canonical representative: amplitude} of the nonzero
        cells in table order; an I/O view, built on every access."""
        q, k = self.cfg.q, self.resolution
        return MappingProxyType({
            FieldElement(self.cfg, dict(cell_digits(q, int(i), k, self.lo))):
                complex(self.values[i])
            for i in np.flatnonzero(self.values)})

    def support_ball(self) -> int:
        """Exponent l of the smallest ball B^l containing the support."""
        nonzero = np.flatnonzero(np.atleast_2d(self.values).any(axis=0))
        top = int(nonzero[-1]) if nonzero.size else 0
        return self.resolution - digit_count(self.cfg.q, top)

    def window(self, lo: int) -> "StepFunction":
        """The same function over B^lo / B^resolution; ValueError if a
        nonzero cell lies outside B^lo."""
        q, k = self.cfg.q, self.resolution
        if lo == self.lo:
            return self
        if lo > self.lo:
            size = q ** (k - lo) if lo <= k else 0
            if not size or self.values[..., size:].any():
                raise ValueError(f"a nonzero cell lies outside B^{lo}")
            return StepFunction(self.cfg, k, self.values[..., :size], lo)
        if not within_cap(q, k - lo):
            raise ResolutionError(f"window B^{lo} / B^{k} exceeds {CELL_CAP} cells")
        values = np.zeros(self.values.shape[:-1] + (q ** (k - lo),), dtype=complex)
        values[..., :self.values.shape[-1]] = self.values
        return StepFunction(self.cfg, k, values, lo)

    def norm2(self):
        # exactly rounded, so moving cells (a translation) keeps it bit for bit
        sq = np.abs(self.values) ** 2
        sums = math.fsum(sq) if sq.ndim == 1 else np.array([math.fsum(r.tolist()) for r in sq])
        return sums * float(self.cfg.q) ** (-self.resolution)

    def scale(self, z: complex) -> "StepFunction":
        return StepFunction(self.cfg, self.resolution, self.values * z, self.lo)

    def refine(self, resolution: int) -> "StepFunction":
        """Re-express f on the finer grid B^resolution; exact, norm preserving."""
        k = self.resolution
        if resolution < k:
            raise ResolutionError(
                f"cannot refine from resolution {k} down to {resolution}")
        if resolution == k:
            return self
        return StepFunction(self.cfg, resolution,
                            np.repeat(self.values, self.cfg.q ** (resolution - k), axis=-1),
                            self.lo)

    def inner(self, other: "StepFunction") -> complex:
        """Exact L2 inner product <f, g> = sum f conj(g) * q^(-k)."""
        a, b = _common(self, other)
        return complex(np.vdot(b.values, a.values)) * float(self.cfg.q) ** (-a.resolution)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        a, b = _common(self, other)
        return StepFunction(self.cfg, a.resolution, a.values + b.values, a.lo)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + other.scale(-1.0)

    def __eq__(self, other):
        if not (isinstance(other, StepFunction) and self.cfg == other.cfg
                and self.resolution == other.resolution):
            return False
        a, b = _common(self, other)
        return bool(np.array_equal(a.values, b.values))

    def to_step(self) -> "StepFunction":
        return self  # perfbench/child.py's sweep calls this on suite functions

    def __repr__(self):
        return (f"<StepFunction res={self.resolution} lo={self.lo} "
                f"ball={self.support_ball()}>")


refine = StepFunction.refine
inner = StepFunction.inner

# perfbench/tracer.py looks this name up in stepfn; functions on D are lo = 0
PeriodicStepFunction = StepFunction


def _common(f: StepFunction, g: StepFunction) -> tuple[StepFunction, StepFunction]:
    """f and g refined to one resolution over one window."""
    if f.cfg != g.cfg:
        raise ValueError("mixed field configs")
    k = max(f.resolution, g.resolution)
    f, g = refine(f, k), refine(g, k)
    lo = min(f.lo, g.lo)
    return f.window(lo), g.window(lo)


def from_cells(cfg: FieldConfig, resolution: int,
               cells: Mapping[FieldElement, complex]) -> StepFunction:
    """The step function with the given {canonical representative: amplitude}
    cells at resolution k; its window is the smallest ball holding them."""
    q, k = cfg.q, int(resolution)
    lo = k
    for rep in cells:
        if rep.cfg != cfg:
            raise ValueError("representative from a different field config")
        if rep.terms and rep.terms[-1][0] >= k:
            raise ValueError(
                f"representative {rep.text()} not canonical at resolution {k}")
        if rep.terms:
            lo = min(lo, rep.terms[0][0])
    values = np.zeros(q ** (k - lo), dtype=complex)
    for rep, value in cells.items():
        values[cell_index(q, rep.terms, k)] = value
    return StepFunction(cfg, k, values, lo)


def unit_ball(cfg: FieldConfig) -> StepFunction:
    """The indicator of the ring of integers D."""
    return StepFunction(cfg, 0, [1.0])


def indicator(cfg: FieldConfig, resolution: int, h: FieldElement) -> StepFunction:
    """The indicator of the single coset h + B^resolution."""
    return from_cells(cfg, resolution, {h.truncate(resolution): 1.0})


def prune(f: StepFunction, tol: float = 0.0) -> StepFunction:
    """Zero the cells whose amplitude magnitude is <= tol; the window
    shrinks to the support that remains."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    g = StepFunction(f.cfg, f.resolution,
                     np.where(np.abs(f.values) > tol, f.values, 0), f.lo)
    return g.window(g.support_ball())


def _read_digits(f: StepFunction, sources: Mapping[int, tuple]) -> np.ndarray:
    """f's table with the digit at each exponent e in sources read through
    sources[e]: the output cell with digit d there takes the value of the
    input cell with digit sources[e][d]."""
    T = f.values.reshape((f.cfg.q,) * (f.resolution - f.lo))
    for e, src in sources.items():
        T = np.take(T, src, axis=e - f.lo)
    return T.reshape(-1)


def translate(f: StepFunction, a: FieldElement) -> StepFunction:
    """(T_a f)(x) = f(x - a): digitwise GF(q) addition, on a window widened
    to hold a's digits below the resolution."""
    cfg = f.cfg
    digits = [(e, d) for e, d in a.terms if e < f.resolution]
    if not digits:
        return f
    f = f.window(min(f.lo, digits[0][0]))
    sources = {e: cfg.add_table[cfg.gf_neg(d)] for e, d in digits}
    return StepFunction(cfg, f.resolution, _read_digits(f, sources), f.lo)


def rescale(f: StepFunction, c: int, shift: int) -> StepFunction:
    """x -> f(c^(-1) t^(-shift) x) for a unit c of GF(q): every digit is
    multiplied by c and the window moves up by shift exponents."""
    cfg = f.cfg
    sources = {}
    if c != 1:
        sources = dict.fromkeys(range(f.lo, f.resolution), cfg.mul_table[cfg.gf_inv(c)])
    return StepFunction(cfg, f.resolution + shift, _read_digits(f, sources),
                        f.lo + shift)


def dilate(f: StepFunction, sys: SystemConfig, direction: str = "fine") -> StepFunction:
    """(D f)(x) = s * f(t^(-1) nu x) for "fine", and its inverse for "coarse".

    s is sys.dilation_amplitude: sqrt(q) in unitary mode (an isometry, since
    the argument map scales measure by q), sqrt(qN) in qn mode.
    """
    s = sys.dilation_amplitude
    if direction == "fine":
        return rescale(f, f.cfg.gf_inv(sys.nu), 1).scale(s)
    if direction == "coarse":
        return rescale(f, sys.nu, -1).scale(1 / s)
    raise ValueError(f"direction must be 'fine' or 'coarse', got {direction!r}")


def periodize(f: StepFunction) -> StepFunction:
    """Fold f onto the unit ball: x -> sum over lattice shifts of f(x + u(n)).

    Each cell of f lands in exactly one lattice translate of the unit ball,
    so the fold sums the table over the digits at negative exponents; cells
    of resolution below zero are split first and contribute multiplicity.
    """
    g = refine(f, max(f.resolution, 0))
    g = g.window(min(g.lo, 0))
    q, k = g.cfg.q, g.resolution
    return StepFunction(g.cfg, k, g.values.reshape(-1, q ** k).sum(axis=0))


# ------------------------------------------------------------- CSV format --

# Rows formatted, and characters read, per array pass. Per-pass Python
# overhead is small next to the array work at these sizes, while the text of
# one pass stays small: `transform` on a 65,536-row GF(4) file peaks at 38 MB
# (ru_maxrss, Python 3.11, numpy 2.4) with these sizes, at 42 MB formatting
# 8192 rows a pass and at 90 MB reading the file in one pass.
CSV_BLOCK = 4096
CSV_CHUNK = 1 << 17

# ------------------------------------------------------- repr of doubles --
#
# dump_csv writes each amplitude part as the characters repr gives it: the
# shortest decimal that reads back as the same double (the nearer of two,
# on a tie the one with an even last digit), in fixed notation for decimal
# point positions -3 to 16 and in exponent notation elsewhere. _shortest
# selects the digits of a whole array at once with Schubfach (R. Giulietti,
# "The Schubfach way to render doubles", 2020), _repr_fields lays them out.


class _ReprTables:
    """The kernel's constant tables, built on first use.

    Digit selection, by e = 292 - k for the decimal exponents k in [-324, 292]:
    - r: 10^-k = beta 2^r with 2^125 <= beta < 2^126;
    - g: floor(beta) + 1 = g1 2^63 + g0, as the 32-bit limbs of g1 and g0.

    Layout, by a 4-digit group g: quad its 4 characters (a uint32 view), and
    ends[j][g] the count of digits up to its last nonzero one when it is
    group j of 17 digits (0 if g = 0, but 1 for j = 0, so that 0.0 has a
    digit). By point + 323, for |x| = 0.d1d2... 10^point:
    - exponent: the sign and 3 digits of point - 1;
    - shape: 17 code - 1 for the layout code, point + 3 in fixed notation,
      else 20 or 21 for 2 or 3 exponent digits.
    layout[17 code + digits - 1 + 374 negative] lists the bytes of a source
    row that make up ',' and repr, padded with NUL.
    """

    # a source row: the 17 digits, the "0.e" after the last one, the
    # exponent's 4 characters, then "-," and 2 NULs
    ZERO, POINT, E, EXPONENT, MINUS, COMMA, NUL = 17, 18, 19, 20, 24, 25, 26
    ROW, WIDTH = 28, 25   # WIDTH: ',' and the longest repr, -1.2345678901234567e-308

    def __init__(self):
        g, r = [], []
        for e in range(-292, 325):
            n = 10 ** abs(e)
            if e >= 0:
                r.append(n.bit_length() - 126)
                g.append((n >> r[-1] if r[-1] >= 0 else n << -r[-1]) + 1)
            else:
                r.append(-(n - 1).bit_length() - 125)
                g.append((1 << -r[-1]) // n + 1)
        g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
        g0 = np.array([x & (1 << 63) - 1 for x in g], dtype=np.uint64)
        self.g = [g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF]
        self.r = np.array(r, dtype=np.int64)
        self.pow10 = 10 ** np.arange(18, dtype=np.int64)
        quads = np.arange(10000)[:, None] // self.pow10[3::-1] % 10
        self.quad = (quads + ord("0")).astype(np.uint8).view(np.uint32).ravel()
        self.last = np.array([f"{d}0.e" for d in range(10)], "S4").view(np.uint32)
        self.signs = np.array([b"-,"], "S4").view(np.uint32)
        places = ((quads > 0) * np.arange(1, 5)).max(axis=1)
        self.ends = [np.where(places > 0, places + 4 * j, j == 0) for j in range(4)]
        points = range(-323, 310)
        self.exponent = np.array([f"{p - 1:+04d}" for p in points], "S4").view(np.uint32)
        self.shape = np.array([17 * (p + 3 if -3 <= p <= 16 else 20 + (abs(p - 1) >= 100)) - 1
                               for p in points])
        self.layout = np.array([self._layout(negative, code, n) for negative in (0, 1)
                                for code in range(22) for n in range(1, 18)], dtype=np.intp)

    @classmethod
    def _layout(cls, negative: int, code: int, n: int) -> list[int]:
        digits = list(range(n))
        if code >= 20:
            body = digits[:1] + ([cls.POINT] + digits[1:]) * (n > 1) + [cls.E] \
                + [cls.EXPONENT + i for i in range(4) if i != 1 or code == 21]
        elif (point := code - 3) <= 0:
            body = [cls.ZERO, cls.POINT] + [cls.ZERO] * -point + digits
        elif point < n:
            body = digits[:point] + [cls.POINT] + digits[point:]
        else:
            body = digits + [cls.ZERO] * (point - n) + [cls.POINT, cls.ZERO]
        row = [cls.COMMA] + [cls.MINUS] * negative + body
        return row + [cls.NUL] * (cls.WIDTH - len(row))


_repr_tables = functools.cache(_ReprTables)


def _mul128(a1, a0, b1, b0) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64 bits of the products a b of uint64 arrays, from their
    32-bit limbs a = a1 2^32 + a0 and b = b1 2^32 + b0."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    return (a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32),
            (mid << 32) | (p00 & 0xFFFFFFFF))


def _round_to_odd(g: tuple, cp: np.ndarray) -> np.ndarray:
    """g cp / 2^127 rounded to odd, as int64 (Schubfach's rop), for g =
    g1 2^63 + g0 given as the limbs g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32,
    g0 & 0xFFFFFFFF."""
    c1, c0 = cp >> 32, cp & 0xFFFFFFFF
    y1, y0 = _mul128(g[0], g[1], c1, c0)
    z = (y0 >> 1) + _mul128(g[2], g[3], c1, c0)[0]
    return ((y1 + (z >> 63)) | ((z << 1) != 0)).view(np.int64)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) int64 with |x| = digits 10^exponent for finite
    doubles x, digits the shortest that reads back as |x|, the nearer of
    two, on a tie the even one; 0 for a zero."""
    tables = _repr_tables()
    bits = np.abs(x).view(np.uint64)
    fraction, biased = bits & (1 << 52) - 1, (bits >> 52).astype(np.int64)
    c = np.where(biased > 0, fraction | 1 << 52, fraction)
    q = np.maximum(biased, 1) - 1075   # |x| = c 2^q
    # the doubles around c 2^q are 2^q away, or 2^(q-1) below at a power of two
    closer = (fraction == 0) & (biased > 1)
    k = (q * 661971961083 - closer * 274743187321) >> 41   # floor(log10 of 2^q or 3/4 2^q)
    e = 292 - k
    g = [limb[e] for limb in tables.g]
    h = (q + tables.r[e] + 127).astype(np.uint64)
    # 4 c 2^q 10^-k = 4 |x| 10^-k, and the rounding interval's ends at 4c + 2
    # and 4c - 2 (4c - 1 below a power of two) in place of 4c
    cb, unit = c << h + 2, np.left_shift(1, h, dtype=np.uint64)
    vb = _round_to_odd(g, cb)
    odd = (c & 1).astype(np.int64)   # an odd c reads back only from inside
    lower = _round_to_odd(g, cb - 2 * unit + closer * unit) + odd
    upper = _round_to_odd(g, cb + 2 * unit) - odd
    s = vb >> 2
    # a multiple of 10^(k+1) in the interval has fewer digits; there is one at most
    sp = s // 10
    below, above = lower <= 40 * sp, 40 * sp + 40 <= upper
    shorter = (s >= 10) & (below != above)
    # else s or s + 1: the one in the interval, or the nearer, or the even one
    u_in, w_in = lower <= 4 * s, 4 * s + 4 <= upper
    mid = vb - 4 * s - 2
    up = np.where(u_in != w_in, w_in, (mid > 0) | ((mid == 0) & ((s & 1) == 1)))
    digits = np.where(shorter, sp + above, s + up)
    return np.where(x == 0, 0, digits), k + shorter


def _repr_fields(x: np.ndarray) -> np.ndarray:
    """(x.size, 25) uint8: ',' and the characters of repr(v) for each
    finite double v of x, padded with NULs."""
    tables = _repr_tables()
    digits, exponent = _shortest(x)
    count = np.searchsorted(tables.pow10, digits, side="right")
    point = np.where(digits == 0, 1, exponent + count) + 323   # |x| = 0.d1d2... 10^point
    # the digits as 17, the first nonzero, in 4-digit groups and a last one
    head, tail = np.divmod(digits * tables.pow10[17 - count], 10 ** 9)
    g0, g1 = np.divmod(head, 10 ** 4)
    g2, rest = np.divmod(tail, 10 ** 5)
    g3, last = np.divmod(rest, 10)
    groups = (g0, g1, g2, g3)
    source = np.stack([tables.quad[g] for g in groups]
                      + [tables.last[last], tables.exponent[point],
                         np.broadcast_to(tables.signs, x.shape)], axis=1)
    places = np.where(last > 0, 17, 0)   # significant digits
    for ends, g in zip(tables.ends, groups):
        np.maximum(places, ends[g], out=places)
    shape = tables.shape[point] + places + 374 * np.signbit(x)
    index = tables.layout[shape]
    index += np.arange(0, tables.ROW * x.size, tables.ROW)[:, None]
    return source.view(np.uint8).ravel()[index]


def _row_heads(q: int, h: int, k: int) -> tuple[list[str], list[str]]:
    """The 'lo,digits' of a cell index high * q^h + low at resolution k, digits
    '.'-joined, most significant first: high_part[high] is lo, high's digits
    and a '.' ("" for 0), low_part[low + q^h * (high > 0)] low's digits,
    padded to h digits after a high part, else unpadded and after their lo."""
    plain, padded = [""], [""]
    for _ in range(h):
        plain = [f"{a}.{d}" if a else (str(d) if d else "")
                 for a in plain for d in range(q)]
        padded = [f"{a}.{d}" if a else str(d) for a in padded for d in range(q)]
    count = digit_count(q, np.arange(q ** h)).tolist()
    return ([f"{k - h - n},{a}." if a else "" for a, n in zip(plain, count)],
            [f"{k - n},{a}" for a, n in zip(plain, count)] + padded)


def dump_csv(f: StepFunction, dest: str | TextIO) -> None:
    """Write the nonzero cells in table order: header with field config and
    resolution, then rows lo,digits,re,im (lo the cell's valuation, digits
    from lo up to the resolution, '.'-separated, re and im as repr of the
    doubles). The bytes depend only on f. InputDataError, before anything
    is written, if an amplitude is not finite: load_csv would refuse it."""
    if not np.isfinite(f.values).all():
        raise InputDataError("cannot write a non-finite amplitude")
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            dump_csv(f, fh)
        return
    q, k = f.cfg.q, f.resolution
    dest.write(f"{CSV_MAGIC} p={f.cfg.p} c={f.cfg.c} "
               f"modulus={f.cfg.modulus_text or '-'} resolution={k}\n")
    dest.write("lo,digits,re,im\n")
    # a cell index splits into a high and a low half of h digits each at
    # most; both halves are read from tables of q^h digit strings, as bytes
    # padded with NULs, and each block's rows are its bytes other than NUL
    h = (k - f.lo + 1) // 2
    high_part, low_part = (np.array(part, "S").view(np.uint8).reshape(len(part), -1)
                           for part in _row_heads(q, h, k))
    newline = np.full((CSV_BLOCK, 1), ord("\n"), dtype=np.uint8)
    nonzero = np.flatnonzero(f.values)
    for start in range(0, nonzero.size, CSV_BLOCK):
        index = nonzero[start:start + CSV_BLOCK]
        high, low = np.divmod(index, q ** h)
        rows = np.concatenate(
            (high_part[high], low_part[low + (high > 0) * q ** h],
             _repr_fields(f.values[index].view(float)).reshape(index.size, -1),
             newline[:index.size]), axis=1)
        dest.write(rows[rows != 0].tobytes().decode("ascii"))


# ------------------------------------------------- decimals to doubles --
#
# load_csv reads each amplitude part as float() reads it. _decimals reads the
# tokens of a whole chunk at once when they are spelled -?D+(.D+)?(e[+-]D{1,3})?
# in at most DECIMAL_BYTES bytes, with at most 19 significant digits: such a
# token stands for w 10^q with w < 10^19, and Eisel-Lemire (D. Lemire, "Number
# parsing at a gigabyte per second", 2021) rounds that to the nearest double
# through a 128-bit approximation of 5^q. It flags every other token, and each
# with a nonzero digit whose double is not normal (subnormal, zero or past the
# largest double); _read_doubles reads those by float() alone.

DECIMAL_BYTES = 31   # a window of 32 bytes holds a token and the byte before it


class _DecimalTables:
    """The kernel's constant tables, built on first use.

    five: by q + 342 for q in [-342, 308], the 128-bit c with 2^127 <= c <
    2^128 that approximates 5^q times a power of two (truncated for q >= 0,
    rounded up for q < 0, as in fast_float), as the 32-bit limbs of its high
    word and then of its low word.

    A token ends at byte 31 of its window, so an 'e' at byte 27, 28 or 29 is
    followed by a sign and 3, 2 or 1 exponent digits. By k = e >> 27 for the
    bit e of that byte (0 without an 'e'; 3, 5, 6 and 7 are unused), with r
    the bytes from the 'e' on (0 without one):
    - end: 32 - r, the byte after the digits before the exponent;
    - tail: 10^r, the weight of word 3's digits before the exponent;
    - scale: 10^(16 - r) and 10^(8 - r), the weights of words 1 and 2;
    - cap: 10^(3 + r), the bound on word 1 that keeps w below 10^19.
    """

    def __init__(self):
        five = []
        for q in range(-342, 309):
            n = 5 ** abs(q)
            if q >= 0:
                five.append((n << 128) >> n.bit_length())
            else:
                c = (1 << (n.bit_length() + 127 if q >= -27 else 2 * n.bit_length() + 128)) // n + 1
                five.append(c >> max(c.bit_length() - 128, 0))
        words = np.array([(c >> 64, c & (1 << 64) - 1) for c in five], dtype=np.uint64).T
        self.five = [limb for word in words for limb in (word >> 32, word & 0xFFFFFFFF)]
        r = np.array([0, 5, 4, 0, 3, 0, 0, 0])
        self.end = 32 - r
        self.tail = (10 ** r).astype(np.uint64)
        self.scale = [(10 ** (16 - r)).astype(np.uint64), (10 ** (8 - r)).astype(np.uint64)]
        self.cap = (10 ** (3 + r)).astype(np.uint64)


_decimal_tables = functools.cache(_DecimalTables)


def _bits(mask: np.ndarray) -> np.ndarray:
    """(T, 32) bool -> (T,) uint64 with bit j set for a True in column j."""
    return np.packbits(mask, axis=None, bitorder="little").view("<u4").astype(np.uint64)


def _unpack(bits: np.ndarray) -> np.ndarray:
    """The inverse of _bits, as (T, 32) uint8 of 0 and 1."""
    return np.unpackbits(bits.astype("<u4").view(np.uint8), bitorder="little") \
        .reshape(bits.size, 32)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """In place: the 8-digit number each uint64 word spells, its first byte
    the most significant digit (SWAR, as in Lemire's parse_eight_digits)."""
    for mask, factor, shift in ((0x0F0F0F0F0F0F0F0F, 2561, 8),
                                (0x00FF00FF00FF00FF, 6553601, 16),
                                (0x0000FFFF0000FFFF, 42949672960001, 32)):
        x &= mask
        x *= factor
        x >>= shift
    return x


def _decimal_layout(window: np.ndarray, length: np.ndarray):
    """(covered, digit, point, e, negative, negative exponent) of the tokens
    that end their windows: covered where the token is in the kernel's
    grammar; digit, point and e the bits of its digits, of its point and of
    its 'e' (0 if it has none)."""
    u = np.uint64
    first = u(1) << (32 - np.minimum(length, 32)).astype(u)   # the token's first byte
    token = u(1 << 32) - first
    digit = _bits(window - ord("0") < 10) & token
    point, e, minus, plus = (_bits(window == ord(c)) & token for c in ".e-+")
    negative = minus & first
    point &= ~point + u(1)   # the first of each
    e &= ~e + u(1)
    sign = e << u(1)
    other = negative | point | e | sign
    # every byte but those of other is a digit; the first after the '-' and
    # the one after the point are digits, the point comes before the 'e', a
    # sign follows the 'e' and 1 to 3 digits end the token
    covered = ((token & ~digit) == other) & (length <= DECIMAL_BYTES) \
        & (((first + negative) | point << u(1)) & (other | u(1 << 32)) == 0) \
        & ((e == 0) | (point < e)) & ((e & ~u(0x38000000)) == 0) \
        & ((minus | plus) & sign == sign)
    return covered, digit, point, e, negative != 0, minus & sign != 0


def _decimal_fields(raw: np.ndarray, start: np.ndarray, end: np.ndarray):
    """(covered, negative, w, q) for the tokens raw[start:end]: where covered,
    the token is in the kernel's grammar and spells -w 10^q if negative,
    else w 10^q."""
    tables = _decimal_tables()
    u = np.uint64
    # the 32 bytes that end each token; bit j of a mask stands for byte j
    window = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((np.zeros(32, np.uint8), raw)), 32)[end]
    covered, digit, point, e, negative, down = _decimal_layout(window, end - start)
    # the digits alone, those before the point moved up one byte onto it:
    # the digits before the exponent end at byte 32 - r, the exponent's at 32
    window *= _unpack(digit)
    flat = window.ravel()
    moved = flat[:-1] - flat[1:]
    moved *= _unpack(((point << u(1)) - (point != 0)) & ~u(1)).ravel()[1:]   # bytes 1 to the point
    flat[1:] += moved
    words = window.view("<u8")
    covered &= words[:, 0] & u(0x0F0F0F0F0F0F0F0F) == 0   # no digit but 0 before word 1
    high, mid, low = _eight_digits(words[:, 1:].T.astype(u, order="C"))
    k = (e >> u(27)) & u(7)
    tail = tables.tail[k]
    w = (low / tail).astype(u)   # exact: low < 10^8
    low -= w * tail              # the exponent
    w += high * tables.scale[0][k] + mid * tables.scale[1][k]
    covered &= high < tables.cap[k]
    q = low.view(np.int64)
    q[down] *= -1
    q -= (tables.end[k] - np.frexp(point.astype(float))[1]) * (point != 0)   # fraction digits
    return covered, negative, w, q


def _decimals(raw: np.ndarray, start: np.ndarray, end: np.ndarray):
    """(values, covered) for the tokens raw[start:end]: covered where the
    token is in the kernel's grammar and values holds the double float()
    reads from it, bit for bit; values is meaningless elsewhere."""
    covered, negative, w, q = _decimal_fields(raw, start, end)
    bits, normal = _nearest_double(w, q)
    zero = w == 0
    covered &= normal | zero
    bits[zero] = 0
    bits |= negative.astype(np.uint64) << np.uint64(63)
    return bits.view(float), covered


def _nearest_double(w: np.ndarray, q: np.ndarray):
    """(bits, normal): the bits of the double nearest w 10^q (on a tie the
    even one) for uint64 w and int64 q, by Eisel-Lemire; normal is False
    where that double is subnormal or overflows or q is outside the table.
    The bits are meaningless there and where w is 0."""
    tables = _decimal_tables()
    u = np.uint64
    # w << lz has its top bit set; float(w) may round up to the next power of 2
    lz = 64 - np.frexp(w.astype(float))[1].astype(np.int64)
    w = w << lz.view(u)
    short = (w >> u(63)).view(np.int64) ^ 1
    w <<= short.view(u)
    lz += short
    index = q + 342
    w1, w0 = w >> u(32), w & u(0xFFFFFFFF)
    hi, lo = _mul128(w1, w0, *(limb.take(index, mode="clip") for limb in tables.five[:2]))
    # where the 9 bits below the 55 that matter are all ones, a carry from the
    # product with the low word of 5^q may reach them
    i = np.flatnonzero(hi & u(0x1FF) == 0x1FF)
    lo_i = lo[i] + _mul128(w1[i], w0[i], *(limb.take(index[i], mode="clip") for limb in tables.five[2:]))[0]
    hi[i] += lo_i < lo[i]
    lo[i] = lo_i
    upper = (hi >> u(63)).view(np.int64)
    shift = (upper + 9).view(u)
    mantissa = hi >> shift   # 54 bits: the 53 of a double and a round bit
    power2 = (217706 * q >> 16) + upper - lz + 1086
    # a tie: the bits below the round bit are all zero, which only happens
    # where 5^q is exact in 64 bits; it rounds to even, not up
    i = np.flatnonzero(lo <= 1)
    i = i[(q[i] >= -4) & (q[i] <= 23) & (mantissa[i] & u(3) == 1)
          & (mantissa[i] << shift[i] == hi[i])]
    mantissa[i] &= ~u(1)
    mantissa += mantissa & u(1)
    mantissa >>= u(1)
    carry = mantissa >> u(53)
    mantissa >>= carry
    power2 += carry.view(np.int64)
    normal = (index.view(u) < 651) & ((power2 - 1).view(u) < 2046)
    mantissa &= u((1 << 52) - 1)
    mantissa |= power2.view(u) << u(52)
    return mantissa, normal


def _read_doubles(raw: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """float() of each token raw[start:end]: by _decimals, and by float()
    alone for each token that it does not cover. ValueError as float()."""
    values, covered = _decimals(raw, start, end)
    for i in np.flatnonzero(~covered).tolist():
        # the token's own bytes: positions count bytes of the encoded chunk
        values[i] = float(raw[start[i]:end[i]].tobytes().decode(errors="surrogatepass"))
    return values


def _chunks(src: TextIO):
    """The text of the lines after the column header, read CSV_CHUNK
    characters at a time and cut after the last LF of each read: a line
    longer than a read waits for its LF, and the file's last line gets one
    if it lacks it, so that every text ends in LF."""
    rest = []
    while data := src.read(CSV_CHUNK):
        cut = data.rfind("\n") + 1
        if cut:
            yield "".join(rest) + data[:cut]
            rest = []
        rest.append(data[cut:])
    if text := "".join(rest):
        yield text + "\n"


def _accept(text: str, q: int, resolution: int, cap: int):
    """(index, amplitude) of a chunk's rows if every row passes _check, else
    None. One scan of the chunk's bytes holds its lines to the grammar
    (exactly three ','s and no CR on every line, so no blank line) and finds
    the field bounds. Array passes over the fields' bytes then give up at the
    first sign that a row may fail: an amplitude that float() refuses (read
    by _read_doubles), a digit token other than 1 to 18 ASCII decimal digits
    or a lo other than str(resolution - digit count) (dump_csv writes no
    other), a digit out of range, a non-finite amplitude or a cell past the
    cap."""
    # a ',', CR or LF byte is that character; a non-ASCII character or a lone
    # surrogate becomes bytes above 127, neither digit nor separator
    raw = np.frombuffer(text.encode(errors="surrogatepass"), np.uint8)
    at = np.flatnonzero((raw == ord(",")) | (raw == ord("\r")) | (raw == ord("\n")))
    m = at.size // 4
    if raw[at].tobytes() != b",,,\n" * m:
        return None
    # the digits fields, each with its ',' after it, one after another: a '.'
    # or that ',' ends each piece, and an empty field's one piece reads as 0
    size = at[1::4] - at[0::4]
    ends = np.cumsum(size)
    col = raw[np.arange(ends[-1]) + np.repeat(at[0::4] + 1 - ends + size, size)]
    code = col - ord("0")   # below 10 for a decimal digit only
    sep = np.flatnonzero(code > 9)
    lengths = np.diff(sep, prepend=-1) - 1
    if np.count_nonzero(col[sep] == ord(".")) + m < sep.size or lengths.max() > 18 \
            or np.count_nonzero(lengths == 0) > np.count_nonzero(size == 1):
        return None
    digit = np.zeros(sep.size, dtype=np.int64)
    for e in reversed(range(lengths.max())):   # e places from a piece's end
        digit = digit * 10 + np.where(lengths > e, code[sep - 1 - e], 0)
    comma = np.flatnonzero(col[sep] == ord(","))   # each field's last piece
    field = np.repeat(np.arange(m), np.diff(comma, prepend=-1))
    dist = comma[field] - np.arange(sep.size) + 1   # 1 for a field's last digit
    counts = np.diff(comma, prepend=-1) - (size == 1)
    # each row's first bytes, up to its first ',', against the lo it needs,
    # as whole words of the bytes from the row's start
    spelled = [b"%d," % (resolution - n) for n in range(counts.max() + 1)]
    width = -(-max(map(len, spelled)) // 8) * 8
    expect, keep = (np.array(table, f"S{width}").view("<u8").reshape(len(spelled), -1)
                    for table in (spelled, [b"\xff" * len(s) for s in spelled]))
    head = np.ndarray((raw.size, width // 8), "<u8",
                      np.concatenate((raw, np.zeros(width, np.uint8))), strides=(1, 8))
    if (head[np.concatenate(([0], at[3:-1:4] + 1))] & keep[counts] != expect[counts]).any():
        return None
    # re and im of each row in turn: the layout of a complex array
    bounds = at.reshape(m, 4)
    try:
        amplitude = _read_doubles(raw, bounds[:, 1:3].ravel() + 1, bounds[:, 2:].ravel())
    except ValueError:
        return None
    if (digit >= q).any() or (dist[digit != 0] > cap).any() \
            or not np.isfinite(amplitude).all():
        return None
    amplitude = amplitude.view(complex)
    # each digit at cell_index's place value q^(dist - 1), looked up; past the
    # cap every digit is 0, so the clipped place changes nothing
    weight = digit * (q ** np.arange(cap + 1))[np.minimum(dist - 1, cap)]
    return np.bincount(field, weights=weight, minlength=m).astype(np.int64), amplitude


def _line(text: str, n: int) -> str:
    """Line n of a file without its LF; InputDataError if it holds a CR."""
    if "\r" in text:
        raise InputDataError(f"line {n}: CR in line (lines end in LF alone)")
    return text.removesuffix("\n")


def _check(first: int, lines, q: int, resolution: int, cap: int):
    """(index, amplitude) of a chunk's rows, lines numbered from first, before
    the first failing one, and that row's InputDataError, else None. A row's checks run in
    this order, the first failing one naming the error: no CR, field count,
    malformed token, lo against the digit count, digit range, finite
    amplitude, cell cap. Duplicates span chunks and are left to the caller."""
    kept, error = [], None
    try:
        for n, text in enumerate(lines, first):
            row = _line(text, n).split(",")
            if len(row) != 4:
                raise InputDataError(
                    f"line {n}: expected 4 fields lo,digits,re,im, got {len(row)}")
            try:
                lo = int(row[0])
                digits = [int(d) for d in row[1].split(".")] if row[1] else []
                value = complex(float(row[2]), float(row[3]))
            except ValueError as exc:
                raise InputDataError(f"line {n}: malformed row ({exc})") from exc
            if lo + len(digits) != resolution:
                raise InputDataError(f"line {n}: digits from lo = {lo} do not end at "
                                     f"resolution {resolution}")
            if not all(0 <= d < q for d in digits):
                raise InputDataError(f"line {n}: digit out of range [0, {q})")
            if not cmath.isfinite(value):
                raise InputDataError(f"line {n}: non-finite amplitude")
            if any(digits[:max(len(digits) - cap, 0)]):   # a nonzero digit past q^cap
                raise InputDataError(
                    f"line {n}: cell widens the table beyond {CELL_CAP} cells")
            kept.append((cell_index(q, enumerate(digits, lo), resolution), value))
    except InputDataError as exc:
        error = exc
    index, amplitude = zip(*kept) if kept else ((), ())
    return np.array(index, dtype=np.int64), np.array(amplitude, dtype=complex), error


def load_csv(src: str | TextIO) -> StepFunction:
    """Inverse of dump_csv; raises InputDataError with a line number, also
    for a header field that FieldConfig refuses (line 1).

    Every line ends in LF (the file's last may not) and holds no CR; after
    the two header lines each is a row of four ','-separated fields, rows in
    any order. A chunk of lines is accepted by _accept's array passes, or
    read row by row by _check if it may fail; the first failing line names
    the error, a duplicate cell its second row. The cell cap is checked
    before any index is formed or any table allocated.
    """
    if isinstance(src, str):
        # a byte that is not UTF-8 reads as a lone surrogate: a malformed row
        with open(src, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            return load_csv(fh)
    header = _line(src.readline(), 1)
    if not header.startswith(CSV_MAGIC):
        raise InputDataError("line 1: missing step function header")
    fields: dict[str, str] = {}
    for tok in header.split()[3:]:
        key, sep, value = tok.partition("=")
        if not sep:
            raise InputDataError(f"line 1: header token {tok!r} is not key=value")
        if key not in CSV_HEADER_KEYS:
            raise InputDataError(f"line 1: unknown header key {key!r}")
        if key in fields:
            raise InputDataError(f"line 1: repeated header key {key!r}")
        fields[key] = value
    try:   # FieldConfig's ConfigError is a ValueError
        modulus = None if fields["modulus"] == "-" else fields["modulus"]
        cfg = FieldConfig.from_text(fields["p"], fields["c"], modulus)
        resolution = int(fields["resolution"])
    except (KeyError, ValueError) as exc:
        raise InputDataError(f"line 1: bad header field ({exc})") from exc
    q = cfg.q
    try:
        measure = float(q) ** (-resolution)   # of one cell
    except OverflowError:
        measure = math.inf
    if not np.finfo(float).smallest_normal <= measure < math.inf:
        raise InputDataError(f"line 1: resolution {resolution} gives cells of "
                             f"measure {q}^{-resolution}, outside the normal floats")
    if _line(src.readline(), 2) != "lo,digits,re,im":
        raise InputDataError("line 2: expected column header lo,digits,re,im")
    cap = digit_count(q, CELL_CAP) - 1   # widest cell q^cap <= CELL_CAP
    parsed, error = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))], None
    # every line after the column header is a row: row i is on line 3 + i
    first = 3
    for text in _chunks(src):
        if not (cells := _accept(text, q, resolution, cap)):
            *cells, error = _check(first, text[:-1].split("\n"), q, resolution, cap)
        parsed.append(cells)
        if error is not None:
            break
        first += cells[0].size
    index, amplitude = (np.concatenate(part) for part in zip(*parsed))
    width = digit_count(q, int(index.max(initial=0)))
    seen = np.zeros(q ** width, dtype=bool)
    seen[index] = True
    if np.count_nonzero(seen) < index.size:   # name the second row of a cell
        order = np.argsort(index, kind="stable")
        again = order[1:][index[order[1:]] == index[order[:-1]]]
        raise InputDataError(f"line {3 + again.min()}: duplicate representative")
    if error is not None:
        raise error
    values = np.zeros(q ** width, dtype=complex)
    values[index] = amplitude
    return StepFunction(cfg, resolution, values, resolution - width)
