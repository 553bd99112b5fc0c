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
    "cell_integrals",
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


def cell_integrals(values: np.ndarray, k: int, K: int, q: int) -> np.ndarray:
    """Integral of a table over B^lo / B^k over each cell of resolution K,
    lo <= K: the table of the same window at resolution K (row by row)."""
    if k >= K:
        return values.reshape(*values.shape[:-1], -1, q ** (k - K)).sum(axis=-1) \
            * float(q) ** (-k)
    return np.repeat(values, q ** (K - k), axis=-1) * float(q) ** (-K)


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
                            np.repeat(self.values, self.cfg.q ** (resolution - k)),
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
# one pass stays small: `transform` on a 65,536-row GF(4) file peaks at 37 MB
# (ru_maxrss) with these sizes and at 99 MB reading the file in one pass.
CSV_BLOCK = 4096
CSV_CHUNK = 1 << 17


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
    doubles). The bytes depend only on f."""
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            dump_csv(f, fh)
        return
    q, k = f.cfg.q, f.resolution
    dest.write(f"{CSV_MAGIC} p={f.cfg.p} c={f.cfg.c} "
               f"modulus={f.cfg.modulus_text or '-'} resolution={k}\n")
    dest.write("lo,digits,re,im\n")
    # a cell index splits into a high and a low half of h digits each at
    # most; both halves are read from tables of q^h digit strings
    h = (k - f.lo + 1) // 2
    high_part, low_part = _row_heads(q, h, k)
    nonzero = np.flatnonzero(f.values)
    for start in range(0, nonzero.size, CSV_BLOCK):
        index = nonzero[start:start + CSV_BLOCK]
        value = f.values[index]
        high, low = np.divmod(index, q ** h)
        fields = [None] * (4 * index.size)   # the rows' fields, interleaved
        fields[0::4] = map(high_part.__getitem__, high.tolist())
        fields[1::4] = map(low_part.__getitem__, (low + (high > 0) * q ** h).tolist())
        fields[2::4] = value.real.tolist()
        fields[3::4] = value.imag.tolist()
        dest.write("%s%s,%r,%r\n" * index.size % tuple(fields))


def _chunks(src: TextIO):
    """(first line number, text) of the lines after the column header, read
    CSV_CHUNK characters at a time and cut after the last LF of each read: a
    line longer than a read waits for its LF, and the file's last line gets
    one if it lacks it, so that every text ends in LF."""
    first, rest = 3, []
    while data := src.read(CSV_CHUNK):
        cut = data.rfind("\n") + 1
        if cut:
            text = "".join(rest) + data[:cut]
            yield first, text
            first += text.count("\n")
            rest = []
        rest.append(data[cut:])
    if text := "".join(rest):
        yield first, text + "\n"


def _accept(text: str, q: int, resolution: int, cap: int):
    """(index, amplitude) of a chunk's rows if every row passes _check, else
    None. One scan of the chunk's bytes holds its lines to the grammar
    (exactly three ','s and no CR on every line, so no blank line) and finds
    the field bounds. Array passes over the fields then give up at the first
    sign that a row may fail: a token that float refuses, a digit token
    other than 1 to 18 ASCII decimal digits or a lo other than
    str(resolution - digit count) (dump_csv writes no other), a digit out of
    range, a non-finite amplitude or a cell past the cap."""
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
    fields = text.replace("\n", ",").split(",")
    lo = fields[0:-1:4]
    spelled = [str(resolution - n) for n in range(counts.max() + 1)]
    if lo != list(map(spelled.__getitem__, counts.tolist())):
        return None
    try:
        re, im = (np.fromiter(map(float, fields[i::4]), float, m) for i in (2, 3))
    except ValueError:
        return None
    if (digit >= q).any() or (dist[digit != 0] > cap).any() \
            or not (np.isfinite(re).all() and np.isfinite(im).all()):
        return None
    amplitude = np.empty(m, dtype=complex)
    amplitude.real, amplitude.imag = re, im
    # each digit at cell_index's place value q^(dist - 1); past the cap every
    # digit is 0, so the clipped power changes nothing
    weight = digit * q ** np.minimum(dist - 1, cap)
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
    for first, text in _chunks(src):
        if cells := _accept(text, q, resolution, cap):
            parsed.append(cells)
            continue
        *cells, error = _check(first, text[:-1].split("\n"), q, resolution, cap)
        parsed.append(cells)
        if error is not None:
            break
    # every line after the column header is a row: row i is on line 3 + i
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
