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
Vilenkin-Chrestenson transform runs over. cell_digits, cell_index and
digit_count are the one codec between its indices and digits, for every
module; at resolution 0 the cell of u(n) has index n.
"""

from __future__ import annotations

import csv
import math
from itertools import chain, compress, islice
from types import MappingProxyType
from typing import Mapping, TextIO

import numpy as np

from .algebra import FieldConfig, FieldElement, SystemConfig
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
    "modulate",
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


# ------------------------------------------------------------ digit codec --

def cell_digits(q: int, index, resolution: int, lo: int):
    """(exponent e, digit at e) of the cells with the given table indices
    (an int or an array) over B^lo / B^resolution, ascending in e and made
    one at a time: base-q digit resolution-1-e of the index."""
    return ((e, index // q ** (resolution - 1 - e) % q) for e in range(lo, resolution))


def cell_index(q: int, digits, resolution: int, out=None):
    """Table index at resolution of the cells with digit d at exponent e for
    each (e, d) of digits, ascending in e and below resolution (every other
    digit is 0). Horner's rule: given out (an array), the index accumulates
    in place there, and only the digit being added is alive beside it."""
    index, last = (0 if out is None else out), resolution - 1
    for e, d in digits:
        index *= q ** max(e - last, 0)   # 1 before the first digit
        index += d
        last = e
    index *= q ** (resolution - 1 - last)
    return index


def digit_count(q: int, index):
    """Base-q digit count of a table index (an int), or of each index of an
    array: the exponents from a cell's leading nonzero digit to the resolution."""
    if isinstance(index, np.ndarray):
        top = digit_count(q, int(index.max(initial=0)))
        return np.searchsorted(q ** np.arange(top, dtype=np.int64), index, side="right")
    count = 0
    while index:
        index //= q
        count += 1
    return count


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
        sums = math.fsum(sq) if sq.ndim == 1 else np.array([math.fsum(r) for r in sq])
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

    def allclose(self, other: "StepFunction", tol: float) -> bool:
        if self.cfg != other.cfg:
            return False
        a, b = _common(self, other)
        return bool(np.all(np.abs(a.values - b.values) <= tol))

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


def modulate(f: StepFunction, b: FieldElement) -> StepFunction:
    """(E_b f)(x) = chi(b x) f(x); refines until chi(b .) is cellwise constant."""
    from .harmonic import character_table  # harmonic builds on this module
    if b.is_zero:
        return f
    g = refine(f, max(f.resolution, -b.valuation()))
    chars = character_table(g.cfg, b, g.resolution, g.lo)
    return StepFunction(g.cfg, g.resolution, g.values * chars, g.lo)


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

# Rows parsed or formatted per array pass. Per-block Python overhead is small
# next to the array work at this size, while the rows of one block, held as
# strings, stay small: reading, transforming and writing a 65,536-row file
# peaks at 39 MB with blocks of 4096 rows and at 89 MB in one block.
CSV_BLOCK = 4096


def _modulus_token(cfg: FieldConfig) -> str:
    if cfg.modulus is None:
        return "-"
    return ".".join(str(d) for d in cfg.modulus)


def _digit_strings(q: int, h: int) -> tuple[list[str], list[str]]:
    """Digits of a cell index high * q^h + low, '.'-joined, most significant first:
    high_part[high] is high's digits and a '.' ("" for 0), low_part[low + q^h *
    (high > 0)] low's, padded to h digits after a high part, else unpadded."""
    plain, padded = [""], [""]
    for _ in range(h):
        plain = [f"{a}.{d}" if a else (str(d) if d else "")
                 for a in plain for d in range(q)]
        padded = [f"{a}.{d}" if a else str(d) for a in padded for d in range(q)]
    return [a + "." if a else "" for a in plain], plain + padded


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
               f"modulus={_modulus_token(f.cfg)} resolution={k}\n")
    dest.write("lo,digits,re,im\n")
    # a cell index splits into a high and a low half of h digits each at
    # most; both halves are read from tables of q^h digit strings
    h = (k - f.lo + 1) // 2
    high_part, low_part = _digit_strings(q, h)
    nonzero = np.flatnonzero(f.values)
    for start in range(0, nonzero.size, CSV_BLOCK):
        index = nonzero[start:start + CSV_BLOCK]
        value = f.values[index]
        high, low = np.divmod(index, q ** h)
        fields = [None] * (5 * index.size)   # the rows' fields, interleaved
        fields[0::5] = (k - digit_count(q, index)).tolist()
        fields[1::5] = map(high_part.__getitem__, high.tolist())
        fields[2::5] = map(low_part.__getitem__, (low + (high > 0) * q ** h).tolist())
        fields[3::5] = value.real.tolist()
        fields[4::5] = value.imag.tolist()
        dest.write("%d,%s%s,%r,%r\n" * index.size % tuple(fields))


def _parse(tokens, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """convert(token) for every token as an array of dtype, and the mask of
    the tokens convert refuses (read as 0)."""
    try:
        return (np.fromiter(map(convert, tokens), dtype, len(tokens)),
                np.zeros(len(tokens), dtype=bool))
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(tokens), dtype=dtype)
    bad = np.zeros(len(tokens), dtype=bool)
    for i, tok in enumerate(tokens):
        try:
            values[i] = convert(tok)
        except ValueError:
            bad[i] = True
        except OverflowError:
            # an integer past int64: no digit, and no lo within a row's
            # digit count of the resolution
            values[i] = np.iinfo(np.int64).max
    return values, bad


def _digits(column) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tokens, bad, counts): the '.'-separated digit tokens of each row read
    by int, row r owning counts[r] of them, and the mask of those int refuses
    (read as 0). ASCII rows without ',' whose tokens are 1 to 18 decimal
    digits, all dump_csv writes, are decoded from their ','-joined bytes."""
    joined = ",".join(column)
    if column and joined.isascii() and joined.count(",") == len(column) - 1:
        raw = np.frombuffer(joined.encode("ascii"), np.uint8)
        code = raw - ord("0")   # below 10 for a decimal digit only
        sep = np.flatnonzero(code > 9)
        ends = np.append(sep, raw.size)   # one past each piece
        lengths = np.diff(ends, prepend=-1) - 1
        # a row has one piece more than '.'s; an empty row's one piece is no token
        first = np.insert(np.flatnonzero(raw[sep] == ord(",")) + 1, 0, 0)
        pieces = np.diff(first, append=ends.size)
        empty = (pieces == 1) & (lengths[first] == 0)
        ends, lengths = np.delete(ends, first[empty]), np.delete(lengths, first[empty])
        if np.isin(raw[sep], list(b".,")).all() and 1 <= lengths.min(initial=1) \
                and lengths.max(initial=1) <= 18:
            values = np.zeros(ends.size, dtype=np.int64)
            for e in reversed(range(lengths.max(initial=0))):   # e places from the end
                values = values * 10 + np.where(lengths > e, code[ends - 1 - e], 0)
            return values, np.zeros(values.size, dtype=bool), pieces - empty
    counts = np.fromiter((d.count(".") + 1 if d else 0 for d in column), np.int64,
                         len(column))
    return (*_parse(".".join(filter(None, column)).split(".") if counts.any() else [],
                    int, np.int64), counts)


def _per_row(ufunc: np.ufunc, values: np.ndarray, starts: np.ndarray,
             counts: np.ndarray) -> np.ndarray:
    """ufunc reduced over each row's digits; 0 for a row without digits."""
    out = np.zeros(counts.size, dtype=values.dtype)
    has = counts > 0
    if has.any():
        out[has] = ufunc.reduceat(values, starts[has])
    return out


def _malformed(lo: str, digits: str, re: str, im: str) -> ValueError:
    """The error of a malformed row's first bad token, in reading order."""
    tokens = [(int, lo), *((int, d) for d in (digits.split(".") if digits else ())),
              (float, re), (float, im)]
    for convert, tok in tokens:
        try:
            convert(tok)
        except ValueError as exc:
            return exc


def _split(lines: list[str]):
    """The four columns of a block that csv.reader reads as line.split(","),
    or None: plain means no '"', NUL or CR, three ','s on every line (so no
    blank line), no line past the field limit."""
    text = "".join(lines)
    if '"' in text or "\0" in text or "\r" in text:
        return None
    text += "" if text.endswith("\n") else "\n"
    # a ',' or '\n' byte is that character; a lone surrogate becomes neither
    raw = np.frombuffer(text.encode(errors="surrogatepass"), np.uint8)
    at = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if raw[at].tobytes() != b",,,\n" * len(lines) \
            or np.diff(at[3::4], prepend=-1).max(initial=0) > csv.field_size_limit():
        return None
    fields = text.replace("\n", ",").split(",")
    return [fields[0:-1:4], fields[1::4], fields[2::4], fields[3::4]]


def _blocks(src: TextIO):
    """(line numbers, columns, (line, InputDataError) of a wrong field count
    or of a record csv.reader refuses, or None) of the non-blank rows after
    the column header, CSV_BLOCK records at a time: split while plain, then
    read by csv.reader from the first block that is not."""
    first = 3
    while lines := list(islice(src, CSV_BLOCK)):
        if (columns := _split(lines)) is None:
            break
        yield first + np.arange(len(lines)), columns, None
        first += len(lines)
    rows = csv.reader(chain(lines, src))
    while True:
        block, error = [], None
        try:
            # extend keeps the rows read before a record the reader refuses
            block.extend(islice(rows, CSV_BLOCK))
        except csv.Error as exc:
            error = (first + len(block), InputDataError(f"line {first + len(block)}: {exc}"))
        if not block and error is None:
            return
        line = first + np.arange(len(block))
        fields = np.fromiter(map(len, block), np.int64, len(block))
        wrong = np.flatnonzero((fields != 4) & (fields != 0))
        if wrong.size:
            n, got = line[wrong[0]], fields[wrong[0]]
            error = (n, InputDataError(f"line {n}: expected 4 fields lo,digits,re,im, got {got}"))
        yield line[fields == 4], list(zip(*compress(block, fields == 4))) or [()] * 4, error
        first += len(block)


def _parse_rows(line: np.ndarray, columns, error, q: int, resolution: int, cap: int):
    """(line, index, amplitude, width) of a block's rows from _blocks before
    the first failing one, and the error of that row or of the block, or
    None. A row's checks run in a fixed order, the first failing one naming
    the error: field count, malformed token, lo against the digit count,
    digit range, finite amplitude, cell cap. Duplicates span blocks and are
    left to the caller."""
    errors = [] if error is None else [error]
    lo_tok, digit_tok, re_tok, im_tok = columns
    m = len(lo_tok)
    lo, bad = _parse(lo_tok, int, np.int64)
    re, bad_re = _parse(re_tok, float, float)
    im, bad_im = _parse(im_tok, float, float)
    # all digits of the block in one flat array; row r owns
    # digits[starts[r]:starts[r] + counts[r]]
    digits, bad_digit, counts = _digits(digit_tok)
    starts = np.cumsum(counts) - counts
    row = np.repeat(np.arange(m), counts)
    dist = (starts + counts)[row] - np.arange(row.size)   # 1 for a row's last digit
    bad |= bad_re | bad_im | _per_row(np.maximum, bad_digit, starts, counts)
    # |resolution| stays below 1100 (normal cell measure), so this cannot wrap
    lo_wrong = lo != resolution - counts
    out_of_range = _per_row(np.maximum, (digits < 0) | (digits >= q), starts, counts)
    nonfinite = ~(np.isfinite(re) & np.isfinite(im))
    # digits from the leading nonzero one: the first nonzero is farthest from the end
    width = _per_row(np.maximum, np.where(digits != 0, dist, 0), starts, counts)
    too_wide = width > cap
    failed = bad | lo_wrong | out_of_range | nonfinite | too_wide
    if failed.any():
        r = int(np.argmax(failed))
        n = line[r]
        if bad[r]:
            exc = _malformed(*(column[r] for column in columns))
            error = InputDataError(f"line {n}: malformed row ({exc})")
            error.__cause__ = exc
        elif lo_wrong[r]:
            error = InputDataError(
                f"line {n}: digits from lo = {int(lo_tok[r])} do not end at "
                f"resolution {resolution}")
        elif out_of_range[r]:
            error = InputDataError(f"line {n}: digit out of range [0, {q})")
        elif nonfinite[r]:
            error = InputDataError(f"line {n}: non-finite amplitude")
        else:
            error = InputDataError(
                f"line {n}: cell widens the table beyond {CELL_CAP} cells")
        errors.append((n, error))
    error_line, error = min(errors, key=lambda e: e[0], default=(None, None))
    keep = slice(None) if error is None else slice(int(np.searchsorted(line, error_line)))
    # the table index, formed only from rows that passed the cap: below the
    # leading nonzero digit every digit is 0, so the weights stop at q^cap
    ok = ~failed
    weights = q ** np.arange(cap + 1, dtype=np.int64)
    terms = np.where(ok[row], digits, 0) * weights[np.minimum(dist - 1, cap)]
    index = _per_row(np.add, terms, starts, counts)
    amplitude = np.empty(m, dtype=complex)
    amplitude.real, amplitude.imag = re, im
    return (line[keep], index[keep], amplitude[keep],
            int(width[keep].max(initial=0)), error)


def _first_duplicate(index: np.ndarray, line: np.ndarray):
    """Line of the first row whose index an earlier row already has."""
    order = np.argsort(index, kind="stable")
    again = order[1:][index[order[1:]] == index[order[:-1]]]
    return int(line[again].min()) if again.size else None


def load_csv(src: str | TextIO) -> StepFunction:
    """Inverse of dump_csv; raises InputDataError with a line number.

    Rows may come in any order. They are checked a block at a time, and the
    first failing row in the file names the error; a duplicate cell is
    reported at its second row. The cell cap is checked before any index is
    formed or any table is allocated.
    """
    if isinstance(src, str):
        with open(src, newline="") as fh:
            return load_csv(fh)
    header = src.readline()
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
    try:
        p, c = int(fields["p"]), int(fields["c"])
        resolution = int(fields["resolution"])
        modulus = (None if fields["modulus"] == "-" else
                   tuple(int(d) for d in fields["modulus"].split(".")))
    except (KeyError, ValueError) as exc:
        raise InputDataError(f"line 1: bad header field ({exc})") from exc
    cfg = FieldConfig(p, c, modulus)
    q = cfg.q
    try:
        measure = float(q) ** (-resolution)   # of one cell
    except OverflowError:
        measure = math.inf
    if not np.finfo(float).smallest_normal <= measure < math.inf:
        raise InputDataError(f"line 1: resolution {resolution} gives cells of "
                             f"measure {q}^{-resolution}, outside the normal floats")
    if next(csv.reader(src), None) != ["lo", "digits", "re", "im"]:
        raise InputDataError("line 2: expected column header lo,digits,re,im")
    cap = digit_count(q, CELL_CAP) - 1   # widest cell q^cap <= CELL_CAP
    parsed, error = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0, dtype=complex), 0)], None
    for block in _blocks(src):
        *cells, error = _parse_rows(*block, q, resolution, cap)
        parsed.append(cells)
        if error is not None:
            break
    lines, indices, amplitudes, widths = zip(*parsed)
    index = np.concatenate(indices)
    duplicate = _first_duplicate(index, np.concatenate(lines))
    if duplicate is not None:
        raise InputDataError(f"line {duplicate}: duplicate representative")
    if error is not None:
        raise error
    values = np.zeros(q ** max(widths), dtype=complex)
    values[index] = np.concatenate(amplitudes)
    return StepFunction(cfg, resolution, values, resolution - max(widths))
