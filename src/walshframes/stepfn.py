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
"""

from __future__ import annotations

import csv
import math
from types import MappingProxyType
from typing import Mapping, TextIO

import numpy as np

from .algebra import FieldConfig, FieldElement, SystemConfig
from .errors import InputDataError, ResolutionError

__all__ = [
    "CELL_CAP",
    "PeriodicStepFunction",
    "StepFunction",
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


class StepFunction:
    """The amplitudes of a step function over the window B^lo / B^resolution."""

    __slots__ = ("cfg", "resolution", "lo", "values")

    def __init__(self, cfg: FieldConfig, resolution: int, values, lo: int = 0):
        resolution, lo = int(resolution), int(lo)
        if lo > resolution:
            raise ValueError(f"window B^{lo} / B^{resolution} holds no cell")
        values = np.asarray(values, dtype=complex)
        if values.shape != (cfg.q ** (resolution - lo),):
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
        out = {}
        for i in np.flatnonzero(self.values):
            x, e, terms = int(i), k - 1, {}
            while x:
                x, terms[e] = divmod(x, q)
                e -= 1
            out[FieldElement(self.cfg, terms)] = complex(self.values[i])
        return MappingProxyType(out)

    def support_ball(self) -> int:
        """Exponent l of the smallest ball B^l containing the support."""
        nonzero = np.flatnonzero(self.values)
        top = int(nonzero[-1]) if nonzero.size else 0
        l = self.resolution
        while top:   # each base-q digit of the last nonzero index is one exponent
            top //= self.cfg.q
            l -= 1
        return l

    def window(self, lo: int) -> "StepFunction":
        """The same function over B^lo / B^resolution; ValueError if a
        nonzero cell lies outside B^lo."""
        q, k = self.cfg.q, self.resolution
        if lo == self.lo:
            return self
        if lo > self.lo:
            size = q ** (k - lo) if lo <= k else 0
            if not size or self.values[size:].any():
                raise ValueError(f"a nonzero cell lies outside B^{lo}")
            return StepFunction(self.cfg, k, self.values[:size], lo)
        if not within_cap(q, k - lo):
            raise ResolutionError(f"window B^{lo} / B^{k} exceeds {CELL_CAP} cells")
        values = np.zeros(q ** (k - lo), dtype=complex)
        values[:self.values.size] = self.values
        return StepFunction(self.cfg, k, values, lo)

    def norm2(self) -> float:
        # exactly rounded, so moving cells (a translation) keeps it bit for bit
        return math.fsum(np.abs(self.values) ** 2) * float(self.cfg.q) ** (-self.resolution)

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
        values[sum(d * q ** (k - 1 - e) for e, d in rep.terms)] = value
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
    sources = {e: cfg._add[cfg.gf_neg(d)] for e, d in digits}
    return StepFunction(cfg, f.resolution, _read_digits(f, sources), f.lo)


def rescale(f: StepFunction, c: int, shift: int) -> StepFunction:
    """x -> f(c^(-1) t^(-shift) x) for a unit c of GF(q): every digit is
    multiplied by c and the window moves up by shift exponents."""
    cfg = f.cfg
    sources = {}
    if c != 1:
        sources = dict.fromkeys(range(f.lo, f.resolution), cfg._mul[cfg.gf_inv(c)])
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

def _modulus_token(cfg: FieldConfig) -> str:
    if cfg.modulus is None:
        return "-"
    return ".".join(str(d) for d in cfg.modulus)


def dump_csv(f: StepFunction, dest: str | TextIO) -> None:
    """Write the nonzero cells in table order: header with field config and
    resolution, then rows lo,digits,re,im (lo the cell's valuation, digits
    from lo up to the resolution, '.'-separated)."""
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            dump_csv(f, fh)
        return
    q, k = f.cfg.q, f.resolution
    dest.write(f"{CSV_MAGIC} p={f.cfg.p} c={f.cfg.c} "
               f"modulus={_modulus_token(f.cfg)} resolution={k}\n")
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["lo", "digits", "re", "im"])
    for i in np.flatnonzero(f.values):
        x, digits = int(i), []
        while x:
            x, d = divmod(x, q)
            digits.append(str(d))
        value = complex(f.values[i])
        writer.writerow([k - len(digits), ".".join(reversed(digits)),
                         repr(value.real), repr(value.imag)])


def load_csv(src: str | TextIO) -> StepFunction:
    """Inverse of dump_csv; raises InputDataError with a line number."""
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
    rows = csv.reader(src)
    if next(rows, None) != ["lo", "digits", "re", "im"]:
        raise InputDataError("line 2: expected column header lo,digits,re,im")
    cells: dict[int, complex] = {}
    width = 0
    for lineno, row in enumerate(rows, start=3):
        if not row:
            continue
        if len(row) != 4:
            raise InputDataError(
                f"line {lineno}: expected 4 fields lo,digits,re,im, got {len(row)}")
        try:
            lo = int(row[0])
            digits = [int(d) for d in row[1].split(".")] if row[1] else []
            value = complex(float(row[2]), float(row[3]))
        except ValueError as exc:
            raise InputDataError(f"line {lineno}: malformed row ({exc})") from exc
        if lo + len(digits) != resolution:
            raise InputDataError(
                f"line {lineno}: digits from lo = {lo} do not end at resolution "
                f"{resolution}")
        if any(not 0 <= d < q for d in digits):
            raise InputDataError(f"line {lineno}: digit out of range [0, {q})")
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise InputDataError(f"line {lineno}: non-finite amplitude")
        lead = next((i for i, d in enumerate(digits) if d), len(digits))
        if not within_cap(q, len(digits) - lead):
            raise InputDataError(
                f"line {lineno}: cell widens the table beyond {CELL_CAP} cells")
        # the table index, the same in every window that holds the cell
        index = 0
        for d in digits[lead:]:
            index = index * q + d
        if index in cells:
            raise InputDataError(f"line {lineno}: duplicate representative")
        cells[index] = value
        width = max(width, len(digits) - lead)
    values = np.zeros(q ** width, dtype=complex)
    values[list(cells)] = list(cells.values())
    return StepFunction(cfg, resolution, values, resolution - width)
