"""Step functions on K = GF(q)((t)) as finite coset tables.

A StepFunction at resolution k is a finitely supported map from cosets of
B^k to complex amplitudes. Each coset is stored through its canonical
representative: the unique element whose digits all sit at exponents < k.
Zero amplitudes are never stored. Haar measure gives every cell mass
q^(-k), so inner products and norms are finite exact sums.

A PeriodicStepFunction is a function on the unit ball D given by a complete
value table over all q^k cells of D at resolution k, stored densely in a
fixed digit-lexicographic order (the digit at exponent 0 is the most
significant), which makes refinement an np.repeat and inner products dot
products. to_table and from_table convert a StepFunction to and from the
same dense layout over any window B^lo / B^k; CELL_CAP bounds the windows
that input files and run configurations may ask for.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Iterable, Iterator, TextIO

import numpy as np

from .algebra import FieldConfig, FieldElement, SystemConfig, chi
from .errors import InputDataError, ResolutionError

__all__ = [
    "CELL_CAP",
    "PeriodicStepFunction",
    "StepFunction",
    "dilate",
    "dump_csv",
    "from_table",
    "indicator",
    "inner",
    "load_csv",
    "modulate",
    "prune",
    "refine",
    "to_table",
    "translate",
    "unit_ball",
    "within_cap",
]

CSV_MAGIC = "# walshframes-stepfn v1"

# Largest dense table (cells of one window) that a step-function file or a
# suite resolution may ask for: 2^24 complex cells take 256 MiB, far above
# the 65,536 of a q=4, 8-digit transform yet small enough to allocate.
CELL_CAP = 2 ** 24


class StepFunction:
    """Finitely many cosets of B^resolution with complex amplitudes."""

    __slots__ = ("cfg", "resolution", "cells")

    def __init__(self, cfg: FieldConfig, resolution: int,
                 cells: dict[FieldElement, complex]):
        self.cfg = cfg
        self.resolution = int(resolution)
        table: dict[FieldElement, complex] = {}
        for rep, value in cells.items():
            if rep.cfg != cfg:
                raise ValueError("representative from a different field config")
            if rep.terms and rep.terms[-1][0] >= self.resolution:
                raise ValueError(
                    f"representative {rep.text()} not canonical at resolution "
                    f"{self.resolution}")
            value = complex(value)
            if value != 0:
                table[rep] = value
        self.cells = table

    # -- bookkeeping -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.cells

    def items_sorted(self) -> list[tuple[FieldElement, complex]]:
        return sorted(self.cells.items(), key=lambda kv: kv[0].terms)

    def support_ball(self) -> int:
        """Exponent l of the smallest ball B^l containing the support."""
        l = self.resolution
        for rep in self.cells:
            if rep.terms:
                l = min(l, rep.terms[0][0])
        return l

    def norm2(self) -> float:
        meas = float(self.cfg.q) ** (-self.resolution)
        return sum(abs(v) ** 2 for _, v in self.items_sorted()) * meas

    def scale(self, z: complex) -> "StepFunction":
        return StepFunction(self.cfg, self.resolution,
                            {rep: v * z for rep, v in self.cells.items()})

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if self.cfg != other.cfg:
            raise ValueError("mixed field configs")
        k = max(self.resolution, other.resolution)
        a, b = refine(self, k), refine(other, k)
        acc = dict(a.cells)
        for rep, v in b.cells.items():
            acc[rep] = acc.get(rep, 0.0) + v
        return StepFunction(self.cfg, k, acc)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + other.scale(-1.0)

    def __eq__(self, other):
        return (isinstance(other, StepFunction) and self.cfg == other.cfg
                and self.resolution == other.resolution and self.cells == other.cells)

    def __hash__(self):
        return hash((self.resolution, tuple(self.items_sorted())))

    def allclose(self, other: "StepFunction", tol: float) -> bool:
        if self.cfg != other.cfg:
            return False
        k = max(self.resolution, other.resolution)
        a, b = refine(self, k), refine(other, k)
        for rep in set(a.cells) | set(b.cells):
            if abs(a.cells.get(rep, 0.0) - b.cells.get(rep, 0.0)) > tol:
                return False
        return True

    def __repr__(self):
        return (f"<StepFunction res={self.resolution} cells={len(self.cells)} "
                f"ball={self.support_ball()}>")


def unit_ball(cfg: FieldConfig) -> StepFunction:
    """The indicator of the ring of integers D."""
    return StepFunction(cfg, 0, {cfg.zero(): 1.0})


def indicator(cfg: FieldConfig, resolution: int, h: FieldElement) -> StepFunction:
    """The indicator of the single coset h + B^resolution."""
    return StepFunction(cfg, resolution, {h.truncate(resolution): 1.0})


def refine(f: StepFunction, resolution: int) -> StepFunction:
    """Re-express f on the finer grid B^resolution; exact, norm preserving."""
    k = f.resolution
    if resolution < k:
        raise ResolutionError(
            f"cannot refine from resolution {k} down to {resolution}")
    if resolution == k:
        return f
    cfg = f.cfg
    exps = range(k, resolution)
    cells: dict[FieldElement, complex] = {}
    for rep, value in f.cells.items():
        base = dict(rep.terms)
        for digits in itertools.product(range(cfg.q), repeat=resolution - k):
            terms = dict(base)
            for e, d in zip(exps, digits):
                if d:
                    terms[e] = d
            cells[FieldElement(cfg, terms)] = value
    return StepFunction(cfg, resolution, cells)


def prune(f: StepFunction, tol: float = 0.0) -> StepFunction:
    """Drop cells whose amplitude magnitude is <= tol."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return StepFunction(f.cfg, f.resolution,
                        {rep: v for rep, v in f.cells.items() if abs(v) > tol})


def translate(f: StepFunction, a: FieldElement) -> StepFunction:
    """(T_a f)(x) = f(x - a)."""
    k = f.resolution
    return StepFunction(f.cfg, k, {
        (rep + a).truncate(k): v for rep, v in f.cells.items()})


def modulate(f: StepFunction, b: FieldElement) -> StepFunction:
    """(E_b f)(x) = chi(b x) f(x); refines until chi(b .) is cellwise constant."""
    if b.is_zero:
        return f
    k = max(f.resolution, -b.valuation())
    g = refine(f, k)
    return StepFunction(f.cfg, k, {
        rep: v * chi(b * rep) for rep, v in g.cells.items()})


def dilate(f: StepFunction, sys: SystemConfig, direction: str = "fine") -> StepFunction:
    """(D f)(x) = s * f(t^(-1) nu x) for "fine", and its inverse for "coarse".

    s is sys.dilation_amplitude: sqrt(q) in unitary mode (an isometry, since
    the argument map scales measure by q), sqrt(qN) in qn mode.
    """
    cfg = f.cfg
    s = sys.dilation_amplitude
    if direction == "fine":
        inv_nu = cfg.gf_inv(sys.nu)
        return StepFunction(cfg, f.resolution + 1, {
            rep.scale(inv_nu).shift(1): v * s for rep, v in f.cells.items()})
    if direction == "coarse":
        return StepFunction(cfg, f.resolution - 1, {
            rep.scale(sys.nu).shift(-1): v / s for rep, v in f.cells.items()})
    raise ValueError(f"direction must be 'fine' or 'coarse', got {direction!r}")


def inner(f: StepFunction, g: StepFunction) -> complex:
    """Exact L2 inner product <f, g> = sum f conj(g) * q^(-k)."""
    if f.cfg != g.cfg:
        raise ValueError("mixed field configs")
    k = max(f.resolution, g.resolution)
    a, b = refine(f, k), refine(g, k)
    # iterate the smaller table in canonical order, look up in the larger
    acc = 0.0 + 0.0j
    if len(a.cells) <= len(b.cells):
        for rep, va in a.items_sorted():
            vb = b.cells.get(rep)
            if vb is not None:
                acc += va * vb.conjugate()
    else:
        for rep, vb in b.items_sorted():
            va = a.cells.get(rep)
            if va is not None:
                acc += va * vb.conjugate()
    return acc * float(f.cfg.q) ** (-k)


# ------------------------------------------------------------ dense tables --

def within_cap(q: int, digits: int) -> bool:
    """Whether a window of q^digits cells stays within CELL_CAP."""
    return digits < 64 and q ** digits <= CELL_CAP


def to_table(f: StepFunction, lo: int | None = None) -> tuple[int, np.ndarray]:
    """(lo, values): f over the window B^lo / B^k, k = f.resolution, with
    the digit at exponent k-1 least significant. lo defaults to f's support
    ball; a cell outside the window raises ValueError."""
    q, k = f.cfg.q, f.resolution
    if lo is None:
        lo = f.support_ball()
    values = np.zeros(q ** (k - lo), dtype=complex)
    for rep, v in f.cells.items():
        if rep.terms and rep.terms[0][0] < lo:
            raise ValueError(f"cell {rep.text()} lies outside B^{lo}")
        values[sum(d * q ** (k - 1 - e) for e, d in rep.terms)] = v
    return lo, values


def from_table(cfg: FieldConfig, resolution: int, lo: int,
               values: np.ndarray) -> StepFunction:
    """Inverse of to_table: the step function with the given dense values
    over B^lo / B^resolution; zero cells are not stored."""
    q, k = cfg.q, resolution
    cells = {}
    # one index at a time: a list of every index or value would sit in
    # memory next to the two cell dicts of a table-sized step function
    for idx in np.flatnonzero(values):
        x, terms = int(idx), {}
        for e in range(k - 1, lo - 1, -1):
            x, d = divmod(x, q)
            if d:
                terms[e] = d
        cells[FieldElement(cfg, terms)] = complex(values[idx])
    return StepFunction(cfg, k, cells)


# ------------------------------------------------------------- CSV format --

def _modulus_token(cfg: FieldConfig) -> str:
    if cfg.modulus is None:
        return "-"
    return ".".join(str(d) for d in cfg.modulus)


def dump_csv(f: StepFunction, dest: str | TextIO) -> None:
    """Write the cell table: header with field config and resolution, then
    rows lo,digits,re,im (digits low to high exponent, '.'-separated)."""
    if isinstance(dest, str):
        with open(dest, "w", newline="") as fh:
            dump_csv(f, fh)
        return
    dest.write(f"{CSV_MAGIC} p={f.cfg.p} c={f.cfg.c} "
               f"modulus={_modulus_token(f.cfg)} resolution={f.resolution}\n")
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["lo", "digits", "re", "im"])
    for rep, value in f.items_sorted():
        if rep.is_zero:
            lo, digits = f.resolution, ""
        else:
            lo = rep.valuation()
            digits = ".".join(
                str(rep.coefficient(e)) for e in range(lo, f.resolution))
        writer.writerow([lo, digits, repr(value.real), repr(value.imag)])


def load_csv(src: str | TextIO) -> StepFunction:
    """Inverse of dump_csv; raises InputDataError with a line number."""
    if isinstance(src, str):
        with open(src, newline="") as fh:
            return load_csv(fh)
    header = src.readline()
    if not header.startswith(CSV_MAGIC):
        raise InputDataError("line 1: missing step function header")
    tokens = header.split()[3:]
    bad = [tok for tok in tokens if "=" not in tok]
    if bad:
        raise InputDataError(f"line 1: header token {bad[0]!r} is not key=value")
    fields = dict(tok.split("=", 1) for tok in tokens)
    try:
        p, c = int(fields["p"]), int(fields["c"])
        resolution = int(fields["resolution"])
        modulus = (None if fields["modulus"] == "-" else
                   tuple(int(d) for d in fields["modulus"].split(".")))
    except (KeyError, ValueError) as exc:
        raise InputDataError(f"line 1: bad header field ({exc})") from exc
    cfg = FieldConfig(p, c, modulus)
    cells: dict[FieldElement, complex] = {}
    rows = csv.reader(src)
    for lineno, row in enumerate(rows, start=2):
        if lineno == 2:
            if row != ["lo", "digits", "re", "im"]:
                raise InputDataError("line 2: expected column header lo,digits,re,im")
            continue
        if not row:
            continue
        try:
            lo = int(row[0])
            digit_str, re_s, im_s = row[1], row[2], row[3]
            digits = [int(d) for d in digit_str.split(".")] if digit_str else []
            value = complex(float(re_s), float(im_s))
        except (IndexError, ValueError) as exc:
            raise InputDataError(f"line {lineno}: malformed row ({exc})") from exc
        if lo + len(digits) != resolution:
            raise InputDataError(
                f"line {lineno}: digits from lo = {lo} do not end at resolution "
                f"{resolution}")
        if any(not 0 <= d < cfg.q for d in digits):
            raise InputDataError(f"line {lineno}: digit out of range [0, {cfg.q})")
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise InputDataError(f"line {lineno}: non-finite amplitude")
        rep = FieldElement(cfg, {lo + i: d for i, d in enumerate(digits)})
        if rep in cells:
            raise InputDataError(f"line {lineno}: duplicate representative")
        if rep.terms and not within_cap(cfg.q, resolution - rep.terms[0][0]):
            raise InputDataError(
                f"line {lineno}: cell widens the table beyond {CELL_CAP} cells")
        cells[rep] = value
    return StepFunction(cfg, resolution, cells)


# ------------------------------------------------------- periodic functions --

class PeriodicStepFunction:
    """A complete value table over the q^k cells of D at resolution k >= 0.

    values[i] is the amplitude on the cell whose representative has base-q
    digit j of i at exponent k-1-j; equivalently the digit at exponent 0 is
    the most significant, so refining by one level repeats each value q times.
    """

    __slots__ = ("cfg", "resolution", "values")

    def __init__(self, cfg: FieldConfig, resolution: int, values: np.ndarray):
        if resolution < 0:
            raise ValueError("periodic resolution must be >= 0")
        values = np.asarray(values, dtype=complex)
        if values.shape != (cfg.q ** resolution,):
            raise ValueError(
                f"need q^k = {cfg.q ** resolution} values, got {values.shape}")
        self.cfg = cfg
        self.resolution = resolution
        self.values = values

    def rep_of_index(self, idx: int) -> FieldElement:
        q, k = self.cfg.q, self.resolution
        terms = {}
        for e in range(k):
            d = (idx // q ** (k - 1 - e)) % q
            if d:
                terms[e] = d
        return FieldElement(self.cfg, terms)

    def index_of_rep(self, rep: FieldElement) -> int:
        q, k = self.cfg.q, self.resolution
        idx = 0
        for e, cdig in rep.terms:
            if not 0 <= e < k:
                raise ValueError(f"representative {rep.text()} outside grid")
            idx += cdig * q ** (k - 1 - e)
        return idx

    def refine(self, resolution: int) -> "PeriodicStepFunction":
        if resolution < self.resolution:
            raise ResolutionError("cannot coarsen a periodic table")
        if resolution == self.resolution:
            return self
        reps = self.cfg.q ** (resolution - self.resolution)
        return PeriodicStepFunction(self.cfg, resolution, np.repeat(self.values, reps))

    def inner(self, other: "PeriodicStepFunction") -> complex:
        k = max(self.resolution, other.resolution)
        a, b = self.refine(k), other.refine(k)
        return complex(np.vdot(b.values, a.values)) * float(self.cfg.q) ** (-k)

    def norm2(self) -> float:
        return float(np.vdot(self.values, self.values).real) \
            * float(self.cfg.q) ** (-self.resolution)

    def scale(self, z: complex) -> "PeriodicStepFunction":
        return PeriodicStepFunction(self.cfg, self.resolution, self.values * z)

    def __add__(self, other: "PeriodicStepFunction") -> "PeriodicStepFunction":
        k = max(self.resolution, other.resolution)
        return PeriodicStepFunction(
            self.cfg, k, self.refine(k).values + other.refine(k).values)

    def allclose(self, other: "PeriodicStepFunction", tol: float) -> bool:
        k = max(self.resolution, other.resolution)
        diff = np.abs(self.refine(k).values - other.refine(k).values)
        return bool(np.all(diff <= tol))

    def to_step(self) -> StepFunction:
        return from_table(self.cfg, self.resolution, 0, self.values)

    @classmethod
    def from_step(cls, f: StepFunction) -> "PeriodicStepFunction":
        """Reinterpret a step function supported inside D as a complete
        table; ValueError if its support leaves D (periodize instead)."""
        if f.resolution < 0:
            f = refine(f, 0)
        return cls(f.cfg, f.resolution, to_table(f, 0)[1])

    def __repr__(self):
        return f"<PeriodicStepFunction res={self.resolution}>"
