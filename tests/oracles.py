"""Reference routes for the tests.

The transform references are the dense, unfactorized forms of what the
library computes by digit contraction: the full character matrix of a
window, built from FieldElement products and chi alone, the character table
chi(xi .) of one frequency, the per-index character sum for a single
Fourier coefficient, and the per-term character sum of a mask's values.

The step-function references are the cell-dictionary forms of the
operators that the library computes on dense digit tables: each reads
{canonical representative: amplitude} through .cells, works on
FieldElements cell by cell, and returns through from_cells. Pointwise mask
values and the partition sum over an explicit list of translations are
computed the same way. None of these share a code path with
walshframes.harmonic's contraction or with stepfn's table operators.

The CSV references read and write a step-function file one row at a time in
Python, where stepfn parses and formats blocks of rows as arrays. The reader
holds to the format's line grammar by itself: it refuses a line with a CR
and splits every other line at ','.

The small helpers compare two step functions and compute field and label
quantities that only the tests ask for.

The suite references draw the random test family and run the verify and
periodic checks one function at a time, where runner draws and checks
blocks of functions as arrays. The energy balance forms the two-scale
residuals and the frame sum one scale step at a time in a Python loop, where
framekit.energy_balance subtracts whole arrays.
"""

import csv
import itertools
import math
from functools import lru_cache

import numpy as np

from walshframes.algebra import (
    FieldConfig,
    FieldElement,
    cell_digits,
    cell_index,
    chi,
    uindex,
)
from walshframes.errors import InputDataError
from walshframes.framekit import FrameAnalyzer, derive_generators
from walshframes.periodic import (
    PeriodicSystemSpec,
    folded_energies,
    periodic_tightness_check,
    periodic_two_scale_check,
    projection_energy_scan,
)
from walshframes.stepfn import (
    CELL_CAP,
    CSV_HEADER_KEYS,
    CSV_MAGIC,
    StepFunction,
    from_cells,
    within_cap,
)


# ------------------------------------------------------ small helpers --

def allclose(f, g, tol):
    """Whether two step functions over one field agree cellwise to tol."""
    if f.cfg != g.cfg:
        return False
    k = max(f.resolution, g.resolution)
    f, g = f.refine(k), g.refine(k)
    lo = min(f.lo, g.lo)
    return bool(np.all(np.abs(f.window(lo).values - g.window(lo).values) <= tol))


def prime_element(cfg):
    """The prime element t of K."""
    return cfg.monomial(1, 1)


def gf_from_digits(cfg, ds):
    """The GF(q) scalar with power-basis coordinates ds, low to high."""
    ds = [d % cfg.p for d in ds]
    if len(ds) != cfg.c:
        raise ValueError(f"need exactly {cfg.c} digits")
    return cell_index(cfg.p, zip(range(-cfg.c, 0), reversed(ds)), 0)


def coset_label_decompose(sys, k, j):
    """Split k = r * (qN)^j + s with 0 <= s < (qN)^j."""
    if k < 0 or j < 0:
        raise ValueError("k and j must be nonnegative")
    return divmod(k, sys.qN ** j)


def enumerate_reps(cfg, lo, hi):
    """Every canonical representative of B^lo / B^hi, as FieldElements, in
    table order (the digit at exponent hi-1 varies fastest)."""
    reps = [cfg.zero()]
    for e in range(lo, hi):
        reps = [r + cfg.monomial(d, e) for r in reps for d in range(cfg.q)]
    return reps


@lru_cache(maxsize=None)
def character_matrix(cfg, k, l):
    """(output reps, input reps, chi(xi x)) with xi over B^-k / B^-l on the
    rows and x over B^l / B^k on the columns."""
    xs = enumerate_reps(cfg, l, k)
    xis = enumerate_reps(cfg, -k, -l)
    matrix = np.array([[chi(xi * x) for x in xs] for xi in xis], dtype=complex)
    return xis, xs, matrix


def dense_transform(f, forward=True):
    """The transform of f (inverse transform unless forward) as one product
    with the dense character matrix of f's window."""
    cfg, k, l = f.cfg, f.resolution, f.support_ball()
    xis, xs, matrix = character_matrix(cfg, k, l)
    cells = f.cells
    v = np.array([cells.get(x, 0) for x in xs], dtype=complex)
    out = ((matrix.conj() if forward else matrix) @ v) * float(cfg.q) ** (-k)
    return from_cells(cfg, -l, dict(zip(xis, out)))


def character_table(cfg, xi, resolution, lo=0):
    """chi(xi h) over the cells h of B^lo / B^resolution (default: D), in
    the StepFunction table layout, as a sum of digit products; chi(xi .)
    must be constant on the cells."""
    q, k = cfg.q, resolution
    # a sum of products, whose residue mod p is the coordinate chi reads
    B = np.zeros(q ** (k - lo), dtype=np.int64)
    for e, d in cell_digits(q, np.arange(B.size), k, lo):
        B += cfg.mul_table[xi.coefficient(-1 - e), d]
    return cfg.root_table[B % cfg.p]


def mask_table(m, shift, resolution):
    """m(xi + shift) over the cells xi of D at the given resolution, one
    character table per term of m."""
    cfg = m.sys.field
    out = np.zeros(cfg.q ** resolution, dtype=complex)
    for idx, a in m.items_sorted():
        lam = m.sys.lambda_element(idx)
        phase = chi(lam * shift).conjugate()
        out += (a * phase) * np.conj(character_table(cfg, lam, resolution))
    return out * m.sys.mask_norm_const


def fourier_coefficient(f, n):
    """Coefficient of a function on D against chi(u(n) .), one character
    sum; identically 0 once n >= q^k."""
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    cfg, k = f.cfg, f.resolution
    if n >= cfg.q ** k:
        return 0j
    table = character_table(cfg, uindex(cfg, n), k)
    return complex(np.vdot(table, f.window(0).values)) * float(cfg.q) ** (-k)


# ------------------------------------------------------ cell dictionaries --

def _refined(f, resolution):
    """f's cells split onto the finer grid B^resolution."""
    cfg, k = f.cfg, f.resolution
    cells = {}
    for rep, value in f.cells.items():
        base = dict(rep.terms)
        for digits in itertools.product(range(cfg.q), repeat=resolution - k):
            terms = dict(base)
            for e, d in zip(range(k, resolution), digits):
                if d:
                    terms[e] = d
            cells[FieldElement(cfg, terms)] = value
    return cells


def refine(f, resolution):
    return from_cells(f.cfg, resolution, _refined(f, resolution))


def translate(f, a):
    """(T_a f)(x) = f(x - a), one representative at a time."""
    k = f.resolution
    return from_cells(f.cfg, k, {(rep + a).truncate(k): v
                                 for rep, v in f.cells.items()})


def modulate(f, b):
    """(E_b f)(x) = chi(b x) f(x), refined until chi(b .) is cellwise constant."""
    if b.is_zero:
        return f
    k = max(f.resolution, -b.valuation())
    return from_cells(f.cfg, k, {rep: v * chi(b * rep)
                                 for rep, v in _refined(f, k).items()})


def modulate_table(f, b):
    """(E_b f)(x) = chi(b x) f(x) as one product with a character table."""
    if b.is_zero:
        return f
    g = f.refine(max(f.resolution, -b.valuation()))
    chars = character_table(g.cfg, b, g.resolution, g.lo)
    return StepFunction(g.cfg, g.resolution, g.values * chars, g.lo)


def dilate(f, sys, direction="fine"):
    """(D f)(x) = s f(t^-1 nu x), or its inverse, one representative at a time."""
    cfg, s = f.cfg, sys.dilation_amplitude
    if direction == "fine":
        inv_nu = cfg.gf_inv(sys.nu)
        return from_cells(cfg, f.resolution + 1, {
            rep.scale(inv_nu).shift(1): v * s for rep, v in f.cells.items()})
    return from_cells(cfg, f.resolution - 1, {
        rep.scale(sys.nu).shift(-1): v / s for rep, v in f.cells.items()})


def inner(f, g):
    """<f, g>: products over the representatives both functions carry."""
    k = max(f.resolution, g.resolution)
    a, b = _refined(f, k), _refined(g, k)
    acc = 0j
    for rep, va in sorted(a.items(), key=lambda kv: kv[0].terms):
        vb = b.get(rep)
        if vb is not None:
            acc += va * vb.conjugate()
    return acc * float(f.cfg.q) ** (-k)


def periodize(f):
    """Every cell rerouted to its fractional part on D."""
    k = max(f.resolution, 0)
    sums = {}
    for rep, v in _refined(f, k).items():
        frac = rep.tail(0)
        sums[frac] = sums.get(frac, 0) + v
    return from_cells(f.cfg, k, sums)


def brute_partition(phi_hat, sys, lam_range):
    """sum over the given translation indices of |phi_hat(xi + lambda)|^2
    on the cells of D."""
    K = max(phi_hat.resolution, 0)
    cells = _refined(phi_hat, K)
    sums = {}
    for idx in lam_range:
        lam = sys.lambda_element(idx)
        for rep, v in cells.items():
            d = rep - lam
            if d.terms and d.terms[0][0] < 0:
                continue
            sums[d] = sums.get(d, 0.0) + abs(v) ** 2
    return from_cells(sys.field, K, sums)


def mask_value(m, xi):
    """The mask m at the point xi, as its character polynomial."""
    acc = 0j
    for idx, a in m.items_sorted():
        acc += a * chi(m.sys.lambda_element(idx) * xi).conjugate()
    return m.sys.mask_norm_const * acc


# -------------------------------------------------------------- CSV rows --

def dump_csv(f, dest):
    """stepfn.dump_csv, one row at a time through csv.writer."""
    q, k = f.cfg.q, f.resolution
    modulus = "-" if f.cfg.modulus is None else ".".join(map(str, f.cfg.modulus))
    dest.write(f"{CSV_MAGIC} p={f.cfg.p} c={f.cfg.c} "
               f"modulus={modulus} resolution={k}\n")
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


def _line(lineno, text):
    if "\r" in text:
        raise InputDataError(f"line {lineno}: CR in line (lines end in LF alone)")
    return text[:-1] if text.endswith("\n") else text


def load_csv(src):
    """stepfn.load_csv, splitting, checking and indexing one line at a time."""
    header = _line(1, src.readline())
    if not header.startswith(CSV_MAGIC):
        raise InputDataError("line 1: missing step function header")
    fields = {}
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
        cfg = FieldConfig(p, c, modulus)   # c > 1 states its modulus
    except (KeyError, ValueError) as exc:
        raise InputDataError(f"line 1: bad header field ({exc})") from exc
    q = cfg.q
    try:
        exponent = -resolution * math.log2(q)   # of one cell's measure, base 2
    except OverflowError:
        exponent = math.inf
    if not -1022 <= exponent < 1024:   # the normal doubles are 2^-1022 to below 2^1024
        raise InputDataError(f"line 1: resolution {resolution} gives cells of "
                             f"measure {q}^{-resolution}, outside the normal floats")
    if _line(2, src.readline()).split(",") != ["lo", "digits", "re", "im"]:
        raise InputDataError("line 2: expected column header lo,digits,re,im")
    cells = {}
    width = 0
    for lineno, text in enumerate(src, 3):
        row = _line(lineno, text).split(",")
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


# ------------------------------------------------------------------ suite --

def suite_functions(cfg, resolution, count, seed):
    """The random test family one function at a time: the real part, then
    the imaginary part of each table, drawn from PCG64(seed)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = cfg.q ** resolution
    for _ in range(count):
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yield StepFunction(cfg, resolution, vals)


def energy_balance(S, W):
    """(residuals, total): |S[j+1] - (S[j] + W[j])| for each step j of the
    len(S) scales, and S[0] with W[0], W[1], ... added to it in turn."""
    steps = range(len(S) - 1)
    residuals = [np.abs(S[j + 1] - (S[j] + W[j])) for j in steps]
    total = S[0]
    for j in steps:
        total = total + W[j]
    return residuals, total


def verify_numbers(rc):
    """The suite numbers of a verify report, checking one function at a
    time; norm2 is the largest squared norm of the suite."""
    analyzer = FrameAnalyzer(rc.sys, derive_generators(rc.sys, rc.cascade_iterations))
    out = {"max_residual": 0.0, "max_projector_residual": 0.0,
           "max_abs_deviation": 0.0, "norm2": 0.0}
    for f in suite_functions(rc.cfg, rc.resolution, rc.count, rc.seed):
        for j in range(rc.j0, rc.j1):
            residual = analyzer.two_scale_check(f, j)
            out["max_residual"] = max(out["max_residual"], residual)
            # the report writes its projector key from the same residual
            out["max_projector_residual"] = out["max_residual"]
        ratio = analyzer.frame_ratio(f, rc.j0, rc.j1)
        out["max_abs_deviation"] = max(out["max_abs_deviation"], abs(ratio - 1.0))
        out["norm2"] = max(out["norm2"], f.norm2())
    return out


def periodic_numbers(rc):
    """The suite numbers of a periodic report, checking one function at a
    time; norm2 is the largest squared norm of the suite."""
    spec = PeriodicSystemSpec(rc.sys, derive_generators(rc.sys, rc.cascade_iterations),
                              rc.j_max)
    out = {"all_finite": True, "max_J": None, "first_function": None,
           "max_residual": 0.0, "max_tightness": 0.0, "max_tail": 0.0,
           "norm2": 0.0}
    for f in suite_functions(rc.cfg, rc.resolution, rc.count, rc.seed):
        energies = folded_energies(f, spec)
        J, sums = projection_energy_scan(f, rc.epsilon, spec, energies)
        if out["first_function"] is None:
            out["first_function"] = {"J": J, "sums": [sums[j] for j in sorted(sums)]}
        if J is None:
            out["all_finite"] = False
        elif out["max_J"] is None or J > out["max_J"]:
            out["max_J"] = J
        for j in range(rc.j_max):
            out["max_residual"] = max(out["max_residual"],
                                      periodic_two_scale_check(f, j, spec))
        tight = periodic_tightness_check(f, spec, energies)
        out["max_tightness"] = max(out["max_tightness"], tight["residual"])
        out["max_tail"] = max(out["max_tail"], tight["tail"])
        out["norm2"] = max(out["norm2"], f.norm2())
    return out
