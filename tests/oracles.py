"""Reference routes for the tests.

The field references are the FieldElement arithmetic that only the
references need: the product of two Laurent series, the shift by a power of
t, the truncation to a canonical representative, the additive character chi
and the inverse of u(n). The library reads characters from digit tables
and keeps FieldElement to translations and the field reports.

The transform references are the dense, unfactorized forms of what the
library computes by digit contraction: the full character matrix of a
window, built from FieldElement products and chi alone, the character table
chi(xi .) of one frequency, the per-index character sum for a single
Fourier coefficient, and the per-term character sum of a mask's values.

The step-function references are the cell-dictionary forms of the
operators that the library computes on dense digit tables: each reads
{canonical representative: amplitude} through cells, works on
FieldElements cell by cell, and returns through from_cells. Pointwise mask
values and the partition sum over an explicit list of translations are
computed the same way. None of these share a code path with
walshframes.harmonic's contraction or with stepfn's table operators.

The CSV references read and write a step-function file one row at a time in
Python, where stepfn parses and formats blocks of rows as arrays. The reader
holds to the format's line grammar by itself: it refuses a line with a CR
and splits every other line at ','. The byte tables of the writer's repr
kernel are built entry by entry, one layout row per number shape, where
stepfn forms each table with array operations.

The small helpers compare two step functions, compute field and label
quantities that only the tests ask for, and write a mask file, the format
framekit.load_masks reads.

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
from types import MappingProxyType

import numpy as np

from walshframes.algebra import (
    FieldConfig,
    FieldElement,
    cell_digits,
    cell_index,
    uindex,
)
from walshframes.errors import InputDataError
from walshframes.framekit import MASK_MAGIC, FrameAnalyzer, derive_generators
from walshframes.periodic import (
    PeriodicSystemSpec,
    folded_energies,
    periodic_tightness_check,
    projection_energy_scan,
)
from walshframes.stepfn import (
    CELL_CAP,
    CSV_HEADER_KEYS,
    CSV_MAGIC,
    StepFunction,
    within_cap,
)


# ------------------------------------------------------------------ field --

def mul(x, y):
    """x * y in K: the Laurent convolution of the two term lists."""
    if x.cfg != y.cfg:
        raise ValueError("elements belong to different field configs")
    cfg, acc = x.cfg, {}
    for e1, c1 in x.terms:
        for e2, c2 in y.terms:
            acc[e1 + e2] = cfg.gf_add(acc.get(e1 + e2, 0), cfg.gf_mul(c1, c2))
    return FieldElement(cfg, acc)


def shift(x, j):
    """x * t^j: every exponent moved by j."""
    return FieldElement(x.cfg, {e + j: c for e, c in x.terms})


def truncate(x, k):
    """The terms of x below exponent k: its canonical representative mod B^k."""
    return FieldElement(x.cfg, {e: c for e, c in x.terms if e < k})


def tail(x, k):
    """The terms of x at exponents k and above."""
    return FieldElement(x.cfg, {e: c for e, c in x.terms if e >= k})


def chi(x):
    """The additive character exp(2 pi i a / p), a the coordinate on 1 (the
    residue mod p) of x's coefficient at exponent -1: trivial on D."""
    return x.cfg.root_table.item(x.coefficient(-1) % x.cfg.p)


def uindex_inverse(x):
    """The n with u(n) = x; x must have negative exponents only."""
    if any(e >= 0 for e, _ in x.terms):
        raise ValueError("not a lattice representative: nonnegative exponents")
    return cell_index(x.cfg.q, x.terms, 0)


# ------------------------------------------------------ small helpers --

def _aligned(f, g):
    """f and g over one field, refined to one resolution over one window."""
    if f.cfg != g.cfg:
        raise ValueError("mixed field configs")
    k = max(f.resolution, g.resolution)
    f, g = f.refine(k), g.refine(k)
    lo = min(f.lo, g.lo)
    return f.window(lo), g.window(lo)


def add(f, g):
    """The step function f + g."""
    a, b = _aligned(f, g)
    return StepFunction(a.cfg, a.resolution, a.values + b.values, a.lo)


def max_difference(f, g):
    """The largest cellwise |f - g| of two step functions over one field."""
    a, b = _aligned(f, g)
    return float(np.max(np.abs(a.values - b.values)))


def allclose(f, g, tol):
    """Whether two step functions over one field agree cellwise to tol."""
    return f.cfg == g.cfg and max_difference(f, g) <= tol


def save_masks(sys, dest):
    """Write sys and its masks as a mask file to the path or stream dest: the
    field and system header, then each mask's coefficients in index order."""
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            save_masks(sys, fh)
        return
    cfg = sys.field
    dest.write(f"{MASK_MAGIC}\np = {cfg.p}\nc = {cfg.c}\n")
    if cfg.modulus_text:
        dest.write(f"modulus = {cfg.modulus_text}\n")
    dest.write(f"N = {sys.N}\nr = {sys.r}\nnu = {sys.nu}\n"
               f"normalization = {sys.normalization}\n")
    for l, m in enumerate(sys.masks):
        dest.write(f"mask {l}\n")
        for idx, a in sorted(m.coeffs.items()):
            dest.write(f"{idx.n} {idx.delta} {a.real!r} {a.imag!r}\n")


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
    matrix = np.array([[chi(mul(xi, x)) for x in xs] for xi in xis], dtype=complex)
    return xis, xs, matrix


def dense_transform(f, forward=True):
    """The transform of f (inverse transform unless forward) as one product
    with the dense character matrix of f's window."""
    cfg, k, l = f.cfg, f.resolution, f.support_ball()
    xis, xs, matrix = character_matrix(cfg, k, l)
    f_cells = cells(f)
    v = np.array([f_cells.get(x, 0) for x in xs], dtype=complex)
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
    for idx, a in sorted(m.coeffs.items()):
        lam = m.sys.lambda_element(idx)
        phase = chi(mul(lam, shift)).conjugate()
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

def cells(f):
    """Read-only {canonical representative: amplitude} of f's nonzero cells,
    in table order."""
    q, k = f.cfg.q, f.resolution
    return MappingProxyType({
        FieldElement(f.cfg, dict(cell_digits(q, int(i), k, f.lo))): complex(f.values[i])
        for i in np.flatnonzero(f.values)})


def from_cells(cfg, resolution, cells):
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


def indicator(cfg, resolution, h):
    """The indicator of the single coset h + B^resolution."""
    return from_cells(cfg, resolution, {truncate(h, resolution): 1.0})


def _refined(f, resolution):
    """f's cells split onto the finer grid B^resolution."""
    cfg, k = f.cfg, f.resolution
    out = {}
    for rep, value in cells(f).items():
        base = dict(rep.terms)
        for digits in itertools.product(range(cfg.q), repeat=resolution - k):
            terms = dict(base)
            for e, d in zip(range(k, resolution), digits):
                if d:
                    terms[e] = d
            out[FieldElement(cfg, terms)] = value
    return out


def refine(f, resolution):
    return from_cells(f.cfg, resolution, _refined(f, resolution))


def translate(f, a):
    """(T_a f)(x) = f(x - a), one representative at a time."""
    k = f.resolution
    return from_cells(f.cfg, k, {truncate(rep + a, k): v
                                 for rep, v in cells(f).items()})


def modulate(f, b):
    """(E_b f)(x) = chi(b x) f(x), refined until chi(b .) is cellwise constant."""
    if b.is_zero:
        return f
    k = max(f.resolution, -b.valuation())
    return from_cells(f.cfg, k, {rep: v * chi(mul(b, rep))
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
            shift(rep.scale(inv_nu), 1): v * s for rep, v in cells(f).items()})
    return from_cells(cfg, f.resolution - 1, {
        shift(rep.scale(sys.nu), -1): v / s for rep, v in cells(f).items()})


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
        frac = tail(rep, 0)
        sums[frac] = sums.get(frac, 0) + v
    return from_cells(f.cfg, k, sums)


def brute_partition(phi_hat, sys, lam_range):
    """sum over the given translation indices of |phi_hat(xi + lambda)|^2
    on the cells of D."""
    K = max(phi_hat.resolution, 0)
    refined = _refined(phi_hat, K)
    sums = {}
    for idx in lam_range:
        lam = sys.lambda_element(idx)
        for rep, v in refined.items():
            d = rep - lam
            if d.terms and d.terms[0][0] < 0:
                continue
            sums[d] = sums.get(d, 0.0) + abs(v) ** 2
    return from_cells(sys.field, K, sums)


def mask_value(m, xi):
    """The mask m at the point xi, as its character polynomial."""
    acc = 0j
    for idx, a in sorted(m.coeffs.items()):
        acc += a * chi(mul(m.sys.lambda_element(idx), xi)).conjugate()
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


def repr_tables(t):
    """{name: table} of stepfn._ReprTables' byte tables for the source-row
    constants of t: quad and ends by int64 division over the 4-digit groups,
    exponent and shape one decimal point position at a time, and layout one
    row per (sign, layout code, digit count)."""
    def layout(negative, code, n):
        digits = list(range(n))
        if code >= 20:
            body = digits[:1] + ([t.POINT] + digits[1:]) * (n > 1) + [t.E] \
                + [t.EXPONENT + i for i in range(4) if i != 1 or code == 21]
        elif (point := code - 3) <= 0:
            body = [t.ZERO, t.POINT] + [t.ZERO] * -point + digits
        elif point < n:
            body = digits[:point] + [t.POINT] + digits[point:]
        else:
            body = digits + [t.ZERO] * (point - n) + [t.POINT, t.ZERO]
        row = [t.COMMA] + [t.MINUS] * negative + body
        return row + [t.NUL] * (t.WIDTH - len(row))

    quads = np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    places = ((quads > 0) * np.arange(1, 5)).max(axis=1)
    points = range(-323, 310)
    return {
        "quad": (quads + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        "ends": [np.where(places > 0, places + 4 * j, j == 0) for j in range(4)],
        "exponent": np.array([f"{p - 1:+04d}" for p in points], "S4").view(np.uint32),
        "shape": np.array([17 * (p + 3 if -3 <= p <= 16 else 20 + (abs(p - 1) >= 100)) - 1
                           for p in points]),
        "layout": np.array([layout(negative, code, n) for negative in (0, 1)
                            for code in range(22) for n in range(1, 18)], dtype=np.intp),
    }


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
        # energy_balance's residuals of steps 0..j_max-1, one per
        # periodic_two_scale_check(f, j, spec)
        out["max_residual"] = max([out["max_residual"], *energies[3]])
        tight = periodic_tightness_check(f, spec, energies)
        out["max_tightness"] = max(out["max_tightness"], tight["residual"])
        out["max_tail"] = max(out["max_tail"], tight["tail"])
        out["norm2"] = max(out["norm2"], f.norm2())
    return out
