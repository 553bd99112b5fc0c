"""Reference routes for the tests.

The transform references are the dense, unfactorized forms of what the
library computes by digit contraction: the full character matrix of a
window, built from FieldElement products and chi alone, and the per-index
character sum for a single Fourier coefficient.

The step-function references are the cell-dictionary forms of the
operators that the library computes on dense digit tables: each reads
{canonical representative: amplitude} through .cells, works on
FieldElements cell by cell, and returns through from_cells. Pointwise mask
values and the partition sum over an explicit list of translations are
computed the same way. None of these share a code path with
walshframes.harmonic's contraction or with stepfn's table operators.
"""

import itertools
from functools import lru_cache

import numpy as np

from walshframes.algebra import FieldElement, chi, uindex
from walshframes.harmonic import character_table
from walshframes.stepfn import from_cells


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
