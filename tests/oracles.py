"""Reference routes for the transform tests.

These are the dense, unfactorized forms of what the library computes by
digit contraction: the full character matrix of a window, built from
FieldElement products and chi alone, and the per-index character sum for a
single Fourier coefficient. They share no code path with
walshframes.harmonic's contraction or with stepfn's dense tables.
"""

from functools import lru_cache

import numpy as np

from walshframes.algebra import chi, uindex
from walshframes.harmonic import character_table
from walshframes.stepfn import StepFunction


def enumerate_reps(cfg, lo, hi):
    """Every canonical representative of B^lo / B^hi, as FieldElements."""
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
    v = np.array([f.cells.get(x, 0) for x in xs], dtype=complex)
    out = ((matrix.conj() if forward else matrix) @ v) * float(cfg.q) ** (-k)
    return StepFunction(cfg, -l, dict(zip(xis, out)))


def fourier_coefficient(f, n):
    """Coefficient of a PeriodicStepFunction against chi(u(n) .), one
    character sum; identically 0 once n >= q^k."""
    if n < 0:
        raise ValueError("coefficient index must be nonnegative")
    cfg, k = f.cfg, f.resolution
    if n >= cfg.q ** k:
        return 0j
    table = character_table(cfg, uindex(cfg, n), k)
    return complex(np.vdot(table, f.values)) * float(cfg.q) ** (-k)
