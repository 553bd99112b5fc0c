"""Exact Fourier analysis of step functions.

The transform of a step function supported in B^l at resolution k is again a
step function: supported in B^{-k}, constant on cosets of B^{-l}. Both
directions are finite character sums over the digit group of the window
B^l / B^k, a finite Vilenkin-Chrestenson transform, so they are computed
exactly (up to floating point roundoff in the p-th roots of unity) by one
digitwise tensor contraction that factors the character matrix into k - l
contractions of size q x q.

Mask values are transforms too: framekit evaluates every mask through
fast_transform.
"""

from __future__ import annotations

import numpy as np

from .algebra import FieldConfig
from .errors import InputDataError
from .stepfn import StepFunction

__all__ = [
    "fast_inverse_transform",
    "fast_transform",
    "inverse_transform",
]


def _contract(cfg: FieldConfig, values: np.ndarray, m: int,
              forward: bool) -> np.ndarray:
    """Character sum of a table of q^m cells, without the measure factor.

    Input digit i (most significant first) pairs with output digit m-1-i
    through chi, so a table over B^l / B^k maps to a table over
    B^-k / B^-l in the same layout; forward conjugates the characters.
    """
    # chi reads coordinate 0 of a product, its residue mod p
    W = cfg.root_table[(-cfg.mul_table if forward else cfg.mul_table) % cfg.p]
    T = values.reshape((cfg.q,) * m)
    for _ in range(m):
        # contract the leading input digit; its dual output digit lands
        # at the end, so the final order only needs a reversal
        T = np.tensordot(T, W, axes=([0], [1]))
    return T.transpose(tuple(reversed(range(m)))).reshape(-1)


def _apply(f: StepFunction, forward: bool) -> StepFunction:
    """The transform; InputDataError if it passes the largest double. The
    character sums are formed before the measure factor scales them, which
    fixes the bits of every transform they keep finite; only when one
    overflows are they formed again, from the scaled table."""
    cfg, k, l = f.cfg, f.resolution, f.support_ball()
    values, measure = f.window(l).values, float(cfg.q) ** (-k)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _contract(cfg, values, k - l, forward) * measure
        if not np.isfinite(out).all():
            out = _contract(cfg, values * measure, k - l, forward)
            if not np.isfinite(out).all():
                raise InputDataError(f"the {'forward' if forward else 'inverse'} transform "
                                     f"overflows: a character sum exceeds the largest double")
    return StepFunction(cfg, -l, out, -k)


def fast_transform(f: StepFunction) -> StepFunction:
    """f^(xi) = integral of f(x) conj(chi(xi x)) dx, exact on cells."""
    return _apply(f, forward=True)


def fast_inverse_transform(f: StepFunction) -> StepFunction:
    """g(x) = integral of f(xi) chi(xi x) dxi; inverse of fast_transform."""
    return _apply(f, forward=False)


# perfbench/tracer.py looks this name up in harmonic; same function object
inverse_transform = fast_inverse_transform

