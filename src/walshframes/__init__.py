"""Exact construction and verification of wavelet frames over GF(q)((t)).

Submodules: algebra (field arithmetic, the digit codec of cells and u(n)),
harmonic (exact Fourier transforms of step functions), stepfn
(step function cell tables and unitary operators), framekit (masks,
refinement, UEP Gram and frame checks), periodic (folding onto the unit
ball and the periodic tightness checks), runner/cli (reports, command line).
"""

from .algebra import (
    FieldConfig,
    FieldElement,
    LambdaIndex,
    SystemConfig,
    chi,
    embed_integer,
    uindex,
)

__version__ = "0.1.0"
