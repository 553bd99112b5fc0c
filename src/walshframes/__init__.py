"""Exact construction and verification of wavelet frames over GF(q)((t)).

Submodules: algebra (field arithmetic, the digit codec of cells and u(n)),
harmonic (exact Fourier transforms of step functions), stepfn
(step function cell tables and unitary operators), framekit (masks,
refinement, UEP Gram and frame checks), periodic (folding onto the unit
ball and the periodic tightness checks), runner/cli (reports, command line).
"""

import os
import sys

# numpy's BLAS starts its thread pool when numpy is first imported; the
# products here are q x q, which a pool only slows on a busy host. An
# explicit setting wins, and a numpy imported before walshframes is left as
# it is.
if "numpy" not in sys.modules:
    for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")

from .algebra import (  # noqa: E402
    FieldConfig,
    FieldElement,
    LambdaIndex,
    SystemConfig,
    uindex,
)

__version__ = "0.1.0"
