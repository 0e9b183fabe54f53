"""Symmetrizer variance bounds via classical, free and Boolean cumulant calculus."""

import os as _os

# SYMVAR_THREADS caps BLAS threads. The BLAS libraries read their variables
# once, when numpy loads, so they are set here, before any submodule imports
# numpy; a variable the caller already set wins.
if "SYMVAR_THREADS" in _os.environ:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["SYMVAR_THREADS"])

from .cumulants import (
    CumulantSequence,
    IndependenceKind,
    MomentSequence,
    convolve_moments,
    cumulants_to_moments,
    moments_to_cumulants,
    odd_moment_residual,
)
from .certificate import (
    CertificateReport,
    certificate_lower_bound,
    psi,
    sawtooth,
    verify_identity,
    verify_inequality_exact,
    verify_inequality_grid,
)
from .errors import CriticalCaseError, OrderError, SizeError, SymvarError
from .measures import DiscreteMeasure, bernoulli, dilate, moments_of, negate, shift, variance
from .optimizer import (
    GridSpec,
    OptResult,
    SearchConfig,
    classical_min_variance,
    nc_min_variance,
)

__version__ = "0.11.0"
