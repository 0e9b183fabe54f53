"""Symmetrizer variance bounds via classical, free and Boolean cumulant calculus."""

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

__version__ = "0.12.10"
