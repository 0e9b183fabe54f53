"""Shared exception types."""


class SymvarError(ValueError):
    """Base class for domain errors raised by this package."""


class CriticalCaseError(SymvarError):
    """Raised whenever p = 1/2 reaches a computation that divides by 1 - 2p.

    Every entry point of the proof rejects p = 1/2 explicitly rather than producing
    garbage. Only the Boolean minimum is open there: classically and freely
    y = -1/2 makes e + y symmetric, and m_1(y) = -p forces m_2(y) >= 1/4, so
    those minima are 1/4 < p.
    """

    def __init__(self, message="p=1/2 is the critical case: the construction divides by 1 - 2p"):
        super().__init__(message)


class OrderError(SymvarError):
    """Moment/cumulant order outside the supported range."""


class SizeError(SymvarError):
    """Ground-set or problem size outside the supported range."""
