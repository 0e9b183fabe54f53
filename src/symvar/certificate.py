"""The sawtooth dual certificate for the variance bound.

The triangle wave h satisfies h(t) = t on [-1/2, 1/2] and h(t+1) = -h(t);
the dual function is psi(t) = h(t)/(q-p) - t with q = 1-p. The key facts
verified here, exactly in rational arithmetic:

  identity:    q*psi(t) + p*psi(1+t) = h(t) - t - p          (all t)
  inequality:  q*psi(t) + p*psi(1+t) <= t^2 - p              (all t)

The inequality reduces through the identity to the p-free statement
h(t) <= t(t+1), which is settled by a finite check over the linear pieces
of h, with tangency exactly at t = 0 and t = -1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import CriticalCaseError, SizeError
from .measures import HALF, DiscreteMeasure, check_p, dumps


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a dual-certificate verification.

    max_slack_violation > 0 would mean the dual inequality fails; in exact
    mode the value is a proven global bound, in grid mode a sample maximum.
    """

    p: object
    mode: str  # "exact" | "grid"
    max_slack_violation: object
    witnesses: tuple
    identity_ok: bool

    def to_json(self):
        return dumps(asdict(self))


def sawtooth(t):
    """The continuous triangle wave: h(t)=t on [-1/2,1/2], h(t+1)=-h(t).

    With u = (t + 1/2) mod 2 - 1/2 in [-1/2, 3/2), h(t) = u if u <= 1/2,
    else 1 - u. Exact for Fraction/int input, float otherwise. For t = n/d the
    exact branch takes the mod as one integer floor,
    u = t - 2 floor((t + 1/2)/2) = t - 2 ((2n + d) // (4d)),
    so it costs one Fraction operation instead of three.
    """
    if isinstance(t, float):
        if not math.isfinite(t):
            raise SizeError(f"non-finite input {t!r}")
        u = (t + 0.5) % 2.0 - 0.5
        return u if u <= 0.5 else 1 - u
    if not isinstance(t, Fraction):
        t = Fraction(t)
    n, d = t.numerator, t.denominator
    u = t - 2 * ((2 * n + d) // (4 * d))
    return u if u <= HALF else 1 - u


def psi(t, p):
    """The dual function h(t)/(q-p) - t; undefined at p = 1/2."""
    return _psi(t, _psi_terms(p)[2])


def _psi_terms(p):
    """(p, q, q - p) for a checked p: psi's callers compute q - p once, not per point."""
    p = check_p(p)
    q = 1 - p
    return p, q, q - p


def _psi(t, q_minus_p):
    """psi for a p already checked, given q - p."""
    return sawtooth(t) / q_minus_p - t


def _dual_sum(t, p, q, d):
    """(h(t), q*psi(t) + p*psi(1+t)) for d = q - p, by the operations of
    q*_psi(t, d) + p*_psi(1 + t, d), so floats round alike; h(t) is computed once.
    A float t meets float(d) = 0.0 at an exact p within 1e-324 of 1/2: the critical case."""
    h, s = sawtooth(t), 1 + t
    try:
        return h, q * (h / d - t) + p * (sawtooth(s) / d - s)
    except ZeroDivisionError:
        raise CriticalCaseError() from None


def _identity_holds(t, h, lhs, p, d):
    """Whether lhs = q*psi(t) + p*psi(1+t) equals h(t) - t - p.

    Exact comparison at rational points. At floats the tolerance is
    1e-12 * max(1, |t|, 1/|q - p|): both sides hold terms of size |t| and
    |h(t)/(q - p)|, and their rounding grows with them. Only floats take float(q - p);
    where 1/|q - p| overflows (an exact q - p below 5.6e-309), h/d is lost: critical.
    """
    if isinstance(lhs, float):  # so is h - t - p: a float t or p makes both floats
        scale = max(1.0, abs(t), 1.0 / abs(float(d)))
        if scale == math.inf:
            raise CriticalCaseError()
        return abs(lhs - (h - t - p)) <= 1e-12 * scale
    return lhs == h - t - p


def verify_identity(p, grid) -> bool:
    """Check q*psi(t) + p*psi(1+t) == h(t) - t - p on the grid (see _identity_holds)."""
    p, q, d = _psi_terms(p)
    return all(_identity_holds(t, *_dual_sum(t, p, q, d), p, d) for t in grid)


def verify_inequality_exact(p) -> CertificateReport:
    """Prove q*psi(t)+p*psi(1+t) <= t^2 - p for ALL real t, exactly.

    Via the identity the slack is h(t) - t(t+1), independent of p. For
    |t + 1/2| >= 3/2 the parabola satisfies t(t+1) = (t+1/2)^2 - 1/4 >= 2,
    which dominates h's range bound 1/2. On [-2, 1], h is linear on each
    [k-1/2, k+1/2] with h(t) = (-1)^k (t-k), so the gap t(t+1) - h(t) is a
    convex quadratic per piece: its minimum over the piece is checked at the
    endpoints and the interior critical point, all in rational arithmetic.
    """
    p, q, d = _psi_terms(p)
    candidates = []
    for k in range(-2, 2):
        lo = max(Fraction(-2), k - HALF)
        hi = min(Fraction(1), k + HALF)
        sign = 1 if k % 2 == 0 else -1
        # gap(t) = t^2 + t - sign*(t - k); minimum at t* = (sign - 1)/2
        tstar = Fraction(sign - 1, 2)
        pts = [lo, hi] + ([tstar] if lo < tstar < hi else [])
        for t in pts:
            gap = t * t + t - sign * (t - k)
            candidates.append((t, -gap))
    # outside [-2, 1] the slack is at most 1/2 - 2 = -3/2
    max_violation = max(max(v for _, v in candidates), -Fraction(3, 2))
    witnesses = sorted({t for t, v in candidates if v == max_violation})
    wit = tuple((t, _dual_sum(t, p, q, d)[1], t * t - p) for t in witnesses)
    identity_ok = verify_identity(p, [Fraction(i, 7) - 3 for i in range(43)])
    return CertificateReport(p=p, mode="exact", max_slack_violation=max_violation,
                             witnesses=wit, identity_ok=identity_ok)


def verify_inequality_grid(p, grid) -> CertificateReport:
    """Sampled version of the dual inequality: max slack and the identity, in one walk."""
    p, q, d = _psi_terms(p)
    rows, identity_ok = [], True
    for t in grid:
        h, lhs = _dual_sum(t, p, q, d)
        identity_ok = identity_ok and _identity_holds(t, h, lhs, p, d)
        rows.append((t, lhs, t * t - p))
    if not rows:
        raise SizeError("the grid has no points")
    worst = max(rows, key=lambda r: r[1] - r[2])
    return CertificateReport(p=p, mode="grid", max_slack_violation=worst[1] - worst[2],
                             witnesses=(worst,), identity_ok=identity_ok)


def certificate_lower_bound(mu: DiscreteMeasure, p):
    """Atomwise duality slack D(y) = phi(y^2) - p - [q phi(psi(y)) + p phi(psi(1+y))].

    Nonnegative for every measure by the pointwise inequality; equals zero
    exactly when all atoms sit at the tangency points, so phi(y^2) >= p
    whenever q phi(psi(y)) + p phi(psi(1+y)) = 0.
    """
    p, q, d = _psi_terms(float(p) if mu.mode == "float" else Fraction(p))
    total = 0
    for t, w in mu.atoms:
        total += w * (t * t - p - _dual_sum(t, p, q, d)[1])
    return total
