"""Moment <-> cumulant transforms and convolution by cumulant additivity.

Classical, free and Boolean independence differ only in the partition
lattice that links moments to cumulants: all, non-crossing or interval
partitions,

    m_n = sum over partitions pi in lattice(kind, n) of prod_{B in pi} k_{|B|}.

Grouping the partitions by the block that holds 1 (of size j) turns every
lattice sum into one recursion. With M(z) = 1 + sum_n m_n z^n,

    m_n = k_n + rest_n,   rest_n = sum_{j<n} c_{n,j} k_j [z^(n-j)] P_j,

  classical:  c_{n,j} = C(n-1, j-1),  P_j = M
  free:       c_{n,j} = 1,            P_j = M^j
  boolean:    c_{n,j} = 1,            P_j = M

Step n reads only k_1..k_{n-1} and m_0..m_{n-1}, so one loop runs both
directions: it sets m_n = k_n + rest_n or k_n = m_n - rest_n. The free powers
live in the triangle powers[j][r] = [z^r] M^j, filled only where j + r <= N
(the entries an order-N prefix reads); its column n is filled once m_n is
known. The recursion only adds and multiplies, so it runs in the arithmetic
of its input: every single sequence, of any kind, goes through it, exactly
on rationals (fractions.Fraction) and on floats alike.

Rationals run it on Python ints, because every Fraction operation pays a
gcd. Cumulants are homogeneous, k_n(cX) = c^n k_n(X), in every lattice: each
term of m_n is a product of cumulants whose block sizes sum to n, and the
coefficients c_{n,j} are integers. So with one integer c such that
den(v_n) | c^n for every n, the scaled input v_n c^n is integral, the
recursion stays on ints, and output x_n gives x_n / c^n exactly. c is built
greedily in one pass, c *= den(v_n) / gcd(den(v_n), c^n). It divides the lcm
of the denominators and is often far smaller: the moments of a law on
(1/4)Z with weights over w have denominators dividing 4^n w, so c divides
4w, where the lcm reaches 4^N w.

The free/Boolean search needs many sequences at once, and only moments to
cumulants: cumulants add, and every partition of an odd set has a block of
odd size, so the odd moments of e+y up to order N vanish exactly when its odd
cumulants k_odd(e) + k_odd(y) do, and the search penalizes those. For it the
numpy kernels below map one (R, N) batch of moment rows to cumulant rows per
call. The free kernel is Lagrange inversion (Nica-Speicher, Lectures on the
Combinatorics of Free Probability, Lect. 16),

  k_n = -[t^n] M(t)^(1-n) / (n-1)  (n >= 2),

a diagonal of successive powers of 1/M, so N - 1 stacked mat-vecs with a
lower-triangular Toeplitz matrix (one matmul per power, all rows at once)
give every entry. The Boolean kernel is one series reciprocal,
K(z) = sum_n k_n z^n = 1 - 1/M(z), by forward substitution over the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from fractions import Fraction
from math import comb, gcd, isfinite

import numpy as np

from .errors import OrderError, SizeError

MAX_ORDER = 13


class IndependenceKind(Enum):
    """Which partition lattice governs the moment-cumulant relation."""

    CLASSICAL = "classical"
    FREE = "free"
    BOOLEAN = "boolean"

    @classmethod
    def parse(cls, name):
        try:
            return cls(str(name).lower())
        except ValueError:
            raise SizeError(f"unknown independence kind: {name!r}") from None


@dataclass(frozen=True)
class MomentSequence:
    """The finite moment prefix (m_1, ..., m_N); m_0 is implicitly 1."""

    values: tuple

    def __post_init__(self):
        if not 1 <= len(self.values) <= MAX_ORDER:
            raise OrderError(f"order must be in 1..{MAX_ORDER}, got {len(self.values)}")

    @property
    def order(self):
        return len(self.values)


@dataclass(frozen=True)
class CumulantSequence:
    """(k_1, ..., k_N) for one independence kind."""

    kind: IndependenceKind
    values: tuple

    def __post_init__(self):
        if not 1 <= len(self.values) <= MAX_ORDER:
            raise OrderError(f"order must be in 1..{MAX_ORDER}, got {len(self.values)}")

    @property
    def order(self):
        return len(self.values)


def _transform(values, kind, to_moments):
    """Cumulants k_1..k_N to moments (to_moments) or moments to cumulants.

    Runs the recursion of the module docstring on one sequence and returns a
    list. Rationals (ints and at least one Fraction) run it on Python ints,
    scaled by c^n; any other input runs it in the arithmetic of its values.
    """
    if not (
        all(isinstance(v, (int, Fraction)) for v in values)
        and any(isinstance(v, Fraction) for v in values)
    ):
        return _recursion(values, kind, to_moments)
    c = 1
    for n, v in enumerate(values, 1):
        den = v.denominator
        c *= den // gcd(den, c**n)  # now den | c^n, and c only grows
    scales = [c**n for n in range(1, len(values) + 1)]
    ints = [v.numerator * (s // v.denominator) for v, s in zip(values, scales)]
    out = _recursion(ints, kind, to_moments)
    # entries before the first Fraction depend on ints only and stay ints
    first = next(i for i, v in enumerate(values) if isinstance(v, Fraction))
    return [x // s if i < first else Fraction(x, s) for i, (x, s) in enumerate(zip(out, scales))]


def _recursion(values, kind, to_moments):
    """The recursion of the module docstring on one sequence, in its arithmetic."""
    n_max = len(values)
    one = values[0] * 0 + 1  # unit in the input's arithmetic
    m, k = [one], [None]
    # read once: an Enum lookup per step made the float recursion a third slower
    classical, free = kind is IndependenceKind.CLASSICAL, kind is IndependenceKind.FREE
    if free:
        powers = [[one] + [one * 0] * (n_max - 1) for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        # explicit loops in index order: sum() over a generator costs twice as
        # much on floats
        rest = 0
        if classical:
            for j in range(1, n):
                rest += comb(n - 1, j - 1) * k[j] * m[n - j]
        elif free:
            for j in range(1, n):
                rest += k[j] * powers[j][n - j]
        else:
            for j in range(1, n):
                rest += k[j] * m[n - j]
        if to_moments:
            k.append(values[n - 1])
            m.append(k[n] + rest)
        else:
            m.append(values[n - 1])
            k.append(m[n] - rest)
        if free:
            for j in range(1, n_max - n + 1):  # [z^n] M^j is read only while j + n <= n_max
                prev, acc = powers[j - 1], 0
                for i in range(n + 1):
                    acc += m[i] * prev[n - i]
                powers[j][n] = acc
    return m[1:] if to_moments else k[1:]


def cumulants_to_moments(kappa: CumulantSequence) -> MomentSequence:
    """Evaluate the lattice sums for kappa's kind; exact on rationals."""
    return MomentSequence(tuple(_transform(kappa.values, IndependenceKind(kappa.kind), True)))


def moments_to_cumulants(m: MomentSequence, kind) -> CumulantSequence:
    """Invert the lattice sums; exact on rationals."""
    kind = IndependenceKind(kind)
    return CumulantSequence(kind, tuple(_transform(m.values, kind, False)))


@lru_cache(maxsize=MAX_ORDER + 1)
def _toeplitz_index(n):
    """Gather index of an n x n lower-triangular Toeplitz matrix; n points at a zero."""
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    idx = np.where(lag >= 0, lag, n)
    idx.flags.writeable = False
    return idx


def _toeplitz(s):
    """Lower-triangular Toeplitz matrix of each row of s: multiplying by it is
    multiplication by that series, truncated at the row length."""
    pad = np.concatenate((s, np.zeros(s.shape[:-1] + (1,))), axis=-1)
    return pad[..., _toeplitz_index(s.shape[-1])]


def _unit_series(tail):
    """Rows (1, tail_1, ..., tail_N) of power series with constant term 1."""
    return np.concatenate((np.ones(tail.shape[:-1] + (1,)), tail), axis=-1)


def _reciprocal(s):
    """1/s(t) truncated at the row length, per row; s_0 = 1 (forward substitution)."""
    r = np.zeros_like(s)
    r[..., 0] = 1.0
    for n in range(1, s.shape[-1]):
        r[..., n] = -(s[..., None, n:0:-1] @ r[..., :n, None])[..., 0, 0]
    return r


def _free_m2k_float(m):
    """Free cumulants of each row of m: k_1 = m_1, k_n = -[t^n] M(t)^(1-n) / (n-1).

    Each stacked Toeplitz mat-vec raises the power of 1/M by one while the
    coefficient read moves up by one, so N - 1 mat-vecs give the whole row.
    """
    lt = _toeplitz(_reciprocal(_unit_series(m)))
    q = np.zeros(lt.shape[:-1] + (1,))
    q[..., 0, 0] = 1.0
    k = np.empty_like(m)
    k[..., 0] = m[..., 0]
    for n in range(2, m.shape[-1] + 1):
        q = lt @ q
        k[..., n - 1] = q[..., n, 0] / (1 - n)
    return k


def _boolean_m2k_float(m):
    """Boolean cumulants of each row of m: K = 1 - 1/M."""
    return -_reciprocal(_unit_series(m))[..., 1:]


def convolve_moments(mx: MomentSequence, my: MomentSequence, kind) -> MomentSequence:
    """Moments of the sum of two variables independent in the given sense.

    Transforms both inputs to cumulants, adds componentwise, transforms back.
    A float result beyond the float range is a SizeError.
    """
    kind = IndependenceKind(kind)
    if mx.order != my.order:
        raise SizeError(f"mismatched orders: {mx.order} vs {my.order}")
    try:
        kx = moments_to_cumulants(mx, kind)
        ky = moments_to_cumulants(my, kind)
        total = CumulantSequence(kind, tuple(a + b for a, b in zip(kx.values, ky.values)))
        ms = cumulants_to_moments(total)
        if not all(isfinite(v) for v in ms.values if isinstance(v, float)):
            raise OverflowError
    except OverflowError:  # also a Fraction too large for the float it meets
        raise SizeError("the moments of the sum exceed the float range") from None
    return ms


def odd_moment_residual(m: MomentSequence):
    """max |m_n| over odd n <= order; zero iff the truncated law is symmetric."""
    return max(abs(m.values[n - 1]) for n in range(1, m.order + 1, 2))
