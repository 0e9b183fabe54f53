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
known.
On exact rationals (fractions.Fraction) every result is exact.

Float input to the free and Boolean kinds goes instead to numpy kernels,
chosen by value type. They take one sequence per row of an (R, N) array (a
single sequence is the one-row case), so the search evaluates every trial
point of a Nelder-Mead step in one call. The free kernels are Lagrange
inversion (Nica-Speicher, Lectures on the Combinatorics of Free Probability,
Lect. 16): with H(w) = 1 + sum_n k_n w^n,

  m_n = [w^n] H(w)^(n+1) / (n+1),   k_n = -[t^n] M(t)^(1-n) / (n-1)  (n >= 2),

each a diagonal of successive powers, so N stacked mat-vecs (one matmul per
power, all rows at once) with lower-triangular Toeplitz matrices give all N
entries. The Boolean kernels are one series reciprocal each, from
M(z) = 1/(1 - K(z)) with K(z) = sum_n k_n z^n:

  M = 1/(1 - K),   K = 1 - 1/M.

1/M is forward substitution, vectorized over the rows. On Fractions the
recursion is the faster one (about 5x per round trip for the free kind), so
the exact path keeps it; classical float input runs it on Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from numbers import Rational

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

    def moment(self, n):
        """m_n with the convention m_0 = 1."""
        if n == 0:
            return 1 if isinstance(self.values[0], Fraction) else 1.0
        return self.values[n - 1]


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

    The type of the first value picks the path. Rational input runs the
    recursion of the module docstring, exactly, and returns a list. Float
    input of the free or Boolean kind goes to the numpy kernels, which map
    each row of an (R, N) array (or a single sequence) to a row of the
    result; classical float input runs the recursion on Python floats.
    """
    if not isinstance(values[0], Rational):
        v = np.asarray(values, dtype=float)
        if kind is IndependenceKind.FREE:
            return _free_k2m_float(v) if to_moments else _free_m2k_float(v)
        if kind is IndependenceKind.BOOLEAN:
            return _boolean_float(v, to_moments)
        values = v.tolist()
    n_max = len(values)
    one = values[0] * 0 + 1  # unit in the input's arithmetic
    m, k = [one], [None]
    # read once: an Enum lookup per step made the float recursion a third slower
    classical, free = kind is IndependenceKind.CLASSICAL, kind is IndependenceKind.FREE
    if free:
        powers = [[one] + [one * 0] * (n_max - 1) for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        # explicit loops in index order: sum() over a generator costs twice as
        # much on floats, and the search's float results stay bit for bit
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
                powers[j][n] = sum(m[i] * powers[j - 1][n - i] for i in range(n + 1))
    return m[1:] if to_moments else k[1:]


def _plain(values):
    """A transform's output as a tuple of Python numbers."""
    return tuple(values.tolist() if isinstance(values, np.ndarray) else values)


def cumulants_to_moments(kappa: CumulantSequence) -> MomentSequence:
    """Evaluate the lattice sums for kappa's kind; exact on rationals."""
    return MomentSequence(_plain(_transform(kappa.values, IndependenceKind(kappa.kind), True)))


def moments_to_cumulants(m: MomentSequence, kind) -> CumulantSequence:
    """Invert the lattice sums; exact on rationals."""
    kind = IndependenceKind(kind)
    return CumulantSequence(kind, _plain(_transform(m.values, kind, False)))


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


def _power_diagonal(s, shift):
    """c_n = [t^n] s(t)^(n + shift) for n = 1..N, per row of s = (1, s_1, ..., s_N).

    Each stacked Toeplitz mat-vec raises the power by one while the
    coefficient read moves up by one, so N mat-vecs give the whole diagonal.
    """
    lt = _toeplitz(s)
    q = np.zeros(s.shape + (1,))
    q[..., 0, 0] = 1.0
    for _ in range(1 + shift):
        q = lt @ q
    c = np.empty(s.shape[:-1] + (s.shape[-1] - 1,))
    c[..., 0] = q[..., 1, 0]
    for n in range(2, s.shape[-1]):
        q = lt @ q
        c[..., n - 1] = q[..., n, 0]
    return c


def _free_k2m_float(kap):
    """Free moments from cumulants, per row: m_n = [w^n] (1 + K(w))^(n+1) / (n+1)."""
    return _power_diagonal(_unit_series(kap), 1) / np.arange(2, kap.shape[-1] + 2)


def _free_m2k_float(m):
    """Free cumulants from moments, per row: k_n = -[t^n] M(t)^(1-n) / (n-1) for n >= 2."""
    k = _power_diagonal(_reciprocal(_unit_series(m)), -1)
    k[..., 0] = m[..., 0]
    k[..., 1:] /= -np.arange(1, m.shape[-1])
    return k


def _boolean_float(v, to_moments):
    """Boolean transform per row, one series reciprocal: M = 1/(1 - K), K = 1 - 1/M."""
    if to_moments:
        return _reciprocal(_unit_series(-v))[..., 1:]
    return -_reciprocal(_unit_series(v))[..., 1:]


def convolve_moments(mx: MomentSequence, my: MomentSequence, kind) -> MomentSequence:
    """Moments of the sum of two variables independent in the given sense.

    Transforms both inputs to cumulants, adds componentwise, transforms back.
    """
    kind = IndependenceKind(kind)
    if mx.order != my.order:
        raise SizeError(f"mismatched orders: {mx.order} vs {my.order}")
    kx = moments_to_cumulants(mx, kind)
    ky = moments_to_cumulants(my, kind)
    total = CumulantSequence(kind, tuple(a + b for a, b in zip(kx.values, ky.values)))
    return cumulants_to_moments(total)


def odd_moment_residual(m: MomentSequence):
    """max |m_n| over odd n <= order; zero iff the truncated law is symmetric."""
    return max(abs(m.values[n - 1]) for n in range(1, m.order + 1, 2))
