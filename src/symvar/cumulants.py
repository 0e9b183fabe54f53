"""Moment <-> cumulant transforms and convolution by cumulant additivity.

The defining relation for every kind is

    m_n = sum over partitions pi in lattice(kind, n) of prod_{B in pi} k_{|B|}

which collapses to cheap one-variable recursions:

  classical:  m_n = sum_{j=1..n} C(n-1, j-1) k_j m_{n-j}
  free:       m_n = sum_{j=1..n} k_j * T[j][n-j],  T[j][r] = [z^r] M(z)^j
  boolean:    m_n = sum_{j=1..n} k_j m_{n-j}

with M(z) = 1 + sum_n m_n z^n. The public transforms run these recursions
and are exact when fed exact rationals (fractions.Fraction). The free one
fills only the triangle j + r <= N of T, the entries a moment of order N
can read.

The optimizer's search has float-only private kernels. They treat each
relation as arithmetic on truncated power series, stored as numpy vectors;
multiplying by a series is a mat-vec with its lower-triangular Toeplitz
matrix. The free pair is Lagrange inversion (Nica-Speicher, Lectures on the
Combinatorics of Free Probability, Lect. 16): with H(w) = 1 + sum_n k_n w^n,

  m_n = [w^n] H(w)^(n+1) / (n+1),   k_n = -[t^n] M(t)^(1-n) / (n-1)  (n >= 2),

each a diagonal of successive powers, so N mat-vecs give all N entries; 1/M
is one unit-triangular solve. The Boolean pair M = 1/(1 - B) (Speicher-
Woroudi 1997) is a reciprocal recursion, kept in plain Python because numpy
calls cost more than the arithmetic at these orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
from scipy.linalg import solve_triangular

from .errors import OrderError, SizeError
from .partitions import IndependenceKind

MAX_ORDER = 13


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


def _power_tables(mm, n_max):
    """T[j][r] = sum over compositions i_1+..+i_j=r of m_{i_1}..m_{i_j}.

    mm = [m_0, m_1, ..., m_N]; computed by truncated convolution powers.
    """
    zero = mm[0] * 0
    T = [[zero] * (n_max + 1) for _ in range(n_max + 1)]
    T[0][0] = mm[0] * 0 + 1
    for j in range(1, n_max + 1):
        prev = T[j - 1]
        cur = T[j]
        for r in range(n_max + 1 - j):  # entries with r > n_max - j are never read
            cur[r] = sum(mm[i] * prev[r - i] for i in range(r + 1))
    return T


def cumulants_to_moments(kappa: CumulantSequence) -> MomentSequence:
    """Evaluate the lattice sums for kappa's kind; exact on rationals."""
    k = (None,) + kappa.values  # 1-indexed
    n_max = kappa.order
    kind = kappa.kind
    one = kappa.values[0] * 0 + 1  # unit in the input's arithmetic
    m = [one]
    if kind is IndependenceKind.FREE:
        # T[j][r] filled column by column as each new moment becomes known
        zero = one * 0
        T = [[zero] * n_max for _ in range(n_max + 1)]
        T[0][0] = one
        for j in range(1, n_max + 1):
            T[j][0] = one
        for n in range(1, n_max + 1):
            mn = sum(k[j] * T[j][n - j] for j in range(1, n + 1))
            m.append(mn)
            for j in range(1, n_max - n + 1):  # T[j][n] is read only when j + n <= n_max
                T[j][n] = sum(m[i] * T[j - 1][n - i] for i in range(n + 1))
        return MomentSequence(tuple(m[1:]))
    for n in range(1, n_max + 1):
        if kind is IndependenceKind.CLASSICAL:
            mn = sum(comb(n - 1, j - 1) * k[j] * m[n - j] for j in range(1, n + 1))
        else:
            mn = sum(k[j] * m[n - j] for j in range(1, n + 1))
        m.append(mn)
    return MomentSequence(tuple(m[1:]))


def moments_to_cumulants(m: MomentSequence, kind) -> CumulantSequence:
    """Invert the lattice sums recursively; exact for rational input."""
    kind = IndependenceKind(kind)
    mm = [m.values[0] * 0 + 1] + list(m.values)  # [m_0, ..., m_N]
    n_max = m.order
    k = [None]
    T = _power_tables(mm, n_max) if kind is IndependenceKind.FREE else None
    for n in range(1, n_max + 1):
        if kind is IndependenceKind.CLASSICAL:
            rest = sum(comb(n - 1, j - 1) * k[j] * mm[n - j] for j in range(1, n))
        elif kind is IndependenceKind.FREE:
            rest = sum(k[j] * T[j][n - j] for j in range(1, n))
        else:
            rest = sum(k[j] * mm[n - j] for j in range(1, n))
        k.append(mm[n] - rest)
    return CumulantSequence(kind, tuple(k[1:]))


@lru_cache(maxsize=MAX_ORDER + 1)
def _toeplitz_index(n):
    """Gather index of an n x n lower-triangular Toeplitz matrix; n points at a zero."""
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    idx = np.where(lag >= 0, lag, n)
    idx.flags.writeable = False
    return idx


def _toeplitz(s):
    """Lower-triangular Toeplitz matrix of the series s: multiplying by it is
    multiplication by s, truncated at the length of s."""
    return np.append(s, 0.0)[_toeplitz_index(len(s))]


def _power_diagonal(s, shift):
    """c_n = [t^n] s(t)^(n + shift) for n = 1..N, where s = (1, s_1, ..., s_N).

    Each Toeplitz mat-vec raises the power by one while the coefficient read
    moves up by one, so N mat-vecs give the whole diagonal.
    """
    lt = _toeplitz(s)
    q = np.zeros(len(s))
    q[0] = 1.0
    for _ in range(1 + shift):
        q = lt.dot(q)
    c = np.empty(len(s) - 1)
    for n in range(1, len(s)):
        c[n - 1] = q[n]
        q = lt.dot(q)
    return c


def _free_k2m_float(kap):
    """Free moments m_1..m_N from cumulants: m_n = [w^n] (1 + K(w))^(n+1) / (n+1)."""
    h = np.concatenate(([1.0], kap))
    return _power_diagonal(h, 1) / np.arange(2, len(h) + 1)


def _free_m2k_float(m):
    """Free cumulants k_1..k_N from moments: k_n = -[t^n] M(t)^(1-n) / (n-1) for n >= 2.

    The series 1/M comes from one unit-triangular Toeplitz solve.
    """
    mm = np.concatenate(([1.0], m))
    e0 = np.zeros(len(mm))
    e0[0] = 1.0
    r = solve_triangular(_toeplitz(mm), e0, lower=True, unit_diagonal=True, check_finite=False)
    k = _power_diagonal(r, -1)
    k[0] = mm[1]
    k[1:] /= -np.arange(1, len(m))
    return k


def _boolean_m2k_float(m):
    mm = [1.0] + list(m)
    k = [0.0]
    for n in range(1, len(m) + 1):
        rest = 0.0
        for j in range(1, n):
            rest += k[j] * mm[n - j]
        k.append(mm[n] - rest)
    return k[1:]


def _boolean_k2m_float(kap):
    k = [0.0] + list(kap)
    m = [1.0]
    for n in range(1, len(kap) + 1):
        mn = 0.0
        for j in range(1, n + 1):
            mn += k[j] * m[n - j]
        m.append(mn)
    return m[1:]


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
