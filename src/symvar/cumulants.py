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

The free search needs only moments to cumulants, one moment row per call:
cumulants add, and every partition of an odd set has a block of odd size, so
the odd moments of e+y up to order N vanish exactly when its odd cumulants
k_odd(e) + k_odd(y) do, and the search constrains those. For it the numpy
kernel below maps one moment row to its cumulant row, reading one cached
index per order. It is Lagrange inversion (Nica-Speicher, Lectures on the
Combinatorics of Free Probability, Lect. 16),

  k_n = -[t^n] M(t)^(1-n) / (n-1)  (n >= 2),

a diagonal of successive powers of 1/M, which comes by forward
substitution on Python scalars (a numpy call per step costs more than its
arithmetic), then N - 1 mat-vecs with its lower-triangular Toeplitz matrix
give every entry. The chain runs one power further, to M^(-N), for the
derivatives dk_n/dm_j = [t^(n-j)] M(t)^(-n), which the search's constraint
Jacobian reads. The Boolean minimum needs no such kernel: it is an LP over
the measure of y's F-transform, whose moments are y's Boolean cumulants from
k_2 on (see optimizer).
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


def check_order(order):
    if not 1 <= order <= MAX_ORDER:
        raise OrderError(f"order must be in 1..{MAX_ORDER}, got {order}")


class IndependenceKind(Enum):
    """Which partition lattice governs the moment-cumulant relation."""

    CLASSICAL = "classical"
    FREE = "free"
    BOOLEAN = "boolean"

    @classmethod
    def _missing_(cls, name):
        """A kind's name in any case; any other name is a SizeError."""
        for kind in cls:
            if kind.value == str(name).lower():
                return kind
        raise SizeError(f"unknown independence kind: {name!r}")


class _Prefix:
    """Base of the sequence prefixes: values holds 1..MAX_ORDER terms, order counts them."""

    def __post_init__(self):
        check_order(len(self.values))

    @property
    def order(self):
        return len(self.values)


@dataclass(frozen=True)
class MomentSequence(_Prefix):
    """The finite moment prefix (m_1, ..., m_N); m_0 is implicitly 1."""

    values: tuple


@dataclass(frozen=True)
class CumulantSequence(_Prefix):
    """(k_1, ..., k_N) for one independence kind."""

    kind: IndependenceKind
    values: tuple


def _transform(values, kind, to_moments):
    """Cumulants k_1..k_N to moments (to_moments) or moments to cumulants.

    Runs the recursion of the module docstring on one sequence and returns a
    list. Rationals (ints and Fractions; c = 1 when all are ints) run it on
    Python ints, scaled by c^n; any other input runs it in the arithmetic of
    its values.
    """
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return _recursion(values, kind, to_moments)
    c = 1
    for n, v in enumerate(values, 1):
        den = v.denominator
        c *= den // gcd(den, c**n)  # now den | c^n, and c only grows
    scales = [c**n for n in range(1, len(values) + 1)]
    ints = [v.numerator * (s // v.denominator) for v, s in zip(values, scales)]
    out = _recursion(ints, kind, to_moments)
    # entries before the first Fraction depend on ints only and stay ints
    first = next((i for i, v in enumerate(values) if isinstance(v, Fraction)), len(values))
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


@lru_cache(maxsize=MAX_ORDER)
def _kernel_index(order):
    """Read-only gathers of _free_m2k_jac at order N.

    The (N+1) x (N+1) index of S's lower-triangular Toeplitz matrix (lag
    i - j, N + 1 pointing at a zero), and the (rows, cols) picking
    [t^(n-j)] S^n at (n, j), n, j = 1..N, from the powers; for j > n they
    point at (0, N), a zero: S^0 = 1.
    """
    i = np.arange(order + 1)
    lag = np.subtract.outer(i, i)
    toeplitz = np.where(lag >= 0, lag, order + 1)
    n, lag = i[1:], lag[1:, 1:]
    rows, cols = np.where(lag >= 0, n[:, None], 0), np.where(lag >= 0, lag, order)
    toeplitz.flags.writeable = rows.flags.writeable = cols.flags.writeable = False
    return toeplitz, (rows, cols)


def _free_m2k_jac(m):
    """Free cumulants of one row m and their derivatives, from one chain of powers.

    S = 1/M by forward substitution, each sum in index order; each Toeplitz
    mat-vec multiplies the last power by S, into powers[n, i] = [t^i] S^n.
    k_1 = m_1 and k_n = -[t^n] S^(n-1) / (n-1). As dS/dm_j = -S^2 t^j,
    dk_n/dm_j = [t^(n-j)] S^n, 0 for j > n: the power N is read here only.
    Returns k (N,) and dk (N, N).
    """
    order = len(m)
    toeplitz, derivative = _kernel_index(order)
    mm, s = [1.0] + m.tolist(), [1.0]  # Python scalars: numpy's cost ~1 us per operation
    for n in range(1, order + 1):
        acc = 0.0
        for i in range(n):
            acc += mm[n - i] * s[i]
        s.append(-acc)
    lt = np.array(s + [0.0])[toeplitz]
    powers = np.zeros((order + 1, order + 1), lt.dtype)
    powers[0, 0] = 1
    for n in range(1, order + 1):
        lt.dot(powers[n - 1], out=powers[n])
    n = np.arange(2, order + 1)
    k = np.concatenate((m[:1], powers[n - 1, n] / (1 - n)))
    return k, powers[derivative]


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
