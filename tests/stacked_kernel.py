"""The stacked free kernel: the tests' oracle for symvar's row-by-row kernel.

symvar.cumulants maps one moment row to its free cumulants. This module
keeps the batched form it replaced: moments by a stacked matmul, 1/M by a
batched forward substitution, then a chain of stacked mat-vecs with the
lower-triangular Toeplitz matrix of 1/M, all rows at once. On one row both
compute every entry by the same operations in the same order, so the tests
compare them bit for bit; across a batch the stacked mat-vecs may round
differently. `constraint` is the free search's per-point constraint built on
this kernel. It imports nothing from symvar, so it shares no code with what
it checks.
"""

from __future__ import annotations

import numpy as np


def _moments(locs, weights, order):
    """Moments 1..order of the laws (locs, weights), one per row of shape (..., k):
    one cumprod of the locations and one stacked matmul."""
    powers = np.cumprod(np.repeat(locs[..., None], order, axis=-1), axis=-1)
    return (weights[..., None, :] @ powers)[..., 0, :]


def _toeplitz(s):
    """Lower-triangular Toeplitz matrix of each row of s: multiplying by it is
    multiplication by that series, truncated at the row length."""
    n = s.shape[-1]
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    pad = np.concatenate((s, np.zeros(s.shape[:-1] + (1,))), axis=-1)
    return pad[..., np.where(lag >= 0, lag, n)]


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


def free_powers(m):
    """Columns [t^i] S^n, i, n = 0..N, of the powers of S = 1/M per row of m.

    Each stacked Toeplitz mat-vec multiplies the last column by S; the result
    has shape (..., N + 1, N + 1).
    """
    lt = _toeplitz(_reciprocal(_unit_series(m)))
    q = np.zeros(lt.shape[:-1] + (1,))
    q[..., 0, 0] = 1.0
    columns = [q]
    for _ in range(m.shape[-1]):
        q = lt @ q
        columns.append(q)
    return np.concatenate(columns, axis=-1)


def _read_cumulants(m, powers):
    n = np.arange(2, m.shape[-1] + 1)
    return np.concatenate((m[..., :1], powers[..., n, n - 1] / (1 - n)), axis=-1)


def free_m2k_float(m):
    """Free cumulants k_1 = m_1, k_n = [t^n] S^(n-1) / (1 - n) of each row of m."""
    return _read_cumulants(m, free_powers(m))


def free_m2k_jac(m):
    """Free cumulants of each row of m and dk_n/dm_j = [t^(n-j)] S^n (0 for j > n)."""
    powers = free_powers(m)
    order = m.shape[-1]
    n = np.arange(1, order + 1)
    lag = np.subtract.outer(n, n)
    rows, cols = np.where(lag >= 0, lag, order), np.where(lag >= 0, n[:, None], 0)
    return _read_cumulants(m, powers), powers[..., rows, cols]


def constraint(locs, weights, e_kappa):
    """The free search's constraints at one law and their Jacobian, on the stacked kernel.

    The constraints are the odd free cumulants of e+y and the mass row
    sum w - 1; the Jacobian is dk_n/dm_j, then dm_j/dt_i = j w_i t_i^(j-1)
    and dm_j/dw_i = t_i^j.
    """
    order, atoms = len(e_kappa), len(locs)
    k_y, dk = free_m2k_jac(_moments(locs[None], weights[None], order)[0])
    powers = np.ones((atoms, order + 1))  # t_i^j, j = 0..N
    np.cumprod(np.repeat(locs[:, None], order, axis=1), axis=1, out=powers[:, 1:])
    dm_dt = powers[:, :-1] * (weights[:, None] * np.arange(1, order + 1))
    dm = np.concatenate((dm_dt, powers[:, 1:]))  # dm_j/dz_i, z = (t, w)
    odd = (order + 1) // 2
    value, jac = np.empty(odd + 1), np.zeros((odd + 1, 2 * atoms))
    np.add(k_y[0::2], e_kappa[0::2], out=value[:-1])
    value[-1] = weights.sum() - 1.0
    np.matmul(dk[0::2], dm.T, out=jac[:-1])
    jac[-1, atoms:] = 1.0
    return value, jac
