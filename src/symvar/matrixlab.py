"""Random-matrix realization of free independence.

A rank-round(p*n) diagonal projection E and a Haar-rotated diagonal
Y = U D U* become asymptotically free as n grows, so normalized traces of
powers of E+Y should converge to the free-convolution predictions from the
cumulant engine. The same machinery probes the proof step

    phi(psi(e+y)) =? q phi(psi(y)) + p phi(psi(1+y))

for the nonlinear dual function psi, which the certificate module cannot
settle analytically; residuals are reported, never asserted.

The rotated model is drawn in compressed form, exactly in law. By unitary
invariance, spec(E + U D U*) = spec(D + sigma F) + c, where F is the
projection onto a Haar-random subspace of dimension s = min(r, n - r) for the
rank r of E; sigma = +1, c = 0 when r <= n - r, and otherwise sigma = -1,
c = 1 (write E = I - (I - E)). The range of an n x s complex Ginibre matrix G
(independent CN(0, 1) entries) is such a subspace, so F = G (G*G)^-1 G*.
Split G into the rows of the atom blocks, G_j = Q_j T_j, with T_j the
m_j x s upper-trapezoidal R-factor, m_j = min(n_j, s). Then G*G = T*T = L L*
for the stacked factors T, and with R* = L^-1 T* the matrix D + sigma F is
unitarily similar to diag(a_j 1_{m_j}) + sigma R R*, of dimension
sum_j m_j <= n, plus each atom a_j repeated n_j - m_j times. The blocks of G
are independent, and each T_j with positive diagonal has the Bartlett law
(Goodman 1963): independent entries, |T_ii|^2 ~ Gamma(n_j - i, 1) for
i = 0..m_j - 1 and CN(0, 1) above the diagonal. The draw samples the T_j
directly, so no n x s or n x n matrix is formed, and no QR runs. At the
eigensolve only the compressed matrix and the copy that numpy's eigvalsh
hands to LAPACK are alive: a draw at n = 1600, p = 0.3 (weights 0.2, 0.2,
0.6, N = 1120) grows the peak RSS by about 2.3 N^2 complex entries. Every
LAPACK call of the draw is numpy's, and L^-1 T* is a general
numpy.linalg.solve: scipy's solve_triangular runs on scipy's own BLAS,
whose thread pool next to numpy's made the n = 800 moments experiment
slower (0.60 -> 0.97 s, 2-vCPU VM).

A law with two atoms needs no factors at all. D + sigma F is then built
from two projections, the first-atom block P (rank n_1) and F (rank s), and
by the two-subspace theorem the space splits into the four intersections
of ran/ker P with ran/ker F and g = min(n_1, n_2, s) two-dimensional
blocks, one per principal angle theta between ran P and ran F. On an
intersection the matrix is a_1, a_2, a_1 + sigma or a_2 + sigma; on a block
with lambda = cos^2 theta it is
[[a_1 + sigma lambda, sigma sqrt(lambda (1 - lambda))], [., a_2 + sigma (1 - lambda)]].
F is Haar, so the g squared cosines are the squared singular values of the
n_1 x s block of a Haar isometry: a beta = 2 Jacobi ensemble with density
prod lambda^a (1 - lambda)^b |Vandermonde|^2, a = |n_1 - s|, b = |n_2 - s|
(Collins 2005). Edelman and Sutton (2008) realize exactly that ensemble as
the squared singular values of a bidiagonal matrix of independent Beta
variables. The two-atom draw is therefore exact in law, at O(n + s^2) cost.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .certificate import _psi, _psi_terms
from .cumulants import IndependenceKind, MomentSequence, check_order, convolve_moments
from .errors import SizeError
from .measures import DiscreteMeasure, bernoulli, check_p, check_seed, moments_of

# Largest matrix dimension. In the worst case (p = 1/2, three or more atoms
# none of which holds more than half the weight) the compressed eigenproblem
# keeps dimension n; one draw at n = 2500, p = 1/2, weights (1/2, 1/4, 1/4)
# grows a fresh interpreter's peak RSS by about 243 MB, set by the solve,
# which copies both of its operands (ru_maxrss after a warm-up draw).
MAX_SIM_DIM = 2500
# Most replicas per dimension, checked before any seed is spawned: one at
# n = 2500 with that law takes 6-7 s at p = 1/2 and about 3 s at p = 0.3
# (2-vCPU VM), so one dimension's replicas take minutes. A draw costs O(n^3),
# so a job's total, sum reps * n^3 over its dimensions, may not pass that of
# the largest one-dimension job, MAX_REPS * MAX_SIM_DIM^3.
MAX_REPS = 100


def _check_dim(n):
    if not 2 <= n <= MAX_SIM_DIM:
        raise SizeError(f"matrix dimension must be in 2..{MAX_SIM_DIM}, got {n}")


@dataclass(frozen=True)
class MatrixModel:
    """One (dimension, projection trace, symmetrizer law, seed) experiment."""

    n: int
    p: float
    y_law: DiscreteMeasure
    seed: int

    def __post_init__(self):
        _check_dim(self.n)
        check_seed(self.seed)
        check_p(self.p, allow_critical=True)

    def rank(self):
        return int(round(self.p * self.n))

    def rank_error(self):
        """Trace discrepancy |rank/n - p| introduced by rounding."""
        return abs(self.rank() / self.n - self.p)


def spectral_multiplicities(mu: DiscreteMeasure, n):
    """Eigenvalue counts per atom by largest-remainder rounding, summing to n."""
    weights = np.array([float(w) for _, w in mu.atoms])
    raw = weights * n
    counts = np.floor(raw).astype(int)
    short = n - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    for i in range(short):
        counts[order[i]] += 1
    return counts


def _eigenvalue_vector(mu, n):
    counts = spectral_multiplicities(mu, n)
    vals = [float(t) for t, _ in mu.atoms]
    return np.repeat(vals, counts)


def _bartlett_factor(n, s, rng):
    """The min(n, s) x s R-factor, with positive diagonal, of an n x s complex Ginibre matrix.

    Drawn from its Bartlett law: |T_ii|^2 ~ Gamma(n - i, 1) and CN(0, 1)
    entries above the diagonal, all independent.
    """
    m = min(n, s)
    t = np.triu(rng.standard_normal((m, s, 2)).view(complex)[..., 0], 1) * np.sqrt(0.5)
    np.fill_diagonal(t, np.sqrt(rng.standard_gamma(n - np.arange(m))))
    return t


def _bartlett_spectrum(atoms, counts, s, sigma, rng):
    """Eigenvalues (unordered) of D + sigma F for any law, from the stacked Bartlett factors T.

    The compressed matrix of the module docstring, diag(a_j 1_{m_j}) + sigma R R*
    with R* = L^-1 T* and L L* = T*T, has one eigvalsh; the atoms the
    compression leaves out follow. sigma scales R's conjugate in place, the
    same products as sigma * R without another copy. T*'s copy is dropped only
    once R's conjugate exists, so glibc's heap puts that conjugate next to R*
    and eigvalsh's copy reuses both (matrix benchmark peak RSS 108 MB, against
    118 MB when T* goes first; 2-vCPU VM).
    """
    kept = np.minimum(counts, s)
    t = np.vstack([_bartlett_factor(int(c), s, rng) for c in counts])
    th = t.conj().T
    chol = np.linalg.cholesky(th @ t)
    del t
    rh = np.linalg.solve(chol, th)  # R* = L^-1 T*
    del chol
    r = rh.conj()
    r *= sigma
    del th
    small = r.T @ rh
    del r, rh
    small[np.diag_indices_from(small)] += np.repeat(atoms, kept)
    return np.concatenate([np.linalg.eigvalsh(small), np.repeat(atoms, counts - kept)])


def _squared_cosines(g, a, b, rng):
    """g draws of the beta = 2 Jacobi ensemble prod lambda^a (1 - lambda)^b |Vandermonde|^2.

    The Edelman-Sutton model: the squared singular values of the upper
    bidiagonal B whose row i (k = g - i + 1) has diagonal c_k s'_k (s'_g = 1)
    and superdiagonal -s_k c'_{k-1}, with c_k^2 ~ Beta(a + k, b + k) and
    c'_k^2 ~ Beta(k, a + b + 1 + k), all independent. They are the
    eigenvalues of the tridiagonal B^T B. scipy.linalg is imported on the
    first call: the CLI imports this module, and neither the other draws nor
    the exact commands use scipy.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    if g == 0:
        return np.empty(0)
    k = np.arange(g, 0, -1)
    c2 = rng.beta(a + k, b + k)
    cp2 = rng.beta(k[1:], a + b + 1 + k[1:])
    d2 = c2 * np.concatenate([[1.0], 1.0 - cp2])
    e2 = (1.0 - c2[:-1]) * cp2
    lam = eigvalsh_tridiagonal(d2 + np.concatenate([[0.0], e2]), np.sqrt(d2[:-1] * e2))
    return np.clip(lam, 0.0, 1.0)


def _two_atom_spectrum(atoms, counts, s, sigma, rng):
    """Eigenvalues (unordered) of D + sigma F for a two-atom law, from its principal angles.

    Each squared cosine lambda gives the two roots of the 2 x 2 block of the
    module docstring; the root of the same sign as the half trace m is
    m +- h, the other is det / (m +- h), so neither cancels.
    """
    a1, a2 = atoms
    n1, n2 = (int(c) for c in counts)
    g = min(n1, n2, s)
    lam = _squared_cosines(g, abs(n1 - s), abs(n2 - s), rng)
    m = 0.5 * (a1 + a2 + sigma)
    h = np.hypot(0.5 * (a1 - a2) + sigma * (lam - 0.5), np.sqrt(lam * (1.0 - lam)))
    big = m + np.copysign(h, m)
    det = a1 * a2 + sigma * (a1 * (1.0 - lam) + a2 * lam)
    small = np.divide(det, big, out=np.zeros_like(big), where=big != 0.0)  # big = 0: both roots 0
    structural = np.repeat(
        [a1, a2, a1 + sigma, a2 + sigma],
        [max(0, n1 - s), max(0, n2 - s), max(0, s - n2), max(0, s - n1)],
    )
    return np.concatenate([big, small, structural])


def _realize(model: MatrixModel, rotate=True):
    """Eigenvalues of E + Y.

    rotate=True draws the Haar-rotated (asymptotically free) model exactly in
    law, as D + sigma F plus the shift of the module docstring: from the
    principal angles when the law has two atoms, and otherwise from the
    Bartlett factors. rotate=False interleaves the y spectrum inside each E
    block so E and Y commute and realize classical independence up to
    rounding.
    """
    n, r = model.n, model.rank()
    if not rotate:
        d1 = _eigenvalue_vector(model.y_law, r)
        d0 = _eigenvalue_vector(model.y_law, n - r)
        return np.concatenate([1.0 + d1, d0])
    sigma, shift = (1.0, 0.0) if r <= n - r else (-1.0, 1.0)
    counts = spectral_multiplicities(model.y_law, n)
    atoms = [float(t) for t, _ in model.y_law.atoms]
    draw = _two_atom_spectrum if len(atoms) == 2 else _bartlett_spectrum
    return draw(atoms, counts, min(r, n - r), sigma, np.random.default_rng(model.seed)) + shift


def _replicas(jobs, p, y_law, reps):
    """reps models per (n, entropy) job from SeedSequence(entropy)'s children; sizes first."""
    for n, _ in jobs:
        _check_dim(n)
        if reps < 1:
            raise SizeError("reps must be >= 1")
        if reps > MAX_REPS:
            raise SizeError(f"reps must be at most {MAX_REPS}, got {reps}")
    if reps * sum(n**3 for n, _ in jobs) > MAX_REPS * MAX_SIM_DIM**3:
        raise SizeError(f"reps * (sum of n^3 over dims) must be at most that of {MAX_REPS} "
                        f"replicas at n = {MAX_SIM_DIM}, {MAX_REPS * MAX_SIM_DIM**3}")
    return [MatrixModel(n, p, y_law, int(c.generate_state(1)[0]))
            for n, entropy in jobs for c in np.random.SeedSequence(entropy).spawn(reps)]


def simulate_free_sum(model: MatrixModel, order) -> MomentSequence:
    """Empirical moments tr((E+Y)^k)/n for k = 1..order, Haar-rotated model.

    A moment beyond the float range is a SizeError.
    """
    check_order(order)
    lam = _realize(model, rotate=True)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments are refused below
        moments = tuple(float(np.mean(lam**k)) for k in range(1, order + 1))
    if not np.isfinite(moments).all():
        raise SizeError(f"the moments of E + Y up to order {order} exceed the float range")
    return MomentSequence(moments)


def test_proof_identity(model: MatrixModel, grid_free=True):
    """Residual |tr f(E+Y)/n - (q tr f(Y)/n + p tr f(1+Y)/n)| for f = psi.

    grid_free=True uses the Haar-rotated (asymptotically free) model; False
    uses the commuting block model, where the expansion holds exactly.
    """
    p, q, d = _psi_terms(model.p)
    lam = _realize(model, rotate=grid_free)
    lhs = float(np.mean([_psi(t, d) for t in lam]))
    dy = _eigenvalue_vector(model.y_law, model.n)
    rhs = q * float(np.mean([_psi(t, d) for t in dy])) + p * float(
        np.mean([_psi(1.0 + t, d) for t in dy])
    )
    return abs(lhs - rhs)


def proof_identity_report(p, y_law, dims, seeds_per_dim, master_seed):
    """Residual table for the unproven expansion step, rotated vs commuting.

    Returns rows {"n", "seed", "rotated_residual", "commuting_residual"};
    no numeric target is asserted anywhere, the table IS the result. A
    residual beyond the float range is a SizeError.
    """
    check_seed(master_seed)
    if len(set(dims)) < len(dims):  # n seeds its replicas: a repeated n repeats their draws
        raise SizeError(f"dims must not repeat a dimension, got {dims}")
    models = _replicas([(n, [master_seed, n]) for n in dims], p, y_law, seeds_per_dim)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite residuals are refused below
        rows = [{"n": m.n, "seed": m.seed,
                 "rotated_residual": test_proof_identity(m, grid_free=True),
                 "commuting_residual": test_proof_identity(m, grid_free=False)} for m in models]
    if not np.isfinite([(r["rotated_residual"], r["commuting_residual"]) for r in rows]).all():
        raise SizeError("psi of the spectrum of E + Y exceeds the float range")
    return rows


def empirical_vs_predicted(model: MatrixModel, order, reps):
    """Mean/stderr of empirical moments over reps seeds vs free-convolution predictions.

    Flags any order where |mean - predicted| > 5*stderr + 10/n. With one rep
    the standard error is undefined: it is reported as None and nothing is
    flagged. A figure beyond the float range is a SizeError.
    """
    models = _replicas([(model.n, model.seed)], model.p, model.y_law, reps)
    me = moments_of(bernoulli(model.p), order)
    my = moments_of(model.y_law, order)
    predicted = convolve_moments(me, my, IndependenceKind.FREE).values
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite figures are refused below
        samples = np.array([simulate_free_sum(m, order).values for m in models])
        # each order scaled exactly by a power of two near its largest |value|:
        # the spread of finite moments near 1e199 is finite, its square is not
        scale = np.ldexp(1.0, np.frexp(np.abs(samples).max(axis=0))[1])
        scaled = samples / scale
        mean = scaled.mean(axis=0) * scale
        error = np.abs(mean - predicted)
        stderr = scaled.std(axis=0, ddof=1) * scale / np.sqrt(reps) if reps > 1 else None
        flagged = np.zeros(order, bool) if stderr is None else error > 5.0 * stderr + 10.0 / model.n
    if not np.isfinite([mean, error] if stderr is None else [mean, error, stderr]).all():
        raise SizeError(f"the moments of E + Y up to order {order} exceed the float range")
    rows = []
    for k in range(order):
        rows.append(
            {
                "n": model.n,
                "seed": model.seed,
                "order": k + 1,
                "empirical": float(mean[k]),
                "predicted": float(predicted[k]),
                "abs_error": float(error[k]),
                "stderr": None if stderr is None else float(stderr[k]),
                "flagged": bool(flagged[k]),
            }
        )
    return {
        "n": model.n,
        "p": model.p,
        "reps": reps,
        "rank_error": model.rank_error(),
        "orders": rows,
        "any_flagged": any(r["flagged"] for r in rows),
    }


def rows_csv(rows, fields):
    """CSV text of the given fields of each row (a dict), with a header line."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
