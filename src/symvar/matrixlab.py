"""Random-matrix realization of free independence.

A rank-round(p*n) diagonal projection E and a Haar-rotated diagonal
Y = U D U* become asymptotically free as n grows, so normalized traces of
powers of E+Y should converge to the free-convolution predictions from the
cumulant engine. The same machinery probes the proof step

    phi(psi(e+y)) =? q phi(psi(y)) + p phi(psi(1+y))

for the nonlinear dual function psi, which the certificate module cannot
settle analytically; residuals are reported, never asserted.

The rotated model is drawn in compressed form, exactly in law. By unitary
invariance, spec(E + U D U*) = spec(D + sigma Q Q*) + c, where Q is an n x s
Haar isometry with s = min(r, n - r) for the rank r of E; sigma = +1, c = 0
when r <= n - r, and otherwise sigma = -1, c = 1 (write E = I - (I - E)).
D is constant on each atom block, so only the triangular factor R_i of the
block's rows of Q matters: the spectrum is that of diag(a_i) + sigma R R*,
of dimension sum_i min(n_i, s), plus each atom a_i repeated n_i - min(n_i, s)
times. No n x n matrix is formed.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .certificate import psi as _psi
from .cumulants import MAX_ORDER, IndependenceKind, MomentSequence, convolve_moments
from .errors import SizeError
from .measures import DiscreteMeasure, bernoulli, check_p, moments_of

# Largest matrix dimension. In the worst case (p = 1/2, two equal atoms) the
# compressed eigenproblem keeps dimension n, and one draw at n = 2500 peaks
# at about 0.37 GB above the interpreter's own memory.
MAX_SIM_DIM = 2500


def _check_dim(n):
    if not 2 <= n <= MAX_SIM_DIM:
        raise SizeError(f"matrix dimension must be in 2..{MAX_SIM_DIM}, got {n}")


def _check_seed(seed):
    if seed < 0:
        raise SizeError(f"seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class MatrixModel:
    """One (dimension, projection trace, symmetrizer law, seed) experiment."""

    n: int
    p: float
    y_law: DiscreteMeasure
    seed: int

    def __post_init__(self):
        _check_dim(self.n)
        _check_seed(self.seed)
        check_p(self.p, allow_critical=True)

    def rank(self):
        return int(round(self.p * self.n))

    def rank_error(self):
        """Trace discrepancy |rank/n - p| introduced by rounding."""
        return abs(self.rank() / self.n - self.p)


def sample_haar_isometry(n, k, seed):
    """First k columns of a Haar unitary: thin QR of an n x k complex Ginibre matrix.

    The diagonal phase of R is divided out so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def sample_haar_unitary(n, seed):
    """Haar-distributed n x n unitary (the k = n isometry)."""
    if n < 1:
        raise SizeError("dimension must be >= 1")
    return sample_haar_isometry(n, n, seed)


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


def _rotated_spectrum(model: MatrixModel, q):
    """Eigenvalues (unordered) of E + U D U* for the isometry q of the reduction.

    q is the n x min(r, n - r) isometry of the module docstring: it spans the
    range of E when r <= n - r and that of I - E otherwise.
    """
    n, r = model.n, model.rank()
    sigma, shift = (1.0, 0.0) if r <= n - r else (-1.0, 1.0)
    counts = spectral_multiplicities(model.y_law, n)
    starts = np.concatenate([[0], np.cumsum(counts)])
    factors, diag, rest = [], [], []
    for (t, _), lo, hi in zip(model.y_law.atoms, starts, starts[1:]):
        rf = np.linalg.qr(q[lo:hi], mode="r")
        factors.append(rf)
        diag.append(np.full(len(rf), float(t)))
        rest.append(np.full(hi - lo - len(rf), float(t)))
    rr = np.vstack(factors)
    small = sigma * (rr @ rr.conj().T)
    small[np.diag_indices_from(small)] += np.concatenate(diag)
    return np.concatenate([np.linalg.eigvalsh(small), *rest]) + shift


def _realize(model: MatrixModel, rotate=True):
    """Eigenvalues of E + Y.

    rotate=True draws the Haar-rotated (asymptotically free) model in the
    compressed form of the module docstring; rotate=False interleaves the y
    spectrum inside each E block so E and Y commute and realize classical
    independence up to rounding.
    """
    n, r = model.n, model.rank()
    if rotate:
        return _rotated_spectrum(model, sample_haar_isometry(n, min(r, n - r), model.seed))
    d1 = _eigenvalue_vector(model.y_law, r)
    d0 = _eigenvalue_vector(model.y_law, n - r)
    return np.concatenate([1.0 + d1, d0])


def simulate_free_sum(model: MatrixModel, order) -> MomentSequence:
    """Empirical moments tr((E+Y)^k)/n for k = 1..order, Haar-rotated model.

    A moment beyond the float range is a SizeError.
    """
    if not 1 <= order <= MAX_ORDER:
        raise SizeError(f"order must be in 1..{MAX_ORDER}")
    lam = _realize(model, rotate=True)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite moments are refused below
        moments = tuple(float(np.mean(lam**k)) for k in range(1, order + 1))
    if not np.isfinite(moments).all():
        raise SizeError(f"the moments of E + Y up to order {order} exceed the float range")
    return MomentSequence(moments)


def test_proof_identity(model: MatrixModel, grid_free=True, func=None):
    """Residual |tr f(E+Y)/n - (q tr f(Y)/n + p tr f(1+Y)/n)| for f = psi.

    grid_free=True uses the Haar-rotated (asymptotically free) model; False
    uses the commuting block model, where the expansion holds exactly. A
    different test function may be supplied via func (e.g. identity).
    """
    p = model.p
    if func is None:
        check_p(p)  # psi divides by 1 - 2p
        func = lambda t: _psi(t, p)  # noqa: E731
    q = 1.0 - p
    lam = _realize(model, rotate=grid_free)
    lhs = float(np.mean([func(t) for t in lam]))
    dy = _eigenvalue_vector(model.y_law, model.n)
    rhs = q * float(np.mean([func(t) for t in dy])) + p * float(
        np.mean([func(1.0 + t) for t in dy])
    )
    return abs(lhs - rhs)


def proof_identity_report(p, y_law, dims, seeds_per_dim, master_seed):
    """Residual table for the unproven expansion step, rotated vs commuting.

    Returns rows {"n", "seed", "rotated_residual", "commuting_residual"};
    no numeric target is asserted anywhere, the table IS the result. A
    residual beyond the float range is a SizeError.
    """
    if seeds_per_dim < 1:
        raise SizeError("seeds_per_dim must be >= 1")
    _check_seed(master_seed)
    for n in dims:
        _check_dim(n)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite residuals are refused below
        for n in dims:
            ss = np.random.SeedSequence([master_seed, n])
            for child in ss.spawn(seeds_per_dim):
                seed = int(child.generate_state(1)[0])
                model = MatrixModel(n=n, p=p, y_law=y_law, seed=seed)
                rows.append(
                    {
                        "n": n,
                        "seed": seed,
                        "rotated_residual": test_proof_identity(model, grid_free=True),
                        "commuting_residual": test_proof_identity(model, grid_free=False),
                    }
                )
    if not np.isfinite([(r["rotated_residual"], r["commuting_residual"]) for r in rows]).all():
        raise SizeError("psi of the spectrum of E + Y exceeds the float range")
    return rows


def empirical_vs_predicted(model: MatrixModel, order, reps):
    """Mean/stderr of empirical moments over reps seeds vs free-convolution predictions.

    Flags any order where |mean - predicted| > 5*stderr + 10/n. With one rep
    the standard error is undefined: it is reported as None and nothing is
    flagged. A figure beyond the float range is a SizeError.
    """
    if reps < 1:
        raise SizeError("reps must be >= 1")
    me = moments_of(bernoulli(model.p), order)
    my = moments_of(model.y_law, order)
    predicted = convolve_moments(me, my, IndependenceKind.FREE).values
    ss = np.random.SeedSequence(model.seed)
    samples = np.empty((reps, order))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite figures are refused below
        for i, child in enumerate(ss.spawn(reps)):
            m = MatrixModel(model.n, model.p, model.y_law, int(child.generate_state(1)[0]))
            samples[i] = simulate_free_sum(m, order).values
        mean = samples.mean(axis=0)
        error = np.abs(mean - predicted)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else None
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


def moments_csv(report):
    """CSV (n, seed, order, empirical, predicted, abs_error) for a report."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "seed", "order", "empirical", "predicted", "abs_error"])
    for r in report["orders"]:
        writer.writerow(
            [r["n"], r["seed"], r["order"], r["empirical"], r["predicted"], r["abs_error"]]
        )
    return buf.getvalue()


def report_json(report):
    return json.dumps(report)
