"""Minimum symmetrizer variance: LPs classically and for Boolean, search for free.

Classically the symmetry constraints are linear in the weights of a gridded
law for Y, so the minimum of Var(Y) is an LP; its rows are assembled as a
sparse matrix and solved by scipy's HiGHS (Huangfu-Hall dual revised
simplex).

The Boolean minimum is an LP too, over the measure rho of y's F-transform
F_y(z) = z - k_1 - int drho(t) / (z - t), whose moments are y's Boolean
cumulants k_2, k_3, .. (Speicher-Woroudi, "Boolean convolution", 1997).
Cumulants add, and every partition of an odd set has a block of odd size,
so e+y is symmetric up to the odd order N exactly when its odd cumulants
vanish: when k_1(y) = -p and rho's odd moments 1, 3, .., N-2 are those of
pq delta_{-q} (the rho of y = -e). Then m_2(y) = p^2 + rho(R). y comes back
from rho exactly: F_y is the resolvent at e_1 of the arrowhead matrix
[[-p, sqrt(rho)^T], [sqrt(rho), diag(t)]]. The theorem's bound p is for
symmetry at every order; at N = 13 on [-3, 2] the LP gives p for p <= 0.71
and less above.

For free independence we run a multi-start penalized Nelder-Mead over atom
locations and softmax weights; the theorem says the answer is p, and the
search doubles as a falsifier.

The search works in cumulant coordinates: by the same argument, the
symmetry constraints k_odd(e) + k_odd(y) = 0 are linear in y's free
cumulants, and penalizing them is exact. One evaluation therefore needs
only y's moments (one cumprod and one stacked matmul) and the batched
moments-to-cumulants kernel; e's cumulants are computed once. The penalty,
the ranking of candidates and the final projection all read this one map.

The starts run in lockstep: every start is a lane of one Nelder-Mead loop
that follows scipy's method step for step, and each iteration evaluates the
four trial points of every lane in one batched objective call. The atoms
that carry weight at the best point (weight above 1e-12) are then projected
onto the odd-cumulant equations by least squares; the others stay dropped.
Every result reports as residual the largest odd moment of e+y, computed
from the returned measure through convolve_moments.
OptResult.evaluations counts every row of the odd-cumulant map: trial points
whether chosen or not, the candidates and the projection; it is 0 for an LP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy import sparse
from scipy.optimize import least_squares, linprog

from .cumulants import (
    MAX_ORDER,
    IndependenceKind,
    _free_m2k_float,
    convolve_moments,
    odd_moment_residual,
)
from .errors import SizeError, SymvarError
from .measures import DiscreteMeasure, bernoulli, check_p, moments_of, variance

MAX_GRID_POINTS = 100_000
MAX_RELAX_ORDER = (MAX_ORDER - 1) // 2  # odd orders 1..MAX_ORDER, as the residual reports
# HiGHS's default tolerances (1e-7) let the objective stop 1e-8 above the
# optimum on a 100k-point grid; LP results are checked to 1e-9
HIGHS_TOL = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
MAX_ATOMS = 64  # Nelder-Mead keeps a (2k+1) x 2k simplex for k atoms
# the lockstep search evaluates every lane's initial simplex in one call:
# about 2 MB per lane at MAX_ATOMS, so at most ~250 MB for MAX_RESTARTS + 1 lanes
MAX_RESTARTS = 128


@dataclass(frozen=True)
class GridSpec:
    """Candidate support for the gridded classical LP."""

    lo: float
    hi: float
    step: float
    must_include: tuple = (-1.0, 0.0)

    def __post_init__(self):
        if not all(map(isfinite, (self.lo, self.hi, self.step, *self.must_include))):
            raise SizeError("grid bounds, step and included points must be finite")
        if not self.lo < self.hi:
            raise SizeError("grid needs lo < hi")
        if self.step <= 0:
            raise SizeError("grid step must be positive")
        if (self.hi - self.lo) / self.step > MAX_GRID_POINTS:
            raise SizeError("grid too fine")

    def points(self):
        n = int(round((self.hi - self.lo) / self.step))
        pts = [self.lo + i * self.step for i in range(n + 1)]
        pts.extend(self.must_include)
        pts.sort()
        out = []
        for t in pts:
            if not out or abs(t - out[-1]) > 1e-12:
                out.append(t)
        return out


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the free penalized multi-start search; the Boolean LP reads none."""

    penalty_weights: tuple = (1e2, 1e4, 1e6, 1e8)
    restarts: int = 32
    atom_budget: int = 6
    seed: int = 0

    def __post_init__(self):
        if list(self.penalty_weights) != sorted(set(self.penalty_weights)) or min(
            self.penalty_weights
        ) <= 0:
            raise SizeError("penalty schedule must be strictly increasing and positive")
        if self.restarts < 1 or self.atom_budget < 1:
            raise SizeError("restarts and atom_budget must be positive")
        if self.restarts > MAX_RESTARTS:
            raise SizeError(f"restarts must be at most {MAX_RESTARTS}, got {self.restarts}")
        if self.atom_budget > MAX_ATOMS:
            raise SizeError(f"atom_budget must be at most {MAX_ATOMS}, got {self.atom_budget}")
        if self.seed < 0:
            raise SizeError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class OptResult:
    """Solution report; objective is recomputed from the measure, not the solver.

    An infeasible result has no measure, objective or residual (all None).
    order is the highest odd order whose symmetry is constrained; None when
    the whole law of X+Y is (the classical exact_law LP).
    """

    objective: float | None
    measure: DiscreteMeasure | None
    residual: float | None
    status: str  # "optimal" | "feasible" | "infeasible"
    evaluations: int = 0  # objective evaluations of the search; 0 for the LP
    order: int | None = None

    def to_json(self):
        return json.dumps(
            {
                "objective": self.objective,
                "status": self.status,
                "residual": self.residual,
                "measure": json.loads(self.measure.to_json()) if self.measure else None,
                "evaluations": self.evaluations,
                "order": self.order,
            }
        )


# ---------------------------------------------------------------------------
# LPs: classical and Boolean
# ---------------------------------------------------------------------------

def _lp(c, A, b, law, objective, pf, kind, order):
    """min c.x over x >= 0 with A x = b by HiGHS, reported as the law y = law(x).

    law maps the solution to y's (locations, weights); atoms of weight above
    1e-12 are kept and renormalized. objective maps the returned measure to
    the reported objective, and the residual is the largest odd moment of e+y
    through convolve_moments. Infeasible is a result; any other failure of
    the solver is an error.
    """
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=HIGHS_TOL)
    if res.status == 2:
        return OptResult(None, None, None, "infeasible", order=order)
    if res.status != 0:
        raise SymvarError(f"LP solver failed: {res.message}")
    locs, weights = law(res.x)
    keep = weights > 1e-12
    w = weights[keep] / weights[keep].sum()
    mu = DiscreteMeasure.from_atoms(zip(locs[keep], w), mode="float")
    msum = convolve_moments(moments_of(mu, MAX_ORDER), moments_of(bernoulli(pf), MAX_ORDER), kind)
    return OptResult(float(objective(mu)), mu, float(odd_moment_residual(msum)), "optimal",
                     order=order)


def _mirror_rows(g, pf):
    """Sparse rows mass(v) - mass(-v) of X+Y, one per value |v| > 0 of its support.

    Grid point t puts weight 1-p on the value t and weight p on t+1, so it
    enters the row of |t| with the sign of t and the row of |t+1| with the
    sign of t+1. Sorted values of |v| less than 1e-9 apart are one value;
    |v| < 1e-9 is the centre and has no row.
    """
    nv = len(g)
    v = np.concatenate([g, g + 1.0])
    coef = np.concatenate([np.full(nv, 1.0 - pf), np.full(nv, pf)]) * np.sign(v)
    cols = np.tile(np.arange(nv), 2)
    keep = np.abs(v) >= 1e-9
    key = np.abs(v[keep])
    order = np.argsort(key)
    row = np.empty(len(key), dtype=np.intp)
    row[order] = np.cumsum(np.diff(key[order], prepend=-1.0) >= 1e-9) - 1
    return sparse.csr_array((coef[keep], (row, cols[keep])), shape=(row.max() + 1, nv))


def classical_min_variance(p, grid: GridSpec, mode="exact_law", relax_order=None) -> OptResult:
    """Minimum Var(Y) over gridded Y independent of Bernoulli(p) with X+Y symmetric.

    mode="exact_law" imposes the full mirror symmetry of the law of X+Y;
    mode="moment_relax" imposes only the odd-moment constraints
    m_{2k+1}(X+Y) = 0 for k = 0..relax_order, relax_order <= MAX_RELAX_ORDER.
    Both are linear in the grid weights; the LP minimizes m_2(Y) (the mean is
    pinned to -p by the k=0 constraint) with HiGHS on sparse rows, and the
    reported objective is the variance of the returned measure.
    """
    pf = check_p(float(p), allow_critical=True)
    g = np.array(grid.points())
    if mode == "exact_law":
        rows = _mirror_rows(g, pf)
    elif mode == "moment_relax":
        if relax_order is None or not 0 <= relax_order <= MAX_RELAX_ORDER:
            raise SizeError(f"moment_relax needs relax_order in 0..{MAX_RELAX_ORDER}")
        n = 2 * np.arange(relax_order + 1)[:, None] + 1
        t = np.array(grid.must_include)
        with np.errstate(over="ignore", invalid="ignore"):
            # m_n(X+Y) = (1-p) m_n(Y) + p m_n(Y+1), on the grid and at the included points
            dense = (1.0 - pf) * g**n + pf * (g + 1.0) ** n
            included = np.abs((1.0 - pf) * t**n + pf * (t + 1.0) ** n).max(axis=1, initial=0.0)
            largest = np.abs(dense).max(axis=1)
        # a coefficient below the solver tolerance times its row's largest entry
        # is lost, whoever scales the row (scaled rows gave objective 0.0); a
        # grid on which a row loses every included point's coefficient is refused
        tiny = (included > 0) & (included < HIGHS_TOL["primal_feasibility_tolerance"] * largest)
        if np.isfinite(largest).all() and tiny.any():
            raise SizeError(
                f"grid too wide for relax_order {relax_order}: moment rows reach "
                f"{largest.max():.3g}, so the included points' coefficients fall below "
                "the solver tolerance"
            )
        rows = sparse.csr_array(dense)
    else:
        raise SizeError(f"unknown mode {mode!r}")
    A = sparse.vstack([np.ones((1, len(g))), rows], format="csr")
    b = np.zeros(A.shape[0])
    b[0] = 1.0  # total mass
    c = g * g
    if not (np.isfinite(A.data).all() and np.isfinite(c).all()):
        raise SizeError("non-finite LP data")
    order = None if mode == "exact_law" else 2 * relax_order + 1
    return _lp(c, A, b, lambda x: (g, x), variance, pf, IndependenceKind.CLASSICAL, order)


def _boolean_lp(pf, order):
    """min m_2(y) over y with e+y Boolean-symmetric up to the odd order `order`.

    The LP of the module docstring: rho >= 0 on 2,001 points of [-3, 2] and
    at -q, minimizing rho(R), with one row per odd Chebyshev polynomial
    T_1, T_3, .., T_{order-2} in t/3 (monomial rows are badly conditioned).
    y's atoms are the arrowhead matrix's eigenvalues, and its weights the
    squared first entries of the eigenvectors.
    """
    t = np.array(GridSpec(-3.0, 2.0, 0.0025, must_include=(pf - 1.0,)).points())
    x = np.append(t, pf - 1.0) / 3.0  # the last column is -q, for the right-hand side
    cheb = [np.ones_like(x), x]  # T_0, T_1, .. by the three-term recurrence
    for _ in range(order - 3):
        cheb.append(2.0 * x * cheb[-1] - cheb[-2])
    rows = np.array(cheb[1::2])

    def law(rho):
        on = rho > 0
        arrow = np.diag(np.r_[-pf, t[on]])
        arrow[0, 1:] = arrow[1:, 0] = np.sqrt(rho[on])
        atoms, vectors = np.linalg.eigh(arrow)
        return atoms, vectors[0] ** 2

    return _lp(np.ones(len(t)), rows[:, :-1], pf * (1.0 - pf) * rows[:, -1], law,
               lambda mu: moments_of(mu, 2).values[1], pf, IndependenceKind.BOOLEAN, order)


# ---------------------------------------------------------------------------
# Free penalized search
# ---------------------------------------------------------------------------

# reflection, expansion, outside and inside contraction: a * xbar - b * worst
_TRIAL_STEPS = np.array([[2.0, 1.0], [3.0, 2.0], [1.5, 0.5], [0.5, -0.5]])


def _sorted(sim, fsim):
    """Each lane's vertices in order of increasing value, best first."""
    order = np.argsort(fsim, axis=1)
    lane = np.arange(len(fsim))[:, None]
    return sim[lane, order], fsim[lane, order]


def _nelder_mead(fun, x0, maxiter, xatol, fatol):
    """Nelder-Mead from every row of x0 at once, each row a lane of one lockstep loop.

    Every lane takes the steps of scipy's non-adaptive method
    (minimize(method="Nelder-Mead") with these maxiter, xatol and fatol): the
    same initial simplex, coefficients 1 / 2 / 1/2 / 1/2, choices, sorting and
    stopping test. fun maps an (R, n) array to R values. Per iteration one
    call evaluates all four trial points of every live lane, chosen from or
    not, and one more call evaluates the shrunk vertices of the lanes that
    shrink. A lane whose simplex meets the xatol/fatol test stops being
    updated. Returns each lane's best vertex, its value and the number of
    evaluations scipy would have made for it.
    """
    lanes, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    s, f = _sorted(sim, fun(sim.reshape(-1, n)).reshape(lanes, n + 1))
    x_best, f_best = np.empty_like(x0), np.empty(lanes)
    nfev = np.full(lanes, n + 1)
    live = np.arange(lanes)  # the lanes s and f hold, in order
    for _ in range(maxiter - 1):  # scipy counts the initial simplex as iteration 1
        done = (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol) & (
            np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= fatol
        )
        if done.any():
            x_best[live[done]], f_best[live[done]] = s[done, 0], f[done].min(axis=1)
            live, s, f = live[~done], s[~done], f[~done]
            if not live.size:
                return x_best, f_best, nfev
        xbar = s[:, :-1].sum(axis=1) / n
        trial = _TRIAL_STEPS[:, :1] * xbar[:, None] - _TRIAL_STEPS[:, 1:] * s[:, -1:]
        ft = fun(trial.reshape(-1, n)).reshape(-1, 4)
        fr, fe, fc, fcc = ft.T
        expand = fr < f[:, 0]
        reflect = ~expand & (fr < f[:, -2])
        outside = ~expand & ~reflect & (fr < f[:, -1])
        inside = ~expand & ~reflect & ~outside
        pick = np.full(len(live), -1)  # index into the trial points; -1 shrinks
        pick[outside & (fc <= fr)] = 2
        pick[inside & (fcc < f[:, -1])] = 3
        pick[expand | reflect] = 0
        pick[expand & (fe < fr)] = 1
        moved, shrink = np.flatnonzero(pick >= 0), np.flatnonzero(pick < 0)
        s[moved, -1] = trial[moved, pick[moved]]
        f[moved, -1] = ft[moved, pick[moved]]
        if shrink.size:
            s[shrink, 1:] = s[shrink, :1] + 0.5 * (s[shrink, 1:] - s[shrink, :1])
            f[shrink, 1:] = fun(s[shrink, 1:].reshape(-1, n)).reshape(-1, n)
        nfev[live] += 1 + ~reflect + n * (pick < 0)
        s, f = _sorted(s, f)
    x_best[live], f_best[live] = s[:, 0], f.min(axis=1)
    return x_best, f_best, nfev


def _moments(locs, weights, order):
    """Moments 1..order of the laws (locs, weights), one per row of shape (..., k)."""
    powers = np.cumprod(np.repeat(locs[..., None], order, axis=-1), axis=-1)
    return (weights[..., None, :] @ powers)[..., 0, :]


def _odd_cumulants(locs, weights, e_kappa):
    """Odd free cumulants of e+y and m2(y), per row, for y supported on (locs, weights).

    e_kappa holds e's free cumulants k_1..k_N as a numpy vector, N >= 2; y's
    come from the batched kernel, one call for all rows.
    """
    my = _moments(locs, weights, len(e_kappa))
    return (_free_m2k_float(my) + e_kappa)[:, 0::2], my[:, 1]


def nc_min_variance(p, kind, cfg: SearchConfig = SearchConfig(), allow_critical=False) -> OptResult:
    """min phi(y^2) over y (free or Boolean) with e+y symmetric up to MAX_ORDER.

    Boolean: the LP over the F-transform measure of the module docstring,
    exact up to its grid of [-3, 2] and deterministic; it does not read cfg.
    At MAX_ORDER = 13 the minimum is p for p <= 0.71 and below p above that.

    Free: penalized Nelder-Mead over atom locations in [-3,2] and softmax
    weights, with an increasing penalty schedule on the squared odd
    cumulants of e+y (zero exactly when its odd moments are).
    Multi-start: cfg.restarts random initializations plus the known equality
    candidate y = -e in law, all run in lockstep (one batched objective call
    per Nelder-Mead iteration). The best candidate's atoms of weight above
    1e-12 are then projected onto k_odd(y) = -k_odd(e), odd orders up to
    MAX_ORDER, by least squares, kept if that lowers the residual.
    Deterministic for a fixed config.
    """
    pf = check_p(float(p), allow_critical)
    kind = IndependenceKind(kind)
    if kind is IndependenceKind.CLASSICAL:
        raise SizeError("use classical_min_variance for the classical kind")
    if kind is IndependenceKind.BOOLEAN:
        return _boolean_lp(pf, MAX_ORDER)
    k = cfg.atom_budget
    e_kappa = _free_m2k_float(np.full(MAX_ORDER, pf))  # Bernoulli(p): m_n = p
    evaluations = 0  # rows evaluated, by the search and the projection

    def odd_cumulants(locs, weights):
        nonlocal evaluations
        evaluations += len(locs)
        return _odd_cumulants(locs, weights, e_kappa)

    def unpack(x):
        locs = np.minimum(np.maximum(x[:, :k], -3.0), 2.0)
        weights = np.exp(x[:, k:] - x[:, k:].max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        return locs, weights

    def objective(lam):
        def f(x):
            locs, weights = unpack(x)
            odd, m2 = odd_cumulants(locs, weights)
            d = x[:, :k] - locs
            return m2 + lam * np.einsum("ij,ij->i", odd, odd) + 10.0 * np.einsum("ij,ij->i", d, d)

        return f

    def evaluate(x):
        odd, m2 = odd_cumulants(*unpack(x))
        return x, m2, np.abs(odd).max(axis=1)

    rng = np.random.default_rng(cfg.seed)
    starts = np.empty((cfg.restarts + 1, 2 * k))
    # seeded equality candidate: atoms at -1 and 0 with weights p, q
    starts[0, :k] = np.concatenate([[-1.0, 0.0], rng.uniform(-3, 2, k - 2)]) if k >= 2 else [-1.0]
    starts[0, k:] = -30.0
    starts[0, k] = np.log(pf)
    if k >= 2:
        starts[0, k + 1] = np.log(1 - pf)
    for xr in starts[1:]:
        xr[:k] = rng.uniform(-3, 2, k)
        xr[k:] = rng.normal(0, 1, k)

    x = starts
    for lam in cfg.penalty_weights:
        x = _nelder_mead(objective(lam), x, 60 * k, 1e-7, 1e-10)[0]
    # the initial points themselves are candidates: the seeded start is the
    # theorem's equality case and must never be lost to solver drift
    xs, m2, res = (np.concatenate(c) for c in zip(evaluate(starts), evaluate(x)))
    feasible = res < 1e-6
    best = np.lexsort((res, m2, ~feasible))[0] if feasible.any() else np.lexsort((m2, res))[0]

    def report(locs, weights):
        keep = weights > 1e-12
        mu = DiscreteMeasure.from_atoms(
            list(zip(locs[keep], weights[keep] / weights[keep].sum())), mode="float"
        )
        my = moments_of(mu, MAX_ORDER)
        msum = convolve_moments(moments_of(bernoulli(pf), MAX_ORDER), my, kind)
        return mu, my.values[1], float(odd_moment_residual(msum))

    # projection in (locations, weights) of the atoms that carry weight, the
    # ones report keeps: a dropped atom stays dropped, and a weight can reach
    # its bound 0, which a softmax logit reaches only at -inf
    locs, weights = (v[0] for v in unpack(xs[best][None]))
    keep = weights > 1e-12
    z0, m = np.concatenate([locs[keep], weights[keep]]), keep.sum()

    def gap(z):
        odd = odd_cumulants(z[:, :m], z[:, m:])[0]
        return np.hstack([odd, z[:, m:].sum(axis=1, keepdims=True) - 1.0])

    def gap_jacobian(z):
        h = 1.49e-8 * np.maximum(1.0, np.abs(z))  # forward differences in one batched call
        g = gap(np.vstack([z, z + np.diag(h)]))
        return ((g[1:] - g[0]) / h[:, None]).T

    bounds = (np.r_[np.full(m, -3.0), np.zeros(m)], np.r_[np.full(m, 2.0), np.full(m, np.inf)])
    # scipy's default tolerances (1e-8) stop it at once: the gap is already ~1e-8
    projected = least_squares(lambda z: gap(z[None])[0], z0, jac=gap_jacobian, bounds=bounds,
                              method="trf", ftol=1e-15, xtol=1e-15, gtol=1e-15)
    mu, m2, residual = min(report(*np.split(z0, 2)), report(*np.split(projected.x, 2)),
                           key=lambda r: r[2])
    status = "optimal" if residual < 1e-6 else "feasible"
    return OptResult(m2, mu, residual, status, int(evaluations), MAX_ORDER)
