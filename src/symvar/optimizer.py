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

For free independence the minimum is searched for; the theorem says it is
p for symmetry at every order, but at N = 13 a freely infinitely divisible y
gives p - 0.079 at p = 0.51 (ROADMAP item 2). The search doubles as a falsifier.

The search works in cumulant coordinates: by the same argument, the
symmetry constraints k_odd(e) + k_odd(y) = 0 are linear in y's free
cumulants. For y on k atoms (locations t in [-3, 2], weights w in [0, 1])
one evaluation needs only y's moments and the moments-to-cumulants kernel;
e's cumulants are computed once. Each start runs one SLSQP solve (scipy's,
Kraft 1988): minimize m_2(y) = sum w t^2 subject to these odd cumulants and
the mass row sum w = 1. m_2's analytic gradient is a callable of its own, so
SLSQP computes it only at iterates, not at line-search points. The
constraints' value at every point comes from one real kernel pass, and their
Jacobian from the same pass, built only where SLSQP asks for it (about one
point in three): the powers of S = 1/M that give the cumulants also give
dk_n/dm_j = [t^(n-j)] S^n, and the chain rule runs through
dm_j/dt_i = j w_i t_i^(j-1) and dm_j/dw_i = t_i^j; the mass row's is
(0, .., 0, 1, .., 1). SLSQP asks for the Jacobian at the point whose value it
just took (and first for the Jacobian at its start), so the last point's pass
is cached. With k <= 3 atoms there are fewer variables than equations and
SLSQP returns its start. Every start and every solve is a candidate, judged
by the constraint and the m_2 that SLSQP saw.
Every result is reported by _result, whose residual is the largest odd
moment of e+y, computed from the returned measure through convolve_moments.
OptResult.evaluations counts every row of the odd-cumulant map: one per
SLSQP point that differs from the one before it, and one per candidate; it is
0 for an LP.

scipy.optimize and scipy.sparse are imported inside the functions that call
them, on the first LP or search: the CLI imports this module, and its exact
commands never use scipy, whose optimize package takes about 0.6 s to import.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, lru_cache
from math import isfinite

import numpy as np

from .cumulants import (
    MAX_ORDER,
    IndependenceKind,
    _free_m2k_jac,
    convolve_moments,
    odd_moment_residual,
)
from .errors import SizeError, SymvarError
from .measures import DiscreteMeasure, bernoulli, check_p, check_seed, dumps, moments_of, variance

MAX_GRID_POINTS = 100_000
MAX_RELAX_ORDER = (MAX_ORDER - 1) // 2  # odd orders 1..MAX_ORDER, as the residual reports
# HiGHS's default tolerances (1e-7) let the objective stop 1e-8 above the
# optimum on a 100k-point grid; LP results are checked to LP_GATE
HIGHS_TOL = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
LP_GATE = 1e-9
# the starts run one after another, each in O(k^2) memory; the bounds keep a
# job's time in minutes: about 1 s per start at MAX_ATOMS (2-vCPU VM)
MAX_ATOMS = 64
MAX_RESTARTS = 128
BOX = (-3.0, 2.0)  # y's atoms: the Boolean LP's grid, the free search's bounds and starts


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
    """Knobs for the free multi-start search; the Boolean LP reads none.

    restarts random starts run besides the seeded one, each on atom_budget
    atoms; seed fixes them. penalty_weights is validated but unread: the
    search has no penalty since 0.11.0, and callers that still pass a
    schedule keep working.
    """

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
        check_seed(self.seed)


@dataclass(frozen=True)
class OptResult:
    """Solution report; objective is recomputed from the measure, not the solver.

    An infeasible result has no measure, objective or residual (all None).
    order is the highest odd order whose symmetry is constrained; None when
    the whole law of X+Y is (the classical exact_law LP).
    """

    objective: float | None
    status: str  # "optimal" | "feasible" | "infeasible"
    residual: float | None
    measure: DiscreteMeasure | None
    evaluations: int = 0  # free search: kernel passes, at SLSQP's points and candidates; 0 for LPs
    order: int | None = None

    def to_json(self):
        return dumps(asdict(self))


# ---------------------------------------------------------------------------
# LPs: classical and Boolean
# ---------------------------------------------------------------------------

def _lp(c, A, b):
    """min c.x over x >= 0 with A x = b by HiGHS: the solution, or None when infeasible.

    Any other failure of the solver is an error.
    """
    from scipy.optimize import linprog

    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=HIGHS_TOL)
    if res.status == 2:
        return None
    if res.status != 0:
        raise SymvarError(f"LP solver failed: {res.message}")
    return res.x


def _result(locs, weights, pf, kind, order, gate, objective=None, evaluations=0):
    """The report of every minimum: y on (locs, weights), infeasible when weights is None.

    Atoms of weight above 1e-12 are kept and renormalized. The objective is
    objective(y), m_2(y) when None, and the residual is the largest odd moment
    of e+y through convolve_moments. The status is "optimal" when the odd
    moments constrained up to order (up to MAX_ORDER when order is None) are
    within gate, else "feasible".
    """
    if weights is None:
        return OptResult(None, "infeasible", None, None, order=order)
    keep = weights > 1e-12
    w = weights[keep] / weights[keep].sum()
    mu = DiscreteMeasure.from_atoms(zip(locs[keep], w), mode="float")
    my = moments_of(mu, MAX_ORDER)
    msum = convolve_moments(moments_of(bernoulli(pf), MAX_ORDER), my, kind)
    # moment_relax leaves the odd moments above its order free
    gated = max(map(abs, msum.values[: order or MAX_ORDER : 2]))
    return OptResult(float(my.values[1] if objective is None else objective(mu)),
                     "optimal" if gated <= gate else "feasible", float(odd_moment_residual(msum)),
                     mu, int(evaluations), order)


def _mirror_rows(g, pf):
    """Sparse rows mass(v) - mass(-v) of X+Y, one per value |v| > 0 of its support.

    Grid point t puts weight 1-p on the value t and weight p on t+1, so it
    enters the row of |t| with the sign of t and the row of |t+1| with the
    sign of t+1. Sorted values of |v| less than 1e-9 apart are one value;
    |v| < 1e-9 is the centre and has no row.
    """
    from scipy import sparse

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
    from scipy import sparse

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
    return _result(g, _lp(c, A, b), pf, IndependenceKind.CLASSICAL, order, LP_GATE, variance)


def _boolean_lp(pf, order):
    """min m_2(y) over y with e+y Boolean-symmetric up to the odd order `order`.

    The LP of the module docstring: rho >= 0 on 2,001 points of BOX = [-3, 2] and
    at -q, minimizing rho(R), with one row per odd Chebyshev polynomial
    T_1, T_3, .., T_{order-2} in t/3 (monomial rows are badly conditioned).
    y's atoms are the arrowhead matrix's eigenvalues, and its weights the
    squared first entries of the eigenvectors.
    """
    t = np.array(GridSpec(*BOX, 0.0025, must_include=(pf - 1.0,)).points())
    x = np.append(t, pf - 1.0) / max(map(abs, BOX))  # into [-1, 1]; the last column, -q, is the RHS
    cheb = [np.ones_like(x), x]  # T_0, T_1, .. by the three-term recurrence
    for _ in range(order - 3):
        cheb.append(2.0 * x * cheb[-1] - cheb[-2])
    rows = np.array(cheb[1::2])
    rho = _lp(np.ones(len(t)), rows[:, :-1], pf * (1.0 - pf) * rows[:, -1])
    if rho is None:
        return _result(None, None, pf, IndependenceKind.BOOLEAN, order, LP_GATE)
    on = rho > 0
    arrow = np.diag(np.r_[-pf, t[on]])
    arrow[0, 1:] = arrow[1:, 0] = np.sqrt(rho[on])
    atoms, vectors = np.linalg.eigh(arrow)
    return _result(atoms, vectors[0] ** 2, pf, IndependenceKind.BOOLEAN, order, LP_GATE)


# ---------------------------------------------------------------------------
# Free search
# ---------------------------------------------------------------------------

def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call; bench/tracing.py wraps this name."""
    from scipy import optimize

    return optimize.minimize(*args, **kwargs)


def _constraint(locs, weights, e_kappa):
    """The search's constraints at one law y on (locs, weights), and their Jacobian's builder.

    The constraints are the odd free cumulants of e+y, for e's cumulants
    e_kappa (a numpy vector k_1..k_N, N >= 2), and the mass row sum w - 1.
    One pass builds the powers t_i^j (j = 0..N), y's moments w @ t^j and the
    kernel's cumulants and their derivatives. The Jacobian comes from the
    same pass, built on the builder's first call and then cached: dk_n/dm_j
    by _free_m2k_jac, then dm_j/dt_i = j w_i t_i^(j-1) and dm_j/dw_i = t_i^j.
    The builder reads locs and weights, so they must not change before it is
    called.
    """
    order, atoms = len(e_kappa), len(locs)
    powers = np.ones((atoms, order + 1))  # t_i^j, j = 0..N
    np.cumprod(np.repeat(locs[:, None], order, axis=1), axis=1, out=powers[:, 1:])
    k_y, dk = _free_m2k_jac(weights @ powers[:, 1:])
    odd = (order + 1) // 2
    value = np.empty(odd + 1)
    np.add(k_y[0::2], e_kappa[0::2], out=value[:-1])
    value[-1] = weights.sum() - 1.0

    @cache
    def jacobian():
        dm_dt = powers[:, :-1] * (weights[:, None] * np.arange(1, order + 1))
        dm = np.concatenate((dm_dt, powers[:, 1:]))  # dm_j/dz_i, z = (t, w)
        jac = np.zeros((odd + 1, 2 * atoms))
        np.matmul(dk[0::2], dm.T, out=jac[:-1])
        jac[-1, atoms:] = 1.0
        return jac

    return value, jacobian


def nc_min_variance(p, kind, cfg: SearchConfig = SearchConfig()) -> OptResult:
    """min phi(y^2) over y (free or Boolean) with e+y symmetric up to MAX_ORDER.

    Boolean: the LP over the F-transform measure of the module docstring,
    exact up to its grid of [-3, 2] and deterministic; it does not read cfg.
    At MAX_ORDER = 13 the minimum is p for p <= 0.71 and below p above that.

    Free: one SLSQP solve per start over cfg.atom_budget atom locations in
    [-3, 2] and weights in [0, 1], minimizing m2(y) subject to the odd free
    cumulants of e+y vanishing up to MAX_ORDER and unit mass. The starts are
    the known equality candidate y = -e in law and cfg.restarts random laws;
    they stay candidates too. The lowest m2 among candidates whose gap is
    below 1e-10 wins, else the smallest gap. Deterministic for a fixed config
    and BLAS thread count: SLSQP's iterates, so `evaluations`, vary with it.
    """
    pf = check_p(float(p))
    kind = IndependenceKind(kind)
    if kind is IndependenceKind.CLASSICAL:
        raise SizeError("use classical_min_variance for the classical kind")
    if kind is IndependenceKind.BOOLEAN:
        return _boolean_lp(pf, MAX_ORDER)
    k = cfg.atom_budget
    e_kappa = _free_m2k_jac(np.full(MAX_ORDER, pf))[0]  # Bernoulli(p): m_n = p

    @lru_cache(maxsize=1)  # SLSQP asks for the Jacobian at the point whose value it just took
    def constraint_at(key):
        """_constraint at the point with these bytes: its value, and its Jacobian's builder."""
        x = np.frombuffer(key)  # a copy: SLSQP changes its z in place
        return _constraint(x[:k], x[k:], e_kappa)

    def m2(z):
        return z[k:] @ z[:k] ** 2

    def m2_gradient(z):  # a callable of its own: SLSQP asks for it only at iterates
        t, w = z[:k], z[k:]
        return np.concatenate([2.0 * w * t, t**2])

    constraint = {
        "type": "eq",
        "fun": lambda z: constraint_at(z.tobytes())[0],
        "jac": lambda z: constraint_at(z.tobytes())[1](),
    }
    bounds = [BOX] * k + [(0.0, 1.0)] * k

    rng = np.random.default_rng(cfg.seed)
    starts = np.zeros((cfg.restarts + 1, 2 * k))
    # seeded equality candidate: atoms at -1 and 0 with weights p, q
    starts[0, :k] = np.r_[-1.0, 0.0, rng.uniform(*BOX, max(k - 2, 0))][:k]
    starts[0, k:k + 2] = (pf, 1.0 - pf)[:k]
    for z in starts[1:]:
        z[:k] = rng.uniform(*BOX, k)
        z[k:] = rng.dirichlet(np.ones(k))
    # with k <= 3 there are fewer variables than equations: SLSQP returns the start
    solved = [minimize(m2, z, jac=m2_gradient, method="SLSQP", bounds=bounds,
                       constraints=constraint, options={"maxiter": 100, "ftol": 1e-12}).x
              for z in starts]
    # the starts themselves are candidates: the seeded one is the theorem's
    # equality case and must never be lost to solver drift
    zs = np.vstack([starts, solved])
    # judged by the constraint and the m2 that SLSQP saw
    res = np.array([np.abs(_constraint(z[:k], z[k:], e_kappa)[0]).max() for z in zs])
    m2s = np.array([m2(z) for z in zs])
    # a solve that converged ends with a gap below ftol; one cut at maxiter near
    # the constraint set trades gap for m2 (gap 5.5e-9 gave m2 = p - 2.1e-9)
    feasible = res < 1e-10
    best = np.lexsort((res, m2s, ~feasible))[0] if feasible.any() else np.lexsort((m2s, res))[0]

    evaluations = constraint_at.cache_info().misses + len(zs)  # rows of the odd-cumulant map
    return _result(zs[best, :k], zs[best, k:], pf, kind, MAX_ORDER, 1e-6, evaluations=evaluations)
