"""Minimum symmetrizer variance: exact LP classically, penalized search otherwise.

Classically the symmetry constraints are linear in the weights of a gridded
law for Y, so the minimum of Var(Y) is an LP; its rows are assembled as a
sparse matrix and solved by scipy's HiGHS (Huangfu-Hall dual revised
simplex). For free and Boolean independence the moments of e+y are
polynomial in the moments of y (through the cumulant transforms), so we run
a multi-start penalized Nelder-Mead over atom locations and softmax weights;
the theorems say the answer is p, and the search doubles as a falsifier.
One objective evaluation is vectorized: y's moments come from one matrix
product, the free transforms are numpy power-series kernels, and the penalty
and box terms are dot products. OptResult.evaluations counts the objective
evaluations of all Nelder-Mead runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize

from .cumulants import (
    MAX_ORDER,
    IndependenceKind,
    _transform,
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
    """Knobs for the free/Boolean penalized multi-start search."""

    max_odd_order: int = 13
    penalty_weights: tuple = (1e2, 1e4, 1e6, 1e8)
    restarts: int = 32
    atom_budget: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.max_odd_order % 2 == 0 or not 1 <= self.max_odd_order <= MAX_ORDER:
            raise SizeError(f"max_odd_order must be odd and in 1..{MAX_ORDER}")
        if list(self.penalty_weights) != sorted(set(self.penalty_weights)) or min(
            self.penalty_weights
        ) <= 0:
            raise SizeError("penalty schedule must be strictly increasing and positive")
        if self.restarts < 1 or self.atom_budget < 1:
            raise SizeError("restarts and atom_budget must be positive")
        if self.atom_budget > MAX_ATOMS:
            raise SizeError(f"atom_budget must be at most {MAX_ATOMS}, got {self.atom_budget}")
        if self.seed < 0:
            raise SizeError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class OptResult:
    """Solution report; objective is recomputed from the measure, not the solver.

    An infeasible result has no measure, objective or residual (all None).
    """

    objective: float | None
    measure: DiscreteMeasure | None
    residual: float | None
    status: str  # "optimal" | "feasible" | "infeasible"
    evaluations: int = 0  # objective evaluations of the search; 0 for the LP

    def to_json(self):
        return json.dumps(
            {
                "objective": self.objective,
                "status": self.status,
                "residual": self.residual,
                "measure": json.loads(self.measure.to_json()) if self.measure else None,
                "evaluations": self.evaluations,
            }
        )


# ---------------------------------------------------------------------------
# Classical LP
# ---------------------------------------------------------------------------

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
        with np.errstate(over="ignore"):
            # m_n(X+Y) = (1-p) m_n(Y) + p m_n(Y+1)
            rows = sparse.csr_array((1.0 - pf) * g**n + pf * (g + 1.0) ** n)
    else:
        raise SizeError(f"unknown mode {mode!r}")
    A = sparse.vstack([np.ones((1, len(g))), rows], format="csr")
    b = np.zeros(A.shape[0])
    b[0] = 1.0  # total mass
    c = g * g
    if not (np.isfinite(A.data).all() and np.isfinite(c).all()):
        raise SizeError("non-finite LP data")
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=HIGHS_TOL)
    if res.status == 2:
        return OptResult(None, None, None, "infeasible")
    if res.status != 0:
        raise SymvarError(f"LP solver failed: {res.message}")
    keep = res.x > 1e-12
    mu = DiscreteMeasure.from_atoms(zip(g[keep], res.x[keep] / res.x[keep].sum()), mode="float")
    msum = convolve_moments(
        moments_of(mu, MAX_ORDER), moments_of(bernoulli(pf), MAX_ORDER), IndependenceKind.CLASSICAL
    )
    return OptResult(float(variance(mu)), mu, float(odd_moment_residual(msum)), "optimal")


# ---------------------------------------------------------------------------
# Free / Boolean penalized search
# ---------------------------------------------------------------------------

def _sum_odd_moments(locs, weights, e_kappa, kind, order):
    """Odd moments of e+y (a vector) and m2(y), for y supported on (locs, weights).

    Moments 1..order are transformed, so order must be at least 2; e_kappa
    holds e's cumulants to that order, as a numpy vector.
    """
    my = weights @ locs[:, None] ** np.arange(1, order + 1)
    ms = np.asarray(_transform(e_kappa + _transform(my, kind, False), kind, True))
    return ms[0::2], my[1]


def nc_min_variance(p, kind, cfg: SearchConfig = SearchConfig(), allow_critical=False) -> OptResult:
    """Search for min phi(y^2) over y (free or Boolean) symmetrizing e.

    Penalized Nelder-Mead over atom locations in [-3,2] and softmax weights,
    with an increasing penalty schedule on the squared odd moments of e+y.
    Multi-start: cfg.restarts random initializations plus the known equality
    candidate y = -e in law. Deterministic for a fixed config.
    """
    pf = check_p(float(p), allow_critical)
    kind = IndependenceKind(kind)
    if kind is IndependenceKind.CLASSICAL:
        raise SizeError("use classical_min_variance for the classical kind")
    order = max(cfg.max_odd_order, 2)  # m2(y) is the objective
    k = cfg.atom_budget
    e_kappa = np.asarray(_transform([pf] * order, kind, False))  # Bernoulli(p): m_n = p

    def unpack(x):
        locs = np.minimum(np.maximum(x[:k], -3.0), 2.0)
        weights = np.exp(x[k:] - x[k:].max())
        weights /= weights.sum()
        return locs, weights

    def objective(x, lam):
        locs, weights = unpack(x)
        odd, m2 = _sum_odd_moments(locs, weights, e_kappa, kind, order)
        d = x[:k] - locs
        return m2 + lam * (odd @ odd) + 10.0 * (d @ d)

    rng = np.random.default_rng(cfg.seed)
    starts = []
    # seeded equality candidate: atoms at -1 and 0 with weights p, q
    x0 = np.zeros(2 * k)
    x0[:k] = np.concatenate([[-1.0, 0.0], rng.uniform(-3, 2, k - 2)]) if k >= 2 else [-1.0]
    logit = np.full(k, -30.0)
    logit[0] = np.log(pf)
    if k >= 2:
        logit[1] = np.log(1 - pf)
    x0[k:] = logit
    starts.append(x0)
    for _ in range(cfg.restarts):
        xr = np.empty(2 * k)
        xr[:k] = rng.uniform(-3, 2, k)
        xr[k:] = rng.normal(0, 1, k)
        starts.append(xr)

    def evaluate(x):
        locs, weights = unpack(x)
        odd, m2 = _sum_odd_moments(locs, weights, e_kappa, kind, order)
        return x, m2, np.abs(odd).max()

    # the initial points themselves are candidates: the seeded start is the
    # theorem's equality case and must never be lost to solver drift
    candidates = [evaluate(x) for x in starts]

    lam_final = cfg.penalty_weights[-1]
    evaluations = 0
    explored = []
    for x in starts:
        xcur = x.copy()
        for lam in cfg.penalty_weights:
            res = minimize(
                objective,
                xcur,
                args=(lam,),
                method="Nelder-Mead",
                options={"maxiter": 60 * k, "xatol": 1e-7, "fatol": 1e-10},
            )
            evaluations += res.nfev
            xcur = res.x
        explored.append(evaluate(xcur))
    candidates.extend(explored)

    # polish the most promising explored points hard at the final penalty
    explored.sort(key=lambda c: (c[2] >= 1e-6, c[1] + lam_final * c[2] ** 2))
    for x, _, _ in explored[:4]:
        res = minimize(
            objective,
            x,
            args=(lam_final,),
            method="Nelder-Mead",
            options={"maxiter": 300 * k, "xatol": 1e-10, "fatol": 1e-14},
        )
        evaluations += res.nfev
        candidates.append(evaluate(res.x))

    feasible = [c for c in candidates if c[2] < 1e-6]
    if feasible:
        best = min(feasible, key=lambda c: (c[1], c[2]))
        status = "optimal"
    else:
        best = min(candidates, key=lambda c: (c[2], c[1]))
        status = "feasible"
    locs, weights = unpack(best[0])
    keep = weights > 1e-12
    wkeep = weights[keep] / weights[keep].sum()
    mu = DiscreteMeasure.from_atoms(list(zip(locs[keep], wkeep)), mode="float")
    odd, m2 = _sum_odd_moments(
        np.array([t for t, _ in mu.atoms]),
        np.array([w for _, w in mu.atoms]),
        e_kappa,
        kind,
        order,
    )
    return OptResult(float(m2), mu, float(np.abs(odd).max()), status, int(evaluations))
