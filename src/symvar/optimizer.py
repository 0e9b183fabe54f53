"""Minimum symmetrizer variance: exact LP classically, penalized search otherwise.

Classically the symmetry constraints are linear in the weights of a gridded
law for Y, so the minimum of Var(Y) is a small LP solved by a dense simplex
with Bland's rule. For free and Boolean independence the moments of e+y are
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
from math import comb, isfinite

import numpy as np
from scipy.optimize import minimize

from .cumulants import (
    MAX_ORDER,
    MomentSequence,
    _boolean_k2m_float,
    _boolean_m2k_float,
    _free_k2m_float,
    _free_m2k_float,
    odd_moment_residual,
)
from .errors import CriticalCaseError, SizeError
from .measures import DiscreteMeasure, bernoulli, moments_of, variance
from .partitions import IndependenceKind

MAX_GRID_POINTS = 100_000
FEAS_TOL = 1e-9


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
        if self.seed < 0:
            raise SizeError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class OptResult:
    """Solution report; objective is recomputed from the measure, not the solver."""

    objective: float
    measure: DiscreteMeasure
    residual: float
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
# Dense two-phase simplex with Bland's rule
# ---------------------------------------------------------------------------

def simplex_solve(c, A_eq, b_eq):
    """Minimize c.w subject to A_eq w = b_eq, w >= 0.

    Dense tableau simplex, Bland's anti-cycling pivot rule, feasibility
    tolerance 1e-9. Returns (w, value, status) with status in
    {"optimal", "infeasible"}; unboundedness is reported as a RuntimeError
    since the problems built here are bounded by construction.
    """
    A = np.asarray(A_eq, dtype=float)
    c = np.asarray(c, dtype=float)
    b = np.asarray(b_eq, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise SizeError("non-finite LP data")
    m, n = A.shape
    if n > MAX_GRID_POINTS:
        raise SizeError("too many LP columns")
    neg = b < 0
    A[neg] *= -1
    b = b.copy()
    b[neg] *= -1

    # phase 1: artificial basis
    T = np.hstack([A, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(n, n + m))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    if not _simplex_iterate(T, basis, cost1, n + m):
        raise RuntimeError("phase-1 unbounded (cannot happen)")
    if cost1[basis] @ T[:, -1] > FEAS_TOL:
        return None, None, "infeasible"
    _drive_out_artificials(T, basis, n)

    # phase 2 on original columns only
    cost2 = np.concatenate([c, np.full(m, np.inf)])  # inf blocks artificials
    cost2[n:] = 0.0
    entering_cap = n
    if not _simplex_iterate(T, basis, cost2, entering_cap):
        raise RuntimeError("LP unbounded (cannot happen: objective bounded on simplex)")
    w = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            w[j] = T[i, -1]
    return w, float(c @ w), "optimal"


def _simplex_iterate(T, basis, cost, entering_cap, max_iter=100_000):
    m = T.shape[0]
    for _ in range(max_iter):
        cb = cost[basis]
        y = cb @ T[:, :-1]
        reduced = cost[:entering_cap] - y[:entering_cap]
        enter = -1
        for j in range(entering_cap):  # Bland: smallest index
            if j in basis:
                continue
            if reduced[j] < -FEAS_TOL:
                enter = j
                break
        if enter < 0:
            return True
        col = T[:, enter]
        best = None
        for i in range(m):
            if col[i] > FEAS_TOL:
                ratio = T[i, -1] / col[i]
                if best is None or ratio < best[0] - 1e-15 or (
                    abs(ratio - best[0]) <= 1e-15 and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return False
        _pivot(T, basis, best[1], enter)
    raise RuntimeError("simplex iteration limit reached")


def _drive_out_artificials(T, basis, n):
    m = T.shape[0]
    for i in range(m):
        if basis[i] >= n:
            row = T[i, :n]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > FEAS_TOL:
                _pivot(T, basis, i, j)
            # else: redundant row, harmless to leave the zero artificial basic


def _pivot(T, basis, i, j):
    T[i] /= T[i, j]
    for r in range(T.shape[0]):
        if r != i and T[r, j] != 0.0:
            T[r] -= T[r, j] * T[i]
    basis[i] = j


# ---------------------------------------------------------------------------
# Classical LP
# ---------------------------------------------------------------------------

def classical_min_variance(p, grid: GridSpec, mode="exact_law", relax_order=None) -> OptResult:
    """Minimum Var(Y) over gridded Y independent of Bernoulli(p) with X+Y symmetric.

    mode="exact_law" imposes the full mirror symmetry of the law of X+Y;
    mode="moment_relax" imposes only the odd-moment constraints
    m_{2k+1}(X+Y) = 0 for k = 0..relax_order. Both are linear in the grid
    weights; the objective minimizes m_2(Y) (the mean is pinned to -p by the
    k=0 constraint) and the reported objective is the variance of the
    returned measure.
    """
    pf = float(p)
    if not 0 < pf < 1:
        raise SizeError(f"p must lie in (0,1), got {p}")
    g = grid.points()
    nv = len(g)
    rows, rhs = [], []

    # total mass
    rows.append([1.0] * nv)
    rhs.append(1.0)

    if mode == "exact_law":
        # mass of X+Y at v: q*w[g=v] + p*w[g=v-1]; impose mass(v) = mass(-v)
        values = sorted(set(g) | {t + 1 for t in g})

        def mass_row(v):
            row = [0.0] * nv
            for i, t in enumerate(g):
                if abs(t - v) < 1e-9:
                    row[i] += 1.0 - pf
                if abs(t + 1 - v) < 1e-9:
                    row[i] += pf
            return row

        done = []
        for v in values:
            key = abs(v)
            if key < 1e-9 or any(abs(key - d) < 1e-9 for d in done):
                continue
            done.append(key)
            row = [a - b for a, b in zip(mass_row(key), mass_row(-key))]
            rows.append(row)
            rhs.append(0.0)
    elif mode == "moment_relax":
        if relax_order is None or relax_order < 0:
            raise SizeError("moment_relax needs relax_order >= 0")
        for k in range(relax_order + 1):
            n = 2 * k + 1
            # m_n(X+Y) = m_n(Y) + p * sum_{j=1..n} C(n,j) m_{n-j}(Y)
            row = [0.0] * nv
            for i, t in enumerate(g):
                coef = t**n + pf * sum(comb(n, j) * t ** (n - j) for j in range(1, n + 1))
                row[i] = coef
            rows.append(row)
            rhs.append(0.0)
    else:
        raise SizeError(f"unknown mode {mode!r}")

    c = [t * t for t in g]
    w, _, status = simplex_solve(c, rows, rhs)
    if status != "optimal":
        return OptResult(float("nan"), None, float("nan"), "infeasible")
    atoms = [(g[i], w[i]) for i in range(nv) if w[i] > 1e-12]
    total = sum(a[1] for a in atoms)
    atoms = [(t, wt / total) for t, wt in atoms]
    mu = DiscreteMeasure.from_atoms(atoms, mode="float")
    my = moments_of(mu, 13)
    msum = MomentSequence(
        tuple(
            my.values[n - 1]
            + pf * sum(comb(n, j) * mu_pow(mu, n - j) for j in range(1, n + 1))
            for n in range(1, 14)
        )
    )
    res = odd_moment_residual(msum)
    return OptResult(float(variance(mu)), mu, float(res), "optimal")


def mu_pow(mu, r):
    """r-th raw moment of a float measure (m_0 = 1)."""
    if r == 0:
        return 1.0
    return float(sum(w * t**r for t, w in mu.atoms))


# ---------------------------------------------------------------------------
# Free / Boolean penalized search
# ---------------------------------------------------------------------------

def _check_noncritical(p, allow_critical):
    pf = float(p)
    if not 0 < pf < 1:
        raise SizeError(f"p must lie in (0,1), got {p}")
    if pf == 0.5 and not allow_critical:
        raise CriticalCaseError()
    return pf


def _sum_odd_moments(locs, weights, e_kappa, kind, order):
    """Odd moments of e+y (a vector) and m2(y), for y supported on (locs, weights).

    Moments 1..order are transformed, so order must be at least 2; e_kappa
    holds e's cumulants to that order.
    """
    my = weights @ locs[:, None] ** np.arange(1, order + 1)
    if kind is IndependenceKind.FREE:
        ms = _free_k2m_float(e_kappa + _free_m2k_float(my))
    else:
        ky = _boolean_m2k_float(my.tolist())
        ms = np.array(_boolean_k2m_float([a + b for a, b in zip(e_kappa, ky)]))
    return ms[0::2], my[1]


def nc_min_variance(p, kind, cfg: SearchConfig = SearchConfig(), allow_critical=False) -> OptResult:
    """Search for min phi(y^2) over y (free or Boolean) symmetrizing e.

    Penalized Nelder-Mead over atom locations in [-3,2] and softmax weights,
    with an increasing penalty schedule on the squared odd moments of e+y.
    Multi-start: cfg.restarts random initializations plus the known equality
    candidate y = -e in law. Deterministic for a fixed config.
    """
    pf = _check_noncritical(p, allow_critical)
    kind = IndependenceKind(kind)
    if kind is IndependenceKind.CLASSICAL:
        raise SizeError("use classical_min_variance for the classical kind")
    order = max(cfg.max_odd_order, 2)  # m2(y) is the objective
    k = cfg.atom_budget
    me = [pf] * order  # Bernoulli(p) has m_n = p for all n
    e_kappa = _free_m2k_float(me) if kind is IndependenceKind.FREE else _boolean_m2k_float(me)

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
