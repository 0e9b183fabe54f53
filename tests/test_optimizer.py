import json

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, minimize, rosen

from symvar import optimizer
from symvar.cumulants import (
    IndependenceKind,
    MomentSequence,
    convolve_moments,
    moments_to_cumulants,
    odd_moment_residual,
)
from symvar.errors import CriticalCaseError, SizeError, SymvarError
from symvar.measures import bernoulli, moments_of, variance
from symvar.optimizer import (
    MAX_ATOMS,
    MAX_GRID_POINTS,
    MAX_RELAX_ORDER,
    MAX_RESTARTS,
    GridSpec,
    SearchConfig,
    classical_min_variance,
    nc_min_variance,
)

GRID = GridSpec(-2.0, 1.0, 0.25)


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.45, 0.6, 0.75, 0.9])
def test_classical_lp_attains_pq(p):
    result = classical_min_variance(p, GRID)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(p * (1 - p), abs=1e-9)
    atoms = dict(result.measure.atoms)
    assert atoms[-1.0] == pytest.approx(p, abs=1e-9)
    assert atoms[0.0] == pytest.approx(1 - p, abs=1e-9)
    # objective is recomputed from the measure, not solver internals
    assert variance(result.measure) == pytest.approx(result.objective, abs=1e-12)


def test_classical_lp_spec_example_grid():
    result = classical_min_variance(0.3, GridSpec(-2.0, 1.0, 0.5))
    assert result.objective == pytest.approx(0.21, abs=1e-9)


def test_classical_half_p_upper_bound_only():
    # p = 1/2 the true minimum is open; y = -X gives Var = 1/4 upper bound
    result = classical_min_variance(0.5, GRID)
    assert result.status == "optimal"
    assert result.objective <= 0.25 + 1e-9


def test_moment_relaxation_monotone_in_k():
    exact = classical_min_variance(0.3, GRID).objective
    prev = -1.0
    for K in range(5):
        r = classical_min_variance(0.3, GRID, mode="moment_relax", relax_order=K)
        assert r.objective >= prev - 1e-9
        assert r.objective <= exact + 1e-9
        prev = r.objective


def test_infeasible_grid():
    # no grid point can pair with the +1 shift to symmetrize: all mass far positive
    result = classical_min_variance(0.3, GridSpec(3.0, 4.0, 0.5, must_include=()))
    assert result.status == "infeasible"
    # the mean of X+Y cannot be 0 with Y >= 0.1
    result = classical_min_variance(0.3, GridSpec(0.1, 0.9, 0.1, must_include=()))
    assert result.status == "infeasible"


def test_lp_solver_failure_is_an_error(monkeypatch):
    # a HiGHS status other than optimal (0) or infeasible (2) is never reported as a result
    failed = OptimizeResult(status=4, message="Numerical difficulties encountered.")
    monkeypatch.setattr(optimizer, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(SymvarError, match="Numerical difficulties"):
        classical_min_variance(0.3, GRID)


def test_lp_input_contract():
    for order in (-1, MAX_RELAX_ORDER + 1, 600, None):
        with pytest.raises(SizeError):
            classical_min_variance(0.3, GRID, mode="moment_relax", relax_order=order)
    # t**13 overflows on this grid: rejected as non-finite data, not an OverflowError
    with pytest.raises(SizeError, match="non-finite"):
        classical_min_variance(0.3, GridSpec(-1e30, 1e30, 1e28), mode="moment_relax",
                               relax_order=MAX_RELAX_ORDER)
    with pytest.raises(SizeError):
        classical_min_variance(0.3, GRID, mode="simplex")


@pytest.mark.parametrize("grid, order", [((-1e30, 1e30, 1e28), 1), ((-1e30, 1e30, 1e28), 0),
                                         ((-1e3, 1e3, 1.0), 2), ((-20.0, 20.0, 0.1), 6)])
def test_moment_relax_refuses_badly_scaled_rows(grid, order):
    # HiGHS called each of these LPs infeasible, although -e in law is on the grid
    with pytest.raises(SizeError, match="too wide"):
        classical_min_variance(0.3, GridSpec(*grid), mode="moment_relax", relax_order=order)


@pytest.mark.parametrize("grid, order", [((-5.0, 5.0, 0.01), 6), ((-1e3, 1e3, 1.0), 1)])
def test_moment_relax_wide_grids_that_still_solve(grid, order):
    result = classical_min_variance(0.3, GridSpec(*grid), mode="moment_relax", relax_order=order)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.21, abs=1e-9)


def test_exact_law_at_grid_point_bound():
    grid = GridSpec(-2.0, 1.0, 3.0 / MAX_GRID_POINTS)
    assert len(grid.points()) > MAX_GRID_POINTS
    result = classical_min_variance(0.3, grid)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.21, abs=1e-9)
    assert result.residual <= 1e-9
    with pytest.raises(SizeError):
        GridSpec(-2.0, 1.0, 2.9 / MAX_GRID_POINTS)


def test_moment_relax_601_points_is_feasible():
    # regression: the dense simplex reported this LP optimal at residual 0.31
    result = classical_min_variance(0.3, GridSpec(-2.0, 1.0, 0.005), mode="moment_relax",
                                    relax_order=MAX_RELAX_ORDER)
    assert result.status == "optimal"
    assert result.residual <= 1e-9
    assert result.objective == pytest.approx(0.21, abs=1e-9)


def test_grid_spec_validation():
    with pytest.raises(SizeError):
        GridSpec(1.0, 0.0, 0.5)
    with pytest.raises(SizeError):
        GridSpec(0.0, 1.0, -0.5)
    with pytest.raises(SizeError):
        GridSpec(0.0, 1e6, 1e-3)
    for bad in ((0.0, 1.0, float("nan")), (float("-inf"), 1.0, 0.5), (0.0, 1.0, 0.5, (float("nan"),))):
        with pytest.raises(SizeError):
            GridSpec(*bad)


def test_search_config_validation():
    with pytest.raises(SizeError):
        SearchConfig(max_odd_order=12)
    with pytest.raises(SizeError):
        SearchConfig(penalty_weights=(1e4, 1e2))
    with pytest.raises(SizeError):
        SearchConfig(restarts=0)
    for order in (-1, 0, 15):
        with pytest.raises(SizeError):
            SearchConfig(max_odd_order=order)
    with pytest.raises(SizeError):
        SearchConfig(seed=-1)
    SearchConfig(atom_budget=MAX_ATOMS)
    with pytest.raises(SizeError):
        SearchConfig(atom_budget=MAX_ATOMS + 1)
    SearchConfig(restarts=MAX_RESTARTS)
    with pytest.raises(SizeError):
        SearchConfig(restarts=MAX_RESTARTS + 1)


def test_nc_rejects_critical_and_classical():
    with pytest.raises(CriticalCaseError):
        nc_min_variance(0.5, "free")
    with pytest.raises(SizeError):
        nc_min_variance(0.3, "classical")


SMALL = SearchConfig(restarts=2, seed=99)


@pytest.mark.parametrize("kind", ["free", "boolean"])
def test_nc_search_small_config(kind):
    result = nc_min_variance(0.3, kind, SMALL)
    assert result.status == "optimal"
    assert result.residual < 1e-6
    assert 0.3 - 1e-4 <= result.objective <= 0.3 + 1e-3
    # falsification alarm: a converged objective below the theorem's bound
    assert not (result.objective < 0.3 - 1e-4 and result.residual < 1e-8)


def test_nc_search_deterministic():
    a = nc_min_variance(0.7, "boolean", SMALL)
    b = nc_min_variance(0.7, "boolean", SMALL)
    assert a.objective == b.objective
    assert a.residual == b.residual
    assert a.measure.atoms == b.measure.atoms


def test_opt_result_json():
    result = classical_min_variance(0.3, GRID)
    obj = json.loads(result.to_json())
    assert obj["status"] == "optimal"
    assert abs(obj["objective"] - 0.21) < 1e-9
    assert obj["measure"]["mode"] == "float"
    assert obj["evaluations"] == 0


@pytest.mark.parametrize("p", [0.3, 0.7])
@pytest.mark.parametrize("kind", ["free", "boolean"])
def test_sum_odd_moments_vanish_at_equality_case(kind, p):
    # y = -e in law symmetrizes e in every sense: all odd moments of e + y
    # vanish, and so do its odd cumulants, which the search penalizes
    kind = IndependenceKind(kind)
    for order in range(2, 14):
        e_kappa = np.array(moments_to_cumulants(MomentSequence((p,) * order), kind).values)
        odd, m2 = optimizer._odd_cumulants(
            np.array([[-1.0, 0.0]]), np.array([[p, 1 - p]]), e_kappa, kind
        )
        assert odd.shape == (1, (order + 1) // 2)
        assert np.abs(odd).max() <= 1e-12
        assert m2 == pytest.approx(p, abs=1e-15)


@pytest.mark.parametrize("kind", ["free", "boolean"])
@pytest.mark.parametrize("max_odd_order", [1, 3])
def test_nc_search_low_orders(kind, max_odd_order):
    cfg = SearchConfig(max_odd_order=max_odd_order, restarts=1, atom_budget=2, seed=5)
    result = nc_min_variance(0.3, kind, cfg)
    assert result.status == "optimal"
    assert result.residual < 1e-6
    assert result.objective <= 0.3 + 1e-3


@pytest.mark.parametrize("kind", ["free", "boolean"])
def test_search_residual_is_the_convolution_residual_of_its_measure(kind):
    # the search reports what the LP reports: the largest odd moment of e + y,
    # through convolve_moments, recomputed from the returned measure
    cfg = SearchConfig(restarts=2, seed=99)
    result = nc_min_variance(0.3, kind, cfg)
    order = cfg.max_odd_order
    msum = convolve_moments(moments_of(bernoulli(0.3), order), moments_of(result.measure, order),
                            kind)
    assert result.residual == float(odd_moment_residual(msum))


def test_evaluations_count_every_row_evaluated(monkeypatch):
    # every objective, candidate and projection row passes through _moments; the
    # final report goes through convolve_moments and is not counted
    rows = []

    def counting_moments(locs, weights, order):
        rows.append(len(locs))
        return moments(locs, weights, order)

    moments = optimizer._moments
    monkeypatch.setattr(optimizer, "_moments", counting_moments)
    result = nc_min_variance(0.3, "boolean", SearchConfig(restarts=1, atom_budget=2, seed=5))
    assert result.evaluations == sum(rows) > 0
    assert 4 * 2 in rows  # one lockstep call: four trial points for each of the two starts
    assert json.loads(result.to_json())["evaluations"] == result.evaluations


QUADRATIC_CENTRE = np.array([0.3, -1.7, 2.1, 0.9])


def quadratic(x):
    return ((x - QUADRATIC_CENTRE) ** 2 * np.arange(1, 5)).sum()


@pytest.mark.parametrize("fun", [quadratic, rosen])
@pytest.mark.parametrize("maxiter, tol", [(60, 1e-7), (600, 1e-8), (3000, 0.0)])
def test_lockstep_nelder_mead_matches_scipy(fun, maxiter, tol):
    # scipy's Nelder-Mead is the oracle: each lane must take exactly its steps
    starts = np.random.default_rng(3).normal(size=(5, 4))
    starts[0, 1] = 0.0  # a zero coordinate gets the absolute initial step
    x, f, nfev = optimizer._nelder_mead(
        lambda rows: np.array([fun(row) for row in rows]), starts, maxiter, tol, tol
    )
    options = {"maxiter": maxiter, "xatol": tol, "fatol": tol}
    runs = [minimize(fun, x0, method="Nelder-Mead", options=options) for x0 in starts]
    for i, run in enumerate(runs):
        assert np.abs(x[i] - run.x).max() <= 1e-12
        assert abs(f[i] - run.fun) <= 1e-12
        assert nfev[i] == run.nfev
    if maxiter == 600:
        # lanes stop early, at different iterations, while others go on
        assert min(run.nit for run in runs) < max(run.nit for run in runs) <= maxiter
    if tol == 0.0:
        # a lane shrank: it evaluated more than the initial simplex and two points per step
        assert any(run.nfev > 5 + 2 * (run.nit - 1) for run in runs)
