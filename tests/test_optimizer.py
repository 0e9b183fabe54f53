import json
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import OptimizeResult

import stacked_kernel
from symvar import optimizer
from symvar.cumulants import (
    MAX_ORDER,
    IndependenceKind,
    MomentSequence,
    _free_m2k_jac,
    convolve_moments,
    moments_to_cumulants,
    odd_moment_residual,
)
from symvar.errors import CriticalCaseError, SizeError, SymvarError
from symvar.measures import bernoulli, moments_of, negate, variance
from symvar.optimizer import (
    MAX_ATOMS,
    MAX_GRID_POINTS,
    MAX_RELAX_ORDER,
    MAX_RESTARTS,
    GridSpec,
    OptResult,
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
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(SymvarError, match="Numerical difficulties"):
        classical_min_variance(0.3, GRID)


def _perturbed_linprog(monkeypatch, scale):
    """Make every LP return HiGHS's solution with its first positive entry scaled."""
    linprog = scipy.optimize.linprog

    def perturbed(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.x[np.flatnonzero(res.x > 1e-6)[0]] *= scale
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", perturbed)


@pytest.mark.parametrize("solve", [
    lambda: classical_min_variance(0.3, GRID),
    lambda: classical_min_variance(0.3, GRID, mode="moment_relax", relax_order=MAX_RELAX_ORDER),
    lambda: nc_min_variance(0.9, "boolean"),
])
def test_lp_reports_feasible_above_the_residual_gate(monkeypatch, solve):
    _perturbed_linprog(monkeypatch, 1.0 + 1e-14)  # within the gate
    assert solve().status == "optimal"
    monkeypatch.undo()
    _perturbed_linprog(monkeypatch, 1.0 + 1e-6)
    result = solve()
    assert result.status == "feasible"
    assert result.residual > optimizer.LP_GATE


def test_lp_gate_reads_only_the_constrained_orders():
    # moment_relax at relax_order 1 leaves m_5 .. m_13 of X + Y free: the
    # reported residual (all odd orders to 13) is large, the LP is optimal
    result = classical_min_variance(0.3, GRID, mode="moment_relax", relax_order=1)
    assert result.status == "optimal"
    assert result.residual > 1.0


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
        SearchConfig(penalty_weights=(1e4, 1e2))
    with pytest.raises(SizeError):
        SearchConfig(restarts=0)
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


def test_free_search_calls_the_module_minimize_once_per_start(monkeypatch):
    # bench/tracing.py counts SLSQP evaluations by wrapping optimizer.minimize
    calls = []
    original = optimizer.minimize

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer, "minimize", counting)
    cfg = SearchConfig(restarts=3, atom_budget=2, seed=4)
    assert nc_min_variance(0.3, "free", cfg).status == "optimal"
    assert len(calls) == cfg.restarts + 1


def test_nc_search_deterministic():
    a = nc_min_variance(0.7, "free", SMALL)
    b = nc_min_variance(0.7, "free", SMALL)
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
    assert obj["order"] is None  # exact_law constrains the whole law
    relaxed = classical_min_variance(0.3, GRID, mode="moment_relax", relax_order=2)
    assert json.loads(relaxed.to_json())["order"] == 5


@pytest.mark.parametrize("p", [0.3, 0.7])
@pytest.mark.parametrize("kind", ["free"])
def test_sum_odd_moments_vanish_at_equality_case(kind, p):
    # y = -e in law symmetrizes e in every sense: all odd moments of e + y
    # vanish, and so do its odd cumulants, which the search constrains
    kind = IndependenceKind(kind)
    for order in range(2, 14):
        e_kappa = np.array(moments_to_cumulants(MomentSequence((p,) * order), kind).values)
        value, _ = optimizer._constraint(np.array([-1.0, 0.0]), np.array([p, 1 - p]), e_kappa)
        assert value.shape == ((order + 1) // 2 + 1,)  # the odd cumulants and the mass row
        assert np.abs(value).max() <= 1e-12


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_boolean_lp_rows_hold_at_equality_case(p, monkeypatch):
    # y = -e has F-transform measure rho = pq delta_{-q}: that point of the
    # LP's columns meets every row, and rho's odd moments are the odd Boolean
    # cumulants k_3, k_5, .. of -e
    q = 1 - p
    calls = []

    def capture(c, A_eq, b_eq, **kwargs):
        calls.append((A_eq, b_eq))
        return linprog(c, A_eq=A_eq, b_eq=b_eq, **kwargs)

    linprog = scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog", capture)
    optimizer._boolean_lp(p, MAX_ORDER)
    (A, b), = calls
    t = np.array(GridSpec(-3.0, 2.0, 0.0025, must_include=(p - 1.0,)).points())
    assert A.shape == ((MAX_ORDER - 1) // 2, len(t))
    rho = np.where(t == -q, p * q, 0.0)
    assert np.abs(A @ rho - b).max() <= 1e-15
    exact_p = F(str(p))
    exact_q = 1 - exact_p
    kappa = moments_to_cumulants(moments_of(negate(bernoulli(exact_p)), MAX_ORDER), "boolean").values
    assert [kappa[j + 1] for j in range(1, MAX_ORDER - 1, 2)] == [
        exact_p * exact_q * (-exact_q) ** j for j in range(1, MAX_ORDER - 1, 2)
    ]


@pytest.mark.parametrize("kind", ["free", "boolean"])
def test_search_residual_is_the_convolution_residual_of_its_measure(kind):
    # the search reports what the LP reports: the largest odd moment of e + y,
    # through convolve_moments, recomputed from the returned measure
    result = nc_min_variance(0.3, kind, SearchConfig(restarts=2, seed=99))
    msum = convolve_moments(moments_of(bernoulli(0.3), MAX_ORDER),
                            moments_of(result.measure, MAX_ORDER), kind)
    assert result.residual == float(odd_moment_residual(msum))
    assert result.order == MAX_ORDER


@pytest.mark.parametrize("p", [round(0.05 * i, 2) for i in range(1, 20) if i != 10])
def test_boolean_lp_sweep(p):
    result = nc_min_variance(p, "boolean")
    assert result.status == "optimal"
    assert result.residual <= 1e-9
    assert result.evaluations == 0 and result.order == MAX_ORDER
    if p <= 0.70:
        assert abs(result.objective - p) <= 1e-6


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_boolean_lp_gives_the_equality_case(p):
    # criterion 4's points: y = -e, m_2 = p
    result = nc_min_variance(p, "boolean")
    assert abs(result.objective - p) <= 1e-9
    assert result.residual < 1e-9
    atoms = result.measure.atoms
    assert [t for t, _ in atoms] == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert [w for _, w in atoms] == pytest.approx([p, 1 - p], abs=1e-12)


def test_boolean_lp_falls_below_p_at_order_13():
    # truncation, not a counterexample: at p = 0.9 the order-13 minimum is
    # feasible to 1e-9 and about p - 0.043, and it rises with the order
    result = nc_min_variance(0.9, "boolean", SearchConfig(seed=1))  # cfg is not read
    assert result.objective < 0.87
    assert result.residual < 1e-9
    minima = [optimizer._boolean_lp(0.9, order).objective for order in (13, 17, 21)]
    assert minima[0] < minima[1] < minima[2] < 0.9


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_arrowhead_recovers_y_from_rho(p, monkeypatch):
    # rho = pq delta_{-q} is the F-transform measure of y = -e; the law read
    # off the arrowhead matrix is -e to 1e-12
    q = 1 - p
    t = np.array(GridSpec(-3.0, 2.0, 0.0025, must_include=(-q,)).points())
    rho = np.where(t == -q, p * q, 0.0)
    monkeypatch.setattr(optimizer, "_lp", lambda c, A, b: rho)
    atoms = optimizer._boolean_lp(p, MAX_ORDER).measure.atoms
    assert [a for a, _ in atoms] == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert [w for _, w in atoms] == pytest.approx([p, q], abs=1e-12)


def test_infeasible_lp_is_reported_with_its_order(monkeypatch):
    # _lp returns None for an infeasible LP; each LP reports it as a result
    # that names the order it constrained, with nothing else
    monkeypatch.setattr(optimizer, "_lp", lambda c, A, b: None)
    results = {
        13: optimizer._boolean_lp(0.3, MAX_ORDER),
        None: classical_min_variance(0.3, GRID),
        5: classical_min_variance(0.3, GRID, mode="moment_relax", relax_order=2),
    }
    for order, result in results.items():
        assert result == OptResult(objective=None, status="infeasible", residual=None,
                                   measure=None, evaluations=0, order=order)


def test_search_does_not_revive_dropped_atoms():
    # regression: a least-squares projection of this job ran to scipy's
    # evaluation cap; an earlier one, free to move every atom, put weight back
    # on an atom the search had dropped and ended at p + 8.5e-4
    result = nc_min_variance(0.3, "free", SearchConfig(restarts=8, seed=135))
    assert abs(result.objective - 0.3) <= 1e-6
    assert result.residual < 1e-8


def test_evaluations_count_every_row_evaluated(monkeypatch):
    # every SLSQP point and every candidate passes through _constraint, one row
    # each; the objective m2 does not, and the final report goes through
    # convolve_moments. A point's value and Jacobian come from one row, and the
    # candidates, the starts and then the solves, come last
    points, runs = [], []

    def counting_constraint(locs, weights, e_kappa):
        points.append(np.r_[locs, weights])
        return constraint(locs, weights, e_kappa)

    def recording_minimize(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        runs.append((x0.copy(), res.x))
        return res

    constraint, minimize = optimizer._constraint, optimizer.minimize
    monkeypatch.setattr(optimizer, "_constraint", counting_constraint)
    monkeypatch.setattr(optimizer, "minimize", recording_minimize)
    cfg = SearchConfig(restarts=1, atom_budget=3, seed=5)
    result = nc_min_variance(0.3, "free", cfg)
    candidates = 2 * (cfg.restarts + 1)
    assert result.evaluations == len(points) > candidates
    starts, solves = zip(*runs)
    assert np.array_equal(points[-candidates:], np.vstack(starts + solves))
    assert json.loads(result.to_json())["evaluations"] == result.evaluations


def _random_laws(rng, count, atoms):
    """count rows (locations in BOX, Dirichlet weights) on the given number of atoms."""
    return np.c_[rng.uniform(*optimizer.BOX, (count, atoms)), rng.dirichlet(np.ones(atoms), count)]


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_constraint_matches_the_stacked_kernel_bit_for_bit(p):
    # the row-by-row kernel computes each entry as the stacked one did on one
    # row: same constraint values and Jacobian, so the same SLSQP trajectories
    e_kappa = _free_m2k_jac(np.full(MAX_ORDER, p))[0]
    assert e_kappa.tobytes() == stacked_kernel.free_m2k_float(np.full(MAX_ORDER, p)).tobytes()
    rng = np.random.default_rng(23)
    for atoms in (1, 2, 6, 9):
        for z in _random_laws(rng, 50, atoms):
            value, jacobian = optimizer._constraint(z[:atoms], z[atoms:], e_kappa)
            expected_value, expected_jac = stacked_kernel.constraint(z[:atoms], z[atoms:], e_kappa)
            assert value.tobytes() == expected_value.tobytes()
            assert jacobian().shape == expected_jac.shape == (len(value), 2 * atoms)
            assert jacobian().tobytes() == expected_jac.tobytes()


def test_constraint_memo_follows_in_place_changes(monkeypatch):
    # SLSQP changes its x in place between calls: after fun(x), x changed in
    # place must give the Jacobian and value at the new x, not the memo's
    constraints = []

    def capture(fun, x0, **kwargs):
        constraints.append(kwargs["constraints"])
        return OptimizeResult(x=x0)

    monkeypatch.setattr(optimizer, "minimize", capture)
    atoms = 4
    nc_min_variance(0.3, "free", SearchConfig(restarts=1, atom_budget=atoms, seed=3))
    fun, jac = constraints[0]["fun"], constraints[0]["jac"]
    e_kappa = _free_m2k_jac(np.full(MAX_ORDER, 0.3))[0]
    a, b = _random_laws(np.random.default_rng(8), 2, atoms)
    expected = {z.tobytes(): stacked_kernel.constraint(z[:atoms], z[atoms:], e_kappa)
                for z in (a, b)}
    x = a.copy()
    fun(x)
    for z in (b, a):  # the Jacobian asked for first, as SLSQP does at its start
        x[:] = z
        value, jacobian = expected[z.tobytes()]
        assert np.array_equal(jac(x), jacobian)
        assert np.array_equal(fun(x), value)
    # the Jacobian is built after fun, from the memo's own copy of the point:
    # x changed in place since must not reach it
    x[:] = b
    fun(x)
    x[:] = a
    assert np.array_equal(jac(b.copy()), expected[b.tobytes()][1])
    # a second request at the same point builds nothing: no row, the same array
    rows = []
    monkeypatch.setattr(optimizer, "_constraint", lambda *args: rows.append(args))
    assert jac(b) is jac(b) and not rows


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_complex_step_through_odd_cumulants(p):
    # the search's constraint Jacobian is analytic (dk_n/dm_j = [t^(n-j)] S^n
    # and the chain rule through the moments); two oracles check it. The
    # complex step: the map on z + ih e_j, the oracle's stacked moments then
    # the kernel row by row, has real part the float map (to rounding, which
    # scales with y's largest moment) and imag / h the derivative, since the
    # kernel has no abs, float buffer or branch on a value. And a five-point
    # central difference
    e_kappa = _free_m2k_jac(np.full(MAX_ORDER, p))[0]
    rng = np.random.default_rng(0)
    laws = [np.array([-1.0, 0.0, p, 1 - p])]  # the equality case y = -e
    laws += [np.r_[rng.uniform(-3, 2, 4), rng.dirichlet(np.ones(4))] for _ in range(2)]
    for z in laws:
        k, eye, h, d = len(z) // 2, np.eye(len(z)), 1e-30, 3e-4

        def f(rows):
            m = stacked_kernel._moments(rows[:, :k], rows[:, k:], MAX_ORDER)
            odd = (np.array([_free_m2k_jac(row)[0] for row in m]) + e_kappa)[:, 0::2]
            return np.hstack([odd, rows[:, k:].sum(axis=1, keepdims=True) - 1.0])

        value, jacobian = optimizer._constraint(z[:k], z[k:], e_kappa)
        jac = jacobian()
        stepped = f(z + 1j * h * eye)
        scale = np.abs(stacked_kernel._moments(z[:k], z[k:], MAX_ORDER)).max()
        assert np.abs(stepped.real - value).max() <= 1e-15 * scale
        assert np.abs(jac - stepped.imag.T / h).max() <= 1e-12 * scale
        central = (8 * (f(z + d * eye) - f(z - d * eye))
                   - (f(z + 2 * d * eye) - f(z - 2 * d * eye))).T / (12 * d)
        assert (np.abs(jac - central) <= 1e-6 * np.abs(jac).max(axis=1, keepdims=True)).all()
