import json

import numpy as np
import pytest

from symvar import matrixlab as ml
from symvar.cumulants import IndependenceKind, convolve_moments
from symvar.errors import CriticalCaseError, SizeError
from symvar.measures import DiscreteMeasure, bernoulli, moments_of

Y_LAW = DiscreteMeasure.from_atoms([(-1.0, 0.3), (0.0, 0.7)], mode="float")
THREE_ATOM = DiscreteMeasure.from_atoms([(-1.0, 0.2), (-0.5, 0.2), (0.0, 0.6)], mode="float")
# at n=7 the middle atom's multiplicity rounds to 0
EMPTY_ATOM = DiscreteMeasure.from_atoms([(-1.0, 0.45), (-0.5, 0.05), (0.0, 0.5)], mode="float")


def _dense_spectrum(model, u):
    """Eigenvalues of E + U D U*: the full-matrix model the reduction replaces."""
    e = np.zeros(model.n)
    e[: model.rank()] = 1.0
    d = ml._eigenvalue_vector(model.y_law, model.n)
    return np.linalg.eigvalsh(np.diag(e) + (u * d) @ u.conj().T)


def test_haar_unitary_is_unitary():
    u = ml.sample_haar_unitary(50, 123)
    assert np.max(np.abs(u @ u.conj().T - np.eye(50))) < 1e-10


def test_haar_unitary_deterministic():
    a = ml.sample_haar_unitary(20, 7)
    b = ml.sample_haar_unitary(20, 7)
    assert np.array_equal(a, b)


def test_haar_isometry_columns_orthonormal():
    for k in (0, 1, 17, 40):
        q = ml.sample_haar_isometry(40, k, 5)
        assert q.shape == (40, k)
        assert np.max(np.abs(q.conj().T @ q - np.eye(k)), initial=0.0) < 1e-12


def test_haar_unitary_scalar():
    u = ml.sample_haar_unitary(1, 3)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_model_validation():
    with pytest.raises(SizeError):
        ml.MatrixModel(n=1, p=0.3, y_law=Y_LAW, seed=0)
    with pytest.raises(SizeError):
        ml.MatrixModel(n=10, p=0.0, y_law=Y_LAW, seed=0)
    with pytest.raises(SizeError):
        ml.MatrixModel(n=ml.MAX_SIM_DIM + 1, p=0.3, y_law=Y_LAW, seed=0)
    with pytest.raises(SizeError):
        ml.MatrixModel(n=10, p=0.3, y_law=Y_LAW, seed=-1)


def test_spectral_multiplicities_largest_remainder():
    mu = DiscreteMeasure.from_atoms(
        [(-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)], mode="float"
    )
    counts = ml.spectral_multiplicities(mu, 10)
    assert counts.sum() == 10
    assert sorted(counts) == [3, 3, 4]
    counts = ml.spectral_multiplicities(Y_LAW, 1000)
    assert list(counts) == [300, 700]


def test_rank_rounding_reported():
    model = ml.MatrixModel(n=7, p=0.3, y_law=Y_LAW, seed=0)
    assert model.rank() == 2
    assert model.rank_error() == pytest.approx(abs(2 / 7 - 0.3))


def test_point_mass_zero_gives_projection_moments():
    point = DiscreteMeasure.from_atoms([(0.0, 1.0)], mode="float")
    model = ml.MatrixModel(n=200, p=0.3, y_law=point, seed=1)
    ms = ml.simulate_free_sum(model, 6)
    # E + 0 is idempotent: every moment is the normalized rank
    assert all(v == pytest.approx(0.3, abs=1e-12) for v in ms.values)


def test_simulation_deterministic_per_seed():
    model = ml.MatrixModel(n=100, p=0.3, y_law=Y_LAW, seed=13)
    a = ml.simulate_free_sum(model, 6)
    b = ml.simulate_free_sum(model, 6)
    assert a.values == b.values


@pytest.mark.parametrize("law", [Y_LAW, THREE_ATOM], ids=["two_atom", "three_atom"])
@pytest.mark.parametrize("p", [0.3, 0.7])
def test_simulated_moments_near_free_prediction(p, law):
    model = ml.MatrixModel(n=600, p=p, y_law=law, seed=21)
    ms = ml.simulate_free_sum(model, 6)
    predicted = convolve_moments(
        moments_of(bernoulli(p), 6), moments_of(law, 6), IndependenceKind.FREE
    )
    for emp, pred in zip(ms.values, predicted.values):
        assert emp == pytest.approx(pred, abs=0.05)


@pytest.mark.parametrize(
    "law,n,p",
    [
        (Y_LAW, 40, 0.3),
        (Y_LAW, 40, 0.7),
        (THREE_ATOM, 40, 0.3),
        (THREE_ATOM, 41, 0.7),
        (Y_LAW, 7, 0.05),  # rank 0
        (THREE_ATOM, 7, 0.95),  # rank n
        (EMPTY_ATOM, 7, 0.3),
        (EMPTY_ATOM, 7, 0.7),
    ],
)
def test_rotated_spectrum_is_exact_reduction(law, n, p):
    model = ml.MatrixModel(n=n, p=p, y_law=law, seed=0)
    r = model.rank()
    s = min(r, n - r)
    sigma, shift = (1.0, 0.0) if r <= n - r else (-1.0, 1.0)
    q = ml.sample_haar_isometry(n, s, 31)
    got = np.sort(ml._rotated_spectrum(model, q))
    d = ml._eigenvalue_vector(law, n)
    want = shift + np.linalg.eigvalsh(np.diag(d) + sigma * q @ q.conj().T)
    assert np.max(np.abs(got - want)) < 1e-12
    # complete q to a unitary V with q spanning the range of E (sigma = +1) or
    # of I - E (sigma = -1); then E + V* D V is the full model with the same law
    v = np.linalg.qr(np.hstack([q, ml.sample_haar_isometry(n, n - s, 32)]))[0]
    if sigma < 0:
        v = np.roll(v, n - s, axis=1)
    assert np.max(np.abs(got - _dense_spectrum(model, v.conj().T))) < 1e-12


@pytest.mark.parametrize("law", [Y_LAW, THREE_ATOM], ids=["two_atom", "three_atom"])
@pytest.mark.parametrize("p", [0.3, 0.7])
def test_law_matches_dense_haar_model(p, law):
    n, reps, order = 60, 200, 6
    ks = np.arange(1, order + 1)
    new = np.empty((reps, order))
    old = np.empty((reps, order))
    for seed in range(reps):
        model = ml.MatrixModel(n=n, p=p, y_law=law, seed=seed)
        new[seed] = ml.simulate_free_sum(model, order).values
        lam = _dense_spectrum(model, ml.sample_haar_unitary(n, seed))
        old[seed] = [np.mean(lam**k) for k in ks]
    stderr = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / reps)
    diff = np.abs(new.mean(axis=0) - old.mean(axis=0))
    assert np.all(diff <= 5.0 * stderr + 1e-12), (diff, stderr)


def test_spectral_function_application():
    # applying psi on eigenvalues and reconstructing preserves power traces
    from symvar.certificate import psi

    model = ml.MatrixModel(n=60, p=0.3, y_law=Y_LAW, seed=3)
    e = np.zeros(60)
    e[: model.rank()] = 1.0
    d = np.repeat(
        [t for t, _ in Y_LAW.atoms], ml.spectral_multiplicities(Y_LAW, 60)
    )
    u = ml.sample_haar_unitary(60, model.seed)
    a = np.diag(e).astype(complex) + (u * d) @ u.conj().T
    lam, vec = np.linalg.eigh(a)
    flam = np.array([psi(t, 0.3) for t in lam])
    b = (vec * flam) @ vec.conj().T
    for k in range(1, 5):
        assert np.trace(np.linalg.matrix_power(b, k)).real / 60 == pytest.approx(
            float(np.mean(flam**k)), abs=1e-10
        )


def test_commuting_model_is_exactly_classical():
    model = ml.MatrixModel(n=1000, p=0.3, y_law=Y_LAW, seed=5)
    # polynomial test functions of degree <= 8, plus the dual function itself
    for deg in range(1, 9):
        resid = ml.test_proof_identity(
            model, grid_free=False, func=lambda t, d=deg: t**d
        )
        assert resid < 1e-12
    assert ml.test_proof_identity(model, grid_free=False) < 1e-12


def test_linear_function_always_satisfies_expansion():
    model = ml.MatrixModel(n=300, p=0.3, y_law=Y_LAW, seed=9)
    assert ml.test_proof_identity(model, grid_free=True, func=lambda t: t) < 1e-12


def test_proof_identity_rejects_critical_case():
    model = ml.MatrixModel(n=100, p=0.5, y_law=Y_LAW, seed=1)
    with pytest.raises(CriticalCaseError):
        ml.test_proof_identity(model)


def test_proof_identity_report_rows():
    rows = ml.proof_identity_report(0.3, Y_LAW, dims=[50, 100], seeds_per_dim=3, master_seed=42)
    assert len(rows) == 6
    for row in rows:
        assert set(row) == {"n", "seed", "rotated_residual", "commuting_residual"}
        assert row["rotated_residual"] >= 0.0


def test_empirical_vs_predicted_report():
    model = ml.MatrixModel(n=300, p=0.3, y_law=Y_LAW, seed=11)
    report = ml.empirical_vs_predicted(model, 6, 5)
    assert len(report["orders"]) == 6
    assert report["rank_error"] == 0.0
    assert not report["any_flagged"]
    csv_text = ml.moments_csv(report)
    header = csv_text.splitlines()[0]
    assert header == "n,seed,order,empirical,predicted,abs_error"
    assert len(csv_text.splitlines()) == 7


def _reject_non_finite(token):
    raise ValueError(f"non-finite number {token} in output")


def test_empirical_vs_predicted_degenerate_smoke():
    model = ml.MatrixModel(n=2, p=0.4, y_law=Y_LAW, seed=11)
    report = ml.empirical_vs_predicted(model, 3, 1)
    assert len(report["orders"]) == 3  # wide tolerance, report still produced
    # one rep has no standard error: null in strict JSON, and nothing is flagged
    obj = json.loads(ml.report_json(report), parse_constant=_reject_non_finite)
    assert [r["stderr"] for r in obj["orders"]] == [None] * 3
    assert not obj["any_flagged"]


def test_reps_validation():
    model = ml.MatrixModel(n=10, p=0.3, y_law=Y_LAW, seed=0)
    with pytest.raises(SizeError):
        ml.empirical_vs_predicted(model, 4, 0)
    with pytest.raises(SizeError):
        ml.proof_identity_report(0.3, Y_LAW, [20], 0, 1)
    with pytest.raises(SizeError):
        ml.proof_identity_report(0.3, Y_LAW, [20, 1], 1, 1)
    with pytest.raises(SizeError):
        ml.proof_identity_report(0.3, Y_LAW, [20], 1, -1)
    with pytest.raises(SizeError):
        ml.simulate_free_sum(model, 14)


@pytest.mark.filterwarnings("error")
def test_simulate_free_sum_refuses_moments_beyond_float_range():
    # the 13th moment of a point mass at 1e25 overflows; no numpy warning may escape
    law = DiscreteMeasure.from_atoms([(1e25, 1.0)], mode="float")
    with pytest.raises(SizeError):
        ml.simulate_free_sum(ml.MatrixModel(20, 0.3, law, 1), 13)
    assert np.isfinite(ml.simulate_free_sum(ml.MatrixModel(20, 0.3, law, 1), 12).values).all()
