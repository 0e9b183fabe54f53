import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from haar_oracle import bartlett_assembly, rotated_spectrum, sample_haar_isometry, sample_haar_unitary
from symvar import matrixlab as ml
from symvar.cumulants import IndependenceKind, convolve_moments
from symvar.errors import CriticalCaseError, SizeError
from symvar.measures import DiscreteMeasure, bernoulli, moments_of
from symvar.optimizer import SearchConfig

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
    u = sample_haar_unitary(50, 123)
    assert np.max(np.abs(u @ u.conj().T - np.eye(50))) < 1e-10


def test_haar_unitary_deterministic():
    a = sample_haar_unitary(20, 7)
    b = sample_haar_unitary(20, 7)
    assert np.array_equal(a, b)


def test_haar_isometry_columns_orthonormal():
    for k in (0, 1, 17, 40):
        q = sample_haar_isometry(40, k, 5)
        assert q.shape == (40, k)
        assert np.max(np.abs(q.conj().T @ q - np.eye(k)), initial=0.0) < 1e-12


def test_haar_isometry_refuses_k_outside_0_to_n():
    for k in (-1, 41):
        with pytest.raises(SizeError):
            sample_haar_isometry(40, k, 5)


def test_haar_unitary_scalar():
    u = sample_haar_unitary(1, 3)
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
    q = sample_haar_isometry(n, s, 31)
    got = np.sort(rotated_spectrum(model, q))
    d = ml._eigenvalue_vector(law, n)
    want = shift + np.linalg.eigvalsh(np.diag(d) + sigma * q @ q.conj().T)
    assert np.max(np.abs(got - want)) < 1e-12
    # complete q to a unitary V with q spanning the range of E (sigma = +1) or
    # of I - E (sigma = -1); then E + V* D V is the full model with the same law
    v = np.linalg.qr(np.hstack([q, sample_haar_isometry(n, n - s, 32)]))[0]
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
        lam = _dense_spectrum(model, sample_haar_unitary(n, seed))
        old[seed] = [np.mean(lam**k) for k in ks]
    stderr = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / reps)
    diff = np.abs(new.mean(axis=0) - old.mean(axis=0))
    assert np.all(diff <= 5.0 * stderr + 1e-12), (diff, stderr)


# Two-atom laws, drawn from their principal angles: (n, p, first-atom weight)
# for n_1 < s, n_2 < s, a = b = 0, r > n - r (a = 0), n_1 > s, rank 0,
# rank n, and an atom whose multiplicity rounds to 0 (n_1 = 0).
ANGLE_SHAPES = [
    (20, 0.5, 0.3),
    (20, 0.5, 0.8),
    (20, 0.5, 0.5),
    (20, 0.7, 0.3),
    (20, 0.2, 0.3),
    (7, 0.05, 0.3),
    (7, 0.95, 0.3),
    (20, 0.3, 0.02),
]


def _two_atom_law(weight):
    return DiscreteMeasure.from_atoms([(-1.0, weight), (0.5, 1.0 - weight)], mode="float")


def _angle_shape(n, p, weight):
    """(law, s, sigma, shift, n_1, n_2) of a two-atom model."""
    law = _two_atom_law(weight)
    r = round(p * n)
    sigma, shift = (1.0, 0.0) if r <= n - r else (-1.0, 1.0)
    n1, n2 = (int(c) for c in ml.spectral_multiplicities(law, n))
    return law, min(r, n - r), sigma, shift, n1, n2


@pytest.mark.parametrize("n,p,weight", ANGLE_SHAPES)
def test_two_atom_law_matches_rotated_spectrum(n, p, weight):
    law, s, *_ = _angle_shape(n, p, weight)
    reps, ks = 2000, np.arange(1, 7)
    angle = np.array([ml._realize(ml.MatrixModel(n, p, law, seed)) for seed in range(reps)])
    model = ml.MatrixModel(n, p, law, 0)
    general = np.array(
        [rotated_spectrum(model, sample_haar_isometry(n, s, reps + seed)) for seed in range(reps)]
    )
    new = (angle[:, :, None] ** ks).mean(axis=1)
    old = (general[:, :, None] ** ks).mean(axis=1)
    stderr = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / reps)
    diff = np.abs(new.mean(axis=0) - old.mean(axis=0))
    assert np.all(diff <= 5.0 * stderr + 1e-12), (diff, stderr)


@pytest.mark.parametrize("n,p,weight", ANGLE_SHAPES)
def test_two_atom_spectrum_structure(n, p, weight):
    law, s, sigma, shift, n1, n2 = _angle_shape(n, p, weight)
    structural = {
        -1.0: max(0, n1 - s),
        0.5: max(0, n2 - s),
        -1.0 + sigma: max(0, s - n2),
        0.5 + sigma: max(0, s - n1),
    }
    for seed in range(50):
        lam = ml._realize(ml.MatrixModel(n, p, law, seed))
        assert len(lam) == n
        for value, count in structural.items():
            assert np.sum(np.abs(lam - (value + shift)) < 1e-9) == count


@pytest.mark.parametrize("n,p,weight", ANGLE_SHAPES)
def test_squared_cosines_match_principal_angles(n, p, weight):
    # power sums 1..6 of the Jacobi draw vs those of the generic squared
    # singular values of the n_1 x s block of a Haar isometry
    _, s, _, _, n1, n2 = _angle_shape(n, p, weight)
    g, reps, ks = min(n1, n2, s), 3000, np.arange(1, 7)
    rng = np.random.default_rng(4)
    new = np.array(
        [ml._squared_cosines(g, abs(n1 - s), abs(n2 - s), rng)[:, None] ** ks for _ in range(reps)]
    ).sum(axis=1)
    old = np.empty((reps, len(ks)))
    for seed in range(reps):
        cos2 = np.linalg.svd(sample_haar_isometry(n, s, seed)[:n1], compute_uv=False) ** 2
        old[seed] = (np.sort(cos2)[:g, None] ** ks).sum(axis=0)
    stderr = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / reps)
    diff = np.abs(new.mean(axis=0) - old.mean(axis=0))
    assert np.all(diff <= 5.0 * stderr + 1e-12), (diff, stderr)
    # E tr(P F) = s n_1 / n, where the angles in ran P ∩ ran F have cos^2 = 1
    sums = new[:, 0] + max(0, s - n2)
    assert abs(sums.mean() - s * n1 / n) <= 5.0 * sums.std(ddof=1) / np.sqrt(reps) + 1e-12


@pytest.mark.parametrize("n,p,weight", ANGLE_SHAPES)
def test_two_atom_assembly_is_exact_on_given_angles(n, p, weight, monkeypatch):
    # the principal angles of one isometry q give the spectrum the oracle finds for q
    law, s, _, _, n1, n2 = _angle_shape(n, p, weight)
    model = ml.MatrixModel(n, p, law, 0)
    q = sample_haar_isometry(n, s, 17)
    cos2 = np.sort(np.linalg.svd(q[:n1], compute_uv=False) ** 2)
    generic = cos2[: len(cos2) - max(0, s - n2)]  # drop ran P ∩ ran F, where cos^2 = 1
    monkeypatch.setattr(ml, "_squared_cosines", lambda g, a, b, rng: generic[:g])
    assert len(generic) == min(n1, n2, s)
    got = np.sort(ml._realize(model))
    assert np.max(np.abs(got - np.sort(rotated_spectrum(model, q))), initial=0.0) < 1e-12


FOUR_ATOM = DiscreteMeasure.from_atoms(
    [(-1.0, 0.1), (-0.5, 0.3), (0.25, 0.2), (1.0, 0.4)], mode="float"
)
LIGHT_ATOM = DiscreteMeasure.from_atoms([(-1.0, 0.02), (0.5, 0.48), (1.0, 0.5)], mode="float")
ONE_ATOM = DiscreteMeasure.from_atoms([(0.5, 1.0)], mode="float")

LAWS = {
    "one_atom": ONE_ATOM,
    "two_atom": Y_LAW,
    "three_atom": THREE_ATOM,
    "four_atom": FOUR_ATOM,
    "light_atom": LIGHT_ATOM,
    "empty_atom": EMPTY_ATOM,
}
# Laws of three and four atoms, drawn from Bartlett factors: (law name, n, p) for
# n_j < s and n_j > s in one law, r > n - r, rank 0, rank n, an atom of
# weight 0.02 (n_1 = 1), and an atom whose multiplicity rounds to 0.
BARTLETT_SHAPES = [
    ("three_atom", 20, 0.3),
    ("three_atom", 20, 0.5),
    ("three_atom", 20, 0.7),
    ("four_atom", 20, 0.4),
    ("four_atom", 21, 0.6),
    ("three_atom", 7, 0.05),
    ("three_atom", 7, 0.95),
    ("light_atom", 50, 0.3),
    ("empty_atom", 7, 0.3),
    ("empty_atom", 7, 0.7),
]


@pytest.mark.parametrize("name,n,p", BARTLETT_SHAPES)
def test_bartlett_law_matches_rotated_spectrum(name, n, p):
    # power sums 1..6 of the Bartlett draw vs the oracle's on Haar isometries
    law = LAWS[name]
    reps, ks = 2000, np.arange(1, 7)
    model = ml.MatrixModel(n, p, law, 0)
    s = min(model.rank(), n - model.rank())
    new = np.array([ml._realize(ml.MatrixModel(n, p, law, seed)) for seed in range(reps)])
    old = np.array(
        [rotated_spectrum(model, sample_haar_isometry(n, s, reps + seed)) for seed in range(reps)]
    )
    new, old = ((lam[:, :, None] ** ks).mean(axis=1) for lam in (new, old))
    stderr = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / reps)
    diff = np.abs(new.mean(axis=0) - old.mean(axis=0))
    assert np.all(diff <= 5.0 * stderr + 1e-12), (diff, stderr)


def _ginibre(shape, rng):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _positive_r(g):
    """The R-factor of g with its diagonal made positive: the factor Bartlett's law describes."""
    rf = np.linalg.qr(g, mode="r")
    d = np.diag(rf)
    return (d.conj() / np.abs(d))[:, None] * rf


@pytest.mark.parametrize(
    "name,n,p",
    [("two_atom", 20, 0.3), ("two_atom", 21, 0.6), ("one_atom", 20, 0.3), ("one_atom", 21, 0.6),
     ("three_atom", 300, 0.3), ("four_atom", 301, 0.6)] + BARTLETT_SHAPES,
)
def test_bartlett_assembly_is_exact_on_given_factors(name, n, p, monkeypatch):
    # the R-factors of one Ginibre matrix's blocks give the spectrum of
    # D + sigma G (G*G)^-1 G*, for a law of any number of atoms; freeing
    # arrays early and scaling R's conjugate in place keep the bits of the
    # old assembly on the same factors
    law = LAWS[name]
    model = ml.MatrixModel(n, p, law, 0)
    r = model.rank()
    s = min(r, n - r)
    sigma, shift = (1.0, 0.0) if r <= n - r else (-1.0, 1.0)
    g = _ginibre((n, s), np.random.default_rng(8))
    counts = ml.spectral_multiplicities(law, n)
    starts = np.concatenate([[0], np.cumsum(counts)])
    stacked = [_positive_r(g[lo:hi]) for lo, hi in zip(starts, starts[1:])]
    factors = iter(stacked)

    def given(rows, cols, rng):
        rf = next(factors)
        assert rf.shape == (min(rows, cols), cols)
        return rf

    monkeypatch.setattr(ml, "_bartlett_factor", given)
    atoms = [float(t) for t, _ in law.atoms]
    raw = ml._bartlett_spectrum(atoms, counts, s, sigma, None)
    assert raw.tobytes() == bartlett_assembly(atoms, counts, s, sigma, np.vstack(stacked)).tobytes()
    got = np.sort(raw + shift)
    f = g @ np.linalg.solve(g.conj().T @ g, g.conj().T)
    d = ml._eigenvalue_vector(law, n)
    want = shift + np.linalg.eigvalsh(np.diag(d) + sigma * f)
    assert len(got) == n
    assert np.max(np.abs(got - want)) < 1e-12


_DRAW_GROWTH = """
from symvar import matrixlab as ml
from symvar.measures import DiscreteMeasure


def peak_kib():
    # this process image's peak RSS: ru_maxrss would also keep the peak of the
    # process that spawned it, which Linux carries across exec
    with open("/proc/self/status") as fh:
        return int(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))


law = DiscreteMeasure.from_atoms([(-1.0, 0.2), (-0.5, 0.2), (0.0, 0.6)], mode="float")
ml._realize(ml.MatrixModel(200, 0.3, law, 1))
before = peak_kib()
ml._realize(ml.MatrixModel(1600, 0.3, law, 2))
print(peak_kib() - before)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_bartlett_draw_peaks_below_three_compressed_matrices():
    # n = 1600, p = 0.3: m_j = 320, 320, 480, so the eigenproblem has N = 1120.
    # Alive at the eigensolve are the N x N matrix and eigvalsh's copy of it:
    # the draw grows the peak by about 2.3 N^2 complex, against 4.2 when T, R*
    # and sigma R stayed alive beside them
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(ml.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _DRAW_GROWTH], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert int(done.stdout) * 1024 <= 3 * 1120**2 * 16


@pytest.mark.parametrize("rows,cols", [(5, 3), (3, 5), (4, 4), (1, 3)])
def test_bartlett_factor_matches_qr_of_ginibre_blocks(rows, cols):
    reps, m = 3000, min(rows, cols)
    rng = np.random.default_rng(6)
    new = np.array([ml._bartlett_factor(rows, cols, rng) for _ in range(reps)])
    old = np.array([_positive_r(_ginibre((rows, cols), rng)) for _ in range(reps)])
    upper = np.triu(np.ones((m, cols), bool), 1)
    for t in (new, old):
        assert t.shape == (reps, m, cols)
        assert np.all(np.tril(t, -1) == 0.0)
        assert np.all(np.abs(np.diagonal(t, axis1=1, axis2=2).imag) < 1e-12)

    def stats(t):
        # per diagonal index: |T_ii|^2 and |T_ii|^4; pooled above the diagonal:
        # Re, Im, |z|^2, |z|^4 and Re z^2 (a circular law has E z^2 = 0)
        d2 = np.abs(np.diagonal(t, axis1=1, axis2=2)) ** 2
        z = t[:, upper]
        off = [z.real, z.imag, np.abs(z) ** 2, np.abs(z) ** 4, (z**2).real]
        return np.column_stack([d2, d2**2] + [x.mean(axis=1) for x in off])

    a, b = stats(new), stats(old)
    stderr = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / reps)
    diff = np.abs(a.mean(axis=0) - b.mean(axis=0))
    assert np.all(diff <= 5.0 * stderr + 1e-12), (diff, stderr)
    # and against the law itself: E |T_ii|^2 = rows - i, with variance rows - i
    want = rows - np.arange(m)
    assert np.all(np.abs(a[:, :m].mean(axis=0) - want) <= 5.0 * np.sqrt(want / reps))


def test_spectral_function_application():
    # applying psi on eigenvalues and reconstructing preserves power traces
    from symvar.certificate import psi

    model = ml.MatrixModel(n=60, p=0.3, y_law=Y_LAW, seed=3)
    e = np.zeros(60)
    e[: model.rank()] = 1.0
    d = np.repeat(
        [t for t, _ in Y_LAW.atoms], ml.spectral_multiplicities(Y_LAW, 60)
    )
    u = sample_haar_unitary(60, model.seed)
    a = np.diag(e).astype(complex) + (u * d) @ u.conj().T
    lam, vec = np.linalg.eigh(a)
    flam = np.array([psi(t, 0.3) for t in lam])
    b = (vec * flam) @ vec.conj().T
    for k in range(1, 5):
        assert np.trace(np.linalg.matrix_power(b, k)).real / 60 == pytest.approx(
            float(np.mean(flam**k)), abs=1e-10
        )


def _expansion_residual(model, rotate, f):
    """|tr f(E+Y)/n - (q tr f(Y)/n + p tr f(1+Y)/n)| on the spectrum _realize draws."""
    lam = ml._realize(model, rotate=rotate)
    dy = ml._eigenvalue_vector(model.y_law, model.n)
    q = 1.0 - model.p
    return abs(np.mean(f(lam)) - (q * np.mean(f(dy)) + model.p * np.mean(f(1.0 + dy))))


def test_commuting_model_is_exactly_classical():
    model = ml.MatrixModel(n=1000, p=0.3, y_law=Y_LAW, seed=5)
    # polynomial test functions of degree <= 8, plus the dual function itself
    for deg in range(1, 9):
        assert _expansion_residual(model, False, lambda t, d=deg: t**d) < 1e-12
    assert ml.test_proof_identity(model, grid_free=False) < 1e-12


def test_linear_function_always_satisfies_expansion():
    model = ml.MatrixModel(n=300, p=0.3, y_law=Y_LAW, seed=9)
    assert _expansion_residual(model, True, lambda t: t) < 1e-12


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


def _child_seeds(entropy, reps):
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(entropy).spawn(reps)]


def test_proof_identity_report_seeds_are_the_children_of_master_seed_and_n():
    rows = ml.proof_identity_report(0.3, Y_LAW, dims=[20, 31], seeds_per_dim=2, master_seed=42)
    assert [(r["n"], r["seed"]) for r in rows] == [
        (n, s) for n in (20, 31) for s in _child_seeds([42, n], 2)
    ]


def test_empirical_vs_predicted_draws_from_the_children_of_the_model_seed(monkeypatch):
    drawn, realize = [], ml._realize
    monkeypatch.setattr(ml, "_realize", lambda m, rotate: drawn.append(m) or realize(m, rotate))
    model = ml.MatrixModel(n=20, p=0.3, y_law=Y_LAW, seed=17)
    report = ml.empirical_vs_predicted(model, 3, 4)
    assert [m.seed for m in drawn] == _child_seeds(17, 4)
    assert {(m.n, m.p, m.y_law) for m in drawn} == {(20, 0.3, Y_LAW)}
    assert {r["seed"] for r in report["orders"]} == {17}


@pytest.mark.parametrize(
    "call",
    [
        lambda: ml.proof_identity_report(0.3, Y_LAW, [200, 1], 1, 1),
        lambda: ml.proof_identity_report(0.3, Y_LAW, [200, 20], ml.MAX_REPS + 1, 1),
        lambda: ml.proof_identity_report(0.3, Y_LAW, [200], 2**62, 1),
        lambda: ml.empirical_vs_predicted(ml.MatrixModel(200, 0.3, Y_LAW, 1), 4, ml.MAX_REPS + 1),
        lambda: ml.empirical_vs_predicted(ml.MatrixModel(200, 0.3, Y_LAW, 1), 4, 2**62),
        lambda: ml.proof_identity_report(0.3, Y_LAW, [20, 41, 20], 2, 5),  # would repeat its draws
        # sum reps * n^3 is 94 times that of MAX_REPS replicas at MAX_SIM_DIM
        lambda: ml.proof_identity_report(0.3, Y_LAW, list(range(2401, 2501)), ml.MAX_REPS, 1),
        lambda: ml.proof_identity_report(0.3, Y_LAW, [ml.MAX_SIM_DIM, 2], ml.MAX_REPS, 1),
    ],
)
def test_bad_sizes_are_refused_before_any_draw(monkeypatch, call):
    calls = []
    monkeypatch.setattr(ml, "_realize", lambda *a, **k: calls.append(a))
    with pytest.raises(SizeError):
        call()
    assert calls == []


def test_a_job_at_the_work_budget_reaches_its_first_draw(monkeypatch):
    class Drawn(Exception):
        pass

    def first_draw(model, rotate):
        raise Drawn(model.n)

    monkeypatch.setattr(ml, "_realize", first_draw)
    with pytest.raises(Drawn):
        ml.proof_identity_report(0.3, Y_LAW, [ml.MAX_SIM_DIM], ml.MAX_REPS, 1)


def test_empirical_vs_predicted_report():
    model = ml.MatrixModel(n=300, p=0.3, y_law=Y_LAW, seed=11)
    report = ml.empirical_vs_predicted(model, 6, 5)
    assert len(report["orders"]) == 6
    assert report["rank_error"] == 0.0
    assert not report["any_flagged"]
    csv_text = ml.rows_csv(report["orders"], ["n", "seed", "order", "empirical", "predicted",
                                              "abs_error"])
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
    obj = json.loads(json.dumps(report), parse_constant=_reject_non_finite)
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
    # the matrix models and the search share one seed check and its text
    for refused in (lambda: ml.proof_identity_report(0.3, Y_LAW, [20], 1, -1),
                    lambda: ml.MatrixModel(20, 0.3, Y_LAW, -1), lambda: SearchConfig(seed=-1)):
        with pytest.raises(SizeError, match=r"^seed must be non-negative, got -1$"):
            refused()


@pytest.mark.filterwarnings("error")
def test_simulate_free_sum_refuses_moments_beyond_float_range():
    # the 13th moment of a point mass at 1e25 overflows; no numpy warning may escape
    law = DiscreteMeasure.from_atoms([(1e25, 1.0)], mode="float")
    with pytest.raises(SizeError):
        ml.simulate_free_sum(ml.MatrixModel(20, 0.3, law, 1), 13)
    assert np.isfinite(ml.simulate_free_sum(ml.MatrixModel(20, 0.3, law, 1), 12).values).all()
