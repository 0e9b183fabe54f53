import json
from fractions import Fraction as F

import pytest

from conftest import random_exact_measure
from symvar.certificate import (
    certificate_lower_bound,
    psi,
    sawtooth,
    verify_identity,
    verify_inequality_exact,
    verify_inequality_grid,
)
from symvar.errors import CriticalCaseError, SizeError
from symvar.measures import DiscreteMeasure, bernoulli, check_p, negate

P_SET = (F(1, 10), F(3, 10), F(9, 20), F(11, 20), F(9, 10))


def test_sawtooth_values():
    assert sawtooth(F(1, 4)) == F(1, 4)
    assert sawtooth(F(3, 4)) == F(1, 4)  # h(3/4) = -h(-1/4)
    assert sawtooth(F(1)) == 0
    assert sawtooth(0.25) == 0.25
    assert sawtooth(F(1, 2)) == F(1, 2)  # continuity at the half-integers
    assert sawtooth(F(-1, 2)) == F(-1, 2)
    assert sawtooth(F(3, 2)) == F(-1, 2)


def test_sawtooth_alternation_and_periodicity(rng):
    for _ in range(200):
        t = F(rng.randint(-400, 400), 100)
        assert sawtooth(t + 1) == -sawtooth(t)
        assert sawtooth(t + 2) == sawtooth(t)
        assert sawtooth(-t) == -sawtooth(t)


def test_sawtooth_bounded_and_lipschitz(rng):
    for _ in range(200):
        t = F(rng.randint(-1000, 1000), 97)
        assert abs(sawtooth(t)) <= F(1, 2)


def _sawtooth_by_definition(t):
    """h(t) from its definition, in Fractions."""
    u = (F(t) + F(1, 2)) % 2 - F(1, 2)
    return u if u <= F(1, 2) else 1 - u


def test_sawtooth_exact_matches_definition(rng):
    cases = []
    for _ in range(3000):
        den = rng.randint(1, 10 ** rng.randint(0, 12))
        bound = 10 ** rng.randint(0, 30) * den
        cases.append(F(rng.randint(-bound, bound), den))
    cases += [F(i, 2) for i in range(-10, 11)]  # every half-integer in [-5, 5]
    cases += list(range(-6, 7)) + [10**30 + 1, -(10**30) - 1]  # int input
    for t in cases:
        got = sawtooth(t)
        assert type(got) is F
        assert got == _sawtooth_by_definition(t), t


def test_check_p_keeps_a_fraction():
    p = F(3, 10)
    got = check_p(p)
    assert type(got) is F and got == F(3, 10)
    assert got is p  # psi runs the check once per point: no rebuilt Fraction


def test_sawtooth_rejects_non_finite():
    with pytest.raises(SizeError):
        sawtooth(float("nan"))
    with pytest.raises(SizeError):
        sawtooth(float("inf"))


def test_psi_values():
    assert psi(F(0), F(3, 10)) == 0
    assert psi(F(1, 4), F(3, 10)) == F(3, 8)  # 0.25/0.4 - 0.25
    assert psi(F(5, 4), F(3, 10)) == F(-15, 8)  # -0.25/0.4 - 1.25
    assert psi(F(1), F(3, 10)) == -1


def test_psi_critical_and_domain_errors():
    with pytest.raises(CriticalCaseError):
        psi(F(1, 4), F(1, 2))
    with pytest.raises(CriticalCaseError):
        psi(0.25, 0.5)
    with pytest.raises(SizeError):
        psi(F(1, 4), F(0))
    with pytest.raises(SizeError):
        psi(F(1, 4), F(3, 2))


def test_psi_odd_on_dense_rational_grid():
    # 10^4 rational points, exact arithmetic
    for p in (F(3, 10), F(9, 10)):
        for i in range(1, 10_001):
            t = F(i, 1000) - 5
            assert psi(-t, p) == -psi(t, p)


def test_psi_odd_per_linear_piece():
    # one rational sample inside each linear piece of h over [-4, 4]
    p = F(3, 10)
    for k in range(-4, 4):
        t = F(k) + F(1, 7)
        assert psi(-t, p) == -psi(t, p)


def test_identity_spec_examples():
    p = F(3, 10)
    q = 1 - p
    t = F(1, 4)
    assert q * psi(t, p) + p * psi(1 + t, p) == F(-3, 10)
    assert sawtooth(t) - t - p == F(-3, 10)
    t = F(0)
    assert q * psi(t, p) + p * psi(1 + t, p) == F(-3, 10)
    assert verify_identity(p, [F(1, 4), F(0)])
    assert verify_identity(p, [])  # vacuous


@pytest.mark.parametrize("p", P_SET)
def test_identity_exact_on_dense_grid(p):
    grid = [F(i, 1000) - 5 for i in range(10_001)]
    assert verify_identity(p, grid)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.45, 0.55, 0.9])
def test_pointwise_slack_on_float_grid(p):
    q = 1.0 - p
    t = -5.0
    worst = -1.0
    for i in range(10_001):
        t = -5.0 + i * 1e-3
        slack = q * psi(t, p) + p * psi(1.0 + t, p) - (t * t - p)
        worst = max(worst, slack)
    assert worst <= 1e-12


@pytest.mark.parametrize("p", [F(3, 10), F(499, 1000), F(7, 10)])
def test_inequality_exact(p):
    report = verify_inequality_exact(p)
    assert report.mode == "exact"
    assert report.max_slack_violation == 0
    assert tuple(w[0] for w in report.witnesses) == (F(-1), F(0))
    assert report.identity_ok
    # tangency: lhs equals rhs exactly at both witnesses
    for t, lhs, rhs in report.witnesses:
        assert lhs == rhs


def test_tangency_slopes_match():
    # one-sided slopes of h at t=0 are both 1; parabola slope 2t+1 at 0 is 1.
    # at t=-1, h has slope -1 on both sides; parabola slope is -1.
    eps = F(1, 1000)
    for t0, expected in ((F(0), 1), (F(-1), -1)):
        left = (sawtooth(t0) - sawtooth(t0 - eps)) / eps
        right = (sawtooth(t0 + eps) - sawtooth(t0)) / eps
        assert left == right == expected
        assert 2 * t0 + 1 == expected


def test_inequality_exact_rejects_critical_case():
    with pytest.raises(CriticalCaseError):
        verify_inequality_exact(F(1, 2))


def test_inequality_grid_report():
    grid = [(-5.0 + i * 0.01) for i in range(1001)]
    report = verify_inequality_grid(0.3, grid)
    assert report.mode == "grid"
    assert report.max_slack_violation <= 1e-12
    assert report.identity_ok


def test_report_json_round_trip():
    report = verify_inequality_exact(F(3, 10))
    obj = json.loads(report.to_json())
    assert obj["mode"] == "exact"
    assert F(obj["max_slack_violation"]) == 0
    assert obj["identity_ok"] is True
    assert [F(w[0]) for w in obj["witnesses"]] == [F(-1), F(0)]


def test_lower_bound_equality_case():
    p = F(3, 10)
    assert certificate_lower_bound(negate(bernoulli(p)), p) == 0


def test_lower_bound_point_masses():
    p = F(3, 10)
    d = certificate_lower_bound(DiscreteMeasure.from_atoms([(F(-1, 2), F(1))]), p)
    assert d == F(1, 4)  # t(t+1) - h(t) at t = -1/2
    assert d >= 0
    assert certificate_lower_bound(DiscreteMeasure.from_atoms([(F(0), F(1))]), p) == 0


def test_lower_bound_nonnegative_random_measures(rng):
    for p in P_SET:
        for _ in range(100):
            mu = random_exact_measure(rng)
            assert certificate_lower_bound(mu, p) >= 0


def test_lower_bound_critical_case():
    with pytest.raises(CriticalCaseError):
        certificate_lower_bound(bernoulli(F(3, 10)), F(1, 2))
