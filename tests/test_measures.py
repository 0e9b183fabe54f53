import json
from dataclasses import asdict
from fractions import Fraction as F

import pytest

from conftest import random_exact_measure
from symvar import matrixlab
from symvar.cumulants import MomentSequence
from symvar.errors import OrderError, SizeError, SymvarError
from symvar.measures import (
    MAX_EXACT_DIGITS,
    DiscreteMeasure,
    _num_str,
    bernoulli,
    dilate,
    dumps,
    exact_number,
    mean,
    moments_of,
    negate,
    shift,
    variance,
)


def test_bernoulli_atoms():
    mu = bernoulli(F(3, 10))
    assert mu.atoms == ((F(0), F(7, 10)), (F(1), F(3, 10)))
    assert bernoulli(F(0)).atoms == ((F(0), F(1)),)
    assert bernoulli(F(1)).atoms == ((F(1), F(1)),)


def test_bernoulli_rejects_bad_p():
    with pytest.raises(SizeError):
        bernoulli(F(-1, 10))
    with pytest.raises(SizeError):
        bernoulli(F(11, 10))


def test_bernoulli_moments_are_constant():
    m = moments_of(bernoulli(F(3, 10)), 13)
    assert m.values == (F(3, 10),) * 13


def test_negate():
    assert negate(bernoulli(F(3, 10))).atoms == ((F(-1), F(3, 10)), (F(0), F(7, 10)))
    pm = DiscreteMeasure.from_atoms([(F(-1), F(1, 2)), (F(1), F(1, 2))])
    assert negate(pm) == pm
    point = DiscreteMeasure.from_atoms([(F(0), F(1))])
    assert negate(point) == point


def test_negate_moments_alternate_sign(rng):
    mu = random_exact_measure(rng)
    m = moments_of(mu, 13).values
    mneg = moments_of(negate(mu), 13).values
    assert mneg == tuple((-1) ** n * v for n, v in enumerate(m, start=1))


def test_symmetric_two_atom_moments():
    pm = DiscreteMeasure.from_atoms([(F(-1), F(1, 2)), (F(1), F(1, 2))])
    assert moments_of(pm, 4).values == (F(0), F(1), F(0), F(1))


def test_variance():
    p = F(3, 10)
    assert variance(bernoulli(p)) == p * (1 - p)
    assert variance(negate(bernoulli(p))) == F(21, 100)
    assert variance(DiscreteMeasure.from_atoms([(F(5), F(1))])) == 0


def test_variance_invariant_under_negation(rng):
    for _ in range(20):
        mu = random_exact_measure(rng)
        assert variance(negate(mu)) == variance(mu)


def test_equality_case_second_moment():
    for p in (F(1, 10), F(3, 10), F(7, 10)):
        y = negate(bernoulli(p))
        assert moments_of(y, 2).values[1] == p


def test_shift_and_dilate():
    mu = bernoulli(F(3, 10))
    assert shift(mu, F(2)).atoms == ((F(2), F(7, 10)), (F(3), F(3, 10)))
    assert dilate(mu, F(-2)).atoms == ((F(-2), F(3, 10)), (F(0), F(7, 10)))
    assert mean(shift(mu, F(2))) == mean(mu) + 2


def test_duplicate_atoms_merge():
    mu = DiscreteMeasure.from_atoms([(F(1), F(1, 2)), (F(1), F(1, 2))])
    assert mu.atoms == ((F(1), F(1)),)
    muf = DiscreteMeasure.from_atoms([(0.5, 0.25), (0.5 + 1e-12, 0.75)], mode="float")
    assert len(muf.atoms) == 1


def test_empty_measure_refused():
    # caught by the weight-sum check: an empty list sums to 0
    for mode in ("exact", "float"):
        with pytest.raises(SizeError):
            DiscreteMeasure.from_atoms([], mode=mode)


def test_weight_validation():
    with pytest.raises(SizeError):
        DiscreteMeasure.from_atoms([(F(0), F(1, 2))])
    with pytest.raises(SizeError):
        DiscreteMeasure.from_atoms([(F(0), F(-1)), (F(1), F(2))])
    with pytest.raises(SizeError):
        DiscreteMeasure.from_atoms([(0.0, 0.5), (1.0, 0.6)], mode="float")


@pytest.mark.parametrize(
    "pairs,mode",
    [
        ([(float("nan"), 1.0)], "float"),
        ([(0.0, float("nan"))], "float"),
        ([(float("inf"), 1.0)], "float"),
        ([(float("nan"), 1)], "exact"),
        (5, "exact"),
        ([(1, 2, 3)], "float"),
        ([("a", 1)], "exact"),
        ([(0, "1/0")], "exact"),
        ([(10**400, 1)], "float"),
    ],
)
def test_malformed_or_non_finite_atoms_rejected(pairs, mode):
    with pytest.raises(SymvarError):
        DiscreteMeasure.from_atoms(pairs, mode=mode)


def test_from_json_rejects_non_object():
    for text in ("[1, 2]", "{}", '{"mode": "float"}'):
        with pytest.raises(SymvarError, match='JSON object with an "atoms" list'):
            DiscreteMeasure.from_json(text)


def test_from_json_refuses_deep_nesting():
    # json.loads raises RecursionError past the interpreter's recursion limit
    for text in ("[" * 100_000 + "]" * 100_000, '{"atoms": %s}' % ("[" * 5000 + "]" * 5000)):
        with pytest.raises(SizeError, match="nested too deeply"):
            DiscreteMeasure.from_json(text)


def test_exact_digit_bound():
    big = 10**MAX_EXACT_DIGITS - 1  # the most digits allowed
    for x in (big, F(-1, big), f"1e{MAX_EXACT_DIGITS - 1}", f"1e-{MAX_EXACT_DIGITS - 1}",
              5e-324, "1.5E+3"):
        assert exact_number(x) == F(x)
    for x in (big + 1, F(1, big + 1), f"1e{MAX_EXACT_DIGITS + 1}", "1e-1000000", "3e99999999"):
        with pytest.raises(SizeError):
            exact_number(x)
    with pytest.raises(SizeError, match="digits"):
        DiscreteMeasure.from_atoms([(f"1e{MAX_EXACT_DIGITS + 1}", 1)])
    with pytest.raises(SizeError, match="common denominator"):
        DiscreteMeasure.from_atoms([(F(1, 10**998 + 1), F(1, 2)), (F(1, 10**998 + 3), F(1, 2))])
    with pytest.raises(SizeError, match="digits"):
        DiscreteMeasure.from_json('{"atoms": [[%s, 1]]}' % ("1" * 5000))
    # float mode keeps its own checks
    assert DiscreteMeasure.from_atoms([("1e-1000", 1)], mode="float").atoms == ((0.0, 1.0),)


def test_num_str_beyond_the_int_to_string_limit():
    assert _num_str(F(1, 10**MAX_EXACT_DIGITS)) == "0." + "0" * (MAX_EXACT_DIGITS - 1) + "1"
    for x in (10**5000, F(1, 3**10000), F(3**10000, 2)):  # integer, a/b and decimal
        with pytest.raises(SizeError, match="more digits"):
            _num_str(x)


def test_dumps_writes_each_fraction_by_num_str():
    assert dumps([F(1, 4), F(-1, 3), F(7), F(-5, 2)]) == '["0.25", "-1/3", "7", "-2.5"]'
    plain = [0.1, 1e300, -0.0, 5e-324, 7, -3, True, None, "x"]
    assert dumps(plain) == json.dumps(plain)  # floats and ints print unchanged
    assert dumps({"row": (F(1, 8), 0.5, 2)}) == '{"row": ["0.125", 0.5, 2]}'  # a tuple is a list
    mu = DiscreteMeasure.from_atoms([(F(-1, 3), F(1, 4)), (F(1, 2), F(3, 4))])
    assert dumps({"measure": asdict(mu)}) == (
        '{"measure": {"atoms": [["-1/3", "0.25"], ["0.5", "0.75"]], "mode": "exact"}}'
    )
    with pytest.raises(TypeError, match="^Object of type complex is not JSON serializable$"):
        dumps({"z": 1j})
    with pytest.raises(SizeError, match="more digits"):
        dumps({"x": F(1, 3**10000)})


def test_order_limit(monkeypatch):
    # moments_of, simulate_free_sum and the sequences share one check and its text,
    # and simulate_free_sum refuses before its draw
    draws = []
    monkeypatch.setattr(matrixlab, "_realize", lambda *a, **k: draws.append(a))
    model = matrixlab.MatrixModel(20, 0.3, bernoulli(0.3), 1)
    for refused in (lambda: moments_of(bernoulli(F(1, 2)), 14),
                    lambda: matrixlab.simulate_free_sum(model, 14),
                    lambda: MomentSequence((F(0),) * 14)):
        with pytest.raises(OrderError, match=r"^order must be in 1\.\.13, got 14$"):
            refused()
    with pytest.raises(OrderError, match=r"^order must be in 1\.\.13, got 0$"):
        matrixlab.simulate_free_sum(model, 0)
    assert draws == []


def test_json_round_trip_exact():
    mu = DiscreteMeasure.from_atoms([(F(-1, 3), F(1, 4)), (F(1, 2), F(3, 4))])
    text = mu.to_json()
    obj = json.loads(text)
    assert obj["mode"] == "exact"
    assert obj["atoms"] == [["-1/3", "0.25"], ["0.5", "0.75"]]
    assert DiscreteMeasure.from_json(text) == mu


def test_json_round_trip_float():
    mu = DiscreteMeasure.from_atoms([(-1.0, 0.3), (0.0, 0.7)], mode="float")
    assert DiscreteMeasure.from_json(mu.to_json()) == mu
