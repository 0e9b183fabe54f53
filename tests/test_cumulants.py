from collections import Counter
from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import comb, gcd, prod

import numpy as np
import pytest

from conftest import random_exact_measure, random_rational
from symvar.cumulants import (
    MAX_ORDER,
    CumulantSequence,
    IndependenceKind,
    MomentSequence,
    check_order,
    convolve_moments,
    cumulants_to_moments,
    moments_to_cumulants,
    odd_moment_residual,
    _free_m2k_jac,
    _recursion,
)
from symvar.errors import OrderError, SizeError
from symvar.measures import bernoulli, dilate, moments_of, negate
from symvar.optimizer import nc_min_variance
from lattice import enumerate_partitions
import stacked_kernel

K = IndependenceKind
KINDS = (K.CLASSICAL, K.FREE, K.BOOLEAN)


def lattice_moment(kappa, kind, n):
    """Independent oracle: the defining sum over the partition lattice."""
    total = F(0)
    for part in enumerate_partitions(n, kind):
        prod = F(1)
        for b in part.blocks:
            prod *= kappa[len(b) - 1]
        total += prod
    return total


def test_transforms_match_lattice_sums():
    import random

    rng = random.Random(7)
    for kind in KINDS:
        for _ in range(10):
            kappa = tuple(random_rational(rng) for _ in range(7))
            m = cumulants_to_moments(CumulantSequence(kind, kappa))
            for n in range(1, 8):
                assert m.values[n - 1] == lattice_moment(kappa, kind, n)


def test_round_trip_exact(rng):
    for kind in KINDS:
        for _ in range(200):
            order = rng.randint(1, 12)
            m = MomentSequence(tuple(random_rational(rng) for _ in range(order)))
            k = moments_to_cumulants(m, kind)
            back = cumulants_to_moments(k)
            assert back.values == m.values
            # exact input stays exact: a float would pass the equality above on dyadic values
            assert all(type(v) is F for v in k.values + back.values)


# 13 pairwise-coprime denominators: the worst case for one common scale c
PRIMES_ABOVE_1E6 = (
    1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117,
    1000121, 1000133, 1000151, 1000159, 1000171, 1000183,
)
ORACLE_ORDER = 9  # the lattices of 10 points take seconds to enumerate


@lru_cache(maxsize=None)
def _block_types(n, kind):
    """How many partitions of the kind's lattice have each multiset of block sizes."""
    return Counter(tuple(sorted(p.block_sizes())) for p in enumerate_partitions(n, kind))


def _lattice_moments(kappa, kind):
    """The defining lattice sums m_1..m_ORACLE_ORDER, grouped by block sizes."""
    return [
        sum(count * prod(kappa[s - 1] for s in sizes) for sizes, count in _block_types(n, kind).items())
        for n in range(1, ORACLE_ORDER + 1)
    ]


def _integer_path_cases(rng):
    assert all(gcd(a, b) == 1 for a, b in product(PRIMES_ABOVE_1E6, repeat=2) if a != b)
    cases = []
    for _ in range(3):
        cases.append(tuple(F(rng.randint(-10**7, 10**7), d) for d in PRIMES_ABOVE_1E6))
        cases.append(tuple(F(rng.randint(-10**7, 10**7), d) for d in rng.sample(PRIMES_ABOVE_1E6, 13)))
    for _ in range(6):  # zero and negative entries, zero first, ints among Fractions
        seq = [random_rational(rng, -9, 9, 12) for _ in range(MAX_ORDER)]
        for i in rng.sample(range(MAX_ORDER), 3):
            seq[i] = rng.choice((F(0), 0, -rng.randint(1, 9)))
        cases.append(tuple(seq))
    cases.append((F(0),) + tuple(-random_rational(rng, 1, 9, 9) for _ in range(MAX_ORDER - 1)))
    return cases


def test_integer_path_matches_lattice_sums(rng):
    for kind, values in product(KINDS, _integer_path_cases(rng)):
        m = cumulants_to_moments(CumulantSequence(kind, values)).values
        assert m[:ORACLE_ORDER] == tuple(_lattice_moments(values, kind))
        k = moments_to_cumulants(MomentSequence(values), kind).values
        assert tuple(_lattice_moments(k, kind)) == values[:ORACLE_ORDER]
        # every order, against the recursion run on Fractions
        assert m == tuple(_recursion(values, kind, True))
        assert k == tuple(_recursion(values, kind, False))
        assert all(type(v) is F for v in m + k)


def test_transform_output_types():
    fractions = tuple(F(i, abs(i) + 2) for i in range(-3, 10))
    ints = tuple(range(-3, 10))
    for kind, to_moments in product(KINDS, (True, False)):
        def run(values):
            if to_moments:
                return cumulants_to_moments(CumulantSequence(kind, values)).values
            return moments_to_cumulants(MomentSequence(values), kind).values

        assert all(type(v) is F for v in run(fractions))
        assert all(type(v) is int for v in run(ints))
        assert all(type(v) is float for v in run((0.5,) + fractions[1:]))
        # an entry only reads the entries before it
        mixed = run(fractions[:4] + (0.25,) + fractions[5:])
        assert all(type(v) is F for v in mixed[:4])
        assert all(type(v) is float for v in mixed[4:])
        mixed = run(ints[:4] + fractions[4:])
        assert all(type(v) is int for v in mixed[:4])
        assert all(type(v) is F for v in mixed[4:])
        assert mixed == run(tuple(map(F, ints[:4])) + fractions[4:])


def test_bernoulli_free_cumulants_half():
    m = MomentSequence((F(1, 2),) * 4)
    k = moments_to_cumulants(m, K.FREE)
    assert k.values == (F(1, 2), F(1, 4), F(0), F(-1, 16))


@pytest.mark.parametrize("p", [F(3, 10), F(2, 7), F(9, 10)])
def test_bernoulli_boolean_cumulants(p):
    q = 1 - p
    m = MomentSequence((p,) * 3)
    k = moments_to_cumulants(m, K.BOOLEAN)
    assert k.values == (p, p * q, p * q * q)


def test_point_mass_at_zero_all_cumulants_vanish():
    m = MomentSequence((F(0),) * 10)
    for kind in KINDS:
        assert moments_to_cumulants(m, kind).values == (F(0),) * 10
        assert cumulants_to_moments(CumulantSequence(kind, (F(0),) * 10)).values == (F(0),) * 10


def test_semicircle_and_gaussian_moments():
    kappa = (F(0), F(1), F(0), F(0), F(0), F(0))
    semi = cumulants_to_moments(CumulantSequence(K.FREE, kappa))
    assert semi.values == (0, 1, 0, 2, 0, 5)  # Catalan numbers
    assert cumulants_to_moments(CumulantSequence("free", kappa)) == semi  # kind by name
    gauss = cumulants_to_moments(CumulantSequence(K.CLASSICAL, kappa))
    assert gauss.values == (0, 1, 0, 3, 0, 15)  # double factorials


def test_free_symmetrization_of_half_projection_is_arcsine():
    b = bernoulli(F(1, 2))
    ms = convolve_moments(moments_of(b, 8), moments_of(negate(b), 8), K.FREE)
    # arcsine on [-1,1]: m_{2k} = C(2k,k)/4^k
    expected = tuple(
        F(comb(n, n // 2), 4 ** (n // 2)) if n % 2 == 0 else F(0) for n in range(1, 9)
    )
    assert ms.values == expected


def test_classical_symmetrization_of_half_projection():
    b = bernoulli(F(1, 2))
    ms = convolve_moments(moments_of(b, 4), moments_of(negate(b), 4), K.CLASSICAL)
    # law {-1: 1/4, 0: 1/2, 1: 1/4}
    assert ms.values == (F(0), F(1, 2), F(0), F(1, 2))


def classical_binomial_convolution(mx, my):
    def m(seq, j):
        return F(1) if j == 0 else seq.values[j - 1]

    return tuple(
        sum(comb(n, j) * m(mx, j) * m(my, n - j) for j in range(n + 1))
        for n in range(1, mx.order + 1)
    )


def test_classical_convolution_equals_binomial_formula(rng):
    for _ in range(25):
        mux, muy = random_exact_measure(rng), random_exact_measure(rng)
        mx, my = moments_of(mux, 12), moments_of(muy, 12)
        assert convolve_moments(mx, my, K.CLASSICAL).values == classical_binomial_convolution(mx, my)


def test_convolution_identity_element(rng):
    zero = moments_of(bernoulli(F(0)), 9)
    for kind in KINDS:
        mu = random_exact_measure(rng)
        mx = moments_of(mu, 9)
        assert convolve_moments(mx, zero, kind).values == mx.values


def test_dilation_homogeneity(rng):
    for kind in KINDS:
        for s in (F(-1), F(2)):
            mu = random_exact_measure(rng)
            k1 = moments_to_cumulants(moments_of(mu, 10), kind)
            k2 = moments_to_cumulants(moments_of(dilate(mu, s), 10), kind)
            assert k2.values == tuple(s**n * v for n, v in enumerate(k1.values, start=1))


def test_symmetrization_kills_odd_moments(rng):
    for kind in KINDS:
        for _ in range(10):
            mu = random_exact_measure(rng)
            ms = convolve_moments(
                moments_of(mu, 13), moments_of(negate(mu), 13), kind
            )
            assert odd_moment_residual(ms) == 0


def test_second_moment_additivity(rng):
    for kind in KINDS:
        mux, muy = random_exact_measure(rng), random_exact_measure(rng)
        mx, my = moments_of(mux, 4), moments_of(muy, 4)
        ms = convolve_moments(mx, my, kind)
        var_sum = ms.values[1] - ms.values[0] ** 2
        varx = mx.values[1] - mx.values[0] ** 2
        vary = my.values[1] - my.values[0] ** 2
        assert var_sum == varx + vary


def test_odd_moment_residual_examples():
    assert odd_moment_residual(MomentSequence((F(3, 10),) * 6)) == F(3, 10)
    assert odd_moment_residual(MomentSequence((F(0),) * 6)) == 0


def test_order_limits():
    with pytest.raises(OrderError, match=r"^order must be in 1\.\.13, got 14$"):
        MomentSequence((F(0),) * 14)
    with pytest.raises(OrderError, match=r"^order must be in 1\.\.13, got 0$"):
        MomentSequence(())
    with pytest.raises(OrderError, match=r"^order must be in 1\.\.13, got 14$"):
        CumulantSequence(K.FREE, (F(0),) * 14)
    with pytest.raises(OrderError, match=r"^order must be in 1\.\.13, got 0$"):
        CumulantSequence(K.FREE, ())
    with pytest.raises(OrderError, match=r"^order must be in 1\.\.13, got 14$"):
        check_order(14)


def test_sequences_build_positionally_compare_by_class_and_hash():
    values = (F(1, 2), F(1, 3))
    m, k = MomentSequence(values), CumulantSequence(K.FREE, values)
    assert (m.values, m.order, k.kind, k.values, k.order) == (values, 2, K.FREE, values, 2)
    for seq, twin in ((m, MomentSequence(values)), (k, CumulantSequence(K.FREE, values))):
        assert seq == twin and hash(seq) == hash(twin)
    assert k != CumulantSequence(K.BOOLEAN, values)
    assert m != k and m != MomentSequence(values[:1])
    assert len({m, MomentSequence(values), k}) == 2
    with pytest.raises(AttributeError):  # frozen
        m.values = ()


def test_kind_names_in_any_case_and_unknown_kinds_refused():
    assert K("Free") is K.FREE
    assert K(K.BOOLEAN) is K.BOOLEAN
    m = moments_of(bernoulli(F(3, 10)), 4)
    with pytest.raises(SizeError, match="unknown independence kind: 'bogus'"):
        convolve_moments(m, m, "bogus")
    with pytest.raises(SizeError):
        nc_min_variance(0.3, "bogus")


def test_mismatched_orders_rejected():
    a = MomentSequence((F(1),) * 3)
    b = MomentSequence((F(1),) * 4)
    with pytest.raises(SizeError):
        convolve_moments(a, b, K.FREE)


def _random_float_laws(count, seed=13):
    """Laws with at most 6 atoms in the search's box [-3, 2]."""
    gen = np.random.default_rng(seed)
    for _ in range(count):
        size = int(gen.integers(1, 7))
        yield gen.uniform(-3.0, 2.0, size), gen.dirichlet(np.ones(size))


def _assert_close(got, exact, rel):
    for g, e in zip(got, exact):
        assert abs(F(float(g)) - e) <= rel * max(1, abs(e)), (float(g), float(e))


def test_free_float_kernels_match_exact_transforms():
    # float input runs the public transforms' one recursion on floats, for
    # every kind and direction; the exact transforms are prefix-consistent
    # (entry n depends on entries 1..n only), so one exact call at MAX_ORDER
    # serves every float order
    for kind, (locs, weights) in product(KINDS, _random_float_laws(200)):
        m = tuple(weights @ locs[:, None] ** np.arange(1, MAX_ORDER + 1))
        exact_k = moments_to_cumulants(MomentSequence(tuple(map(F, m))), kind).values
        k = moments_to_cumulants(MomentSequence(m), kind).values
        exact_m = cumulants_to_moments(CumulantSequence(kind, tuple(map(F, k)))).values
        for order in range(1, MAX_ORDER + 1):
            got_k = moments_to_cumulants(MomentSequence(m[:order]), kind).values
            got_m = cumulants_to_moments(CumulantSequence(kind, k[:order])).values
            assert len(got_k) == len(got_m) == order
            _assert_close(got_k, exact_k[:order], 1e-6)
            _assert_close(got_m, exact_m[:order], 1e-9)


@pytest.mark.parametrize("kind", [K.FREE])  # the Boolean minimum is an LP and has no kernel
def test_batched_float_kernels_match_exact_transforms_per_row(kind):
    # the search maps one law per row; each row must match the exact transform
    # as closely as a single sequence does
    laws = list(_random_float_laws(40, seed=29))
    m = np.array([w @ t[:, None] ** np.arange(1, MAX_ORDER + 1) for t, w in laws])
    for row_m in m:
        row_k = _free_m2k_jac(row_m)[0]
        assert row_k.shape == row_m.shape
        exact_k = moments_to_cumulants(MomentSequence(tuple(map(F, row_m))), kind).values
        _assert_close(row_k, exact_k, 1e-6)


@pytest.mark.parametrize("count", [2, 18, 50])
def test_batched_rows_round_as_single_rows(count):
    # each row of a batch of laws, through the kernel, is the stacked oracle's
    # row alone, to the bit; the stacked oracle's batched mat-vecs rounded rows
    # of a batch differently
    laws = list(_random_float_laws(count, seed=count))
    m = np.array([w @ t[:, None] ** np.arange(1, MAX_ORDER + 1) for t, w in laws])
    for row in m:
        assert _free_m2k_jac(row)[0].tobytes() == stacked_kernel.free_m2k_float(row).tobytes()
