"""The float answers of criteria 1 and 4 and of the Boolean LP, re-checked exactly.

The reported residual is a float convolution, which cannot tell a law
symmetric to 1e-16 from rounding in the check; the exact residual of the
law as reported can.
"""

import pytest

import symvar as sv
from exact_residual import exact_odd_residual
from symvar.optimizer import LP_GATE

CRITERION_1_GRID = sv.GridSpec(-2.0, 1.0, 0.25, must_include=(-1.0, 0.0))


@pytest.mark.parametrize("p", [0.1, 0.3, 0.45, 0.9])
def test_classical_lp_is_exactly_within_its_gate(p):
    r = sv.classical_min_variance(p, CRITERION_1_GRID)
    assert exact_odd_residual(r, p, "classical") <= LP_GATE


@pytest.mark.parametrize("p", [0.3, 0.7, 0.9])
def test_boolean_lp_is_exactly_within_its_gate(p):
    r = sv.nc_min_variance(p, "boolean")
    assert exact_odd_residual(r, p, "boolean") <= LP_GATE


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_free_search_is_exactly_within_criterion_4s_gate(p):
    r = sv.nc_min_variance(p, "free", sv.SearchConfig(seed=20260826))
    assert exact_odd_residual(r, p, "free") <= 1e-6
