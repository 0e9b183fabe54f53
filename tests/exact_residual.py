"""The exact odd residual of a reported float law: a re-check of the float answers.

Every float is a dyadic rational, so the law an `OptResult` reports can be
taken exactly: each atom and weight as `Fraction(float)`, the weights
divided by their exact sum (float weights may miss 1 by an ulp), and e as
`bernoulli(Fraction(p))`. Exact `convolve_moments` then gives the odd
moments of e + y with no rounding in the check itself.
"""

from fractions import Fraction

from symvar.cumulants import MAX_ORDER, convolve_moments
from symvar.measures import DiscreteMeasure, bernoulli, moments_of


def exact_odd_residual(result, p, kind):
    """max |m_n(e + y)| over the odd n that result constrains, exactly, as a Fraction.

    y is result's measure; the constrained odd orders run up to result.order,
    or up to MAX_ORDER when it is None (the whole law is constrained).
    """
    atoms = [(Fraction(t), Fraction(w)) for t, w in result.measure.atoms]
    total = sum(w for _, w in atoms)
    y = DiscreteMeasure.from_atoms([(t, w / total) for t, w in atoms], mode="exact")
    e = bernoulli(Fraction(p))
    m = convolve_moments(moments_of(e, MAX_ORDER), moments_of(y, MAX_ORDER), kind)
    return max(abs(v) for v in m.values[: result.order or MAX_ORDER : 2])
