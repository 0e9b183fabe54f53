"""Finitely supported laws: the projection/Bernoulli measure and friends.

A measure carries a numeric mode. Exact mode stores fractions.Fraction atoms
and is used wherever theorems are verified; float mode backs the optimizer
and the matrix lab. Mixing modes in one operation is an error.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import isfinite, lcm

from .cumulants import MomentSequence, check_order
from .errors import CriticalCaseError, SizeError, SymvarError

FLOAT_MERGE_TOL = 1e-10
HALF = Fraction(1, 2)
# Exact inputs have at most this many digits in numerator and denominator, and
# so has the common denominator of a measure's atoms, so exact algebra on them
# stays fast: the moments up to order 13 of an atom at 10^999 have up to
# 13,000 digits. Every finite float fits (5e-324 has a 324-digit denominator).
MAX_EXACT_DIGITS = 1000
_EXACT_LIMIT = 10**MAX_EXACT_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as fractions.Fraction reads it


def exact_number(x):
    """x as a Fraction of at most MAX_EXACT_DIGITS digits above and below, else SizeError.

    A string's exponent is checked before the Fraction is built: building
    10^1000000 alone takes a third of a second.
    """
    exponent = _EXPONENT.search(x) if isinstance(x, str) else None
    if exponent is None or abs(int(exponent.group(1))) <= MAX_EXACT_DIGITS:
        x = Fraction(x)
        if abs(x.numerator) < _EXACT_LIMIT and x.denominator < _EXACT_LIMIT:
            return x
    raise SizeError(f"an exact number has at most {MAX_EXACT_DIGITS} digits in numerator "
                    "and in denominator")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (location, weight) with strictly increasing locations, weights summing to 1."""

    atoms: tuple
    mode: str  # "exact" | "float"

    @classmethod
    def from_atoms(cls, pairs, mode="exact"):
        if mode not in ("exact", "float"):
            raise SizeError(f"unknown mode {mode!r}")
        num = exact_number if mode == "exact" else float
        try:
            pairs = [(num(t), num(w)) for t, w in pairs]
        except SizeError:
            raise
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise SymvarError(
                "atoms must be a list of [location, weight] pairs of finite numbers"
            ) from None
        # 20 exact atoms at coprime 999-digit denominators took 55 s to convolve (2-vCPU VM)
        if mode == "exact" and lcm(*(x.denominator for p in pairs for x in p)) >= _EXACT_LIMIT:
            raise SizeError(
                f"the atoms' common denominator has more than {MAX_EXACT_DIGITS} digits"
            )
        if mode == "float" and not all(isfinite(x) for pair in pairs for x in pair):
            raise SizeError("atom locations and weights must be finite")
        if any(w < 0 for _, w in pairs):
            raise SizeError("negative atom weight")
        pairs.sort(key=lambda a: a[0])
        merged = []
        for t, w in pairs:
            if merged and _same_location(merged[-1][0], t, mode):
                merged[-1][1] += w
            else:
                merged.append([t, w])
        merged = [(t, w) for t, w in merged if w != 0]
        total = sum(w for _, w in merged)
        if mode == "exact":
            if total != 1:
                raise SizeError(f"weights sum to {total}, expected 1")
        elif abs(total - 1.0) > 1e-12:
            raise SizeError(f"weights sum to {total!r}, expected 1 within 1e-12")
        return cls(tuple((t, w) for t, w in merged), mode)

    def to_json(self):
        return dumps(asdict(self))

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:  # an integer literal beyond Python's int-from-string limit
            raise SizeError(
                f"a number in the measure has more than {MAX_EXACT_DIGITS} digits"
            ) from None
        except RecursionError:
            raise SizeError("the measure JSON is nested too deeply") from None
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise SymvarError('a measure is a JSON object with an "atoms" list')
        return cls.from_atoms(obj["atoms"], mode=obj.get("mode", "exact"))


def _same_location(a, b, mode):
    if mode == "exact":
        return a == b
    return abs(a - b) <= FLOAT_MERGE_TOL


def _num_str(x):
    """Lossless string for a rational: decimal when terminating, else a/b.

    A rational too long for Python's int-to-string limit is a SizeError.
    """
    x = Fraction(x)
    den, i, j = x.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        i += 1
    while den % 5 == 0:
        den //= 5
        j += 1
    k = max(i, j)
    try:
        if den != 1:
            return f"{x.numerator}/{x.denominator}"
        if k == 0:
            return str(x.numerator)
        s = str(abs(x.numerator) * 10**k // x.denominator).rjust(k + 1, "0")
    except ValueError:
        raise SizeError("an exact result has more digits than Python converts to text "
                        "(sys.get_int_max_str_digits())") from None
    sign = "-" if x.numerator < 0 else ""
    return f"{sign}{s[:-k]}.{s[-k:]}"


def _encode(x):
    if isinstance(x, Fraction):
        return _num_str(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def dumps(obj):
    """obj as JSON text, every Fraction in it as a _num_str string: the only JSON writer."""
    return json.dumps(obj, default=_encode)


def check_p(p, allow_critical=False):
    """p as a float if it is one, else as a Fraction; it must lie in (0, 1).

    p = 1/2 is a CriticalCaseError unless allow_critical (the classical LP, MatrixModel).
    """
    # each type compares with its own 1/2: psi runs this once per point
    if isinstance(p, float):
        critical = p == 0.5
    else:
        if not isinstance(p, Fraction):
            p = Fraction(p)
        critical = p == HALF
    if not 0 < p < 1:
        raise SizeError(f"p must lie in (0,1), got {p}")
    if critical and not allow_critical:
        raise CriticalCaseError()
    return p


def check_seed(seed):
    if seed < 0:
        raise SizeError(f"seed must be non-negative, got {seed}")


def bernoulli(p) -> DiscreteMeasure:
    """The law of a projection with trace p: {0 -> 1-p, 1 -> p}."""
    mode = "float" if isinstance(p, float) else "exact"
    p = float(p) if mode == "float" else Fraction(p)
    if not 0 <= p <= 1:
        raise SizeError(f"p must lie in [0,1], got {p}")
    one = 1.0 if mode == "float" else Fraction(1)
    return DiscreteMeasure.from_atoms([(0 * one, one - p), (one, p)], mode)


def negate(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Pushforward under t -> -t."""
    return DiscreteMeasure.from_atoms([(-t, w) for t, w in mu.atoms], mu.mode)


def shift(mu: DiscreteMeasure, c) -> DiscreteMeasure:
    """Pushforward under t -> t + c."""
    return DiscreteMeasure.from_atoms([(t + c, w) for t, w in mu.atoms], mu.mode)


def dilate(mu: DiscreteMeasure, s) -> DiscreteMeasure:
    """Pushforward under t -> s*t."""
    return DiscreteMeasure.from_atoms([(s * t, w) for t, w in mu.atoms], mu.mode)


def moments_of(mu: DiscreteMeasure, order: int) -> MomentSequence:
    """m_n = sum w * t^n for n = 1..order; exact in exact mode.

    A float moment beyond the float range is a SizeError.
    """
    check_order(order)
    try:
        values = tuple(sum(w * t**n for t, w in mu.atoms) for n in range(1, order + 1))
        if mu.mode == "float" and not all(map(isfinite, values)):
            raise OverflowError
    except OverflowError:
        raise SizeError(f"moments up to order {order} exceed the float range") from None
    return MomentSequence(values)


def mean(mu: DiscreteMeasure):
    return sum(w * t for t, w in mu.atoms)


def variance(mu: DiscreteMeasure):
    """m_2 - m_1^2."""
    m1 = mean(mu)
    m2 = sum(w * t * t for t, w in mu.atoms)
    return m2 - m1 * m1
