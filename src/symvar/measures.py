"""Finitely supported laws: the projection/Bernoulli measure and friends.

A measure carries a numeric mode. Exact mode stores fractions.Fraction atoms
and is used wherever theorems are verified; float mode backs the optimizer
and the matrix lab. Mixing modes in one operation is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite

from .cumulants import MAX_ORDER, MomentSequence
from .errors import CriticalCaseError, OrderError, SizeError, SymvarError

FLOAT_MERGE_TOL = 1e-10
HALF = Fraction(1, 2)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Atoms (location, weight) with strictly increasing locations, weights summing to 1."""

    atoms: tuple
    mode: str  # "exact" | "float"

    @classmethod
    def from_atoms(cls, pairs, mode="exact"):
        if mode not in ("exact", "float"):
            raise SizeError(f"unknown mode {mode!r}")
        num = Fraction if mode == "exact" else float
        try:
            pairs = [(num(t), num(w)) for t, w in pairs]
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise SymvarError(
                "atoms must be a list of [location, weight] pairs of finite numbers"
            ) from None
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
        if not merged:
            raise SizeError("measure has no atoms")
        return cls(tuple((t, w) for t, w in merged), mode)

    def to_json(self):
        return json.dumps(
            {
                "atoms": [[_num_str(t), _num_str(w)] for t, w in self.atoms]
                if self.mode == "exact"
                else [[t, w] for t, w in self.atoms],
                "mode": self.mode,
            }
        )

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise SymvarError('a measure is a JSON object with an "atoms" list')
        return cls.from_atoms(obj["atoms"], mode=obj.get("mode", "exact"))


def _same_location(a, b, mode):
    if mode == "exact":
        return a == b
    return abs(a - b) <= FLOAT_MERGE_TOL


def _num_str(x):
    """Lossless string for a rational: decimal when terminating, else a/b."""
    x = Fraction(x)
    den, i, j = x.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        i += 1
    while den % 5 == 0:
        den //= 5
        j += 1
    if den != 1:
        return f"{x.numerator}/{x.denominator}"
    k = max(i, j)
    if k == 0:
        return str(x.numerator)
    digits = abs(x.numerator) * 10**k // x.denominator
    sign = "-" if x.numerator < 0 else ""
    s = str(digits).rjust(k + 1, "0")
    return f"{sign}{s[:-k]}.{s[-k:]}"


def check_p(p, allow_critical=False):
    """p as a float if it is one, else as a Fraction; it must lie in (0, 1).

    p = 1/2 is a CriticalCaseError unless allow_critical.
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


def bernoulli(p) -> DiscreteMeasure:
    """The law of a projection with trace p: {0 -> 1-p, 1 -> p}."""
    mode = "float" if isinstance(p, float) else "exact"
    p = float(p) if mode == "float" else Fraction(p)
    if not 0 <= p <= 1:
        raise SizeError(f"p must lie in [0,1], got {p}")
    one = 1.0 if mode == "float" else Fraction(1)
    if p == 0:
        return DiscreteMeasure.from_atoms([(0 * one, one)], mode)
    if p == 1:
        return DiscreteMeasure.from_atoms([(one, one)], mode)
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
    if not 1 <= order <= MAX_ORDER:
        raise OrderError(f"order must be in 1..{MAX_ORDER}, got {order}")
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
