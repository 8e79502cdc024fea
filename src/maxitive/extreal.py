"""Exact values on the extended nonnegative half-line [0, ∞].

A value is either a nonnegative rational (exact, via fractions.Fraction)
or the distinguished infinity.  The total order makes max well defined
and idempotent; max is the pseudo-addition ⊕ used by every measure in
this library, with 0 the least element and ∞ the greatest.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

__all__ = ["ExtNonneg", "ZERO", "ONE", "INF", "as_extnn", "ext_max", "ext_min"]

Coercible = Union["ExtNonneg", Fraction, int, float, str]

_INF_STRINGS = {"inf", "infinity", "oo", "∞"}


class ExtNonneg:
    """An exact point of [0, ∞]: a nonnegative Fraction or infinity.

    Immutable, hashable, totally ordered.  Arithmetic follows the
    measure-theoretic conventions ∞ + x = ∞ and 0 · ∞ = 0 (the latter
    matching the annihilator axiom of pseudo-multiplications).
    """

    __slots__ = ("_v",)

    def __init__(self, value: Coercible):
        if isinstance(value, ExtNonneg):
            v = value._v
        elif isinstance(value, Fraction):
            v = value
        elif isinstance(value, bool):
            raise TypeError("bool is not a valid extended nonnegative value")
        elif isinstance(value, int):
            v = Fraction(value)
        elif isinstance(value, float):
            if math.isnan(value):
                raise ValueError("nan is not a point of [0, inf]")
            if value < 0:  # before Fraction(value), which overflows at -inf
                raise ValueError(f"negative value {value!r} is outside [0, inf]")
            v = None if math.isinf(value) else Fraction(value)
        elif isinstance(value, str):
            s = value.strip().lower()
            if s in _INF_STRINGS:
                v = None
            else:
                try:
                    v = Fraction(s)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"cannot parse {value!r} as a nonnegative rational") from exc
        else:
            raise TypeError(f"cannot build ExtNonneg from {type(value).__name__}")
        if v is not None and v._numerator < 0:
            raise ValueError(f"negative value {value!r} is outside [0, inf]")
        self._v = v

    # -- predicates ----------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return self._v is None

    @property
    def is_finite(self) -> bool:
        """Finite as a real number (not the ⊙-finiteness of any ⊙)."""
        return self._v is not None

    @property
    def is_zero(self) -> bool:
        return self._v == 0

    def as_fraction(self) -> Fraction:
        if self._v is None:
            raise ValueError("infinity has no Fraction representation")
        return self._v

    # -- order ---------------------------------------------------------
    #
    # A Fraction is stored normalized (lowest terms, positive
    # denominator) in its _numerator and _denominator slots.  Comparing
    # the integers there is exact and skips the numbers.Rational test
    # that Fraction's own comparisons make on every call.

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        a, b = self._v, other._v
        if a is None or b is None:
            return a is b
        return a._numerator == b._numerator and a._denominator == b._denominator

    def __hash__(self) -> int:
        return hash(self._v)

    def __lt__(self, other: "ExtNonneg") -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        a, b = self._v, other._v
        if a is None:
            return False
        if b is None:
            return True
        return a._numerator * b._denominator < b._numerator * a._denominator

    def __le__(self, other: "ExtNonneg") -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        a, b = self._v, other._v
        if b is None:
            return True
        if a is None:
            return False
        return a._numerator * b._denominator <= b._numerator * a._denominator

    def __gt__(self, other: "ExtNonneg") -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        return other.__lt__(self)

    def __ge__(self, other: "ExtNonneg") -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        return other.__le__(self)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "ExtNonneg") -> "ExtNonneg":
        """Ordinary sum with ∞ absorbing (used by additive measures)."""
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        if self._v is None or other._v is None:
            return INF
        return ExtNonneg(self._v + other._v)

    def __mul__(self, other: "ExtNonneg") -> "ExtNonneg":
        """Product with the convention 0 · ∞ = ∞ · 0 = 0."""
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        if self._v == 0 or other._v == 0:
            return ZERO
        if self._v is None or other._v is None:
            return INF
        return ExtNonneg(self._v * other._v)

    def __truediv__(self, other: "ExtNonneg") -> "ExtNonneg":
        """Division by a finite positive value; ∞ / q = ∞."""
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        if other._v is None or other._v == 0:
            raise ZeroDivisionError("division only by finite positive values")
        if self._v is None:
            return INF
        return ExtNonneg(self._v / other._v)

    # -- conversion and display -----------------------------------------

    def __float__(self) -> float:
        return math.inf if self._v is None else float(self._v)

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)

    def __repr__(self) -> str:
        return f"ExtNonneg({str(self)!r})"

    def __bool__(self) -> bool:
        return self._v != 0


ZERO = ExtNonneg(0)
ONE = ExtNonneg(1)
INF = ExtNonneg("inf")


def as_extnn(value: Coercible) -> ExtNonneg:
    """Coerce ints, Fractions, floats, and strings like "1/3" or "inf"."""
    return value if isinstance(value, ExtNonneg) else ExtNonneg(value)


def ext_max(values: Iterable[ExtNonneg]) -> ExtNonneg:
    """⊕ of a finite family; the empty family yields 0."""
    best = ZERO
    for v in values:
        if best < v:
            best = v
    return best


def ext_min(values: Iterable[ExtNonneg]) -> ExtNonneg:
    """Meet of a finite family; the empty family yields ∞."""
    best = INF
    for v in values:
        if v < best:
            best = v
    return best
