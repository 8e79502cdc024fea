"""Exact values on the extended nonnegative half-line [0, ∞].

A value is a nonnegative rational or infinity.  The total order makes
max, the pseudo-addition ⊕ of every measure here, well defined and
idempotent, with 0 least and ∞ greatest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf
from typing import Iterable, Union

from .spaces import NUMBER_DIGITS_CAP

__all__ = ["ExtNonneg", "ZERO", "ONE", "INF", "as_extnn", "ext_max", "ext_min", "ext_ratio"]

Coercible = Union["ExtNonneg", Fraction, int, float, str]

_INF_STRINGS = {"inf", "infinity", "oo", "∞"}
_new = object.__new__


class ExtNonneg:
    """An exact point of [0, ∞]: a nonnegative rational or infinity.

    Immutable, hashable, totally ordered; ∞ + x = ∞ and 0 · ∞ = 0 (as
    ⊙'s annihilator axiom).  Stored as integers ``_n / _d`` in lowest
    terms with ∞ = 1/0: cross-multiplying orders every pair, ∞
    included, and equal values have equal pairs.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, value: Coercible):
        if isinstance(value, ExtNonneg):
            n, d = value._n, value._d
        elif isinstance(value, int):
            if isinstance(value, bool):
                raise TypeError("bool is not a valid extended nonnegative value")
            n, d = value, 1
        elif isinstance(value, str):
            # "p" and "p/q" with q > 0, the forms spec documents are written
            # in, take int() and one gcd; any other string takes _read_text.
            p, slash, q = value.partition("/")
            if len(value) > NUMBER_DIGITS_CAP or not p.isdecimal():
                n, d = _read_text(value)
            elif not slash:
                n, d = int(p), 1
            elif q.isdecimal() and int(q):
                n, d = int(p), int(q)
                g = gcd(n, d)
                n, d = n // g, d // g
            else:
                n, d = _read_text(value)
        elif isinstance(value, (float, Fraction)):
            if value != value or value < 0:  # nan, or -inf: as_integer_ratio overflows
                raise ValueError(f"{value!r} is not a point of [0, inf]")
            n, d = (1, 0) if value == inf else value.as_integer_ratio()
        else:
            raise TypeError(f"cannot build ExtNonneg from {type(value).__name__}")
        if n < 0:
            raise ValueError(f"negative value {value!r} is outside [0, inf]")
        self._n = n
        self._d = d

    # -- predicates ----------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return not self._d

    @property
    def is_finite(self) -> bool:
        """Finite as a real number (not the ⊙-finiteness of any ⊙)."""
        return self._d != 0

    @property
    def is_zero(self) -> bool:
        return not self._n

    def as_fraction(self) -> Fraction:
        if not self._d:
            raise ValueError("infinity has no Fraction representation")
        return Fraction(self._n, self._d)

    # -- order ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __lt__(self, other: "ExtNonneg") -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        return self._n * other._d < other._n * self._d

    def __le__(self, other: "ExtNonneg") -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        return self._n * other._d <= other._n * self._d

    def __gt__(self, other: "ExtNonneg") -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        return self._n * other._d > other._n * self._d

    def __ge__(self, other: "ExtNonneg") -> bool:
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        return self._n * other._d >= other._n * self._d

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "ExtNonneg") -> "ExtNonneg":
        """Ordinary sum with ∞ absorbing (used by additive measures)."""
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        a, b, c, d = self._n, self._d, other._n, other._d
        if not b or not d:
            return INF
        return ext_ratio(a * d + c * b, b * d)

    def __mul__(self, other: "ExtNonneg") -> "ExtNonneg":
        """Product with the convention 0 · ∞ = ∞ · 0 = 0."""
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        a, b, c, d = self._n, self._d, other._n, other._d
        return ext_ratio(a * c, b * d) if a and c else ZERO  # ∞ = 1/0 needs no branch

    def __truediv__(self, other: "ExtNonneg") -> "ExtNonneg":
        """Division by a finite positive value; ∞ / q = ∞."""
        if not isinstance(other, ExtNonneg):
            return NotImplemented
        a, b, c, d = self._n, self._d, other._n, other._d
        if not c or not d:
            raise ZeroDivisionError("division only by finite positive values")
        return ext_ratio(a * d, b * c)

    # -- conversion and display -----------------------------------------

    def __float__(self) -> float:
        return self._n / self._d if self._d else inf

    def __str__(self) -> str:
        return str(self._n) if self._d == 1 else f"{self._n}/{self._d}" if self._d else "inf"

    def __repr__(self) -> str:
        return f"ExtNonneg({str(self)!r})"

    def __bool__(self) -> bool:
        return self._n != 0


def _read_text(value: str) -> tuple:
    """The pair (n, d) of a number string that is not a plain "p" or "p/q":
    stripped and lowercased, a name of ∞ or what Fraction reads, within the caps."""
    s = value.strip().lower()
    # Fraction would build 10**e for a huge exponent e
    e = s.partition("e")[2].lstrip("+-").replace("_", "") if "e" in s else ""
    if len(s) > NUMBER_DIGITS_CAP or e.isdecimal() and int(e) > NUMBER_DIGITS_CAP:
        raise ValueError(f"number {s[:24]!r} exceeds {NUMBER_DIGITS_CAP} characters "
                         f"or an exponent of {NUMBER_DIGITS_CAP}")
    if s in _INF_STRINGS:
        return 1, 0
    try:
        return Fraction(s).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse {value!r} as a nonnegative rational") from exc


def ext_ratio(n: int, d: int) -> ExtNonneg:
    """n/d in lowest terms for ints n, d ≥ 0 not both 0 (d = 0 is ∞), built
    with no Fraction and no __init__."""
    g = gcd(n, d)
    x = _new(ExtNonneg)
    x._n = n // g
    x._d = d // g
    return x


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
