"""Order and arithmetic of the extended nonnegative half-line."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from maxitive import INF, ONE, ZERO, ExtNonneg, as_extnn, ext_max, ext_min

from conftest import extnn, fraction_key


def test_construction_and_parsing():
    assert ExtNonneg(3).as_fraction() == 3
    assert ExtNonneg("1/3").as_fraction() == Fraction(1, 3)
    assert ExtNonneg("0.25").as_fraction() == Fraction(1, 4)
    assert ExtNonneg("inf").is_inf
    assert ExtNonneg("∞").is_inf
    assert ExtNonneg(Fraction(7, 2)) == ExtNonneg("7/2")
    assert ExtNonneg(0.5).as_fraction() == Fraction(1, 2)
    assert ExtNonneg(math.inf).is_inf


@pytest.mark.parametrize("bad", ["-1", "nan", "x", -2, float("nan"), -0.5, float("-inf"), True])
def test_rejected_values(bad):
    with pytest.raises((ValueError, TypeError)):
        ExtNonneg(bad)


def test_order_endpoints():
    assert ZERO <= ONE <= INF
    assert ZERO < INF
    assert not INF < INF
    assert max(ZERO, INF) == INF
    assert ext_max([]) == ZERO
    assert ext_min([]) == INF


@given(a=extnn, b=extnn)
def test_total_order(a, b):
    assert (a <= b) or (b <= a)
    assert (a <= b and b <= a) == (a == b)


# Far wider than conftest.extnn, so cross-multiplied products overflow
# any fixed-width integer.
wide_extnn = st.one_of(
    st.just(INF), st.just(ZERO),
    st.builds(Fraction, st.integers(0, 1 << 100), st.integers(1, 1 << 100)).map(ExtNonneg))


def assert_order_matches_fractions(a: ExtNonneg, b: ExtNonneg) -> None:
    ka, kb = fraction_key(a), fraction_key(b)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)
    assert (a == b) == (ka == kb)
    assert (a != b) == (ka != kb)
    if a == b:
        assert hash(a) == hash(b)


@given(a=wide_extnn, b=wide_extnn)
def test_order_agrees_with_fraction_order(a, b):
    assert_order_matches_fractions(a, b)
    if a.is_finite:
        q = a.as_fraction()
        step = Fraction(1, q.denominator << 100)
        # the same value built afresh, its nearest neighbours, and ∞
        for c in (ExtNonneg(Fraction(q.numerator, q.denominator)), ExtNonneg(q + step),
                  ExtNonneg(q - step) if q >= step else ZERO, INF):
            assert_order_matches_fractions(a, c)
            assert_order_matches_fractions(c, a)


@given(a=extnn)
def test_max_idempotent(a):
    assert max(a, a) == a
    assert max(a, ZERO) == a
    assert max(a, INF) == INF


@given(a=extnn, b=extnn)
def test_sum_absorbs_infinity(a, b):
    s = a + b
    if a.is_inf or b.is_inf:
        assert s.is_inf
    else:
        assert s.as_fraction() == a.as_fraction() + b.as_fraction()


@given(a=extnn)
def test_product_annihilator_convention(a):
    assert (ZERO * a) == ZERO
    assert (a * ZERO) == ZERO
    if not a.is_zero:
        assert (INF * a).is_inf


def test_division_conventions():
    assert ExtNonneg(3) / ExtNonneg(2) == ExtNonneg("3/2")
    assert (INF / ExtNonneg(5)).is_inf
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ONE / INF


def test_display_roundtrip():
    for text in ["0", "1", "1/3", "7/2", "inf"]:
        assert str(ExtNonneg(text)) == text
        assert as_extnn(str(ExtNonneg(text))) == ExtNonneg(text)


def test_float_conversion():
    assert float(ExtNonneg("1/4")) == 0.25
    assert math.isinf(float(INF))


def test_hashable_and_usable_in_sets():
    values = {ZERO, ONE, INF, ExtNonneg("1/2"), ExtNonneg(Fraction(1, 2))}
    assert len(values) == 4
