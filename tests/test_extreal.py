"""Order and arithmetic of the extended nonnegative half-line."""

import ast
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import maxitive.extreal as extreal
from maxitive import INF, ONE, ZERO, ExtNonneg, as_extnn, ext_max, ext_min
from maxitive.extreal import ext_ratio
from maxitive.spaces import NUMBER_DIGITS_CAP

from conftest import extnn, fraction_key

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_an_object_of_no_number_type_is_refused():
    with pytest.raises(TypeError, match="^cannot build ExtNonneg from object$"):
        ExtNonneg(object())


def test_only_zero_is_false():
    assert not ZERO
    assert ONE and INF and ExtNonneg("1/3")


def test_order_endpoints():
    assert ZERO <= ONE <= INF
    assert ZERO < INF
    assert not INF < INF
    assert max(ZERO, INF) == INF
    assert ext_max([]) == ZERO
    assert ext_min([]) == INF


@given(st.lists(extnn))
def test_ext_max_and_ext_min_are_the_literal_loops(values):
    top, bottom = ZERO, INF
    for v in values:
        if top < v:
            top = v
        if v < bottom:
            bottom = v
    assert ext_max(values) == top
    assert ext_min(iter(values)) == bottom


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


@given(a=wide_extnn, b=wide_extnn)
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
    assert ZERO / ExtNonneg(7) == ZERO
    for a in (ZERO, ONE, INF):
        for bad in (ZERO, INF):
            with pytest.raises(ZeroDivisionError):
                a / bad


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


# -- the integer pair against plain Fraction arithmetic -----------------------

def product_oracle(a: ExtNonneg, b: ExtNonneg):
    """a · b by Fraction arithmetic, None for ∞, with 0 · ∞ = 0."""
    if a.is_zero or b.is_zero:
        return Fraction(0)
    if a.is_inf or b.is_inf:
        return None
    return a.as_fraction() * b.as_fraction()


def as_oracle(x: ExtNonneg):
    return None if x.is_inf else x.as_fraction()


@given(a=wide_extnn, b=wide_extnn)
def test_product_and_quotient_agree_with_fraction_arithmetic(a, b):
    assert as_oracle(a * b) == product_oracle(a, b)
    assert as_oracle(b * a) == product_oracle(a, b)
    if b.is_zero or b.is_inf:
        with pytest.raises(ZeroDivisionError):
            a / b
    elif a.is_inf:
        assert (a / b).is_inf
    else:
        assert (a / b).as_fraction() == a.as_fraction() / b.as_fraction()


@given(a=wide_extnn)
def test_display_and_conversion_agree_with_fraction(a):
    if a.is_inf:
        assert (str(a), float(a)) == ("inf", math.inf)
        with pytest.raises(ValueError):
            a.as_fraction()
        return
    q = a.as_fraction()
    assert type(q) is Fraction
    assert str(a) == str(q)
    assert float(a) == float(q)
    assert ExtNonneg(str(a)) == a and ExtNonneg(q) == a


@given(a=wide_extnn, k=st.integers(1, 1 << 64))
def test_equal_values_built_differently_are_equal_and_hash_equal(a, k):
    if a.is_inf:
        built = [ext_ratio(k, 0), a * ExtNonneg(k), a / ExtNonneg(k), a + ONE, ExtNonneg("inf")]
    else:
        q = a.as_fraction()
        built = [ext_ratio(q.numerator * k, q.denominator * k), ExtNonneg(q), ExtNonneg(str(q)),
                 a * ONE, a / ONE, a + ZERO, (a * ExtNonneg(k)) / ExtNonneg(k)]
    for b in built:
        assert b == a and hash(b) == hash(a)


# -- a hash that is the same in every process ---------------------------------

HASH_PROBE = (
    "from maxitive import INF, ZERO, ExtNonneg\n"
    "print(hash(INF), hash(ExtNonneg('22/7')), hash(ZERO))\n"
    "print([str(x) for x in {ExtNonneg('1/3'), INF, ZERO, ExtNonneg(5), ExtNonneg('7/2')}])\n"
)


def test_hash_and_set_order_do_not_depend_on_the_process():
    outputs = set()
    for seed in ("0", "1", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", HASH_PROBE], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# -- the mechanism: no Fraction on the hot path ----------------------------------

def private_fraction_reads(path: Path) -> list:
    """Line numbers where ``path`` reads Fraction's private slots."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and node.attr in ("_numerator", "_denominator"))


def test_no_module_reads_fractions_private_slots():
    reads = {path.name: private_fraction_reads(path)
             for path in sorted((SRC / "maxitive").glob("*.py"))}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_private_slot_guard_sees_a_read(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def f(q):\n    return q._numerator * 2\n\n\nq._denominator\n",
                    encoding="utf-8")
    assert private_fraction_reads(path) == [2, 5]


def test_hot_operations_construct_no_fraction(monkeypatch):
    values = [ExtNonneg(Fraction(p, q)) for p in range(0, 7) for q in (1, 2, 3, 1 << 70)]
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(extreal, "Fraction", CountingFraction)
    for a in values:
        hash(a)
        for b in values:
            a * b, a < b, a <= b, a == b, a > b, a >= b, a + b
            if not b.is_zero:
                a / b
        str(a), float(a)
    assert made == []
    values[5].as_fraction()  # the boundary does build one, so the patch is seen
    assert len(made) == 1


# -- "p/q" strings ---------------------------------------------------------------

def parsed_or_refused(build, text):
    try:
        return build(text)
    except (ValueError, ZeroDivisionError):
        return "refused"


def assert_parsed_as_fraction_parses(text):
    expected = parsed_or_refused(lambda x: ExtNonneg(Fraction(x)), text)
    assert parsed_or_refused(ExtNonneg, text) == expected
    if expected == "refused":
        with pytest.raises(ValueError, match="cannot parse .* as a nonnegative rational"):
            ExtNonneg(text)


@pytest.mark.parametrize("text", [
    "0/7", "3/0", "0/0", " 7/3 ", "1_0/3", "+1/2", "1/-2", "1.5/2", "6/4", "007/010",
    "1/2/3", "/3", "3/", "7 / 3", "\u0661/\u0662", "\u0663\u0660/\u0666", "\u00b2/3"])
def test_ratio_strings_parse_as_fraction_parses(text):
    assert_parsed_as_fraction_parses(text)


def test_random_ratio_strings_parse_as_fraction_parses():
    rng = random.Random(5)
    for _ in range(2_000):
        p, q = (rng.randrange(0, 2 ** rng.randrange(1, 200)) for _ in range(2))
        zeros = "0" * rng.randrange(3)
        assert_parsed_as_fraction_parses(f"{zeros}{p}/{q}")
        assert_parsed_as_fraction_parses(f"{p}/{zeros}{q}")


# -- bounded number strings -----------------------------------------------------

def test_number_strings_at_the_bound_are_accepted():
    assert ExtNonneg(f"1e{NUMBER_DIGITS_CAP}") == ExtNonneg(10 ** NUMBER_DIGITS_CAP)
    assert ExtNonneg(f"1e-{NUMBER_DIGITS_CAP}") == ext_ratio(1, 10 ** NUMBER_DIGITS_CAP)
    assert ExtNonneg("7" * NUMBER_DIGITS_CAP) == ExtNonneg(int("7" * NUMBER_DIGITS_CAP))
    assert len(str(ExtNonneg(f"1e{NUMBER_DIGITS_CAP}"))) == NUMBER_DIGITS_CAP + 1


@pytest.mark.parametrize("text", [
    f"1e{NUMBER_DIGITS_CAP + 1}", f"1E-{NUMBER_DIGITS_CAP + 1}", "1e5000", "2.5e+1_001",
    "7" * (NUMBER_DIGITS_CAP + 1), "1/" + "3" * NUMBER_DIGITS_CAP])
def test_number_strings_past_the_bound_are_refused(text):
    with pytest.raises(ValueError, match="exceeds"):
        ExtNonneg(text)


def test_a_huge_exponent_is_refused_before_any_power_is_built():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds"):
        ExtNonneg("1e100000000")
    assert time.perf_counter() - start < 1.0
