"""Measures, level sets, σ-ideals, finiteness and spot diagnostics."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxitive import (
    INF,
    ONE,
    ZERO,
    ExtNonneg,
    MaxMeasure,
    MeasurableFn,
    Minimum,
    SetFunctionTable,
    SigmaIdeal,
    Space,
    SpaceMismatchError,
    StandardProduct,
    SubsetB,
    check_maxitive,
    check_maxitive_bruteforce,
    delta_sharp,
    find_odot_spots,
    is_negligible,
    is_semi_odot_finite,
    is_sigma_odot_finite,
    measure_eval,
    semi_odot_finite_bruteforce,
)
from maxitive.errors import SizeCapError

from conftest import LABELS, extnn, fraction_key, rand_measure, rand_space, scan_free

TIMES = StandardProduct()
MIN = Minimum()


def test_measure_eval_examples():
    sp = Space(["a", "b"])
    nu = MaxMeasure(sp, {"a": 1, "b": 3})
    assert nu(sp.full) == ExtNonneg(3)
    assert nu(sp.empty) == ZERO
    sp3 = Space(["a", "b", "c"])
    assert delta_sharp(sp3)(sp3.subset(["c"])) == ONE


def test_delta_sharp_masses():
    sp = Space(["a"])
    assert delta_sharp(sp).mass("a") == ONE
    sp3 = Space(["a", "b", "c"])
    assert delta_sharp(sp3)(sp3.full) == ONE
    assert delta_sharp(sp3)(sp3.empty) == ZERO


def test_space_mismatch_rejected():
    a = Space(["a", "b"])
    b = Space(["a", "c"])
    with pytest.raises(SpaceMismatchError):
        measure_eval(MaxMeasure(a, {"a": 1, "b": 2}), b.full)


def test_is_negligible():
    sp = Space(["a", "b"])
    mu = MaxMeasure(sp, {"a": 0, "b": 1})
    assert is_negligible(mu, sp.subset(["a"]))
    assert is_negligible(mu, sp.empty)
    assert not is_negligible(delta_sharp(sp), sp.subset(["a"]))


def test_sigma_odot_finiteness_examples():
    sp = Space(["a", "b"])
    assert is_sigma_odot_finite(TIMES, MaxMeasure(sp, {"a": 2, "b": 3}))
    sp3 = Space(["a", "b", "c"])
    assert not is_sigma_odot_finite(TIMES, MaxMeasure.constant(sp3, INF))
    assert is_sigma_odot_finite(MIN, MaxMeasure(Space(["a"]), {"a": INF}))


def test_sigma_finiteness_equals_total_finiteness():
    # finite-space collapse: all atoms ⊙-finite ⇔ μ(E) ⊙-finite
    rng = random.Random(0)
    for _ in range(300):
        sp = rand_space(rng)
        mu = rand_measure(rng, sp, allow_inf=True)
        for pm in (TIMES, MIN):
            assert is_sigma_odot_finite(pm, mu) == pm.is_odot_finite(mu.total)


def test_semi_finiteness_examples():
    assert not is_semi_odot_finite(TIMES, MaxMeasure(Space(["a"]), {"a": INF}))
    sp = Space(["a", "b"])
    assert is_semi_odot_finite(TIMES, MaxMeasure(sp, {"a": 5, "b": "1/7"}))
    assert is_semi_odot_finite(MIN, MaxMeasure(sp, {"a": INF, "b": 2}))


def test_semi_finiteness_agrees_with_bruteforce():
    rng = random.Random(1)
    for _ in range(200):
        sp = rand_space(rng, hi=5)
        mu = rand_measure(rng, sp, allow_inf=True)
        for pm in (TIMES, MIN):
            semi = is_semi_odot_finite(pm, mu)
            assert semi == semi_odot_finite_bruteforce(pm, mu)
            # fails exactly when some atom mass is ⊙-infinite
            assert semi == all(pm.is_odot_finite(v) for v in mu.masses)
            # which on a finite atomic space coincides with σ-⊙-finiteness
            assert semi == is_sigma_odot_finite(pm, mu)


def test_spots_examples(chain):
    sp = Space(["a", "b"])
    report = find_odot_spots(TIMES, MaxMeasure(sp, {"a": INF, "b": 1}))
    assert report.has_spots
    assert report.maximal_spot == sp.subset(["a"])
    assert report.atom_spots == ("a",)

    assert not find_odot_spots(TIMES, MaxMeasure(sp, {"a": 2, "b": 3})).has_spots

    sp1 = Space(["a"])
    report = find_odot_spots(chain, MaxMeasure(sp1, {"a": 2}))
    assert report.maximal_spot == sp1.subset(["a"])


def test_maximal_spot_is_a_spot():
    # every subset of the maximal spot has measure zero or ⊙-infinite
    rng = random.Random(2)
    for _ in range(100):
        sp = rand_space(rng, hi=5)
        mu = rand_measure(rng, sp, allow_inf=True)
        report = find_odot_spots(TIMES, mu)
        if not report.has_spots:
            continue
        spot = report.maximal_spot
        assert not TIMES.is_odot_finite(measure_eval(mu, spot))
        for B in sp.subsets():
            sub = B & spot
            v = measure_eval(mu, sub)
            assert v.is_zero or not TIMES.is_odot_finite(v)


def test_spot_implies_not_semi_finite():
    rng = random.Random(3)
    for _ in range(200):
        sp = rand_space(rng, hi=5)
        mu = rand_measure(rng, sp, allow_inf=True)
        for pm in (TIMES, MIN):
            if find_odot_spots(pm, mu).has_spots:
                assert not is_semi_odot_finite(pm, mu)


def test_check_maxitive_examples():
    sp = Space(["a", "b"])
    mu = MaxMeasure(sp, {"a": 1, "b": 1})
    assert check_maxitive(mu.table())
    assert check_maxitive_bruteforce(mu.table())
    additive = SetFunctionTable(sp, [ZERO, ONE, ONE, ExtNonneg(2)])
    assert not check_maxitive(additive)
    assert not check_maxitive_bruteforce(additive)


@st.composite
def maxitive_or_broken_tables(draw):
    """A measure's table, or the same table with one entry redrawn."""
    n = draw(st.integers(1, 5))
    space = Space(list(LABELS[:n]))
    values = list(MaxMeasure(space, [draw(extnn) for _ in range(n)]).table().values)
    if draw(st.booleans()):
        values[draw(st.integers(1, (1 << n) - 1))] = draw(extnn)
    return SetFunctionTable(space, values)


@settings(max_examples=300, deadline=None)
@given(maxitive_or_broken_tables())
def test_check_maxitive_matches_the_all_pairs_scan(table):
    assert check_maxitive(table) == check_maxitive_bruteforce(table)


def test_check_maxitive_at_ten_atoms_agrees_with_the_all_pairs_scan():
    rng = random.Random(6)
    mu = rand_measure(rng, Space([f"x{i}" for i in range(10)]), allow_inf=True)
    table = mu.table()
    assert check_maxitive(table) and check_maxitive_bruteforce(table)
    broken = list(table.values)
    broken[(1 << 10) - 1] = ZERO if not broken[-1].is_zero else ONE
    broken = SetFunctionTable(mu.space, broken)
    assert not check_maxitive(broken) and not check_maxitive_bruteforce(broken)


def test_set_function_table_requires_zero_at_empty():
    sp = Space(["a"])
    with pytest.raises(ValueError):
        SetFunctionTable(sp, [ONE, ONE])


def test_check_maxitive_large_path_matches_pair_scan():
    rng = random.Random(4)
    sp = Space(list(LABELS)[:6])
    for _ in range(40):
        values = [ZERO] + [ExtNonneg(rng.randint(0, 3)) for _ in range((1 << 6) - 1)]
        table = SetFunctionTable(sp, values)
        pair_scan = all(
            table.values[a | b] == max(table.values[a], table.values[b])
            for a in range(1 << 6) for b in range(1 << 6))
        assert check_maxitive(table) == pair_scan


def test_measure_monotone_and_maxitive():
    rng = random.Random(5)
    for _ in range(50):
        sp = rand_space(rng, hi=5)
        mu = rand_measure(rng, sp, allow_inf=True)
        subsets = list(sp.subsets())
        for A in subsets:
            for B in subsets:
                union = measure_eval(mu, A | B)
                assert union == max(measure_eval(mu, A), measure_eval(mu, B))
                if A.issubset(B):
                    assert measure_eval(mu, A) <= measure_eval(mu, B)


def test_level_sets_and_support():
    sp = Space(["a", "b", "c"])
    f = MeasurableFn(sp, {"a": 0, "b": "1/2", "c": INF})
    assert f.strictly_above(ZERO) == sp.subset(["b", "c"])
    assert f.at_least(ExtNonneg("1/2")) == sp.subset(["b", "c"])
    assert f.level(INF) == sp.subset(["c"])
    assert f.support == sp.subset(["b", "c"])
    assert f.finite_positive_values() == [ExtNonneg("1/2")]
    assert f.attains_inf()


# -- the cached level-set builder, held to the literal per-atom loops --------

LEVEL_POOL = (ZERO, ExtNonneg("1/3"), ExtNonneg("1/2"), ONE, ExtNonneg(2), ExtNonneg("7/2"), INF)


def _literal_mask(f: MeasurableFn, keep) -> int:
    mask = 0
    for i, v in enumerate(f.values):
        if keep(fraction_key(v)):
            mask |= 1 << i
    return mask


def _thresholds(f: MeasurableFn) -> list:
    """At, between, below and above the values of f."""
    finite = sorted({v.as_fraction() for v in f.values if v.is_finite})
    points = set(finite) | {(a + b) / 2 for a, b in zip(finite, finite[1:])}
    points |= {finite[0] / 2, finite[-1] + 1} if finite else {Fraction(1)}
    return [ExtNonneg(q) for q in points] + [INF]


def _forms(t: ExtNonneg) -> list:
    """t as an ExtNonneg, as a str and, where it is an integer, as an int."""
    forms = [t, str(t)]
    if t.is_finite and t.as_fraction().denominator == 1:
        forms.append(int(t.as_fraction()))
    return forms


def test_level_sets_match_the_per_atom_loops():
    rng = random.Random(61)
    for _ in range(300):
        sp = rand_space(rng, 1, 8)
        f = MeasurableFn(sp, [rng.choice(LEVEL_POOL) for _ in sp.atoms])
        for t in _thresholds(f):
            kt = fraction_key(t)
            above = _literal_mask(f, lambda kv: kv > kt)
            at_least = _literal_mask(f, lambda kv: kv >= kt)
            level = _literal_mask(f, lambda kv: kv == kt)
            for form in _forms(t):
                assert f.strictly_above(form).mask == above
                assert f.at_least(form).mask == at_least
                assert f.level(form).mask == level
        assert f.support.mask == _literal_mask(f, lambda kv: kv > (0, 0))
        for B in (None, *(SubsetB(sp, rng.randrange(1 << sp.n)) for _ in range(4))):
            inside = [v for i, v in enumerate(f.values) if B is None or B.mask >> i & 1]
            want = sorted({v for v in inside if v.is_finite and not v.is_zero}, key=fraction_key)
            assert f.finite_positive_values(B) == want
            assert f.attains_inf(B) == any(v.is_inf for v in inside)
        assert f.descending_order == tuple(
            sorted(range(sp.n), key=lambda i: fraction_key(f.values[i]), reverse=True))


def test_level_cache_leaves_equality_hash_and_repr_alone():
    sp = Space(list("abcd"))
    values = [ONE, INF, ZERO, ONE]
    f, g = MeasurableFn(sp, values), MeasurableFn(sp, values)
    before = (hash(f), repr(f))
    f.strictly_above(ZERO)  # builds f's cache, not g's
    assert f == g and g == f
    assert (hash(f), repr(f)) == before == (hash(g), repr(g))
    assert {f, g} == {g}


def test_strictly_above_bisects_the_cache(monkeypatch):
    sp = Space(list(LABELS))
    f = MeasurableFn(sp, [ExtNonneg(Fraction(k, 3)) for k in range(1, 10)] + [INF])
    thresholds = [ExtNonneg(Fraction(k, 7)) for k in range(100)]
    f.strictly_above(ZERO)  # builds the cache
    calls = []
    for name in ("__lt__", "__le__"):
        original = getattr(ExtNonneg, name)

        def counted(a, b, _original=original):
            calls.append(1)
            return _original(a, b)
        monkeypatch.setattr(ExtNonneg, name, counted)
    for t in thresholds:
        f.strictly_above(t)
    # ⌈log₂ 11⌉ + 1 comparisons a call; a per-atom scan makes 10
    assert len(calls) <= len(thresholds) * (math.ceil(math.log2(sp.n + 1)) + 1)


def test_indicator():
    sp = Space(["a", "b"])
    ind = MeasurableFn.indicator(sp.subset(["a"]), height=INF)
    assert ind("a") == INF and ind("b") == ZERO


def test_sigma_ideal_membership_and_generators():
    sp = Space(["a", "b", "c"])
    ideal = SigmaIdeal.from_generators(sp, [sp.subset(["a"]), sp.subset(["b"])])
    assert ideal.top == sp.subset(["a", "b"])
    assert ideal.contains(sp.subset(["a", "b"]))
    assert ideal.contains(sp.empty)
    assert not ideal.contains(sp.subset(["c"]))
    assert len(list(ideal.members())) == 4


def test_sigma_ideals_with_one_top_are_equal_whatever_their_generators():
    sp = Space(["a", "b", "c"])
    by_atoms = SigmaIdeal.from_generators(sp, [sp.subset(["a"]), sp.subset(["b"])])
    by_pair = SigmaIdeal.from_generators(sp, [sp.subset(["a", "b"])])
    assert by_atoms.generators != by_pair.generators
    assert by_atoms == by_pair and hash(by_atoms) == hash(by_pair)
    assert by_atoms != SigmaIdeal(sp, sp.subset(["a"]))


def test_enumeration_caps():
    big = Space([f"x{i}" for i in range(21)])
    with pytest.raises(SizeCapError):
        list(big.subsets())
    with pytest.raises(SizeCapError):
        MaxMeasure.constant(big, ONE).table()


def test_measure_equality_is_by_value():
    sp = Space(["a", "b"])
    assert MaxMeasure(sp, {"a": 1, "b": 2}) == MaxMeasure(sp, {"a": "1", "b": "2"})
    assert MaxMeasure(sp, {"a": 1, "b": 2}) != MeasurableFn(sp, {"a": 1, "b": 2})


@settings(max_examples=60)
@given(data=st.data())
def test_subset_algebra(data):
    sp = Space(["a", "b", "c", "d"])
    m1 = data.draw(st.integers(0, 15))
    m2 = data.draw(st.integers(0, 15))
    from maxitive import SubsetB
    A, B = SubsetB(sp, m1), SubsetB(sp, m2)
    assert (A | B).mask == m1 | m2
    assert (A & B).mask == m1 & m2
    assert (A - B) | (A & B) == A
    assert (~A | A) == sp.full
    assert A.issubset(A | B)


def test_masses_by_atom_are_looked_up_not_scanned():
    mu = MaxMeasure(scan_free(Space(["a", "b", "c"])), {"c": 3, "a": "1/2", "b": INF})
    assert mu.masses == (ExtNonneg("1/2"), INF, ExtNonneg(3))
