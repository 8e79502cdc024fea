"""The ⊙-integral: evaluation routes, oracle bounds, and the integral laws."""

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
    CustomContinuous,
    ExtNonneg,
    MaxMeasure,
    MeasurableFn,
    Minimum,
    Space,
    StandardProduct,
    SubsetB,
    assert_oracle_consistent,
    canonical_grid,
    check_maxitive,
    delta_sharp,
    integrate_atomwise,
    integrate_oracle,
    integrate_threshold,
    measure_eval,
    pushforward,
    pushforward_measure,
)

from maxitive.pseudomul import OPERATION_FAULTS

from conftest import (CountingTimes, FaultyMap, float_times, literal_sup, outcome, rand_fn,
                      rand_measure, rand_space)

TIMES = StandardProduct()
MIN = Minimum()


def _dense_oracle(pm, f, nu, B, steps=2000):
    """Independent oracle: the defining sup on a dense rational grid."""
    finite = [v.as_fraction() for v in f.finite_positive_values(B)]
    top = max(finite, default=Fraction(1))
    grid = sorted({Fraction(k, steps) * 2 * top for k in range(steps + 1)})
    best = ZERO
    for t in grid:
        term = pm(ExtNonneg(t), measure_eval(nu, B & f.strictly_above(ExtNonneg(t))))
        if best < term:
            best = term
    return best


def test_threshold_example_product():
    sp = Space(["a", "b"])
    f = MeasurableFn(sp, {"a": 1, "b": 2})
    nu = MaxMeasure(sp, {"a": 3, "b": "1/2"})
    # oracle sweep over a dense t grid peaks at max(1·3, 2·(1/2)) = 3
    dense = _dense_oracle(TIMES, f, nu, sp.full)
    assert dense <= ExtNonneg(3)
    assert dense.as_fraction() > Fraction(29, 10)
    assert integrate_threshold(TIMES, f, nu, sp.full) == ExtNonneg(3)
    assert integrate_atomwise(TIMES, f, nu, sp.full) == ExtNonneg(3)


def test_indicator_integral_is_measure():
    rng = random.Random(0)
    for pm in (TIMES, MIN):
        for _ in range(50):
            sp = rand_space(rng)
            nu = rand_measure(rng, sp, allow_inf=True)
            B = rng.choice(list(sp.subsets()))
            ind = MeasurableFn.indicator(B, height=pm.identity)
            assert integrate_threshold(pm, ind, nu, sp.full) == measure_eval(nu, B)


def test_annihilator_case():
    sp = Space(["a"])
    f = MeasurableFn(sp, {"a": INF})
    nu = MaxMeasure(sp, {"a": 0})
    assert integrate_threshold(TIMES, f, nu, sp.subset(["a"])) == ZERO


def test_atomwise_examples():
    sp = Space(["a", "b"])
    f = MeasurableFn(sp, {"a": 1, "b": 2})
    nu = MaxMeasure(sp, {"a": 3, "b": "1/2"})
    assert integrate_atomwise(TIMES, f, nu, sp.empty) == ZERO
    sp1 = Space(["a"])
    assert integrate_atomwise(
        MIN, MeasurableFn(sp1, {"a": 2}), MaxMeasure(sp1, {"a": 5}), sp1.full
    ) == ExtNonneg(2)


def test_threshold_equals_atomwise_randomized(chain):
    rng = random.Random(1)
    for _ in range(400):
        sp = rand_space(rng)
        f = rand_fn(rng, sp, allow_inf=True)
        nu = rand_measure(rng, sp, allow_inf=True)
        B = rng.choice(list(sp.subsets()))
        for pm in (TIMES, MIN):
            assert (integrate_threshold(pm, f, nu, B)
                    == integrate_atomwise(pm, f, nu, B))
    # chains too, with carrier-valued data
    carrier = list(chain.carrier)
    for _ in range(200):
        sp = rand_space(rng, hi=4)
        f = MeasurableFn(sp, [rng.choice(carrier) for _ in sp.atoms])
        nu = MaxMeasure(sp, [rng.choice(carrier) for _ in sp.atoms])
        B = rng.choice(list(sp.subsets()))
        assert (integrate_threshold(chain, f, nu, B)
                == integrate_atomwise(chain, f, nu, B))


def test_oracle_is_lower_bound_and_trivial_grid():
    rng = random.Random(2)
    sp = rand_space(rng)
    f = rand_fn(rng, sp)
    nu = rand_measure(rng, sp)
    assert integrate_oracle(TIMES, f, nu, sp.full, [ZERO]) == ZERO
    for pm in (TIMES, MIN):
        for _ in range(100):
            B = rng.choice(list(sp.subsets()))
            grid = canonical_grid(pm, f, B)
            assert (integrate_oracle(pm, f, nu, B, grid)
                    <= integrate_threshold(pm, f, nu, B))


def test_oracle_grid_must_be_sorted_nonempty():
    sp = Space(["a"])
    f = MeasurableFn(sp, {"a": 1})
    nu = MaxMeasure(sp, {"a": 1})
    with pytest.raises(ValueError):
        integrate_oracle(TIMES, f, nu, sp.full, [])
    with pytest.raises(ValueError):
        integrate_oracle(TIMES, f, nu, sp.full, [ONE, ZERO])


def test_oracle_converges_for_constant_function():
    # constant f = c on B under the product approaches c · ν(B)
    sp = Space(["a", "b"])
    nu = MaxMeasure(sp, {"a": 2, "b": 3})
    c = ExtNonneg("5/4")
    f = MeasurableFn.constant(sp, c)
    exact = integrate_threshold(TIMES, f, nu, sp.full)
    assert exact == TIMES(c, nu(sp.full))
    oracle = integrate_oracle(TIMES, f, nu, sp.full, canonical_grid(TIMES, f))
    gap = exact.as_fraction() - oracle.as_fraction()
    assert 0 <= gap <= exact.as_fraction() * Fraction(1, 2 ** 20)


def test_canonical_grid_contents():
    sp = Space(["a", "b"])
    f = MeasurableFn(sp, {"a": 2, "b": INF})
    grid = canonical_grid(TIMES, f)
    assert ExtNonneg(2) in grid
    assert ExtNonneg(Fraction(2) - Fraction(2, 1 << 20)) in grid
    assert ExtNonneg(1 << 40) in grid  # large-t probe for the ∞ level
    assert grid == sorted(grid)


def test_canonical_grid_chain_is_carrier(chain):
    sp = Space(["a"])
    f = MeasurableFn(sp, {"a": 2})
    assert canonical_grid(chain, f) == [c for c in chain.carrier if c.is_finite]


def test_homogeneity():
    rng = random.Random(3)
    for pm in (TIMES, MIN):
        for _ in range(100):
            sp = rand_space(rng)
            f = rand_fn(rng, sp, allow_inf=True)
            nu = rand_measure(rng, sp, allow_inf=True)
            B = rng.choice(list(sp.subsets()))
            for _ in range(20):
                r = ExtNonneg(Fraction(rng.randint(0, 12), rng.randint(1, 6)))
                scaled = f.scale_left(pm, r)
                assert (integrate_threshold(pm, scaled, nu, B)
                        == pm(r, integrate_threshold(pm, f, nu, B)))


def test_sigma_maxitivity_over_functions():
    rng = random.Random(4)
    for pm in (TIMES, MIN):
        for _ in range(60):
            sp = rand_space(rng)
            fns = [rand_fn(rng, sp, allow_inf=True) for _ in range(5)]
            B = rng.choice(list(sp.subsets()))
            supf = fns[0]
            for g in fns[1:]:
                supf = supf.pointwise_max(g)
            nu = rand_measure(rng, sp, allow_inf=True)
            assert integrate_threshold(pm, supf, nu, B) == max(
                integrate_threshold(pm, g, nu, B) for g in fns)


def test_monotone_in_function_and_measure():
    rng = random.Random(5)
    for pm in (TIMES, MIN):
        for _ in range(100):
            sp = rand_space(rng)
            f = rand_fn(rng, sp)
            nu = rand_measure(rng, sp)
            bigger_f = f.pointwise_max(rand_fn(rng, sp))
            bigger_nu = MaxMeasure(sp, [max(a, b) for a, b in
                                        zip(nu.masses, rand_measure(rng, sp).masses)])
            B = rng.choice(list(sp.subsets()))
            base = integrate_threshold(pm, f, nu, B)
            assert base <= integrate_threshold(pm, bigger_f, nu, B)
            assert base <= integrate_threshold(pm, f, bigger_nu, B)


def test_pushforward_is_maxitive():
    rng = random.Random(6)
    for pm in (TIMES, MIN):
        for _ in range(40):
            sp = rand_space(rng, hi=5)
            f = rand_fn(rng, sp, allow_inf=True)
            nu = rand_measure(rng, sp, allow_inf=True)
            table = pushforward(pm, f, nu)
            assert check_maxitive(table)
            by_masses = pushforward_measure(pm, f, nu)
            assert all(table.value(B) == by_masses(B) for B in sp.subsets())


def test_pushforward_identity_and_zero():
    sp = Space(["a", "b", "c"])
    nu = MaxMeasure(sp, {"a": 1, "b": "2/3", "c": INF})
    for pm in (TIMES, MIN):
        ind = MeasurableFn.constant(sp, pm.identity)
        table = pushforward(pm, ind, nu)
        assert table == nu.table()
    zero = MeasurableFn.constant(sp, ZERO)
    assert all(v == ZERO for v in pushforward(TIMES, zero, nu).values)


def test_approximate_mode_oracle_within_tolerance():
    pm = CustomContinuous(float_times, identity=1, name="float-times")
    rng = random.Random(7)
    for _ in range(50):
        sp = rand_space(rng)
        f = rand_fn(rng, sp)
        nu = rand_measure(rng, sp)
        B = rng.choice(list(sp.subsets()))
        sweep = integrate_threshold(pm, f, nu, B)
        oracle = integrate_oracle(pm, f, nu, B, canonical_grid(pm, f, B))
        assert oracle <= sweep
        if sweep.is_finite:
            assert float(sweep) - float(oracle) <= 1e-9 * max(1.0, float(sweep))
        assert_oracle_consistent(pm, f, nu, B)


def test_dense_grid_oracle_confirms_threshold_sweep():
    # the [DERIVED] route: the dense-grid sup approaches the sweep from below
    rng = random.Random(8)
    for _ in range(20):
        sp = rand_space(rng, hi=4)
        f = rand_fn(rng, sp)
        nu = rand_measure(rng, sp)
        B = rng.choice(list(sp.subsets()))
        sweep = integrate_threshold(TIMES, f, nu, B)
        dense = _dense_oracle(TIMES, f, nu, B, steps=400)
        assert dense <= sweep
        if sweep.is_finite and not sweep.is_zero:
            assert dense.as_fraction() >= sweep.as_fraction() * Fraction(397, 400)


# -- the grid oracle against its literal definition ---------------------------

def _literal_oracle(pm, f, nu, B, grid):
    """max_t t ⊙ ν(B ∩ {f > t}), one level set and one ν per grid point."""
    return max(pm(t, measure_eval(nu, B & f.strictly_above(t))) for t in grid)


def _set_grid(pm, f, B):
    """canonical_grid's points collected in a set and sorted."""
    depth = 20 if pm.exact else 40
    values = f.finite_positive_values(B)
    grid = {ZERO, *values}
    for v in values:
        q = v.as_fraction()
        grid.update(ExtNonneg(q * (1 - Fraction(1, 2 ** k))) for k in range(1, depth + 1))
    grid.update(ExtNonneg((a.as_fraction() + b.as_fraction()) / 2)
                for a, b in zip(values, values[1:]))
    if f.attains_inf(B):
        grid.add(ExtNonneg(1 << 40))
    return sorted(grid)


def _hand_grids(rng, f, carrier=None):
    """Sorted grids with 0, ties at f's own values, points above max f and ∞."""
    values = list(f.values)
    if carrier is not None:
        pool = list(carrier)
    else:
        finite = [v for v in values if v.is_finite]
        top = max(finite, default=ONE).as_fraction()
        pool = finite + [ExtNonneg(top + 1), ExtNonneg(top * 3 + Fraction(1, 7)), INF,
                         ExtNonneg(Fraction(rng.randint(0, 24), rng.randint(1, 5)))]
    for _ in range(3):
        yield sorted([ZERO] + [rng.choice(pool) for _ in range(rng.randint(0, 8))]
                     + [v for v in values if rng.random() < 0.5 and v in pool])


def test_oracle_equals_the_literal_loop(chain):
    rng = random.Random(9)
    ops = (TIMES, MIN, CustomContinuous(float_times, 1, name="float-times"), chain)
    for trial in range(240):
        pm = ops[trial % len(ops)]
        sp = rand_space(rng)
        if pm is chain:
            carrier = chain.carrier
            f = MeasurableFn(sp, [rng.choice(carrier) for _ in sp.atoms])
            nu = MaxMeasure(sp, [rng.choice(carrier) for _ in sp.atoms])
        else:
            carrier = None
            f = rand_fn(rng, sp, allow_inf=True)
            nu = rand_measure(rng, sp, allow_inf=True)
        B = rng.choice(list(sp.subsets()))
        grid = canonical_grid(pm, f, B)
        if pm is not chain:
            assert grid == _set_grid(pm, f, B)
        for g in (grid, *_hand_grids(rng, f, carrier)):
            assert integrate_oracle(pm, f, nu, B, g) == _literal_oracle(pm, f, nu, B, g)


def test_oracle_makes_one_odot_call_and_few_comparisons_a_grid_point(monkeypatch):
    rng = random.Random(10)
    counted = []
    for name in ("__lt__", "__le__"):
        original = getattr(ExtNonneg, name)

        def compare(a, b, _original=original):
            counted.append(1)
            return _original(a, b)
        monkeypatch.setattr(ExtNonneg, name, compare)
    for _ in range(40):
        sp = rand_space(rng, lo=4, hi=10)
        f = rand_fn(rng, sp, allow_inf=True)
        nu = rand_measure(rng, sp, allow_inf=True)
        B = rng.choice(list(sp.subsets()))
        pm = CountingTimes()
        for grid in (canonical_grid(pm, f, B), *_hand_grids(rng, f)):
            pm.calls = 0
            f.level_table  # built once per f, outside the count
            counted.clear()
            integrate_oracle(pm, f, nu, B, grid)
            assert pm.calls == len(grid)
            # sortedness, the walk and the max: about three a point; ν: one an atom
            assert len(counted) <= 3 * len(grid) + 2 * sp.n


# -- the max through sup_products: one map call a pair, one ExtNonneg ----------

def test_oracle_calls_a_custom_map_once_a_grid_point_and_builds_one_value(monkeypatch):
    built = []
    init = ExtNonneg.__init__

    def counted_init(self, value):
        built.append(value)
        init(self, value)

    rng = random.Random(11)
    calls = []

    def counting_times(s, t):
        calls.append((s, t))
        return float_times(s, t)

    pm = CustomContinuous(counting_times, identity=1, name="counting")
    lengths = set()
    for _ in range(30):
        sp = rand_space(rng, lo=2, hi=8)
        f = rand_fn(rng, sp, allow_inf=True, den_max=4)
        nu = rand_measure(rng, sp, allow_inf=True, den_max=4)
        B = rng.choice(list(sp.subsets()))
        f.level_table  # built once per f, outside the count
        for grid in (canonical_grid(pm, f, B), *_hand_grids(rng, f)):
            calls.clear()
            monkeypatch.setattr(ExtNonneg, "__init__", counted_init)
            built.clear()
            value = integrate_oracle(pm, f, nu, B, grid)
            monkeypatch.setattr(ExtNonneg, "__init__", init)
            assert len(calls) == len(grid)
            assert len(built) <= 1
            assert value == _literal_oracle(pm, f, nu, B, grid)
            lengths.add(len(grid))
    assert max(lengths) > 100


class PerCallLoop(CustomContinuous):
    """A custom operation that takes its max by the literal loop over omul."""

    def sup_products(self, lefts, rights):
        return literal_sup(self, lefts, rights)


HOSTILE = st.one_of(
    st.sampled_from([math.nan, -1.0, -math.inf, True, False, None, "1"]),
    st.sampled_from([ValueError("map undefined here"), ZeroDivisionError("division by zero"),
                     OverflowError("math range error")]),
    st.floats(min_value=0.0, max_value=1e6),  # a value that breaks monotonicity
    st.integers(min_value=0, max_value=10 ** 6),
)
DYADIC = st.one_of(st.just(INF), st.integers(0, 64).map(lambda p: ExtNonneg(Fraction(p, 8))))


@settings(max_examples=120, deadline=1000)
@given(st.data(), st.integers(1, 6), HOSTILE, st.one_of(st.integers(0, 6), st.integers(0, 300)))
def test_hostile_maps_through_every_route_act_as_the_per_call_loop(data, n, fault, k):
    sp = Space(list("abcdef"[:n]))
    f = MeasurableFn(sp, data.draw(st.lists(DYADIC, min_size=n, max_size=n)))
    nu = MaxMeasure(sp, data.draw(st.lists(DYADIC, min_size=n, max_size=n)))
    B = SubsetB(sp, data.draw(st.integers(0, (1 << n) - 1)))
    grid = canonical_grid(CustomContinuous(float_times, 1), f, B)
    routes = ((integrate_threshold, ()), (integrate_atomwise, ()), (integrate_oracle, (grid,)))
    for route, extra in routes:
        got = outcome(route, CustomContinuous(FaultyMap(k, fault), 1), f, nu, B, *extra)
        want = outcome(route, PerCallLoop(FaultyMap(k, fault), 1), f, nu, B, *extra)
        assert got == want, route.__name__
        if got[0] == "value":
            assert isinstance(got[1], ExtNonneg)
        else:
            assert issubclass(got[1], OPERATION_FAULTS), got
