"""The whole-powerset sweep and the byte rank tables against their references.

``pushforward`` and ``verify_density`` run the threshold sweep once for
every subset (``threshold_sweep``); these tests hold them to the
per-subset ``integrate_threshold`` route, exactly for the exact
operations and through ``values_equal`` for ``CustomContinuous``, and
on every validated chain of at most five elements.  Over levels of
f that hold many atoms the sweep computes each term once, in the same
order, and takes one ``lane_max`` per level after the first.  The
byte tables of ``MaxMeasure.table`` are held to the ExtNonneg low-bit
DP they replace, ``max_rank_table`` to a literal max per mask, the
lane-wise ``lane_max`` and ``lane_min`` to per-byte loops, and the
subset-min transform to the literal 𝒥_t minimum.  At the cap of 20
atoms verify_nguyen_measure and verify_localization keep a time and a
memory bound, and the first still refuses a wrong closed form.  The sweeps refuse
past the cap before any ⊙ call, and ``verify_density`` builds its rank
tables from rank lists, making no re-ordered ``Space``.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxitive import (
    INF,
    ZERO,
    CustomContinuous,
    DiscreteChain,
    ExtNonneg,
    MaxMeasure,
    MeasurableFn,
    Minimum,
    SetFunctionTable,
    SigmaIdeal,
    Space,
    StandardProduct,
    SubsetB,
    integrate_threshold,
    is_semi_odot_finite,
    localize,
    measure_eval,
    nguyen_bruteforce,
    nguyen_measure,
    pushforward,
    pushforward_measure,
    solve_density,
    threshold_sweep,
    validate_pseudo_mul,
    verify_density,
    verify_localization,
    verify_nguyen_measure,
)
from maxitive import bytetable, integral
from maxitive.bytetable import lane_max, lane_min, max_rank_table, subset_min
from maxitive.errors import SizeCapError

from conftest import CountingTimes, FaultyMap, float_times, outcome, small_chains

TIMES = StandardProduct()
MIN = Minimum()
CHAIN = DiscreteChain.clamped_product(["0", "1", "2", "inf"])
FLOAT_TIMES = CustomContinuous(float_times, identity=1, name="float-times")
OPS = {"times": TIMES, "min": MIN, "chain": CHAIN, "float": FLOAT_TIMES}

RATIONALS = [ExtNonneg(Fraction(p, q)) for p in range(0, 13) for q in range(1, 7)]
DYADICS = [ExtNonneg(Fraction(p, 1 << q)) for p in range(0, 17) for q in range(4)]
POOLS = {
    "times": RATIONALS + [INF],
    "min": RATIONALS + [INF],
    "chain": list(CHAIN.carrier),
    "float": DYADICS + [INF],
}


def reference_pushforward(pm, f, nu):
    return [integrate_threshold(pm, f, nu, B) for B in f.space.subsets()]


def reference_verify(pm, c, nu, tau):
    return all(pm.values_equal(integrate_threshold(pm, c, tau, B), measure_eval(nu, B))
               for B in c.space.subsets())


def sweep_terms(f, tau):
    """The pairs (v, m) whose v ⊙ m the sweep computes, level by level:
    for each positive value v of f, descending, every distinct mass of τ
    on {f ≥ v} that is at least τ's least mass on {f = v}."""
    pairs = []
    for v in sorted({x for x in f.values if not x.is_zero}, reverse=True):
        lowest = min(t for x, t in zip(f.values, tau.masses) if x == v)
        pairs += [(v, m) for m in {t for x, t in zip(f.values, tau.masses)
                                   if x >= v and t >= lowest}]
    return pairs


def agree(pm, got, want):
    if pm.exact:
        return list(got) == list(want)
    return len(got) == len(want) and all(pm.values_equal(a, b) for a, b in zip(got, want))


@st.composite
def instances(draw, max_n=6):
    """(kind, c, τ, candidate): ν = c ⊙ τ and c, possibly changed on one atom."""
    kind = draw(st.sampled_from(sorted(OPS)))
    pool = st.sampled_from(POOLS[kind])
    n = draw(st.integers(1, max_n))
    space = Space([f"x{i}" for i in range(n)])
    c = MeasurableFn(space, [draw(pool) for _ in range(n)])
    tau = MaxMeasure(space, [draw(pool) for _ in range(n)])
    candidate = c
    if draw(st.booleans()):
        candidate = c.with_value(f"x{draw(st.integers(0, n - 1))}", draw(pool))
    return kind, c, tau, candidate


@settings(max_examples=300, deadline=None)
@given(instances())
def test_pushforward_equals_per_subset_sweep(inst):
    kind, c, tau, _ = inst
    pm = OPS[kind]
    assert agree(pm, pushforward(pm, c, tau).values, reference_pushforward(pm, c, tau))


@settings(max_examples=300, deadline=None)
@given(instances())
def test_verify_density_equals_per_subset_sweep(inst):
    kind, c, tau, candidate = inst
    pm = OPS[kind]
    nu = pushforward_measure(pm, c, tau)
    assert verify_density(pm, candidate, nu, tau) == reference_verify(pm, candidate, nu, tau)


@st.composite
def tied_instances(draw):
    """(kind, f, τ, candidate) with many ties: f takes 1 to 3 distinct
    values, 0 and ∞ among those it may draw, each on 2 to 12 atoms of at
    most 12; candidate is f, possibly changed on one atom."""
    kind = draw(st.sampled_from(["times", "min", "chain", "counting"]))
    pool = POOLS["chain" if kind == "chain" else "times"]
    values = draw(st.lists(st.sampled_from([ZERO, INF, *pool]), min_size=1, max_size=3,
                           unique=True))
    sizes = [draw(st.integers(2, 12 // len(values))) for _ in values]
    f_values = draw(st.permutations([v for v, k in zip(values, sizes) for _ in range(k)]))
    n = len(f_values)
    space = Space([f"x{i}" for i in range(n)])
    f = MeasurableFn(space, f_values)
    tau = MaxMeasure(space, [draw(st.sampled_from(pool)) for _ in range(n)])
    candidate = f
    if draw(st.booleans()):
        candidate = f.with_value(f"x{draw(st.integers(0, n - 1))}", draw(st.sampled_from(pool)))
    return kind, f, tau, candidate


@settings(max_examples=100, deadline=None)
@given(tied_instances())
def test_the_sweep_over_tied_levels_equals_the_per_subset_route(inst):
    kind, f, tau, candidate = inst
    pm = CountingTimes() if kind == "counting" else OPS[kind]
    assert list(pushforward(pm, f, tau).values) == reference_pushforward(pm, f, tau)
    nu = pushforward_measure(pm, f, tau)
    for d in (f, candidate):
        assert verify_density(pm, d, nu, tau) == reference_verify(pm, d, nu, tau)
    if kind == "counting":
        # each term once: no level computes a product twice
        for sweep in (lambda: threshold_sweep(pm, f, tau, extra=nu.masses),
                      lambda: pushforward(pm, f, tau)):
            pm.calls = 0
            sweep()
            assert pm.calls == len(sweep_terms(f, tau))


def test_a_raising_odot_faults_at_the_same_term_of_the_sweep():
    # three levels, ∞, 2 and 1, with ties in f and in τ; the sweep's ⊙
    # calls, level by level, are sweep_terms' pairs in this order
    space = Space(list("abcdefg"))
    f = MeasurableFn(space, ["2", "1", "2", "0", "inf", "1", "2"])
    tau = MaxMeasure(space, ["3", "1/2", "5", "2", "1", "4", "5"])
    pairs = [(math.inf, 1.0), (2.0, 3.0), (2.0, 5.0),
             (1.0, 0.5), (1.0, 1.0), (1.0, 3.0), (1.0, 4.0), (1.0, 5.0)]
    assert sorted(pairs) == sorted((float(v), float(m)) for v, m in sweep_terms(f, tau))
    seen = []
    recorded = CustomContinuous(lambda s, t: seen.append((s, t)) or float_times(s, t), 1)
    threshold_sweep(recorded, f, tau)
    assert seen == pairs
    for sweep in (threshold_sweep, pushforward):
        for k in range(len(pairs) + 1):
            fn = FaultyMap(k, ValueError("map undefined here"))
            got = outcome(sweep, CustomContinuous(fn, 1), f, tau)
            if k < len(pairs):
                assert (got, fn.calls) == (("raises", ValueError, "map undefined here", None),
                                           k + 1), (sweep.__name__, k)
            else:
                assert (got[0], fn.calls) == ("value", k), sweep.__name__


def test_the_sweep_takes_one_lane_max_per_level_after_the_first(monkeypatch):
    # the masks whose last atom lies in one level are one run, so a level
    # of many atoms still takes one lane_max; the first level takes none
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return lane_max(a, b)

    monkeypatch.setattr(integral, "lane_max", counted)
    rng = random.Random(36)
    many = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        space = Space([f"x{i}" for i in range(n)])
        values = rng.sample(POOLS["times"], rng.randint(1, 4))
        f = MeasurableFn(space, [rng.choice(values + [ZERO]) for _ in range(n)])
        tau = MaxMeasure(space, [rng.choice(POOLS["times"]) for _ in range(n)])
        extra = [rng.choice(POOLS["times"]) for _ in range(rng.randint(0, 4))]
        calls.clear()
        index, order, table = threshold_sweep(TIMES, f, tau, extra=extra)
        positive = {v for v in f.values if not v.is_zero}
        assert len(calls) == max(len(positive) - 1, 0)
        many += any(f.values.count(v) > 1 for v in positive)
        # the value-to-rank dict, ascending, holding 0 and every extra mass
        assert list(index) == sorted(index)
        assert list(index.values()) == list(range(len(index)))
        assert ZERO in index and all(m in index for m in extra)
        assert set(table) <= set(index.values())
    assert many > 100


def test_both_verdicts_occur_for_every_operation():
    rng = random.Random(11)
    for kind, pm in OPS.items():
        verdicts = set()
        for _ in range(60):
            n = rng.randint(1, 5)
            space = Space([f"x{i}" for i in range(n)])
            c = MeasurableFn(space, [rng.choice(POOLS[kind]) for _ in range(n)])
            tau = MaxMeasure(space, [rng.choice(POOLS[kind]) for _ in range(n)])
            nu = pushforward_measure(pm, c, tau)
            candidate = c.with_value(f"x{rng.randrange(n)}", rng.choice(POOLS[kind]))
            verdict = verify_density(pm, candidate, nu, tau)
            assert verdict == reference_verify(pm, candidate, nu, tau)
            assert verify_density(pm, c, nu, tau) == reference_verify(pm, c, nu, tau)
            verdicts.add(verdict)
        assert verdicts == {True, False}, kind


def test_misbehaving_custom_operation_matches_term_for_term():
    # not monotone: products in [3, 4) drop by 1, so a lower level's term
    # can exceed the top level's and every term counts
    def folded(s, t):
        p = 0.0 if s == 0.0 or t == 0.0 else s * t
        return p - 1.0 if 3.0 <= p < 4.0 else p
    pm = CustomContinuous(folded, identity=1, name="folded")
    rng = random.Random(12)
    # few levels, so atoms share them, and masses whose products straddle the fold
    levels = [ExtNonneg(v) for v in ("1/2", "1", "2")]
    masses = [ExtNonneg(v) for v in ("1", "5/4", "3/2", "2", "5/2", "3", "7/2")]
    for _ in range(80):
        n = rng.randint(2, 6)
        space = Space([f"x{i}" for i in range(n)])
        c = MeasurableFn(space, [rng.choice(levels) for _ in range(n)])
        tau = MaxMeasure(space, [rng.choice(masses) for _ in range(n)])
        assert list(pushforward(pm, c, tau).values) == reference_pushforward(pm, c, tau)
        nu = MaxMeasure(space, [rng.choice(masses) for _ in range(n)])
        for candidate in (c, c.with_value("x0", rng.choice(levels))):
            assert (verify_density(pm, candidate, nu, tau)
                    == reference_verify(pm, candidate, nu, tau))


def test_verify_density_accepts_within_the_tolerance_of_an_inexact_operation():
    space = Space(["a", "b", "c"])
    c = MeasurableFn(space, ["1/2", "3", "2"])
    tau = MaxMeasure(space, ["4", "1/4", "5"])
    exact = pushforward_measure(FLOAT_TIMES, c, tau)
    nudged = MaxMeasure(space, [v.as_fraction() * (1 + Fraction(1, 10 ** 14))
                                for v in exact.masses])
    assert verify_density(FLOAT_TIMES, c, nudged, tau)
    assert reference_verify(FLOAT_TIMES, c, nudged, tau)
    moved = MaxMeasure(space, [v.as_fraction() * Fraction(101, 100) for v in exact.masses])
    assert not verify_density(FLOAT_TIMES, c, moved, tau)


def twenty_atoms():
    """A density c and a measure τ on 20 atoms, the cap."""
    space = Space([f"x{i}" for i in range(20)])
    rng = random.Random(13)
    tau = MaxMeasure(space, [rng.choice(RATIONALS[6:]) for _ in range(20)])
    c = MeasurableFn(space, [rng.choice(RATIONALS) for _ in range(20)])
    return c, tau


def test_verify_density_at_the_cap_of_twenty_atoms():
    c, tau = twenty_atoms()
    nu = pushforward_measure(TIMES, c, tau)
    tracemalloc.start()
    try:
        verdict = verify_density(TIMES, c, nu, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict is True
    # the check builds 2^20-byte rank tables; its traced peak, 3.79 MiB in
    # repeated runs, is τ's table and the sweep's as it doubles for the
    # last atom, each max taken a chunk at a time, and no per-subset list
    assert 2 * 2 ** 20 < peak < 4.5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"
    assert not verify_density(TIMES, c.with_value("x0", INF), nu, tau)


def test_pushforward_at_the_cap_of_twenty_atoms():
    c, tau = twenty_atoms()
    tracemalloc.start()
    try:
        table = pushforward(TIMES, c, tau)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the permutation to the space's mask order holds 2^20 masks of 4
    # bytes next to the 2^20-byte tables: 7.26 MiB traced in repeated
    # runs, against 13.51 MiB with 8-byte masks
    assert 4 * 2 ** 20 < peak < 9 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"
    assert table == pushforward_measure(TIMES, c, tau).table()


def test_sweep_universe_fits_a_byte_with_every_term_distinct():
    # one level per atom and distinct masses: n(n + 1)/2 terms, the most
    # the sweep can meet, plus ν's masses and 0
    space = Space([f"x{i}" for i in range(20)])
    c = MeasurableFn(space, [Fraction(1, 2 ** i) for i in range(20)])
    tau = MaxMeasure(space, [Fraction(3 ** i) for i in range(20)])
    nu = pushforward_measure(TIMES, c, tau)
    assert verify_density(TIMES, c, nu, tau)
    table = pushforward(TIMES, c, tau)
    assert table == nu.table()


def test_the_sweep_on_every_validated_small_chain():
    # a chain's s ↦ s ⊙ t need not be left-continuous, which the sweep's
    # step from {f > t} to {f ≥ v} leans on for a continuous ⊙
    chains = [pm for k in range(2, 6) for pm in small_chains(k)
              if validate_pseudo_mul(pm).passed]
    assert len(chains) == 30
    rng = random.Random(23)
    for pm in chains:
        carrier = pm.carrier
        for n in (3, 5):
            space = Space([f"x{i}" for i in range(n)])
            f = MeasurableFn(space, [rng.choice(carrier) for _ in range(n)])
            tau = MaxMeasure(space, [rng.choice(carrier) for _ in range(n)])
            assert list(pushforward(pm, f, tau).values) == reference_pushforward(pm, f, tau)
            nu = pushforward_measure(pm, f, tau)
            c = solve_density(pm, nu, tau).density
            assert verify_density(pm, c, nu, tau), (pm.spec_form(), f, tau)
            # (atom, value) whose product with τ differs from c's there
            moves = [(x, v) for x, t, cx in zip(space.atoms, tau.masses, c.values)
                     for v in carrier if pm(v, t) != pm(cx, t)]
            x, v = rng.choice(moves)
            assert not verify_density(pm, c.with_value(x, v), nu, tau), (pm.spec_form(), x)


@pytest.mark.parametrize("n", [10, 16])
@pytest.mark.parametrize("kind", sorted(OPS))
def test_a_density_zeroed_at_one_atom_moves_it_to_the_repeated_tail(kind, n):
    pm = OPS[kind]
    rng = random.Random(n)
    space = Space([f"x{i}" for i in range(n)])
    c = MeasurableFn(space, [rng.choice(POOLS[kind]) for _ in range(n)])
    tau = MaxMeasure(space, [rng.choice(POOLS[kind]) for _ in range(n)])
    nu = pushforward_measure(pm, c, tau)
    _, _, table = threshold_sweep(pm, c, tau)
    assert type(table) is bytes and len(table) == 1 << n
    assert verify_density(pm, c, nu, tau)
    # ν(x) > 0 = 0 ⊙ τ(x): the atom where c is set to 0 joins the atoms
    # where c = 0, whose masks repeat the table of the atoms before them
    x = next(x for x, m in zip(space.atoms, nu.masses) if not m.is_zero)
    assert not verify_density(pm, c.with_value(x, ZERO), nu, tau)
    if not pm.exact:
        # every rank moved off the sweep's, each still equal within tolerance
        nudged = MaxMeasure(space, [m.as_fraction() * (1 + Fraction(1, 10 ** 14))
                                    if m.is_finite else m for m in nu.masses])
        assert verify_density(pm, c, nudged, tau)
        assert not verify_density(pm, c.with_value(x, ZERO), nudged, tau)


# -- the byte rank tables ------------------------------------------------------

def extnonneg_table(mu):
    """μ's table by the low-bit DP over ExtNonneg values: the reference."""
    out = [ZERO] * (1 << mu.space.n)
    for mask in range(1, 1 << mu.space.n):
        low = mask & -mask
        rest = mask ^ low
        v = mu.masses[low.bit_length() - 1]
        out[mask] = out[rest] if out[rest] > v else v
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(instances(max_n=7))
def test_byte_table_decodes_to_the_extnonneg_table(inst):
    _, _, tau, _ = inst
    table = tau.table()
    assert isinstance(table.ranks, bytes) and len(table.ranks) == 1 << tau.space.n
    assert table.universe[0] == ZERO and list(table.universe) == sorted(set(table.universe))
    assert table.values == extnonneg_table(tau)
    assert all(table.value(B) == measure_eval(tau, B) for B in tau.space.subsets())


@settings(max_examples=200, deadline=None)
@given(instances(max_n=6))
def test_tables_from_values_and_from_ranks_compare_and_hash_alike(inst):
    kind, c, tau, _ = inst
    pm = OPS[kind]
    swept = pushforward(pm, c, tau)
    from_values = SetFunctionTable(tau.space, reference_pushforward(pm, c, tau))
    if pm.exact:
        assert swept == from_values and hash(swept) == hash(from_values)
    measure_table = tau.table()
    rebuilt = SetFunctionTable(tau.space, measure_table.values)
    assert rebuilt == measure_table and hash(rebuilt) == hash(measure_table)
    universe = measure_table.universe
    if not universe[-1].is_inf:
        universe += (INF,)  # a value the table never takes
    padded = SetFunctionTable.from_ranks(tau.space, universe, measure_table.ranks)
    assert padded == measure_table and hash(padded) == hash(measure_table)


def test_from_ranks_drops_values_the_table_never_takes():
    space = Space(["a", "b"])
    universe = (ZERO, ExtNonneg(1), ExtNonneg(2), ExtNonneg(5))
    table = SetFunctionTable.from_ranks(space, universe, bytes([0, 3, 1, 3]))
    assert table.universe == (ZERO, ExtNonneg(1), ExtNonneg(5))
    assert table.values == (ZERO, ExtNonneg(5), ExtNonneg(1), ExtNonneg(5))
    assert table == SetFunctionTable(space, ["0", "5", "1", "5"])


def test_table_with_more_values_than_a_byte_holds():
    space = Space([f"x{i}" for i in range(9)])
    values = [ExtNonneg(m) for m in range(1 << 9)]  # 512 distinct values
    table = SetFunctionTable(space, values)
    assert table.values == tuple(values)
    assert table == SetFunctionTable(space, list(values))
    assert hash(table) == hash(SetFunctionTable(space, list(values)))


def test_max_rank_table_small_cases():
    assert max_rank_table([]) == b"\0"
    assert max_rank_table([2, 1]) == bytes([0, 2, 1, 2])
    assert max_rank_table([0, 3, 1]) == bytes([0, 0, 3, 3, 1, 1, 3, 3])


def test_max_rank_table_equals_the_literal_max_per_mask():
    rng = random.Random(15)
    for trial in range(300):
        n = trial % 13
        # 0, 255 and repeats on every list long enough to hold them
        ranks = [rng.randrange(256) for _ in range(n)]
        for i, r in zip(rng.sample(range(n), min(n, 4)), (0, 255, 255, 0)):
            ranks[i] = r
        if n > 4 and trial % 3 == 0:
            ranks = [rng.choice(ranks[:2]) for _ in range(n)]  # heavy repeats
        literal = bytes(max((ranks[i] for i in range(n) if mask >> i & 1), default=0)
                        for mask in range(1 << n))
        assert max_rank_table(ranks) == literal, ranks


# -- the lane-wise kernels -------------------------------------------------------

# 127 and 128 differ only in the high bit of a byte, so a lane compare
# that drops it orders them wrongly; 0 and 255 are the ends of a lane
EDGE_BYTES = (0, 127, 128, 255)


def edge_bytes(rng, size):
    return bytes(rng.choice(EDGE_BYTES) if rng.random() < 0.5 else rng.randrange(256)
                 for _ in range(size))


def test_lane_max_and_min_equal_the_per_byte_loops():
    chunk = bytetable._CHUNK
    rng = random.Random(17)
    longest = 2 * chunk + 3
    a, b = edge_bytes(rng, longest), edge_bytes(rng, longest)
    higher = bytes(x if x > y else y for x, y in zip(a, b))
    lower = bytes(x if x < y else y for x, y in zip(a, b))
    # every length up to 300, and every length near a chunk boundary
    sizes = sorted(set(range(301)).union(
        *(range(edge - 40, min(edge + 41, longest + 1)) for edge in (chunk, 2 * chunk))))
    for size in sizes:
        assert lane_max(a[:size], b[:size]) == higher[:size], size
        assert lane_min(a[:size], b[:size]) == lower[:size], size
        assert lane_max(b[:size], a[:size]) == higher[:size], size
    for x in EDGE_BYTES:
        for y in EDGE_BYTES:
            assert lane_max(bytes([x]) * 9, bytes([y]) * 9) == bytes([max(x, y)]) * 9
            assert lane_min(bytes([x]) * 9, bytes([y]) * 9) == bytes([min(x, y)]) * 9
    with pytest.raises(ValueError):
        lane_max(b"\0", b"")


def literal_subset_min(ranks, bits):
    """The literal 𝒥_t minimum: ranks[B ∖ I] over every I ⊆ B ∩ bits."""
    least = bytearray(len(ranks))
    for b in range(len(ranks)):
        inside = b & bits
        low = ranks[b]
        i = inside
        while i:
            r = ranks[b ^ i]
            if r < low:
                low = r
            i = (i - 1) & inside
        least[b] = low
    return least


def test_subset_min_equals_the_literal_minimum():
    rng = random.Random(18)
    for n in range(11):
        full = (1 << n) - 1
        for _ in range(6):
            ranks = edge_bytes(rng, 1 << n)
            for bits in (0, full, rng.randrange(full + 1)):
                assert subset_min(ranks, bits) == literal_subset_min(ranks, bits), (n, bits)


def test_subset_min_across_chunks():
    # 2^15 bytes are four chunks: the high bits pair whole chunks, the
    # low ones lanes inside a chunk
    chunk_bit = bytetable._CHUNK.bit_length() - 1
    rng = random.Random(19)
    ranks = edge_bytes(rng, 1 << 15)
    for bits in (1 << chunk_bit | 1 << 14 | 0b101, 1 << 14 | 1 << 3, 1 << chunk_bit - 1 | 1):
        assert subset_min(ranks, bits) == literal_subset_min(ranks, bits), bin(bits)


def test_ideal_measures_at_the_cap_of_twenty_atoms():
    space = Space([f"x{i}" for i in range(20)])
    rng = random.Random(22)
    tau = MaxMeasure(space, [rng.choice(["0", "1", "5/2", "3", "7", "inf"]) for _ in range(20)])
    top = SubsetB(space, sum(1 << i for i in rng.sample(range(20), 10)))
    ideal = SigmaIdeal(space, top)

    def both():
        nu, L = nguyen_measure(tau, ideal), localize(tau, ideal)
        verify_nguyen_measure(tau, ideal, nu)
        verify_localization(tau, ideal, L)
        return nu, L

    start = time.perf_counter()
    nu, L = both()
    elapsed = time.perf_counter() - start
    assert L == top & tau.support
    assert nu.masses == tuple(ZERO if top.mask >> i & 1 else v
                              for i, v in enumerate(tau.masses))
    # the literal 𝒥_t loop took 5.6 to 8 s here; the transform takes about 0.05 s
    assert elapsed < 2, f"{elapsed:.2f} s"
    tracemalloc.start()
    try:
        both()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three 2^20-byte tables at most (τ's, the closed form's and the
    # minima) and the kernel's chunk masks: 3.2 MiB in repeated runs,
    # against 4.0 MiB for the literal loop's four tables
    assert peak < 3.5 * 2 ** 20, f"traced peak {peak / 2 ** 20:.2f} MiB"
    # the closed form with the mass of the top's last positive atom kept:
    # two maxitive measures first differ on a singleton, so the first
    # wrong B in mask order is the first singleton the oracle refutes
    atom = max(i for i in range(20) if top.mask >> i & 1 and not tau.masses[i].is_zero)
    wrong = MaxMeasure(space, [tau.masses[i] if i == atom else v for i, v in enumerate(nu.masses)])
    first = next(SubsetB(space, 1 << i) for i in range(20)
                 if wrong(SubsetB(space, 1 << i))
                 != nguyen_bruteforce(tau, ideal, SubsetB(space, 1 << i)))
    assert first == SubsetB(space, 1 << atom)
    with pytest.raises(AssertionError) as err:
        verify_nguyen_measure(tau, ideal, wrong)
    assert str(err.value).endswith(f"at {first!r}")


def test_sweeps_refuse_past_the_cap_before_any_odot_call():
    space = Space([f"x{i}" for i in range(21)])
    c = MeasurableFn(space, [ExtNonneg(i % 4) for i in range(21)])
    tau = MaxMeasure(space, [ExtNonneg(i + 1) for i in range(21)])
    nu = MaxMeasure(space, [ExtNonneg(2 * i) for i in range(21)])
    pm = CountingTimes()
    calls = (lambda: threshold_sweep(pm, c, tau),
             lambda: verify_density(pm, c, nu, tau),
             lambda: pushforward(pm, c, tau))
    for call in calls:
        with pytest.raises(SizeCapError, match="^21 atoms exceed the cap of 20$"):
            call()
    assert pm.calls == 0


def test_verify_density_builds_no_space(monkeypatch):
    rng = random.Random(16)
    space = Space([f"x{i}" for i in range(10)])
    built = []
    init = Space.__init__

    def counted(self, atoms):
        built.append(atoms)
        init(self, atoms)

    monkeypatch.setattr(Space, "__init__", counted)
    for kind, pm in OPS.items():
        c = MeasurableFn(space, [rng.choice(POOLS[kind]) for _ in range(10)])
        tau = MaxMeasure(space, [rng.choice(POOLS[kind]) for _ in range(10)])
        nu = pushforward_measure(pm, c, tau)
        built.clear()
        assert verify_density(pm, c, nu, tau)
        assert built == [], kind


def test_semi_odot_finite_peak_memory_at_the_cap():
    space = Space([f"x{i}" for i in range(20)])
    rng = random.Random(14)
    mu = MaxMeasure(space, [rng.choice(RATIONALS) for _ in range(19)] + [INF])
    tracemalloc.start()
    try:
        verdict = is_semi_odot_finite(TIMES, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict is False
    # no 2^20-byte table fits under this bound
    assert peak < 64 * 2 ** 10, f"traced peak {peak / 2 ** 10:.1f} KiB"
