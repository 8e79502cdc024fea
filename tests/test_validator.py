"""The sample-table validator against the literal per-call validator.

validate_pseudo_mul computes ⊙ once on every pair of sample values and
reads that table in the checks over samples.  validate_literal below
states the same rules per call, calling ⊙ afresh in every check:
monotonicity between adjacent samples in each argument, no crossing on
every pair below and above φ, and associativity on every triple when
each product of two samples is a sample (and they fit a byte), else on
triples drawn from the same seeded stream.  Their reports, witnesses
included, must be equal.  Against the definitions themselves, the monotonicity verdict
must equal a scan of every triple, and every witness must break its
axiom when recomputed.
"""

import itertools
import math
import random

import pytest

from maxitive import (
    INF,
    ONE,
    ZERO,
    CustomContinuous,
    DiscreteChain,
    ExtNonneg,
    Minimum,
    StandardProduct,
    extreal,
    validate_pseudo_mul,
)
from maxitive.errors import UnresolvedInfimumError
from maxitive.spaces import CHAIN_CARRIER_CAP
from maxitive.pseudomul import (
    ASSOCIATIVITY_TRIPLES,
    OPERATION_FAULTS,
    AxiomCheck,
    AxiomReport,
    FrontierShape,
    seeded_picks,
)

from conftest import FaultyMap, float_times, min_chain, probe_values, small_chains


def validate_literal(pm, seed=0):
    """The per-call oracle: every check calls ⊙ on its own arguments."""
    samples = pm.axiom_samples(seed)
    positives = [v for v in samples if not v.is_zero]
    checks = []

    # Totality gate: a custom map may blow up (nan, negatives) on some
    # pair; that is itself an axiom failure and must not crash the rest.
    for s, t in itertools.product(samples, samples):
        try:
            pm(s, t)
        except OPERATION_FAULTS as exc:
            gate = AxiomCheck("defined on all sampled pairs", False, (s, t), str(exc))
            return AxiomReport(pm.describe(), False, (gate,))

    # Left identity, annihilator, zero divisors: over all samples.
    witness = next((t for t in samples if not pm.values_equal(pm(pm.identity, t), t)), None)
    checks.append(AxiomCheck("left identity", witness is None,
                             None if witness is None else (pm.identity, witness)))

    witness = next((t for t in samples
                    if not (pm(ZERO, t).is_zero and pm(t, ZERO).is_zero)), None)
    checks.append(AxiomCheck("annihilator", witness is None,
                             None if witness is None else (ZERO, witness)))

    witness = next(((s, t) for s in positives for t in positives
                    if pm(s, t).is_zero), None)
    checks.append(AxiomCheck("no zero divisors", witness is None, witness))

    # Monotonicity in both arguments, between adjacent samples.
    mono_witness = next(((lo, hi, t) for lo, hi in zip(samples, samples[1:]) for t in samples
                         if pm(lo, t) > pm(hi, t) or pm(t, lo) > pm(t, hi)), None)
    checks.append(AxiomCheck("monotonicity", mono_witness is None, mono_witness))

    # every triple when each product is a sample and the ranks fit a byte
    members = set(samples)
    if len(samples) <= CHAIN_CARRIER_CAP and all(pm(s, t) in members
                                                 for s in samples for t in samples):
        triples = list(itertools.product(samples, samples, samples))
    else:
        rng = random.Random(seed + 1)
        triples = [(rng.choice(samples), rng.choice(samples), rng.choice(samples))
                   for _ in range(ASSOCIATIVITY_TRIPLES)]
    assoc_witness = next(
        ((s, t, u) for (s, t, u) in triples
         if not pm.values_equal(pm(pm(s, t), u), pm(s, pm(t, u)))),
        None)
    checks.append(AxiomCheck("associativity", assoc_witness is None, assoc_witness))

    if isinstance(pm, CustomContinuous):
        checks.extend(pm.extra_axiom_checks())

    try:
        profile = pm.finiteness_profile()
    except UnresolvedInfimumError as exc:
        checks.append(AxiomCheck("finiteness profile resolves", False, None, str(exc)))
        return AxiomReport(pm.describe(), False, tuple(checks))
    if not profile.degenerate:
        below = [v for v in samples if v <= pm.identity]
        comm_witness = next(((a, b) for a in below for b in below
                             if not pm.values_equal(pm(a, b), pm(b, a))), None)
        checks.append(AxiomCheck("commutative on [0, 1_⊙]", comm_witness is None, comm_witness))

        if profile.shape is FrontierShape.HALF_OPEN and pm.representable(profile.phi):
            phi = profile.phi
            checks.append(AxiomCheck("φ exceeds the identity", pm.identity < phi,
                                     None if pm.identity < phi else (pm.identity, phi),
                                     detail="a non-degenerate frontier lies in (1_⊙, ∞]"))
            ok = pm.values_equal(pm(phi, phi), phi)
            checks.append(AxiomCheck("φ ⊙ φ = φ", ok, None if ok else (phi, phi)))
            absorb_witness = next(
                ((t, phi) for t in samples
                 if not t.is_zero and t <= phi
                 and not (pm.values_equal(pm(t, phi), phi) and pm.values_equal(pm(phi, t), phi))),
                None)
            checks.append(AxiomCheck("φ absorbing on (0, φ]", absorb_witness is None, absorb_witness))

            cross_witness = next(((t, u) for t in samples if t < phi
                                  for u in samples if u > phi
                                  if pm.values_equal(pm(t, u), phi)), None)
            checks.append(AxiomCheck("no crossing at φ", cross_witness is None, cross_witness,
                                     detail="no t < φ, t' > φ with t ⊙ t' = φ"))

        lemma_witness = None
        for t in samples:
            probes = probe_values(pm, t)
            left = any(pm(s, t) <= pm.identity for s in probes)
            right = any(pm(t, s) <= pm.identity for s in probes)
            fin = pm.is_odot_finite(t)
            if t.is_zero:
                continue
            if not (left == right == fin):
                lemma_witness = (t,)
                break
        checks.append(AxiomCheck("finiteness criteria agree", lemma_witness is None,
                                 lemma_witness,
                                 detail="O(t)=0 ⇔ ∃s: s⊙t ≤ 1_⊙ ⇔ ∃s': t⊙s' ≤ 1_⊙"))

    return AxiomReport(pm.describe(), profile.degenerate, tuple(checks))


def outcome(validate, pm, seed):
    """The report, or the type and text of what the validator raised."""
    try:
        return validate(pm, seed)
    except Exception as exc:  # a raise must be the same raise in both
        return type(exc), str(exc)


def assert_same_report(pm, seed=0):
    expected = outcome(validate_literal, pm, seed)
    got = outcome(validate_pseudo_mul, pm, seed)
    assert got == expected
    assert str(got) == str(expected)
    return got


def monotone_on(pm, samples):
    """Monotonicity by its definition: ⊙ on every a < b and t of the samples."""
    return not any(pm(a, t) > pm(b, t) or pm(t, a) > pm(t, b)
                   for a, b in itertools.combinations(samples, 2) for t in samples)


def breaks_its_axiom(pm, check):
    """Whether the failed ``check``'s witness, recomputed, breaks the axiom."""
    eq = pm.values_equal
    match check.name, check.witness:
        case "defined on all sampled pairs", (s, t):
            try:
                pm(s, t)
            except OPERATION_FAULTS:
                return True
            return False
        case "left identity", (e, t):
            return e == pm.identity and not eq(pm(e, t), t)
        case "annihilator", (z, t):
            return z.is_zero and not (pm(z, t).is_zero and pm(t, z).is_zero)
        case "no zero divisors", (s, t):
            return not s.is_zero and not t.is_zero and pm(s, t).is_zero
        case "monotonicity", (lo, hi, t):
            return lo < hi and (pm(lo, t) > pm(hi, t) or pm(t, lo) > pm(t, hi))
        case "associativity", (s, t, u):
            return not eq(pm(pm(s, t), u), pm(s, pm(t, u)))
        case "commutative on [0, 1_⊙]", (a, b):
            return max(a, b) <= pm.identity and not eq(pm(a, b), pm(b, a))
        case "φ exceeds the identity", (e, phi):
            return not e < phi
        case "φ ⊙ φ = φ", (phi, _):
            return not eq(pm(phi, phi), phi)
        case "φ absorbing on (0, φ]", (t, phi):
            return (ZERO < t <= phi
                    and not (eq(pm(t, phi), phi) and eq(pm(phi, t), phi)))
        case "no crossing at φ", (t, u):
            phi = pm.finiteness_profile().phi
            return t < phi < u and eq(pm(t, u), phi)
    raise AssertionError(f"no recomputation for {check}")


# checks whose witness is no tuple of values to recompute ⊙ on, or whose
# recomputation would repeat the validator's own code
UNRECOMPUTED = {"continuity (sampled)", "finiteness criteria agree",
                "finiteness profile resolves"}


def assert_against_the_definitions(pm, report, seed=0):
    """Every witness breaks its axiom, and monotonicity is decided as
    the all-triples scan decides it."""
    for check in report.failed():
        if check.name not in UNRECOMPUTED:
            assert breaks_its_axiom(pm, check), check
    mono = [c for c in report.checks if c.name == "monotonicity"]
    if mono:
        samples = pm.axiom_samples(seed)
        assert mono[0].passed == monotone_on(pm, samples)


def counting(pm):
    """pm, with its ⊙ calls counted in ``pm.calls``."""
    omul = pm.omul
    pm.calls = 0

    def counted(s, t):
        pm.calls += 1
        return omul(s, t)
    pm.omul = counted
    return pm


@pytest.mark.parametrize("seed", range(20))
def test_builtin_reports_equal_the_literal_validator(seed, chain):
    for pm in (StandardProduct(), Minimum(), chain):
        report = assert_same_report(pm, seed)
        assert report.passed


def test_random_chain_reports_equal_the_literal_validator():
    rng = random.Random(17)
    failed = set()
    for carrier in ([ZERO, ONE, ExtNonneg(2), ExtNonneg(3)], [ZERO, ONE, ExtNonneg(2), INF]):
        for _ in range(120):
            # rows of 0 and of the identity mostly kept, so that failures
            # reach the later checks, and sometimes broken
            def cell(a, b):
                if (a.is_zero or b.is_zero) and rng.random() < 0.95:
                    return ZERO
                if a == ONE and rng.random() < 0.9:
                    return b
                return rng.choice(carrier[1:] if rng.random() < 0.9 else carrier)
            pm = DiscreteChain(carrier, [[cell(a, b) for b in carrier] for a in carrier],
                               identity=1)
            report = assert_same_report(pm)
            assert_against_the_definitions(pm, report)
            failed.update(c.name for c in report.failed())
    assert {"left identity", "annihilator", "no zero divisors", "monotonicity",
            "associativity", "commutative on [0, 1_⊙]", "no crossing at φ"} <= failed


@pytest.mark.parametrize("k, tables", [(2, 1), (3, 3), (4, 15), (5, 84)])
def test_every_small_chain_reports_equal_the_literal_validator(k, tables):
    chains = list(small_chains(k))
    assert len(chains) == tables
    for pm in chains:
        assert_against_the_definitions(pm, assert_same_report(pm))


def unassociative(pm, s, t, u):
    return not pm.values_equal(pm(pm(s, t), u), pm(s, pm(t, u)))


def first_break_row_major(pm, samples):
    """The first triple of samples, in row-major order, on which the two
    sides of associativity differ, by one ⊙ call a product."""
    return next((triple for triple in itertools.product(samples, repeat=3)
                 if unassociative(pm, *triple)), None)


def two_levels(s, t):
    """1 up to a product of 1, 2 past it, and 0 at a factor 0: every
    value is a sample, and (s ⊙ t) ⊙ u ≠ s ⊙ (t ⊙ u) at s = t = 2^-10,
    u just above 1."""
    if s == 0.0 or t == 0.0:
        return 0.0
    return 1.0 if s * t <= 1.0 else 2.0


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_a_closed_custom_map_is_checked_on_every_triple(seed):
    pm = counting(CustomContinuous(two_levels, identity=1, name="two-levels"))
    samples = pm.axiom_samples(seed)
    assert all(pm(s, t) in samples for s in samples for t in samples)
    pm.calls = 0
    validate_pseudo_mul(pm, seed)
    assert pm.calls == len(samples) ** 2  # the sample table's, and none after it
    assoc = checks_of(assert_same_report(pm, seed))["associativity"]
    assert not assoc.passed and assoc.witness == first_break_row_major(pm, samples)
    assert breaks_its_axiom(pm, assoc)
    # the seeded draw would have met another triple first
    rng = random.Random(seed + 1)
    drawn = ((rng.choice(samples), rng.choice(samples), rng.choice(samples))
             for _ in range(ASSOCIATIVITY_TRIPLES))
    assert assoc.witness != next(triple for triple in drawn if unassociative(pm, *triple))


def test_a_perturbed_cell_of_a_256_element_chain_breaks_at_the_row_major_first_triple():
    carrier, rows = min_chain(256)
    rows[1][-1] = ExtNonneg(2)  # 1 ⊙ ∞ = 2; row 1 and column ∞ stay monotone
    pm = DiscreteChain(carrier, rows, INF)
    assoc = checks_of(validate_pseudo_mul(pm))["associativity"]
    assert not assoc.passed and assoc.witness == first_break_row_major(pm, carrier)
    assert assoc.witness == (ONE, ONE, INF)
    assert breaks_its_axiom(pm, assoc)


def nan_above_100(s, t):
    return math.nan if s * t > 100 else float_times(s, t)


def raises_at_two(s, t):
    if s == t == 2.0:
        raise ZeroDivisionError("no value at (2, 2)")
    return float_times(s, t)


def drops_at_four(s, t):
    return float_times(s, t) / (8.0 if s >= 4 else 1.0)


def skewed_above_one(s, t):
    return float_times(s, t) * (1.01 if s > 1 else 1.0)


def left_square_below_one(s, t):
    return s * s * t if s < 1 and t < 1 else float_times(s, t)


def eight_past_eight(s, t):
    if max(s, t) < 8:
        return s * t
    return max(s, t) if min(s, t) >= 1 else 8.0


def negative_above_1000(s, t):
    return -1.0 if s > 1000 else float_times(s, t)


CUSTOM_MAPS = (float_times, nan_above_100, raises_at_two, drops_at_four, skewed_above_one,
               left_square_below_one, eight_past_eight, negative_above_1000)


@pytest.mark.parametrize("fn", CUSTOM_MAPS, ids=lambda fn: fn.__name__)
def test_custom_reports_equal_the_literal_validator(fn):
    for seed in (0, 1, 5):
        pm = CustomContinuous(fn, identity=1, name=fn.__name__)
        report = assert_same_report(pm, seed)
        if seed == 0:
            assert_against_the_definitions(pm, report)


def test_custom_failures_reach_every_sampled_check():
    failed = set()
    for fn in CUSTOM_MAPS:
        report = validate_pseudo_mul(CustomContinuous(fn, identity=1))
        failed.update(c.name for c in report.failed())
    assert {"defined on all sampled pairs", "monotonicity", "associativity",
            "commutative on [0, 1_⊙]"} <= failed


def test_a_dip_between_two_adjacent_samples_fails_monotonicity():
    # The product, lowered at (4, 3) to the midpoint of 7/2 · 3 and
    # 19/5 · 3: only 19/5 < 4 in the first argument sees the dip, which
    # one draw in tens of thousands would hit.
    samples = CustomContinuous(float_times, identity=1).axiom_samples(0)
    lo, hi, t = (ExtNonneg(v) for v in ("19/5", "4", "3"))
    below = samples[samples.index(lo) - 1]
    assert samples[samples.index(lo) + 1] == hi and t in samples
    dip = (float(below) + float(lo)) / 2 * float(t)

    def dips_at_four_three(s, u):
        return dip if (s, u) == (float(hi), float(t)) else float_times(s, u)

    pm = CustomContinuous(dips_at_four_three, identity=1, name="dip")
    broken = [(a, b, u) for a, b in itertools.combinations(samples, 2) for u in samples
              if pm(a, u) > pm(b, u) or pm(u, a) > pm(u, b)]
    assert broken == [(lo, hi, t)]
    report = assert_same_report(pm, 0)
    check = {c.name: c for c in report.checks}["monotonicity"]
    assert not check.passed and check.witness == (lo, hi, t)


def skewed_at_two(factor):
    """The product, times ``factor`` where the first argument is 2: the
    sides of associativity differ by that relative amount on the triples
    whose first or second factor is 2, and no other sampled check moves."""
    def fn(s, t):
        p = float_times(s, t)
        return p * factor if s == 2.0 else p
    return fn


@pytest.mark.parametrize("exponent, passes", [(40, True), (20, False)])
def test_associativity_under_tolerance_is_decided_as_values_equal_decides(exponent, passes):
    # 2^-40 ≈ 9.1e-13 is inside the default relative tolerance 1e-12 and
    # 2^-20 ≈ 9.5e-7 is outside it; both factors are exact floats
    fn = skewed_at_two(1.0 + 2.0 ** -exponent)
    pm = CustomContinuous(fn, identity=1, name=f"skew-2^-{exponent}")
    for seed in (0, 1, 5):
        report = assert_same_report(pm, seed)
        assert report.passed is passes
        assert [c.name for c in report.failed()] == ([] if passes else ["associativity"])
    # on (2, 2, u) the sides are 4u·factor and 4u·factor²
    samples = pm.axiom_samples(0)
    two = ExtNonneg(2)
    sides = [(pm(pm(two, two), u), pm(two, pm(two, u))) for u in samples if u.is_finite]
    unequal = [(a, b) for a, b in sides if a != b]
    assert len(unequal) == len(sides) - 1  # all but u = 0
    assert all(pm.values_equal(a, b) is passes for a, b in unequal)


def stated_equal(pm, a, b):
    """Equality as values_equal states it: equal values, or for an inexact
    ⊙ two finite floats within the relative tolerance."""
    if a == b:
        return True
    if pm.exact or a.is_inf or b.is_inf:
        return False
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= pm.tolerance * max(1.0, abs(fa), abs(fb))


def test_pairs_equal_is_values_equal_on_any_pair_of_a_value():
    rng = random.Random(31)
    values = [ZERO, INF, ONE, ExtNonneg("1/3"), ExtNonneg(2 ** 40 + 1),
              ExtNonneg("1/1099511627776")]
    values += [ExtNonneg(f"{rng.randint(0, 999)}/{rng.randint(1, 999)}") for _ in range(40)]
    near = [ExtNonneg(float(v) * (1 + 2.0 ** -e)) for v in values[2:] for e in (30, 41, 45)]
    for pm in (StandardProduct(), CustomContinuous(float_times, identity=1)):
        for a in values:
            for b in values[:6] + near[:60] + [a]:
                want = stated_equal(pm, a, b)
                assert pm.values_equal(a, b) == want, (a, b)
                for k, m in ((1, 1), (3, 7), (2 ** 70, 1)):  # the pairs in any terms
                    pa, pb = (a._n * k, a._d * k), (b._n * m, b._d * m)
                    assert pm.pairs_equal(pa, pb) == want, (a, b, k, m)
        assert any(pm.values_equal(v, w) for v in values for w in near) is not pm.exact


@pytest.mark.parametrize("pm", [StandardProduct(), Minimum()], ids=["times", "min"])
def test_a_validation_builds_no_value_per_product(pm, monkeypatch):
    """The values built in one validation are the seeded draws of the
    samples (a repeat drawn again), none for a product or a probe."""
    made = []
    real_new, real_init = extreal._new, ExtNonneg.__init__

    def counted_new(cls):
        made.append(cls)
        return real_new(cls)

    def counted_init(self, value):
        made.append(value)
        real_init(self, value)
    monkeypatch.setattr(extreal, "_new", counted_new)
    monkeypatch.setattr(ExtNonneg, "__init__", counted_init)
    samples = pm.axiom_samples(0)
    made.clear()
    assert validate_pseudo_mul(pm).passed
    assert len(made) <= len(samples) + 4
    made.clear()
    ExtNonneg(2) * ExtNonneg("1/3")  # both routes are seen
    assert len(made) == 3


def test_validator_calls_odot_once_per_sample_pair():
    samples = StandardProduct().axiom_samples(0)
    bound = len(samples) ** 2 + 2 * ASSOCIATIVITY_TRIPLES + 1_000
    table = counting(StandardProduct())
    assert validate_pseudo_mul(table).passed
    assert table.calls <= bound
    literal = counting(StandardProduct())
    validate_literal(literal)
    assert literal.calls > bound  # the guard tells the two apart


@pytest.mark.parametrize("k", [2, 3, 39, 64, 65, 1000])
def test_the_batched_draw_picks_what_choice_picks(k):
    for seed in range(51):
        one_by_one, batched = random.Random(seed), random.Random(seed)
        expected = [one_by_one.choice(range(k)) for _ in range(ASSOCIATIVITY_TRIPLES)]
        assert seeded_picks(batched, k, ASSOCIATIVITY_TRIPLES) == expected
        assert batched.random() == one_by_one.random()  # and leaves the same state


def test_the_batched_draw_leaves_the_state_choice_leaves_for_every_k_to_300():
    # k < 256 takes the batched words, k ≥ 256 one call a draw
    for k in range(1, 301):
        for seed in range(21):
            one_by_one, batched = random.Random(seed), random.Random(seed)
            expected = [one_by_one.choice(range(k)) for _ in range(150)]
            assert seeded_picks(batched, k, 150) == expected, (k, seed)
            assert batched.getstate() == one_by_one.getstate(), (k, seed)


@pytest.mark.parametrize("k", [0, 1, 38, 39, 700, 1520])
def test_a_fault_in_the_sample_table_is_located_and_not_replayed(k):
    fn = FaultyMap(k, ValueError("no value here"))
    samples = CustomContinuous(fn, identity=1).axiom_samples(0)
    assert len(samples) ** 2 > k
    (gate,) = validate_pseudo_mul(CustomContinuous(fn, identity=1)).checks
    assert gate.witness == (samples[k // len(samples)], samples[k % len(samples)])
    assert (gate.name, gate.detail, fn.calls) == ("defined on all sampled pairs",
                                                 "no value here", k + 1)


@pytest.mark.parametrize("j", [0, 1, 999, 1999])
def test_a_fault_on_an_outer_product_is_located_and_not_replayed(j):
    # the j-th left outer product (s ⊙ t) ⊙ u faults; the right ones are
    # then taken on the triples before it only
    samples = CustomContinuous(float_times, identity=1).axiom_samples(0)
    k = len(samples)
    picks = seeded_picks(random.Random(1), k, 3 * ASSOCIATIVITY_TRIPLES)
    fn = FaultyMap(k * k + j, ZeroDivisionError("no value here"))
    assoc = checks_of(validate_pseudo_mul(CustomContinuous(fn, identity=1)))["associativity"]
    assert assoc.witness == tuple(samples[i] for i in picks[3 * j:3 * j + 3])
    assert (assoc.passed, assoc.detail) == (False, "no value here")
    assert fn.calls >= k * k + 2 * j + 1


def big_arguments_raise(s, t):
    """The product, with no value at a finite argument of 2^21 or more:
    defined on every sampled pair, not on every outer product."""
    if s == 0.0 or t == 0.0:
        return 0.0
    if 2.0 ** 21 <= s < math.inf or 2.0 ** 21 <= t < math.inf:
        raise ValueError(f"no value at ({s}, {t})")
    return s * t


def small_arguments_raise(s, t):
    """The product, with no value at 0 < s < 2^-30: defined on every
    sampled pair and triple, not along the zero map's dyadic descent."""
    if 0.0 < s < 2.0 ** -30:
        raise ValueError(f"no value at s = {s}")
    return float_times(s, t)


def eight_nudged_raises(s, t):
    """The product, with no value where the continuity grid nudges s = 8."""
    if s == 8.0 + 8e-3:
        raise ArithmeticError(f"no value at s = {s}")
    return float_times(s, t)


def checks_of(report):
    return {c.name: c for c in report.checks}


def test_a_map_raising_on_an_outer_product_fails_associativity():
    pm = CustomContinuous(big_arguments_raise, identity=1)
    for seed in (0, 1, 5):
        samples = pm.axiom_samples(seed)
        rng = random.Random(seed + 1)
        triples = ((rng.choice(samples), rng.choice(samples), rng.choice(samples))
                   for _ in range(ASSOCIATIVITY_TRIPLES))

        def breaks(s, t, u):
            try:
                return not pm.values_equal(pm(pm(s, t), u), pm(s, pm(t, u)))
            except ValueError:
                return True
        first = next(triple for triple in triples if breaks(*triple))
        with pytest.raises(ValueError) as raised:
            pm(pm(first[0], first[1]), first[2]), pm(first[0], pm(first[1], first[2]))

        report = validate_pseudo_mul(pm, seed)
        assoc = checks_of(report)["associativity"]
        assert (assoc.passed, assoc.witness, assoc.detail) == (False, first, str(raised.value))
        sampled = report.checks[:report.checks.index(assoc)]
        assert [c.name for c in sampled] == ["left identity", "annihilator", "no zero divisors",
                                             "monotonicity"]
        assert all(c.passed for c in sampled)


def test_a_map_raising_in_the_zero_map_fails_the_profile():
    pm = CustomContinuous(small_arguments_raise, identity=1)
    report = validate_pseudo_mul(pm)
    *passed, profile = report.checks
    assert all(c.passed for c in passed) and "associativity" in checks_of(report)
    assert (profile.name, profile.passed, profile.witness) == (
        "finiteness profile resolves", False, None)
    assert profile.detail == f"no value at s = {2.0 ** -31}"
    assert not report.degenerate


def negative_below_2_30(s, t):
    """The product, with −1 at 0 < s < 2^-30: only the zero map's descent
    reaches it."""
    return -1.0 if 0.0 < s < 2.0 ** -30 and t != 0.0 else float_times(s, t)


def nan_below_2_30(s, t):
    """The product, with nan at 0 < s < 2^-30."""
    return math.nan if 0.0 < s < 2.0 ** -30 and t != 0.0 else float_times(s, t)


def true_below_2_30(s, t):
    """The product, with the bool True at 0 < s < 2^-30."""
    return True if 0.0 < s < 2.0 ** -30 and t != 0.0 else float_times(s, t)


@pytest.mark.parametrize("fn, error, message", [
    (negative_below_2_30, ValueError, "custom operation returned -1.0 outside [0, inf]"),
    (nan_below_2_30, ValueError, "custom operation returned nan outside [0, inf]"),
    (true_below_2_30, TypeError, "custom operation returned True"),
], ids=lambda x: getattr(x, "__name__", None))
def test_a_value_outside_the_range_in_the_descent_is_refused(fn, error, message):
    pm = CustomContinuous(fn, identity=1)
    for t in (ONE, ExtNonneg(8), INF):
        with pytest.raises(error) as err:
            pm.zero_map(t)
        assert str(err.value) == message
    report = validate_pseudo_mul(pm)
    *passed, profile = report.checks
    assert all(c.passed for c in passed) and "associativity" in checks_of(report)
    assert (profile.name, profile.passed, profile.witness, profile.detail) == (
        "finiteness profile resolves", False, None, message)


def test_an_int_or_a_float_subclass_in_the_descent_is_a_value():
    class Real(float):
        pass

    def int_zero(s, t):
        return 0 if s == 0.0 or t == 0.0 else s * t

    def subclassed(s, t):
        return Real(float_times(s, t))

    for fn in (int_zero, subclassed):
        pm = CustomContinuous(fn, identity=1)
        assert pm.zero_map(ExtNonneg(3)) == ZERO and pm.zero_map(INF) == INF
        assert pm.zero_map(ZERO) == ZERO


def negative_past_eight(s, t):
    """The product, with −1 where the continuity grid nudges s = 8."""
    return -1.0 if s == 8.0 + 8e-3 else float_times(s, t)


def negative_at_two(s, t):
    """The product, with −1 at the grid's own point (2, 2); the validator
    stops at its sample table first, so the grid is called directly."""
    return -1.0 if s == t == 2.0 else float_times(s, t)


def test_a_value_outside_the_range_on_the_continuity_grid_fails_continuity():
    message = "custom operation returned -1.0 outside [0, inf]"
    continuity = checks_of(validate_pseudo_mul(
        CustomContinuous(negative_past_eight, identity=1)))["continuity (sampled)"]
    assert (continuity.passed, continuity.witness, continuity.detail) == (
        False, (ExtNonneg(8), ZERO), message)
    (continuity,) = CustomContinuous(negative_at_two, identity=1).extra_axiom_checks()
    assert (continuity.passed, continuity.witness, continuity.detail) == (
        False, (ExtNonneg(2), ExtNonneg(2)), message)


def inf_past_four(s, t):
    """The product up to 4 and ∞ past it: from a finite 4 at (2, 2), every
    nudge up jumps to ∞."""
    return math.inf if s * t > 4.0 else s * t


def inf_at_1024(s, t):
    """s·t / (1024 − t), rising to ∞ at t = 1024 and staying there: the
    grid's column t = 1024 is ∞, which no finite nudge can be held to."""
    return math.inf if t >= 1024.0 else s * t / (1024.0 - t)


def test_a_finite_value_that_a_nudge_takes_to_infinity_fails_continuity():
    (continuity,) = CustomContinuous(inf_past_four, identity=1).extra_axiom_checks()
    assert not continuity.passed
    s, t = continuity.witness
    assert s * t == ExtNonneg(4)


def test_the_continuity_grid_skips_an_infinite_value():
    (continuity,) = CustomContinuous(inf_at_1024, identity=1).extra_axiom_checks()
    assert (continuity.passed, continuity.witness) == (True, None)


def test_a_map_raising_on_the_continuity_grid_fails_continuity():
    pm = CustomContinuous(eight_nudged_raises, identity=1)
    continuity = checks_of(validate_pseudo_mul(pm))["continuity (sampled)"]
    assert (continuity.passed, continuity.witness) == (False, (ExtNonneg(8), ZERO))
    assert continuity.detail == f"no value at s = {8.0 + 8e-3}"


def tiny_right_raises(s, t):
    """The product, with no value at 0 < t < 2^-56: only the finiteness
    criteria's right probes t ⊙ 2^-60 reach it, and only at t = ∞."""
    if 0.0 < t < 2.0 ** -56:
        raise ValueError(f"no value at t = {t}")
    return float_times(s, t)


def test_a_map_raising_on_a_finiteness_probe_fails_the_criteria():
    report = validate_pseudo_mul(CustomContinuous(tiny_right_raises, identity=1))
    *passed, criteria = report.checks
    product = validate_pseudo_mul(CustomContinuous(float_times, identity=1))
    assert passed == list(product.checks[:-1])
    assert (criteria.name, criteria.passed, criteria.witness) == (
        "finiteness criteria agree", False, (INF,))
    assert criteria.detail == f"no value at t = {2.0 ** -60}"
