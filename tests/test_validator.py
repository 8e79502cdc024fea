"""The sample-table validator against the literal per-call validator.

validate_pseudo_mul computes ⊙ once on every pair of sample values and
reads that table in the checks over samples.  validate_literal below is
the validator as written before the table: it calls ⊙ afresh in every
check.  Both draw the same random stream, so their reports, witnesses
included, must be equal.
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
    SampleBudget,
    StandardProduct,
    validate_pseudo_mul,
)
from maxitive.errors import UnresolvedInfimumError
from maxitive.pseudomul import AxiomCheck, AxiomReport, FrontierShape

from conftest import float_times


def validate_literal(pm, budget=SampleBudget()):
    """The per-call oracle: every check calls ⊙ on its own arguments."""
    rng = random.Random(budget.seed + 1)
    samples, _ = pm.axiom_samples(budget)
    positives = [v for v in samples if not v.is_zero]
    exhaustive = isinstance(pm, DiscreteChain)
    checks = []

    # Totality gate: a custom map may blow up (nan, negatives) on some
    # pair; that is itself an axiom failure and must not crash the rest.
    for s, t in itertools.product(samples, samples):
        try:
            pm(s, t)
        except (ValueError, TypeError, ArithmeticError) as exc:
            gate = AxiomCheck("defined on all sampled pairs", False, (s, t), str(exc))
            return AxiomReport(pm.describe(), False, (gate,))

    def pick_pairs(count):
        if exhaustive:
            return list(itertools.product(samples, samples))
        return [(rng.choice(samples), rng.choice(samples)) for _ in range(count)]

    def pick_triples(count):
        if exhaustive:
            return list(itertools.product(samples, samples, samples))
        return [(rng.choice(samples), rng.choice(samples), rng.choice(samples))
                for _ in range(count)]

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

    # Monotonicity in both arguments.
    mono_witness = None
    if exhaustive:
        mono_candidates = itertools.product(samples, samples, samples)
    else:
        mono_candidates = ((a, b, rng.choice(samples))
                           for a, b in pick_pairs(budget.pairs // 4))
    for a, b, t in mono_candidates:
        lo, hi = (a, b) if a <= b else (b, a)
        if pm(lo, t) > pm(hi, t) or pm(t, lo) > pm(t, hi):
            mono_witness = (lo, hi, t)
            break
    checks.append(AxiomCheck("monotonicity", mono_witness is None, mono_witness))

    assoc_witness = next(
        ((s, t, u) for (s, t, u) in pick_triples(budget.triples)
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

            cross_witness = None
            lows = [t for t in samples if t < phi]
            highs = [t for t in samples if t > phi]
            cross_pairs = (itertools.product(lows, highs) if exhaustive else
                           ((rng.choice(lows), rng.choice(highs))
                            for _ in range(budget.pairs)) if lows and highs else ())
            for (t, u) in cross_pairs:
                if pm.values_equal(pm(t, u), phi):
                    cross_witness = (t, u)
                    break
            checks.append(AxiomCheck("no crossing at φ", cross_witness is None, cross_witness,
                                     detail="no t < φ, t' > φ with t ⊙ t' = φ"))

        lemma_witness = None
        for t in samples:
            probes = pm.finiteness_probes(t)
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


def outcome(validate, pm, budget):
    """The report, or the type and text of what the validator raised."""
    try:
        return validate(pm, budget)
    except Exception as exc:  # a raise must be the same raise in both
        return type(exc), str(exc)


def assert_same_report(pm, budget=SampleBudget()):
    expected = outcome(validate_literal, pm, budget)
    got = outcome(validate_pseudo_mul, pm, budget)
    assert got == expected
    assert str(got) == str(expected)
    return got


def counting(pm):
    """pm, with its ⊙ calls counted in ``pm.calls``."""
    omul = pm.omul
    pm.calls = 0

    def counted(s, t):
        pm.calls += 1
        return omul(s, t)
    pm.omul = counted
    return pm


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_builtin_reports_equal_the_literal_validator(seed, chain):
    for pm in (StandardProduct(), Minimum(), chain):
        report = assert_same_report(pm, SampleBudget(seed=seed))
        assert report.passed


def test_random_chain_reports_equal_the_literal_validator():
    rng = random.Random(17)
    failed = set()
    for carrier in ([ZERO, ONE, ExtNonneg(2), ExtNonneg(3)], [ZERO, ONE, ExtNonneg(2), INF]):
        for _ in range(120):
            # rows of 0 and of the identity mostly kept, so that failures
            # reach the later checks, and sometimes broken
            table = {}
            for a, b in itertools.product(carrier, carrier):
                if (a.is_zero or b.is_zero) and rng.random() < 0.95:
                    table[(a, b)] = ZERO
                elif a == ONE and rng.random() < 0.9:
                    table[(a, b)] = b
                else:
                    table[(a, b)] = rng.choice(carrier[1:] if rng.random() < 0.9 else carrier)
            pm = DiscreteChain(carrier, table, identity=1)
            report = assert_same_report(pm)
            failed.update(c.name for c in report.failed())
    assert {"left identity", "annihilator", "no zero divisors", "monotonicity",
            "associativity", "commutative on [0, 1_⊙]"} <= failed


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
        assert_same_report(pm, SampleBudget(seed=seed, pairs=2000, triples=500))


def test_custom_failures_reach_every_sampled_check():
    failed = set()
    for fn in CUSTOM_MAPS:
        report = validate_pseudo_mul(CustomContinuous(fn, identity=1),
                                     SampleBudget(pairs=2000, triples=500))
        failed.update(c.name for c in report.failed())
    assert {"defined on all sampled pairs", "monotonicity", "associativity",
            "commutative on [0, 1_⊙]"} <= failed


def test_validator_calls_odot_once_per_sample_pair():
    budget = SampleBudget()
    samples, _ = StandardProduct().axiom_samples(budget)
    bound = len(samples) ** 2 + 2 * budget.triples + 1_000
    table = counting(StandardProduct())
    assert validate_pseudo_mul(table, budget).passed
    assert table.calls <= bound
    literal = counting(StandardProduct())
    validate_literal(literal, budget)
    assert literal.calls > bound  # the guard tells the two apart
