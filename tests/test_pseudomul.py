"""Pseudo-multiplication axioms, zero maps, frontier profiles, validators."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given

from maxitive import (
    INF,
    ONE,
    ZERO,
    CarrierDomainError,
    CustomContinuous,
    DiscreteChain,
    ExtNonneg,
    FrontierShape,
    Minimum,
    StandardProduct,
    UnresolvedInfimumError,
    validate_pseudo_mul,
)

from conftest import extnn, float_times, probe_values, random_chain

TIMES = StandardProduct()
MIN = Minimum()


# -- omul examples -----------------------------------------------------------

def test_product_annihilates_infinity(times):
    assert times(ZERO, INF) == ZERO
    assert times(INF, ZERO) == ZERO


@given(t=extnn)
def test_product_identity(t):
    assert TIMES(ONE, t) == t


def test_minimum_left_identity_is_infinity(minimum):
    assert minimum.identity == INF
    assert minimum(INF, ExtNonneg(5)) == ExtNonneg(5)


def test_chain_rejects_off_carrier_values(chain):
    with pytest.raises(CarrierDomainError):
        chain(ExtNonneg(3), ONE)
    with pytest.raises(CarrierDomainError):
        chain.zero_map(ExtNonneg("1/2"))


def test_chain_clamped_product_table(chain):
    two = ExtNonneg(2)
    assert chain(two, two) == two            # 4 clamps down to 2
    assert chain(ONE, two) == two            # identity row
    assert chain(INF, two) == INF
    assert chain(two, INF) == INF
    assert chain(ZERO, INF) == ZERO


def test_chain_table_rows_are_checked(chain):
    carrier, three = chain.carrier, ExtNonneg(3)
    rows = [[chain(a, b) for b in carrier] for a in carrier]
    from_rows = DiscreteChain(carrier, rows, ONE)
    assert from_rows.spec_form() == chain.spec_form()
    assert all(from_rows(a, b) == chain(a, b) for a in carrier for b in carrier)
    off_rows = [row[:] for row in rows]
    off_rows[1][2] = three
    with pytest.raises(ValueError, match="table entry 1 ⊙ 2 = 3 leaves the carrier"):
        DiscreteChain(carrier, off_rows, ONE)
    with pytest.raises(ValueError, match="table row for 2 must have 4 entries"):
        DiscreteChain(carrier, rows[:2] + [rows[2][:3]] + rows[3:], ONE)
    with pytest.raises(ValueError, match="table must have 4 rows, got 3"):
        DiscreteChain(carrier, rows[:3], ONE)


def test_rows_follow_the_carrier_as_written():
    # min on {0, 1, 2} with identity 2, written for the carrier [0, 2, 1]
    written, ascending = [0, 2, 1], [0, 1, 2]
    chains = [DiscreteChain(written, [[min(a, b) for b in written] for a in written], 2),
              DiscreteChain(ascending, [[min(a, b) for b in ascending] for a in ascending], 2)]
    for pm in chains:
        assert pm.spec_form() == chains[1].spec_form()
        assert [pm(a, b) for a in ascending for b in ascending] == [
            ExtNonneg(min(a, b)) for a in ascending for b in ascending]


def test_a_repeated_carrier_element_in_rows_form_is_refused():
    rows = [[0, 0, 0], [0, 1, 1], [0, 1, 1]]
    # 2/2 is 1 and 0/3 is 0 again: distinct as written, equal as values
    for carrier in ([0, 1, 1], [0, 1, "2/2"], [0, "0/3", 1]):
        for table in (rows, [row[:2] for row in rows[:2]]):
            with pytest.raises(ValueError, match="^chain carrier elements must be distinct$"):
                DiscreteChain(carrier, table, identity=1)
    # the identity is checked before the table
    with pytest.raises(ValueError, match="^chain identity must belong to the carrier$"):
        DiscreteChain([0, 1, 1], rows, identity=2)
    assert DiscreteChain([0, 1], [[0, 0], [0, 1]], identity=1).carrier == (ZERO, ONE)


# -- the rank table against literal value scans --------------------------------

class ValueScans:
    """A chain as a dict of value pairs, read by min and any over ExtNonneg:
    the literal definitions that DiscreteChain's rank table must agree with."""

    def __init__(self, carrier, rows, identity):
        written = list(map(ExtNonneg, carrier))
        self.carrier = sorted(set(written))
        self.table = {(a, b): ExtNonneg(v) for a, row in zip(written, rows)
                      for b, v in zip(written, row)}
        self.identity = ExtNonneg(identity)
        self.positives = [s for s in self.carrier if not s.is_zero]

    def zero_map(self, t):
        return min(self.table[(s, t)] for s in self.positives)

    def is_odot_finite(self, t):
        e = self.identity
        return t.is_zero or (any(self.table[(s, t)] <= e for s in self.positives)
                             and any(self.table[(t, s)] <= e for s in self.positives))

    def image(self, t):
        values = frozenset(self.table[(c, t)] for c in self.carrier)
        nonzero = [v for v in values if not v.is_zero]
        return (min(nonzero) if nonzero else ZERO), max(values), values

    def least_solution(self, nu, tau):
        return next((c for c in self.carrier if self.table[(c, tau)] == nu), None)

    def profile(self):
        finite = frozenset(t for t in self.carrier if self.is_odot_finite(t))
        infinite = [t for t in self.carrier if t not in finite]
        if not infinite:
            return FrontierShape.WHOLE_INTERVAL, INF, finite
        return FrontierShape.HALF_OPEN, min(infinite), finite

    def notes(self):
        """The structural facts at φ that a pseudo-multiplication has, each
        broken one named: F downward closed, O(φ) = φ, φ ⊙ φ = φ and φ
        absorbing on (0, φ]."""
        shape, phi, finite = self.profile()
        if shape is FrontierShape.WHOLE_INTERVAL:
            return ()
        notes = []
        if finite != frozenset(t for t in self.carrier if t < phi):
            notes.append("finite set is not downward closed below its frontier")
        if self.zero_map(phi) != phi:
            notes.append(f"O(φ) = {self.zero_map(phi)} differs from φ = {phi}")
        if self.table[(phi, phi)] != phi:
            notes.append("φ is not idempotent")
        for t in self.positives:
            if t <= phi and (self.table[(t, phi)] != phi or self.table[(phi, t)] != phi):
                notes.append(f"φ is not absorbing at t = {t}")
        return tuple(notes)

    def spec_form(self):
        return {"chain": {
            "carrier": [str(c) for c in self.carrier],
            "table": [[str(self.table[(a, b)]) for b in self.carrier] for a in self.carrier],
            "identity": str(self.identity)}}


def chain_cases():
    """(carrier, rows following it, identity): random_chain draws, the
    uninorm of ROADMAP item 3, the validator tests' failing tables, random
    tables, and one where 0 does not annihilate."""
    rng = random.Random(29)
    for _ in range(60):
        pm = random_chain(rng)
        yield pm.carrier, [[pm(a, b) for b in pm.carrier] for a in pm.carrier], pm.identity
    uninorm, e = [ExtNonneg(v) for v in ("0", "1", "3", "7", "inf")], ExtNonneg(7)
    yield uninorm, [[ZERO if ZERO in (a, b) else max(a, b) if min(a, b) >= e else min(a, b)
                     for b in uninorm] for a in uninorm], e
    yield [0, 1, 2], [[0, 0, 0], [0, 1, 0], [0, 1, 2]], 2  # a zero divisor
    yield [0, 1, 2, 3], [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 3], [0, 3, 2, 2]], 1
    yield [0, 1, 2], [[0, 0, 1], [0, 1, 2], [1, 2, 2]], 1  # 0 ⊙ 2 = 1
    for carrier in ([0, 1, 2, 3], [0, 1, 2, INF]):
        for _ in range(60):
            yield carrier, [[rng.choice(carrier) for _ in carrier] for _ in carrier], 1


# No chain_cases carrier holds these: random_chain draws from 1 to 16 in halves.
OFF_CARRIER = [ExtNonneg(v) for v in ("1/2", "1/3", "17/3", "100")]


def test_the_rank_table_answers_as_the_value_scans():
    rng = random.Random(31)
    seen_no_zero_image = False
    for carrier, table, identity in chain_cases():
        scans = ValueScans(carrier, table, identity)
        written = rng.sample(scans.carrier, len(scans.carrier))
        rows = [[scans.table[(a, b)] for b in written] for a in written]
        for pm in (DiscreteChain(carrier, table, identity), DiscreteChain(written, rows, identity)):
            assert pm.carrier == tuple(scans.carrier)
            assert {(a, b): pm(a, b) for a in pm.carrier for b in pm.carrier} == scans.table
            assert pm.spec_form() == scans.spec_form()
            prof = pm.finiteness_profile()
            assert (prof.shape, prof.phi, prof.finite_elements) == scans.profile()
            assert prof.degenerate == (prof.finite_elements == {ZERO})
            for t in scans.carrier:
                assert pm.zero_map(t) == scans.zero_map(t)
                assert pm.is_odot_finite(t) == scans.is_odot_finite(t)
                image = pm.achievable_set(t)
                assert (image.lower, image.upper, image.explicit_values) == scans.image(t)
                assert image.lower_attained is True
                seen_no_zero_image |= ZERO not in image.explicit_values
                for nu in scans.carrier + OFF_CARRIER:
                    assert pm.least_solution(nu, t) == scans.least_solution(nu, t)
            for t in OFF_CARRIER:
                assert not pm.representable(t)
                for method in (pm.zero_map, pm.is_odot_finite, pm.achievable_set,
                               lambda t: pm.least_solution(ONE, t)):
                    with pytest.raises(CarrierDomainError):
                        method(t)
    assert seen_no_zero_image


def test_every_chain_with_a_structural_note_fails_the_validator():
    # a pseudo-multiplication has every structural fact at φ, so a broken
    # one must show as a failed check
    noted = 0
    for carrier, table, identity in chain_cases():
        if ValueScans(carrier, table, identity).notes():
            noted += 1
            assert not validate_pseudo_mul(DiscreteChain(carrier, table, identity)).passed
    assert noted


# -- zero map ---------------------------------------------------------------

def test_product_zero_map_closed_forms(times):
    assert times.zero_map(ExtNonneg(5)) == ZERO
    # oracle: s · ∞ = ∞ for every sampled s ↓ 0, so the infimum is ∞
    sampled = [times(ExtNonneg(Fraction(1, 2 ** k)), INF) for k in range(40)]
    assert all(v == INF for v in sampled)
    assert times.zero_map(INF) == INF


def test_minimum_zero_map_vanishes(minimum):
    # oracle: min(s, ∞) = s ↓ 0 along the dyadic descent
    sampled = [minimum(ExtNonneg(Fraction(1, 2 ** k)), INF) for k in range(40)]
    assert sampled == sorted(sampled, reverse=True)
    assert float(sampled[-1]) < 1e-9
    assert minimum.zero_map(INF) == ZERO
    assert minimum.zero_map(ExtNonneg(7)) == ZERO


def test_chain_zero_map_is_exhaustive_minimum(chain):
    # O(t) = min over positive carrier s of s ⊙ t, by direct table scan
    for t in chain.carrier:
        expected = min(chain(s, t) for s in chain.carrier if not s.is_zero)
        assert chain.zero_map(t) == expected
    assert chain.zero_map(ONE) == ONE
    assert chain.zero_map(ExtNonneg(2)) == ExtNonneg(2)


def test_custom_zero_map_descent():
    times_float = CustomContinuous(float_times, identity=1, name="float-times")
    assert times_float.zero_map(ExtNonneg(5)) == ZERO
    assert times_float.zero_map(INF) == INF
    projection = CustomContinuous(lambda s, t: t if s > 0 else 0.0, identity=1,
                                  name="right-projection")
    assert projection.zero_map(ExtNonneg(3)) == ExtNonneg(3)


# -- finiteness profiles ------------------------------------------------------

def test_product_profile_half_open(times):
    prof = times.finiteness_profile()
    assert prof.shape is FrontierShape.HALF_OPEN
    assert prof.phi == INF
    assert not prof.degenerate
    assert times.is_odot_finite(ExtNonneg(10 ** 9)) and not times.is_odot_finite(INF)
    # frontier consequences at φ = ∞
    assert times.zero_map(prof.phi) == prof.phi
    assert times(prof.phi, prof.phi) == prof.phi


def test_minimum_profile_whole_interval(minimum):
    prof = minimum.finiteness_profile()
    assert prof.shape is FrontierShape.WHOLE_INTERVAL
    assert minimum.is_odot_finite(INF)


def test_chain_profile_finite_frontier(chain):
    prof = chain.finiteness_profile()
    assert prof.shape is FrontierShape.HALF_OPEN
    assert prof.phi == ExtNonneg(2)
    assert prof.finite_elements == {ZERO, ONE}
    assert not prof.degenerate
    assert validate_pseudo_mul(chain).passed
    # the frontier of a non-degenerate operation sits strictly above 1_⊙
    assert chain.identity < prof.phi


def test_chain_frontier_consequences(chain):
    # with F = [0, φ): O(φ) = φ, φ ⊙ φ = φ, and φ absorbs (0, φ]
    phi = chain.finiteness_profile().phi
    assert chain.zero_map(phi) == phi
    assert chain(phi, phi) == phi
    for t in chain.carrier:
        if not t.is_zero and t <= phi:
            assert chain(t, phi) == phi
            assert chain(phi, t) == phi


def test_finite_set_downward_closed(times, minimum, chain):
    for pm, values in ((times, [ZERO, ONE, ExtNonneg(100), INF]),
                       (minimum, [ZERO, ONE, INF]),
                       (chain, list(chain.carrier))):
        for t in values:
            if pm.is_odot_finite(t):
                for u in values:
                    if u <= t:
                        assert pm.is_odot_finite(u)


def test_degenerate_custom_projection():
    projection = CustomContinuous(lambda s, t: t if s > 0 else 0.0, identity=1,
                                  name="right-projection")
    assert projection.degenerate
    assert not projection.is_odot_finite(ONE)
    assert projection.is_odot_finite(ZERO)


# -- Lemma-style equivalences and the no-crossing property --------------------

def _lemma_criteria(pm, t):
    probes = probe_values(pm, t)
    left = any(pm(s, t) <= pm.identity for s in probes)
    right = any(pm(t, s) <= pm.identity for s in probes)
    return left, right


def test_lemma_equivalences_exhaustive_on_chain(chain):
    for t in chain.carrier:
        if t.is_zero:
            continue
        left, right = _lemma_criteria(chain, t)
        assert left == right == chain.is_odot_finite(t)


def test_lemma_equivalences_sampled_continuous(times, minimum):
    # the invertibility criteria (≤ 1_⊙ on either side) and the
    # product-finiteness criteria (s ⊙ t itself ⊙-finite) all coincide
    # with O(t) = 0 for a non-degenerate operation
    rng = random.Random(7)
    for pm in (times, minimum):
        for _ in range(10_000):
            t = INF if rng.random() < 0.1 else ExtNonneg(
                Fraction(rng.randint(1, 1 << 20), rng.randint(1, 64)))
            left, right = _lemma_criteria(pm, t)
            probes = probe_values(pm, t)
            left_fin = any(pm.is_odot_finite(pm(s, t)) for s in probes)
            right_fin = any(pm.is_odot_finite(pm(t, s)) for s in probes)
            assert left == right == left_fin == right_fin == pm.is_odot_finite(t)


def test_no_crossing_at_phi_chain(chain):
    phi = chain.finiteness_profile().phi
    lows = [t for t in chain.carrier if t < phi]
    highs = [t for t in chain.carrier if t > phi]
    assert highs, "the fixture must have elements above its frontier"
    for t, u in itertools.product(lows, highs):
        assert chain(t, u) != phi
        assert chain(u, t) != phi


def test_no_crossing_sampled_continuous(times, minimum):
    # φ = ∞ for both built-ins, so no pair can cross it; the scan is a
    # vacuity check run at the same volume as the chain scan.
    rng = random.Random(11)
    for pm in (times, minimum):
        phi = pm.finiteness_profile().phi
        for _ in range(10_000):
            t = ExtNonneg(Fraction(rng.randint(0, 1 << 16), rng.randint(1, 16)))
            assert not (t < phi and pm(t, INF) == phi and INF > phi)


# -- validator reports ---------------------------------------------------------

def test_validate_builtins_pass(times, minimum, chain):
    for pm in (times, minimum, chain):
        report = validate_pseudo_mul(pm, seed=3)
        assert report.passed, str(report)
        assert not report.degenerate


def test_validate_flags_zero_divisors():
    # 1 ⊙ 2 = 0 with identity 2
    table = [[0, 0, 0],
             [0, 1, 0],
             [0, 1, 2]]
    pm = DiscreteChain([0, 1, 2], table, identity=2)
    report = validate_pseudo_mul(pm)
    bad = {c.name: c for c in report.checks}["no zero divisors"]
    assert not bad.passed
    assert bad.witness == (ONE, ExtNonneg(2))


def test_validate_flags_nonassociative_table():
    table = [[0, 0, 0, 0],
             [0, 1, 2, 3],
             [0, 2, 2, 3],
             [0, 3, 2, 2]]
    pm = DiscreteChain([0, 1, 2, 3], table, identity=1)
    report = validate_pseudo_mul(pm)
    bad = {c.name: c for c in report.checks}["associativity"]
    assert not bad.passed
    s, t, u = bad.witness
    assert pm(pm(s, t), u) != pm(s, pm(t, u))


def test_validate_random_nonassociative_tables_caught():
    # exhaustive-scan oracle: brew random 4-element tables, keep those a
    # brute-force triple scan proves non-associative, and demand the
    # validator agree with a genuine witness.
    rng = random.Random(5)
    carrier = [ZERO, ONE, ExtNonneg(2), ExtNonneg(3)]
    caught = 0
    for _ in range(200):
        def cell(a, b):
            if a.is_zero or b.is_zero:
                return ZERO
            return b if a == ONE else rng.choice(carrier[1:])
        pm = DiscreteChain(carrier, [[cell(a, b) for b in carrier] for a in carrier], identity=1)
        brute = any(pm(pm(s, t), u) != pm(s, pm(t, u))
                    for s in carrier for t in carrier for u in carrier)
        if not brute:
            continue
        report = validate_pseudo_mul(pm)
        check = {c.name: c for c in report.checks}["associativity"]
        assert not check.passed
        s, t, u = check.witness
        assert pm(pm(s, t), u) != pm(s, pm(t, u))
        caught += 1
    assert caught > 20


def test_validate_custom_continuous_passes():
    pm = CustomContinuous(float_times, identity=1, name="float-times")
    report = validate_pseudo_mul(pm, seed=1)
    assert report.passed, str(report)


def test_unresolved_infimum_carries_bracket():
    # a descent that keeps shrinking without stabilizing: s^(1/20) · t
    pm = CustomContinuous(lambda s, t: (s ** 0.005) * t, identity=1, name="slow")
    with pytest.raises(UnresolvedInfimumError) as err:
        pm.zero_map(ExtNonneg(1))
    lo, hi = err.value.bracket
    assert lo == ZERO and hi > ZERO


def test_chain_without_infinity_in_carrier():
    # a finite-φ chain need not contain ∞ at all
    pm = DiscreteChain.clamped_product([0, 1, 2])
    report = validate_pseudo_mul(pm)
    assert report.passed, str(report)
    prof = pm.finiteness_profile()
    assert prof.shape is FrontierShape.HALF_OPEN
    assert prof.phi == ExtNonneg(2)
    assert prof.finite_elements == {ZERO, ONE}


def test_clamped_product_can_create_zero_divisors():
    # 1/2 ⊙ 1/2 = 1/4 rounds down to 0: the factory builds it, the
    # validator must refuse it
    pm = DiscreteChain.clamped_product([0, "1/2", 1])
    report = validate_pseudo_mul(pm)
    assert not report.passed
    bad = {c.name: c for c in report.checks}["no zero divisors"]
    assert not bad.passed
    assert bad.witness == (ExtNonneg("1/2"), ExtNonneg("1/2"))


def test_conjugated_product_with_nonunit_identity():
    # s ⊙ t = 2st is the product transported along x ↦ 2x; its left
    # identity is 1/2, and the whole finiteness theory must follow it
    def scaled(s, t):
        if s == 0.0 or t == 0.0:
            return 0.0
        return 2.0 * s * t

    pm = CustomContinuous(scaled, identity="1/2", name="doubled-product")
    report = validate_pseudo_mul(pm, seed=2)
    assert report.passed, str(report)
    assert not pm.degenerate
    assert pm.is_odot_finite(ExtNonneg(100))
    assert not pm.is_odot_finite(INF)
    prof = pm.finiteness_profile()
    assert prof.shape is FrontierShape.HALF_OPEN


def test_chain_identity_must_be_in_carrier():
    with pytest.raises(ValueError):
        DiscreteChain([0, 1], [[0, 0], [0, 1]], identity=2)
    with pytest.raises(ValueError):
        DiscreteChain([0, 1], [[0, 0], [0, 2]], identity=1)  # value escapes carrier


@given(a=extnn, b=extnn, c=extnn)
def test_product_associative_monotone(a, b, c):
    assert TIMES(TIMES(a, b), c) == TIMES(a, TIMES(b, c))
    if a <= b:
        assert TIMES(a, c) <= TIMES(b, c)
        assert TIMES(c, a) <= TIMES(c, b)


@given(a=extnn, b=extnn, c=extnn)
def test_minimum_associative_monotone(a, b, c):
    assert MIN(MIN(a, b), c) == MIN(a, MIN(b, c))
    if a <= b:
        assert MIN(a, c) <= MIN(b, c)
