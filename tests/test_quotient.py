"""Quotient lattice, localization, ideal measures, disjoint variation, CCC."""

import itertools
import random

import pytest

from maxitive import (
    INF,
    ONE,
    ZERO,
    CCCWitness,
    ExtNonneg,
    MaxMeasure,
    SigmaIdeal,
    Space,
    StandardProduct,
    build_quotient,
    canonical_rep,
    check_ccc,
    check_maxitive,
    ideal_restriction_measure,
    delta_sharp,
    disjoint_variation,
    disjoint_variation_bruteforce,
    enumerate_quotient_sigma_ideals,
    is_sigma_odot_finite,
    localize,
    measure_eval,
    nguyen_bruteforce,
    nguyen_measure,
    quotient_leq,
    set_partitions,
    solve_density,
    verify_density,
    verify_lattice_complete,
    verify_localization,
    verify_nguyen_measure,
)
from maxitive.errors import SizeCapError
from maxitive.measure import SetFunctionTable

from conftest import rand_measure, rand_space

TIMES = StandardProduct()


def test_canonical_rep_examples():
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": 0, "b": 1})
    assert canonical_rep(tau, sp.full).representative == sp.subset(["b"])
    assert canonical_rep(tau, sp.subset(["a"])).representative == sp.empty
    positive = MaxMeasure(sp, {"a": 1, "b": 1})
    for B in sp.subsets():
        assert canonical_rep(positive, B).representative == B


def test_canonical_rep_idempotent_and_order_preserving():
    rng = random.Random(0)
    for _ in range(100):
        sp = rand_space(rng, hi=5)
        tau = rand_measure(rng, sp)
        for B in sp.subsets():
            rep = canonical_rep(tau, B).representative
            assert canonical_rep(tau, rep).representative == rep
        for A in sp.subsets():
            for B in sp.subsets():
                if A.issubset(B):
                    assert quotient_leq(tau, A, B)


def test_quotient_leq_example():
    sp = Space(["a", "b", "c"])
    tau = MaxMeasure(sp, {"a": 0, "b": 1, "c": 1})
    assert quotient_leq(tau, sp.subset(["a", "c"]), sp.subset(["b", "c"]))
    positive = delta_sharp(sp)
    assert not quotient_leq(positive, sp.subset(["a"]), sp.subset(["b"]))


def test_quotient_leq_is_partial_order_on_classes():
    sp = Space(["a", "b", "c"])
    tau = MaxMeasure(sp, {"a": 0, "b": 2, "c": 3})
    reps = {canonical_rep(tau, B).representative for B in sp.subsets()}
    for A in reps:
        assert quotient_leq(tau, A, A)
        for B in reps:
            if quotient_leq(tau, A, B) and quotient_leq(tau, B, A):
                assert A == B
            for C in reps:
                if quotient_leq(tau, A, B) and quotient_leq(tau, B, C):
                    assert quotient_leq(tau, A, C)


def test_build_quotient_class_counts():
    sp = Space(["a", "b"])
    assert build_quotient(MaxMeasure(sp, {"a": 0, "b": 1})).count == 2
    assert build_quotient(MaxMeasure(sp, {"a": 0, "b": 0})).count == 1
    sp3 = Space(["a", "b", "c"])
    assert build_quotient(delta_sharp(sp3)).count == 8


def test_quotient_is_powerset_of_non_null_atoms():
    rng = random.Random(1)
    for _ in range(50):
        sp = rand_space(rng, hi=5)
        tau = rand_measure(rng, sp)
        lattice = build_quotient(tau)
        assert verify_lattice_complete(lattice)
        classes = list(lattice.classes())
        assert len(classes) == lattice.count
        # lattice isomorphism with the powerset of non-null atoms:
        # join/meet correspond to union/intersection of representatives
        for a in classes:
            for b in classes:
                j = lattice.join(a, b)
                m = lattice.meet(a, b)
                assert j.representative == a.representative | b.representative
                assert m.representative == a.representative & b.representative
                assert a.leq(j) and b.leq(j)
                assert m.leq(a) and m.leq(b)


def test_classes_of_two_quotients_are_not_ordered():
    sp = Space(["a", "b"])
    a = canonical_rep(MaxMeasure(sp, {"a": 1, "b": 0}), sp.subset(["a"]))
    b = canonical_rep(delta_sharp(sp), sp.full)
    with pytest.raises(ValueError, match="^classes belong to different quotients$"):
        a.leq(b)


def test_localize_examples():
    sp = Space(["a", "b"])
    positive = delta_sharp(sp)
    for ideal, expected in ((SigmaIdeal.full(sp), sp.full), (SigmaIdeal.trivial(sp), sp.empty)):
        assert localize(positive, ideal) == expected
        verify_localization(positive, ideal, expected)
    tau = MaxMeasure(sp, {"a": 0, "b": 1})
    L = localize(tau, SigmaIdeal(sp, sp.subset(["a"])))
    verify_localization(tau, SigmaIdeal(sp, sp.subset(["a"])), L)
    assert measure_eval(tau, L - sp.subset(["a"])).is_zero
    # {a} itself also satisfies both localization conditions
    ideal_top = sp.subset(["a"])
    assert measure_eval(tau, ideal_top - ideal_top).is_zero
    for B in sp.subsets():
        if measure_eval(tau, ideal_top - B).is_zero:
            assert measure_eval(tau, ideal_top - B).is_zero


def test_ideal_restriction_examples():
    sp = Space(["a", "b", "c"])
    tau = MaxMeasure(sp, {"a": 1, "b": 2, "c": 3})
    nu = ideal_restriction_measure(tau, SigmaIdeal(sp, sp.subset(["a", "b"])))
    assert nu == MaxMeasure(sp, {"a": 1, "b": 2, "c": 0})
    assert nu(sp.full) == ExtNonneg(2)
    assert ideal_restriction_measure(tau, SigmaIdeal.full(sp)) == tau
    assert ideal_restriction_measure(tau, SigmaIdeal.trivial(sp)) == MaxMeasure.constant(sp, ZERO)
    assert check_maxitive(nu.table())


def test_ideal_restriction_is_sup_over_members():
    # direct-sup oracle: ν(B) = ⊕ over ideal members I of τ(B ∩ I)
    rng = random.Random(7)
    for _ in range(60):
        sp = rand_space(rng, hi=5)
        tau = rand_measure(rng, sp, allow_inf=True)
        ideal = SigmaIdeal(sp, rng.choice(list(sp.subsets())))
        nu = ideal_restriction_measure(tau, ideal)
        for B in sp.subsets():
            brute = max((measure_eval(tau, B & I) for I in ideal.members()),
                        default=ZERO)
            assert nu(B) == brute


def test_ideal_restriction_density_localizes():
    # when τ is σ-⊙-finite the restricted measure has a density whose
    # support is the localization of the ideal
    rng = random.Random(2)
    for _ in range(100):
        sp = rand_space(rng, hi=5)
        tau = rand_measure(rng, sp)
        assert is_sigma_odot_finite(TIMES, tau)
        top = rng.choice(list(sp.subsets()))
        ideal = SigmaIdeal(sp, top)
        nu = ideal_restriction_measure(tau, ideal)
        res = solve_density(TIMES, nu, tau)
        assert res.ok
        assert verify_density(TIMES, res.density, nu, tau)
        L = localize(tau, ideal)
        verify_localization(tau, ideal, L)
        assert res.density.support == L


def test_nguyen_measure_examples():
    sp = Space(["a", "b", "c"])
    tau = MaxMeasure(sp, {"a": 1, "b": 2, "c": 3})
    ideal = SigmaIdeal(sp, sp.subset(["a"]))
    nu = nguyen_measure(tau, ideal)
    verify_nguyen_measure(tau, ideal, nu)
    assert nu == MaxMeasure(sp, {"a": 0, "b": 2, "c": 3})
    assert nu(sp.subset(["a", "b"])) == ExtNonneg(2)
    assert nguyen_measure(tau, SigmaIdeal.full(sp)) == MaxMeasure.constant(sp, ZERO)
    assert nguyen_measure(tau, SigmaIdeal.trivial(sp)) == tau


def test_nguyen_properties_randomized():
    rng = random.Random(3)
    for _ in range(100):
        sp = rand_space(rng, hi=5)
        tau = rand_measure(rng, sp, allow_inf=True)
        ideal = SigmaIdeal(sp, rng.choice(list(sp.subsets())))
        nu = nguyen_measure(tau, ideal)
        verify_nguyen_measure(tau, ideal, nu)
        assert check_maxitive(nu.table())
        assert all(nv <= tv for nv, tv in zip(nu.masses, tau.masses))
        for I in ideal.members():
            assert nu(I).is_zero
        # vanishes exactly on the ideal modulo null sets
        for B in sp.subsets():
            assert nu(B).is_zero == ideal.contains(B & tau.support)
        # and the closed form is the literal 𝒥_t infimum
        for B in sp.subsets():
            assert nu(B) == nguyen_bruteforce(tau, ideal, B)
        # 𝒥_t membership is an up-set in t with boundary exactly ν(B)
        if sp.n <= 4:
            thresholds = sorted({measure_eval(tau, B) for B in sp.subsets()})
            for B in sp.subsets():
                for t in thresholds:
                    member = any(
                        measure_eval(tau, B - I) <= t for I in ideal.members())
                    assert member == (nu(B) <= t)


def test_disjoint_variation_examples():
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": 1, "b": 2})
    m = disjoint_variation(tau)
    assert m(sp.full) == ExtNonneg(3)
    # brute force over the 2 partitions of a 2-set
    assert disjoint_variation_bruteforce(tau, sp.full) == ExtNonneg(3)
    assert m(sp.empty) == ZERO
    sp3 = Space(["a", "b", "c"])
    assert disjoint_variation(delta_sharp(sp3))(sp3.full) == ExtNonneg(3)


def test_disjoint_variation_is_partition_sup():
    rng = random.Random(4)
    for _ in range(30):
        sp = rand_space(rng, hi=4)
        tau = rand_measure(rng, sp, allow_inf=True)
        m = disjoint_variation(tau)
        for B in sp.subsets():
            assert m(B) == disjoint_variation_bruteforce(tau, B)
            assert m(B) >= measure_eval(tau, B)
            assert m(B).is_zero == measure_eval(tau, B).is_zero


def test_set_partitions_bell_numbers():
    assert len(list(set_partitions(list("ab")))) == 2
    assert len(list(set_partitions(list("abc")))) == 5
    assert len(list(set_partitions(list("abcde")))) == 52


def test_check_ccc_finite_space():
    sp = Space(["a", "b"])
    verdict = check_ccc(rand_measure(random.Random(5), sp))
    assert verdict.satisfied
    assert verdict.certificate.kind == "finite-space-trivial"
    assert dict(verdict.conditions)["sigma_principal"] is True


def test_check_ccc_uncountable_witness():
    sp = Space(["a", "b", "c"])
    witness = CCCWitness.intensional_family(
        "singletons of an uncountable set, each of mass 1", "uncountable", ONE)
    verdict = check_ccc(delta_sharp(sp), witness)
    assert not verdict.satisfied
    assert verdict.certificate == witness
    assert all(v is False for _, v in verdict.conditions)
    assert str(verdict) == (
        "CCC fails (intensional-family: singletons of an uncountable set, each of mass 1)\n"
        "  sigma_principal: False\n"
        "  countable_chain_condition: False\n"
        "  quotient_sigma_ideals_principal: False\n"
        "  dominating_sigma_additive_measure: False")


def test_check_ccc_countable_witness_is_harmless():
    sp = Space(["a"])
    witness = CCCWitness.intensional_family("a countable family", "countable", ONE)
    assert check_ccc(delta_sharp(sp), witness).satisfied


@pytest.mark.parametrize("witness", [
    None,
    CCCWitness.finite_space_trivial(),
    CCCWitness.intensional_family("a countable family", "countable", ONE),
], ids=["none", "finite-space-trivial", "countable"])
def test_check_ccc_holds_with_the_trivial_certificate(witness):
    verdict = check_ccc(delta_sharp(Space(["a", "b"])), witness)
    assert verdict == (True, CCCWitness.finite_space_trivial(), (
        ("sigma_principal", True),
        ("countable_chain_condition", True),
        ("quotient_sigma_ideals_principal", True),
        ("dominating_sigma_additive_measure", "disjoint variation, with exactly the τ-null sets"),
    ))
    if witness is not None and witness.kind == "finite-space-trivial":
        assert verdict.certificate is witness
    assert str(verdict) == (
        "CCC satisfied (finite-space-trivial: a finite powerset admits only finitely many "
        "disjoint sets)\n"
        "  sigma_principal: True\n"
        "  countable_chain_condition: True\n"
        "  quotient_sigma_ideals_principal: True\n"
        "  dominating_sigma_additive_measure: disjoint variation, with exactly the τ-null sets")


def test_an_intensional_family_is_countable_or_uncountable():
    with pytest.raises(ValueError, match="^cardinality must be 'countable' or 'uncountable'$"):
        CCCWitness.intensional_family("a finite family", "finite", ONE)


def test_check_ccc_rejects_zero_mass_witness():
    sp = Space(["a"])
    with pytest.raises(ValueError):
        check_ccc(delta_sharp(sp),
                  CCCWitness.intensional_family("negligible members", "uncountable", ZERO))


def test_sigma_ideal_enumeration_counts():
    # on a Boolean quotient with k non-null atoms there are exactly 2^k
    # σ-ideals, all principal
    for k, atoms in ((1, ["a"]), (2, ["a", "b"]), (3, ["a", "b", "c"])):
        sp = Space(atoms)
        lattice = build_quotient(delta_sharp(sp))
        ideals = enumerate_quotient_sigma_ideals(lattice)
        assert len(ideals) == 1 << k
        for family in ideals:
            top = 0
            for m in family:
                top |= m
            assert top in family
            assert family == frozenset(m for m in family if m | top == top) \
                and len(family) == 1 << bin(top).count("1")


def test_sigma_ideal_enumeration_with_null_atoms():
    sp = Space(["a", "b", "c", "d", "e", "f"])
    tau = MaxMeasure(sp, {"a": 1, "b": 2, "c": 0, "d": 3, "e": "1/2", "f": 4})
    lattice = build_quotient(tau)
    assert lattice.k == 5
    ideals = enumerate_quotient_sigma_ideals(lattice)
    assert len(ideals) == 32
    with pytest.raises(SizeCapError):
        enumerate_quotient_sigma_ideals(build_quotient(delta_sharp(sp)))


def test_principality_package_small_spaces():
    # CCC ⇔ disjoint variation with identical null sets ⇔ all quotient
    # σ-ideals principal; all three hold on every finite fixture
    rng = random.Random(6)
    for _ in range(30):
        sp = rand_space(rng, hi=5)
        tau = rand_measure(rng, sp, allow_inf=True)
        assert check_ccc(tau).satisfied
        m = disjoint_variation(tau)
        for B in sp.subsets():
            assert m(B).is_zero == measure_eval(tau, B).is_zero
        lattice = build_quotient(tau)
        if lattice.k <= 5:
            for family in enumerate_quotient_sigma_ideals(lattice):
                top = 0
                for mm in family:
                    top |= mm
                assert top in family


def test_additive_measure_sum_with_infinity():
    sp = Space(["a", "b"])
    m = disjoint_variation(MaxMeasure(sp, {"a": INF, "b": 2}))
    assert m(sp.full) == INF
    assert m(sp.subset(["b"])) == ExtNonneg(2)


def test_the_completeness_check_runs_up_to_the_enumeration_cap():
    # build_quotient checks nothing; whether the check runs is the CLI's
    # --max-n (tests/golden/quotient-measures-max-n0.json)
    assert verify_lattice_complete(build_quotient(delta_sharp(Space(list("abc"))))) is True
    eleven = delta_sharp(Space([f"x{i}" for i in range(11)]))
    assert verify_lattice_complete(build_quotient(eleven)) is True
    beyond_cap = build_quotient(delta_sharp(Space([f"x{i}" for i in range(21)])))
    assert beyond_cap.count == 1 << 21
    with pytest.raises(SizeCapError, match="^21 atoms exceed the cap of 20$"):
        verify_lattice_complete(beyond_cap)


def test_lattice_check_fails_on_a_wrong_support():
    sp = Space(list("abcd"))
    tau = MaxMeasure(sp, {"a": 0, "b": 1, "c": INF, "d": 0})
    lattice = build_quotient(tau)
    assert verify_lattice_complete(lattice) is True
    for wrong in (sp.subset(["b"]), sp.subset(["b", "c", "d"]), sp.full, sp.empty):
        lattice.non_null_atoms = wrong
        assert verify_lattice_complete(lattice) is False


def test_lattice_check_fails_when_support_is_patched(monkeypatch):
    sp = Space(list("abc"))
    tau = MaxMeasure(sp, {"a": 2, "b": 0, "c": 1})
    monkeypatch.setattr(MaxMeasure, "support", property(lambda self: self.space.full))
    assert verify_lattice_complete(build_quotient(tau)) is False


def test_lattice_check_fails_on_a_doctored_table(monkeypatch):
    sp = Space(list("abc"))
    tau = MaxMeasure(sp, {"a": 2, "b": 0, "c": 1})
    honest = MaxMeasure.table
    for mask in range(1, 8):
        def doctored(self, mask=mask):
            table = honest(self)
            ranks = bytearray(table.ranks)
            # a non-null set read as null, or a null set read as non-null
            ranks[mask] = 0 if ranks[mask] else 1
            return SetFunctionTable.from_ranks(self.space, table.universe, bytes(ranks))
        monkeypatch.setattr(MaxMeasure, "table", doctored)
        assert verify_lattice_complete(build_quotient(tau)) is False
    monkeypatch.setattr(MaxMeasure, "table", honest)
    assert verify_lattice_complete(build_quotient(tau)) is True


def test_quotient_joins_and_meets_are_least_and_greatest_bounds():
    # The literal bound check: in the order of QuotientClass.leq over
    # the classes the lattice enumerates, join is the least upper bound
    # and meet the greatest lower bound of every pair.
    rng = random.Random(12)
    sizes = []
    for _ in range(30):
        sp = rand_space(rng, hi=7)
        tau = rand_measure(rng, sp)
        lattice = build_quotient(tau)
        if lattice.k > 6:
            continue
        sizes.append(lattice.k)
        classes = list(lattice.classes())
        assert len(set(classes)) == lattice.count
        index = {c: i for i, c in enumerate(classes)}
        leq = [[a.leq(b) for b in classes] for a in classes]
        every = range(len(classes))
        for a, b in itertools.product(every, every):
            j = lattice.join(classes[a], classes[b])
            m = lattice.meet(classes[a], classes[b])
            assert lattice.contains(j) and lattice.contains(m)
            j, m = index[j], index[m]
            assert leq[a][j] and leq[b][j] and leq[m][a] and leq[m][b]
            for c in every:
                if leq[a][c] and leq[b][c]:
                    assert leq[j][c]
                if leq[c][a] and leq[c][b]:
                    assert leq[c][m]
    assert max(sizes) == 6
