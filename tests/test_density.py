"""Absolute continuity, the density solver, finitization, and the diagnosis."""

import math
import random
from fractions import Fraction

import pytest

from maxitive import (
    INF,
    ONE,
    ZERO,
    CustomContinuous,
    DegenerateOperationError,
    DiscreteChain,
    ExtNonneg,
    FailureReason,
    MaxMeasure,
    MeasurableFn,
    Minimum,
    PreconditionError,
    Space,
    StandardProduct,
    achievable_set,
    delta_sharp,
    diagnose_rn,
    find_odot_spots,
    finitize_density,
    is_abs_continuous,
    is_abs_continuous_exhaustive,
    is_semi_odot_finite,
    is_sigma_odot_finite,
    pushforward_measure,
    rn_failure_witness,
    semi_odot_finite_bruteforce,
    solve_atom_density,
    solve_density,
    validate_pseudo_mul,
    verify_density,
)
from maxitive import bytetable as bytetable_module
from maxitive import density as density_module
from maxitive import integral as integral_module
from maxitive import measure as measure_module
from maxitive import quotient as quotient_module
from maxitive.spaces import submasks

from conftest import (float_times, rand_fn, rand_mass, rand_measure, rand_space, random_chain,
                      small_chains)

TIMES = StandardProduct()
MIN = Minimum()


def _degenerate_pm():
    return CustomContinuous(lambda s, t: t if s > 0 else 0.0, identity=1,
                            name="right-projection")


# -- absolute continuity -------------------------------------------------------

def abs_continuous_both_ways(pm, nu, tau) -> bool:
    """The atom-wise verdict, once the exhaustive scan has agreed with it."""
    verdict = is_abs_continuous(pm, nu, tau)
    assert is_abs_continuous_exhaustive(pm, nu, tau) == verdict
    return verdict


def test_abs_continuity_examples():
    sp = Space(["a", "b", "c"])
    assert abs_continuous_both_ways(TIMES, delta_sharp(sp), MaxMeasure.constant(sp, INF))
    sp1 = Space(["a"])
    assert not abs_continuous_both_ways(TIMES, MaxMeasure(sp1, {"a": 1}),
                                        MaxMeasure(sp1, {"a": 0}))
    # under ∧, ∞ ⊙ τ(B) = τ(B), so domination means ν ≤ τ
    assert not abs_continuous_both_ways(MIN, MaxMeasure(sp1, {"a": 2}),
                                        MaxMeasure(sp1, {"a": 1}))


def test_abs_continuity_atomwise_matches_exhaustive():
    rng = random.Random(0)
    for _ in range(300):
        sp = rand_space(rng, hi=5)
        nu = rand_measure(rng, sp, allow_inf=True)
        tau = rand_measure(rng, sp, allow_inf=True)
        for pm in (TIMES, MIN):
            abs_continuous_both_ways(pm, nu, tau)


def test_everything_is_dominated_by_delta_sharp():
    rng = random.Random(1)
    for _ in range(100):
        sp = rand_space(rng)
        nu = rand_measure(rng, sp, allow_inf=True)
        assert is_abs_continuous(TIMES, nu, delta_sharp(sp))


# -- achievable sets -----------------------------------------------------------

def test_achievable_product():
    a = achievable_set(TIMES, ExtNonneg(3))
    assert a.lower == ZERO and a.upper == INF and a.lower_attained
    assert a.contains(ExtNonneg("1/7"))
    b = achievable_set(TIMES, INF)
    assert b.lower == INF and b.upper == INF
    assert b.contains(ZERO) and b.contains(INF) and b.contains(ONE) is False
    assert str(b) == "{0, inf}"
    z = achievable_set(TIMES, ZERO)
    assert z.upper == ZERO and z.contains(ONE) is False


def test_achievable_minimum():
    a = achievable_set(MIN, ONE)
    assert a.lower == ZERO and a.upper == ONE and a.lower_attained
    assert a.contains(ExtNonneg("1/2")) and a.contains(ONE)
    assert a.contains(ExtNonneg(2)) is False


def test_achievable_chain(chain):
    a = achievable_set(chain, ONE)
    assert a.explicit_values == {ZERO, ONE, ExtNonneg(2), INF}
    b = achievable_set(chain, ExtNonneg(2))
    assert b.explicit_values == {ZERO, ExtNonneg(2), INF}
    assert b.contains(ONE) is False


def test_achievable_custom_unknown_attainment():
    pm = CustomContinuous(float_times, identity=1, name="float-times")
    a = achievable_set(pm, INF)
    assert a.lower == INF
    assert a.lower_attained is None  # attainment is resolved only for built-ins


# -- the atom solver -----------------------------------------------------------

def test_atom_solver_product():
    assert solve_atom_density(TIMES, ONE, ExtNonneg(2)) == ExtNonneg("1/2")
    assert solve_atom_density(TIMES, ONE, INF) is None
    assert solve_atom_density(TIMES, ZERO, ZERO) == ZERO      # 0/0 → 0
    assert solve_atom_density(TIMES, ZERO, INF) == ZERO
    assert solve_atom_density(TIMES, INF, ExtNonneg(3)) == INF  # ∞ target forced
    assert solve_atom_density(TIMES, ONE, ZERO) is None
    # no least positive solution exists; the canonical choice is 1_⊙
    assert solve_atom_density(TIMES, INF, INF) == ONE


def test_atom_solver_minimum():
    assert solve_atom_density(MIN, ExtNonneg("1/5"), ExtNonneg("1/2")) == ExtNonneg("1/5")
    assert solve_atom_density(MIN, ONE, ONE) == ONE
    assert solve_atom_density(MIN, ExtNonneg(2), ONE) is None
    assert solve_atom_density(MIN, INF, INF) == INF


def test_atom_solver_chain(chain):
    two = ExtNonneg(2)
    assert solve_atom_density(chain, two, ONE) == two
    assert solve_atom_density(chain, ONE, two) is None
    assert solve_atom_density(chain, two, two) == ONE  # minimal: 1 ⊙ 2 = 2
    assert solve_atom_density(chain, ZERO, INF) == ZERO


def test_atom_solver_custom_bisection():
    pm = CustomContinuous(float_times, identity=1, name="float-times")
    c = solve_atom_density(pm, ONE, ExtNonneg(2))
    assert c is not None and pm.values_equal(pm(c, ExtNonneg(2)), ONE)
    assert solve_atom_density(pm, ONE, INF) is None
    assert solve_atom_density(pm, INF, ExtNonneg(2)) == INF


def test_custom_map_refused_in_the_bisection_names_the_atom():
    # the probe checks the map's value as ⊙ does: nan past s = 64 is refused,
    # not taken for "below the target"
    pm = CustomContinuous(lambda s, t: math.nan if s > 64 else s * t, identity=1,
                          name="nan-above-64")
    with pytest.raises(ValueError, match="nan"):
        pm.reaches(ExtNonneg(1024), ONE)(128.0)
    negative = CustomContinuous(lambda s, t: -1.0 if s > 64 else s * t, identity=1)
    with pytest.raises(ValueError, match="outside"):
        negative.reaches(ExtNonneg(1024), ONE)(128.0)
    sp = Space(["a", "b"])
    with pytest.raises(ValueError, match=r"atom b \(ν = 1024, τ = 1\): custom operation"):
        solve_density(pm, MaxMeasure(sp, {"a": 2, "b": 1024}), MaxMeasure(sp, {"a": 1, "b": 1}))


@pytest.mark.parametrize("fn, cause", [
    (lambda s, t: None if s > 64 else s * t, "custom operation returned None"),
    (lambda s, t: s * t / (0.0 if s > 64 else 1.0), "division by zero"),
], ids=["returns-none", "divides-by-zero"])
def test_custom_map_faults_are_located_at_their_atom(fn, cause):
    # a map that returns a non-number or raises fails inside the solve of
    # atom b, and the error says so rather than escaping bare
    pm = CustomContinuous(fn, identity=1)
    sp = Space(["a", "b"])
    with pytest.raises(ValueError, match=rf"atom b \(ν = 1024, τ = 1\): .*{cause}"):
        solve_density(pm, MaxMeasure(sp, {"a": 2, "b": 1024}), MaxMeasure(sp, {"a": 1, "b": 1}))


def test_atom_solver_minimality():
    rng = random.Random(2)
    for pm in (TIMES, MIN):
        for _ in range(300):
            tau_x = ExtNonneg(Fraction(rng.randint(0, 9), rng.randint(1, 5)))
            nu_x = ExtNonneg(Fraction(rng.randint(0, 9), rng.randint(1, 5)))
            c = solve_atom_density(pm, nu_x, tau_x)
            if c is None:
                continue
            assert pm(c, tau_x) == nu_x
            if not c.is_zero:
                half = ExtNonneg(c.as_fraction() / 2) if c.is_finite else ExtNonneg(1 << 30)
                assert pm(half, tau_x) != nu_x


# -- the full solver -----------------------------------------------------------

def test_solve_density_product_fixture():
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": 2, "b": 3})
    nu = MaxMeasure(sp, {"a": 1, "b": 1})
    res = solve_density(TIMES, nu, tau)
    assert res.ok
    assert res.density == MeasurableFn(sp, {"a": "1/2", "b": "1/3"})
    # roundtrip over all 4 subsets
    assert verify_density(TIMES, res.density, nu, tau)


def test_solve_density_shilkret_counterexample():
    sp = Space(["a", "b", "c"])
    nu = delta_sharp(sp)
    tau = MaxMeasure.constant(sp, INF)
    res = solve_density(TIMES, nu, tau)
    assert not res.ok
    assert len(res.failures) == 3
    for f in res.failures:
        assert f.reason is FailureReason.TARGET_OUTSIDE_ACHIEVABLE
        assert f.target == ONE
        assert f.achievable.contains(ONE) is False
        assert f.achievable.lower == INF and f.achievable.upper == INF


def test_solve_density_null_tau_reason():
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": 0, "b": 1})
    nu = MaxMeasure(sp, {"a": 1, "b": 1})
    res = solve_density(TIMES, nu, tau)
    assert not res.ok
    (failure,) = res.failures
    assert failure.atom == "a"
    assert failure.reason is FailureReason.NULL_TAU_POSITIVE_NU


def test_solve_density_minimum_fixture():
    sp = Space(["a", "b", "c"])
    tau = MaxMeasure(sp, {"a": 3, "b": 1, "c": "1/2"})
    nu = MaxMeasure(sp, {"a": 2, "b": 1, "c": "1/5"})
    res = solve_density(MIN, nu, tau)
    assert res.ok
    assert res.density == MeasurableFn(sp, {"a": 2, "b": 1, "c": "1/5"})
    assert verify_density(MIN, res.density, nu, tau)


def test_solver_completeness_product_and_min():
    # dominated by a σ-⊙-finite measure ⇒ solvable, on randomized pairs
    rng = random.Random(3)
    for _ in range(500):
        sp = rand_space(rng)
        tau = rand_measure(rng, sp)  # finite masses: σ-⊙-finite under both ops
        assert is_sigma_odot_finite(TIMES, tau)
        nu_masses = []
        for tv in tau.masses:
            if tv.is_zero:
                nu_masses.append(ZERO)
            elif rng.random() < 0.1:
                nu_masses.append(INF)
            else:
                nu_masses.append(ExtNonneg(tv.as_fraction()
                                           * Fraction(rng.randint(0, 8), 4)))
        nu = MaxMeasure(sp, nu_masses)
        assert is_abs_continuous(TIMES, nu, tau)
        res = solve_density(TIMES, nu, tau)
        assert res.ok, str(res)
        assert verify_density(TIMES, res.density, nu, tau)

        nu_min = MaxMeasure(sp, [min(a, b) for a, b in
                                 zip(rand_measure(rng, sp, allow_inf=True).masses,
                                     tau.masses)])
        assert is_abs_continuous(MIN, nu_min, tau)
        res = solve_density(MIN, nu_min, tau)
        assert res.ok
        assert verify_density(MIN, res.density, nu_min, tau)


def test_solver_minimal_density_pointwise():
    # non-uniqueness under ∧: raising c on atoms where ν = τ still verifies,
    # while lowering the solver's density on any non-null atom breaks it
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": 1, "b": 2})
    nu = MaxMeasure(sp, {"a": 1, "b": 1})
    res = solve_density(MIN, nu, tau)
    assert res.ok and res.density("a") == ONE
    raised = res.density.with_value("a", INF)  # ν(a) = τ(a): any bigger c works
    assert verify_density(MIN, raised, nu, tau)
    lowered = res.density.with_value("b", ExtNonneg("1/2"))
    assert not verify_density(MIN, lowered, nu, tau)
    # in general: raising the density anywhere ν and τ agree keeps it valid
    rng = random.Random(9)
    for _ in range(100):
        sp = rand_space(rng)
        tau_r = rand_measure(rng, sp, allow_inf=True)
        nu_r = MaxMeasure(sp, [min(rand_measure(rng, sp, allow_inf=True).masses[i], tv)
                               for i, tv in enumerate(tau_r.masses)])
        res_r = solve_density(MIN, nu_r, tau_r)
        assert res_r.ok
        bumped = MeasurableFn(sp, [
            INF if nu_r.masses[i] == tau_r.masses[i] else res_r.density.values[i]
            for i in range(sp.n)])
        assert verify_density(MIN, bumped, nu_r, tau_r)


def test_verify_density_rejects_perturbations():
    rng = random.Random(4)
    for _ in range(100):
        sp = rand_space(rng)
        tau = rand_measure(rng, sp, allow_zero=False)
        c = rand_fn(rng, sp)
        nu = pushforward_measure(TIMES, c, tau)
        assert verify_density(TIMES, c, nu, tau)
        atom = rng.choice(sp.atoms)
        perturbed = c.with_value(atom, c(atom) + ONE)
        assert not verify_density(TIMES, perturbed, nu, tau)
    # c = 0 is no density of a nonzero measure
    sp = Space(["a"])
    assert not verify_density(TIMES, MeasurableFn(sp, {"a": 0}),
                              MaxMeasure(sp, {"a": 1}), MaxMeasure(sp, {"a": 1}))


def test_roundtrip_recovery():
    rng = random.Random(5)
    for pm in (TIMES, MIN):
        for _ in range(300):
            sp = rand_space(rng)
            tau = rand_measure(rng, sp, allow_zero=False)
            c = rand_fn(rng, sp, allow_inf=(pm is MIN))
            nu = pushforward_measure(pm, c, tau)
            res = solve_density(pm, nu, tau)
            assert res.ok
            assert verify_density(pm, res.density, nu, tau)


# -- finitization ---------------------------------------------------------------

def test_finitize_fixture():
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": 0, "b": 1})
    c = MeasurableFn(sp, {"a": INF, "b": 2})
    nu = pushforward_measure(TIMES, c, tau)
    assert nu == MaxMeasure(sp, {"a": 0, "b": 2})
    c1 = finitize_density(TIMES, c, nu, tau)
    assert c1 == MeasurableFn(sp, {"a": 0, "b": 2})
    assert verify_density(TIMES, c1, nu, tau)


def test_finitize_keeps_already_finite_density():
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": 2, "b": 3})
    c = MeasurableFn(sp, {"a": "1/2", "b": 4})
    nu = pushforward_measure(TIMES, c, tau)
    assert finitize_density(TIMES, c, nu, tau) == c


def test_finitize_under_minimum_is_identity():
    rng = random.Random(6)
    for _ in range(50):
        sp = rand_space(rng)
        tau = rand_measure(rng, sp, allow_inf=True)
        c = rand_fn(rng, sp, allow_inf=True)
        nu = pushforward_measure(MIN, c, tau)
        assert finitize_density(MIN, c, nu, tau) == c


def test_finitize_preconditions_reported():
    sp = Space(["a"])
    tau = MaxMeasure(sp, {"a": 1})
    not_density = MeasurableFn(sp, {"a": 2})
    nu = MaxMeasure(sp, {"a": 1})
    with pytest.raises(PreconditionError):
        finitize_density(TIMES, not_density, nu, tau)
    # ν with ⊙-infinite mass is not semi-⊙-finite
    tau_inf = MaxMeasure(sp, {"a": 1})
    nu_inf = MaxMeasure(sp, {"a": INF})
    c = MeasurableFn(sp, {"a": INF})
    with pytest.raises(PreconditionError):
        finitize_density(TIMES, c, nu_inf, tau_inf)


def test_finitize_asserts_its_postcondition():
    # an operation that calls 2 ⊙-infinite, though the product keeps it
    # finite: ν passes the semi-⊙-finiteness test, and truncating c at the
    # value 2 breaks c ⊙ τ = ν, which finitize_density must refuse
    class TwoIsInfinite(StandardProduct):
        def is_odot_finite(self, t):
            return t != ExtNonneg(2) and super().is_odot_finite(t)

    pm = TwoIsInfinite()
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": "3/2", "b": 1})
    c = MeasurableFn(sp, {"a": 2, "b": 1})
    nu = pushforward_measure(pm, c, tau)
    with pytest.raises(AssertionError, match="finitized density failed to verify"):
        finitize_density(pm, c, nu, tau)


# -- the finiteness conditions from one scan of the atoms --------------------------

def _operations(rng):
    """times, min and six random chains that pass the validator."""
    ops = [TIMES, MIN]
    while len(ops) < 8:
        pm = random_chain(rng)
        if validate_pseudo_mul(pm).passed and not pm.degenerate:
            ops.append(pm)
    return ops


def _draw(rng, pm, n):
    if pm is TIMES or pm is MIN:
        return [rand_mass(rng, allow_inf=True) for _ in range(n)]
    return [rng.choice(pm.carrier) for _ in range(n)]


def _maximal_spot_bruteforce(pm, mu):
    """The union of the ⊙-spots from the definition (the sets of ⊙-infinite
    measure whose subsets all have measure 0 or ⊙-infinite), modulo the
    null atoms, which a spot may take in or leave out."""
    values = mu.table().values
    infinite = [not pm.is_odot_finite(v) for v in values]
    union = 0
    for s in range(len(values)):
        if infinite[s] and all(infinite[a] or values[a].is_zero for a in submasks(s)):
            union |= s
    return union & mu.support.mask


def _rn_oracle(pm, tau):
    """Whether every ν ≪_⊙ τ with masses on the chain's carrier has a
    density, atom by atom: each carrier value v that a one-atom ν may
    take under τ({x}) (is_abs_continuous) has a solution c ⊙ τ({x}) = v."""
    one = Space(["x"])
    for t in tau.masses:
        tau_x = MaxMeasure(one, [t])
        for v in pm.carrier:
            if (is_abs_continuous(pm, MaxMeasure(one, [v]), tau_x)
                    and solve_atom_density(pm, v, t) is None):
                return False
    return True


def test_finiteness_conditions_agree_with_the_oracles():
    rng = random.Random(31)
    verdicts = set()
    for pm in _operations(rng):
        for _ in range(40):
            sp = rand_space(rng, hi=8)
            mu = MaxMeasure(sp, _draw(rng, pm, sp.n))
            semi = is_semi_odot_finite(pm, mu)
            spots = find_odot_spots(pm, mu)
            diag = diagnose_rn(pm, mu)
            assert semi == semi_odot_finite_bruteforce(pm, mu), (pm, mu)
            assert semi == (not spots.has_spots) == is_sigma_odot_finite(pm, mu)
            assert semi == diag.semi_finite == diag.sigma_odot_finite
            if pm is TIMES or pm is MIN:  # continuous: σ-⊙-finiteness is the whole verdict
                assert diag.rn_property == semi
            else:
                assert diag.rn_property == _rn_oracle(pm, mu), (pm, mu)
            assert diag.spots == spots
            mask = spots.maximal_spot.mask if spots.has_spots else 0
            assert mask == _maximal_spot_bruteforce(pm, mu), (pm, mu)
            verdicts.add(semi)
    assert verdicts == {True, False}


def test_finitize_density_check_agrees_with_verify_density():
    rng = random.Random(32)
    outcomes = set()
    for pm in _operations(rng):
        for _ in range(40):
            sp = rand_space(rng, hi=10)
            tau = MaxMeasure(sp, _draw(rng, pm, sp.n))
            c = MeasurableFn(sp, _draw(rng, pm, sp.n))
            nu = pushforward_measure(pm, c, tau)
            if rng.random() < 0.5:  # perturb one atom of ν or of c
                i = rng.randrange(sp.n)
                if rng.random() < 0.5:
                    nu = MaxMeasure(sp, [*nu.masses[:i], *_draw(rng, pm, 1), *nu.masses[i + 1:]])
                else:
                    c = c.with_value(sp.atoms[i], _draw(rng, pm, 1)[0])
            verified = verify_density(pm, c, nu, tau)
            try:
                finitize_density(pm, c, nu, tau)
                accepted = True
            except PreconditionError as exc:  # the semi-⊙-finiteness test comes second
                accepted = "not semi-⊙-finite" in str(exc)
            assert accepted == verified, (pm, c, nu, tau)
            outcomes.add(verified)
    assert outcomes == {True, False}


def test_diagnosis_and_finitization_build_no_table(monkeypatch, chain):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (bytetable_module, density_module, integral_module, measure_module,
                   quotient_module):
        monkeypatch.setattr(module, "max_rank_table", counted(module.max_rank_table))
    monkeypatch.setattr(MaxMeasure, "table", counted(MaxMeasure.table))
    rng = random.Random(33)
    sp = Space([f"x{i}" for i in range(20)])
    for pm in (TIMES, MIN, chain):
        # c is ∞ on the τ-null atoms and 0 on the ⊙-infinite ones, so ν = c ⊙ τ
        # is semi-⊙-finite and τ is not
        tau = MaxMeasure(sp, [rng.choice([ZERO, ONE, INF]) for _ in range(20)])
        c = MeasurableFn(sp, [{ZERO: INF, ONE: ONE, INF: ZERO}[t] for t in tau.masses])
        nu = pushforward_measure(pm, c, tau)
        assert diagnose_rn(pm, tau).semi_finite is (pm is MIN)
        truncated = c if pm is MIN else MeasurableFn(sp, [ZERO if v.is_inf else v
                                                          for v in c.values])
        assert finitize_density(pm, c, nu, tau) == truncated
        assert calls == []
    verify_density(TIMES, c, nu, tau)  # the exhaustive route is seen
    assert "max_rank_table" in calls


# -- diagnosis -------------------------------------------------------------------

def uninorm_chain():
    """The idempotent uninorm on {0, 1, 3, 7, ∞} with identity 7: 0
    annihilates, the max where both arguments are ≥ 7, the min elsewhere."""
    carrier = [ExtNonneg(v) for v in ("0", "1", "3", "7", "inf")]
    e = ExtNonneg(7)

    def uninorm(a, b):
        if a.is_zero or b.is_zero:
            return ZERO
        return max(a, b) if a >= e and b >= e else min(a, b)

    return DiscreteChain(carrier, [[uninorm(a, b) for b in carrier] for a in carrier], e)


def test_rn_property_is_not_claimed_where_a_dominated_measure_has_no_density():
    pm = uninorm_chain()
    assert validate_pseudo_mul(pm).passed
    sp = Space(["x"])
    tau = MaxMeasure(sp, {"x": "inf"})
    nu = MaxMeasure(sp, {"x": "7"})
    # ν ≪_⊙ τ, yet 7 is no c ⊙ ∞: the image of c ↦ c ⊙ ∞ is {0, 1, 3, ∞}
    assert is_abs_continuous(pm, nu, tau)
    assert not solve_density(pm, nu, tau).ok
    diag = diagnose_rn(pm, tau)
    assert diag.rn_property is False
    assert diag.sigma_odot_finite and not diag.spots.has_spots
    assert diag.failed_conditions == (
        "atom x: no c ⊙ inf equals 7 (< ∞ ⊙ inf); a ⊙-dominated ν(x) = 7 has no density",)
    assert pm.image_gap(INF) == ExtNonneg(7)
    assert pm.image_gap(ExtNonneg(3)) is None  # the column of 3 is {0, 1, 3}


def test_rn_property_matches_the_oracle_on_every_small_chain():
    # Every table on the carrier {0, 1, .., k − 2, ∞}, k ≤ 5, that passes
    # the validator, under every one-atom τ.  The old verdict, "every atom
    # mass is ⊙-finite", is wrong in 2 and 20 of these cases.
    sp = Space(["x"])
    for k, tables, validated, old_rule_wrong in ((4, 15, 5, 2), (5, 84, 22, 20)):
        found = list(small_chains(k))
        assert len(found) == tables
        chains = [pm for pm in found if validate_pseudo_mul(pm).passed]
        assert len(chains) == validated
        wrong = 0
        for pm in chains:
            for t in pm.carrier:
                tau = MaxMeasure(sp, [t])
                diag = diagnose_rn(pm, tau)
                assert diag.rn_property == _rn_oracle(pm, tau), (pm.spec_form(), t)
                wrong += diag.rn_property != diag.sigma_odot_finite
        assert wrong == old_rule_wrong


def old_abs_continuity(pm, nu, tau):
    """is_abs_continuous's atom-wise verdict, bounding each ν({x}) by the top
    of the whole achievable set of τ({x})."""
    return all(not pm.is_odot_finite(tv) or nv <= achievable_set(pm, tv).upper
               for nv, tv in zip(nu.masses, tau.masses))


def test_the_abs_continuity_bound_equals_the_top_of_the_achievable_set():
    # is_abs_continuous reads ∞ ⊙ τ({x}) alone; by monotonicity it is the top
    # of the achievable set, whose lower end O(t) costs a zero-map descent.
    # Every value pair of every validated small chain, a chain with no ∞ in
    # its carrier, and random pairs under times, min and a custom ⊙.
    sp = Space(["x"])
    digits = [ExtNonneg(v) for v in range(4)]
    chains = [pm for k in range(2, 6) for pm in small_chains(k) if validate_pseudo_mul(pm).passed]
    chains.append(DiscreteChain(digits, [[min(a, b) for b in digits] for a in digits], digits[-1]))
    cases = [(pm, MaxMeasure(sp, [v]), MaxMeasure(sp, [t]))
             for pm in chains for v in pm.carrier for t in pm.carrier]
    rng = random.Random(38)
    space = Space(list("abcd"))
    for pm in (TIMES, MIN, CustomContinuous(float_times, identity=1, name="float-times")):
        cases += [(pm, rand_measure(rng, space, allow_inf=True, num_max=4),
                   rand_measure(rng, space, allow_inf=True, num_max=4)) for _ in range(60)]
    verdicts = set()
    for pm, nu, tau in cases:
        verdict = old_abs_continuity(pm, nu, tau)
        assert is_abs_continuous(pm, nu, tau) == verdict, (pm.describe(), nu, tau)
        assert is_abs_continuous_exhaustive(pm, nu, tau) == verdict, (pm.describe(), nu, tau)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_diagnose_counterexample():
    sp = Space(["a", "b", "c"])
    diag = diagnose_rn(TIMES, MaxMeasure.constant(sp, INF))
    assert not diag.rn_property
    assert not diag.sigma_odot_finite
    assert diag.spots.maximal_spot == sp.full
    assert not diag.semi_finite
    assert diag.sigma_principal
    assert "not σ-⊙-finite" in " ".join(diag.failed_conditions)


def test_diagnose_positive_case():
    sp = Space(["a", "b"])
    diag = diagnose_rn(TIMES, MaxMeasure(sp, {"a": 2, "b": 3}))
    assert diag.rn_property
    assert diag.failed_conditions == ()


def test_chain_capped_measure_beyond_frontier(chain):
    # with τ(E) above the frontier, capping τ at φ yields a dominated
    # measure whose density equation c ⊙ ∞ = φ has no solution
    sp = Space(["a"])
    tau = MaxMeasure(sp, {"a": INF})
    phi = chain.finiteness_profile().phi
    capped = MaxMeasure(sp, {"a": phi})
    assert is_abs_continuous(chain, capped, tau)
    diag = diagnose_rn(chain, tau)
    assert not diag.total_vs_phi.satisfied
    assert "frontier" in " ".join(diag.failed_conditions)
    res = solve_density(chain, capped, tau)
    assert not res.ok
    assert res.failures[0].achievable.contains(phi) is False


def test_diagnose_chain_boundary(chain):
    sp = Space(["a"])
    diag = diagnose_rn(chain, MaxMeasure(sp, {"a": 2}))
    assert not diag.rn_property
    assert diag.total_vs_phi.at_boundary
    assert diag.total_vs_phi.satisfied  # 2 ≤ φ = 2 holds, yet 2 is ⊙-infinite
    assert not diag.total_vs_phi.total_odot_finite
    assert diag.spots.has_spots


def test_whole_interval_frontier_has_no_boundary():
    # under min every value is ⊙-finite: φ = ∞ closes no half-open frontier
    diag = diagnose_rn(Minimum(), MaxMeasure(Space(["a", "b"]), {"a": INF, "b": 1}))
    tv = diag.total_vs_phi
    assert (tv.total, tv.phi, tv.satisfied, tv.at_boundary) == (INF, INF, True, False)
    assert "τ(E) = inf ≤ φ = inf" in str(tv)
    assert diag.rn_property


def test_necessity_witness():
    # non-σ-⊙-finite τ admits a dominated measure with no density
    rng = random.Random(7)
    cases = 0
    for _ in range(300):
        sp = rand_space(rng)
        tau = rand_measure(rng, sp, allow_inf=True)
        if is_sigma_odot_finite(TIMES, tau):
            continue
        w = rn_failure_witness(TIMES, tau)
        assert is_abs_continuous(TIMES, w, tau)
        assert set(w.masses) <= {ZERO, ONE}
        res = solve_density(TIMES, w, tau)
        assert not res.ok
        cases += 1
    assert cases > 20


def test_degenerate_operation_refused():
    pm = _degenerate_pm()
    sp = Space(["a"])
    mu = MaxMeasure(sp, {"a": 1})
    fn = MeasurableFn(sp, {"a": 1})
    with pytest.raises(DegenerateOperationError):
        solve_density(pm, mu, mu)
    with pytest.raises(DegenerateOperationError):
        is_abs_continuous(pm, mu, mu)
    with pytest.raises(DegenerateOperationError):
        is_abs_continuous_exhaustive(pm, mu, mu)
    with pytest.raises(DegenerateOperationError):
        diagnose_rn(pm, mu)
    with pytest.raises(DegenerateOperationError):
        verify_density(pm, fn, mu, mu)
    with pytest.raises(DegenerateOperationError):
        finitize_density(pm, fn, mu, mu)
    with pytest.raises(DegenerateOperationError):
        solve_atom_density(pm, ONE, ONE)


def test_delta_sharp_self_density_is_identity():
    sp = Space(["a", "b", "c"])
    d = delta_sharp(sp)
    res = solve_density(TIMES, d, d)
    assert res.ok and res.density == MeasurableFn.constant(sp, ONE)


def test_custom_solver_with_nonunit_identity():
    # the conjugated product 2st has identity 1/2; the solver must find
    # densities in its geometry, not the standard one
    def scaled(s, t):
        if s == 0.0 or t == 0.0:
            return 0.0
        return 2.0 * s * t

    pm = CustomContinuous(scaled, identity="1/2", name="doubled-product")
    sp = Space(["a", "b"])
    tau = MaxMeasure(sp, {"a": 2, "b": 4})
    nu = MaxMeasure(sp, {"a": 1, "b": 4})
    res = solve_density(pm, nu, tau)
    assert res.ok
    # c(a) solves 2c·2 = 1 → 1/4; c(b) solves 2c·4 = 4 → 1/2
    assert pm.values_equal(res.density("a"), ExtNonneg("1/4"))
    assert pm.values_equal(res.density("b"), ExtNonneg("1/2"))
    assert verify_density(pm, res.density, nu, tau)


def test_custom_solver_roundtrip():
    pm = CustomContinuous(float_times, identity=1, name="float-times")
    rng = random.Random(8)
    for _ in range(40):
        sp = rand_space(rng, hi=4)
        tau = rand_measure(rng, sp, allow_zero=False)
        c = rand_fn(rng, sp)
        nu = pushforward_measure(pm, c, tau)
        res = solve_density(pm, nu, tau)
        assert res.ok, str(res)
        assert verify_density(pm, res.density, nu, tau)
