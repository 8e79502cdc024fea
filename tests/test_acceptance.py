"""Acceptance suite: ten criteria, each printing one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every randomized criterion is seeded and exact unless a
tolerance is part of the criterion itself.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from maxitive import (
    INF,
    ONE,
    ZERO,
    CCCWitness,
    CustomContinuous,
    DiscreteChain,
    ExtNonneg,
    FailureReason,
    FrontierShape,
    MaxMeasure,
    MeasurableFn,
    Minimum,
    SigmaIdeal,
    Space,
    StandardProduct,
    SubsetB,
    canonical_grid,
    check_ccc,
    check_maxitive,
    ideal_restriction_measure,
    delta_sharp,
    diagnose_rn,
    disjoint_variation,
    disjoint_variation_bruteforce,
    enumerate_quotient_sigma_ideals,
    finitize_density,
    build_quotient,
    integrate_atomwise,
    integrate_oracle,
    integrate_threshold,
    is_abs_continuous,
    is_abs_continuous_exhaustive,
    is_semi_odot_finite,
    is_sigma_odot_finite,
    measure_eval,
    nguyen_bruteforce,
    nguyen_measure,
    pushforward,
    pushforward_measure,
    run_gallery,
    solve_density,
    validate_pseudo_mul,
    verify_density,
    verify_nguyen_measure,
)
from maxitive.spaces import CHAIN_CARRIER_CAP

from conftest import LABELS, float_times, min_chain, probe_values

TIMES = StandardProduct()
MIN = Minimum()
CHAIN = DiscreteChain.clamped_product(["0", "1", "2", "inf"])
FLOAT_TIMES = CustomContinuous(float_times, identity=1, name="float-times")


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL — {description}")
        raise
    print(f"criterion {number:02d} PASS — {description} ({time.time() - start:.1f}s)")


def _mass(rng, allow_inf=False, allow_zero=True):
    if allow_inf and rng.random() < 0.12:
        return INF
    lo = 0 if allow_zero else 1
    return ExtNonneg(Fraction(rng.randint(lo, 12), rng.randint(1, 6)))


def _space(rng, hi=10):
    return Space(list(LABELS[: rng.randint(1, hi)]))


def test_criterion_01_shilkret_counterexample():
    with criterion(1, "Shilkret counterexample: dominated by ∞·δ_# yet densityless"):
        start = time.time()
        space = Space(["a", "b", "c"])
        nu = delta_sharp(space)
        tau = MaxMeasure.constant(space, INF)
        assert is_abs_continuous(TIMES, nu, tau) and is_abs_continuous_exhaustive(TIMES, nu, tau)
        assert diagnose_rn(TIMES, tau).sigma_odot_finite is False
        res = solve_density(TIMES, nu, tau)
        assert not res.ok and len(res.failures) == 3
        for f in res.failures:
            assert f.reason is FailureReason.TARGET_OUTSIDE_ACHIEVABLE
            assert f.achievable.lower == INF and f.achievable.upper == INF
            assert f.achievable.contains(ZERO) and f.achievable.contains(INF)
            assert f.achievable.contains(ONE) is False
        assert time.time() - start < 1.0


def test_criterion_02_sugeno_murofushi_forward():
    with criterion(2, "forward direction: ν ≪_⊙ τ with σ-⊙-finite τ always solves "
                      "(1000 trials, exact, all subsets)"):
        start = time.time()
        rng = random.Random(2024)
        for trial in range(1000):
            n = rng.randint(1, 10)
            space = Space(list(LABELS[:n]))
            if trial % 2 == 0:
                pm = TIMES
                tau = MaxMeasure(space, [_mass(rng) for _ in range(n)])
                nu = MaxMeasure(space, [
                    ZERO if tv.is_zero
                    else (INF if rng.random() < 0.08
                          else ExtNonneg(tv.as_fraction() * Fraction(rng.randint(0, 8), 4)))
                    for tv in tau.masses])
            else:
                pm = MIN
                tau = MaxMeasure(space, [_mass(rng, allow_inf=True) for _ in range(n)])
                nu = MaxMeasure(space, [min(_mass(rng, allow_inf=True), tv)
                                        for tv in tau.masses])
            assert is_sigma_odot_finite(pm, tau)
            assert is_abs_continuous(pm, nu, tau)
            res = solve_density(pm, nu, tau)
            assert res.ok, f"trial {trial}: {res}"
            assert verify_density(pm, res.density, nu, tau)
        assert time.time() - start < 30.0


def test_criterion_03_roundtrip_density_recovery():
    with criterion(3, "roundtrip: ν = pushforward(c, τ) always recovers a verified density "
                      "(1000 trials)"):
        rng = random.Random(3)
        for trial in range(1000):
            pm = TIMES if trial % 2 == 0 else MIN
            n = rng.randint(1, 10)
            space = Space(list(LABELS[:n]))
            tau = MaxMeasure(space, [_mass(rng, allow_zero=False) for _ in range(n)])
            c = MeasurableFn(space, [_mass(rng, allow_inf=(pm is MIN)) for _ in range(n)])
            nu = pushforward_measure(pm, c, tau)
            res = solve_density(pm, nu, tau)
            assert res.ok, f"trial {trial}: {res}"
            assert verify_density(pm, res.density, nu, tau)


def test_criterion_04_integral_coherence():
    with criterion(4, "integral coherence: sweep = atomwise exactly, ≥ oracle; "
                      "oracle within 1e-9 in approximate mode (1000 triples per ⊙)"):
        rng = random.Random(4)
        for pm, allow_inf in ((TIMES, True), (MIN, True), (FLOAT_TIMES, False)):
            for _ in range(1000):
                n = rng.randint(1, 10)
                space = Space(list(LABELS[:n]))
                f = MeasurableFn(space, [_mass(rng, allow_inf) for _ in range(n)])
                nu = MaxMeasure(space, [_mass(rng, allow_inf) for _ in range(n)])
                B = SubsetB(space, rng.randrange(1 << n))
                sweep = integrate_threshold(pm, f, nu, B)
                atomwise = integrate_atomwise(pm, f, nu, B)
                if pm.exact:
                    assert sweep == atomwise
                else:
                    assert pm.values_equal(sweep, atomwise)
                oracle = integrate_oracle(pm, f, nu, B, canonical_grid(pm, f, B))
                assert oracle <= sweep
                if not pm.exact and sweep.is_finite:
                    gap = float(sweep) - float(oracle)
                    assert gap <= 1e-9 * max(1.0, float(sweep))


def test_criterion_05_integral_laws():
    with criterion(5, "integral laws: indicator, homogeneity (20 r), σ-maxitivity "
                      "(5-function families), maxitive pushforwards; exhaustive n ≤ 8"):
        rng = random.Random(5)
        for pm in (TIMES, MIN):
            for _ in range(25):
                n = rng.randint(1, 8)
                space = Space(list(LABELS[:n]))
                nu = MaxMeasure(space, [_mass(rng, allow_inf=True) for _ in range(n)])
                # indicator identity, exhaustively over every subset
                for B in space.subsets():
                    ind = MeasurableFn.indicator(B, height=pm.identity)
                    assert integrate_threshold(pm, ind, nu, space.full) == measure_eval(nu, B)
                # homogeneity over 20 sampled scalars
                f = MeasurableFn(space, [_mass(rng, allow_inf=True) for _ in range(n)])
                B = SubsetB(space, rng.randrange(1 << n))
                base = integrate_threshold(pm, f, nu, B)
                for _ in range(20):
                    r = ExtNonneg(Fraction(rng.randint(0, 16), rng.randint(1, 8)))
                    assert (integrate_threshold(pm, f.scale_left(pm, r), nu, B)
                            == pm(r, base))
                # σ-maxitivity over a random 5-function family
                family = [MeasurableFn(space, [_mass(rng, allow_inf=True)
                                               for _ in range(n)]) for _ in range(5)]
                sup = family[0]
                for g in family[1:]:
                    sup = sup.pointwise_max(g)
                assert integrate_threshold(pm, sup, nu, B) == max(
                    integrate_threshold(pm, g, nu, B) for g in family)
                # the pushforward table is a maxitive measure
                assert check_maxitive(pushforward(pm, f, nu))


def test_criterion_06_sugeno_corollary():
    with criterion(6, "Sugeno corollary under ∧: ν ≤ τ solves, violations certified "
                      "(1000 trials)"):
        report = run_gallery("sugeno-corollary", seed=6, trials=1000)
        failed = [c for c in report.body["checks"] if not c["passed"]]
        assert report.body["passed"], failed


_PRINCIPALITY_FIXTURES = [
    MaxMeasure(Space(["a"]), {"a": 1}),
    MaxMeasure(Space(["a"]), {"a": 0}),
    MaxMeasure(Space(["a", "b"]), {"a": "1/2", "b": 0}),
    MaxMeasure(Space(["a", "b", "c"]), {"a": 1, "b": 2, "c": 3}),
    MaxMeasure.constant(Space(["a", "b", "c"]), INF),
    delta_sharp(Space(["a", "b", "c", "d"])),
    MaxMeasure(Space(["a", "b", "c", "d", "e"]),
               {"a": 0, "b": "2/3", "c": INF, "d": 4, "e": "1/7"}),
    MaxMeasure(Space(["a", "b", "c", "d", "e", "f"]),
               {"a": 1, "b": 2, "c": 0, "d": 3, "e": "1/2", "f": INF}),
]


def test_criterion_07_principality_package():
    with criterion(7, "σ-principality package: variation null sets, principal quotient "
                      "σ-ideals (exhaustive), CCC, partition supremum (fixtures n ≤ 6)"):
        for tau in _PRINCIPALITY_FIXTURES:
            space = tau.space
            m = disjoint_variation(tau)
            for B in space.subsets():
                assert m(B).is_zero == measure_eval(tau, B).is_zero
                assert m(B) == disjoint_variation_bruteforce(tau, B)
                assert m(B) >= measure_eval(tau, B)
            lattice = build_quotient(tau)
            for family in enumerate_quotient_sigma_ideals(lattice):
                top = 0
                for mask in family:
                    top |= mask
                assert top in family, "a quotient σ-ideal lost its top class"
            assert check_ccc(tau).satisfied


_IDEAL_FIXTURES = [
    (MaxMeasure(Space(["a", "b", "c"]), {"a": 1, "b": 2, "c": 3}), ["a"]),
    (MaxMeasure(Space(["a", "b", "c"]), {"a": 1, "b": 2, "c": 3}), ["a", "b"]),
    (MaxMeasure(Space(["a", "b", "c"]), {"a": 0, "b": INF, "c": "1/3"}), ["b"]),
    (delta_sharp(Space(["a", "b", "c", "d"])), ["a", "c"]),
    (MaxMeasure(Space(["a", "b", "c", "d"]), {"a": 0, "b": 1, "c": 2, "d": INF}),
     ["a", "b", "c", "d"]),
    (MaxMeasure(Space(["a", "b"]), {"a": "7/2", "b": "1/5"}), []),
]


def test_criterion_08_ideal_measure_constructions():
    with criterion(8, "ideal measures: restriction and threshold measure maxitive, "
                      "≤ τ, vanishing on the ideal, matching the 𝒥_t enumeration"):
        for tau, top_labels in _IDEAL_FIXTURES:
            space = tau.space
            ideal = SigmaIdeal(space, space.subset(top_labels))
            restricted = ideal_restriction_measure(tau, ideal)
            threshold = nguyen_measure(tau, ideal)
            verify_nguyen_measure(tau, ideal, threshold)
            assert check_maxitive(restricted.table())
            assert check_maxitive(threshold.table())
            assert all(nv <= tv for nv, tv in zip(threshold.masses, tau.masses))
            for I in ideal.members():
                assert threshold(I).is_zero
            for B in space.subsets():
                assert threshold(B) == nguyen_bruteforce(tau, ideal, B)
                assert threshold(B) == measure_eval(tau, B - ideal.top)


def test_criterion_09_prop33_finitization():
    with criterion(9, "finitization: c ⊙ 1_F stays a density for semi-⊙-finite ν "
                      "(fixture + 200 randomized cases)"):
        space = Space(["a", "b"])
        tau = MaxMeasure(space, {"a": 0, "b": 1})
        c = MeasurableFn(space, {"a": INF, "b": 2})
        nu = pushforward_measure(TIMES, c, tau)
        assert nu == MaxMeasure(space, {"a": 0, "b": 2})
        c1 = finitize_density(TIMES, c, nu, tau)
        assert c1 == MeasurableFn(space, {"a": 0, "b": 2})
        assert verify_density(TIMES, c1, nu, tau)
        report = run_gallery("prop33-finitize", seed=9, trials=200)
        failed = [chk for chk in report.body["checks"] if not chk["passed"]]
        assert report.body["passed"], failed


def test_criterion_10_axiom_and_structure_theory():
    with criterion(10, "axioms and frontiers: validators green; profiles "
                       "(half-open, ∞), (whole interval), ({0,1}, φ=2); "
                       "invertibility and no-crossing scans"):
        for pm in (TIMES, MIN, CHAIN):
            report = validate_pseudo_mul(pm, seed=10)
            assert report.passed, str(report)
        # a chain at its carrier cap: every triple, in well under a second
        start = time.time()
        assert validate_pseudo_mul(DiscreteChain(*min_chain(CHAIN_CARRIER_CAP), INF)).passed
        assert time.time() - start < 1.0
        prof = TIMES.finiteness_profile()
        assert prof.shape is FrontierShape.HALF_OPEN and prof.phi == INF
        assert MIN.finiteness_profile().shape is FrontierShape.WHOLE_INTERVAL
        cprof = CHAIN.finiteness_profile()
        assert cprof.shape is FrontierShape.HALF_OPEN
        assert cprof.phi == ExtNonneg(2)
        assert cprof.finite_elements == {ZERO, ONE}

        # Invertibility criteria: exhaustive on the chain
        for t in CHAIN.carrier:
            if t.is_zero:
                continue
            probes = probe_values(CHAIN, t)
            left = any(CHAIN(s, t) <= CHAIN.identity for s in probes)
            right = any(CHAIN(t, s) <= CHAIN.identity for s in probes)
            assert left == right == CHAIN.is_odot_finite(t)
        # and no crossing at φ = 2
        phi = cprof.phi
        for t in CHAIN.carrier:
            for u in CHAIN.carrier:
                if t < phi < u:
                    assert CHAIN(t, u) != phi and CHAIN(u, t) != phi

        # 10^4 sampled pairs for the continuous built-ins
        rng = random.Random(10)
        for pm in (TIMES, MIN):
            phi = pm.finiteness_profile().phi
            for _ in range(10_000):
                t = INF if rng.random() < 0.1 else ExtNonneg(
                    Fraction(rng.randint(1, 1 << 20), rng.randint(1, 64)))
                u = INF if rng.random() < 0.1 else ExtNonneg(
                    Fraction(rng.randint(1, 1 << 20), rng.randint(1, 64)))
                probes = probe_values(pm, t)
                left = any(pm(s, t) <= pm.identity for s in probes)
                right = any(pm(t, s) <= pm.identity for s in probes)
                assert left == right == pm.is_odot_finite(t)
                if t < phi < u:
                    assert pm(t, u) != phi
