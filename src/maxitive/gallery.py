"""Self-asserting scenario gallery reproducing the library's landmark facts.

Every scenario checks its expected verdicts internally and reports one
pass/fail entry per assertion; nothing is asserted by exception, so a
report always comes back and the caller decides how hard to fail.
"""

from __future__ import annotations

import random
from typing import Optional

from .density import (
    FailureReason,
    diagnose_rn,
    finitize_density,
    is_abs_continuous,
    is_abs_continuous_exhaustive,
    rn_failure_witness,
    solve_density,
    verify_density,
)
from .errors import CrossCheckError
from .extreal import INF, ONE, ZERO, ExtNonneg, ext_ratio
from .integral import pushforward_measure
from .measure import (
    MaxMeasure,
    MeasurableFn,
    SigmaIdeal,
    delta_sharp,
    find_odot_spots,
    is_semi_odot_finite,
    is_sigma_odot_finite,
)
from .pseudomul import DiscreteChain, Minimum, StandardProduct
from .quotient import (
    CCCWitness,
    check_ccc,
    ideal_restriction_measure,
    localize,
    nguyen_bruteforce,
    nguyen_measure,
    verify_localization,
    verify_nguyen_measure,
)
from .report import Report, jsonable
from .spaces import GALLERY_TRIALS_CAP, Space, check_fixed_cap

__all__ = ["GALLERY", "run_gallery"]

_LABELS = "abcdefghij"


class _Checks:
    def __init__(self):
        self.entries = []

    def add(self, name: str, passed: bool, detail="") -> bool:
        self.entries.append({"name": name, "passed": bool(passed),
                             "detail": jsonable(detail)})
        return bool(passed)

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries)

    def report(self, scenario: str, extra: Optional[dict] = None) -> Report:
        body = {"scenario": scenario, "passed": self.passed, "checks": self.entries}
        if extra:
            body.update(jsonable(extra))
        return Report("gallery", body, negative_verdict=not self.passed)


def _cross_check_failure(verify, *args) -> str:
    """The message of the CrossCheckError that ``verify(*args)`` raises; "" if none."""
    try:
        verify(*args)
    except CrossCheckError as exc:
        return str(exc)
    return ""


def _rand_mass(rng: random.Random, allow_inf=False) -> ExtNonneg:
    if allow_inf and rng.random() < 0.15:
        return INF
    return ext_ratio(rng.randint(0, 12), rng.randint(1, 6))


def _rand_space(rng: random.Random) -> Space:
    return Space(list(_LABELS[: rng.randint(1, 6)]))


def shilkret_counterexample() -> Report:
    """ν = δ_#, τ = ∞·δ_# under the product: dominated but densityless."""
    times = StandardProduct()
    space = Space(["a", "b", "c"])
    nu = delta_sharp(space)
    tau = MaxMeasure.constant(space, INF)
    checks = _Checks()
    checks.add("ν ≪_⊙ τ holds", is_abs_continuous(times, nu, tau)
               and is_abs_continuous_exhaustive(times, nu, tau))
    diag = diagnose_rn(times, tau)
    checks.add("τ is not σ-⊙-finite", not diag.sigma_odot_finite)
    checks.add("τ has a ⊙-spot (the whole space)",
               diag.spots.has_spots and diag.spots.maximal_spot == space.full)
    checks.add("τ is not semi-⊙-finite", not diag.semi_finite)
    res = solve_density(times, nu, tau)
    checks.add("no density exists", not res.ok)
    checks.add("every atom fails", len(res.failures) == space.n)
    checks.add("failure reason is the achievable-set gap",
               all(f.reason is FailureReason.TARGET_OUTSIDE_ACHIEVABLE for f in res.failures))
    checks.add("achievable set at each atom is {0, inf}",
               all(f.achievable is not None
                   and f.achievable.contains(ONE) is False
                   and f.achievable.contains(ZERO)
                   and f.achievable.contains(INF)
                   for f in res.failures))
    return checks.report("shilkret-counterexample",
                         {"diagnosis": diag, "failures": [str(f) for f in res.failures]})


def sugeno_corollary(seed: int = 0, trials: Optional[int] = None) -> Report:
    """Under the minimum, ν ≤ τ setwise is exactly solvability."""
    mn = Minimum()
    rng = random.Random(seed)
    trials = 1000 if trials is None else trials
    checks = _Checks()
    found, certified = 0, 0
    for trial in range(trials):
        space = _rand_space(rng)
        tau = MaxMeasure(space, [_rand_mass(rng, allow_inf=True) for _ in space.atoms])
        if trial % 5 == 4:
            # violation trial: push ν above τ on some finitely-massed atoms
            finite = [a for a, v in zip(space.atoms, tau.masses) if v.is_finite]
            if not finite:
                tau = MaxMeasure(space, dict(tau.as_dict(), **{space.atoms[0]: ONE}))
                finite = [space.atoms[0]]
            bad = rng.sample(finite, rng.randint(1, len(finite)))
            nu_masses = {}
            for a, tv in tau.as_dict().items():
                if a in bad:
                    nu_masses[a] = tv + ONE
                else:
                    nu_masses[a] = _below(rng, tv)
            nu = MaxMeasure(space, nu_masses)
            res = solve_density(mn, nu, tau)
            # on a τ-null atom the dedicated null-set reason applies
            ok = (not res.ok
                  and sorted(f.atom for f in res.failures) == sorted(bad)
                  and all((f.reason is FailureReason.NULL_TAU_POSITIVE_NU
                           if tau.mass(f.atom).is_zero
                           else f.reason is FailureReason.TARGET_OUTSIDE_ACHIEVABLE)
                          and f.achievable is not None
                          and f.achievable.upper == tau.mass(f.atom)
                          for f in res.failures))
            if not ok:
                checks.add(f"trial {trial}: violation certified", False,
                           {"tau": tau, "nu": nu})
                break
            certified += 1
        else:
            nu = MaxMeasure(space, {a: _below(rng, tv) for a, tv in tau.as_dict().items()})
            res = solve_density(mn, nu, tau)
            ok = res.ok and verify_density(mn, res.density, nu, tau)
            if not ok:
                checks.add(f"trial {trial}: density found and verified", False,
                           {"tau": tau, "nu": nu})
                break
            found += 1
    checks.add(f"{found} dominated pairs all solved", found + certified == trials)
    checks.add(f"{certified} violations all certified with the offending atoms",
               certified > 0)
    return checks.report("sugeno-corollary", {"trials": trials, "seed": seed})


def _below(rng: random.Random, bound: ExtNonneg) -> ExtNonneg:
    """A random value ≤ bound."""
    if bound.is_inf:
        return _rand_mass(rng, allow_inf=True)
    return bound * ext_ratio(rng.randint(0, 8), 8)


def delta_sharp_uncountable(seed: int = 0) -> Report:
    """δ_# dominates everything, yet on uncountable spaces it loses CCC."""
    times = StandardProduct()
    space = Space(["a", "b", "c"])
    dsharp = delta_sharp(space)
    checks = _Checks()
    rng = random.Random(seed)
    dominated = all(
        is_abs_continuous(times,
                          MaxMeasure(space, [_rand_mass(rng, allow_inf=True)
                                             for _ in space.atoms]),
                          dsharp)
        for _ in range(50))
    checks.add("every sampled measure is ⊙-dominated by δ_#", dominated)
    finite_verdict = check_ccc(dsharp)
    checks.add("finite executable space: CCC holds trivially",
               finite_verdict.satisfied
               and finite_verdict.certificate.kind == "finite-space-trivial")
    witness = CCCWitness.intensional_family(
        "the singletons of an uncountable index set, each of mass 1",
        "uncountable", ONE)
    verdict = check_ccc(dsharp, witness)
    checks.add("uncountable disjoint family refutes CCC", not verdict.satisfied)
    checks.add("all four equivalent conditions reported failed",
               all(v is False for _, v in verdict.conditions))
    try:
        check_ccc(dsharp, CCCWitness.intensional_family("zero-mass family", "uncountable", ZERO))
        rejected = False
    except ValueError:
        rejected = True
    checks.add("witness with negligible members is rejected", rejected)
    return checks.report("delta-sharp-uncountable",
                         {"witness": witness, "verdict": verdict})


def prop33_finitize(seed: int = 0, trials: Optional[int] = None) -> Report:
    """Semi-⊙-finite measures admit ⊙-finite-valued densities."""
    times = StandardProduct()
    trials = 200 if trials is None else trials
    checks = _Checks()
    space = Space(["a", "b"])
    tau = MaxMeasure(space, {"a": 0, "b": 1})
    c = MeasurableFn(space, {"a": INF, "b": 2})
    nu = pushforward_measure(times, c, tau)
    checks.add("fixture ν = ∫ c ⊙ dτ is {a: 0, b: 2}",
               nu == MaxMeasure(space, {"a": 0, "b": 2}))
    checks.add("fixture ν is semi-⊙-finite", is_semi_odot_finite(times, nu))
    checks.add("fixture c verifies", verify_density(times, c, nu, tau))
    c1 = finitize_density(times, c, nu, tau)
    checks.add("finitized density is {a: 0, b: 2}",
               c1 == MeasurableFn(space, {"a": 0, "b": 2}))
    checks.add("finitized density verifies", verify_density(times, c1, nu, tau))
    rng = random.Random(seed)
    good = 0
    for trial in range(trials):
        sp = _rand_space(rng)
        t = MaxMeasure(sp, [_rand_mass(rng) for _ in sp.atoms])
        cv = {}
        for a, tv in t.as_dict().items():
            if tv.is_zero:
                cv[a] = INF if rng.random() < 0.5 else _rand_mass(rng)
            else:
                cv[a] = _rand_mass(rng)
        cfn = MeasurableFn(sp, cv)
        target = pushforward_measure(times, cfn, t)
        if not is_semi_odot_finite(times, target):
            continue
        c1 = finitize_density(times, cfn, target, t)
        if not (verify_density(times, c1, target, t)
                and all(times.is_odot_finite(v) for v in c1.values)):
            checks.add(f"trial {trial}: finitization verified", False,
                       {"tau": t, "c": cfn})
            break
        if all(times.is_odot_finite(v) for v in cfn.values) and c1 != cfn:
            checks.add(f"trial {trial}: already-finite density left unchanged", False)
            break
        good += 1
    checks.add(f"{good} randomized semi-⊙-finite cases finitized and verified",
               good >= trials // 2)
    return checks.report("prop33-finitize", {"trials": trials, "seed": seed})


def claims_walkthrough() -> Report:
    """The six structural facts behind the density characterization, on fixtures."""
    times = StandardProduct()
    checks = _Checks()

    # Localization and the ideal measure ν(B) = ⊕_{I∈𝕀} τ(B ∩ I).
    space = Space(["a", "b", "c"])
    tau = MaxMeasure(space, {"a": 1, "b": 2, "c": 3})
    ideal = SigmaIdeal(space, space.subset(["a", "b"]))
    restricted = ideal_restriction_measure(tau, ideal)
    checks.add("ideal restriction is {a:1, b:2, c:0} with total 2",
               restricted == MaxMeasure(space, {"a": 1, "b": 2, "c": 0})
               and restricted.total == ExtNonneg(2))
    res = solve_density(times, restricted, tau)
    loc = localize(tau, ideal)
    failure = _cross_check_failure(verify_localization, tau, ideal, loc)
    checks.add("its density exists and its support localizes the ideal",
               not failure and res.ok and verify_density(times, res.density, restricted, tau)
               and res.density.support == loc, failure)

    # The threshold measure ν(B) = inf{t > 0 : B ∈ 𝒥_t}.
    small_ideal = SigmaIdeal(space, space.subset(["a"]))
    ng = nguyen_measure(tau, small_ideal)
    checks.add("threshold measure is {a:0, b:2, c:3}",
               ng == MaxMeasure(space, {"a": 0, "b": 2, "c": 3}))
    failure = _cross_check_failure(verify_nguyen_measure, tau, small_ideal, ng)
    checks.add("threshold closed form matches the 𝒥_t enumeration on every subset",
               not failure and all(ng(B) == nguyen_bruteforce(tau, small_ideal, B)
                                   for B in space.subsets()), failure)
    checks.add("threshold measure ≤ τ pointwise, vanishing exactly on the ideal",
               all(nv <= tv for nv, tv in zip(ng.masses, tau.masses))
               and all(ng(B).is_zero == small_ideal.contains(B & tau.support)
                       for B in space.subsets()))

    # Spots obstruct densities.
    tau_inf = MaxMeasure.constant(space, INF)
    spots = find_odot_spots(times, tau_inf)
    witness = rn_failure_witness(times, tau_inf)
    wres = solve_density(times, witness, tau_inf)
    checks.add("∞·δ_# has the whole space as a ⊙-spot",
               spots.has_spots and spots.maximal_spot == space.full)
    checks.add("its {0, 1_⊙} witness is dominated yet densityless",
               is_abs_continuous(times, witness, tau_inf) and not wres.ok)

    # The frontier bound τ(E) ≤ φ, exercised on the finite-φ chain.
    chain = DiscreteChain.clamped_product(["0", "1", "2", "inf"])
    sp1 = Space(["a"])
    diag_at_phi = diagnose_rn(chain, MaxMeasure(sp1, {"a": 2}))
    diag_below = diagnose_rn(chain, MaxMeasure(sp1, {"a": 1}))
    checks.add("chain mass at φ = 2 sits on the frontier boundary",
               diag_at_phi.total_vs_phi.at_boundary
               and not diag_at_phi.total_vs_phi.total_odot_finite
               and not diag_at_phi.rn_property)
    checks.add("chain mass below φ keeps the density property",
               diag_below.rn_property and diag_below.total_vs_phi.satisfied)
    tau_beyond = MaxMeasure(sp1, {"a": INF})
    capped = MaxMeasure(sp1, {"a": 2})
    capped_res = solve_density(chain, capped, tau_beyond)
    checks.add("beyond φ, the φ-capped measure is dominated yet densityless",
               not diagnose_rn(chain, tau_beyond).total_vs_phi.satisfied
               and is_abs_continuous(chain, capped, tau_beyond)
               and not capped_res.ok)

    # Semi-⊙-finiteness and σ-⊙-finiteness.
    checks.add("a measure with a ⊙-spot is not semi-⊙-finite",
               not is_semi_odot_finite(times, tau_inf)
               and is_semi_odot_finite(times, tau))
    checks.add("σ-⊙-finiteness matches the atom-mass criterion",
               is_sigma_odot_finite(times, tau)
               and not is_sigma_odot_finite(times, tau_inf)
               and times.is_odot_finite(tau.total)
               and not times.is_odot_finite(tau_inf.total))

    return checks.report("claims-walkthrough")


GALLERY = {
    "shilkret-counterexample": shilkret_counterexample,
    "sugeno-corollary": sugeno_corollary,
    "delta-sharp-uncountable": delta_sharp_uncountable,
    "prop33-finitize": prop33_finitize,
    "claims-walkthrough": claims_walkthrough,
}


def run_gallery(name: str, seed: Optional[int] = None,
                trials: Optional[int] = None) -> Report:
    """Run one scenario with the values given; None leaves the scenario's
    default.  ValueError refuses an unknown scenario, a value for a
    parameter it lacks and trials below 1; SizeCapError, trials past
    GALLERY_TRIALS_CAP."""
    if name not in GALLERY:
        raise ValueError(f"unknown gallery scenario {name!r}; known: {', '.join(sorted(GALLERY))}")
    scenario = GALLERY[name]
    given = {key: value for key, value in (("seed", seed), ("trials", trials))
             if value is not None}
    code = scenario.__code__
    takes = code.co_varnames[:code.co_argcount]
    for key in given:
        if key not in takes:
            raise ValueError(f"scenario {name!r} takes no {key}")
    if trials is not None:
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        check_fixed_cap(trials, GALLERY_TRIALS_CAP, "gallery trials")
    return scenario(**given)
