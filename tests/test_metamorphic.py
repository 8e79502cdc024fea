"""Metamorphic laws of the integral routes, the densities and the diagnosis.

The integral is defined by atom masses and level sets, so it cannot see
atom labels or their order, and an atom of ν-mass 0 contributes nothing
whatever f does there.  A density is solved atom by atom and the
diagnosis reads atom masses, so relabelling or permuting the atoms
permutes the density and moves the diagnosis's sets along, and an atom
null for both ν and τ gets density 0 and changes no verdict.  Each law
is checked on random inputs under the product, the minimum and the
{0, 1, 2, ∞} chain.  The quotient modulo τ-null sets, the localization
of an ideal, the two measures attached to it and the disjoint variation
read τ's atom masses and the ideal's top alone, so they move with the
atoms and do not see a null atom.  A chain is read through the order of
its carrier, 0, its identity and its table alone, so relabelling every
small chain's carrier by x ↦ 2x, which is increasing and fixes 0 and ∞,
maps every check, profile, diagnosis and density along.
"""

import random
from dataclasses import replace

import pytest

from maxitive import (
    INF,
    ZERO,
    DiscreteChain,
    ExtNonneg,
    MaxMeasure,
    MeasurableFn,
    Minimum,
    SigmaIdeal,
    Space,
    StandardProduct,
    SpotReport,
    SubsetB,
    build_quotient,
    canonical_grid,
    diagnose_rn,
    disjoint_variation,
    ideal_restriction_measure,
    integrate_atomwise,
    integrate_oracle,
    integrate_threshold,
    localize,
    nguyen_measure,
    pushforward_measure,
    solve_density,
    validate_pseudo_mul,
    verify_density,
    verify_lattice_complete,
    verify_localization,
    verify_nguyen_measure,
)

from conftest import rand_fn, rand_mass, rand_measure, rand_space, small_chains

ROUTES = (integrate_threshold, integrate_atomwise)


def _random_case(rng, pm, chain):
    sp = rand_space(rng)
    if pm is chain:
        f = MeasurableFn(sp, [rng.choice(chain.carrier) for _ in sp.atoms])
        nu = MaxMeasure(sp, [rng.choice(chain.carrier) for _ in sp.atoms])
    else:
        f = rand_fn(rng, sp, allow_inf=True)
        nu = rand_measure(rng, sp, allow_inf=True)
    return sp, f, nu, SubsetB(sp, rng.randrange(1 << sp.n))


def _integrals(pm, f, nu, B, grid):
    return [route(pm, f, nu, B) for route in ROUTES] + [integrate_oracle(pm, f, nu, B, grid)]


@pytest.fixture(params=["times", "min", "chain"])
def pm(request, chain):
    return {"times": StandardProduct(), "min": Minimum(), "chain": chain}[request.param]


def test_relabelling_and_permuting_atoms_changes_nothing(pm, chain):
    rng = random.Random(21)
    for _ in range(150):
        sp, f, nu, B = _random_case(rng, pm, chain)
        perm = list(range(sp.n))
        rng.shuffle(perm)  # new atom i is old atom perm[i], under a new label
        sp2 = Space([f"y{rng.randrange(10 ** 6)}-{i}" for i in range(sp.n)])
        f2 = MeasurableFn(sp2, [f.values[p] for p in perm])
        nu2 = MaxMeasure(sp2, [nu.masses[p] for p in perm])
        B2 = SubsetB(sp2, sum(1 << i for i, p in enumerate(perm) if B.mask >> p & 1))
        grid = canonical_grid(pm, f, B)
        assert canonical_grid(pm, f2, B2) == grid
        assert _integrals(pm, f2, nu2, B2, grid) == _integrals(pm, f, nu, B, grid)


def test_a_null_atom_changes_no_integral(pm, chain):
    rng = random.Random(22)
    for _ in range(150):
        sp, f, nu, B = _random_case(rng, pm, chain)
        if pm is chain:
            fz = rng.choice(chain.carrier)
        else:
            fz = rng.choice([ZERO, INF, rand_mass(rng)])
        sp2 = Space([*sp.atoms, "z"])
        f2 = MeasurableFn(sp2, [*f.values, fz])
        nu2 = MaxMeasure(sp2, [*nu.masses, ZERO])
        # the oracle is read on one grid: a new value of f adds grid points
        grid = canonical_grid(pm, f, B)
        expected = _integrals(pm, f, nu, B, grid)
        for with_z in (False, True):
            B2 = SubsetB(sp2, B.mask | with_z << sp.n)
            assert _integrals(pm, f2, nu2, B2, grid) == expected


def _density_case(rng, pm, chain):
    """ν, τ and a candidate density c; half the time ν is c's pushforward."""
    sp = rand_space(rng)
    if pm is chain:
        tau, nu = (MaxMeasure(sp, [rng.choice(chain.carrier) for _ in sp.atoms])
                   for _ in range(2))
        c = MeasurableFn(sp, [rng.choice(chain.carrier) for _ in sp.atoms])
    else:
        tau, nu = (rand_measure(rng, sp, allow_inf=True) for _ in range(2))
        c = rand_fn(rng, sp, allow_inf=True)
    if rng.random() < 0.5:
        nu = pushforward_measure(pm, c, tau)
    return sp, nu, tau, c


def _verdicts(pm, nu, tau, c):
    """solve_density's result, verify_density on c, and the diagnosis of τ."""
    return solve_density(pm, nu, tau), verify_density(pm, c, nu, tau), diagnose_rn(pm, tau)


def _moved(diagnosis, space, move_mask):
    """The diagnosis with its ⊙-spot carried to ``space`` by ``move_mask``."""
    spot = diagnosis.spots.maximal_spot
    if spot is None:
        return diagnosis
    moved = SubsetB(space, move_mask(spot.mask))
    return replace(diagnosis, spots=SpotReport(moved, moved.labels),
                   failed_conditions=tuple(c.replace(repr(spot), repr(moved))
                                           for c in diagnosis.failed_conditions))


def test_relabelling_and_permuting_atoms_permutes_the_density(pm, chain):
    rng = random.Random(23)
    outcomes = set()
    for _ in range(150):
        sp, nu, tau, c = _density_case(rng, pm, chain)
        perm = list(range(sp.n))
        rng.shuffle(perm)  # new atom i is old atom perm[i], under a new label
        sp2 = Space([f"y{rng.randrange(10 ** 6)}-{i}" for i in range(sp.n)])
        label = {sp.atoms[p]: sp2.atoms[i] for i, p in enumerate(perm)}

        def move(mask):
            return sum(1 << i for i, p in enumerate(perm) if mask >> p & 1)
        nu2, tau2 = (MaxMeasure(sp2, [m.masses[p] for p in perm]) for m in (nu, tau))
        c2 = MeasurableFn(sp2, [c.values[p] for p in perm])
        result, verified, diagnosis = _verdicts(pm, nu, tau, c)
        result2, verified2, diagnosis2 = _verdicts(pm, nu2, tau2, c2)
        assert result2.ok == result.ok
        if result.ok:
            assert result2.density.values == tuple(result.density.values[p] for p in perm)
        failures = sorted((replace(f, atom=label[f.atom]) for f in result.failures),
                          key=lambda f: sp2.index(f.atom))
        assert list(result2.failures) == failures
        assert verified2 == verified
        assert diagnosis2 == _moved(diagnosis, sp2, move)
        outcomes.add((result.ok, verified, diagnosis.rn_property))
    assert {ok for ok, _, _ in outcomes} == {True, False}
    assert {v for _, v, _ in outcomes} == {True, False}


def test_a_null_atom_adds_a_zero_to_the_density(pm, chain):
    rng = random.Random(24)
    outcomes = set()
    for _ in range(150):
        sp, nu, tau, c = _density_case(rng, pm, chain)
        cz = rng.choice(chain.carrier) if pm is chain else rng.choice([ZERO, INF, rand_mass(rng)])
        sp2 = Space([*sp.atoms, "z"])
        nu2, tau2 = (MaxMeasure(sp2, [*m.masses, ZERO]) for m in (nu, tau))
        c2 = MeasurableFn(sp2, [*c.values, cz])
        result, verified, diagnosis = _verdicts(pm, nu, tau, c)
        result2, verified2, diagnosis2 = _verdicts(pm, nu2, tau2, c2)
        assert result2.ok == result.ok
        if result.ok:
            assert result2.density.values == (*result.density.values, ZERO)
        assert result2.failures == result.failures
        assert verified2 == verified
        assert diagnosis2 == _moved(diagnosis, sp2, lambda mask: mask)
        outcomes.add((result.ok, verified))
    assert {ok for ok, _ in outcomes} == {True, False}
    assert {v for _, v in outcomes} == {True, False}


def _quotient_case(rng):
    sp = rand_space(rng)
    tau = rand_measure(rng, sp, allow_inf=True)
    return sp, tau, SigmaIdeal(sp, SubsetB(sp, rng.randrange(1 << sp.n)))


def _quotient_verdicts(tau, ideal):
    """The class count, complete_lattice_verified, the localizing set's mask
    (verified minimal), the masses of both measures attached to the ideal
    (the threshold measure verified against 𝒥_t) and of the disjoint
    variation."""
    lattice = build_quotient(tau)
    local = localize(tau, ideal)
    verify_localization(tau, ideal, local)
    threshold = nguyen_measure(tau, ideal)
    verify_nguyen_measure(tau, ideal, threshold)
    return (lattice.count, verify_lattice_complete(lattice), local.mask,
            ideal_restriction_measure(tau, ideal).masses,
            threshold.masses, disjoint_variation(tau).masses)


def test_relabelling_and_permuting_atoms_moves_the_quotient_verdicts():
    rng = random.Random(25)
    counts = set()
    for _ in range(150):
        sp, tau, ideal = _quotient_case(rng)
        perm = list(range(sp.n))
        rng.shuffle(perm)  # new atom i is old atom perm[i], under a new label
        sp2 = Space([f"y{rng.randrange(10 ** 6)}-{i}" for i in range(sp.n)])

        def move(mask):
            return sum(1 << i for i, p in enumerate(perm) if mask >> p & 1)
        tau2 = MaxMeasure(sp2, [tau.masses[p] for p in perm])
        ideal2 = SigmaIdeal(sp2, SubsetB(sp2, move(ideal.top.mask)))
        count, verified, local, *masses = _quotient_verdicts(tau, ideal)
        assert _quotient_verdicts(tau2, ideal2) == (
            count, verified, move(local), *(tuple(m[p] for p in perm) for m in masses))
        assert verified is True
        counts.add(count)
    assert len(counts) > 3


def test_a_null_atom_changes_no_quotient_verdict():
    rng = random.Random(26)
    for _ in range(150):
        sp, tau, ideal = _quotient_case(rng)
        sp2 = Space([*sp.atoms, "z"])
        tau2 = MaxMeasure(sp2, [*tau.masses, ZERO])
        count, verified, local, *masses = _quotient_verdicts(tau, ideal)
        for with_z in (False, True):  # the null atom inside or outside the ideal
            ideal2 = SigmaIdeal(sp2, SubsetB(sp2, ideal.top.mask | with_z << sp.n))
            assert _quotient_verdicts(tau2, ideal2) == (
                count, verified, local, *((*m, ZERO) for m in masses))


def _double(x):
    return ExtNonneg(2) * x


def _doubled(pm):
    """The chain relabelled by x ↦ 2x: carrier, table and identity."""
    return DiscreteChain([_double(a) for a in pm.carrier],
                         [[_double(pm(a, b)) for b in pm.carrier] for a in pm.carrier],
                         _double(pm.identity))


def _gaps(pm, tau, diagnosis):
    """The value image_gap names at each atom the diagnosis asks it of."""
    spot = diagnosis.spots.maximal_spot
    return [pm.image_gap(t) for i, t in enumerate(tau.masses)
            if spot is None or not spot.mask >> i & 1]


def test_doubling_a_small_chains_carrier_maps_every_verdict():
    space = Space(["a"])
    validated = witnessed = gapped = 0
    for k in range(2, 6):
        for pm in small_chains(k):
            pm2 = _doubled(pm)
            report, report2 = validate_pseudo_mul(pm), validate_pseudo_mul(pm2)
            assert [(c.name, c.passed) for c in report2.checks] == [
                (c.name, c.passed) for c in report.checks]
            assert [c.witness for c in report2.checks] == [
                None if c.witness is None else tuple(map(_double, c.witness))
                for c in report.checks]
            witnessed += any(c.witness is not None for c in report.checks)
            if not report.passed:
                continue
            validated += 1
            profile, profile2 = pm.finiteness_profile(), pm2.finiteness_profile()
            assert (profile2.shape, profile2.degenerate) == (profile.shape, profile.degenerate)
            assert profile2.phi == _double(profile.phi)
            assert profile2.finite_elements == frozenset(map(_double, profile.finite_elements))
            # one atom for each carrier element, 0 and ∞ among them
            atoms = Space([f"x{i}" for i in range(k)])
            tau = MaxMeasure(atoms, pm.carrier)
            tau2 = MaxMeasure(atoms, pm2.carrier)
            diagnosis, diagnosis2 = diagnose_rn(pm, tau), diagnose_rn(pm2, tau2)
            assert (diagnosis2.rn_property, diagnosis2.sigma_odot_finite,
                    diagnosis2.semi_finite, diagnosis2.spots) == (
                diagnosis.rn_property, diagnosis.sigma_odot_finite,
                diagnosis.semi_finite, diagnosis.spots)
            assert diagnosis2.total_vs_phi == replace(
                diagnosis.total_vs_phi, total=_double(diagnosis.total_vs_phi.total),
                phi=_double(diagnosis.total_vs_phi.phi))
            gaps = _gaps(pm, tau, diagnosis)
            gapped += any(g is not None for g in gaps)
            assert _gaps(pm2, tau2, diagnosis2) == [g if g is None else _double(g) for g in gaps]
            # the conditions that name no value are the same lines
            assert [c for c in diagnosis2.failed_conditions if not c.startswith("atom ")] == [
                c for c in diagnosis.failed_conditions if not c.startswith("atom ")]
            assert len(diagnosis2.failed_conditions) == len(diagnosis.failed_conditions)
            for nv in pm.carrier:
                for tv in pm.carrier:
                    result = solve_density(pm, MaxMeasure(space, [nv]), MaxMeasure(space, [tv]))
                    result2 = solve_density(pm2, MaxMeasure(space, [_double(nv)]),
                                            MaxMeasure(space, [_double(tv)]))
                    assert result2.ok == result.ok
                    if result.ok:
                        assert result2.density.values == tuple(map(_double,
                                                                   result.density.values))
                    else:
                        assert [f.reason for f in result2.failures] == [
                            f.reason for f in result.failures]
    assert (validated, witnessed > 0, gapped > 0) == (30, True, True)
