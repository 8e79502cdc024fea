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
atoms and do not see a null atom.
"""

import random
from dataclasses import replace

import pytest

from maxitive import (
    INF,
    ZERO,
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
    verify_density,
)

from conftest import rand_fn, rand_mass, rand_measure, rand_space

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
    """The class count, complete_lattice_verified, the localizing set's mask,
    the masses of both measures attached to the ideal (validated against
    𝒥_t) and of the disjoint variation."""
    lattice = build_quotient(tau)
    return (lattice.count, lattice.verified_complete, localize(tau, ideal).mask,
            ideal_restriction_measure(tau, ideal).masses,
            nguyen_measure(tau, ideal).masses, disjoint_variation(tau).masses)


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
