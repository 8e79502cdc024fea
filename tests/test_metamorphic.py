"""Metamorphic laws of the integral routes.

The integral is defined by atom masses and level sets, so it cannot see
atom labels or their order, and an atom of ν-mass 0 contributes nothing
whatever f does there.  Each law is checked on random inputs under the
product, the minimum and the {0, 1, 2, ∞} chain.
"""

import random

import pytest

from maxitive import (
    INF,
    ZERO,
    MaxMeasure,
    MeasurableFn,
    Minimum,
    Space,
    StandardProduct,
    SubsetB,
    canonical_grid,
    integrate_atomwise,
    integrate_oracle,
    integrate_threshold,
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
