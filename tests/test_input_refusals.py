"""Each refusal of outside input names what is wrong, word for word.

One test per constructor or check that takes input from outside the
library: a space and its subsets, a measure's masses, a set function's
values or ranks, a chain's identity, a custom ⊙'s profile, the grid
oracle's consistency check and the density result's text.
"""

import re

import pytest

import maxitive.integral as integral
from maxitive import (
    INF,
    ONE,
    ZERO,
    AtomFailure,
    CustomContinuous,
    DensityResult,
    DiscreteChain,
    ExtNonneg,
    FailureReason,
    MaxMeasure,
    MeasurableFn,
    OracleMismatchError,
    SetFunctionTable,
    Space,
    SubsetB,
    assert_oracle_consistent,
    integrate_threshold,
)
from maxitive.pseudomul import FrontierShape

from conftest import CountingTimes, float_times


def refused(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


def test_a_space_refuses_bad_atoms():
    with refused(ValueError, "a space needs at least one atom"):
        Space([])
    with refused(ValueError, "atom labels must be distinct"):
        Space(["a", "b", "a"])
    for bad in ([1, "b"], ["a", ""]):
        with refused(ValueError, "atom labels must be nonempty strings"):
            Space(bad)
    with refused(ValueError, "unknown atom 'z'"):
        Space(["a", "b"]).index("z")


def test_a_subset_refuses_a_bad_mask_operand_or_label():
    sp = Space(["a", "b"])
    with refused(ValueError, "mask 0x4 is out of range for Space(['a', 'b'])"):
        SubsetB(sp, 4)
    with refused(ValueError, "mask -0x1 is out of range for Space(['a', 'b'])"):
        SubsetB(sp, -1)
    with refused(TypeError, "expected a SubsetB"):
        sp.full | 1
    with refused(ValueError, "unknown atom 'z'"):
        "z" in sp.full
    assert "a" in sp.subset(["a"]) and "b" not in sp.subset(["a"])


def test_a_measure_refuses_missing_unknown_or_miscounted_masses():
    sp = Space(["a", "b", "c"])
    with refused(ValueError, "missing masses for atoms ['b', 'c']"):
        MaxMeasure(sp, {"a": 1})
    with refused(ValueError, "values given for unknown atoms ['z']"):
        MaxMeasure(sp, {"a": 1, "b": 2, "c": 3, "z": 4})
    with refused(ValueError, "expected 3 values, got 2"):
        MaxMeasure(sp, [1, 2])


def test_a_set_function_table_refuses_a_wrong_length_or_a_mass_at_the_empty_set():
    sp = Space(["a", "b"])
    with refused(ValueError, "expected 4 values, got 3"):
        SetFunctionTable(sp, [0, 1, 1])
    with refused(ValueError, "expected 4 ranks, got 2"):
        SetFunctionTable.from_ranks(sp, (ZERO, ONE), bytes([0, 1]))
    with refused(ValueError, "a set function must vanish at the empty set"):
        SetFunctionTable.from_ranks(sp, (ZERO, ONE), bytes([1, 1, 1, 1]))


def test_a_chain_refuses_the_identity_zero():
    with refused(ValueError, "chain identity must be positive"):
        DiscreteChain([0, 1], [[0, 0], [0, 1]], 0)


def test_a_custom_operation_with_a_finite_infinity_has_the_whole_interval():
    # min(s, ∞) = s falls to 0 with s, so ∞ is ⊙-finite and F_⊙ = [0, ∞]
    profile = CustomContinuous(min, INF).finiteness_profile()
    assert (profile.shape, profile.phi) == (FrontierShape.WHOLE_INTERVAL, INF)
    assert (profile.degenerate, profile.approximate) == (False, True)


def oracle_instance():
    sp = Space(["a", "b"])
    return (MeasurableFn(sp, [ExtNonneg(2), ExtNonneg(1)]),
            MaxMeasure(sp, [ExtNonneg(3), ExtNonneg(5)]), sp.full)


def test_an_oracle_above_the_sweep_is_refused(monkeypatch):
    pm = CountingTimes()
    f, nu, B = oracle_instance()
    assert integrate_threshold(pm, f, nu, B) == ExtNonneg(6)
    assert_oracle_consistent(pm, f, nu, B)
    monkeypatch.setattr(integral, "integrate_oracle", lambda *args: ExtNonneg(7))
    with refused(OracleMismatchError, "grid oracle 7 exceeds threshold sweep 6"):
        assert_oracle_consistent(pm, f, nu, B)


def test_an_inexact_oracle_far_below_the_sweep_is_refused(monkeypatch):
    pm = CustomContinuous(float_times, ONE)
    f, nu, B = oracle_instance()
    assert_oracle_consistent(pm, f, nu, B)
    monkeypatch.setattr(integral, "integrate_oracle", lambda *args: ExtNonneg(5))
    with refused(OracleMismatchError,
                 "grid oracle 5.0 differs from sweep 6.0 beyond tolerance 1e-09"):
        assert_oracle_consistent(pm, f, nu, B)


def test_a_density_result_prints_its_density_or_each_failure():
    sp = Space(["a", "b"])
    found = DensityResult(MeasurableFn(sp, [ONE, ZERO]))
    assert str(found) == "density found: MeasurableFn({a: 1, b: 0})"
    unresolved = AtomFailure("a", ONE, ExtNonneg(2), FailureReason.UNRESOLVED_NUMERIC,
                             bracket=(ZERO, ExtNonneg("1/2")))
    assert str(unresolved) == ("atom a: no c with c ⊙ 2 = 1 "
                               "(numeric solve did not resolve; bracket (0, 1/2))")
    missing = AtomFailure("b", ONE, ZERO, FailureReason.NULL_TAU_POSITIVE_NU)
    assert str(DensityResult(None, (unresolved, missing))) == (
        "no density:\n"
        "  atom a: no c with c ⊙ 2 = 1 (numeric solve did not resolve; bracket (0, 1/2))\n"
        "  atom b: no c with c ⊙ 0 = 1 (τ-null atom with positive ν)")
