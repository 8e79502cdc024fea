"""The table scans of the σ-ideal checks against their per-subset forms.

``nguyen_measure``'s validation, the ``localize`` minimality scan, the
``variation`` command's null-set comparison and
``is_abs_continuous(cross_check=True)`` read byte rank tables instead of
evaluating measures subset by subset.  These tests hold each scan to
the per-subset loop it replaced and show that each one still rejects a
wrong answer.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxitive.cli as cli_module
import maxitive.quotient as quotient_module
from maxitive import (
    INF,
    ZERO,
    AdditiveMeasure,
    DiscreteChain,
    ExtNonneg,
    MaxMeasure,
    Minimum,
    SetFunctionTable,
    SigmaIdeal,
    Space,
    StandardProduct,
    SubsetB,
    achievable_set,
    disjoint_variation,
    is_abs_continuous,
    localize,
    measure_eval,
    nguyen_bruteforce,
    nguyen_measure,
)
from maxitive.specdoc import parse_spec

# 0 and ∞ among few values, so masses repeat
MASSES = [ZERO, ExtNonneg(1), ExtNonneg("5/2"), ExtNonneg(7), INF]
CHAIN = DiscreteChain.clamped_product(["0", "1", "2", "inf"])
OPS = {"times": StandardProduct(), "min": Minimum(), "chain": CHAIN}


@st.composite
def ideal_instances(draw, max_n=8):
    """(τ, a random ideal) with masses from MASSES."""
    n = draw(st.integers(1, max_n))
    space = Space([f"x{i}" for i in range(n)])
    tau = MaxMeasure(space, [draw(st.sampled_from(MASSES)) for _ in range(n)])
    top = SubsetB(space, draw(st.integers(0, (1 << n) - 1)))
    return tau, SigmaIdeal(space, top)


def doctored(measure, atom, value):
    """The same masses with one atom's mass replaced."""
    masses = list(measure.masses)
    masses[atom] = value
    return type(measure)(measure.space, masses)


# -- nguyen_measure ------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(ideal_instances(), st.data())
def test_nguyen_scan_refuses_exactly_the_closed_forms_enumeration_refutes(inst, data):
    tau, ideal = inst
    nu = nguyen_measure(tau, ideal)
    assert all(nu(B) == nguyen_bruteforce(tau, ideal, B) for B in tau.space.subsets())
    atom = data.draw(st.integers(0, tau.space.n - 1))
    value = data.draw(st.sampled_from(MASSES + [ExtNonneg(3)]))  # 3: a value τ never takes
    wrong = doctored(nu, atom, value)
    refuted = any(wrong(B) != nguyen_bruteforce(tau, ideal, B) for B in tau.space.subsets())
    with pytest.MonkeyPatch.context() as mp:
        # nguyen_measure builds its closed form through this name
        mp.setattr(quotient_module, "MaxMeasure", lambda space, masses: wrong)
        try:
            nguyen_measure(tau, ideal)
        except AssertionError:
            refused = True
        else:
            refused = False
    assert refused == refuted


def test_wrong_nguyen_closed_form_is_refused(monkeypatch):
    space = Space(["a", "b", "c"])
    tau = MaxMeasure(space, ["2", "0", "inf"])
    ideal = SigmaIdeal(space, space.subset(["a"]))
    # τ itself, with the ideal's mass not removed
    monkeypatch.setattr(quotient_module, "MaxMeasure", lambda space, masses: tau)
    with pytest.raises(AssertionError, match=r"at \{a\}"):
        nguyen_measure(tau, ideal)


def test_nguyen_validates_by_default_within_the_cap(monkeypatch):
    space = Space([f"x{i}" for i in range(10)])
    tau = MaxMeasure(space, ["2", "0", "inf", "1", "3", "1/2", "0", "5", "2", "7"])
    ideal = SigmaIdeal(space, space.subset(["x0", "x3"]))
    assert nguyen_measure(tau, ideal).masses == nguyen_measure(tau, ideal, limit=0).masses
    # τ itself, with the ideal's mass not removed
    monkeypatch.setattr(quotient_module, "MaxMeasure", lambda space, masses: tau)
    with pytest.raises(AssertionError, match=r"at \{x0\}"):
        nguyen_measure(tau, ideal)
    nguyen_measure(tau, ideal, limit=9)  # past the caller's cap it is not validated


# -- localize --------------------------------------------------------------------

def first_non_minimal(value, space, top, L):
    """The literal minimality loop: the first B with top ∖ B null but not L ∖ B."""
    for B in space.subsets():
        if value(top - B).is_zero and not value(L - B).is_zero:
            return B
    return None


@settings(max_examples=200, deadline=None)
@given(ideal_instances())
def test_localize_scan_equals_the_literal_loop(inst):
    tau, ideal = inst
    L = localize(tau, ideal)
    assert L == ideal.top & tau.support
    assert first_non_minimal(lambda B: measure_eval(tau, B), tau.space, ideal.top, L) is None


@settings(max_examples=200, deadline=None)
@given(ideal_instances(max_n=6), st.data())
def test_localize_scan_reads_the_table_as_the_literal_loop_does(inst, data):
    # A measure's table is monotone, so L ⊆ top always passes; a table
    # that is not monotone exercises the scan's mask arithmetic.
    tau, ideal = inst
    size = 1 << tau.space.n
    values = [ZERO] + data.draw(st.lists(st.sampled_from(MASSES), min_size=size - 1,
                                         max_size=size - 1))
    table = SetFunctionTable(tau.space, values)
    L = ideal.top & tau.support
    witness = first_non_minimal(table.value, tau.space, ideal.top, L)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MaxMeasure, "table", lambda self, limit=None: table)
        try:
            localize(tau, ideal)
        except AssertionError as exc:
            assert witness is not None and str(exc).endswith(repr(witness))
        else:
            assert witness is None


# -- variation -------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(ideal_instances(), st.data())
def test_null_tables_equal_the_per_subset_zero_tests(inst, data):
    tau, _ = inst
    m = disjoint_variation(tau)
    wrong = doctored(m, data.draw(st.integers(0, tau.space.n - 1)),
                     data.draw(st.sampled_from(MASSES)))
    tau_ranks = tau.table().ranks
    for additive in (m, wrong):
        nulls = additive.null_table()
        assert len(nulls) == len(tau_ranks)
        for B in tau.space.subsets():
            assert (nulls[B.mask] == 0) == additive(B).is_zero
            assert (tau_ranks[B.mask] == 0) == measure_eval(tau, B).is_zero


def test_variation_flags_a_doctored_additive_mass(monkeypatch, tmp_path, capsys):
    source = {"space": {"atoms": ["a", "b", "c"]},
              "measures": {"tau": {"a": "2", "b": "0", "c": "inf"}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(source))

    def same_null_sets():
        argv = ["variation", "--space-file", str(path), "--tau", "tau", "--json-out", "-"]
        assert cli_module.main(argv) == 0
        return json.loads(capsys.readouterr().out)["body"]["same_null_sets"]

    assert same_null_sets() is True
    tau = parse_spec(source).measures["tau"]
    for atom, value in ((1, ExtNonneg(1)), (0, ZERO), (2, ZERO)):
        wrong = doctored(AdditiveMeasure(tau.space, tau.masses), atom, value)
        monkeypatch.setattr(cli_module, "disjoint_variation", lambda tau: wrong)
        assert same_null_sets() is False


# -- is_abs_continuous -------------------------------------------------------------

def per_subset_abs_continuous(pm, nu, tau):
    """The per-subset loop: ν(B) ≤ ∞ ⊙ τ(B) wherever τ(B) is ⊙-finite."""
    for B in nu.space.subsets():
        tv = measure_eval(tau, B)
        if pm.is_odot_finite(tv) and measure_eval(nu, B) > achievable_set(pm, tv).upper:
            return False
    return True


def test_abs_continuity_scan_equals_the_per_subset_loop():
    # cross_check raises unless the table scan equals the atom-wise
    # verdict, which must in turn equal the per-subset loop
    rng = random.Random(21)
    pools = {"times": MASSES, "min": MASSES, "chain": list(CHAIN.carrier)}
    for kind, pm in OPS.items():
        verdicts = set()
        spots = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            space = Space([f"x{i}" for i in range(n)])
            nu = MaxMeasure(space, [rng.choice(pools[kind]) for _ in range(n)])
            tau = MaxMeasure(space, [rng.choice(pools[kind]) for _ in range(n)])
            verdict = is_abs_continuous(pm, nu, tau, cross_check=True)
            assert verdict == per_subset_abs_continuous(pm, nu, tau)
            verdicts.add(verdict)
            spots += any(not pm.is_odot_finite(v) for v in tau.masses)
        assert verdicts == {True, False}, kind
        assert spots > 0 or kind == "min", kind  # every value is ⊙-finite under min


def test_abs_continuity_cross_check_refuses_a_scan_that_disagrees(monkeypatch):
    space = Space(["a", "b"])
    nu = MaxMeasure(space, ["0", "1"])
    tau = MaxMeasure(space, ["0", "1"])
    assert is_abs_continuous(OPS["times"], nu, tau, cross_check=True)
    # the scan now reads a ν with mass on the τ-null atom
    monkeypatch.setattr(nu, "table", MaxMeasure(space, ["1", "1"]).table)
    with pytest.raises(AssertionError, match="disagrees with the exhaustive scan"):
        is_abs_continuous(OPS["times"], nu, tau, cross_check=True)
