"""The table scans of the σ-ideal checks against their per-subset forms.

``verify_nguyen_measure``, ``verify_localization``, ``same_null_sets``
(the ``variation`` command's null-set comparison) and
``is_abs_continuous_exhaustive`` read byte rank tables instead of
evaluating measures subset by subset.  These tests hold each scan to
the per-subset loop it replaced and show that each one still rejects a
wrong answer, passed to it straight.
"""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxitive.cli as cli_module
from maxitive import (
    INF,
    ZERO,
    AdditiveMeasure,
    CrossCheckError,
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
    is_abs_continuous_exhaustive,
    localize,
    measure_eval,
    nguyen_bruteforce,
    nguyen_measure,
    same_null_sets,
    verify_localization,
    verify_nguyen_measure,
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
    verify_nguyen_measure(tau, ideal, nu)
    atom = data.draw(st.integers(0, tau.space.n - 1))
    value = data.draw(st.sampled_from(MASSES + [ExtNonneg(3)]))  # 3: a value τ never takes
    wrong = doctored(nu, atom, value)
    refuted = any(wrong(B) != nguyen_bruteforce(tau, ideal, B) for B in tau.space.subsets())
    try:
        verify_nguyen_measure(tau, ideal, wrong)
    except AssertionError:
        refused = True
    else:
        refused = False
    assert refused == refuted


def test_wrong_nguyen_closed_form_is_refused():
    space = Space(["a", "b", "c"])
    tau = MaxMeasure(space, ["2", "0", "inf"])
    ideal = SigmaIdeal(space, space.subset(["a"]))
    # τ itself, with the ideal's mass not removed
    with pytest.raises(AssertionError, match=r"at \{a\}"):
        verify_nguyen_measure(tau, ideal, tau)


def test_a_nguyen_mass_that_tau_never_takes_is_refused_at_its_singleton():
    space = Space(["a", "b", "c"])
    tau = MaxMeasure(space, ["2", "0", "inf"])
    ideal = SigmaIdeal(space, space.empty)
    # 1 is no value of τ's and lies below ν's mass 2 at a: {b} still differs first
    wrong = MaxMeasure(space, ["2", "1", "inf"])
    first = next(B for B in space.subsets() if wrong(B) != nguyen_bruteforce(tau, ideal, B))
    assert first == space.subset(["b"])
    with pytest.raises(CrossCheckError) as exc:
        verify_nguyen_measure(tau, ideal, wrong)
    assert str(exc.value) == "Nguyen closed form disagrees with 𝒥_t enumeration at {b}"


TEN_ATOMS = [f"x{i}" for i in range(10)]
TEN_MASSES = ["2", "0", "inf", "1", "3", "1/2", "0", "5", "2", "7"]


def ideal_measures_argv(tmp_path):
    """``ideal-measures`` on ten atoms, τ = TEN_MASSES and the ideal {x0, x3}."""
    source = {"space": {"atoms": TEN_ATOMS},
              "measures": {"tau": dict(zip(TEN_ATOMS, TEN_MASSES))},
              "ideals": {"I": [["x0"], ["x3"]]}}
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(source))
    return ["ideal-measures", "--space-file", str(path), "--tau", "tau", "--ideal", "I",
            "--json-out", "-"]


def assert_failed_cross_check(capsys, argv, witness):
    """The command exits 1 with one stderr line that names the witness."""
    assert cli_module.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert re.fullmatch(rf"error: .* {re.escape(witness)}\n", err)


def test_ideal_measures_verifies_the_nguyen_measure_within_max_n(monkeypatch, tmp_path, capsys):
    argv = ideal_measures_argv(tmp_path)
    assert cli_module.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["body"]["nguyen_maxitive"] is True
    # τ itself, with the ideal's mass not removed
    monkeypatch.setattr(cli_module, "nguyen_measure", lambda tau, ideal: tau)
    assert_failed_cross_check(capsys, argv + ["--max-n", "10"], "at {x0}")
    assert cli_module.main(argv + ["--max-n", "9"]) == 0  # past --max-n it is not verified
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["nguyen_threshold"] == dict(zip(TEN_ATOMS, TEN_MASSES))
    assert "nguyen_maxitive" not in body


def test_ideal_measures_verifies_the_localization_within_max_n(monkeypatch, tmp_path, capsys):
    argv = ideal_measures_argv(tmp_path)
    assert cli_module.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["body"]["localization"] == ["x0", "x3"]
    # the localization with x4 added, which no member of the ideal needs
    monkeypatch.setattr(cli_module, "localize",
                        lambda tau, ideal: ideal.top | tau.space.subset(["x4"]))
    assert_failed_cross_check(capsys, argv + ["--max-n", "10"], "against {x0, x3}")
    assert cli_module.main(argv + ["--max-n", "9"]) == 0  # past --max-n it is not verified
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["localization"] == ["x0", "x3", "x4"]
    assert "nguyen_maxitive" not in body


def test_ideal_measures_refuses_a_localization_that_does_not_absorb(monkeypatch, tmp_path,
                                                                    capsys):
    argv = ideal_measures_argv(tmp_path)
    monkeypatch.setattr(cli_module, "localize", lambda tau, ideal: tau.space.empty)
    assert cli_module.main(argv + ["--max-n", "10"]) == 1
    assert capsys.readouterr() == ("", "error: localization does not absorb the ideal "
                                       "against {}\n")


# -- localize --------------------------------------------------------------------

@pytest.mark.parametrize("top, atoms, message", [
    (["a", "b"], [], "localization does not absorb the ideal against {}"),
    (["a", "b"], ["a"], "localization does not absorb the ideal against {a}"),
    (["a", "b"], ["c"], "localization does not absorb the ideal against {}"),
    (["a", "b"], ["a", "b"], None),
    (["a", "b"], ["a", "b", "c"], None),
    (["a"], ["a", "b"], "localization not minimal against {a}"),
], ids=["empty", "a", "c", "ab", "abc", "b-outside-top-a"])
def test_localization_checks_absorption_and_minimality(top, atoms, message):
    space = Space(["a", "b", "c"])
    tau = MaxMeasure(space, {"a": 1, "b": 2, "c": 0})
    ideal, L = SigmaIdeal(space, space.subset(top)), space.subset(atoms)
    witness = first_non_minimal(lambda B: measure_eval(tau, B), space, ideal.top, L)
    if message is None:
        assert witness is None
        verify_localization(tau, ideal, L)
    else:
        assert message.endswith(f"against {witness!r}")
        with pytest.raises(CrossCheckError) as exc:
            verify_localization(tau, ideal, L)
        assert str(exc.value) == message


def first_non_minimal(value, space, top, L):
    """The literal localization loop: the first B against which L fails.

    L must absorb the ideal, τ(top ∖ L) = 0, and be least so: τ(L ∖ B) = 0
    for every B with τ(top ∖ B) = 0.  Against B, L is not least when
    top ∖ B is null but L ∖ B is not, and does not absorb the ideal when
    L ∖ B is null but top ∖ B is not, since top ∖ B ⊆ (top ∖ L) ∪ (L ∖ B).
    """
    for B in space.subsets():
        top_null, local_null = value(top - B).is_zero, value(L - B).is_zero
        if (top_null and not local_null) or (local_null and not top_null):
            return B
    return None


@settings(max_examples=200, deadline=None)
@given(ideal_instances())
def test_localize_scan_equals_the_literal_loop(inst):
    tau, ideal = inst
    L = localize(tau, ideal)
    assert L == ideal.top & tau.support
    verify_localization(tau, ideal, L)
    assert first_non_minimal(lambda B: measure_eval(tau, B), tau.space, ideal.top, L) is None


@settings(max_examples=200, deadline=None)
@given(ideal_instances(), st.data())
def test_localization_scan_names_the_literal_loops_first_failure(inst, data):
    # any L, also one that is not inside the top: the scan then reads the
    # subsets of top ∪ L
    tau, ideal = inst
    L = SubsetB(tau.space, data.draw(st.integers(0, (1 << tau.space.n) - 1)))
    witness = first_non_minimal(lambda B: measure_eval(tau, B), tau.space, ideal.top, L)
    try:
        verify_localization(tau, ideal, L)
    except AssertionError as exc:
        assert witness is not None and str(exc).endswith(repr(witness))
    else:
        assert witness is None


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
        mp.setattr(MaxMeasure, "table", lambda self: table)
        try:
            verify_localization(tau, ideal, L)
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
    for B in tau.space.subsets():
        assert (tau_ranks[B.mask] == 0) == measure_eval(tau, B).is_zero
    for additive in (m, wrong):
        assert same_null_sets(tau, additive) == all(
            additive(B).is_zero == measure_eval(tau, B).is_zero for B in tau.space.subsets())


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
    # the table scan equals the atom-wise verdict, which must in turn
    # equal the per-subset loop
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
            verdict = is_abs_continuous(pm, nu, tau)
            assert is_abs_continuous_exhaustive(pm, nu, tau) == verdict
            assert verdict == per_subset_abs_continuous(pm, nu, tau)
            verdicts.add(verdict)
            spots += any(not pm.is_odot_finite(v) for v in tau.masses)
        assert verdicts == {True, False}, kind
        assert spots > 0 or kind == "min", kind  # every value is ⊙-finite under min


def test_abs_continuity_cross_check_refuses_a_scan_that_disagrees(monkeypatch):
    space = Space(["a", "b"])
    nu = MaxMeasure(space, ["0", "1"])
    tau = MaxMeasure(space, ["0", "1"])
    assert is_abs_continuous_exhaustive(OPS["times"], nu, tau)
    # the scan now reads a ν with mass on the τ-null atom
    monkeypatch.setattr(nu, "table", MaxMeasure(space, ["1", "1"]).table)
    assert is_abs_continuous(OPS["times"], nu, tau)
    assert not is_abs_continuous_exhaustive(OPS["times"], nu, tau)
