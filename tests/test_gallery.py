"""Every shipped scenario must be green on its own fixtures."""

import re

import pytest

from maxitive import GALLERY, ONE, MeasurableFn, gallery, run_gallery
from maxitive.cli import main
from maxitive.errors import CrossCheckError


SEEDLESS = ("shilkret-counterexample", "claims-walkthrough")


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_scenario_passes(name):
    trials = 120 if name in ("sugeno-corollary", "prop33-finitize") else None
    report = run_gallery(name, seed=None if name in SEEDLESS else 0, trials=trials)
    failed = [c for c in report.body["checks"] if not c["passed"]]
    assert report.body["passed"], failed
    assert not report.negative_verdict


@pytest.mark.parametrize("name", SEEDLESS)
def test_a_seed_for_a_scenario_that_draws_nothing_is_refused(name):
    with pytest.raises(ValueError, match=f"scenario '{name}' takes no seed"):
        run_gallery(name, seed=0)
    with pytest.raises(ValueError, match=f"scenario '{name}' takes no seed"):
        run_gallery(name, seed=5, trials=5)  # the first value it lacks is named
    assert run_gallery(name).body["passed"]


def test_unknown_scenario():
    known = ", ".join(sorted(GALLERY))
    with pytest.raises(ValueError, match=re.escape(
            f"unknown gallery scenario 'nope'; known: {known}")):
        run_gallery("nope")


def test_seeds_change_trials_not_verdicts():
    a = run_gallery("sugeno-corollary", seed=1, trials=60)
    b = run_gallery("sugeno-corollary", seed=2, trials=60)
    assert a.body["passed"] and b.body["passed"]


# The claims-walkthrough entry each exhaustive cross-check backs.
BACKED = {
    "verify_localization": "its density exists and its support localizes the ideal",
    "verify_nguyen_measure": "threshold closed form matches the 𝒥_t enumeration on every subset",
}


@pytest.mark.parametrize("verifier", sorted(BACKED))
def test_a_failing_cross_check_fails_its_entry_and_the_report_comes_back(
        verifier, monkeypatch, capsys):
    def refuted(*args):
        raise CrossCheckError(f"{verifier} refuted")
    names = [c["name"] for c in run_gallery("claims-walkthrough").body["checks"]]
    monkeypatch.setattr(gallery, verifier, refuted)
    report = run_gallery("claims-walkthrough")
    failed = {c["name"]: c["detail"] for c in report.body["checks"] if not c["passed"]}
    assert failed == {BACKED[verifier]: f"{verifier} refuted"}
    assert report.negative_verdict and [c["name"] for c in report.body["checks"]] == names
    assert main(["gallery", "claims-walkthrough"]) == 1
    out = capsys.readouterr()
    assert "passed: no" in out.out and f"{verifier} refuted" in out.out
    assert "error:" not in out.err


SOLVE, FINITIZE = gallery.solve_density, gallery.finitize_density


def uncertified(pm, nu, tau):
    """solve_density, with the first atom of each refusal dropped."""
    res = SOLVE(pm, nu, tau)
    return res if res.ok else res._replace(failures=res.failures[1:])


def refuting(*args):
    return False


def unfinitized(pm, c, nu, tau):
    """finitize_density answering c itself, ∞ values and all."""
    return c


def moved(pm, c, nu, tau):
    """finitize_density plus 1 on each τ-null atom: still a finite density,
    but no longer c when c was one already."""
    c1 = FINITIZE(pm, c, nu, tau)
    return MeasurableFn(c1.space, [v + ONE if t.is_zero else v
                                   for v, t in zip(c1.values, tau.masses)])


# Each randomized trial's failing entry: its scenario, the name gallery
# imports that is replaced, and what replaces it.
FAILING_TRIALS = {
    "violation certified": ("sugeno-corollary", "solve_density", uncertified),
    "density found and verified": ("sugeno-corollary", "verify_density", refuting),
    "finitization verified": ("prop33-finitize", "finitize_density", unfinitized),
    "already-finite density left unchanged": ("prop33-finitize", "finitize_density", moved),
}


@pytest.mark.parametrize("entry", FAILING_TRIALS)
def test_a_failing_trial_fails_its_entry_and_the_report_comes_back(entry, monkeypatch, capsys):
    scenario, name, stand_in = FAILING_TRIALS[entry]
    monkeypatch.setattr(gallery, name, stand_in)
    report = run_gallery(scenario, seed=0, trials=40)
    failed = [c["name"] for c in report.body["checks"] if not c["passed"]]
    assert any(re.fullmatch(rf"trial \d+: {entry}", n) for n in failed), failed
    assert report.negative_verdict and not report.body["passed"]
    assert main(["gallery", scenario, "--seed", "0", "--trials", "40"]) == 1
    assert f": {entry}" in capsys.readouterr().out
