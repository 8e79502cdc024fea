"""Exit-code contract, report rendering, and the JSON round trip."""

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from maxitive import DiscreteChain, MaxMeasure, cli, gallery, validate_pseudo_mul
from maxitive.cli import main
from maxitive.report import Report
from maxitive.spaces import (CHAIN_CARRIER_CAP, GALLERY_TRIALS_CAP, NUMBER_DIGITS_CAP,
                             QUOTIENT_NON_NULL_CAP, VARIATION_TOTAL_DIGITS_CAP)

from conftest import min_chain

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "space": {"atoms": ["a", "b", "c"]},
        "pseudo_mul": "times",
        "measures": {
            "nu": {"a": "3", "b": "1/2", "c": "0"},
            "tau": {"a": "2", "b": "3", "c": "1"},
            "sharp": {"a": "1", "b": "1", "c": "1"},
            "inf_sharp": {"a": "inf", "b": "inf", "c": "inf"},
        },
        "functions": {"f": {"a": "1", "b": "2", "c": "0"}},
        "ideals": {"I": [["a"], ["b"]]},
    }))
    return str(path)


def test_integrate_command(doc_path, capsys):
    rc = main(["integrate", "--space-file", doc_path,
               "--measure", "nu", "--function", "f"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value: 3" in out
    assert "atomwise: 3" in out
    assert "threshold_sweep: 3" in out


def test_integrate_with_subset_and_op(doc_path, capsys):
    rc = main(["integrate", "--space-file", doc_path, "--measure", "nu",
               "--function", "f", "--subset", "b,c", "--op", "min"])
    assert rc == 0
    assert "value: 1/2" in capsys.readouterr().out  # min(2, 1/2) ⊕ min(0, 0)


def test_density_negative_verdict_is_not_an_error(doc_path, capsys):
    rc = main(["density", "--space-file", doc_path,
               "--nu", "sharp", "--tau", "inf_sharp"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "found: no" in out
    assert "achievable" in out


def test_density_fatal_verdict_flag(doc_path):
    rc = main(["density", "--space-file", doc_path,
               "--nu", "sharp", "--tau", "inf_sharp", "--fatal-verdicts"])
    assert rc == 4


def test_density_positive_with_finitize(doc_path, capsys):
    rc = main(["density", "--space-file", doc_path,
               "--nu", "nu", "--tau", "tau", "--finitize"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "found: yes" in out
    assert "verified_on_all_subsets: yes" in out
    assert "finitized_density" in out


def test_diagnose_exit_codes(doc_path):
    assert main(["diagnose", "--space-file", doc_path, "--tau", "tau"]) == 0
    assert main(["diagnose", "--space-file", doc_path, "--tau", "inf_sharp",
                 "--fatal-verdicts"]) == 4


def test_quotient_variation_ideal_measures(doc_path, capsys):
    assert main(["quotient", "--space-file", doc_path, "--tau", "nu"]) == 0
    assert "class_count: 4" in capsys.readouterr().out  # one null atom
    assert main(["variation", "--space-file", doc_path, "--tau", "tau"]) == 0
    assert "total: 6" in capsys.readouterr().out
    assert main(["ideal-measures", "--space-file", doc_path,
                 "--tau", "tau", "--ideal", "I"]) == 0
    out = capsys.readouterr().out
    assert "restricted_to_ideal" in out and "nguyen_threshold" in out


def test_ideal_inline_atoms(doc_path, capsys):
    assert main(["ideal-measures", "--space-file", doc_path,
                 "--tau", "tau", "--ideal", "a,c"]) == 0
    assert "nguyen_below_tau: yes" in capsys.readouterr().out


def test_validate_op_command(capsys):
    assert main(["validate-op", "--op", "times"]) == 0
    assert "passed: yes" in capsys.readouterr().out


def test_invalid_spec_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"space": {"atoms": ["a"]}, "measures": {"m": {"a": "-1"}}}')
    rc = main(["diagnose", "--space-file", str(path), "--tau", "m"])
    assert rc == 2
    assert "measures.m.a" in capsys.readouterr().err


@pytest.mark.parametrize("section, raw", [("measures", [1]), ("functions", "f"), ("ideals", 5)])
def test_a_section_that_is_not_an_object_is_a_located_exit_2(tmp_path, capsys, section, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": {"atoms": ["a"]}, "measures": {"tau": {"a": "1"}},
                                section: raw}))
    assert main(["variation", "--tau", "tau", "--space-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"  {section}: expected an object mapping names to {section}\n" in err


@pytest.mark.parametrize("mass", ["1e5000", "1e100000000"])
def test_number_past_the_bound_is_a_located_exit_2(tmp_path, capsys, mass):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"space": {"atoms": ["a", "b"]}, "pseudo_mul": "times",
                                "measures": {"tau": {"a": mass, "b": "1"}}}))
    rc = main(["diagnose", "--space-file", str(path), "--tau", "tau"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"measures.tau.a: number '{mass}' exceeds" in err


def test_number_at_the_bound_is_accepted(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"space": {"atoms": ["a", "b"]}, "pseudo_mul": "times",
                                "measures": {"tau": {"a": f"1e{NUMBER_DIGITS_CAP}", "b": "1"}}}))
    rc = main(["diagnose", "--space-file", str(path), "--tau", "tau"])
    assert rc == 0
    assert "a: 1" + "0" * NUMBER_DIGITS_CAP + "\n" in capsys.readouterr().out


def density_with_integer_nu(tmp_path, digits):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"space": {"atoms": ["a", "b"]}, "pseudo_mul": "times",
                                "measures": {"nu": {"a": int("7" * digits), "b": "1"},
                                             "tau": {"a": "1/" + "3" * 900, "b": "1"}}}))
    return main(["density", "--space-file", str(path), "--nu", "nu", "--tau", "tau"])


def test_json_integer_past_the_bound_is_a_located_exit_2(tmp_path, capsys):
    assert density_with_integer_nu(tmp_path, 3_500) == 2
    assert "measures.nu.a: number '777" in capsys.readouterr().err


def test_json_integer_at_the_bound_is_accepted(tmp_path, capsys):
    assert density_with_integer_nu(tmp_path, NUMBER_DIGITS_CAP) == 0
    assert "7" * NUMBER_DIGITS_CAP in capsys.readouterr().out


def test_unknown_name_exit_2(doc_path, capsys):
    rc = main(["diagnose", "--space-file", doc_path, "--tau", "nope"])
    assert rc == 2
    assert "unknown measure" in capsys.readouterr().err


def test_missing_space_file_exit_2(capsys):
    rc = main(["diagnose", "--tau", "tau"])
    assert rc == 2


def test_ambiguous_measure_needs_explicit_name(doc_path, capsys):
    rc = main(["integrate", "--space-file", doc_path, "--function", "f"])
    assert rc == 2
    assert "--measure is required" in capsys.readouterr().err


def test_unknown_atom_in_subset_exit_2(doc_path, capsys):
    rc = main(["integrate", "--space-file", doc_path, "--measure", "nu",
               "--function", "f", "--subset", "a,zz"])
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (2, "", "error: unknown atom 'zz'\n")


def test_integrate_takes_the_only_measure_and_function(tmp_path, capsys):
    path = tmp_path / "single.json"
    path.write_text(json.dumps({"space": {"atoms": ["a", "b"]},
                                "measures": {"nu": {"a": "3", "b": "1/2"}},
                                "functions": {"f": {"a": "1", "b": "2"}}}))
    assert main(["integrate", "--space-file", str(path)]) == 0
    implicit = capsys.readouterr().out
    assert main(["integrate", "--space-file", str(path), "--measure", "nu",
                 "--function", "f"]) == 0
    assert implicit == capsys.readouterr().out
    assert "value: 3" in implicit  # max(1 ⊙ 3, 2 ⊙ 1/2)


def test_size_cap_exit_3(tmp_path, capsys, monkeypatch):
    # every data command answers at any n, so the enumeration cap is
    # driven through a handler that enumerates the document's space itself:
    # its refusal is fixed like every other, and --max-n does not move it
    def table_of_the_document(args):
        MaxMeasure.constant(cli._load_doc(args).space, 1).table()
    monkeypatch.setitem(cli._HANDLERS, "diagnose", table_of_the_document)
    atoms = [f"x{i}" for i in range(21)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"space": {"atoms": atoms},
                                "measures": {"tau": {a: "1" for a in atoms}}}))
    for max_n in ([], ["--max-n", "25"]):
        assert main(["diagnose", "--space-file", str(path), "--tau", "tau", *max_n]) == 3
        assert capsys.readouterr().err == ("size cap exceeded: 21 atoms exceed the cap of 20; "
                                           "this cap is fixed; no flag raises it\n")


def test_a_chain_past_its_carrier_cap_exit_3(tmp_path, capsys):
    carrier, rows = min_chain(CHAIN_CARRIER_CAP + 1)
    names = [str(c) for c in carrier]
    path = tmp_path / "big-chain.json"
    path.write_text(json.dumps({
        "space": {"atoms": ["x"]},
        "pseudo_mul": {"chain": {"carrier": names, "table": [[str(v) for v in row] for row in rows],
                                 "identity": "inf"}},
    }))
    assert main(["validate-op", "--space-file", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("size cap exceeded: 257 chain carrier elements exceed the cap of 256; "
                       "this cap is fixed; no flag raises it\n")


@pytest.mark.parametrize("scenario", ["sugeno-corollary", "prop33-finitize"])
def test_gallery_trials_past_the_cap_exit_3_before_a_trial_runs(scenario, monkeypatch, capsys):
    runs = []

    def counted(seed=0, trials=None):
        runs.append(trials)
        return Report(f"gallery {scenario}", {})
    monkeypatch.setitem(gallery.GALLERY, scenario, counted)
    assert main(["gallery", scenario, "--trials", str(GALLERY_TRIALS_CAP + 1)]) == 3
    out = capsys.readouterr()
    assert (out.out, runs) == ("", [])
    assert out.err == ("size cap exceeded: 100001 gallery trials exceed the cap of 100000; "
                       "this cap is fixed; no flag raises it\n")
    assert main(["gallery", scenario, "--trials", str(GALLERY_TRIALS_CAP)]) == 0
    assert runs == [GALLERY_TRIALS_CAP]


def test_unknown_gallery_scenario_exit_2(capsys):
    rc = main(["gallery", "mystery"])
    assert rc == 2
    known = ", ".join(sorted(gallery.GALLERY))
    assert capsys.readouterr() == (
        "", f"error: unknown gallery scenario 'mystery'; known: {known}\n")


def test_a_key_error_inside_a_scenario_is_no_invalid_input(monkeypatch):
    def faulty():
        return {}["missing"]
    monkeypatch.setitem(gallery.GALLERY, "shilkret-counterexample", faulty)
    with pytest.raises(KeyError, match="missing"):  # an internal fault, not exit 2
        main(["gallery", "shilkret-counterexample"])


def test_gallery_command(capsys):
    rc = main(["gallery", "shilkret-counterexample"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "passed: yes" in out


def test_gallery_exits_1_when_a_scenario_check_fails(monkeypatch, capsys):
    def failing():
        checks = gallery._Checks()
        checks.add("a check that fails", False)
        return checks.report("shilkret-counterexample")
    monkeypatch.setitem(gallery.GALLERY, "shilkret-counterexample", failing)
    assert main(["gallery", "shilkret-counterexample"]) == 1
    out = capsys.readouterr()
    assert "passed: no" in out.out and out.err == ""


@pytest.mark.parametrize("scenario", ["sugeno-corollary", "prop33-finitize"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_gallery_trials_below_one_exit_2(capsys, scenario, trials):
    rc = main(["gallery", scenario, "--trials", trials])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert f"error: trials must be at least 1, got {trials}" in out.err


@pytest.mark.parametrize("scenario", ["shilkret-counterexample", "delta-sharp-uncountable",
                                      "claims-walkthrough"])
def test_gallery_trials_for_a_scenario_without_trials_exit_2(capsys, scenario):
    rc = main(["gallery", scenario, "--trials", "5"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert f"error: scenario {scenario!r} takes no trials" in out.err
    assert main(["gallery", scenario]) == 0


@pytest.mark.parametrize("scenario", ["shilkret-counterexample", "claims-walkthrough"])
def test_gallery_seed_for_a_scenario_that_draws_nothing_exit_2(capsys, scenario):
    rc = main(["gallery", scenario, "--seed", "5"])
    out = capsys.readouterr()
    assert rc == 2
    assert out.out == ""
    assert f"error: scenario {scenario!r} takes no seed" in out.err


def test_negative_max_n_is_refused_at_parsing(doc_path, capsys):
    argv = ["quotient", "--space-file", doc_path, "--tau", "tau", "--max-n"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "-1"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "argument --max-n: must be at least 0, got -1" in out.err
    assert main([*argv, "0"]) == 0  # 0 runs no exhaustive check, and says so
    assert "complete_lattice_verified: -" in capsys.readouterr().out


def test_json_out_roundtrip(doc_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc = main(["density", "--space-file", doc_path, "--nu", "nu", "--tau", "tau",
               "--json-out", str(out_path)])
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["command"] == "density"
    assert payload["body"]["found"] is True
    # machine rendering round-trips losslessly
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("where, cause", [
    ("directory", "Is a directory"),
    ("missing/report.json", "No such file or directory"),
    ("file.txt/report.json", "Not a directory"),
    ("", "No such file or directory"),
])
def test_json_out_that_cannot_be_written_exit_2_before_any_work(where, cause, tmp_path,
                                                                 monkeypatch, capsys):
    (tmp_path / "directory").mkdir()
    (tmp_path / "file.txt").write_text("kept")
    monkeypatch.chdir(tmp_path)

    def unreached(args):
        raise AssertionError("the handler ran")
    monkeypatch.setitem(cli._HANDLERS, "validate-op", unreached)
    assert main(["validate-op", "--op", "min", "--json-out", where]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: --json-out {where}: {cause}\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["directory", "file.txt"]


def test_json_out_write_that_fails_exit_2_with_nothing_printed(tmp_path, capsys):
    # a name past the file system's limit passes the checks made before any work
    where = str(tmp_path / ("r" * 300))
    assert main(["validate-op", "--op", "min", "--json-out", where]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: --json-out {where}: File name too long\n")
    assert list(tmp_path.iterdir()) == []


def test_json_to_stdout(doc_path, capsys):
    rc = main(["diagnose", "--space-file", doc_path, "--tau", "tau",
               "--json-out", "-"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["body"]["diagnosis"]["rn_property"] is True


def exit_code(argv) -> int:
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def json_body(argv, capsys) -> dict:
    """The body of the JSON report ``argv`` prints, which must exit 0."""
    assert main([*argv, "--json-out", "-"]) == 0
    return json.loads(capsys.readouterr().out)["body"]


def test_max_n_takes_only_a_nonnegative_int(doc_path, capsys):
    argv = ["quotient", "--space-file", doc_path, "--tau", "tau"]
    for bad, message in ((["--max-n=-1"], "must be at least 0, got -1"),
                         (["--max-n", "2.5"], "invalid int value: '2.5'"),  # no truncation
                         (["--max-n"], "expected one argument")):
        assert exit_code([*argv, *bad]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --max-n: {message}" in out.err
    assert json_body([*argv, "--max-n=0"], capsys)["complete_lattice_verified"] is None
    assert json_body(argv, capsys)["complete_lattice_verified"] is True


# The options several commands share, and the commands that take each.
SHARED_OPTIONS = {
    "--json-out": {"validate-op", "integrate", "density", "diagnose", "quotient",
                   "ideal-measures", "variation", "gallery"},
    "--space-file": {"validate-op", "integrate", "density", "diagnose", "quotient",
                     "ideal-measures", "variation"},
    "--op": {"validate-op", "integrate", "density", "diagnose"},
    "--seed": {"validate-op", "gallery"},
    "--max-n": {"density", "diagnose", "quotient", "ideal-measures", "variation"},
    "--fatal-verdicts": {"validate-op", "density", "diagnose"},
}
COMMANDS = sorted(SHARED_OPTIONS["--json-out"])


@pytest.mark.parametrize("command", COMMANDS)
def test_help_lists_exactly_the_shared_options_a_command_takes(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) & set(SHARED_OPTIONS)
    assert listed == {o for o, takers in SHARED_OPTIONS.items() if command in takers}


REQUIRED = {"integrate": [], "density": ["--nu", "nu", "--tau", "tau"],
            "diagnose": ["--tau", "tau"], "quotient": ["--tau", "tau"],
            "ideal-measures": ["--tau", "tau", "--ideal", "I"], "variation": ["--tau", "tau"],
            "validate-op": [], "gallery": ["claims-walkthrough"]}
VALUES = {"--json-out": "-", "--space-file": "x.json", "--op": "min", "--seed": "5",
          "--max-n": "3", "--fatal-verdicts": None}


@pytest.mark.parametrize("command, option", [
    (command, option) for option, takers in SHARED_OPTIONS.items() for command in COMMANDS
    if command not in takers])
def test_a_shared_option_a_command_does_not_read_exits_2(command, option, capsys):
    value = VALUES[option]
    with pytest.raises(SystemExit) as exc:
        main([command, *REQUIRED[command], option, *([value] if value else [])])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert f"maxitive: error: unrecognized arguments: {option}" in out.err


def test_options_left_out_take_the_parsers_defaults(doc_path, capsys):
    integrate = ["integrate", "--space-file", doc_path, "--measure", "nu", "--function", "f"]
    assert json_body(integrate, capsys)["value"] == "3"  # --subset: the whole space
    assert json_body(["validate-op"], capsys) == json_body(["validate-op", "--seed", "0"], capsys)
    assert json_body(["validate-op", "--seed=3"], capsys) == json_body(
        ["validate-op", "--seed", "3"], capsys)
    assert json_body(["gallery", "sugeno-corollary", "--trials", "5"], capsys)["passed"]


def test_bad_arguments_exit_2_with_the_reason(doc_path, capsys):
    integrate = ["integrate", "--space-file", doc_path, "--function", "f"]
    refusals = [
        (["diagnose", "--space-file", doc_path], "the following arguments are required: --tau"),
        (integrate, "--measure is required (document has 4 measures)"),
        ([*integrate, "--measure", "nu", "--op", "maximum"],
         "argument --op: invalid choice: 'maximum'"),
        (["quotient", "--space-file", doc_path, "--tau", "tau", "--colour=red"],
         "unrecognized arguments: --colour=red"),
        ([*integrate, "--measure", "nu", "--seed=5"], "unrecognized arguments: --seed=5"),
        (["gallery"], "the following arguments are required: scenario"),
    ]
    for argv, message in refusals:
        assert exit_code([*argv, "--json-out", "-"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert message in out.err


def _subparsers() -> dict:
    """Each command's parser, by command name."""
    return next(a for a in cli._build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# Every option of every command, --help included.
OPTIONS = [pytest.param(command, option, action, id=f"{command}-{option}")
           for command, parser in _subparsers().items()
           for action in parser._actions for option in action.option_strings
           if option.startswith("--")]


def _value(action) -> str:
    """A value the option accepts."""
    return action.choices[-1] if action.choices else "3"


@pytest.mark.parametrize("command, option, action", [
    case for case in OPTIONS if not isinstance(case.values[2], argparse._HelpAction)])
def test_every_option_is_taken_under_its_full_name(command, option, action):
    parser = cli._build_parser()
    if action.nargs == 0:
        forms, expected = [[option]], action.const
    else:
        value = _value(action)
        forms = [[option, value], [f"{option}={value}"]]
        expected = action.type(value) if action.type else value
    for form in forms:
        args = parser.parse_args([command, *REQUIRED[command], *form])
        assert getattr(args, action.dest) == expected


@pytest.mark.parametrize("command, option, action", OPTIONS)
def test_every_proper_prefix_of_an_option_exits_2(command, option, action, capsys):
    for end in range(3, len(option)):
        prefix = option[:end]
        value = _value(action)
        forms = [[prefix]] if action.nargs == 0 else [[prefix, value], [f"{prefix}={value}"]]
        for form in forms:
            assert exit_code([command, *REQUIRED[command], *form]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert f"maxitive: error: unrecognized arguments: {form[0]}" in out.err


def test_op_chain_requires_chain_document(doc_path, capsys):
    rc = main(["integrate", "--space-file", doc_path, "--measure", "nu",
               "--function", "f", "--op", "chain"])
    assert rc == 2


@pytest.fixture
def chain_doc_path(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "space": {"atoms": ["a"]},
        "pseudo_mul": {"chain": {
            "carrier": ["0", "1", "2", "inf"],
            "table": [["0", "0", "0", "0"],
                      ["0", "1", "2", "inf"],
                      ["0", "2", "2", "inf"],
                      ["0", "inf", "inf", "inf"]],
            "identity": "1"}},
        "measures": {"at_phi": {"a": "2"}, "below": {"a": "1"}},
    }))
    return str(path)


def test_chain_document_diagnose(chain_doc_path, capsys):
    rc = main(["diagnose", "--space-file", chain_doc_path, "--tau", "at_phi"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rn_property: no" in out
    assert "at_boundary: yes" in out
    rc = main(["diagnose", "--space-file", chain_doc_path, "--tau", "below"])
    assert rc == 0
    assert "rn_property: yes" in capsys.readouterr().out


def test_diagnose_names_the_value_a_chain_skips(tmp_path, capsys):
    # The idempotent uninorm on {0, 1, 3, 7, ∞} with identity 7: τ = {x: ∞}
    # is ⊙-finite, yet c ⊙ ∞ skips 7, so ν = {x: 7} is dominated with no density.
    table = [["0", "0", "0", "0", "0"],
             ["0", "1", "1", "1", "1"],
             ["0", "1", "3", "3", "3"],
             ["0", "1", "3", "7", "inf"],
             ["0", "1", "3", "inf", "inf"]]
    path = tmp_path / "uninorm.json"
    path.write_text(json.dumps({
        "space": {"atoms": ["x"]},
        "pseudo_mul": {"chain": {"carrier": ["0", "1", "3", "7", "inf"], "table": table,
                                 "identity": "7"}},
        "measures": {"tau": {"x": "inf"}, "nu": {"x": "7"}},
    }))
    argv = ["--space-file", str(path), "--fatal-verdicts", "--json-out", "-"]
    assert main(["validate-op", *argv]) == 0
    capsys.readouterr()
    assert main(["diagnose", *argv, "--tau", "tau"]) == 4
    diagnosis = json.loads(capsys.readouterr().out)["body"]["diagnosis"]
    assert diagnosis["rn_property"] is False
    assert diagnosis["sigma_odot_finite"] is True
    [line] = diagnosis["failed_conditions"]
    assert line.startswith("atom x: no c ⊙ inf equals 7 ")
    assert main(["density", *argv, "--tau", "tau", "--nu", "nu"]) == 4
    assert json.loads(capsys.readouterr().out)["body"]["found"] is False


def test_chain_document_validate_op(chain_doc_path, capsys):
    rc = main(["validate-op", "--space-file", chain_doc_path, "--op", "chain"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "passed: yes" in out
    assert "phi: 2" in out


# -- the chain gate: a document's chain is validated before any answer ------

GOLDEN = Path(__file__).resolve().parent / "golden"
NONMONOTONE = str(GOLDEN / "nonmonotone_chain.spec.json")  # 2 ⊙ 2 = 1, ν = 2, τ = 1, f = 2
GATED = [["density", "--nu", "nu", "--tau", "tau"], ["diagnose", "--tau", "tau"],
         ["integrate", "--measure", "nu", "--function", "f"]]


def refusal(issues) -> str:
    """The stderr of a refused chain, one issue a failed check."""
    return "invalid spec document:\n" + "".join(
        f"  pseudo_mul.chain.table: {issue}\n" for issue in issues)


@pytest.mark.parametrize("op", [[], ["--op", "chain"]], ids=["document's", "--op chain"])
@pytest.mark.parametrize("command", GATED, ids=[c[0] for c in GATED])
def test_a_chain_that_is_not_monotone_is_refused_before_any_answer(command, op, tmp_path,
                                                                    capsys):
    report = tmp_path / "r.json"
    for out in ([], ["--json-out", str(report)]):
        assert main([*command, "--space-file", NONMONOTONE, *op, *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == refusal(["monotonicity fails at (1, 2, 2)"])
    assert not report.exists()


def test_every_failed_check_of_a_chain_is_an_issue_in_report_order(tmp_path, capsys):
    doc = json.loads((GOLDEN / "nonassociative_chain.spec.json").read_text(encoding="utf-8"))
    doc["measures"] = {"nu": {"a": "2"}, "tau": {"a": "1"}}
    path = tmp_path / "nonassociative.json"
    path.write_text(json.dumps(doc))
    assert main(["density", "--space-file", str(path), "--nu", "nu", "--tau", "tau",
                 "--json-out", str(tmp_path / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == refusal(["monotonicity fails at (1, 2, 3)",
                                    "associativity fails at (3, 2, 3)"])
    assert not (tmp_path / "r.json").exists()
    for fatal, code in (([], 0), (["--fatal-verdicts"], 4)):  # validate-op still reports
        for doc_path in (str(path), NONMONOTONE):
            assert main(["validate-op", "--space-file", doc_path, *fatal]) == code
            assert "passed: no" in capsys.readouterr().out


def test_commands_that_take_no_chain_answer_on_a_document_whose_chain_fails(capsys):
    for argv in (["quotient", "--tau", "tau"], ["variation", "--tau", "tau"],
                 ["density", "--nu", "nu", "--tau", "tau", "--op", "times"]):
        assert main([*argv, "--space-file", NONMONOTONE]) == 0
    assert "found: yes" in capsys.readouterr().out


def test_times_and_min_are_never_validated_by_a_data_command(monkeypatch, capsys):
    def validator_called(pm, seed=0):
        raise AssertionError(f"{pm.describe()} was validated")
    monkeypatch.setattr(cli, "validate_pseudo_mul", validator_called)
    for op in ("times", "min"):
        assert main(["density", "--space-file", NONMONOTONE, "--nu", "nu", "--tau", "tau",
                     "--op", op]) == 0


def test_density_refuses_exactly_the_three_element_chains_the_validator_fails(tmp_path,
                                                                              capsys):
    # every table on {0, 1, ∞} in which 0 annihilates, under each positive identity
    carrier = ["0", "1", "inf"]
    path = tmp_path / "chain.json"
    refused = 0
    for cells in itertools.product(carrier, repeat=4):
        table = [["0"] * 3, ["0", *cells[:2]], ["0", *cells[2:]]]
        for identity in carrier[1:]:
            path.write_text(json.dumps({
                "space": {"atoms": ["a", "b", "c"]},
                "pseudo_mul": {"chain": {"carrier": carrier, "table": table,
                                         "identity": identity}},
                "measures": {"nu": {"a": "1", "b": "inf", "c": "0"},
                             "tau": {"a": "inf", "b": "1", "c": "1"}}}))
            report = validate_pseudo_mul(DiscreteChain(carrier, table, identity))
            code = main(["density", "--space-file", str(path), "--nu", "nu", "--tau", "tau"])
            captured = capsys.readouterr()
            if report.passed:  # a lawful degenerate chain may still exit 2, for its own reason
                assert "pseudo_mul.chain.table" not in captured.err
                assert code == 0 or (code == 2 and report.degenerate), captured.err
                continue
            refused += 1
            assert (code, captured.out) == (2, "")
            assert captured.err == refusal(
                f"{c.name} fails at ({', '.join(map(str, c.witness))})" for c in report.failed())
    assert 0 < refused < 162


def test_carrier_domain_error_exit_2(chain_doc_path, tmp_path, capsys):
    bad = tmp_path / "bad_chain.json"
    bad.write_text(json.dumps({
        "space": {"atoms": ["a"]},
        "pseudo_mul": {"chain": {
            "carrier": ["0", "1", "2", "inf"],
            "table": [["0", "0", "0", "0"],
                      ["0", "1", "2", "inf"],
                      ["0", "2", "2", "inf"],
                      ["0", "inf", "inf", "inf"]],
            "identity": "1"}},
        "measures": {"off": {"a": "7"}},  # 7 is not a carrier element
    }))
    rc = main(["diagnose", "--space-file", str(bad), "--tau", "off"])
    assert rc == 2
    assert "carrier" in capsys.readouterr().err


def test_ideal_measures_validates_up_to_a_raised_cap(tmp_path, monkeypatch, capsys):
    from maxitive.measure import MaxMeasure
    atoms = [f"x{i}" for i in range(16)]
    path = tmp_path / "sixteen.json"
    path.write_text(json.dumps({
        "space": {"atoms": atoms},
        "measures": {"tau": {a: str(i % 5) for i, a in enumerate(atoms)}},
        "ideals": {"I": [["x1"], ["x2"]]},
    }))
    scans = []
    table = MaxMeasure.table

    def recorded(self):
        scans.append(sys._getframe(1).f_code.co_name)
        return table(self)
    monkeypatch.setattr(MaxMeasure, "table", recorded)
    rc = main(["ideal-measures", "--space-file", str(path), "--tau", "tau",
               "--ideal", "I", "--max-n", "16", "--json-out", "-"])
    assert rc == 0
    # the 𝒥_t validation and the localization scan both ran at n = 16
    assert {"verify_nguyen_measure", "verify_localization"} <= set(scans)
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["restricted_maxitive"] is True
    assert body["nguyen_maxitive"] is True
    assert body["nguyen_below_tau"] is True


@pytest.fixture
def not_semi_finite_doc(tmp_path):
    path = tmp_path / "spot.json"
    path.write_text(json.dumps({
        "space": {"atoms": ["a", "b"]},
        "pseudo_mul": "times",
        "measures": {"nu": {"a": "inf", "b": "1"}, "tau": {"a": "inf", "b": "1"}},
    }))
    return str(path)


def test_finitize_refusal_is_a_negative_verdict(not_semi_finite_doc, capsys):
    argv = ["density", "--space-file", not_semi_finite_doc, "--nu", "nu", "--tau", "tau",
            "--finitize"]
    assert main(argv + ["--json-out", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    body = payload["body"]
    assert payload["negative_verdict"] is True
    assert body["found"] is True and body["verified_on_all_subsets"] is True
    assert body["finitized_density"] is None
    assert "not semi-⊙-finite" in body["finitize_refused"]
    assert main(argv + ["--fatal-verdicts"]) == 4


def test_quotient_runs_the_completeness_scan_once(doc_path, monkeypatch, capsys):
    import maxitive.cli as cli_module
    import maxitive.quotient as quotient_module
    calls = []
    original = quotient_module.verify_lattice_complete

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(quotient_module, "verify_lattice_complete", counted)
    monkeypatch.setattr(cli_module, "verify_lattice_complete", counted, raising=False)
    assert main(["quotient", "--space-file", doc_path, "--tau", "tau",
                 "--json-out", "-"]) == 0
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["complete_lattice_verified"] is True
    assert len(calls) == 1


def test_ideal_measure_and_variation_checks_read_tables(tmp_path, monkeypatch, capsys):
    import maxitive.cli as cli_module
    import maxitive.measure as measure_module
    import maxitive.quotient as quotient_module
    atoms = [f"x{i}" for i in range(12)]
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps({
        "space": {"atoms": atoms},
        "measures": {"tau": {a: ("inf" if i == 3 else str(i % 4)) for i, a in enumerate(atoms)}},
        "ideals": {"I": [["x1", "x5"], ["x4", "x9"]]},
    }))
    calls = []
    original = measure_module.measure_eval

    def counted(*args):
        calls.append(args)
        return original(*args)
    for module in (measure_module, quotient_module, cli_module):
        # raising=False: a module that does not import the name gains it unused
        monkeypatch.setattr(module, "measure_eval", counted, raising=False)
    doc = ["--space-file", str(path), "--tau", "tau", "--json-out", "-"]
    assert main(["variation"] + doc) == 0
    assert json.loads(capsys.readouterr().out)["body"]["same_null_sets"] is True
    assert main(["ideal-measures", "--ideal", "I"] + doc) == 0
    assert json.loads(capsys.readouterr().out)["body"]["localization"] == ["x1", "x5", "x9"]
    assert len(calls) < 1 << 12


def test_quotient_verdict_follows_max_n(tmp_path, capsys):
    # 13 non-null atoms of 14: the verdict is computed exactly when
    # n ≤ --max-n, whatever the number of classes
    atoms = [f"x{i}" for i in range(14)]
    path = tmp_path / "fourteen.json"
    path.write_text(json.dumps({
        "space": {"atoms": atoms},
        "measures": {"tau": {a: ("0" if i == 6 else str(1 + i % 3)) for i, a in enumerate(atoms)}},
    }))
    argv = ["quotient", "--space-file", str(path), "--tau", "tau", "--json-out", "-"]
    assert main(argv + ["--max-n", "14"]) == 0
    body = json.loads(capsys.readouterr().out)["body"]
    assert body["class_count"] == 1 << 13
    assert body["complete_lattice_verified"] is True
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["body"]["complete_lattice_verified"] is None


def test_quotient_refuses_a_class_count_past_the_printable_digits(tmp_path):
    # class_count is the int 2^k, and Python prints no int past 4 300
    # digits: 2^14 284 has 4 300, 2^14 285 has 4 301.  The cap counts the
    # non-null atoms, so one null atom more changes nothing.
    def document(k):
        path = tmp_path / f"k{k}.json"
        atoms = [f"x{i}" for i in range(k + 1)]
        tau = {a: "1" for a in atoms[:k]} | {atoms[k]: "0"}
        path.write_text(json.dumps({"space": {"atoms": atoms}, "measures": {"tau": tau}}))
        return ["quotient", "--space-file", str(path), "--tau", "tau"]
    at_cap = document(QUOTIENT_NON_NULL_CAP)
    proc = run_module(*at_cap, "--json-out", "-")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["body"]["class_count"] == 1 << QUOTIENT_NON_NULL_CAP
    proc = run_module(*at_cap)
    assert proc.returncode == 0, proc.stderr
    assert f"class_count: {1 << QUOTIENT_NON_NULL_CAP}" in proc.stdout
    proc = run_module(*document(QUOTIENT_NON_NULL_CAP + 1))
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == ("size cap exceeded: 14285 non-null atoms exceed the cap of 14284; "
                           "this cap is fixed; no flag raises it\n")


def test_variation_refuses_a_total_past_the_printable_digits(tmp_path):
    # Each mass 1/(10^990 + 2i + 1) is a number text within the cap, but
    # six of them sum to a total whose denominator Python cannot print.
    def document(k):
        path = tmp_path / f"k{k}.json"
        dens = [10 ** 990 + 2 * i + 1 for i in range(k)]
        tau = {f"x{i}": f"1/{d}" for i, d in enumerate(dens)}
        path.write_text(json.dumps({"space": {"atoms": list(tau)}, "measures": {"tau": tau}}))
        total = sum(Fraction(1, d) for d in dens)
        digits = next(n for n in itertools.count(1) if total.denominator < 10 ** n)
        return ["variation", "--space-file", str(path), "--tau", "tau"], total, digits
    argv, total, digits = document(4)
    assert digits <= VARIATION_TOTAL_DIGITS_CAP
    proc = run_module(*argv, "--json-out", "-")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["body"]["total"] == str(total)
    argv, total, digits = document(6)
    assert digits > VARIATION_TOTAL_DIGITS_CAP
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert "Exceeds the limit" not in proc.stderr
    assert proc.stderr == (f"size cap exceeded: {digits} digits in the total's numerator or "
                           f"denominator exceed the cap of {VARIATION_TOTAL_DIGITS_CAP}; "
                           "this cap is fixed; no flag raises it\n")


def test_max_n_past_the_ceiling_omits_what_it_cannot_enumerate(tmp_path, capsys):
    # Every command answers at any n and no --max-n meets a size cap.  The
    # exhaustive checks run exactly when n ≤ --max-n, taken at most the
    # enumeration ceiling of 20, so a --max-n above it reports as the
    # ceiling does; elsewhere they are omitted or null, and nothing else in
    # a report moves.
    commands = {"density": ["--nu", "nu", "--tau", "tau", "--finitize"],
                "diagnose": ["--tau", "spot"], "variation": ["--tau", "tau"],
                "ideal-measures": ["--tau", "tau", "--ideal", "I"], "quotient": ["--tau", "tau"]}
    exhaustive_fields = {"density": {"verified_on_all_subsets"},
                         "variation": {"same_null_sets"},
                         "ideal-measures": {"restricted_maxitive", "nguyen_maxitive",
                                            "nguyen_below_tau"},
                         "quotient": {"complete_lattice_verified"}, "diagnose": set()}
    for n in (13, 21, 24):
        atoms = [f"x{i}" for i in range(n)]
        path = tmp_path / f"atoms-{n}.json"
        path.write_text(json.dumps({
            "space": {"atoms": atoms},
            "measures": {"nu": {a: str(i % 3) for i, a in enumerate(atoms)},
                         "tau": {a: str(1 + i % 4) for i, a in enumerate(atoms)},
                         "spot": {a: "inf" if i == 5 else "1" for i, a in enumerate(atoms)}},
            "ideals": {"I": [["x1"], ["x2"]]},
        }))
        for command, extra in commands.items():
            answers = []
            for max_n in (None, 12, 20, 25, n):
                argv = [command, "--space-file", str(path), *extra, "--json-out", "-"]
                argv += [] if max_n is None else ["--max-n", str(max_n)]
                assert main(argv) == 0, (n, command, max_n)
                out = capsys.readouterr()
                assert out.err == "", (n, command, max_n)
                body = json.loads(out.out)["body"]
                checks = {k: body.pop(k) for k in exhaustive_fields[command] if k in body}
                if n <= min(max_n or 12, 20):
                    assert checks == dict.fromkeys(exhaustive_fields[command], True)
                else:
                    assert set(checks) <= {"same_null_sets", "complete_lattice_verified"}
                    assert all(v is None for v in checks.values()), (n, command, max_n)
                answers.append(body)
            assert all(body == answers[0] for body in answers), (n, command)
            body = answers[0]
            if command == "density":
                assert body["found"] is True
                assert body["density"] == {a: str(Fraction(i % 3, 1 + i % 4))
                                           for i, a in enumerate(atoms)}
                assert body["finitized_density"] == body["density"]  # c ⊙ 1_F, c finite
            if command == "diagnose":
                diagnosis = body["diagnosis"]
                assert diagnosis["rn_property"] is diagnosis["semi_finite"] is False
                assert diagnosis["sigma_odot_finite"] is False
                assert diagnosis["spots"]["atom_spots"] == ["x5"]


@pytest.mark.parametrize("kind", ["directory", "missing", "not-utf8"])
def test_unreadable_space_file_is_a_located_issue(tmp_path, capsys, kind):
    if kind == "directory":
        path, cause = tmp_path, "Is a directory"
    elif kind == "missing":
        path, cause = tmp_path / "missing.json", "No such file or directory"
    else:
        path, cause = tmp_path / "latin1.json", "not UTF-8 text"
        path.write_bytes('{"space": {"atoms": ["é"]}}'.encode("latin-1"))
    rc = main(["quotient", "--space-file", str(path), "--tau", "tau"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid spec document:" in err
    assert f"{path}: cannot read the file: {cause}" in err
    assert "Traceback" not in err and "not valid JSON" not in err


def test_one_parser_serves_every_call(doc_path, capsys):
    import maxitive.cli as cli_module
    assert cli_module._build_parser() is cli_module._build_parser()
    argvs = [
        ["quotient", "--space-file", doc_path, "--tau", "tau", "--json-out", "-"],
        ["validate-op", "--op", "min", "--seed", "3"],
        ["diagnose", "--space-file", doc_path, "--tau", "inf_sharp", "--fatal-verdicts"],
        ["density", "--space-file", doc_path, "--nu", "nu"],  # argparse: --tau missing
        ["integrate", "--space-file", doc_path, "--measure", "nu", "--function", "f",
         "--subset", "a,b"],
        ["quotient", "--space-file", doc_path, "--tau", "nu", "--max-n", "2"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    shared = [run(argv) for argv in argvs]
    assert [code for code, _, _ in shared] == [0, 0, 4, 2, 0, 0]
    fresh = []
    for argv in argvs:
        cli_module._build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh


def run_module(*argv):
    """``python -m maxitive`` in a fresh process, bounded in time."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "maxitive", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = run_module("validate-op", "--op", "times")
    assert proc.returncode == 0, proc.stderr
    assert "passed: yes" in proc.stdout
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"space": {"atoms": ["a"]}, "measures": {"tau": {"a": "-1"}}}))
    proc = run_module("diagnose", "--space-file", str(bad), "--tau", "tau")
    assert proc.returncode == 2, proc.stderr
    assert "invalid spec document" in proc.stderr


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Both cost a fresh process set-up time before any work.  -S skips
    # `site`, whose .pth files may import either module themselves; -I
    # ignores PYTHONPATH, so the probe puts src on sys.path itself, and
    # PYTHONDONTWRITEBYTECODE, so -B keeps the probe from writing any.
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
             "import maxitive, maxitive.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
