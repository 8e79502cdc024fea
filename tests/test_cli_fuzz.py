"""Hostile spec documents through cli.main, in-process, and a few through
``python -m maxitive`` with a timeout, which catches a hang.

Every data command must end in a report or a located refusal (exit 0, 2,
3 or 4), never in a traceback or an internal error (exit 1).
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxitive.cli import main
from maxitive.spaces import NUMBER_DIGITS_CAP

ATOMS = ["a", "b", "c"]
SECTIONS = ["space", "pseudo_mul", "measures", "functions", "ideals"]
CARRIER = ["0", "1", "2", "inf"]
TABLE = [["0", "0", "0", "0"], ["0", "1", "2", "inf"],
         ["0", "2", "2", "inf"], ["0", "inf", "inf", "inf"]]
COMMANDS = [
    ["integrate", "--measure", "tau", "--function", "f"],
    ["density", "--nu", "nu", "--tau", "tau", "--finitize"],
    ["diagnose", "--tau", "tau", "--fatal-verdicts"],
    ["quotient", "--tau", "tau"],
    ["ideal-measures", "--tau", "tau", "--ideal", "I"],
    ["variation", "--tau", "tau"],
    ["validate-op"],
]

GOOD = st.sampled_from(["0", "1", "2", "1/2", "3/4", "7", "inf"])
HOSTILE = st.one_of(
    st.text(alphabet="0123456789/.eE_+- \t\n٠١²１inf∞", max_size=8),
    st.sampled_from(["1/0", "0/0", "01/02", "1e5000", "9" * (NUMBER_DIGITS_CAP + 1),
                     " 7 ", "١/٢", "nan", "-1", "1/2/3"]))
LEAF = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.just(10 ** NUMBER_DIGITS_CAP),
                 st.floats(allow_nan=False), HOSTILE)
# Any JSON: leaves, and lists and objects of them, which no dict lookup takes.
ANY = st.one_of(LEAF, st.lists(LEAF, max_size=3), st.dictionaries(st.text(max_size=2), LEAF,
                                                                  max_size=2))
# A wrong section twice as often as each other fault.
FAULTS = ["section", "section", "value", "repeat", "key", "cell", "ideal"]


@st.composite
def documents(draw):
    """A valid document on three atoms with up to two faults in it."""
    def atom_map():
        return {a: draw(GOOD) for a in ATOMS}

    kind = draw(st.sampled_from(["times", "min", "chain"]))
    table = [row[:] for row in TABLE]
    doc = {
        "space": {"atoms": ATOMS},
        "pseudo_mul": {"chain": {"carrier": CARRIER, "table": table}} if kind == "chain" else kind,
        "measures": {"tau": atom_map(), "nu": atom_map()},
        "functions": {"f": atom_map()},
        "ideals": {"I": [["a"], ["b"]]},
    }
    maps = [doc["measures"]["tau"], doc["measures"]["nu"], doc["functions"]["f"]]
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        values = draw(st.sampled_from(maps))
        if fault == "section":
            doc[draw(st.sampled_from(SECTIONS))] = draw(st.one_of(ANY, st.lists(LEAF, min_size=1)))
        elif fault == "value":
            values[draw(st.sampled_from(ATOMS))] = draw(st.one_of(HOSTILE, ANY))
        elif fault == "repeat":  # one bad string at two atoms
            values["a"] = values["b"] = draw(HOSTILE)
        elif fault == "key":
            values.pop("c") if draw(st.booleans()) else values.update(z="1")
        elif fault == "cell":
            table[draw(st.integers(0, 3))][draw(st.integers(0, 3))] = draw(st.one_of(GOOD, ANY))
        else:
            generators = st.lists(st.one_of(st.sampled_from(ATOMS), ANY), max_size=3)
            doc["ideals"] = {"I": draw(st.one_of(st.lists(generators, max_size=2), ANY))}
    return doc


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=100, deadline=2000, derandomize=True)
@given(doc=documents())
def test_every_data_command_ends_in_a_report_or_a_located_refusal(doc_file, doc):
    doc_file.write_text(json.dumps(doc), encoding="utf-8")
    for command in COMMANDS:
        argv = [command[0], "--space-file", str(doc_file), *command[1:], "--json-out", "-"]
        assert run(argv) in (0, 2, 3, 4), argv


def hostile(**sections):
    """A valid chain document on three atoms with ``sections`` replaced."""
    masses = dict.fromkeys(ATOMS, "2")
    return {"space": {"atoms": ATOMS},
            "pseudo_mul": {"chain": {"carrier": CARRIER, "table": TABLE}},
            "measures": {"tau": masses, "nu": masses}, "functions": {"f": masses},
            "ideals": {"I": [["a"], ["b"]]}, **sections}


LONG = "9" * (NUMBER_DIGITS_CAP + 1)
# One document per kind of fault, each with a command that reads it.
IN_A_SUBPROCESS = [
    (COMMANDS[0], hostile(functions={"f": {"a": "1e100000000", "b": "1", "c": "2"}})),
    (COMMANDS[1], hostile(measures={"tau": {"a": LONG, "b": LONG, "c": "1"},
                                    "nu": {"a": "1", "b": "1", "c": "1"}})),
    (COMMANDS[2], hostile(measures={"tau": {"a": "1", "b": "2", "z": "1"}})),
    (COMMANDS[3], hostile(measures=["1e5000"])),
    (COMMANDS[4], hostile(ideals={"I": [[["a"]], [{"b": 1}]]})),
    (COMMANDS[6], hostile(pseudo_mul={"chain": {"carrier": CARRIER, "table": [
        ["0", "0", "0", "0"], ["0", "1", "1e5000", "inf"], ["0", "0/0", "2", "inf"],
        ["0", "inf", "inf", []]]}})),
]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("command, doc", IN_A_SUBPROCESS, ids=[c[0] for c, _ in IN_A_SUBPROCESS])
def test_a_hostile_document_ends_in_time_in_a_fresh_process(tmp_path, command, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "maxitive", command[0], "--space-file", str(path),
                           *command[1:], "--json-out", "-"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
