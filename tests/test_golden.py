"""Committed CLI reports, compared byte for byte.

Each case is one `maxitive <command> ... --json-out -` command; its
stdout is kept in `tests/golden/<case>.json`.  The cases run
`validate-op` on times, min and two chains; `integrate`, `density` and
`diagnose` under times, min and the clamped chain over documents whose
functions and measures take 0 and ∞, and `diagnose` on a uninorm chain
whose image c ⊙ ∞ skips a value; `quotient`, `ideal-measures` and
`variation`, which take no ⊙, once per measure document; and every
`gallery` scenario, at seed 0 if it draws.  The spec documents lie beside the
reports, and the directory holds nothing else.  A change that is meant
to change a report regenerates the files, and their diff shows the
change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from maxitive.cli import main
from maxitive.gallery import GALLERY

GOLDEN = Path(__file__).resolve().parent / "golden"


def _integrate(doc: str, op: str, function: str, subset=None) -> list:
    return ["integrate", "--space-file", doc, "--op", op, "--measure", "nu",
            "--function", function, *(["--subset", subset] if subset else [])]


# The documents with measures tau and nu and an ideal I, by the name their
# measure-only cases carry, and the ⊙s each is read under.
_MEASURE_DOCS = {"measures": ("measures.spec.json", ("times", "min")),
                 "chain": ("chain_measures.spec.json", ("chain",))}


def _measures(doc: str, op, command: str, *extra) -> list:
    return [command, "--space-file", doc, *(["--op", op] if op else []), "--tau", "tau", *extra]


# The gallery scenarios that draw nothing, and so take no --seed.
_SEEDLESS = ("shilkret-counterexample", "claims-walkthrough")


CASES = {
    **{f"times-seed{seed}": ["validate-op", "--op", "times", "--seed", str(seed)]
       for seed in (0, 3, 7)},
    **{f"min-seed{seed}": ["validate-op", "--op", "min", "--seed", str(seed)]
       for seed in (0, 3, 7)},
    "clamped-chain": ["validate-op", "--space-file", "clamped_chain.spec.json"],
    "nonassociative-chain": ["validate-op", "--space-file", "nonassociative_chain.spec.json"],
    **{f"integrate-{op}-f": _integrate("integral.spec.json", op, "f") for op in ("times", "min")},
    **{f"integrate-{op}-g-bce": _integrate("integral.spec.json", op, "g", "b,c,e")
       for op in ("times", "min")},
    "integrate-chain-f": _integrate("chain_integral.spec.json", "chain", "f"),
    "integrate-chain-g-bcd": _integrate("chain_integral.spec.json", "chain", "g", "b,c,d"),
    **{f"{command}-{op}": _measures(doc, op, command, *extra)
       for doc, ops in _MEASURE_DOCS.values() for op in ops
       for command, extra in (("density", ["--nu", "nu"]), ("diagnose", []))},
    "density-times-finitize": _measures("measures.spec.json", "times", "density",
                                        "--nu", "nu", "--finitize"),
    **{f"{command}-{name}": _measures(doc, None, command, *extra)
       for name, (doc, _) in _MEASURE_DOCS.items()
       for command, extra in (("quotient", []), ("ideal-measures", ["--ideal", "I"]),
                              ("variation", []))},
    **{f"gallery-{scenario}": ["gallery", scenario,
                               *([] if scenario in _SEEDLESS else ["--seed", "0"])]
       for scenario in GALLERY},
    # c ⊙ ∞ skips 7 on this chain, so τ = {x: ∞} lacks the property though ⊙-finite
    "diagnose-uninorm-chain": ["diagnose", "--space-file", "uninorm_chain.spec.json",
                               "--tau", "tau"],
}


def spec_documents(name: str) -> list:
    """The spec documents the case's command reads."""
    return [a for a in CASES[name] if a.endswith(".spec.json")]


def run_case(name: str) -> tuple:
    """``(exit code, stdout)`` of the case's command."""
    args = [str(GOLDEN / a) if a.endswith(".spec.json") else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main([*args, "--json-out", "-"])
    return rc, out.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_the_report_equals_the_committed_one(name):
    rc, out = run_case(name)
    assert rc == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_every_golden_file_belongs_to_a_case():
    expected = {f"{name}.json" for name in CASES}
    expected.update(doc for name in CASES for doc in spec_documents(name))
    assert {p.name for p in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    for case in CASES:
        code, text = run_case(case)
        if code:
            sys.exit(f"{case}: exit {code}")
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
