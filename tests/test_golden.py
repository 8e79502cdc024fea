"""Committed CLI reports, compared byte for byte.

Each case is one `maxitive <command> ... --json-out -` command; its
stdout is kept in `tests/golden/<case>.json`.  The cases run
`validate-op` on times, min and two chains, and `integrate` on times,
min and a chain over documents whose functions and measures take 0
and ∞.  The spec documents lie beside the reports.  A change that is
meant to change a report regenerates the files, and their diff shows
the change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from maxitive.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def _integrate(doc: str, op: str, function: str, subset=None) -> list:
    return ["integrate", "--space-file", doc, "--op", op, "--measure", "nu",
            "--function", function, *(["--subset", subset] if subset else [])]


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
}


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


if __name__ == "__main__":
    for case in CASES:
        code, text = run_case(case)
        if code:
            sys.exit(f"{case}: exit {code}")
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")
