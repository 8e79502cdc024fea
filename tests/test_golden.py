"""Committed `validate-op` reports, compared byte for byte.

Each case is one `maxitive validate-op ... --json-out -` command; its
stdout is kept in `tests/golden/<case>.json`.  The chains are read from
the spec documents beside them.  A change to the validator that is
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

CASES = {
    **{f"times-seed{seed}": ["--op", "times", "--seed", str(seed)] for seed in (0, 3, 7)},
    **{f"min-seed{seed}": ["--op", "min", "--seed", str(seed)] for seed in (0, 3, 7)},
    "clamped-chain": ["--space-file", "clamped_chain.spec.json"],
    "nonassociative-chain": ["--space-file", "nonassociative_chain.spec.json"],
}


def run_case(name: str) -> tuple:
    """``(exit code, stdout)`` of the case's command."""
    args = [str(GOLDEN / a) if a.endswith(".spec.json") else a for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["validate-op", *args, "--json-out", "-"])
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
