"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs one pass of every workload with all checks on and requires no
failed operation.  Then injects wrong answers, each of which must be
counted as exactly one failed, wrong operation:

* a solved density perturbed on one atom (roundtrip-n10);
* a wrong expected integral (atomwise-n10);
* a CLI report with one value changed (cli-docs);

and a call that raises, which must be counted as failed but not wrong.
Last, two traced passes of atomwise-n10 must print every per-layer
metric and give the same counts.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from fractions import Fraction

import reference as ref
import run as bench
import workloads
from tracing import PER_LAYER, Tracer

SEED = 1


def prepare(name: str, workdir, traced: bool = False):
    mx, ops, _ = bench.set_up(name, SEED, workdir, traced)
    for op in ops:
        op.expected = op.reference()
    return mx, ops


def find(ops, name: str):
    return next(op for op in ops if op.name == name)


def one_op(op) -> bench.Tally:
    tally = bench.Tally()
    bench.run_pass([op], tally)
    return tally


def perturb_density(mx, op) -> None:
    call = op.call

    def perturbed():
        nu, result, accepted = call()
        density = result.density
        label = next(a for a in density.space.atoms if density(a).is_finite)
        bumped = density.with_value(label, ref.show(ref.parse(str(density(label))) + 1))
        return nu, mx.DensityResult(bumped), accepted
    op.call = perturbed


def change_report(op) -> None:
    call = op.call

    def changed():
        code, stdout, stderr = call()
        report = json.loads(stdout)
        report["body"]["class_count"] += 1
        return code, json.dumps(report), stderr
    op.call = changed


def raising(op) -> None:
    def call():
        raise RuntimeError("injected failure")
    op.call = call


def traced_counts(ops):
    tracer = Tracer()
    tracer.install_spans()
    try:
        bench.run_pass(ops, bench.Tally(), tracer)
    finally:
        tracer.restore()
    tracer.install_counts()
    try:
        bench.run_pass(ops, bench.Tally(), tracer)
    finally:
        tracer.restore()
    metrics = tracer.metrics(0.0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}, metrics


def main() -> int:
    if not (bench.SRC / "maxitive" / "__init__.py").is_file():
        print(f"error: no package at {bench.SRC / 'maxitive'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    results = []

    def expect(what: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}" + (f" ({detail})" if detail else ""))

    bench.RUNS.mkdir(exist_ok=True)
    workdir = bench.RUNS / f"selftest-{os.getpid()}"
    try:
        built = {}
        for name in workloads.WORKLOADS:
            mx, ops = prepare(name, workdir / name)
            built[name] = (mx, ops)
            tally = bench.Tally()
            bench.run_pass(ops, tally)
            calls = sum(op.repeats for op in ops)
            expect(f"{name}: one pass of {calls} calls, none failed",
                   tally.attempted == calls and tally.failed == 0,
                   "; ".join(tally.problems[:3]))

        injections = []
        mx, ops = built["roundtrip-n10"]
        op = find(ops, "times/roundtrip")
        perturb_density(mx, op)
        injections.append(("density perturbed on one atom", op, True))

        mx, ops = built["atomwise-n10"]
        op = find(ops, "times/integrate-threshold")
        op.expected = Fraction(0) if op.expected == ref.INF else op.expected + 1
        injections.append(("wrong expected integral", op, True))
        op = find(ops, "min/solve-dominated")
        raising(op)
        injections.append(("call that raises", op, False))

        mx, ops = built["cli-docs"]
        op = find(ops, "times-12/quotient")
        change_report(op)
        injections.append(("CLI report with one value changed", op, True))

        for what, op, wrong in injections:
            tally = one_op(op)
            n = op.repeats
            expect(f"injected {what} counted as failed, once per call",
                   (tally.attempted, tally.failed, tally.wrong) == (n, n, n * wrong),
                   f"attempted {tally.attempted}, failed {tally.failed}, wrong {tally.wrong}")

        # Last, since the traced set-up changes ∞'s hash under objects built before.
        mx, ops = prepare("atomwise-n10", workdir / "trace", traced=True)
        first, metrics = traced_counts(ops)
        second, _ = traced_counts(ops)
        names = [name for name, _ in PER_LAYER]
        expect("traced pass prints every per-layer metric", list(metrics) == names)
        expect("per-layer counts repeat exactly", first == second)
        expect("per-layer counts are nonzero where atomwise-n10 works",
               all(first[k] > 0 for k in ("pseudomul.omul.calls", "extreal.compare.calls",
                                          "measure.table.calls", "spaces.subsetb.calls")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
