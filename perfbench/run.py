"""Benchmark of the maxitive package: fixed workloads, every output checked.

    python3 perfbench/run.py --workload roundtrip-n10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30     # every workload, one process each

Run from the root of a checkout; the package is imported from ./src.
A run builds the workload from the seed (that is set-up), then repeats
the workload's fixed list of operations in whole passes until --seconds
have elapsed, checking each output against the benchmark's own
arithmetic.  With --trace 1 it instead runs one plain pass, one pass
with spans and one with hot-call counts, and prints per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Each run also writes a record with its environment under
perfbench/runs/.  The exit code is 0 when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_PROBES = 6
END_TO_END_UNITS = (("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
                    ("cpu_ms_per_op", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class Tally:
    """Calls attempted and failed, and the times of the checked ones.

    Times are kept per operation (its index in the pass), at reference
    speed (see speed.py).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.wall_ns = {}
        self.cpu_ns = {}
        self.raw_wall_ns = 0
        self.kernel_ns = []
        self.problems = []

    def fail(self, op, problem: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 20:
            self.problems.append(f"{op.name}: {problem}")

    def settle(self, done: list, meter) -> float:
        """Record the pass's checked calls at reference speed; returns their sum in ns."""
        self.kernel_ns += [sample[3] for sample in meter.samples]
        total = 0.0
        for index, start, wall, cpu in done:
            wall, cpu = meter.scale(start, wall, cpu)
            self.wall_ns.setdefault(index, []).append(wall)
            self.cpu_ns.setdefault(index, []).append(cpu)
            total += wall
        return total


def call_and_check(op, tally: Tally, tracer, index: int):
    """One timed call and its check; (start ns, wall ns, cpu ns) when the output is right."""
    tally.attempted += 1
    error = out = None
    if tracer is not None:
        tracer.op_id = index
        tracer.active = True
    cpu0 = time.process_time_ns()
    wall0 = time.perf_counter_ns()
    try:
        out = op.call()
    except Exception:  # a failing call is counted, and the run goes on
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter_ns() - wall0
    cpu = time.process_time_ns() - cpu0
    if tracer is not None:
        tracer.active = False
    tally.raw_wall_ns += wall
    if error is not None:
        tally.fail(op, "raised " + error, wrong=False)
        return None
    try:
        problem = op.check(op.expected, out)
    except Exception:  # a malformed output is a wrong answer
        problem = "check raised " + traceback.format_exc(limit=3)
    if problem:
        tally.fail(op, problem, wrong=True)
        return None
    return wall0, wall, cpu


def run_pass(ops, tally: Tally, tracer=None) -> float:
    """Every operation its ``repeats`` times in a row, each call timed alone and checked.

    Returns the pass's time of checked calls at reference speed, in ns.
    """
    done = []
    with speed.Speedometer() as meter:
        for index, op in enumerate(ops):
            for _ in range(op.repeats):
                sample = call_and_check(op, tally, tracer, index)
                if sample is not None:
                    done.append((index,) + sample)
    return tally.settle(done, meter)


def percentile(sorted_values, q: float):
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(name: str, seed: int, workdir: Path, traced: bool = False):
    """Import the package and build the workload's inputs: the timed set-up.

    Returns the package, the operations and the set-up time in seconds,
    at reference speed and as measured.  The kernel's median over eight
    runs just before and eight just after scales it, in this process.
    """
    before = speed.kernel_median_ns()
    start = time.perf_counter_ns()
    mx = importlib.import_module("maxitive")
    importlib.import_module("maxitive.cli")
    if traced:
        tracing.stabilize_inf_hash(mx)
    ops = workloads.build(name, mx, seed, workdir)
    raw = time.perf_counter_ns() - start
    kernel = (before + speed.kernel_median_ns()) / 2
    return mx, ops, [raw * speed.REFERENCE_NS / kernel / 1e9, raw / 1e9]


def setup_probe(name: str, seed: int) -> list:
    """The set-up time of a fresh process, scaled and measured (its interpreter start excluded)."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(tally: Tally, ops, tail: int, setup: list) -> dict:
    """The metrics of one pass, from the run's scaled times.

    Throughput and CPU time use each operation's median over its calls,
    weighted by its calls a pass; the percentiles are over every call.
    Set-up is the median of the set-ups at reference speed.
    """
    calls = times = cpu = 0
    for index, samples in tally.wall_ns.items():
        repeats = ops[index].repeats
        calls += repeats
        times += repeats * statistics.median(samples)
        cpu += repeats * statistics.median(tally.cpu_ns[index])
    pooled = sorted(x for samples in tally.wall_ns.values() for x in samples)
    values = {
        "ops_per_s": calls / (times / 1e9) if calls else 0.0,
        "op_ms_p50": percentile(pooled, 50) / 1e6 if calls else 0.0,
        "op_ms_tail": percentile(pooled, tail) / 1e6 if calls else 0.0,
        "cpu_ms_per_op": cpu / calls / 1e6 if calls else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(scaled for scaled, _ in setup),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS}


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = git / ref_name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package's sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "maxitive").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "node": platform.node(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure(args, ops, tally: Tally, first_setup: list) -> tuple:
    """Whole passes until --seconds have elapsed; the end-to-end metrics.

    Set-up is probed in fresh processes spread over the run, so that its
    median spans the machine's slow and fast phases.
    """
    setup = [first_setup]
    due = [k * args.seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
    gc.collect()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        while due and time.perf_counter() - start >= due[0]:
            setup.append(setup_probe(args.workload, args.seed))
            due.pop(0)
        run_pass(ops, tally)
        passes += 1
    setup += [setup_probe(args.workload, args.seed) for _ in due]
    tail = workloads.WORKLOADS[args.workload].tail
    pooled = sorted(x for samples in tally.wall_ns.values() for x in samples)
    calls = sum(len(samples) for samples in tally.wall_ns.values())
    return end_to_end(tally, ops, tail, setup), {
        "passes": passes, "tail_percentile": tail, "setup_s_scaled_and_measured": setup,
        "measured_ops_per_s": calls / (tally.raw_wall_ns / 1e9),
        "kernel_ms_median": statistics.median(tally.kernel_ns) / 1e6,
        "call_ms_percentiles": {q: percentile(pooled, q) / 1e6 for q in range(50, 100, 2)},
    }


def run_workload(args) -> int:
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{os.getpid()}"
    try:
        mx, ops, first_setup = set_up(args.workload, args.seed, workdir, bool(args.trace))
        if args.setup_only:
            print(json.dumps(first_setup))
            return 0
        for op in ops:
            op.expected = op.reference()
        tally = Tally()
        if args.trace:
            metrics, details = traced(ops, tally, args)
        else:
            metrics, details = measure(args, ops, tally, first_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    by_name = {}
    for index, samples in tally.wall_ns.items():
        by_name.setdefault(ops[index].name, []).extend(samples)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "calls_per_pass": sum(op.repeats for op in ops),
              **details, "environment": environment(), "result": result,
              "problems": tally.problems,
              "op_ms_median": {k: statistics.median(v) / 1e6 for k, v in sorted(by_name.items())}}
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in tally.problems:
        print("FAILED", problem, file=sys.stderr)
    print(f"workload {args.workload}: attempted {tally.attempted}, failed {tally.failed}")
    for metric, m in metrics.items():
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {metric:40s} {shown} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def traced(ops, tally: Tally, args):
    """One plain pass, one with spans and one with counts; the per-layer metrics."""
    gc.collect()
    plain_ns = run_pass(ops, tally)
    tracer = tracing.Tracer()
    tracer.install_spans()
    try:
        gc.collect()
        spanned_ns = run_pass(ops, tally, tracer)
    finally:
        tracer.restore()
    tracer.install_counts()
    try:
        run_pass(ops, tally, tracer)
    finally:
        tracer.restore()
    path = RUNS / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
    tracer.write_spans(path)
    return tracer.metrics((spanned_ns - plain_ns) / 1e9), {
        "passes": 3, "spans_file": path.name,
        "plain_pass_s": plain_ns / 1e9, "spanned_pass_s": spanned_ns / 1e9}


def run_all(args) -> int:
    """Every workload in a process of its own, with a summary table."""
    results = {}
    worst = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        worst = max(worst, proc.returncode)
    print(json.dumps(results))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="the workload to run (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat whole passes (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "maxitive" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'maxitive'}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
