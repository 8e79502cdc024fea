"""Per-layer tracing from outside the package, by patching its public names.

Two mechanisms, used in separate passes:

* spans: a wrapper around each public layer function records a span
  (operation id, span id, parent span id, name, start, end) and adds the
  span's self time (its duration minus its child spans) to the layer;
* counts: hot inner calls (⊙, ExtNonneg comparisons and constructions,
  SubsetB constructions, measure_eval) are only counted, since a span
  around each of them would inflate every enclosing span's time.

A function imported by name into other modules (``from .integral import
integrate_threshold`` in density.py) is replaced in every ``maxitive``
module that holds it, so calls between modules are seen.  Both
mechanisms record only while ``active`` is set, which the benchmark
does around each timed call and never around its checks.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, function) pairs traced with spans.
SPAN_FUNCTIONS = (
    ("cli", "main"),
    ("specdoc", "parse_spec"),
    ("density", "solve_density"),
    ("density", "verify_density"),
    ("density", "is_abs_continuous"),
    ("density", "diagnose_rn"),
    ("density", "finitize_density"),
    ("integral", "integrate_threshold"),
    ("integral", "integrate_atomwise"),
    ("integral", "integrate_oracle"),
    ("integral", "canonical_grid"),
    ("integral", "pushforward_measure"),
    ("measure", "check_maxitive"),
    ("measure", "is_semi_odot_finite"),
    ("quotient", "build_quotient"),
    ("quotient", "verify_lattice_complete"),
    ("quotient", "localize"),
    ("quotient", "nguyen_measure"),
    ("quotient", "ideal_restriction_measure"),
    ("quotient", "disjoint_variation"),
    ("pseudomul", "validate_pseudo_mul"),
)
# (module, class, method) triples traced with spans.
SPAN_METHODS = (
    ("measure", "MaxMeasure", "table"),
    ("report", "Report", "render"),
    ("report", "Report", "to_json"),
)
COMPARE_METHODS = ("__lt__", "__le__", "__gt__", "__ge__")

# The per-layer metrics, in the order they are printed.
PER_LAYER = (
    ("density.verify_density.ms", "ms"),
    ("density.verify_density.calls", "count"),
    ("integral.integrate_threshold.calls", "count"),
    ("integral.integrate_threshold.ms", "ms"),
    ("measure.measure_eval.calls", "count"),
    ("pseudomul.omul.calls", "count"),
    ("spaces.subsetb.calls", "count"),
    ("measure.table.ms", "ms"),
    ("measure.table.calls", "count"),
    ("extreal.compare.calls", "count"),
    ("extreal.new.calls", "count"),
    ("density.solve_density.ms", "ms"),
    ("density.is_abs_continuous.ms", "ms"),
    ("density.diagnose_rn.ms", "ms"),
    ("integral.integrate_atomwise.ms", "ms"),
    ("integral.integrate_oracle.ms", "ms"),
    ("integral.canonical_grid.ms", "ms"),
    ("quotient.build_quotient.ms", "ms"),
    ("quotient.verify_lattice_complete.ms", "ms"),
    ("quotient.verify_lattice_complete.calls", "count"),
    ("quotient.localize.ms", "ms"),
    ("quotient.nguyen_measure.ms", "ms"),
    ("measure.check_maxitive.ms", "ms"),
    ("measure.is_semi_odot_finite.ms", "ms"),
    ("density.finitize_density.ms", "ms"),
    ("pseudomul.validate_pseudo_mul.ms", "ms"),
    ("specdoc.parse_spec.ms", "ms"),
    ("report.render.ms", "ms"),
    ("report.to_json.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_s", "s"),
)


def stabilize_inf_hash(mx) -> None:
    """Give ∞ the same hash in every process; call before building inputs.

    ExtNonneg hashes ∞ as hash(None), which CPython before 3.12 derives
    from None's address, so it differs between processes.  A set that
    holds ∞ then iterates in another order, sorting it takes another
    number of comparisons, and extreal.compare.calls would not repeat
    between runs.  ∞ equals only itself, so any fixed hash stays
    consistent with equality.
    """
    ext = mx.ExtNonneg
    original = ext.__hash__
    inf_hash = hash(float("inf"))

    def __hash__(self):
        return inf_hash if self.is_inf else original(self)
    ext.__hash__ = __hash__


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "maxitive" or name.startswith("maxitive."))]


class Tracer:
    """Patches the package in place; ``restore`` undoes every patch."""

    def __init__(self):
        self.active = False
        self.op_id = 0
        self.spans = []
        self.self_ns = defaultdict(int)
        self.span_calls = Counter()
        self.hot_calls = Counter()
        self._stack = []
        self._next_id = 0
        self._in_compare = False
        self._undo = []

    # -- patching ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, name, make) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make(original))
        self._undo.append((cls, name, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def module(self, short: str):
        return sys.modules["maxitive." + short]

    # -- spans ---------------------------------------------------------

    def _span(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                duration = end - start
                self.self_ns[key] += duration - frame[1]
                self.span_calls[key] += 1
                if parent is not None:
                    parent[1] += duration
                self.spans.append((self.op_id, span_id, parent[0] if parent else None,
                                   key, start, end))
        return wrapper

    def install_spans(self) -> None:
        for short, name in SPAN_FUNCTIONS:
            original = getattr(self.module(short), name)
            self._replace_everywhere(original, self._span(f"{short}.{name}", original))
        for short, cls_name, name in SPAN_METHODS:
            cls = getattr(self.module(short), cls_name)
            self._replace_method(cls, name,
                                 lambda fn, key=f"{short}.{name}": self._span(key, fn))

    # -- counts --------------------------------------------------------

    def _count(self, key: str, fn):
        calls = self.hot_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_compare(self, fn):
        # __gt__ and __ge__ delegate to __le__ and __lt__; count the
        # outermost comparison only.
        calls = self.hot_calls

        @functools.wraps(fn)
        def wrapper(a, b):
            if not self.active or self._in_compare:
                return fn(a, b)
            calls["extreal.compare"] += 1
            self._in_compare = True
            try:
                return fn(a, b)
            finally:
                self._in_compare = False
        return wrapper

    def install_counts(self) -> None:
        measure = self.module("measure")
        self._replace_everywhere(measure.measure_eval,
                                 self._count("measure.measure_eval", measure.measure_eval))
        ext = self.module("extreal").ExtNonneg
        for name in COMPARE_METHODS:
            self._replace_method(ext, name, self._count_compare)
        self._replace_method(ext, "__init__", lambda fn: self._count("extreal.new", fn))
        subset = self.module("spaces").SubsetB
        self._replace_method(subset, "__init__", lambda fn: self._count("spaces.subsetb", fn))
        pending = [self.module("pseudomul").PseudoMul]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "omul" in cls.__dict__ and not getattr(cls.__dict__["omul"],
                                                      "__isabstractmethod__", False):
                self._replace_method(cls, "omul", lambda fn: self._count("pseudomul.omul", fn))

    # -- results -------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead_s
            elif name.endswith(".self_ms") or name.endswith(".ms"):
                value = self.self_ns[name.rsplit(".", 1)[0]] / 1e6
            else:
                key = name.rsplit(".", 1)[0]
                value = self.span_calls[key] + self.hot_calls[key]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: op, span, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
