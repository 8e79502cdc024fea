"""Every name the benchmark's tracer patches resolves in the package.

``perfbench/tracing.py`` wraps package functions and methods by name; a
renamed target would make a traced run raise AttributeError.  The tracer
imports only the standard library, so it is loaded here by path, read
only: nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_module(short: str):
    return importlib.import_module("maxitive." + short)


def test_every_span_target_resolves():
    tracing = load_tracing()
    for short, name in tracing.SPAN_FUNCTIONS:
        assert callable(getattr(package_module(short), name, None)), f"{short}.{name}"
    for short, cls_name, name in tracing.SPAN_METHODS:
        cls = getattr(package_module(short), cls_name)
        assert name in cls.__dict__, f"{short}.{cls_name}.{name}"


def test_every_counted_target_resolves():
    tracing = load_tracing()
    assert callable(package_module("measure").measure_eval)
    ext = package_module("extreal").ExtNonneg
    for name in ("__init__", *tracing.COMPARE_METHODS):
        assert name in ext.__dict__, f"ExtNonneg.{name}"
    assert "__init__" in package_module("spaces").SubsetB.__dict__
    pending, omul_owners = [package_module("pseudomul").PseudoMul], []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        omul = cls.__dict__.get("omul")
        if omul is not None and not getattr(omul, "__isabstractmethod__", False):
            omul_owners.append(cls.__module__)
    assert "maxitive.pseudomul" in omul_owners  # not only the tests' own subclasses
