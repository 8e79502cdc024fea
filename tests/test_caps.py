"""One place for size caps.

Every cap is fixed: check_fixed_cap refuses past it, and no argument or
option moves it.  within_cap only decides whether a cross-check runs,
by the CLI's --max-n taken at most ENUM_CAP, and only the CLI calls it:
each library function is a closed form or a cross-check, and none
decides whether to check itself.  The static guards keep it so:
ENUM_CAP is read only in spaces.py, no other function has a ``limit``
or ``cross_check`` parameter, within_cap is called only in cli.py,
check_enum_cap only by the three enumerators (SubsetB.subsets,
MaxMeasure.table and threshold_sweep), cli.py reads nothing from
bytetable, and SizeCapError takes only its message.
"""

import ast
from pathlib import Path

import pytest

from maxitive import (
    INF,
    ONE,
    DiscreteChain,
    ExtNonneg,
    MaxMeasure,
    QuotientClass,
    SigmaIdeal,
    Space,
    build_quotient,
    check_maxitive_bruteforce,
    disjoint_variation,
    disjoint_variation_bruteforce,
    enumerate_quotient_sigma_ideals,
    is_abs_continuous_exhaustive,
    same_null_sets,
    semi_odot_finite_bruteforce,
    verify_lattice_complete,
)
from maxitive.errors import SizeCapError
from maxitive.spaces import (
    CHAIN_CARRIER_CAP,
    ENUM_CAP,
    MAXITIVE_ORACLE_CAP,
    PARTITION_ORACLE_CAP,
    SEMI_FINITE_ORACLE_CAP,
    SIGMA_IDEAL_ENUM_CAP,
    check_enum_cap,
    check_fixed_cap,
    within_cap,
)
from maxitive.specdoc import parse_spec

from conftest import CountingTimes, min_chain

SRC = Path(__file__).resolve().parent.parent / "src" / "maxitive"


def test_within_cap_takes_the_limit_at_most_the_ceiling():
    assert within_cap(0, 0) and not within_cap(1, 0)
    assert within_cap(12, 12) and not within_cap(13, 12)
    assert within_cap(ENUM_CAP, ENUM_CAP + 5) and not within_cap(ENUM_CAP + 1, ENUM_CAP + 5)


def test_check_fixed_cap_refuses_exactly_past_the_cap():
    check_fixed_cap(5, 5, "probes")
    with pytest.raises(SizeCapError, match="^6 probes exceed the cap of 5$"):
        check_fixed_cap(6, 5, "probes")
    for size in range(ENUM_CAP + 3):  # the enumeration cap is one such cap
        if size <= ENUM_CAP:
            check_enum_cap(size)
            continue
        with pytest.raises(SizeCapError, match=f"^{size} atoms exceed the cap of {ENUM_CAP}$"):
            check_enum_cap(size)


def constant(n):
    return MaxMeasure.constant(Space([f"x{i}" for i in range(n)]), ONE)


def test_each_oracle_refuses_one_atom_past_its_cap():
    # each brute-force oracle checks its own fixed cap, before any ⊙ call
    pm = CountingTimes()
    refusals = [
        (SEMI_FINITE_ORACLE_CAP, lambda mu: semi_odot_finite_bruteforce(pm, mu)),
        (MAXITIVE_ORACLE_CAP, lambda mu: check_maxitive_bruteforce(mu.table())),
        (PARTITION_ORACLE_CAP, lambda mu: disjoint_variation_bruteforce(mu, mu.space.full)),
    ]
    for cap, oracle in refusals:
        with pytest.raises(SizeCapError, match=f"^{cap + 1} atoms exceed the cap of {cap}$"):
            oracle(constant(cap + 1))
    assert pm.calls == 0
    at_cap = [oracle(constant(cap)) for cap, oracle in refusals]
    assert at_cap == [True, True, ExtNonneg(PARTITION_ORACLE_CAP)]
    tau = constant(SIGMA_IDEAL_ENUM_CAP + 1)
    with pytest.raises(SizeCapError, match="^6 non-null atoms exceed the cap of 5$"):
        enumerate_quotient_sigma_ideals(build_quotient(tau))


def test_whole_powerset_checks_refuse_only_past_the_enumeration_cap():
    # no whole-powerset check has a cap of its own: each refuses at ENUM_CAP,
    # the exhaustive ⊙ check before any ⊙ call, and runs at ENUM_CAP itself
    pm = CountingTimes()
    checks = [
        lambda mu: is_abs_continuous_exhaustive(pm, mu, mu),
        lambda mu: verify_lattice_complete(build_quotient(mu)),
        lambda mu: same_null_sets(mu, disjoint_variation(mu)),
    ]
    enumerators = [
        lambda mu: mu.space.subsets(),
        lambda mu: SigmaIdeal.full(mu.space).members(),
        lambda mu: build_quotient(mu).classes(),
    ]
    beyond, at_cap = constant(ENUM_CAP + 1), constant(ENUM_CAP)
    for call in checks + [lambda mu: next(e(mu)) for e in enumerators]:
        with pytest.raises(SizeCapError, match="^21 atoms exceed the cap of 20$"):
            call(beyond)
    assert pm.calls == 0
    assert [check(at_cap) for check in checks] == [True, True, True]
    empty = at_cap.space.empty
    assert [next(e(at_cap)) for e in enumerators] == [empty, empty, QuotientClass(at_cap, empty)]


class UnreadTable:
    """A chain table that fails the test when anything reads it."""

    def __iter__(self):
        raise AssertionError("the table was read")


def test_a_chain_carrier_past_the_cap_is_refused_before_its_table_is_read():
    carrier = min_chain(CHAIN_CARRIER_CAP + 1)[0]
    message = "^257 chain carrier elements exceed the cap of 256$"
    with pytest.raises(SizeCapError, match=message):
        DiscreteChain(carrier, UnreadTable(), INF)
    with pytest.raises(AssertionError, match="the table was read"):  # at the cap it is read
        DiscreteChain(min_chain(CHAIN_CARRIER_CAP)[0], UnreadTable(), INF)
    names = [str(c) for c in carrier]
    doc = {"space": {"atoms": ["x"]},
           "pseudo_mul": {"chain": {"carrier": names, "table": "never read", "identity": "inf"}}}
    with pytest.raises(SizeCapError, match=message):
        parse_spec(doc)


def test_a_clamped_chain_past_the_cap_builds_no_row(monkeypatch):
    def unbuilt(a, b):
        raise AssertionError("a row was built")
    monkeypatch.setattr(ExtNonneg, "__mul__", unbuilt)
    with pytest.raises(SizeCapError, match="^257 chain carrier elements exceed the cap of 256$"):
        DiscreteChain.clamped_product(range(CHAIN_CARRIER_CAP + 1))
    with pytest.raises(AssertionError, match="a row was built"):
        DiscreteChain.clamped_product(range(CHAIN_CARRIER_CAP))


def _names(node) -> set:
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes
            if isinstance(n, (ast.Name, ast.Attribute))}


def enum_cap_reads(path: Path) -> list:
    """The line of each read of ENUM_CAP in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load) and "ENUM_CAP" in _names(node))


def test_enum_cap_is_read_only_in_spaces():
    reads = {path.name: enum_cap_reads(path) for path in sorted(SRC.glob("*.py"))}
    assert reads.pop("spaces.py")
    assert {name: found for name, found in reads.items() if found} == {}


def test_cap_guard_sees_a_read(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def f(n, limit):\n"
                    "    try:\n"
                    "        return n <= min(limit, spaces.ENUM_CAP)\n"
                    "    except (ValueError, SizeCapError):\n"
                    "        return ENUM_CAP\n", encoding="utf-8")
    assert enum_cap_reads(path) == [3, 5]


def parameter_owners(path: Path, parameter: str) -> list:
    """The name of each function in ``path`` with a parameter ``parameter``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and parameter in {a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                                    *node.args.kwonlyargs)})


def test_only_the_skip_bounds_take_a_limit():
    # a limit only chooses whether a check runs; no function refuses by one
    found = {name for path in SRC.glob("*.py") for name in parameter_owners(path, "limit")}
    assert found == {"within_cap"}


def test_no_function_chooses_whether_to_cross_check_itself():
    assert [name for path in SRC.glob("*.py")
            for name in parameter_owners(path, "cross_check")] == []


def callers(path: Path, name: str) -> list:
    """The line of each call of ``name`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and name in _names(node.func))


def test_only_the_cli_gates_a_cross_check():
    calls = {path.name: callers(path, "within_cap") for path in sorted(SRC.glob("*.py"))}
    assert calls.pop("cli.py")
    assert {name: found for name, found in calls.items() if found} == {}


def enclosing_callers(path: Path, name: str) -> list:
    """The name of each function in ``path`` whose body calls ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(isinstance(call, ast.Call) and name in _names(call.func)
                          for call in ast.walk(node)))


def test_three_enumerators_check_the_enumeration_cap():
    # every other whole-powerset scan reaches the cap through one of them
    found = sorted((path.name, caller) for path in SRC.glob("*.py")
                   for caller in enclosing_callers(path, "check_enum_cap"))
    assert found == [("integral.py", "threshold_sweep"), ("measure.py", "table"),
                     ("spaces.py", "subsets")]  # SubsetB's, not Space's


def bytetable_imports(path: Path) -> list:
    """The line of each import from the bytetable module in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and "bytetable" in ".".join([getattr(node, "module", None) or "",
                                               *(a.name for a in node.names)]).split("."))


def test_the_cli_reads_no_byte_table_format():
    assert bytetable_imports(SRC / "cli.py") == []
    assert bytetable_imports(SRC / "quotient.py")  # the guard sees an import


def test_cross_check_guards_see_what_they_look_for(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import bytetable\n"
                    "def f(x, cross_check=False):\n"
                    "    return spaces.within_cap(x, 12) or within_cap(x, 3)\n"
                    "import maxitive.bytetable as b\n"
                    "from .bytetable import NONZERO\n", encoding="utf-8")
    assert parameter_owners(path, "cross_check") == ["f"]
    assert callers(path, "within_cap") == [3, 3]
    assert enclosing_callers(path, "within_cap") == ["f"]
    assert bytetable_imports(path) == [1, 4, 5]


def test_size_cap_error_takes_only_its_message():
    with pytest.raises(TypeError):
        SizeCapError("probe", needed=21)
    raised = [node for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call) and "SizeCapError" in _names(node.func)]
    assert raised and all(len(call.args) == 1 and not call.keywords for call in raised)
