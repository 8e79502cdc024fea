"""One place for size caps.

within_cap decides whether an enumeration over n atoms is allowed: a
caller's limit (the CLI's --max-n) taken at most ENUM_CAP.  check_cap
refuses by the same decision.  The static guard keeps the decision in
spaces.py: elsewhere in the package ENUM_CAP is read only by the CLI's
hint for a SizeCapError.
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
    Space,
    build_quotient,
    disjoint_variation_bruteforce,
    enumerate_quotient_sigma_ideals,
)
from maxitive.errors import SizeCapError
from maxitive.spaces import (
    CHAIN_CARRIER_CAP,
    ENUM_CAP,
    PARTITION_ORACLE_CAP,
    SIGMA_IDEAL_ENUM_CAP,
    check_cap,
    check_fixed_cap,
    within_cap,
)
from maxitive.specdoc import parse_spec

from conftest import min_chain

SRC = Path(__file__).resolve().parent.parent / "src" / "maxitive"


def test_within_cap_takes_the_limit_at_most_the_ceiling():
    assert within_cap(ENUM_CAP, None) and not within_cap(ENUM_CAP + 1, None)
    assert within_cap(12, 12) and not within_cap(13, 12)
    assert within_cap(ENUM_CAP, ENUM_CAP + 5) and not within_cap(ENUM_CAP + 1, ENUM_CAP + 5)


def test_check_cap_refuses_exactly_outside_the_cap():
    for size in range(ENUM_CAP + 3):
        for limit in (None, 0, 5, ENUM_CAP, ENUM_CAP + 5):
            if within_cap(size, limit):
                check_cap(size, limit, "probe")
                continue
            cap = ENUM_CAP if limit is None else min(limit, ENUM_CAP)
            with pytest.raises(SizeCapError, match=f"probe exceeds the cap of {cap}$") as err:
                check_cap(size, limit, "probe")
            assert err.value.needed == size


def test_the_partition_oracle_refuses_through_check_cap():
    n = PARTITION_ORACLE_CAP + 1
    tau = MaxMeasure.constant(Space([f"x{i}" for i in range(n)]), ONE)
    with pytest.raises(SizeCapError, match=f"^partition enumeration exceeds the cap of "
                                           f"{PARTITION_ORACLE_CAP}$") as err:
        disjoint_variation_bruteforce(tau, tau.space.full)
    assert err.value.needed == n
    assert disjoint_variation_bruteforce(tau, tau.space.full, limit=n) == ExtNonneg(n)
    # the σ-ideal enumeration's cap is fixed: needed None says no limit lifts it
    assert build_quotient(tau).k > SIGMA_IDEAL_ENUM_CAP
    with pytest.raises(SizeCapError) as err:
        enumerate_quotient_sigma_ideals(build_quotient(tau))
    assert err.value.needed is None


def test_check_fixed_cap_refuses_exactly_past_the_cap():
    check_fixed_cap(5, 5, "probes")
    with pytest.raises(SizeCapError, match="^6 probes exceed the cap of 5$") as err:
        check_fixed_cap(6, 5, "probes")
    assert err.value.needed is None  # no argument lifts it


class UnreadTable:
    """A chain table that fails the test when anything reads it."""

    def __iter__(self):
        raise AssertionError("the table was read")


def test_a_chain_carrier_past_the_cap_is_refused_before_its_table_is_read():
    carrier = min_chain(CHAIN_CARRIER_CAP + 1)[0]
    message = "^257 chain carrier elements exceed the cap of 256$"
    with pytest.raises(SizeCapError, match=message) as err:
        DiscreteChain(carrier, UnreadTable(), INF)
    assert err.value.needed is None
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
    """``(line, in_hint)`` for each read of ENUM_CAP in ``path``; ``in_hint``
    when the read sits in an ``except SizeCapError`` handler."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_handler = {id(inner) for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler) and node.type is not None
                  and "SizeCapError" in _names(node.type)
                  for inner in ast.walk(node)}
    return sorted((node.lineno, id(node) in in_handler) for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute))
                  and isinstance(node.ctx, ast.Load) and "ENUM_CAP" in _names(node))


def test_enum_cap_is_read_only_by_the_cap_policy_and_the_cli_hint():
    reads = {path.name: enum_cap_reads(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "spaces.py"}
    cli = reads.pop("cli.py")
    assert cli and all(in_hint for _, in_hint in cli)
    assert {name: found for name, found in reads.items() if found} == {}


def test_cap_guard_sees_a_read(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("def f(n, limit):\n"
                    "    try:\n"
                    "        return n <= min(limit, spaces.ENUM_CAP)\n"
                    "    except (ValueError, SizeCapError):\n"
                    "        return ENUM_CAP\n", encoding="utf-8")
    assert enum_cap_reads(path) == [(3, False), (5, True)]
