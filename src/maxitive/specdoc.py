"""Parsing and rendering of spec documents (the CLI exchange format).

A document is JSON with string-encoded exact rationals ("2", "1/3",
"0.25") or "inf"; raw JSON floats are rejected to keep the interface
drift-free.  Example::

    {
      "space": {"atoms": ["a", "b"]},
      "pseudo_mul": "times",
      "measures": {"tau": {"a": "2", "b": "inf"}},
      "functions": {"f": {"a": "1", "b": "2"}},
      "ideals": {"I": [["a"]]}
    }

``pseudo_mul`` is "times", "min", or {"chain": {"carrier": [...],
"table": [[...]], "identity": "1"}} (identity optional when the table
determines it).  Custom continuous operations are library-only.

Parsing collects every located problem and raises SpecValidationError
with the full list; rendering is canonical, so parse ∘ render ∘ parse
is the identity on valid documents.

A document is read in one pass.  Each parse_spec call keeps a memo from
number string to value, and only values enter it, so a bad string gets
an issue at every place it stands; no cache outlives the call.  A
chain's rows follow its carrier as written: the parser locates each
value and DiscreteChain, the one reader of the table, orders them.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .errors import SpecIssue, SpecValidationError
from .extreal import ExtNonneg
from .measure import MaxMeasure, MeasurableFn, SigmaIdeal
from .pseudomul import NAMED_OPERATIONS, DiscreteChain, PseudoMul
from .report import jsonable
from .spaces import CHAIN_CARRIER_CAP, NUMBER_DIGITS_CAP, Space, check_fixed_cap

__all__ = ["SpecDoc", "parse_spec", "load_spec"]


class SpecDoc:
    """A parsed document: its space, its ⊙ if it names one, and its named
    measures, functions and ideals (each a dict, fresh per document)."""

    def __init__(self, space: Space, pseudo_mul: Optional[PseudoMul] = None,
                 measures: Optional[dict] = None, functions: Optional[dict] = None,
                 ideals: Optional[dict] = None):
        self.space = space
        self.pseudo_mul = pseudo_mul
        self.measures = {} if measures is None else measures
        self.functions = {} if functions is None else functions
        self.ideals = {} if ideals is None else ideals

    def __repr__(self):
        return (f"SpecDoc(space={self.space!r}, pseudo_mul={self.pseudo_mul!r}, "
                f"measures={self.measures!r}, functions={self.functions!r}, "
                f"ideals={self.ideals!r})")

    def to_jsonable(self) -> dict:
        doc: dict = {"space": {"atoms": list(self.space.atoms)}}
        if self.pseudo_mul is not None:
            doc["pseudo_mul"] = _render_pm(self.pseudo_mul)
        if self.measures:
            doc["measures"] = jsonable(self.measures)
        if self.functions:
            doc["functions"] = jsonable(self.functions)
        if self.ideals:
            doc["ideals"] = {name: [sorted(g.labels) for g in (i.generators or (i.top,))]
                             for name, i in self.ideals.items()}
        return doc

    def render(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpecDoc):
            return NotImplemented
        return (self.space == other.space
                and _pm_equal(self.pseudo_mul, other.pseudo_mul)
                and self.measures == other.measures
                and self.functions == other.functions
                and self.ideals == other.ideals)


def _pm_equal(a: Optional[PseudoMul], b: Optional[PseudoMul]) -> bool:
    if a is None or b is None:
        return a is b
    return type(a) is type(b) and a.spec_form() == b.spec_form()


def _render_pm(pm: PseudoMul):
    form = pm.spec_form()
    if form is None:
        raise ValueError(f"{pm.describe()} has no file representation (library-only)")
    return form


# The least integer of more than NUMBER_DIGITS_CAP digits.
_LEAST_LONG_INT = 10 ** NUMBER_DIGITS_CAP


def _parse_mass(raw, memo: dict, issues: list, path: str, key=None) -> Optional[ExtNonneg]:
    """``raw`` as a value of [0, ∞], or None after a located issue at ``path``
    (``path.key`` when a key is given).  ``memo`` maps the number strings
    this document has read so far to their values; it keeps no failure, so
    a bad string is reported at every place it stands."""
    if type(raw) is str:
        value = memo.get(raw)
        if value is not None:
            return value
        try:
            value = memo[raw] = ExtNonneg(raw)
            return value
        except ValueError as exc:
            message = str(exc)
    elif isinstance(raw, float):
        message = f"float {raw!r} not allowed; use a string like \"1/3\""
    elif isinstance(raw, bool) or not isinstance(raw, (str, int)):
        message = f"expected a rational string or \"inf\", got {raw!r}"
    else:
        try:
            if isinstance(raw, int) and abs(raw) >= _LEAST_LONG_INT:
                raw = str(raw)  # refused by the string branch's length bound, with its message
            return ExtNonneg(raw)
        except (ValueError, TypeError) as exc:
            message = str(exc)
    issues.append(SpecIssue(path if key is None else f"{path}.{key}", message))
    return None


def _parse_atom_map(raw, space: Space, path: str, issues: list, memo: dict) -> Optional[tuple]:
    """The values of ``raw``, an object keyed by atom, as a tuple in atom order."""
    if not isinstance(raw, dict):
        issues.append(SpecIssue(path, "expected an object mapping atoms to values"))
        return None
    ok = True
    for atom in space.atoms:
        if atom not in raw:
            issues.append(SpecIssue(f"{path}.{atom}", "missing value for this atom"))
            ok = False
    positions = space.positions
    values = [None] * space.n
    for key, value in raw.items():
        i = positions.get(key)
        if i is None:
            issues.append(SpecIssue(f"{path}.{key}", "unknown atom"))
            ok = False
            continue
        v = _parse_mass(value, memo, issues, path, key)
        if v is None:
            ok = False
        else:
            values[i] = v
    return tuple(values) if ok else None


def _parse_chain(raw, path: str, issues: list, memo: dict) -> Optional[DiscreteChain]:
    """The chain ``raw`` describes, built from its values as written;
    DiscreteChain orders them.  Every bad carrier entry, row, cell and
    identity is reported; membership is checked once the whole carrier
    has parsed."""
    if not isinstance(raw, dict):
        issues.append(SpecIssue(path, "chain spec must be an object"))
        return None
    carrier_raw = raw.get("carrier")
    table_raw = raw.get("table")
    if not isinstance(carrier_raw, list) or not carrier_raw:
        issues.append(SpecIssue(f"{path}.carrier", "expected a nonempty list"))
        return None
    check_fixed_cap(len(carrier_raw), CHAIN_CARRIER_CAP, "chain carrier elements")
    start = len(issues)
    carrier = [_parse_mass(c, memo, issues, f"{path}.carrier[{i}]")
               for i, c in enumerate(carrier_raw)]
    parsed, members = len(issues) == start, set(carrier)
    if parsed and len(members) != len(carrier):
        issues.append(SpecIssue(f"{path}.carrier", "carrier elements must be distinct"))
        return None
    k = len(carrier)
    if not isinstance(table_raw, list) or len(table_raw) != k:
        issues.append(SpecIssue(
            f"{path}.table", f"expected {k} rows, got "
            f"{len(table_raw) if isinstance(table_raw, list) else type(table_raw).__name__}"))
        return None
    rows = []
    for i, row in enumerate(table_raw):
        if not isinstance(row, list) or len(row) != k:
            issues.append(SpecIssue(f"{path}.table[{i}]", f"expected {k} entries"))
            continue
        values = []
        for j, cell in enumerate(row):
            v = _parse_mass(cell, memo, issues, f"{path}.table[{i}][{j}]")
            if v is not None and parsed and v not in members:
                issues.append(SpecIssue(f"{path}.table[{i}][{j}]",
                                        f"value {v} is not a carrier element"))
            values.append(v)
        rows.append(values)
    identity_raw = raw.get("identity")
    identity = (None if identity_raw is None
                else _parse_mass(identity_raw, memo, issues, f"{path}.identity"))
    if len(issues) > start:
        return None
    if identity is None:
        # infer: the unique carrier element acting as a left identity
        candidates = [e for e, row in zip(carrier, rows) if row == carrier]
        if not candidates:
            issues.append(SpecIssue(path, "table has no left identity; give one explicitly"))
            return None
        if len(candidates) > 1:
            issues.append(SpecIssue(
                path, f"table has several left identities "
                      f"({', '.join(str(c) for c in sorted(candidates))}); give one explicitly"))
            return None
        identity = candidates[0]
    try:
        return DiscreteChain(carrier, rows, identity)
    except ValueError as exc:
        issues.append(SpecIssue(path, str(exc)))
        return None


def _parse_pseudo_mul(raw, path: str, issues: list, memo: dict) -> Optional[PseudoMul]:
    names = ", ".join(f'"{name}"' for name in NAMED_OPERATIONS)
    if isinstance(raw, str):
        if raw in NAMED_OPERATIONS:
            return NAMED_OPERATIONS[raw]()
        issues.append(SpecIssue(path, f"unknown pseudo-multiplication {raw!r} "
                                      f"(expected {names}, or a chain object)"))
        return None
    if isinstance(raw, dict) and set(raw) == {"chain"}:
        return _parse_chain(raw["chain"], f"{path}.chain", issues, memo)
    issues.append(SpecIssue(path, f"expected {names}, or {{\"chain\": {{...}}}}"))
    return None


def _section(data: dict, name: str, issues: list) -> dict:
    """The object under ``name``, {} when the section is absent; a section
    that is not an object is a located issue."""
    raw = data.get(name, {})
    if isinstance(raw, dict):
        return raw
    issues.append(SpecIssue(name, f"expected an object mapping names to {name}"))
    return {}


def _reject_duplicates(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):  # some key repeats: name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _read_file(path) -> str:
    """The UTF-8 text of the file at ``path``; an unreadable file is a located issue."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        cause = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        cause = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise SpecValidationError([SpecIssue(os.fspath(path), f"cannot read the file: {cause}")])


def _decode(text) -> dict:
    """The JSON object in ``text``; anything else is a located issue."""
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicates)
    except (ValueError, TypeError) as exc:
        raise SpecValidationError([SpecIssue("$", f"not valid JSON: {exc}")])
    if not isinstance(data, dict):
        raise SpecValidationError([SpecIssue("$", "document must be a JSON object")])
    return data


def parse_spec(source) -> SpecDoc:
    """Parse a spec document from a dict, JSON text, or file path.

    A str whose first non-blank character is "{" or "[" is JSON text;
    any other str, and any os.PathLike, names a file to read.  Returns a
    fully validated SpecDoc or raises SpecValidationError carrying every
    located issue; a chain carrier past its cap raises SizeCapError.
    """
    issues: list = []
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and not source.lstrip().startswith(("{", "["))):
        source = _read_file(source)
    data = source if isinstance(source, dict) else _decode(source)

    unknown = set(data) - {"space", "pseudo_mul", "measures", "functions", "ideals"}
    for key in sorted(unknown):
        issues.append(SpecIssue(key, "unknown section"))

    space_raw = data.get("space")
    space = None
    if not isinstance(space_raw, dict) or "atoms" not in space_raw:
        issues.append(SpecIssue("space", "expected {\"atoms\": [...]}"))
    else:
        atoms = space_raw["atoms"]
        if (not isinstance(atoms, list) or not atoms
                or not all(isinstance(a, str) and a for a in atoms)):
            issues.append(SpecIssue("space.atoms", "expected a nonempty list of labels"))
        elif len(set(atoms)) != len(atoms):
            issues.append(SpecIssue("space.atoms", "atom labels must be distinct"))
        else:
            space = Space(atoms)
    if space is None:
        raise SpecValidationError(issues)

    memo: dict = {}  # number string -> value, for this document only
    pm = None
    if "pseudo_mul" in data:
        pm = _parse_pseudo_mul(data["pseudo_mul"], "pseudo_mul", issues, memo)

    measures = {}
    for name, raw in _section(data, "measures", issues).items():
        masses = _parse_atom_map(raw, space, f"measures.{name}", issues, memo)
        if masses is not None:
            measures[name] = MaxMeasure(space, masses)
    functions = {}
    for name, raw in _section(data, "functions", issues).items():
        values = _parse_atom_map(raw, space, f"functions.{name}", issues, memo)
        if values is not None:
            functions[name] = MeasurableFn(space, values)
    ideals = {}
    for name, raw in _section(data, "ideals", issues).items():
        path = f"ideals.{name}"
        gens = None
        if isinstance(raw, list) and all(isinstance(g, str) for g in raw):
            raw = [raw]
        if isinstance(raw, list) and all(isinstance(g, list) for g in raw):
            gens = []
            for i, g in enumerate(raw):
                bad = [a for a in g if not (isinstance(a, str) and a in space.positions)]
                if bad:
                    issues.append(SpecIssue(f"{path}[{i}]", f"unknown atoms {bad}"))
                    gens = None
                    break
                gens.append(space.subset(g))
        else:
            issues.append(SpecIssue(path, "expected a list of generator sets (lists of atoms)"))
        if gens is not None:
            ideals[name] = SigmaIdeal.from_generators(space, gens)

    if issues:
        raise SpecValidationError(issues)
    return SpecDoc(space, pm, measures, functions, ideals)


def load_spec(path) -> SpecDoc:
    """Parse the spec document in the file at ``path``, which must exist."""
    return parse_spec(_decode(_read_file(path)))
