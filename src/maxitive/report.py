"""Dual-rendered command reports: human text and lossless JSON."""

from __future__ import annotations

import enum
import json
import sys
from typing import Any

from .extreal import ExtNonneg
from .measure import _AtomMap
from .pseudomul import AchievableSet
from .spaces import SubsetB, check_fixed_cap

__all__ = ["Report", "jsonable", "render_text"]


def _printable(n: int, field: str) -> int:
    """n, refused with SizeCapError when it has more digits than Python
    prints, sys.get_int_max_str_digits() (0 is no limit)."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > 3 * limit and n >= 10 ** limit:  # 3·limit bits always print
        digits = int((n.bit_length() - 1) * 0.30102999566398)  # (bits − 1)·log10 2 ≤ digits
        while n >= 10 ** digits:  # counted without str(), which is what refuses
            digits += 1
        check_fixed_cap(digits, limit, f"digits in {field[1:]}")
    return n


def jsonable(value: Any, field: str = "") -> Any:
    """Convert library values to plain JSON types (strings for rationals).

    ``field`` is where ``value`` sits, each key after a dot (".nu.a" for
    atom a of body["nu"]); an int, or a rational's numerator or
    denominator, that Python cannot print is refused there (_printable).
    """
    if isinstance(value, ExtNonneg):  # the most common value, so tested first
        try:
            return str(value)
        except ValueError:  # the int-to-str limit: refused as an int is
            _printable(max(value._n, value._d), field)
            raise
    if value is None or isinstance(value, (bool, float, str)):
        return value
    if isinstance(value, int):
        return _printable(value, field)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, SubsetB):
        return sorted(value.labels)
    if isinstance(value, _AtomMap):
        return {a: jsonable(v, f"{field}.{a}") for a, v in value.as_dict().items()}
    if isinstance(value, AchievableSet):  # its values are checked before display prints them
        ends = {"lower": jsonable(value.lower, f"{field}.lower"),
                "upper": jsonable(value.upper, f"{field}.upper"),
                "lower_attained": value.lower_attained,
                "explicit": jsonable(value.explicit_values, f"{field}.explicit")}
        return {"display": str(value), **ends}
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a record, not a list
        return {name: jsonable(v, f"{field}.{name}") for name, v in zip(value._fields, value)}
    if isinstance(value, (frozenset, set)):
        return sorted(jsonable(v, field) for v in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v, f"{field}.{i}") for i, v in enumerate(value)]
    if isinstance(value, dict):
        return {str(k): jsonable(v, f"{field}.{k}") for k, v in value.items()}
    return str(value)


def render_text(value: Any, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {render_scalar(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            return f"{pad}[{', '.join(render_scalar(v) for v in value)}]"
        blocks = []
        for v in value:
            blocks.append(f"{pad}-")
            blocks.append(render_text(v, indent + 1))
        return "\n".join(blocks)
    return pad + render_scalar(value)


def render_scalar(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[" + ", ".join(render_scalar(x) for x in v) + "]"
    return str(v)


class Report:
    """One command's outcome.  ``body`` is given as library values and kept
    as plain JSON types: one jsonable pass converts it when the report is
    built, so a value that cannot be printed is refused before any output,
    and to_json and render only format what it kept."""

    __slots__ = ("command", "body", "negative_verdict")

    def __init__(self, command: str, body: dict, negative_verdict: bool = False):
        self.command = command
        self.body = jsonable(body)
        self.negative_verdict = negative_verdict

    def to_json(self) -> str:
        return json.dumps({"command": self.command, "negative_verdict": self.negative_verdict,
                           "body": self.body}, indent=2, ensure_ascii=False, sort_keys=True)

    def render(self) -> str:
        return f"== {self.command} ==\n" + render_text(self.body)
