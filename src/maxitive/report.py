"""Dual-rendered command reports: human text and lossless JSON."""

from __future__ import annotations

import enum
import json
from typing import Any, NamedTuple

from .extreal import ExtNonneg
from .measure import _AtomMap
from .pseudomul import AchievableSet
from .spaces import SubsetB

__all__ = ["Report", "jsonable", "render_text"]


def jsonable(value: Any) -> Any:
    """Convert library values to plain JSON types (strings for rationals)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, ExtNonneg):
        return str(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, SubsetB):
        return sorted(value.labels)
    if isinstance(value, _AtomMap):
        return {a: str(v) for a, v in value.as_dict().items()}
    if isinstance(value, AchievableSet):
        return {"display": str(value), "lower": str(value.lower), "upper": str(value.upper),
                "lower_attained": value.lower_attained,
                "explicit": (sorted(str(v) for v in value.explicit_values)
                             if value.explicit_values is not None else None)}
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a record, not a list
        return {name: jsonable(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (frozenset, set)):
        return sorted(jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
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


class Report(NamedTuple):
    """One command's outcome; body holds only plain JSON types."""

    command: str
    body: dict
    negative_verdict: bool = False

    def to_jsonable(self) -> dict:
        return {"command": self.command,
                "negative_verdict": self.negative_verdict,
                "body": self.body}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, ensure_ascii=False, sort_keys=True)

    def render(self) -> str:
        head = f"== {self.command} =="
        return head + "\n" + render_text(self.body)
