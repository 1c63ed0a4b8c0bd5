"""Deterministic JSON rendering for reports and CLI payloads.

Floats are written with 17 significant digits so that re-parsing
reproduces the exact double and reports are byte-identical across runs.
Non-finite floats become the strings "inf", "-inf" and "nan", which plain
JSON cannot carry as numbers; ``float`` reads them back.
"""

from __future__ import annotations

import json
import math
from typing import Any

__all__ = ["dumps", "format_float"]


def format_float(value: float) -> str:
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".17g")


def _render(obj: Any, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        text = format_float(obj)
        if not math.isfinite(obj):
            text = json.dumps(text)
        out.append(text)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}  {json.dumps(key)}: ")
            _render(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad + "  ")
            _render(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot render {type(obj)!r} as JSON")


def dumps(obj: Any) -> str:
    out: list[str] = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)
