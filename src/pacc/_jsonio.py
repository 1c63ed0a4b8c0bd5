"""Deterministic JSON rendering for reports and CLI payloads.

Floats are written with 17 significant digits so that re-parsing
reproduces the exact double and reports are byte-identical across runs.
Non-finite floats become the strings "inf", "-inf" and "nan", which plain
JSON cannot carry as numbers; ``NON_FINITE`` maps them back. ``loads``
reads the text back, ``-0`` as the float -0.0.

``dumps`` renders in one pass: a recursive helper returns each value's
text, and a non-empty object or array is its members' texts joined with
",\\n", one member a line, indented two spaces a level, as
``json.dumps(obj, indent=2)`` lays it out. The helper dispatches on the
exact type of each value first (dict, list, tuple, str, float, bool, int,
None) and falls back to ``isinstance`` checks, so subclasses such as
``np.float64`` or a str enum render as their base type. Strings and keys
are quoted by ``quote``, which is ``json.encoder.encode_basestring_ascii``,
the function ``json.dumps`` calls on a str; ``float_text`` is a float's
text.

One hook lets a caller write part of the text itself: a ``Rendered``
value is written as ``value.render(pad)``, where ``pad`` is the indent of
the line the value starts on, so its own lines go at ``pad + "  "`` and
its closing bracket at ``pad``. Reports hand their per-trial records to
``dumps`` this way (see ``harness.report_json``). Anything else, and any
non-str key, is a TypeError.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as quote
from typing import Any, Callable, NamedTuple

__all__ = ["NON_FINITE", "Rendered", "dumps", "float_text", "format_float", "loads", "quote"]

# The 17-digit text of each non-finite float, which JSON writes as a string.
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


class Rendered(NamedTuple):
    """A value whose JSON text ``render(pad)`` returns, written by ``dumps``
    as is; the text must lay itself out as ``dumps`` would at ``pad``."""

    render: Callable[[str], str]


def format_float(value: float) -> str:
    """A float's 17-digit text, which for a non-finite float is its name."""
    return format(value, ".17g")


def float_text(value: float) -> str:
    """The JSON text of a float: its 17-digit form, or a quoted name."""
    text = format_float(value)
    return f'"{text}"' if text in NON_FINITE else text


def _key_text(key: Any) -> str:
    if isinstance(key, str):
        return quote(key)
    raise TypeError(f"JSON object keys must be strings, got {key!r}")


def _text(obj: Any, pad: str) -> str:
    """The JSON text of ``obj``, whose first line starts after ``pad``."""
    kind = type(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        members = ",\n".join([
            f"{inner}{quote(key) if type(key) is str else _key_text(key)}: "
            f"{_text(value, inner)}"
            for key, value in obj.items()
        ])
        return f"{{\n{members}\n{pad}}}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        members = ",\n".join([inner + _text(value, inner) for value in obj])
        return f"[\n{members}\n{pad}]"
    if kind is str:
        return quote(obj)
    if kind is float:
        return float_text(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if kind is Rendered:
        return obj.render(pad)
    # Subclasses of the types above (bool has none; Rendered's tuple is matched above).
    if isinstance(obj, int):
        # int's own text, as json.dumps writes it, whatever the subclass's __str__.
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float_text(obj)
    if isinstance(obj, str):
        return quote(obj)
    if isinstance(obj, dict):
        return _text(dict(obj.items()), pad)
    if isinstance(obj, (list, tuple)):
        return _text(list(obj), pad)
    raise TypeError(f"cannot render {type(obj)!r} as JSON")


def dumps(obj: Any) -> str:
    return _text(obj, "") + "\n"


def loads(text: str) -> Any:
    """The value of JSON text. ``-0``, which ``dumps`` writes for -0.0, reads
    as -0.0; a non-finite float's name stays a str (see ``NON_FINITE``)."""
    return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))
