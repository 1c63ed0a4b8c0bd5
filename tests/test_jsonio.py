"""The deterministic JSON renderer behind every report, payload and dataset file."""

import enum
import json
import math
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacc._jsonio import NON_FINITE, Rendered, dumps, format_float, loads
from pacc.core import Decision, ModelChoice

GOLDEN = Path(__file__).resolve().parent / "golden"


class _Count(int):
    pass


class _Items(list):
    pass


class _Flag(int):
    def __str__(self):
        return "flag"


class _Level(enum.IntEnum):
    HIGH = 2

# JSON values without floats, which json.dumps(indent=2) lays out exactly as
# dumps does.
_FLOAT_FREE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_golden_fixtures_re_render_to_their_bytes(path):
    text = path.read_text()
    assert dumps(json.loads(text)) == text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(obj=_FLOAT_FREE)
def test_layout_matches_json_dumps_with_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False))
def test_finite_floats_keep_17_digits_and_read_back_exactly(value):
    text = dumps(value)
    assert text == format(value, ".17g") + "\n"
    # A whole value, -0.0 included, reads back as an int of equal value.
    assert json.loads(text) == value


@pytest.mark.parametrize("value, text", [
    (math.nan, '"nan"'),
    (math.inf, '"inf"'),
    (-math.inf, '"-inf"'),
    (-0.0, "-0"),
    (0.1, "0.10000000000000001"),
    (5e-324, "4.9406564584124654e-324"),
    (1e308, "1e+308"),
    (1.0, "1"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.float64(math.nan), '"nan"'),
    (np.float64(-math.inf), '"-inf"'),
])
def test_float_text(value, text):
    assert dumps(value) == text + "\n"
    assert dumps([value]) == f"[\n  {text}\n]\n"


def test_format_float_names_non_finite_values():
    assert [format_float(v) for v in (math.nan, math.inf, -math.inf, 2.5)] == [
        "nan", "inf", "-inf", "2.5",
    ]
    assert [format_float(v) for v in NON_FINITE.values()] == list(NON_FINITE)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(value=st.floats())
def test_loads_reads_back_what_dumps_writes(value):
    [text] = loads(dumps([value]))
    read = NON_FINITE[text] if type(text) is str else text
    # The 17-digit text is exact and tells -0.0 from 0.0.
    assert format_float(read) == format_float(value)


def test_loads_reads_minus_zero_as_a_float():
    assert [(v, type(v)) for v in loads("[-0, 0, -3, 2.5]")] == [
        (-0.0, float), (0, int), (-3, int), (2.5, float),
    ]
    assert math.copysign(1.0, loads("-0")) == -1.0
    assert loads('{"a": "inf"}') == {"a": "inf"}


@pytest.mark.parametrize("value, text", [
    (None, "null"),
    (True, "true"),
    (False, "false"),
    (0, "0"),
    (-12, "-12"),
    (2**70, str(2**70)),
    ("", '""'),
    ("café ☃ \U0001f600", '"caf\\u00e9 \\u2603 \\ud83d\\ude00"'),
    ('tab\tquote"back\\slash\x00\x1f\n', '"tab\\tquote\\"back\\\\slash\\u0000\\u001f\\n"'),
    (ModelChoice.M1, '"M1"'),
    ({}, "{}"),
    ([], "[]"),
    ((), "[]"),
    ({"a": {}}, '{\n  "a": {}\n}'),
    ([[]], "[\n  []\n]"),
    ((1, "x"), '[\n  1,\n  "x"\n]'),
    ({ModelChoice.M2: [1, {"b": None}]},
     '{\n  "M2": [\n    1,\n    {\n      "b": null\n    }\n  ]\n}'),
    ({"é": 1.5, "k": [True, -0.0]},
     '{\n  "\\u00e9": 1.5,\n  "k": [\n    true,\n    -0\n  ]\n}'),
    # Subclasses of int, dict, list and tuple render as their base type.
    (_Count(7), "7"),
    (OrderedDict([("b", _Count(1)), ("a", [])]), '{\n  "b": 1,\n  "a": []\n}'),
    (_Items(["x", _Items()]), '[\n  "x",\n  []\n]'),
    (Decision(ModelChoice.M1, 0.5, -0.0), '[\n  "M1",\n  0.5,\n  -0\n]'),
    # An int subclass is written as int's own text, as json.dumps writes it,
    # whatever its __str__ (an IntEnum member's is its name on Python 3.10).
    (_Flag(3), "3"),
    ([_Flag(-4)], "[\n  -4\n]"),
    (_Level.HIGH, "2"),
])
def test_value_text(value, text):
    assert dumps(value) == text + "\n"


@pytest.mark.parametrize("value, message", [
    ({1: "x"}, "JSON object keys must be strings, got 1"),
    ({"a": 1, None: 2}, "JSON object keys must be strings, got None"),
    ({"a": {(1, 2): 0}}, "JSON object keys must be strings, got (1, 2)"),
    (np.int64(3), "cannot render <class 'numpy.int64'> as JSON"),
    ([1, {2, 3}], "cannot render <class 'set'> as JSON"),
    ({"a": {1}, 2: 0}, "cannot render <class 'set'> as JSON"),
    (np.bool_(True), "cannot render <class 'numpy.bool'> as JSON"),
])
def test_unrenderable_values_raise_type_error(value, message):
    with pytest.raises(TypeError) as info:
        dumps(value)
    assert str(info.value) == message


def test_rendered_values_are_written_at_their_indent():
    pads = []

    def render(pad):
        pads.append(pad)
        return f'[\n{pad}  "x",\n{pad}  -0\n{pad}]'

    obj = {"a": [{"b": Rendered(render)}], "c": Rendered(render), "d": 1}
    plain = {"a": [{"b": ["x", 0]}], "c": ["x", 0], "d": 1}
    assert dumps(obj) == json.dumps(plain, indent=2).replace("0\n", "-0\n") + "\n"
    assert pads == [" " * 6, " " * 2]
    assert dumps(Rendered(lambda pad: f"[{pad!r}]")) == "['']\n"
