"""Fuzz the CLI's dataset readers with near-valid inputs.

A fixed, valid ``decide`` config reads a mutated dataset file. A JSON
value or a CSV cell becomes Infinity, NaN, 1e400, a huge int, a bool,
null, a nested list or text; a key is renamed away; a list item, a row
or a cell is dropped or repeated (ragged CSV rows); and some files get a
stray character deleted (broken JSON) or two bytes that are not UTF-8.
The config is valid, so each run must end with exit 0, or exit 3 with
nothing on stdout and one JSON diagnostic on stderr; and it must raise
no warning.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from pacc.cli import main

_PS_RECORDS = [
    {"x": [0, 1], "z": 1, "y": 0},
    {"x": [1, 1], "z": 0, "y": 1},
    {"x": [1, 0], "z": 1, "y": 1},
    {"x": [0, 0], "z": 0, "y": 0},
]
_PS_CONFIG = {"method": "propensity", "delta": 0.5, "epsilon": 0.2, "master_seed": 1}

# (file name, valid contents as a JSON value or CSV rows, decide config
# without "input"). The propensity files are valid but shorter than
# N1 + N2: the reader runs in full and the pipeline then exits 3.
BASES = {
    "sccs": (
        "cases.json",
        {
            "design": {"total_days": 250, "exposure_days": 21},
            "patients": [
                {"exposure_start": 121, "event_days": [95, 130]},
                {"exposure_start": 151, "event_days": [160]},
                {"exposure_start": 1, "event_days": [3, 40, 250]},
            ],
        },
        {"method": "sccs", "delta": 2.0},
    ),
    "propensity_csv": (
        "obs.csv",
        [["x0", "x1", "z", "y"]]
        + [[str(v) for v in [*r["x"], r["z"], r["y"]]] for r in _PS_RECORDS],
        _PS_CONFIG,
    ),
    "propensity_json": ("obs.json", _PS_RECORDS, _PS_CONFIG),
    "iv": (
        "iv.csv",
        [["d", "z", "y"], ["1", "1", "1"], ["-1", "0", "0"], ["1", "1", "0.5"],
         ["-1", "0.5", "0"]],
        {"method": "iv2sls", "delta": 0.5},
    ),
}

_MUTANTS = {
    "json": [float("inf"), -float("inf"), float("nan"), 10**400, -(10**400), 1e300,
             1e19, 10**19, True, False, None, [[1, 2]], [], {}, "1", 2.5, -1, 0],
    "csv": ["inf", "-inf", "nan", "Infinity", "NaN", "1e400", "1e300", "1e19",
            str(10**30), "true", "", "[1]", "1.5", "-1", "2", "0", "1"],
}


def _paths(node, prefix=()):
    """Paths (tuples of keys and indices) to every node below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated_inputs(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    filename, doc, config = BASES[name]
    kind = filename.rsplit(".", 1)[1]
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["replace", "replace", "replace", "delete", "repeat"]))
        if op == "replace" and (kind == "json" or len(path) == 2):
            parent[key] = copy.deepcopy(draw(st.sampled_from(_MUTANTS[kind])))
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent["zz"] = parent.pop(key)
    if kind == "json":
        text = json.dumps(doc)
    else:
        text = "".join(",".join(row) + "\n" for row in doc)
    if text and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + text[at + 1:]
    data = text.encode()
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff\xfe" + data[at:]
    return filename, data, config


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=mutated_inputs())
def test_decide_on_a_mutated_input_exits_0_or_3(case):
    filename, data, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / filename
        path.write_bytes(data)
        cfg = Path(tmp) / "decide.json"
        cfg.write_text(json.dumps({**config, "input": str(path)}))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["decide", "--config", str(cfg)])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 3), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert set(json.loads(out.getvalue())) == {"method", "decision"}
    else:
        assert out.getvalue() == ""
        diagnostic = json.loads(err.getvalue())
        assert isinstance(diagnostic, dict) and set(diagnostic) == {"error", "message"}
