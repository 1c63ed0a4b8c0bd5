"""Fuzz the CLI's dataset and config readers with near-valid inputs.

A fixed, valid ``decide`` config reads a mutated dataset file. A JSON
value or a CSV cell becomes Infinity, NaN, 1e400, a huge int, a bool,
null, a nested list or text; a key is renamed away; a list item, a row
or a cell is dropped or repeated (ragged CSV rows); and some files get a
stray character deleted (broken JSON) or two bytes that are not UTF-8.
The config is valid, so each run must end with exit 0, or exit 3 with
nothing on stdout and one JSON diagnostic on stderr; and it must raise
no warning.

The committed ``verify`` and ``sweep`` configs are mutated the same way
and run with a stub in place of every method's block of trials
(``conftest.wrap_blocks``), so that no mutated size or rate reaches a
draw. Each run must end with exit 0 or 1 and a
report, or exit 2 with one JSON diagnostic, and raise no warning.

Each float flag of ``samplesize`` takes each CSV mutant string in turn,
the other flags valid. Each run must end with exit 0 and a sample size,
or exit 2 with one JSON diagnostic, and raise no warning.
"""

import contextlib
import copy
import io
import json
import operator
import tempfile
import warnings
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pacc import harness
from pacc.cli import main
from pacc.core import ModelChoice

from conftest import wrap_blocks

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


def _run(argv):
    """``main(argv)``: its exit code, stdout and stderr; no warning raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert [str(w.message) for w in caught] == []
    return code, out, err


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=mutated_inputs())
def test_decide_on_a_mutated_input_exits_0_or_3(case):
    filename, data, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / filename
        path.write_bytes(data)
        cfg = Path(tmp) / "decide.json"
        cfg.write_text(json.dumps({**config, "input": str(path)}))
        code, out, err = _run(["decide", "--config", str(cfg)])
    assert code in (0, 3), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert set(json.loads(out.getvalue())) == {"method", "decision"}
    else:
        assert out.getvalue() == ""
        diagnostic = json.loads(err.getvalue())
        assert isinstance(diagnostic, dict) and set(diagnostic) == {"error", "message"}


# (command, config) for each committed config.
CONFIG_RUNS = [
    ("sweep" if path.stem.endswith("sweep") else "verify", json.loads(path.read_text()))
    for path in sorted(CONFIGS.glob("*.json"))
]

_CONFIG_MUTANTS = [True, False, "abc", "1", 2.5, float("inf"), None, [1], [], {}, {"kind": 1}]


@st.composite
def mutated_configs(draw):
    command, config = draw(st.sampled_from(CONFIG_RUNS))
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(config))))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if isinstance(parent, dict) and draw(st.integers(0, 4)) == 0:
            parent["zz"] = parent.pop(key)
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_CONFIG_MUTANTS)))
    return command, config


def _fixed_outcomes(spec, first, count):
    return [
        harness.TrialOutcome(seed=spec.stream_base + i, decision=ModelChoice.M2,
                             statistic=0.0, correct=True)
        for i in range(first, first + count)
    ]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=mutated_configs())
def test_verify_on_a_mutated_config_exits_0_1_or_2(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        with mock.patch.dict(harness.METHODS):
            wrap_blocks(operator.setitem, lambda spec, block: partial(_fixed_outcomes, spec))
            code, out, err = _run([command, "--config", str(cfg), "--set", "trials=2",
                                   "--threads", "1"])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        diagnostic = json.loads(err.getvalue())
        assert isinstance(diagnostic, dict) and set(diagnostic) == {"error", "message"}
    else:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["kind"] in ("verification", "sweep")


# Valid flags of each `samplesize` method; --n-covariates is the one
# integer flag, the rest are floats.
SAMPLESIZE_FLAGS = {
    "sccs": {"--epsilon": "0.1", "--delta": "2", "--lambda-floor": "0.05"},
    "propensity": {"--epsilon": "0.1", "--delta": "0.5", "--n-covariates": "3"},
    "iv": {"--epsilon": "0.1", "--delta": "0.5", "--sigma-dy2": "1", "--sigma-dz2": "1",
           "--alpha": "1", "--sigma-d2": "1"},
}


@pytest.mark.parametrize("method, flag, value", [
    (method, flag, value)
    for method, flags in SAMPLESIZE_FLAGS.items()
    for flag in flags
    if flag != "--n-covariates"
    for value in _MUTANTS["csv"]
])
def test_samplesize_with_a_mutated_flag_exits_0_or_2(method, flag, value):
    argv = ["samplesize", method] + [
        f"{name}={value if name == flag else valid}"
        for name, valid in SAMPLESIZE_FLAGS[method].items()
    ]
    code, out, err = _run(argv)
    assert code in (0, 2), err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
        assert json.loads(out.getvalue())["sample_size"] >= 1
    else:
        assert out.getvalue() == ""
        diagnostic = json.loads(err.getvalue())
        assert isinstance(diagnostic, dict) and set(diagnostic) == {"error", "message"}
