"""Golden outputs of the CLI: verify/sweep reports and generate/estimate/decide chains.

Each case runs the ``pacc`` entry point in-process and compares its output
byte for byte with a committed file under ``tests/golden/``. Generated
dataset files are compared by sha256 (``tests/golden/datasets.sha256``).

Regenerate the fixtures, only when an output change is intended, with
``PYTHONPATH=src python tests/test_golden.py``. It prints one line per
fixture file, saying whether its bytes changed, so a regeneration commit
can be checked to touch only the fixtures it meant to.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from pacc.cli import main
from pacc.propensity import ps_sample_sizes

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

REPORT_CASES = (
    ("verify", "sccs_verify"),
    ("verify", "ps_verify_fast"),
    ("verify", "iv_verify"),
    ("sweep", "sccs_sweep"),
)

PS_GENERATOR = {
    "n_covariates": 3,
    "treat_weights": [0.5, 0.5, 0.5],
    "treat_bias": -0.75,
    "positivity_floor": 0.2,
    "outcome_base": 0.1,
    "effect": 0.6,
    "confound_weights": [0.03, 0.03, 0.03],
}

# (name, generate config, extra generate flags, dataset file, estimate/decide config)
CHAIN_CASES = (
    (
        "sccs",
        {
            "method": "sccs", "count": 8, "master_seed": 9,
            "generator": {
                "design": {"total_days": 250, "exposure_days": 21},
                "params": {
                    "phi_law": {"kind": "point", "value": math.log(0.02)},
                    "beta": 0.0,
                    "lambda_floor": 0.01,
                },
            },
        },
        (),
        "cases.json",
        {"method": "sccs", "delta": 2.0},
    ),
    (
        "propensity",
        {
            "method": "propensity", "count": ps_sample_sizes(0.2, 0.8, 3).total,
            "master_seed": 31, "generator": PS_GENERATOR,
        },
        (),
        "obs.csv",
        {"method": "propensity", "delta": 0.8, "epsilon": 0.2, "master_seed": 31},
    ),
    (
        "propensity_json",
        {
            "method": "propensity", "count": ps_sample_sizes(0.2, 0.8, 3).total,
            "master_seed": 31, "generator": PS_GENERATOR,
        },
        ("--format", "json"),
        "obs.json",
        {"method": "propensity", "delta": 0.8, "epsilon": 0.2, "master_seed": 31},
    ),
    (
        "iv2sls",
        {
            "method": "iv2sls", "count": 1280, "master_seed": 7,
            "generator": {"alpha": 1.0, "beta": 0.5, "conf_z": 1.0, "conf_y": 1.0,
                          "noise_z_sd": 1.0, "noise_y_sd": 1.0},
        },
        ("--include-hidden",),
        "iv.csv",
        {"method": "iv2sls", "delta": 0.5},
    ),
)


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def report_bytes(command: str, name: str, work: Path) -> bytes:
    out_path = work / f"{name}.report.json"
    code, _ = run(
        command, "--config", str(ROOT / "configs" / f"{name}.json"),
        "--set", "trials=20", "--threads", "2", "--out", str(out_path),
    )
    assert code in (0, 1)
    return out_path.read_bytes()


def chain_outputs(case, work: Path) -> dict[str, bytes]:
    """The dataset digest line and the estimate/decide stdout of one chain."""
    name, gen_config, gen_flags, data_name, use_config = case
    gen_path = work / f"generate_{name}.json"
    gen_path.write_text(json.dumps(gen_config))
    data_path = work / data_name
    code, _ = run("generate", "--config", str(gen_path), *gen_flags, "--out", str(data_path))
    assert code == 0
    digest = hashlib.sha256(data_path.read_bytes()).hexdigest()
    use_path = work / f"use_{name}.json"
    use_path.write_text(json.dumps({**use_config, "input": str(data_path)}))
    outputs = {f"datasets.sha256:{name}": f"{digest}  {data_name}\n".encode()}
    for command in ("estimate", "decide"):
        code, out = run(command, "--config", str(use_path))
        assert code == 0
        outputs[f"chain_{name}.{command}.json"] = out.encode()
    return outputs


def expected_digest(data_name: str) -> str:
    for line in (GOLDEN / "datasets.sha256").read_text().splitlines():
        digest, _, name = line.partition("  ")
        if name == data_name:
            return f"{digest}  {name}\n"
    raise KeyError(data_name)


@pytest.mark.parametrize("command, name", REPORT_CASES, ids=[n for _, n in REPORT_CASES])
def test_report_bytes(tmp_path, command, name):
    expected = (GOLDEN / f"{name}.report.json").read_bytes()
    assert report_bytes(command, name, tmp_path) == expected


@pytest.mark.parametrize("case", CHAIN_CASES, ids=[c[0] for c in CHAIN_CASES])
def test_file_chain(tmp_path, case):
    for key, produced in chain_outputs(case, tmp_path).items():
        if key.startswith("datasets.sha256:"):
            assert produced.decode() == expected_digest(case[3])
        else:
            assert produced == (GOLDEN / key).read_bytes(), key


def _write_fixture(path: Path, produced: bytes) -> None:
    if not path.exists():
        status = "new"
    elif path.read_bytes() == produced:
        status = "unchanged"
    else:
        status = "changed"
    path.write_bytes(produced)
    print(f"{status:9}  {path.relative_to(ROOT)}")


def _write_fixtures() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for command, name in REPORT_CASES:
            _write_fixture(
                GOLDEN / f"{name}.report.json", report_bytes(command, name, work)
            )
        digests = []
        for case in CHAIN_CASES:
            for key, produced in chain_outputs(case, work).items():
                if key.startswith("datasets.sha256:"):
                    digests.append(produced.decode())
                else:
                    _write_fixture(GOLDEN / key, produced)
        _write_fixture(GOLDEN / "datasets.sha256", "".join(digests).encode())


if __name__ == "__main__":
    _write_fixtures()
    sys.exit(0)
