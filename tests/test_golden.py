"""Golden outputs of the CLI: verify/sweep reports and generate/estimate/decide chains.

Each case runs the ``pacc`` entry point in-process and compares its output
byte for byte with a committed file under ``tests/golden/``. Reports are
pinned as written by ``--out``, in JSON and in CSV; a 2,000-trial
propensity report is pinned by its sha256. Generated dataset files are
compared by sha256 (``tests/golden/datasets.sha256``).

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
from pacc.harness import read_report, write_report
from pacc.propensity import ps_sample_sizes

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CSV = ("--format", "csv")

# (command, config, fixture, extra flags): a report of 20 trials a point.
REPORT_CASES = (
    ("verify", "sccs_verify", "sccs_verify.report.json", ()),
    ("verify", "ps_verify_fast", "ps_verify_fast.report.json", ()),
    ("verify", "iv_verify", "iv_verify.report.json", ()),
    ("sweep", "sccs_sweep", "sccs_sweep.report.json", ()),
    ("verify", "iv_verify", "iv_verify.report.csv", CSV),
    ("sweep", "sccs_sweep", "sccs_sweep.report.csv", CSV),
    # One case a trial in a 20-day design: the statistics include inf and -inf.
    ("verify", "sccs_verify", "sccs_verify_one_case.report.csv", (
        *CSV, "--set", "sample_size=1", "--set", "generator.design.total_days=20",
        "--set", "generator.design.exposure_days=10",
    )),
    # Three cases a trial at a near-zero event rate: two trials halt, out of redraws.
    ("verify", "sccs_verify", "sccs_verify_halts.report.json", (
        "--set", "sample_size=3", "--set", "generator.design.total_days=20",
        "--set", "generator.design.exposure_days=10",
        "--set", "generator.params.phi_law.value=-16.8",
        "--set", "generator.params.lambda_floor=1e-9",
    )),
)
# A larger propensity report, pinned by the sha256 of its bytes: (config, trials, fixture).
DIGEST_CASE = ("ps_verify_fast", 2000, "ps_verify_fast_2000.report.sha256")
# A case's id: "iv_verify" for iv_verify.report.json, "iv_verify.csv" for its CSV.
REPORT_IDS = [case[2].replace(".report", "").removesuffix(".json") for case in REPORT_CASES]

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


def report_bytes(case, work: Path, trials: int = 20) -> bytes:
    command, config, fixture, flags = case
    out_path = work / fixture
    code, _ = run(
        command, "--config", str(ROOT / "configs" / f"{config}.json"),
        "--set", f"trials={trials}", "--threads", "2", *flags, "--out", str(out_path),
    )
    assert code in (0, 1)
    return out_path.read_bytes()


def digest_line(work: Path) -> bytes:
    """The sha256 line of DIGEST_CASE's verify report."""
    config, trials, fixture = DIGEST_CASE
    name = f"{config}_{trials}.report.json"
    produced = report_bytes(("verify", config, name, ()), work, trials)
    return f"{hashlib.sha256(produced).hexdigest()}  {name}\n".encode()


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


@pytest.mark.parametrize("case", REPORT_CASES, ids=REPORT_IDS)
def test_report_bytes(tmp_path, case):
    assert report_bytes(case, tmp_path) == (GOLDEN / case[2]).read_bytes()


def test_report_digest(tmp_path):
    assert digest_line(tmp_path) == (GOLDEN / DIGEST_CASE[2]).read_bytes()


@pytest.mark.parametrize("name", [n for n in REPORT_IDS if "." not in n])
def test_report_fixture_round_trips(tmp_path, name):
    # read_report rebuilds every field verify derives; writing what it read
    # gives back the fixture's bytes.
    fixture = GOLDEN / f"{name}.report.json"
    out_path = tmp_path / fixture.name
    write_report(read_report(fixture), out_path)
    assert out_path.read_bytes() == fixture.read_bytes()


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
        for case in REPORT_CASES:
            _write_fixture(GOLDEN / case[2], report_bytes(case, work))
        _write_fixture(GOLDEN / DIGEST_CASE[2], digest_line(work))
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
