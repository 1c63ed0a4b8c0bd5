"""Self-tests of the benchmark's output checks.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Each check must pass on a correct output and fail on a wrong one:

- a verify report whose error count is far above epsilon, produced by a
  real run at a sample size far below the bound;
- a ``dataset_io`` decision that differs from the in-process one: the CLI's
  decision on one seed against the in-process pipeline on another, and the
  same statistic moved by one unit in the last place.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from checks import check_decision, check_report, expected_decision  # noqa: E402

WORK = ROOT / ".perfbench_work" / "selftest"


def _verify_report(path: Path, sample_size: int) -> None:
    from pacc.harness import TrialSpec, verify, write_report

    config = json.loads((ROOT / "configs" / "iv_verify.json").read_text())
    config.update(trials=40, sample_size=sample_size)
    write_report(verify(TrialSpec.from_dict(config)), path)


def _cli(argv: list[str]) -> tuple[int, str]:
    from pacc.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def report_cases() -> list[tuple[str, bool]]:
    good, bad = WORK / "good.json", WORK / "bad.json"
    _verify_report(good, 1280)
    _verify_report(bad, 4)
    return [
        ("report at the bound passes", not check_report(good, "verification", 1, 40, 1280, 0.1)),
        ("report far above epsilon fails",
         any("inconsistent with epsilon" in p
             for p in check_report(bad, "verification", 1, 40, 4, 0.1))),
    ]


def decision_cases() -> list[tuple[str, bool]]:
    params = {"design": {"total_days": 250, "exposure_days": 21},
              "params": {"phi_law": {"kind": "point", "value": math.log(0.05)},
                         "beta": math.log(2.0), "lambda_floor": 0.05}}
    data = WORK / "sccs.json"
    generate, decide = WORK / "generate.json", WORK / "decide.json"
    generate.write_text(json.dumps({"method": "sccs", "count": 300, "master_seed": 0,
                                    "generator": params}))
    decide.write_text(json.dumps({"method": "sccs", "input": str(data), "delta": 2.0}))
    _cli(["generate", "--config", str(generate), "--seed", "5", "--out", str(data)])
    code, out = _cli(["decide", "--config", str(decide), "--seed", "5"])

    same = expected_decision("sccs", params, 300, 5, {"delta": 2.0})
    other = expected_decision("sccs", params, 300, 6, {"delta": 2.0})
    payload = json.loads(out)
    payload["decision"]["statistic"] = math.nextafter(same.statistic, math.inf)
    nudged = json.dumps(payload)
    return [
        ("decision equal to in-process passes", not check_decision(code, out, same)),
        ("decision from another seed fails", bool(check_decision(code, out, other))),
        ("statistic one ulp away fails", bool(check_decision(code, nudged, same))),
    ]


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    cases = report_cases() + decision_cases()
    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
