"""Output checks: each returns a list of problems, empty when the output is right.

Verify and sweep reports are read back with ``pacc.harness.read_report``.
The trial count and resolved sample size must be the ones the workload
asked for, only the harness's trial-failure kinds may appear, and the
error count must be consistent with epsilon by a one-sided exact binomial
test. A verify exit code of 1 is not itself a failure: at benchmark trial
counts the Wilson upper bound can exceed epsilon with zero errors (0/12
gives 0.18 against 0.1).

A ``dataset_io`` decision must equal the in-process generate/decide
pipeline on the same master seed bit for bit (stream 0 generates, stream
1 decides), and re-serialising the parsed dataset file must reproduce its
bytes.
"""

from __future__ import annotations

import json

from scipy.stats import binom

# A true error rate at or below epsilon yields this many errors or more
# with probability below BINOMIAL_LEVEL.
BINOMIAL_LEVEL = 1e-3

TRIAL_FAILURE_KINDS = (
    "PipelineFailureError",
    "GenerationFailureError",
    "UndefinedAteError",
    "WeakInstrumentError",
    "DegenerateFitError",
)


def errors_consistent(errors: int, trials: int, epsilon: float) -> bool:
    """One-sided exact binomial test of H0: error rate <= epsilon."""
    return binom.sf(errors - 1, trials, epsilon) >= BINOMIAL_LEVEL


def _check_verification(report, trials: int, sample_size: int, epsilon: float, where: str):
    problems = []
    if report.trials != trials:
        problems.append(f"{where}: {report.trials} trials, expected {trials}")
    if report.resolved_sample_size != sample_size:
        problems.append(
            f"{where}: sample size {report.resolved_sample_size}, expected {sample_size}"
        )
    outcomes = report.per_trial or ()
    if len(outcomes) != report.trials:
        problems.append(f"{where}: {len(outcomes)} per-trial records for {report.trials} trials")
    wrong = sum(1 for t in outcomes if not t.correct)
    if wrong != report.errors:
        problems.append(f"{where}: errors {report.errors} but {wrong} incorrect trials")
    for t in outcomes:
        if t.failure is not None and t.failure.split(":", 1)[0] not in TRIAL_FAILURE_KINDS:
            problems.append(f"{where}: trial {t.seed} failed with {t.failure!r}")
            break
    if not errors_consistent(report.errors, report.trials, epsilon):
        problems.append(
            f"{where}: {report.errors}/{report.trials} errors is inconsistent with "
            f"epsilon {epsilon} (one-sided binomial p < {BINOMIAL_LEVEL})"
        )
    return problems


def check_report(path, kind: str, points: int, trials: int, sample_size: int, epsilon: float):
    """Check a ``verify`` (kind "verification") or ``sweep`` report file."""
    from pacc.harness import SweepReport, read_report

    try:
        report = read_report(path)
    except Exception as exc:  # any unreadable report is a failed output
        return [f"{path}: unreadable report: {type(exc).__name__}: {exc}"]
    if kind == "sweep":
        if not isinstance(report, SweepReport):
            return [f"{path}: expected a sweep report"]
        if len(report.reports) != points:
            return [f"{path}: {len(report.reports)} grid points, expected {points}"]
        problems = []
        for k, r in enumerate(report.reports):
            problems += _check_verification(r, trials, sample_size, epsilon, f"{path} point {k}")
        worst = max(range(points), key=lambda k: report.reports[k].upper_bound)
        if report.worst != worst:
            problems.append(f"{path}: worst point {report.worst}, expected {worst}")
        return problems
    if isinstance(report, SweepReport):
        return [f"{path}: expected a verification report"]
    return _check_verification(report, trials, sample_size, epsilon, str(path))


def _same_double(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def check_decision(exit_code: int, stdout: str, expected) -> list[str]:
    """Compare ``pacc decide`` output with the in-process result.

    ``expected`` is a ``Decision``, or the name of the trial-failure
    exception the in-process pipeline raised (then the CLI must exit 3).
    """
    if isinstance(expected, str):
        if exit_code != 3:
            return [f"decide exited {exit_code}; in-process pipeline raised {expected}"]
        return []
    if exit_code != 0:
        return [f"decide exited {exit_code}, expected 0"]
    try:
        decision = json.loads(stdout)["decision"]
        statistic = float(decision["statistic"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable decide output: {exc}"]
    problems = []
    if not _same_double(statistic, expected.statistic):
        problems.append(
            f"decide statistic {statistic!r} differs from in-process {expected.statistic!r}"
        )
    if decision.get("chosen") != expected.chosen.value:
        problems.append(
            f"decide chose {decision.get('chosen')}, in-process chose {expected.chosen.value}"
        )
    return problems


def reserialise(method: str, text: str) -> str:
    """Parse a dataset file's text and serialise it again, as the CLI formats it."""
    from pacc import _jsonio
    from pacc.iv2sls import IvDataset
    from pacc.propensity import ObsDataset
    from pacc.sccs import SccsDataset

    if method == "iv2sls":
        return IvDataset.from_csv(text).to_csv()
    if method == "propensity":
        return ObsDataset.from_csv(text).to_csv()
    return _jsonio.dumps(SccsDataset.from_dict(json.loads(text)).to_dict())


def check_roundtrip(method: str, text: str) -> list[str]:
    try:
        again = reserialise(method, text)
    except Exception as exc:  # a file the reader rejects fails the check
        return [f"{method} dataset does not parse: {type(exc).__name__}: {exc}"]
    if again != text:
        return [f"{method} dataset does not re-serialise to the same bytes"]
    return []


def expected_decision(method: str, params: dict, count: int, seed: int, decide: dict):
    """The in-process generate/decide pipeline the CLI file chain must reproduce."""
    from pacc.core import PaccError, split_stream
    from pacc.iv2sls import IvParams, generate_iv, iv_decide
    from pacc.propensity import PsParams, generate_obs, ps_decide
    from pacc.sccs import SccsDesign, SccsParams, generate_sccs, sccs_decide

    gen = split_stream(seed, 0)
    try:
        if method == "iv2sls":
            data = generate_iv(IvParams.from_dict(params), count, gen)
            return iv_decide(data, decide["delta"])
        if method == "propensity":
            data = generate_obs(PsParams.from_dict(params), count, gen)
            return ps_decide(data, decide["delta"], split_stream(seed, 1), decide["epsilon"])
        design = SccsDesign.from_dict(params["design"])
        data = generate_sccs(design, SccsParams.from_dict(params["params"]), count, gen)
        return sccs_decide(data, decide["delta"])
    except PaccError as exc:
        if type(exc).__name__ not in TRIAL_FAILURE_KINDS:
            raise
        return type(exc).__name__

