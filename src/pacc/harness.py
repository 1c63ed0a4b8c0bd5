"""Monte Carlo certification harness.

Runs repeated generate-then-decide trials at the sample sizes the
methods' bounds prescribe, aggregates error rates with a Wilson upper
bound against epsilon, and sweeps nuisance parameters to probe the worst
case over the model family. Every trial owns stream (master_seed,
stream_base + index), so results are identical whatever the degree of
parallelism.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, Union

from pacc import _jsonio
from pacc.core import (
    ConceptSpec,
    DegenerateFitError,
    GenerationFailureError,
    InvalidArgumentError,
    Method,
    ModelChoice,
    PaccError,
    PipelineFailureError,
    UndefinedAteError,
    WeakInstrumentError,
    rate_upper_bound,
    split_stream,
)
from pacc.iv2sls import IvParams, generate_iv, iv_analytic_variances, iv_decide, iv_sample_size
from pacc.propensity import PsParams, ps_decide_drawn, ps_sample_sizes
from pacc.sccs import (
    PointLaw,
    SccsDesign,
    SccsParams,
    TwoPointLaw,
    draw_sccs_counts,
    law_from_dict,
    sccs_decide,
    sccs_sample_size,
)

__all__ = [
    "AUTO",
    "SccsScenario",
    "GeneratorParams",
    "TrialSpec",
    "TrialOutcome",
    "VerificationReport",
    "SweepReport",
    "run_trial",
    "verify",
    "adversarial_sweep",
    "write_report",
    "read_report",
    "params_for_truth",
    "resolve_sample_size",
    "generator_params_from_dict",
]

AUTO = "auto"

REPORT_SCHEMA = "pacc-report/1"

# Decide/generate failures that count as an incorrect trial rather than
# aborting the whole verification run.
_TRIAL_FAILURES = (
    PipelineFailureError,
    GenerationFailureError,
    UndefinedAteError,
    WeakInstrumentError,
    DegenerateFitError,
)


@dataclass(frozen=True)
class SccsScenario:
    """Nuisance side of an SCCS model pair: design, baseline law, rate floor.

    The effect (log relative incidence) is not part of the scenario; the
    harness sets it to log(delta) under truth M1 and 0 under M2.
    """

    design: SccsDesign
    phi_law: PointLaw | TwoPointLaw
    lambda_floor: float

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "phi_law": self.phi_law.to_dict(),
            "lambda_floor": self.lambda_floor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SccsScenario":
        return cls(
            design=SccsDesign.from_dict(d["design"]),
            phi_law=law_from_dict(d["phi_law"]),
            lambda_floor=float(d["lambda_floor"]),
        )


GeneratorParams = Union[SccsScenario, PsParams, IvParams]


def generator_params_from_dict(method: Method, d: dict) -> GeneratorParams:
    """Parse a generator block for ``method``; the effect field must be absent."""
    if method is Method.SCCS:
        if "beta" in d:
            raise InvalidArgumentError(
                "the SCCS effect is derived from truth and concept delta; "
                "remove 'beta' from the generator block"
            )
        return SccsScenario.from_dict(d)
    if method is Method.PROPENSITY:
        if d.get("effect", 0.0) != 0.0:
            raise InvalidArgumentError(
                "the treatment effect is derived from truth and concept delta; "
                "remove 'effect' from the generator block"
            )
        return PsParams.from_dict({**d, "effect": 0.0})
    if d.get("beta", 0.0) != 0.0:
        raise InvalidArgumentError(
            "the treatment effect is derived from truth and concept delta; "
            "remove 'beta' from the generator block"
        )
    return IvParams.from_dict({**d, "beta": 0.0})


@dataclass(frozen=True)
class TrialSpec:
    """Everything one certification run needs, including its randomness.

    ``epsilon`` is the error budget being certified; ``sample_size`` is an
    explicit count or AUTO to take the method's sample-size bound;
    ``stream_base`` offsets trial stream ids so sweep points never share
    streams.
    """

    method: Method
    truth: ModelChoice
    concept: ConceptSpec
    generator_params: GeneratorParams
    trials: int
    master_seed: int
    epsilon: float
    sample_size: int | str = AUTO
    stream_base: int = 0

    def __post_init__(self) -> None:
        if self.concept.method is not self.method:
            raise InvalidArgumentError(
                f"concept is for {self.concept.method.value}, spec runs {self.method.value}"
            )
        expected = {
            Method.SCCS: SccsScenario,
            Method.PROPENSITY: PsParams,
            Method.IV2SLS: IvParams,
        }[self.method]
        if not isinstance(self.generator_params, expected):
            raise InvalidArgumentError(
                f"{self.method.value} needs {expected.__name__} generator params, "
                f"got {type(self.generator_params).__name__}"
            )
        if self.method is Method.PROPENSITY and self.generator_params.effect != 0.0:
            raise InvalidArgumentError(
                "generator_params must describe the effect-free pair member "
                "(effect == 0); the harness applies the concept delta under M1"
            )
        if self.method is Method.IV2SLS and self.generator_params.beta != 0.0:
            raise InvalidArgumentError(
                "generator_params must describe the effect-free pair member "
                "(beta == 0); the harness applies the concept delta under M1"
            )
        if self.trials < 1:
            raise InvalidArgumentError("trials must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidArgumentError("epsilon must lie in (0, 1)")
        if self.sample_size != AUTO:
            if not isinstance(self.sample_size, int) or self.sample_size < 1:
                raise InvalidArgumentError(
                    f"sample_size must be a positive count or '{AUTO}'"
                )
        if self.stream_base < 0:
            raise InvalidArgumentError("stream_base must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "truth": self.truth.value,
            "epsilon": self.epsilon,
            "concept": {
                "delta": self.concept.delta,
                "description": self.concept.description,
            },
            "generator": self.generator_params.to_dict(),
            "sample_size": self.sample_size,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "stream_base": self.stream_base,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrialSpec":
        method = Method(d["method"])
        concept_d = d["concept"]
        concept = ConceptSpec(
            delta=float(concept_d["delta"]),
            method=method,
            description=str(concept_d.get("description", "")),
        )
        size = d.get("sample_size", AUTO)
        if size != AUTO:
            size = int(size)
        return cls(
            method=method,
            truth=ModelChoice(d["truth"]),
            concept=concept,
            generator_params=generator_params_from_dict(method, d["generator"]),
            trials=int(d["trials"]),
            master_seed=int(d["master_seed"]),
            epsilon=float(d["epsilon"]),
            sample_size=size,
            stream_base=int(d.get("stream_base", 0)),
        )


def params_for_truth(spec: TrialSpec) -> SccsParams | PsParams | IvParams:
    """Generation parameters for the model the trial's truth selects."""
    delta = spec.concept.delta
    is_m1 = spec.truth is ModelChoice.M1
    if spec.method is Method.SCCS:
        scenario = spec.generator_params
        return SccsParams(
            phi_law=scenario.phi_law,
            beta=math.log(delta) if is_m1 else 0.0,
            lambda_floor=scenario.lambda_floor,
        )
    if spec.method is Method.PROPENSITY:
        return replace(spec.generator_params, effect=delta if is_m1 else 0.0)
    return replace(spec.generator_params, beta=delta if is_m1 else 0.0)


def resolve_sample_size(spec: TrialSpec) -> int:
    """The explicit sample size, or the method's sample-size bound under AUTO."""
    if spec.sample_size != AUTO:
        return spec.sample_size
    delta = spec.concept.delta
    if spec.method is Method.SCCS:
        return sccs_sample_size(spec.epsilon, delta, spec.generator_params.lambda_floor)
    if spec.method is Method.PROPENSITY:
        return ps_sample_sizes(spec.epsilon, delta, spec.generator_params.n_covariates).total
    sizes = []
    for truth in (ModelChoice.M1, ModelChoice.M2):
        params = params_for_truth(replace(spec, truth=truth))
        sigma_dy2, sigma_dz2 = iv_analytic_variances(params)
        if sigma_dy2 <= 0.0 or sigma_dz2 <= 0.0:
            raise InvalidArgumentError(
                "noiseless generators have degenerate analytic variances; "
                "set sample_size explicitly"
            )
        sizes.append(
            iv_sample_size(spec.epsilon, delta, sigma_dy2, sigma_dz2, params.alpha, 1.0)
        )
    return max(sizes)


@dataclass(frozen=True)
class TrialOutcome:
    """One trial: the stream id used, the chosen model (absent on a
    pipeline halt), whether it matched the generating truth, and why it
    failed."""

    seed: int
    decision: ModelChoice | None
    statistic: float
    correct: bool
    failure: str | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "decision": None if self.decision is None else self.decision.value,
            "statistic": self.statistic,
            "correct": self.correct,
            "failure": self.failure,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrialOutcome":
        chosen = d.get("decision")
        return cls(
            seed=int(d["seed"]),
            decision=None if chosen is None else ModelChoice(chosen),
            statistic=_jsonio.float_from_json(d["statistic"]),
            correct=bool(d["correct"]),
            failure=d.get("failure"),
        )


def run_trial(spec: TrialSpec, index: int, sample_size: int | None = None) -> TrialOutcome:
    """Draw one sample from the truth model and apply the method's rule.

    SCCS and propensity trials draw only what their decisions read (the
    event totals; the fitting slice's cell tallies), with the law of the
    record-level generators. A pipeline halt (too few rejection
    survivors, generation retry exhaustion, degenerate estimators) counts
    as an incorrect trial with the failure recorded, preserving the
    union-bound accounting.
    """
    size = resolve_sample_size(spec) if sample_size is None else sample_size
    stream_id = spec.stream_base + index
    gen = split_stream(spec.master_seed, stream_id).generator()
    params = params_for_truth(spec)
    delta = spec.concept.delta
    try:
        if spec.method is Method.SCCS:
            counts = draw_sccs_counts(spec.generator_params.design, params, size, gen)
            decision = sccs_decide(counts, delta)
        elif spec.method is Method.PROPENSITY:
            decision = ps_decide_drawn(params, size, delta, gen, epsilon=spec.epsilon)
        else:
            dataset = generate_iv(params, size, gen)
            decision = iv_decide(dataset, delta)
    except _TRIAL_FAILURES as exc:
        return TrialOutcome(
            seed=stream_id,
            decision=None,
            statistic=math.nan,
            correct=False,
            failure=f"{type(exc).__name__}: {exc}",
        )
    return TrialOutcome(
        seed=stream_id,
        decision=decision.chosen,
        statistic=decision.statistic,
        correct=decision.chosen is spec.truth,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated trial results certified against the spec's epsilon."""

    spec: TrialSpec
    resolved_sample_size: int
    errors: int
    trials: int
    empirical_rate: float
    upper_bound: float
    passed: bool
    confidence: float = 0.95
    per_trial: tuple[TrialOutcome, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "verification",
            "spec": self.spec.to_dict(),
            "resolved_sample_size": self.resolved_sample_size,
            "errors": self.errors,
            "trials": self.trials,
            "empirical_rate": self.empirical_rate,
            "upper_bound": self.upper_bound,
            "confidence": self.confidence,
            "pass": self.passed,
            "per_trial": None
            if self.per_trial is None
            else [t.to_dict() for t in self.per_trial],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        per_trial = d.get("per_trial")
        return cls(
            spec=TrialSpec.from_dict(d["spec"]),
            resolved_sample_size=int(d["resolved_sample_size"]),
            errors=int(d["errors"]),
            trials=int(d["trials"]),
            empirical_rate=_jsonio.float_from_json(d["empirical_rate"]),
            upper_bound=_jsonio.float_from_json(d["upper_bound"]),
            passed=bool(d["pass"]),
            confidence=_jsonio.float_from_json(d.get("confidence", 0.95)),
            per_trial=None
            if per_trial is None
            else tuple(TrialOutcome.from_dict(t) for t in per_trial),
        )


def verify(
    spec: TrialSpec, workers: int = 1, keep_trials: bool = True
) -> VerificationReport:
    """Run the spec's trials and certify the error rate against epsilon.

    Passing means the one-sided Wilson upper bound (at ``confidence``
    0.95) on the error probability does not exceed epsilon. Output is
    identical for identical specs regardless of ``workers``, which is
    clamped to the trial count and the CPU count.
    """
    if workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    workers = _clamp_workers(workers, spec.trials)
    size = resolve_sample_size(spec)
    indices = range(spec.trials)
    if workers == 1:
        outcomes = [run_trial(spec, i, size) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda i: run_trial(spec, i, size), indices))
    errors = sum(1 for o in outcomes if not o.correct)
    upper = rate_upper_bound(errors, spec.trials, 0.95)
    return VerificationReport(
        spec=spec,
        resolved_sample_size=size,
        errors=errors,
        trials=spec.trials,
        empirical_rate=errors / spec.trials,
        upper_bound=upper,
        passed=upper <= spec.epsilon,
        per_trial=tuple(outcomes) if keep_trials else None,
    )


def _clamp_workers(workers: int, trials: int) -> int:
    """Threads worth starting: no more than the trials or the CPUs."""
    return min(workers, trials, os.cpu_count() or 1)


@dataclass(frozen=True)
class SweepReport:
    """verify() at every grid point; worst is the argmax upper bound."""

    base: TrialSpec
    grid: tuple[GeneratorParams, ...]
    reports: tuple[VerificationReport, ...]
    worst: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "sweep",
            "base": self.base.to_dict(),
            "grid": [g.to_dict() for g in self.grid],
            "reports": [r.to_dict() for r in self.reports],
            "worst": self.worst,
            "pass": self.passed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        base = TrialSpec.from_dict(d["base"])
        grid = tuple(
            generator_params_from_dict(base.method, g) for g in d["grid"]
        )
        return cls(
            base=base,
            grid=grid,
            reports=tuple(VerificationReport.from_dict(r) for r in d["reports"]),
            worst=int(d["worst"]),
            passed=bool(d["pass"]),
        )


def adversarial_sweep(
    base: TrialSpec,
    grid: Sequence[GeneratorParams],
    workers: int = 1,
    keep_trials: bool = True,
) -> SweepReport:
    """Verify at every grid point with disjoint stream-id ranges.

    Grid points that violate the method's assumptions (positivity, rate
    floors, outcome validity under either truth) are rejected up front
    with a per-point diagnostic rather than silently skipped.
    """
    if len(grid) == 0:
        raise InvalidArgumentError("the sweep grid must be nonempty")
    problems = []
    specs = []
    for k, point in enumerate(grid):
        spec_k = replace(
            base, generator_params=point, stream_base=k * base.trials
        )
        try:
            for truth in (ModelChoice.M1, ModelChoice.M2):
                params_for_truth(replace(spec_k, truth=truth))
            resolve_sample_size(spec_k)
        except PaccError as exc:
            problems.append(f"grid point {k}: {exc}")
            continue
        specs.append(spec_k)
    if problems:
        raise InvalidArgumentError(
            "sweep rejected; assumption-violating grid points:\n" + "\n".join(problems)
        )
    reports = tuple(verify(s, workers=workers, keep_trials=keep_trials) for s in specs)
    worst = max(range(len(reports)), key=lambda k: reports[k].upper_bound)
    return SweepReport(
        base=base,
        grid=tuple(grid),
        reports=reports,
        worst=worst,
        passed=all(r.passed for r in reports),
    )


Report = Union[VerificationReport, SweepReport]


def _verification_csv(report: VerificationReport) -> str:
    if report.per_trial is None:
        raise InvalidArgumentError("CSV output needs per-trial records in the report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", "decision", "statistic", "correct", "failure"])
    for t in report.per_trial:
        writer.writerow(
            [
                t.seed,
                "" if t.decision is None else t.decision.value,
                _jsonio.format_float(t.statistic),
                int(t.correct),
                t.failure or "",
            ]
        )
    return buf.getvalue()


def _sweep_csv(report: SweepReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["point", "errors", "trials", "empirical_rate", "upper_bound", "pass", "worst"]
    )
    for k, r in enumerate(report.reports):
        writer.writerow(
            [
                k,
                r.errors,
                r.trials,
                _jsonio.format_float(r.empirical_rate),
                _jsonio.format_float(r.upper_bound),
                int(r.passed),
                int(k == report.worst),
            ]
        )
    return buf.getvalue()


def write_report(report: Report, path: str | Path, format: str = "json") -> None:
    """Write a report as self-contained JSON or as a flattened CSV."""
    if format == "json":
        text = _jsonio.dumps(report.to_dict())
    elif format == "csv":
        if isinstance(report, VerificationReport):
            text = _verification_csv(report)
        else:
            text = _sweep_csv(report)
    else:
        raise InvalidArgumentError(f"unknown report format {format!r}")
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise PaccError(f"cannot write report to {path}: {exc}") from exc


def read_report(path: str | Path) -> Report:
    """Read back a JSON report written by write_report."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise PaccError(f"cannot read report from {path}: {exc}") from exc
    if payload.get("schema") != REPORT_SCHEMA:
        raise InvalidArgumentError(f"unrecognised report schema in {path}")
    if payload.get("kind") == "sweep":
        return SweepReport.from_dict(payload)
    return VerificationReport.from_dict(payload)
