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
import functools
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence, Union

import numpy as np

from pacc import _jsonio
from pacc.core import (
    ConceptSpec,
    Decision,
    DegenerateFitError,
    GenerationFailureError,
    InvalidArgumentError,
    Method,
    ModelChoice,
    PaccError,
    PipelineFailureError,
    RngStream,
    UndefinedAteError,
    WeakInstrumentError,
    rate_upper_bound,
    real_number,
    rekeyed_generator,
    whole_number,
)
from pacc.iv2sls import (
    IvDataset,
    IvParams,
    draw_iv_sums,
    generate_iv,
    iv_analytic_variances,
    iv_decide,
    iv_ratio,
    iv_rule,
    iv_sample_size,
    two_sls,
)
from pacc.propensity import (
    ObsDataset,
    PsParams,
    generate_obs,
    ps_decide,
    ps_decide_drawn,
    ps_pipeline,
    ps_sample_sizes,
)
from pacc.sccs import (
    PointLaw,
    SccsDataset,
    SccsDesign,
    SccsParams,
    TwoPointLaw,
    draw_cell_counts,
    draw_sccs_counts,
    generate_sccs,
    law_from_dict,
    sccs_cell_table,
    sccs_decide,
    sccs_mle_closed,
    sccs_sample_size,
)

__all__ = [
    "AUTO",
    "METHODS",
    "MethodSpec",
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

# Confidence level of the one-sided Wilson bound that verify certifies.
CONFIDENCE = 0.95

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
            lambda_floor=real_number(d["lambda_floor"], "lambda_floor"),
        )


GeneratorParams = Union[SccsScenario, PsParams, IvParams]


def _sccs_scenario(d: dict) -> SccsScenario:
    if "beta" in d:
        raise InvalidArgumentError(
            "the SCCS effect is derived from truth and concept delta; "
            "remove 'beta' from the generator block"
        )
    return SccsScenario.from_dict(d)


def _effect_free(parse: Callable[[dict], GeneratorParams], field: str):
    """Parser of a generator block whose effect ``field`` is absent or zero."""

    def parse_effect_free(d: dict) -> GeneratorParams:
        if field in d and real_number(d[field], field) != 0.0:
            raise InvalidArgumentError(
                "the treatment effect is derived from truth and concept delta; "
                f"remove {field!r} from the generator block"
            )
        return parse({**d, field: 0.0})

    return parse_effect_free


def _sccs_truth(scenario: SccsScenario, delta: float, is_m1: bool) -> SccsParams:
    return SccsParams(
        phi_law=scenario.phi_law,
        beta=math.log(delta) if is_m1 else 0.0,
        lambda_floor=scenario.lambda_floor,
    )


def _sccs_prepare(
    spec: TrialSpec, params: SccsParams, size: int
) -> Callable[[np.random.Generator], Decision]:
    """An SCCS trial: the event totals from the design's cell table, or
    case by case when the design has too many cells for one."""
    design, delta = spec.generator_params.design, spec.concept.delta
    table = sccs_cell_table(design, params)
    if table is None:
        return lambda gen: sccs_decide(draw_sccs_counts(design, params, size, gen), delta)
    return lambda gen: sccs_decide(draw_cell_counts(design, table, size, gen), delta)


def _iv_auto_size(spec: TrialSpec) -> int:
    """The IV bound at the analytic variances of the worse of the two truths."""
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
            iv_sample_size(
                spec.epsilon, spec.concept.delta, sigma_dy2, sigma_dz2, params.alpha, 1.0
            )
        )
    return max(sizes)


def _sccs_generator(block: dict) -> tuple[SccsDesign, SccsParams]:
    return SccsDesign.from_dict(block["design"]), SccsParams.from_dict(block["params"])


def _ps_estimate(
    data: ObsDataset, delta: float, epsilon: float, rng: RngStream
) -> dict:
    result = ps_pipeline(data, delta, rng, epsilon)
    return {
        "method": "propensity",
        "statistic": result.ate,
        "survivors": result.survivors,
        "sizes": result.sizes.to_dict(),
        "model": result.model.to_dict(),
    }


def _iv_estimate(data: IvDataset, delta, epsilon, rng) -> dict:
    est = two_sls(data)
    return {"method": "iv2sls", "statistic": est.beta_hat, **est.to_dict()}


@dataclass(frozen=True)
class MethodSpec:
    """The parts of one procedure that ``verify`` and the CLI dispatch on.

    Each procedure is a model pair that differs in one effect, a
    sample-size bound, a generator and a decision rule. Entries reach
    layer functions through module globals, so a function rebound at run
    time (a profiler's wrapper, a test's stub) is the one called.
    """

    # The effect-free generator block of verify/sweep: its type, the name
    # of its effect field (None when it has none) and its parser.
    params_type: type
    effect_field: str | None
    parse_params: Callable[[dict], GeneratorParams]
    # (effect-free params, delta, truth is M1) -> generation parameters.
    truth_params: Callable[[GeneratorParams, float, bool], Any]
    # The sample-size bound that AUTO resolves to.
    auto_size: Callable[[TrialSpec], int]
    # Trials: (spec, truth params, sample size) -> draw_and_decide, which
    # maps a trial's generator to its decision. The work that depends only
    # on the spec runs in the first call, once per spec and size.
    prepare: Callable[
        [TrialSpec, Any, int], Callable[[np.random.Generator], Decision]
    ]
    # `generate`: its generator block, effect included, and the draw.
    parse_generator: Callable[[dict], Any]
    generate: Callable[[Any, int, RngStream], Any]
    # Dataset files: formats (the default first), whether they can carry
    # the latent confounder (`generate --include-hidden`), write(dataset,
    # format, include_hidden) and read(text, format).
    formats: tuple[str, ...]
    hidden_column: bool
    write: Callable[[Any, str, bool], str]
    read: Callable[[str, str], Any]
    # `estimate` and `decide` on a dataset: (dataset, delta, epsilon,
    # decide stream); epsilon and the stream are None unless decide_stream.
    decide_stream: bool
    estimate: Callable[[Any, float | None, float | None, RngStream | None], dict]
    decide: Callable[[Any, float, float | None, RngStream | None], Decision]


METHODS: dict[Method, MethodSpec] = {
    Method.SCCS: MethodSpec(
        params_type=SccsScenario,
        effect_field=None,
        parse_params=_sccs_scenario,
        truth_params=_sccs_truth,
        auto_size=lambda spec: sccs_sample_size(
            spec.epsilon, spec.concept.delta, spec.generator_params.lambda_floor
        ),
        prepare=_sccs_prepare,
        parse_generator=_sccs_generator,
        generate=lambda design_params, count, rng: generate_sccs(*design_params, count, rng),
        formats=("json",),
        hidden_column=False,
        write=lambda data, fmt, hidden: _jsonio.dumps(data.to_dict()),
        read=lambda text, fmt: SccsDataset.from_dict(json.loads(text)),
        decide_stream=False,
        estimate=lambda data, delta, epsilon, rng: {
            "method": "sccs",
            "estimator": "closed_form",
            "statistic": sccs_mle_closed(data),
            "nu1": data.nu1,
            "nu2": data.nu2,
        },
        decide=lambda data, delta, epsilon, rng: sccs_decide(data, delta),
    ),
    Method.PROPENSITY: MethodSpec(
        params_type=PsParams,
        effect_field="effect",
        parse_params=_effect_free(PsParams.from_dict, "effect"),
        truth_params=lambda params, delta, is_m1: replace(
            params, effect=delta if is_m1 else 0.0
        ),
        auto_size=lambda spec: ps_sample_sizes(
            spec.epsilon, spec.concept.delta, spec.generator_params.n_covariates
        ).total,
        prepare=lambda spec, params, size: lambda gen: ps_decide_drawn(
            params, size, spec.concept.delta, gen, epsilon=spec.epsilon
        ),
        parse_generator=PsParams.from_dict,
        generate=lambda params, count, rng: generate_obs(params, count, rng),
        formats=("csv", "json"),
        hidden_column=False,
        write=lambda data, fmt, hidden: (
            _jsonio.dumps(data.to_json_obj()) if fmt == "json" else data.to_csv()
        ),
        read=lambda text, fmt: (
            ObsDataset.from_json_obj(json.loads(text))
            if fmt == "json"
            else ObsDataset.from_csv(text)
        ),
        decide_stream=True,
        estimate=_ps_estimate,
        decide=lambda data, delta, epsilon, rng: ps_decide(data, delta, rng, epsilon),
    ),
    Method.IV2SLS: MethodSpec(
        params_type=IvParams,
        effect_field="beta",
        parse_params=_effect_free(IvParams.from_dict, "beta"),
        truth_params=lambda params, delta, is_m1: replace(
            params, beta=delta if is_m1 else 0.0
        ),
        auto_size=_iv_auto_size,
        prepare=lambda spec, params, size: lambda gen: iv_rule(
            iv_ratio(*draw_iv_sums(params, size, gen)), spec.concept.delta
        ),
        parse_generator=IvParams.from_dict,
        generate=lambda params, count, rng: generate_iv(params, count, rng),
        formats=("csv",),
        hidden_column=True,
        write=lambda data, fmt, hidden: data.to_csv(include_hidden=hidden),
        read=lambda text, fmt: IvDataset.from_csv(text),
        decide_stream=False,
        estimate=_iv_estimate,
        decide=lambda data, delta, epsilon, rng: iv_decide(data, delta),
    ),
}


def generator_params_from_dict(method: Method, d: dict) -> GeneratorParams:
    """Parse a generator block for ``method``; the effect field must be absent."""
    return METHODS[method].parse_params(d)


@dataclass(frozen=True)
class TrialSpec:
    """Everything one certification run needs, including its randomness.

    The concept names the method. ``epsilon`` is the error budget being
    certified; ``sample_size`` is an explicit count or AUTO to take the
    method's sample-size bound; ``stream_base`` offsets trial stream ids
    so sweep points never share streams.
    """

    truth: ModelChoice
    concept: ConceptSpec
    generator_params: GeneratorParams
    trials: int
    master_seed: int
    epsilon: float
    sample_size: int | str = AUTO
    stream_base: int = 0

    @property
    def method(self) -> Method:
        return self.concept.method

    def __post_init__(self) -> None:
        entry = METHODS[self.method]
        if not isinstance(self.generator_params, entry.params_type):
            raise InvalidArgumentError(
                f"{self.method.value} needs {entry.params_type.__name__} generator params, "
                f"got {type(self.generator_params).__name__}"
            )
        field = entry.effect_field
        if field is not None and getattr(self.generator_params, field) != 0.0:
            raise InvalidArgumentError(
                "generator_params must describe the effect-free pair member "
                f"({field} == 0); the harness applies the concept delta under M1"
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
            delta=real_number(concept_d["delta"], "concept.delta"),
            method=method,
            description=str(concept_d.get("description", "")),
        )
        size = d.get("sample_size", AUTO)
        if size != AUTO:
            size = whole_number(size, "sample_size")
        return cls(
            truth=ModelChoice(d["truth"]),
            concept=concept,
            generator_params=generator_params_from_dict(method, d["generator"]),
            trials=whole_number(d["trials"], "trials"),
            master_seed=whole_number(d["master_seed"], "master_seed"),
            epsilon=real_number(d["epsilon"], "epsilon"),
            sample_size=size,
            stream_base=whole_number(d.get("stream_base", 0), "stream_base"),
        )


def params_for_truth(spec: TrialSpec) -> SccsParams | PsParams | IvParams:
    """Generation parameters for the model the trial's truth selects."""
    return METHODS[spec.method].truth_params(
        spec.generator_params, spec.concept.delta, spec.truth is ModelChoice.M1
    )


def resolve_sample_size(spec: TrialSpec) -> int:
    """The explicit sample size, or the method's sample-size bound under AUTO."""
    if spec.sample_size != AUTO:
        return spec.sample_size
    return METHODS[spec.method].auto_size(spec)


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
            statistic=float(d["statistic"]),
            correct=bool(d["correct"]),
            failure=d.get("failure"),
        )


# Bounded, because an SCCS entry holds its cell table (up to 2**17 cells);
# a sweep needs one entry per grid point while it runs.
@functools.lru_cache(maxsize=8)
def _prepared_trial(
    spec: TrialSpec, sample_size: int | None
) -> Callable[[np.random.Generator], Decision]:
    size = resolve_sample_size(spec) if sample_size is None else sample_size
    return METHODS[spec.method].prepare(spec, params_for_truth(spec), size)


def run_trial(spec: TrialSpec, index: int, sample_size: int | None = None) -> TrialOutcome:
    """Draw one sample from the truth model and apply the method's rule.

    Trials draw only what their decisions read, with the law of the
    record-level generators: the three 2SLS sums from three standard
    normals (IV), the event totals from the design's cell table (SCCS),
    the fitting slice's cell tallies (propensity). The work each spec
    needs once (truth parameters, sample size, SCCS cell table) is
    prepared on the first trial and kept for a few recent (spec, size)
    pairs. The trial's stream (master_seed, stream_base + index) comes
    from this thread's re-keyed generator, which draws what a fresh one
    would. A pipeline halt (too few rejection survivors, generation retry
    exhaustion, degenerate estimators) counts as an incorrect trial with
    the failure recorded, preserving the union-bound accounting.
    """
    stream_id = spec.stream_base + index
    draw_and_decide = _prepared_trial(spec, sample_size)
    gen = rekeyed_generator(spec.master_seed, stream_id)
    try:
        decision = draw_and_decide(gen)
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
    per_trial: tuple[TrialOutcome, ...]

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
            "confidence": CONFIDENCE,
            "pass": self.passed,
            "per_trial": [t.to_dict() for t in self.per_trial],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            spec=TrialSpec.from_dict(d["spec"]),
            resolved_sample_size=int(d["resolved_sample_size"]),
            errors=int(d["errors"]),
            trials=int(d["trials"]),
            empirical_rate=float(d["empirical_rate"]),
            upper_bound=float(d["upper_bound"]),
            passed=bool(d["pass"]),
            per_trial=tuple(TrialOutcome.from_dict(t) for t in d["per_trial"]),
        )


def verify(spec: TrialSpec, workers: int = 1) -> VerificationReport:
    """Run the spec's trials and certify the error rate against epsilon.

    Each trial is one ``run_trial`` call, looked up through this module
    at run time. Each worker runs one contiguous block of trial indices
    and the blocks are joined in index order. Passing means the one-sided
    Wilson upper bound (at ``CONFIDENCE``) on the error probability does
    not exceed epsilon. Output is identical for identical specs
    regardless of ``workers``, which is clamped to the trial count and
    the CPU count.
    """
    if workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    workers = _clamp_workers(workers, spec.trials)
    size = resolve_sample_size(spec)

    def run_block(block: range) -> list[TrialOutcome]:
        return [run_trial(spec, i, size) for i in block]

    n = spec.trials
    if workers == 1:
        outcomes = run_block(range(n))
    else:
        # One contiguous block of trial indices per worker, joined in index order.
        blocks = [range(k * n // workers, (k + 1) * n // workers) for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for block in pool.map(run_block, blocks) for o in block]
    errors = sum(1 for o in outcomes if not o.correct)
    upper = rate_upper_bound(errors, spec.trials, CONFIDENCE)
    return VerificationReport(
        spec=spec,
        resolved_sample_size=size,
        errors=errors,
        trials=spec.trials,
        empirical_rate=errors / spec.trials,
        upper_bound=upper,
        passed=upper <= spec.epsilon,
        per_trial=tuple(outcomes),
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
    reports = tuple(verify(s, workers=workers) for s in specs)
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
