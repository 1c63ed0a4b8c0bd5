"""Monte Carlo certification harness.

Runs repeated generate-then-decide trials at the sample sizes the
methods' bounds prescribe, aggregates error rates with a Wilson upper
bound against epsilon, and sweeps nuisance parameters to probe the worst
case over the model family. Every trial owns stream (master_seed,
stream_base + index), and a run's trials execute in index order on the
calling thread.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence, Union

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
    UndefinedAteError,
    WeakInstrumentError,
    check_array_size,
    check_keys,
    check_u64,
    csv_text,
    error_text,
    json_string,
    rate_upper_bound,
    real_number,
    record_dict,
    rekeyed_generator,
    stream_normals,
    whole_number,
)
from pacc.iv2sls import (
    IvDataset,
    IvParams,
    check_iv_trial,
    generate_iv,
    iv_analytic_variances,
    iv_block,
    iv_decide,
    iv_sample_size,
    two_sls,
)
from pacc.propensity import (
    ObsDataset,
    PsParams,
    check_ps_trial,
    generate_obs,
    ps_decide,
    ps_pipeline,
    ps_sample_sizes,
    ps_trial,
)
from pacc.sccs import (
    SccsDataset,
    SccsModel,
    check_sccs_trial,
    generate_sccs,
    sccs_decide,
    sccs_mle_closed,
    sccs_sample_size,
    sccs_trial_law,
)

__all__ = [
    "AUTO",
    "METHODS",
    "MethodSpec",
    "GeneratorParams",
    "TrialSpec",
    "TrialOutcome",
    "VerificationReport",
    "SweepReport",
    "Report",
    "run_trial",
    "verify",
    "adversarial_sweep",
    "write_report",
    "report_json",
    "read_report",
    "params_for_truth",
    "resolve_sample_size",
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


GeneratorParams = Union[SccsModel, PsParams, IvParams]

# A prepared SCCS trial: maps a trial's generator to its decision.
DrawAndDecide = Callable[[np.random.Generator], Decision]

# A prepared block of trials: (first index, count) -> the outcomes of
# trials first, ..., first + count - 1, in index order.
TrialBlock = Callable[[int, int], Sequence["TrialOutcome"]]


def _sccs_prepare(spec: TrialSpec, model: SccsModel, size: int) -> TrialBlock:
    """SCCS trials, one at a time: ``run_trial`` on each index in turn, looked
    up through this module at run time, with the trial that draws the event
    totals from the model's trial law, whose 1-D tables are built here."""
    law, delta = sccs_trial_law(model.design, model.params, size), spec.concept.delta

    def draw_and_decide(gen: np.random.Generator) -> Decision:
        return sccs_decide(law.draw(gen), delta)

    return lambda first, count: [
        run_trial(spec, i, draw_and_decide) for i in range(first, first + count)
    ]


# A trial's choice, indexed by whether it chose M1.
_CHOICES = np.array([ModelChoice.M2, ModelChoice.M1], dtype=object)


def _array_block(spec: TrialSpec, trials: Callable[[int, int, int], tuple]) -> TrialBlock:
    """A block decided as arrays: ``trials(master_seed, first stream,
    count)`` gives whether each trial chose M1, its statistic, and the
    error of each that halted (whose statistic is NaN), by row index."""
    is_m1 = spec.truth is ModelChoice.M1

    def block(first: int, count: int) -> list[TrialOutcome]:
        stream = spec.stream_base + first
        m1, statistic, halts = trials(spec.master_seed, stream, count)
        chosen, correct, failures = _CHOICES[m1.astype(np.intp)], m1 == is_m1, [None] * count
        for i, exc in halts.items():
            chosen[i], correct[i], failures[i] = None, False, _failure_text(exc)
        # _make takes each row's tuple as is, at about four fifths of the
        # constructor's cost per record.
        return list(map(TrialOutcome._make, zip(
            range(stream, stream + count), chosen.tolist(), statistic.tolist(),
            correct.tolist(), failures,
        )))

    return block


def _iv_prepare(spec: TrialSpec, params: IvParams, size: int) -> TrialBlock:
    """IV trials: the three standard normals of every trial's stream in one
    array (``stream_normals``), decided row by row with array arithmetic
    (``iv_block``)."""
    delta = spec.concept.delta
    return _array_block(spec, lambda master_seed, stream, count: iv_block(
        params, size, delta, stream_normals(master_seed, stream, count, 3)
    ))


def _iv_check(spec: TrialSpec, size: int) -> None:
    """The checks of an IV block: ``iv_block``'s, and its normals, one row
    of three a trial, within numpy's array limit."""
    check_iv_trial(size, spec.concept.delta)
    check_array_size(spec.trials, 3)


def _sized(
    bound: Callable[[TrialSpec], int], check: Callable[[TrialSpec, int], object]
) -> Callable[[TrialSpec], int]:
    """A ``MethodSpec.size``: the spec's explicit size, or ``bound(spec)``
    under AUTO, once ``check(spec, size)`` has passed it."""

    def size(spec: TrialSpec) -> int:
        count = bound(spec) if spec.sample_size == AUTO else spec.sample_size
        check(spec, count)
        return count

    return size


def _iv_auto_size(spec: TrialSpec) -> int:
    """The IV bound at the analytic variances of the worse of the two truths."""
    sizes = []
    for is_m1 in (True, False):
        params = METHODS[spec.method].truth_params(
            spec.generator_params, spec.concept.delta, is_m1
        )
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


def _ps_estimate(
    data: ObsDataset, delta: float, epsilon: float, gen: np.random.Generator
) -> dict:
    result = ps_pipeline(data, delta, gen, epsilon)
    return {
        "statistic": result.ate,
        "survivors": result.survivors,
        "sizes": result.sizes.to_dict(),
        "model": result.model.to_dict(),
    }


def _iv_estimate(data: IvDataset, delta, epsilon, rng) -> dict:
    est = two_sls(data)
    return {"statistic": est.beta_hat, **est.to_dict()}


class MethodSpec(NamedTuple):
    """The parts of one procedure that ``verify`` and the CLI dispatch on.

    Each procedure is a model pair that differs in one effect, a
    sample-size bound, a generator and a decision rule. Entries reach
    layer functions through module globals, so a function rebound at run
    time (a profiler's wrapper, a test's stub) is the one called.
    """

    # The type of the generator block that every command reads. Its
    # ``from_dict`` reads an absent effect as 0; verify and sweep take
    # blocks without an effect.
    params_type: type
    # (effect-free params, delta, truth is M1) -> the same params with the
    # truth's effect: delta's under M1, none under M2.
    truth_params: Callable[[GeneratorParams, float, bool], GeneratorParams]
    # A spec's sample size: the explicit one or the bound that AUTO
    # resolves to, passed through the checks `prepare` makes before it
    # builds anything (the trial-day limit, N1 + N2, int64 and numpy's
    # array limit for records or for IV's block of normals).
    size: Callable[[TrialSpec], int]
    # Trials: (spec, truth params, sample size) -> the prepared block. The
    # work that depends only on the spec runs in this call, once per verify.
    # SCCS decides one trial at a time (`run_trial`); IV and propensity
    # decide a block as arrays, each stream drawing what its trial reads.
    prepare: Callable[[TrialSpec, Any, int], TrialBlock]
    # `generate`: (params, count, stream) -> a dataset.
    generate: Callable[[Any, int, np.random.Generator], Any]
    # Dataset files: formats (the default first), whether they can carry
    # the latent confounder (`generate --include-hidden`), write(dataset,
    # format, include_hidden) and read(text, format).
    formats: tuple[str, ...]
    hidden_column: bool
    write: Callable[[Any, str, bool], str]
    read: Callable[[str, str], Any]
    # `estimate` and `decide` on a dataset: (dataset, delta, epsilon,
    # decide stream); epsilon and the stream are None unless decide_stream.
    # The CLI writes "method" ahead of either's payload.
    decide_stream: bool
    estimate: Callable[[Any, float | None, float | None, np.random.Generator | None], dict]
    decide: Callable[[Any, float, float | None, np.random.Generator | None], Decision]


METHODS: dict[Method, MethodSpec] = {
    Method.SCCS: MethodSpec(
        params_type=SccsModel,
        truth_params=lambda model, delta, is_m1: model._replace(
            params=replace(model.params, beta=math.log(delta) if is_m1 else 0.0)
        ),
        size=_sized(
            lambda spec: sccs_sample_size(
                spec.epsilon, spec.concept.delta, spec.generator_params.params.lambda_floor
            ),
            lambda spec, size: check_sccs_trial(spec.generator_params.design, size),
        ),
        prepare=_sccs_prepare,
        generate=lambda model, count, rng: generate_sccs(
            model.design, model.params, count, rng
        ),
        formats=("json",),
        hidden_column=False,
        write=lambda data, fmt, hidden: _jsonio.dumps(data.to_dict()),
        read=lambda text, fmt: SccsDataset.from_dict(json.loads(text)),
        decide_stream=False,
        estimate=lambda data, delta, epsilon, rng: {
            "estimator": "closed_form",
            "statistic": sccs_mle_closed(data),
            "nu1": data.nu1,
            "nu2": data.nu2,
        },
        decide=lambda data, delta, epsilon, rng: sccs_decide(data, delta),
    ),
    Method.PROPENSITY: MethodSpec(
        params_type=PsParams,
        truth_params=lambda params, delta, is_m1: replace(
            params, effect=delta if is_m1 else 0.0
        ),
        size=_sized(
            lambda spec: ps_sample_sizes(
                spec.epsilon, spec.concept.delta, spec.generator_params.n_covariates
            ).total,
            lambda spec, size: check_ps_trial(
                spec.generator_params, size, spec.concept.delta, spec.epsilon
            ),
        ),
        prepare=lambda spec, params, size: _array_block(
            spec, ps_trial(params, size, spec.concept.delta, spec.epsilon)
        ),
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
        truth_params=lambda params, delta, is_m1: replace(
            params, beta=delta if is_m1 else 0.0
        ),
        size=_sized(_iv_auto_size, _iv_check),
        prepare=_iv_prepare,
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


@dataclass(frozen=True)
class TrialSpec:
    """Everything one certification run needs, including its randomness.

    The concept names the method. ``epsilon`` is the error budget being
    certified; ``sample_size`` is an explicit count or AUTO to take the
    method's sample-size bound; ``stream_base`` offsets trial stream ids
    so sweep points never share streams. The generator block carries no
    effect, and it must give a valid model under either truth: a spec
    whose M1 or M2 is invalid is an InvalidArgumentError, whichever truth
    it runs.
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
        params, delta = self.generator_params, self.concept.delta
        if entry.truth_params(params, delta, False) != params:
            raise InvalidArgumentError(
                "the treatment effect is derived from truth and concept delta; "
                "leave it out of the generator block or set it to 0"
            )
        entry.truth_params(params, delta, True)  # M2 is params; M1 must be valid too
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
        # Checked here so that no trial runs before a later one's stream id fails.
        check_u64(self.master_seed, "master_seed")
        check_u64(self.stream_base + self.trials - 1, "stream_base + trials - 1")

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
        keys = (
            "method", "truth", "epsilon", "concept", "generator", "sample_size",
            "trials", "master_seed", "stream_base",
        )
        check_keys(d, keys, "trial spec")
        method = Method(d["method"])
        concept_d = d["concept"]
        check_keys(concept_d, ("delta", "description"), "concept")
        concept = ConceptSpec(
            delta=real_number(concept_d["delta"], "concept.delta"),
            method=method,
            description=json_string(concept_d.get("description", ""), "concept.description"),
        )
        size = d.get("sample_size", AUTO)
        if size != AUTO:
            size = whole_number(size, "sample_size")
        return cls(
            truth=ModelChoice(d["truth"]),
            concept=concept,
            generator_params=METHODS[method].params_type.from_dict(d["generator"]),
            trials=whole_number(d["trials"], "trials"),
            master_seed=whole_number(d["master_seed"], "master_seed"),
            epsilon=real_number(d["epsilon"], "epsilon"),
            sample_size=size,
            stream_base=whole_number(d.get("stream_base", 0), "stream_base"),
        )


def params_for_truth(spec: TrialSpec) -> GeneratorParams:
    """Generation parameters for the model the trial's truth selects."""
    return METHODS[spec.method].truth_params(
        spec.generator_params, spec.concept.delta, spec.truth is ModelChoice.M1
    )


def resolve_sample_size(spec: TrialSpec) -> int:
    """The explicit sample size, or the method's sample-size bound under
    AUTO, checked against the limits of preparing the method's trial."""
    return METHODS[spec.method].size(spec)


class TrialOutcome(NamedTuple):
    """One trial: the stream id used, the chosen model (absent on a
    pipeline halt), whether it matched the generating truth, and why it
    failed."""

    seed: int
    decision: ModelChoice | None
    statistic: float
    correct: bool
    failure: str | None = None

    to_dict = record_dict


def _report_choice(value: object, name: str) -> ModelChoice | None:
    try:
        return None if value is None else ModelChoice(value)
    except ValueError:
        raise InvalidArgumentError(f"{name} must be 'M1', 'M2' or null, got {value!r}") from None


# A trial record's draw: each field's reader. The spec gives its other fields.
_DRAWS = {
    "decision": _report_choice,
    # A finite number or a non-finite float's name.
    "statistic": lambda value, name: (
        _jsonio.NON_FINITE[value] if type(value) is str and value in _jsonio.NON_FINITE
        else real_number(value, name)
    ),
    "failure": lambda value, name: None if value is None else json_string(value, name),
}


def _failure_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_trial(
    spec: TrialSpec, index: int, draw_and_decide: DrawAndDecide | None = None
) -> TrialOutcome:
    """Draw one sample from the truth model and apply the method's rule.

    Trials draw only what their decisions read, with the law of the
    record-level generators: the three 2SLS sums from three standard
    normals (IV), the event totals from the model's 1-D trial law (SCCS),
    the fitting slice's tallies and the tail's survivors and outcome sums
    per (covariate configuration, arm) cell (propensity). Only propensity
    trials past the enumeration limit draw records: each is ``ps_decide``
    on N1 + N2 records from one ``generate_obs`` call. The trial's stream
    is (master_seed, stream_base + index).

    Without ``draw_and_decide``, the spec's trials are prepared
    (``MethodSpec.prepare``) and a block of this one trial runs, which
    for IV and propensity is the array block of one row. With it, the
    call is one trial of an SCCS block, which passes its prepared trial;
    the trial's generator is this thread's re-keyed one, which draws what
    a fresh one would. A pipeline halt (too few rejection survivors,
    generation retry exhaustion, degenerate estimators) counts as an
    incorrect trial with the failure recorded, preserving the union-bound
    accounting.
    """
    if draw_and_decide is None:
        block = METHODS[spec.method].prepare(
            spec, params_for_truth(spec), resolve_sample_size(spec)
        )
        return block(index, 1)[0]
    stream_id = spec.stream_base + index
    gen = rekeyed_generator(spec.master_seed, stream_id)
    try:
        chosen, statistic, _ = draw_and_decide(gen)
    except _TRIAL_FAILURES as exc:
        return TrialOutcome(stream_id, None, math.nan, False, _failure_text(exc))
    return TrialOutcome(stream_id, chosen, statistic, chosen is spec.truth)


@dataclass(frozen=True)
class VerificationReport:
    """A spec's trial outcomes, certified against its epsilon. Every other
    field it writes is derived from the two, so it cannot contradict them."""

    spec: TrialSpec
    per_trial: tuple[TrialOutcome, ...]

    @cached_property
    def resolved_sample_size(self) -> int:
        return resolve_sample_size(self.spec)

    @property
    def trials(self) -> int:
        return self.spec.trials

    @cached_property
    def errors(self) -> int:
        return sum(1 for t in self.per_trial if not t.correct)

    @property
    def empirical_rate(self) -> float:
        return self.errors / self.trials

    @property
    def upper_bound(self) -> float:
        return rate_upper_bound(self.errors, self.trials, CONFIDENCE)

    @property
    def passed(self) -> bool:
        return self.upper_bound <= self.spec.epsilon

    def to_dict(self) -> dict:
        return self._dict(_trial_dicts)

    def _dict(self, per_trial: Callable[["VerificationReport"], object]) -> dict:
        """The report's fields, with ``per_trial(self)`` as its records."""
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
            "per_trial": per_trial(self),
        }

    @classmethod
    def from_dict(cls, d: dict, name: str = "per_trial") -> "VerificationReport":
        """The report of ``d``'s spec whose trials drew what its records (at
        ``name`` in the file) hold: a decision, a statistic and a failure
        each. The spec gives their seeds, ``correct`` and number."""
        spec = TrialSpec.from_dict(d["spec"])
        per_trial = []
        for i, record in enumerate(d["per_trial"]):
            where = f"{name}[{i}]"
            check_keys(record, TrialOutcome._fields, where)
            draw = {key: read(record.get(key), f"{where}.{key}") for key, read in _DRAWS.items()}
            correct = draw["decision"] is spec.truth
            per_trial.append(TrialOutcome(seed=spec.stream_base + i, correct=correct, **draw))
        if len(per_trial) != spec.trials:
            raise InvalidArgumentError(
                f"len({name}) is {len(per_trial)}, but the spec gives {spec.trials} trials"
            )
        return cls(spec, tuple(per_trial))


def _check_written(value: object, derived: object, name: str = "") -> None:
    """``value``, read from a report file at ``name``, must be what
    ``write_report`` writes for the rebuilt report's ``derived``: an object
    with the same keys, an array of the same length, a scalar with the same
    ``_jsonio`` text. Objects and arrays are compared before the scalars
    beside them, which are derived from them, so an error names its source."""
    if type(derived) is dict:
        check_keys(value, tuple(derived), name or "report")
        paths = {key: f"{name}.{key}" if name else key for key in derived}
        missing = [path for key, path in paths.items() if key not in value]
        if missing:
            raise KeyError(missing[0])  # error_text: "missing required field"
        members = [(value[key], derived[key], path) for key, path in paths.items()]
    elif type(derived) is list and type(value) is list:
        _check_written(len(value), len(derived), f"len({name})")
        members = [(v, dv, f"{name}[{i}]") for i, (v, dv) in enumerate(zip(value, derived))]
    elif type(value) in (dict, list) or _jsonio.dumps(value) != _jsonio.dumps(derived):
        raise InvalidArgumentError(
            f"{name} is {value!r}, but the spec and the draws give {derived!r}"
        )
    else:
        return
    for member in sorted(members, key=lambda m: type(m[1]) not in (dict, list)):
        _check_written(*member)


def verify(spec: TrialSpec) -> VerificationReport:
    """Run the spec's trials and certify the error rate against epsilon.

    The spec's trials are prepared once (``MethodSpec.prepare``) and run
    as one block; nothing prepared outlives the call. The trials run in
    index order on the calling thread: they are short and
    interpreter-bound, so a second thread would not pay for its start-up
    and hand-offs. Passing means the one-sided Wilson upper bound (at
    ``CONFIDENCE``) on the error probability does not exceed epsilon.
    """
    size = resolve_sample_size(spec)
    block = METHODS[spec.method].prepare(spec, params_for_truth(spec), size)
    return VerificationReport(spec, tuple(block(0, spec.trials)))


@dataclass(frozen=True)
class SweepReport:
    """verify() at every grid point, of which there is at least one. The
    grid (each point spec's generator block), the worst point and the
    verdict are derived from the point reports."""

    base: TrialSpec
    reports: tuple[VerificationReport, ...]

    def __post_init__(self) -> None:
        if not self.reports:
            raise InvalidArgumentError("the sweep grid must be nonempty")

    @property
    def grid(self) -> tuple[GeneratorParams, ...]:
        return tuple(r.spec.generator_params for r in self.reports)

    @property
    def worst(self) -> int:
        """The first point with the largest upper bound."""
        return max(range(len(self.reports)), key=lambda k: self.reports[k].upper_bound)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self) -> dict:
        return self._dict(_trial_dicts)

    def _dict(self, per_trial: Callable[[VerificationReport], object]) -> dict:
        """The sweep's fields, with ``per_trial(r)`` as point r's records."""
        return {
            "schema": REPORT_SCHEMA,
            "kind": "sweep",
            "base": self.base.to_dict(),
            "grid": [g.to_dict() for g in self.grid],
            "reports": [r._dict(per_trial) for r in self.reports],
            "worst": self.worst,
            "pass": self.passed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SweepReport":
        """The sweep of ``d``'s base over its grid: each point's records
        under the point spec that the base and the grid give."""
        base = TrialSpec.from_dict(d["base"])
        grid = [METHODS[base.method].params_type.from_dict(g) for g in d["grid"]]
        return cls(base, tuple(
            VerificationReport.from_dict(
                {**r, "spec": _point_spec(base, k, point).to_dict()}, f"reports[{k}].per_trial"
            )
            for k, (point, r) in enumerate(zip(grid, d["reports"]))
        ))


def _point_spec(base: TrialSpec, k: int, point: GeneratorParams) -> TrialSpec:
    """The spec of sweep point ``k``: the base at ``point``, with trial
    stream ids from ``base.stream_base + k * base.trials`` on."""
    return replace(base, generator_params=point, stream_base=base.stream_base + k * base.trials)


def adversarial_sweep(base: TrialSpec, grid: Sequence[GeneratorParams]) -> SweepReport:
    """Verify at every grid point, one point after another, with disjoint
    stream-id ranges: point k's trials take ids from
    ``base.stream_base + k * base.trials`` on.

    Before the first trial, every point's spec is built and its sample
    size resolved and checked: points that carry an effect, violate the
    method's assumptions under either truth (positivity, rate floors,
    outcome validity), would take stream ids past 2**64 - 1, or whose trial
    could not be prepared (an SCCS design past the trial-day limit, an
    explicit size below the propensity N1 + N2, records past numpy's array
    limit) are rejected with a per-point diagnostic, and no trial runs. The
    check builds nothing: a point's trial is prepared just before its own
    trials, so one trial law is held at a time.
    """
    problems = []
    specs = []
    for k, point in enumerate(grid):
        try:
            spec_k = _point_spec(base, k, point)
            resolve_sample_size(spec_k)
        except PaccError as exc:
            problems.append(f"grid point {k}: {exc}")
            continue
        specs.append(spec_k)
    if problems:
        raise InvalidArgumentError(
            "sweep rejected; assumption-violating grid points:\n" + "\n".join(problems)
        )
    return SweepReport(base, tuple(verify(spec_k) for spec_k in specs))


Report = Union[VerificationReport, SweepReport]


def _csv_field(value: object) -> object:
    """A report value's CSV field: a bool is 1 or 0, a float its
    ``_jsonio.format_float`` text; ``csv`` writes null as an empty field."""
    if isinstance(value, bool):
        return int(value)
    return _jsonio.format_float(value) if isinstance(value, float) else value


def _csv(rows: Sequence[dict]) -> str:
    """The CSV text of rows that share the first row's keys, its header."""
    return csv_text(list(rows[0]), ([_csv_field(v) for v in row.values()] for row in rows))


def _trial_dicts(report: VerificationReport) -> list[dict]:
    return [t.to_dict() for t in report.per_trial]


# The JSON text of a record's decision.
_DECISION_TEXT = {None: "null", **{c: _jsonio.quote(c.value) for c in ModelChoice}}


def _trial_rows(per_trial: Sequence[TrialOutcome], pad: str) -> str:
    """The JSON text of ``[t.to_dict() for t in per_trial]`` as
    ``_jsonio.dumps`` writes it at ``pad``: each record fills one
    %-template, built here for the records' indent."""
    if not per_trial:
        return "[]"
    inner, field = pad + "  ", pad + "    "
    row = "".join([
        f"{inner}{{\n",
        ",\n".join([f"{field}{_jsonio.quote(name)}: %s" for name in TrialOutcome._fields]),
        f"\n{inner}}}",
    ])
    quote, float_text, isfinite = _jsonio.quote, _jsonio.float_text, math.isfinite
    # "%.17g" is float_text's form of a finite float, without its two calls.
    rows = ",\n".join([
        row % (
            seed,
            _DECISION_TEXT[decision],
            "%.17g" % statistic if isfinite(statistic) else float_text(statistic),
            "true" if correct else "false",
            "null" if failure is None else quote(failure),
        )
        for seed, decision, statistic, correct, failure in per_trial
    ])
    return f"[\n{rows}\n{pad}]"


def report_json(report: Report) -> str:
    """The report's JSON text, ``_jsonio.dumps(report.to_dict())``, in one
    ``dumps`` call that writes each point's per-trial records through
    ``_trial_rows`` instead of one dict a record."""
    return _jsonio.dumps(report._dict(
        lambda r: _jsonio.Rendered(partial(_trial_rows, r.per_trial))
    ))


def write_report(report: Report, path: str | Path, format: str = "json") -> None:
    """Write a report as self-contained JSON or as CSV, whose rows are a
    verification's records or a sweep's points; a path that cannot be
    written raises its OSError."""
    if format == "json":
        text = report_json(report)
    elif format == "csv" and isinstance(report, SweepReport):
        text = _csv([
            {"point": k, "errors": r.errors, "trials": r.trials,
             "empirical_rate": r.empirical_rate, "upper_bound": r.upper_bound,
             "pass": r.passed, "worst": k == report.worst}
            for k, r in enumerate(report.reports)
        ])
    elif format == "csv":
        text = _csv(_trial_dicts(report))
    else:
        raise InvalidArgumentError(f"unknown report format {format!r}")
    Path(path).write_text(text)


def read_report(path: str | Path) -> Report:
    """Read back a JSON report written by write_report. The report is
    rebuilt from its spec and its draws (each record's decision, statistic
    and failure), and the file must be what write_report writes for it,
    field for field (``_check_written``); any other file raises
    InvalidArgumentError naming the path."""
    try:
        payload = _jsonio.loads(Path(path).read_text())
    except OSError as exc:
        raise PaccError(f"cannot read report from {path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidArgumentError(f"report {path} is not JSON: {exc}") from None
    except RecursionError as exc:
        raise InvalidArgumentError(f"report {path} nests too deeply to read: {exc}") from None
    if type(payload) is not dict or payload.get("schema") != REPORT_SCHEMA:
        raise InvalidArgumentError(f"unrecognised report schema in {path}")
    # Any kind but "sweep" is read as a verification, whose "kind" it contradicts.
    report_type = SweepReport if payload.get("kind") == "sweep" else VerificationReport
    try:
        report = report_type.from_dict(payload)
        _check_written(payload, report.to_dict())
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise InvalidArgumentError(f"report {path}: {error_text(exc)}") from None
    return report
