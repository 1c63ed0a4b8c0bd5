"""Propensity-score route: observational generation, logistic fitting,
median-normalised rejection sampling, ATE, sample sizes, decision rule.

Records are (x, z, y) with binary covariates x drawn independently, a
logistic treatment-assignment model, and an outcome probability that is
linear in treatment and covariates. The decision pipeline fits a
propensity model on one slice of the data, rebalances a second slice by
rejection sampling, and thresholds the ATE of the survivors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from pacc.core import (
    Decision,
    DegenerateFitError,
    InsufficientDataError,
    InvalidArgumentError,
    ModelChoice,
    PipelineFailureError,
    UndefinedAteError,
    ceil_bound,
    check_array_size,
    csv_records,
    csv_text,
    real_number,
    record_dict,
    record_from_dict,
    whole_number,
)

__all__ = [
    "PsParams",
    "ObsDataset",
    "PropensityModel",
    "PsSampleSizes",
    "CellCounts",
    "generate_obs",
    "tally_cells",
    "fit_logistic",
    "l1_propensity_error",
    "rejection_sample",
    "ate",
    "ps_sample_sizes",
    "ps_decide",
    "ps_trial",
    "check_ps_trial",
    "ps_pipeline",
    "ate_decision",
    "lemma1_bound",
]

_ENUM_LIMIT = 20  # exact enumeration over 2^n covariate configurations
_WEIGHT_CAP = 30.0  # |weight| beyond this is treated as separation
_MAX_ITERS = 200  # Newton updates per logistic fit
_SCORE_TOL = 1e-8  # max-norm of the mean score at which a fit has converged


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # exp never sees a positive argument, so it cannot overflow.
    ex = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


@dataclass(frozen=True)
class PsParams:
    """Generator parameters for the observational factorisation Q, P, R.

    Q draws each covariate independently as Bernoulli(covariate_probs[j]),
    P(Z=1 | x) is logistic in x, and the outcome probability is
    outcome_base + effect * z + confound_weights . x. Construction checks
    bounded positivity against ``positivity_floor`` and that every
    composed outcome probability stays strictly inside (0, 1); nothing is
    clamped later.
    """

    n_covariates: int
    treat_weights: tuple[float, ...]
    treat_bias: float
    positivity_floor: float
    outcome_base: float
    effect: float
    confound_weights: tuple[float, ...]
    covariate_probs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        n = self.n_covariates
        if n < 1:
            raise InvalidArgumentError("n_covariates must be at least 1")
        object.__setattr__(self, "treat_weights", tuple(float(w) for w in self.treat_weights))
        object.__setattr__(
            self, "confound_weights", tuple(float(c) for c in self.confound_weights)
        )
        if len(self.treat_weights) != n or len(self.confound_weights) != n:
            raise InvalidArgumentError("weight vectors must have length n_covariates")
        if self.covariate_probs is None:
            object.__setattr__(self, "covariate_probs", (0.5,) * n)
        else:
            probs = tuple(float(p) for p in self.covariate_probs)
            if len(probs) != n:
                raise InvalidArgumentError("covariate_probs must have length n_covariates")
            if any(not 0.0 < p < 1.0 for p in probs):
                raise InvalidArgumentError("covariate probabilities must lie in (0, 1)")
            object.__setattr__(self, "covariate_probs", probs)
        if not 0.0 < self.positivity_floor < 0.5:
            raise InvalidArgumentError("positivity_floor must lie in (0, 0.5)")

        # Positivity over the full binary support reduces to the two
        # extremes of the monotone logistic index.
        lo = self.treat_bias + sum(min(w, 0.0) for w in self.treat_weights)
        hi = self.treat_bias + sum(max(w, 0.0) for w in self.treat_weights)
        p_lo = 1.0 / (1.0 + math.exp(-lo))
        p_hi = 1.0 / (1.0 + math.exp(-hi))
        if not (self.positivity_floor < p_lo and p_hi < 1.0 - self.positivity_floor):
            raise InvalidArgumentError(
                f"positivity violated: propensity range [{p_lo:.6g}, {p_hi:.6g}] "
                f"leaves ({self.positivity_floor}, {1 - self.positivity_floor})"
            )
        out_lo = self.outcome_base + min(self.effect, 0.0) + sum(
            min(c, 0.0) for c in self.confound_weights
        )
        out_hi = self.outcome_base + max(self.effect, 0.0) + sum(
            max(c, 0.0) for c in self.confound_weights
        )
        if not (0.0 < out_lo and out_hi < 1.0):
            raise InvalidArgumentError(
                f"outcome probabilities span [{out_lo:.6g}, {out_hi:.6g}], "
                "which leaves (0, 1)"
            )

    def propensity(self, x: np.ndarray) -> np.ndarray:
        """True P(Z=1 | x) for an (m, n) 0/1 matrix."""
        eta = x @ np.asarray(self.treat_weights) + self.treat_bias
        return _sigmoid(eta)

    to_dict = record_dict

    @classmethod
    def from_dict(cls, d: dict) -> "PsParams":
        """The generator block; an absent ``effect`` reads as 0 and an absent
        or null ``covariate_probs`` as 0.5 each."""
        return record_from_dict(
            cls, d, "propensity generator",
            readers={
                "n_covariates": whole_number,
                "treat_weights": _real_numbers,
                "confound_weights": _real_numbers,
                "covariate_probs": lambda v, name: v if v is None else _real_numbers(v, name),
            },
            defaults={"effect": 0.0, "covariate_probs": None},
        )


def _real_numbers(values: object, name: str) -> tuple[float, ...]:
    """A JSON list of finite numbers, as a tuple of floats; ``tuple()`` would
    split a string into its characters."""
    if type(values) is not list:
        raise InvalidArgumentError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(real_number(v, f"{name}[{k}]") for k, v in enumerate(values))


class ObsDataset:
    """Observational records as (N, n) covariate, z and y arrays.

    Slicing gives the records of a range, so that bound-scale batches stay
    fast to fit and split. Every value must be 0 or 1: the cell tallies
    read covariate rows as bit codes.
    """

    __slots__ = ("x", "z", "y")

    def __init__(self, x: np.ndarray, z: np.ndarray, y: np.ndarray):
        x, z, y = np.asarray(x), np.asarray(z), np.asarray(y)
        if x.ndim != 2:
            raise InvalidArgumentError("x must be a 2-D 0/1 matrix")
        if z.shape != (x.shape[0],) or y.shape != (x.shape[0],):
            raise InvalidArgumentError("z and y must be vectors matching x rows")
        for name, values in (("x", x), ("z", z), ("y", y)):
            if np.any((values != 0) & (values != 1)):
                raise InvalidArgumentError(f"{name} values must be 0 or 1")
        self.x = x.astype(np.uint8, copy=False)
        self.z = z.astype(np.uint8, copy=False)
        self.y = y.astype(np.uint8, copy=False)

    @property
    def n_covariates(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, i: slice) -> "ObsDataset":
        return ObsDataset(self.x[i], self.z[i], self.y[i])

    def to_csv(self) -> str:
        return csv_text(
            [f"x{j}" for j in range(self.n_covariates)] + ["z", "y"],
            ([int(v) for v in self.x[i]] + [int(self.z[i]), int(self.y[i])]
             for i in range(len(self))),
        )

    @classmethod
    def from_csv(cls, text: str) -> "ObsDataset":
        header, records = csv_records(text)
        if len(header) < 3 or header[-2:] != ["z", "y"]:
            raise InvalidArgumentError("expected header x0..x{n-1},z,y")
        data = np.array([[int(v) for v in row] for row in records])
        return cls(data[:, :-2], data[:, -2], data[:, -1])

    def to_json_obj(self) -> list:
        return [
            {"x": [int(v) for v in self.x[i]], "z": int(self.z[i]), "y": int(self.y[i])}
            for i in range(len(self))
        ]

    @classmethod
    def from_json_obj(cls, obj: list) -> "ObsDataset":
        if not obj:
            raise InvalidArgumentError("cannot build a dataset from zero records")
        x, z, y = ([r[key] for r in obj] for key in ("x", "z", "y"))
        # Checked on the values themselves: numpy reads a bool as 0 or 1.
        if not set(map(type, chain(z, y, *x))) <= {int, float}:
            raise InvalidArgumentError("x, z and y values must be the numbers 0 or 1")
        return cls(np.array(x), np.array(z), np.array(y))


@dataclass(frozen=True)
class PropensityModel:
    """Fitted logistic treatment model; predictions are always in (0, 1).

    ``capped`` records that fitting hit the weight cap (perfect or near
    separation) and stopped there instead of diverging.
    """

    weights: tuple[float, ...]
    bias: float
    capped: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not all(math.isfinite(w) for w in self.weights) or not math.isfinite(self.bias):
            raise InvalidArgumentError("model coefficients must be finite")

    def predict(self, x: np.ndarray) -> np.ndarray:
        """P(Z=1 | x) for an (m, n) 0/1 matrix."""
        eta = np.asarray(x, dtype=np.float64) @ np.asarray(self.weights) + self.bias
        return _sigmoid(eta)

    def to_dict(self) -> dict:
        return {"weights": list(self.weights), "bias": self.bias}


@dataclass(frozen=True)
class PsSampleSizes:
    """Pipeline sizes: N1 to fit the propensity model, N2 into rejection
    sampling, N3 survivors required, and gamma = min(eps, delta, delta^2/4)."""

    gamma: float
    n1: int
    n3: int
    n2: int

    def __post_init__(self) -> None:
        if min(self.n1, self.n2, self.n3) < 1:
            raise InvalidArgumentError("sample sizes must be at least 1")

    @property
    def total(self) -> int:
        return self.n1 + self.n2

    def to_dict(self) -> dict:
        return {**record_dict(self), "total": self.total}


def generate_obs(params: PsParams, count: int, gen: np.random.Generator) -> ObsDataset:
    """Draw ``count`` records from the observational model Q * P * R."""
    if count < 1:
        raise InvalidArgumentError("count must be at least 1")
    n = params.n_covariates
    check_array_size(count, n)
    probs = np.asarray(params.covariate_probs)
    x = (gen.random((count, n)) < probs).astype(np.uint8)
    z = (gen.random(count) < params.propensity(x)).astype(np.uint8)
    p_y = (
        params.outcome_base
        + params.effect * z
        + x @ np.asarray(params.confound_weights)
    )
    y = (gen.random(count) < p_y).astype(np.uint8)
    return ObsDataset(x, z, y)


@dataclass(frozen=True, eq=False)
class CellCounts:
    """Records tallied by covariate configuration.

    Row k of ``design`` is a 0/1 covariate vector and an intercept 1,
    ``totals[k]`` the number of records carrying it and ``treated[k]`` how
    many of those have z = 1. The logistic likelihood depends on records
    only through these counts.
    """

    design: np.ndarray
    totals: np.ndarray
    treated: np.ndarray


def tally_cells(data: ObsDataset) -> CellCounts:
    """Count records per (covariate configuration, treatment arm) cell."""
    n = data.n_covariates
    if n <= _ENUM_LIMIT:
        configs = _enumerate_support(n)
        codes = data.x @ (1 << np.arange(n, dtype=np.int64))
    else:
        configs, codes = np.unique(data.x, axis=0, return_inverse=True)
    totals = np.bincount(codes, minlength=configs.shape[0])
    treated = np.bincount(codes, weights=data.z, minlength=configs.shape[0])
    return CellCounts(np.column_stack([configs, np.ones(totals.size)]), totals, treated)


@dataclass(frozen=True, eq=False)
class _CellTable:
    """What a drawn trial needs of its parameters; ``ps_trial`` builds one
    for all of its trials.

    Over the 2^n covariate configurations: Q and P(Z=1 | x) for the
    fitting slice, and the fit's design matrix (the configurations with an
    intercept column) that every ``draw_fitting`` tally carries. Over the
    (configuration, arm) cells of the tail, every configuration untreated
    and then every one treated: the cell probabilities Q(x) P(z | x) and
    the outcome probabilities.
    """

    configs: np.ndarray
    q: np.ndarray
    p_treat: np.ndarray
    design: np.ndarray
    tail: np.ndarray
    p_y: np.ndarray

    def draw_fitting(self, count: int, gen: np.random.Generator) -> CellCounts:
        """``tally_cells(generate_obs(params, count, gen))`` in law, outcomes
        left out: Multinomial(count, Q) configuration counts and per-cell
        Binomial(total, P(Z=1 | x)) treated counts."""
        totals = gen.multinomial(count, self.q)
        return CellCounts(self.design, totals, gen.binomial(totals, self.p_treat))


def _cell_table(params: PsParams) -> _CellTable:
    """The trial's cell table; past the enumeration limit, an InvalidArgumentError."""
    configs, q = config_probabilities(params)
    p_treat = params.propensity(configs)
    outcome = params.outcome_base + configs @ np.asarray(params.confound_weights)
    return _CellTable(
        configs=configs,
        q=q,
        p_treat=p_treat,
        design=np.column_stack([configs, np.ones(q.size)]),
        tail=np.concatenate([q * (1.0 - p_treat), q * p_treat]),
        p_y=np.concatenate([outcome, outcome + params.effect]),
    )


def _check_drawable(count: int) -> None:
    """numpy draws counts up to int64; a larger one is an InvalidArgumentError."""
    if count > 2**63 - 1:
        raise InvalidArgumentError(f"count must be at most 2**63 - 1, got {count}")


def fit_logistic(data: ObsDataset) -> PropensityModel:
    """Fit P(Z=1 | x) by full-batch Newton ascent on the Bernoulli likelihood.

    Stops when the max-norm of the mean score drops below ``_SCORE_TOL`` or
    after ``_MAX_ITERS`` updates. Data with a single treatment arm cannot
    identify the model and raises DegenerateFitError; a weight walking
    past the cap (separation) stops the fit and flags the model instead
    of diverging. The Newton steps run on the cell tallies, one row per
    covariate configuration present, which gives the per-record MLE.
    """
    return _fit_cells(tally_cells(data))


def _fit_cells(cells: CellCounts) -> PropensityModel:
    """Grouped Newton fit of ``fit_logistic`` on cell tallies weighted by their
    totals, over the design rows of the cells present."""
    present = cells.totals > 0
    design = cells.design[present]
    totals = cells.totals[present].astype(np.float64)
    treated = cells.treated[present].astype(np.float64)
    n_records = float(totals.sum())
    n_treated = float(treated.sum())
    if n_treated == 0 or n_treated == n_records:
        raise DegenerateFitError(
            f"all {int(n_records)} records share one treatment arm; "
            "propensity not identifiable"
        )
    coefs = np.zeros(design.shape[1])
    capped = False
    for _ in range(_MAX_ITERS):
        p = _sigmoid(design @ coefs)
        score = design.T @ (treated - totals * p) / n_records
        if np.abs(score).max() < _SCORE_TOL:
            break
        w = totals * p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) / n_records
        hess.flat[:: hess.shape[0] + 1] += 1e-12  # the diagonal
        coefs = coefs + np.linalg.solve(hess, score)
        if np.abs(coefs).max() > _WEIGHT_CAP:
            coefs = np.clip(coefs, -_WEIGHT_CAP, _WEIGHT_CAP)
            capped = True
            break
    return PropensityModel(
        weights=tuple(coefs[:-1]), bias=float(coefs[-1]), capped=capped
    )


def _enumerate_support(n: int) -> np.ndarray:
    if n > _ENUM_LIMIT:
        raise InvalidArgumentError(
            f"exact enumeration supports at most {_ENUM_LIMIT} covariates, got {n}"
        )
    grid = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return grid.astype(np.float64)


def config_probabilities(params: PsParams) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n covariate configurations and their exact Q-probabilities."""
    grid = _enumerate_support(params.n_covariates)
    probs = np.asarray(params.covariate_probs)
    q = np.prod(np.where(grid == 1.0, probs, 1.0 - probs), axis=1)
    return grid, q


def l1_propensity_error(model: PropensityModel, params: PsParams) -> float:
    """Exact E_Q |P(Z=1|X) - P'(Z=1|X)| by enumerating the covariate support."""
    grid, q = config_probabilities(params)
    return float(q @ np.abs(params.propensity(grid) - model.predict(grid)))


def rejection_sample(
    data: ObsDataset, model: PropensityModel, gen: np.random.Generator
) -> ObsDataset:
    """Keep each record with probability min(median(p_arm) / p_arm, 1).

    p_arm is the fitted probability of the record's own arm: P'(x) for
    treated records and 1 - P'(x) for untreated ones, with the median
    taken per arm over the input batch. An empty output is a legal
    outcome, reported by length, not an error.
    """
    p1 = model.predict(data.x)
    treated = data.z == 1
    p_arm = np.where(treated, p1, 1.0 - p1)
    accept = np.ones(len(data))
    for arm_mask in (treated, ~treated):
        if arm_mask.any():
            med = float(np.median(p_arm[arm_mask]))
            accept[arm_mask] = np.minimum(med / p_arm[arm_mask], 1.0)
    keep = gen.random(len(data)) < accept
    return ObsDataset(data.x[keep], data.z[keep], data.y[keep])


def ate(data: ObsDataset) -> float:
    """Difference of arm-wise outcome means, E[Y | Z=1] - E[Y | Z=0]."""
    n1 = int(data.z.sum())
    n0 = len(data) - n1
    _check_both_arms(n1, n0)
    y1 = int(data.y[data.z == 1].sum())
    y0 = int(data.y[data.z == 0].sum())
    return y1 / n1 - y0 / n0


def _check_both_arms(n1: int, n0: int) -> None:
    if n1 == 0 or n0 == 0:
        raise UndefinedAteError(
            f"both arms are required for an ATE (treated={n1}, control={n0})"
        )


def ps_sample_sizes(epsilon: float, delta: float, n_covariates: int) -> PsSampleSizes:
    """Pipeline sample sizes for the (epsilon, delta) guarantee.

    gamma = min(epsilon, delta, delta^2 / 4). N1 is the propensity-fitting
    size ceil((64 / gamma^2) * (2n * log(16e / gamma) + log(48 / epsilon))).
    N3 = ceil(log(6 / epsilon) / (2 gamma^2)) survivors suffice for the
    two-hypothesis ATE test at failure budget epsilon / 3, and
    N2 = ceil((N3 + log(3/epsilon)/2 + sqrt(2 N3 log(3/epsilon)
    + log(6/epsilon))) / delta) records enter rejection sampling.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise InvalidArgumentError(f"delta must lie in (0, 1), got {delta}")
    if n_covariates < 1:
        raise InvalidArgumentError("n_covariates must be at least 1")
    gamma = min(epsilon, delta, delta * delta / 4.0)
    n1 = ceil_bound(
        "N1",
        lambda: 64.0
        / gamma**2
        * (2.0 * n_covariates * math.log(16.0 * math.e / gamma) + math.log(48.0 / epsilon)),
    )
    n3 = ceil_bound("N3", lambda: math.log(6.0 / epsilon) / (2.0 * gamma**2))
    log3e = math.log(3.0 / epsilon)
    n2 = ceil_bound(
        "N2",
        lambda: (n3 + log3e / 2.0 + math.sqrt(2.0 * n3 * log3e + math.log(6.0 / epsilon)))
        / delta,
    )
    return PsSampleSizes(gamma=gamma, n1=n1, n3=n3, n2=n2)


@dataclass(frozen=True)
class PsPipelineResult:
    """Intermediate products of the decision pipeline, for reporting."""

    model: PropensityModel
    sizes: PsSampleSizes
    survivors: int
    ate: float


def ps_pipeline(
    data: ObsDataset, delta: float, gen: np.random.Generator, epsilon: float
) -> PsPipelineResult:
    """Run fit / rejection-sample / ATE at the sizes implied by (epsilon, delta).

    The first N1 records fit the propensity model, the next N2 go through
    rejection sampling, and the ATE is taken over the survivors. Fewer
    than N1 + N2 records raises InsufficientDataError; fewer than N3
    survivors is the halting branch and raises PipelineFailureError.
    """
    sizes = _pipeline_sizes(len(data), delta, epsilon, data.n_covariates)
    return _pipeline_from_cells(
        tally_cells(data[: sizes.n1]), data[sizes.n1 : sizes.total], sizes, gen
    )


def _pipeline_sizes(
    count: int, delta: float, epsilon: float, n_covariates: int
) -> PsSampleSizes:
    sizes = ps_sample_sizes(epsilon, delta, n_covariates)
    if count < sizes.total:
        raise InsufficientDataError(
            f"pipeline needs N1 + N2 = {sizes.total} records, got {count}"
        )
    return sizes


def _pipeline_from_cells(
    cells: CellCounts,
    tail: ObsDataset,
    sizes: PsSampleSizes,
    gen: np.random.Generator,
) -> PsPipelineResult:
    model = _fit_cells(cells)
    adjusted = rejection_sample(tail, model, gen)
    _check_survivors(len(adjusted), sizes)
    return PsPipelineResult(
        model=model, sizes=sizes, survivors=len(adjusted), ate=ate(adjusted)
    )


def _check_survivors(kept: int, sizes: PsSampleSizes) -> None:
    if kept < sizes.n3:
        raise PipelineFailureError(
            f"rejection sampling kept {kept} records, fewer than N3 = {sizes.n3}"
        )


def ate_decision(statistic: float, delta: float) -> Decision:
    """Threshold rule on an ATE: M1 when statistic >= delta / 2 (ties to M1)."""
    threshold = delta / 2.0
    chosen = ModelChoice.M1 if statistic >= threshold else ModelChoice.M2
    return Decision(chosen=chosen, statistic=statistic, threshold=threshold)


def ps_decide(
    data: ObsDataset, delta: float, gen: np.random.Generator, epsilon: float
) -> Decision:
    """Choose M1 when the adjusted-sample ATE reaches delta / 2 (ties to M1)."""
    result = ps_pipeline(data, delta, gen, epsilon)
    return ate_decision(result.ate, delta)


def ps_trial(
    params: PsParams, count: int, delta: float, epsilon: float
) -> Callable[[np.random.Generator], Decision]:
    """``ps_decide`` on ``count`` records drawn from ``params``, as a
    function of the trial's generator that draws only what the pipeline reads.

    The sizes (``check_ps_trial``) and the cell table are made here, once
    for every trial. Within the enumeration limit a trial draws the N1
    fitting slice as cell tallies and the N2 tail as cell counts
    (``_cell_pipeline``); past it, a trial is ``ps_decide`` on N1 + N2
    records from one ``generate_obs`` call. Records beyond N1 + N2 would
    never be read, so they are not drawn.
    """
    sizes = check_ps_trial(params, count, delta, epsilon)
    if params.n_covariates > _ENUM_LIMIT:
        return lambda gen: ps_decide(generate_obs(params, sizes.total, gen), delta, gen, epsilon)
    table = _cell_table(params)
    return lambda gen: ate_decision(
        _cell_pipeline(table, table.draw_fitting(sizes.n1, gen), sizes, gen).ate, delta
    )


def check_ps_trial(
    params: PsParams, count: int, delta: float, epsilon: float
) -> PsSampleSizes:
    """The pipeline sizes of ``ps_trial``, checked without building its cell
    table or drawing. Fewer than N1 + N2 records, an N1 or N2 past int64,
    or, past the enumeration limit, N1 + N2 records past numpy's array limit
    is an InvalidArgumentError."""
    sizes = _pipeline_sizes(count, delta, epsilon, params.n_covariates)
    _check_drawable(sizes.n1)
    _check_drawable(sizes.n2)
    if params.n_covariates > _ENUM_LIMIT:
        check_array_size(sizes.total, params.n_covariates)
    return sizes


def _cell_pipeline(
    table: _CellTable, cells: CellCounts, sizes: PsSampleSizes, gen: np.random.Generator
) -> PsPipelineResult:
    """``_pipeline_from_cells`` with the N2 tail drawn as cell counts.

    A tail record reaches the ATE only through its cell: its acceptance
    probability is fixed per cell once the per-arm medians are, and its
    outcome is independent of acceptance given (x, z). So the same law is
    Multinomial(N2, tail) cell counts, Binomial(count, accept) survivors
    and Binomial(survivors, p_y) outcome sums, per cell.
    """
    model = _fit_cells(cells)
    counts = gen.multinomial(sizes.n2, table.tail)
    p1 = model.predict(table.configs)
    k = p1.size
    p_arm = np.concatenate([1.0 - p1, p1])
    accept = np.ones(2 * k)
    for arm in (slice(None, k), slice(k, None)):
        if counts[arm].any():
            med = _weighted_median(p_arm[arm], counts[arm])
            accept[arm] = np.minimum(med / p_arm[arm], 1.0)
    kept = gen.binomial(counts, accept)
    n0, n1 = int(kept[:k].sum()), int(kept[k:].sum())
    _check_survivors(n0 + n1, sizes)
    _check_both_arms(n1, n0)
    outcomes = gen.binomial(kept, table.p_y)
    statistic = int(outcomes[k:].sum()) / n1 - int(outcomes[:k].sum()) / n0
    return PsPipelineResult(model=model, sizes=sizes, survivors=n0 + n1, ate=statistic)


def _weighted_median(values: np.ndarray, counts: np.ndarray) -> float:
    """``np.median(np.repeat(values, counts))`` without the repeat.

    numpy's median is the mean ``(lo + hi) / 2`` of the two middle order
    statistics of an even count, and the middle one of an odd count, where
    ``lo`` and ``hi`` coincide. The total count must be positive.
    """
    order = np.argsort(values, kind="stable")
    ranks = np.cumsum(counts[order])
    total = int(ranks[-1])
    middle = np.searchsorted(ranks, [(total - 1) // 2, total // 2], side="right")
    lo, hi = values[order[middle]]
    return float((lo + hi) / 2)


def lemma1_bound(epsilon: float, gamma: float, delta_marginal: float, m: float) -> float:
    """Approximate-rejection-sampling bound (eps/delta + gamma)(delta/(delta-eps)) M.

    Valid whenever the marginal treatment probability exceeds the L1
    propensity error ``epsilon``; otherwise the bound is vacuous and the
    arguments are rejected.
    """
    if epsilon < 0 or gamma < 0:
        raise InvalidArgumentError("epsilon and gamma must be nonnegative")
    if not 0.0 < delta_marginal <= 1.0:
        raise InvalidArgumentError("delta_marginal must lie in (0, 1]")
    if not m > 0:
        raise InvalidArgumentError("the function ceiling m must be positive")
    if delta_marginal <= epsilon:
        raise InvalidArgumentError(
            f"bound is vacuous unless delta_marginal > epsilon "
            f"({delta_marginal} <= {epsilon})"
        )
    return (epsilon / delta_marginal + gamma) * (delta_marginal / (delta_marginal - epsilon)) * m
