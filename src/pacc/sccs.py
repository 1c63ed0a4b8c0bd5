"""Self-controlled case series: generation, likelihood, estimators, decision rule.

Each patient is observed for a fixed number of days with a single
exposure window placed uniformly at random. Events arrive as independent
per-day Bernoulli draws whose rate is exp(phi_i) off exposure and
exp(phi_i + beta) on exposure; only patients with at least one event form
a case series. The conditional likelihood of where events fall does not
involve phi, which is what lets the design absorb time-invariant
confounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from pacc.core import (
    Decision,
    GenerationFailureError,
    InvalidArgumentError,
    ModelChoice,
    RngStream,
    as_generator,
    real_number,
    whole_number,
)

__all__ = [
    "PointLaw",
    "TwoPointLaw",
    "law_from_dict",
    "SccsDesign",
    "SccsParams",
    "SccsDataset",
    "SccsCounts",
    "SccsCellTable",
    "generate_sccs",
    "draw_sccs_counts",
    "sccs_cell_table",
    "draw_cell_counts",
    "sccs_loglik",
    "sccs_mle_closed",
    "sccs_mle_numeric",
    "sccs_sample_size",
    "sccs_decide",
]

# Day numbers stay exact as float64, which the dataset reader checks them in.
_MAX_DAYS = 2**53

# Largest cell table, (exposure_days + 1) * (control_days + 1) cells, that
# SCCS trials draw from; larger designs redraw case by case instead. The cap
# bounds memory and build time, not speed: a table holds 24 bytes a cell, so
# at most 3 MiB (24 MiB for the 8 that verify caches) and a few ms to build.
# Measured in-process, a table draw stays cheaper than the case-by-case draw
# up to about 1M cells at bound-scale case counts; no benchmark workload has
# a design above the cap, so that range is left to the case-by-case draw.
_CELL_LIMIT = 2**17

# Attempts per case before a case-series draw gives up on conditioning.
_MAX_ATTEMPTS_PER_CASE = 1_000_000

# A table draw's retry budget is one int64 binomial count.
_MAX_TABLE_BUDGET = 2**63 - 1

# Rows per generation chunk are sized to keep the per-day uniform matrix
# around 2M cells regardless of the observation length.
_CHUNK_CELLS = 2_000_000


@dataclass(frozen=True)
class PointLaw:
    """Degenerate law: every draw equals ``value``."""

    value: float

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def support(self) -> tuple[float, float]:
        return (self.value, self.value)

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(value, probability) pairs of the law."""
        return ((self.value, 1.0),)

    def to_dict(self) -> dict:
        return {"kind": "point", "value": self.value}


@dataclass(frozen=True)
class TwoPointLaw:
    """Two-point mixture: ``high`` with probability ``weight_high``, else ``low``."""

    low: float
    high: float
    weight_high: float = 0.5

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise InvalidArgumentError("two-point law requires low <= high")
        if not 0.0 < self.weight_high < 1.0:
            raise InvalidArgumentError("weight_high must lie in (0, 1)")

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.where(gen.random(size) < self.weight_high, self.high, self.low)

    def support(self) -> tuple[float, float]:
        return (self.low, self.high)

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(value, probability) pairs of the law."""
        return ((self.low, 1.0 - self.weight_high), (self.high, self.weight_high))

    def to_dict(self) -> dict:
        return {
            "kind": "two_point",
            "low": self.low,
            "high": self.high,
            "weight_high": self.weight_high,
        }


def law_from_dict(d: dict) -> PointLaw | TwoPointLaw:
    kind = d.get("kind")
    if kind == "point":
        return PointLaw(value=real_number(d["value"], "value"))
    if kind == "two_point":
        return TwoPointLaw(
            low=real_number(d["low"], "low"),
            high=real_number(d["high"], "high"),
            weight_high=real_number(d.get("weight_high", 0.5), "weight_high"),
        )
    raise InvalidArgumentError(f"unknown law kind {kind!r}")


@dataclass(frozen=True)
class SccsDesign:
    """Observation window shared by every patient.

    Days are 1-based; the exposure window [start, start + exposure_days)
    must fit inside [1, total_days], so feasible starts run from 1 to
    total_days - exposure_days + 1.
    """

    total_days: int
    exposure_days: int

    def __post_init__(self) -> None:
        if not 2 <= self.total_days <= _MAX_DAYS:
            raise InvalidArgumentError(
                f"total_days must lie in [2, 2**53], got {self.total_days}"
            )
        if self.exposure_days < 1:
            raise InvalidArgumentError("exposure_days must be at least 1")
        if self.exposure_days >= self.total_days:
            raise InvalidArgumentError(
                f"exposure_days ({self.exposure_days}) must be smaller than "
                f"total_days ({self.total_days})"
            )

    @property
    def control_days(self) -> int:
        return self.total_days - self.exposure_days

    @property
    def max_start(self) -> int:
        return self.total_days - self.exposure_days + 1

    def to_dict(self) -> dict:
        return {"total_days": self.total_days, "exposure_days": self.exposure_days}

    @classmethod
    def from_dict(cls, d: dict) -> "SccsDesign":
        return cls(*(whole_number(d[key], key) for key in ("total_days", "exposure_days")))


@dataclass(frozen=True)
class SccsParams:
    """Rate parameters of the per-day Bernoulli event model.

    ``phi_law`` draws the per-patient log baseline daily rate, ``beta`` is
    the log relative incidence while exposed, and ``lambda_floor`` is the
    conservative lower bound on the per-day event probability that the
    sample-size bound consumes. Rates must stay valid probabilities:
    exp(max phi + max(beta, 0)) <= 1, and the floor may not exceed the
    smallest baseline rate.
    """

    phi_law: PointLaw | TwoPointLaw
    beta: float
    lambda_floor: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise InvalidArgumentError("beta must be finite")
        lo, hi = self.phi_law.support()
        peak = math.exp(hi + max(self.beta, 0.0))
        if peak > 1.0:
            raise InvalidArgumentError(
                f"per-day event probability exp(phi + max(beta, 0)) = {peak:.6g} exceeds 1"
            )
        if not 0.0 < self.lambda_floor < 1.0:
            raise InvalidArgumentError("lambda_floor must lie in (0, 1)")
        if self.lambda_floor > math.exp(lo):
            raise InvalidArgumentError(
                f"lambda_floor {self.lambda_floor} exceeds the smallest baseline "
                f"rate exp({lo}) = {math.exp(lo):.6g}"
            )

    def to_dict(self) -> dict:
        return {
            "phi_law": self.phi_law.to_dict(),
            "beta": self.beta,
            "lambda_floor": self.lambda_floor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SccsParams":
        return cls(
            phi_law=law_from_dict(d["phi_law"]),
            beta=real_number(d["beta"], "beta"),
            lambda_floor=real_number(d["lambda_floor"], "lambda_floor"),
        )


class SccsDataset:
    """A case series: shared design plus one timeline per patient.

    Stored columnar: patient i's exposure start is ``starts[i]`` and its
    strictly increasing event days are
    ``event_days[indptr[i]:indptr[i + 1]]``. The constructor trusts these
    arrays (``generate_sccs`` and ``from_dict`` check them) and derives
    ``nu1`` and ``nu2``, the total exposed and unexposed event counts.
    """

    __slots__ = ("design", "_starts", "_event_days", "_indptr", "nu1", "nu2")

    def __init__(
        self,
        design: SccsDesign,
        starts: np.ndarray,
        event_days: np.ndarray,
        indptr: np.ndarray,
    ):
        self.design = design
        self._starts = starts
        self._event_days = event_days
        self._indptr = indptr
        start_of_event = np.repeat(starts, np.diff(indptr))
        exposed = (event_days >= start_of_event) & (
            event_days < start_of_event + design.exposure_days
        )
        self.nu1 = int(np.count_nonzero(exposed))
        self.nu2 = event_days.size - self.nu1

    def __len__(self) -> int:
        return self._starts.size

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "patients": [
                {
                    "exposure_start": int(self._starts[i]),
                    "event_days": self._event_days[self._indptr[i] : self._indptr[i + 1]]
                    .astype(int)
                    .tolist(),
                }
                for i in range(len(self))
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SccsDataset":
        """Read the JSON form, checking all starts and event days at once.

        Starts and days must be JSON numbers with whole values (a bool is
        not one), starts must lie in [1, max_start] and days in
        [1, total_days], and every patient needs at least one event day,
        strictly increasing. A failed check names the first patient that
        fails it.
        """
        design = SccsDesign.from_dict(d["design"])
        patients = d["patients"]
        if not isinstance(patients, list) or not patients:
            raise InvalidArgumentError("patients must be a nonempty list")
        raw_starts = [p["exposure_start"] for p in patients]
        raw_days = [p["event_days"] for p in patients]
        not_list = np.array([type(days) is not list for days in raw_days])
        if not_list.any():
            raise InvalidArgumentError(
                f"patient {np.argmax(not_list)} event_days must hold whole day numbers"
            )
        counts = np.fromiter(map(len, raw_days), dtype=np.int64, count=len(raw_days))
        if not counts.all():
            raise InvalidArgumentError(
                f"patient {np.argmin(counts)}: a case series timeline needs at least "
                "one event"
            )
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])

        def patient_of_day(k: int) -> int:
            return int(np.searchsorted(indptr, k, side="right")) - 1

        starts = _whole_days(raw_starts, "exposure_start", int)
        flat_days = list(chain.from_iterable(raw_days))
        days = _whole_days(flat_days, "event_days", patient_of_day)
        bad = (starts < 1) | (starts > design.max_start)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidArgumentError(
                f"patient {i}: exposure_start {raw_starts[i]!r} outside "
                f"[1, {design.max_start}]"
            )
        bad = (days < 1) | (days > design.total_days)
        if bad.any():
            raise InvalidArgumentError(
                f"patient {patient_of_day(np.argmax(bad))}: event days outside "
                f"[1, {design.total_days}]"
            )
        # Steps between consecutive days of one patient must be positive;
        # the step from one patient's last day to the next's first is free.
        bad = np.diff(days) <= 0
        bad[indptr[1:-1] - 1] = False
        if bad.any():
            raise InvalidArgumentError(
                f"patient {patient_of_day(np.argmax(bad))}: event_days must be "
                "strictly increasing"
            )
        return cls(design, starts.astype(np.int64), days.astype(np.int64), indptr)


def _whole_days(values: list, what: str, patient_of) -> np.ndarray:
    """JSON day numbers as float64, each a whole number or +-inf.

    Only ints and floats pass, checked on the values themselves: numpy
    would promote a bool beside an int to a number. ``patient_of`` maps a
    value's index to its patient for the error message. Infinities and
    huge values are left for the caller's range check, which runs before
    any cast to int64.
    """
    if not set(map(type, values)) <= {int, float}:
        k = next(k for k, v in enumerate(values) if type(v) not in (int, float))
        raise InvalidArgumentError(f"patient {patient_of(k)} {what} must hold whole day numbers")
    try:
        days = np.array(values, dtype=np.float64)
    except OverflowError:
        # An int past the float range; clamped, it still fails the range check.
        days = np.array([min(max(v, -1e308), 1e308) for v in values])
    fractional = days != np.floor(days)
    if fractional.any():
        k = int(np.argmax(fractional))
        raise InvalidArgumentError(f"patient {patient_of(k)} {what} must hold whole day numbers")
    return days


@dataclass(frozen=True)
class SccsCounts:
    """Sufficient statistics of a case series for the closed-form estimator:
    the design and the exposed (``nu1``) and unexposed (``nu2``) event totals."""

    design: SccsDesign
    nu1: int
    nu2: int


def generate_sccs(
    design: SccsDesign,
    params: SccsParams,
    cases: int,
    rng: RngStream | np.random.Generator,
    max_attempts_per_case: int = _MAX_ATTEMPTS_PER_CASE,
) -> SccsDataset:
    """Draw a case series of exactly ``cases`` patients.

    Exposure starts are uniform over feasible days and independent of
    events; events are per-day Bernoulli at exp(phi_i) off exposure and
    exp(phi_i + beta) on exposure. Patients without events are redrawn
    (case-series conditioning); if the total number of attempts exceeds
    ``cases * max_attempts_per_case`` a GenerationFailureError is raised,
    which signals baseline rates too small for conditioning to terminate
    in practice.
    """
    if cases < 1:
        raise InvalidArgumentError("cases must be at least 1")
    gen = as_generator(rng)
    total, expo = design.total_days, design.exposure_days
    days = np.arange(1, total + 1, dtype=np.int64)

    chunk_rows = max(1, min(cases, _CHUNK_CELLS // total))
    attempts = 0
    budget = cases * max_attempts_per_case
    kept_starts: list[np.ndarray] = []
    kept_counts: list[np.ndarray] = []
    kept_days: list[np.ndarray] = []
    accepted = 0

    while accepted < cases:
        batch = min(chunk_rows, max(cases - accepted, 1))
        if attempts + batch > budget:
            batch = budget - attempts
            if batch <= 0:
                raise GenerationFailureError(
                    f"accepted only {accepted}/{cases} case series after "
                    f"{attempts} attempts; baseline rate too small"
                )
        attempts += batch

        phi = params.phi_law.sample(gen, batch)
        starts = gen.integers(1, design.max_start + 1, size=batch)
        exposed = (days >= starts[:, None]) & (days < (starts + expo)[:, None])
        prob = np.where(
            exposed, np.exp(phi + params.beta)[:, None], np.exp(phi)[:, None]
        )
        events = gen.random((batch, total)) < prob

        keep = events.any(axis=1)
        if not keep.any():
            continue
        events = events[keep][: cases - accepted]
        starts = starts[keep][: cases - accepted]

        rows, cols = np.nonzero(events)
        kept_starts.append(starts)
        kept_counts.append(np.bincount(rows, minlength=events.shape[0]))
        kept_days.append(cols + 1)
        accepted += events.shape[0]

    starts_all = np.concatenate(kept_starts)
    counts_all = np.concatenate(kept_counts)
    days_all = np.concatenate(kept_days)
    indptr = np.zeros(cases + 1, dtype=np.int64)
    np.cumsum(counts_all, out=indptr[1:])
    return SccsDataset(design, starts_all, days_all, indptr)


def draw_sccs_counts(
    design: SccsDesign,
    params: SccsParams,
    cases: int,
    rng: RngStream | np.random.Generator,
    max_attempts_per_case: int = _MAX_ATTEMPTS_PER_CASE,
) -> SccsCounts:
    """Draw the event totals of a ``cases``-patient case series directly.

    Same law as summing ``generate_sccs`` output: a patient's exposed and
    unexposed event counts are Binomial(exposure_days, exp(phi + beta))
    and Binomial(control_days, exp(phi)) given its phi, whatever the
    exposure start. Zero-event patients are redrawn under the same
    ``cases * max_attempts_per_case`` budget, and GenerationFailureError
    is raised when it runs out.
    """
    if cases < 1:
        raise InvalidArgumentError("cases must be at least 1")
    gen = as_generator(rng)
    attempts = 0
    budget = cases * max_attempts_per_case
    accepted = nu1 = nu2 = 0
    while accepted < cases:
        batch = min(cases - accepted, budget - attempts)
        if batch <= 0:
            raise GenerationFailureError(
                f"accepted only {accepted}/{cases} case series after "
                f"{attempts} attempts; baseline rate too small"
            )
        attempts += batch
        phi = params.phi_law.sample(gen, batch)
        exposed = gen.binomial(design.exposure_days, np.exp(phi + params.beta))
        control = gen.binomial(design.control_days, np.exp(phi))
        keep = (exposed + control) > 0
        nu1 += int(exposed[keep].sum())
        nu2 += int(control[keep].sum())
        accepted += int(np.count_nonzero(keep))
    return SccsCounts(design, nu1, nu2)


@dataclass(frozen=True, eq=False)
class SccsCellTable:
    """One case's (exposed, control) event counts as a pmf over cells.

    Cell k holds ``exposed[k]`` events in the exposure window and
    ``control[k]`` outside it, with probability ``pmf[k]`` given at least
    one event; the eventless (0, 0) cell is left out. ``accept`` is the
    probability that an attempt has an event at all.
    """

    pmf: np.ndarray
    exposed: np.ndarray
    control: np.ndarray
    accept: float


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities of 0..n, from log-gamma terms."""
    k = np.arange(n + 1)
    if p == 0.0 or p == 1.0:
        return (k == (n if p else 0)).astype(np.float64)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(n + 1)])
    log_choose = log_fact[n] - log_fact - log_fact[::-1]
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def sccs_cell_table(design: SccsDesign, params: SccsParams) -> SccsCellTable | None:
    """The per-case cell pmf of ``draw_sccs_counts``'s law, or None when the
    design has more than ``_CELL_LIMIT`` cells.

    Given phi, a case's exposed and control counts are independent
    Binomial(exposure_days, exp(phi + beta)) and Binomial(control_days,
    exp(phi)); the table mixes their product over the phi law, drops the
    (0, 0) cell and renormalises. Cells are ordered by falling
    probability, and cells of probability zero are dropped, so that a
    multinomial draw over them stops early.
    """
    expo, control = design.exposure_days, design.control_days
    if (expo + 1) * (control + 1) > _CELL_LIMIT:
        return None
    joint = np.zeros((expo + 1, control + 1))
    accept = 0.0
    for phi, weight in params.phi_law.atoms():
        p_exposed, p_control = math.exp(phi + params.beta), math.exp(phi)
        joint += weight * np.outer(
            _binomial_pmf(expo, p_exposed), _binomial_pmf(control, p_control)
        )
        # P(some event) = 1 - (1 - p1)^e (1 - p0)^c, without cancellation.
        log_none = expo * math.log1p(-p_exposed) if p_exposed < 1.0 else -math.inf
        log_none += control * math.log1p(-p_control) if p_control < 1.0 else -math.inf
        accept += weight * -math.expm1(log_none)
    pmf = joint.ravel()[1:]
    order = np.argsort(-pmf, kind="stable")
    order = order[pmf[order] > 0.0]
    cells = order + 1
    return SccsCellTable(
        pmf=pmf[order] / pmf[order].sum(),
        exposed=cells // (control + 1),
        control=cells % (control + 1),
        accept=min(accept, 1.0),
    )


def draw_cell_counts(
    design: SccsDesign,
    table: SccsCellTable,
    cases: int,
    rng: RngStream | np.random.Generator,
) -> SccsCounts:
    """Draw the event totals of a ``cases``-patient case series from the
    design's table.

    Same law as ``draw_sccs_counts`` with its default retry budget. Its
    redraws run out exactly when fewer than ``cases`` of the first
    ``cases * _MAX_ATTEMPTS_PER_CASE`` attempts have an event, so one
    Binomial(budget, accept) draw decides that (GenerationFailureError);
    the accepted cases' cells are then one Multinomial(cases, pmf) draw.
    A budget past int64 is an InvalidArgumentError.
    """
    if cases < 1:
        raise InvalidArgumentError("cases must be at least 1")
    budget = cases * _MAX_ATTEMPTS_PER_CASE
    if budget > _MAX_TABLE_BUDGET:
        raise InvalidArgumentError(
            f"cases must be at most {_MAX_TABLE_BUDGET // _MAX_ATTEMPTS_PER_CASE}, got {cases}"
        )
    gen = as_generator(rng)
    accepted = int(gen.binomial(budget, table.accept))
    if accepted < cases:
        raise GenerationFailureError(
            f"accepted only {accepted}/{cases} case series after "
            f"{budget} attempts; baseline rate too small"
        )
    counts = gen.multinomial(cases, table.pmf)
    return SccsCounts(design, int(counts @ table.exposed), int(counts @ table.control))


def sccs_loglik(dataset: SccsDataset, beta: float) -> float:
    """Conditional log-likelihood of the observed event placement at ``beta``.

    Each event contributes the log-probability of the interval it fell in:
    an exposed event gives log(e * exp(beta) / ((t - e) + e * exp(beta)))
    for exposure length e and total length t, and an unexposed event gives
    the log of its own interval length (pre- or post-exposure) over the
    same denominator. Per-patient baselines cancel, so they never appear.
    """
    design = dataset.design
    total, expo = design.total_days, design.exposure_days
    control = float(design.control_days)
    # Stable log-denominator: log((t - e) + e * exp(beta)).
    log_denom = float(np.logaddexp(math.log(control), math.log(expo) + beta))

    days = dataset._event_days
    starts = np.repeat(dataset._starts, np.diff(dataset._indptr))
    exposed = (days >= starts) & (days < starts + expo)
    n_exposed = int(np.count_nonzero(exposed))

    ll = n_exposed * (math.log(expo) + beta)
    pre = days < starts
    # Interval weights: pre-exposure length start - 1, post length
    # total - expo - start + 1; a zero-length interval cannot hold events.
    off = ~exposed
    weights = np.where(
        pre[off], starts[off] - 1, total - expo - starts[off] + 1
    ).astype(np.float64)
    ll += float(np.log(weights).sum())
    ll -= days.size * log_denom
    return ll


def sccs_mle_closed(dataset: SccsDataset | SccsCounts) -> float:
    """Closed-form maximum-likelihood estimate of the log relative incidence.

    Equals log(nu1 / exposure_days) - log(nu2 / control_days). With events
    in only one period the estimate is a signed-infinity sentinel (+inf if
    all events are exposed, -inf if none are), which the decision rule
    consumes directly. Only ``design``, ``nu1`` and ``nu2`` are read, so
    the totals ``draw_sccs_counts`` returns serve as well as a case series.
    """
    nu1, nu2 = dataset.nu1, dataset.nu2
    if nu1 == 0 and nu2 == 0:
        raise InvalidArgumentError("a valid case series has at least one event")
    if nu2 == 0:
        return math.inf
    if nu1 == 0:
        return -math.inf
    design = dataset.design
    return math.log(nu1 / design.exposure_days) - math.log(nu2 / design.control_days)


def sccs_mle_numeric(dataset: SccsDataset) -> float:
    """Numeric oracle for the closed form: maximise the likelihood directly.

    Derivative-free bounded search over a bracket wide enough to contain
    any finite maximiser; requires events in both periods. scipy is
    imported here, so that only this oracle pays for it.
    """
    from scipy.optimize import minimize_scalar

    if dataset.nu1 == 0 or dataset.nu2 == 0:
        raise InvalidArgumentError(
            "numeric estimate needs events in both the exposed and unexposed periods"
        )
    design = dataset.design
    ratio = design.control_days / design.exposure_days
    half_width = math.log(dataset.nu1 + dataset.nu2) + abs(math.log(ratio)) + 1.0
    res = minimize_scalar(
        lambda b: -sccs_loglik(dataset, b),
        bounds=(-half_width, half_width),
        method="bounded",
        options={"xatol": 1e-8},
    )
    return float(res.x)


def sccs_sample_size(epsilon: float, delta: float, lambda_floor: float) -> int:
    """Number of cases sufficient for the (epsilon, delta) guarantee.

    Ceiling of 8 / (lambda^2 * log(delta)^2) * log(4 / epsilon), natural
    logarithms throughout. Only risk ratios above 1 are supported; at
    delta = 1 the threshold degenerates.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidArgumentError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not delta > 1.0:
        raise InvalidArgumentError(f"delta must exceed 1 on the risk-ratio scale, got {delta}")
    if not 0.0 < lambda_floor < 1.0:
        raise InvalidArgumentError(f"lambda_floor must lie in (0, 1), got {lambda_floor}")
    bound = 8.0 / (lambda_floor**2 * math.log(delta) ** 2) * math.log(4.0 / epsilon)
    return math.ceil(bound)


def sccs_decide(dataset: SccsDataset | SccsCounts, delta: float) -> Decision:
    """Choose M1 when the estimated log relative incidence reaches log(delta)/2.

    Ties at the threshold go to M1; the infinity sentinels decide in the
    direction of their sign.
    """
    if not delta > 1.0:
        raise InvalidArgumentError(f"delta must exceed 1 on the risk-ratio scale, got {delta}")
    statistic = sccs_mle_closed(dataset)
    threshold = math.log(delta) / 2.0
    chosen = ModelChoice.M1 if statistic >= threshold else ModelChoice.M2
    return Decision(chosen=chosen, statistic=statistic, threshold=threshold)
