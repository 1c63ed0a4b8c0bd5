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
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from pacc.core import (
    Decision,
    GenerationFailureError,
    InvalidArgumentError,
    ModelChoice,
    ceil_bound,
    record_dict,
    record_from_dict,
    rekeyed_generator,
    whole_number,
)

__all__ = [
    "PointLaw",
    "TwoPointLaw",
    "law_from_dict",
    "SccsDesign",
    "SccsParams",
    "SccsModel",
    "SccsDataset",
    "SccsCounts",
    "SccsTrialLaw",
    "generate_sccs",
    "sccs_trial_law",
    "sccs_trial",
    "check_sccs_trial",
    "sccs_loglik",
    "sccs_mle_closed",
    "sccs_mle_numeric",
    "sccs_sample_size",
    "sccs_decide",
]

# Day numbers stay exact as float64, which the dataset reader checks them in.
_MAX_DAYS = 2**53

# Longest design an SCCS trial takes. Building its tables costs one
# math.lgamma call and a few float64 arrays a day: about 0.2 s and 40 MiB
# at the limit.
_MAX_TRIAL_DAYS = 2**20

# Attempts per case before a case-series draw gives up on conditioning.
_MAX_ATTEMPTS_PER_CASE = 1_000_000

# A trial draw's retry budget, binomial sizes and event totals are int64.
_MAX_INT64 = 2**63 - 1

# Rows per generation chunk are sized to keep the per-day uniform matrix
# around 2M cells regardless of the observation length.
_CHUNK_CELLS = 2_000_000


@dataclass(frozen=True)
class PointLaw:
    """Degenerate law: every draw equals ``value``."""

    kind: str = field(default="point", init=False, repr=False)
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise InvalidArgumentError(f"value must be a finite number, got {self.value!r}")

    def sample(self, gen: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(value, probability) pairs of the law."""
        return ((self.value, 1.0),)

    to_dict = record_dict


@dataclass(frozen=True)
class TwoPointLaw:
    """Two-point mixture: ``high`` with probability ``weight_high``, else ``low``."""

    kind: str = field(default="two_point", init=False, repr=False)
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

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(value, probability) pairs of the law."""
        return ((self.low, 1.0 - self.weight_high), (self.high, self.weight_high))

    to_dict = record_dict


def law_from_dict(d: dict) -> PointLaw | TwoPointLaw:
    """The law that a law's ``kind`` field names; a two-point ``weight_high``
    reads as 0.5 when absent."""
    if type(d) is not dict:
        raise InvalidArgumentError(f"the phi law must be a JSON object, got {d!r}")
    kind = d.get("kind")
    if kind == "point":
        return record_from_dict(PointLaw, d, "point law")
    if kind == "two_point":
        return record_from_dict(TwoPointLaw, d, "two-point law", defaults={"weight_high": 0.5})
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

    to_dict = record_dict

    @classmethod
    def from_dict(cls, d: dict) -> "SccsDesign":
        readers = {"total_days": whole_number, "exposure_days": whole_number}
        return record_from_dict(cls, d, "SCCS design", readers)


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
        values = [value for value, _ in self.phi_law.atoms()]
        lo, hi = min(values), max(values)
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

    to_dict = record_dict

    @classmethod
    def from_dict(cls, d: dict) -> "SccsParams":
        """The params block; an absent ``beta`` reads as 0, no effect."""
        readers = {"phi_law": lambda law, _: law_from_dict(law)}
        return record_from_dict(cls, d, "SCCS params", readers, {"beta": 0.0})


class SccsModel(NamedTuple):
    """One SCCS model: the observation design and the event rates. Its
    dict form is the generator block of ``generate``, ``verify`` and
    ``sweep``."""

    design: SccsDesign
    params: SccsParams

    to_dict = record_dict

    @classmethod
    def from_dict(cls, d: dict) -> "SccsModel":
        return record_from_dict(cls, d, "SCCS model", readers={
            "design": lambda design, _: SccsDesign.from_dict(design),
            "params": lambda params, _: SccsParams.from_dict(params),
        })


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


class SccsCounts(NamedTuple):
    """Sufficient statistics of a case series for the closed-form estimator:
    the design and the exposed (``nu1``) and unexposed (``nu2``) event totals."""

    design: SccsDesign
    nu1: int
    nu2: int


def generate_sccs(
    design: SccsDesign,
    params: SccsParams,
    cases: int,
    gen: np.random.Generator,
) -> SccsDataset:
    """Draw a case series of exactly ``cases`` patients.

    Exposure starts are uniform over feasible days and independent of
    events; events are per-day Bernoulli at exp(phi_i) off exposure and
    exp(phi_i + beta) on exposure. Patients without events are redrawn
    (case-series conditioning); if the total number of attempts exceeds
    ``cases * _MAX_ATTEMPTS_PER_CASE`` a GenerationFailureError is raised,
    which signals baseline rates too small for conditioning to terminate
    in practice.
    """
    if cases < 1:
        raise InvalidArgumentError("cases must be at least 1")
    total, expo = design.total_days, design.exposure_days
    days = np.arange(1, total + 1, dtype=np.int64)

    chunk_rows = max(1, min(cases, _CHUNK_CELLS // total))
    attempts = 0
    budget = cases * _MAX_ATTEMPTS_PER_CASE
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


class _Atom(NamedTuple):
    """One atom of the phi law in an SCCS trial law.

    ``ta`` is the probability that an accepted case on the atom has an
    exposed event. Such a case's exposed count takes ``exposed[k]`` with
    probability ``pa[k]``, and its control count is Binomial(control_days,
    ``p0``). Any other case has no exposed event and takes control count
    ``control[k]`` with probability ``pb[k]``.
    """

    ta: float
    p0: float
    pa: np.ndarray
    exposed: np.ndarray
    pb: np.ndarray
    control: np.ndarray


def _positive_binomial(n: int, p: float) -> tuple[float, np.ndarray, np.ndarray]:
    """P(X > 0) for X ~ Binomial(n, p), and the law of X given X > 0 from
    log-gamma terms, as (pmf, values) without values of probability zero.
    At p = 0 or 1 that law is the point n, never or always drawn."""
    if p == 0.0 or p == 1.0:
        return p, np.ones(1), np.array([n])
    k = np.arange(1, n + 1)
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), np.float64, n + 1)
    pmf = np.exp(
        log_fact[n] - log_fact[1:] - log_fact[n - 1 :: -1]
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    values = np.flatnonzero(pmf)
    return -math.expm1(n * math.log1p(-p)), pmf[values] / pmf[values].sum(), values + 1


@dataclass(frozen=True, eq=False)
class SccsTrialLaw:
    """The law of a ``cases``-patient case series' event totals, from
    1-D tables; ``draw`` draws them.

    Each attempted case draws phi from the law, then independent exposed
    and control counts Binomial(exposure_days, p1 = exp(phi + beta)) and
    Binomial(control_days, p0 = exp(phi)), and is accepted when it has an
    event. ``accept`` is the probability that it does, and ``shares`` the
    probability of each phi atom given that it does. An accepted case has
    an exposed event with probability ta = qa / (qa + (1 - qa) qb), where
    qa and qb are the chances of some exposed and some control event.
    """

    design: SccsDesign
    cases: int
    accept: float
    shares: np.ndarray
    atoms: tuple[_Atom, ...]

    def draw(self, gen: np.random.Generator) -> SccsCounts:
        """Draw the totals, with the law of summing ``generate_sccs``.

        The per-case redraws run out exactly when fewer than ``cases`` of
        the first ``cases * _MAX_ATTEMPTS_PER_CASE`` attempts have an
        event, so one Binomial(budget, accept) draw decides that
        (GenerationFailureError). One Multinomial spreads the cases over
        the atoms, and on each atom K ~ Binomial(m, ta) of its m cases
        have an exposed event: their exposed total is a Multinomial(K, pa)
        sum and their control total one Binomial(K * control_days, p0).
        The other m - K cases add a Multinomial(m - K, pb) sum of control
        events.
        """
        budget = self.cases * _MAX_ATTEMPTS_PER_CASE
        accepted = int(gen.binomial(budget, self.accept))
        if accepted < self.cases:
            raise GenerationFailureError(
                f"accepted only {accepted}/{self.cases} case series after "
                f"{budget} attempts; baseline rate too small"
            )
        on_atom = (
            (self.cases,) if len(self.atoms) == 1 else gen.multinomial(self.cases, self.shares)
        )
        control_days = self.design.control_days
        nu1 = nu2 = 0
        for m, atom in zip(on_atom, self.atoms):
            k = int(gen.binomial(m, atom.ta))
            if k:
                nu1 += int(gen.multinomial(k, atom.pa) @ atom.exposed)
                nu2 += int(gen.binomial(k * control_days, atom.p0))
            if m - k:
                nu2 += int(gen.multinomial(m - k, atom.pb) @ atom.control)
        return SccsCounts(self.design, nu1, nu2)


def sccs_trial_law(design: SccsDesign, params: SccsParams, cases: int) -> SccsTrialLaw:
    """The trial law of a ``cases``-patient case series under the model,
    once ``check_sccs_trial`` has passed its size."""
    check_sccs_trial(design, cases)
    weights, atoms = [], []
    for phi, weight in params.phi_law.atoms():
        p1, p0 = math.exp(phi + params.beta), math.exp(phi)
        qa, pa, exposed = _positive_binomial(design.exposure_days, p1)
        qb, pb, control = _positive_binomial(design.control_days, p0)
        some = qa + (1.0 - qa) * qb
        weights.append(weight * some)
        atoms.append(_Atom(qa / some, p0, pa, exposed, pb, control))
    accept = math.fsum(weights)
    return SccsTrialLaw(design, cases, min(accept, 1.0), np.array(weights) / accept, tuple(atoms))


def sccs_trial(
    design: SccsDesign, params: SccsParams, cases: int, delta: float
) -> Callable[[int, int, int], tuple[np.ndarray, np.ndarray, dict[int, GenerationFailureError]]]:
    """``sccs_decide`` on the event totals of a ``cases``-patient case
    series, for a block: (master_seed, first, trials) -> whether each trial
    chooses M1, its estimate (NaN if its draw ran out of redraws) and each
    such halt's error by row, trial i on stream (master_seed, first + i).
    The trial law is built once."""
    law, threshold = sccs_trial_law(design, params, cases), math.log(delta) / 2.0

    def trials(master_seed: int, first: int, count: int):
        statistic, halts = np.full(count, math.nan), {}
        for i in range(count):
            try:
                statistic[i] = sccs_mle_closed(law.draw(rekeyed_generator(master_seed, first + i)))
            except GenerationFailureError as exc:
                halts[i] = exc
        return statistic >= threshold, statistic, halts

    return trials


def check_sccs_trial(design: SccsDesign, cases: int) -> None:
    """The size limits of ``sccs_trial_law``, checked without building its
    tables.

    The tables hold exposure_days + control_days entries per phi atom and
    cost one ``math.lgamma`` call a day, so designs longer than
    ``_MAX_TRIAL_DAYS`` are an InvalidArgumentError. So are sizes whose
    retry budget or whose cases * total_days, a bound on the event totals
    and binomial sizes a draw makes, pass int64.
    """
    if cases < 1:
        raise InvalidArgumentError("cases must be at least 1")
    if cases * _MAX_ATTEMPTS_PER_CASE > _MAX_INT64:
        raise InvalidArgumentError(
            f"cases must be at most {_MAX_INT64 // _MAX_ATTEMPTS_PER_CASE}, got {cases}"
        )
    total = design.total_days
    if total > _MAX_TRIAL_DAYS:
        raise InvalidArgumentError(
            f"SCCS trials take designs of at most 2**20 = {_MAX_TRIAL_DAYS} days, "
            f"got total_days {total}"
        )
    if cases * total > _MAX_INT64:
        raise InvalidArgumentError(
            f"cases * total_days must be at most 2**63 - 1, got {cases} * {total}"
        )


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
    the totals ``SccsTrialLaw.draw`` returns serve as well as a case series.
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
    if not 1.0 < delta < math.inf:
        raise InvalidArgumentError(f"delta must be a finite risk ratio above 1, got {delta}")
    if not 0.0 < lambda_floor < 1.0:
        raise InvalidArgumentError(f"lambda_floor must lie in (0, 1), got {lambda_floor}")
    return ceil_bound(
        "the SCCS sample size",
        lambda: 8.0 / (lambda_floor**2 * math.log(delta) ** 2) * math.log(4.0 / epsilon),
    )


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
