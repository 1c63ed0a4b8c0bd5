"""Shared vocabulary for the toolkit.

Causal concepts, model-pair decisions, deterministic per-trial RNG
streams, and the Wilson bound used to certify empirical error rates.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

# numpy loads its submodules on first use; load random here so that the
# first trial stream does not pay for it.
import numpy.random  # noqa: F401

__all__ = [
    "PaccError",
    "InvalidArgumentError",
    "InsufficientDataError",
    "GenerationFailureError",
    "DegenerateFitError",
    "WeakInstrumentError",
    "UndefinedAteError",
    "PipelineFailureError",
    "Method",
    "ModelChoice",
    "ConceptSpec",
    "Decision",
    "RngStream",
    "split_stream",
    "rekeyed_generator",
    "as_generator",
    "rate_upper_bound",
    "whole_number",
    "real_number",
]

_U64_MAX = 2**64 - 1


class PaccError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(PaccError, ValueError):
    """An argument violates a documented precondition."""


class InsufficientDataError(InvalidArgumentError):
    """A dataset holds fewer records than the procedure needs."""


class GenerationFailureError(PaccError, RuntimeError):
    """Conditioned data generation exhausted its retry budget."""


class DegenerateFitError(PaccError, RuntimeError):
    """Model fitting received data it cannot identify (e.g. a single treatment arm)."""


class WeakInstrumentError(PaccError, RuntimeError):
    """The stage-II denominator of the instrumental ratio is exactly zero."""


class UndefinedAteError(PaccError, RuntimeError):
    """Average treatment effect requested with a treatment arm missing."""


class PipelineFailureError(PaccError, RuntimeError):
    """A decision pipeline halted before producing a decision."""


class Method(str, enum.Enum):
    """The three decision procedures the toolkit implements."""

    SCCS = "sccs"
    PROPENSITY = "propensity"
    IV2SLS = "iv2sls"


class ModelChoice(str, enum.Enum):
    """Which of a model pair is meant: M1 carries the effect, M2 does not."""

    M1 = "M1"
    M2 = "M2"


@dataclass(frozen=True)
class ConceptSpec:
    """A minimum-effect concept: the method that tests it and the separation delta.

    ``delta`` is interpreted per method: a risk ratio (> 1) for SCCS, a
    probability difference in (0, 1) for the propensity and instrumental
    routes. Cross-method comparison of deltas is not meaningful.
    """

    delta: float
    method: Method
    description: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta):
            raise InvalidArgumentError(f"delta must be finite, got {self.delta}")
        if self.method is Method.SCCS:
            if not self.delta > 1.0:
                raise InvalidArgumentError(
                    f"SCCS delta is a risk ratio and must exceed 1, got {self.delta}"
                )
        elif not 0.0 < self.delta < 1.0:
            raise InvalidArgumentError(
                f"{self.method.value} delta must lie in (0, 1), got {self.delta}"
            )


@dataclass(frozen=True)
class Decision:
    """Outcome of a decision rule: the chosen model, the statistic, the threshold.

    SCCS and the propensity route choose M1 when ``statistic >= threshold``;
    the instrumental route when ``|statistic| > threshold``.
    """

    chosen: ModelChoice
    statistic: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "chosen": self.chosen.value,
            "statistic": self.statistic,
            "threshold": self.threshold,
        }


def whole_number(value: object, name: str) -> int:
    """A JSON number with a whole, finite value, as an int: a count read with
    ``int()`` would truncate 2.5 and take "21" or true."""
    if type(value) is int or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise InvalidArgumentError(f"{name} must be a whole number, got {value!r}")


def real_number(value: object, name: str) -> float:
    """A JSON number (int or float) with a finite value, as a float: a field
    read with ``float()`` would take "0.5" or true."""
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise InvalidArgumentError(f"{name} must be a finite number, got {value!r}")


def _check_u64(value: int, name: str) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if not 0 <= int(value) <= _U64_MAX:
        raise InvalidArgumentError(f"{name} must fit in an unsigned 64-bit word")


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by (master_seed, stream_id).

    Distinct key pairs give statistically independent streams; the same
    pair always reproduces the same draw sequence, independent of thread
    count or scheduling (counter-based Philox underneath).
    """

    master_seed: int
    stream_id: int

    def __post_init__(self) -> None:
        _check_u64(self.master_seed, "master_seed")
        _check_u64(self.stream_id, "stream_id")

    def generator(self) -> np.random.Generator:
        """Return a fresh generator positioned at the start of the stream."""
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def split_stream(master_seed: int, trial_index: int) -> RngStream:
    """Derive the per-trial stream for ``trial_index`` under ``master_seed``."""
    return RngStream(master_seed=int(master_seed), stream_id=int(trial_index))


# One Philox generator per thread, re-keyed for each stream it serves.
_thread_local = threading.local()


def rekeyed_generator(master_seed: int, stream_id: int) -> np.random.Generator:
    """The calling thread's generator, positioned at the start of stream
    (master_seed, stream_id).

    It draws exactly what ``split_stream(master_seed, stream_id).generator()``
    would: the Philox state is set to counter 0, that key, an empty buffer
    and no held 32-bit half, which is the state a fresh Philox starts in.
    Re-keying one generator costs about a twentieth of building one. The
    next call on the same thread re-keys the same generator, so a caller
    finishes with one stream before it asks for the next.
    """
    _check_u64(master_seed, "master_seed")
    _check_u64(stream_id, "stream_id")
    gen = getattr(_thread_local, "generator", None)
    if gen is None:
        gen = _thread_local.generator = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (int(master_seed), int(stream_id))},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept either a stream key or a live generator and return a generator.

    Passing a generator lets multi-stage pipelines consume one stream
    sequentially, which keeps a whole trial reproducible from one key.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    raise InvalidArgumentError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def rate_upper_bound(errors: int, trials: int, confidence: float = 0.95) -> float:
    """One-sided Wilson-score upper confidence bound on an error probability.

    Parameters
    ----------
    errors : int
        Number of failed trials observed.
    trials : int
        Total number of trials, at least 1.
    confidence : float
        One-sided coverage level in (0, 1); 0.95 by default.

    Returns
    -------
    float
        Upper bound in [0, 1]. Equals 1.0 exactly when every trial failed,
        and is never below ``errors / trials``.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be at least 1")
    if not 0 <= errors <= trials:
        raise InvalidArgumentError(f"errors must lie in [0, trials], got {errors}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise InvalidArgumentError(f"confidence must lie in (0, 1), got {confidence}")
    if errors == trials:
        return 1.0
    z = NormalDist().inv_cdf(confidence)
    n = float(trials)
    p = errors / n
    z2 = z * z
    centre = p + z2 / (2.0 * n)
    radius = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return min(1.0, (centre + radius) / (1.0 + z2 / n))
