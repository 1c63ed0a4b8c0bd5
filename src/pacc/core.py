"""Shared vocabulary for the toolkit.

Causal concepts, model-pair decisions, deterministic per-trial RNG
streams, and the Wilson bound used to certify empirical error rates.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import math
import threading
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Iterable, NamedTuple, Sequence

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
    "split_stream",
    "rekeyed_generator",
    "rate_upper_bound",
    "ceil_bound",
    "whole_number",
    "real_number",
    "check_u64",
    "check_keys",
    "check_array_size",
    "record_dict",
    "record_from_dict",
    "csv_text",
    "csv_records",
    "error_text",
]

_U64_MAX = 2**64 - 1

# numpy makes no array of more bytes than this ("array is too big").
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)


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


def check_keys(block: object, keys: tuple[str, ...], what: str) -> None:
    """A JSON object whose keys are all among ``keys``: a misspelt optional
    key would otherwise be read as its default."""
    if type(block) is not dict:
        raise InvalidArgumentError(f"the {what} must be a JSON object, got {block!r}")
    for key in block:
        if key not in keys:
            raise InvalidArgumentError(
                f"unknown {what} key {key!r}; expected one of {', '.join(keys)}"
            )


def check_array_size(count: int, width: int) -> None:
    """A draw of ``count`` records whose widest array holds ``width`` float64
    values a record; past numpy's array limit it is an InvalidArgumentError
    before anything is drawn."""
    if count * width * 8 > _MAX_ARRAY_BYTES:
        raise InvalidArgumentError(
            f"drawing {count} x {width} float64 values takes {count * width * 8} bytes, "
            f"past numpy's array limit of {_MAX_ARRAY_BYTES} bytes"
        )


def _fields(record_type: type) -> dict[str, bool]:
    """A record type's fields in declaration order: name -> its constructor takes it."""
    if dataclasses.is_dataclass(record_type):
        return {f.name: f.init for f in dataclasses.fields(record_type)}
    return dict.fromkeys(record_type._fields, True)


def _json_value(value: object) -> object:
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, enum.Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def record_dict(record: object) -> dict:
    """A record's JSON object: its fields in declaration order, each tuple
    as a list, each enum as its value and each nested record as its own
    ``to_dict()``. A dataclass or named tuple takes it as its ``to_dict``."""
    return {name: _json_value(getattr(record, name)) for name in _fields(type(record))}


def record_from_dict(
    record_type: type, block: object, what: str, readers: dict | None = None,
    defaults: dict | None = None,
):
    """The record that ``record_dict`` wrote as ``block``. Its keys must be
    among the fields (``check_keys``, naming ``what``). A present key is read
    by ``readers[name](value, name)``, else by ``real_number``; an absent key
    takes ``defaults[name]``, else raises ``KeyError(name)``, which
    ``error_text`` words as a missing field. A field the constructor does
    not take (a law's ``kind``) is a known key but is not read."""
    readers, defaults = readers or {}, defaults or {}
    fields = _fields(record_type)
    check_keys(block, tuple(fields), what)
    return record_type(**{
        name: readers.get(name, real_number)(block[name], name) if name in block
        else defaults[name]
        for name, taken in fields.items() if taken
    })


class Decision(NamedTuple):
    """Outcome of a decision rule: the chosen model, the statistic, the threshold.

    SCCS and the propensity route choose M1 when ``statistic >= threshold``;
    the instrumental route when ``|statistic| > threshold``. A named tuple,
    like the other per-trial records, because it is built once a trial.
    """

    chosen: ModelChoice
    statistic: float
    threshold: float

    to_dict = record_dict


def error_text(exc: Exception) -> str:
    """A reader's failure as a diagnostic. A KeyError's own text is the bare
    key, so its message names the missing field."""
    if isinstance(exc, KeyError):
        return f"missing required field {exc.args[0]!r}"
    return str(exc)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text of a header line and one line per row, each ended by a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_records(text: str) -> tuple[list[str], list[list[str]]]:
    """A CSV file's header and its records. A file without a record, or a
    record whose length differs from the header's, is an
    InvalidArgumentError; the header's own form is the caller's check."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2:
        raise InvalidArgumentError("CSV must contain a header and at least one record")
    header, records = rows[0], rows[1:]
    if any(len(row) != len(header) for row in records):
        raise InvalidArgumentError(f"every CSV record must have {len(header)} values")
    return header, records


def ceil_bound(name: str, formula: Callable[[], float]) -> int:
    """The ceiling of a sample-size bound, which must come out a finite
    positive number. Finite arguments at the edge of the float range can
    make a formula divide by an underflowed zero (a bound past the float
    range), overflow, or round to 0 or inf; each is an
    InvalidArgumentError naming the bound."""
    try:
        bound = formula()
    except ArithmeticError:
        bound = math.inf
    if not 0.0 < bound < math.inf:
        raise InvalidArgumentError(
            f"{name} is not a finite positive number for these arguments, got {bound}"
        )
    return math.ceil(bound)


def check_u64(value: int, name: str) -> None:
    """Reject ``value`` unless it is an integer that fits a stream key word."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if not 0 <= int(value) <= _U64_MAX:
        raise InvalidArgumentError(f"{name} must fit in an unsigned 64-bit word")


def split_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """A fresh generator at the start of stream (master_seed, stream_id).

    Distinct key pairs give statistically independent streams; the same
    pair always reproduces the same draw sequence, independent of thread
    count or scheduling (counter-based Philox underneath). Each call
    builds a new generator, so two calls with one key draw the same
    numbers; a multi-stage pipeline passes one generator along instead.
    """
    check_u64(master_seed, "master_seed")
    check_u64(stream_id, "stream_id")
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# One Philox generator per thread, with the state dict that re-keys it.
_thread_local = threading.local()


def rekeyed_generator(master_seed: int, stream_id: int) -> np.random.Generator:
    """The calling thread's generator, positioned at the start of stream
    (master_seed, stream_id).

    It draws exactly what ``split_stream(master_seed, stream_id)`` would:
    the Philox state is set to counter 0, that key, an empty buffer and no
    held 32-bit half, which is the state a fresh Philox starts in. The
    thread keeps one such state dict and replaces only its key, since the
    setter copies the values out. Re-keying one generator costs about a
    twentieth of building one. The next call on the same thread re-keys
    the same generator, so a caller finishes with one stream before it
    asks for the next.
    """
    # Trials pass plain ints in range; anything else takes the full checks.
    if not (
        type(master_seed) is int
        and type(stream_id) is int
        and 0 <= master_seed <= _U64_MAX
        and 0 <= stream_id <= _U64_MAX
    ):
        check_u64(master_seed, "master_seed")
        check_u64(stream_id, "stream_id")
        master_seed, stream_id = int(master_seed), int(stream_id)
    held = getattr(_thread_local, "held", None)
    if held is None:
        state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        held = _thread_local.held = (np.random.Generator(np.random.Philox(0)), state)
    gen, state = held
    state["state"]["key"] = (master_seed, stream_id)
    gen.bit_generator.state = state
    return gen


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
