"""PACC discovery toolkit.

Generates data from competing causal model pairs, runs three decision
procedures (self-controlled case series, propensity score rejection
sampling, two-stage least squares), computes their sample-size bounds,
and certifies the resulting error rates by Monte Carlo.
"""

from pacc.core import (
    ConceptSpec,
    Decision,
    DegenerateFitError,
    GenerationFailureError,
    InsufficientDataError,
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

__version__ = "0.1.0"

__all__ = [
    "ConceptSpec",
    "Decision",
    "DegenerateFitError",
    "GenerationFailureError",
    "InsufficientDataError",
    "InvalidArgumentError",
    "Method",
    "ModelChoice",
    "PaccError",
    "PipelineFailureError",
    "UndefinedAteError",
    "WeakInstrumentError",
    "rate_upper_bound",
    "split_stream",
    "__version__",
]
