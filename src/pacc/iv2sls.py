"""Instrumental-variable route: linear SEM generator and just-identified 2SLS.

The generator draws a Rademacher instrument d, a latent standard-normal
confounder u, then z = alpha*d + conf_z*u + noise and y = beta*z +
conf_y*u + noise. Estimation uses only (d, z, y); u is retained for
diagnostics. The decision rule is two-sided: |beta_hat| > delta/2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from pacc.core import (
    Decision,
    DegenerateFitError,
    InvalidArgumentError,
    ModelChoice,
    PaccError,
    WeakInstrumentError,
    ceil_bound,
    check_array_size,
    csv_records,
    csv_text,
    record_dict,
    record_from_dict,
)

__all__ = [
    "IvParams",
    "IvDataset",
    "IvEstimate",
    "generate_iv",
    "draw_iv_sums",
    "iv_block",
    "check_iv_trial",
    "two_sls",
    "iv_ratio",
    "iv_sample_size",
    "iv_decide",
    "iv_rule",
    "iv_analytic_variances",
    "ols_slope",
]


@dataclass(frozen=True)
class IvParams:
    """Linear SEM parameters: instrument strength alpha (nonzero), treatment
    effect beta, confounder loadings on z and y, and noise scales."""

    alpha: float
    beta: float
    conf_z: float = 0.0
    conf_y: float = 0.0
    noise_z_sd: float = 0.0
    noise_y_sd: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha == 0.0 or not math.isfinite(self.alpha):
            raise InvalidArgumentError("alpha must be nonzero and finite (relevance)")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidArgumentError(f"{name} must be finite, got {value}")
        if self.noise_z_sd < 0 or self.noise_y_sd < 0:
            raise InvalidArgumentError("noise scales must be nonnegative")

    to_dict = record_dict

    @classmethod
    def from_dict(cls, d: dict) -> "IvParams":
        """The generator block; every field but ``alpha`` reads as 0 when absent."""
        zeros = dict.fromkeys(("beta", "conf_z", "conf_y", "noise_z_sd", "noise_y_sd"), 0.0)
        return record_from_dict(cls, d, "IV generator", defaults=zeros)


class IvDataset:
    """IV records as columns; estimators read (d, z, y) only, u_hidden is diagnostic."""

    __slots__ = ("d", "z", "y", "u_hidden")

    def __init__(self, d: np.ndarray, z: np.ndarray, y: np.ndarray, u_hidden: np.ndarray):
        d = np.asarray(d, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        u_hidden = np.asarray(u_hidden, dtype=np.float64)
        if not d.shape == z.shape == y.shape == u_hidden.shape or d.ndim != 1:
            raise InvalidArgumentError("d, z, y, u_hidden must be equal-length vectors")
        self.d = d
        self.z = z
        self.y = y
        self.u_hidden = u_hidden

    def __len__(self) -> int:
        return self.d.size

    def to_csv(self, include_hidden: bool = False) -> str:
        columns = [self.d, self.z, self.y] + ([self.u_hidden] if include_hidden else [])
        return csv_text(
            ["d", "z", "y"] + (["u_hidden"] if include_hidden else []),
            ([format(c[i], ".17g") for c in columns] for i in range(len(self))),
        )

    @classmethod
    def from_csv(cls, text: str) -> "IvDataset":
        header, records = csv_records(text)
        if header not in (["d", "z", "y"], ["d", "z", "y", "u_hidden"]):
            raise InvalidArgumentError("expected header d,z,y[,u_hidden]")
        data = np.array([[float(v) for v in row] for row in records])
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError("CSV values must be finite numbers")
        # Contiguous columns: the 2SLS dot products then sum in the same
        # order as on generated data, so decisions match bit for bit.
        columns = np.ascontiguousarray(data.T)
        u = columns[3] if len(header) == 4 else np.zeros(data.shape[0])
        return cls(columns[0], columns[1], columns[2], u)


class IvEstimate(NamedTuple):
    """Stage-I instrument coefficient and the stage-II effect ratio."""

    alpha_hat: float
    beta_hat: float

    to_dict = record_dict


def generate_iv(params: IvParams, count: int, gen: np.random.Generator) -> IvDataset:
    """Draw ``count`` records from the linear SEM."""
    if count < 1:
        raise InvalidArgumentError("count must be at least 1")
    check_array_size(count, 1)
    d = 2.0 * gen.integers(0, 2, size=count).astype(np.float64) - 1.0
    u = gen.standard_normal(count)
    xi_z = gen.standard_normal(count)
    xi_y = gen.standard_normal(count)
    z = params.alpha * d + params.conf_z * u + params.noise_z_sd * xi_z
    y = params.beta * z + params.conf_y * u + params.noise_y_sd * xi_y
    return IvDataset(d, z, y, u)


def _iv_sums(params: IvParams, count: int, g1, g2, g3):
    """(sum(d^2), sum(dz), sum(dy)) from the three standard normals of a
    trial (see ``draw_iv_sums``), each a float or an array of one a trial.
    Over arrays every operation is the same IEEE double operation, in the
    same order, as over floats, so each trial's sums are the same bits."""
    root = math.sqrt(count)
    sum_dz = count * params.alpha + root * (params.conf_z * g1 + params.noise_z_sd * g2)
    sum_dy = params.beta * sum_dz + root * (params.conf_y * g1 + params.noise_y_sd * g3)
    return float(count), sum_dz, sum_dy


def draw_iv_sums(
    params: IvParams, count: int, gen: np.random.Generator
) -> tuple[float, float, float]:
    """The sums ``two_sls`` reads from ``count`` SEM records, drawn directly.

    Same law as summing ``generate_iv`` output: sum(d^2) = count exactly
    for a Rademacher d, and d*u, d*xi_z, d*xi_y are independent standard
    normals whatever d is, so with three standard normals G1, G2, G3
    sum(dz) = count*alpha + sqrt(count)*(conf_z*G1 + noise_z_sd*G2) and
    sum(dy) = beta*sum(dz) + sqrt(count)*(conf_y*G1 + noise_y_sd*G3).
    Returns (sum(d^2), sum(dz), sum(dy)).
    """
    return _iv_sums(params, count, *gen.standard_normal(3).tolist())


def iv_block(
    params: IvParams, count: int, delta: float, normals: np.ndarray
) -> tuple[np.ndarray, dict[int, PaccError]]:
    """The statistics of a block of trials, one a row of ``normals`` (G1,
    G2, G3 of ``draw_iv_sums``): row i's is ``iv_ratio(*sums).beta_hat``
    on the sums those normals give, bit for bit, which ``iv_rule`` decides.

    Returns each row's beta_hat, and the error of each row whose ratio is
    undefined, by row index; such a row's beta_hat is NaN. A finite ratio
    of a nonzero sum(dz) needs finite sums (0 * inf and inf / inf are NaN),
    so only rows whose array ratio is not finite go through ``iv_ratio``,
    which raises their WeakInstrumentError or DegenerateFitError.
    """
    check_iv_trial(count, delta)
    # Overflow and 0/0 are the undefined rows, which iv_ratio words.
    with np.errstate(all="ignore"):
        sum_dd, sum_dz, sum_dy = _iv_sums(params, count, *normals.T)
        beta_hat = sum_dy / sum_dz
    halts = {}
    for i in np.flatnonzero(~np.isfinite(beta_hat)).tolist():
        try:
            beta_hat[i] = iv_ratio(sum_dd, float(sum_dz[i]), float(sum_dy[i])).beta_hat
        except (WeakInstrumentError, DegenerateFitError) as exc:
            beta_hat[i], halts[i] = math.nan, exc
    return beta_hat, halts


def check_iv_trial(count: int, delta: float) -> None:
    """The checks of ``iv_block``, which build nothing: delta in (0, 1) and
    a count within a float's range."""
    _check_delta(delta)
    if count > sys.float_info.max:
        raise InvalidArgumentError(f"count must be at most {sys.float_info.max!r}, got {count}")


def iv_ratio(sum_dd: float, sum_dz: float, sum_dy: float) -> IvEstimate:
    """2SLS from its sums: alpha_hat = sum_dz/sum_dd, beta_hat = sum_dy/sum_dz.

    A zero denominator is a WeakInstrumentError; a sum or ratio past the
    float range is a DegenerateFitError.
    """
    if sum_dd == 0.0:
        raise WeakInstrumentError("sum of d^2 is zero; the stage-I coefficient is undefined")
    if sum_dz == 0.0:
        raise WeakInstrumentError(
            "sum(d * z) is exactly zero; the stage-II ratio is undefined"
        )
    alpha_hat, beta_hat = sum_dz / sum_dd, sum_dy / sum_dz
    if not all(map(math.isfinite, (sum_dd, sum_dz, sum_dy, alpha_hat, beta_hat))):
        raise DegenerateFitError("the 2SLS sums or ratios overflow the float range")
    return IvEstimate(alpha_hat=alpha_hat, beta_hat=beta_hat)


def two_sls(data: IvDataset) -> IvEstimate:
    """Just-identified 2SLS: alpha_hat = sum(dz)/sum(d^2), beta_hat = sum(dy)/sum(dz)."""
    # Finite data can still overflow the sums; iv_ratio checks that
    # instead of numpy warning about it.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = float(data.d @ data.d), float(data.d @ data.z), float(data.d @ data.y)
    return iv_ratio(*sums)


def iv_sample_size(
    epsilon: float,
    delta: float,
    sigma_dy2: float,
    sigma_dz2: float,
    alpha: float,
    sigma_d2: float,
) -> int:
    """Sample size sufficient for the (epsilon, delta) guarantee.

    Ceiling of max(32 sigma_dy2 / (eps delta^2 alpha^2 sigma_d2^2),
    8 sigma_dz2 / (eps alpha^2 sigma_d2^2)).
    """
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise InvalidArgumentError("epsilon and delta must lie in (0, 1)")
    if not all(0.0 < v < math.inf for v in (sigma_dy2, sigma_dz2, sigma_d2)):
        raise InvalidArgumentError("variance arguments must be finite and positive")
    if not 0.0 < abs(alpha) < math.inf:
        raise InvalidArgumentError(f"alpha must be finite and nonzero, got {alpha}")
    a2s4 = alpha * alpha * sigma_d2 * sigma_d2
    return ceil_bound(
        "the IV sample size",
        lambda: max(
            32.0 * sigma_dy2 / (epsilon * delta * delta * a2s4),
            8.0 * sigma_dz2 / (epsilon * a2s4),
        ),
    )


def iv_analytic_variances(params: IvParams) -> tuple[float, float]:
    """Exact (Var(d*y), Var(d*z)) under the Rademacher-instrument SEM.

    d*z = alpha + d*(conf_z*u + noise), so Var(dz) = conf_z^2 + noise_z^2;
    substituting y's structural form gives Var(dy) = (beta*conf_z +
    conf_y)^2 + beta^2 noise_z^2 + noise_y^2.
    """
    sigma_dz2 = params.conf_z**2 + params.noise_z_sd**2
    sigma_dy2 = (
        (params.beta * params.conf_z + params.conf_y) ** 2
        + params.beta**2 * params.noise_z_sd**2
        + params.noise_y_sd**2
    )
    return sigma_dy2, sigma_dz2


def iv_decide(data: IvDataset, delta: float) -> Decision:
    """Two-sided rule on a dataset's 2SLS estimate (see ``iv_rule``)."""
    return iv_rule(two_sls(data), delta)


def iv_rule(est: IvEstimate, delta: float) -> Decision:
    """Two-sided rule: choose M1 when |beta_hat| strictly exceeds delta / 2."""
    _check_delta(delta)
    threshold = delta / 2.0
    chosen = ModelChoice.M1 if abs(est.beta_hat) > threshold else ModelChoice.M2
    return Decision(chosen=chosen, statistic=est.beta_hat, threshold=threshold)


def ols_slope(data: IvDataset) -> float:
    """Ordinary least-squares slope of y on z, the naive confounded estimate."""
    z = data.z - data.z.mean()
    denom = float(z @ z)
    if denom == 0.0:
        raise InvalidArgumentError("z has zero variance")
    return float(z @ (data.y - data.y.mean())) / denom


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise InvalidArgumentError(f"delta must lie in (0, 1), got {delta}")
