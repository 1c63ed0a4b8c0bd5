"""Instrumental-variable route: linear SEM generator and just-identified 2SLS.

The generator draws a Rademacher instrument d, a latent standard-normal
confounder u, then z = alpha*d + conf_z*u + noise and y = beta*z +
conf_y*u + noise. Estimation uses only (d, z, y); u is retained for
diagnostics. The decision rule is two-sided: |beta_hat| > delta/2.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from pacc.core import (
    Decision,
    DegenerateFitError,
    InvalidArgumentError,
    ModelChoice,
    RngStream,
    WeakInstrumentError,
    as_generator,
    real_number,
)

__all__ = [
    "IvParams",
    "IvDataset",
    "IvEstimate",
    "generate_iv",
    "draw_iv_sums",
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
        if self.noise_z_sd < 0 or self.noise_y_sd < 0:
            raise InvalidArgumentError("noise scales must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "conf_z": self.conf_z,
            "conf_y": self.conf_y,
            "noise_z_sd": self.noise_z_sd,
            "noise_y_sd": self.noise_y_sd,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IvParams":
        return cls(
            alpha=real_number(d["alpha"], "alpha"),
            beta=real_number(d["beta"], "beta"),
            **{
                key: real_number(d.get(key, 0.0), key)
                for key in ("conf_z", "conf_y", "noise_z_sd", "noise_y_sd")
            },
        )


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = ["d", "z", "y"] + (["u_hidden"] if include_hidden else [])
        writer.writerow(cols)
        for i in range(len(self)):
            row = [
                format(self.d[i], ".17g"),
                format(self.z[i], ".17g"),
                format(self.y[i], ".17g"),
            ]
            if include_hidden:
                row.append(format(self.u_hidden[i], ".17g"))
            writer.writerow(row)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "IvDataset":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2:
            raise InvalidArgumentError("CSV must contain a header and at least one record")
        header = rows[0]
        if header not in (["d", "z", "y"], ["d", "z", "y", "u_hidden"]):
            raise InvalidArgumentError("expected header d,z,y[,u_hidden]")
        if any(len(row) != len(header) for row in rows[1:]):
            raise InvalidArgumentError(f"every CSV record must have {len(header)} values")
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        if not np.all(np.isfinite(data)):
            raise InvalidArgumentError("CSV values must be finite numbers")
        # Contiguous columns: the 2SLS dot products then sum in the same
        # order as on generated data, so decisions match bit for bit.
        columns = np.ascontiguousarray(data.T)
        u = columns[3] if len(header) == 4 else np.zeros(data.shape[0])
        return cls(columns[0], columns[1], columns[2], u)


@dataclass(frozen=True)
class IvEstimate:
    """Stage-I instrument coefficient and the stage-II effect ratio."""

    alpha_hat: float
    beta_hat: float

    def to_dict(self) -> dict:
        return {"alpha_hat": self.alpha_hat, "beta_hat": self.beta_hat}


def generate_iv(
    params: IvParams, count: int, rng: RngStream | np.random.Generator
) -> IvDataset:
    """Draw ``count`` records from the linear SEM."""
    if count < 1:
        raise InvalidArgumentError("count must be at least 1")
    gen = as_generator(rng)
    d = 2.0 * gen.integers(0, 2, size=count).astype(np.float64) - 1.0
    u = gen.standard_normal(count)
    xi_z = gen.standard_normal(count)
    xi_y = gen.standard_normal(count)
    z = params.alpha * d + params.conf_z * u + params.noise_z_sd * xi_z
    y = params.beta * z + params.conf_y * u + params.noise_y_sd * xi_y
    return IvDataset(d, z, y, u)


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
    g1, g2, g3 = gen.standard_normal(3).tolist()
    root = math.sqrt(count)
    sum_dz = count * params.alpha + root * (params.conf_z * g1 + params.noise_z_sd * g2)
    sum_dy = params.beta * sum_dz + root * (params.conf_y * g1 + params.noise_y_sd * g3)
    return float(count), sum_dz, sum_dy


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
    if sigma_dy2 <= 0 or sigma_dz2 <= 0 or sigma_d2 <= 0:
        raise InvalidArgumentError("variance arguments must be positive")
    if alpha == 0.0:
        raise InvalidArgumentError("alpha must be nonzero")
    a2s4 = alpha * alpha * sigma_d2 * sigma_d2
    n_effect = 32.0 * sigma_dy2 / (epsilon * delta * delta * a2s4)
    n_stage1 = 8.0 * sigma_dz2 / (epsilon * a2s4)
    return math.ceil(max(n_effect, n_stage1))


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
    if not 0.0 < delta < 1.0:
        raise InvalidArgumentError(f"delta must lie in (0, 1), got {delta}")
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
