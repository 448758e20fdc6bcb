"""Forecast error metrics: the MSE, MAE and WMAPE of stacked forecasts, read from one error array."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


class MetricError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


@dataclass
class MetricsReport:
    units: str  # "normalized" or "original"
    mse: float
    mae: float
    wmape: float | None
    per_horizon: list[dict] = field(default_factory=list)
    n_samples: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def compute_metrics(pred: np.ndarray, target: np.ndarray, *, units: str,
                    channels: np.ndarray | None = None) -> MetricsReport:
    """Aggregate metrics for stacked (n_samples, horizon) forecasts, in `units`
    ("normalized" or "original"), overall and per horizon step.

    The WMAPE, 100 * sum|y - yhat| / sum|y|, pools every value, or, given
    the channel of each row in `channels`, is summed over the channels (the
    fund-sales convention of reporting the two transaction variables
    jointly, which `evaluate` applies to a "fund" dataset). A zero
    denominator, which all-zero normalized targets can hit, leaves it None.
    Its one caller is `evaluate`; besides the shape match, it checks only
    that the predictions are finite.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise MetricError(f"prediction shape {pred.shape} does not match target shape {target.shape}")
    if not np.isfinite(pred).all():
        raise MetricError("predictions hold NaN or Inf")
    err = pred - target
    sq, ab = err**2, np.abs(err)
    groups = [channels == c for c in np.unique(channels)] if channels is not None else [slice(None)]
    wmape = 0.0
    for rows in groups:
        denom = float(np.sum(np.abs(target[rows])))
        if denom == 0.0:
            wmape = None
            break
        wmape += 100.0 * float(np.sum(ab[rows])) / denom
    return MetricsReport(
        units=units,
        mse=float(np.mean(sq)),
        mae=float(np.mean(ab)),
        wmape=wmape,
        per_horizon=[{"step": h + 1, "mse": float(np.mean(sq[:, h])), "mae": float(np.mean(ab[:, h]))}
                     for h in range(pred.shape[1])],
        n_samples=pred.shape[0],
    )
