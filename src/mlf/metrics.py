"""Forecast error metrics and the history-consistency statistic."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


class MetricError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _aligned(pred, target)
    return float(np.mean((pred - target) ** 2))


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = _aligned(pred, target)
    return float(np.mean(np.abs(pred - target)))


def wmape(pred: np.ndarray, target: np.ndarray) -> float:
    """Weighted mean absolute percentage error: 100 * sum|y - yhat| / sum|y|."""
    pred, target = _aligned(pred, target)
    denom = float(np.sum(np.abs(target)))
    if denom == 0.0:
        raise MetricError("WMAPE undefined: sum of |target| is zero")
    return 100.0 * float(np.sum(np.abs(target - pred))) / denom


def kappa(history: np.ndarray, future_value: float) -> float:
    """Mean squared gap between a 30-step history and the value being forecast.

    Large values mean the future breaks away from the recent past (sharp
    fluctuation); small values mean the future continues it.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.shape != (30,):
        raise MetricError(f"kappa needs exactly 30 history steps, got shape {history.shape}")
    return float(np.mean((history - float(future_value)) ** 2))


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


def compute_metrics(
    pred: np.ndarray,
    target: np.ndarray,
    *,
    units: str,
    channels: np.ndarray | None = None,
    sum_wmape_channels: bool = False,
) -> MetricsReport:
    """Aggregate metrics for stacked (n_samples, horizon) forecasts.

    `units` is "normalized" or "original". `channels` gives each row's
    channel id, and `sum_wmape_channels` needs it: the WMAPE is then computed
    per channel and summed (the fund-sales convention of reporting the two
    transaction variables jointly); otherwise it pools every value. Its one
    caller is `evaluate`; besides the shape match, it checks only that the
    predictions are finite.
    """
    pred, target = _aligned(pred, target)
    if not np.isfinite(pred).all():
        raise MetricError("predictions hold NaN or Inf")
    try:
        if sum_wmape_channels:
            total = 0.0
            for c in np.unique(channels):
                rows = channels == c
                total += wmape(pred[rows], target[rows])
            wmape_value = total
        else:
            wmape_value = wmape(pred, target)
    except MetricError:
        wmape_value = None  # all-zero targets (normalized data can hit this)
    per_horizon = [
        {"step": h + 1, "mse": mse(pred[:, h], target[:, h]), "mae": mae(pred[:, h], target[:, h])}
        for h in range(pred.shape[1])
    ]
    return MetricsReport(
        mse=mse(pred, target),
        mae=mae(pred, target),
        wmape=wmape_value,
        units=units,
        per_horizon=per_horizon,
        n_samples=pred.shape[0],
    )


def naive_repeat_last(histories: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat each history's final value across the horizon."""
    last = histories[:, -1:]
    return np.repeat(last, horizon, axis=1)


def kappa_by_best_period(
    histories30: np.ndarray,
    future_values: np.ndarray,
    per_period_sq_errors: np.ndarray,
    period_lengths: list[int],
) -> dict[str, float]:
    """Mean consistency statistic per best-predicting-period partition.

    histories30: (n, 30) windows immediately before each forecast origin;
    future_values: (n,) single-step targets; per_period_sq_errors: (n, S)
    squared errors of S single-period forecasters. Samples are grouped by
    which period predicted them best; each group's mean kappa says how
    sharply those futures break from their history.
    """
    if per_period_sq_errors.shape[1] != len(period_lengths):
        raise MetricError("per-period error matrix does not match period list")
    best = per_period_sq_errors.argmin(axis=1)
    kappas = np.array([kappa(h, v) for h, v in zip(histories30, future_values)])
    out = {}
    for s, n in enumerate(period_lengths):
        rows = best == s
        out[f"best_by_{n}"] = float(kappas[rows].mean()) if rows.any() else float("nan")
    return out


def _aligned(pred, target) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise MetricError(f"prediction shape {pred.shape} does not match target shape {target.shape}")
    return pred, target
