"""The history-consistency statistic and its partition by best-predicting
period. A helper module for the tests, not a test module."""

import numpy as np

from mlf.metrics import MetricError


def kappa(history: np.ndarray, future_value: float) -> float:
    """Mean squared gap between a 30-step history and the value being forecast.

    Large values mean the future breaks away from the recent past (sharp
    fluctuation); small values mean the future continues it.
    """
    history = np.asarray(history, dtype=np.float64)
    if history.shape != (30,):
        raise MetricError(f"kappa needs exactly 30 history steps, got shape {history.shape}")
    return float(np.mean((history - float(future_value)) ** 2))


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
