"""Deterministic synthetic series so every experiment runs offline."""

from __future__ import annotations

import csv

import numpy as np

from .data import SeriesDataset


def linear_trend(
    n_steps: int,
    n_channels: int = 1,
    seed: int = 0,
    noise: float = 0.02,
    seasonal_amp: float = 0.5,
) -> SeriesDataset:
    """Per-channel linear ramps, optionally with a seasonal wiggle and noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_steps, dtype=np.float64)
    values = np.empty((n_steps, n_channels))
    for c in range(n_channels):
        slope = rng.uniform(0.5, 2.0)
        offset = rng.uniform(-5.0, 5.0)
        period = rng.uniform(12.0, 30.0)
        values[:, c] = (
            slope * t / n_steps * 10.0
            + offset
            + seasonal_amp * np.sin(2.0 * np.pi * t / period)
            + noise * rng.standard_normal(n_steps)
        )
    return _wrap(values, "trend")


def regime_switching(
    n_steps: int,
    n_channels: int = 1,
    seed: int = 0,
    *,
    slow_period: float = 160.0,
    fast_period: float = 6.0,
    fast_amp: float = 1.5,
    mean_dwell: int = 40,
    noise: float = 0.05,
    calm_noise: float | None = None,
) -> SeriesDataset:
    """A slow sinusoid plus a fast oscillation that switches on and off.

    Regime dwell times are geometric with the given mean, so stretches of
    calm trend alternate with bursts of sharp fluctuation. Recent short
    history carries the burst phase; long history carries the slow trend.
    `calm_noise` (defaults to `noise`) sets the noise level outside bursts,
    so the regimes can differ in which history length is trustworthy.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n_steps, dtype=np.float64)
    values = np.empty((n_steps, n_channels))
    if calm_noise is None:
        calm_noise = noise
    for c in range(n_channels):
        slow = np.sin(2.0 * np.pi * t / slow_period + rng.uniform(0.0, 2.0 * np.pi))
        gate = np.zeros(n_steps)
        pos, state = 0, rng.integers(0, 2)
        while pos < n_steps:
            dwell = 1 + rng.geometric(1.0 / mean_dwell)
            gate[pos : pos + dwell] = state
            state = 1 - state
            pos += dwell
        fast = fast_amp * np.sin(2.0 * np.pi * t / fast_period + rng.uniform(0.0, 2.0 * np.pi))
        sigma = gate * noise + (1.0 - gate) * calm_noise
        values[:, c] = slow + gate * fast + sigma * rng.standard_normal(n_steps)
    return _wrap(values, "regime")


def seasonal_multichannel(
    n_steps: int = 17420, n_channels: int = 7, seed: int = 0, noise: float = 0.3
) -> SeriesDataset:
    """Hourly-flavored stand-in for the public electricity-temperature files:
    daily and weekly harmonics, slow drift, channel-specific mixing."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_steps, dtype=np.float64)
    daily = np.sin(2.0 * np.pi * t / 24.0)
    daily2 = np.sin(4.0 * np.pi * t / 24.0 + 1.0)
    weekly = np.sin(2.0 * np.pi * t / 168.0)
    drift = np.cumsum(rng.standard_normal(n_steps)) * 0.02
    values = np.empty((n_steps, n_channels))
    for c in range(n_channels):
        w = rng.uniform(0.3, 1.5, size=4)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values[:, c] = (
            w[0] * np.roll(daily, int(phase * 4))
            + w[1] * daily2
            + w[2] * weekly
            + w[3] * drift
            + noise * rng.standard_normal(n_steps)
        )
    return _wrap(values, "ch")


GENERATORS = {
    "trend": linear_trend,
    "regime-switch": regime_switching,
    "ett": seasonal_multichannel,
}


def generate(kind: str = "trend", n_steps: int = 2000, n_channels: int = 1, seed: int = 0) -> SeriesDataset:
    """The series of `kind`, a key of GENERATORS; the defaults are those of a
    run config's `dataset.synthetic` section."""
    return GENERATORS[kind](n_steps, n_channels, seed)


def write_csv(ds: SeriesDataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(ds.channel_names))
        stamps = ds.timestamps or [str(i) for i in range(ds.n_steps)]
        for i in range(ds.n_steps):
            writer.writerow([stamps[i]] + [repr(float(v)) for v in ds.values[i]])


def _wrap(values: np.ndarray, prefix: str) -> SeriesDataset:
    names = [f"{prefix}_{c}" for c in range(values.shape[1])]
    stamps = [str(i) for i in range(values.shape[0])]
    return SeriesDataset(names, values, stamps)
