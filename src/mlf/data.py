"""CSV loading, normalization, splitting, and multi-period window gathering.

Every variable of a multivariate series is treated as its own univariate
stream (channel independence): a training sample is one channel's set of
right-aligned history windows plus its forecast target.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np


class DataError(ValueError):
    """Dataset loading or consistency failure."""


# Value columns of fund-sales style files; the remaining numeric columns are
# trading-calendar flags that are kept around but never fed to the model.
FUND_VALUE_COLUMNS = ("apply_amt", "redeem_amt")


@dataclass
class Normalization:
    mean: np.ndarray  # per channel, train split only
    std: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray, channels: np.ndarray) -> np.ndarray:
        """Map (n, m) model-space rows back to original units; row i belongs
        to channel channels[i]."""
        channels = np.asarray(channels)
        n_channels = self.mean.size
        if channels.size and (channels.min() < 0 or channels.max() >= n_channels):
            raise DataError(
                f"unknown channel index: rows name channels {channels.min()}..{channels.max()}, "
                f"normalization has {n_channels}"
            )
        return values * self.std[channels][:, None] + self.mean[channels][:, None]


@dataclass
class SeriesDataset:
    channel_names: list[str]
    values: np.ndarray  # (T, C) float64
    timestamps: list[str] | None = None
    aux: dict[str, np.ndarray] = field(default_factory=dict)
    norm: Normalization | None = None

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitRanges:
    """Contiguous [start, end) row ranges; ordered and disjoint."""

    train: tuple[int, int]
    val: tuple[int, int]
    test: tuple[int, int]

    def get(self, name: str) -> tuple[int, int]:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError:
            raise DataError(f"unknown split {name!r}, expected train/val/test") from None


def load_csv(path: str, value_columns: list[str] | None = None) -> SeriesDataset:
    """Load a comma-separated series file.

    The first column is a date/identifier and is kept as a string; every
    other column must parse as a float. `value_columns` picks a subset of
    columns as the forecast channels, leaving the rest as auxiliary data
    (used for fund-style files whose flag columns are not model inputs).
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 2:
            raise DataError(f"{path}: need a date column plus at least one value column")
        columns = [name.strip() for name in header[1:]]
        timestamps: list[str] = []
        rows: list[list[float]] = []
        for row_idx, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {row_idx} has {len(row)} fields, expected {len(header)}")
            timestamps.append(row[0])
            parsed = []
            for col_idx, cell in enumerate(row[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric value {cell!r} at row {row_idx}, column {col_idx}"
                    ) from None
                if not math.isfinite(value):
                    column = f"column {col_idx} ({header[col_idx - 1]})"
                    raise DataError(f"{path}: non-finite value {cell!r} at row {row_idx}, {column}")
                parsed.append(value)
            rows.append(parsed)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")
    matrix = np.asarray(rows, dtype=np.float64)

    if value_columns is None:
        return SeriesDataset(columns, matrix, timestamps)
    missing = [c for c in value_columns if c not in columns]
    if missing:
        raise DataError(f"{path}: value columns not found: {missing}")
    value_idx = [columns.index(c) for c in value_columns]
    aux = {
        name: matrix[:, i].copy()
        for i, name in enumerate(columns)
        if i not in value_idx
    }
    return SeriesDataset(list(value_columns), matrix[:, value_idx], timestamps, aux=aux)


def load_fund_csv(path: str) -> SeriesDataset:
    """Load a fund-sales file: apply/redeem amounts are the channels, the
    calendar flag columns ride along as auxiliary data."""
    return load_csv(path, value_columns=list(FUND_VALUE_COLUMNS))


def split_dataset(
    ds: SeriesDataset,
    scheme: str = "ratio",
    *,
    ratios: tuple[int, int, int] = (7, 1, 2),
    rows_per_month: int = 720,
    min_history: int = 0,
    horizon: int = 0,
) -> SplitRanges:
    """Partition the time axis into train/val/test ranges.

    scheme "ratio" splits by the given proportions (default 7:1:2); scheme
    "ett" uses the 12/4/4-month convention with `rows_per_month` rows each.
    Window sampling later reaches back across range starts for history, so
    the ranges themselves stay disjoint.
    """
    t = ds.n_steps
    if min_history and t < min_history + horizon:
        raise DataError(
            f"dataset has {t} rows but windows need at least {min_history + horizon} "
            f"(longest history {min_history} + horizon {horizon})"
        )
    if scheme == "ratio":
        total = sum(ratios)
        train_end = t * ratios[0] // total
        val_end = t * (ratios[0] + ratios[1]) // total
    elif scheme == "ett":
        train_end = min(12 * rows_per_month, t)
        val_end = min(16 * rows_per_month, t)
    else:
        raise DataError(f"unknown split scheme {scheme!r}, expected 'ratio' or 'ett'")
    return SplitRanges((0, train_end), (train_end, val_end), (val_end, t))


def standardize(ds: SeriesDataset, split: SplitRanges) -> SeriesDataset:
    """Normalize every channel by its train-range mean/std.

    Returns a new dataset; the statistics are retained for the inverse
    transform. A constant train-range channel is an error.
    """
    lo, hi = split.train
    train = ds.values[lo:hi]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    flat = np.nonzero(std < 1e-12)[0]
    if flat.size:
        names = [ds.channel_names[i] for i in flat]
        raise DataError(f"constant channel(s) on the train split: {names}")
    norm = Normalization(mean, std)
    return replace(ds, values=norm.apply(ds.values), norm=norm)


def window_anchors(
    split_range: tuple[int, int], period_lengths: list[int], horizon: int
) -> np.ndarray:
    """Valid forecast origins t for a split: full history exists (t >= n_S)
    and the target stays inside the split (t + m <= end)."""
    start, end = split_range
    longest = max(period_lengths)
    first = max(start, longest)
    last = end - horizon
    if last < first:
        return np.empty(0, dtype=np.int64)
    return np.arange(first, last + 1, dtype=np.int64)


def gather_batch(
    ds: SeriesDataset,
    channels: np.ndarray,
    anchors: np.ndarray,
    period_lengths: list[int],
    horizon: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Materialize a batch: per-period (B, n_s) arrays plus (B, m) targets."""
    batch = len(anchors)
    windows = [np.empty((batch, n), dtype=np.float64) for n in period_lengths]
    targets = np.empty((batch, horizon), dtype=np.float64)
    for i in range(batch):
        series = ds.values[:, channels[i]]
        t = anchors[i]
        for s, n in enumerate(period_lengths):
            windows[s][i] = series[t - n : t]
        targets[i] = series[t : t + horizon]
    return windows, targets
