"""CSV loading, normalization, splitting, and multi-period window gathering.

Every variable of a multivariate series is treated as its own univariate
stream (channel independence): a sample is one (channel, anchor) pair, and
`gather_batch` is the only code that turns such pairs into the model's
right-aligned history windows and forecast targets. Training, validation,
evaluation and `mlf forecast` all gather their windows through it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DataError(ValueError):
    """Dataset loading or consistency failure."""


# Value columns of fund-sales style files; the remaining numeric columns are
# trading-calendar flags that are parsed but never fed to the model.
FUND_VALUE_COLUMNS = ("apply_amt", "redeem_amt")


@dataclass
class Normalization:
    mean: np.ndarray  # per channel, train split only
    std: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = (values - self.mean) / self.std
        if not np.isfinite(out).all():
            bad = np.flatnonzero(~np.isfinite(out).all(axis=0)).tolist()
            raise DataError(f"values overflow when normalized, in channel index(es) {bad}")
        return out

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
    norm: Normalization | None = None
    format: str = "generic"  # "fund": the FUND_VALUE_COLUMNS channels, scored with the WMAPE summed per channel

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


def load_csv(path: str, format: str = "generic") -> SeriesDataset:
    """Load a comma-separated series file: the one reader of data files.

    The first column is a date/identifier and is kept as a string; every
    other column must parse as a float. In `format` "generic" every such
    column is a forecast channel. In "fund" the `FUND_VALUE_COLUMNS` are the
    channels and the flag columns are dropped; the dataset records the
    format, and `evaluate` sums its WMAPE per channel.
    """
    if format not in ("generic", "fund"):
        raise DataError(f"unknown data format {format!r}, expected 'generic' or 'fund'")
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from None
    with fh:
        try:
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
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: unreadable CSV: {exc}") from None
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(rows)}")
    matrix = np.asarray(rows, dtype=np.float64)

    if format == "generic":
        return SeriesDataset(columns, matrix, timestamps)
    missing = [c for c in FUND_VALUE_COLUMNS if c not in columns]
    if missing:
        raise DataError(f"{path}: value columns not found: {missing}")
    value_idx = [columns.index(c) for c in FUND_VALUE_COLUMNS]
    values = np.ascontiguousarray(matrix[:, value_idx])  # C order, so `standardize` sums it as a generic read
    return SeriesDataset(list(FUND_VALUE_COLUMNS), values, timestamps, format=format)


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
    "ett" uses the 12/4/4-month convention with `rows_per_month` rows each,
    so the rows after month 20 belong to no split.
    Window sampling later reaches back across range starts for history, so
    the ranges themselves stay disjoint. Given `min_history`, the train and
    test ranges must each hold a complete window; validation may be empty.
    """
    t = ds.n_steps
    if scheme == "ratio":
        total = sum(ratios)
        train_end = t * ratios[0] // total
        val_end = t * (ratios[0] + ratios[1]) // total
        test_end = t
    elif scheme == "ett":
        train_end = min(12 * rows_per_month, t)
        val_end = min(16 * rows_per_month, t)
        test_end = min(20 * rows_per_month, t)
    else:
        raise DataError(f"unknown split scheme {scheme!r}, expected 'ratio' or 'ett'")
    split = SplitRanges((0, train_end), (train_end, val_end), (val_end, test_end))
    for name in ("train", "test") if min_history else ():
        lo, hi = split.get(name)
        if not window_anchors((lo, hi), [min_history], horizon).size:
            raise DataError(
                f"the {name} split (rows {lo}..{hi} of {t}) holds no complete window: each needs at least "
                f"{min_history} history rows before it and a {horizon}-step target inside the split"
            )
    return split


def standardize(ds: SeriesDataset, split: SplitRanges) -> SeriesDataset:
    """Normalize every channel by its train-range mean/std.

    Returns a new dataset; the statistics are retained for the inverse
    transform. A constant train-range channel, or one whose statistics
    overflow, is an error.
    """
    lo, hi = split.train
    train = ds.values[lo:hi]
    mean, std = train.mean(axis=0), train.std(axis=0)
    for bad, message in ((~(np.isfinite(mean) & np.isfinite(std)), "train-split mean or std overflows for channel(s)"),
                         (std < 1e-12, "constant channel(s) on the train split")):
        if bad.any():
            raise DataError(f"{message}: {[ds.channel_names[i] for i in np.flatnonzero(bad)]}")
    norm = Normalization(mean, std)
    return replace(ds, values=norm.apply(ds.values), norm=norm)


def window_anchors(
    split_range: tuple[int, int], period_lengths: list[int], horizon: int
) -> np.ndarray:
    """Valid forecast origins t for a split: full history exists (t >= n_S)
    and the target stays inside the split (t + m <= end)."""
    start, end = split_range
    return np.arange(max(start, max(period_lengths)), end - horizon + 1, dtype=np.int64)


def gather_batch(
    ds: SeriesDataset,
    channels: np.ndarray,
    anchors: np.ndarray,
    period_lengths: list[int],
    horizon: int,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Materialize a batch: per-period (B, n_s) arrays plus (B, m) targets.

    The one path from (channel, anchor) pairs to model inputs: row i holds
    ds.values[anchors[i] - n : anchors[i], channels[i]] for each period
    length n, and the target the next `horizon` values. Each array is one
    fancy index into a strided view of the series, so it is a C-contiguous
    copy. An anchor whose windows or target leave the series is a DataError.
    """
    anchors = np.asarray(anchors)
    if not anchors.size:  # no view exists for a window longer than the series
        return [np.empty((0, n)) for n in period_lengths], np.empty((0, horizon))
    longest, n_steps = max(period_lengths), ds.n_steps
    if anchors.min() < longest or anchors.max() > n_steps - horizon:
        raise DataError(
            f"anchors {anchors.min()}..{anchors.max()} leave the series: windows of up to {longest} rows "
            f"and a {horizon}-step target fit anchors {longest}..{n_steps - horizon} of {n_steps} rows"
        )
    windows = [sliding_window_view(ds.values, n, axis=0)[anchors - n, channels] for n in period_lengths]
    return windows, sliding_window_view(ds.values, horizon, axis=0)[anchors, channels]
