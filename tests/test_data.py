"""Dataset loading, splitting, normalization, and window sampling."""

import numpy as np
import pytest

from mlf.data import (
    DataError,
    SplitRanges,
    gather_batch,
    load_csv,
    split_dataset,
    standardize,
    window_anchors,
)
from mlf.model import ConfigError, MlfConfig
from mlf.synth import seasonal_multichannel, write_csv
from mlf.training import sample_index


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_preserves_order(tmp_path):
    path = tmp_path / "small.csv"
    write_lines(path, ["date,a,b", "2020-01-01,1,4", "2020-01-02,2,5", "2020-01-03,3,6"])
    ds = load_csv(str(path))
    assert ds.channel_names == ["a", "b"]
    assert np.array_equal(ds.values, [[1, 4], [2, 5], [3, 6]])
    assert ds.timestamps[0] == "2020-01-01"


def test_load_csv_skips_blank_rows(tmp_path):
    path = tmp_path / "blanks.csv"
    write_lines(path, ["date,a,b", "", "2020-01-01,1,4", " , ", "2020-01-02,2,5", "", "2020-01-03,3,6", ","])
    ds = load_csv(str(path))
    assert np.array_equal(ds.values, [[1, 4], [2, 5], [3, 6]])
    assert ds.timestamps == ["2020-01-01", "2020-01-02", "2020-01-03"]


def test_load_csv_header_only_is_error(tmp_path):
    path = tmp_path / "empty.csv"
    write_lines(path, ["date,a"])
    with pytest.raises(DataError, match="at least 2 data rows"):
        load_csv(str(path))


def test_load_csv_bad_cell_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    write_lines(path, ["date,a", "d1,1.5", "d2,oops", "d3,2.5"])
    with pytest.raises(DataError, match="row 3, column 2"):
        load_csv(str(path))


def test_load_csv_missing_file():
    with pytest.raises(DataError, match="cannot open"):
        load_csv("/nonexistent/nope.csv")


def test_load_ett_format_file(tmp_path):
    # Date column plus seven feature columns, the public-file layout.
    path = tmp_path / "ett.csv"
    ds0 = seasonal_multichannel(50, 7, seed=0)
    write_csv(ds0, str(path))
    ds = load_csv(str(path))
    assert ds.n_channels == 7
    assert ds.n_steps == 50


def test_load_fund_csv_separates_flags(tmp_path):
    path = tmp_path / "fund.csv"
    write_lines(
        path,
        [
            "product_pid,apply_amt,redeem_amt,is_trad,holiday_num",
            "p1,10,5,1,0",
            "p1,11,6,1,0",
            "p1,12,7,0,2",
        ],
    )
    ds = load_csv(str(path), "fund")
    assert ds.channel_names == ["apply_amt", "redeem_amt"] and ds.format == "fund"
    assert np.array_equal(ds.values, [[10, 5], [11, 6], [12, 7]])


def test_load_csv_unknown_format_is_error(tmp_path):
    path = tmp_path / "small.csv"
    write_lines(path, ["date,a", "d1,1", "d2,2"])
    assert load_csv(str(path)).format == "generic"
    with pytest.raises(DataError, match="unknown data format 'excel'"):
        load_csv(str(path), "excel")


# -- splitting -----------------------------------------------------------------


def test_ratio_split_7_1_2():
    ds = seasonal_multichannel(100, 2, seed=1)
    split = split_dataset(ds, "ratio")
    assert split.train == (0, 70)
    assert split.val == (70, 80)
    assert split.test == (80, 100)


def test_split_rejects_short_dataset():
    ds = seasonal_multichannel(30, 1, seed=1)
    with pytest.raises(DataError, match="at least"):
        split_dataset(ds, "ratio", min_history=40, horizon=5)


def test_ett_split_uses_month_blocks():
    ds = seasonal_multichannel(20 * 24 * 30, 1, seed=1)
    split = split_dataset(ds, "ett", rows_per_month=720)
    assert split.train == (0, 8640)
    assert split.val == (8640, 11520)
    assert split.test == (11520, 14400)
    # Rows after month 20 belong to no split.
    longer = split_dataset(seasonal_multichannel(24 * 24 * 30, 1, seed=1), "ett", rows_per_month=720)
    assert (longer.train, longer.val, longer.test) == ((0, 8640), (8640, 11520), (11520, 14400))


def test_unknown_scheme():
    ds = seasonal_multichannel(100, 1, seed=1)
    with pytest.raises(DataError, match="unknown split scheme"):
        split_dataset(ds, "weird")


# -- standardization ---------------------------------------------------------------


def test_standardize_zero_mean_on_train():
    ds = seasonal_multichannel(200, 3, seed=2)
    split = split_dataset(ds, "ratio")
    norm = standardize(ds, split)
    lo, hi = split.train
    assert np.max(np.abs(norm.values[lo:hi].mean(axis=0))) <= 1e-10
    assert np.max(np.abs(norm.values[lo:hi].std(axis=0) - 1.0)) <= 1e-10


def test_standardize_round_trip():
    ds = seasonal_multichannel(120, 2, seed=3)
    split = split_dataset(ds, "ratio")
    norm = standardize(ds, split)
    restored = norm.norm.invert(norm.values.T, np.arange(ds.n_channels)).T
    assert np.max(np.abs(restored - ds.values)) <= 1e-12


def test_standardize_rejects_constant_channel():
    ds = seasonal_multichannel(100, 2, seed=4)
    ds.values[:, 1] = 5.0
    with pytest.raises(DataError, match="constant channel"):
        standardize(ds, split_dataset(ds, "ratio"))


def test_standardize_stats_come_from_train_only():
    ds = seasonal_multichannel(200, 1, seed=5)
    ds.values[150:] += 100.0  # test-range shift must not leak into the stats
    split = split_dataset(ds, "ratio")
    norm = standardize(ds, split)
    lo, hi = split.train
    assert abs(norm.norm.mean[0] - ds.values[lo:hi, 0].mean()) <= 1e-12
    assert abs(norm.norm.std[0] - ds.values[lo:hi, 0].std()) <= 1e-12


def test_denormalize_examples():
    ds = seasonal_multichannel(100, 1, seed=6)
    split = split_dataset(ds, "ratio")
    norm = standardize(ds, split)
    mu, sigma = norm.norm.mean[0], norm.norm.std[0]
    rows = norm.norm.invert(np.array([[0.0], [1.0]]), np.array([0, 0]))
    assert rows[0, 0] == pytest.approx(mu)
    assert rows[1, 0] == pytest.approx(mu + sigma)
    with pytest.raises(DataError, match="unknown channel"):
        norm.norm.invert(np.array([[0.0]]), np.array([3]))


# -- window sampling ------------------------------------------------------------------


def test_anchor_enumeration_t10():
    anchors = window_anchors((0, 10), [2, 4], horizon=1)
    assert anchors.tolist() == [4, 5, 6, 7, 8, 9]


def reference_windows(ds, split_range, period_lengths, horizon):
    """Reference for the gathered windows: one (channel, anchor, windows, target)
    sample at a time, channel-major, by plain slicing of each channel."""
    start, end = split_range
    for channel in range(ds.n_channels):
        series = ds.values[:, channel]
        for t in range(max(start, max(period_lengths)), end - horizon + 1):
            yield channel, t, [series[t - n : t] for n in period_lengths], series[t : t + horizon]


def gather_split(ds, split_range, period_lengths, horizon):
    """Every window of a split the way training and evaluation build them:
    `sample_index` under a validated config, then one `gather_batch`."""
    cfg = MlfConfig(period_lengths=tuple(period_lengths), horizon=horizon, n_patches=2, squeeze_factor=1)
    channels, anchors = sample_index(ds, split_range, cfg)
    windows, targets = gather_batch(ds, channels, anchors, list(period_lengths), horizon)
    return channels, anchors, windows, targets


def test_sample_windows_counts_and_suffix():
    ds = seasonal_multichannel(10, 1, seed=7)
    _, anchors, windows, targets = gather_split(ds, (0, 10), [2, 4], 1)
    assert anchors.size == 6
    assert windows[0].shape == (6, 2) and windows[1].shape == (6, 4)
    # Shorter windows are suffixes of the longest one.
    assert np.array_equal(windows[0], windows[1][:, -2:])
    assert targets.shape == (6, 1)
    assert np.array_equal(targets[:, 0], ds.values[anchors, 0])


def test_first_anchor_is_longest_period():
    anchors = window_anchors((0, 400), [5, 10, 30, 60, 120, 150], horizon=5)
    assert anchors[0] == 150


def test_targets_never_cross_split_end():
    ds = seasonal_multichannel(100, 1, seed=8)
    split = split_dataset(ds, "ratio")
    _, anchors, _, _ = gather_split(ds, split.val, [4, 8], 3)
    assert anchors.size > 0
    assert (anchors + 3 <= split.val[1]).all()
    assert (anchors >= split.val[0]).all()


def test_val_windows_reach_back_into_train():
    ds = seasonal_multichannel(100, 1, seed=9)
    split = split_dataset(ds, "ratio")
    _, anchors, _, _ = gather_split(ds, split.val, [4, 16], 2)
    assert (anchors - 16 < split.train[1]).any()


def test_sample_windows_rejects_unsorted_periods():
    ds = seasonal_multichannel(50, 1, seed=10)
    with pytest.raises(ConfigError, match="strictly increasing"):
        gather_split(ds, (0, 50), [8, 8], 1)


def test_empty_stream_when_no_anchor_fits():
    ds = seasonal_multichannel(12, 1, seed=11)
    assert list(reference_windows(ds, (0, 12), [20], 1)) == []
    channels, anchors, windows, targets = gather_split(ds, (0, 12), [20], 1)
    assert channels.size == anchors.size == 0
    assert windows[0].shape == (0, 20) and targets.shape == (0, 1)


def test_gather_batch_matches_stream():
    ds = seasonal_multichannel(40, 2, seed=12)
    samples = list(reference_windows(ds, (0, 40), [3, 6], 2))
    channels, anchors, windows, targets = gather_split(ds, (0, 40), [3, 6], 2)
    assert channels.tolist() == [c for c, _, _, _ in samples]
    assert anchors.tolist() == [t for _, t, _, _ in samples]
    for i, (_, _, ref_windows, ref_target) in enumerate(samples):
        assert np.array_equal(windows[0][i], ref_windows[0])
        assert np.array_equal(windows[1][i], ref_windows[1])
        assert np.array_equal(targets[i], ref_target)


def test_gather_batch_matches_plain_slices_in_any_order():
    ds = seasonal_multichannel(40, 2, seed=12)
    samples = list(reference_windows(ds, (0, 40), [3, 6], 2))
    order = np.random.default_rng(0).permutation(len(samples))
    channels = np.array([samples[i][0] for i in order])
    anchors = np.array([samples[i][1] for i in order])
    windows, targets = gather_batch(ds, channels, anchors, [3, 6], 2)
    for row, i in enumerate(order):
        _, _, ref_windows, ref_target = samples[i]
        assert np.array_equal(windows[0][row], ref_windows[0])
        assert np.array_equal(windows[1][row], ref_windows[1])
        assert np.array_equal(targets[row], ref_target)
    assert all(w.flags.c_contiguous for w in windows) and targets.flags.c_contiguous


@pytest.mark.parametrize("anchor", [5, 39], ids=["history-before-row-0", "target-past-the-end"])
def test_gather_batch_rejects_anchors_outside_the_series(anchor):
    # Longest period 6 and horizon 2 on 40 rows: anchors 6..38 fit. A strided
    # view would wrap a negative start around to the end of the series.
    ds = seasonal_multichannel(40, 2, seed=12)
    with pytest.raises(DataError, match="leave the series"):
        gather_batch(ds, np.array([0, 1]), np.array([20, anchor]), [3, 6], 2)


@pytest.mark.parametrize("stride", [1, 2, 7])
def test_sample_index_stride_slices_the_full_index(stride):
    ds = seasonal_multichannel(40, 2, seed=12)
    cfg = MlfConfig(period_lengths=(3, 6), horizon=2, n_patches=2, squeeze_factor=1)
    channels, anchors = sample_index(ds, (0, 40), cfg)
    strided = sample_index(ds, (0, 40), cfg, stride)
    assert np.array_equal(strided[0], channels[::stride])
    assert np.array_equal(strided[1], anchors[::stride])


def test_sample_index_rejects_a_stride_below_one():
    ds = seasonal_multichannel(40, 1, seed=12)
    cfg = MlfConfig(period_lengths=(3, 6), horizon=2, n_patches=2, squeeze_factor=1)
    with pytest.raises(ConfigError, match="stride"):
        sample_index(ds, (0, 40), cfg, 0)
