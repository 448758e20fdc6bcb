"""Hand-arithmetic metric cases, an oracle for the one-pass scorer, and the
consistency-statistic analysis."""

import numpy as np
import pytest

from mlf.metrics import MetricError, compute_metrics

from kappa import kappa, kappa_by_best_period


# The reference: one metric per call, each converting and subtracting again,
# as `compute_metrics` once scored. The scorer must match it bit for bit.
def reference_mse(pred, target):
    return float(np.mean((pred - target) ** 2))


def reference_mae(pred, target):
    return float(np.mean(np.abs(pred - target)))


def reference_wmape(pred, target):
    denom = float(np.sum(np.abs(target)))
    if denom == 0.0:
        raise MetricError("WMAPE undefined: sum of |target| is zero")
    return 100.0 * float(np.sum(np.abs(target - pred))) / denom


def reference_report(pred, target, units, channels=None):
    try:
        if channels is not None:
            wmape = 0.0
            for c in np.unique(channels):
                rows = channels == c
                wmape += reference_wmape(pred[rows], target[rows])
        else:
            wmape = reference_wmape(pred, target)
    except MetricError:
        wmape = None
    return {
        "units": units,
        "mse": reference_mse(pred, target),
        "mae": reference_mae(pred, target),
        "wmape": wmape,
        "per_horizon": [
            {"step": h + 1, "mse": reference_mse(pred[:, h], target[:, h]), "mae": reference_mae(pred[:, h], target[:, h])}
            for h in range(pred.shape[1])
        ],
        "n_samples": pred.shape[0],
    }


def seeded_case(seed):
    """Forecasts of a seeded shape, scale and channel grouping; some cases
    zero every target or one channel's targets."""
    rng = np.random.default_rng(seed)
    n, horizon = int(rng.integers(1, 700)), int(rng.integers(1, 30))
    scale = 10.0 ** rng.uniform(-4, 8)
    target = rng.normal(rng.normal(0.0, 3.0), 1.0, (n, horizon)) * scale
    pred = target + rng.normal(0.0, rng.uniform(0.01, 2.0), (n, horizon)) * scale
    channels = rng.integers(0, int(rng.integers(1, 5)), n)
    if seed % 7 == 0:
        target[:] = 0.0
    elif seed % 5 == 0:
        target[channels == channels[0]] = 0.0
    return pred, target, channels


@pytest.mark.parametrize("chunk", range(4))
def test_reports_equal_the_reference_bit_for_bit(chunk):
    for seed in range(chunk * 100, (chunk + 1) * 100):
        pred, target, channels = seeded_case(seed)
        for units, grouping in (("normalized", {}), ("original", {"channels": channels})):
            report = compute_metrics(pred, target, units=units, **grouping)
            assert report.to_dict() == reference_report(pred, target, units, **grouping), seed


def test_perfect_forecast_is_zero_everywhere():
    y = np.array([[1.0, 2.0, 3.0]])
    report = compute_metrics(y, y, units="normalized")
    assert report.mse == 0.0 and report.mae == 0.0 and report.wmape == 0.0


def test_wmape_hand_case():
    y = np.array([[10.0, 20.0, 30.0]])
    yhat = np.array([[12.0, 18.0, 33.0]])
    assert compute_metrics(yhat, y, units="original").wmape == pytest.approx(100.0 * 7.0 / 60.0)


def test_mse_mae_hand_case():
    y = np.array([[0.0, 2.0]])
    yhat = np.array([[1.0, 3.0]])
    report = compute_metrics(yhat, y, units="normalized")
    assert report.mse == 1.0 and report.mae == 1.0


def test_all_zero_targets_report_no_wmape():
    pred = np.array([[1.0, 3.0], [0.0, 2.0]])
    target = np.zeros((2, 2))
    for channels in (None, np.array([0, 1])):
        report = compute_metrics(pred, target, units="normalized", channels=channels)
        assert report.wmape is None
        assert report.mse == pytest.approx(14.0 / 4.0) and report.mae == pytest.approx(6.0 / 4.0)


def test_shape_mismatch_is_error():
    with pytest.raises(MetricError, match="shape"):
        compute_metrics(np.zeros((1, 3)), np.zeros((1, 4)), units="normalized")


def test_kappa_hand_cases():
    assert kappa(np.full(30, 2.0), 5.0) == pytest.approx(9.0)
    assert kappa(np.full(30, 2.0), 2.0) == 0.0
    with pytest.raises(MetricError, match="30 history steps"):
        kappa(np.zeros(29), 1.0)


def test_metrics_report_per_horizon():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.array([[1.0, 0.0], [3.0, 0.0]])
    report = compute_metrics(pred, target, units="normalized")
    assert report.per_horizon[0]["mse"] == 0.0
    assert report.per_horizon[1]["mse"] == pytest.approx((4.0 + 16.0) / 2.0)
    assert report.n_samples == 2


def test_sum_wmape_over_channels():
    pred = np.array([[12.0], [8.0]])
    target = np.array([[10.0], [10.0]])
    channels = np.array([0, 1])
    report = compute_metrics(pred, target, units="original", channels=channels)
    assert report.wmape == pytest.approx(20.0 + 20.0)
    pooled = compute_metrics(pred, target, units="original")
    assert pooled.wmape == pytest.approx(20.0)


def test_kappa_partition_bookkeeping():
    histories = np.stack([np.full(30, 0.0), np.full(30, 1.0), np.full(30, 2.0)])
    futures = np.array([3.0, 1.0, 2.0])
    errors = np.array([[0.1, 0.5], [0.9, 0.2], [0.4, 0.3]])
    out = kappa_by_best_period(histories, futures, errors, [5, 30])
    assert out["best_by_5"] == pytest.approx(9.0)  # only sample 0
    assert out["best_by_30"] == pytest.approx(0.0)  # samples 1 and 2 match history
