"""Hand-arithmetic metric cases and the consistency-statistic analysis."""

import numpy as np
import pytest

from mlf.metrics import (
    MetricError,
    compute_metrics,
    kappa,
    kappa_by_best_period,
    mae,
    mse,
    naive_repeat_last,
    wmape,
)


def test_perfect_forecast_is_zero_everywhere():
    y = np.array([[1.0, 2.0, 3.0]])
    report = compute_metrics(y, y, units="normalized")
    assert report.mse == 0.0 and report.mae == 0.0 and report.wmape == 0.0


def test_wmape_hand_case():
    y = np.array([10.0, 20.0, 30.0])
    yhat = np.array([12.0, 18.0, 33.0])
    assert wmape(yhat, y) == pytest.approx(100.0 * 7.0 / 60.0)


def test_mse_mae_hand_case():
    y = np.array([0.0, 2.0])
    yhat = np.array([1.0, 3.0])
    assert mse(yhat, y) == 1.0
    assert mae(yhat, y) == 1.0


def test_wmape_zero_denominator_is_error():
    with pytest.raises(MetricError, match="WMAPE undefined"):
        wmape(np.array([1.0, 3.0]), np.array([0.0, 0.0]))


def test_all_zero_targets_report_no_wmape():
    pred = np.array([[1.0, 3.0], [0.0, 2.0]])
    target = np.zeros((2, 2))
    for channels in (None, np.array([0, 1])):
        report = compute_metrics(
            pred, target, units="normalized", channels=channels, sum_wmape_channels=channels is not None
        )
        assert report.wmape is None
        assert report.mse == pytest.approx(14.0 / 4.0) and report.mae == pytest.approx(6.0 / 4.0)


def test_shape_mismatch_is_error():
    with pytest.raises(MetricError, match="shape"):
        mse(np.zeros(3), np.zeros(4))


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
    report = compute_metrics(
        pred, target, units="original", channels=channels, sum_wmape_channels=True
    )
    assert report.wmape == pytest.approx(20.0 + 20.0)
    pooled = compute_metrics(pred, target, units="original")
    assert pooled.wmape == pytest.approx(20.0)


def test_naive_repeat_last():
    hist = np.array([[1.0, 2.0, 7.0], [0.0, 0.0, -3.0]])
    naive = naive_repeat_last(hist, 4)
    assert naive.shape == (2, 4)
    assert (naive[0] == 7.0).all() and (naive[1] == -3.0).all()


def test_kappa_partition_bookkeeping():
    histories = np.stack([np.full(30, 0.0), np.full(30, 1.0), np.full(30, 2.0)])
    futures = np.array([3.0, 1.0, 2.0])
    errors = np.array([[0.1, 0.5], [0.9, 0.2], [0.4, 0.3]])
    out = kappa_by_best_period(histories, futures, errors, [5, 30])
    assert out["best_by_5"] == pytest.approx(9.0)  # only sample 0
    assert out["best_by_30"] == pytest.approx(0.0)  # samples 1 and 2 match history
