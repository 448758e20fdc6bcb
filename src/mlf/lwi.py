"""Learned weighted-average integration of the per-period forecasts.

A small conv/batch-norm/max-pool stack summarizes the longest history
window; two tanh projections of that summary are gated through a sigmoid to
give one weight per (period, horizon step). The final forecast is the mean
of the per-period forecasts scaled elementwise by those weights, so periods
that predict a given horizon position well can dominate it.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, conv1d, max_pool1d, mul, narrow, reshape, sigmoid, tanh, transpose
from .layers import BatchNorm, Linear, ParamStore


class WeightIntegrator:
    """Produces the (B, S, m) weight tensor from the longest window."""

    def __init__(
        self,
        store: ParamStore,
        name: str,
        n_periods: int,
        horizon: int,
        window_len: int,
        conv_filters: int = 16,
        kernel: int = 3,
    ):
        if window_len < 2:
            raise ValueError(f"feature window must have >= 2 steps, got {window_len}")
        self.n_periods = n_periods
        self.horizon = horizon
        self.window_len = window_len
        self.conv_filters = conv_filters
        bound = 1.0 / np.sqrt(kernel)
        self.conv_w = store.uniform(f"{name}.conv.w", (conv_filters, 1, kernel), bound)
        self.conv_b = store.uniform(f"{name}.conv.b", (conv_filters,), bound)
        self.norm = BatchNorm(store, f"{name}.bn", conv_filters)
        self.feature_len = conv_filters * (window_len // 2)
        # Weight matrices are stored (S*m, feature_len) and transposed in the
        # forward pass.
        out = n_periods * horizon
        fb = 1.0 / np.sqrt(self.feature_len)
        self.theta1 = store.uniform(f"{name}.theta1", (out, self.feature_len), fb)
        self.bias1 = store.uniform(f"{name}.bias1", (out,), fb)
        self.theta2 = store.uniform(f"{name}.theta2", (out, self.feature_len), fb)
        self.bias2 = store.uniform(f"{name}.bias2", (out,), fb)

    def features(self, window: Tensor, *, training: bool) -> Tensor:
        """(B, n_S) longest windows -> flattened pooled conv features."""
        batch = window.shape[0]
        x = reshape(window, (batch, 1, self.window_len))
        h = self.norm(conv1d(x, self.conv_w, self.conv_b), training=training)
        return reshape(max_pool1d(h), (batch, self.feature_len))

    def weights(self, features: Tensor) -> Tensor:
        """Gated weights in (0, 1), shaped (B, S, m).

        sigmoid(tanh(.) * tanh(.)) keeps every weight inside
        (sigmoid(-1), sigmoid(1)), roughly (0.269, 0.731).
        """
        batch = features.shape[0]
        a = tanh(features @ transpose(self.theta1) + self.bias1)
        b = tanh(features @ transpose(self.theta2) + self.bias2)
        gated = sigmoid(mul(a, b))
        return reshape(gated, (batch, self.n_periods, self.horizon))

    def __call__(self, window: Tensor, *, training: bool) -> Tensor:
        return self.weights(self.features(window, training=training))


def integrate(period_forecasts: list[Tensor], att: Tensor) -> Tensor:
    """Weighted mean across periods: (1/S) * sum_s forecast_s * att[:, s, :]."""
    n_periods = len(period_forecasts)
    if att.shape[-2] != n_periods:
        raise ValueError(f"weight tensor covers {att.shape[-2]} periods, got {n_periods} forecasts")
    batch, horizon = period_forecasts[0].shape
    total = None
    for s, forecast in enumerate(period_forecasts):
        w = reshape(narrow(att, -2, s, 1), (batch, horizon))
        term = mul(forecast, w)
        total = term if total is None else total + term
    return (1.0 / n_periods) * total


def integrate_plain(period_forecasts: list[Tensor]) -> Tensor:
    """Unweighted mean across periods (the integration ablation)."""
    total = period_forecasts[0]
    for forecast in period_forecasts[1:]:
        total = total + forecast
    return (1.0 / len(period_forecasts)) * total
