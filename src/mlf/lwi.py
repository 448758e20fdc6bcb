"""Learned weighted-average integration of the per-period forecasts.

A small conv/batch-norm/max-pool stack summarizes the longest history
window; two tanh projections of that summary are gated through a sigmoid to
give one weight per (period, horizon step). LWI is weighting in front of
the one mean across periods: each period's forecast is scaled elementwise by
its weights before the mean, so periods that predict a given horizon position
well can dominate it. The ablation takes the same mean, unweighted.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, average, conv1d, in_halves, max_pool1d, mul, narrow, reshape, sigmoid, tanh, transpose
from .layers import BatchNorm, ParamStore

CONV_KERNEL = 3


class WeightIntegrator:
    """Produces the (B, S, m) weight tensor from the longest window."""

    def __init__(
        self,
        store: ParamStore,
        name: str,
        n_periods: int,
        horizon: int,
        window_len: int,
        conv_filters: int,
    ):
        self.n_periods = n_periods
        self.horizon = horizon
        self.window_len = window_len
        bound = 1.0 / np.sqrt(CONV_KERNEL)
        self.conv_w = store.uniform(f"{name}.conv.w", (conv_filters, 1, CONV_KERNEL), bound)
        self.conv_b = store.uniform(f"{name}.conv.b", (conv_filters,), bound)
        self.norm = BatchNorm(store, f"{name}.bn", conv_filters)
        self.feature_len = conv_filters * (window_len // 2)
        self.conv_len = conv_filters * window_len  # per row: the conv output, features' largest temporary
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
        """The features of each row are its own at inference, so a large batch
        runs them in two halves; the gate's GEMMs take the whole batch."""
        features = in_halves(lambda half: self.features(half, training=training), window, self.conv_len,
                             training=training)
        return self.weights(features)


def integrate(period_forecasts: list[Tensor], att: Tensor) -> Tensor:
    """LWI: scale each period's forecast by its weights att[:, s, :], in period
    order, then take the one mean across periods, `integrate_plain`."""
    batch, horizon = period_forecasts[0].shape
    terms = [mul(f, reshape(narrow(att, -2, s, 1), (batch, horizon))) for s, f in enumerate(period_forecasts)]
    return integrate_plain(terms)


def integrate_plain(period_forecasts: list[Tensor]) -> Tensor:
    """The one mean across periods, `autograd.average`. Applied to the
    unweighted forecasts, it is the integration ablation."""
    return average(period_forecasts)
