"""Learned weighted integration: feature stack, weight range, blending."""

import numpy as np
import pytest

from mlf.autograd import Tensor, backward
from mlf.layers import ParamStore
from mlf.lwi import WeightIntegrator, integrate, integrate_plain

from gradcheck import grad_check, mean_all

SIG_LO, SIG_HI = 0.2689, 0.7311  # sigmoid(-1), sigmoid(+1) rounded outward


def make(n_periods=3, horizon=4, window_len=16, conv_filters=4, seed=0):
    st = ParamStore(np.random.default_rng(seed))
    return WeightIntegrator(st, "lwi", n_periods, horizon, window_len, conv_filters), st


def test_feature_length():
    for n in (16, 17, 64):
        wi, _ = make(window_len=n)
        x = Tensor(np.random.default_rng(0).standard_normal((2, n)))
        nu = wi.features(x, training=True)
        assert nu.shape == (2, 4 * (n // 2))
        assert wi.feature_len == 4 * (n // 2)


def test_zero_conv_gives_half_weights():
    wi, st = make()
    for name in ("lwi.conv.w", "lwi.conv.b", "lwi.theta1", "lwi.bias1", "lwi.theta2", "lwi.bias2"):
        st.params[name].data[...] = 0.0
    x = Tensor(np.random.default_rng(1).standard_normal((2, 16)))
    att = wi(x, training=False)
    assert np.allclose(att.data, 0.5)


def test_weights_in_gated_sigmoid_range():
    for seed in range(5):
        wi, st = make(seed=seed)
        # Inflate parameters to push the gate toward its extremes.
        for p in st.params.values():
            p.data *= 50.0
        x = Tensor(np.random.default_rng(seed).standard_normal((4, 16)) * 10.0)
        att = wi(x, training=True).data
        assert (att > SIG_LO).all() and (att < SIG_HI).all()


def test_weight_tensor_shape():
    wi, _ = make(n_periods=5, horizon=3)
    att = wi(Tensor(np.random.default_rng(2).standard_normal((2, 16))), training=True)
    assert att.shape == (2, 5, 3)


def test_feature_gradients_match_finite_differences():
    wi, st = make(window_len=8, conv_filters=2, horizon=2, n_periods=2, seed=3)
    x = Tensor(np.random.default_rng(3).standard_normal((2, 8)))

    def f(*params):
        att = wi(x, training=True)
        return mean_all(att * att)

    report = grad_check(f, list(st.params.values()))
    assert report.passed, str(report)


# -- integration -----------------------------------------------------------------


def att_rows(*rows):
    return Tensor(np.asarray(rows, dtype=float)[None, :, :])


def test_integrate_plain_mean_when_weights_are_one():
    f = [Tensor(np.array([[2.0]])), Tensor(np.array([[4.0]]))]
    out = integrate(f, att_rows([1.0], [1.0]))
    assert out.data.reshape(()) == pytest.approx(3.0)


def test_unit_weights_give_integrate_plain_bit_for_bit():
    rng = np.random.default_rng(7)
    data = [rng.standard_normal((4, 5)) for _ in range(3)]
    runs = []
    for weighted in (True, False):
        fs = [Tensor(d.copy(), requires_grad=True) for d in data]
        out = integrate(fs, Tensor(np.ones((4, 3, 5)))) if weighted else integrate_plain(fs)
        backward(mean_all(out * out))
        runs.append([out.data] + [f.grad for f in fs])
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_integrate_drops_zero_weighted_period():
    f = [Tensor(np.array([[2.0]])), Tensor(np.array([[4.0]]))]
    out = integrate(f, att_rows([0.0], [1.0]))
    assert out.data.reshape(()) == pytest.approx(2.0)


def test_integrate_uniform_half_is_half_the_mean():
    rng = np.random.default_rng(4)
    f = [Tensor(rng.standard_normal((2, 3))) for _ in range(2)]
    att = Tensor(np.full((2, 2, 3), 0.5))
    out = integrate(f, att)
    plain = integrate_plain(f)
    assert np.allclose(out.data, 0.5 * plain.data)


def test_integrate_is_linear_in_forecasts():
    rng = np.random.default_rng(5)
    att = Tensor(rng.uniform(0.3, 0.7, size=(2, 3, 4)))
    fa = [Tensor(rng.standard_normal((2, 4))) for _ in range(3)]
    fb = [Tensor(rng.standard_normal((2, 4))) for _ in range(3)]
    lhs = integrate([a + b for a, b in zip(fa, fb)], att).data
    rhs = integrate(fa, att).data + integrate(fb, att).data
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_weighted_differs_from_plain_when_weights_nonconstant():
    rng = np.random.default_rng(6)
    f = [Tensor(rng.standard_normal((2, 3))) for _ in range(2)]
    att = Tensor(rng.uniform(0.3, 0.7, size=(2, 2, 3)))
    assert not np.allclose(integrate(f, att).data, integrate_plain(f).data)
