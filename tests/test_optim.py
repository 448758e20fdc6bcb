"""Adam optimizer behavior and gradient clipping."""

import numpy as np
import pytest

from mlf.autograd import Tensor, backward, mse
from mlf.optim import Adam, clip_global_norm


def quadratic_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"w": Tensor(rng.standard_normal(4), requires_grad=True)}


def test_zero_learning_rate_leaves_parameters_unchanged():
    params = quadratic_params()
    before = params["w"].data.copy()
    adam = Adam(params, lr=0.0)
    for _ in range(3):
        loss = mse(params["w"], Tensor(np.zeros(4)))
        params["w"].grad = None
        backward(loss)
        adam.step()
    assert np.array_equal(params["w"].data, before)


def test_first_step_matches_reference_formula():
    params = {"w": Tensor(np.array([2.0]), requires_grad=True)}
    adam = Adam(params, lr=0.1)
    loss = mse(params["w"], Tensor(np.array([0.0])))  # grad = 2w = 4
    backward(loss)
    adam.step()
    g = 4.0
    m_hat = (0.1 * g) / (1 - 0.9)
    v_hat = (0.001 * g * g) / (1 - 0.999)
    expected = 2.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params["w"].data[0] == pytest.approx(expected, rel=1e-12)


def test_adam_minimizes_quadratic():
    params = quadratic_params(1)
    target = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
    adam = Adam(params, lr=0.05)
    for _ in range(400):
        loss = mse(params["w"], target)
        params["w"].grad = None
        backward(loss)
        adam.step()
    assert float(mse(params["w"], target).data) < 1e-8


def test_skip_parameters_without_gradients():
    params = {
        "used": Tensor(np.array([1.0]), requires_grad=True),
        "unused": Tensor(np.array([5.0]), requires_grad=True),
    }
    adam = Adam(params, lr=0.1)
    loss = mse(params["used"], Tensor(np.array([0.0])))
    backward(loss)
    adam.step()
    assert params["unused"].data[0] == 5.0
    assert params["used"].data[0] != 1.0


def test_clip_global_norm():
    params = {
        "a": Tensor(np.zeros(3), requires_grad=True),
        "b": Tensor(np.zeros(4), requires_grad=True),
    }
    params["a"].grad = np.full(3, 3.0)
    params["b"].grad = np.full(4, 4.0)
    norm = clip_global_norm(params, max_norm=1.0)
    assert norm == pytest.approx(np.sqrt(27.0 + 64.0))
    clipped = np.sqrt(np.sum(params["a"].grad ** 2) + np.sum(params["b"].grad ** 2))
    assert clipped == pytest.approx(1.0)
    # Below the threshold nothing changes.
    before = params["a"].grad.copy()
    clip_global_norm(params, max_norm=10.0)
    assert np.array_equal(params["a"].grad, before)
