"""Primitive-level checks for the autodiff engine: hand examples, finite
differences over many random seeds, and a sum-over-paths reference for DAGs."""

import numpy as np
import pytest

from mlf.autograd import (
    NumericsError,
    ShapeError,
    Tensor,
    backward,
    batch_norm,
    concat,
    conv1d,
    grad_check,
    matmul,
    max_pool1d,
    mean_all,
    mse,
    mul,
    narrow,
    no_grad,
    relu,
    reshape,
    set_nan_guard,
    sigmoid,
    softmax,
    sum_all,
    tanh,
    transpose,
)


@pytest.fixture(autouse=True)
def nan_guard():
    prev = set_nan_guard(True)
    yield
    set_nan_guard(prev)


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# -- matmul ---------------------------------------------------------------


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(eye, b).data, b.data)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_grad_of_sum_is_ones_times_bt():
    rng = np.random.default_rng(0)
    a = leaf(rng, 3, 4)
    b = Tensor(rng.standard_normal((4, 2)))
    backward(sum_all(matmul(a, b)))
    expected = np.ones((3, 2)) @ b.data.T
    assert np.max(np.abs(a.grad - expected)) <= 1e-12
    report = grad_check(lambda t: sum_all(matmul(t, b)), [a])
    assert report.passed and report.max_rel_err <= 1e-6


def test_matmul_shape_errors():
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))


def test_matmul_batched_broadcast_grads():
    rng = np.random.default_rng(1)
    a = leaf(rng, 5, 3, 4)  # stacked
    w = leaf(rng, 4, 2)  # broadcast across the stack
    report = grad_check(lambda x, y: mean_all(matmul(x, y)), [a, w])
    assert report.passed, str(report)


# -- softmax -------------------------------------------------------------


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5)
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 123.456)).data
    assert np.max(np.abs(a - b)) <= 1e-12


def test_softmax_analytic_values():
    out = softmax(Tensor(np.log([1.0, 2.0, 3.0])))
    assert np.allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-15)


def test_softmax_simplex_over_seeds():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((3, 6)) * 10.0)
        y = softmax(x, axis=-1).data
        assert (y >= 0).all()
        assert np.max(np.abs(y.sum(axis=-1) - 1.0)) <= 1e-12


# -- activations ------------------------------------------------------------


def test_activation_zero_points():
    assert sigmoid(Tensor([0.0])).data[0] == 0.5
    assert tanh(Tensor([0.0])).data[0] == 0.0


def test_sigmoid_of_tanh_derivative_at_zero():
    x = Tensor([0.0], requires_grad=True)
    backward(sum_all(sigmoid(tanh(x))))
    assert abs(x.grad[0] - 0.25) <= 1e-12


def test_relu_masks_negatives():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    backward(sum_all(relu(x)))
    assert np.array_equal(x.grad, [0.0, 1.0])


# -- conv / batch norm / max pool ------------------------------------------


def test_conv1d_hand_case():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    k = Tensor(np.array([[[1.0, 0.0, -1.0]]]))
    assert np.array_equal(conv1d(x, k).data, [[[-2.0, -2.0, -2.0, 3.0]]])


def test_batch_norm_inference_identity():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    out = batch_norm(
        x, Tensor(np.ones(1)), Tensor(np.zeros(1)), np.zeros(1), np.ones(1), training=False
    )
    assert np.allclose(out.data, x.data, atol=1e-4)


def test_max_pool_hand_case():
    out = max_pool1d(Tensor(np.array([[[-2.0, -2.0, -2.0, 3.0]]])))
    assert np.array_equal(out.data, [[[-2.0, 3.0]]])


def test_conv_norm_pool_shape_and_degenerate_input():
    rng = np.random.default_rng(3)
    w = Tensor(rng.standard_normal((4, 1, 3)))
    b = Tensor(rng.standard_normal(4))

    def stack(x):
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        return max_pool1d(batch_norm(conv1d(x, w, b), gamma, beta, np.zeros(4), np.ones(4), training=True))

    assert stack(Tensor(rng.standard_normal((2, 1, 10)))).shape == (2, 4, 5)
    with pytest.raises(ShapeError, match="T >= 2"):
        stack(Tensor(np.zeros((1, 1, 1))))


def test_batch_norm_updates_running_stats():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((4, 2, 6)) * 3.0 + 1.0)
    rm, rv = np.zeros(2), np.ones(2)
    batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)
    assert not np.allclose(rm, 0.0)


# -- mse ------------------------------------------------------------------------


def test_mse_cases():
    x = Tensor([1.0, 3.0])
    assert mse(x, x).data == 0.0
    assert float(mse(Tensor([1.0, 3.0]), Tensor([0.0, 2.0])).data) == 1.0
    with pytest.raises(ShapeError):
        mse(Tensor([1.0]), Tensor([1.0, 2.0]))


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    pred = leaf(rng, 3, 4)
    target = Tensor(rng.standard_normal((3, 4)))
    report = grad_check(lambda p: mse(p, target), [pred])
    assert report.passed and report.max_rel_err <= 1e-6


# -- backward semantics -------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(sum_all(x))
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_accumulates_on_repeat():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = sum_all(mul(x, x))
    backward(loss)
    first = x.grad.copy()
    backward(loss)
    assert np.array_equal(x.grad, 2.0 * first)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        backward(mul(x, x))


def test_no_grad_records_nothing_and_nests():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        with no_grad():
            inner = mul(x, x)
        outer = sum_all(mul(x, x))  # the inner block's exit left recording off
    for y in (inner, outer):
        assert y.is_leaf() and y._vjp is None and not y.requires_grad
    with pytest.raises(ValueError, match="requires_grad"):
        backward(outer)
    backward(sum_all(mul(x, x)))  # recording is back on
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_no_grad_is_restored_after_an_exception():
    x = Tensor([3.0], requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("raised inside no_grad")
    y = mul(x, x)
    assert y.requires_grad and y._parents == (x, x)


def test_backward_through_small_network():
    rng = np.random.default_rng(6)
    w = leaf(rng, 4, 3)
    x = Tensor(rng.standard_normal((2, 4)))
    y = Tensor(rng.standard_normal((2, 3)))
    report = grad_check(lambda p: mse(sigmoid(matmul(x, p)), y), [w])
    assert report.passed, str(report)


# -- every primitive against finite differences over many seeds ----------------


PRIMITIVE_CASES = [
    ("add", lambda rng: _binary(rng, lambda a, b: a + b)),
    ("add_broadcast", lambda rng: _bias_case(rng)),
    ("sub", lambda rng: _binary(rng, lambda a, b: a - b)),
    ("mul", lambda rng: _binary(rng, lambda a, b: mul(a, b))),
    ("matmul", lambda rng: _matmul_case(rng)),
    ("softmax", lambda rng: _unary(rng, lambda a: softmax(a, axis=-1))),
    ("tanh", lambda rng: _unary(rng, tanh)),
    ("sigmoid", lambda rng: _unary(rng, sigmoid)),
    ("relu", lambda rng: _unary(rng, relu)),
    ("transpose", lambda rng: _unary(rng, transpose)),
    ("reshape", lambda rng: _unary(rng, lambda a: reshape(a, (a.size,)))),
    ("concat", lambda rng: _concat_case(rng)),
    ("narrow", lambda rng: _unary(rng, lambda a: narrow(a, -1, 1, 3))),
    ("conv1d", lambda rng: _conv_case(rng)),
    ("batch_norm_train", lambda rng: _bn_case(rng, training=True)),
    ("batch_norm_eval", lambda rng: _bn_case(rng, training=False)),
    ("max_pool", lambda rng: _pool_case(rng)),
]


def _unary(rng, op):
    a = leaf(rng, 4, 6)
    return lambda t: mean_all(op(t)), [a]


def _binary(rng, op):
    a, b = leaf(rng, 4, 5), leaf(rng, 4, 5)
    return lambda x, y: mean_all(op(x, y)), [a, b]


def _bias_case(rng):
    a, b = leaf(rng, 3, 4, 5), leaf(rng, 5)
    return lambda x, y: mean_all(x + y), [a, b]


def _matmul_case(rng):
    a, b = leaf(rng, 4, 6), leaf(rng, 6, 3)
    return lambda x, y: mean_all(matmul(x, y)), [a, b]


def _concat_case(rng):
    a, b = leaf(rng, 3, 2), leaf(rng, 3, 4)
    return lambda x, y: mean_all(mul(concat([x, y], axis=-1), concat([x, y], axis=-1))), [a, b]


def _conv_case(rng):
    x, w, b = leaf(rng, 2, 3, 8), leaf(rng, 4, 3, 3), leaf(rng, 4)
    return lambda a, c, d: mean_all(mul(conv1d(a, c, d), conv1d(a, c, d))), [x, w, b]


def _bn_case(rng, training):
    x, g, b = leaf(rng, 3, 2, 5), leaf(rng, 2), leaf(rng, 2)
    rm = rng.standard_normal(2) * 0.1
    rv = np.abs(rng.standard_normal(2)) + 0.5

    def f(a, gg, bb):
        out = batch_norm(a, gg, bb, rm.copy(), rv.copy(), training=training)
        return mean_all(mul(out, out))

    return f, [x, g, b]


def _pool_case(rng):
    x = leaf(rng, 2, 3, 8)
    return lambda a: mean_all(mul(max_pool1d(a), max_pool1d(a))), [x]


@pytest.mark.parametrize("name,case", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_over_seeds(name, case):
    for seed in range(21):
        rng = np.random.default_rng(seed)
        f, point = case(rng)
        report = grad_check(f, point, step=1e-5, tol=1e-4)
        assert report.passed, f"{name} seed {seed}: {report}"


def test_grad_check_linear_is_machine_exact():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    report = grad_check(lambda t: sum_all(3.0 * t), [x])
    assert report.max_rel_err <= 1e-9


def test_grad_check_detects_corrupted_rule():
    # A deliberately wrong backward: sigmoid derivative scaled by 1.1.
    def bad_sigmoid(a):
        good = sigmoid(a)
        out = Tensor(good.data)
        out.requires_grad = True
        out._parents = (a,)
        out._op = "bad_sigmoid"
        y = good.data
        out._vjp = lambda g: (1.1 * g * y * (1.0 - y),)
        return out

    x = Tensor([0.3, -0.7, 1.2], requires_grad=True)
    report = grad_check(lambda t: sum_all(bad_sigmoid(t)), [x])
    assert not report.passed


# -- DAGs with shared subexpressions vs a sum-over-paths reference -------------


class RefNode:
    """Mirror expression tree: derivative computed by recursive chain rule."""

    def __init__(self, kind, children=(), value=None):
        self.kind = kind
        self.children = children
        self.value = value

    def eval(self, env):
        if self.kind == "var":
            return env[self.value]
        vals = [c.eval(env) for c in self.children]
        if self.kind == "add":
            return vals[0] + vals[1]
        if self.kind == "mul":
            return vals[0] * vals[1]
        if self.kind == "tanh":
            return np.tanh(vals[0])
        raise AssertionError(self.kind)

    def deriv(self, env, var):
        if self.kind == "var":
            return 1.0 if self.value == var else 0.0
        if self.kind == "add":
            return self.children[0].deriv(env, var) + self.children[1].deriv(env, var)
        if self.kind == "mul":
            u, v = self.children
            return u.deriv(env, var) * v.eval(env) + u.eval(env) * v.deriv(env, var)
        if self.kind == "tanh":
            u = self.children[0]
            return (1.0 - np.tanh(u.eval(env)) ** 2) * u.deriv(env, var)
        raise AssertionError(self.kind)


def _random_dag(rng, leaves, n_ops):
    """Build matching (Tensor graph, RefNode tree) with shared subexpressions."""
    tensors = [t for t in leaves.values()]
    refs = [RefNode("var", value=name) for name in leaves]
    for _ in range(n_ops):
        kind = rng.choice(["add", "mul", "tanh"])
        i = int(rng.integers(len(tensors)))
        j = int(rng.integers(len(tensors)))
        if kind == "add":
            tensors.append(tensors[i] + tensors[j])
            refs.append(RefNode("add", (refs[i], refs[j])))
        elif kind == "mul":
            tensors.append(mul(tensors[i], tensors[j]))
            refs.append(RefNode("mul", (refs[i], refs[j])))
        else:
            tensors.append(tanh(tensors[i]))
            refs.append(RefNode("tanh", (refs[i],)))
    return tensors[-1], refs[-1]


def test_shared_subexpression_dags_match_reference():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        values = {name: float(rng.uniform(-1.5, 1.5)) for name in ("x", "y", "z")}
        leaves = {name: Tensor([v], requires_grad=True) for name, v in values.items()}
        out, ref = _random_dag(rng, leaves, n_ops=int(rng.integers(3, 10)))
        backward(sum_all(out))
        for name, t in leaves.items():
            expected = ref.deriv(values, name)
            got = 0.0 if t.grad is None else float(t.grad[0])
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), (seed, name)


# -- invariants ------------------------------------------------------------------


def test_nan_guard_raises():
    x = Tensor([710.0])  # exp overflows to inf inside softmax without the shift
    big = Tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        mul(big, big)
    assert softmax(x).data[0] == 1.0  # the stabilized softmax itself is fine


def test_tensor_invariant_size_matches_shape():
    t = Tensor(np.zeros((3, 4)))
    assert t.size == 12 and t.shape == (3, 4)
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2))).item()
