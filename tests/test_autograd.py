"""Primitive-level checks for the autodiff engine: hand examples, finite
differences over many random seeds, and a sum-over-paths reference for DAGs."""

import heapq
import itertools
import os
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mlf import autograd
from mlf.autograd import (
    ShapeError,
    Tensor,
    add,
    average,
    backward,
    batch_norm,
    concat,
    conv1d,
    in_halves,
    matmul,
    max_pool1d,
    mse,
    mul,
    narrow,
    no_grad,
    relu,
    reshape,
    sigmoid,
    softmax,
    tanh,
    transpose,
)

from gradcheck import grad_check, mean_all, sum_all


@pytest.fixture(autouse=True)
def finite_outputs(monkeypatch):
    """Every primitive output in these tests must be finite."""
    original = autograd._node

    def checked(data, parents, vjp, op):
        assert np.all(np.isfinite(data)), f"non-finite values produced by op {op!r}"
        return original(data, parents, vjp, op)

    monkeypatch.setattr(autograd, "_node", checked)


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
        y = softmax(x).data
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
    assert np.array_equal(conv1d(x, k, Tensor(np.zeros(1))).data, [[[-2.0, -2.0, -2.0, 3.0]]])
    assert np.array_equal(conv1d(x, k, Tensor([0.5])).data, [[[-1.5, -1.5, -1.5, 3.5]]])


def test_conv1d_refuses_an_input_that_requires_grad():
    # conv1d computes no input gradient; LWI convolves the constant input window.
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match="input requires grad"):
        conv1d(leaf(rng, 2, 1, 6), leaf(rng, 3, 1, 3), leaf(rng, 3))


def test_batch_norm_inference_identity():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    out = batch_norm(
        x, Tensor(np.ones(1)), Tensor(np.zeros(1)), np.zeros(1), np.ones(1), training=False
    )
    assert np.allclose(out.data, x.data, atol=1e-4)


def test_max_pool_hand_case():
    out = max_pool1d(Tensor(np.array([[[-2.0, -2.0, -2.0, 3.0]]])))
    assert np.array_equal(out.data, [[[-2.0, 3.0]]])


def _argmax_pool_reference(x, g):
    """max_pool1d's output and input gradient by argmax over each pair."""
    b, c, t = x.shape
    pairs = x[:, :, : t // 2 * 2].reshape(b, c, t // 2, 2)
    idx = pairs.argmax(axis=-1)
    dx = np.zeros(x.shape)
    np.put_along_axis(dx, np.arange(t // 2) * 2 + idx, g, axis=-1)
    return np.take_along_axis(pairs, idx[..., None], axis=-1)[..., 0], dx


def test_max_pool_picks_argmax_winner_with_ties_nan_and_odd_length(monkeypatch):
    monkeypatch.undo()  # NaN inputs on purpose: drop the fixture's finite check
    rng = np.random.default_rng(11)
    x = rng.integers(-2, 3, size=(3, 4, 9)).astype(np.float64)  # many ties, odd T
    nan_a, nan_b = np.array([0x7FF8000000000001, 0x7FF8000000000002]).view(np.float64)
    x[0, 0, :8] = [nan_a, 1.0, 1.0, nan_b, nan_a, nan_b, 2.0, 2.0]
    x[0, 1, :4] = [-0.0, 0.0, 0.0, -0.0]  # equal values: the first wins, sign and all
    g = rng.standard_normal((3, 4, 4))
    expected_out, expected_dx = _argmax_pool_reference(x, g)

    xt = Tensor(x.copy(), requires_grad=True)
    out = max_pool1d(xt)
    backward(sum_all(mul(out, Tensor(g))))
    assert np.array_equal(out.data.view(np.int64), expected_out.view(np.int64))
    assert np.array_equal(xt.grad.view(np.int64), expected_dx.view(np.int64))
    assert not xt.grad[..., -1].any()  # the odd last column is in no pair


def test_conv_norm_pool_shape_and_degenerate_input():
    rng = np.random.default_rng(3)
    w = Tensor(rng.standard_normal((4, 1, 3)))
    b = Tensor(rng.standard_normal(4))

    def stack(x):
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        return max_pool1d(batch_norm(conv1d(x, w, b), gamma, beta, np.zeros(4), np.ones(4), training=True))

    assert stack(Tensor(rng.standard_normal((2, 1, 10)))).shape == (2, 4, 5)


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


def test_leaf_gradients_add_up_across_separate_graphs():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(sum_all(mul(x, x)))
    first = x.grad.copy()
    backward(sum_all(mul(x, x)))
    assert np.array_equal(x.grad, 2.0 * first)


def test_a_second_backward_over_a_walked_graph_is_one_value_error():
    x = Tensor([1.0, 2.0], requires_grad=True)
    h = tanh(x)
    loss = sum_all(mul(h, h))
    backward(loss)
    first = x.grad.copy()
    for again in (loss, sum_all(h)):  # the walked root, and a new root over a walked entry
        with pytest.raises(ValueError, match="already walked"):
            backward(again)
    assert np.array_equal(x.grad, first)


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
        assert y._fn is None and not y.requires_grad
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
    assert y.requires_grad and y._fn.parents == (x, x)


def test_no_grad_holds_only_on_its_own_thread_and_reaches_the_split_worker(monkeypatch, worker_calls):
    x = Tensor([1.0, 2.0], requires_grad=True)
    seen = {}

    def elsewhere():
        seen["other thread records"] = mul(x, x).requires_grad

    def half(t):
        seen.setdefault("halves", []).append((threading.get_ident(), autograd._GRAD_ENABLED.get()))
        return mul(t, x)

    monkeypatch.setattr(autograd, "SPLIT_FLOOR", 0)
    with no_grad():
        thread = threading.Thread(target=elsewhere)
        thread.start()
        thread.join(timeout=10)
        out = in_halves(half, Tensor(np.arange(8.0).reshape(4, 2)), 1)
    assert not thread.is_alive() and seen["other thread records"]
    assert worker_calls == [1] and not out.requires_grad
    assert np.array_equal(out.data, np.arange(8.0).reshape(4, 2) * [1.0, 2.0])
    (caller, caller_mode), (worker, worker_mode) = sorted(seen["halves"], key=lambda h: h[0] != threading.get_ident())
    assert caller == threading.get_ident() != worker
    assert caller_mode is worker_mode is False


def test_in_halves_splits_only_a_large_enough_inference_batch(monkeypatch, worker_calls):
    def double(t):
        return mul(t, Tensor(2.0))

    x = Tensor(np.ones((4, 3)))
    monkeypatch.setattr(autograd, "SPLIT_FLOOR", 12)
    with no_grad():
        in_halves(double, x, 2)  # 8 elements
        in_halves(double, Tensor(np.ones((1, 3))), 100)  # one row
        in_halves(double, x, 3, training=True)  # batch norm would read batch statistics
        assert worker_calls == []
        in_halves(double, x, 3)
        assert worker_calls == [1]
    in_halves(double, x, 3)  # recording is on
    assert worker_calls == [1]


@pytest.mark.parametrize("raising", ["worker", "caller"])
def test_an_exception_of_either_half_reaches_the_caller_once_both_halves_are_done(monkeypatch, raising):
    """The worker takes the second half, the caller the first."""
    monkeypatch.setattr(autograd, "SPLIT_FLOOR", 0)
    done = []

    def half(t):
        if (t.data[0, 0] == 0) == (raising == "caller"):
            raise ArithmeticError(f"{raising} half")
        time.sleep(0.05)
        done.append(t.data[0, 0])
        return t

    with no_grad(), pytest.raises(ArithmeticError, match=f"{raising} half"):
        in_halves(half, Tensor(np.arange(4.0)[:, None]), 1)
    assert done == ([0.0] if raising == "worker" else [2.0])


# -- backward on two threads ----------------------------------------------------


def read_twice(rng):
    a = leaf(rng, 3, 4)
    h = tanh(a)
    return sum_all(add(mul(h, h), mul(a, a))), [a]


def shared_weight(rng):
    """One weight read by several matmuls, whose gradients sum in a fixed order."""
    w, xs = leaf(rng, 4, 5), [leaf(rng, 6, 3, 4) for _ in range(4)]
    return sum_all(average([tanh(matmul(x, w)) for x in xs])), [w, *xs]


def no_gradient(rng):
    """`stop` gives its parent nothing, so `h` gets no gradient and `x` none by that path."""
    x, y = leaf(rng, 5), leaf(rng, 5)
    h = tanh(x)
    stop = autograd._node(h.data.copy(), (h,), lambda g: (None,), "stop")
    return sum_all(add(mul(stop, y), y)), [x, y, h]


def random_dag(rng):
    leaves = {name: Tensor(rng.standard_normal(3), requires_grad=True) for name in ("x", "y", "z")}
    out, _ = _random_dag(rng, leaves, n_ops=int(rng.integers(6, 14)))
    return sum_all(out), list(leaves.values())


@pytest.mark.parametrize("build", [read_twice, shared_weight, no_gradient, random_dag])
@pytest.mark.parametrize("seed", range(5))
def test_a_two_thread_backward_equals_the_sequential_walk_on_hand_graphs(monkeypatch, worker_calls, build, seed):
    """Each leaf's gradient keeps its bits, also when it adds to the gradient
    of an earlier graph. An entry that got no gradient keeps its vjp."""
    runs = []
    for floor in (autograd.BACKWARD_FLOOR, 0):
        monkeypatch.setattr(autograd, "BACKWARD_FLOOR", floor)
        rng = np.random.default_rng(seed)
        grads = []
        for _ in range(2):  # the second graph adds to the first one's leaf gradients
            loss, leaves = build(rng)
            backward(loss)
            grads.append([None if t.grad is None else t.grad.tobytes() for t in leaves])
        runs.append(grads)
        assert bool(worker_calls) == (floor == 0)
        if build is no_gradient:
            assert leaves[0].grad is None and leaves[2]._fn.vjp is not None
    assert runs[0] == runs[1]


def test_an_adjoint_is_folded_in_the_sequential_order_whatever_order_its_edges_deliver(monkeypatch):
    """`x` is read by four slots of one concat, whose vjp fills x's four slots
    in each of the 24 orders. `x` becomes ready only with the fourth, and its
    gradient is ((c0 + c1) + c2) + c3 bit for bit, which other orders of the
    sum miss with these parts."""
    parts = [np.array([1e16]), np.array([1.0]), np.array([-1e16]), np.array([1.0])]
    expected = ((parts[0] + parts[1]) + parts[2]) + parts[3]
    pushed = []
    monkeypatch.setattr(autograd, "heapq", SimpleNamespace(
        heappop=heapq.heappop,
        heappush=lambda heap, j: pushed.append((j, [s is not None for s in drain.slots[j]])) or heapq.heappush(heap, j)))
    for order in itertools.permutations(range(4)):
        x = Tensor(np.zeros(1), requires_grad=True)
        entry = concat([x, x, x, x])._fn
        drain = autograd._Drain([entry, x], np.ones(4))
        assert drain.targets[0] == ((1, 0), (1, 1), (1, 2), (1, 3)) and drain.waiting == [0, 4]
        drain.targets[0] = tuple((1, slot) for slot in order)  # fills slot order[0] first
        entry.vjp = lambda g: tuple(parts[slot] for slot in order)
        pushed.clear()
        drain.drain()  # on the caller alone
        assert pushed == [(1, [True] * 4)] and drain.error is None, order
        assert x.grad.tobytes() == expected.tobytes() != sum(parts[::-1]).tobytes(), order


@pytest.mark.parametrize("raising", ["worker", "caller"])
def test_a_vjp_that_raises_on_either_thread_reaches_the_caller_once_both_stop(monkeypatch, worker_calls, raising):
    """Two branches run at once, one on each thread; the one on the `raising`
    thread raises, and the other finishes its vjp before the caller re-raises.
    Nothing runs after, and the worker still serves `in_halves`."""
    monkeypatch.setattr(autograd, "BACKWARD_FLOOR", 0)
    caller, both_running, done = threading.get_ident(), threading.Barrier(2, timeout=10), []
    x = Tensor([1.0, 2.0], requires_grad=True)

    def branch(name):
        def vjp(g):
            both_running.wait()
            if (threading.get_ident() == caller) == (raising == "caller"):
                raise ArithmeticError(f"{raising} vjp")
            time.sleep(0.05)
            done.append(name)
            return (g,)

        return autograd._node(x.data.copy(), (x,), vjp, name)

    with pytest.raises(ArithmeticError, match=f"^{raising} vjp$") as info:
        backward(sum_all(add(branch("a"), branch("b"))))
    assert info.value.__context__ is None and info.value.__cause__ is None
    assert len(done) == 1 and x.grad is None and worker_calls == [1]
    monkeypatch.setattr(autograd, "SPLIT_FLOOR", 0)
    with no_grad():
        out = in_halves(lambda t: mul(t, Tensor(2.0)), Tensor(np.arange(4.0)[:, None]), 1)
    assert worker_calls == [1, 1] and np.array_equal(out.data, 2.0 * np.arange(4.0)[:, None])


# Run in a fresh interpreter, whose threads are the ones the script starts.
FIRST_USE = """
import threading

before = threading.enumerate()
import numpy as np
import mlf
from mlf import autograd

assert threading.enumerate() == before, threading.enumerate()
autograd.SPLIT_FLOOR = autograd.BACKWARD_FLOOR = 0
cfg = mlf.MlfConfig(period_lengths=(4, 8), horizon=2, n_patches=4, squeeze_factor=2, d_model=4,
                    n_heads=2, n_blocks=2, d_ff=8, conv_filters=4, batch_size=8)
model, rng = mlf.build_model(cfg, seed=0), np.random.default_rng(0)
windows = [rng.standard_normal((8, n)) for n in cfg.period_lengths]
model.forward(windows, training=False)
started = [t.name for t in threading.enumerate() if t not in before]
assert len(started) == 1 and started[0].startswith("mlf-worker"), started
calls, on_both = [], autograd._on_both
autograd._on_both = lambda here, there: calls.append(1) or on_both(here, there)
mlf.backward(mlf.mlf_loss(model.forward(windows, training=True), np.zeros((8, 2))).total)
assert calls == [1] and [t.name for t in threading.enumerate() if t not in before] == started
"""


def test_the_worker_thread_starts_on_first_use_and_only_once():
    """Importing mlf starts no thread, the first split forward starts one
    `mlf-worker` thread, and a two-thread backward after it starts no other."""
    env = dict(os.environ, PYTHONPATH=str(Path(autograd.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", FIRST_USE], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


# Each primitive that takes `consume`, as f(operand, param, consume): the
# operand it may overwrite, then the parameter the call reads besides, if any.
CONSUMERS = {
    "add": lambda a, p, consume: add(a, p, consume=consume),
    "add_broadcast": lambda a, p, consume: add(a, Tensor(p.data[0, 0], p.requires_grad), consume=consume),
    "mul": lambda a, p, consume: mul(a, p, consume=consume),
    "relu": lambda a, p, consume: relu(a, consume=consume),
    "softmax": lambda a, p, consume: softmax(a, consume=consume),
    **{
        f"batch_norm_{mode}": lambda a, p, consume, training=training: batch_norm(
            a, Tensor(p.data[0, :, 0] + 1.5, p.requires_grad), Tensor(p.data[1, :, 1], p.requires_grad),
            np.full(3, 0.25), np.full(3, 2.0), training=training, consume=consume,
        )
        for mode, training in (("eval", False), ("train", True))
    },
}


@pytest.mark.parametrize("name", CONSUMERS)
def test_consume_overwrites_the_operand_only_when_nothing_records(name):
    """Recording nothing, `consume=True` gives the bits of `consume=False`,
    written into the operand's array; while the tape records, the operand is
    left as it was."""
    f, rng = CONSUMERS[name], np.random.default_rng(31)
    x, param = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4))

    with no_grad():  # parameters that require grad, as in the inference forward
        operand = Tensor(x.copy())
        expected = f(operand, Tensor(param, requires_grad=True), False)
        assert np.array_equal(operand.data, x) and not np.shares_memory(expected.data, operand.data)
        result = f(operand, Tensor(param, requires_grad=True), True)
    assert np.array_equal(result.data, expected.data)
    assert np.shares_memory(result.data, operand.data)

    # Outside `no_grad`, what records is what `_node` records: nothing here.
    operand = Tensor(x.copy())
    assert np.shares_memory(f(operand, Tensor(param), True).data, operand.data)

    operand = Tensor(x.copy(), requires_grad=True)
    taped = f(operand, Tensor(param, requires_grad=True), True)
    assert taped.requires_grad and np.array_equal(operand.data, x)
    assert np.array_equal(taped.data, expected.data)


def test_a_dropped_intermediate_is_freed_while_its_graph_lives():
    rng = np.random.default_rng(12)
    x, w, b = Tensor(rng.standard_normal((5, 4))), leaf(rng, 4, 3), leaf(rng, 3)
    h = matmul(x, w)
    backward(sum_all(tanh(h + b)))
    expected = w.grad.copy(), b.grad.copy()
    w.grad = b.grad = None

    h = matmul(x, w)
    probe = weakref.ref(h.data)
    loss = sum_all(tanh(h + b))  # the add's vjp reads no array of h
    del h
    assert probe() is None
    backward(loss)
    assert np.array_equal(w.grad, expected[0]) and np.array_equal(b.grad, expected[1])


def test_backward_frees_each_array_a_vjp_read_while_the_loss_lives():
    rng = np.random.default_rng(13)
    w = leaf(rng, 4, 3)
    y = tanh(matmul(Tensor(rng.standard_normal((5, 4))), w))
    probe = weakref.ref(y.data)  # tanh's vjp reads its output
    loss = sum_all(mul(y, y))
    del y
    assert probe() is not None
    backward(loss)
    assert probe() is None and loss._fn.vjp is None


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
    ("mul", lambda rng: _binary(rng, lambda a, b: mul(a, b))),
    ("matmul", lambda rng: _matmul_case(rng)),
    ("softmax", lambda rng: _unary(rng, softmax)),
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
    return lambda x, y: mean_all(mul(concat([x, y]), concat([x, y]))), [a, b]


def _conv_case(rng):
    # The input is data, as in LWI: only the weight and the bias are checked.
    x, w, b = Tensor(rng.standard_normal((2, 3, 8))), leaf(rng, 4, 3, 3), leaf(rng, 4)
    return lambda c, d: mean_all(mul(conv1d(x, c, d), conv1d(x, c, d))), [w, b]


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_average_equals_the_left_to_right_loop_with_its_gradients(n):
    rng = np.random.default_rng(n)
    # At n = 3, summing these right to left changes the bits of 2 of the 6 entries.
    arrays = [rng.standard_normal((2, 3)) for _ in range(n)]
    upstream = Tensor(rng.standard_normal((2, 3)))

    def loop_mean(terms):
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return (1.0 / len(terms)) * total

    results = []
    for mean in (average, loop_mean):
        xs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = mean(xs)
        backward(sum_all(mul(out, upstream)))
        results.append((out.data, [x.grad for x in xs]))
    (value, grads), (ref_value, ref_grads) = results
    assert np.array_equal(value, ref_value)
    assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))


def test_grad_check_detects_corrupted_rule():
    # A deliberately wrong backward: sigmoid derivative scaled by 1.1.
    def bad_sigmoid(a):
        y = sigmoid(a).data
        return autograd._node(y, (a,), lambda g: (1.1 * g * y * (1.0 - y),), "bad_sigmoid")

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
    with np.errstate(over="ignore"), pytest.raises(AssertionError, match="produced by op 'mul'"):
        mul(big, big)
    assert softmax(x).data[0] == 1.0  # the stabilized softmax itself is fine


def test_tensor_invariant_size_matches_shape():
    t = Tensor(np.zeros((3, 4)))
    assert t.size == 12 and t.shape == (3, 4)
