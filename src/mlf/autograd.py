"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array and, when it participates in a differentiable
computation, records the operation that produced it (its parents plus a
vector-Jacobian-product closure). `backward()` walks the recorded graph once
in reverse topological order and accumulates gradients into the leaves that
requested them. Inside `with no_grad():` nothing is recorded, as with
`torch.no_grad`: inference forwards keep no graph and free each intermediate
array as soon as it is no longer read.

Only the primitives the multi-period forecasting model needs are provided:
matmul (with stacked/batched broadcasting), elementwise arithmetic with
numpy-style broadcasting, softmax, tanh/sigmoid/relu, 1-d convolution,
batch normalization, 1-d max pooling, reshape/transpose/concat/slicing,
reductions, and mean-squared error.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


class NumericsError(ArithmeticError):
    """Raised when a primitive produces NaN/Inf while the guard is enabled."""


# NaN/Inf checking after every primitive. Off by default (it costs a full
# pass over every op output); tests and debug runs switch it on.
_NAN_GUARD = False


def set_nan_guard(enabled: bool) -> bool:
    """Enable/disable finite-value checks after every primitive.

    Returns the previous setting so callers can restore it.
    """
    global _NAN_GUARD
    previous = _NAN_GUARD
    _NAN_GUARD = bool(enabled)
    return previous


# Tape recording. Off only inside `no_grad()`.
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Record no tape nodes inside the block.

    Primitive outputs get no parents, no vjp and requires_grad=False, so the
    block's results cannot be differentiated. Nests; the previous mode is
    restored on exit, also when the block raises.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """Dense float64 array with optional participation in the gradient tape.

    `requires_grad` marks a leaf whose gradient should be accumulated by
    `backward()`. Tensors produced by primitives carry their parents and a
    VJP closure; users never construct those directly.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._op = "leaf"

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def is_leaf(self) -> bool:
        return not self._parents

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad_flag})"

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def transpose(self, axis1: int = -2, axis2: int = -1) -> "Tensor":
        return transpose(self, axis1, axis2)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Wrap a primitive's output, recording it on the tape when needed."""
    if _NAN_GUARD and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by op {op!r}")
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
        out._op = op
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if keep:
        grad = grad.sum(axis=keep, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(data, (a, b), vjp, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(data, (a, b), vjp, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    data = a.data * b.data
    a_data, b_data = a.data, b.data

    def vjp(g):
        return _unbroadcast(g * b_data, a.shape), _unbroadcast(g * a_data, b.shape)

    return _node(data, (a, b), vjp, "mul")


def neg(a: Tensor) -> Tensor:
    def vjp(g):
        return (-g,)

    return _node(-a.data, (a,), vjp, "neg")


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy's stacked-matmul broadcasting.

    Both operands must have ndim >= 2; the last two axes are the matrix
    dimensions, leading axes broadcast. dC flows back as dA = dC.Bt and
    dB = At.dC, summed over broadcast axes.
    """
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    a_data, b_data = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        ga = _unbroadcast(g @ b_data.swapaxes(-1, -2), a.shape) if need_a else None
        gb = _unbroadcast(a_data.swapaxes(-1, -2) @ g, b.shape) if need_b else None
        return ga, gb

    return _node(data, (a, b), vjp, "matmul")


def transpose(a: Tensor, axis1: int = -2, axis2: int = -1) -> Tensor:
    data = a.data.swapaxes(axis1, axis2)

    def vjp(g):
        return (g.swapaxes(axis1, axis2),)

    return _node(data, (a,), vjp, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old_shape = a.shape
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old_shape),)

    return _node(data, (a,), vjp, "reshape")


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(data, tuple(tensors), vjp, "concat")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along `axis` starting at `start`."""
    dim = a.shape[axis]
    if start < 0 or start + length > dim:
        raise ShapeError(f"narrow [{start}, {start + length}) out of range for axis {axis} of {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    data = a.data[index].copy()

    def vjp(g):
        full = np.zeros(a.shape, dtype=np.float64)
        full[index] = g
        return (full,)

    return _node(data, (a,), vjp, "narrow")


# -- nonlinearities ---------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax: subtracts the per-slice maximum first."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _node(y, (a,), vjp, "softmax")


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return _node(y, (a,), vjp, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign to avoid overflow in exp for large |x|.
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(g):
        return (g * y * (1.0 - y),)

    return _node(y, (a,), vjp, "sigmoid")


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _node(a.data * mask, (a,), vjp, "relu")


# -- reductions and losses ---------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    def vjp(g):
        return (np.full(a.shape, float(g), dtype=np.float64),)

    return _node(np.asarray(a.data.sum()), (a,), vjp, "sum")


def mean_all(a: Tensor) -> Tensor:
    n = a.size

    def vjp(g):
        return (np.full(a.shape, float(g) / n, dtype=np.float64),)

    return _node(np.asarray(a.data.mean()), (a,), vjp, "mean")


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements; gradient is 2*(pred-target)/count."""
    pred, target = _lift(pred), _lift(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size

    def vjp(g):
        scaled = (2.0 / n) * float(g) * diff
        return scaled, -scaled

    return _node(np.asarray(np.mean(diff * diff)), (pred, target), vjp, "mse")


# -- structured primitives: conv / batch norm / max pool ---------------------


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Length-preserving 1-d convolution.

    x: (B, C_in, T); weight: (F, C_in, k) with odd k; bias: (F,) or None.
    Zero padding of (k-1)/2 on both sides keeps the output length T.
    """
    x, weight = _lift(x), _lift(weight)
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeError(f"conv1d expects (B,C,T) input and (F,C,k) weight, got {x.shape}, {weight.shape}")
    batch, c_in, t = x.shape
    f, c_w, k = weight.shape
    if c_in != c_w:
        raise ShapeError(f"conv1d channel mismatch: input {x.shape} vs weight {weight.shape}")
    if k % 2 == 0:
        raise ShapeError(f"conv1d kernel size must be odd, got {k}")
    pad = (k - 1) // 2
    xpad = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    w_data = weight.data
    out = np.zeros((batch, f, t), dtype=np.float64)
    for j in range(k):
        out += np.einsum("fc,bct->bft", w_data[:, :, j], xpad[:, :, j : j + t])
    parents = [x, weight]
    if bias is not None:
        bias = _lift(bias)
        out += bias.data[None, :, None]
        parents.append(bias)
    need_x, need_w = x.requires_grad, weight.requires_grad

    def vjp(g):
        gx = None
        if need_x:
            gpad = np.zeros_like(xpad)
            for j in range(k):
                gpad[:, :, j : j + t] += np.einsum("fc,bft->bct", w_data[:, :, j], g)
            gx = gpad[:, :, pad : pad + t]
        gw = None
        if need_w:
            gw = np.empty_like(w_data)
            for j in range(k):
                gw[:, :, j] = np.einsum("bft,bct->fc", g, xpad[:, :, j : j + t])
        grads = [gx, gw]
        if bias is not None:
            grads.append(g.sum(axis=(0, 2)))
        return tuple(grads)

    return _node(out, tuple(parents), vjp, "conv1d")


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization of (B, C, T) over the batch and position axes.

    Training mode normalizes with batch statistics and updates the running
    estimates in place; inference mode uses the running estimates.
    gamma/beta have shape (C,).
    """
    x, gamma, beta = _lift(x), _lift(gamma), _lift(beta)
    if x.ndim != 3:
        raise ShapeError(f"batch_norm expects (B,C,T) input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm parameter shape mismatch: C={c}, gamma {gamma.shape}, beta {beta.shape}")
    axes = (0, 2)
    g_col = gamma.data[None, :, None]

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = x.shape[0] * x.shape[2]
        # Running variance uses the unbiased estimate, matching the usual
        # deep-learning convention.
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mean[None, :, None]) * inv_std[None, :, None]

        def vjp(g):
            dgamma = (g * xhat).sum(axis=axes)
            dbeta = g.sum(axis=axes)
            dxhat = g * g_col
            mean_dxhat = dxhat.mean(axis=axes, keepdims=True)
            mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes, keepdims=True)
            dx = inv_std[None, :, None] * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
            return dx, dgamma, dbeta

    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        xhat = (x.data - running_mean[None, :, None]) * inv_std[None, :, None]

        def vjp(g):
            dgamma = (g * xhat).sum(axis=axes)
            dbeta = g.sum(axis=axes)
            dx = g * g_col * inv_std[None, :, None]
            return dx, dgamma, dbeta

    out = gamma.data[None, :, None] * xhat + beta.data[None, :, None]
    return _node(out, (x, gamma, beta), vjp, "batch_norm")


def max_pool1d(x: Tensor, kernel: int = 2, stride: int = 2) -> Tensor:
    """Max pooling over the last axis; only kernel == stride == 2 is needed."""
    x = _lift(x)
    if x.ndim != 3:
        raise ShapeError(f"max_pool1d expects (B,C,T) input, got {x.shape}")
    if kernel != 2 or stride != 2:
        raise ShapeError("max_pool1d supports kernel=stride=2 only")
    batch, c, t = x.shape
    if t < 2:
        raise ShapeError(f"max_pool1d needs T >= 2, got T={t}")
    t_out = t // 2
    pairs = x.data[:, :, : 2 * t_out].reshape(batch, c, t_out, 2)
    idx = pairs.argmax(axis=-1)
    out = np.take_along_axis(pairs, idx[..., None], axis=-1)[..., 0]
    # Flat positions of the winners in the original last axis.
    positions = np.arange(t_out)[None, None, :] * 2 + idx

    def vjp(g):
        dx = np.zeros((batch, c, t), dtype=np.float64)
        np.put_along_axis(dx, positions, g, axis=-1)
        return (dx,)

    return _node(out, (x,), vjp, "max_pool1d")


# -- backward pass ------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf below `loss`.

    Repeated calls without clearing grads add up. Adjoints live in a
    per-pass table, so each node is processed exactly once per call.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any requires_grad tensor")

    # Iterative post-order DFS; parents tuples keep the order deterministic.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))

    adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node.is_leaf():
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg


# -- gradient checking ---------------------------------------------------------

# Coordinates where analytic and numeric agree to within this absolute slack
# count as exact; it sits well above central-difference roundoff (~1e-11 for
# O(1) losses at the default step) and well below any real backward-rule bug.
_ABS_SLACK = 1e-9
_REL_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    worst_input: int
    worst_index: tuple[int, ...]
    analytic: float
    numeric: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"grad check {status}: max rel err {self.max_rel_err:.3e} (tol {self.tol:.1e}) "
            f"at input {self.worst_input} index {self.worst_index} "
            f"analytic {self.analytic:.6e} vs numeric {self.numeric:.6e}"
        )


def grad_check(f, point, step: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare tape gradients of scalar-valued `f` against central differences.

    `point` is a sequence of requires_grad Tensors that `f` reads; their data
    is perturbed in place and restored. Returns the worst relative error over
    every coordinate of every input.
    """
    point = list(point)
    for t in point:
        t.zero_grad()
    out = f(*point)
    if out.size != 1:
        raise ShapeError(f"grad_check needs a scalar-valued function, got shape {out.shape}")
    backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in point]

    worst = GradCheckReport(0.0, tol, -1, (), 0.0, 0.0)
    for i, t in enumerate(point):
        flat = t.data.reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + step
            f_plus = f(*point).item()
            flat[j] = original - step
            f_minus = f(*point).item()
            flat[j] = original
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[i].reshape(-1)[j]
            diff = abs(a - numeric)
            rel = 0.0 if diff <= _ABS_SLACK else diff / max(abs(a), abs(numeric), _REL_FLOOR)
            if rel > worst.max_rel_err:
                worst = GradCheckReport(
                    rel, tol, i, np.unravel_index(j, t.shape), float(a), float(numeric)
                )
    return worst
