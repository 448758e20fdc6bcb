"""Reverse-mode automatic differentiation over dense float64 arrays.

A Tensor wraps a numpy array and, when it participates in a differentiable
computation, records the operation that produced it in a tape entry: edges to
its parents, a vector-Jacobian-product closure, the op name and the output's
element count. `backward()` walks the recorded graph once in reverse
topological order, accumulates gradients into the leaves that requested them
and empties each tape entry once its vjp has run, so a graph can be walked
only once. Inside `with no_grad():` nothing is recorded, as with
`torch.no_grad`. The model's inference forward runs in it, so inference
records nothing and frees each array once unread.

`consume=True` on `add`, `mul`, `relu`, `softmax` or `batch_norm` says the
caller reads the operand (the first of `add` and `mul`, the input of the rest)
no more. Only when nothing records is its array overwritten with the result;
while the tape records, each primitive allocates, so no vjp reads an overwrite.

The tape keeps only what backward reads. An edge is the parent's tape entry,
or the parent itself when it is a leaf, never a recorded output, and each vjp
closes over exactly the arrays and shapes it reads (as PyTorch keeps only
saved tensors in its graph). So an intermediate Tensor the caller drops
frees its array while the graph lives, unless a vjp reads it.

Only the primitives the model runs are provided, with no option that no
caller varies: matmul (with stacked broadcasting), add and mul with numpy
broadcasting, softmax and concat over the last axis, transpose of the last
two, narrow, reshape, tanh/sigmoid/relu, LWI's 1-d convolution, batch norm,
1-d max pooling, the mean over a list of tensors, and mean-squared error.

Primitives take Tensors; only Tensor's operators lift a raw scalar or array.
They trust the shapes the model fixed when it was built (conv1d's kernel
and channels, batch norm's (C,) parameters, a pooled length of at least 2)
and leave a mismatch numpy notices to numpy's own error. The checks that
stay prevent a silent wrong result or an unnoticed misuse: conv1d refuses an
input that requires grad (it computes no input gradient), matmul refuses an
operand below 2-D (numpy would take it as a vector), mse refuses unequal
shapes (numpy would broadcast), narrow refuses a range past the axis (numpy
would clip the slice), and backward refuses a non-scalar loss, a loss that
needs no gradient and a graph it has already walked.

Two threads run where the bits cannot move: the caller and one persistent
worker thread, made at import and started on first use. `_on_both` is the one
way onto it: it runs one function on the worker, in a copy of the caller's
context, and one on the caller, and the worker opens no span. `backward` runs
every vjp on the caller while the graph's recorded outputs hold fewer than
BACKWARD_FLOOR (2**21) elements in all: the desk config at batch 64 records
0.92M, and its steps are bound by Python. From the floor up (the paper config
at batch 8 records 2.87M, at batch 32 10.1M) both threads take the entries
whose consumers have all run, the earliest in the sequential walk's order
first. Each node keeps one slot per consumer edge, in that walk's order by
consumer and then by parent slot, and its adjoint is the sum of its slots
left to right, so every gradient keeps its bits. A vjp that raises on either
thread stops both after their current vjp, and the caller re-raises it.

`in_halves` runs a row-independent function of one Tensor to one Tensor over
the two halves of a batch, one on the worker thread and one on the caller,
and joins the two outputs bit for bit as the whole batch gives them.
Three spans of the model use it, each inside its own body and each with one
input and one output: `EncoderBlock.__call__`, `PeriodDecoder.__call__` and
the conv/batch-norm/pool features of `WeightIntegrator.__call__`. They split
only at inference (nothing records, and batch norm reads its running
estimates), from 2 rows up, and only when the span's largest temporary holds
at least SPLIT_FLOOR (2**18) elements. The paper config splits all three at
batch 128, and none at batch 32 or in a forecast; the desk config at batch 64
splits none. The 2-D GEMMs whose row count is the batch (SPP heads, IRF
branches, the LWI gate) round by their row count, so they always run on the
whole batch.

No primitive checks its output for NaN or Inf. Non-finite numbers are stopped
where they enter: CSV cells, run-config fields and checkpoint tensors are
checked when they are read.
"""

from __future__ import annotations

import contextvars
import heapq
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import zip_longest

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


# Tape recording. Off only inside `no_grad()`, and only in the context (the
# thread, or a copy of its context) that entered it.
_GRAD_ENABLED = contextvars.ContextVar("mlf_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Record no tape nodes inside the block.

    Primitive outputs get no parents, no vjp and requires_grad=False, so the
    block's results cannot be differentiated. Nests; the previous mode is
    restored on exit, also when the block raises. The mode is a context
    variable, so a block entered on one thread leaves recording on in others.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class _Fn:
    """The tape entry of one recorded output: its parent edges, vjp and op.

    It holds no output data, only the output's element count (`size`), which
    `backward` sums to choose between one thread and two. Entries always need
    a gradient, so `backward` treats an entry and a requires_grad leaf alike,
    and empties it after its vjp.
    """

    __slots__ = ("parents", "vjp", "op", "size")
    requires_grad = True

    def __init__(self, parents: tuple, vjp, op: str, size: int):
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.size = size


class Tensor:
    """Dense float64 array with optional participation in the gradient tape.

    `requires_grad` marks a leaf whose gradient should be accumulated by
    `backward()`. Tensors produced by primitives carry a tape entry (`_fn`);
    users never construct those directly. `_vjp` reads that entry's vjp and
    may replace it.
    """

    __slots__ = ("data", "requires_grad", "grad", "_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._fn: _Fn | None = None

    # -- tape entry --------------------------------------------------------

    @property
    def _vjp(self):
        return self._fn.vjp if self._fn is not None else None

    @_vjp.setter
    def _vjp(self, vjp) -> None:
        self._fn.vjp = vjp

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

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        op = self._fn.op if self._fn is not None else "leaf"
        return f"Tensor(shape={self.shape}, op={op!r}{grad_flag})"

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether the output of a primitive over `parents` goes on the tape."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp, op: str) -> Tensor:
    """Wrap a primitive's output, recording it on the tape when needed."""
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._fn = _Fn(tuple(p._fn or p for p in parents), vjp, op, data.size)
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


def add(a: Tensor, b: Tensor, *, consume: bool = False) -> Tensor:
    """a + b; `consume` may write it into `a`'s array, which has its shape."""
    data = np.add(a.data, b.data, out=a.data if consume and not _records((a, b)) else None)
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _node(data, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor, *, consume: bool = False) -> Tensor:
    """a * b; `consume` may write it into `a`'s array, as in `add`."""
    data = np.multiply(a.data, b.data, out=a.data if consume and not _records((a, b)) else None)
    need_a, need_b = a.requires_grad, b.requires_grad
    # da reads only b, and db only a.
    a_data, b_data = (a.data if need_b else None), (b.data if need_a else None)
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        ga = _unbroadcast(g * b_data, a_shape) if need_a else None
        gb = _unbroadcast(g * a_data, b_shape) if need_b else None
        return ga, gb

    return _node(data, (a, b), vjp, "mul")


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy's stacked-matmul broadcasting.

    Both operands must have ndim >= 2; the last two axes are the matrix
    dimensions, leading axes broadcast. dC flows back as dA = dC.Bt and
    dB = At.dC, summed over broadcast axes.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.shape} @ {b.shape}")
    data = a.data @ b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    # dA reads only B, and dB only A.
    a_data, b_data = (a.data if need_b else None), (b.data if need_a else None)
    a_shape, b_shape = a.shape, b.shape

    def vjp(g):
        ga = _unbroadcast(g @ b_data.swapaxes(-1, -2), a_shape) if need_a else None
        gb = _unbroadcast(a_data.swapaxes(-1, -2) @ g, b_shape) if need_b else None
        return ga, gb

    return _node(data, (a, b), vjp, "matmul")


def transpose(a: Tensor) -> Tensor:
    data = a.data.swapaxes(-1, -2)

    def vjp(g):
        return (g.swapaxes(-1, -2),)

    return _node(data, (a,), vjp, "transpose")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old_shape = a.shape
    data = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old_shape),)

    return _node(data, (a,), vjp, "reshape")


def concat(tensors) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=-1)
    splits = np.cumsum([t.shape[-1] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=-1))

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
    shape = a.shape

    def vjp(g):
        full = np.zeros(shape, dtype=np.float64)
        full[index] = g
        return (full,)

    return _node(data, (a,), vjp, "narrow")


# -- nonlinearities ---------------------------------------------------------


def softmax(a: Tensor, *, consume: bool = False) -> Tensor:
    """Numerically stable softmax over the last axis: subtracts each row's
    maximum first. `consume` overwrites `a` with the result when nothing records."""
    y = np.subtract(a.data, a.data.max(axis=-1, keepdims=True), out=a.data if consume and not _records((a,)) else None)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
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


def relu(a: Tensor, *, consume: bool = False) -> Tensor:
    """max(a, 0) as a * (a > 0). `consume` overwrites `a` when nothing records."""
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return _node(np.multiply(a.data, mask, out=a.data if consume and not _records((a,)) else None), (a,), vjp, "relu")


# -- means and losses --------------------------------------------------------


def average(tensors) -> Tensor:
    """The one mean over a sequence of equally shaped tensors: summed left to
    right, then scaled by 1 / len."""
    total = tensors[0]
    for t in tensors[1:]:
        total = total + t
    return (1.0 / len(tensors)) * total


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements; gradient is 2*(pred-target)/count."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size

    def vjp(g):
        scaled = (2.0 / n) * float(g) * diff
        return scaled, -scaled

    return _node(np.asarray(np.mean(diff * diff)), (pred, target), vjp, "mse")


# -- structured primitives: conv / batch norm / max pool ---------------------

BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # batch_norm's running-estimate momentum, variance epsilon


def conv1d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Length-preserving 1-d convolution of LWI's constant input window.

    x: (B, C_in, T); weight: (F, C_in, k) with odd k; bias: (F,). Zero
    padding of (k-1)/2 on both sides keeps the output length T. Only the
    weight and bias get gradients, so an x that requires grad is refused.
    """
    if x.requires_grad:
        raise ValueError("conv1d computes no input gradient, but its input requires grad")
    batch, _, t = x.shape
    f, _, k = weight.shape
    pad = (k - 1) // 2
    xpad = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    w_data = weight.data
    out = np.zeros((batch, f, t), dtype=np.float64)
    term = np.empty_like(out)
    for j in range(k):
        out += np.einsum("fc,bct->bft", w_data[:, :, j], xpad[:, :, j : j + t], out=term)
    out += bias.data[None, :, None]

    def vjp(g):  # dw reads the padded input; x gets no gradient
        gw = np.empty_like(w_data)
        for j in range(k):
            gw[:, :, j] = np.einsum("bft,bct->fc", g, xpad[:, :, j : j + t])
        return None, gw, g.sum(axis=(0, 2))

    return _node(out, (x, weight, bias), vjp, "conv1d")


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    training: bool,
    consume: bool = False,
) -> Tensor:
    """Batch normalization of (B, C, T) over the batch and position axes.

    Training mode normalizes with batch statistics and updates the running
    estimates in place, with momentum BN_MOMENTUM; inference mode uses the
    running estimates. gamma/beta have shape (C,). `consume` may write the
    result into `x`; when nothing records, no vjp reads xhat, so it is scaled in place.
    """
    axes = (0, 2)
    g_col = gamma.data[None, :, None]

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = x.shape[0] * x.shape[2]
        # Running variance uses the unbiased estimate, matching the usual
        # deep-learning convention.
        unbiased = var * (m / (m - 1)) if m > 1 else var
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    else:
        mean, var = running_mean, running_var
    inv_std = (1.0 / np.sqrt(var + BN_EPS))[None, :, None]
    records = _records((x, gamma, beta))
    xhat = np.subtract(x.data, mean[None, :, None], out=x.data if consume and not records else None)
    xhat *= inv_std

    def vjp(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        if not training:
            return g * g_col * inv_std, dgamma, dbeta
        dxhat = g * g_col
        mean_dxhat = dxhat.mean(axis=axes, keepdims=True)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes, keepdims=True)
        return inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat), dgamma, dbeta

    out = np.multiply(xhat, g_col, out=None if records else xhat)
    out += beta.data[None, :, None]
    return _node(out, (x, gamma, beta), vjp, "batch_norm")


def max_pool1d(x: Tensor) -> Tensor:
    """Max pooling over the last axis with kernel and stride 2."""
    batch, c, t = x.shape
    t_out = t // 2
    left, right = x.data[:, :, 0 : 2 * t_out : 2], x.data[:, :, 1 : 2 * t_out : 2]
    # argmax's pick of each pair: the right one wins only when the left is not
    # NaN and is not >= it, so the first of equal values and the first NaN win.
    take_right = ~(left >= right)
    take_right &= left == left
    out = np.where(take_right, right, left)

    def vjp(g):
        dx = np.zeros((batch, c, t), dtype=np.float64)  # an odd last column gets none
        dx[:, :, 0 : 2 * t_out : 2] = np.where(take_right, 0.0, g)
        dx[:, :, 1 : 2 * t_out : 2] = np.where(take_right, g, 0.0)
        return (dx,)

    return _node(out, (x,), vjp, "max_pool1d")


# -- backward pass ------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf below `loss`.

    The graph is the tape entries below `loss`: for each recorded output, the
    edges to its parents (their entries, or the leaves themselves) and a vjp
    closed over the arrays it reads; no output's data is kept. Each entry is
    emptied right after its vjp has run, which frees what it read (as PyTorch
    frees saved tensors), so a later call that reaches it raises ValueError.
    Leaf gradients of separate graphs add up: a leaf gets a copy of its
    adjoint, or `grad + adjoint`. An entry that receives no gradient skips its
    vjp and is not emptied.

    A post-order walk fixes the sequential order: the reverse of it, from the
    loss down. Each adjoint is the left fold of its contributions in that
    order, by consumer and then by parent slot. When the recorded outputs hold
    fewer than BACKWARD_FLOOR elements in all, one loop on the caller runs the
    entries in that order. From the floor up, the caller and the worker
    thread both take entries whose consumers have all run, the earliest in
    the sequential order first (`_Drain`, through `_on_both`). Each node's
    contributions wait in one slot per consumer edge, in that same order, and
    are summed left to right once all have come. So the gradients are the same
    bits either way.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any requires_grad tensor")

    # Iterative post-order DFS over entries and leaves; parent edges keep the
    # order deterministic.
    root = loss._fn or loss
    topo: list[_Fn | Tensor] = []
    seen: set[int] = set()
    elements = 0  # of the recorded outputs
    stack: list[tuple[_Fn | Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if isinstance(node, _Fn):
            if node.vjp is None:
                raise ValueError(f"backward already walked the graph through this {node.op!r} node and freed it")
            elements += node.size
            for parent in node.parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))

    if elements >= BACKWARD_FLOOR:
        _Drain(topo[::-1], np.ones_like(loss.data)).on_two_threads()
        return
    adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, Tensor):
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        grads, parents = node.vjp(g), node.parents
        node.parents, node.vjp = (), None  # frees what the vjp read
        for parent, pg in zip(parents, grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg


# -- two threads: the backward drain and batch halves ---------------------------

# in_halves splits a batch only when the span's largest temporary holds at least
# this many elements. Small spans are bound by Python and the GIL, where the halves
# lose (a desk forward at batch 64 took 2.7 ms whole and 4.3 ms split, 2-core VM,
# one BLAS thread); this floor also keeps the paper config's batch of 32 whole.
SPLIT_FLOOR = 2**18

# backward runs on two threads only when the recorded outputs below the loss
# hold at least this many elements in all. A desk step at batch 64 (0.92M) is
# bound by Python, and two threads made it slower; a paper step at batch 8
# (2.87M) or 32 (10.1M) is bound by numpy, which releases the GIL.
BACKWARD_FLOOR = 2**21

_pool: ThreadPoolExecutor  # the one worker thread's; `_on_both` is the only way onto it


def _fresh_pool() -> None:
    """Make `_pool`: at import, and again in a forked child, whose parent's
    worker thread is gone, so `submit` to the parent's executor would wait
    forever. An executor starts its thread on the first submit, so importing
    mlf starts none."""
    global _pool
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mlf-worker")


_fresh_pool()
if hasattr(os, "register_at_fork"):  # POSIX only; without fork there is no child to mend
    os.register_at_fork(after_in_child=_fresh_pool)


def _on_both(here, there) -> tuple:
    """(here(), there()), with `there` run on the worker thread in a copy of the
    caller's context, so it sees the caller's grad mode and `np.errstate`, and
    `here` on the caller. If `here` raises, `there` is waited for first; an
    exception of `there` re-raises here."""
    future = _pool.submit(contextvars.copy_context().run, there)
    try:
        mine = here()
    finally:
        future.exception()  # waits for the worker
    return mine, future.result()


class _Drain:
    """One backward's entries, run by the caller and the worker thread.

    `order` is the sequential order, the loss first. Each node keeps one slot
    per consumer edge, ordered by consumer position in `order` and then by
    parent slot. A delivery fills its slot, with a gradient or with nothing
    when the consumer got none or gave none to that slot, and the node becomes
    ready once all its slots are filled. Each thread pops the earliest ready
    node in that order, sums its slots left to right (the sequential walk's
    order), runs its vjp (or adds to the leaf's `grad`) outside the lock, and
    fills its parents' slots under the lock.
    """

    def __init__(self, order: list, seed: np.ndarray):
        self.order = order
        index = {id(node): i for i, node in enumerate(order)}
        self.slots: list[list | None] = [[] for _ in order]
        # For each slot of each entry, (parent index, the parent's slot) or None
        # for a parent that needs no gradient.
        self.targets: list[tuple | None] = [None] * len(order)
        for i, node in enumerate(order):
            if isinstance(node, _Fn):
                targets = []
                for parent in node.parents:
                    if parent.requires_grad:
                        j = index[id(parent)]
                        targets.append((j, len(self.slots[j])))
                        self.slots[j].append(None)
                    else:
                        targets.append(None)
                self.targets[i] = tuple(targets)
        self.waiting = [len(slots) for slots in self.slots]  # unfilled slots of each node
        self.slots[0] = [seed]  # the loss has no consumer: its one slot holds the seed
        self.ready = [0]  # a heap of the indices of ready nodes
        self.left = len(order)  # nodes not yet run
        self.error: BaseException | None = None
        self.cond = threading.Condition()

    def on_two_threads(self) -> None:
        """Drain on the caller and the worker; re-raise the first error once both stopped."""
        _on_both(self.drain, self.drain)
        if self.error is not None:
            raise self.error

    def drain(self) -> None:
        """Run ready nodes until all have run or one raised; never raises."""
        cond = self.cond
        try:
            while True:
                with cond:
                    while not self.ready and self.left and self.error is None:
                        cond.wait()
                    if not self.left or self.error is not None:
                        return
                    i = heapq.heappop(self.ready)
                    parts, self.slots[i] = self.slots[i], None
                node, grads, g = self.order[i], (), None
                for part in parts:
                    if part is not None:
                        g = part if g is None else g + part
                parts = part = None  # frees each contribution that was summed
                if g is not None:
                    if isinstance(node, Tensor):
                        node.grad = g.copy() if node.grad is None else node.grad + g
                    else:
                        grads = node.vjp(g)
                        node.parents, node.vjp = (), None  # frees what the vjp read
                del g
                with cond:  # a slot that the vjp gave nothing is still filled
                    for target, pg in zip_longest(self.targets[i] or (), grads):
                        if target is not None:
                            j, slot = target
                            self.slots[j][slot] = pg
                            self.waiting[j] -= 1
                            if not self.waiting[j]:
                                heapq.heappush(self.ready, j)
                    grads = pg = None  # a waiting thread pins no contribution
                    self.left -= 1
                    if len(self.ready) > 1 or not self.left:  # more than this thread takes next
                        cond.notify()
        except BaseException as exc:  # stops both threads; the caller re-raises it
            with cond:
                if self.error is None:
                    self.error = exc
                cond.notify()


def in_halves(fn, x: Tensor, row_elements: int, *, training: bool = False) -> Tensor:
    """`fn(x)`, computed as `fn` of x's two halves along the batch axis, one on
    the worker thread and one on the caller, joined along the batch axis.

    `fn` must compute each row of its input on its own: stacked `W @ x`,
    elementwise ops, inference batch norm, row softmax, one-input-channel
    conv and pooling. Then the joined result equals `fn(x)` bit for bit, and
    since numpy's BLAS and ufunc loops release the GIL at this size, the two
    halves run on two cores. It splits only when nothing records, `training`
    is False (batch norm's batch statistics couple the rows), x has at least
    2 rows, and the largest temporary of `fn`, `row_elements` per row, holds
    at least SPLIT_FLOOR elements; otherwise it returns `fn(x)`.

    `fn` returns one Tensor, and the two halves' outputs are joined along
    its first axis. The second half runs on the worker through `_on_both`,
    so it sees the caller's grad mode and `np.errstate`. An exception of the
    worker's half re-raises here; if the caller's half raises, the worker's
    half is waited for first.
    """
    rows = x.shape[0]
    if training or _GRAD_ENABLED.get() or rows < 2 or rows * row_elements < SPLIT_FLOOR:
        return fn(x)
    half = rows // 2
    first, second = _on_both(lambda: fn(Tensor(x.data[:half])), lambda: fn(Tensor(x.data[half:])))
    return Tensor(np.concatenate([first.data, second.data]))
