"""Parameter registry and the small trainable layers the model is built from."""

from __future__ import annotations

import numpy as np

from .autograd import ShapeError, Tensor, add, batch_norm, matmul


class ParamStore:
    """Flat name -> Tensor registry for parameters plus non-trainable buffers.

    A store either draws each array from `rng` or takes it from `state`.
    Drawing, construction order is the draw order from the init RNG, so a
    fixed seed reproduces every weight bit for bit. Taking, each array is the
    state's own array for that name, checked against the requested shape and
    registered without a copy; a missing name or a wrong shape raises
    `ShapeError`. The same names key checkpoints and optimizer state.
    """

    def __init__(self, rng: np.random.Generator | None = None, state: dict[str, np.ndarray] | None = None):
        if (rng is None) == (state is None):
            raise ValueError("a ParamStore takes either an init rng or a state dict")
        self.rng = rng
        self.state = state
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def _array(self, name: str, shape: tuple[int, ...], draw) -> np.ndarray:
        if name in self.params or name in self.buffers:
            raise ValueError(f"duplicate name {name!r}")
        if self.state is None:
            return np.asarray(draw(), dtype=np.float64)
        if name not in self.state:
            raise ShapeError(f"state mismatch: missing {name!r}")
        array = np.asarray(self.state[name], dtype=np.float64)
        if array.shape != tuple(shape):
            raise ShapeError(f"parameter {name}: shape {array.shape} != {tuple(shape)}")
        return array

    def _register(self, name: str, shape: tuple[int, ...], draw) -> Tensor:
        t = Tensor(self._array(name, shape, draw), requires_grad=True)
        self.params[name] = t
        return t

    def uniform(self, name: str, shape: tuple[int, ...], bound: float) -> Tensor:
        return self._register(name, shape, lambda: self.rng.uniform(-bound, bound, size=shape))

    def normal(self, name: str, shape: tuple[int, ...], std: float) -> Tensor:
        return self._register(name, shape, lambda: std * self.rng.standard_normal(shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, shape, lambda: np.zeros(shape))

    def ones(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, shape, lambda: np.ones(shape))

    def buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        arr = self._array(name, np.shape(array), lambda: array)
        self.buffers[name] = arr
        return arr


class Linear:
    """y = x @ W + b applied to the last axis; W is (n_in, n_out)."""

    def __init__(self, store: ParamStore, name: str, n_in: int, n_out: int):
        bound = 1.0 / np.sqrt(n_in)
        self.w = store.uniform(f"{name}.w", (n_in, n_out), bound)
        self.b = store.uniform(f"{name}.b", (n_out,), bound)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b, consume=True)


class ChannelLinear:
    """y = W @ x + b for feature-first layouts (..., C_in, N); W is (C_out, C_in)."""

    def __init__(self, store: ParamStore, name: str, n_in: int, n_out: int):
        bound = 1.0 / np.sqrt(n_in)
        self.w = store.uniform(f"{name}.w", (n_out, n_in), bound)
        self.b = store.uniform(f"{name}.b", (n_out, 1), bound)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(self.w, x), self.b, consume=True)


class BatchNorm:
    """Feature-axis batch norm for (B, C, T) tensors with running statistics.
    It consumes its input: every caller passes a fresh add or conv output."""

    def __init__(self, store: ParamStore, name: str, num_features: int):
        self.gamma = store.ones(f"{name}.gamma", (num_features,))
        self.beta = store.zeros(f"{name}.beta", (num_features,))
        self.running_mean = store.buffer(f"{name}.running_mean", np.zeros(num_features))
        self.running_var = store.buffer(f"{name}.running_var", np.ones(num_features))

    def __call__(self, x: Tensor, *, training: bool) -> Tensor:
        return batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var, training=training, consume=True
        )
