"""Parameter registry and the small trainable layers the model is built from."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, add, batch_norm, matmul


class ParamStore:
    """Flat name -> Tensor registry for parameters plus non-trainable buffers.

    Construction order is the draw order from the init RNG, so a fixed seed
    reproduces every weight bit for bit; the same names key checkpoints and
    optimizer state.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def _register(self, name: str, array: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t

    def uniform(self, name: str, shape: tuple[int, ...], bound: float) -> Tensor:
        return self._register(name, self.rng.uniform(-bound, bound, size=shape))

    def normal(self, name: str, shape: tuple[int, ...], std: float) -> Tensor:
        return self._register(name, std * self.rng.standard_normal(shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, np.zeros(shape))

    def ones(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self._register(name, np.ones(shape))

    def buffer(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self.buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        arr = np.asarray(array, dtype=np.float64)
        self.buffers[name] = arr
        return arr


class Linear:
    """y = x @ W + b applied to the last axis; W is (n_in, n_out)."""

    def __init__(self, store: ParamStore, name: str, n_in: int, n_out: int):
        bound = 1.0 / np.sqrt(n_in)
        self.w = store.uniform(f"{name}.w", (n_in, n_out), bound)
        self.b = store.uniform(f"{name}.b", (n_out,), bound)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(x, self.w), self.b)


class ChannelLinear:
    """y = W @ x + b for feature-first layouts (..., C_in, N); W is (C_out, C_in)."""

    def __init__(self, store: ParamStore, name: str, n_in: int, n_out: int):
        bound = 1.0 / np.sqrt(n_in)
        self.w = store.uniform(f"{name}.w", (n_out, n_in), bound)
        self.b = store.uniform(f"{name}.b", (n_out, 1), bound)

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(self.w, x), self.b)


class BatchNorm:
    """Feature-axis batch norm for (B, C, T) tensors with running statistics."""

    def __init__(self, store: ParamStore, name: str, num_features: int):
        self.gamma = store.ones(f"{name}.gamma", (num_features,))
        self.beta = store.zeros(f"{name}.beta", (num_features,))
        self.running_mean = store.buffer(f"{name}.running_mean", np.zeros(num_features))
        self.running_var = store.buffer(f"{name}.running_var", np.ones(num_features))

    def __call__(self, x: Tensor, *, training: bool) -> Tensor:
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var, training=training)
