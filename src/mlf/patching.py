"""Adaptive patching (MAP): turn windows of any length into a fixed patch count.

Each window is cut into overlapping patches of length L = 2K taken at
stride K = floor(n / N) over its newest N * K steps, so every period yields
exactly N patches: short and long histories feed the encoder the same number
of tokens. The ablation cuts the whole window into patches of a fixed L and
K instead, so its patch count grows with the window. Both are one
`PatchParams`, and `make_patches` is the one path: one gather over a clamped
window index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, add, matmul


@dataclass(frozen=True)
class PatchParams:
    """Patch geometry of one period: `n_patches` patches of length L at stride
    K, the first starting `fitted_len` steps before a window's end."""

    fitted_len: int
    stride: int  # K
    patch_len: int  # L
    n_patches: int


def derive_patch_params(window_len: int, n_patches: int) -> PatchParams:
    """MAP's geometry: K = floor(n / N) and L = 2K over N * K fitted steps.

    The stride is clamped to 1 so windows shorter than the patch count stay
    usable (`make_patches` left-pads them).
    """
    stride = max(1, window_len // n_patches)
    return PatchParams(n_patches * stride, stride, 2 * stride, n_patches)


def fixed_patch_params(window_len: int, patch_len: int, stride: int) -> PatchParams:
    """The adaptive-patching ablation: a fixed L and K over the whole window.

    Requires window_len >= L - K so at least one patch exists after end
    padding, which `validate_config` checks.
    """
    return PatchParams(window_len, stride, patch_len, (window_len - patch_len) // stride + 2)


def make_patches(windows: np.ndarray, params: PatchParams) -> np.ndarray:
    """Cut (..., n) windows into (..., L, N) patch matrices, patch p in column p.

    Row l of patch p reads window step (n - fitted_len) + K * p + l, clamped
    to the window: a step before the first reads the first value (the left
    pad of a window shorter than `fitted_len`), and one past the last reads
    the last value (K copies of it end the fitted window, as in PatchTST).
    """
    n = windows.shape[-1]
    index = (n - params.fitted_len) + params.stride * np.arange(params.n_patches) + np.arange(params.patch_len)[:, None]
    # np.take, not windows[..., index]: embed's matmul reads a C-contiguous result.
    return np.take(windows, np.clip(index, 0, n - 1), axis=-1)


def embed(patches: Tensor, w_proj: Tensor, w_pos: Tensor) -> Tensor:
    """Project raw patches into model space and add the positional table.

    patches: (..., L, N); w_proj: (D, L); w_pos: (D, N). Both weight
    matrices are per-period trainables.
    """
    return add(matmul(w_proj, patches), w_pos, consume=True)
