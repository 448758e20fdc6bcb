"""Adaptive patching (MAP): turn windows of any length into a fixed patch count.

Each window is cut into overlapping patches of length L = 2K taken at
stride K = floor(n / N), after it is fitted to N * K steps, so every period
yields exactly N patches: short and long histories feed the encoder the
same number of tokens. The ablation cuts the whole window into patches of a
fixed L and K instead, so its patch count grows with the window. Both are one
`PatchParams`, and `make_patches` is the one path: fit, then patchify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, add, matmul


@dataclass(frozen=True)
class PatchParams:
    """Patch geometry of one period: windows are fitted to `fitted_len`
    steps, then cut into `n_patches` patches of length L at stride K."""

    fitted_len: int
    stride: int  # K
    patch_len: int  # L
    n_patches: int


def derive_patch_params(window_len: int, n_patches: int) -> PatchParams:
    """MAP's geometry: K = floor(n / N) and L = 2K over N * K fitted steps.

    The stride is clamped to 1 so windows shorter than the patch count stay
    usable (they get left-padded by fit_length).
    """
    stride = max(1, window_len // n_patches)
    return PatchParams(n_patches * stride, stride, 2 * stride, n_patches)


def fixed_patch_params(window_len: int, patch_len: int, stride: int) -> PatchParams:
    """The adaptive-patching ablation: a fixed L and K over the whole window.

    Requires window_len >= L - K so at least one patch exists after end
    padding, which `validate_config` checks.
    """
    return PatchParams(window_len, stride, patch_len, (window_len - patch_len) // stride + 2)


def fit_length(windows: np.ndarray, params: PatchParams) -> np.ndarray:
    """Trim or pad windows (last axis) to the exact length the geometry needs.

    Longer windows drop their oldest values (recency carries the signal);
    shorter ones are left-padded by repeating the first value.
    """
    n = windows.shape[-1]
    target = params.fitted_len
    if n == target:
        return windows
    if n > target:
        return windows[..., n - target :]
    pad = np.repeat(windows[..., :1], target - n, axis=-1)
    return np.concatenate([pad, windows], axis=-1)


def patchify(windows: np.ndarray, patch_len: int, stride: int) -> np.ndarray:
    """Cut (..., n) windows into (..., L, N) patch matrices.

    K copies of the last value are appended before slicing, so
    N = floor((n - L) / K) + 2. Patch p occupies column p.
    """
    tail = np.repeat(windows[..., -1:], stride, axis=-1)
    padded = np.concatenate([windows, tail], axis=-1)
    # (..., N, L) strided view, then patch-as-column layout.
    view = np.lib.stride_tricks.sliding_window_view(padded, patch_len, axis=-1)
    return np.ascontiguousarray(view[..., ::stride, :].swapaxes(-1, -2))


def make_patches(windows: np.ndarray, params: PatchParams) -> np.ndarray:
    """The one patching path: fit_length, then patchify."""
    return patchify(fit_length(windows, params), params.patch_len, params.stride)


def embed(patches: Tensor, w_proj: Tensor, w_pos: Tensor) -> Tensor:
    """Project raw patches into model space and add the positional table.

    patches: (..., L, N); w_proj: (D, L); w_pos: (D, N). Both weight
    matrices are per-period trainables.
    """
    return add(matmul(w_proj, patches), w_pos)
