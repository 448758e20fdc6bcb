"""Adaptive patching: turn windows of any length into a fixed patch count.

Each input window is cut into overlapping patches of length L taken at
stride K. Choosing K = floor(n / N_target) and L = ratio * K per window
length makes every window produce exactly N_target patches, so short and
long histories feed the encoder the same number of tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import ShapeError, Tensor, add, matmul


@dataclass(frozen=True)
class PatchParams:
    """Patch geometry for one window length."""

    window_len: int  # incoming window length n
    stride: int  # K
    patch_len: int  # L = ratio * K
    n_patches: int  # patch count this geometry produces

    @property
    def fitted_len(self) -> int:
        """Window length that yields exactly n_patches patches."""
        return self.n_patches * self.stride


def derive_patch_params(window_len: int, n_patches: int, ratio: int = 2) -> PatchParams:
    """Stride/length pair that maps `window_len` onto exactly `n_patches` patches.

    The stride floor(n / N) is clamped to 1 so windows shorter than the patch
    count stay usable (they get left-padded by fit_length).
    """
    stride = max(1, window_len // n_patches)
    return PatchParams(window_len, stride, ratio * stride, n_patches)


def fixed_patch_params(window_len: int, patch_len: int = 16, stride: int = 8) -> PatchParams:
    """Fixed-geometry patching; the patch count now grows with the window.

    Used by the adaptive-patching ablation. Requires window_len >= L - K so
    at least one patch exists after end padding, which `validate_config`
    checks.
    """
    count = (window_len - patch_len) // stride + 2
    return PatchParams(window_len, stride, patch_len, count)


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
    n = windows.shape[-1]
    if n < patch_len - stride:
        raise ShapeError(f"window length {n} shorter than L-K={patch_len - stride}")
    tail = np.repeat(windows[..., -1:], stride, axis=-1)
    padded = np.concatenate([windows, tail], axis=-1)
    # (..., N, L) strided view, then patch-as-column layout.
    view = np.lib.stride_tricks.sliding_window_view(padded, patch_len, axis=-1)
    patches = view[..., ::stride, :]
    expected = (n - patch_len) // stride + 2
    assert patches.shape[-2] == expected, (patches.shape, expected)
    return np.ascontiguousarray(patches.swapaxes(-1, -2))


def make_patches(windows: np.ndarray, params: PatchParams, adaptive: bool = True) -> np.ndarray:
    """fit_length + patchify for the adaptive path; raw patchify otherwise."""
    if adaptive:
        windows = fit_length(windows, params)
    return patchify(windows, params.patch_len, params.stride)


def embed(patches: Tensor, w_proj: Tensor, w_pos: Tensor) -> Tensor:
    """Project raw patches into model space and add the positional table.

    patches: (..., L, N); w_proj: (D, L); w_pos: (D, N). Both weight
    matrices are per-period trainables.
    """
    if w_proj.shape[-1] != patches.shape[-2]:
        raise ShapeError(f"projection {w_proj.shape} does not match patches {patches.shape}")
    if w_pos.shape[-1] != patches.shape[-1]:
        raise ShapeError(f"positional table {w_pos.shape} does not match patches {patches.shape}")
    return add(matmul(w_proj, patches), w_pos)
