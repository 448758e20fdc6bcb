"""Adaptive patching: geometry arithmetic, the fixed-count guarantee, and
embedding gradients."""

import numpy as np
import pytest

from mlf.autograd import Tensor
from mlf.model import FIXED_PATCH_LEN, FIXED_PATCH_STRIDE, MlfConfig, period_geometries
from mlf.patching import PatchParams, derive_patch_params, embed, fixed_patch_params, make_patches

from gradcheck import grad_check, mean_all

TWELVE_LENGTHS = [5, 10, 30, 60, 120, 150, 128, 256, 512, 768, 1024, 2048]


@pytest.mark.parametrize(
    "n,expected",
    [(2048, (32, 64)), (150, (2, 4)), (5, (1, 2))],
)
def test_derive_patch_params(n, expected):
    p = derive_patch_params(n, 64)
    assert (p.stride, p.patch_len) == expected


def fit_length(windows: np.ndarray, params: PatchParams) -> np.ndarray:
    """Reference: trim the oldest steps or left-pad with the first value to
    `fitted_len` steps."""
    n = windows.shape[-1]
    target = params.fitted_len
    if n == target:
        return windows
    if n > target:
        return windows[..., n - target :]
    pad = np.repeat(windows[..., :1], target - n, axis=-1)
    return np.concatenate([pad, windows], axis=-1)


def patchify(windows: np.ndarray, patch_len: int, stride: int) -> np.ndarray:
    """Reference: append K copies of the last value, then cut (..., L, N)
    patches at stride K from a strided view."""
    tail = np.repeat(windows[..., -1:], stride, axis=-1)
    padded = np.concatenate([windows, tail], axis=-1)
    view = np.lib.stride_tricks.sliding_window_view(padded, patch_len, axis=-1)
    return np.ascontiguousarray(view[..., ::stride, :].swapaxes(-1, -2))


def fitted_steps(patches: np.ndarray, p: PatchParams) -> np.ndarray:
    """The fitted window that MAP patches tile: the first K rows of each patch, in patch order."""
    return patches[..., : p.stride, :].swapaxes(-1, -2).reshape(*patches.shape[:-2], p.fitted_len)


def test_fit_length_trims_oldest():
    p = derive_patch_params(150, 64)
    patches = make_patches(np.arange(150.0)[None, :], p)
    assert np.array_equal(fitted_steps(patches, p), np.arange(22.0, 150.0)[None, :])


def test_fit_length_left_pads_first_value():
    p = derive_patch_params(5, 64)
    w = np.array([[3.0, 4.0, 5.0, 6.0, 7.0]])
    fitted = fitted_steps(make_patches(w, p), p)
    assert fitted.shape == (1, 64)
    assert (fitted[0, :59] == 3.0).all()
    assert np.array_equal(fitted[0, 59:], w[0])


def test_fit_length_exact_noop():
    p = derive_patch_params(2048, 64)
    w = np.arange(2048.0)[None, :]
    patches = make_patches(w, p)
    assert patches[0, 0, 0] == w[0, 0]
    assert np.array_equal(fitted_steps(patches, p), w)


def test_patchify_hand_case():
    p = derive_patch_params(8, 4)
    assert p == PatchParams(fitted_len=8, stride=2, patch_len=4, n_patches=4)
    patches = make_patches(np.arange(1.0, 9.0)[None, :], p)
    expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8], [3, 5, 7, 8], [4, 6, 8, 8]], dtype=float)
    assert patches.shape == (1, 4, 4)
    assert np.array_equal(patches[0], expected)


@pytest.mark.parametrize("n,length,stride", [(64, 2, 1), (2048, 64, 32)])
def test_patchify_counts(n, length, stride):
    p = derive_patch_params(n, 64)
    assert (p.patch_len, p.stride) == (length, stride)
    patches = make_patches(np.zeros((3, n)), p)
    assert patches.shape == (3, length, 64)


def test_make_patches_matches_fit_length_then_patchify():
    # Every window length up to 399 under MAP, and the fixed 16/8 ablation
    # wherever it is valid, at three batch sizes: equal bits, shape and a
    # C-contiguous layout, covering trims, exact fits and left pads.
    rng = np.random.default_rng(7)
    cases = [(n, derive_patch_params(n, count)) for n in range(1, 400) for count in (2, 4, 8, 16, 64)]
    cases += [(n, fixed_patch_params(n, FIXED_PATCH_LEN, FIXED_PATCH_STRIDE)) for n in range(8, 400)]
    assert len(cases) == 2387
    for batch in (1, 3, 32):
        series = rng.standard_normal((batch, 399))
        for n, p in cases:
            windows = series[:, -n:]
            expected = patchify(fit_length(windows, p), p.patch_len, p.stride)
            patches = make_patches(windows, p)
            assert patches.shape == expected.shape == (batch, p.patch_len, p.n_patches), (n, p)
            assert patches.flags.c_contiguous, (n, p)
            assert np.array_equal(patches, expected), (n, p)


@pytest.mark.parametrize("n", TWELVE_LENGTHS)
def test_adaptive_patching_always_yields_64(n):
    p = derive_patch_params(n, 64)
    patches = make_patches(np.random.default_rng(0).standard_normal((2, n)), p)
    assert patches.shape == (2, p.patch_len, 64)


def test_overlapping_patches_are_consistent():
    # Positions covered by two consecutive patches must hold equal values.
    rng = np.random.default_rng(1)
    p = derive_patch_params(256, 64)
    patches = make_patches(rng.standard_normal((1, 256)), p)[0]
    length, stride = p.patch_len, p.stride
    for i in range(patches.shape[1] - 1):
        assert np.array_equal(patches[stride:, i], patches[: length - stride, i + 1])


def test_fixed_patching_counts_grow_with_length():
    counts = [fixed_patch_params(n, 16, 8).n_patches for n in [128, 256, 512, 768, 1024, 2048]]
    assert counts == sorted(counts)
    assert len(set(counts)) > 1
    assert counts[0] == (128 - 16) // 8 + 2


def test_fixed_patching_cuts_the_whole_window():
    # Lengths that are no multiple of the stride: a trimmed window would drop steps.
    cfg = MlfConfig(period_lengths=(20, 28, 36), horizon=1, n_patches=8, use_map=False)
    rng = np.random.default_rng(5)
    for n, params in zip(cfg.period_lengths, period_geometries(cfg)):
        windows = rng.standard_normal((2, n))
        assert params.fitted_len == n
        expected = patchify(windows, FIXED_PATCH_LEN, FIXED_PATCH_STRIDE)
        assert np.array_equal(make_patches(windows, params), expected)
        assert expected.shape == (2, FIXED_PATCH_LEN, params.n_patches)


# -- embedding ------------------------------------------------------------------


def test_embed_zero_projection_gives_positional_table():
    rng = np.random.default_rng(2)
    patches = Tensor(rng.standard_normal((2, 4, 6)))
    w_pos = Tensor(rng.standard_normal((3, 6)))
    out = embed(patches, Tensor(np.zeros((3, 4))), w_pos)
    assert np.allclose(out.data, np.broadcast_to(w_pos.data, (2, 3, 6)))


def test_embed_identity_columns_select_projection_columns():
    rng = np.random.default_rng(3)
    w_proj = Tensor(rng.standard_normal((3, 4)))
    patches = Tensor(np.eye(4)[None, :, :])  # identity columns
    out = embed(patches, w_proj, Tensor(np.zeros((3, 4))))
    assert np.allclose(out.data[0], w_proj.data)


def test_embed_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    patches = Tensor(rng.standard_normal((2, 4, 6)))
    w_proj = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w_pos = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    report = grad_check(lambda a, b: mean_all(embed(patches, a, b)), [w_proj, w_pos])
    assert report.passed, str(report)
