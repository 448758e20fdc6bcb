"""Patch squeeze: compression shapes, the shared encoder, reconstruction."""

import numpy as np
import pytest

from mlf.autograd import Tensor, backward, concat
from mlf.layers import ParamStore
from mlf.optim import Adam
from mlf.squeeze import (
    PatchEncoder,
    PeriodDecoder,
    reconstruction_loss,
    split_periods,
)

from gradcheck import grad_check, mean_all


def store(seed=0):
    return ParamStore(np.random.default_rng(seed))


def test_squeeze_output_token_count():
    enc = PatchEncoder(store(), "enc", 64, 8)
    out = enc(Tensor(np.random.default_rng(0).standard_normal((2, 16, 64))))
    assert out.shape == (2, 16, 8)


def test_squeeze_identity_when_r1():
    enc = PatchEncoder(store(), "enc", 6, 6)
    enc.lin.w.data[...] = np.eye(6)
    enc.lin.b.data[...] = 0.0
    x = Tensor(np.random.default_rng(1).standard_normal((3, 4, 6)))
    assert np.allclose(enc(x).data, x.data)


def test_squeeze_zero_input_gives_bias_columns():
    enc = PatchEncoder(store(), "enc", 8, 4)
    out = enc(Tensor(np.zeros((2, 5, 8))))
    assert np.allclose(out.data, np.broadcast_to(enc.lin.b.data, (2, 5, 4)))
    enc.lin.b.data[...] = 0.0
    assert np.allclose(enc(Tensor(np.zeros((2, 5, 8)))).data, 0.0)


def test_shared_encoder_param_count_independent_of_periods():
    st = store()
    PatchEncoder(st, "enc", 64, 8)
    count = sum(p.size for p in st.params.values())
    assert count == 64 * 8 + 8  # weight + bias, no per-period copies


def test_concat_and_split_are_inverse():
    rng = np.random.default_rng(2)
    blocks = [Tensor(rng.standard_normal((2, 3, 4))) for _ in range(6)]
    tokens = concat(blocks)
    assert tokens.shape == (2, 3, 24)
    back = split_periods(tokens, [(4 * s, 4 * s + 4) for s in range(6)])
    for a, b in zip(back, blocks):
        assert np.array_equal(a.data, b.data)


def test_concat_token_counts_by_squeeze_factor():
    # S=6 periods at 64 patches: 192/96/48 tokens for r=2/4/8.
    for r, expected in [(2, 192), (4, 96), (8, 48)]:
        blocks = [Tensor(np.zeros((1, 2, 64 // r))) for _ in range(6)]
        assert concat(blocks).shape[-1] == expected


def test_decoder_output_matches_raw_patch_shape():
    rng = np.random.default_rng(4)
    for d_model, patch_len, n_patches, n_sq in [(8, 4, 16, 8), (6, 2, 8, 2)]:
        dec = PeriodDecoder(store(), "dec", d_model, patch_len, n_patches, n_sq)
        out = dec(Tensor(rng.standard_normal((3, d_model, n_sq))))
        assert out.shape == (3, patch_len, n_patches)


def test_reconstruction_loss_examples():
    a = Tensor(np.ones((1, 2, 2)))
    assert float(reconstruction_loss([a], [a]).data) == 0.0
    # Per-period MSEs of 2 and 4 average to 3.
    zero = Tensor(np.zeros((1, 1, 2)))
    p1 = Tensor(np.array([[[np.sqrt(2.0), np.sqrt(2.0)]]]))
    p2 = Tensor(np.array([[[2.0, 2.0]]]))
    loss = reconstruction_loss([p1, p2], [zero, zero])
    assert float(loss.data) == pytest.approx(3.0)


def test_squeeze_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    st = store(5)
    enc = PatchEncoder(st, "enc", 8, 4)
    dec = PeriodDecoder(st, "dec", 4, 2, 8, 4)
    x = Tensor(rng.standard_normal((2, 4, 8)))
    raw = Tensor(rng.standard_normal((2, 2, 8)))

    def f(*params):
        return reconstruction_loss([dec(enc(x))], [raw])

    report = grad_check(f, list(st.params.values()))
    assert report.passed, str(report)


def test_overfit_single_input_reconstruction():
    # r=1 squeeze + decoders driven to reproduce one fixed input.
    rng = np.random.default_rng(6)
    st = store(6)
    enc = PatchEncoder(st, "enc", 8, 8)
    dec = PeriodDecoder(st, "dec", 4, 2, 8, 8)
    embedded = Tensor(rng.standard_normal((1, 4, 8)))
    raw = Tensor(rng.standard_normal((1, 2, 8)))
    adam = Adam(st.params, lr=1e-2)
    loss_value = None
    for _ in range(2000):
        loss = reconstruction_loss([dec(enc(embedded))], [raw])
        loss_value = float(loss.data)
        if loss_value < 1e-4:
            break
        for p in st.params.values():
            p.grad = None
        backward(loss)
        adam.step()
    assert loss_value < 1e-4, loss_value
