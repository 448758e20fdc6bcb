"""Encoder blocks: attention, period heads, and redundancy filtering."""

import numpy as np
import pytest

import mlf.model
from mlf.autograd import (
    Tensor,
    add,
    average,
    backward,
    concat,
    matmul,
    mse,
    relu,
    softmax,
    transpose,
)
from mlf.encoder import EncoderBlock, SppHead, irf_filter
from mlf.layers import ParamStore
from mlf.model import MlfConfig, build_model

from gradcheck import grad_check, mean_all


def store(seed=0):
    return ParamStore(np.random.default_rng(seed))


def test_attention_scores_are_convex_weights():
    # Rows of softmax scores applied to identical value rows reproduce them.
    rng = np.random.default_rng(0)
    scores = softmax(Tensor(rng.standard_normal((1, 5, 5))))
    value = np.tile(rng.standard_normal((1, 1, 3)), (1, 5, 1))
    out = matmul(scores, Tensor(value))
    assert np.allclose(out.data, value, atol=1e-12)


def test_single_token_attention_is_identity_on_values():
    scores = softmax(Tensor(np.random.default_rng(1).standard_normal((2, 1, 1))))
    assert np.allclose(scores.data, 1.0)


def test_block_preserves_shape_and_scores_are_stochastic():
    rng = np.random.default_rng(2)
    block = EncoderBlock(store(2), "b", 8, 2, 16)
    x = Tensor(rng.standard_normal((3, 8, 6)))
    z = block(x, training=True)
    scores = block.scores(x).data
    assert z.shape == (3, 8, 6)
    assert scores.shape == (3, 2, 6, 6)
    assert np.max(np.abs(scores.sum(axis=-1) - 1.0)) <= 1e-6


def test_block_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    st = store(3)
    block = EncoderBlock(st, "b", 4, 2, 8)
    x = Tensor(rng.standard_normal((2, 4, 6)))

    def f(*params):
        z = block(x, training=True)
        return mean_all(z * z)

    report = grad_check(f, list(st.params.values()))
    assert report.passed, str(report)


def test_stacked_projections_are_the_per_head_draws():
    # One (H, D, d_k) draw per projection consumes the init stream exactly as
    # H separate (D, d_k) draws, so slice h is head h's own draw and every
    # later draw is unchanged.
    d_model, n_heads = 8, 4
    st = store(5)
    block = EncoderBlock(st, "b", d_model, n_heads, 16)
    attention = {name: p.shape for name, p in st.params.items() if name.startswith("b.w")}
    assert attention == {"b.wq": (4, 8, 2), "b.wk": (4, 8, 2), "b.wv": (4, 8, 2), "b.wo": (8, 8)}
    rng = np.random.default_rng(5)
    bound = 1.0 / np.sqrt(d_model)
    for w in (block.w_q, block.w_k, block.w_v):
        for h in range(n_heads):
            assert np.array_equal(w.data[h], rng.uniform(-bound, bound, size=(d_model, 2)))
    assert np.array_equal(block.w_out.data, rng.uniform(-bound, bound, size=(d_model, d_model)))


def per_head_block(block, x, w_q, w_k, w_v):
    """Reference: the block with one loop iteration and one weight per head."""
    tokens = transpose(x)  # (B, N, D)
    scale = 1.0 / np.sqrt(block.d_k)
    heads, scores = [], []
    for h in range(block.n_heads):
        q, k, v = (matmul(tokens, w[h]) for w in (w_q, w_k, w_v))  # (B, N, d_k)
        s = softmax(scale * matmul(q, transpose(k)))
        scores.append(s.data)
        heads.append(matmul(s, v))
    merged = matmul(concat(heads), block.w_out)
    u = block.norm_attn(add(x, transpose(merged)), training=True)
    z = block.norm_ff(add(u, block.ff_out(relu(block.ff_in(u)))), training=True)
    return z, np.stack(scores)


def test_batched_block_matches_per_head_reference():
    # Desk shape: D = 8, H = 4, three periods of 4 squeezed tokens.
    st = store(8)
    block = EncoderBlock(st, "b", 8, 4, 16)
    x = Tensor(np.random.default_rng(8).standard_normal((16, 8, 12)))

    z = block(x, training=True)
    scores = block.scores(x).data.swapaxes(0, 1)  # (H, B, N, N), as the reference stacks them
    backward(mean_all(z * z))
    batched = {name: p.grad for name, p in st.params.items()}

    for p in st.params.values():
        p.grad = None
    per_head = [
        [Tensor(w.data[h].copy(), requires_grad=True) for h in range(4)]
        for w in (block.w_q, block.w_k, block.w_v)
    ]
    z_ref, scores_ref = per_head_block(block, x, *per_head)
    backward(mean_all(z_ref * z_ref))

    assert np.array_equal(z.data, z_ref.data)
    assert np.array_equal(scores, scores_ref)
    for name, heads in zip(("b.wq", "b.wk", "b.wv"), per_head):
        np.testing.assert_allclose(batched[name], np.stack([t.grad for t in heads]), rtol=1e-12, atol=0)
    for name, p in st.params.items():
        if name not in ("b.wq", "b.wk", "b.wv"):
            np.testing.assert_allclose(batched[name], p.grad, rtol=1e-12, atol=0, err_msg=name)


# -- single-period heads ---------------------------------------------------------


def test_spp_output_shapes():
    st = store()
    head = SppHead(st, "h", 4, 3, 5, redundancy=st)
    f, eps = head(Tensor(np.random.default_rng(4).standard_normal((2, 4, 3))))
    assert f.shape == (2, 5)
    assert eps.shape == (2, 4, 3)
    st = store()
    bare = SppHead(st, "h", 4, 3, 5)
    f, eps = bare(Tensor(np.random.default_rng(4).standard_normal((2, 4, 3))))
    assert f.shape == (2, 5) and eps is None
    assert sorted(st.params) == ["h.forecast.b", "h.forecast.w"]


def test_spp_branch_drawn_into_a_spare_store_spends_its_draws_and_never_runs(monkeypatch):
    """The head keeps only its forecast branch, bit-equal to a full head's, and
    the next draw from the shared stream is the one after a full head."""
    full_store, rng = store(9), np.random.default_rng(9)
    own, spare = ParamStore(rng), ParamStore(rng)
    full = SppHead(full_store, "h", 4, 3, 5, redundancy=full_store)
    head = SppHead(own, "h", 4, 3, 5, redundancy=spare)
    assert sorted(own.params) == ["h.forecast.b", "h.forecast.w"] and head.redundancy is None
    assert sorted(spare.params) == ["h.redundancy.b", "h.redundancy.w"]
    for name, p in own.params.items():
        assert np.array_equal(p.data, full_store.params[name].data), name
    assert rng.uniform() == full_store.rng.uniform()
    calls = []
    monkeypatch.setattr(type(head.forecast), "__call__", lambda self, x: calls.append(self) or x)
    _, eps = head(Tensor(np.zeros((2, 4, 3))))
    assert eps is None and calls == [head.forecast]


def test_spp_zero_weights_zero_outputs():
    st = store()
    head = SppHead(st, "h", 4, 3, 5, redundancy=st)
    for p in st.params.values():
        p.data[...] = 0.0
    f, eps = head(Tensor(np.random.default_rng(5).standard_normal((1, 4, 3))))
    assert np.allclose(f.data, 0.0) and np.allclose(eps.data, 0.0)


def test_spp_forecast_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    st = store(6)
    head = SppHead(st, "h", 3, 4, 2)
    block = Tensor(rng.standard_normal((2, 3, 4)))
    target = Tensor(rng.standard_normal((2, 2)))

    def f(w, b):
        fore, _ = head(block)
        return mse(fore, target)

    report = grad_check(f, [head.forecast.w, head.forecast.b])
    assert report.passed, str(report)


# -- redundancy filtering -----------------------------------------------------------


def test_irf_zero_epsilon_is_identity():
    rng = np.random.default_rng(7)
    blocks = [Tensor(rng.standard_normal((2, 3, 4))) for _ in range(3)]
    eps = [Tensor(np.zeros((2, 3, 4))) for _ in range(3)]
    out = irf_filter(blocks, eps, d_k=4)
    for a, b in zip(out, blocks):
        assert np.array_equal(a.data, b.data)


def test_irf_shortest_period_passes_through():
    rng = np.random.default_rng(8)
    blocks = [Tensor(rng.standard_normal((1, 2, 2))) for _ in range(2)]
    eps = [Tensor(rng.standard_normal((1, 2, 2))) for _ in range(2)]
    out = irf_filter(blocks, eps, d_k=9)
    assert out[0] is blocks[0]


def test_irf_scalar_example():
    # z2 = 1, eps1 = 2, d_k = 4 -> filtered z2 = 1 - 2/2 = 0. The longest
    # period has no redundancy branch, so its slot is None.
    blocks = [Tensor(np.full((1, 1, 1), 5.0)), Tensor(np.ones((1, 1, 1)))]
    eps = [Tensor(np.full((1, 1, 1), 2.0)), None]
    out = irf_filter(blocks, eps, d_k=4)
    assert out[1].data.reshape(()) == pytest.approx(0.0)


def test_irf_subtracts_all_shorter_periods():
    ones = np.ones((1, 1, 1))
    blocks = [Tensor(ones * 10.0) for _ in range(3)]
    eps = [Tensor(ones * 4.0), Tensor(ones * 8.0), Tensor(ones * 100.0)]
    out = irf_filter(blocks, eps, d_k=4)
    assert out[1].data.reshape(()) == pytest.approx(10.0 - 4.0 / 2.0)
    assert out[2].data.reshape(()) == pytest.approx(10.0 - (4.0 + 8.0) / 2.0)


def irf_reference(blocks, epsilons, d_k):
    """irf_filter in plain numpy, with subtraction: block s minus the running
    sum of the shorter periods' estimates scaled by 1/sqrt(d_k), each
    estimate zero-padded on the token axis to the longer block."""
    def pad(x, n_tokens):
        return np.concatenate([x, np.zeros(x.shape[:-1] + (n_tokens - x.shape[-1],))], axis=-1)

    scale = 1.0 / np.sqrt(d_k)
    filtered, running = [blocks[0]], None
    for s in range(1, len(blocks)):
        prev = scale * epsilons[s - 1]
        running = prev if running is None else pad(running, prev.shape[-1]) + prev
        filtered.append(blocks[s] - pad(running, blocks[s].shape[-1]))
    return filtered


@pytest.mark.parametrize("tokens", [(4, 4, 4), (1, 2, 4)], ids=["equal", "wo-map"])
def test_irf_filter_is_the_subtracting_reference_bit_for_bit(tokens):
    # (1, 2, 4) are the desk `w/o map` block sizes, which go through _match_tokens.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        blocks = [rng.standard_normal((16, 8, n)) for n in tokens]
        eps = [rng.standard_normal((16, 8, n)) for n in tokens[:-1]] + [None]
        for d_k in (2, 3):
            out = irf_filter([Tensor(b) for b in blocks], [e if e is None else Tensor(e) for e in eps], d_k)
            for got, want in zip(out, irf_reference(blocks, eps, d_k)):
                assert got.data.tobytes() == want.tobytes(), (seed, d_k)


def test_irf_preserves_shapes_and_pads_unequal_blocks():
    rng = np.random.default_rng(9)
    shapes = [(1, 2, 2), (1, 2, 3), (1, 2, 5)]
    blocks = [Tensor(rng.standard_normal(s)) for s in shapes]
    eps = [Tensor(rng.standard_normal(s)) for s in shapes]
    out = irf_filter(blocks, eps, d_k=1)
    for t, s in zip(out, shapes):
        assert t.shape == s
    # Beyond the shorter period's span the longer block is untouched.
    assert np.allclose(out[1].data[..., 2], blocks[1].data[..., 2])


def test_block_aggregation_examples():
    # block_forecasts[e][s]; the forward pass averages each period over blocks.
    one = Tensor(np.full((1, 2), 1.0))
    three = Tensor(np.full((1, 2), 3.0))
    avg = [average(per_block) for per_block in zip(*[[one], [three]])]
    assert np.allclose(avg[0].data, 2.0)
    solo = [average(per_block) for per_block in zip(*[[three]])]
    assert np.array_equal(solo[0].data, three.data)
    multi = [average(per_block) for per_block in zip(*[[one, three], [three, three]])]
    assert len(multi) == 2 and multi[0].shape == (1, 2)
    assert np.allclose(multi[0].data, 2.0) and np.array_equal(multi[1].data, three.data)


# -- encoder stack behavior through the full model ------------------------------------


TOY = MlfConfig(
    period_lengths=(4, 8),
    horizon=2,
    n_patches=4,
    squeeze_factor=2,
    d_model=4,
    n_heads=2,
    n_blocks=2,
    d_ff=8,
    conv_filters=4,
)


def test_attention_rows_sum_to_one_in_model():
    model = build_model(TOY, seed=0)
    rng = np.random.default_rng(10)
    windows = [rng.standard_normal((3, n)) for n in TOY.period_lengths]
    bundle = model.forward(windows, training=True, collect_attention=True)
    for scores in bundle.attention_scores:
        assert np.max(np.abs(scores.sum(axis=-1) - 1.0)) <= 1e-6


def test_disabling_irf_changes_outputs():
    from mlf.model import apply_ablation

    rng = np.random.default_rng(11)
    windows = [rng.standard_normal((2, n)) for n in TOY.period_lengths]
    base = build_model(TOY, seed=0).forward(windows, training=False)
    ablated = build_model(apply_ablation(TOY, "irf"), seed=0).forward(windows, training=False)
    assert not np.allclose(base.forecast.data, ablated.forecast.data)


def test_stacking_contract_blocks_consume_filtered_tokens(monkeypatch):
    block_inputs, filtered = [], []
    run_block, run_irf = EncoderBlock.__call__, mlf.model.irf_filter

    def record_block(self, x, **kwargs):
        block_inputs.append(x.data.copy())
        return run_block(self, x, **kwargs)

    def record_irf(*args):
        out = run_irf(*args)
        filtered.append(np.concatenate([t.data for t in out], axis=-1))
        return out

    monkeypatch.setattr(EncoderBlock, "__call__", record_block)
    monkeypatch.setattr(mlf.model, "irf_filter", record_irf)
    model = build_model(TOY, seed=0)
    rng = np.random.default_rng(12)
    windows = [rng.standard_normal((2, n)) for n in TOY.period_lengths]
    model.forward(windows, training=False)
    # Block e+1's input is exactly block e's re-concatenated filtered output;
    # nothing reads a filtered output of the last block, so none is made.
    assert len(filtered) == TOY.n_blocks - 1
    assert np.array_equal(block_inputs[1], filtered[0])
    # And filtering actually changed the tokens between blocks.
    assert not np.allclose(block_inputs[1], block_inputs[0])
