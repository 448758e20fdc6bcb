"""Encoder blocks: multi-head attention over the pooled period tokens,
per-period heads, and cross-period redundancy subtraction.

Attention runs every head in one batched pass (arXiv 1706.03762): Q, K and V
are each one stacked (H, D, d_k) parameter, so a block has one softmax and a
fixed number of tape nodes whatever the head count.

Each block attends over the concatenation of every period's squeezed tokens,
then processes each period block separately: a linear head emits that
period's forecast and, through a second branch, an estimate of the
information it duplicates into longer periods. The estimate, scaled by
1/sqrt(d_k), is subtracted from all longer periods' blocks before the next
encoder block, so stacking blocks filters the overlap progressively.

Only estimates that a later block reads get a redundancy branch: the heads of
every block but the last, for every period but the longest. The longest
period has no longer period to filter, and nothing follows the last block.
"""

from __future__ import annotations

import numpy as np

from .autograd import ShapeError, Tensor, add, concat, matmul, relu, reshape, softmax, transpose
from .layers import BatchNorm, ChannelLinear, Linear, ParamStore


class EncoderBlock:
    """Multi-head self-attention + batch norm + feed-forward, residual style.

    Input and output are (B, D, N_tok). Q, K and V are each one (H, D, d_k)
    parameter whose slice h is head h's projection; all heads run in one
    pass as a (D, D) channel-first projection split into (B, H, d_k, N).
    Scores are row-stochastic per head.
    """

    def __init__(self, store: ParamStore, name: str, d_model: int, n_heads: int, d_ff: int):
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by {n_heads} heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        bound = 1.0 / np.sqrt(d_model)
        stacked = (n_heads, d_model, self.d_k)
        self.w_q = store.uniform(f"{name}.wq", stacked, bound)
        self.w_k = store.uniform(f"{name}.wk", stacked, bound)
        self.w_v = store.uniform(f"{name}.wv", stacked, bound)
        self.w_out = store.uniform(f"{name}.wo", (d_model, d_model), bound)
        self.norm_attn = BatchNorm(store, f"{name}.bn_attn", d_model)
        self.ff_in = ChannelLinear(store, f"{name}.ff_in", d_model, d_ff)
        self.ff_out = ChannelLinear(store, f"{name}.ff_out", d_ff, d_model)
        self.norm_ff = BatchNorm(store, f"{name}.bn_ff", d_model)

    def _heads(self, w: Tensor, x: Tensor) -> Tensor:
        """(B, D, N) -> (B, H, d_k, N); row h * d_k + j of the (D, D) view is w[h][:, j]."""
        batch, _, n_tok = x.shape
        proj = matmul(reshape(transpose(w), (self.d_model, self.d_model)), x)
        return reshape(proj, (batch, self.n_heads, self.d_k, n_tok))

    def __call__(
        self, x: Tensor, *, training: bool, collect_scores: bool = False
    ) -> tuple[Tensor, np.ndarray | None]:
        """Returns (z, scores); scores is (H, B, N, N) when collected."""
        batch, _, n_tok = x.shape
        q, k, v = (self._heads(w, x) for w in (self.w_q, self.w_k, self.w_v))
        scale = 1.0 / np.sqrt(self.d_k)
        scores = softmax(scale * matmul(transpose(q), k), axis=-1)  # (B, H, N, N)
        merged = reshape(matmul(v, transpose(scores)), (batch, self.d_model, n_tok))
        u = self.norm_attn(add(x, matmul(transpose(self.w_out), merged)), training=training)
        f = self.ff_out(relu(self.ff_in(u)))
        z = self.norm_ff(add(u, f), training=training)
        return z, scores.data.swapaxes(0, 1) if collect_scores else None


class SppHead:
    """Single-period processing: forecast branch + optional redundancy branch.

    Both branches are linear maps over the flattened (D * N_block) period
    block; the redundancy output is reshaped back to block shape so it can
    be subtracted from longer periods. A head built without the redundancy
    branch returns None in its place.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        d_model: int,
        block_tokens: int,
        horizon: int,
        redundancy: bool = True,
    ):
        self.d_model = d_model
        self.block_tokens = block_tokens
        flat = d_model * block_tokens
        self.forecast = Linear(store, f"{name}.forecast", flat, horizon)
        self.redundancy = Linear(store, f"{name}.redundancy", flat, flat) if redundancy else None

    def __call__(self, block: Tensor) -> tuple[Tensor, Tensor | None]:
        batch = block.shape[0]
        flat = reshape(block, (batch, self.d_model * self.block_tokens))
        forecast = self.forecast(flat)
        if self.redundancy is None:
            return forecast, None
        eps = reshape(self.redundancy(flat), (batch, self.d_model, self.block_tokens))
        return forecast, eps


def irf_filter(blocks: list[Tensor], epsilons: list[Tensor | None], d_k: int) -> list[Tensor]:
    """Subtract every shorter period's scaled redundancy estimate.

    blocks are ordered shortest to longest; block s loses
    sum_{j<s} eps_j / sqrt(d_k), so the shortest passes through untouched
    and the longest period's estimate (which may be None) is never read.
    When token counts differ (fixed-geometry ablation) the shorter estimate
    covers only its own token span and the remainder is left as is.
    """
    scale = 1.0 / np.sqrt(d_k)
    filtered = [blocks[0]]
    running: Tensor | None = None
    for s in range(1, len(blocks)):
        prev = scale * epsilons[s - 1]
        running = prev if running is None else _match_tokens(running, prev.shape[-1]) + prev
        filtered.append(blocks[s] - _match_tokens(running, blocks[s].shape[-1]))
    return filtered


def _match_tokens(x: Tensor, n_tokens: int) -> Tensor:
    """Zero-pad the token axis up to n_tokens (block sizes never shrink)."""
    have = x.shape[-1]
    if have == n_tokens:
        return x
    if have > n_tokens:
        raise ShapeError(f"redundancy block has {have} tokens but target has {n_tokens}")
    pad = Tensor(np.zeros(x.shape[:-1] + (n_tokens - have,)))
    return concat([x, pad], axis=-1)


def aggregate_block_forecasts(block_forecasts: list[list[Tensor]]) -> list[Tensor]:
    """Average each period's forecasts over the encoder blocks.

    block_forecasts[e][s] is (B, m); the result keeps per-period order.
    """
    n_blocks = len(block_forecasts)
    n_periods = len(block_forecasts[0])
    averaged = []
    for s in range(n_periods):
        total = block_forecasts[0][s]
        for e in range(1, n_blocks):
            total = total + block_forecasts[e][s]
        averaged.append((1.0 / n_blocks) * total)
    return averaged
