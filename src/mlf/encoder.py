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
Without IRF no head keeps a branch. Without attention the model builds no
`EncoderBlock`: the heads read the squeezed tokens, with no norm or feed-forward.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, add, concat, in_halves, matmul, mul, relu, reshape, softmax, transpose
from .layers import BatchNorm, ChannelLinear, Linear, ParamStore


class EncoderBlock:
    """Multi-head self-attention + batch norm + feed-forward, residual style.

    Input and output are (B, D, N_tok). Q, K and V are each one (H, D, d_k)
    parameter whose slice h is head h's projection; all heads run in one
    pass as a (D, D) channel-first projection split into (B, H, d_k, N).
    `scores` gives the attention scores that the block's output is made
    with, row-stochastic per head; the block itself returns only z.
    """

    def __init__(self, store: ParamStore, name: str, d_model: int, n_heads: int, d_ff: int):
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_k = d_model // n_heads
        self.d_ff = d_ff
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

    def __call__(self, x: Tensor, *, training: bool) -> Tensor:
        """z; every row is its own at inference, so a large batch runs in two halves."""
        n_tok = x.shape[-1]
        largest = max(self.d_model, self.d_ff, self.n_heads * n_tok) * n_tok  # per row: v, ff hidden, scores
        return in_halves(lambda half: self._attend(half, training=training), x, largest, training=training)

    def scores(self, x: Tensor) -> Tensor:
        """The row-stochastic attention scores of every head, (B, H, N, N):
        softmax(Q_h K_h^T / sqrt(d_k)) over the key axis."""
        q, k = (self._heads(w, x) for w in (self.w_q, self.w_k))
        scale = Tensor(1.0 / np.sqrt(self.d_k))
        return softmax(mul(matmul(transpose(q), k), scale, consume=True), consume=True)

    def _attend(self, x: Tensor, *, training: bool) -> Tensor:
        """The block on its own input."""
        batch, _, n_tok = x.shape
        scores = self.scores(x)  # first, so that q and k are freed before v is made
        merged = reshape(matmul(self._heads(self.w_v, x), transpose(scores)), (batch, self.d_model, n_tok))
        del scores  # only the tape, if any, keeps it and v through the feed-forward
        # The fresh branch goes first in each residual add: `consume` may overwrite only that operand.
        u = self.norm_attn(add(matmul(transpose(self.w_out), merged), x, consume=True), training=training)
        f = self.ff_out(relu(self.ff_in(u), consume=True))
        return self.norm_ff(add(f, u, consume=True), training=training)


class SppHead:
    """Single-period processing: forecast branch + optional redundancy branch.

    Both branches are linear maps over the flattened (D * N_block) period
    block; the redundancy output is reshaped back to block shape so it can
    be subtracted from longer periods. `redundancy` is the store the branch
    draws into, or None. The head keeps the branch only when that store is
    its own; drawn into another, it only spends its draws. A head without a
    branch returns None in its place.
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        d_model: int,
        block_tokens: int,
        horizon: int,
        redundancy: ParamStore | None = None,
    ):
        self.d_model = d_model
        self.block_tokens = block_tokens
        flat = d_model * block_tokens
        self.forecast = Linear(store, f"{name}.forecast", flat, horizon)
        branch = None if redundancy is None else Linear(redundancy, f"{name}.redundancy", flat, flat)
        self.redundancy = branch if redundancy is store else None

    def __call__(self, block: Tensor) -> tuple[Tensor, Tensor | None]:
        batch = block.shape[0]
        flat = reshape(block, (batch, self.d_model * self.block_tokens))
        forecast = self.forecast(flat)
        if self.redundancy is None:
            return forecast, None
        eps = reshape(self.redundancy(flat), (batch, self.d_model, self.block_tokens))
        return forecast, eps


def irf_filter(blocks: list[Tensor], epsilons: list[Tensor | None], d_k: int) -> list[Tensor]:
    """Subtract every shorter period's scaled redundancy estimate, by adding
    its negation: IEEE negation is exact, so the bits are the subtraction's.

    blocks are ordered shortest to longest; block s loses
    sum_{j<s} eps_j / sqrt(d_k), so the shortest passes through untouched
    and the longest period's estimate (which may be None) is never read.
    When token counts differ (fixed-geometry ablation) the shorter estimate
    covers only its own token span and the remainder is left as is.
    """
    scale = -1.0 / np.sqrt(d_k)
    filtered = [blocks[0]]
    running: Tensor | None = None
    for s in range(1, len(blocks)):
        prev = scale * epsilons[s - 1]
        running = prev if running is None else _match_tokens(running, prev.shape[-1]) + prev
        filtered.append(blocks[s] + _match_tokens(running, blocks[s].shape[-1]))
    return filtered


def _match_tokens(x: Tensor, n_tokens: int) -> Tensor:
    """Zero-pad the token axis up to n_tokens (block sizes never shrink)."""
    have = x.shape[-1]
    if have == n_tokens:
        return x
    pad = Tensor(np.zeros(x.shape[:-1] + (n_tokens - have,)))
    return concat([x, pad])
