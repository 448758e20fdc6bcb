"""Patch squeeze: compress each period's patch tokens, and decode them back.

A single linear map (shared by every period) shrinks the patch-index axis
from N to N/r before attention, cutting the token count the encoder sees.
Per-period decoders expand the squeezed embeddings back to raw-patch shape;
their reconstruction error is the auxiliary training loss that forces the
surviving tokens to keep the period's information.
"""

from __future__ import annotations

from .autograd import Tensor, average, concat, in_halves, mse, narrow, relu
from .layers import ChannelLinear, Linear, ParamStore


class PatchEncoder:
    """The shared squeeze map: one linear layer along the patch axis."""

    def __init__(self, store: ParamStore, name: str, n_patches: int, n_squeezed: int):
        self.lin = Linear(store, name, n_patches, n_squeezed)

    def __call__(self, x: Tensor) -> Tensor:
        # (B, D, N) -> (B, D, N/r); every embedding row shares the map.
        return self.lin(x)


class PeriodDecoder:
    """Expand one period's squeezed embeddings back to its raw patches.

    Two single-hidden-layer MLPs: the first restores the patch count along
    the token axis, the second maps embedding dimension to patch length.
    Hidden widths are max(input, output).
    """

    def __init__(
        self,
        store: ParamStore,
        name: str,
        d_model: int,
        patch_len: int,
        n_patches: int,
        n_squeezed: int,
    ):
        hidden_n = max(n_squeezed, n_patches)
        self.count_in = Linear(store, f"{name}.count_in", n_squeezed, hidden_n)
        self.count_out = Linear(store, f"{name}.count_out", hidden_n, n_patches)
        hidden_l = max(d_model, patch_len)
        self.len_in = ChannelLinear(store, f"{name}.len_in", d_model, hidden_l)
        self.len_out = ChannelLinear(store, f"{name}.len_out", hidden_l, patch_len)
        self.largest = max(d_model * hidden_n, hidden_l * n_patches)  # per row: the larger hidden activation

    def __call__(self, x: Tensor) -> Tensor:
        """Every row is its own and no batch norm reads batch statistics, so a
        large batch runs in two halves whenever nothing records."""
        return in_halves(self._decode, x, self.largest)

    def _decode(self, x: Tensor) -> Tensor:
        # (B, D, N/r) -> (B, D, N) -> (B, L, N)
        h = self.count_out(relu(self.count_in(x), consume=True))
        return self.len_out(relu(self.len_in(h), consume=True))


def concat_periods(squeezed: list[Tensor]) -> Tensor:
    """Join per-period token blocks, shortest period first, along the token axis."""
    if len(squeezed) == 1:
        return squeezed[0]
    return concat(squeezed)


def split_periods(tokens: Tensor, token_ranges: list[tuple[int, int]]) -> list[Tensor]:
    """Inverse of concat_periods: cut the token axis at each period's [start, end)."""
    return [narrow(tokens, -1, a, b - a) for a, b in token_ranges]


def reconstruction_loss(reconstructed: list[Tensor], raw: list[Tensor]) -> Tensor:
    """Mean over periods of the per-period raw-patch MSE."""
    return average([mse(rec, ref) for rec, ref in zip(reconstructed, raw)])
