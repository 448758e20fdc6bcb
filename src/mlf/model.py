"""Model configuration, parameter assembly, forward pass, and training loss."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .autograd import ShapeError, Tensor, mse
from .encoder import EncoderBlock, SppHead, aggregate_block_forecasts, irf_filter
from .layers import ParamStore
from .lwi import WeightIntegrator, integrate, integrate_plain
from .patching import (
    PatchParams,
    derive_patch_params,
    embed,
    fixed_patch_params,
    make_patches,
)
from .squeeze import PatchEncoder, PeriodDecoder, concat_periods, reconstruction_loss, split_periods


class ConfigError(ValueError):
    """Invalid run/model configuration; the message names the bad field."""


ABLATION_FLAGS = ("irf", "lwi", "map", "ma", "reconstruction_loss")

# Geometry used when adaptive patching is ablated; a PatchTST-family choice.
FIXED_PATCH_LEN = 16
FIXED_PATCH_STRIDE = 8


@dataclass(frozen=True)
class MlfConfig:
    """Everything that determines model shapes and the training run."""

    period_lengths: tuple[int, ...]
    horizon: int
    n_patches: int = 64
    squeeze_factor: int = 8
    d_model: int = 64
    n_heads: int = 4
    n_blocks: int = 3
    d_ff: int = 0  # 0 means 2 * d_model
    conv_filters: int = 16
    patch_ratio: int = 2
    learning_rate: float = 1e-4
    batch_size: int = 128
    epochs: int = 30
    grad_clip: float = 0.0  # 0 disables clipping
    max_steps: int = 0  # 0 means no cap; useful for short runs
    use_map: bool = True
    use_irf: bool = True
    use_lwi: bool = True
    use_attention: bool = True
    use_reconstruction_loss: bool = True

    def __post_init__(self):
        object.__setattr__(self, "period_lengths", tuple(int(n) for n in self.period_lengths))
        validate_config(self)

    @property
    def n_periods(self) -> int:
        return len(self.period_lengths)

    @property
    def ff_width(self) -> int:
        return self.d_ff if self.d_ff > 0 else 2 * self.d_model

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["period_lengths"] = list(self.period_lengths)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "MlfConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown model config field(s): {unknown}")
        if "period_lengths" not in raw:
            raise ConfigError("missing required config field: model.period_lengths")
        if "horizon" not in raw:
            raise ConfigError("missing required config field: model.horizon")
        return cls(**raw)


def validate_config(cfg: MlfConfig) -> None:
    periods = cfg.period_lengths
    if not periods:
        raise ConfigError("model.period_lengths must not be empty")
    if any(n < 1 for n in periods):
        raise ConfigError(f"model.period_lengths must be positive, got {list(periods)}")
    if any(a >= b for a, b in zip(periods, periods[1:])):
        raise ConfigError(f"model.period_lengths must be strictly increasing, got {list(periods)}")
    if cfg.horizon < 1:
        raise ConfigError(f"model.horizon must be >= 1, got {cfg.horizon}")
    if cfg.n_patches < 2:
        raise ConfigError(f"model.n_patches must be >= 2, got {cfg.n_patches}")
    if cfg.squeeze_factor not in (1, 2, 4, 8):
        raise ConfigError(f"model.squeeze_factor must be one of 1/2/4/8, got {cfg.squeeze_factor}")
    if cfg.n_patches % cfg.squeeze_factor != 0:
        raise ConfigError(
            f"model.n_patches ({cfg.n_patches}) must be divisible by squeeze_factor ({cfg.squeeze_factor})"
        )
    if cfg.d_model < 1 or cfg.n_heads < 1 or cfg.d_model % cfg.n_heads != 0:
        raise ConfigError(f"model.d_model ({cfg.d_model}) must be a positive multiple of n_heads ({cfg.n_heads})")
    if cfg.n_blocks < 1:
        raise ConfigError(f"model.n_blocks must be >= 1, got {cfg.n_blocks}")
    if cfg.patch_ratio < 1:
        raise ConfigError(f"model.patch_ratio must be >= 1, got {cfg.patch_ratio}")
    if cfg.batch_size < 1:
        raise ConfigError(f"model.batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.epochs < 0 or cfg.learning_rate < 0:
        raise ConfigError("model.epochs and model.learning_rate must be non-negative")
    if not cfg.use_map:
        floor = FIXED_PATCH_LEN - FIXED_PATCH_STRIDE
        short = [n for n in periods if n < floor]
        if short:
            raise ConfigError(
                f"model.period_lengths {short} too short for fixed patching "
                f"(the adaptive-patching ablation needs lengths >= {floor})"
            )


@dataclass(frozen=True)
class PeriodGeometry:
    """Patch layout and squeezed token count for one period."""

    params: PatchParams
    n_squeezed: int


def period_geometries(cfg: MlfConfig) -> list[PeriodGeometry]:
    geoms = []
    for n in cfg.period_lengths:
        if cfg.use_map:
            params = derive_patch_params(n, cfg.n_patches, cfg.patch_ratio)
            squeezed = cfg.n_patches // cfg.squeeze_factor
        else:
            params = fixed_patch_params(n, FIXED_PATCH_LEN, FIXED_PATCH_STRIDE)
            # Patch counts vary per period here; keep at least one token.
            squeezed = max(1, -(-params.n_patches // cfg.squeeze_factor))
        geoms.append(PeriodGeometry(params, squeezed))
    return geoms


@dataclass
class ForecastBundle:
    """Forward-pass products needed for the loss, metrics, and diagnostics."""

    forecast: Tensor  # (B, m) integrated prediction
    period_forecasts: list[Tensor]  # S x (B, m), block-averaged
    block_forecasts: list[list[Tensor]]  # E x S x (B, m)
    att: Tensor | None  # (B, S, m) integration weights
    reconstructions: list[Tensor]  # S x (B, L_s, N_s)
    raw_patches: list[Tensor]  # S x (B, L_s, N_s) constants
    token_ranges: list[tuple[int, int]]  # per-period token spans
    attention_scores: list[np.ndarray] | None = None  # E x (H, B, N, N)


@dataclass
class LossBreakdown:
    total: Tensor
    forecast_term: float
    reconstruction_term: float


def seed_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """One master seed, two independent streams: weight init and shuffling.

    Keeping the streams separate lets ablated variants share initialization
    whenever their parameter shapes match.
    """
    init_ss, shuffle_ss = np.random.SeedSequence(int(seed)).spawn(2)
    return np.random.default_rng(init_ss), np.random.default_rng(shuffle_ss)


class MlfModel:
    """All trainable state plus the forward pass.

    Parameters for every stage are created regardless of ablation flags
    (flags only reroute the forward pass), so variants with equal shapes
    start from identical weights under the same seed. SPP heads carry a
    redundancy branch only where the base forward pass reads it: in blocks
    before the last, for periods shorter than the longest, whose estimates
    filter the next block's input. Each block's attention is four tensors:
    per-head Q, K and V stacked as (H, D, d_k) and the (D, D) output map.
    """

    def __init__(self, config: MlfConfig, rng: np.random.Generator):
        self.config = config
        self.geometries = period_geometries(config)
        store = ParamStore(rng)
        self.store = store
        cfg = config

        # Per-period patch embeddings: projection into model space plus a
        # learned positional table.
        self.w_proj: list[Tensor] = []
        self.w_pos: list[Tensor] = []
        for s, geom in enumerate(self.geometries):
            length = geom.params.patch_len
            self.w_proj.append(store.uniform(f"embed.p{s}.proj", (cfg.d_model, length), 1.0 / np.sqrt(length)))
            self.w_pos.append(store.normal(f"embed.p{s}.pos", (cfg.d_model, geom.params.n_patches), 0.02))

        # Squeeze encoder: one shared map under adaptive patching; per-period
        # maps when patch counts differ (adaptive-patching ablation).
        if cfg.use_map:
            shared = PatchEncoder(store, "squeeze.enc", cfg.n_patches, cfg.n_patches // cfg.squeeze_factor)
            self.patch_encoders = [shared] * cfg.n_periods
        else:
            self.patch_encoders = [
                PatchEncoder(store, f"squeeze.enc.p{s}", g.params.n_patches, g.n_squeezed)
                for s, g in enumerate(self.geometries)
            ]
        self.decoders = [
            PeriodDecoder(
                store,
                f"squeeze.dec.p{s}",
                cfg.d_model,
                g.params.patch_len,
                g.params.n_patches,
                g.n_squeezed,
            )
            for s, g in enumerate(self.geometries)
        ]

        self.blocks = [
            EncoderBlock(store, f"block{e}", cfg.d_model, cfg.n_heads, cfg.ff_width)
            for e in range(cfg.n_blocks)
        ]
        self.spp_heads = [
            [
                SppHead(
                    store,
                    f"block{e}.spp.p{s}",
                    cfg.d_model,
                    g.n_squeezed,
                    cfg.horizon,
                    redundancy=e < cfg.n_blocks - 1 and s < cfg.n_periods - 1,
                )
                for s, g in enumerate(self.geometries)
            ]
            for e in range(cfg.n_blocks)
        ]

        self.integrator = WeightIntegrator(
            store,
            "lwi",
            cfg.n_periods,
            cfg.horizon,
            cfg.period_lengths[-1],
            cfg.conv_filters,
        )

        sizes = [g.n_squeezed for g in self.geometries]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        self.block_sizes = sizes
        self.token_ranges = [(int(starts[s]), int(starts[s + 1])) for s in range(cfg.n_periods)]

    # -- parameter plumbing -------------------------------------------------

    @property
    def params(self) -> dict[str, Tensor]:
        return self.store.params

    @property
    def buffers(self) -> dict[str, np.ndarray]:
        return self.store.buffers

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer, for checkpoints/snapshots."""
        out = {name: p.data.copy() for name, p in self.params.items()}
        out.update({name: b.copy() for name, b in self.buffers.items()})
        return out

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        expected = set(self.params) | set(self.buffers)
        missing = expected - set(state)
        extra = set(state) - expected
        if missing or extra:
            raise ShapeError(f"state mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for name, p in self.params.items():
            if p.data.shape != state[name].shape:
                raise ShapeError(f"parameter {name}: shape {state[name].shape} != {p.data.shape}")
            p.data[...] = state[name]
        for name, b in self.buffers.items():
            b[...] = state[name]

    # -- forward --------------------------------------------------------------

    def forward(
        self,
        windows: list[np.ndarray],
        *,
        training: bool,
        collect_diagnostics: bool = False,
    ) -> ForecastBundle:
        """Training mode normalizes with batch statistics and updates the running
        estimates; collect_diagnostics keeps each block's attention scores."""
        cfg = self.config
        if len(windows) != cfg.n_periods:
            raise ShapeError(f"expected {cfg.n_periods} period windows, got {len(windows)}")
        batch = windows[0].shape[0]
        for s, (w, n) in enumerate(zip(windows, cfg.period_lengths)):
            if w.ndim != 2 or w.shape != (batch, n):
                raise ShapeError(f"period {s} window must be (B, {n}), got {w.shape}")

        raw_patches: list[Tensor] = []
        squeezed: list[Tensor] = []
        reconstructions: list[Tensor] = []
        for s, geom in enumerate(self.geometries):
            patches = Tensor(make_patches(windows[s], geom.params, adaptive=cfg.use_map))
            raw_patches.append(patches)
            embedded = embed(patches, self.w_proj[s], self.w_pos[s])  # (B, D, N_s)
            compact = self.patch_encoders[s](embedded)  # (B, D, N_s/r)
            squeezed.append(compact)
            reconstructions.append(self.decoders[s](compact))

        tokens = concat_periods(squeezed)  # (B, D, N_tok)
        block_forecasts: list[list[Tensor]] = []
        attention_scores: list[np.ndarray] | None = [] if collect_diagnostics else None

        for e, block in enumerate(self.blocks):
            if cfg.use_attention:
                z, scores = block(tokens, training=training, collect_scores=collect_diagnostics)
                if collect_diagnostics:
                    attention_scores.append(scores)
            else:
                z = tokens
            period_blocks = split_periods(z, self.block_sizes)
            forecasts = []
            epsilons = []
            for s, head in enumerate(self.spp_heads[e]):
                f, eps = head(period_blocks[s])
                forecasts.append(f)
                epsilons.append(eps)
            block_forecasts.append(forecasts)
            if e == cfg.n_blocks - 1:
                break  # no later block reads the filtered tokens
            tokens = concat_periods(irf_filter(period_blocks, epsilons, cfg.d_k)) if cfg.use_irf else z

        period_forecasts = aggregate_block_forecasts(block_forecasts)
        att = None
        if cfg.use_lwi:
            longest = Tensor(windows[-1])
            att = self.integrator(longest, training=training)
            forecast = integrate(period_forecasts, att)
        else:
            forecast = integrate_plain(period_forecasts)

        return ForecastBundle(
            forecast=forecast,
            period_forecasts=period_forecasts,
            block_forecasts=block_forecasts,
            att=att,
            reconstructions=reconstructions,
            raw_patches=raw_patches,
            token_ranges=self.token_ranges,
            attention_scores=attention_scores,
        )


def build_model(config: MlfConfig, seed: int = 0) -> MlfModel:
    init_rng, _ = seed_streams(seed)
    return MlfModel(config, init_rng)


def mlf_loss(bundle: ForecastBundle, target: np.ndarray, *, use_reconstruction: bool = True) -> LossBreakdown:
    """Forecast MSE plus (optionally) the mean per-period reconstruction MSE."""
    forecast_term = mse(bundle.forecast, Tensor(target))
    if use_reconstruction:
        recon_term = reconstruction_loss(bundle.reconstructions, bundle.raw_patches)
        total = forecast_term + recon_term
        return LossBreakdown(total, float(forecast_term.data), float(recon_term.data))
    return LossBreakdown(forecast_term, float(forecast_term.data), 0.0)


def apply_ablation(config: MlfConfig, flag: str) -> MlfConfig:
    """Config variant with one component switched off."""
    mapping = {
        "irf": {"use_irf": False},
        "lwi": {"use_lwi": False},
        "map": {"use_map": False},
        "ma": {"use_attention": False},
        "reconstruction_loss": {"use_reconstruction_loss": False},
    }
    if flag not in mapping:
        raise ConfigError(f"unknown ablation flag {flag!r}, expected one of {list(ABLATION_FLAGS)}")
    return replace(config, **mapping[flag])
