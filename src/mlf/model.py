"""Model configuration, parameter assembly, forward pass, and training loss."""

from __future__ import annotations

import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import le

import numpy as np

from . import synth
from .autograd import ShapeError, Tensor, average, mse, no_grad
from .encoder import EncoderBlock, SppHead, irf_filter
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


ABLATIONS = {"irf": "use_irf", "lwi": "use_lwi", "map": "use_map", "ma": "use_attention",
             "reconstruction_loss": "use_reconstruction_loss"}
ABLATION_FLAGS = tuple(ABLATIONS)

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
        if isinstance(self.period_lengths, list):  # as JSON gives it
            object.__setattr__(self, "period_lengths", tuple(self.period_lengths))
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
        if not isinstance(raw, dict):
            raise ConfigError(f"model config must be a JSON object, got {raw!r}")
        if not raw.keys() <= MODEL_FIELDS.keys():  # reports the unknown keys; the constructor checks the rest
            check_section(raw, MODEL_FIELDS, "model.")
        for name in ("period_lengths", "horizon"):
            if name not in raw:
                raise ConfigError(f"missing required config field: model.{name}")
        return cls(**raw)


TYPE_NAMES = {"int": "an integer", "float": "a finite number", "bool": "true or false",
              "tuple[int, ...]": "a list of integers"}


def has_type(value, annotation: str) -> bool:
    """Whether `value` has the type of an MlfConfig field annotation, a key of
    TYPE_NAMES (which names it in error messages); a bool is no number."""
    if annotation == "tuple[int, ...]":
        return isinstance(value, tuple) and all(has_type(n, "int") for n in value)
    if isinstance(value, bool):
        return annotation == "bool"
    if annotation == "float":  # finite, and an int only within float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, int if annotation == "int" else bool)


# The least valid value of each numeric field that has one; 0 is the "off" or
# "default" value of d_ff, grad_clip and max_steps.
LEAST_VALUES = {"horizon": 1, "n_patches": 2, "n_blocks": 1, "batch_size": 1, "epochs": 0,
                "learning_rate": 0, "conv_filters": 1, "d_ff": 0, "grad_clip": 0, "max_steps": 0}


def check_section(node: dict, table: dict, prefix: str) -> None:
    """The one check of a config section. `table` maps each known key to a
    tuple of (test, what a valid value is) pairs, tried in order, or to the
    table of an object's own keys. An unknown key, or a value that fails a
    test, is a `ConfigError` that names its dotted path: `prefix` is the
    section's path and a dot ("" for the top level of a run config). An
    absent key is not checked."""
    if not node.keys() <= table.keys():
        raise ConfigError(f"{prefix[:-1] or 'config'} has unknown key(s): {sorted(node.keys() - table.keys())}")
    for key, value in node.items():
        rule = table[key]
        if not isinstance(rule, dict):
            for valid, what in rule:
                if not valid(value):
                    raise ConfigError(f"{prefix}{key} must be {what}, got {value!r}")
        elif isinstance(value, dict):
            check_section(value, rule, f"{prefix}{key}.")
        else:
            raise ConfigError(f"{prefix}{key} must be an object, got {value!r}")


# Each MlfConfig field -> the pair of its type, then the pair of its least
# value if it has one (`le(least, v)` is `v >= least`); built once.
MODEL_FIELDS = {
    f.name: ((lambda v, t=f.type: has_type(v, t), TYPE_NAMES[f.type]),)
    + (((partial(le, LEAST_VALUES[f.name]), f">= {LEAST_VALUES[f.name]}"),) if f.name in LEAST_VALUES else ())
    for f in fields(MlfConfig)
}
MODEL_FIELDS["squeeze_factor"] += ((lambda v: v in (1, 2, 4, 8), "one of 1/2/4/8"),)


def int_at_least(least: int) -> tuple:
    """The (test, what a valid value is) pair of an integer >= `least`."""
    return (lambda v: has_type(v, "int") and v >= least, f"an integer >= {least}")


# A `dataset` section's table: `cli.load_run_config` walks a run config's
# section with it, and `load_checkpoint` a checkpoint's `meta.run.dataset`;
# `check_dataset` then applies the cross-field rules to both.
# Every field that a reader of the section uses is here, so `data.load_csv`
# takes its `format`, `synth.generate` its `synthetic` fields and
# `split_dataset` its `split` fields as given; `mlf synth-data` checks its
# flags against the `synthetic` table.
DATASET_FIELDS = {
    "path": ((lambda v: isinstance(v, str), "a string"),),
    "format": ((lambda v: v in ("generic", "fund"), "'generic' or 'fund'"),),
    "anchor_stride": (int_at_least(1),),
    "synthetic": {
        "kind": ((lambda v: isinstance(v, str) and v in synth.GENERATORS, f"one of {sorted(synth.GENERATORS)}"),),
        "n_steps": (int_at_least(2),),
        "n_channels": (int_at_least(1),),
        "seed": (int_at_least(0),),
    },
    "split": {
        "scheme": ((lambda v: v in ("ratio", "ett"), "'ratio' or 'ett'"),),
        "ratios": ((lambda v: isinstance(v, list) and len(v) == 3 and all(has_type(n, "int") and n >= 0 for n in v)
                    and sum(v) > 0, "a list of 3 integers >= 0 with a positive sum"),),
        "rows_per_month": (int_at_least(1),),
    },
}


def check_dataset(section: dict, prefix: str) -> None:
    """The rules that compare one field of a `dataset` section, which
    DATASET_FIELDS passed, with another; `prefix` is as `check_section`'s."""
    if "path" in section and "synthetic" in section:
        raise ConfigError(f"{prefix[:-1]} section takes 'path' or 'synthetic', not both")
    if "format" in section and "synthetic" in section:  # without `path`, eval and forecast read --data in it
        raise ConfigError(f"{prefix[:-1]} section takes 'format' only with 'path'")
    split = section.get("split", {})
    for key, scheme in (("rows_per_month", "ett"), ("ratios", "ratio")):
        if key in split and split.get("scheme", "ratio") != scheme:
            raise ConfigError(f"{prefix}split.{key} applies only to scheme {scheme!r}")


def validate_config(cfg: MlfConfig) -> None:
    """Each field on its own (`MODEL_FIELDS`), then the rules that compare
    one field, or one period, with another."""
    check_section(vars(cfg), MODEL_FIELDS, "model.")
    periods = cfg.period_lengths
    if not periods:
        raise ConfigError("model.period_lengths must not be empty")
    if any(a >= b for a, b in zip(periods, periods[1:])):
        raise ConfigError(f"model.period_lengths must be strictly increasing, got {list(periods)}")
    if periods[0] < 1 or periods[-1] < 2:  # the integration weights convolve the longest window
        raise ConfigError(f"model.period_lengths must be positive and the longest >= 2, got {list(periods)}")
    if cfg.n_patches % cfg.squeeze_factor != 0:
        raise ConfigError(
            f"model.n_patches ({cfg.n_patches}) must be divisible by squeeze_factor ({cfg.squeeze_factor})"
        )
    if cfg.d_model < 1 or cfg.n_heads < 1 or cfg.d_model % cfg.n_heads != 0:
        raise ConfigError(f"model.d_model ({cfg.d_model}) must be a positive multiple of n_heads ({cfg.n_heads})")
    if not cfg.use_map:
        floor = FIXED_PATCH_LEN - FIXED_PATCH_STRIDE
        short = [n for n in periods if n < floor]
        if short:
            raise ConfigError(
                f"model.period_lengths {short} too short for fixed patching "
                f"(the adaptive-patching ablation needs lengths >= {floor})"
            )


def period_geometries(cfg: MlfConfig) -> list[PatchParams]:
    """Each period's patch geometry: MAP's, or the ablation's fixed one."""
    if cfg.use_map:
        return [derive_patch_params(n, cfg.n_patches) for n in cfg.period_lengths]
    return [fixed_patch_params(n, FIXED_PATCH_LEN, FIXED_PATCH_STRIDE) for n in cfg.period_lengths]


@dataclass
class ForecastBundle:
    """Forward-pass products needed for the loss, metrics, and diagnostics."""

    forecast: Tensor  # (B, m) integrated prediction
    period_forecasts: list[Tensor]  # S x (B, m), block-averaged
    att: Tensor | None  # (B, S, m) integration weights; None without LWI
    reconstructions: list[Tensor]  # S x (B, L_s, N_s); empty without the reconstruction loss
    raw_patches: list[Tensor]  # S x (B, L_s, N_s) constants; empty as reconstructions is
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

    The model builds exactly the stages its config's forward reads, so every
    parameter gets a gradient. A stage that a flag switches off (the squeeze
    decoders, the encoder blocks, the integrator, the SPP redundancy
    branches) draws into a spare store on the same init stream, which the
    model drops; so each kept tensor starts bit-equal to base's. Given
    `state` in place of `rng`, the model takes every array from it, draws
    nothing and builds no switched-off stage; a state that is not exactly
    the config's tensors raises `ShapeError` (see `ParamStore`). SPP heads
    carry a redundancy branch only where the base forward pass reads it: in
    blocks before the last, for periods shorter than the longest, whose
    estimates filter the next block's input. Each block's attention is four
    tensors: per-head Q, K and V stacked as (H, D, d_k) and the (D, D) output map.

    Period s has `block_sizes[s]` = ceil(n_patches / squeeze_factor) tokens
    after the squeeze. Under adaptive patching every period has
    n_patches patches, a multiple of the squeeze factor, so each has
    n_patches / squeeze_factor tokens; under the ablation the count grows
    with the period, as its patch count does.
    """

    def __init__(self, config: MlfConfig, rng: np.random.Generator | None = None, *, state: dict | None = None):
        self.config = cfg = config
        self.geometries = period_geometries(config)
        self.store = store = ParamStore(rng, state)
        spare = None if state is not None else ParamStore(rng)

        def stage(on: bool, make):
            """`make(store)` if the forward reads the stage; else None, once its draws are spent on `spare`."""
            if not on and spare is not None:
                make(spare)
            return make(store) if on else None

        self.block_sizes = [-(-p.n_patches // cfg.squeeze_factor) for p in self.geometries]
        self.token_ranges = [(sum(self.block_sizes[:s]), sum(self.block_sizes[: s + 1])) for s in range(cfg.n_periods)]

        # Per-period patch embeddings: projection into model space plus a
        # learned positional table.
        self.w_proj: list[Tensor] = []
        self.w_pos: list[Tensor] = []
        for s, geom in enumerate(self.geometries):
            length = geom.patch_len
            self.w_proj.append(store.uniform(f"embed.p{s}.proj", (cfg.d_model, length), 1.0 / np.sqrt(length)))
            self.w_pos.append(store.normal(f"embed.p{s}.pos", (cfg.d_model, geom.n_patches), 0.02))

        # Squeeze encoder: one shared map under adaptive patching; per-period
        # maps when patch counts differ (adaptive-patching ablation).
        if cfg.use_map:
            shared = PatchEncoder(store, "squeeze.enc", cfg.n_patches, self.block_sizes[0])
            self.patch_encoders = [shared] * cfg.n_periods
        else:
            self.patch_encoders = [
                PatchEncoder(store, f"squeeze.enc.p{s}", g.n_patches, self.block_sizes[s])
                for s, g in enumerate(self.geometries)
            ]
        self.decoders = stage(cfg.use_reconstruction_loss, lambda st: [
            PeriodDecoder(st, f"squeeze.dec.p{s}", cfg.d_model, g.patch_len, g.n_patches, self.block_sizes[s])
            for s, g in enumerate(self.geometries)
        ])
        self.blocks = stage(cfg.use_attention, lambda st: [
            EncoderBlock(st, f"block{e}", cfg.d_model, cfg.n_heads, cfg.ff_width) for e in range(cfg.n_blocks)
        ])
        redundancy = store if cfg.use_irf else spare
        self.spp_heads = [
            [
                SppHead(
                    store,
                    f"block{e}.spp.p{s}",
                    cfg.d_model,
                    self.block_sizes[s],
                    cfg.horizon,
                    redundancy=redundancy if e < cfg.n_blocks - 1 and s < cfg.n_periods - 1 else None,
                )
                for s in range(cfg.n_periods)
            ]
            for e in range(cfg.n_blocks)
        ]
        self.integrator = stage(cfg.use_lwi, lambda st: WeightIntegrator(
            st, "lwi", cfg.n_periods, cfg.horizon, cfg.period_lengths[-1], cfg.conv_filters
        ))
        if state is not None and (extra := state.keys() - self.params.keys() - self.buffers.keys()):
            raise ShapeError(f"state mismatch: unexpected {sorted(extra)}")

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
        """Copy `state` into the model's arrays, once it is checked as a restore checks it."""
        loaded = MlfModel(self.config, state=state)
        for name, p in self.params.items():
            p.data[...] = loaded.params[name].data
        for name, b in self.buffers.items():
            b[...] = loaded.buffers[name]

    # -- forward --------------------------------------------------------------

    def forward(
        self,
        windows: list[np.ndarray],
        *,
        training: bool,
        collect_attention: bool = False,
    ) -> ForecastBundle:
        """Training normalizes with batch statistics and updates the running estimates; inference
        runs under `no_grad()`, so it records no tape. collect_attention recomputes each block's `scores`."""
        with nullcontext() if training else no_grad():
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
                patches = Tensor(make_patches(windows[s], geom))
                embedded = embed(patches, self.w_proj[s], self.w_pos[s])  # (B, D, N_s)
                compact = self.patch_encoders[s](embedded)  # (B, D, N_s/r)
                squeezed.append(compact)
                if self.decoders:  # only the reconstruction loss reads them
                    raw_patches.append(patches)
                    reconstructions.append(self.decoders[s](compact))
            del patches, embedded, compact  # the lists hold what later stages read

            tokens = concat_periods(squeezed)  # (B, D, N_tok)
            block_forecasts: list[list[Tensor]] = []
            attention_scores: list[np.ndarray] | None = [] if collect_attention else None

            for e, heads in enumerate(self.spp_heads):
                z = self.blocks[e](tokens, training=training) if self.blocks else tokens
                if collect_attention and self.blocks:  # (H, B, N, N), recomputed on the whole batch
                    attention_scores.append(self.blocks[e].scores(tokens).data.swapaxes(0, 1))
                period_blocks = split_periods(z, self.token_ranges)
                forecasts, epsilons = zip(*(head(period_blocks[s]) for s, head in enumerate(heads)))
                block_forecasts.append(forecasts)
                if e == cfg.n_blocks - 1:
                    break  # no later block reads the filtered tokens
                tokens = concat_periods(irf_filter(period_blocks, epsilons, cfg.d_k)) if cfg.use_irf else z

            period_forecasts = [average(per_block) for per_block in zip(*block_forecasts)]  # mean over blocks
            att = None
            if self.integrator is not None:
                att = self.integrator(Tensor(windows[-1]), training=training)  # from the longest window
                forecast = integrate(period_forecasts, att)
            else:
                forecast = integrate_plain(period_forecasts)

            return ForecastBundle(
                forecast=forecast,
                period_forecasts=period_forecasts,
                att=att,
                reconstructions=reconstructions,
                raw_patches=raw_patches,
                attention_scores=attention_scores,
            )


def build_model(config: MlfConfig, seed: int = 0) -> MlfModel:
    init_rng, _ = seed_streams(seed)
    return MlfModel(config, init_rng)


def mlf_loss(bundle: ForecastBundle, target: np.ndarray, *, use_reconstruction: bool = True) -> LossBreakdown:
    """Forecast MSE plus (optionally) the mean per-period reconstruction MSE,
    which a bundle without reconstructions (the ablation's) leaves out."""
    forecast_term = mse(bundle.forecast, Tensor(target))
    if use_reconstruction and bundle.reconstructions:
        recon_term = reconstruction_loss(bundle.reconstructions, bundle.raw_patches)
        total = forecast_term + recon_term
        return LossBreakdown(total, float(forecast_term.data), float(recon_term.data))
    return LossBreakdown(forecast_term, float(forecast_term.data), 0.0)


def apply_ablation(config: MlfConfig, flag: str) -> MlfConfig:
    """Config variant with one component switched off: the one check of a flag."""
    if flag not in ABLATIONS:
        raise ConfigError(f"unknown ablation flag {flag!r}, expected one of {list(ABLATION_FLAGS)}")
    return replace(config, **{ABLATIONS[flag]: False})
