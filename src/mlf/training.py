"""Training loop, validation checkpointing, and split evaluation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autograd import backward, no_grad
from .data import SeriesDataset, SplitRanges, gather_batch, window_anchors
from .metrics import MetricsReport, compute_metrics, naive_repeat_last
from .model import MlfConfig, MlfModel, ForecastBundle, mlf_loss, seed_streams
from .optim import Adam, clip_global_norm


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""

    def __init__(self, step: int):
        super().__init__(f"non-finite training loss at step {step}")
        self.step = step


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val_loss": self.val_loss,
            "seconds": self.seconds,
        }


@dataclass
class TrainResult:
    records: list[EpochRecord]
    step_losses: list[float]
    best_epoch: int
    best_val_loss: float
    best_state: dict[str, np.ndarray]
    steps: int


def sample_index(ds: SeriesDataset, split_range: tuple[int, int], cfg: MlfConfig) -> tuple[np.ndarray, np.ndarray]:
    """All (channel, anchor) pairs of a split, channel-major."""
    anchors = window_anchors(split_range, list(cfg.period_lengths), cfg.horizon)
    channels = np.repeat(np.arange(ds.n_channels), anchors.size)
    return channels, np.tile(anchors, ds.n_channels)


def train(
    model: MlfModel,
    ds: SeriesDataset,
    split: SplitRanges,
    *,
    seed: int = 0,
    log_fn=None,
    anchor_stride: int = 1,
) -> TrainResult:
    """Minimize the forecast + reconstruction loss with Adam.

    Runs `config.epochs` epochs of shuffled mini-batches (optionally capped
    at `config.max_steps` optimizer steps), tracks validation loss each
    epoch, and finishes with the best-validation parameters loaded back into
    the model. `anchor_stride` subsamples training anchors for desk-scale
    runs on long series.
    """
    cfg = model.config
    _, shuffle_rng = seed_streams(seed)
    channels, anchors = sample_index(ds, split.train, cfg)
    if anchor_stride > 1:
        channels, anchors = channels[::anchor_stride], anchors[::anchor_stride]
    n_samples = channels.size
    if n_samples == 0:
        raise ValueError("train split has no complete windows; check period lengths and horizon")

    optimizer = Adam(model.params, lr=cfg.learning_rate)
    records: list[EpochRecord] = []
    step_losses: list[float] = []
    best_val = float("inf")
    best_epoch = -1
    best_state = model.state_arrays()
    step = 0
    max_steps = cfg.max_steps or 0

    for epoch in range(1, cfg.epochs + 1):
        start = time.perf_counter()
        order = shuffle_rng.permutation(n_samples)
        epoch_loss = 0.0
        epoch_count = 0
        for lo in range(0, n_samples, cfg.batch_size):
            if max_steps and step >= max_steps:
                break
            pick = order[lo : lo + cfg.batch_size]
            windows, targets = gather_batch(
                ds, channels[pick], anchors[pick], list(cfg.period_lengths), cfg.horizon
            )
            bundle = model.forward(windows, training=True)
            loss = mlf_loss(bundle, targets, use_reconstruction=cfg.use_reconstruction_loss)
            value = float(loss.total.data)
            if not np.isfinite(value):
                raise DivergenceError(step)
            step_losses.append(value)
            epoch_loss += value * len(pick)
            epoch_count += len(pick)
            model.zero_grad()
            backward(loss.total)
            if cfg.grad_clip:
                clip_global_norm(model.params, cfg.grad_clip)
            optimizer.step()
            step += 1
        val_loss = validation_loss(model, ds, split, cfg)
        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss / max(epoch_count, 1),
            val_loss=val_loss,
            seconds=time.perf_counter() - start,
        )
        records.append(record)
        if log_fn is not None:
            log_fn(record)
        # No validation windows: keep the latest state instead of the initial one.
        if val_loss < best_val or np.isnan(val_loss):
            best_val = val_loss
            best_epoch = epoch
            best_state = model.state_arrays()
        if max_steps and step >= max_steps:
            break

    model.load_state_arrays(best_state)
    return TrainResult(records, step_losses, best_epoch, best_val, best_state, step)


def validation_loss(model: MlfModel, ds: SeriesDataset, split: SplitRanges, cfg: MlfConfig) -> float:
    channels, anchors = sample_index(ds, split.val, cfg)
    if channels.size == 0:
        return float("nan")
    total, count = 0.0, 0
    for lo in range(0, channels.size, cfg.batch_size):
        sel = slice(lo, lo + cfg.batch_size)
        windows, targets = gather_batch(ds, channels[sel], anchors[sel], list(cfg.period_lengths), cfg.horizon)
        with no_grad():
            bundle = model.forward(windows, training=False)
            loss = mlf_loss(bundle, targets, use_reconstruction=cfg.use_reconstruction_loss)
        total += float(loss.total.data) * windows[0].shape[0]
        count += windows[0].shape[0]
    return total / count


@dataclass
class EvalResult:
    report_normalized: MetricsReport
    report_original: MetricsReport
    naive_normalized: MetricsReport | None
    predictions: np.ndarray  # (n, m) normalized units
    targets: np.ndarray  # (n, m) normalized units
    channels: np.ndarray
    anchors: np.ndarray
    att_mean: np.ndarray | None  # (S, m)
    attention_mean: np.ndarray | None  # (N_tok, N_tok)
    token_ranges: list[tuple[int, int]] = field(default_factory=list)


def evaluate(
    model: MlfModel,
    ds: SeriesDataset,
    split: SplitRanges,
    split_name: str = "test",
    *,
    collect_attention: bool = False,
    naive_baseline: bool = False,
    fund_style: bool = False,
    anchor_stride: int = 1,
) -> EvalResult:
    """Forecast a whole split and score it in normalized and original units."""
    cfg = model.config
    channels, anchors = sample_index(ds, split.get(split_name), cfg)
    if anchor_stride > 1:
        channels, anchors = channels[::anchor_stride], anchors[::anchor_stride]
    if channels.size == 0:
        raise ValueError(f"split {split_name!r} has no complete windows")

    preds = np.empty((channels.size, cfg.horizon))
    targets = np.empty_like(preds)
    lasts = np.empty((channels.size, 1))
    att_sum = np.zeros((cfg.n_periods, cfg.horizon))
    attn_sum = None
    attn_count = 0

    for lo in range(0, channels.size, cfg.batch_size):
        sel = slice(lo, lo + cfg.batch_size)
        windows, batch_targets = gather_batch(
            ds, channels[sel], anchors[sel], list(cfg.period_lengths), cfg.horizon
        )
        with no_grad():
            bundle = model.forward(windows, training=False, collect_diagnostics=collect_attention)
        preds[sel] = bundle.forecast.data
        targets[sel] = batch_targets
        lasts[sel] = windows[-1][:, -1:]
        if bundle.att is not None:
            att_sum += bundle.att.data.sum(axis=0)
        if collect_attention and bundle.attention_scores:
            for scores in bundle.attention_scores:  # (H, B, N, N)
                if attn_sum is None:
                    attn_sum = np.zeros(scores.shape[-2:])
                attn_sum += scores.sum(axis=(0, 1))
                attn_count += scores.shape[0] * scores.shape[1]

    if ds.norm is None:
        preds_orig, targets_orig = preds, targets
    else:
        preds_orig, targets_orig = ds.norm.invert(preds, channels), ds.norm.invert(targets, channels)
    report_norm = compute_metrics(preds, targets, units="normalized")
    report_orig = compute_metrics(
        preds_orig,
        targets_orig,
        units="original",
        channels=channels,
        sum_wmape_channels=fund_style,
    )
    naive_report = None
    if naive_baseline:
        naive = naive_repeat_last(lasts, cfg.horizon)
        naive_report = compute_metrics(naive, targets, units="normalized")

    return EvalResult(
        report_normalized=report_norm,
        report_original=report_orig,
        naive_normalized=naive_report,
        predictions=preds,
        targets=targets,
        channels=channels,
        anchors=anchors,
        att_mean=att_sum / channels.size if cfg.use_lwi else None,
        attention_mean=attn_sum / attn_count if attn_count else None,
        token_ranges=model.token_ranges,
    )
