"""Training loop, validation checkpointing, and split evaluation.

Every loop here walks one sample index from `sample_index` through the one
batch iterator `batches`, which gathers each batch with `data.gather_batch`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .autograd import backward
from .data import DataError, SeriesDataset, SplitRanges, gather_batch, window_anchors
from .metrics import MetricsReport, compute_metrics
from .model import ConfigError, MlfConfig, MlfModel, mlf_loss, seed_streams
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
        return asdict(self)


@dataclass
class TrainResult:
    records: list[EpochRecord]
    step_losses: list[float]
    best_epoch: int
    best_val_loss: float
    steps: int


def sample_index(
    ds: SeriesDataset, split_range: tuple[int, int], cfg: MlfConfig, stride: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Every `stride`-th (channel, anchor) pair of a split, channel-major."""
    if stride < 1:
        raise ConfigError(f"anchor stride must be >= 1, got {stride}")
    anchors = window_anchors(split_range, list(cfg.period_lengths), cfg.horizon)
    channels = np.repeat(np.arange(ds.n_channels), anchors.size)
    return channels[::stride], np.tile(anchors, ds.n_channels)[::stride]


def batches(ds: SeriesDataset, cfg: MlfConfig, channels: np.ndarray, anchors: np.ndarray):
    """The one batch loop: yields (rows, windows, targets) for each run of
    `cfg.batch_size` consecutive pairs, `rows` being the slice of the index."""
    for lo in range(0, channels.size, cfg.batch_size):
        rows = slice(lo, lo + cfg.batch_size)
        windows, targets = gather_batch(ds, channels[rows], anchors[rows], list(cfg.period_lengths), cfg.horizon)
        yield rows, windows, targets


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
    at `config.max_steps` optimizer steps), scores each epoch by the
    normalized forecast MSE that `evaluate` reports on the validation split,
    and finishes with the best epoch's parameters loaded back into the model.
    `anchor_stride` subsamples training anchors for desk-scale runs on long
    series.
    """
    cfg = model.config
    _, shuffle_rng = seed_streams(seed)
    channels, anchors = sample_index(ds, split.train, cfg, anchor_stride)
    n_samples = channels.size
    if n_samples == 0:
        raise DataError("train split has no complete windows; check period lengths and horizon")

    optimizer = Adam(model.params, lr=cfg.learning_rate)
    records: list[EpochRecord] = []
    step_losses: list[float] = []
    best_val = float("inf")
    best_epoch = -1
    best_state = None  # with no epoch run, the weights stay as they are
    has_val = sample_index(ds, split.val, cfg)[0].size > 0
    step = 0

    for epoch in range(1, cfg.epochs + 1):
        start = time.perf_counter()
        order = shuffle_rng.permutation(n_samples)
        if cfg.max_steps:  # the epoch stops at the step cap
            order = order[: (cfg.max_steps - step) * cfg.batch_size]
        epoch_loss = 0.0
        for _, windows, targets in batches(ds, cfg, channels[order], anchors[order]):
            # One step's graph and gradients at a time: the last step's are
            # gone before this forward starts.
            model.zero_grad()
            bundle = model.forward(windows, training=True)
            loss = mlf_loss(bundle, targets, use_reconstruction=cfg.use_reconstruction_loss)
            value = float(loss.total.data)
            if not np.isfinite(value):
                raise DivergenceError(step)
            step_losses.append(value)
            epoch_loss += value * targets.shape[0]
            backward(loss.total)
            del bundle, loss
            if cfg.grad_clip:
                clip_global_norm(model.params, cfg.grad_clip)
            optimizer.step()
            step += 1
        val_loss = evaluate(model, ds, split, "val").report_normalized.mse if has_val else float("nan")
        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss / order.size,
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
        if cfg.max_steps and step >= cfg.max_steps:
            break

    if best_state is not None:
        model.load_state_arrays(best_state)
    return TrainResult(records, step_losses, best_epoch, best_val, step)


@dataclass
class EvalResult:
    split: str
    report_normalized: MetricsReport
    report_original: MetricsReport
    naive_normalized: MetricsReport  # the repeat-last-value baseline
    predictions: np.ndarray  # (n, m) normalized units
    targets: np.ndarray  # (n, m) normalized units
    channels: np.ndarray
    anchors: np.ndarray
    att_mean: np.ndarray | None  # (S, m)
    attention_mean: np.ndarray | None  # (N_tok, N_tok)

    def to_dict(self) -> dict:
        """The scored split, as `mlf eval` prints it and `mlf train` logs it."""
        return {
            "split": self.split,
            "normalized": self.report_normalized.to_dict(),
            "original_units": self.report_original.to_dict(),
            "naive_normalized": self.naive_normalized.to_dict(),
        }


def evaluate(
    model: MlfModel,
    ds: SeriesDataset,
    split: SplitRanges,
    split_name: str = "test",
    *,
    collect_attention: bool = False,
    anchor_stride: int = 1,
) -> EvalResult:
    """Forecast a whole split and score it in normalized and original units,
    next to the repeat-last-value baseline in normalized units. The
    original-unit WMAPE of a "fund" dataset (`ds.format`) is summed per
    channel; every other WMAPE pools all values."""
    cfg = model.config
    channels, anchors = sample_index(ds, split.get(split_name), cfg, anchor_stride)
    if channels.size == 0:
        raise DataError(f"split {split_name!r} has no complete windows")

    preds = np.empty((channels.size, cfg.horizon))
    targets = np.empty_like(preds)
    att_sum = np.zeros((cfg.n_periods, cfg.horizon))
    attn_sum = None
    attn_count = 0

    for sel, windows, batch_targets in batches(ds, cfg, channels, anchors):
        bundle = model.forward(windows, training=False, collect_attention=collect_attention)
        preds[sel] = bundle.forecast.data
        targets[sel] = batch_targets
        if bundle.att is not None:
            att_sum += bundle.att.data.sum(axis=0)
        if collect_attention and bundle.attention_scores:
            for scores in bundle.attention_scores:  # (H, B, N, N)
                if attn_sum is None:
                    attn_sum = np.zeros(scores.shape[-2:])
                attn_sum += scores.sum(axis=(0, 1))
                attn_count += scores.shape[0] * scores.shape[1]
        del bundle

    if ds.norm is None:
        preds_orig, targets_orig = preds, targets
    else:
        preds_orig, targets_orig = ds.norm.invert(preds, channels), ds.norm.invert(targets, channels)
    report_norm = compute_metrics(preds, targets, units="normalized")
    report_orig = compute_metrics(
        preds_orig, targets_orig, units="original", channels=channels if ds.format == "fund" else None
    )
    naive = np.repeat(ds.values[anchors - 1, channels][:, None], cfg.horizon, axis=1)  # each history's last value
    naive_report = compute_metrics(naive, targets, units="normalized")

    return EvalResult(
        split=split_name,
        report_normalized=report_norm,
        report_original=report_orig,
        naive_normalized=naive_report,
        predictions=preds,
        targets=targets,
        channels=channels,
        anchors=anchors,
        att_mean=att_sum / channels.size if cfg.use_lwi else None,
        attention_mean=attn_sum / attn_count if attn_count else None,
    )
