"""Training loop: learning, determinism, checkpoint selection, divergence."""

import numpy as np
import pytest

from mlf import autograd, cli
from mlf.checkpoint import Checkpoint, save_checkpoint
from mlf.data import split_dataset, standardize
from mlf.model import build_model, mlf_loss
from mlf.synth import linear_trend, regime_switching, write_csv
from mlf.training import DivergenceError, evaluate, train, sample_index, validation_loss
from mlf.data import gather_batch

from conftest import regime_config, regime_dataset


def test_training_reduces_loss(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    cfg = replace(tiny_config, epochs=6)
    model = build_model(cfg, seed=0)
    result = train(model, ds, split, seed=0)
    assert result.records[-1].train_loss < result.records[0].train_loss
    assert len(result.records) == cfg.epochs
    assert result.best_epoch >= 1


def test_fixed_seed_reproduces_loss_trajectory(tiny_config, tiny_dataset):
    ds, split = tiny_dataset
    a = train(build_model(tiny_config, seed=5), ds, split, seed=5)
    b = train(build_model(tiny_config, seed=5), ds, split, seed=5)
    assert a.step_losses == b.step_losses  # bitwise identical floats
    for ra, rb in zip(a.records, b.records):
        assert ra.train_loss == rb.train_loss and ra.val_loss == rb.val_loss


def test_fixed_seed_reproduces_parameters_bitwise(tiny_config, tiny_dataset):
    ds, split = tiny_dataset
    model_a = build_model(tiny_config, seed=9)
    model_b = build_model(tiny_config, seed=9)
    train(model_a, ds, split, seed=9)
    train(model_b, ds, split, seed=9)
    for name, p in model_a.params.items():
        assert np.array_equal(p.data, model_b.params[name].data), name
    for name, b in model_a.buffers.items():
        assert np.array_equal(b, model_b.buffers[name]), name


def test_different_seed_changes_trajectory(tiny_config, tiny_dataset):
    ds, split = tiny_dataset
    a = train(build_model(tiny_config, seed=1), ds, split, seed=1)
    b = train(build_model(tiny_config, seed=2), ds, split, seed=2)
    assert a.step_losses != b.step_losses


def test_zero_learning_rate_keeps_parameters(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    cfg = replace(tiny_config, learning_rate=0.0, epochs=1)
    model = build_model(cfg, seed=0)
    before = {name: p.data.copy() for name, p in model.params.items()}
    train(model, ds, split, seed=0)
    for name, p in model.params.items():
        assert np.array_equal(p.data, before[name]), name


def test_divergence_aborts_with_step_index(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    model = build_model(replace(tiny_config, learning_rate=1e-3), seed=0)
    # Poison one weight so the first forward produces non-finite loss.
    model.params["embed.p0.proj"].data[0, 0] = np.inf
    with pytest.raises(DivergenceError, match="step 0") as info:
        with np.errstate(invalid="ignore", over="ignore"):
            train(model, ds, split, seed=0)
    assert info.value.step == 0


def test_best_validation_checkpoint_is_restored(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    cfg = replace(tiny_config, epochs=4)
    model = build_model(cfg, seed=3)
    result = train(model, ds, split, seed=3)
    best = min(result.records, key=lambda r: r.val_loss)
    assert result.best_epoch == best.epoch
    assert validation_loss(model, ds, split, cfg) == pytest.approx(best.val_loss)


def test_max_steps_caps_training(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    cfg = replace(tiny_config, epochs=50, max_steps=7)
    result = train(build_model(cfg, seed=0), ds, split, seed=0)
    assert result.steps == 7


def test_grad_clip_changes_trajectory(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    base = train(build_model(tiny_config, seed=0), ds, split, seed=0)
    clipped_cfg = replace(tiny_config, grad_clip=1e-3)
    clipped = train(build_model(clipped_cfg, seed=0), ds, split, seed=0)
    assert base.step_losses != clipped.step_losses


def test_evaluate_reports_both_units(tiny_config, tiny_dataset):
    ds, split = tiny_dataset
    model = build_model(tiny_config, seed=0)
    train(model, ds, split, seed=0)
    result = evaluate(model, ds, split, "test", naive_baseline=True)
    assert result.report_normalized.units == "normalized"
    assert result.report_original.units == "original"
    assert result.naive_normalized is not None
    assert result.predictions.shape == result.targets.shape
    # Original-unit predictions differ from normalized ones by the stored stats.
    c = result.channels[0]
    denorm = result.predictions[0] * ds.norm.std[c] + ds.norm.mean[c]
    assert result.report_original.mse >= 0.0
    assert np.isfinite(denorm).all()


def test_evaluation_attention_export_is_row_stochastic(tiny_config, tiny_dataset):
    ds, split = tiny_dataset
    model = build_model(tiny_config, seed=0)
    result = evaluate(model, ds, split, "test", collect_attention=True)
    mat = result.attention_mean
    n_tok = sum(b - a for a, b in model.token_ranges)
    assert mat.shape == (n_tok, n_tok)
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-6


def taped_batches(model, ds, split_range):
    """The inference forward of `evaluate` and `validation_loss`, batch by batch,
    with the tape recording."""
    cfg = model.config
    channels, anchors = sample_index(ds, split_range, cfg)
    for lo in range(0, channels.size, cfg.batch_size):
        sel = slice(lo, lo + cfg.batch_size)
        windows, targets = gather_batch(ds, channels[sel], anchors[sel], list(cfg.period_lengths), cfg.horizon)
        bundle = model.forward(windows, training=False)
        assert bundle.forecast.requires_grad
        yield windows, targets, bundle


def test_tape_free_inference_equals_a_taped_forward(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    cfg = replace(tiny_config, batch_size=8)  # several batches per split
    model = build_model(cfg, seed=0)
    train(model, ds, split, seed=0)

    result = evaluate(model, ds, split, "test")
    taped = np.concatenate([b.forecast.data for _, _, b in taped_batches(model, ds, split.test)])
    assert np.array_equal(result.predictions, taped)

    total, count = 0.0, 0
    for windows, targets, bundle in taped_batches(model, ds, split.val):
        loss = mlf_loss(bundle, targets, use_reconstruction=cfg.use_reconstruction_loss)
        total += float(loss.total.data) * windows[0].shape[0]
        count += windows[0].shape[0]
    assert validation_loss(model, ds, split, cfg) == total / count


@pytest.fixture
def tape_nodes(monkeypatch):
    """Count of the tape nodes (outputs that carry a vjp) made while the test runs."""
    counter = {"nodes": 0}
    original = autograd._node

    def counting(data, parents, vjp, op):
        out = original(data, parents, vjp, op)
        counter["nodes"] += out._vjp is not None
        return out

    monkeypatch.setattr(autograd, "_node", counting)
    return counter


def test_inference_records_no_tape_nodes(tiny_config, tiny_dataset, tmp_path, tape_nodes, capsys):
    ds, split = tiny_dataset
    model = build_model(tiny_config, seed=0)
    evaluate(model, ds, split, "test")
    assert tape_nodes["nodes"] == 0
    validation_loss(model, ds, split, tiny_config)
    assert tape_nodes["nodes"] == 0

    ckpt_path, hist_path = str(tmp_path / "model.mlfckpt"), str(tmp_path / "hist.csv")
    norm = {"channels": list(ds.channel_names), "mean": ds.norm.mean.tolist(), "std": ds.norm.std.tolist()}
    save_checkpoint(ckpt_path, Checkpoint(tiny_config.to_dict(), model.state_arrays(), norm))
    write_csv(linear_trend(30, 1, seed=3), hist_path)
    code = cli.main(["forecast", ckpt_path, "--data", hist_path, "--output", str(tmp_path / "pred.csv")])
    assert code == 0, capsys.readouterr().err
    assert tape_nodes["nodes"] == 0

    # The counter sees the nodes of a taped forward.
    next(taped_batches(model, ds, split.test))
    assert tape_nodes["nodes"] > 0


def test_kappa_partition_analysis_on_regime_data():
    """Single-period models of different lengths partition the test samples;
    samples best served by the short history show the sharpest futures."""
    from mlf.metrics import kappa_by_best_period

    ds0 = regime_dataset(2200)
    period_lengths = [8, 24, 64]
    split = split_dataset(ds0, "ratio", min_history=64, horizon=1)
    ds = standardize(ds0, split)

    per_period_errors = []
    for n in period_lengths:
        cfg = regime_config(periods=(n,), horizon=1, epochs=6)
        model = build_model(cfg, seed=0)
        train(model, ds, split, seed=0)
        result = evaluate(model, ds, split, "test")
        per_period_errors.append(((result.predictions - result.targets) ** 2).ravel())
        anchors, channels = result.anchors, result.channels
    errors = np.stack(per_period_errors, axis=1)

    histories = np.stack([ds.values[t - 30 : t, c] for t, c in zip(anchors, channels)])
    futures = np.array([ds.values[t, c] for t, c in zip(anchors, channels)])
    table = kappa_by_best_period(histories, futures, errors, period_lengths)
    assert table["best_by_8"] > table["best_by_64"]
