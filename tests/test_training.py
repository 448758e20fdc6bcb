"""Training loop: learning, determinism, checkpoint selection, divergence."""

import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from mlf import autograd, cli
from mlf.autograd import backward
from mlf.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from mlf.data import DataError, SeriesDataset, SplitRanges, load_csv, split_dataset, standardize
from mlf.metrics import MetricError
from mlf.model import ABLATION_FLAGS, MlfConfig, MlfModel, apply_ablation, build_model, mlf_loss
from mlf.synth import linear_trend, regime_switching, write_csv
from mlf.training import DivergenceError, batches, evaluate, train, sample_index
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


def test_train_keeps_one_step_graph_at_a_time(tiny_config, tiny_dataset, monkeypatch):
    """No forward starts while the last training step's forecast or any
    gradient is alive."""
    ds, split = tiny_dataset
    forward = MlfModel.forward
    last = {"forecast": lambda: None}
    steps, stale = [], []

    def watched(self, windows, *, training, **kwargs):
        if last["forecast"]() is not None:
            stale.append(("forecast", len(steps)))
        if training and any(p.grad is not None for p in self.params.values()):
            stale.append(("gradient", len(steps)))
        bundle = forward(self, windows, training=training, **kwargs)
        if training:
            steps.append(1)
            last["forecast"] = weakref.ref(bundle.forecast.data)
        return bundle

    monkeypatch.setattr(MlfModel, "forward", watched)
    train(build_model(tiny_config, seed=0), ds, split, seed=0)
    assert len(steps) > 2 and stale == []


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
    # An epoch is scored by the forecast MSE `evaluate` reports, to the bit.
    assert evaluate(model, ds, split, "val").report_normalized.mse == best.val_loss


def test_a_split_without_validation_windows_keeps_the_latest_epoch(tiny_config, overfit_dataset):
    from dataclasses import replace

    ds, split = overfit_dataset
    model = build_model(replace(tiny_config, epochs=3), seed=0)
    states = []
    result = train(model, ds, split, seed=0, log_fn=lambda _: states.append(model.state_arrays()))
    assert all(np.isnan(r.val_loss) for r in result.records)
    assert result.best_epoch == 3 and np.isnan(result.best_val_loss)
    for name, value in model.state_arrays().items():
        assert np.array_equal(value, states[-1][name]), name


def test_no_epoch_leaves_every_weight_bit_identical(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    model = build_model(replace(tiny_config, epochs=0), seed=0)
    before = model.state_arrays()
    result = train(model, ds, split, seed=0)
    assert (result.records, result.step_losses, result.best_epoch, result.steps) == ([], [], -1, 0)
    after = model.state_arrays()
    assert after.keys() == before.keys()
    assert [name for name in before if after[name].tobytes() != before[name].tobytes()] == []


def test_non_finite_validation_predictions_stop_training(tiny_config, tiny_dataset):
    from dataclasses import replace

    ds, split = tiny_dataset
    values = ds.values.copy()
    values[split.val[0] : split.val[1]] = np.inf  # rows no training window reads
    with pytest.raises(MetricError, match="predictions hold NaN or Inf"):
        with np.errstate(invalid="ignore", over="ignore"):
            train(build_model(tiny_config, seed=0), replace(ds, values=values), split, seed=0)


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
    result = evaluate(model, ds, split, "test")
    assert result.report_normalized.units == "normalized"
    assert result.report_original.units == "original"
    assert result.naive_normalized.units == "normalized"
    assert result.naive_normalized.n_samples == result.report_normalized.n_samples
    # The baseline repeats each window's last value across the horizon.
    lasts = np.array([ds.values[t - 1, c] for t, c in zip(result.anchors, result.channels)])
    assert result.naive_normalized.mse == np.mean((lasts[:, None] - result.targets) ** 2)
    assert result.predictions.shape == result.targets.shape
    # Original-unit predictions differ from normalized ones by the stored stats.
    c = result.channels[0]
    denorm = result.predictions[0] * ds.norm.std[c] + ds.norm.mean[c]
    assert result.report_original.mse >= 0.0
    assert np.isfinite(denorm).all()


def test_a_fund_dataset_sums_its_wmape_per_channel(tiny_config, tmp_path):
    from dataclasses import replace

    # The same data scored as "fund" and as "generic": only the
    # original-unit WMAPE differs, summed per channel or pooled.
    path = tmp_path / "fund.csv"
    trend = linear_trend(160, 2, seed=3)
    write_csv(SeriesDataset(["apply_amt", "redeem_amt"], trend.values + [100.0, 50.0], trend.timestamps), str(path))
    raw = load_csv(str(path), "fund")
    split = split_dataset(raw, "ratio", min_history=8, horizon=2)
    ds = standardize(raw, split)
    model = build_model(tiny_config, seed=0)
    fund, generic = (evaluate(model, replace(ds, format=f), split, "test") for f in ("fund", "generic"))
    assert ds.format == "fund" and fund.report_normalized == generic.report_normalized
    channels = fund.channels
    target = np.abs(ds.norm.invert(fund.targets, channels))
    err = np.abs(ds.norm.invert(fund.predictions, channels) - ds.norm.invert(fund.targets, channels))
    per_channel = [100.0 * np.sum(err[channels == c]) / np.sum(target[channels == c]) for c in (0, 1)]
    assert fund.report_original.wmape == pytest.approx(sum(per_channel), rel=1e-12)
    assert generic.report_original.wmape == pytest.approx(100.0 * np.sum(err) / np.sum(target), rel=1e-12)
    assert fund.report_original.wmape > generic.report_original.wmape


def test_a_fund_file_is_normalized_and_forecast_as_its_generic_read(tiny_config, tmp_path):
    """The fund reader keeps C order, so `standardize` sums a fund file's
    columns in the order it sums the same columns read as "generic"."""
    path = tmp_path / "fund.csv"
    trend = linear_trend(160, 2, seed=3)
    write_csv(SeriesDataset(["apply_amt", "redeem_amt"], trend.values + [100.0, 50.0], trend.timestamps), str(path))
    fund, generic = (load_csv(str(path), f) for f in ("fund", "generic"))
    assert fund.values.flags.c_contiguous and np.array_equal(fund.values, generic.values)
    split = split_dataset(fund, "ratio", min_history=8, horizon=2)
    fund, generic = (standardize(d, split) for d in (fund, generic))
    for a, b in ((fund.norm.mean, generic.norm.mean), (fund.norm.std, generic.norm.std), (fund.values, generic.values)):
        assert np.array_equal(a, b)
    model = build_model(tiny_config, seed=0)
    assert np.array_equal(evaluate(model, fund, split).predictions, evaluate(model, generic, split).predictions)


def test_a_split_without_windows_is_a_data_error(tiny_config, tiny_dataset):
    ds, _ = tiny_dataset
    model = build_model(tiny_config, seed=0)
    no_test = SplitRanges((0, 120), (120, 160), (160, 160))
    with pytest.raises(DataError, match="split 'test' has no complete windows"):
        evaluate(model, ds, no_test, "test")
    no_train = SplitRanges((0, 0), (0, 80), (80, 160))
    with pytest.raises(DataError, match="train split has no complete windows"):
        train(model, ds, no_train, seed=0)


def test_the_smallest_valid_config_trains_and_forecasts():
    # The engine trusts the shapes the config fixes; the smallest config that
    # validation admits (longest period 2, one pooled LWI position) must run.
    cfg = MlfConfig(
        period_lengths=(2,),
        horizon=1,
        n_patches=2,
        squeeze_factor=1,
        d_model=1,
        n_heads=1,
        n_blocks=1,
        conv_filters=1,
        batch_size=8,
        epochs=1,
    )
    raw = regime_switching(120, 1, seed=0)
    split = split_dataset(raw, "ratio", min_history=2, horizon=1)
    ds = standardize(raw, split)
    model = build_model(cfg, seed=0)
    assert train(model, ds, split, seed=0).steps == 11
    result = evaluate(model, ds, split, "test")
    assert result.predictions.shape == (24, 1)
    assert np.isfinite(result.predictions).all()


def test_evaluation_attention_export_is_row_stochastic(tiny_config, tiny_dataset):
    ds, split = tiny_dataset
    model = build_model(tiny_config, seed=0)
    result = evaluate(model, ds, split, "test", collect_attention=True)
    mat = result.attention_mean
    n_tok = sum(b - a for a, b in model.token_ranges)
    assert mat.shape == (n_tok, n_tok)
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-6


def taped_batches(model, ds, split_range, monkeypatch, collect_attention=False):
    """The inference forward of `evaluate`, batch by batch, with the tape
    recording: `forward`'s `no_grad` is swapped for a null context until the
    test ends."""
    monkeypatch.setattr("mlf.model.no_grad", nullcontext)
    cfg = model.config
    channels, anchors = sample_index(ds, split_range, cfg)
    for lo in range(0, channels.size, cfg.batch_size):
        sel = slice(lo, lo + cfg.batch_size)
        windows, _ = gather_batch(ds, channels[sel], anchors[sel], list(cfg.period_lengths), cfg.horizon)
        bundle = model.forward(windows, training=False, collect_attention=collect_attention)
        assert bundle.forecast.requires_grad
        yield bundle


@pytest.mark.parametrize("collect", [False, True], ids=["scores_off", "scores_on"])
@pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS], ids=["base", *(f"wo_{f}" for f in ABLATION_FLAGS)])
def test_tape_free_inference_equals_a_taped_forward(tiny_config, tiny_dataset, monkeypatch, flag, collect):
    """Each variant overwrites other temporaries in place when nothing
    records (no blocks without `ma`, no LWI batch norm without `lwi`, no
    decoders without the reconstruction loss); each keeps the taped bits."""
    from dataclasses import replace

    ds, split = tiny_dataset
    cfg = replace(tiny_config, batch_size=8)  # several batches per split
    if flag is not None:  # fixed patching needs periods of at least 8
        cfg = apply_ablation(replace(cfg, period_lengths=(8, 16)) if flag == "map" else cfg, flag)
    model = build_model(cfg, seed=0)
    train(model, ds, split, seed=0)
    assert_evaluate_equals_a_taped_forward(model, ds, split, monkeypatch, collect)


def assert_evaluate_equals_a_taped_forward(model, ds, split, monkeypatch, collect):
    """`evaluate`'s test-split predictions and means equal those of the taped forward, bit for bit."""
    cfg = model.config
    result = evaluate(model, ds, split, "test", collect_attention=collect)
    bundles = list(taped_batches(model, ds, split.test, monkeypatch, collect))
    assert np.array_equal(result.predictions, np.concatenate([b.forecast.data for b in bundles]))
    if cfg.use_lwi:  # summed as `evaluate` sums them
        att = sum(b.att.data.sum(axis=0) for b in bundles) / result.channels.size
        assert np.array_equal(result.att_mean, att)
    scores = [s for b in bundles for s in b.attention_scores or []]
    assert bool(scores) == (collect and cfg.use_attention)
    if scores:
        attn = sum(s.sum(axis=(0, 1)) for s in scores) / sum(s.shape[0] * s.shape[1] for s in scores)
        assert np.array_equal(result.attention_mean, attn)
    else:
        assert result.attention_mean is None


MID_CONFIG = MlfConfig(
    period_lengths=(16, 32, 64), horizon=4, n_patches=16, squeeze_factor=4, d_model=16, n_heads=4,
    n_blocks=2, d_ff=32, conv_filters=4, batch_size=32, max_steps=3,
)


@pytest.mark.parametrize("collect", [False, True], ids=["scores_off", "scores_on"])
@pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS], ids=["base", *(f"wo_{f}" for f in ABLATION_FLAGS)])
@pytest.mark.parametrize("size", ["desk", "mid"])
def test_a_batch_run_in_halves_equals_a_taped_forward(monkeypatch, worker_calls, size, flag, collect):
    """With the floor at 0, every batch of 2 rows or more runs each block,
    decoder and LWI feature stack in two halves on two threads; the taped
    forward records, so it never splits. Both give the same bits."""
    cfg = regime_config(max_steps=3) if size == "desk" else MID_CONFIG
    cfg = cfg if flag is None else apply_ablation(cfg, flag)
    raw = regime_dataset(n_steps=600)
    split = split_dataset(raw, "ratio", min_history=max(cfg.period_lengths), horizon=cfg.horizon)
    ds = standardize(raw, split)
    model = build_model(cfg, seed=0)
    train(model, ds, split, seed=0)
    monkeypatch.setattr(autograd, "SPLIT_FLOOR", 0)
    assert_evaluate_equals_a_taped_forward(model, ds, split, monkeypatch, collect)
    assert worker_calls


def first_batch_gradients(cfg, ds, split):
    """Each parameter's gradient after one backward on the first training batch of a fresh model."""
    model = build_model(cfg, seed=0)
    _, windows, targets = next(batches(ds, cfg, *sample_index(ds, split.train, cfg)))
    loss = mlf_loss(model.forward(windows, training=True), targets, use_reconstruction=cfg.use_reconstruction_loss)
    backward(loss.total)
    return {name: p.grad for name, p in model.params.items()}


@pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS], ids=["base", *(f"wo_{f}" for f in ABLATION_FLAGS)])
@pytest.mark.parametrize("size", ["desk", "mid"])
def test_a_two_thread_backward_equals_the_sequential_walk(monkeypatch, worker_calls, size, flag):
    """With the floor at 0 every backward drains on two threads. The
    gradients, the step losses and the weights after Adam keep their bits."""
    cfg = regime_config(max_steps=3) if size == "desk" else MID_CONFIG
    cfg = cfg if flag is None else apply_ablation(cfg, flag)
    raw = regime_dataset(n_steps=600)
    split = split_dataset(raw, "ratio", min_history=max(cfg.period_lengths), horizon=cfg.horizon)
    ds = standardize(raw, split)
    runs = []
    for floor in (autograd.BACKWARD_FLOOR, 0):
        monkeypatch.setattr(autograd, "BACKWARD_FLOOR", floor)
        grads = first_batch_gradients(cfg, ds, split)
        model = build_model(cfg, seed=0)
        result = train(model, ds, split, seed=0)
        runs.append((grads, result.step_losses, model.state_arrays()))
        assert bool(worker_calls) == (floor == 0)
    (grads, losses, state), (grads2, losses2, state2) = runs
    assert grads.keys() == grads2.keys() and all(g is not None for g in grads.values())
    assert [name for name in grads if grads[name].tobytes() != grads2[name].tobytes()] == []
    assert losses == losses2 and len(losses) == 3
    assert [name for name in state if state[name].tobytes() != state2[name].tobytes()] == []


def test_inference_leaves_a_restored_checkpoint_and_its_inputs_unchanged(tiny_config, tiny_dataset, tmp_path):
    """A restored model's parameters are views into the loaded payload, so an
    inference forward that overwrote anything but its own temporaries would
    corrupt the checkpoint it serves."""
    ds, split = tiny_dataset
    model = build_model(tiny_config, seed=0)  # untrained: no inference has run on its weights
    path = str(tmp_path / "model.mlfckpt")
    save_checkpoint(path, Checkpoint(tiny_config.to_dict(), model.state_arrays()))
    ckpt = load_checkpoint(path)
    restored = cli.restore_model(ckpt)
    assert all(np.shares_memory(p.data, ckpt.arrays[name]) for name, p in restored.params.items())
    # Train windows: they cross the train mean, so they hold values of both signs.
    _, windows, _ = next(batches(ds, tiny_config, *sample_index(ds, split.train, tiny_config)))

    def snapshot():
        arrays = {f"window {i}": w for i, w in enumerate(windows)} | {"dataset": ds.values}
        arrays |= {f"param {n}": p.data for n, p in restored.params.items()}
        arrays |= {f"buffer {n}": b for n, b in restored.buffers.items()}
        arrays |= {f"checkpoint {n}": a for n, a in ckpt.arrays.items()}
        return {key: a.copy() for key, a in arrays.items()}

    before = snapshot()
    restored.forward(windows, training=False, collect_attention=True)
    evaluate(restored, ds, split, "test", collect_attention=True)
    after = snapshot()
    assert before.keys() == after.keys()
    assert [key for key in before if not np.array_equal(before[key], after[key])] == []


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


def test_inference_records_no_tape_nodes(tiny_config, tiny_dataset, tmp_path, tape_nodes, capsys, monkeypatch):
    ds, split = tiny_dataset
    model = build_model(tiny_config, seed=0)
    evaluate(model, ds, split, "test")
    assert tape_nodes["nodes"] == 0

    ckpt_path, hist_path = str(tmp_path / "model.mlfckpt"), str(tmp_path / "hist.csv")
    norm = {"channels": list(ds.channel_names), "mean": ds.norm.mean.tolist(), "std": ds.norm.std.tolist()}
    save_checkpoint(ckpt_path, Checkpoint(tiny_config.to_dict(), model.state_arrays(), norm))
    write_csv(linear_trend(30, 1, seed=3), hist_path)
    code = cli.main(["forecast", ckpt_path, "--data", hist_path, "--output", str(tmp_path / "pred.csv")])
    assert code == 0, capsys.readouterr().err
    assert tape_nodes["nodes"] == 0

    # A bare inference forward, with no wrapper, records nothing either.
    _, windows, _ = next(batches(ds, tiny_config, *sample_index(ds, split.test, tiny_config)))
    assert not model.forward(windows, training=False).forecast.requires_grad
    assert tape_nodes["nodes"] == 0

    # The counter sees the nodes of a training forward and of a taped inference forward.
    assert model.forward(windows, training=True).forecast.requires_grad
    assert tape_nodes["nodes"] > 0
    tape_nodes["nodes"] = 0
    next(taped_batches(model, ds, split.test, monkeypatch))
    assert tape_nodes["nodes"] > 0


def test_kappa_partition_analysis_on_regime_data():
    """Single-period models of different lengths partition the test samples;
    samples best served by the short history show the sharpest futures."""
    from kappa import kappa_by_best_period

    ds0 = regime_dataset(n_steps=2200)
    period_lengths = [8, 24, 64]
    split = split_dataset(ds0, "ratio", min_history=64, horizon=1)
    ds = standardize(ds0, split)

    per_period_errors = []
    for n in period_lengths:
        cfg = regime_config(period_lengths=(n,), horizon=1, epochs=6)
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
