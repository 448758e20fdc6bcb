"""End-to-end command-line behavior, run in process via cli.main()."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlf import autograd, cli
from mlf.checkpoint import load_checkpoint, save_checkpoint
from mlf.data import load_csv, split_dataset, standardize
from mlf.model import apply_ablation, build_model
from mlf.training import evaluate, train

from conftest import DESK_PATH, regime_config, regime_dataset


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(path):
    return list(csv.reader(Path(path).read_text().splitlines()))


def read_json(path):
    return json.loads(Path(path).read_text())


def no_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_jsonl(path):
    return [json.loads(line, parse_constant=no_constant) for line in Path(path).read_text().splitlines()]


TOY_MODEL = {
    "period_lengths": [4, 8],
    "horizon": 2,
    "n_patches": 4,
    "squeeze_factor": 2,
    "d_model": 4,
    "n_heads": 2,
    "n_blocks": 2,
    "d_ff": 8,
    "conv_filters": 4,
    "learning_rate": 1e-3,
    "batch_size": 32,
    "epochs": 2,
}


@pytest.fixture
def toy_run(tmp_path):
    config = {
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "dataset": {"synthetic": {"kind": "trend", "n_steps": 160, "n_channels": 1, "seed": 3}},
        "model": dict(TOY_MODEL),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, tmp_path / "out"


@pytest.fixture
def trained(toy_run, capsys):
    path, out_dir = toy_run
    code, _, err = run_cli(capsys, "train", str(path))
    assert code == 0, err
    return path, out_dir


def test_synth_data_writes_csv(tmp_path, capsys):
    out = tmp_path / "synth.csv"
    code, stdout, _ = run_cli(capsys, "synth-data", "--kind", "regime-switch", "--rows", "50",
                              "--channels", "2", "--seed", "1", "--output", str(out))
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["date", "regime_0", "regime_1"]
    assert len(rows) == 51
    from mlf.data import load_csv
    from mlf.synth import generate

    # Values read back exactly.
    assert np.array_equal(load_csv(str(out)).values, generate("regime-switch", 50, 2, 1).values)


def test_synth_data_defaults_are_generates(tmp_path, capsys):
    from mlf.synth import generate, write_csv

    out, reference = tmp_path / "s.csv", tmp_path / "reference.csv"
    code, _, err = run_cli(capsys, "synth-data", "--output", str(out))
    assert code == 0, err
    write_csv(generate(), str(reference))
    assert out.read_bytes() == reference.read_bytes()
    # `regime-switch` at its defaults is the desk series.
    code, _, err = run_cli(capsys, "synth-data", "--kind", "regime-switch", "--rows", "3000", "--seed", "7",
                           "--output", str(out))
    assert code == 0, err
    write_csv(regime_dataset(n_steps=3000), str(reference))
    assert out.read_bytes() == reference.read_bytes()


def test_the_desk_series_is_the_benchmarks_explicit_call():
    # The benchmark spells out the generator's arguments; this is its call.
    from mlf.synth import regime_switching

    for n in (3000, 1500):
        bench = regime_switching(n, 1, seed=7, fast_amp=2.5, mean_dwell=50, noise=0.03, calm_noise=0.25)
        assert np.array_equal(regime_dataset(n_steps=n).values, bench.values)


def test_train_produces_artifacts(trained):
    _, out_dir = trained
    assert (out_dir / "checkpoint.mlfckpt").exists()
    assert (out_dir / "resolved_config.json").exists()
    log_lines = read_jsonl(out_dir / "train_log.jsonl")
    epochs = [rec for rec in log_lines if "epoch" in rec]
    assert len(epochs) == 2
    final = log_lines[-1]
    assert set(final) == {"best_epoch", "best_val_loss", "steps", "test"}
    test = final["test"]
    assert set(test) == {"split", "normalized", "original_units", "naive_normalized"}
    assert test["split"] == "test"
    assert test["normalized"]["units"] == "normalized" and test["normalized"]["mse"] >= 0.0
    assert test["original_units"]["units"] == "original"
    assert test["naive_normalized"]["units"] == "normalized" and test["naive_normalized"]["mse"] >= 0.0


def test_missing_period_lengths_names_field(tmp_path, capsys):
    config = {
        "dataset": {"synthetic": {"kind": "trend", "n_steps": 100}},
        "model": {"horizon": 2},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run_cli(capsys, "train", str(path))
    assert code == 1
    assert "error[config]" in err
    assert "period_lengths" in err


def test_eval_matches_train_log(trained, tmp_path, capsys):
    path, out_dir = trained
    final = read_jsonl(out_dir / "train_log.jsonl")[-1]
    # Regenerate the dataset file the checkpoint was trained on.
    data_csv = tmp_path / "data.csv"
    from mlf.synth import generate, write_csv

    write_csv(generate("trend", 160, 1, 3), str(data_csv))
    code, stdout, err = run_cli(capsys, "eval", str(out_dir / "checkpoint.mlfckpt"), "--data", str(data_csv))
    assert code == 0, err
    assert json.loads(stdout) == final["test"]
    # The kept epoch's validation score is what `eval` reports on that split.
    code, stdout, err = run_cli(
        capsys, "eval", str(out_dir / "checkpoint.mlfckpt"), "--data", str(data_csv), "--split", "val"
    )
    assert code == 0, err
    assert json.loads(stdout)["normalized"]["mse"] == final["best_val_loss"]


def test_eval_attention_export_shape(trained, tmp_path, capsys, monkeypatch, worker_calls):
    """The exported matrix is `evaluate`'s attention mean, bit for bit, with
    the blocks' batches whole and in two halves: the export recomputes the
    scores with `EncoderBlock.scores` on the whole batch."""
    path, out_dir = trained
    data_csv = tmp_path / "data.csv"
    from mlf.synth import generate, write_csv

    write_csv(generate("trend", 160, 1, 3), str(data_csv))
    ckpt_path = out_dir / "checkpoint.mlfckpt"
    ckpt = load_checkpoint(str(ckpt_path))
    model = cli.restore_model(ckpt)
    ds = load_csv(str(data_csv))
    split = split_dataset(ds, min_history=max(model.config.period_lengths), horizon=model.config.horizon)
    expected = evaluate(model, cli.apply_checkpoint_norm(ds, ckpt), split, "test", collect_attention=True)
    for floor in (autograd.SPLIT_FLOOR, 0):
        monkeypatch.setattr(autograd, "SPLIT_FLOOR", floor)
        att_csv = tmp_path / f"att{floor}.csv"
        code, _, err = run_cli(
            capsys,
            "eval", str(ckpt_path),
            "--data", str(data_csv),
            "--export-attention", str(att_csv),
            "--export-weights", str(tmp_path / "w.csv"),
        )
        assert code == 0, err
        assert bool(worker_calls) == (floor == 0)
        mat = np.loadtxt(att_csv, delimiter=",")
        n_tok = 2 * (4 // 2)  # S * n_patches / r
        assert mat.shape == (n_tok, n_tok)
        assert mat.size == n_tok**2
        assert np.array_equal(mat, expected.attention_mean)
    sidecar = read_json(str(att_csv) + ".tokens.json")
    assert [r["period_length"] for r in sidecar["token_ranges"]] == [4, 8]
    weights = np.loadtxt(tmp_path / "w.csv", delimiter=",")
    assert weights.shape == (2, 2)
    assert ((weights > 0.2689) & (weights < 0.7311)).all()


def test_forecast_rows_match_horizon(trained, tmp_path, capsys):
    _, out_dir = trained
    from mlf.synth import generate, write_csv

    hist_csv = tmp_path / "hist.csv"
    write_csv(generate("trend", 30, 1, 3), str(hist_csv))
    out_csv = tmp_path / "pred.csv"
    code, _, err = run_cli(
        capsys, "forecast", str(out_dir / "checkpoint.mlfckpt"), "--data", str(hist_csv),
        "--output", str(out_csv),
    )
    assert code == 0, err
    rows = read_rows(out_csv)
    assert len(rows) == 1 + 2  # header + horizon steps
    assert rows[0][0] == "step"
    # The written values are the model's denormalized forecast, exactly.
    assert np.array_equal(forecast_values(rows), expected_forecast(out_dir / "checkpoint.mlfckpt", hist_csv))


def forecast_values(rows):
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def expected_forecast(ckpt_path, hist_csv):
    """(m, C) denormalized forecast of the checkpoint's model from the last rows
    of every channel, sliced here channel by channel."""
    from mlf.data import load_csv

    ckpt = load_checkpoint(str(ckpt_path))
    model = cli.restore_model(ckpt)
    ds = cli.apply_checkpoint_norm(load_csv(str(hist_csv)), ckpt)
    windows = [ds.values[-n:].T.copy() for n in model.config.period_lengths]
    pred = ds.norm.invert(model.forward(windows, training=False).forecast.data, np.arange(ds.n_channels))
    return pred.T


def test_forecast_of_two_channels_is_the_models_forecast(toy_run, tmp_path, capsys):
    path, out_dir = toy_run
    code, _, err = run_cli(capsys, "train", str(path), "--set", "dataset.synthetic.n_channels=2")
    assert code == 0, err
    from mlf.synth import generate, write_csv

    hist_csv = tmp_path / "hist2.csv"
    write_csv(generate("trend", 30, 2, 5), str(hist_csv))
    out_csv = tmp_path / "pred2.csv"
    code, _, err = run_cli(
        capsys, "forecast", str(out_dir / "checkpoint.mlfckpt"), "--data", str(hist_csv),
        "--output", str(out_csv),
    )
    assert code == 0, err
    rows = read_rows(out_csv)
    assert rows[0] == ["step", "trend_0", "trend_1"]
    expected = expected_forecast(out_dir / "checkpoint.mlfckpt", hist_csv)
    assert expected.shape == (2, 2) and not np.array_equal(expected[:, 0], expected[:, 1])
    assert np.array_equal(forecast_values(rows), expected)


def test_unknown_data_format_is_a_config_error(tmp_path, capsys):
    data_csv = tmp_path / "data.csv"
    write_history(data_csv, 160)
    config = {
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "dataset": {"path": str(data_csv), "format": "parquet"},
        "model": TOY_MODEL,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run_cli(capsys, "train", str(path))
    assert code == 1
    assert err == "error[config]: dataset.format must be 'generic' or 'fund', got 'parquet'\n"


def test_forecast_rejects_short_history(trained, tmp_path, capsys):
    _, out_dir = trained
    from mlf.synth import generate, write_csv

    hist_csv = tmp_path / "short.csv"
    write_csv(generate("trend", 6, 1, 3), str(hist_csv))
    code, _, err = run_cli(
        capsys, "forecast", str(out_dir / "checkpoint.mlfckpt"), "--data", str(hist_csv)
    )
    assert code == 1
    assert "error[data]" in err


def write_history(path, n_steps=30, *, cell=None, name=None):
    """A 1-channel trend history; `cell` replaces the value on file line n_steps // 2 + 1,
    `name` the column name. Returns the path."""
    from mlf.synth import generate, write_csv

    write_csv(generate("trend", n_steps, 1, 3), str(path))
    rows = read_rows(path)
    if name is not None:
        rows[0][1] = name
    if cell is not None:
        rows[n_steps // 2][1] = cell
    Path(path).write_text("".join(",".join(row) + "\n" for row in rows))
    return str(path)


def assert_one_data_error(code, err, *needles):
    assert code == 1
    assert err.startswith("error[data]:") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


def test_forecast_rejects_nan_history(trained, tmp_path, capsys):
    _, out_dir = trained
    hist_csv = tmp_path / "nan.csv"
    write_history(hist_csv, cell="nan")
    code, out, err = run_cli(capsys, "forecast", str(out_dir / "checkpoint.mlfckpt"), "--data", str(hist_csv))
    assert_one_data_error(code, err, "non-finite value 'nan' at row 16, column 2 (trend_0)")
    assert out == ""


def test_train_rejects_inf_data(tmp_path, capsys):
    data_csv = tmp_path / "inf.csv"
    write_history(data_csv, 160, cell="inf")
    config = {"seed": 0, "output_dir": str(tmp_path / "out"), "dataset": {"path": str(data_csv)}, "model": TOY_MODEL}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, _, err = run_cli(capsys, "train", str(path))
    assert_one_data_error(code, err, "non-finite value 'inf' at row 81, column 2 (trend_0)")


def test_forecast_rejects_renamed_channel(trained, tmp_path, capsys):
    _, out_dir = trained
    hist_csv = tmp_path / "renamed.csv"
    write_history(hist_csv, name="other_0")
    code, out, err = run_cli(capsys, "forecast", str(out_dir / "checkpoint.mlfckpt"), "--data", str(hist_csv))
    assert_one_data_error(code, err, "['other_0']", "['trend_0']")
    assert out == ""


def test_forecast_rejects_channel_count_mismatch(trained, tmp_path, capsys):
    _, out_dir = trained
    hist_csv = tmp_path / "two.csv"
    code, _, _ = run_cli(capsys, "synth-data", "--rows", "30", "--channels", "2", "--seed", "3",
                         "--output", str(hist_csv))
    assert code == 0
    code, out, err = run_cli(capsys, "forecast", str(out_dir / "checkpoint.mlfckpt"), "--data", str(hist_csv))
    assert_one_data_error(code, err, "trained on 1 channels but dataset has 2")
    assert out == ""


@pytest.mark.parametrize("rows", [100, 160])
def test_eval_rejects_data_the_checkpoint_was_not_trained_on(rows, trained, tmp_path, capsys):
    _, out_dir = trained
    from mlf.synth import generate, write_csv

    data_csv = tmp_path / "other.csv"
    write_csv(generate("trend", rows, 1, 4), str(data_csv))  # trained on 160 rows of seed 3
    code, out, err = run_cli(capsys, "eval", str(out_dir / "checkpoint.mlfckpt"), "--data", str(data_csv))
    assert_one_data_error(code, err, f"file has {rows} rows", "training data had 160 rows")
    assert out == ""


def test_ablate_rows_and_dedup(toy_run, capsys):
    path, out_dir = toy_run
    code, stdout, err = run_cli(
        capsys, "ablate", str(path), "--flags", "irf, lwi,,irf", "--seeds", "2",
        "--set", "model.epochs=1",
    )
    assert code == 0, err
    report = read_json(out_dir / "ablation.json")
    labels = [r["variant"] for r in report["rows"]]
    assert labels == ["base", "w/o irf", "w/o lwi"]  # deduplicated, base first
    keys = ["variant", "mse_mean", "mse_std", "mae_mean", "mae_std", "mse_per_seed", "mae_per_seed"]
    width = len("w/o irf")
    lines = [f"{'variant'.ljust(width)}  {'MSE':>18}  {'MAE':>18}"]
    for r in report["rows"]:
        assert list(r) == keys
        assert len(r["mse_per_seed"]) == len(r["mae_per_seed"]) == 2
        for metric in ("mse", "mae"):
            per_seed = r[f"{metric}_per_seed"]
            assert r[f"{metric}_mean"] == np.mean(per_seed) and r[f"{metric}_std"] == np.std(per_seed)
        lines.append(f"{r['variant'].ljust(width)}  {r['mse_mean']:>10.6f} ±{r['mse_std']:<6.4f}  "
                     f"{r['mae_mean']:>10.6f} ±{r['mae_std']:<6.4f}")
    assert stdout == "\n".join(lines) + "\n"


def test_ablate_runs_the_seeds_and_anchor_stride_of_the_run_config(toy_run, tmp_path, capsys):
    # Base at --seeds 1 is the model that train fits from the same config.
    path, out_dir = toy_run
    flags = ["--seed", "5", "--set", "dataset.anchor_stride=3"]
    code, _, err = run_cli(capsys, "train", str(path), *flags)
    assert code == 0, err
    trained_mse = read_jsonl(out_dir / "train_log.jsonl")[-1]["test"]["normalized"]["mse"]
    ablate_dir = tmp_path / "ablate"
    code, _, err = run_cli(capsys, "ablate", str(path), "--flags", "", "--seeds", "1", "--output", str(ablate_dir), *flags)
    assert code == 0, err
    assert read_json(ablate_dir / "ablation.json")["rows"][0]["mse_per_seed"] == [trained_mse]


def test_ablate_runs_the_desk_experiment_as_the_library_does(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "ablate", str(DESK_PATH), "--set", "model.epochs=1",
                           "--set", "dataset.synthetic.n_steps=1500", "--seeds", "2", "--flags", "irf",
                           "--output", str(out_dir))
    assert code == 0, err
    rows = read_json(out_dir / "ablation.json")["rows"]
    raw, cfg = regime_dataset(n_steps=1500), regime_config(epochs=1)
    split = split_dataset(raw, "ratio", min_history=max(cfg.period_lengths), horizon=cfg.horizon)
    ds = standardize(raw, split)
    assert [r["variant"] for r in rows] == ["base", "w/o irf"]
    for row, variant in zip(rows, (cfg, apply_ablation(cfg, "irf"))):
        mses = []
        for seed in (0, 1):
            model = build_model(variant, seed=seed)
            train(model, ds, split, seed=seed)
            mses.append(evaluate(model, ds, split, "test").report_normalized.mse)
        assert row["mse_per_seed"] == mses, row["variant"]


def test_ablate_with_an_unwritable_output_fails_before_training(toy_run, tmp_path, capsys, monkeypatch):
    path, _ = toy_run
    calls = []
    monkeypatch.setattr(cli, "ablate", lambda *args, **kwargs: calls.append(args))
    blocker = tmp_path / "a-file"
    blocker.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "ablate", str(path), "--flags", "irf", "--output", str(blocker / "out"))
    assert (code, calls, out) == (1, [], "")
    assert err.startswith("error[io]:") and err.count("\n") == 1, err


def test_ablate_unknown_flag(toy_run, capsys):
    path, _ = toy_run
    code, _, err = run_cli(capsys, "ablate", str(path), "--flags", "nonsense")
    assert code == 1 and "error[config]" in err


@pytest.mark.parametrize(
    "override, epochs", [("model.epochs=0", 0), ("dataset.split.ratios=[8,0,2]", 2)], ids=["no-epoch", "no-val-rows"]
)
def test_a_loss_that_is_not_finite_is_logged_as_null(toy_run, capsys, override, epochs):
    path, out_dir = toy_run
    code, _, err = run_cli(capsys, "train", str(path), "--set", override)
    assert code == 0, err
    *records, final = read_jsonl(out_dir / "train_log.jsonl")
    assert [rec["val_loss"] for rec in records] == [None] * epochs
    assert final["best_val_loss"] is None and final["test"]["normalized"]["mse"] >= 0.0


def test_set_takes_a_dataset_path_without_json_quotes(tmp_path, capsys):
    # A bare path is not JSON, so `--set` keeps it as text.
    data_csv = write_history(tmp_path / "d.csv", 160)
    config = dataset_config(tmp_path, {})
    code, _, err = run_cli(capsys, "train", config, "--set", f"dataset.path={data_csv}", "--set", "model.epochs=1")
    assert code == 0, err
    assert read_json(tmp_path / "out" / "resolved_config.json")["dataset"] == {"path": data_csv}
    record = load_checkpoint(str(tmp_path / "out" / "checkpoint.mlfckpt")).meta["data"]
    assert record == cli.data_record(load_csv(data_csv))


def test_set_overrides_fields(toy_run, capsys):
    path, out_dir = toy_run
    code, _, err = run_cli(capsys, "train", str(path), "--set", "model.epochs=1", "--seed", "11")
    assert code == 0, err
    resolved = read_json(out_dir / "resolved_config.json")
    assert resolved["model"]["epochs"] == 1
    assert resolved["seed"] == 11
    log_lines = read_jsonl(out_dir / "train_log.jsonl")
    assert sum(1 for rec in log_lines if "epoch" in rec) == 1


def test_retrain_from_snapshot_reproduces_checkpoint(trained, tmp_path, capsys):
    _, out_dir = trained
    snapshot = out_dir / "resolved_config.json"
    rerun_dir = tmp_path / "rerun"
    code, _, err = run_cli(capsys, "train", str(snapshot), "--output", str(rerun_dir))
    assert code == 0, err
    assert (out_dir / "checkpoint.mlfckpt").read_bytes() == (rerun_dir / "checkpoint.mlfckpt").read_bytes()


def save_toy_checkpoint(path, normalization, **model_fields):
    """A checkpoint of an untrained toy model, saved without a run or data record."""
    from mlf.checkpoint import Checkpoint, save_checkpoint
    from mlf.model import MlfConfig, build_model

    cfg = MlfConfig.from_dict(dict(TOY_MODEL, **model_fields))
    save_checkpoint(str(path), Checkpoint(cfg.to_dict(), build_model(cfg).state_arrays(), normalization))
    return str(path)


TOY_NORM = {"channels": ["trend_0"], "mean": [0.0], "std": [1.0]}


def config_file(tmp_path, text):
    path = tmp_path / "run.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def raw_file(path, blob):
    path.write_bytes(blob)
    return str(path)


def overflowing_csv(path):
    """160 rows of one channel `x` alternating +-1.5e308: finite cells whose train-split mean overflows."""
    return raw_file(path, b"date,x\n" + b"".join(b"%d,%s\n" % (i, b"-1.5e+308" if i % 2 else b"1.5e+308")
                                                    for i in range(160)))


def dataset_config(tmp_path, dataset):
    """A toy run config with the given `dataset` section, writing into `tmp_path`."""
    return config_file(tmp_path, json.dumps({"model": TOY_MODEL, "dataset": dataset, "output_dir": str(tmp_path / "out")}))


@pytest.mark.parametrize(
    "code, argv, needle",
    [
        ("io", lambda tmp: ["train", str(tmp / "missing.json")], "cannot read config"),
        ("config", lambda tmp: ["train", config_file(tmp, "{not json")], "is not valid JSON"),
        ("config", lambda tmp: ["train", config_file(tmp, "[1, 2]")], "must be a JSON object"),
        ("config", lambda tmp: ["train", config_file(tmp, json.dumps({"model": 3})), "--set", "model.horizon=2"],
         "crosses a non-object value"),
        ("config", lambda tmp: ["train", config_file(tmp, "{}"), "--set", "foo=1"],
         "config has unknown key(s): ['foo']"),
        ("usage", lambda tmp: ["train", config_file(tmp, "{}"), "--set", "model.horizon"], "expects dotted.key=value"),
        ("usage", lambda tmp: ["eval", save_toy_checkpoint(tmp / "m.ckpt", TOY_NORM, use_lwi=False),
                               "--data", write_history(tmp / "d.csv", 160),
                               "--export-weights", str(tmp / "w.csv")], "requires the learned-integration head"),
        ("usage", lambda tmp: ["eval", save_toy_checkpoint(tmp / "m.ckpt", TOY_NORM, use_attention=False),
                               "--data", write_history(tmp / "d.csv", 160),
                               "--export-attention", str(tmp / "a.csv")], "requires a model with attention enabled"),
        ("checkpoint", lambda tmp: ["forecast", save_toy_checkpoint(tmp / "m.ckpt", None),
                                    "--data", write_history(tmp / "d.csv")],
         "carries no normalization statistics"),
        ("data", lambda tmp: ["forecast", save_toy_checkpoint(tmp / "m.ckpt", TOY_NORM),
                              "--data", write_history(tmp / "d.csv", 6)],
         "need at least 8 history rows, file has 6"),
        ("usage", lambda tmp: ["ablate", config_file(tmp, "{}"), "--flags", "lwi", "--seeds", "0"],
         "--seeds must be an integer >= 1, got 0"),
        ("usage", lambda tmp: ["ablate", config_file(tmp, "{}"), "--flags", "lwi", "--seeds", "-1"],
         "--seeds must be an integer >= 1, got -1"),
        ("usage", lambda tmp: ["synth-data", "--rows", "1", "--output", str(tmp / "s.csv")], "--rows must be an integer >= 2, got 1"),
        ("usage", lambda tmp: ["synth-data", "--rows", "-5", "--output", str(tmp / "s.csv")],
         "--rows must be an integer >= 2, got -5"),
        ("usage", lambda tmp: ["synth-data", "--channels", "0", "--output", str(tmp / "s.csv")],
         "--channels must be an integer >= 1, got 0"),
        ("usage", lambda tmp: ["synth-data", "--seed", "-1", "--output", str(tmp / "s.csv")],
         "--seed must be an integer >= 0, got -1"),
        ("usage", lambda tmp: ["train", config_file(tmp, "{}"), "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        ("usage", lambda tmp: ["train", config_file(tmp, "{}"), "--output", ""],
         "--output must be a non-empty string, got ''"),
        ("config", lambda tmp: ["train", config_file(tmp, "{}"), "--set", 'seed="x"'],
         "seed must be an integer >= 0, got 'x'"),
        ("config", lambda tmp: ["train", config_file(tmp, "{}"), "--set", "output_dir=5"],
         "output_dir must be a non-empty string, got 5"),
        ("data", lambda tmp: ["forecast", save_toy_checkpoint(tmp / "m.ckpt", TOY_NORM),
                              "--data", raw_file(tmp / "d.csv", b"\xff\xfe")], "can't decode byte 0xff"),
        ("data", lambda tmp: ["eval", save_toy_checkpoint(tmp / "m.ckpt", TOY_NORM),
                              "--data", raw_file(tmp / "d.csv", b"\xff\xfe")], "can't decode byte 0xff"),
        ("data", lambda tmp: ["forecast", save_toy_checkpoint(tmp / "m.ckpt", TOY_NORM),
                              "--data", write_history(tmp / "d.csv", cell="1" * 131073)],
         "field larger than field limit"),
        ("config", lambda tmp: ["train", raw_file(tmp / "run.json", b"\xff\xfe{}")], "is not UTF-8 text"),
        ("config", lambda tmp: ["train", config_file(tmp, "{}"), "--set", "dataset=3"],
         "dataset must be an object, got 3"),
        ("config", lambda tmp: ["train", config_file(tmp, "{}"), "--set", "dataset=null"],
         "dataset must be an object, got None"),
        ("config", lambda tmp: ["train", config_file(tmp, json.dumps({"model": TOY_MODEL}))],
         "missing required config section: dataset"),
        ("config", lambda tmp: ["train", config_file(tmp, json.dumps({"dataset": {"synthetic": {}}}))],
         "missing required config section: model"),
        ("config", lambda tmp: ["train", config_file(tmp, json.dumps(
            {"model": TOY_MODEL, "dataset": {"path": str(tmp / "absent.csv"), "synthetic": {}}}))],
         "dataset section takes 'path' or 'synthetic', not both"),
        ("config", lambda tmp: ["train", config_file(tmp, json.dumps(
            {"model": TOY_MODEL, "dataset": {"synthetic": {}, "format": "fund"}}))],
         "dataset section takes 'format' only with 'path'"),
        ("io", lambda tmp: ["eval", save_toy_checkpoint(tmp / "m.ckpt", TOY_NORM),
                            "--data", write_history(tmp / "d.csv", 160),
                            "--export-attention", str(tmp / "absent" / "a.csv")], "No such file or directory"),
        ("checkpoint", lambda tmp: ["forecast", str(tmp / "absent.ckpt"), "--data", write_history(tmp / "d.csv")],
         "cannot open checkpoint"),
        ("checkpoint", lambda tmp: ["forecast", raw_file(tmp / "m.ckpt", b"MLFCKPT1" + (3).to_bytes(8, "little") + b"[1]"),
                                    "--data", write_history(tmp / "d.csv")], "corrupt header: not a JSON object"),
        ("data", lambda tmp: ["train", dataset_config(tmp, {"path": raw_file(tmp / "d.csv", b"")})], "empty file"),
        ("data", lambda tmp: ["train", dataset_config(tmp, {"path": raw_file(tmp / "d.csv", b"date\n2020-01-01\n")})],
         "need a date column plus at least one value column"),
        ("data", lambda tmp: ["train", dataset_config(tmp, {"path": write_history(tmp / "d.csv"), "format": "fund"})],
         "value columns not found: ['apply_amt', 'redeem_amt']"),
        ("config", lambda tmp: ["train", dataset_config(tmp, {})], "dataset section needs either 'path' or 'synthetic'"),
        ("data", lambda tmp: ["train", dataset_config(tmp, {"path": overflowing_csv(tmp / "d.csv")})],
         "train-split mean or std overflows for channel(s): ['x']"),
        ("data", lambda tmp: ["forecast", save_toy_checkpoint(tmp / "m.ckpt", dict(TOY_NORM, std=[0.07])),
                              "--data", write_history(tmp / "d.csv", cell="1.7e+308")],
         "values overflow when normalized, in channel index(es) [0]"),
        ("usage", lambda tmp: ["synth-data", "--kind", "foo", "--output", str(tmp / "s.csv")],
         "--kind must be one of ['ett', 'regime-switch', 'trend'], got 'foo'"),
        ("config", lambda tmp: ["train", dataset_config(tmp, {"synthetic": {}, "split": {"rows_per_month": 50}})],
         "dataset.split.rows_per_month applies only to scheme 'ett'"),
        ("config", lambda tmp: ["train", dataset_config(tmp, {"synthetic": {}, "split": {"scheme": "ett", "ratios": [7, 1, 2]}})],
         "dataset.split.ratios applies only to scheme 'ratio'"),
    ],
    ids=["io", "config-json", "config-object", "config-set-path", "config-top-level-key", "usage-set", "usage-export",
         "usage-export-attention", "checkpoint", "data", "usage-seeds-zero", "usage-seeds-negative", "usage-rows-one",
         "usage-rows-negative", "usage-channels-zero", "usage-synth-seed-negative", "usage-seed-negative",
         "usage-output-empty", "config-seed-text", "config-output-dir-number", "data-not-utf8-forecast",
         "data-not-utf8-eval", "data-field-too-long", "config-not-utf8", "config-dataset-number",
         "config-dataset-null", "config-dataset-missing", "config-model-missing", "config-dataset-path-and-synthetic",
         "config-dataset-format-without-path", "io-export-path", "checkpoint-missing", "checkpoint-header-not-object",
         "data-empty-file", "data-date-column-only", "data-fund-columns-missing", "config-dataset-empty",
         "data-train-stats-overflow", "data-normalized-overflow", "usage-synth-kind-unknown",
         "config-split-rows-per-month-without-ett", "config-split-ratios-under-ett"],
)
def test_each_error_category_prints_its_one_line(tmp_path, capsys, code, argv, needle):
    status, out, err = run_cli(capsys, *argv(tmp_path))
    assert status == 1
    assert err.startswith(f"error[{code}]:") and err.count("\n") == 1, err
    assert needle in err
    assert out == ""
    assert "Traceback" not in out + err


def test_an_export_that_fails_leaves_no_export_behind(tmp_path, capsys):
    attention = tmp_path / "a.csv"
    code, out, err = run_cli(
        capsys,
        "eval", save_toy_checkpoint(tmp_path / "m.ckpt", TOY_NORM),
        "--data", write_history(tmp_path / "d.csv", 160),
        "--export-attention", str(attention),
        "--export-weights", str(tmp_path / "absent" / "w.csv"),
    )
    assert code == 1
    assert err.startswith("error[io]:") and err.count("\n") == 1, err
    assert out == ""
    assert not attention.exists() and not Path(str(attention) + ".tokens.json").exists()


def test_damaged_checkpoints_through_forecast_print_one_error_line_or_a_finite_forecast(tmp_path, capsys):
    """Each byte of the header length (bytes 8-15) set to 0xff, '"', '9' or '-',
    and 50 truncations of the toy checkpoint: exit 1 with one error line and
    nothing written, or exit 0 with a finite forecast. A header length past the
    end of the file fails before anything is read, not with a MemoryError."""
    blob = Path(save_toy_checkpoint(tmp_path / "m.ckpt", TOY_NORM)).read_bytes()
    data, out = write_history(tmp_path / "d.csv", 160), tmp_path / "f.csv"
    length_edits = [blob[:i] + bytes([b]) + blob[i + 1 :] for i in range(8, 16) for b in b'\xff"9-']
    cuts = [blob[:n] for n in np.linspace(0, len(blob) - 1, 50).astype(int)]
    for k, damaged in enumerate(length_edits + cuts):
        out.unlink(missing_ok=True)
        code, stdout, err = run_cli(capsys, "forecast", raw_file(tmp_path / "c.ckpt", damaged),
                                    "--data", data, "--output", str(out))
        if code == 0:
            assert np.isfinite(np.array(read_rows(out)[1:], dtype=float)).all(), k
            continue
        assert code == 1 and err.startswith("error[") and err.count("\n") == 1, (k, err)
        assert stdout == "" and not out.exists(), k
        assert k >= len(length_edits) or err.startswith("error[checkpoint]:"), (k, err)


def test_seeded_header_and_csv_edits_print_one_error_line_or_a_finite_result(tmp_path, capsys):
    """A seeded corpus of single-byte edits, each byte drawn from JSON and CSV
    syntax, digits and 0xff: 200 of the toy checkpoint's JSON header and 200
    of the data CSV through `forecast`, and the first 50 of those CSV edits
    through `eval`. Each ends in exit 1 with one `error[<code>]` line and
    nothing on stdout or in the output file, or in exit 0 with a finite
    forecast (for `eval`, its JSON report)."""
    data = write_history(tmp_path / "d.csv", 160)
    ckpt = load_checkpoint(save_toy_checkpoint(tmp_path / "m.ckpt", TOY_NORM))
    ckpt.meta = {"run": {"seed": 0, "dataset": {}}, "data": cli.data_record(load_csv(data))}
    save_checkpoint(str(tmp_path / "m.ckpt"), ckpt)
    blob, csv_blob = (tmp_path / "m.ckpt").read_bytes(), Path(data).read_bytes()
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    rng, pool = np.random.default_rng(2024), b'0123456789-+.eE"[]{},:\n aZ\xff'

    def edit(original, lo, hi):
        at, byte = int(rng.integers(lo, hi)), pool[int(rng.integers(len(pool)))]
        return original[:at] + bytes([byte]) + original[at + 1 :]

    headers = [edit(blob, 16, header_end) for _ in range(200)]
    csvs = [edit(csv_blob, 0, len(csv_blob)) for _ in range(200)]
    cases = [("forecast", h, csv_blob) for h in headers] + [("forecast", blob, c) for c in csvs]
    cases += [("eval", blob, c) for c in csvs[:50]]
    codes, out = set(), tmp_path / "f.csv"
    for k, (command, ckpt_bytes, csv_bytes) in enumerate(cases):
        out.unlink(missing_ok=True)
        argv = [command, raw_file(tmp_path / "c.ckpt", ckpt_bytes), "--data", raw_file(tmp_path / "e.csv", csv_bytes)]
        code, stdout, err = run_cli(capsys, *argv, *(["--output", str(out)] if command == "forecast" else []))
        codes.add(code)
        if code == 0 and command == "forecast":
            assert np.isfinite(np.array(read_rows(out)[1:], dtype=float)).all(), k
        elif code == 0:
            assert isinstance(json.loads(stdout), dict) and err == "", k
        else:
            assert code == 1 and err.startswith("error[") and err.count("\n") == 1, (k, err)
            assert stdout == "" and not out.exists(), k
    assert codes == {0, 1}


def save_overflowing_checkpoint(path):
    """A toy checkpoint whose finite weights give a non-finite forecast. Returns the path."""
    path = save_toy_checkpoint(path, TOY_NORM)
    ckpt = load_checkpoint(path)
    for s in range(len(TOY_MODEL["period_lengths"])):
        ckpt.arrays[f"embed.p{s}.proj"] *= 1e300
    save_checkpoint(path, ckpt)
    return path


@pytest.mark.parametrize("command", ["eval", "forecast"])
def test_weights_that_overflow_are_one_metric_error_line_and_write_nothing(tmp_path, capsys, command):
    path = save_overflowing_checkpoint(tmp_path / "m.ckpt")
    out_csv = tmp_path / "forecast.csv"
    argv = [command, path, "--data", write_history(tmp_path / "d.csv", 160)]
    code, out, err = run_cli(capsys, *argv, *(["--output", str(out_csv)] if command == "forecast" else []))
    assert code == 1
    assert err == "error[metric]: predictions hold NaN or Inf\n"
    assert out == "" and not out_csv.exists()


def test_a_forward_run_in_halves_keeps_the_overflow_policy(tmp_path, capsys, monkeypatch, worker_calls):
    """The worker's half runs in the caller's context, under `cli.main`'s
    `np.errstate`: an overflow warning there would raise under pytest's
    warning filter instead of leaving the one line."""
    monkeypatch.setattr(autograd, "SPLIT_FLOOR", 0)
    argv = ["eval", save_overflowing_checkpoint(tmp_path / "m.ckpt"), "--data", write_history(tmp_path / "d.csv", 160)]
    assert run_cli(capsys, *argv) == (1, "", "error[metric]: predictions hold NaN or Inf\n")
    assert worker_calls


@pytest.mark.parametrize("command", [["train"], ["ablate", "--flags", "lwi"]], ids=["train", "ablate"])
def test_a_diverging_run_prints_one_stderr_line_when_run_as_a_program(toy_run, command):
    """In its own process, where numpy prints its warnings; under pytest they raise instead."""
    path, out_dir = toy_run
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONWARNINGS="default")
    argv = [sys.executable, "-m", "mlf.cli", *command, str(path), "--set", "model.learning_rate=1e300"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (1, "error[diverged]: non-finite training loss at step 1\n")
    assert done.stdout == "" and not (out_dir / "checkpoint.mlfckpt").exists()


def test_data_that_overflows_when_normalized_prints_one_stderr_line_when_run_as_a_program(tmp_path):
    """In its own process, where numpy prints its warnings; under pytest they raise instead."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONWARNINGS="default")
    argv = [sys.executable, "-m", "mlf.cli", "train", dataset_config(tmp_path, {"path": overflowing_csv(tmp_path / "d.csv")})]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (1, "error[data]: train-split mean or std overflows for channel(s): ['x']\n")
    assert done.stdout == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "forecast"])
def test_weights_that_overflow_print_one_stderr_line_when_run_as_a_program(tmp_path, command):
    """In its own process, where numpy prints its warnings; under pytest they raise instead."""
    path = save_overflowing_checkpoint(tmp_path / "m.ckpt")
    argv = [command, path, "--data", write_history(tmp_path / "d.csv", 160)]
    argv += ["--output", str(tmp_path / "f.csv")] if command == "forecast" else []
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONWARNINGS="default")
    done = subprocess.run([sys.executable, "-m", "mlf.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (1, "error[metric]: predictions hold NaN or Inf\n")
    assert done.stdout == "" and not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize(
    "override, needle",
    [
        ("model.period_lengths=5", "model.period_lengths must be a list of integers, got 5"),
        ('model.horizon="x"', "model.horizon must be an integer, got 'x'"),
        ("model.epochs=1.5", "model.epochs must be an integer, got 1.5"),
        ("model.period_lengths=[1]", "positive and the longest >= 2"),
        ("model.grad_clip=-1", "model.grad_clip must be >= 0, got -1"),
        ("model.patch_ratio=2", "model has unknown key(s): ['patch_ratio']"),
    ],
    ids=["period-lengths-int", "horizon-text", "epochs-float", "period-lengths-one", "grad-clip-negative",
         "patch-ratio-unknown"],
)
def test_mistyped_model_field_is_one_config_error_line(toy_run, capsys, override, needle):
    path, out_dir = toy_run
    code, out, err = run_cli(capsys, "train", str(path), "--set", override)
    assert code == 1
    assert err.startswith("error[config]:") and err.count("\n") == 1 and needle in err, err
    assert out == "" and not out_dir.exists()


@pytest.mark.parametrize(
    "overrides, split",
    [
        (["dataset.split.ratios=[0,1,1]"], "train"),
        # Periods 4/8 and horizon 8 on 30 rows: the test rows 24..30 hold no 8-step target.
        (["dataset.synthetic.n_steps=30", "model.horizon=8"], "test"),
    ],
    ids=["train", "test"],
)
def test_split_without_a_window_fails_before_training(toy_run, capsys, overrides, split):
    path, out_dir = toy_run
    argv = ["train", str(path)]
    for item in overrides:
        argv += ["--set", item]
    code, out, err = run_cli(capsys, *argv)
    assert_one_data_error(code, err, f"the {split} split")
    assert out == ""  # no epoch ran
    assert not (out_dir / "checkpoint.mlfckpt").exists()


def test_the_parser_is_built_once_and_keeps_no_override_between_calls(toy_run, tmp_path, capsys):
    path, _ = toy_run
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(capsys, "train", str(path), "--output", str(first), "--set", "model.epochs=1")[0] == 0
    assert run_cli(capsys, "train", str(path), "--output", str(second))[0] == 0
    assert read_json(first / "resolved_config.json")["model"]["epochs"] == 1
    assert read_json(second / "resolved_config.json")["model"]["epochs"] == TOY_MODEL["epochs"]


BAD_DATASET_SECTIONS = {
    "split-text": ({"split": "ratio"}, "dataset.split must be an object, got 'ratio'"),
    "ratios-int": ({"split": {"ratios": 5}}, "dataset.split.ratios must be a list of 3 integers >= 0"),
    "ratios-zero": ({"split": {"ratios": [0, 0, 0]}}, "dataset.split.ratios must be a list of 3 integers >= 0"),
    "scheme-unknown": ({"split": {"scheme": "month"}}, "dataset.split.scheme must be 'ratio' or 'ett', got 'month'"),
    "synthetic-int": ({"synthetic": 3}, "dataset.synthetic must be an object, got 3"),
    "n-steps-text": ({"synthetic": {"n_steps": "x"}}, "dataset.synthetic.n_steps must be an integer >= 2, got 'x'"),
    # The floor of `synth-data --rows` and of the CSV reader: one row holds no window.
    "n-steps-one": ({"synthetic": {"n_steps": 1}}, "dataset.synthetic.n_steps must be an integer >= 2, got 1"),
    "kind-unknown": ({"synthetic": {"kind": "wave"}}, "dataset.synthetic.kind must be one of ["),
    "stride-zero": ({"anchor_stride": 0}, "dataset.anchor_stride must be an integer >= 1, got 0"),
    "key-unknown": ({"anchr_stride": 5}, "dataset has unknown key(s): ['anchr_stride']"),
    "format-unknown": ({"format": "parquet"}, "dataset.format must be 'generic' or 'fund', got 'parquet'"),
    "split-key-unknown": ({"split": {"ratio": [1, 1, 1]}}, "dataset.split has unknown key(s): ['ratio']"),
    "synthetic-key-unknown": ({"synthetic": {"n_step": 50}}, "dataset.synthetic has unknown key(s): ['n_step']"),
    # The rules that compare one field with another.
    "rows-per-month-ratio": ({"split": {"scheme": "ratio", "rows_per_month": 5}},
                             "dataset.split.rows_per_month applies only to scheme 'ett'"),
    "ratios-ett": ({"split": {"scheme": "ett", "ratios": [1, 1, 1]}},
                   "dataset.split.ratios applies only to scheme 'ratio'"),
    "path-and-synthetic": ({"path": "x.csv", "synthetic": {"kind": "trend"}},
                           "dataset section takes 'path' or 'synthetic', not both"),
    "format-and-synthetic": ({"format": "generic", "synthetic": {"kind": "trend"}},
                             "dataset section takes 'format' only with 'path'"),
}


@pytest.mark.parametrize("section, needle", BAD_DATASET_SECTIONS.values(), ids=BAD_DATASET_SECTIONS.keys())
def test_bad_dataset_field_is_one_config_error_line_from_train(toy_run, capsys, section, needle):
    path, out_dir = toy_run
    argv = ["train", str(path)]
    for key, value in section.items():
        argv += ["--set", f"dataset.{key}={json.dumps(value)}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error[config]: ") and err.count("\n") == 1 and needle in err, err
    assert out == "" and not out_dir.exists()


def assert_bad_dataset_field_is_one_checkpoint_error_line(tmp_path, capsys, command, section, needle):
    path, out_csv = str(tmp_path / "bad.ckpt"), tmp_path / "f.csv"
    ckpt = load_checkpoint(save_toy_checkpoint(tmp_path / "m.ckpt", TOY_NORM))
    ckpt.meta = {"run": {"seed": 0, "dataset": section}}
    save_checkpoint(path, ckpt)
    argv = [command, path, "--data", write_history(tmp_path / "d.csv", 160)]
    code, out, err = run_cli(capsys, *argv, *(["--output", str(out_csv)] if command == "forecast" else []))
    assert code == 1
    assert err.startswith(f"error[checkpoint]: {path}: corrupt header: meta.run.{needle}"), err
    assert err.count("\n") == 1 and out == "" and not out_csv.exists()


@pytest.mark.parametrize("section, needle", BAD_DATASET_SECTIONS.values(), ids=BAD_DATASET_SECTIONS.keys())
def test_bad_dataset_field_is_one_checkpoint_error_line_from_eval(tmp_path, capsys, section, needle):
    assert_bad_dataset_field_is_one_checkpoint_error_line(tmp_path, capsys, "eval", section, needle)


@pytest.mark.parametrize("section, needle", BAD_DATASET_SECTIONS.values(), ids=BAD_DATASET_SECTIONS.keys())
def test_bad_dataset_field_is_one_checkpoint_error_line_from_forecast(tmp_path, capsys, section, needle):
    assert_bad_dataset_field_is_one_checkpoint_error_line(tmp_path, capsys, "forecast", section, needle)


def test_a_fund_run_is_served_in_the_format_its_checkpoint_records(tmp_path, capsys):
    """`eval` and `forecast` take no format option: they read the data file
    as the `dataset` section stored in the checkpoint says, here 'fund', also
    when a library-written checkpoint's section holds only the format."""
    from mlf.synth import generate

    amounts = 10.0 + np.abs(generate("trend", 160, 2, 3).values)
    fund_csv = tmp_path / "fund.csv"
    fund_csv.write_text("date,apply_amt,redeem_amt,is_trad,holiday_num\n" + "".join(
        f"{i},{a!r},{r!r},{i % 2},0\n" for i, (a, r) in enumerate(amounts.tolist())))
    config = {"output_dir": str(tmp_path / "out"), "dataset": {"path": str(fund_csv), "format": "fund"},
              "model": dict(TOY_MODEL, epochs=1)}
    code, _, err = run_cli(capsys, "train", config_file(tmp_path, json.dumps(config)))
    assert code == 0, err
    trained = str(tmp_path / "out" / "checkpoint.mlfckpt")
    library = load_checkpoint(trained)
    library.meta = {"run": {"dataset": {"format": "fund"}}}
    save_checkpoint(str(tmp_path / "library.mlfckpt"), library)
    for ckpt_path in (trained, str(tmp_path / "library.mlfckpt")):
        code, stdout, err = run_cli(capsys, "eval", ckpt_path, "--data", str(fund_csv))
        assert code == 0, err
        # `train` scored its test split with the per-channel WMAPE summed, as fund data is scored.
        assert json.loads(stdout) == read_jsonl(tmp_path / "out" / "train_log.jsonl")[-1]["test"]
        out_csv = tmp_path / "pred.csv"
        code, _, err = run_cli(capsys, "forecast", ckpt_path, "--data", str(fund_csv), "--output", str(out_csv))
        assert code == 0, err
        rows = read_rows(out_csv)
        assert rows[0] == ["step", "apply_amt", "redeem_amt"] and len(rows) == 1 + TOY_MODEL["horizon"]
