"""End-to-end command-line behavior, run in process via cli.main()."""

import csv
import json
import os

import numpy as np
import pytest

from mlf import cli
from mlf.checkpoint import load_checkpoint


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["date", "regime_0", "regime_1"]
    assert len(rows) == 51
    from mlf.data import load_csv
    from mlf.synth import generate

    # Values read back exactly.
    assert np.array_equal(load_csv(str(out)).values, generate("regime-switch", 50, 2, 1).values)


def test_train_produces_artifacts(trained):
    _, out_dir = trained
    assert (out_dir / "checkpoint.mlfckpt").exists()
    assert (out_dir / "resolved_config.json").exists()
    log_lines = [json.loads(line) for line in open(out_dir / "train_log.jsonl")]
    epochs = [rec for rec in log_lines if "epoch" in rec]
    assert len(epochs) == 2
    final = log_lines[-1]
    assert "test" in final and final["test"]["mse"] >= 0.0
    assert final["naive"]["mse"] >= 0.0


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
    final = [json.loads(line) for line in open(out_dir / "train_log.jsonl")][-1]
    # Regenerate the dataset file the checkpoint was trained on.
    data_csv = tmp_path / "data.csv"
    from mlf.synth import generate, write_csv

    write_csv(generate("trend", 160, 1, 3), str(data_csv))
    code, stdout, err = run_cli(
        capsys, "eval", str(out_dir / "checkpoint.mlfckpt"), "--data", str(data_csv), "--naive-baseline"
    )
    assert code == 0, err
    payload = json.loads(stdout[: stdout.rindex("}") + 1])
    assert payload["normalized"]["mse"] == pytest.approx(final["test"]["mse"], rel=1e-12)
    assert payload["naive_normalized"]["mse"] == pytest.approx(final["naive"]["mse"], rel=1e-12)


def test_eval_attention_export_shape(trained, tmp_path, capsys):
    path, out_dir = trained
    data_csv = tmp_path / "data.csv"
    from mlf.synth import generate, write_csv

    write_csv(generate("trend", 160, 1, 3), str(data_csv))
    att_csv = tmp_path / "att.csv"
    code, _, err = run_cli(
        capsys,
        "eval", str(out_dir / "checkpoint.mlfckpt"),
        "--data", str(data_csv),
        "--export-attention", str(att_csv),
        "--export-weights", str(tmp_path / "w.csv"),
    )
    assert code == 0, err
    mat = np.loadtxt(att_csv, delimiter=",")
    n_tok = 2 * (4 // 2)  # S * n_patches / r
    assert mat.shape == (n_tok, n_tok)
    assert mat.size == n_tok**2
    sidecar = json.loads(open(str(att_csv) + ".tokens.json").read())
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
    rows = list(csv.reader(open(out_csv)))
    assert len(rows) == 1 + 2  # header + horizon steps
    assert rows[0][0] == "step"
    # The written values are the model's denormalized forecast, exactly.
    from mlf.data import load_csv

    ckpt = load_checkpoint(str(out_dir / "checkpoint.mlfckpt"))
    model = cli.restore_model(ckpt)
    ds = cli.apply_checkpoint_norm(load_csv(str(hist_csv)), ckpt)
    windows = [ds.values[-n:].T.copy() for n in model.config.period_lengths]
    pred = ds.norm.invert(model.forward(windows, training=False).forecast.data, np.arange(ds.n_channels))
    assert np.array_equal(np.array([[float(v) for v in row[1:]] for row in rows[1:]]), pred.T)


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


def test_forecast_horizon_mismatch(trained, tmp_path, capsys):
    _, out_dir = trained
    from mlf.synth import generate, write_csv

    hist_csv = tmp_path / "hist.csv"
    write_csv(generate("trend", 30, 1, 3), str(hist_csv))
    code, _, err = run_cli(
        capsys, "forecast", str(out_dir / "checkpoint.mlfckpt"), "--data", str(hist_csv),
        "--horizon", "5",
    )
    assert code == 1 and "error[usage]" in err


def test_ablate_rows_and_dedup(toy_run, capsys):
    path, out_dir = toy_run
    code, stdout, err = run_cli(
        capsys, "ablate", str(path), "--flags", "irf,lwi,irf", "--seeds", "2",
        "--set", "model.epochs=1",
    )
    assert code == 0, err
    report = json.loads(open(out_dir / "ablation.json").read())
    labels = [r["variant"] for r in report["rows"]]
    assert labels == ["base", "w/o irf", "w/o lwi"]  # deduplicated, base first
    assert all(len(r["mse_per_seed"]) == 2 for r in report["rows"])
    assert "variant" in stdout and "w/o irf" in stdout


def test_ablate_unknown_flag(toy_run, capsys):
    path, _ = toy_run
    code, _, err = run_cli(capsys, "ablate", str(path), "--flags", "nonsense")
    assert code == 1 and "error[config]" in err


def test_set_overrides_fields(toy_run, capsys):
    path, out_dir = toy_run
    code, _, err = run_cli(capsys, "train", str(path), "--set", "model.epochs=1", "--seed", "11")
    assert code == 0, err
    resolved = json.loads(open(out_dir / "resolved_config.json").read())
    assert resolved["model"]["epochs"] == 1
    assert resolved["seed"] == 11
    log_lines = [json.loads(line) for line in open(out_dir / "train_log.jsonl")]
    assert sum(1 for rec in log_lines if "epoch" in rec) == 1


def test_output_dir_env_override(toy_run, capsys, tmp_path, monkeypatch):
    path, _ = toy_run
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
    code, _, err = run_cli(capsys, "train", str(path), "--set", "model.epochs=1")
    assert code == 0, err
    assert (env_dir / "checkpoint.mlfckpt").exists()


def test_retrain_from_snapshot_reproduces_checkpoint(trained, tmp_path, capsys):
    _, out_dir = trained
    snapshot = out_dir / "resolved_config.json"
    rerun_dir = tmp_path / "rerun"
    code, _, err = run_cli(capsys, "train", str(snapshot), "--output", str(rerun_dir))
    assert code == 0, err
    a = load_checkpoint(str(out_dir / "checkpoint.mlfckpt"))
    b = load_checkpoint(str(rerun_dir / "checkpoint.mlfckpt"))
    assert a == b
