"""Command-line interface: train, eval, forecast, ablate, synth-data.

Runs are described by a JSON config file; individual fields can be
overridden with repeated `--set dotted.key=value` flags. Every command
writes a resolved-config snapshot next to its outputs so a run can be
reproduced from the snapshot alone. Errors print one
`error[<code>]: message` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import synth
from .ablation import ablate, normalize_flags
from .autograd import NumericsError, ShapeError, no_grad
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    DataError,
    SeriesDataset,
    Normalization,
    load_csv,
    load_fund_csv,
    split_dataset,
    standardize,
)
from .metrics import MetricError
from .model import ConfigError, MlfConfig, MlfModel, build_model
from .training import DivergenceError, evaluate, train

OUTPUT_DIR_ENV = "MLF_OUTPUT_DIR"

CHECKPOINT_FILE = "checkpoint.mlfckpt"
LOG_FILE = "train_log.jsonl"
RESOLVED_CONFIG_FILE = "resolved_config.json"


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# -- config handling -----------------------------------------------------------


def load_run_config(path: str, overrides: list[str], seed: int | None, output: str | None) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliError("io", f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError("config", f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise CliError("config", f"config {path} must be a JSON object")
    raw = copy.deepcopy(raw)
    for item in overrides:
        apply_override(raw, item)
    raw.setdefault("seed", 0)
    if seed is not None:
        raw["seed"] = seed
    if output is not None:
        raw["output_dir"] = output
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        raw["output_dir"] = env_dir
    raw.setdefault("output_dir", "runs/latest")
    return raw


def apply_override(config: dict, item: str) -> None:
    if "=" not in item:
        raise CliError("usage", f"--set expects dotted.key=value, got {item!r}")
    key, text = item.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise CliError("config", f"--set path {key!r} crosses a non-object value")
    node[parts[-1]] = value


def model_config_from(raw: dict) -> MlfConfig:
    section = raw.get("model")
    if not isinstance(section, dict):
        raise ConfigError("missing required config section: model")
    if isinstance(section.get("period_lengths"), list):
        section = dict(section, period_lengths=tuple(section["period_lengths"]))
    return MlfConfig.from_dict(section)


def load_dataset_from(raw: dict) -> tuple[SeriesDataset, dict]:
    section = raw.get("dataset")
    if not isinstance(section, dict):
        raise ConfigError("missing required config section: dataset")
    fmt = section.get("format", "generic")
    if "synthetic" in section:
        spec = section["synthetic"]
        ds = synth.generate(
            spec.get("kind", "trend"),
            int(spec.get("n_steps", 2000)),
            int(spec.get("n_channels", 1)),
            int(spec.get("seed", 0)),
        )
    elif "path" in section:
        if fmt == "fund":
            ds = load_fund_csv(section["path"])
        elif fmt == "generic":
            ds = load_csv(section["path"])
        else:
            raise ConfigError(f"dataset.format must be 'generic' or 'fund', got {fmt!r}")
    else:
        raise ConfigError("dataset section needs either 'path' or 'synthetic'")
    return ds, section


def split_from(section: dict, ds: SeriesDataset, cfg: MlfConfig):
    spec = section.get("split", {"scheme": "ratio"})
    scheme = spec.get("scheme", "ratio")
    return split_dataset(
        ds,
        scheme,
        ratios=tuple(spec.get("ratios", (7, 1, 2))),
        rows_per_month=int(spec.get("rows_per_month", 720)),
        min_history=max(cfg.period_lengths),
        horizon=cfg.horizon,
    )


def prepare(raw: dict) -> tuple[MlfConfig, SeriesDataset, object, dict, dict]:
    """Config, standardized dataset, split, dataset section, and the
    `data_record` of the values before standardization."""
    cfg = model_config_from(raw)
    ds, section = load_dataset_from(raw)
    split = split_from(section, ds, cfg)
    record = data_record(ds)
    ds = standardize(ds, split)
    return cfg, ds, split, section, record


def data_record(ds: SeriesDataset) -> dict:
    """Row count and sha256 of the raw float64 values: identifies the data a
    checkpoint was trained on."""
    digest = hashlib.sha256(np.ascontiguousarray(ds.values, dtype=np.float64).tobytes()).hexdigest()
    return {"rows": ds.n_steps, "sha256": digest}


def write_resolved_config(out_dir: str, raw: dict) -> None:
    with open(os.path.join(out_dir, RESOLVED_CONFIG_FILE), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- commands --------------------------------------------------------------------


def cmd_train(args) -> int:
    raw = load_run_config(args.config, args.set, args.seed, args.output)
    cfg, ds, split, section, record = prepare(raw)
    out_dir = raw["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    write_resolved_config(out_dir, raw)
    seed = int(raw["seed"])
    model = build_model(cfg, seed=seed)

    log_path = os.path.join(out_dir, LOG_FILE)
    with open(log_path, "w", encoding="utf-8") as log:

        def log_fn(record):
            log.write(json.dumps(record.to_dict()) + "\n")
            log.flush()
            print(
                f"epoch {record.epoch}: train loss {record.train_loss:.6f} "
                f"val loss {record.val_loss:.6f} ({record.seconds:.1f}s)"
            )

        result = train(
            model, ds, split, seed=seed, log_fn=log_fn, anchor_stride=int(section.get("anchor_stride", 1))
        )
        test = evaluate(
            model,
            ds,
            split,
            "test",
            naive_baseline=True,
            fund_style=section.get("format") == "fund",
        )
        final = {
            "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
            "steps": result.steps,
            "test": test.report_normalized.to_dict(),
            "test_original_units": test.report_original.to_dict(),
            "naive": test.naive_normalized.to_dict() if test.naive_normalized else None,
        }
        log.write(json.dumps(final) + "\n")

    ckpt_path = os.path.join(out_dir, CHECKPOINT_FILE)
    save_checkpoint(ckpt_path, make_checkpoint(model, ds, raw, record))
    print(f"test mse (normalized): {test.report_normalized.mse:.6f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def make_checkpoint(model: MlfModel, ds: SeriesDataset, raw: dict, record: dict) -> Checkpoint:
    norm = None
    if ds.norm is not None:
        norm = {
            "channels": list(ds.channel_names),
            "mean": ds.norm.mean.tolist(),
            "std": ds.norm.std.tolist(),
        }
    return Checkpoint(
        config=model.config.to_dict(),
        arrays=model.state_arrays(),
        normalization=norm,
        meta={"run": {k: raw.get(k) for k in ("seed", "dataset")}, "data": record},
    )


def restore_model(ckpt: Checkpoint) -> MlfModel:
    cfg = MlfConfig.from_dict(dict(ckpt.config, period_lengths=tuple(ckpt.config["period_lengths"])))
    model = build_model(cfg, seed=0)
    model.load_state_arrays(ckpt.arrays)
    return model


def apply_checkpoint_norm(ds: SeriesDataset, ckpt: Checkpoint) -> SeriesDataset:
    if ckpt.normalization is None:
        raise CliError("checkpoint", "checkpoint carries no normalization statistics")
    mean = np.asarray(ckpt.normalization["mean"])
    std = np.asarray(ckpt.normalization["std"])
    if mean.size != ds.n_channels:
        raise DataError(f"checkpoint was trained on {mean.size} channels but dataset has {ds.n_channels}")
    trained_on = ckpt.normalization.get("channels")
    if trained_on != list(ds.channel_names):
        raise DataError(f"dataset channels {list(ds.channel_names)} do not match the checkpoint's {trained_on}")
    norm = Normalization(mean, std)
    return replace(ds, values=norm.apply(ds.values), norm=norm)


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = restore_model(ckpt)
    cfg = model.config
    ds = load_fund_csv(args.data) if args.format == "fund" else load_csv(args.data)
    # The split is recomputed from the file, so only the training data itself
    # scores the rows the checkpoint's run held out. Checkpoints written
    # without a data record (through the library API) are not checked.
    trained_on, found = (ckpt.meta or {}).get("data"), data_record(ds)
    if trained_on is not None and trained_on != found:
        raise DataError(
            f"{args.data} is not the data the checkpoint was trained on: file has {found['rows']} rows "
            f"(sha256 {found['sha256'][:12]}), training data had {trained_on['rows']} rows "
            f"(sha256 {trained_on['sha256'][:12]})"
        )
    split_spec = (ckpt.meta or {}).get("run", {}).get("dataset", {}) or {}
    split = split_from(split_spec, ds, cfg)
    ds = apply_checkpoint_norm(ds, ckpt)
    result = evaluate(
        model,
        ds,
        split,
        args.split,
        collect_attention=args.export_attention is not None,
        naive_baseline=args.naive_baseline,
        fund_style=args.format == "fund",
    )
    payload = {
        "split": args.split,
        "normalized": result.report_normalized.to_dict(),
        "original_units": result.report_original.to_dict(),
    }
    if result.naive_normalized is not None:
        payload["naive_normalized"] = result.naive_normalized.to_dict()
    print(json.dumps(payload, indent=2))

    if args.export_attention is not None:
        if result.attention_mean is None:
            raise CliError("usage", "attention export requires a model with attention enabled")
        np.savetxt(args.export_attention, result.attention_mean, delimiter=",", fmt="%.17g")
        sidecar = {
            "token_ranges": [
                {"period_length": n, "start": a, "end": b}
                for n, (a, b) in zip(cfg.period_lengths, result.token_ranges)
            ]
        }
        with open(args.export_attention + ".tokens.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
        print(f"attention matrix: {args.export_attention}")
    if args.export_weights is not None:
        if result.att_mean is None:
            raise CliError("usage", "weight export requires the learned-integration head")
        np.savetxt(args.export_weights, result.att_mean, delimiter=",", fmt="%.17g")
        print(f"integration weights: {args.export_weights}")
    return 0


def cmd_forecast(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = restore_model(ckpt)
    cfg = model.config
    if args.horizon is not None and args.horizon != cfg.horizon:
        raise CliError(
            "usage",
            f"model forecasts a fixed horizon of {cfg.horizon} steps, cannot emit {args.horizon}",
        )
    ds = load_fund_csv(args.data) if args.format == "fund" else load_csv(args.data)
    needed = max(cfg.period_lengths)
    if ds.n_steps < needed:
        raise CliError("data", f"need at least {needed} history rows, file has {ds.n_steps}")
    ds = apply_checkpoint_norm(ds, ckpt)
    # One sample per channel, all anchored at the end of the file.
    windows = [
        np.stack([ds.values[-n:, c] for c in range(ds.n_channels)])
        for n in cfg.period_lengths
    ]
    with no_grad():
        bundle = model.forward(windows, training=False)
    rows = ds.norm.invert(bundle.forecast.data, np.arange(ds.n_channels)).T  # (m, C)
    out = args.output or "forecast.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + list(ds.channel_names))
        for h, row in enumerate(rows, start=1):
            writer.writerow([h] + [repr(float(v)) for v in row])
    print(f"forecast ({cfg.horizon} steps x {ds.n_channels} channels): {out}")
    return 0


def cmd_ablate(args) -> int:
    raw = load_run_config(args.config, args.set, args.seed, args.output)
    cfg, ds, split, _section, _record = prepare(raw)
    flags = normalize_flags(args.flags.split(","))
    seeds = list(range(args.seeds))
    report = ablate(ds, split, cfg, flags, seeds=seeds)
    out_dir = raw["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    write_resolved_config(out_dir, raw)
    with open(os.path.join(out_dir, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
    print(report.table())
    return 0


def cmd_synth_data(args) -> int:
    ds = synth.generate(args.kind, args.rows, args.channels, args.seed)
    synth.write_csv(ds, args.output)
    print(f"wrote {ds.n_steps} rows x {ds.n_channels} channels: {args.output}")
    return 0


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlf", description="Multi-period time-series forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON run config")
    p_train.add_argument("config")
    _common_run_flags(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--data", required=True, help="dataset CSV")
    p_eval.add_argument("--format", choices=("generic", "fund"), default="generic")
    p_eval.add_argument("--split", choices=("train", "val", "test"), default="test")
    p_eval.add_argument("--export-attention", metavar="CSV", default=None)
    p_eval.add_argument("--export-weights", metavar="CSV", default=None)
    p_eval.add_argument("--naive-baseline", action="store_true", help="also score repeat-last-value")
    p_eval.set_defaults(fn=cmd_eval)

    p_fore = sub.add_parser("forecast", help="forecast past the end of a CSV")
    p_fore.add_argument("checkpoint")
    p_fore.add_argument("--data", required=True)
    p_fore.add_argument("--format", choices=("generic", "fund"), default="generic")
    p_fore.add_argument("--horizon", type=int, default=None)
    p_fore.add_argument("--output", default=None)
    p_fore.set_defaults(fn=cmd_forecast)

    p_abl = sub.add_parser("ablate", help="compare the base config against component-off variants")
    p_abl.add_argument("config")
    p_abl.add_argument("--flags", required=True, help="comma-separated: irf,lwi,map,ma,reconstruction_loss")
    p_abl.add_argument("--seeds", type=int, default=1)
    _common_run_flags(p_abl)
    p_abl.set_defaults(fn=cmd_ablate)

    p_synth = sub.add_parser("synth-data", help="write a synthetic dataset CSV")
    p_synth.add_argument("--kind", choices=sorted(synth.GENERATORS), default="trend")
    p_synth.add_argument("--rows", type=int, default=2000)
    p_synth.add_argument("--channels", type=int, default=1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(fn=cmd_synth_data)

    return parser


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config field")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None, help="output directory (env MLF_OUTPUT_DIR overrides)")


ERROR_CODES = (
    (CliError, None),
    (ConfigError, "config"),
    (DataError, "data"),
    (CheckpointError, "checkpoint"),
    (DivergenceError, "diverged"),
    (MetricError, "metric"),
    (ShapeError, "shape"),
    (NumericsError, "numeric"),
    (OSError, "io"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(exc for exc, _ in ERROR_CODES) as exc:
        code = exc.code if isinstance(exc, CliError) else next(c for e, c in ERROR_CODES if isinstance(exc, e))
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
