"""Command-line interface: train, eval, forecast, ablate, synth-data.

Runs are described by a JSON config file; individual fields can be
overridden with repeated `--set dotted.key=value` flags. `train` and
`ablate` write a resolved-config snapshot next to their outputs so a run can
be reproduced from the snapshot alone; `train` also records the `dataset`
section in the checkpoint, and `eval` and `forecast` read their data file in
the format it names. Each error category has one exception type, and `main`
maps it to the one `error[<code>]: message` line it prints to stderr before
exiting nonzero. `main` also owns the overflow policy: every command runs
with numpy's overflow warnings off, because the checks behind each category
report a non-finite loss, prediction or normalized value themselves.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import synth
from .ablation import ablate, table
from .autograd import ShapeError
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    DataError,
    SeriesDataset,
    Normalization,
    gather_batch,
    load_csv,
    split_dataset,
    standardize,
)
from .metrics import MetricError
from .model import DATASET_FIELDS, ConfigError, MlfConfig, MlfModel, build_model, check_section, int_at_least
from .training import DivergenceError, evaluate, train

CHECKPOINT_FILE = "checkpoint.mlfckpt"
LOG_FILE = "train_log.jsonl"
RESOLVED_CONFIG_FILE = "resolved_config.json"


class UsageError(Exception):
    """A command line that asks a command for something it cannot do."""


# -- config handling -----------------------------------------------------------


# The run config's table; `MlfConfig.from_dict` checks the model section.
RUN_FIELDS = {
    "model": (),
    "dataset": DATASET_FIELDS,
    "seed": (int_at_least(0),),
    "output_dir": ((lambda v: isinstance(v, str) and v != "", "a non-empty string"),),
}


def load_run_config(path: str, overrides: list[str], seed: int | None, output: str | None) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for item in overrides:
        apply_override(raw, item)
    raw.setdefault("seed", 0)
    raw.setdefault("output_dir", "runs/latest")
    check_section(raw, RUN_FIELDS, "")
    for key, flag, value in (("seed", "--seed", seed), ("output_dir", "--output", output)):
        if value is not None:
            raw[key] = check_flag(flag, value, RUN_FIELDS[key])
    return raw


def check_flag(flag: str, value, rule: tuple):
    """`value` if it passes `rule`, the (test, what) pairs of the config field
    that `flag` sets; else a `UsageError` that names the flag."""
    for valid, what in rule:
        if not valid(value):
            raise UsageError(f"{flag} must be {what}, got {value!r}")
    return value


def apply_override(config: dict, item: str) -> None:
    if "=" not in item:
        raise UsageError(f"--set expects dotted.key=value, got {item!r}")
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
            raise ConfigError(f"--set path {key!r} crosses a non-object value")
    node[parts[-1]] = value


def prepare(raw: dict) -> tuple[MlfConfig, SeriesDataset, object, dict, dict]:
    """Config, standardized dataset, split, dataset section, and the
    `data_record` of the values before standardization, of a run config that
    `load_run_config` checked."""
    for key in ("model", "dataset"):
        if key not in raw:
            raise ConfigError(f"missing required config section: {key}")
    cfg = MlfConfig.from_dict(raw["model"])
    section = raw["dataset"]
    if "path" in section and "synthetic" in section:
        raise ConfigError("dataset section takes 'path' or 'synthetic', not both")
    if "format" in section and "path" not in section:  # eval and forecast read their data file in it
        raise ConfigError("dataset section takes 'format' only with 'path'")
    split_fields = section.get("split", {})
    for key, scheme in (("rows_per_month", "ett"), ("ratios", "ratio")):
        if key in split_fields and split_fields.get("scheme", "ratio") != scheme:
            raise ConfigError(f"dataset.split.{key} applies only to scheme {scheme!r}")
    if "synthetic" in section:
        ds = synth.generate(**section["synthetic"])
    elif "path" in section:
        ds = load_csv(section["path"], section.get("format", "generic"))
    else:
        raise ConfigError("dataset section needs either 'path' or 'synthetic'")
    split = split_dataset(ds, **split_fields, min_history=max(cfg.period_lengths), horizon=cfg.horizon)
    record = data_record(ds)
    ds = standardize(ds, split)
    return cfg, ds, split, section, record


def data_record(ds: SeriesDataset) -> dict:
    """Row count and sha256 of the raw float64 values: identifies the data a
    checkpoint was trained on."""
    digest = hashlib.sha256(np.ascontiguousarray(ds.values, dtype=np.float64).tobytes()).hexdigest()
    return {"rows": ds.n_steps, "sha256": digest}


def json_text(record, **kwargs) -> str:
    """Strict JSON of a record: a non-finite number, which a run without
    validation rows or without an epoch leaves, is written as null."""
    return json.dumps(json.loads(json.dumps(record), parse_constant=lambda _: None), **kwargs)


def write_resolved_config(out_dir: str, raw: dict) -> None:
    """Create `out_dir` and write the run config's snapshot into it."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, RESOLVED_CONFIG_FILE), "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- commands --------------------------------------------------------------------


def cmd_train(args) -> int:
    raw = load_run_config(args.config, args.set, args.seed, args.output)
    cfg, ds, split, section, record = prepare(raw)
    out_dir = raw["output_dir"]
    write_resolved_config(out_dir, raw)
    seed = int(raw["seed"])
    model = build_model(cfg, seed=seed)

    log_path = os.path.join(out_dir, LOG_FILE)
    with open(log_path, "w", encoding="utf-8") as log:

        def log_fn(record):
            log.write(json_text(record.to_dict()) + "\n")
            log.flush()
            print(
                f"epoch {record.epoch}: train loss {record.train_loss:.6f} "
                f"val loss {record.val_loss:.6f} ({record.seconds:.1f}s)"
            )

        result = train(model, ds, split, seed=seed, log_fn=log_fn, anchor_stride=section.get("anchor_stride", 1))
        test = evaluate(model, ds, split, "test")
        final = {
            "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
            "steps": result.steps,
            "test": test.to_dict(),
        }
        log.write(json_text(final) + "\n")

    ckpt_path = os.path.join(out_dir, CHECKPOINT_FILE)
    save_checkpoint(ckpt_path, make_checkpoint(model, ds, raw, record))
    print(f"test mse (normalized): {test.report_normalized.mse:.6f}")
    print(f"checkpoint: {ckpt_path}")
    return 0


def make_checkpoint(model: MlfModel, ds: SeriesDataset, raw: dict, record: dict) -> Checkpoint:
    """The checkpoint of a trained model and the standardized data of its run."""
    return Checkpoint(
        config=model.config.to_dict(),
        arrays=model.state_arrays(),
        normalization={
            "channels": list(ds.channel_names),
            "mean": ds.norm.mean.tolist(),
            "std": ds.norm.std.tolist(),
        },
        meta={"run": {k: raw.get(k) for k in ("seed", "dataset")}, "data": record},
    )


def restore_model(ckpt: Checkpoint) -> MlfModel:
    """The checkpoint's model, built from its arrays: no weight is drawn and
    no array is copied. The model's parameters are the arrays of
    `ckpt.arrays`, so training the model writes into them; restore a
    `Checkpoint` once for training, and load the file again for a second
    model to train."""
    cfg = MlfConfig.from_dict(ckpt.config)
    try:
        return MlfModel(cfg, state=ckpt.arrays)
    except ShapeError as exc:
        raise CheckpointError(f"checkpoint tensors do not fit its config: {exc}") from None


def apply_checkpoint_norm(ds: SeriesDataset, ckpt: Checkpoint) -> SeriesDataset:
    if ckpt.normalization is None:
        raise CheckpointError("checkpoint carries no normalization statistics")
    mean = np.asarray(ckpt.normalization["mean"])
    std = np.asarray(ckpt.normalization["std"])
    if mean.size != ds.n_channels:
        raise DataError(f"checkpoint was trained on {mean.size} channels but dataset has {ds.n_channels}")
    trained_on = ckpt.normalization["channels"]
    if trained_on != list(ds.channel_names):
        raise DataError(f"dataset channels {list(ds.channel_names)} do not match the checkpoint's {trained_on}")
    norm = Normalization(mean, std)
    return replace(ds, values=norm.apply(ds.values), norm=norm)


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    section = ckpt.meta.get("run", {}).get("dataset", {})
    model = restore_model(ckpt)
    cfg = model.config
    if args.export_attention is not None and not cfg.use_attention:
        raise UsageError("attention export requires a model with attention enabled")
    if args.export_weights is not None and not cfg.use_lwi:
        raise UsageError("weight export requires the learned-integration head")
    ds = load_csv(args.data, section.get("format", "generic"))
    # The split is recomputed from the file, so only the training data itself
    # scores the rows the checkpoint's run held out. Checkpoints written
    # without a data record (through the library API) are not checked.
    trained_on, found = ckpt.meta.get("data"), data_record(ds)
    if trained_on is not None and trained_on != found:
        raise DataError(
            f"{args.data} is not the data the checkpoint was trained on: file has {found['rows']} rows "
            f"(sha256 {found['sha256'][:12]}), training data had {trained_on['rows']} rows "
            f"(sha256 {trained_on['sha256'][:12]})"
        )
    split = split_dataset(ds, **section.get("split", {}), min_history=max(cfg.period_lengths), horizon=cfg.horizon)
    ds = apply_checkpoint_norm(ds, ckpt)
    result = evaluate(model, ds, split, args.split, collect_attention=args.export_attention is not None)
    # The exports are written before anything is printed, all or none, so one
    # that fails is the run's one error[io] line and leaves no file behind.
    matrix_csv = functools.partial(np.savetxt, delimiter=",", fmt="%.17g")
    exports = []  # (path, write(fh)) pairs
    if args.export_attention is not None:
        sidecar = {
            "token_ranges": [
                {"period_length": n, "start": a, "end": b}
                for n, (a, b) in zip(cfg.period_lengths, model.token_ranges)
            ]
        }
        exports.append((args.export_attention, lambda fh: matrix_csv(fh, result.attention_mean)))
        exports.append((args.export_attention + ".tokens.json", lambda fh: json.dump(sidecar, fh, indent=2)))
    if args.export_weights is not None:
        exports.append((args.export_weights, lambda fh: matrix_csv(fh, result.att_mean)))
    written = []
    try:
        for path, write in exports:
            with open(path, "w", encoding="utf-8") as fh:
                written.append(path)
                write(fh)
    except OSError:
        for path in written:
            os.remove(path)
        raise
    print(json_text(result.to_dict(), indent=2))
    for label, out in (("attention matrix", args.export_attention), ("integration weights", args.export_weights)):
        if out is not None:
            print(f"{label}: {out}")
    return 0


def cmd_forecast(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = restore_model(ckpt)
    cfg = model.config
    ds = load_csv(args.data, ckpt.meta.get("run", {}).get("dataset", {}).get("format", "generic"))
    needed = max(cfg.period_lengths)
    if ds.n_steps < needed:
        raise DataError(f"need at least {needed} history rows, file has {ds.n_steps}")
    ds = apply_checkpoint_norm(ds, ckpt)
    # One sample per channel, all anchored at the end of the file.
    channels = np.arange(ds.n_channels)
    windows, _ = gather_batch(ds, channels, np.full(ds.n_channels, ds.n_steps), list(cfg.period_lengths), 0)
    rows = ds.norm.invert(model.forward(windows, training=False).forecast.data, channels).T  # (m, C)
    if not np.isfinite(rows).all():
        raise MetricError("predictions hold NaN or Inf")
    out = args.output or "forecast.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + list(ds.channel_names))
        for h, row in enumerate(rows, start=1):
            writer.writerow([h] + [repr(float(v)) for v in row])
    print(f"forecast ({cfg.horizon} steps x {ds.n_channels} channels): {out}")
    return 0


def cmd_ablate(args) -> int:
    check_flag("--seeds", args.seeds, (int_at_least(1),))
    raw = load_run_config(args.config, args.set, args.seed, args.output)
    cfg, ds, split, section, _record = prepare(raw)
    out_dir = raw["output_dir"]
    write_resolved_config(out_dir, raw)  # before any training, so an unwritable output fails at once
    seeds = range(raw["seed"], raw["seed"] + args.seeds)
    rows = ablate(ds, split, cfg, args.flags.split(","), seeds=seeds, anchor_stride=section.get("anchor_stride", 1))
    with open(os.path.join(out_dir, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump({"rows": rows}, fh, indent=2)
    print(table(rows))
    return 0


def cmd_synth_data(args) -> int:
    # Only the flags given reach generate, whose signature holds the defaults;
    # each is checked as the `dataset.synthetic` field of a run config.
    flags = {"kind": "--kind", "n_steps": "--rows", "n_channels": "--channels", "seed": "--seed"}
    given = {key: check_flag(flags[key], value, DATASET_FIELDS["synthetic"][key])
             for key, value in vars(args).items() if key in flags and value is not None}
    ds = synth.generate(**given)
    synth.write_csv(ds, args.output)
    print(f"wrote {ds.n_steps} rows x {ds.n_channels} channels: {args.output}")
    return 0


# -- entry point --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as
    it was (`append` copies its default list before adding to it)."""
    parser = argparse.ArgumentParser(prog="mlf", description="Multi-period time-series forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a JSON run config")
    p_train.add_argument("config")
    _common_run_flags(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--data", required=True, help="dataset CSV")
    p_eval.add_argument("--split", choices=("train", "val", "test"), default="test")
    p_eval.add_argument("--export-attention", metavar="CSV", default=None)
    p_eval.add_argument("--export-weights", metavar="CSV", default=None)
    p_eval.set_defaults(fn=cmd_eval)

    p_fore = sub.add_parser("forecast", help="forecast past the end of a CSV")
    p_fore.add_argument("checkpoint")
    p_fore.add_argument("--data", required=True)
    p_fore.add_argument("--output", default=None)
    p_fore.set_defaults(fn=cmd_forecast)

    p_abl = sub.add_parser("ablate", help="compare the base config against component-off variants")
    p_abl.add_argument("config")
    p_abl.add_argument("--flags", required=True, help="comma-separated: irf,lwi,map,ma,reconstruction_loss")
    p_abl.add_argument("--seeds", type=int, default=1, help="number of seeds, counted up from the run's seed")
    _common_run_flags(p_abl)
    p_abl.set_defaults(fn=cmd_ablate)

    p_synth = sub.add_parser("synth-data", help="write a synthetic dataset CSV")
    p_synth.add_argument("--kind", help=f"one of {sorted(synth.GENERATORS)}")
    p_synth.add_argument("--rows", dest="n_steps", type=int)
    p_synth.add_argument("--channels", dest="n_channels", type=int)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(fn=cmd_synth_data)

    return parser


def _common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config field")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None, help="output directory")


ERROR_CODES = {
    UsageError: "usage",
    ConfigError: "config",
    DataError: "data",
    CheckpointError: "checkpoint",
    DivergenceError: "diverged",
    MetricError: "metric",
    ShapeError: "shape",
    OSError: "io",
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's overflow warnings are off for every command: the checks of each error
        # category report a non-finite loss, prediction or normalized value as its one line.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except tuple(ERROR_CODES) as exc:
        code = next(ERROR_CODES[t] for t in type(exc).__mro__ if t in ERROR_CODES)
        print(f"error[{code}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
