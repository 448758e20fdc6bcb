"""Bitwise parity of seeded outputs: prints one JSON line of SHA-256 digests.

    python3 tools/parity.py > parent.json           # in one tree
    python3 tools/parity.py --against parent.json   # in another

Run it from the root of one tree and save the line, then run it from the
root of another (for example the parent commit exported with `git archive`
into a temporary directory) with `--against` that file. It prints how many
digests are equal and each key that differs, or is on one side only, and
exits 1 on any difference: equal lines mean that the two trees train, score,
save and forecast to the same bits. The `src` of the tree that holds this
file is imported, whatever the working directory. So a line of an older tree
that lacks a key this file adds (such as `scores`) comes from running this
file copied into that tree's export, as long as that tree has every name this
file calls. A tree whose `SeriesDataset` has no `format` field cannot run this
file, nor can a tree without `experiments/desk.json`, whose `regime-switch`
defaults give another series; compare with the line that its own
`tools/parity.py` prints, which digests the same reports and series.

A change of `checkpoint.FORMAT_VERSION` that keeps every value moves exactly
the 8 `*/checkpoint` digests, which hash the saved file's bytes; the forecast
CSV and every restored digest stay equal. A change that drops parameters
also moves the `gradients` and `restored_state` digests of each variant it
touches, since both hash every tensor by name; to show that it keeps every
value, compare those tensors name by name.

It covers the desk experiment of `experiments/desk.json` at 1500 rows, as
base and with each ablation flag off (`w/o lwi`, `irf`, `map`, `ma` and
`reconstruction_loss`), and the paper-default config on 7-channel seasonal
data, as base and `w/o lwi`, with short step-capped runs: 8 cases of 14
digests each, and one more for each paper case, 114 in all. A run takes
about 14 s on a 2-core VM with one BLAS thread. For each case it digests the
raw gradients of one `backward` on the first training batch of the freshly
built model (before clipping and Adam), the train step losses, the epoch
train and validation losses, `validation_loss`, the `evaluate` predictions,
LWI weight mean and attention mean, the scored test split, the checkpoint
bytes, and the CSV bytes that `mlf forecast` writes from that checkpoint.
`scores` hashes the JSON text of the test split's
`evaluate(...).to_dict()`, on the dataset as built and on
`replace(ds, format="fund")`, whose original-unit WMAPE is summed per
channel: every reported number, per horizon step, in original units, the
WMAPE and the baseline.
The restore path gets its own digests, all of the model that
`cli.restore_model(load_checkpoint(...))` returns: the forecast of a bare
`forward(training=False)` on the first test batch, called with no wrapper as
the benchmark's restore check calls it; the `evaluate` predictions; and the
step losses and final parameters of 3 more train steps run from that model.
The paper cases also digest `evaluate_batch128`: the predictions, attention
mean and LWI weight mean of `evaluate` with attention collected, run by the
trained weights at batch 128, where the encoder blocks, squeeze decoders and
LWI features split each batch in two halves (`autograd.in_halves`). The
attention mean is read through `EncoderBlock.scores` on the whole batch,
while the blocks' outputs split. At the training batch of 32 no forward
splits, but every backward of the paper cases runs on two threads: the one
behind `gradients` and each training step behind the trained weights and
losses. Every desk backward runs on the caller alone, below
`autograd.BACKWARD_FLOOR`. Both are counted at `autograd._on_both`, the one
way onto the worker thread. A case is an error unless every backward runs as
expected, its batch-128 `evaluate` splits at least once, and no other forward
splits: no training or validation batch, no forecast and no desk forward. So
a tree without `_on_both` compares by the line its own `tools/parity.py`
prints.

`validation_loss` digests the normalized MSE that `evaluate` reports on the
validation split after training, the number `train` selects its epoch by. The
key keeps the name of the function it once digested, so that `--against`
pairs it with lines saved from older trees.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

# One BLAS thread on both trees, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from mlf import autograd, cli, training  # noqa: E402
from mlf.autograd import backward  # noqa: E402
from mlf.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from mlf.data import SeriesDataset, split_dataset, standardize  # noqa: E402
from mlf.model import MlfConfig, MlfModel, apply_ablation, build_model, mlf_loss  # noqa: E402
from mlf.synth import generate, seasonal_multichannel, write_csv  # noqa: E402

EXPERIMENT = json.loads((ROOT / "experiments" / "desk.json").read_text(encoding="utf-8"))
DESK = replace(MlfConfig.from_dict(EXPERIMENT["model"]), epochs=3, max_steps=40)
PAPER = MlfConfig(period_lengths=(96, 192, 336), horizon=24, batch_size=32, epochs=2, max_steps=3)

# Name -> (config, data, ablation flags run as `w/o <flag>` variants besides
# base, the batch of a second `evaluate` or None, and whether every backward
# runs on two threads).
CASES = {
    "desk": (DESK, lambda: generate(**{**EXPERIMENT["dataset"]["synthetic"], "n_steps": 1500}),
             ("lwi", "irf", "map", "ma", "reconstruction_loss"), None, False),
    "paper": (PAPER, lambda: seasonal_multichannel(1000, 7, seed=7), ("lwi",), 128, True),
}
SEED = 3

# One item for each call onto the worker thread: "drain" for a backward run on
# two threads, "split" for a forward span run in two halves.
CALLS: list[str] = []
_on_both = autograd._on_both


def counted_on_both(here, there):
    CALLS.append("drain" if isinstance(getattr(here, "__self__", None), autograd._Drain) else "split")
    return _on_both(here, there)


autograd._on_both = counted_on_both


def calls_since(start: int) -> tuple[int, int]:
    """The drains and the splits since CALLS held `start` items."""
    kinds = CALLS[start:]
    return kinds.count("drain"), kinds.count("split")


def digest(value) -> str:
    if isinstance(value, bytes):
        blob = value
    elif value is None:
        blob = b"null"
    else:
        blob = np.ascontiguousarray(value, dtype=np.float64).tobytes()
    return hashlib.sha256(blob).hexdigest()


def first_batch_gradients(cfg: MlfConfig, ds: SeriesDataset, split) -> bytes:
    """Every parameter's gradient, by name, after one backward on the first
    training batch of a freshly built model. A parameter without one is an
    error that names it: the model builds only what its forward reads."""
    model = build_model(cfg, seed=SEED)
    channels, anchors = training.sample_index(ds, split.train, cfg)
    _, windows, targets = next(training.batches(ds, cfg, channels, anchors))
    backward(mlf_loss(model.forward(windows, training=True), targets,
                      use_reconstruction=cfg.use_reconstruction_loss).total)
    missing = sorted(name for name, p in model.params.items() if p.grad is None)
    if missing:
        raise SystemExit(f"parameters without a gradient: {missing}")
    return b"".join(name.encode() + p.grad.tobytes() for name, p in sorted(model.params.items()))


def run_case(cfg: MlfConfig, raw: SeriesDataset, work: Path, serve_batch: int | None,
             two_threads: bool) -> dict[str, str]:
    split = split_dataset(raw, "ratio", min_history=max(cfg.period_lengths), horizon=cfg.horizon)
    ds = standardize(raw, split)
    start = len(CALLS)
    gradients = first_batch_gradients(cfg, ds, split)
    model = build_model(cfg, seed=SEED)
    result = training.train(model, ds, split, seed=SEED)
    val = training.evaluate(model, ds, split, "val").report_normalized.mse
    ev = training.evaluate(model, ds, split, "test", collect_attention=True)
    fund = training.evaluate(model, replace(ds, format="fund"), split, "test")

    ckpt = work / "model.mlfckpt"
    record = cli.data_record(raw)
    save_checkpoint(str(ckpt), cli.make_checkpoint(model, ds, {"seed": SEED, "dataset": {}}, record))
    history, out = work / "history.csv", work / "forecast.csv"
    tail = max(cfg.period_lengths) + 16
    write_csv(SeriesDataset(raw.channel_names, raw.values[-tail:], raw.timestamps[-tail:]), str(history))
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        code = cli.main(["forecast", str(ckpt), "--data", str(history), "--output", str(out)])
    if code != 0:
        raise SystemExit(f"mlf forecast exited {code}")

    loaded = load_checkpoint(str(ckpt))
    loaded.config["max_steps"] = 3  # the restored model trains 3 more steps
    restored = cli.restore_model(loaded)
    _, windows, _ = next(training.batches(ds, cfg, *training.sample_index(ds, split.test, cfg)))
    restored_forward = restored.forward(windows, training=False).forecast.data
    restored_ev = training.evaluate(restored, ds, split, "test")
    more = training.train(restored, ds, split, seed=SEED)
    state = restored.state_arrays()
    passes, (drained, halved) = 1 + result.steps + more.steps, calls_since(start)
    if drained != (passes if two_threads else 0):
        raise SystemExit(f"{drained} of {passes} backward passes ran on two threads, expected "
                         f"{'all' if two_threads else 'none'}")
    if halved:
        raise SystemExit(f"{halved} forward spans split in two halves before the serving evaluate, expected none")
    digests = {
        "gradients": digest(gradients),
        "step_losses": digest(result.step_losses),
        "epoch_losses": digest([(r.train_loss, r.val_loss) for r in result.records]),
        "validation_loss": digest([val]),
        "predictions": digest(ev.predictions),
        "att_mean": digest(ev.att_mean),
        "attention_mean": digest(ev.attention_mean),
        "scores": digest(json.dumps([ev.to_dict(), fund.to_dict()]).encode()),
        "checkpoint": digest(ckpt.read_bytes()),
        "forecast_csv": digest(out.read_bytes()),
        "restored_forward": digest(restored_forward),
        "restored_predictions": digest(restored_ev.predictions),
        "restored_step_losses": digest(more.step_losses),
        "restored_state": digest(b"".join(state[name].tobytes() for name in sorted(state))),
    }
    if serve_batch is not None:
        served = MlfModel(replace(cfg, batch_size=serve_batch), state=model.state_arrays())
        start = len(CALLS)
        wide = training.evaluate(served, ds, split, "test", collect_attention=True)
        if calls_since(start)[1] == 0:
            raise SystemExit(f"no forward span split in two halves in the batch-{serve_batch} evaluate")
        parts = [wide.predictions, wide.attention_mean] + ([] if wide.att_mean is None else [wide.att_mean])
        digests[f"evaluate_batch{serve_batch}"] = digest(np.concatenate([a.ravel() for a in parts]))
    return digests


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Digest the seeded outputs of this tree.")
    parser.add_argument("--against", metavar="FILE", help="a line saved from another tree to compare with")
    args = parser.parse_args(argv)
    line = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (cfg, make_data, flags, serve_batch, two_threads) in CASES.items():
            raw = make_data()
            variants = [("base", cfg)] + [(f"w/o {flag}", apply_ablation(cfg, flag)) for flag in flags]
            for variant, variant_cfg in variants:
                work = Path(tmp) / f"{name}-{variant.replace('/', '')}"
                work.mkdir()
                for key, value in run_case(variant_cfg, raw, work, serve_batch, two_threads).items():
                    line[f"{name}/{variant}/{key}"] = value
    if args.against is None:
        print(json.dumps(line, sort_keys=True))
        return 0
    with open(args.against, encoding="utf-8") as fh:
        saved = json.load(fh)
    keys = line.keys() | saved.keys()
    differ = sorted(k for k in keys if line.get(k) != saved.get(k))
    print(f"{len(keys) - len(differ)} of {len(keys)} digests equal")
    for key in differ:
        print(f"differs: {key}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
