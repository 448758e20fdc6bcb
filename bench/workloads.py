"""Workloads of the mlf benchmark and the closed loops that measure them.

Every workload runs four kinds of operation in one process, as a closed loop
with one caller (the next operation starts when the previous one returns):

- train step: `gather_batch -> forward(training=True) -> mlf_loss ->
  zero_grad -> backward -> clip -> Adam.step`, the body of `training.train`.
- eval call: `training.evaluate` over the test split, with the served model
  restored from its checkpoint (the `mlf eval` path).
- forecast request: `mlf forecast` through `cli.main`: checkpoint load, model
  build, one forward over the last window of every channel, denormalize,
  CSV out; the command without process start-up.
- set-up: data generation, standardize, split, `build_model`, `Adam` init.

The run first trains `serve_steps` steps and writes the served checkpoint.
Then a scheduler always runs the kind of operation furthest below its share
of the time spent, until the run's seconds are spent and every kind has its
minimum count. Interleaving makes every metric sample the whole run: the CPU
of a shared machine switches between a fast and a slow state every second or
so, and a metric measured over a few seconds alone would land in one state.

Every end-to-end metric is measured on every workload; the workloads differ
in config, data and the shares. What is scored (losses, predictions,
forecasts) depends only on the seed, never on machine speed.

All inputs come from the seed: data from `mlf.synth`, weights from
`build_model(config, seed)`, batch order from `seed_streams(seed)`.
"""

from __future__ import annotations

import io
import math
import os
import resource
import statistics
import time
import tracemalloc
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from mlf import autograd, cli, optim, training
from mlf import checkpoint as mckpt
from mlf import data as mdata
from mlf import model as mmodel
from mlf.data import SeriesDataset, SplitRanges
from mlf.model import MlfConfig, MlfModel
from mlf.synth import regime_switching, seasonal_multichannel, write_csv

from tracer import LAYERS, LayerMapError, Tracer


class GateError(RuntimeError):
    """The benchmark's outputs disagree with the program's own paths."""


def regime_data(n_rows: int, seed: int) -> SeriesDataset:
    """The regime-switching series of `regime_dataset()` in tests/conftest.py."""
    return regime_switching(n_rows, 1, seed=seed, fast_amp=2.5, mean_dwell=50, noise=0.03, calm_noise=0.25)


def seasonal_data(n_rows: int, seed: int) -> SeriesDataset:
    return seasonal_multichannel(n_rows, 7, seed=seed)


# `regime_config()` of tests/conftest.py, copied so that edits to the tests
# cannot move the benchmark.
DESK_CONFIG = MlfConfig(
    period_lengths=(8, 24, 64),
    horizon=4,
    n_patches=8,
    squeeze_factor=2,
    d_model=8,
    n_heads=4,
    n_blocks=2,
    d_ff=16,
    conv_filters=8,
    learning_rate=1e-3,
    batch_size=64,
    epochs=16,
)
PAPER_CONFIG = MlfConfig(period_lengths=(96, 192, 336), horizon=24, batch_size=32)


@dataclass(frozen=True)
class Workload:
    name: str
    make_data: Callable[[int, int], SeriesDataset]
    n_rows: int
    config: MlfConfig  # training config
    serve_batch: int  # evaluate batch size of the served model
    eval_stride: int  # evaluate's anchor_stride over the test split
    serve_steps: int  # training steps before the served checkpoint is written
    train_steps: int  # minimum steps; train_loss is their mean
    eval_calls: int  # minimum evaluate calls
    forecasts: int  # minimum forecast requests
    setups: int  # minimum set-ups
    shares: tuple[float, float, float, float]  # of the run: train, eval, forecast, set-up


WORKLOADS = {
    # Python- and tape-bound steps: ~300 tiny ops per step, per-head
    # attention and the LWI conv/BN/pool stack dominate; Adam is cheap.
    "desk-train": Workload(
        "desk-train", regime_data, 3000, DESK_CONFIG, serve_batch=64, eval_stride=1, serve_steps=100,
        train_steps=500, eval_calls=10, forecasts=100, setups=15, shares=(0.7, 0.12, 0.15, 0.03),
    ),
    # BLAS- and memory-bound steps of the 3.0M-parameter paper model: SPP
    # redundancy branches, squeeze decoders and Adam over every element.
    "paper-train": Workload(
        "paper-train", seasonal_data, 4000, PAPER_CONFIG, serve_batch=32, eval_stride=16, serve_steps=20,
        train_steps=100, eval_calls=4, forecasts=40, setups=7, shares=(0.7, 0.12, 0.15, 0.03),
    ),
    # The paper model served: most of the run is evaluate at batch 128 and
    # forecast requests; a short training run makes the served model.
    "paper-serve": Workload(
        "paper-serve", seasonal_data, 4000, PAPER_CONFIG, serve_batch=128, eval_stride=4, serve_steps=20,
        train_steps=60, eval_calls=4, forecasts=100, setups=7, shares=(0.3, 0.4, 0.27, 0.03),
    ),
}

# Steps whose losses must equal training.train's, bit for bit.
GATE_STEPS = 4

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def tail_percentile(min_samples: int) -> float:
    """Highest ladder percentile with at least 10 of `min_samples` beyond it.

    Fixed by the loop's guaranteed sample count, not the run's actual one,
    so a faster program is compared at the same percentile.
    """
    fits = [p for p in TAIL_LADDER if min_samples * (100.0 - p) >= 1000.0]
    return fits[-1] if fits else TAIL_LADDER[0]


# -- set-up ----------------------------------------------------------------------


@dataclass
class Setup:
    raw: SeriesDataset
    ds: SeriesDataset
    split: SplitRanges
    model: MlfModel
    optimizer: optim.Adam


def set_up(w: Workload, seed: int) -> Setup:
    cfg = w.config
    raw = w.make_data(w.n_rows, seed)
    split = mdata.split_dataset(raw, "ratio", min_history=max(cfg.period_lengths), horizon=cfg.horizon)
    ds = mdata.standardize(raw, split)
    model = mmodel.build_model(cfg, seed)
    return Setup(raw, ds, split, model, optim.Adam(model.params, lr=cfg.learning_rate))


def reference_losses(w: Workload, s: Setup, seed: int) -> list[float]:
    """Step losses of `training.train` itself over the first GATE_STEPS steps."""
    cfg = replace(w.config, max_steps=GATE_STEPS)
    return training.train(mmodel.build_model(cfg, seed), s.ds, s.split, seed=seed).step_losses


# -- operations ----------------------------------------------------------------------


def _no_span(name: str):
    return nullcontext()


def train_step(s: Setup, cfg: MlfConfig, channels, anchors, span) -> float:
    windows, targets = mdata.gather_batch(s.ds, channels, anchors, list(cfg.period_lengths), cfg.horizon)
    with span("step.forward"):
        bundle = s.model.forward(windows, training=True)
        loss = mmodel.mlf_loss(bundle, targets, use_reconstruction=cfg.use_reconstruction_loss)
    value = float(loss.total.data)
    if not math.isfinite(value):
        return value  # training.train stops here with DivergenceError
    s.model.zero_grad()
    autograd.backward(loss.total)
    if cfg.grad_clip:
        optim.clip_global_norm(s.model.params, cfg.grad_clip)
    s.optimizer.step()
    return value


class Loop:
    """One kind of operation: its share of the run, minimum count and record."""

    phase = "-"

    def __init__(self, share: float, minimum: int, span=_no_span):
        self.share = share
        self.minimum = minimum
        self.span = span
        self.times: list[float] = []  # seconds per operation
        self.spent = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, seconds: float, failed: int = 0, attempted: int = 1) -> None:
        self.times.append(seconds)
        self.spent += seconds
        self.attempted += attempted
        self.failed += failed


class TrainLoop(Loop):
    phase = "train"

    def __init__(self, w: Workload, s: Setup, seed: int, share: float = 1.0, minimum: int = 0, span=_no_span):
        super().__init__(share, minimum, span)
        self.cfg, self.s = w.config, s
        _, self.shuffle_rng = mmodel.seed_streams(seed)
        self.channels, self.anchors = training.sample_index(s.ds, s.split.train, w.config)
        self.batches = iter(())
        self.samples = 0
        self.losses: list[float] = []

    def step(self) -> None:
        pick = next(self.batches, None)
        if pick is None:  # a new epoch, shuffled as training.train does
            order = self.shuffle_rng.permutation(self.channels.size)
            size = self.cfg.batch_size
            self.batches = (order[lo : lo + size] for lo in range(0, order.size, size))
            pick = next(self.batches)
        t0 = time.perf_counter()
        try:
            with self.span("step"):
                loss = train_step(self.s, self.cfg, self.channels[pick], self.anchors[pick], self.span)
        except Exception as exc:  # counted as a failed step; the run goes on
            loss = math.nan
            self.errors.append(repr(exc))
        self.record(time.perf_counter() - t0, failed=int(not math.isfinite(loss)))
        self.samples += pick.size
        self.losses.append(loss)


class UntracedTrainLoop(TrainLoop):
    """Train steps with the tracer's wrappers taken out: the base of
    trace.overhead_frac. Scheduled between the traced operations, so both
    sample the same CPU states."""

    phase = "untraced"

    def __init__(self, tracer: Tracer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def step(self) -> None:
        with self.tracer.suspended():
            super().step()


class EvalLoop(Loop):
    phase = "eval"

    def __init__(self, w: Workload, s: Setup, model: MlfModel, share: float, minimum: int, span=_no_span):
        super().__init__(share, minimum, span)
        self.s, self.model, self.stride = s, model, w.eval_stride
        self.windows = training.sample_index(s.ds, s.split.test, model.config)[0][:: w.eval_stride].size
        self.batch = model.config.batch_size
        self.batches_per_call = -(-self.windows // self.batch)
        self.mses: list[float] = []

    def step(self) -> None:
        t0 = time.perf_counter()
        try:
            with self.span("eval"):
                result = training.evaluate(self.model, self.s.ds, self.s.split, "test", anchor_stride=self.stride)
        except Exception as exc:  # every batch of the call counts as failed
            self.errors.append(repr(exc))
            result = None
        seconds = time.perf_counter() - t0
        # Failures are counted per batch, as are attempts.
        if result is None:
            bad = self.batches_per_call
        else:
            bad_rows = np.nonzero(~np.isfinite(result.predictions).all(axis=1))[0]
            bad = np.unique(bad_rows // self.batch).size
            self.mses.append(result.report_normalized.mse)
        self.record(seconds, failed=bad, attempted=self.batches_per_call)


class ForecastLoop(Loop):
    phase = "forecast"

    def __init__(self, paths: dict[str, str], share: float, minimum: int, span=_no_span):
        super().__init__(share, minimum, span)
        self.paths = paths
        self.argv = ["forecast", paths["checkpoint"], "--data", paths["history"], "--output", paths["forecast"]]
        self.sink = io.StringIO()
        self.outputs: list[np.ndarray] = []  # distinct outputs seen

    def step(self) -> None:
        out = self.paths["forecast"]
        t0 = time.perf_counter()
        try:
            with self.span("forecast"), redirect_stdout(self.sink):
                code = cli.main(self.argv)
        except Exception as exc:
            self.errors.append(repr(exc))
            code = -1
        seconds = time.perf_counter() - t0
        self.sink.seek(0)
        self.sink.truncate()
        values = read_forecast(out) if code == 0 else None
        if os.path.exists(out):
            os.remove(out)
        ok = values is not None and bool(np.isfinite(values).all())
        if ok and not any(np.array_equal(values, seen) for seen in self.outputs):
            self.outputs.append(values)
        self.record(seconds, failed=int(not ok))


class SetupLoop(Loop):
    phase = "setup"

    def __init__(self, w: Workload, seed: int, share: float, minimum: int, span=_no_span):
        super().__init__(share, minimum, span)
        self.w, self.seed = w, seed

    def step(self) -> Setup:
        t0 = time.perf_counter()
        s = set_up(self.w, self.seed)
        self.record(time.perf_counter() - t0)
        return s


def read_forecast(path: str) -> np.ndarray:
    """(horizon, channels) values of a forecast CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def schedule(loops: list[Loop], start: float, seconds: float, tracer: Tracer | None) -> None:
    """Run the loop furthest below its share until time and minimums are met."""
    while True:
        if time.perf_counter() - start < seconds:
            due = loops
        else:
            due = [loop for loop in loops if len(loop.times) < loop.minimum]
        if not due:
            return
        loop = min(due, key=lambda lp: lp.spent / lp.share)
        if tracer is not None:
            tracer.phase = loop.phase
        loop.step()


# -- one measured run --------------------------------------------------------------------


@dataclass
class Pipeline:
    train: TrainLoop
    eval: EvalLoop
    forecast: ForecastLoop
    live_param_frac: float
    checkpoint_bytes: int
    problems: list[str]
    serve_model: MlfModel
    paths: dict[str, str]


def pipeline(w: Workload, setups: SetupLoop, s: Setup, seed: int, seconds: float, workdir: Path,
             tracer: Tracer | None = None, extra: tuple[Loop, ...] = ()) -> Pipeline:
    span = tracer.span if tracer is not None else _no_span
    cfg = w.config
    start = time.perf_counter()
    if tracer is not None:
        tracer.phase = "train"
    train = TrainLoop(w, s, seed, w.shares[0], w.train_steps, span)
    while train.attempted < w.serve_steps:
        train.step()
    snapshot = s.model.state_arrays()

    if tracer is not None:
        tracer.phase = "checkpoint"
    serve_cfg = replace(cfg, batch_size=w.serve_batch)
    in_memory = mmodel.build_model(serve_cfg, seed)
    in_memory.load_state_arrays(snapshot)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {key: str(workdir / name) for key, name in
             (("checkpoint", "model.mlfckpt"), ("history", "history.csv"), ("forecast", "forecast.csv"))}
    norm = s.ds.norm
    mckpt.save_checkpoint(
        paths["checkpoint"],
        mckpt.Checkpoint(
            config=serve_cfg.to_dict(),
            arrays=snapshot,
            normalization={"channels": list(s.ds.channel_names), "mean": norm.mean.tolist(), "std": norm.std.tolist()},
            meta={"run": {"seed": seed}},
        ),
    )
    restored = cli.restore_model(mckpt.load_checkpoint(paths["checkpoint"]))
    tail = max(cfg.period_lengths) + 16
    write_csv(SeriesDataset(s.raw.channel_names, s.raw.values[-tail:], s.raw.timestamps[-tail:]), paths["history"])
    problems = check_restored(s, in_memory, restored)

    ev = EvalLoop(w, s, restored, w.shares[1], w.eval_calls, span)
    fc = ForecastLoop(paths, w.shares[2], w.forecasts, span)
    schedule([train, ev, fc, setups, *extra], start, seconds, tracer)
    if tracer is not None:
        tracer.phase = "-"
    problems += check_served(s, in_memory, paths["history"], ev, fc)

    params = s.model.params.values()
    live = sum(p.size for p in params if p.grad is not None) / sum(p.size for p in params)
    return Pipeline(train, ev, fc, live, os.path.getsize(paths["checkpoint"]), problems, restored, paths)


# -- correctness gate ----------------------------------------------------------------


def check_losses(label: str, losses: list[float], reference: list[float]) -> list[str]:
    """The bench's step loop must be training.train's, bit for bit."""
    got = losses[: len(reference)]
    if got != reference:
        return [f"{label}: first {len(reference)} step losses {got} differ from training.train's {reference}"]
    return []


def check_restored(s: Setup, in_memory: MlfModel, restored: MlfModel) -> list[str]:
    cfg = in_memory.config
    channels, anchors = training.sample_index(s.ds, s.split.test, cfg)
    pick = slice(0, cfg.batch_size)
    windows, _ = mdata.gather_batch(s.ds, channels[pick], anchors[pick], list(cfg.period_lengths), cfg.horizon)
    expected = in_memory.forward(windows, training=False).forecast.data
    got = restored.forward(windows, training=False).forecast.data
    if not np.array_equal(expected, got):
        return ["model restored from the checkpoint predicts differently from the in-memory model"]
    return []


def check_served(s: Setup, in_memory: MlfModel, history: str, ev: EvalLoop, fc: ForecastLoop) -> list[str]:
    problems = []
    if not ev.mses or not all(math.isfinite(m) for m in ev.mses):
        problems.append(f"test mse is not finite: {ev.mses}")
    elif len(set(ev.mses)) != 1:
        problems.append(f"repeated evaluate calls disagree: {sorted(set(ev.mses))}")
    if fc.failed:
        problems.append(f"{fc.failed} of {fc.attempted} forecasts failed or were not finite")
    if len(fc.outputs) > 1:
        problems.append(f"repeated forecast requests gave {len(fc.outputs)} different outputs")
    if fc.outputs:
        cfg, norm = in_memory.config, s.ds.norm
        values = norm.apply(mdata.load_csv(history).values)
        windows = [values[-n:].T.copy() for n in cfg.period_lengths]
        pred = in_memory.forward(windows, training=False).forecast.data
        expected = (pred * norm.std[:, None] + norm.mean[:, None]).T
        # The CLI writes 10 significant digits.
        if not np.allclose(fc.outputs[0], expected, rtol=1e-7, atol=1e-9):
            problems.append("forecast CLI output differs from the in-memory model's forecast")
    return problems


# -- runs and metrics ------------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    attempted: int
    failed: int
    info: dict
    table: dict | None = None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """Measure one workload; raises GateError when an output is wrong."""
    setups = SetupLoop(w, seed, w.shares[3], w.setups)
    s = setups.step()
    reference = reference_losses(w, s, seed)
    if trace:
        return _traced(w, s, seed, seconds, workdir, reference)
    p = pipeline(w, setups, s, seed, seconds, workdir)
    _gate(p.problems + check_losses("train", p.train.losses, reference))
    tr, ev, fc = p.train, p.eval, p.forecast
    step_tail, fc_tail = tail_percentile(w.train_steps), tail_percentile(w.forecasts)
    # The metrics BENCHMARK.json bounds. Typical costs are means (throughputs),
    # not medians: an operation lands in the CPU's fast or slow state, and a
    # run's median flips between the two while its mean moves with the share
    # of time in each. Medians, tails and test_mse spread too widely across
    # runs (tails) or seeds (test_mse, through the seasonal data's random-walk
    # drift) to carry a bound of 0.25; they go to the record.
    metrics = {
        "setup_s": (statistics.median(setups.times), "s"),
        "samples_per_s": (tr.samples / tr.spent, "1/s"),
        "eval_windows_per_s": (ev.windows * len(ev.times) / ev.spent, "1/s"),
        "forecast_ms_mean": (fc.spent / len(fc.times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # Like training.train's per-epoch train_loss; the loss of the last steps
        # alone spreads three times as much across seeds.
        "train_loss": (statistics.fmean(tr.losses[: w.train_steps]), "loss"),
    }
    info = {
        "samples": {
            "steps": len(tr.times), "step_tail_percentile": step_tail,
            "eval_calls": len(ev.times), "eval_batches_per_call": ev.batches_per_call,
            "forecasts": len(fc.times), "forecast_tail_percentile": fc_tail,
            "setups": len(setups.times),
        },
        "unbounded": {
            "step_ms_p50": statistics.median(tr.times) * 1e3,
            "step_ms_tail": float(np.percentile(tr.times, step_tail)) * 1e3,
            "eval_batch_ms_p50": statistics.median(ev.times) / ev.batches_per_call * 1e3,
            "forecast_ms_p50": statistics.median(fc.times) * 1e3,
            "forecast_ms_tail": float(np.percentile(fc.times, fc_tail)) * 1e3,
            "test_mse": ev.mses[0],
        },
        "errors": (tr.errors + ev.errors + fc.errors)[:10],
    }
    loops = (tr, ev, fc)
    return Outcome(metrics, sum(lp.attempted for lp in loops), sum(lp.failed for lp in loops), info)


def _traced(w: Workload, s: Setup, seed: int, seconds: float, workdir: Path, reference: list[float]) -> Outcome:
    tracer = Tracer()
    # Untraced steps of the same workload, on a model of their own.
    base = UntracedTrainLoop(tracer, w, s, seed, w.shares[0] / 2, max(GATE_STEPS, w.train_steps // 2))
    setups = SetupLoop(w, seed, w.shares[3], w.setups)
    with tracer.installed():
        p = pipeline(w, setups, set_up(w, seed), seed, seconds, workdir, tracer, extra=(base,))
    _gate(p.problems + check_losses("untraced", base.losses, reference) + check_losses("traced", p.train.losses, reference))
    peak_mb = traced_peak_mb(w, seed, p)

    table = tracer.table()
    tr, ev = p.train, p.eval
    steps, batches = len(tr.times), len(ev.times) * ev.batches_per_call
    # Only the traced steps scheduled beside the untraced ones; the served
    # model's steps ran before them.
    traced_times = tr.times[w.serve_steps:]

    def row(phase: str, name: str) -> dict:
        if (phase, name) not in table:
            raise LayerMapError(f"span {name!r} never opened in the {phase} phase, update bench/tracer.py")
        return table[(phase, name)]

    def per_call(phase: str, name: str) -> float:
        r = row(phase, name)
        return r["total_ms"] / r["calls"]

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.fwd_ms"] = (row("train", layer)["self_ms"] / steps, "ms")
        if layer != "data.gather":
            metrics[f"{layer}.bwd_ms"] = (row("train", layer)["bwd_ms"] / steps, "ms")
            metrics[f"{layer}.nodes"] = (row("train", layer)["nodes"] / steps, "count")
        if layer not in ("model.loss", "squeeze.recon_loss"):  # evaluate computes no loss
            metrics[f"{layer}.eval_ms"] = (row("eval", layer)["self_ms"] / batches, "ms")
    train_nodes = sum(r["nodes"] for (phase, _), r in table.items() if phase == "train")
    eval_nodes = sum(r["nodes"] for (phase, _), r in table.items() if phase == "eval")
    metrics.update({
        "step.forward_ms": (row("train", "step.forward")["total_ms"] / steps, "ms"),
        "eval.forward_ms": (row("eval", "model.forward")["total_ms"] / batches, "ms"),
        "autograd.backward_ms": (row("train", "autograd.backward")["total_ms"] / steps, "ms"),
        "autograd.tape_nodes": (train_nodes / steps, "count"),
        "autograd.eval_nodes_per_batch": (eval_nodes / batches, "count"),
        "optim.adam_ms": (row("train", "optim.adam")["total_ms"] / steps, "ms"),
        "optim.live_param_frac": (p.live_param_frac, "frac"),
        "checkpoint.save_ms": (per_call("checkpoint", "checkpoint.save"), "ms"),
        "checkpoint.load_ms": (per_call("forecast", "checkpoint.load"), "ms"),
        "checkpoint.bytes": (float(p.checkpoint_bytes), "bytes"),
        "metrics.compute_ms": (row("eval", "metrics.compute")["total_ms"] / len(ev.times), "ms"),
        "mem.peak_traced_mb": (peak_mb, "MB"),
        "trace.overhead_frac": (statistics.fmean(traced_times) / statistics.fmean(base.times) - 1.0, "frac"),
    })
    info = {
        "samples": {"traced_steps": steps, "untraced_steps": len(base.times), "eval_batches": batches,
                    "forecasts": len(p.forecast.times)},
        "errors": (base.errors + tr.errors + ev.errors + p.forecast.errors)[:10],
    }
    loops = (base, tr, ev, p.forecast)
    return Outcome(metrics, sum(lp.attempted for lp in loops), sum(lp.failed for lp in loops), info, table)


def traced_peak_mb(w: Workload, seed: int, p: Pipeline) -> float:
    """Peak bytes traced by tracemalloc over one train step, one evaluate
    batch and one forecast request; run apart from the timed loops, since
    tracemalloc slows every allocation."""
    s = set_up(w, seed)
    one_batch = replace(w, eval_stride=w.eval_stride * p.eval.batches_per_call)
    ops = [
        TrainLoop(w, s, seed).step,
        EvalLoop(one_batch, s, p.serve_model, 1.0, 1).step,
        ForecastLoop(p.paths, 1.0, 1).step,
    ]
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            op()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _gate(problems: list[str]) -> None:
    if problems:
        raise GateError("; ".join(problems))
