"""Shared fixtures: small configs and datasets that train in seconds."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from mlf.data import SplitRanges, split_dataset, standardize
from mlf.model import MlfConfig
from mlf.synth import generate, linear_trend

# The desk experiment, as `mlf ablate` and `mlf train` read it.
DESK_PATH = Path(__file__).resolve().parents[1] / "experiments" / "desk.json"


@pytest.fixture
def tiny_config():
    return MlfConfig(
        period_lengths=(4, 8),
        horizon=2,
        n_patches=4,
        squeeze_factor=2,
        d_model=4,
        n_heads=2,
        n_blocks=2,
        d_ff=8,
        conv_filters=4,
        learning_rate=1e-3,
        batch_size=32,
        epochs=2,
    )


@pytest.fixture
def tiny_dataset():
    ds = linear_trend(160, 1, seed=3)
    split = split_dataset(ds, "ratio", min_history=8, horizon=2)
    return standardize(ds, split), split


@pytest.fixture
def overfit_dataset():
    """64 usable anchors of a clean ramp in a single train-only split."""
    split = SplitRanges((0, 73), (73, 73), (73, 73))
    ds = linear_trend(73, 1, seed=1, noise=0.0, seasonal_amp=0.0)
    return standardize(ds, split), split


def desk_experiment() -> dict:
    """The run config of experiments/desk.json."""
    return json.loads(DESK_PATH.read_text(encoding="utf-8"))


def regime_dataset(**changes):
    """The desk series: the experiment's `dataset.synthetic` section, with
    `changes` to its fields (such as `n_steps`)."""
    return generate(**{**desk_experiment()["dataset"]["synthetic"], **changes})


def regime_config(**changes):
    """The desk model config of the experiment, with `changes` applied."""
    return replace(MlfConfig.from_dict(desk_experiment()["model"]), **changes)


@pytest.fixture
def worker_calls(monkeypatch):
    """Counts the batches that `autograd.in_halves` hands its worker thread while the test runs."""
    from mlf import autograd

    calls, worker = [], autograd._worker

    def counted():
        calls.append(1)
        return worker()

    monkeypatch.setattr(autograd, "_worker", counted)
    return calls
