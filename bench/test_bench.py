"""Smoke test of the benchmark: every workload at minimal size, both modes.

    python -m pytest -q bench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
import tracer  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def minimal(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    rows = 400 if max(w.config.period_lengths) < 100 else 600
    return replace(
        w, n_rows=rows, eval_stride=8, serve_steps=2, train_steps=4, eval_calls=1, forecasts=2, setups=1
    )


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    outcome = workloads.run_workload(minimal(name), seed=0, seconds=0, trace=trace, workdir=tmp_path)
    result = run.report(outcome, SPEC, trace)  # raises on a missing metric or a unit mismatch

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in expected)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        inside = [layer for layer in LAYERS if layer != "data.gather"]
        assert sum(values[f"{layer}.fwd_ms"] for layer in inside) <= values["step.forward_ms"]
        assert sum(values[f"{layer}.eval_ms"] for layer in inside if f"{layer}.eval_ms" in values) <= values[
            "eval.forward_ms"
        ]
        assert values["autograd.tape_nodes"] > 0 and 0 < values["optim.live_param_frac"] <= 1


def test_gate_fires_when_a_loss_is_perturbed(monkeypatch, capsys):
    original = workloads.mmodel.mlf_loss

    def perturbed(bundle, target, **kwargs):
        loss = original(bundle, target, **kwargs)
        return replace(loss, total=loss.total + 1e-9)

    monkeypatch.setattr(workloads.mmodel, "mlf_loss", perturbed)
    monkeypatch.setitem(workloads.WORKLOADS, "desk-train", minimal("desk-train"))

    code = run.main(["--workload", "desk-train", "--seed", "0", "--seconds", "0", "--trace", "0"])

    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "step losses" in captured.err


@pytest.mark.parametrize(
    "entry, message",
    [("mlf.encoder:EncoderBlock.renamed", "EncoderBlock.renamed"), ("mlf.data:load_csv", "never opened")],
    ids=["gone", "never-called"],
)
def test_a_stale_layer_map_stops_the_traced_run(entry, message, monkeypatch, capsys):
    monkeypatch.setitem(tracer.LAYERS, "encoder.block", [entry])
    monkeypatch.setitem(workloads.WORKLOADS, "desk-train", minimal("desk-train"))

    code = run.main(["--workload", "desk-train", "--seed", "0", "--seconds", "0", "--trace", "1"])

    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert not hasattr(workloads.mdata.gather_batch, "__wrapped__")  # nothing left wrapped
