"""Checkpoint container: exact round trips and deterministic bytes."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mlf import cli
from mlf.checkpoint import MAGIC, Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from mlf.model import build_model


def sample_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    return Checkpoint(
        config={"horizon": 2, "period_lengths": [4, 8]},
        arrays={"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)},
        normalization={"channels": ["a"], "mean": [1.0], "std": [2.0]},
        meta={"run": {"seed": 0}},
    )


def test_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "model.mlfckpt")
    ckpt = sample_checkpoint()
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded == ckpt
    for name in ckpt.arrays:
        assert loaded.arrays[name].dtype == np.float64
        assert np.array_equal(loaded.arrays[name], ckpt.arrays[name])


def test_same_state_gives_identical_bytes(tmp_path):
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(a, sample_checkpoint())
    save_checkpoint(b, sample_checkpoint())
    digest = lambda p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
    assert digest(a) == digest(b)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(str(path))


def test_truncated_file_rejected(tmp_path):
    path = str(tmp_path / "trunc.ckpt")
    save_checkpoint(path, sample_checkpoint())
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-16])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def rewrite_header(path, edit):
    """Apply `edit` to a saved checkpoint's JSON header, keeping the payload."""
    blob = Path(path).read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(blob[len(MAGIC) : start], "little")
    header = json.loads(blob[start:end])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(MAGIC + len(new).to_bytes(8, "little") + new + blob[end:])


def test_header_without_tensor_table_rejected(tmp_path):
    path = str(tmp_path / "notable.ckpt")
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, lambda h: h.pop("tensors"))
    with pytest.raises(CheckpointError, match="no tensor table"):
        load_checkpoint(path)


def test_tensor_shape_disagreeing_with_nbytes_rejected(tmp_path):
    path = str(tmp_path / "badshape.ckpt")
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, lambda h: h["tensors"][0].update(shape=[5, 5]))
    with pytest.raises(CheckpointError, match=r"shape \[5, 5\] but 32 bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2])
def test_old_format_version_fails_with_one_checkpoint_error_line(tmp_path, capsys, version):
    path = str(tmp_path / f"v{version}.ckpt")
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, lambda h: h.update(format_version=version))
    code = cli.main(["forecast", path, "--data", str(tmp_path / "unused.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error[checkpoint]:") and f"format version {version}" in err
    assert err.count("\n") == 1


def test_model_state_round_trip(tiny_config, tmp_path):
    model = build_model(tiny_config, seed=4)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, Checkpoint(config=tiny_config.to_dict(), arrays=model.state_arrays()))
    loaded = load_checkpoint(path)
    clone = build_model(tiny_config, seed=99)  # different init, then overwritten
    clone.load_state_arrays(loaded.arrays)
    rng = np.random.default_rng(0)
    windows = [rng.standard_normal((2, n)) for n in tiny_config.period_lengths]
    a = model.forward(windows, training=False).forecast.data
    b = clone.forward(windows, training=False).forecast.data
    assert np.array_equal(a, b)
