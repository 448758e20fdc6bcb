"""Checkpoint container: exact round trips and deterministic bytes."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mlf import cli
from mlf import model as mmodel
from mlf.autograd import ShapeError, backward
from mlf.checkpoint import MAGIC, Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from mlf.model import build_model, mlf_loss
from mlf.optim import Adam


def sample_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    return Checkpoint(
        config={"horizon": 2, "period_lengths": [4, 8]},
        arrays={"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)},
        normalization={"channels": ["a"], "mean": [1.0], "std": [2.0]},
        meta={"run": {"seed": 0}},
    )


def same_checkpoint(a, b):
    """Equal config, normalization and tensors, bit for bit."""
    return (a.config == b.config and a.normalization == b.normalization and a.arrays.keys() == b.arrays.keys()
            and all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays))


def header_of(path):
    """A saved checkpoint's bytes, the end of its header, and the header."""
    blob = Path(path).read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(blob[len(MAGIC) : start], "little")
    return blob, end, json.loads(blob[start:end])


def test_round_trip_is_exact(tmp_path):
    path = str(tmp_path / "model.mlfckpt")
    ckpt = sample_checkpoint()
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert same_checkpoint(loaded, ckpt)
    for name in ckpt.arrays:
        assert loaded.arrays[name].dtype == np.float64
        assert np.array_equal(loaded.arrays[name], ckpt.arrays[name])
    # magic, header length, header, then the tensors back to back: no offset, no gap, no tail
    blob, end, header = header_of(path)
    assert [sorted(entry) for entry in header["tensors"]] == [["name", "shape"]] * 2
    assert len(blob) == end + sum(8 * a.size for a in ckpt.arrays.values())


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


def rewrite_header(path, edit, payload=None):
    """Apply `edit` to a saved checkpoint's JSON header and, if given,
    `payload` to the bytes after it."""
    blob, end, header = header_of(path)
    edit(header)
    new = json.dumps(header).encode("utf-8")
    data = payload(blob[end:]) if payload else blob[end:]
    Path(path).write_bytes(MAGIC + len(new).to_bytes(8, "little") + new + data)


def test_header_without_tensor_table_rejected(tmp_path):
    path = str(tmp_path / "notable.ckpt")
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, lambda h: h.pop("tensors"))
    with pytest.raises(CheckpointError, match="no tensor table"):
        load_checkpoint(path)


def test_tensor_shape_disagreeing_with_nbytes_rejected(tmp_path):
    path = str(tmp_path / "badshape.ckpt")
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, lambda h: h["tensors"][0].update(shape=[5, 5]))  # "b" has 4 values, "w" 12
    with pytest.raises(CheckpointError, match=r"the tensors take 296 bytes but 128 follow the header \(truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "entry, payload, needle",
    [
        ({"shape": [-2, -2]}, None, "tensor b has shape [-2, -2], not a list of integers >= 0"),
        ({"shape": ["4"]}, None, "tensor b has shape ['4'], not a list of integers >= 0"),
        ({"shape": [4.0]}, None, "tensor b has shape [4.0], not a list of integers >= 0"),
        ({"shape": [True, 4]}, None, "tensor b has shape [True, 4], not a list of integers >= 0"),
        ({"name": ["b"]}, None, "the name is not a string"),
        ({"name": "w"}, None, "tensor w appears twice in the header"),
        ({}, lambda data: data[:-8], "the tensors take 128 bytes but 120 follow the header (truncated"),
        ({}, lambda data: data + b"\0", "the tensors take 128 bytes but 129 follow the header (truncated"),
    ],
    ids=["negative-dims", "text-dim", "float-dim", "bool-dim", "list-name", "repeated-name", "truncated-payload",
         "trailing-byte"],
)
def test_tensor_entry_outside_the_data_fails_with_one_checkpoint_error_line(tmp_path, capsys, entry, payload, needle):
    path = str(tmp_path / "entry.ckpt")
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, lambda h: h["tensors"][0].update(entry), payload)  # tensor "b": shape [4]
    code = cli.main(["forecast", path, "--data", str(tmp_path / "unused.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error[checkpoint]:") and needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_old_format_version_fails_with_one_checkpoint_error_line(tmp_path, capsys, version):
    """Versions up to 4 store `patch_ratio` in the config, and version 5 the
    tensors of an ablated model's switched-off stages; the version is what
    the error names."""
    path = str(tmp_path / f"v{version}.ckpt")
    save_checkpoint(path, sample_checkpoint())
    old_fields = {"patch_ratio": 2} if version < 5 else {}
    rewrite_header(path, lambda h: h.update(format_version=version, config=dict(h["config"], **old_fields)))
    code = cli.main(["forecast", path, "--data", str(tmp_path / "unused.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error[checkpoint]:") and f"format version {version}" in err
    assert err.count("\n") == 1


def model_checkpoint(cfg, seed=4):
    """A checkpoint of a seeded, untrained model of `cfg`."""
    norm = {"channels": ["a"], "mean": [0.0], "std": [1.0]}
    return Checkpoint(config=cfg.to_dict(), arrays=build_model(cfg, seed=seed).state_arrays(), normalization=norm)


def test_tensors_that_do_not_fit_the_config_fail_with_one_checkpoint_error_line(tiny_config, tmp_path, capsys):
    def edit(fn):
        ckpt = model_checkpoint(tiny_config)
        fn(ckpt.arrays)
        return ckpt

    cases = {
        # tensors "w" and "b" belong to no model
        "foreign": (sample_checkpoint(), "state mismatch: missing 'embed.p0.proj'"),
        "missing": (edit(lambda a: a.pop("lwi.theta2")), "state mismatch: missing 'lwi.theta2'"),
        "extra": (edit(lambda a: a.update({"extra.w": np.zeros(3)})), "state mismatch: unexpected ['extra.w']"),
        "wrong-shape": (edit(lambda a: a.update({"embed.p0.proj": a["embed.p0.proj"].T})),
                        "parameter embed.p0.proj: shape (2, 4) != (4, 2)"),
        "buffer-shape": (edit(lambda a: a.update({"lwi.bn.running_mean": np.zeros(5)})),
                         "parameter lwi.bn.running_mean: shape (5,) != (4,)"),
    }
    for case, (ckpt, needle) in cases.items():
        path = str(tmp_path / f"{case}.ckpt")
        save_checkpoint(path, ckpt)
        code = cli.main(["forecast", path, "--data", str(tmp_path / "unused.csv")])
        err = capsys.readouterr().err
        assert code == 1, case
        assert err == f"error[checkpoint]: checkpoint tensors do not fit its config: {needle}\n", case
    # load_state_arrays, which training uses, checks buffers as restore does
    state = cases["buffer-shape"][0].arrays
    for wrong in (np.zeros(5), np.zeros(1)):
        state["lwi.bn.running_mean"] = wrong
        with pytest.raises(ShapeError, match=r"parameter lwi.bn.running_mean: shape \(\d,\) != \(4,\)"):
            build_model(tiny_config).load_state_arrays(state)


def test_restore_draws_nothing_and_forecasts_as_a_loaded_build(tiny_config, tmp_path, monkeypatch):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model_checkpoint(tiny_config))
    built = build_model(tiny_config, seed=99)
    built.load_state_arrays(load_checkpoint(path).arrays)

    def no_draw(seed):
        raise AssertionError("restore_model drew initial weights")

    monkeypatch.setattr(mmodel, "seed_streams", no_draw)
    ckpt = load_checkpoint(path)
    restored = cli.restore_model(ckpt)
    for name, array in ckpt.arrays.items():  # the model holds the checkpoint's arrays, not copies
        held = restored.params[name].data if name in restored.params else restored.buffers[name]
        assert held is array, name
    rng = np.random.default_rng(0)
    windows = [rng.standard_normal((3, n)) for n in tiny_config.period_lengths]
    a = built.forward(windows, training=False).forecast.data
    b = restored.forward(windows, training=False).forecast.data
    assert np.array_equal(a, b)


def test_an_ablated_checkpoint_holds_and_restores_only_the_stages_its_forward_reads(tiny_config, tmp_path, capsys):
    """Restored, a switched-off stage is not built; the tensors that a model
    builds whatever its flags (as format 5 saved them) do not fit the config."""
    rng = np.random.default_rng(0)
    windows = [rng.standard_normal((3, n)) for n in tiny_config.period_lengths]
    everything = build_model(tiny_config, seed=4).state_arrays()
    for flag in ("irf", "lwi", "ma", "reconstruction_loss"):
        cfg = mmodel.apply_ablation(tiny_config, flag)
        path = str(tmp_path / f"{flag}.ckpt")
        save_checkpoint(path, model_checkpoint(cfg))
        restored = cli.restore_model(load_checkpoint(path))
        built = build_model(cfg, seed=4)
        assert restored.state_arrays().keys() == built.state_arrays().keys() < everything.keys(), flag
        a, b = (m.forward(windows, training=False).forecast.data for m in (built, restored))
        assert np.array_equal(a, b), flag
        save_checkpoint(path, Checkpoint(cfg.to_dict(), everything, {"channels": ["a"], "mean": [0.0], "std": [1.0]}))
        assert cli.main(["forecast", path, "--data", str(tmp_path / "unused.csv")]) == 1
        assert "state mismatch: unexpected [" in capsys.readouterr().err, flag


def test_loaded_arrays_are_aligned_writable_views_that_train_like_copies(tiny_config, tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, model_checkpoint(tiny_config))
    ckpt = load_checkpoint(path)
    for name, array in ckpt.arrays.items():
        assert array.flags.c_contiguous and array.flags.writeable and array.flags.aligned, name
        assert array.ctypes.data % 8 == 0, name

    built = build_model(tiny_config, seed=99)
    built.load_state_arrays(load_checkpoint(path).arrays)
    restored = cli.restore_model(ckpt)
    rng = np.random.default_rng(1)
    windows = [rng.standard_normal((5, n)) for n in tiny_config.period_lengths]
    target = rng.standard_normal((5, tiny_config.horizon))
    losses = []
    for model in (built, restored):
        loss = mlf_loss(model.forward(windows, training=True), target).total
        backward(loss)
        Adam(model.params, lr=tiny_config.learning_rate).step()
        losses.append(float(loss.data))
    assert losses[0] == losses[1]
    after, before = built.state_arrays(), restored.state_arrays()
    assert after.keys() == before.keys()
    assert all(np.array_equal(after[k], before[k]) for k in after)


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


def set_path(header, dotted, value):
    *parents, key = dotted.split(".")
    node = header
    for part in parents:
        node = node.setdefault(part, {})
    node[key] = value


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda h: h.pop("config"), "config: model config must be a JSON object, got None"),
        (lambda h: set_path(h, "config.horizon", 0), "config: model.horizon must be >= 1"),
        (lambda h: set_path(h, "config", [4, 8]), "config: model config must be a JSON object"),
        (lambda h: set_path(h, "config.period_lengths", "48"), "config: model.period_lengths must be a list"),
        (lambda h: h["normalization"].pop("mean"), "normalization must be null or"),
        (lambda h: set_path(h, "normalization", "a"), "normalization must be null or"),
        (lambda h: set_path(h, "normalization.std", [2.0, 3.0]), "normalization must be null or"),
        (lambda h: set_path(h, "normalization.mean", [float("nan")]), "normalization must be null or"),
        (lambda h: set_path(h, "normalization.std", [0.0]), "normalization must be null or"),
        (lambda h: set_path(h, "normalization.channels", [0]), "normalization must be null or"),
        (lambda h: set_path(h, "meta", []), "meta must be an object"),
        (lambda h: set_path(h, "meta.run", "seed 0"), "meta.run and meta.run.dataset must be objects"),
        (lambda h: set_path(h, "meta.run.dataset", "x"), "meta.run and meta.run.dataset must be objects"),
        (lambda h: set_path(h, "meta.data", "rows"), "meta.data must be null or {rows: int, sha256: str}"),
        (lambda h: set_path(h, "meta.data", {"rows": 160}), "meta.data must be null or {rows: int, sha256: str}"),
    ],
    ids=[
        "no-config", "config-horizon-0", "config-list", "config-text-periods", "norm-without-mean", "norm-text",
        "norm-lengths", "norm-nan", "norm-zero-std", "norm-int-channel", "meta-list", "meta-run-text",
        "meta-dataset-text", "meta-data-text", "meta-data-without-sha",
    ],
)
def test_malformed_header_field_fails_with_one_checkpoint_error_line(tmp_path, capsys, edit, needle):
    path = str(tmp_path / "field.ckpt")
    save_checkpoint(path, sample_checkpoint())
    rewrite_header(path, edit)
    for command in ("eval", "forecast"):
        code = cli.main([command, path, "--data", str(tmp_path / "unused.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error[checkpoint]: {path}: corrupt header: ") and needle in err, err
        assert err.count("\n") == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_tensor_fails_with_one_checkpoint_error_line(tmp_path, capsys, value):
    path = str(tmp_path / "nonfinite.ckpt")
    ckpt = sample_checkpoint()
    ckpt.arrays["w"][1, 2] = value
    save_checkpoint(path, ckpt)
    for command in ("eval", "forecast"):
        code = cli.main([command, path, "--data", str(tmp_path / "unused.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error[checkpoint]: {path}: tensor w holds NaN or Inf values\n", err


def test_finiteness_check_names_the_first_bad_tensor_and_rejects_trailing_bytes(tmp_path):
    path = str(tmp_path / "nonfinite.ckpt")
    ckpt = sample_checkpoint()
    ckpt.arrays["b"][0] = ckpt.arrays["w"][0, 0] = np.nan
    save_checkpoint(path, ckpt)
    with pytest.raises(CheckpointError, match="tensor b holds NaN or Inf"):  # b is first in header order
        load_checkpoint(path)
    save_checkpoint(path, sample_checkpoint())
    with open(path, "ab") as fh:  # a NaN past the last tensor is no tensor's, so the size fails first
        fh.write(np.array([np.nan]).tobytes())
    with pytest.raises(CheckpointError, match="the tensors take 128 bytes but 136 follow the header"):
        load_checkpoint(path)
