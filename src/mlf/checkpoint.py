"""Deterministic checkpoint container: JSON header + raw float64 blobs.

Layout: 8-byte magic, little-endian u64 header length, UTF-8 JSON header
(sorted keys), then each tensor's row-major float64 bytes, back to back in
header order. A tensor entry is its name and shape only, so each offset is
the running sum of the sizes before it. Writing the same state twice
produces byte-identical files, which the reproducibility guarantee relies
on. `load_checkpoint` is the one place that validates a header: every field
its readers use has its type (the config, the normalization, `meta.data`, and
the run's `dataset` section, `meta.run.dataset`, walked with
`model.DATASET_FIELDS` and held to `model.check_dataset`, as a run config's
is), and the payload is exactly the tensors, or the load fails with a
`CheckpointError`, as it does when a tensor holds NaN or Inf. It reads the
payload after the header once, into one writable buffer sized from the file,
and each loaded tensor is an aligned view into that buffer, not a copy.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import DATASET_FIELDS, ConfigError, MlfConfig, check_dataset, check_section, has_type

MAGIC = b"MLFCKPT1"
# Version 2: SPP heads carry a redundancy branch only where the forward pass
# reads it, which changed the tensor set and the order of initial draws.
# Version 3: each block stores Q, K and V as one stacked (H, D, d_k) tensor
# (block{e}.wq|wk|wv) instead of one tensor per head; the values are unchanged.
# Version 4: a tensor entry is {name, shape} only; the data follow back to back
# in header order, so no stored offset can disagree with the bytes.
# Version 5: the config no longer stores a patch length to stride ratio
# (L = 2K is the one rule); the tensors are unchanged.
# Version 6: an ablated model holds only the stages its forward reads, so a
# version 5 file of one holds tensors that its config no longer builds.
FORMAT_VERSION = 6


class CheckpointError(ValueError):
    pass


@dataclass(eq=False)  # arrays have no one truth value; compare fields, or the saved bytes
class Checkpoint:
    config: dict
    arrays: dict[str, np.ndarray]
    normalization: dict | None = None  # channel names + per-channel mean/std
    meta: dict | None = None


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    names = sorted(ckpt.arrays)
    arrays = [np.ascontiguousarray(ckpt.arrays[name], dtype=np.float64) for name in names]
    header = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config,
        "normalization": ckpt.normalization,
        "meta": ckpt.meta or {},
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in zip(names, arrays)],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for arr in arrays:
            fh.write(arr.tobytes())


def load_checkpoint(path: str) -> Checkpoint:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from None
    with fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        header_len, size = int.from_bytes(fh.read(8), "little"), os.fstat(fh.fileno()).st_size
        if header_len > size - fh.tell():
            raise CheckpointError(f"{path}: a {header_len}-byte header runs past the end (truncated or corrupt file)")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header: {exc}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: corrupt header: not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {header.get('format_version')}")
        payload = np.empty(size - fh.tell(), np.uint8)  # no zero fill
        payload = payload[: fh.readinto(payload)]  # the file may have shrunk since fstat
    check_fields(path, header)
    shapes = {}
    for spec in header["tensors"]:
        try:
            name, shape = spec["name"], tuple(spec["shape"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: corrupt tensor entry {spec!r}: {exc!r}") from None
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: corrupt tensor entry {spec!r}: the name is not a string")
        if name in shapes:
            raise CheckpointError(f"{path}: tensor {name} appears twice in the header")
        if not all(has_type(n, "int") and n >= 0 for n in shape):
            raise CheckpointError(f"{path}: tensor {name} has shape {list(shape)}, not a list of integers >= 0")
        shapes[name] = shape
    sizes = [math.prod(shape) for shape in shapes.values()]
    if 8 * sum(sizes) != len(payload):
        raise CheckpointError(
            f"{path}: the tensors take {8 * sum(sizes)} bytes but {len(payload)} follow the header "
            "(truncated or corrupt file)"
        )
    values = payload.view("<f8")
    arrays, start = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        arrays[name] = values[start : start + size].reshape(shape)
        start += size
    if not np.isfinite(values).all():  # one pass; only a hit looks for the tensor
        bad = next(name for name, arr in arrays.items() if not np.isfinite(arr).all())
        raise CheckpointError(f"{path}: tensor {bad} holds NaN or Inf values")
    return Checkpoint(
        config=header["config"],
        arrays=arrays,
        normalization=header.get("normalization"),
        meta=header.get("meta", {}),
    )


def check_fields(path: str, header: dict) -> None:
    """Reject a header whose tensor table, config, normalization or meta,
    down to each field of `meta.run.dataset`, its readers would trip on."""
    try:
        MlfConfig.from_dict(header.get("config"))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: corrupt header: config: {exc}") from None
    norm, meta = header.get("normalization"), header.get("meta", {})
    run, data = (meta.get("run", {}), meta.get("data")) if isinstance(meta, dict) else (None, None)
    rules = {
        "no tensor table": isinstance(header.get("tensors"), list),
        "normalization must be null or {channels: [str], mean: [number], std: [number > 0]} of one length": (
            norm is None
            or isinstance(norm, dict)
            and all(isinstance(norm.get(k), list) for k in ("channels", "mean", "std"))
            and len(norm["channels"]) == len(norm["mean"]) == len(norm["std"])
            and all(isinstance(c, str) for c in norm["channels"])
            and all(has_type(v, "float") for v in norm["mean"] + norm["std"])
            and min(norm["std"], default=1) > 0
        ),
        "meta must be an object": isinstance(meta, dict),
        "meta.run and meta.run.dataset must be objects": isinstance(run, dict)
        and isinstance(run.get("dataset", {}), dict),
        "meta.data must be null or {rows: int, sha256: str}": data is None or (
            isinstance(data, dict) and has_type(data.get("rows"), "int") and isinstance(data.get("sha256"), str)
        ),
    }
    for rule, holds in rules.items():
        if not holds:
            raise CheckpointError(f"{path}: corrupt header: {rule}")
    section = run.get("dataset", {})
    try:
        check_section(section, DATASET_FIELDS, "meta.run.dataset.")
        check_dataset(section, "meta.run.dataset.")
    except ConfigError as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
