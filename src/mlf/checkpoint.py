"""Deterministic checkpoint container: JSON header + raw float64 blobs.

Layout: 8-byte magic, little-endian u64 header length, UTF-8 JSON header
(sorted keys), then each tensor's row-major float64 bytes in header order.
Writing the same state twice produces byte-identical files, which the
reproducibility guarantee relies on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

MAGIC = b"MLFCKPT1"
# Version 2: SPP heads carry a redundancy branch only where the forward pass
# reads it, which changed the tensor set and the order of initial draws.
# Version 3: each block stores Q, K and V as one stacked (H, D, d_k) tensor
# (block{e}.wq|wk|wv) instead of one tensor per head; the values are unchanged.
FORMAT_VERSION = 3


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config: dict
    arrays: dict[str, np.ndarray]
    normalization: dict | None = None  # channel names + per-channel mean/std
    meta: dict | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        if self.config != other.config or self.normalization != other.normalization:
            return False
        if set(self.arrays) != set(other.arrays):
            return False
        return all(np.array_equal(self.arrays[k], other.arrays[k]) for k in self.arrays)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    names = sorted(ckpt.arrays)
    tensors = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(ckpt.arrays[name], dtype=np.float64)
        nbytes = arr.size * 8
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "config": ckpt.config,
        "normalization": ckpt.normalization,
        "meta": ckpt.meta or {},
        "tensors": tensors,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(ckpt.arrays[name], dtype=np.float64).tobytes())


def load_checkpoint(path: str) -> Checkpoint:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from None
    with fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        header_len = int.from_bytes(fh.read(8), "little")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header: {exc}") from None
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: corrupt header: not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {header.get('format_version')}")
        payload = fh.read()
    if not isinstance(header.get("tensors"), list):
        raise CheckpointError(f"{path}: corrupt header: no tensor table")
    arrays = {}
    for spec in header["tensors"]:
        try:
            name, shape, start, nbytes = spec["name"], tuple(spec["shape"]), spec["offset"], spec["nbytes"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: corrupt tensor entry {spec!r}: {exc!r}") from None
        if 8 * math.prod(shape) != nbytes:
            raise CheckpointError(f"{path}: tensor {name} has shape {list(shape)} but {nbytes} bytes")
        if start + nbytes > len(payload):
            raise CheckpointError(f"{path}: truncated tensor data for {name}")
        flat = np.frombuffer(payload[start : start + nbytes], dtype="<f8")
        arrays[name] = flat.reshape(shape).copy()
    return Checkpoint(
        config=header["config"],
        arrays=arrays,
        normalization=header.get("normalization"),
        meta=header.get("meta") or {},
    )
