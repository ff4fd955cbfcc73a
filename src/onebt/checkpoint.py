"""Checksummed binary container for model weights and train state.

Layout v2, little-endian: magic `OBTC`, version u32, meta-JSON length u32 +
bytes, array count u32, then per array {name length u16 + utf-8 name, item
size u8 (4 or 8), ndim u8, extents u32 each, row-major float data}, then a
sha256 of every byte before it. Magic and version are checked first, so a
v1 file is refused by number; each length is checked before it is read.
"""

import hashlib
import io
import json
import math
import struct

import numpy as np

from .model import ModelConfig, init_parameters

__all__ = ["CheckpointError", "save_arrays", "load_arrays", "save_model", "load_model"]

MAGIC = b"OBTC"
VERSION = 2


class CheckpointError(ValueError):
    """The file is not a valid checkpoint for this format version."""


def save_arrays(path, meta, arrays):
    """Write JSON-able meta and {name: float32 or float64 array}, sealed."""
    blob = json.dumps(meta, sort_keys=True).encode()
    parts = [MAGIC, struct.pack("<II", VERSION, len(blob)), blob, struct.pack("<I", len(arrays))]
    for name, a in arrays.items():
        raw = name.encode()
        parts += [struct.pack(f"<H{len(raw)}sBB{a.ndim}I", len(raw), raw, a.itemsize, a.ndim, *a.shape),
                  np.ascontiguousarray(a, dtype=f"<f{a.itemsize}").tobytes()]
    body = b"".join(parts)
    with open(path, "wb") as f:
        f.write(body + hashlib.sha256(body).digest())


def _need(f, n, what):
    left = f.getbuffer().nbytes - f.tell()
    if n > left:
        raise CheckpointError(f"truncated checkpoint: {what} needs {n} bytes at {f.tell()}, {left} left")
    return f.read(n)


def _unpack(f, fmt, what):
    return struct.unpack(fmt, _need(f, struct.calcsize(fmt), what))


def load_arrays(path):
    """Inverse of save_arrays: (meta, {name: array}), each in its stored width."""
    with open(path, "rb") as fh:
        f = io.BytesIO(fh.read())
    if _need(f, 4, "magic") != MAGIC:
        raise CheckpointError(f"bad magic, not a checkpoint: {path}")
    version, meta_len = _unpack(f, "<II", "version and meta length")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    meta = _need(f, meta_len, "meta")
    arrays = {}
    for _ in range(*_unpack(f, "<I", "array count")):
        try:
            name = _need(f, *_unpack(f, "<H", "name length"), "name").decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"name ending at offset {f.tell()} is not utf-8") from None
        if name in arrays:
            raise CheckpointError(f"duplicate parameter array {name!r} in checkpoint")
        size, ndim = _unpack(f, "<BB", f"{name} item size and ndim")
        shape = _unpack(f, f"<{ndim}I", f"{name} shape")
        # numpy 1 allows 32 axes, and no array whose nonzero extents overflow intp in bytes
        if (size not in (4, 8) or ndim > 32
                or size * math.prod(e or 1 for e in shape) > np.iinfo(np.intp).max):
            raise CheckpointError(f"{name!r}: item size {size} and shape {shape} make no float array")
        raw = _need(f, size * math.prod(shape), f"{name} data")
        arrays[name] = np.frombuffer(raw, f"<f{size}").astype(f"f{size}").reshape(shape)
    body = f.tell()
    if _need(f, 32, "checksum") != hashlib.sha256(f.getbuffer()[:body]).digest():
        raise CheckpointError("checksum mismatch: the file was altered after it was written")
    if f.read():
        raise CheckpointError(f"{f.tell() - body - 32} unexpected trailing bytes")
    try:
        return json.loads(meta), arrays
    except ValueError as e:                  # bad JSON or bad utf-8
        raise CheckpointError(f"malformed embedded config: {e}") from e


def save_model(model, path):
    """Write config plus all parameters; weights are stored as float32."""
    save_arrays(path, model.cfg.to_dict(), {p.name: p.data.astype("f4") for p in model.parameters()})


def load_model(path, expected_cfg=None):
    """Rebuild a float32 model from a checkpoint.

    If expected_cfg is given, the stored config must match it exactly.
    """
    meta, arrays = load_arrays(path)
    try:
        cfg = ModelConfig.from_dict(meta)
    except (ValueError, TypeError) as e:     # not an object, or a bad config
        raise CheckpointError(f"malformed embedded config: {e}") from e
    if expected_cfg is not None and cfg != expected_cfg:
        raise CheckpointError("checkpoint config does not match the expected config")
    model = init_parameters(cfg, seed=0)
    expected = {p.name: p for p in model.parameters()}
    if len(arrays) != len(expected):
        raise CheckpointError(f"checkpoint holds {len(arrays)} parameters, config implies {len(expected)}")
    for name, a in arrays.items():
        if name not in expected:
            raise CheckpointError(f"unknown parameter {name!r} in checkpoint")
        if a.shape != expected[name].data.shape:
            raise CheckpointError(f"parameter {name!r} has shape {a.shape}, "
                                  f"config implies {expected[name].data.shape}")
        expected[name].data = a.astype(np.float32, copy=False)
    return model
