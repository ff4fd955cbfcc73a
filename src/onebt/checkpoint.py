"""Checksummed binary container for model weights, train state and datasets,
and the package's one binary parser, load_arrays.

Layout v2, little-endian: magic `OBTC`, version u32, meta-JSON length u32 +
bytes, array count u32, then per array {name length u16 + utf-8 name, item
size u8 (1 for uint8, 4 or 8 for float), ndim u8, extents u32 each, row-major
data}, then a sha256 of every byte before it. Magic and version are checked
first, so a v1 file is refused by number; each length is checked before it is read.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np

from .model import ModelConfig, init_parameters
from .tensor import write_atomic

__all__ = ["CheckpointError", "save_arrays", "load_arrays", "save_model", "load_model"]

MAGIC = b"OBTC"
VERSION = 2
_KINDS = {1: "u1", 4: "<f4", 8: "<f8"}     # the stored dtype of each item size


class CheckpointError(ValueError):
    """The file is not a valid checkpoint for this format version."""


def save_arrays(path, meta, arrays):
    """Write JSON-able meta and {name: uint8, float32 or float64 array}, sealed,
    with write_atomic: a failed write leaves `path` as it was."""
    blob = json.dumps(meta, sort_keys=True).encode()
    parts = [MAGIC, struct.pack("<II", VERSION, len(blob)), blob, struct.pack("<I", len(arrays))]
    for name, a in arrays.items():
        raw = name.encode()
        parts += [struct.pack(f"<H{len(raw)}sBB{a.ndim}I", len(raw), raw, a.itemsize, a.ndim, *a.shape),
                  np.ascontiguousarray(a, dtype=_KINDS[a.itemsize])]
    seal = hashlib.sha256()
    for part in parts:
        seal.update(part)
    write_atomic(path, [*parts, seal.digest()])


class _Reader:
    """Bounds-checked reads from the front of a file's bytes."""

    def __init__(self, buf, error):
        self.buf, self.off, self.error = memoryview(buf), 0, error

    def take(self, n, what):
        left = len(self.buf) - self.off
        if n > left:
            raise self.error(f"truncated: {what} needs {n} bytes at byte offset {self.off}, {left} left")
        self.off += n
        return self.buf[self.off - n:self.off]

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_arrays(path, error=CheckpointError):
    """Inverse of save_arrays: (meta, {name: array}), each in its stored width.
    A uint8 array is a writable view of the file's bytes, not a copy. Every
    fault in the file raises `error`."""
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        del buf[f.readinto(buf):]
    r = _Reader(buf, error)
    if r.take(4, "magic") != MAGIC:
        raise error(f"bad magic at byte offset 0, not a onebt container: {path}")
    version, meta_len = r.unpack("<II", "header")
    if version != VERSION:
        raise error(f"unsupported container version {version}")
    meta = r.take(meta_len, "meta")
    arrays = {}
    for _ in range(*r.unpack("<I", "array count")):
        try:
            name = bytes(r.take(*r.unpack("<H", "name length"), "name")).decode()
        except UnicodeDecodeError:
            raise error(f"name ending at byte offset {r.off} is not utf-8") from None
        if name in arrays:
            raise error(f"duplicate parameter array {name!r} in container")
        size, ndim = r.unpack("<BB", f"{name} item size and ndim")
        shape = r.unpack(f"<{ndim}I", f"{name} shape")
        # numpy 1 allows 32 axes, and no array whose nonzero extents overflow intp in bytes
        if (size not in _KINDS or ndim > 32
                or size * math.prod(e or 1 for e in shape) > np.iinfo(np.intp).max):
            raise error(f"{name!r}: item size {size} and shape {shape} make no float array")
        a = np.frombuffer(r.take(size * math.prod(shape), f"{name} data"), _KINDS[size])
        arrays[name] = (a if size == 1 else a.astype(f"f{size}")).reshape(shape)
    body = r.off
    if r.take(32, "checksum") != hashlib.sha256(r.buf[:body]).digest():
        raise error("checksum mismatch: the file was altered after it was written")
    if r.off < len(buf):
        raise error(f"{len(buf) - r.off} unexpected trailing bytes")
    try:
        return json.loads(bytes(meta)), arrays
    except ValueError as e:                  # bad JSON or bad utf-8
        raise error(f"malformed embedded config: {e}") from e


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
    except ValueError as e:                  # not an object, or a bad config
        raise CheckpointError(f"malformed embedded config: {e}") from e
    if expected_cfg is not None and cfg != expected_cfg:
        raise CheckpointError("checkpoint config does not match the expected config")
    model = init_parameters(cfg, seed=None)      # every weight is read below, none drawn
    check_like_params(model.parameters(), arrays, "checkpoint parameter")
    for p in model.parameters():
        p.data = arrays[p.name]
    return model


def check_like_params(params, arrays, what):
    """CheckpointError unless arrays holds exactly the parameters' names, shapes and dtypes."""
    names = {p.name for p in params}
    if set(arrays) != names:
        raise CheckpointError(f"{what} names do not match the parameters: missing "
                              f"{sorted(names - set(arrays))}, unknown {sorted(set(arrays) - names)}")
    for p in params:
        a = arrays[p.name]
        if a.shape != p.data.shape or a.dtype != p.data.dtype:
            raise CheckpointError(f"{what} {p.name!r} is {a.dtype} {a.shape}, "
                                  f"the parameter {p.data.dtype} {p.data.shape}")
