"""Self-describing binary container for model weights.

Layout: magic `OBTC`, format version u32, config-JSON length u32 + bytes,
parameter count u32, then per parameter {name length u16 + utf-8 name,
ndim u8, extents u32 each, float32 little-endian row-major data}. The
loader rebuilds the model from the embedded config and rejects any name,
shape, or count mismatch.
"""

import io
import json
import struct

import numpy as np

from .model import ModelConfig, init_parameters

__all__ = ["CheckpointError", "save_model", "load_model"]

MAGIC = b"OBTC"
VERSION = 1


class CheckpointError(ValueError):
    """The file is not a valid model checkpoint for this format version."""


def save_model(model, path):
    """Write config plus all parameters; weights are stored as float32."""
    cfg_blob = json.dumps(model.cfg.to_dict(), sort_keys=True).encode()
    params = model.parameters()
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(cfg_blob)))
        f.write(cfg_blob)
        f.write(struct.pack("<I", len(params)))
        for p in params:
            name = p.name.encode()
            f.write(struct.pack("<H", len(name)))
            f.write(name)
            f.write(struct.pack("<B", p.data.ndim))
            f.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
            f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())


def _need(f, n, what):
    buf = f.read(n)
    if len(buf) != n:
        raise CheckpointError(
            f"truncated checkpoint: wanted {n} bytes for {what} at offset "
            f"{f.tell() - len(buf)}, got {len(buf)}")
    return buf


def load_model(path, expected_cfg=None, dtype=np.float32):
    """Rebuild a model from a checkpoint.

    If expected_cfg is given, the stored config must match it exactly.
    """
    with open(path, "rb") as fh:
        f = io.BytesIO(fh.read())
    if _need(f, 4, "magic") != MAGIC:
        raise CheckpointError(f"bad magic, not a model checkpoint: {path}")
    (version,) = struct.unpack("<I", _need(f, 4, "version"))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", _need(f, 4, "config length"))
    try:
        cfg = ModelConfig.from_dict(json.loads(_need(f, cfg_len, "config")))
    except (ValueError, TypeError) as e:     # bad JSON, bad utf-8 or a bad config
        raise CheckpointError(f"malformed embedded config: {e}") from e
    if expected_cfg is not None and cfg != expected_cfg:
        raise CheckpointError("checkpoint config does not match the expected config")

    model = init_parameters(cfg, seed=0, dtype=dtype)
    expected = {p.name: p for p in model.parameters()}
    (n_params,) = struct.unpack("<I", _need(f, 4, "parameter count"))
    if n_params != len(expected):
        raise CheckpointError(
            f"checkpoint holds {n_params} parameters, config implies {len(expected)}")
    seen = set()
    for _ in range(n_params):
        (name_len,) = struct.unpack("<H", _need(f, 2, "name length"))
        name = _need(f, name_len, "name").decode()
        if name not in expected:
            raise CheckpointError(f"unknown parameter {name!r} in checkpoint")
        if name in seen:
            raise CheckpointError(f"duplicate parameter {name!r} in checkpoint")
        seen.add(name)
        (ndim,) = struct.unpack("<B", _need(f, 1, f"{name} ndim"))
        shape = struct.unpack(f"<{ndim}I", _need(f, 4 * ndim, f"{name} shape"))
        p = expected[name]
        if shape != p.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {shape}, config implies {p.data.shape}")
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        raw = _need(f, 4 * count, f"{name} data")
        p.data = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(dtype)
    trailing = f.read()
    if trailing:
        raise CheckpointError(f"{len(trailing)} unexpected trailing bytes")
    return model
