"""Checkpoint container: bitwise round-trip and rejection of malformed files."""

import hashlib
import struct

import numpy as np
import pytest

from onebt.checkpoint import CheckpointError, save_model, load_model
from onebt.model import ModelConfig, init_parameters
from conftest import tiny_config


def test_round_trip_bitwise(tmp_path, rng):
    model = init_parameters(tiny_config(), seed=8)
    path = tmp_path / "m.ckpt"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.cfg == model.cfg
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert a.name == b.name
        np.testing.assert_array_equal(a.data, b.data)
    x = rng.standard_normal((2, 16, 3)).astype(np.float32)
    np.testing.assert_array_equal(model.forward(x).data, loaded.forward(x).data)


def test_round_trip_after_mutation(tmp_path):
    model = init_parameters(tiny_config(), seed=1)
    model.param("head.bias").data = np.array([1.5, -2.5], dtype=np.float32)
    path = tmp_path / "m.ckpt"
    save_model(model, path)
    np.testing.assert_array_equal(load_model(path).param("head.bias").data,
                                  [1.5, -2.5])


def test_expected_config_mismatch_rejected(tmp_path):
    save_model(init_parameters(tiny_config(), seed=0), tmp_path / "m.ckpt")
    with pytest.raises(CheckpointError, match="config"):
        load_model(tmp_path / "m.ckpt", expected_cfg=tiny_config(num_latents=3))
    # matching expected config loads fine
    load_model(tmp_path / "m.ckpt", expected_cfg=tiny_config())


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "not.ckpt"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(CheckpointError, match="magic"):
        load_model(p)


def test_truncation_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_model(init_parameters(tiny_config(), seed=0), p)
    blob = p.read_bytes()
    for cut in (3, 7, len(blob) // 2, len(blob) - 5):
        p.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_model(p)


def test_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_model(init_parameters(tiny_config(), seed=0), p)
    p.write_bytes(p.read_bytes() + b"\x00\x01")
    with pytest.raises(CheckpointError, match="trailing"):
        load_model(p)


def test_weights_stored_float32_le(tmp_path):
    model = init_parameters(tiny_config(), seed=0, dtype=np.float64)
    p = tmp_path / "m.ckpt"
    save_model(model, p)
    loaded = load_model(p)
    # float64 weights pass through a float32 container
    for a, b in zip(model.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(a.data.astype(np.float32), b.data)


def test_default_config_round_trip(tmp_path):
    model = init_parameters(ModelConfig(seq_len=64), seed=3)
    save_model(model, tmp_path / "m.ckpt")
    assert load_model(tmp_path / "m.ckpt").cfg == ModelConfig(seq_len=64)


def _split(blob):
    """(config JSON, parameter records as (name, shape, data bytes)) of a checkpoint."""
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    off = 12 + cfg_len
    (n,) = struct.unpack_from("<I", blob, off)
    off += 4
    records = []
    for _ in range(n):
        (name_len,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2:off + 2 + name_len].decode()
        off += 2 + name_len
        itemsize, ndim = blob[off], blob[off + 1]
        assert itemsize == 4
        shape = struct.unpack_from(f"<{ndim}I", blob, off + 2)
        off += 2 + 4 * ndim
        size = 4 * int(np.prod(shape, dtype=np.int64))
        records.append((name, shape, blob[off:off + size]))
        off += size
    assert off + 32 == len(blob)
    return blob[12:12 + cfg_len], records


def _join(cfg, records, version=2, itemsize=4):
    """A checkpoint of float32 records, sealed with a valid sha256 trailer."""
    out = b"OBTC" + struct.pack("<II", version, len(cfg)) + cfg
    out += struct.pack("<I", len(records))
    for name, shape, data in records:
        raw = name.encode()
        out += struct.pack("<H", len(raw)) + raw + struct.pack(f"<BB{len(shape)}I", itemsize, len(shape), *shape)
        out += data
    return out + hashlib.sha256(out).digest()


@pytest.fixture
def good_checkpoint(tmp_path):
    p = tmp_path / "m.ckpt"
    save_model(init_parameters(tiny_config(), seed=0), p)
    cfg, records = _split(p.read_bytes())
    assert _join(cfg, records) == p.read_bytes()
    return p, cfg, records


def _rejects(p, blob, match):
    p.write_bytes(blob)
    with pytest.raises(CheckpointError, match=match):
        load_model(p)


def test_unsupported_version_rejected(good_checkpoint):
    p, cfg, records = good_checkpoint
    _rejects(p, _join(cfg, records, version=1), "version 1")


@pytest.mark.parametrize("cfg", [b"{not json", b"\xff", b'{"nope": 1}', b'{"num_latents": 0}'])
def test_malformed_embedded_config_rejected(good_checkpoint, cfg):
    p, _, records = good_checkpoint
    _rejects(p, _join(cfg, records), "malformed embedded config")


def test_parameter_count_mismatch_rejected(good_checkpoint):
    p, cfg, records = good_checkpoint
    _rejects(p, _join(cfg, records[:-1]), f"holds {len(records) - 1} parameters")


def test_unknown_parameter_name_rejected(good_checkpoint):
    p, cfg, records = good_checkpoint
    records[0] = ("bogus",) + records[0][1:]
    _rejects(p, _join(cfg, records), "unknown parameter 'bogus'")


def test_duplicate_parameter_name_rejected(good_checkpoint):
    p, cfg, records = good_checkpoint
    records[1] = records[0]
    _rejects(p, _join(cfg, records), "duplicate parameter")


def test_parameter_shape_mismatch_rejected(good_checkpoint):
    """The transposed shape holds as many values, so only the shape check can catch it."""
    p, cfg, records = good_checkpoint
    i = next(i for i, (_, shape, _) in enumerate(records)
             if len(shape) == 2 and shape[0] != shape[1])
    name, shape, data = records[i]
    records[i] = (name, shape[::-1], data)
    _rejects(p, _join(cfg, records), f"parameter {name!r} has shape")


@pytest.mark.parametrize("itemsize, shape", [
    (2, (8,)), (4, (1,) * 65), (4, (0, 2**32 - 1, 2**32 - 1)),
], ids=["item_size", "axes", "overflow"])
def test_impossible_array_rejected(good_checkpoint, itemsize, shape):
    """An item size other than 4 or 8, more axes than numpy allows, or
    nonzero extents whose byte count overflows numpy's index type is refused
    before any data is read. The last holds zero values, so only that check
    can catch it."""
    p, cfg, records = good_checkpoint
    records[0] = (records[0][0], shape, b"")
    _rejects(p, _join(cfg, records, itemsize=itemsize), "make no float array")
