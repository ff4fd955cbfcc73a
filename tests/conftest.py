"""Shared fixtures and independent numeric oracles.

The finite-difference helpers here deliberately avoid the package's own
backward pass: they evaluate a closure twice per coordinate, so gradient
tests compare two unrelated code paths.
"""

import builtins
import contextlib
import errno
import importlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))   # for reference_tables

from onebt.model import ModelConfig


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x (float64)."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        fp = f(x)
        x[i] = orig - h
        fm = f(x)
        x[i] = orig
        g[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.linalg.norm(a - b) / (np.linalg.norm(a) + np.linalg.norm(b) + 1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def tiny_config(**overrides):
    """The smallest full architecture: M=2, d=8, K=2, L=16, C=3."""
    base = dict(num_latents=2, latent_dim=8, cross_heads=2, self_heads=2,
                cross_head_dim=4, self_head_dim=4, self_per_cross=1,
                num_freq_bands=2, max_freq=16.0, input_channels=3, seq_len=16,
                ff_mult=2, attn_dropout=0.0, ff_dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


class Killed(BaseException):
    """Stands in for a kill: no `except Exception` in the program catches it."""


@contextlib.contextmanager
def killed_after(epoch):
    """Inside the block, a train() with a state_path dies right after it has
    saved the state of its first `epoch` epochs, as a kill between epochs
    would; the block must end that way."""
    train_module = importlib.import_module("onebt.train")   # onebt.train is the function
    save_arrays = train_module.save_arrays

    def save_then_die(path, meta, arrays):
        save_arrays(path, meta, arrays)
        if meta["next_epoch"] == epoch:
            raise Killed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train_module, "save_arrays", save_then_die)
        with pytest.raises(Killed):
            yield


class _DiskFull:
    """A file whose writelines stores half the bytes, then fails like a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def writelines(self, chunks):
        blob = b"".join(chunks)
        self.f.write(blob[:len(blob) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@contextlib.contextmanager
def disk_full(only=None):
    """Inside the block, write_atomic's file stores half its bytes and then
    fails like a full disk: on every call, or on the `only`-th call alone."""
    tensor = importlib.import_module("onebt.tensor")
    calls = itertools.count(1)

    def open_full(path, mode):
        f = builtins.open(path, mode)
        return _DiskFull(f) if only in (None, next(calls)) else f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "open", open_full, raising=False)
        yield


# Property tests replay the same examples on every run, keep no example
# database and stay bounded in time. Hypothesis still caches the constants it
# reads from local source files; that cache goes to the system temp
# directory, not the checkout.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=300)
settings.load_profile("tier1")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "onebt-hypothesis")
