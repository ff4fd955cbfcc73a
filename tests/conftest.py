"""Shared fixtures and independent numeric oracles.

The finite-difference helpers here deliberately avoid the package's own
backward pass: they evaluate a closure twice per coordinate, so gradient
tests compare two unrelated code paths.
"""

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


# Property tests replay the same examples on every run, keep no example
# database and stay bounded in time. Hypothesis still caches the constants it
# reads from local source files; that cache goes to the system temp
# directory, not the checkout.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=300)
settings.load_profile("tier1")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "onebt-hypothesis")
