"""Property tests for the three kinds of sealed file: a truncated, bit-flipped
or extended model checkpoint, train state or dataset makes its reader raise
its own error, never another one, and never loads."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from onebt.checkpoint import CheckpointError, save_model, load_model
from onebt.data import DataError, SynthSpec, generate_synthetic, save_dataset, load_dataset
from onebt.model import init_parameters
from onebt.train import TrainConfig, train
from conftest import killed_after, tiny_config

# On a failure hypothesis's pytest plugin imports libcst, whose import warns
# through mypy_extensions; as an error that warning would hide the failure.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def _flip(blob, i, bit):
    return blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1:]


def corruptions(blob):
    """A truncation, a single-bit flip or an extension of blob."""
    n = len(blob)
    return st.one_of(
        st.integers(0, n - 1).map(lambda k: blob[:k]),
        st.builds(_flip, st.just(blob), st.integers(0, n - 1), st.integers(0, 7)),
        st.binary(min_size=1, max_size=64).map(lambda extra: blob + extra))


_STATE_DATA = (np.random.default_rng(0).standard_normal((8, 16, 3)).astype(np.float32),
               np.arange(8) % 2)
_STATE_CFG = TrainConfig(epochs=2, batch_size=4)


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A directory with a tiny model checkpoint, train state and dataset."""
    d = tmp_path_factory.mktemp("good")
    save_model(init_parameters(tiny_config(), seed=0), d / "model.ckpt")
    with killed_after(1):
        train(init_parameters(tiny_config(), seed=0), *_STATE_DATA, _STATE_CFG,
              state_path=d / "state")
    manifest, records = generate_synthetic(
        SynthSpec(n_subjects=2, samples_per_cell=1, seq_len=16), seed=0)
    save_dataset(d / "data.eeg", records, manifest.sample_rate_hz, manifest.channel_names)
    return d


@pytest.fixture(scope="module")
def bad_file(tmp_path_factory):
    return tmp_path_factory.mktemp("corrupt") / "file"


@given(data=st.data())
def test_corrupt_checkpoint_raises_checkpoint_error(good, bad_file, data):
    bad_file.write_bytes(data.draw(corruptions((good / "model.ckpt").read_bytes())))
    with pytest.raises(CheckpointError):
        load_model(bad_file)


@given(data=st.data())
def test_corrupt_train_state_raises_checkpoint_error(good, bad_file, data):
    bad_file.write_bytes(data.draw(corruptions((good / "state").read_bytes())))
    with pytest.raises(CheckpointError):
        train(init_parameters(tiny_config(), seed=1), *_STATE_DATA, _STATE_CFG,
              state_path=bad_file)


@given(data=st.data())
def test_corrupt_dataset_raises_data_error_or_loads(good, bad_file, data):
    """The dataset is sealed, so no corruption loads: each raises DataError."""
    bad_file.write_bytes(data.draw(corruptions((good / "data.eeg").read_bytes())))
    with pytest.raises(DataError):
        load_dataset(bad_file)
