"""Dataset module: dataset file round-trips and refusals, generator
properties, LOSO splitting, and leakage-proof normalization through harness.fit."""

import struct
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from onebt.checkpoint import load_arrays, save_arrays
from onebt.data import (DataError, SynthSpec, Task, EASY, HARD, record_dtype,
                        DEFAULT_CHANNELS, generate_synthetic, save_dataset,
                        load_dataset, loso_splits, channel_stats, normalize,
                        samples_to_arrays)
from onebt.harness import fit
from onebt.train import TrainConfig
from conftest import tiny_config


def small_spec(**kw):
    base = dict(n_subjects=3, samples_per_cell=2, seq_len=32, delta=1.0)
    base.update(kw)
    return SynthSpec(**base)


@pytest.fixture(scope="module")
def small_set():
    return generate_synthetic(small_spec(), seed=5)


# ---------------------------------------------------------------------------
# generator

def test_generator_design_counts(small_set):
    manifest, samples = small_set
    assert manifest.n_samples == len(samples) == 3 * 3 * 2 * 2
    assert manifest.samples_per_subject_per_level_per_task == 2
    cells = {}
    for s in samples:
        cells[(s.subject_id, s.task, s.label)] = cells.get(
            (s.subject_id, s.task, s.label), 0) + 1
    assert set(cells.values()) == {2}
    assert {s.task for s in samples} == {Task.IQ, Task.MATH, Task.GAME}
    assert {s.label for s in samples} == {EASY, HARD}
    assert samples[0].signal.shape == (32, 14)
    assert samples[0].signal.dtype == np.float32


def test_generator_full_design_matches_recording_plan():
    manifest, samples = generate_synthetic(
        SynthSpec(n_subjects=11, samples_per_cell=12, seq_len=8), seed=0)
    assert manifest.n_samples == 792
    assert manifest.n_subjects == 11
    assert manifest.channel_names == DEFAULT_CHANNELS
    per_task = sum(1 for s in samples if s.task == Task.IQ)
    assert per_task == 11 * 2 * 12


def test_generator_deterministic():
    m1, s1 = generate_synthetic(small_spec(), seed=9)
    m2, s2 = generate_synthetic(small_spec(), seed=9)
    for a, b in zip(s1, s2):
        np.testing.assert_array_equal(a.signal, b.signal)
    _, s3 = generate_synthetic(small_spec(), seed=10)
    assert not np.array_equal(s1[0].signal, s3[0].signal)


def test_generator_delta_zero_classes_identical_distribution():
    """At delta=0 both labels run the exact same generative process, so the
    easy and hard samples inside one cell position are bitwise equal streams
    only across seeds; here we check the band term vanished: per-class std
    of the target channels must match closely."""
    _, samples = generate_synthetic(small_spec(delta=0.0, samples_per_cell=8), seed=1)
    easy = np.stack([s.signal for s in samples if s.label == EASY])
    hard = np.stack([s.signal for s in samples if s.label == HARD])
    re = easy.std(axis=(0, 1)) / hard.std(axis=(0, 1))
    assert np.all(np.abs(re - 1.0) < 0.25)


def test_generator_delta_raises_band_power():
    spec = small_spec(delta=2.0, seq_len=256)
    _, samples = generate_synthetic(spec, seed=3)
    # compare hard vs easy spectral power in the class band on a target channel
    f = np.fft.rfftfreq(256, d=1.0 / spec.sample_rate_hz)
    band = (f >= 4.0) & (f <= 7.0)

    def band_power(sig):
        return (np.abs(np.fft.rfft(sig, axis=0))[band] ** 2).mean()

    hard_p = np.mean([band_power(s.signal[:, 0]) for s in samples if s.label == HARD])
    easy_p = np.mean([band_power(s.signal[:, 0]) for s in samples if s.label == EASY])
    assert hard_p > 2.0 * easy_p
    # non-target channels carry no class signal
    hard_n = np.mean([band_power(s.signal[:, 5]) for s in samples if s.label == HARD])
    easy_n = np.mean([band_power(s.signal[:, 5]) for s in samples if s.label == EASY])
    assert abs(hard_n - easy_n) < 0.5 * max(hard_n, easy_n)


def test_spec_validation():
    with pytest.raises(DataError):
        small_spec(delta=-0.5)
    with pytest.raises(DataError):
        SynthSpec(n_subjects=0)
    with pytest.raises(DataError, match="65535"):      # subject ids are stored as uint16
        SynthSpec(n_subjects=70000)
    # counts are ints, and a bool is not one
    for name, value in [("samples_per_cell", 1.5), ("n_subjects", True), ("seq_len", 16.0)]:
        with pytest.raises(DataError, match=f"{name} must be int"):
            SynthSpec(**{"n_subjects": 1, "samples_per_cell": 1, "seq_len": 16, name: value})


@pytest.mark.parametrize("kw, match", [
    ({"seq_len": 100_000_000}, "cannot store"), ({"sample_rate_hz": 0}, "sample_rate_hz"),
    ({"sample_rate_hz": 2**32}, "sample_rate_hz"), ({"sample_rate_hz": 128.0}, "sample_rate_hz"),
])
def test_spec_rejects_what_the_file_cannot_hold(kw, match):
    with pytest.raises(DataError, match=match):
        SynthSpec(n_subjects=1, samples_per_cell=1, **kw)


def test_spec_is_frozen_and_replace_rechecks():
    spec = small_spec()
    with pytest.raises(FrozenInstanceError):
        spec.delta = 2.0
    for delta in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="delta"):
            replace(spec, delta=delta)


# ---------------------------------------------------------------------------
# dataset files

def test_save_load_round_trip_bitwise(tmp_path, small_set):
    manifest, samples = small_set
    p = tmp_path / "d.eeg"
    save_dataset(p, samples, manifest.sample_rate_hz, manifest.channel_names,
                 manifest.provenance)
    loaded_manifest, loaded = load_dataset(p)
    assert loaded_manifest == manifest
    assert len(loaded) == len(samples)
    assert loaded.dtype == record_dtype(32, 14) and loaded.dtype.itemsize == 4 + 4 * 32 * 14
    assert loaded.tobytes() == samples.tobytes()
    assert loaded.flags.writeable
    assert (tmp_path / "d.eeg.manifest.txt").exists()
    # a plain structured array of the same dtype, with a numpy integer rate,
    # writes the same bytes and the same sidecar
    save_dataset(tmp_path / "plain.eeg", samples.view(np.ndarray),
                 np.int64(manifest.sample_rate_hz), manifest.channel_names, manifest.provenance)
    assert (tmp_path / "plain.eeg").read_bytes() == p.read_bytes()
    assert ((tmp_path / "plain.eeg.manifest.txt").read_bytes()
            == (tmp_path / "d.eeg.manifest.txt").read_bytes())
    # the sidecar is for people: the file's sealed meta alone is read back
    (tmp_path / "d.eeg.manifest.txt").write_bytes(b"provenance: \xff\n")
    assert load_dataset(p)[0] == manifest


def test_truncated_file_reports_offset(tmp_path, small_set):
    manifest, samples = small_set
    p = tmp_path / "d.eeg"
    save_dataset(p, samples, manifest.sample_rate_hz, manifest.channel_names)
    blob = p.read_bytes()
    p.write_bytes(blob[:len(blob) - 100])
    with pytest.raises(DataError, match=r"byte offset \d+"):
        load_dataset(p)
    p.write_bytes(blob[:10])
    with pytest.raises(DataError, match="header"):
        load_dataset(p)


def test_bad_magic_and_trailing(tmp_path, small_set):
    manifest, samples = small_set
    p = tmp_path / "d.eeg"
    save_dataset(p, samples, manifest.sample_rate_hz, manifest.channel_names)
    blob = p.read_bytes()
    p.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataError, match="magic"):
        load_dataset(p)
    p.write_bytes(blob + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        load_dataset(p)


def test_nonfinite_signal_rejected_on_save(tmp_path, small_set):
    manifest, samples = small_set
    bad = samples[:1].copy()
    bad.signal[0, 3, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        save_dataset(tmp_path / "bad.eeg", bad, 128, manifest.channel_names)


@pytest.mark.parametrize("case", ["task", "label", "wrong_dtype", "plain_array", "nan",
                                  "float32_overflow", "channel_name", "sample_rate",
                                  "sample_rate_bool", "one_step", "no_channel"])
def test_bad_late_sample_leaves_no_file(tmp_path, small_set, case):
    """Every window is checked before the file is opened: a bad one anywhere
    raises DataError and writes neither the dataset nor its sidecar."""
    manifest, samples = small_set
    bad = samples.copy()
    names, rate = manifest.channel_names, manifest.sample_rate_hz
    if case == "sample_rate":
        rate = -1
    elif case == "sample_rate_bool":    # a bool is an int to Python; the file would store true
        rate = True
    elif case == "channel_name":         # the file's meta holds only str names
        names = (1,) + names[1:]
    elif case in ("one_step", "no_channel"):     # windows no model can read
        L, C = (1, 2) if case == "one_step" else (32, 0)
        bad = np.zeros(len(samples), record_dtype(L, C))
        names = names[:C]
    elif case == "task":
        bad.task[-1] = 3
    elif case == "label":
        bad.label[-1] = 2
    elif case == "wrong_dtype":          # a signal field that is not [L, C]
        bad = np.zeros(len(samples), [("subject_id", "<u2"), ("task", "u1"),
                                      ("label", "u1"), ("signal", "<f4", (32 * 14,))])
    elif case == "plain_array":
        bad = samples.signal.copy()
    elif case == "nan":
        bad.signal[-1, -1, -1] = np.nan
    elif case == "float32_overflow":     # finite in float64, inf once stored
        with np.errstate(over="ignore"):
            bad.signal[-1, 0, 0] = np.float64(1e39)
    p = tmp_path / "bad.eeg"
    with pytest.raises(DataError):
        save_dataset(p, bad, rate, names)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case, match", [
    ("empty", "empty dataset"), ("name_count", "13 channel names for 14 channels"),
])
def test_save_rejects_empty_set_and_bad_names(tmp_path, small_set, case, match):
    manifest, samples = small_set
    names = manifest.channel_names
    if case == "empty":
        samples = samples[:0]
    else:
        names = names[1:]
    with pytest.raises(DataError, match=match):
        save_dataset(tmp_path / "bad.eeg", samples, manifest.sample_rate_hz, names)
    assert list(tmp_path.iterdir()) == []


def _reseal(p, edit):
    """Rewrite dataset p with save_arrays after edit(meta, arrays) changed what
    it holds: the file is sealed, so only load_dataset's own checks can refuse it."""
    meta, arrays = load_arrays(p)
    edit(meta, arrays)
    save_arrays(p, meta, arrays)


def _narrow(meta, arrays, L, names):
    meta.update(seq_len=L, channel_names=names)
    arrays["records"] = np.zeros((4, 4 + 4 * L * len(names)), np.uint8)


@pytest.mark.parametrize("edit, match", [
    (None, "unsupported container version 3"),
    (lambda meta, arrays: arrays.update(records=arrays["records"][:0]), "holds no windows"),
    (lambda meta, arrays: arrays.update(records=arrays["records"][:, 1:]), "not a dataset"),
    (lambda meta, arrays: meta.pop("provenance"), "not a dataset"),
    (lambda meta, arrays: _narrow(meta, arrays, 1, ["A", "B"]), "seq_len must be in"),
    (lambda meta, arrays: _narrow(meta, arrays, 32, []), "one or more"),
], ids=["version", "no_windows", "record_width", "no_provenance", "seq_len", "no_channels"])
def test_load_rejects_bad_header_field(tmp_path, small_set, edit, match):
    """The container version rewritten, or a sealed file whose meta or records
    array no dataset has."""
    manifest, samples = small_set
    p = tmp_path / "d.eeg"
    save_dataset(p, samples, manifest.sample_rate_hz, manifest.channel_names)
    if edit is None:
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, 4, 3)
        p.write_bytes(bytes(blob))
    else:
        _reseal(p, edit)
    with pytest.raises(DataError, match=match):
        load_dataset(p)


def test_nonfinite_signal_rejected_on_load(tmp_path, small_set):
    manifest, samples = small_set
    p = tmp_path / "d.eeg"
    save_dataset(p, samples[:4], manifest.sample_rate_hz, manifest.channel_names)
    # the first signal value of the first window, after its 4-byte tag
    _reseal(p, lambda meta, arrays: arrays["records"][0, 4:8].view("<f4").fill(np.inf))
    with pytest.raises(DataError, match="sample 0 contains non-finite"):
        load_dataset(p)


def test_unbalanced_set_warns_not_errors(tmp_path, small_set):
    manifest, samples = small_set
    with pytest.warns(UserWarning, match="not balanced"):
        save_dataset(tmp_path / "u.eeg", samples[:-1],
                     manifest.sample_rate_hz, manifest.channel_names)
    with pytest.warns(UserWarning, match="not balanced"):
        m, loaded = load_dataset(tmp_path / "u.eeg")
    assert m.samples_per_subject_per_level_per_task is None
    assert len(loaded) == len(samples) - 1


# ---------------------------------------------------------------------------
# LOSO splits

def test_loso_one_fold_per_subject(small_set):
    _, samples = small_set
    folds = loso_splits(samples)
    assert len(folds) == 3
    all_test = [i for _, test in folds for i in test]
    assert sorted(all_test) == list(range(len(samples)))       # partition
    for train, test in folds:
        assert train.dtype.kind == test.dtype.kind == "i"
        test_subjects = {samples[i].subject_id for i in test}
        train_subjects = {samples[i].subject_id for i in train}
        assert len(test_subjects) == 1
        assert test_subjects.isdisjoint(train_subjects)
        assert len(train) + len(test) == len(samples)


def test_loso_eleven_subjects_task_filter():
    _, samples = generate_synthetic(
        SynthSpec(n_subjects=11, samples_per_cell=12, seq_len=8), seed=2)
    folds = loso_splits(samples)
    assert len(folds) == 11
    per_task = loso_splits(samples, task="MATH")
    assert len(per_task) == 11
    for train, test in per_task:
        assert len(test) == 24                      # 12 easy + 12 hard
        assert (samples.task[np.concatenate([train, test])] == Task.MATH).all()


def test_loso_single_subject_rejected():
    _, samples = generate_synthetic(small_spec(n_subjects=1), seed=0)
    with pytest.raises(DataError, match="2 subjects"):
        loso_splits(samples)


def test_loso_unknown_task_rejected(small_set):
    _, samples = small_set
    with pytest.raises(DataError, match="unknown task"):
        loso_splits(samples, task="JENGA")


# ---------------------------------------------------------------------------
# normalization

def test_normalize_train_fold_moments(small_set):
    _, samples = small_set
    train, test = loso_splits(samples)[0]
    X, _ = samples_to_arrays(samples, train)
    mean, std = channel_stats(X)
    normed = normalize(X, mean, std)
    assert normed.dtype == np.float32 and normed.shape == X.shape
    np.testing.assert_allclose(normed.mean(axis=(0, 1)), 0.0, atol=1e-5)
    np.testing.assert_allclose(normed.std(axis=(0, 1)), 1.0, atol=1e-4)


def test_fit_ignores_held_out_windows(small_set):
    """Corrupting the held-out subject's signals must move neither the fit's
    statistics nor its trained weights."""
    _, samples = small_set
    train, test = loso_splits(samples)[0]
    mutated = samples.copy()
    mutated.signal[test] *= 1e6
    mcfg = tiny_config(seq_len=32, input_channels=len(DEFAULT_CHANNELS))
    tcfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=3)
    model_a, _, mean_a, std_a = fit(samples, train, mcfg, tcfg)
    model_b, _, mean_b, std_b = fit(mutated, train, mcfg, tcfg)
    np.testing.assert_array_equal(mean_a, mean_b)
    np.testing.assert_array_equal(std_a, std_b)
    for a, b in zip(model_a.parameters(), model_b.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


def test_normalize_constant_channel_no_nan():
    samples = np.zeros(4, record_dtype(16, 2)).view(np.recarray)
    samples.subject_id, samples.label = [0, 0, 1, 1], [0, 1, 0, 1]
    samples.signal[:, :, 1] = np.linspace(0, 1, 16)
    with pytest.warns(UserWarning, match="zero-variance"):
        mean, std = channel_stats(samples.signal)
    assert std[0] == 1.0
    normed = normalize(samples_to_arrays(samples, range(4))[0], mean, std)
    assert np.isfinite(normed).all()


def test_samples_to_arrays(small_set):
    _, samples = small_set
    X, y = samples_to_arrays(samples, [0, 5, 7])
    assert X.shape == (3, 32, 14) and X.dtype == np.float32 and y.dtype == np.int64
    assert y.tolist() == [samples[0].label, samples[5].label, samples[7].label]
    np.testing.assert_array_equal(X[1], samples[5].signal)
