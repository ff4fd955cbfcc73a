"""EEG windows: binary on-disk format, synthetic generation, LOSO splits.

A dataset is one numpy record array whose dtype, `record_dtype(L, C)`, is the
file's sample layout: per window a subject id, task and difficulty label,
then the [L, C] float32 signal. Splits are index arrays into it. The
synthetic generator stands in for real recordings: band-limited sinusoids
plus 1/f noise per channel, with the hard class adding extra power in a
narrow band on a subset of channels.
"""

import os
import struct
import warnings
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .tensor import check_field_types, write_atomic

__all__ = [
    "Task", "EASY", "HARD", "DEFAULT_CHANNELS", "DataError",
    "DatasetManifest", "SynthSpec", "record_dtype",
    "save_dataset", "load_dataset", "generate_synthetic",
    "loso_splits", "channel_stats", "normalize", "samples_to_arrays",
]

MAGIC = b"OBT1"
VERSION = 1

EASY, HARD = 0, 1

DEFAULT_CHANNELS = ("AF3", "F7", "F3", "FC5", "T7", "P7", "O1",
                    "O2", "P8", "T8", "FC6", "F4", "F8", "AF4")


class Task:
    IQ, MATH, GAME = 0, 1, 2
    names = ("IQ", "MATH", "GAME")

    @classmethod
    def from_name(cls, name):
        try:
            return cls.names.index(name.upper())
        except ValueError:
            raise DataError(f"unknown task {name!r}, expected one of {cls.names}") from None


class DataError(ValueError):
    """A dataset file or dataset-level precondition is violated."""


def record_dtype(seq_len, n_channels):
    """One window as stored on disk (packed, little-endian, 4 + 4*L*C bytes)."""
    try:
        return np.dtype([("subject_id", "<u2"), ("task", "u1"), ("label", "u1"),
                         ("signal", "<f4", (seq_len, n_channels))])
    except ValueError as e:          # e.g. a record over numpy's C-int size cap
        raise DataError(f"cannot store a {seq_len} x {n_channels} window as one record: {e}") from None


@dataclass
class DatasetManifest:
    n_samples: int
    seq_len: int
    n_channels: int
    sample_rate_hz: int
    n_subjects: int
    channel_names: tuple
    samples_per_subject_per_level_per_task: int | None = None
    provenance: str = ""


def _build_manifest(records, sample_rate_hz, channel_names, provenance):
    cells = np.stack([records.subject_id, records.task, records.label], axis=1)
    _, counts = np.unique(cells, axis=0, return_counts=True)
    uniform = counts.size > 0 and bool((counts == counts[0]).all())
    if not uniform:
        warnings.warn("dataset is not balanced per (subject, task, level)")
    L, C = records.dtype["signal"].shape
    return DatasetManifest(
        n_samples=len(records),
        seq_len=L,
        n_channels=C,
        sample_rate_hz=sample_rate_hz,
        n_subjects=len(np.unique(records.subject_id)),
        channel_names=tuple(channel_names),
        samples_per_subject_per_level_per_task=int(counts[0]) if uniform else None,
        provenance=provenance,
    )


def _check_windows(records, offset=None, size=0):
    """DataError for the first window with a non-finite signal or an
    out-of-range tag, placed at `offset + i * size` when read from a file."""
    finite = np.isfinite(records.signal).reshape(len(records), -1).all(axis=1)
    ok = finite & (records.task <= 2) & (records.label <= 1)
    if not ok.all():
        i = int(np.argmin(ok))
        where = f"sample {i}" + ("" if offset is None else f" at byte offset {offset + i * size}")
        if not finite[i]:
            raise DataError(f"{where} contains non-finite values")
        raise DataError(f"{where} has task={records.task[i]} label={records.label[i]}, "
                        f"expected task 0..2 and label 0..1")


# ---------------------------------------------------------------------------
# binary format

def save_dataset(path, records, sample_rate_hz, channel_names, provenance=""):
    """Write a record_dtype(L, C) array as the binary dataset, then a
    human-readable manifest sidecar, each whole or not at all."""
    dt = getattr(records, "dtype", None)
    sig = (getattr(dt, "fields", None) or {}).get("signal")
    shape = sig[0].shape if sig else ()
    if len(shape) != 2 or dt != record_dtype(*shape):
        raise DataError(f"records must have dtype record_dtype(L, C), got {dt}")
    records = records.view(np.recarray)
    if len(records) == 0:
        raise DataError("cannot save an empty dataset")
    L, C = shape
    if len(channel_names) != C:
        raise DataError(f"{len(channel_names)} channel names for {C} channels")
    raw_names = []
    for name in channel_names:
        try:
            raw_names.append(name.encode("ascii"))
        except UnicodeEncodeError:
            raise DataError(f"channel name {name!r} is not ASCII") from None
        if len(raw_names[-1]) > 255:
            raise DataError(f"channel name {name!r} is longer than 255 bytes")
    if not isinstance(sample_rate_hz, (int, np.integer)) or not 0 < sample_rate_hz < 2**32:
        raise DataError(f"sample_rate_hz must be an integer in 1..2^32-1, got {sample_rate_hz!r}")
    # every check runs before the first write, so a bad window writes nothing
    _check_windows(records)
    manifest = _build_manifest(records, sample_rate_hz, channel_names, provenance)
    header = struct.pack("<6I", VERSION, len(records), L, C, sample_rate_hz, manifest.n_subjects)
    write_atomic(path, [MAGIC, header, *(struct.pack("<B", len(raw)) + raw for raw in raw_names),
                        records.tobytes()])
    write_atomic(f"{path}.manifest.txt", _sidecar_text(manifest).encode("utf-8"))
    return manifest


def _sidecar_text(m):
    return (f"samples: {m.n_samples}\n"
            f"window: {m.seq_len} x {m.n_channels}\n"
            f"sample_rate_hz: {m.sample_rate_hz}\n"
            f"subjects: {m.n_subjects}\n"
            f"channels: {','.join(m.channel_names)}\n"
            f"per_cell: {m.samples_per_subject_per_level_per_task}\n"
            f"provenance: {m.provenance}\n")


def _need(buf, off, n, what):
    """Offset just past the n bytes for `what` at `off`; DataError when the
    file ends first."""
    if len(buf) - off < n:
        raise DataError(
            f"truncated dataset: wanted {n} bytes for {what} at byte offset "
            f"{off}, got {max(len(buf) - off, 0)}")
    return off + n


def load_dataset(path):
    """Read a dataset file back; returns (manifest, records)."""
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        del buf[f.readinto(buf):]
    _need(buf, 0, 4, "magic")
    if buf[:4] != MAGIC:
        raise DataError(f"bad magic at byte offset 0, not a dataset file: {path}")
    off = _need(buf, 4, 24, "header")
    version, n, L, C, rate, n_subj = struct.unpack_from("<6I", buf, 4)
    if version != VERSION:
        raise DataError(f"unsupported dataset version {version} at byte offset 4")
    if n == 0:
        raise DataError("dataset holds no windows")
    names = []
    for i in range(C):
        _need(buf, off, 1, f"channel {i} name length")
        end = _need(buf, off + 1, buf[off], f"channel {i} name")
        try:
            names.append(buf[off + 1:end].decode("ascii"))
        except UnicodeDecodeError:
            raise DataError(f"channel {i} name at byte offset {off + 1} is not ASCII") from None
        off = end
    size = 4 + 4 * L * C
    have = (len(buf) - off) // size
    if have < n:
        _need(buf, off + have * size, size, f"sample {have}")
    if len(buf) > off + n * size:
        raise DataError(f"{len(buf) - off - n * size} unexpected trailing bytes "
                        f"at offset {off + n * size}")
    records = np.frombuffer(buf, record_dtype(L, C), count=n, offset=off).view(np.recarray)
    _check_windows(records, off, size)
    found = len(np.unique(records.subject_id))
    if found != n_subj:
        raise DataError(f"header claims {n_subj} subjects, file has {found}")
    manifest = _build_manifest(records, rate, names, _read_sidecar_provenance(path))
    return manifest, records


def _read_sidecar_provenance(path):
    try:
        with open(f"{path}.manifest.txt", encoding="utf-8") as f:
            return next((line[len("provenance: "):].rstrip("\n")
                         for line in f if line.startswith("provenance: ")), "")
    except OSError:
        return ""
    except UnicodeDecodeError as e:
        raise DataError(f"sidecar {path}.manifest.txt is not utf-8: {e}") from None


# ---------------------------------------------------------------------------
# synthetic generation

# the hard class adds power in this band on the frontal channels
BAND = (4.0, 7.0)
TARGET_CHANNELS = (0, 1, 2, 11, 12, 13)


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs; defaults mirror the real recording design."""
    n_subjects: Annotated[int, "[1, 65535]"] = 11               # ids are stored as uint16
    samples_per_cell: Annotated[int, "[1, inf)"] = 12           # per (subject, task, level)
    seq_len: Annotated[int, "[2, inf)"] = 1280
    sample_rate_hz: Annotated[int, "[1, 4294967295]"] = 128     # stored as uint32
    delta: Annotated[float, "[0, inf)"] = 1.0                   # class separation, 0 = no signal
    amplitude_scale: float = 2.0        # hard-class amplitude per unit delta, in base-sigma units

    def __post_init__(self):
        check_field_types(SynthSpec, vars(self), "the synthetic spec", DataError)
        record_dtype(self.seq_len, len(DEFAULT_CHANNELS))     # DataError if a window cannot fit


def _pink_noise(rng, n):
    """Noise with a 1/f power spectrum, unit variance."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n)
    f[0] = f[1]
    spec *= f ** -0.5
    x = np.fft.irfft(spec, n)
    return x / x.std()


def _window(rng, spec, hard):
    t = np.arange(spec.seq_len) / spec.sample_rate_hz
    sig = np.empty((spec.seq_len, len(DEFAULT_CHANNELS)))
    for ch in range(len(DEFAULT_CHANNELS)):
        base = _pink_noise(rng, spec.seq_len)
        for _ in range(6):                          # background sinusoids
            freq = rng.uniform(1.0, 45.0)
            amp = rng.uniform(0.2, 1.0)
            base = base + amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        # the class band is drawn for both labels so easy/hard consume the
        # same stream; only the amplitude differs (zero for easy)
        freq = rng.uniform(*BAND)
        phase = rng.uniform(0, 2 * np.pi)
        if ch in TARGET_CHANNELS:
            amp = (spec.delta if hard else 0.0) * spec.amplitude_scale * base.std()
            base = base + amp * np.sin(2 * np.pi * freq * t + phase)
        sig[:, ch] = base
    return sig


def generate_synthetic(spec, seed=0):
    """Deterministic synthetic dataset; returns (manifest, records)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    C = len(DEFAULT_CHANNELS)
    gains = rng.normal(1.0, 0.1, size=(spec.n_subjects, C))    # per-subject channel gain
    records = np.zeros(spec.n_subjects * 6 * spec.samples_per_cell,
                       record_dtype(spec.seq_len, C)).view(np.recarray)
    # subject-major, then task, label and repeat: the order windows are drawn in
    grid = np.indices((spec.n_subjects, 3, 2, spec.samples_per_cell)).reshape(4, -1)
    records.subject_id, records.task, records.label = grid[:3]
    signal = records.signal
    for i, (subj, label) in enumerate(zip(records.subject_id, records.label)):
        signal[i] = _window(rng, spec, hard=(label == HARD)) * gains[subj]
    manifest = _build_manifest(records, spec.sample_rate_hz, DEFAULT_CHANNELS,
                               f"synthetic delta={spec.delta} band={BAND} seed={seed}")
    return manifest, records


# ---------------------------------------------------------------------------
# splitting and normalization

def loso_splits(records, task=None):
    """One (train indices, test indices) pair of index arrays per subject,
    sorted by subject id.

    With a task filter, both sides keep only that task's windows.
    """
    if task is not None and isinstance(task, str):
        task = Task.from_name(task)
    pool = np.arange(len(records)) if task is None else np.flatnonzero(records.task == task)
    subject = records.subject_id[pool]
    subjects = np.unique(subject)
    if len(subjects) < 2:
        raise DataError(f"LOSO needs at least 2 subjects, found {len(subjects)}")
    return [(pool[subject != s], pool[subject == s]) for s in subjects]


def channel_stats(X):
    """Per-channel mean and std over windows X [n, L, C] (zero std becomes 1)."""
    mean = X.mean(axis=(0, 1), keepdims=True)
    d = X - mean                       # X.std would take the mean over X again
    d *= d
    std = np.sqrt(d.mean(axis=(0, 1)))
    mean = mean[0, 0]
    zero = std == 0.0
    if zero.any():
        warnings.warn(f"{int(zero.sum())} zero-variance channel(s); using divisor 1")
        std = np.where(zero, 1.0, std)
    return mean.astype(np.float64), std.astype(np.float64)


def normalize(X, mean, std):
    """Windows X [..., L, C] z-scored per channel with the given statistics, as float32."""
    return ((X - mean) / std).astype(np.float32)


def samples_to_arrays(records, indices):
    """Gather the indexed windows into (X [n, L, C] float32, y [n] int64)."""
    return records.signal[indices], records.label[indices].astype(np.int64)
