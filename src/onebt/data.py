"""EEG windows: binary on-disk format, synthetic generation, LOSO splits.

A dataset is a list of fixed-shape windows, each tagged with subject, task
and difficulty label. The synthetic generator stands in for real recordings:
band-limited sinusoids plus 1/f noise per channel, with the hard class
adding extra power in a narrow band on a subset of channels.
"""

import io
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Task", "EASY", "HARD", "DEFAULT_CHANNELS", "DataError",
    "EegSample", "DatasetManifest", "SynthSpec",
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


@dataclass
class EegSample:
    signal: np.ndarray          # [seq_len, n_channels] float32
    subject_id: int
    task: int
    label: int


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

    def balanced(self):
        return self.samples_per_subject_per_level_per_task is not None


def _cell_counts(samples):
    counts = {}
    for s in samples:
        key = (s.subject_id, s.task, s.label)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _build_manifest(samples, sample_rate_hz, channel_names, provenance):
    counts = _cell_counts(samples)
    uniform = len(set(counts.values())) == 1 if counts else False
    if not uniform:
        warnings.warn("dataset is not balanced per (subject, task, level)")
    L, C = samples[0].signal.shape
    return DatasetManifest(
        n_samples=len(samples),
        seq_len=L,
        n_channels=C,
        sample_rate_hz=sample_rate_hz,
        n_subjects=len({s.subject_id for s in samples}),
        channel_names=tuple(channel_names),
        samples_per_subject_per_level_per_task=(
            next(iter(counts.values())) if uniform else None),
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# binary format

def save_dataset(path, samples, sample_rate_hz, channel_names, provenance=""):
    """Write the binary dataset plus a human-readable manifest sidecar."""
    if not samples:
        raise DataError("cannot save an empty dataset")
    L, C = samples[0].signal.shape
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
    # every check runs before the file is opened, so a bad sample leaves no torn file
    payloads = []
    for i, s in enumerate(samples):
        if s.signal.shape != (L, C):
            raise DataError(f"sample {i} has shape {s.signal.shape}, expected {(L, C)}")
        with np.errstate(over="ignore"):
            payloads.append(np.ascontiguousarray(s.signal, dtype="<f4"))
        if not np.all(np.isfinite(payloads[-1])):
            raise DataError(f"sample {i} contains non-finite values (as float32)")
        tags = (s.subject_id, s.task, s.label)
        if not all(isinstance(v, (int, np.integer)) for v in tags):
            raise DataError(f"sample {i} has subject_id, task, label = {tags}, expected integers")
        if not 0 <= s.subject_id <= 0xFFFF:
            raise DataError(f"sample {i} has subject_id={s.subject_id}, expected 0..65535")
        if s.task not in (Task.IQ, Task.MATH, Task.GAME) or s.label not in (EASY, HARD):
            raise DataError(f"sample {i} has task={s.task} label={s.label}, "
                            f"expected task 0..2 and label 0..1")
    manifest = _build_manifest(samples, sample_rate_hz, channel_names, provenance)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<6I", VERSION, len(samples), L, C,
                            sample_rate_hz, manifest.n_subjects))
        for raw in raw_names:
            f.write(struct.pack("<B", len(raw)))
            f.write(raw)
        for s, payload in zip(samples, payloads):
            f.write(struct.pack("<HBB", s.subject_id, s.task, s.label))
            f.write(payload.tobytes())
    _write_sidecar(path, manifest)
    return manifest


def _write_sidecar(path, m):
    lines = [
        f"samples: {m.n_samples}",
        f"window: {m.seq_len} x {m.n_channels}",
        f"sample_rate_hz: {m.sample_rate_hz}",
        f"subjects: {m.n_subjects}",
        f"channels: {','.join(m.channel_names)}",
        f"per_cell: {m.samples_per_subject_per_level_per_task}",
        f"provenance: {m.provenance}",
    ]
    with open(str(path) + ".manifest.txt", "w") as f:
        f.write("\n".join(lines) + "\n")


def _need(f, n, what):
    buf = f.read(n)
    if len(buf) != n:
        raise DataError(
            f"truncated dataset: wanted {n} bytes for {what} at byte offset "
            f"{f.tell() - len(buf)}, got {len(buf)}")
    return buf


def load_dataset(path):
    """Read a dataset file back; returns (manifest, samples)."""
    with open(path, "rb") as fh:
        f = io.BytesIO(fh.read())
    if _need(f, 4, "magic") != MAGIC:
        raise DataError(f"bad magic at byte offset 0, not a dataset file: {path}")
    version, n, L, C, rate, n_subj = struct.unpack("<6I", _need(f, 24, "header"))
    if version != VERSION:
        raise DataError(f"unsupported dataset version {version} at byte offset 4")
    names = []
    for i in range(C):
        (ln,) = struct.unpack("<B", _need(f, 1, f"channel {i} name length"))
        names.append(_need(f, ln, f"channel {i} name").decode("ascii"))
    samples = []
    for i in range(n):
        off = f.tell()
        subj, task, label = struct.unpack("<HBB", _need(f, 4, f"sample {i} header"))
        raw = _need(f, 4 * L * C, f"sample {i} signal")
        sig = np.frombuffer(raw, dtype="<f4").reshape(L, C).copy()
        if not np.all(np.isfinite(sig)):
            raise DataError(f"sample {i} at byte offset {off} contains non-finite values")
        if task > 2 or label > 1:
            raise DataError(f"sample {i} at byte offset {off} has task={task} label={label}")
        samples.append(EegSample(sig, subj, task, label))
    trailing = f.read()
    if trailing:
        raise DataError(f"{len(trailing)} unexpected trailing bytes at offset {f.tell() - len(trailing)}")
    if len({s.subject_id for s in samples}) != n_subj:
        raise DataError(f"header claims {n_subj} subjects, file has "
                        f"{len({s.subject_id for s in samples})}")
    manifest = _build_manifest(samples, rate, names, _read_sidecar_provenance(path))
    return manifest, samples


def _read_sidecar_provenance(path):
    try:
        with open(str(path) + ".manifest.txt") as f:
            for line in f:
                if line.startswith("provenance: "):
                    return line[len("provenance: "):].rstrip("\n")
    except OSError:
        pass
    return ""


# ---------------------------------------------------------------------------
# synthetic generation

@dataclass
class SynthSpec:
    """Generator knobs; defaults mirror the real recording design."""
    n_subjects: int = 11
    samples_per_cell: int = 12          # per (subject, task, level)
    seq_len: int = 1280
    n_channels: int = 14
    sample_rate_hz: int = 128
    delta: float = 1.0                  # class-separation knob, 0 = no signal
    band: tuple = (4.0, 7.0)            # extra-power band for the hard class
    target_channels: tuple = (0, 1, 2, 11, 12, 13)   # frontal subset
    amplitude_scale: float = 2.0        # hard-class amplitude per unit delta, in base-sigma units
    subject_gain_std: float = 0.1
    base_components: int = 6
    noise_exponent: float = 1.0
    channel_names: tuple = field(default=None)

    def __post_init__(self):
        if self.channel_names is None:
            if self.n_channels == len(DEFAULT_CHANNELS):
                self.channel_names = DEFAULT_CHANNELS
            else:
                self.channel_names = tuple(f"CH{i}" for i in range(self.n_channels))

    def validate(self):
        if self.n_subjects < 1 or self.samples_per_cell < 1:
            raise DataError("n_subjects and samples_per_cell must be >= 1")
        if self.seq_len < 2 or self.n_channels < 1:
            raise DataError("seq_len must be >= 2 and n_channels >= 1")
        if self.delta < 0:
            raise DataError(f"delta must be >= 0, got {self.delta}")
        if not 0 < self.band[0] < self.band[1]:
            raise DataError(f"band must be increasing and positive, got {self.band}")
        if any(not 0 <= ch < self.n_channels for ch in self.target_channels):
            raise DataError("target_channels out of range")
        return self


def _pink_noise(rng, n, exponent):
    """Noise with power spectrum 1/f^exponent, unit variance."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(n)
    f[0] = f[1]
    spec *= f ** (-exponent / 2.0)
    x = np.fft.irfft(spec, n)
    return x / x.std()


def _window(rng, spec, hard):
    t = np.arange(spec.seq_len) / spec.sample_rate_hz
    sig = np.empty((spec.seq_len, spec.n_channels))
    for ch in range(spec.n_channels):
        base = _pink_noise(rng, spec.seq_len, spec.noise_exponent)
        for _ in range(spec.base_components):
            freq = rng.uniform(1.0, 45.0)
            amp = rng.uniform(0.2, 1.0)
            base = base + amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
        # the class band is drawn for both labels so easy/hard consume the
        # same stream; only the amplitude differs (zero for easy)
        freq = rng.uniform(*spec.band)
        phase = rng.uniform(0, 2 * np.pi)
        if ch in spec.target_channels:
            amp = (spec.delta if hard else 0.0) * spec.amplitude_scale * base.std()
            base = base + amp * np.sin(2 * np.pi * freq * t + phase)
        sig[:, ch] = base
    return sig


def generate_synthetic(spec, seed=0):
    """Deterministic synthetic dataset; returns (manifest, samples)."""
    spec.validate()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    gains = rng.normal(1.0, spec.subject_gain_std,
                       size=(spec.n_subjects, spec.n_channels))
    samples = []
    for subj in range(spec.n_subjects):
        for task in (Task.IQ, Task.MATH, Task.GAME):
            for label in (EASY, HARD):
                for _ in range(spec.samples_per_cell):
                    sig = _window(rng, spec, hard=(label == HARD)) * gains[subj]
                    samples.append(EegSample(sig.astype(np.float32), subj, task, label))
    manifest = DatasetManifest(
        n_samples=len(samples),
        seq_len=spec.seq_len,
        n_channels=spec.n_channels,
        sample_rate_hz=spec.sample_rate_hz,
        n_subjects=spec.n_subjects,
        channel_names=tuple(spec.channel_names),
        samples_per_subject_per_level_per_task=spec.samples_per_cell,
        provenance=(f"synthetic delta={spec.delta} band={spec.band} "
                    f"seed={seed}"),
    )
    return manifest, samples


# ---------------------------------------------------------------------------
# splitting and normalization

def loso_splits(samples, task=None):
    """One (train indices, test indices) pair per subject, sorted by subject id.

    With a task filter, both sides keep only that task's samples.
    """
    if task is not None and isinstance(task, str):
        task = Task.from_name(task)
    pool = [i for i, s in enumerate(samples)
            if task is None or s.task == task]
    subjects = sorted({samples[i].subject_id for i in pool})
    if len(subjects) < 2:
        raise DataError(f"LOSO needs at least 2 subjects, found {len(subjects)}")
    folds = []
    for subj in subjects:
        test = [i for i in pool if samples[i].subject_id == subj]
        train = [i for i in pool if samples[i].subject_id != subj]
        folds.append((train, test))
    return folds


def channel_stats(samples, indices):
    """Per-channel mean and std over the given samples (zero std becomes 1)."""
    stack = np.stack([samples[i].signal for i in indices])      # [n, L, C]
    mean = stack.mean(axis=(0, 1))
    std = stack.std(axis=(0, 1))
    zero = std == 0.0
    if zero.any():
        warnings.warn(f"{int(zero.sum())} zero-variance channel(s); using divisor 1")
        std = np.where(zero, 1.0, std)
    return mean.astype(np.float64), std.astype(np.float64)


def normalize(X, mean, std):
    """Windows X [..., L, C] z-scored per channel with the given statistics, as float32."""
    return ((X - mean) / std).astype(np.float32)


def samples_to_arrays(samples, indices=None):
    """Stack samples into (X [n, L, C] float32, y [n] int64)."""
    if indices is None:
        indices = range(len(samples))
    X = np.stack([samples[i].signal for i in indices]).astype(np.float32)
    y = np.array([samples[i].label for i in indices], dtype=np.int64)
    return X, y
