"""AdamW training loop with a per-step cosine learning-rate schedule.

One run is single-threaded and fully deterministic in its seed: shuffling,
dropout and augmentation each draw from their own counter-based stream.
Weight decay is decoupled (applied to the weights directly, before the
bias-corrected Adam step). No early stopping; final-epoch weights are the
result. Gradient clipping and the two augmentations are off by default.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field, asdict
from typing import Annotated

import numpy as np

from .tensor import (NumericError, ConfigError, backward, check_field_types,
                     config_from_dict, cross_entropy_label_smoothed)
from .checkpoint import CheckpointError, check_like_params, load_arrays, save_arrays
from .data import DataError
from .metrics import confusion_matrix

__all__ = ["TrainConfig", "TrainLog", "AdamW", "cosine_lr", "train", "evaluate_confusion"]


@dataclass(frozen=True)
class TrainConfig:
    lr: Annotated[float, "(0, inf)"] = 1e-4
    weight_decay: Annotated[float, "[0, inf)"] = 0.05
    epochs: Annotated[int, "[1, inf)"] = 200
    batch_size: Annotated[int, "[1, inf)"] = 32
    label_smoothing: Annotated[float, "[0, 1)"] = 0.10
    betas: Annotated[tuple, "[0, 1)"] = (0.9, 0.999)
    eps: Annotated[float, "(0, inf)"] = 1e-8
    seed: Annotated[int, "[0, inf)"] = 0
    min_lr: Annotated[float, "[0, inf)"] = 0.0
    grad_clip: Annotated[float | None, "(0, inf)"] = None   # max global grad norm; None disables
    aug_noise_sigma: Annotated[float, "[0, inf)"] = 0.0     # gaussian noise, per-channel std units
    aug_cutout_frac: Annotated[float, "[0, 1)"] = 0.0       # zeroed fraction of the window

    def __post_init__(self):
        check_field_types(TrainConfig, vars(self), "train config")
        if len(self.betas) != 2:
            raise ConfigError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        # a list from a config file compares and hashes like the default tuple
        object.__setattr__(self, "betas", tuple(self.betas))

    def to_dict(self):
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d):
        return config_from_dict(cls, d, "train config")


@dataclass
class TrainLog:
    records: list = field(default_factory=list)   # one dict per epoch
    summary: dict = field(default_factory=dict)


def cosine_lr(step, total_steps, base_lr, min_lr=0.0):
    """Half-cosine from base_lr (step 0) down to min_lr (step = total_steps)."""
    if total_steps < 1:
        raise ConfigError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + math.cos(math.pi * step / total_steps))


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Decay is uniform over all parameters (norm gains and biases included).
    The learning rate is supplied per step by the caller, so any schedule
    lives outside the optimizer.
    """

    def __init__(self, params, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def step(self, lr):
        """One update from each parameter's accumulated .grad."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p in self.params:
            g = p.grad
            if g is None:
                raise NumericError(f"no gradient for parameter {p.name!r}")
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {p.name!r}")
            g = np.asarray(g, dtype=p.data.dtype)     # never promote the weights
            try:
                with np.errstate(over="raise", invalid="raise"):
                    if self.weight_decay:
                        p.data = p.data * (1.0 - lr * self.weight_decay)
                    m = self.m[p.name] = b1 * self.m[p.name] + (1 - b1) * g
                    v = self.v[p.name] = b2 * self.v[p.name] + (1 - b2) * (g * g)
                    p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            except FloatingPointError as e:
                raise NumericError(f"non-finite weight {p.name!r} in step {self.t}: {e}") from e


def _clip_grads(params, max_norm):
    total = math.fsum(float((p.grad ** 2).sum()) for p in params if p.grad is not None)
    norm = math.sqrt(total)
    if norm > max_norm:
        s = max_norm / (norm + 1e-12)
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * s


def _augment(xb, cfg, rng):
    xb = xb.copy()
    if cfg.aug_noise_sigma > 0:
        std = xb.std(axis=1, keepdims=True)         # per sample, per channel
        xb += rng.standard_normal(xb.shape).astype(xb.dtype) * (cfg.aug_noise_sigma * std)
    if cfg.aug_cutout_frac > 0:
        L = xb.shape[1]
        w = max(1, int(round(cfg.aug_cutout_frac * L)))
        for i in range(xb.shape[0]):
            start = int(rng.integers(0, L - w + 1))
            xb[i, start:start + w, :] = 0.0
    return xb


def _rng_streams(seed):
    ss = np.random.SeedSequence(seed)
    kids = ss.spawn(3)
    return tuple(np.random.Generator(np.random.Philox(k)) for k in kids)


def evaluate_confusion(model, X, y):
    """Confusion matrix (rows = true, cols = predicted) of eval-mode
    predictions over X, in batches of 64."""
    pred = np.concatenate([
        np.argmax(model.forward(X[i:i + 64], training=False).data, axis=-1)
        for i in range(0, len(X), 64)])
    return confusion_matrix(y, pred, model.cfg.num_classes)


def train(model, X, y, cfg, state_path=None):
    """Fit the model in place; returns a TrainLog.

    The schedule covers epochs * ceil(n / batch) steps, annealed so the very
    last step lands exactly on min_lr. With `state_path`, the run's state is
    written there atomically after every epoch, and a state already there is
    continued on the same trajectory, its weights written into the model. A
    state of another config or other data, a corrupt one, or one whose
    weights or moments do not fit the model raises CheckpointError and
    leaves the model as it was.
    """
    n = len(X)
    if n == 0:
        raise DataError("training split is empty")
    if len(y) != n:
        raise DataError(f"{n} windows but {len(y)} labels")

    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    denom = max(total_steps - 1, 1)      # final step hits min_lr exactly

    opt = AdamW(model.parameters(), cfg.betas, cfg.eps, cfg.weight_decay)
    shuffle_rng, dropout_rng, aug_rng = rngs = _rng_streams(cfg.seed)
    log = TrainLog()
    start_epoch = 0
    if state_path is not None:
        data_sha256 = _data_sha256(X, y)
        if os.path.exists(state_path):
            start_epoch = _restore_state(state_path, opt, rngs, log, cfg, model.cfg, data_sha256)
    step = opt.t = start_epoch * steps_per_epoch

    augmenting = cfg.aug_noise_sigma > 0 or cfg.aug_cutout_frac > 0
    for epoch in range(start_epoch, cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_hits = 0
        first_lr = cosine_lr(step, denom, cfg.lr, cfg.min_lr)
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            xb, yb = X[idx], y[idx]
            if augmenting:
                xb = _augment(xb, cfg, aug_rng)
            lr = cosine_lr(step, denom, cfg.lr, cfg.min_lr)
            logits = model.forward(xb, training=True, rng=dropout_rng)
            loss = cross_entropy_label_smoothed(logits, yb, cfg.label_smoothing)
            model.zero_grad()
            backward(loss)
            if cfg.grad_clip is not None:
                _clip_grads(model.parameters(), cfg.grad_clip)
            opt.step(lr)
            epoch_loss += float(loss.data) * len(idx)
            epoch_hits += int((np.argmax(logits.data, axis=-1) == yb).sum())
            step += 1

        log.records.append({"epoch": epoch, "lr": first_lr, "lr_end": lr,
                            "train_loss": epoch_loss / n, "train_acc": epoch_hits / n})
        # the last step's update meets no later gradient check
        broken = next((p.name for p in opt.params if not np.isfinite(p.data).all()), None)
        if broken is not None:
            raise NumericError(f"non-finite weight {broken!r} after epoch {epoch}")
        if state_path is not None:
            _save_state(state_path, opt, rngs, log, cfg, model.cfg, data_sha256)

    log.summary = {"epochs_run": len(log.records), "steps": step,
                   "final_train_loss": log.records[-1]["train_loss"],
                   "final_train_acc": log.records[-1]["train_acc"]}
    return log


# -- resumable state ---------------------------------------------------------

_RNG_NAMES = ("shuffle", "dropout", "augment")      # _rng_streams' order


def _data_sha256(X, y):
    h = hashlib.sha256()
    for a in (X, y):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def _rng_state_jsonable(gen):
    st = gen.bit_generator.state          # Philox: uint64 arrays, the rest plain
    return dict(st, state={k: v.tolist() for k, v in st["state"].items()},
                buffer=st["buffer"].tolist())


def _save_state(path, opt, rngs, log, cfg, model_cfg, data_sha256):
    """Weights + Adam moments + RNG positions, each at full width, and the
    epoch records so far, bound to the run's TrainConfig, ModelConfig and
    data. The step count is not stored: it is next_epoch epochs of the run's steps."""
    meta = {"next_epoch": len(log.records), "records": log.records,
            "config": cfg.to_dict(), "model": model_cfg.to_dict(), "data_sha256": data_sha256,
            "names": [p.name for p in opt.params],
            "rng": dict(zip(_RNG_NAMES, map(_rng_state_jsonable, rngs)))}
    save_arrays(path, meta, {f"{k}.{p.name}": a for p in opt.params
                             for k, a in zip("wmv", (p.data, opt.m[p.name], opt.v[p.name]))})


def _restore_state(path, opt, rngs, log, cfg, model_cfg, data_sha256):
    """Check the state at path against this run, and only then load it into
    the parameters, opt's moments, the RNG streams and log; returns the next epoch."""
    try:
        meta, arrays = load_arrays(path)
        w, m, v = ({name: arrays[f"{k}.{name}"] for name in meta["names"]} for k in "wmv")
        rng = [meta["rng"][k] for k in _RNG_NAMES]
        for state in rng:
            np.random.Philox().state = state        # rejects a malformed state
        next_epoch, records, saved = meta["next_epoch"], meta["records"], meta["config"]
        # the run's epochs: a state whose config is not the run's is refused below
        if type(next_epoch) is not int or not 0 <= next_epoch <= saved["epochs"]:
            raise ValueError(f"next_epoch must be an integer in [0, epochs], got {next_epoch!r}")
        if [r["epoch"] for r in records] != list(range(next_epoch)):
            raise ValueError(f"records are not those of epochs 0..{next_epoch - 1}")
        other_model = meta["model"] != model_cfg.to_dict()
        other_data = meta["data_sha256"] != data_sha256
    # container errors are ValueErrors; Philox also raises Index- or OverflowError
    except (LookupError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"{path} is not a valid train state: {e!r}") from e
    if saved != cfg.to_dict() or other_model or other_data:
        raise CheckpointError(
            f"train state {path} belongs to another run: saved with {saved}"
            f"{' under another model config' if other_model else ''}"
            f"{' on other data' if other_data else ''}, resuming with {cfg.to_dict()}")
    for what, arrays in (("saved weight", w), ("optimizer moment m", m), ("optimizer moment v", v)):
        check_like_params(opt.params, arrays, what)
    opt.m, opt.v = m, v
    for gen, state in zip(rngs, rng):
        gen.bit_generator.state = state
    for p in opt.params:
        p.data = w[p.name]
    log.records = records
    return next_epoch
