"""AdamW training loop with a per-step cosine learning-rate schedule.

One run is single-threaded and fully deterministic in its seed: shuffling,
dropout and augmentation each draw from their own counter-based stream.
Weight decay is decoupled (applied to the weights directly, before the
bias-corrected Adam step). No early stopping; final-epoch weights are the
result. Gradient clipping and the two augmentations are off by default.
"""

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .tensor import (NumericError, ConfigError, backward, config_from_dict,
                     cross_entropy_label_smoothed)
from .data import DataError
from .metrics import confusion_matrix

__all__ = ["TrainConfig", "TrainLog", "AdamW", "cosine_lr", "train",
           "save_train_state", "load_train_state", "evaluate_confusion"]


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    label_smoothing: float = 0.10
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    seed: int = 0
    min_lr: float = 0.0
    grad_clip: float | None = None      # max global grad norm; None disables
    aug_noise_sigma: float = 0.0        # gaussian noise, relative to per-channel std
    aug_cutout_frac: float = 0.0        # zeroed fraction of the window

    def validate(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.aug_cutout_frac < 1.0:
            raise ConfigError(f"aug_cutout_frac must be in [0, 1), got {self.aug_cutout_frac}")
        if self.aug_noise_sigma < 0:
            raise ConfigError(f"aug_noise_sigma must be >= 0, got {self.aug_noise_sigma}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be > 0 or None, got {self.grad_clip}")
        if len(self.betas) != 2 or not all(isinstance(b, (int, float)) and 0.0 <= b < 1.0
                                           for b in self.betas):
            raise ConfigError(f"betas must be two numbers in [0, 1), got {self.betas!r}")
        return self

    def to_dict(self):
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d

    @classmethod
    def from_dict(cls, d):
        cfg = config_from_dict(cls, d, "train config")
        cfg.betas = tuple(cfg.betas)
        return cfg.validate()


@dataclass
class TrainLog:
    records: list = field(default_factory=list)   # one dict per epoch
    step_lrs: list = field(default_factory=list)  # lr actually used at every step
    summary: dict = field(default_factory=dict)

    def write_records(self, path):
        with open(path, "w") as f:
            for rec in self.records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


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

    def step(self, lr, grads=None):
        """One update. grads overrides the tensors' accumulated .grad if given."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p in self.params:
            g = grads[p.name] if grads is not None else p.grad
            if g is None:
                raise NumericError(f"no gradient for parameter {p.name!r}")
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter {p.name!r}")
            g = np.asarray(g, dtype=p.data.dtype)     # never promote the weights
            if self.weight_decay:
                p.data = p.data * (1.0 - lr * self.weight_decay)
            m = self.m[p.name] = b1 * self.m[p.name] + (1 - b1) * g
            v = self.v[p.name] = b2 * self.v[p.name] + (1 - b2) * (g * g)
            p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def state_dict(self):
        return {"t": self.t,
                "m": {k: v.copy() for k, v in self.m.items()},
                "v": {k: v.copy() for k, v in self.v.items()}}

    def load_state_dict(self, state):
        if set(state["m"]) != set(self.m):
            raise ConfigError("optimizer state does not match parameter names")
        self.t = state["t"]
        self.m = {k: np.array(v) for k, v in state["m"].items()}
        self.v = {k: np.array(v) for k, v in state["v"].items()}


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


def _batch_forward(model, X, batch_size):
    """Eval-mode logits over X in batches, as one [n, num_classes] array."""
    outs = []
    for i in range(0, len(X), batch_size):
        outs.append(model.forward(X[i:i + batch_size], training=False).data)
    return np.concatenate(outs, axis=0)


def evaluate_confusion(model, X, y, batch_size=64):
    """Confusion matrix (rows = true, cols = predicted)."""
    pred = np.argmax(_batch_forward(model, X, batch_size), axis=-1)
    return confusion_matrix(y, pred, model.cfg.num_classes)


def train(model, X, y, cfg, X_val=None, y_val=None,
          stop_after_epoch=None, state_path=None, resume=None):
    """Fit the model in place; returns a TrainLog.

    The schedule covers epochs * ceil(n / batch) steps, annealed so the very
    last step lands exactly on min_lr. `stop_after_epoch` ends the loop early
    (schedule unchanged) and `resume` (from load_train_state) continues a
    stopped run on the same trajectory.
    """
    cfg.validate()
    n = len(X)
    if n == 0:
        raise DataError("training split is empty")
    if len(y) != n:
        raise DataError(f"{n} windows but {len(y)} labels")

    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    denom = max(total_steps - 1, 1)      # final step hits min_lr exactly

    opt = AdamW(model.parameters(), cfg.betas, cfg.eps, cfg.weight_decay)
    shuffle_rng, dropout_rng, aug_rng = _rng_streams(cfg.seed)
    start_epoch = 0
    log = TrainLog()
    if resume is not None:
        opt.load_state_dict(resume["optimizer"])
        start_epoch = resume["next_epoch"]
        shuffle_rng.bit_generator.state = resume["rng"]["shuffle"]
        dropout_rng.bit_generator.state = resume["rng"]["dropout"]
        aug_rng.bit_generator.state = resume["rng"]["augment"]

    augmenting = cfg.aug_noise_sigma > 0 or cfg.aug_cutout_frac > 0
    step = start_epoch * steps_per_epoch
    epoch = start_epoch - 1
    for epoch in range(start_epoch, cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_hits = 0
        lr_first = lr_last = None
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
            log.step_lrs.append(lr)
            lr_last = lr
            if lr_first is None:
                lr_first = lr
            epoch_loss += float(loss.data) * len(idx)
            epoch_hits += int((np.argmax(logits.data, axis=-1) == yb).sum())
            step += 1

        rec = {"epoch": epoch, "lr": lr_first, "lr_end": lr_last,
               "train_loss": epoch_loss / n, "train_acc": epoch_hits / n}
        if X_val is not None:
            logits = _batch_forward(model, X_val, cfg.batch_size)
            val_pred = np.argmax(logits, axis=-1)
            rec["val_acc"] = float((val_pred == y_val).mean())
        log.records.append(rec)

        if stop_after_epoch is not None and epoch + 1 >= stop_after_epoch:
            break

    if state_path is not None:
        save_train_state(state_path, opt, epoch + 1,
                         shuffle_rng, dropout_rng, aug_rng)
    log.summary = {"epochs_run": len(log.records), "steps": step}
    if log.records:
        log.summary["final_train_loss"] = log.records[-1]["train_loss"]
        log.summary["final_train_acc"] = log.records[-1]["train_acc"]
        if X_val is not None:
            log.summary["final_val_acc"] = log.records[-1]["val_acc"]
    return log


# -- resumable state ---------------------------------------------------------

def _rng_state_jsonable(gen):
    st = gen.bit_generator.state
    return {"counter": st["state"]["counter"].tolist(),
            "key": st["state"]["key"].tolist(),
            "buffer": st["buffer"].tolist(),
            "buffer_pos": st["buffer_pos"],
            "has_uint32": st["has_uint32"], "uinteger": st["uinteger"]}


def _rng_state_restore(d):
    return {"bit_generator": "Philox",
            "state": {"counter": np.array(d["counter"], dtype=np.uint64),
                      "key": np.array(d["key"], dtype=np.uint64)},
            "buffer": np.array(d["buffer"], dtype=np.uint64),
            "buffer_pos": d["buffer_pos"],
            "has_uint32": d["has_uint32"], "uinteger": d["uinteger"]}


def save_train_state(path, opt, next_epoch, shuffle_rng, dropout_rng, aug_rng):
    """Optimizer moments + step counter + RNG positions, for exact resume."""
    meta = {"t": opt.t, "next_epoch": next_epoch,
            "names": [p.name for p in opt.params],
            "rng": {"shuffle": _rng_state_jsonable(shuffle_rng),
                    "dropout": _rng_state_jsonable(dropout_rng),
                    "augment": _rng_state_jsonable(aug_rng)}}
    arrays = {}
    for p in opt.params:
        arrays["m." + p.name] = opt.m[p.name]
        arrays["v." + p.name] = opt.v[p.name]
    np.savez(path, __meta__=json.dumps(meta), **arrays)


def load_train_state(path):
    """Inverse of save_train_state; feed the result to train(resume=...)."""
    with np.load(path if str(path).endswith(".npz") else str(path) + ".npz") as z:
        meta = json.loads(str(z["__meta__"]))
        m = {name: z["m." + name] for name in meta["names"]}
        v = {name: z["v." + name] for name in meta["names"]}
    return {"optimizer": {"t": meta["t"], "m": m, "v": v},
            "next_epoch": meta["next_epoch"],
            "rng": {k: _rng_state_restore(s) for k, s in meta["rng"].items()}}
