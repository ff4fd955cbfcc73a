"""Trainer: cosine schedule contracts, AdamW against a hand-rolled oracle,
bitwise determinism, exact resume, and the learning smoke tests."""

import hashlib
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from onebt.checkpoint import CheckpointError, save_model, load_model, load_arrays, save_arrays
from onebt.data import DataError
from onebt.model import init_parameters
from onebt.tensor import Parameter, ConfigError, NumericError
from onebt.train import (TrainConfig, AdamW, cosine_lr, train,
                         save_train_state, load_train_state)
from conftest import tiny_config


# ---------------------------------------------------------------------------
# cosine schedule

def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 1e-4) == pytest.approx(1e-4)
    assert cosine_lr(100, 100, 1e-4) == pytest.approx(0.0, abs=1e-20)
    assert cosine_lr(50, 100, 1e-4, 2e-5) == pytest.approx((1e-4 + 2e-5) / 2)
    assert cosine_lr(100, 100, 1e-4, 2e-5) == pytest.approx(2e-5)


def test_cosine_monotone_decreasing():
    vals = [cosine_lr(s, 40, 1.0, 0.1) for s in range(41)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cosine_step_range_enforced():
    with pytest.raises(ConfigError):
        cosine_lr(-1, 10, 1e-4)
    with pytest.raises(ConfigError):
        cosine_lr(11, 10, 1e-4)
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 1e-4)


# ---------------------------------------------------------------------------
# AdamW oracle checks

def _oracle_adamw(w, grads, lr, b1, b2, eps, wd):
    """Plain-python AdamW, one scalar parameter, independent of the package."""
    m = v = 0.0
    out = [w]
    for t, g in enumerate(grads, start=1):
        w = w * (1 - lr * wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w = w - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(w)
    return out


def _scalar_param(value):
    return Parameter("w", np.array([value], dtype=np.float64))


def test_adamw_zero_grad_pure_decay():
    p = _scalar_param(2.0)
    opt = AdamW([p], weight_decay=0.05)
    lr = 1e-2
    for t in range(3):
        opt.step(lr, grads={"w": np.zeros(1)})
    assert p.data[0] == pytest.approx(2.0 * (1 - lr * 0.05) ** 3, rel=1e-12)


def test_adamw_first_step_magnitude():
    p = _scalar_param(1.0)
    opt = AdamW([p], weight_decay=0.0)
    g = 0.5
    opt.step(1e-3, grads={"w": np.array([g])})
    assert p.data[0] == pytest.approx(1.0 - 1e-3 * g / (g + 1e-8), rel=1e-9)


def test_adamw_matches_scalar_oracle_ten_steps():
    rng = np.random.default_rng(4)
    grads = rng.standard_normal(10)
    for wd in (0.0, 0.05):
        p = _scalar_param(0.7)
        opt = AdamW([p], betas=(0.9, 0.999), eps=1e-8, weight_decay=wd)
        trail = [p.data[0]]
        for g in grads:
            opt.step(3e-3, grads={"w": np.array([g])})
            trail.append(p.data[0])
        expect = _oracle_adamw(0.7, grads, 3e-3, 0.9, 0.999, 1e-8, wd)
        np.testing.assert_allclose(trail, expect, atol=1e-10)


def test_adamw_vector_matches_elementwise_scalar():
    """The update is elementwise, so a vector step must agree with running
    the scalar oracle independently per coordinate."""
    rng = np.random.default_rng(1)
    start = rng.standard_normal(5)
    vec = Parameter("v", start.copy())
    opt = AdamW([vec], weight_decay=0.01)
    gs = [rng.standard_normal(5) for _ in range(4)]
    for g in gs:
        opt.step(1e-2, grads={"v": g})
    for i in range(5):
        expect = _oracle_adamw(start[i], [g[i] for g in gs], 1e-2, 0.9, 0.999,
                               1e-8, 0.01)[-1]
        assert vec.data[i] == pytest.approx(expect, rel=1e-10)


def test_adamw_nan_grad_names_parameter():
    p = _scalar_param(1.0)
    opt = AdamW([p])
    with pytest.raises(NumericError, match="'w'"):
        opt.step(1e-3, grads={"w": np.array([np.nan])})


def test_adamw_state_round_trip():
    rng = np.random.default_rng(0)
    p = Parameter("p", rng.standard_normal(4))
    opt = AdamW([p], weight_decay=0.05)
    for _ in range(3):
        opt.step(1e-3, grads={"p": rng.standard_normal(4)})
    state = opt.state_dict()
    # continue two optimizers in lockstep, one restored from state
    q = Parameter("p", p.data.copy())
    opt2 = AdamW([q], weight_decay=0.05)
    opt2.load_state_dict(state)
    for _ in range(3):
        g = rng.standard_normal(4)
        opt.step(1e-3, grads={"p": g})
        opt2.step(1e-3, grads={"p": g})
    np.testing.assert_array_equal(p.data, q.data)


# ---------------------------------------------------------------------------
# training loop

def _toy_data(n=24, seed=0, sep=2.0):
    """Linearly inseparable in channels but separable through the band trick:
    class 1 gets an extra sinusoid, mirroring the synthetic generator."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 16, 3)).astype(np.float32)
    y = np.arange(n) % 2
    t = np.arange(16) / 16
    X[y == 1, :, 0] += (sep * np.sin(2 * np.pi * 3 * t)).astype(np.float32)
    return X, y.astype(np.int64)


def quick_cfg(**kw):
    base = dict(lr=3e-3, weight_decay=0.05, epochs=6, batch_size=8,
                label_smoothing=0.1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_train_deterministic_same_seed():
    X, y = _toy_data()
    weights = []
    for _ in range(2):
        model = init_parameters(tiny_config(attn_dropout=0.1, ff_dropout=0.1), seed=5)
        train(model, X, y, quick_cfg())
        weights.append({p.name: p.data.copy() for p in model.parameters()})
    for name in weights[0]:
        np.testing.assert_array_equal(weights[0][name], weights[1][name])


def test_train_seed_changes_trajectory():
    X, y = _toy_data()
    finals = []
    for seed in (0, 1):
        model = init_parameters(tiny_config(attn_dropout=0.1), seed=5)
        train(model, X, y, quick_cfg(seed=seed))
        finals.append(model.param("head.weight").data.copy())
    assert not np.array_equal(finals[0], finals[1])


def test_train_log_shape_and_lr_endpoints():
    X, y = _toy_data()
    cfg = quick_cfg(epochs=5, min_lr=1e-5)
    model = init_parameters(tiny_config(), seed=0)
    log = train(model, X, y, cfg)
    assert len(log.records) == 5
    assert [r["epoch"] for r in log.records] == list(range(5))
    assert log.records[0]["lr"] == pytest.approx(cfg.lr)          # cos(0)
    assert log.records[-1]["lr_end"] == pytest.approx(cfg.min_lr)  # cos(pi)
    steps = cfg.epochs * math.ceil(len(X) / cfg.batch_size)
    assert len(log.step_lrs) == steps
    assert log.summary["steps"] == steps


def test_schedule_sum_closed_form():
    # sum over the endpoint-inclusive cosine grid telescopes to T*(base+min)/2
    X, y = _toy_data()
    cfg = quick_cfg(epochs=7, min_lr=2e-5)
    model = init_parameters(tiny_config(), seed=0)
    log = train(model, X, y, cfg)
    T = len(log.step_lrs)
    assert math.fsum(log.step_lrs) == pytest.approx(T * (cfg.lr + cfg.min_lr) / 2,
                                                    abs=1e-9)


def test_loss_decreases_first_steps_across_seeds():
    """Single fixed batch, 5 steps at the production lr: the loss should fall
    monotonically for at least 4 of 5 seeds."""
    wins = 0
    for seed in range(5):
        X, y = _toy_data(n=8, seed=100 + seed)
        model = init_parameters(tiny_config(), seed=seed)
        cfg = quick_cfg(lr=1e-4, epochs=5, batch_size=8, seed=seed)
        log = train(model, X, y, cfg)
        losses = [r["train_loss"] for r in log.records]
        if all(a > b for a, b in zip(losses, losses[1:])):
            wins += 1
    assert wins >= 4


def test_learns_separable_data():
    X, y = _toy_data(n=32, sep=3.0)
    model = init_parameters(tiny_config(), seed=2)
    log = train(model, X, y, quick_cfg(epochs=50, lr=3e-3))
    assert log.summary["final_train_acc"] >= 0.95


def test_empty_split_rejected():
    model = init_parameters(tiny_config(), seed=0)
    with pytest.raises(DataError, match="empty"):
        train(model, np.zeros((0, 16, 3), dtype=np.float32),
              np.zeros(0, dtype=np.int64), quick_cfg())


def test_resume_reproduces_straight_run(tmp_path):
    """Stop at epoch 3 of 6, snapshot everything, resume: final weights must
    equal the uninterrupted run bitwise."""
    X, y = _toy_data(n=20)
    cfg = quick_cfg(epochs=6, aug_noise_sigma=0.05)
    mcfg = tiny_config(attn_dropout=0.1, ff_dropout=0.1)

    straight = init_parameters(mcfg, seed=11)
    train(straight, X, y, cfg)

    stopped = init_parameters(mcfg, seed=11)
    train(stopped, X, y, cfg, stop_after_epoch=3, state_path=tmp_path / "state")
    save_model(stopped, tmp_path / "m.ckpt")

    resumed = load_model(tmp_path / "m.ckpt")
    state = load_train_state(tmp_path / "state")
    log = train(resumed, X, y, cfg, resume=state)
    assert [r["epoch"] for r in log.records] == [3, 4, 5]
    for a, b in zip(straight.parameters(), resumed.parameters()):
        np.testing.assert_array_equal(a.data, b.data)


@pytest.mark.parametrize("n,overrides", [
    (8, dict(batch_size=8, epochs=9, lr=5e-2)),     # every binding differs
    (8, {}),                                        # the data size alone
    (20, dict(lr=5e-2)),                            # the config alone
], ids=["all", "n", "lr"])
def test_resume_refuses_foreign_state(tmp_path, n, overrides):
    """A train state resumes only the run that saved it: same TrainConfig
    and the same number of training windows."""
    X, y = _toy_data(n=20)
    cfg = quick_cfg(epochs=4, batch_size=4, lr=1e-3)
    model = init_parameters(tiny_config(), seed=0)
    train(model, X, y, cfg, stop_after_epoch=2, state_path=tmp_path / "state")
    state = load_train_state(tmp_path / "state")
    X2, y2 = _toy_data(n=n)
    with pytest.raises(CheckpointError, match="another run"):
        train(model, X2, y2, replace(cfg, **overrides), resume=state)


def test_resume_refuses_other_weights(tmp_path):
    """A train state resumes only onto the weights it was saved with."""
    X, y = _toy_data(n=20)
    cfg = quick_cfg(epochs=4, batch_size=4, lr=1e-3)
    model = init_parameters(tiny_config(), seed=0)
    train(model, X, y, cfg, stop_after_epoch=2, state_path=tmp_path / "state")
    state = load_train_state(tmp_path / "state")
    with pytest.raises(CheckpointError, match="other weights"):
        train(init_parameters(tiny_config(), seed=123), X, y, cfg, resume=state)


def test_resume_float64_reproduces_straight_run(tmp_path):
    """The state file keeps float64 moments at full width, so a float64 run
    stopped and resumed on its own weights ends bitwise where a straight one
    does."""
    X, y = _toy_data(n=20)
    X = X.astype(np.float64)
    cfg = quick_cfg(epochs=6, aug_noise_sigma=0.05)
    mcfg = tiny_config(attn_dropout=0.1, ff_dropout=0.1)

    straight = init_parameters(mcfg, seed=11, dtype=np.float64)
    train(straight, X, y, cfg)

    resumed = init_parameters(mcfg, seed=11, dtype=np.float64)
    train(resumed, X, y, cfg, stop_after_epoch=3, state_path=tmp_path / "state")
    state = load_train_state(tmp_path / "state")
    assert state["optimizer"]["v"]["head.bias"].dtype == np.float64
    log = train(resumed, X, y, cfg, resume=state)
    assert [r["epoch"] for r in log.records] == [3, 4, 5]
    for a, b in zip(straight.parameters(), resumed.parameters()):
        assert b.data.dtype == np.float64
        np.testing.assert_array_equal(a.data, b.data)


def _resaved(blob, tmp_path, edit):
    """The state in blob with (meta, arrays) edited by edit, which returns
    the new meta, saved again under a valid checksum."""
    src = tmp_path / "src"
    src.write_bytes(blob)
    meta, arrays = load_arrays(src)
    save_arrays(tmp_path / "edited", edit(meta, arrays), arrays)
    return (tmp_path / "edited").read_bytes()


def _resealed(blob):
    """blob with its sha256 trailer recomputed over the edited body."""
    return blob[:-32] + hashlib.sha256(blob[:-32]).digest()


def _flip(blob, i):
    b = bytearray(blob)
    b[i] ^= 0x01
    return bytes(b)


def _drop_moment(meta, arrays):
    del arrays["m.head.bias"]
    return meta


def _rng_overflow(meta, arrays):
    meta["rng"]["shuffle"]["state"]["counter"][0] = 2 ** 70
    return meta


CORRUPTIONS = {
    "half": lambda b, t: b[:len(b) // 2],
    "tail_cut": lambda b, t: b[:-5],
    "garbage": lambda b, t: np.random.default_rng(0).bytes(100),
    "empty": lambda b, t: b"",
    "header_flip": lambda b, t: _flip(b, 8),                  # the config length
    "data_flip": lambda b, t: _flip(b, len(b) // 2),
    "trailer_flip": lambda b, t: _flip(b, len(b) - 1),
    "no_meta": lambda b, t: _resaved(b, t, lambda meta, arrays: None),
    "no_moment": lambda b, t: _resaved(b, t, _drop_moment),
    "meta_not_json": lambda b, t: _resealed(b[:12] + b"[" + b[13:]),
    "meta_not_dict": lambda b, t: _resaved(b, t, lambda meta, arrays: []),
    "rng_overflow": lambda b, t: _resaved(b, t, _rng_overflow),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupt_train_state_rejected(tmp_path, kind):
    X, y = _toy_data(n=8)
    train(init_parameters(tiny_config(), seed=0), X, y, quick_cfg(epochs=2),
          stop_after_epoch=1, state_path=tmp_path / "state")
    path = tmp_path / "state"
    path.write_bytes(CORRUPTIONS[kind](path.read_bytes(), tmp_path))
    with pytest.raises(CheckpointError, match="not a valid train state"):
        load_train_state(path)


def test_missing_train_state_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_train_state(tmp_path / "absent")


def test_grad_clip_off_is_identity_and_on_caps_norm():
    X, y = _toy_data()
    mcfg = tiny_config()
    a = init_parameters(mcfg, seed=3)
    train(a, X, y, quick_cfg(epochs=2))
    b = init_parameters(mcfg, seed=3)
    train(b, X, y, quick_cfg(epochs=2, grad_clip=1e9))  # never binds
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    c = init_parameters(mcfg, seed=3)
    train(c, X, y, quick_cfg(epochs=2, grad_clip=1e-6))  # always binds
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_augmentations_off_by_default_and_change_training():
    X, y = _toy_data()
    assert TrainConfig().aug_noise_sigma == 0.0
    assert TrainConfig().aug_cutout_frac == 0.0
    plain = init_parameters(tiny_config(), seed=1)
    train(plain, X, y, quick_cfg(epochs=2))
    noisy = init_parameters(tiny_config(), seed=1)
    train(noisy, X, y, quick_cfg(epochs=2, aug_noise_sigma=0.2))
    cut = init_parameters(tiny_config(), seed=1)
    train(cut, X, y, quick_cfg(epochs=2, aug_cutout_frac=0.25))
    assert not np.array_equal(plain.param("head.weight").data,
                              noisy.param("head.weight").data)
    assert not np.array_equal(plain.param("head.weight").data,
                              cut.param("head.weight").data)


def test_train_config_validation_and_round_trip():
    with pytest.raises(ConfigError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(label_smoothing=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    for clip in (0, -1.0):      # a negative cap would turn clipped steps into ascent
        with pytest.raises(ConfigError, match="grad_clip"):
            TrainConfig(grad_clip=clip)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"learning_rate": 1e-4})
    cfg = TrainConfig(lr=2e-4, betas=(0.8, 0.95))
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    assert TrainConfig().to_dict()["betas"] == [0.9, 0.999]


def test_train_config_is_frozen_and_replace_rechecks():
    cfg = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.epochs = 5
    with pytest.raises(ConfigError, match="epochs"):
        replace(cfg, epochs=0)
    for seed in (-1, 1.5, "3"):
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=seed)
    # betas read from a file (a list) give an equal config with the same hash
    loaded = TrainConfig.from_dict(dict(cfg.to_dict(), seed=7))
    assert loaded.betas == (0.9, 0.999)
    assert loaded == replace(cfg, seed=7) and hash(loaded) == hash(replace(cfg, seed=7))


@pytest.mark.parametrize("field,value", [
    ("lr", math.nan), ("lr", math.inf), ("weight_decay", math.nan),
    ("weight_decay", -1.0), ("eps", math.nan), ("eps", 0.0), ("eps", -1.0),
    ("min_lr", math.nan), ("aug_noise_sigma", math.nan),
])
def test_train_config_rejects_nonfinite_and_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})


def test_paper_defaults():
    cfg = TrainConfig()
    assert (cfg.lr, cfg.weight_decay, cfg.epochs, cfg.batch_size,
            cfg.label_smoothing, cfg.betas, cfg.eps, cfg.min_lr) == \
        (1e-4, 0.05, 200, 32, 0.10, (0.9, 0.999), 1e-8, 0.0)
