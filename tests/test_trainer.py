"""Trainer: cosine schedule contracts, AdamW against a hand-rolled oracle,
bitwise determinism, exact resume, and the learning smoke tests."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from onebt.checkpoint import CheckpointError, load_arrays, save_arrays
from onebt.data import DataError
from onebt.model import init_parameters
from onebt.tensor import Parameter, ConfigError, NumericError
from onebt.train import (TrainConfig, AdamW, cosine_lr, train, evaluate_confusion, _clip_grads,
                        _data_sha256)
from conftest import killed_after, tiny_config


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
        p.grad = np.zeros(1)
        opt.step(lr)
    assert p.data[0] == pytest.approx(2.0 * (1 - lr * 0.05) ** 3, rel=1e-12)


def test_adamw_first_step_magnitude():
    p = _scalar_param(1.0)
    opt = AdamW([p], weight_decay=0.0)
    g = 0.5
    p.grad = np.array([g])
    opt.step(1e-3)
    assert p.data[0] == pytest.approx(1.0 - 1e-3 * g / (g + 1e-8), rel=1e-9)


def test_adamw_matches_scalar_oracle_ten_steps():
    rng = np.random.default_rng(4)
    grads = rng.standard_normal(10)
    for wd in (0.0, 0.05):
        p = _scalar_param(0.7)
        opt = AdamW([p], betas=(0.9, 0.999), eps=1e-8, weight_decay=wd)
        trail = [p.data[0]]
        for g in grads:
            p.grad = np.array([g])
            opt.step(3e-3)
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
        vec.grad = g
        opt.step(1e-2)
    for i in range(5):
        expect = _oracle_adamw(start[i], [g[i] for g in gs], 1e-2, 0.9, 0.999,
                               1e-8, 0.01)[-1]
        assert vec.data[i] == pytest.approx(expect, rel=1e-10)


def _textbook_adamw(w, m, v, g, lr, t, b1, b2, eps, wd):
    """One out-of-place AdamW step on arrays, in the order the optimizer keeps."""
    w = w * (1.0 - lr * wd)
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * (g * g)
    return w - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps), m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_updates_in_place_as_textbook_formula(dtype):
    """Weights and both moments are updated in their own arrays, and equal the
    out-of-place formula's bit for bit, step after step."""
    rng = np.random.default_rng(7)
    params = [Parameter(f"p{i}", rng.standard_normal(s).astype(dtype))
              for i, s in enumerate([(3, 4), (5,)])]
    want = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    opt = AdamW(params, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.05)
    arrays = [(p.data, opt.m[p.name], opt.v[p.name]) for p in params]
    for t in range(1, 6):
        lr = 1e-2 / t
        for p in params:
            p.grad = rng.standard_normal(p.shape).astype(dtype)
        opt.step(lr)
        want = [_textbook_adamw(*wmv, p.grad, lr, t, 0.9, 0.999, 1e-8, 0.05)
                for wmv, p in zip(want, params)]
        for p, (w, m, v), kept in zip(params, want, arrays):
            got = (p.data, opt.m[p.name], opt.v[p.name])
            assert all(a is b for a, b in zip(got, kept))
            for a, b in zip(got, (w, m, v)):
                np.testing.assert_array_equal(a, b)


def test_adamw_nan_grad_names_parameter():
    p = _scalar_param(1.0)
    opt = AdamW([p])
    p.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="'w'"):
        opt.step(1e-3)


def test_adamw_overflowing_update_names_parameter():
    """An update that overflows float32 raises where it happens, with no
    numpy warning first."""
    p = Parameter("w", np.ones(3, dtype=np.float32))
    opt = AdamW([p], weight_decay=0.05)
    p.grad = np.ones(3, dtype=np.float32)
    with pytest.raises(NumericError, match="non-finite weight 'w' in step 1"):
        opt.step(1e300)


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


def test_finite_but_huge_weights_raise_numeric_naming_the_step():
    """Weights that one update leaves finite but huge overflow in the next step's
    forward; that raises NumericError naming the epoch and step, with no numpy
    warning first, and an eval forward through them raises NumericError too."""
    X, y = _toy_data()
    model = init_parameters(tiny_config(), seed=5)
    with pytest.raises(NumericError, match=r"epoch 0, step 2: overflow"):
        train(model, X, y, quick_cfg(lr=1e30))
    assert all(np.isfinite(p.data).all() for p in model.parameters())
    with pytest.raises(NumericError, match="eval forward: overflow"):
        evaluate_confusion(model, X, y)


def test_train_deterministic_same_seed():
    X, y = _toy_data()
    weights = []
    for _ in range(2):
        model = init_parameters(tiny_config(attn_dropout=0.1, ff_dropout=0.1), seed=5)
        train(model, X, y, quick_cfg())
        weights.append({p.name: p.data.copy() for p in model.parameters()})
    for name in weights[0]:
        np.testing.assert_array_equal(weights[0][name], weights[1][name])


_FIT_WEIGHTS_SHA256 = """
import hashlib
from onebt.data import SynthSpec, generate_synthetic, loso_splits
from onebt.harness import fit
from onebt.model import ModelConfig
from onebt.train import TrainConfig
_, records = generate_synthetic(SynthSpec(n_subjects=3, samples_per_cell=2, seq_len=256), seed=7)
train_idx, _ = loso_splits(records)[0]
model = fit(records, train_idx, ModelConfig(seq_len=256), TrainConfig(epochs=2, batch_size=8))[0]
h = hashlib.sha256()
for p in model.parameters():
    h.update(p.name.encode() + p.data.dtype.str.encode() + p.data.tobytes())
print(h.hexdigest())
"""


def test_fold_weights_same_at_one_and_two_blas_threads():
    """One fold fitted at paper widths, whose GEMMs are large enough for OpenBLAS
    to split over threads, ends with the same weights (names, dtypes and bytes in
    registration order) at 1 and at 2 threads, each in its own process."""
    digests = [subprocess.run(
        [sys.executable, "-c", _FIT_WEIGHTS_SHA256], capture_output=True, text=True, check=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=str(n),
                 PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))).stdout
        for n in (1, 2)]
    assert len(digests[0]) == 65 and digests[0] == digests[1]


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
    assert log.summary["steps"] == steps


def test_schedule_sum_closed_form(monkeypatch):
    # the lr of every step, as AdamW.step receives it, is the endpoint-inclusive
    # cosine grid, whose sum telescopes to T*(base+min)/2; each epoch record
    # holds the lr of its first and last step
    used = []
    step = AdamW.step
    monkeypatch.setattr(AdamW, "step", lambda self, lr: (used.append(lr), step(self, lr)))
    X, y = _toy_data()
    cfg = quick_cfg(epochs=7, min_lr=2e-5)
    model = init_parameters(tiny_config(), seed=0)
    log = train(model, X, y, cfg)
    T = log.summary["steps"]
    assert used == [cosine_lr(s, T - 1, cfg.lr, cfg.min_lr) for s in range(T)]
    assert math.fsum(used) == pytest.approx(T * (cfg.lr + cfg.min_lr) / 2, abs=1e-9)
    per_epoch = T // cfg.epochs
    assert [(r["lr"], r["lr_end"]) for r in log.records] == \
        [(used[e * per_epoch], used[(e + 1) * per_epoch - 1]) for e in range(cfg.epochs)]


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


def _check_resume_onto_fresh_model(tmp_path, dtype):
    """Kill a run after epoch 3 of 6 and rerun it from the state file alone
    onto a model built from another seed: the state's weights replace the
    fresh ones, and the final weights and the log equal the uninterrupted
    run's bitwise."""
    X, y = _toy_data(n=20)
    X = X.astype(dtype)
    cfg = quick_cfg(epochs=6, aug_noise_sigma=0.05)
    mcfg = tiny_config(attn_dropout=0.1, ff_dropout=0.1)
    path = tmp_path / "state"

    straight = init_parameters(mcfg, seed=11, dtype=dtype)
    straight_log = train(straight, X, y, cfg)

    with killed_after(3):
        train(init_parameters(mcfg, seed=11, dtype=dtype), X, y, cfg, state_path=path)
    meta, arrays = load_arrays(path)
    assert meta["next_epoch"] == 3 and len(meta["records"]) == 3
    assert arrays["w.head.bias"].dtype == arrays["v.head.bias"].dtype == dtype

    resumed = init_parameters(mcfg, seed=123, dtype=dtype)
    log = train(resumed, X, y, cfg, state_path=path)
    assert log.records == straight_log.records
    assert log == straight_log
    assert log.summary["steps"] == 6 * math.ceil(20 / cfg.batch_size)
    assert load_arrays(path)[0]["next_epoch"] == 6
    for a, b in zip(straight.parameters(), resumed.parameters()):
        assert b.data.dtype == dtype
        np.testing.assert_array_equal(a.data, b.data)


def test_resume_reproduces_straight_run(tmp_path):
    _check_resume_onto_fresh_model(tmp_path, np.float32)


def test_resume_float64_reproduces_straight_run(tmp_path):
    """A float64 run resumes at full width: no float32 model file is involved."""
    _check_resume_onto_fresh_model(tmp_path, np.float64)


def test_state_path_written_every_epoch_and_finished_run_reruns_nothing(tmp_path):
    """A straight run with a state_path trains exactly as one without, and
    rerunning it over its finished state trains no step and returns its log."""
    X, y = _toy_data(n=20)
    cfg = quick_cfg(epochs=3)
    plain = init_parameters(tiny_config(), seed=0)
    plain_log = train(plain, X, y, cfg)
    saved = init_parameters(tiny_config(), seed=0)
    assert train(saved, X, y, cfg, state_path=tmp_path / "state") == plain_log
    for a, b in zip(plain.parameters(), saved.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    blob = (tmp_path / "state").read_bytes()
    rerun = init_parameters(tiny_config(), seed=5)
    assert train(rerun, X, y, cfg, state_path=tmp_path / "state") == plain_log
    for a, b in zip(plain.parameters(), rerun.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    assert (tmp_path / "state").read_bytes() == blob


@pytest.mark.parametrize("n,data_seed,overrides,model_overrides", [
    (8, 0, dict(batch_size=8, epochs=9, lr=5e-2), {}),  # every binding differs
    (8, 0, {}, {}),                                     # the data size alone
    (20, 0, dict(lr=5e-2), {}),                         # the config alone
    (20, 1, {}, {}),                                    # the windows alone, same n
    (20, 0, {}, dict(attn_dropout=0.1)),                # the model config alone
], ids=["all", "n", "lr", "same_n_other_X", "model"])
def test_resume_refuses_foreign_state(tmp_path, n, data_seed, overrides, model_overrides):
    """A train state resumes only the run that saved it: same TrainConfig,
    same ModelConfig (the model case keeps every parameter's shape) and the
    same training windows and labels. A refusal leaves the state file and
    the model untouched."""
    X, y = _toy_data(n=20)
    cfg = quick_cfg(epochs=4, batch_size=4, lr=1e-3)
    path = tmp_path / "state"
    with killed_after(2):
        train(init_parameters(tiny_config(), seed=0), X, y, cfg, state_path=path)
    blob = path.read_bytes()
    model = init_parameters(tiny_config(**model_overrides), seed=1)
    before = [p.data.copy() for p in model.parameters()]
    X2, y2 = _toy_data(n=n, seed=data_seed)
    with pytest.raises(CheckpointError, match="another run"):
        train(model, X2, y2, replace(cfg, **overrides), state_path=path)
    assert path.read_bytes() == blob
    for p, b in zip(model.parameters(), before):
        np.testing.assert_array_equal(p.data, b)


def test_data_hash_binds_layout_and_dtype():
    """The same bytes laid out as other windows, or read as another dtype,
    are other data."""
    X, y = _toy_data(n=20)
    h = _data_sha256(X, y)
    assert _data_sha256(X.reshape(20, 8, 6), y) != h
    assert _data_sha256(X, y.view(np.uint64)) != h


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


def _drop(name):
    def edit(meta, arrays):
        del arrays[name]
        return meta
    return edit


def _rng_overflow(meta, arrays):
    meta["rng"]["shuffle"]["state"]["counter"][0] = 2 ** 70
    return meta


def _array(name, change):
    def edit(meta, arrays):
        arrays[name] = change(arrays[name])
        return meta
    return edit


def _meta(key, value):
    return lambda meta, arrays: dict(meta, **{key: value})


CORRUPTIONS = {
    "half": lambda b, t: b[:len(b) // 2],
    "tail_cut": lambda b, t: b[:-5],
    "garbage": lambda b, t: np.random.default_rng(0).bytes(100),
    "empty": lambda b, t: b"",
    "header_flip": lambda b, t: _flip(b, 8),                  # the config length
    "data_flip": lambda b, t: _flip(b, len(b) // 2),
    "trailer_flip": lambda b, t: _flip(b, len(b) - 1),
    "no_meta": lambda b, t: _resaved(b, t, lambda meta, arrays: None),
    "no_moment": lambda b, t: _resaved(b, t, _drop("m.head.bias")),
    "meta_not_json": lambda b, t: _resealed(b[:12] + b"[" + b[13:]),
    "meta_not_dict": lambda b, t: _resaved(b, t, lambda meta, arrays: []),
    "rng_overflow": lambda b, t: _resaved(b, t, _rng_overflow),
    # checksum-valid states that do not fit the run they resume
    "moment_float64": lambda b, t: _resaved(b, t, _array("m.head.bias", lambda a: a.astype("f8"))),
    "moment_shape": lambda b, t: _resaved(b, t, _array("v.head.bias", lambda a: a[None])),
    "weight_float64": lambda b, t: _resaved(b, t, _array("w.head.bias", lambda a: a.astype("f8"))),
    "weight_shape": lambda b, t: _resaved(b, t, _array("w.head.bias", lambda a: a[None])),
    "weight_missing": lambda b, t: _resaved(b, t, _drop("w.head.bias")),
    "next_epoch_str": lambda b, t: _resaved(b, t, _meta("next_epoch", "1")),
    "next_epoch_past_end": lambda b, t: _resaved(b, t, _meta("next_epoch", 99)),
    "next_epoch_negative": lambda b, t: _resaved(b, t, _meta("next_epoch", -1)),
    "records_short": lambda b, t: _resaved(b, t, _meta("records", [])),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupt_train_state_rejected(tmp_path, kind):
    """Each corruption raises CheckpointError and leaves the model it was to
    resume onto, one of another seed, as it was."""
    X, y = _toy_data(n=8)
    cfg = quick_cfg(epochs=2)
    path = tmp_path / "state"
    with killed_after(1):
        train(init_parameters(tiny_config(), seed=0), X, y, cfg, state_path=path)
    path.write_bytes(CORRUPTIONS[kind](path.read_bytes(), tmp_path))
    model = init_parameters(tiny_config(), seed=1)
    before = {p.name: p.data.copy() for p in model.parameters()}
    with pytest.raises(CheckpointError, match="not a valid train state|optimizer|saved weight"):
        train(model, X, y, cfg, state_path=path)
    for p in model.parameters():
        np.testing.assert_array_equal(p.data, before[p.name])
        assert p.data.dtype == before[p.name].dtype


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


def test_grad_clip_scales_a_norm_past_float32_range():
    """Each entry is finite, but the squares of 100,000 entries of 1e17 sum past
    float32's range: the clipped gradient is scaled to max_norm, not zeroed."""
    p = Parameter("w", np.zeros(100_000, np.float32))
    p.grad = np.full(100_000, 1e17, np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _clip_grads([p], 2.0)
    assert p.grad.dtype == np.float32
    assert np.linalg.norm(p.grad.astype(np.float64)) == pytest.approx(2.0, rel=1e-6)


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


@pytest.mark.parametrize("field,value", [("epochs", 2.5), ("batch_size", 1.5)])
def test_train_config_rejects_wrong_field_type(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be int in train config"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("betas", [(False, 0.9), (0.9, True), [0, True]])
def test_train_config_rejects_bool_beta(betas):
    """A bool is no number here, as check_field_types rules for every field."""
    with pytest.raises(ConfigError, match="betas"):
        TrainConfig(betas=betas)


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
