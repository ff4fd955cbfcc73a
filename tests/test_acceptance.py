"""Acceptance gate: eight release criteria, one test per criterion.

Each test is self-contained and asserts the criterion at its stated
tolerance, so the verbose pytest report gives one pass/fail line per
criterion. Criterion 7 checks the published results table against its own
row means; one row of that table is internally inconsistent beyond the
stated tolerance, so that test fails and is expected to fail until the
table itself is corrected (details in the assertion message).
"""

import json
import time

import numpy as np
import pytest

from onebt.checkpoint import save_model, load_model
from onebt.cli import main
from onebt.cost import TABLE_PRESETS, cost_report
from onebt.data import (SynthSpec, channel_stats,
                        generate_synthetic, loso_splits)
from onebt.harness import run_fold, run_loso
from onebt.model import ModelConfig, init_parameters, _position_features
from onebt.tensor import backward, cross_entropy_label_smoothed
from onebt.train import TrainConfig
from conftest import tiny_config, rel_err
from reference_tables import PUBLISHED, RATIO_PAIR


def _all_rows():
    for table in ("table1", "table2", "table3", "table4"):
        for label, cfg in TABLE_PRESETS[table]:
            yield table, label, cfg, PUBLISHED[(table, label)]


# ---------------------------------------------------------------------------
# shared synthetic fixtures (one generation, reused by criteria 5 and 6)

SYNTH = dict(n_subjects=11, samples_per_cell=12, seq_len=128,
             sample_rate_hz=128, amplitude_scale=3.0)
ACCEPT_MODEL = ModelConfig(num_latents=4, latent_dim=16, cross_heads=2,
                           self_heads=2, cross_head_dim=8, self_head_dim=8,
                           self_per_cross=1, num_freq_bands=12, max_freq=128.0,
                           input_channels=14, seq_len=128, ff_mult=2,
                           attn_dropout=0.0, ff_dropout=0.0)
ACCEPT_TRAIN = TrainConfig(lr=3e-3, weight_decay=0.05, epochs=5,
                           batch_size=32, label_smoothing=0.1, seed=0)


@pytest.fixture(scope="module")
def synth_signal():
    spec = SynthSpec(delta=1.0, **SYNTH)
    return generate_synthetic(spec, seed=0)


@pytest.fixture(scope="module")
def synth_null():
    spec = SynthSpec(delta=0.0, **SYNTH)
    return generate_synthetic(spec, seed=0)


# ---------------------------------------------------------------------------
# criterion 1: the published cost table is reproduced by the cost command

def test_criterion_1_cost_table_reproduction(tmp_path):
    t0 = time.perf_counter()
    rc = main(["cost", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    records = [json.loads(l) for l in
               (tmp_path / "cost.jsonl").read_text().strip().split("\n")]
    assert len(records) == 15
    by_key = {(r["table"], r["config"]): r for r in records}
    for table, label, cfg, row in _all_rows():
        got = by_key[(table, label)]["params_m"]
        want = row["params_m"]
        assert round(got, 2) == want, \
            f"{table}/{label}: params {got:.4f}M rounds to {round(got, 2)}, " \
            f"published {want}"
        assert abs(got - want) <= 0.03 * want, \
            f"{table}/{label}: params {got:.4f}M departs from {want}M by >3%"
    assert elapsed < 1.0, f"cost command took {elapsed:.2f}s, budget is 1s"


# ---------------------------------------------------------------------------
# criterion 2: compute scaling behaves like the published numbers

def test_criterion_2_flop_scaling():
    # halving the latent count at width 128 cuts compute by the printed ratio
    (ta, la), (tb, lb) = RATIO_PAIR
    cfg_a = dict(TABLE_PRESETS[ta])[la]
    cfg_b = dict(TABLE_PRESETS[tb])[lb]
    ratio = cost_report(cfg_a).flops / cost_report(cfg_b).flops
    assert 1.6 <= ratio <= 2.4, f"32 vs 16 latent FLOP ratio {ratio:.4f}"

    # every published GFLOPs figure is matched within 50%
    for table, label, cfg, row in _all_rows():
        got = cost_report(cfg).gflops
        assert abs(got - row["gflops"]) <= 0.5 * row["gflops"], \
            f"{table}/{label}: {got:.3f} GFLOPs vs published {row['gflops']}"

    # cost grows monotonically in every capacity knob
    base = ModelConfig()
    b = cost_report(base)
    grow_both = ("num_latents", "latent_dim", "cross_heads", "self_heads",
                 "cross_head_dim", "self_head_dim", "self_per_cross",
                 "ff_mult", "num_freq_bands")
    for knob in grow_both:
        big = cost_report(ModelConfig(**{**base.to_dict(),
                                         knob: getattr(base, knob) * 2}))
        assert big.params > b.params, f"params not increasing in {knob}"
        assert big.flops > b.flops, f"flops not increasing in {knob}"
    longer = cost_report(ModelConfig(**{**base.to_dict(),
                                        "seq_len": base.seq_len * 2}))
    assert longer.params == b.params, "params must not depend on window length"
    assert longer.flops > b.flops, "flops must grow with window length"


# ---------------------------------------------------------------------------
# criterion 3: analytic gradients agree with finite differences everywhere

def test_criterion_3_gradients_match_finite_differences(rng):
    t0 = time.perf_counter()
    cfg = tiny_config()
    model = init_parameters(cfg, seed=7, dtype=np.float64)
    X = rng.standard_normal((2, cfg.seq_len, cfg.input_channels))
    y = np.array([0, 1])

    def loss_value():
        logits = model.forward(X)
        return cross_entropy_label_smoothed(logits, y, 0.1).data.item()

    logits = model.forward(X)
    loss = cross_entropy_label_smoothed(logits, y, 0.1)
    backward(loss)

    h = 1e-5
    worst = (0.0, "")
    checked = 0
    for p in model.parameters():
        analytic = p.grad
        assert analytic is not None, f"no gradient reached {p.name}"
        for idx in np.ndindex(p.data.shape):
            keep = p.data[idx]
            p.data[idx] = keep + h
            up = loss_value()
            p.data[idx] = keep - h
            dn = loss_value()
            p.data[idx] = keep
            fd = (up - dn) / (2 * h)
            err = abs(analytic[idx] - fd) / max(1e-8, abs(fd), abs(analytic[idx]))
            if err > worst[0]:
                worst = (err, f"{p.name}{list(idx)}")
            checked += 1
    elapsed = time.perf_counter() - t0
    assert worst[0] < 1e-3, \
        f"worst relative error {worst[0]:.2e} at {worst[1]} over {checked} coords"
    assert elapsed < 60.0, f"gradient audit took {elapsed:.1f}s, budget is 60s"


# ---------------------------------------------------------------------------
# criterion 4: structural invariances and serialization hold

def test_criterion_4_structural_invariances(rng, tmp_path, monkeypatch):
    cfg = tiny_config()
    model = init_parameters(cfg, seed=3, dtype=np.float64)
    x = rng.standard_normal((cfg.seq_len, cfg.input_channels))
    base = model.forward(x).data

    # token order is irrelevant to the pooled readout: permute the window's rows
    # and their position features together
    pos = _position_features(cfg.seq_len, cfg.num_freq_bands, cfg.max_freq, np.float64)
    for _ in range(3):
        perm = rng.permutation(cfg.seq_len)
        with monkeypatch.context() as m:
            m.setattr("onebt.model._position_features", lambda *_: pos[perm])
            out = model.forward(x[perm]).data
        assert rel_err(base, out) < 1e-12, "token permutation changed the logits"
        # control: rows moved without their positions are other tokens
        assert rel_err(base, model.forward(x[perm]).data) > 1e-3, \
            "permuting the window alone left the logits unchanged"

    # latent order is irrelevant after mean aggregation
    perm_model = init_parameters(cfg, seed=3, dtype=np.float64)
    perm_model.param("latents").data = perm_model.param("latents").data[::-1].copy()
    out = perm_model.forward(x).data
    assert rel_err(base, out) < 1e-12, "latent permutation changed the logits"

    # inference is pure: repeated calls are bitwise identical
    np.testing.assert_array_equal(model.forward(x).data, base)

    # a batch equals its per-sample forwards
    Xb = rng.standard_normal((3, cfg.seq_len, cfg.input_channels))
    batched = model.forward(Xb).data
    for i in range(3):
        assert rel_err(batched[i], model.forward(Xb[i]).data) < 1e-12

    # checkpoints round-trip float32 weights bitwise
    m32 = init_parameters(cfg, seed=3)
    save_model(m32, tmp_path / "m.ckpt")
    again = load_model(tmp_path / "m.ckpt", expected_cfg=cfg)
    for a, b in zip(m32.parameters(), again.parameters()):
        np.testing.assert_array_equal(a.data, b.data)

    # the closed-form parameter count matches an explicit enumeration
    for table in ("table1", "table2", "table3", "table4"):
        for label, pcfg in TABLE_PRESETS[table]:
            enumerated = sum(p.data.size
                             for p in init_parameters(pcfg, seed=0).parameters())
            closed = cost_report(pcfg).params
            assert closed == enumerated, f"{table}/{label}: {closed} != {enumerated}"


# ---------------------------------------------------------------------------
# criterion 5: the pipeline separates what is separable, and only that

def test_criterion_5_synthetic_separability(synth_signal, synth_null):
    _, samples = synth_signal
    _, score = run_loso(samples, ACCEPT_MODEL, ACCEPT_TRAIN, task="IQ", jobs=4)
    assert score.accuracy_mean >= 0.90, \
        f"separable data scored {score.accuracy_mean:.3f}, needs >= 0.90"

    _, null_samples = synth_null
    correct = total = 0
    for task in ("IQ", "MATH", "GAME"):
        folds, _ = run_loso(null_samples, ACCEPT_MODEL, ACCEPT_TRAIN,
                            task=task, jobs=4)
        for f in folds:
            correct += int(np.trace(f.confusion))
            total += int(f.confusion.sum())
    pooled = correct / total
    half_width = 1.96 * np.sqrt(0.25 / total)
    assert abs(pooled - 0.5) <= half_width, \
        f"label-free data scored {pooled:.4f} over {total} predictions, " \
        f"outside the chance band 0.5 +/- {half_width:.4f}"


# ---------------------------------------------------------------------------
# criterion 6: leave-one-subject-out is a true partition with no leakage

def test_criterion_6_loso_partition_and_leakage(synth_signal):
    manifest, samples = synth_signal
    n = len(samples)
    assert n == 792

    splits = loso_splits(samples)
    assert len(splits) == manifest.n_subjects == 11
    seen = []
    for train, test in splits:
        assert not set(train) & set(test)
        assert len(train) + len(test) == n
        held = {samples[i].subject_id for i in test}
        assert len(held) == 1
        assert held.isdisjoint({samples[i].subject_id for i in train})
        seen.extend(test)
    assert sorted(seen) == list(range(n)), "test folds must partition the data"

    for train, test in loso_splits(samples, task="MATH"):
        assert len(test) == 24 and len(train) == 240

    # normalization statistics must come from the training fold alone
    train, test = splits[0]
    mutated = samples.copy()
    mutated.signal[test] *= 100.0
    m0, s0 = channel_stats(samples.signal[train])
    m1, s1 = channel_stats(mutated.signal[train])
    np.testing.assert_array_equal(m0, m1)
    np.testing.assert_array_equal(s0, s1)

    # and the trained model must be unaffected by any test-fold rescaling
    quick = TrainConfig(lr=3e-3, epochs=1, batch_size=32, seed=0)
    sub_train, sub_test = train[:32], list(test[:8])
    _, log_a = run_fold(samples, sub_train, sub_test, ACCEPT_MODEL, quick, 0)
    _, log_b = run_fold(mutated, sub_train, sub_test, ACCEPT_MODEL, quick, 0)
    assert log_a.records[-1]["train_loss"] == log_b.records[-1]["train_loss"], \
        "training saw the test fold"


# ---------------------------------------------------------------------------
# criterion 7: the published results table is internally consistent

def test_criterion_7_published_table_consistency():
    """Every printed cross-task mean must equal the mean of its nine cells
    to within half a least count (0.01). Known failure: table1/blocks=6
    prints 64.13 but its own cells average 64.1478, off by 0.0178. This test
    stays red until the published table is corrected; the discrepancy is in
    the source table, not in this implementation.
    """
    bad = []
    for (table, label), row in PUBLISHED.items():
        nine = [v for cells in row["cells"].values() for v in cells]
        recomputed = float(np.mean(nine))
        if abs(recomputed - row["mean"]) > 0.01:
            bad.append(f"{table}/{label}: printed {row['mean']}, "
                       f"cells average {recomputed:.4f}, "
                       f"diff {abs(recomputed - row['mean']):.4f}")
    assert not bad, "published means inconsistent with their own cells: " \
        + "; ".join(bad)


# ---------------------------------------------------------------------------
# criterion 8: the limits of reproduction are documented

def test_criterion_8_reproducibility_documented():
    from pathlib import Path
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lower = readme.lower()
    assert "what is and is not reproduced" in lower, \
        "README must carry the reproducibility section"
    assert "synthetic" in lower
    assert "original recordings" in lower or "original eeg" in lower, \
        "README must state that the original recordings are unavailable"
