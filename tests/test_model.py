"""Tokenizer values, architectural invariances, and init determinism."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from onebt.model import (ModelConfig, Attention, LatentCrossAttention,
                         frequency_bands, position_grid, fourier_encode,
                         tokenize, init_parameters)
from onebt.tensor import Tensor, ShapeError, ConfigError, backward, mean_axis, reshape
from conftest import tiny_config, rel_err, fd_grad
from test_tensor_ops import grad_of, TOL


# ---------------------------------------------------------------------------
# encoding

def test_frequency_bands_endpoints():
    np.testing.assert_allclose(frequency_bands(1, 10.0), [1.0])
    np.testing.assert_allclose(frequency_bands(4, 128.0), [1.0, 22.0, 43.0, 64.0])
    bands = frequency_bands(12, 128.0)
    assert bands[0] == 1.0 and bands[-1] == 64.0 and len(bands) == 12
    # linear spacing
    np.testing.assert_allclose(np.diff(bands), np.diff(bands)[0])
    with pytest.raises(ConfigError):
        frequency_bands(0, 128.0)
    with pytest.raises(ConfigError):
        frequency_bands(4, 1.0)


def test_position_grid_inclusive_endpoints():
    g = position_grid(1280)
    assert g[0] == -1.0 and g[-1] == 1.0 and len(g) == 1280
    np.testing.assert_allclose(np.diff(g), 2.0 / 1279)


def test_fourier_encode_hand_values():
    # p=0: all sines 0, all cosines 1, trailing raw position 0
    vec = fourier_encode(0.0, np.array([1.0, 5.0, 9.0]))
    np.testing.assert_allclose(vec, [0, 1, 0, 1, 0, 1, 0], atol=1e-15)
    # bands [1,2] at p=0.5: [sin(pi/2), cos(pi/2), sin(pi), cos(pi), 0.5]
    vec = fourier_encode(0.5, np.array([1.0, 2.0]))
    np.testing.assert_allclose(vec, [1.0, 0.0, 0.0, -1.0, 0.5], atol=1e-12)


def test_fourier_encode_layout_interleaved():
    bands = np.array([1.0, 3.0, 7.0])
    p = 0.3
    vec = fourier_encode(p, bands)
    assert vec.shape == (7,)
    np.testing.assert_allclose(vec[0::2][:3], np.sin(np.pi * bands * p))
    np.testing.assert_allclose(vec[1::2], np.cos(np.pi * bands * p))
    assert vec[-1] == p


def test_tokenize_shape_and_content(rng):
    cfg = tiny_config()
    x = rng.standard_normal((cfg.seq_len, cfg.input_channels))
    toks = tokenize(x, cfg)
    assert toks.shape == (cfg.seq_len, cfg.token_width)
    assert cfg.token_width == cfg.input_channels + 2 * cfg.num_freq_bands + 1
    # raw channels pass through untouched (up to float32 cast)
    np.testing.assert_allclose(toks.data[:, :cfg.input_channels],
                               x.astype(np.float32), atol=0)
    # trailing feature is the position grid
    np.testing.assert_allclose(toks.data[:, -1], position_grid(cfg.seq_len),
                               atol=1e-7)


def test_tokenize_batched_matches_single(rng):
    cfg = tiny_config()
    xb = rng.standard_normal((3, cfg.seq_len, cfg.input_channels))
    batch = tokenize(xb, cfg)
    assert batch.shape == (3, cfg.seq_len, cfg.token_width)
    for i in range(3):
        np.testing.assert_array_equal(batch.data[i], tokenize(xb[i], cfg).data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tokenize_matches_concatenate_formula(rng, dtype):
    """The preallocated fill is bit-identical to concatenating the raw
    channels with the float64 position features, then casting."""
    cfg = tiny_config()
    x = rng.standard_normal((3, cfg.seq_len, cfg.input_channels)).astype(dtype)
    pos = fourier_encode(position_grid(cfg.seq_len),
                         frequency_bands(cfg.num_freq_bands, cfg.max_freq))
    expect = np.concatenate([x, np.broadcast_to(pos, x.shape[:-1] + pos.shape[-1:])],
                            axis=-1).astype(dtype)
    for window, want in ((x, expect), (x[0], expect[0])):
        got = tokenize(window, cfg).data
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_tokenize_output_is_private(rng):
    """Position features are cached; writing into one call's tokens must not
    leak into the next call's."""
    cfg = tiny_config()
    x = rng.standard_normal((cfg.seq_len, cfg.input_channels))
    first = tokenize(x, cfg)
    expect = first.data.copy()
    first.data[:] = 7.0
    np.testing.assert_array_equal(tokenize(x, cfg).data, expect)


def test_tokenize_default_width():
    # the 14-channel default with 12 bands gives 39-wide tokens
    assert ModelConfig().token_width == 39
    # wider encodings are just config knobs
    assert ModelConfig(num_freq_bands=32).token_width == 14 + 65


def test_tokenize_rejects_wrong_geometry(rng):
    cfg = tiny_config()
    with pytest.raises(ShapeError):
        tokenize(rng.standard_normal((cfg.seq_len + 1, cfg.input_channels)), cfg)
    with pytest.raises(ShapeError):
        tokenize(rng.standard_normal((cfg.seq_len,)), cfg)


# ---------------------------------------------------------------------------
# latent-side cross-attention

def _cross_attn(heads, seed=3):
    model = init_parameters(tiny_config(cross_heads=heads), seed=seed, dtype=np.float64)
    assert isinstance(model.cross.attn, LatentCrossAttention)
    return model, model.cross.attn


def _attn_inputs(rng, model, batched):
    cfg = model.cfg
    q_shape = (3, cfg.num_latents, cfg.latent_dim) if batched else (cfg.num_latents, cfg.latent_dim)
    return rng.standard_normal(q_shape), rng.standard_normal((3, cfg.seq_len, cfg.token_width))


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("training", [False, True])
def test_latent_cross_attention_matches_attention(rng, heads, batched, training):
    """Same module, two evaluation orders: outputs and every gradient agree."""
    model, att = _cross_attn(heads)
    q, kv = _attn_inputs(rng, model, batched)
    results = []
    for call in (LatentCrossAttention.__call__, Attention.__call__):
        model.zero_grad()
        qt, kvt = Tensor(q.copy(), requires_grad=True), Tensor(kv.copy(), requires_grad=True)
        out = call(att, qt, kvt, 0.3, training, np.random.default_rng(11))
        backward(mean_axis(reshape(out, (out.data.size, 1)), 0))
        grads = {p.name: p.grad for p in model.parameters() if p.name.startswith("cross.attn.")}
        results.append((out.data, qt.grad, kvt.grad, grads))
    (out_a, gq_a, gkv_a, gp_a), (out_b, gq_b, gkv_b, gp_b) = results
    assert set(gp_a) == set(gp_b) and len(gp_a) == 5     # q, k, v, out weight, out bias
    for a, b in [(out_a, out_b), (gq_a, gq_b), (gkv_a, gkv_b)] + \
            [(gp_a[k], gp_b[k]) for k in gp_a]:
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2])
def test_grad_latent_cross_attention(rng, heads):
    """FD oracle for the reassociated products, wrt both inputs and all four
    projection weights."""
    model, att = _cross_attn(heads)
    q, kv = _attn_inputs(rng, model, batched=True)
    lins = (att.q, att.k, att.v, att.out)

    def op(q_in, kv_in, *weights):
        for lin, w in zip(lins, weights):
            lin.weight = w
        return att(q_in, kv_in)

    args = (q, kv) + tuple(lin.weight.data.copy() for lin in lins)
    for wrt in range(len(args)):
        g, fd = grad_of(op, args, wrt)
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


# ---------------------------------------------------------------------------
# config validation

def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(num_latents=0)
    with pytest.raises(ConfigError):
        ModelConfig(attn_dropout=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(self_per_cross=-1)
    with pytest.raises(ConfigError, match="num_classes"):     # labels are 0..1
        ModelConfig(num_classes=1)
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"latent_size": 64})
    d = tiny_config().to_dict()
    assert ModelConfig.from_dict(d) == tiny_config()


def test_model_config_is_frozen_and_replace_rechecks():
    model = init_parameters(tiny_config(), seed=0)
    with pytest.raises(FrozenInstanceError):
        model.cfg.latent_dim = 16       # would save a checkpoint its weights contradict
    with pytest.raises(ConfigError, match="num_latents"):
        replace(tiny_config(), num_latents=0)
    assert ModelConfig.from_dict(ModelConfig().to_dict()) == ModelConfig()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_model_config_rejects_nonfinite_max_freq(value):
    with pytest.raises(ConfigError, match="max_freq"):
        ModelConfig(max_freq=value)


# ---------------------------------------------------------------------------
# architectural invariances

def _f64_model(seed=5, **overrides):
    return init_parameters(tiny_config(**overrides), seed=seed, dtype=np.float64)


def test_token_permutation_invariance(rng):
    """Cross-attention pools over tokens, so shuffling token rows is a no-op."""
    model = _f64_model()
    cfg = model.cfg
    x = rng.standard_normal((cfg.seq_len, cfg.input_channels))
    base = model.forward(x).data
    for _ in range(3):
        perm = rng.permutation(cfg.seq_len)
        toks = tokenize(x, cfg)
        shuffled = Tensor(toks.data[perm])
        out = model.forward(shuffled).data
        assert rel_err(base, out) < 1e-12


def test_single_token_permutation_exact(rng):
    """With one key/value row there is nothing to reorder: bitwise equality."""
    model = _f64_model(seed=2, seq_len=2)
    x = rng.standard_normal((2, model.cfg.input_channels))
    toks = tokenize(x, model.cfg)
    a = model.forward(Tensor(toks.data.copy())).data
    b = model.forward(Tensor(toks.data.copy())).data
    np.testing.assert_array_equal(a, b)


def test_latent_permutation_equivariance(rng):
    """Permuting latent rows permutes every intermediate the same way, and the
    mean aggregation then cancels it: logits must be (near) unchanged."""
    model = _f64_model(seed=9)
    cfg = model.cfg
    x = rng.standard_normal((cfg.seq_len, cfg.input_channels))
    base = model.forward(x).data
    perm = np.array([1, 0])
    model.param("latents").data = model.param("latents").data[perm]
    permuted = model.forward(x).data
    assert rel_err(base, permuted) < 1e-12


def test_residual_zeroing_identity(rng):
    """Zeroed attention and FF output projections leave the latents untouched,
    so the network reduces to head(mean(final_norm(initial latents)))."""
    model = _f64_model(seed=4)
    cfg = model.cfg
    for p in model.parameters():
        if p.name.endswith(("out_proj.weight", "out_proj.bias",
                            "down.weight", "down.bias")) and not p.name.startswith("head"):
            p.data = np.zeros_like(p.data)
    x = rng.standard_normal((cfg.seq_len, cfg.input_channels))
    got = model.forward(x).data

    lat = model.param("latents").data
    mu = lat.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(lat.var(axis=-1, keepdims=True) + 1e-5)
    normed = (lat - mu) * inv * model.param("final_norm.gain").data \
        + model.param("final_norm.bias").data
    expect = normed.mean(axis=0) @ model.param("head.weight").data \
        + model.param("head.bias").data
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_eval_forward_is_pure(rng):
    model = init_parameters(tiny_config(), seed=0)
    x = rng.standard_normal((4, 16, 3)).astype(np.float32)
    a = model.forward(x).data
    b = model.forward(x).data
    np.testing.assert_array_equal(a, b)


def test_batched_forward_matches_per_sample(rng):
    model = _f64_model(seed=7)
    x = rng.standard_normal((5, 16, 3))
    batched = model.forward(x).data
    for i in range(5):
        single = model.forward(x[i]).data
        assert rel_err(batched[i], single) < 1e-12


def test_dropout_changes_training_forward_only(rng):
    model = init_parameters(tiny_config(attn_dropout=0.5, ff_dropout=0.5), seed=0)
    x = rng.standard_normal((2, 16, 3)).astype(np.float32)
    ev1 = model.forward(x, training=False).data
    ev2 = model.forward(x, training=False).data
    np.testing.assert_array_equal(ev1, ev2)
    tr1 = model.forward(x, training=True, rng=np.random.default_rng(0)).data
    tr2 = model.forward(x, training=True, rng=np.random.default_rng(1)).data
    assert not np.array_equal(tr1, tr2)


# ---------------------------------------------------------------------------
# initialization

def test_init_deterministic_and_seed_sensitive():
    cfg = tiny_config()
    a = init_parameters(cfg, seed=3)
    b = init_parameters(cfg, seed=3)
    c = init_parameters(cfg, seed=4)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
    assert not np.array_equal(a.param("latents").data, c.param("latents").data)


def test_param_names_unique_and_stable():
    model = init_parameters(tiny_config(), seed=0)
    names = [p.name for p in model.parameters()]
    assert len(names) == len(set(names))
    assert names[0] == "latents"
    assert "cross.attn.q_proj.weight" in names
    assert "self.0.attn.out_proj.bias" in names
    assert names[-1] == "head.bias"
    # q/k/v carry no bias; output projections and FF do
    assert "cross.attn.q_proj.bias" not in names
    assert "cross.ff.down.bias" in names


def test_norm_init_values():
    model = init_parameters(tiny_config(), seed=0)
    np.testing.assert_array_equal(model.param("final_norm.gain").data, 1.0)
    np.testing.assert_array_equal(model.param("final_norm.bias").data, 0.0)
    np.testing.assert_array_equal(model.param("head.bias").data, 0.0)


def test_latent_init_truncated():
    model = init_parameters(ModelConfig(), seed=0)
    lat = model.param("latents").data
    assert np.abs(lat).max() <= 0.04 + 1e-7    # 2 sigma at 0.02


def test_zero_grad_clears_all(rng):
    model = _f64_model()
    x = rng.standard_normal((2, 16, 3))
    out = model.forward(x)
    backward(mean_axis(reshape(out, (out.data.size, 1)), 0))
    assert all(p.grad is not None for p in model.parameters())
    model.zero_grad()
    assert all(p.grad is None for p in model.parameters())


def test_quick_gradient_spot_check(rng):
    """Full end-to-end check lives in the acceptance suite; this spot-checks
    two far-apart parameters cheaply."""
    from onebt.tensor import cross_entropy_label_smoothed
    model = _f64_model(seed=1)
    x = rng.standard_normal((2, 16, 3))
    y = np.array([0, 1])

    def loss():
        return float(cross_entropy_label_smoothed(model.forward(x), y, 0.1).data)

    model.zero_grad()
    backward(cross_entropy_label_smoothed(model.forward(x), y, 0.1))
    for name in ("latents", "cross.ff.gate.weight"):
        p = model.param(name)
        flat = p.data.reshape(-1)
        idx = rng.integers(0, flat.size, size=3)
        for i in idx:
            h, orig = 1e-5, flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            ad = p.grad.reshape(-1)[i]
            assert abs(fd - ad) / (abs(fd) + abs(ad) + 1e-12) < 1e-5, name
