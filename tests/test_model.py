"""Tokenizer values, architectural invariances, and init determinism."""

import os
import platform
import resource
import threading
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from onebt.cost import TABLE_PRESETS
import onebt.model
from onebt.model import (ModelConfig, Attention, LatentCrossAttention,
                         frequency_bands, position_grid, fourier_encode,
                         tokenize, init_parameters, eval_live_bytes, _eval_chunks,
                         _position_features)
from onebt.tensor import (Tensor, ShapeError, ConfigError, NumericError, backward, mean_axis,
                          reshape, add, cross_entropy_label_smoothed, _backward_from,
                          _blas_threads, _replayed)
from conftest import tiny_config, rel_err, fd_grad
from test_tensor_ops import grad_of, TOL, _graph_tensors


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
    # a Tensor would come back as a new leaf, cut off from its gradient
    with pytest.raises(ShapeError, match="not a Tensor"):
        tokenize(Tensor(rng.standard_normal((cfg.seq_len, cfg.input_channels))), cfg)


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
    """Same module, two evaluation orders: outputs and every gradient agree with
    Attention over kv_norm(kv)."""
    model, att = _cross_attn(heads)
    q, kv = _attn_inputs(rng, model, batched)
    results = []
    for call in (LatentCrossAttention.__call__,
                 lambda att, q, kv, *a: Attention.__call__(att, q, att.kv_norm(kv), *a)):
        model.zero_grad()
        qt, kvt = Tensor(q.copy(), requires_grad=True), Tensor(kv.copy(), requires_grad=True)
        out = call(att, qt, kvt, 0.3, training, np.random.default_rng(11))
        backward(mean_axis(reshape(out, (out.data.size, 1)), 0))
        grads = {p.name: p.grad for p in model.parameters()
                 if p.name.startswith(("cross.attn.", "cross.norm_kv."))}
        results.append((out.data, qt.grad, kvt.grad, grads))
    (out_a, gq_a, gkv_a, gp_a), (out_b, gq_b, gkv_b, gp_b) = results
    # q, k, v, out weight, out bias; norm_kv gain and bias
    assert set(gp_a) == set(gp_b) and len(gp_a) == 7
    for a, b in [(out_a, out_b), (gq_a, gq_b), (gkv_a, gkv_b)] + \
            [(gp_a[k], gp_b[k]) for k in gp_a]:
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2])
def test_grad_latent_cross_attention(rng, heads):
    """FD oracle for the reassociated products and the norm inside them, wrt
    both inputs and all four projection weights."""
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
# cross block: norm_kv's affine folded into the latent side

def _cross_block(rng, heads, dropout=0.0):
    """A float64 cross block whose norm_kv carries a random gain and bias."""
    model = init_parameters(tiny_config(cross_heads=heads, attn_dropout=dropout,
                                        ff_dropout=dropout), seed=3, dtype=np.float64)
    for name in ("cross.norm_kv.gain", "cross.norm_kv.bias"):
        model.param(name).data = rng.standard_normal(model.param(name).shape)
    return model, model.cross


def _unfolded_cross_block(block, latents, tokens, cfg, training, rng):
    """CrossBlock in the textbook order: norm_kv applied to every token."""
    att = Attention.__call__(block.attn, block.norm_q(latents), block.norm_kv(tokens),
                             cfg.attn_dropout, training, rng)
    latents = add(att, latents)
    return add(block.ff(block.norm_ff(latents), cfg.ff_dropout, training, rng), latents)


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("tokens_grad", [False, True])
def test_cross_block_matches_unfolded_norm_kv(rng, heads, training, tokens_grad):
    """The folded block and the textbook order agree in output and every
    gradient, with random norm_kv gain and bias and identically seeded dropout."""
    model, block = _cross_block(rng, heads, dropout=0.3)
    cfg = model.cfg
    tok = rng.standard_normal((3, cfg.seq_len, cfg.token_width))
    results = []
    for call in (type(block).__call__, _unfolded_cross_block):
        model.zero_grad()
        tokens = Tensor(tok.copy(), requires_grad=tokens_grad)
        out = call(block, model.latents, tokens, cfg, training, np.random.default_rng(11))
        backward(mean_axis(reshape(out, (out.data.size, 1)), 0))
        grads = {p.name: p.grad for p in model.parameters()
                 if p.name == "latents" or p.name.startswith("cross.")}
        results.append((out.data, tokens.grad, grads))
    (out_a, gt_a, gp_a), (out_b, gt_b, gp_b) = results
    assert {"latents", "cross.norm_kv.gain", "cross.norm_kv.bias", "cross.attn.k_proj.weight",
            "cross.attn.v_proj.weight"} <= set(gp_a) == set(gp_b)
    assert (gt_a is None) == (gt_b is None) == (not tokens_grad)
    pairs = [(out_a, out_b)] + [(gp_a[k], gp_b[k]) for k in gp_a]
    for a, b in pairs + ([(gt_a, gt_b)] if tokens_grad else []):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2])
def test_grad_cross_block_norm_kv(rng, heads):
    """FD oracle for the folded affine, wrt norm_kv's gain and bias."""
    model, block = _cross_block(rng, heads)
    cfg = model.cfg
    lat = model.latents.data.copy()
    tok = rng.standard_normal((3, cfg.seq_len, cfg.token_width))

    def op(gain, bias):
        block.norm_kv.gain, block.norm_kv.bias = gain, bias
        return block(Tensor(lat), Tensor(tok), cfg, False, None)

    args = (block.norm_kv.gain.data.copy(), block.norm_kv.bias.data.copy())
    for wrt in range(len(args)):
        g, fd = grad_of(op, args, wrt)
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


def test_training_graph_holds_no_token_sized_gradient(rng):
    """On a plain window array the tokens stay out of the graph: no tensor of
    token shape requires grad, so backward does no per-token work."""
    model = init_parameters(tiny_config(attn_dropout=0.1, ff_dropout=0.1), seed=0)
    cfg = model.cfg
    x = rng.standard_normal((3, cfg.seq_len, cfg.input_channels)).astype(np.float32)
    logits = model.forward(x, training=True, rng=np.random.default_rng(0))
    loss = cross_entropy_label_smoothed(logits, np.array([0, 1, 0]), 0.1)
    token_shapes = {(3, cfg.seq_len, cfg.token_width), (3, 1, cfg.seq_len, cfg.token_width)}
    tracked = [t.shape for t in _graph_tensors(loss) if t.requires_grad]
    assert tracked and not token_shapes & set(tracked)


# ---------------------------------------------------------------------------
# token-free cross block: the window and its shared position columns

def _pos(cfg):
    return _position_features(cfg.seq_len, cfg.num_freq_bands, cfg.max_freq)


def _cross_grads(model):
    return {p.name: p.grad for p in model.parameters()
            if p.name == "latents" or p.name.startswith("cross.")}


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("training", [False, True])
@pytest.mark.parametrize("batched", [False, True])
def test_window_cross_block_matches_unfolded_tokens(rng, heads, training, batched):
    """A window read with the shared position columns gives the output and
    every gradient of the textbook order over its tokens, with random
    norm_kv gain and bias and identically seeded dropout."""
    model, block = _cross_block(rng, heads, dropout=0.3)
    cfg = model.cfg
    x = rng.standard_normal((3,) * batched + (cfg.seq_len, cfg.input_channels))
    calls = (lambda r: block(model.latents, x, cfg, training, r, _pos(cfg)),
             lambda r: _unfolded_cross_block(block, model.latents, tokenize(x, cfg), cfg,
                                             training, r))
    results = []
    for call in calls:
        model.zero_grad()
        out = call(np.random.default_rng(11))
        backward(mean_axis(reshape(out, (out.data.size, 1)), 0))
        results.append((out.data, _cross_grads(model)))
    (out_a, gp_a), (out_b, gp_b) = results
    assert set(gp_a) == set(gp_b) and all(g is not None for g in gp_a.values())
    for a, b in [(out_a, out_b)] + [(gp_a[k], gp_b[k]) for k in gp_a]:
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2])
def test_grad_cross_block_window(rng, heads):
    """FD oracle for the token-free window path, wrt the latents, the q, k, v
    and out projection weights, and norm_kv's gain and bias."""
    model, block = _cross_block(rng, heads)
    cfg = model.cfg
    x = rng.standard_normal((3, cfg.seq_len, cfg.input_channels))
    slots = [(block.attn.q, "weight"), (block.attn.k, "weight"), (block.attn.v, "weight"),
             (block.attn.out, "weight"), (block.norm_kv, "gain"), (block.norm_kv, "bias")]

    def op(latents, *params):
        for (owner, attr), p in zip(slots, params):
            setattr(owner, attr, p)
        return block(latents, x, cfg, False, None, _pos(cfg))

    args = (model.latents.data.copy(),) + tuple(getattr(o, a).data.copy() for o, a in slots)
    for wrt in range(len(args)):
        g, fd = grad_of(op, args, wrt)
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


def test_training_step_from_window_peaks_below_one_token_array(rng):
    """One training forward and backward from a window array holds less memory
    at its peak than one [B, n, token_width] array, on a config where that
    array would be the largest. tracemalloc sees numpy's buffers."""
    cfg = ModelConfig(num_latents=2, latent_dim=8, cross_head_dim=4, self_head_dim=4,
                      num_freq_bands=16, input_channels=2, seq_len=4096, ff_mult=1)
    model = init_parameters(cfg, seed=0)
    x = rng.standard_normal((8, cfg.seq_len, cfg.input_channels)).astype(np.float32)
    labels = np.arange(8) % 2
    token_bytes = x.shape[0] * cfg.seq_len * cfg.token_width * x.itemsize

    def step():
        model.zero_grad()
        logits = model.forward(x, training=True, rng=np.random.default_rng(0))
        backward(cross_entropy_label_smoothed(logits, labels, 0.1))

    step()                          # position features cached, as in any later step
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < token_bytes, f"peak {peak} bytes, one token array {token_bytes}"


def test_training_forward_draws_one_mask_per_dropout_site(rng):
    """The cross block draws its attention mask on the [B, h, m, n] probs, as
    the textbook order does, so the generator ends where drawing each dropout
    site's float32 uniforms in forward order leaves it."""
    cfg = tiny_config(attn_dropout=0.1, ff_dropout=0.1, self_per_cross=2)
    model = init_parameters(cfg, seed=0)
    b, m, hid = 3, cfg.num_latents, cfg.ff_mult * cfg.latent_dim
    x = rng.standard_normal((b, cfg.seq_len, cfg.input_channels)).astype(np.float32)
    used, ref = (np.random.Generator(np.random.Philox(5)) for _ in range(2))
    model.forward(x, training=True, rng=used)
    shapes = ([(b, cfg.cross_heads, m, cfg.seq_len), (b, m, hid)]
              + [(b, cfg.self_heads, m, m), (b, m, hid)] * cfg.self_per_cross)
    for shape in shapes:
        ref.random(shape, dtype=np.float32)
    np.testing.assert_equal(used.bit_generator.state, ref.bit_generator.state)


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


@pytest.mark.parametrize("field,value", [("num_latents", True), ("max_freq", "x")])
def test_model_config_rejects_wrong_field_type(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be .* in model config"):
        ModelConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_model_config_rejects_nonfinite_max_freq(value):
    with pytest.raises(ConfigError, match="max_freq"):
        ModelConfig(max_freq=value)


# ---------------------------------------------------------------------------
# architectural invariances

def _f64_model(seed=5, **overrides):
    return init_parameters(tiny_config(**overrides), seed=seed, dtype=np.float64)


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


def test_forward_refuses_a_tensor(rng):
    """forward takes window arrays only; tokens are not a second input form."""
    model = _f64_model()
    cfg = model.cfg
    toks = tokenize(rng.standard_normal((cfg.seq_len, cfg.input_channels)).astype(np.float32),
                    cfg)
    toks.requires_grad = True
    for kw in ({"training": False}, {"training": True, "rng": np.random.default_rng(0)}):
        with pytest.raises(ShapeError, match=r"forward: takes a window array \[L, C\]"):
            model.forward(toks, **kw)


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
    # weights are drawn in registration order, so it fixes every seeded weight and checkpoint
    assert names[1:18] == [f"cross.{n}" for n in (
        "norm_q.gain", "norm_q.bias", "norm_kv.gain", "norm_kv.bias",
        "attn.q_proj.weight", "attn.k_proj.weight", "attn.v_proj.weight",
        "attn.out_proj.weight", "attn.out_proj.bias", "norm_ff.gain", "norm_ff.bias",
        "ff.main.weight", "ff.main.bias", "ff.gate.weight", "ff.gate.bias",
        "ff.down.weight", "ff.down.bias")]
    assert names[18].startswith("self.0.")
    assert model.cross.attn.kv_norm is model.cross.norm_kv


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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc only")
def test_eval_forward_reuses_freed_heap():
    """After two warm-up batches, a paper-default eval forward at batch 64
    takes its buffers from the heap the batch before it freed: under 200 minor
    page faults each, against ~4,000 when freed pages go back to the kernel."""
    model = init_parameters(ModelConfig(), seed=0)
    X = np.random.default_rng(0).standard_normal((64, 1280, 14)).astype(np.float32)
    for _ in range(2):
        model.forward(X, training=False)
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.forward(X, training=False)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200


# ---------------------------------------------------------------------------
# graph-free eval forward, replayed by a backward through it

def _replay_config():
    """Paper widths at seq_len 256 with four self blocks and no dropout, so that a
    training forward runs the ops an eval forward runs."""
    return ModelConfig(seq_len=256, self_per_cross=4, attn_dropout=0.0, ff_dropout=0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_through_eval_forward_matches_graph_path(rng, dtype):
    """The logits and every parameter's gradient, over two accumulating backward
    calls, are those of the graph path bit for bit."""
    cfg = _replay_config()
    model = init_parameters(cfg, seed=2, dtype=dtype)
    x = rng.standard_normal((4, cfg.seq_len, cfg.input_channels)).astype(dtype)
    labels = np.array([0, 1, 1, 0])
    results = []
    for kw in ({"training": False}, {"training": True, "rng": np.random.default_rng(0)}):
        model.zero_grad()
        logits = model.forward(x, **kw)
        for _ in range(2):
            backward(cross_entropy_label_smoothed(logits, labels, 0.1))
        results.append([logits.data] + [p.grad for p in model.parameters()])
    assert all(g is not None for g in results[0])
    for a, b in zip(*results, strict=True):
        np.testing.assert_array_equal(a, b)


def test_eval_forward_keeps_no_graph(rng):
    """After an eval forward only the logits stay allocated, and the call's peak
    is below a quarter of what a graph-building forward keeps."""
    cfg = _replay_config()
    model = init_parameters(cfg, seed=2)
    x = rng.standard_normal((16, cfg.seq_len, cfg.input_channels)).astype(np.float32)
    model.forward(x)                # position features cached, as in any later call
    traced = {}
    for training in (True, False):
        tracemalloc.start()
        try:
            logits = model.forward(x, training=training, rng=np.random.default_rng(0))
            traced[training] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if not training:
            assert logits.node.inputs == ()
        del logits
    kept, peak = traced[False]
    assert kept < 2**20, f"{kept} bytes still traced after an eval forward"
    assert peak < traced[True][0] / 4, f"peak {peak} bytes, graph {traced[True][0]} bytes"


def test_eval_forward_peaks_at_its_widest_op(rng):
    """A graph-free forward holds only what its output still needs, so its traced
    peak is the widest op's live set in closed form plus a stated margin. The
    live sets (eval_live_bytes): the cross-attention's scores and transposed
    window, B·h·m·n + B·(C + 2)·n; three feed-forward hidden arrays (the gate's
    output is freed before the main branch runs, so gelu's block-sized buffers
    sit beside only two); and three [B, m, h·hd] self-attention arrays plus one
    score array [B, h, m, m], the widest at table1 blocks=2 widths, seq_len 256
    and batch 16, one chunk. The margin is two [B, m, d] arrays: the residual
    stream and the block's norm output, which its attention reads."""
    cfg = _blocks2_config()
    B = 16
    assert len(_eval_chunks(cfg, B, 4)) == 1
    peak = _traced_eval_peak(init_parameters(cfg, seed=2), _windows(rng, cfg, B))
    assert peak <= _chunk_bound(cfg, B), f"peak {peak} bytes, bound {_chunk_bound(cfg, B)}"


def _blocks2_config():
    return replace(dict(TABLE_PRESETS["table1"])["blocks=2"], seq_len=256)


def _windows(rng, cfg, B, dtype=np.float32):
    return rng.standard_normal((B, cfg.seq_len, cfg.input_channels)).astype(dtype)


def _traced_eval_peak(model, x):
    """The tracemalloc peak of one eval forward over x, above its start."""
    model.forward(x[:1])            # position features cached, as in any later call
    tracemalloc.start()
    try:
        model.forward(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _chunk_bound(cfg, B):
    """The widest op's live set of a forward of B float32 windows, plus a margin of
    two [B, m, d] arrays."""
    return eval_live_bytes(cfg, B, 4) + 4 * 2 * B * cfg.num_latents * cfg.latent_dim


@pytest.mark.parametrize("B", [1, 2, 35, 36, 37, 64, 72, 80, 200, 1000])
@pytest.mark.parametrize("cfg", [ModelConfig(), _blocks2_config(),
                                 dict(TABLE_PRESETS["table1"])["blocks=8"],
                                 ModelConfig(num_latents=2048)],
                         ids=["paper", "table1_blocks2_L256", "table1_blocks8", "wide"])
def test_eval_chunks_are_the_fewest_that_fit_and_differ_by_one(cfg, B):
    """An eval batch runs as consecutive chunks that cover it, each at most
    EVAL_CHUNK_BYTES by eval_live_bytes (or one window, when one window is wider),
    with sizes that differ by at most one, and one chunk fewer would not fit."""
    spans = _eval_chunks(cfg, B, 4)
    sizes = [s.stop - s.start for s in spans]
    assert [s.start for s in spans] == [0] + [s.stop for s in spans[:-1]]
    assert spans[-1].stop == B and min(sizes) >= 1
    assert max(sizes) - min(sizes) <= 1
    assert all(eval_live_bytes(cfg, n, 4) <= onebt.model.EVAL_CHUNK_BYTES or n == 1
               for n in sizes)
    fewer = len(spans) - 1
    assert fewer == 0 or eval_live_bytes(cfg, -(-B // fewer), 4) > onebt.model.EVAL_CHUNK_BYTES


def test_eval_chunks_of_paper_and_table1_batches():
    """table1 blocks=8 runs a batch of 64 as 4 x 16, the paper default as 21 + 21 + 22,
    and a paper-default held-out subject of 72 windows as 3 x 24."""
    table1 = dict(TABLE_PRESETS["table1"])["blocks=8"]
    assert eval_live_bytes(table1, 1, 4) == 240 * 1024
    assert _eval_chunks(table1, 64, 4) == [slice(0, 16), slice(16, 32), slice(32, 48),
                                           slice(48, 64)]
    assert _eval_chunks(ModelConfig(), 64, 4) == [slice(0, 21), slice(21, 42), slice(42, 64)]
    assert _eval_chunks(ModelConfig(), 72, 4) == [slice(0, 24), slice(24, 48), slice(48, 72)]


def test_chunked_eval_forward_matches_separate_forwards(rng):
    """A batch of three uneven chunks gives the logits of one forward per chunk,
    byte for byte."""
    cfg = _blocks2_config()
    spans = _eval_chunks(cfg, 50, 4)
    assert [s.stop - s.start for s in spans] == [16, 17, 17]
    model = init_parameters(cfg, seed=2)
    x = _windows(rng, cfg, 50)
    logits = model.forward(x).data
    parts = np.concatenate([model.forward(x[s]).data for s in spans])
    assert logits.tobytes() == parts.tobytes()


@pytest.fixture
def eval_threads(monkeypatch):
    """force(n) sets numpy's OpenBLAS to n threads, and makes n CPUs usable where fewer
    are, so that an eval forward of two or more chunks runs them on min(n, its cap,
    chunks) threads; the count is restored after the test. Skips where numpy's BLAS
    is not an OpenBLAS."""
    before = _blas_threads()

    def force(n):
        if _blas_threads(n) != n:
            pytest.skip(f"{n} eval threads need numpy's OpenBLAS")
        if len(os.sched_getaffinity(0)) < n:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    yield force
    _blas_threads(before)


@pytest.mark.parametrize("B", [80, 200])
def test_chunked_eval_forward_peaks_within_one_chunk(rng, eval_threads, B):
    """However large the batch, and at 2 or 4 BLAS threads, the traced peak of its
    eval forward stays within two of its largest chunk's bound (the chunks that fit
    in EVAL_LIVE_BYTES), which is below the bound of the unchunked batch."""
    cfg = _blocks2_config()
    spans = _eval_chunks(cfg, B, 4)
    widest = max(s.stop - s.start for s in spans)
    assert onebt.model.EVAL_LIVE_BYTES // onebt.model.EVAL_CHUNK_BYTES == 2
    assert len(spans) >= 4 and 2 * widest < B
    model, x = init_parameters(cfg, seed=2), _windows(rng, cfg, B)
    bound = 2 * _chunk_bound(cfg, widest)
    for n in (2, 4):
        eval_threads(n)
        peak = _traced_eval_peak(model, x)
        assert peak <= bound, f"{n} BLAS threads: peak {peak} bytes, bound {bound}"


@pytest.mark.parametrize("B", [1, 2, 17, 33, 64, 65])
@pytest.mark.parametrize("cfg", [ModelConfig(), dict(TABLE_PRESETS["table1"])["blocks=8"]],
                         ids=["paper", "table1_blocks8"])
def test_threaded_eval_logits_equal_serial(rng, eval_threads, cfg, B):
    """Logits are byte-equal on one thread and on two, and the forward leaves no
    thread behind."""
    model, x = init_parameters(cfg, seed=3), _windows(rng, cfg, B)
    baseline = threading.active_count()
    logits = []
    for n in (1, 2):
        eval_threads(n)
        logits.append(model.forward(x).data.tobytes())
        assert _blas_threads() == n and threading.active_count() == baseline
    assert logits[0] == logits[1]


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_eval_chunks_run_on_blas_threads_with_blas_at_one(eval_threads, n, fails):
    """Four chunks with a cap of two threads run on min(n, 2) threads, the caller's
    among them, each seeing OpenBLAS at one thread; whether the call returns or
    raises, OpenBLAS is back at n threads and no thread it made is left. A failing
    chunk's error is raised."""
    eval_threads(n)
    baseline = threading.active_count()
    seen = []

    def chunk(i):
        def fn():
            seen.append((threading.current_thread(), _blas_threads()))
            if fails and i == 1:
                raise NumericError("chunk 1")
            return Tensor(np.full((1, 2), i, np.float32))
        return fn

    if fails:
        with pytest.raises(NumericError, match="chunk 1"):
            _replayed([chunk(i) for i in range(4)], 2)
    else:
        out = _replayed([chunk(i) for i in range(4)], 2)
        np.testing.assert_array_equal(out.data[:, 0], [0, 1, 2, 3])
    assert threading.current_thread() in {thread for thread, _ in seen}
    assert len({thread for thread, _ in seen}) == min(n, 2)
    assert {count for _, count in seen} == {1}
    assert _blas_threads() == n and threading.active_count() == baseline


def test_threaded_eval_raises_overflow_of_its_second_chunk(rng, monkeypatch, eval_threads):
    """A window whose cast to the model's width overflows, in the second of three
    chunks on two threads, raises under the caller's np.errstate, as on one thread."""
    model = _chunked_replay_model(monkeypatch, np.float32)
    x = _windows(rng, model.cfg, 8, np.float64)
    x[3] = 1e300
    eval_threads(2)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        model.forward(x)
    assert _blas_threads() == 2


def _chunked_replay_model(monkeypatch, dtype):
    """A _replay_config model whose eval forward runs 8 windows as 2 + 3 + 3 chunks."""
    cfg = _replay_config()
    monkeypatch.setattr(onebt.model, "EVAL_CHUNK_BYTES",
                        eval_live_bytes(cfg, 3, np.dtype(dtype).itemsize))
    assert [s.stop - s.start for s in _eval_chunks(cfg, 8, np.dtype(dtype).itemsize)] == [2, 3, 3]
    return init_parameters(cfg, seed=2, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_through_chunked_eval_forward_sums_chunk_gradients(rng, monkeypatch, dtype):
    """A backward through a chunked eval forward gives each parameter the per-chunk
    graph-path gradients, summed in chunk order, bit for bit."""
    model = _chunked_replay_model(monkeypatch, dtype)
    x = _windows(rng, model.cfg, 8, dtype)
    seed = rng.standard_normal((8, model.cfg.num_classes)).astype(dtype)
    logits = model.forward(x)
    _backward_from(logits, seed)
    chunked = [p.grad for p in model.parameters()]
    model.zero_grad()
    for s in _eval_chunks(model.cfg, 8, np.dtype(dtype).itemsize):
        _backward_from(model.forward(x[s], training=True), seed[s])
    assert all(g is not None for g in chunked)
    for a, p in zip(chunked, model.parameters(), strict=True):
        np.testing.assert_array_equal(a, p.grad)


def test_backward_through_threaded_eval_forward_matches_one_thread(rng, monkeypatch,
                                                                  eval_threads):
    """Gradients through a chunked eval forward run on two threads equal those
    through one run on one thread, bit for bit."""
    model = _chunked_replay_model(monkeypatch, np.float64)
    x = _windows(rng, model.cfg, 8, np.float64)
    seed = rng.standard_normal((8, model.cfg.num_classes))
    grads = []
    for n in (1, 2):
        eval_threads(n)
        model.zero_grad()
        _backward_from(model.forward(x), seed)
        grads.append([p.grad.tobytes() for p in model.parameters()])
    assert grads[0] == grads[1]


def test_backward_through_chunked_eval_forward_holds_one_chunk_graph(rng, monkeypatch):
    """A backward through an eval forward of six chunks replays them one at a time,
    so its traced peak stays within a quarter more than that of a backward through
    one chunk; two chunks' graphs at once would take ~1.6 times as much."""
    cfg = _replay_config()
    monkeypatch.setattr(onebt.model, "EVAL_CHUNK_BYTES", eval_live_bytes(cfg, 8, 4))
    model = init_parameters(cfg, seed=2)
    x = _windows(rng, cfg, 48)
    peaks = []
    for B in (8, 48):
        assert len(_eval_chunks(cfg, B, 4)) == B // 8
        loss = cross_entropy_label_smoothed(model.forward(x[:B]), np.arange(B) % 2, 0.1)
        model.zero_grad()
        tracemalloc.start()
        try:
            backward(loss)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], f"peak {peaks[1]} bytes, one chunk's {peaks[0]}"


@pytest.mark.parametrize("changed", ["weight", "last_chunk_input"])
def test_backward_after_chunked_forward_inputs_change_raises(rng, monkeypatch, changed):
    """A weight, or a window of the last chunk, changed in place between a chunked
    eval forward and a backward through it raises."""
    model = _chunked_replay_model(monkeypatch, np.float64)
    x = _windows(rng, model.cfg, 8, np.float64)
    logits = model.forward(x)
    (model.param("self.0.ff.gate.weight").data if changed == "weight" else x[-1])[0, 0] += 1e-5
    with pytest.raises(RuntimeError, match="changed"):
        backward(cross_entropy_label_smoothed(logits, np.arange(8) % 2, 0.1))


@pytest.mark.parametrize("changed", ["weight", "input"])
def test_backward_after_forward_inputs_change_raises(rng, changed):
    """A backward through an eval forward whose weights or input have since
    changed in place raises, rather than mix old and new values; restored, it runs."""
    model = _f64_model()
    x = rng.standard_normal((2, 16, 3))
    y = np.array([0, 1])
    logits = model.forward(x)
    flat = (model.param("cross.ff.gate.weight").data if changed == "weight" else x).reshape(-1)
    orig = flat[0]
    flat[0] = orig + 1e-5
    with pytest.raises(RuntimeError, match="changed"):
        backward(cross_entropy_label_smoothed(logits, y, 0.1))
    flat[0] = orig
    model.zero_grad()
    backward(cross_entropy_label_smoothed(logits, y, 0.1))
    assert all(p.grad is not None for p in model.parameters())
