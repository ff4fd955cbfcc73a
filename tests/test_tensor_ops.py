"""Tensor engine: forward values against hand/scipy oracles, backward
against central finite differences at 64-bit, and the documented error
contracts."""

import math

import numpy as np
import pytest
from scipy.special import erf
from scipy.special import softmax as sp_softmax

import onebt.tensor
from onebt.tensor import (Tensor, ShapeError, ConfigError, NumericError,
                          matmul, linear, add, mul, scale, gelu, softmax_rows,
                          layer_norm, cross_attention, mean_axis, dropout,
                          reshape, swap_axes, cross_entropy_label_smoothed,
                          backward)
from conftest import fd_grad, rel_err

F64 = np.float64


def grad_of(op, args, wrt, h=1e-5, **kw):
    """Autodiff grad of sum(op(*args)) wrt args[wrt], plus the FD oracle."""
    tensors = [Tensor(np.asarray(a, dtype=F64), requires_grad=(i == wrt))
               for i, a in enumerate(args)]
    out = op(*tensors, **kw)
    backward(mean_axis(reshape(out, (out.data.size, 1)), 0))
    target = np.asarray(args[wrt], dtype=F64)

    def f(x):
        fresh = [x if i == wrt else np.asarray(a, dtype=F64)
                 for i, a in enumerate(args)]
        return float(np.mean(op(*[Tensor(a) for a in fresh], **kw).data))

    return tensors[wrt].grad, fd_grad(f, target, h)


# ---------------------------------------------------------------------------
# forward values

def test_matmul_identity():
    m = np.arange(6, dtype=F64).reshape(2, 3)
    out = matmul(Tensor(np.eye(2)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_batch_broadcast(rng):
    a = rng.standard_normal((5, 2, 3))
    b = rng.standard_normal((3, 4))
    out = matmul(Tensor(a), Tensor(b))
    assert out.shape == (5, 2, 4)
    np.testing.assert_allclose(out.data, a @ b, rtol=1e-6)


def test_matmul_shape_errors():
    with pytest.raises(ShapeError, match=r"inner extents"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 1))))


def test_linear_matches_matmul_add_float32(rng):
    # the folded 2-D GEMM against the batched broadcast path it replaces
    x = Tensor(rng.standard_normal((32, 16, 128)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((128, 512)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(512).astype(np.float32), requires_grad=True)
    fast = linear(x, w, b)
    slow = add(matmul(x, w), b)
    assert fast.dtype == np.float32 and fast.shape == (32, 16, 512)
    assert rel_err(fast.data, slow.data) < 1e-6
    grads = []
    for out in (fast, slow):
        for t in (x, w, b):
            t.zero_grad()
        backward(mean_axis(reshape(out, (out.data.size, 1)), 0))
        grads.append([t.grad for t in (x, w, b)])
    for name, g_fast, g_slow in zip("xwb", *grads):
        assert rel_err(g_fast, g_slow) < 1e-6, name


def test_linear_shape_errors():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="linear"):
        linear(x, Tensor(np.zeros(4)))                      # weight rank 1
    with pytest.raises(ShapeError, match="linear"):
        linear(x, Tensor(np.zeros((1, 4, 5))))              # weight rank 3
    with pytest.raises(ShapeError, match="linear"):
        linear(x, Tensor(np.zeros((3, 5))))                 # inner extent
    with pytest.raises(ShapeError, match="bias"):
        linear(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="bias"):
        linear(x, Tensor(np.zeros((4, 5))), Tensor(np.zeros((1, 5))))


def test_swap_axes_is_a_view(rng):
    x = Tensor(rng.standard_normal((2, 3, 4)))
    out = swap_axes(x, -3, -2)
    assert np.shares_memory(out.data, x.data)
    np.testing.assert_array_equal(out.data, x.data.swapaxes(-3, -2))


def test_softmax_rows_values():
    out = softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(
        out.data, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-7)
    assert abs(out.data.sum() - 1.0) < 1e-6


def test_softmax_rows_against_scipy(rng):
    x = rng.standard_normal((4, 7))
    np.testing.assert_allclose(
        softmax_rows(Tensor(x)).data, sp_softmax(x, axis=-1), atol=1e-12)


def test_softmax_rows_shift_invariance(rng):
    x = rng.standard_normal((3, 5))
    a = softmax_rows(Tensor(x)).data
    b = softmax_rows(Tensor(x + 1000.0)).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_softmax_rows_extreme_logits_stable():
    out = softmax_rows(Tensor([[1e4, 0.0, -1e4]]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [[1.0, 0.0, 0.0]], atol=1e-12)


def test_softmax_rows_rejects_nonfinite():
    with pytest.raises(NumericError):
        softmax_rows(Tensor([[1.0, np.nan]]))
    with pytest.raises(NumericError):
        softmax_rows(Tensor([[np.inf, 1.0]]))
    with pytest.raises(NumericError):
        softmax_rows(Tensor([[1.0, 2.0], [3.0, -np.inf]]))


def test_layer_norm_two_values():
    out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                     eps=0.0)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-12)


def test_layer_norm_moments(rng):
    x = rng.standard_normal((6, 10)) * 5 + 3
    out = layer_norm(Tensor(x), Tensor(np.ones(10)), Tensor(np.zeros(10))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
    np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_affine(rng):
    x = rng.standard_normal((2, 4))
    g, b = rng.standard_normal(4), rng.standard_normal(4)
    plain = layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
    out = layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
    np.testing.assert_allclose(out, plain * g + b, atol=1e-6)


def test_layer_norm_shape_error():
    with pytest.raises(ShapeError, match="gain/bias"):
        layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_gelu_values():
    # closed form 0.5*x*(1+erf(x/sqrt(2))) at a few points
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    expect = 0.5 * x * (1 + erf(x / np.sqrt(2)))
    np.testing.assert_allclose(gelu(Tensor(x.reshape(1, -1))).data[0], expect, atol=1e-12)
    assert gelu(Tensor([0.0])).data[0] == 0.0


def _erf32(t):
    """gelu's float32 erf of t, t left as it was."""
    t = np.array(t, dtype=np.float32)
    out, s, q = np.empty((3,) + t.shape, np.float32)
    onebt.tensor._erf(t, out, s, q)
    return out


def test_float32_erf_within_5e_7_of_math_erf():
    t = np.concatenate([np.linspace(-6.0, 6.0, 1_200_001),
                        np.random.default_rng(0).normal(0.0, 2.0, 400_000)]).astype(np.float32)
    exact = np.frompyfunc(math.erf, 1, 1)(t.astype(np.float64)).astype(np.float64)
    e = _erf32(t)
    assert np.abs(e - exact).max() <= 5e-7
    assert np.abs(e).max() <= 1.0
    assert np.array_equal(_erf32(-t).view(np.uint32), (-e).view(np.uint32))   # odd, bit for bit


def test_float32_erf_saturates_and_keeps_nan():
    e = _erf32([np.inf, -np.inf, np.nan, 1e30, -1e30, 0.0])
    np.testing.assert_array_equal(e, [1.0, -1.0, np.nan, 1.0, -1.0, 0.0])


def _gelu_fwd_bwd(x, g):
    t = Tensor(x, requires_grad=True)
    y = gelu(t)
    return y.data, y.node.backward_fn(g)[0]


BLOCK = onebt.tensor._GELU_BLOCK


@pytest.mark.parametrize("size", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, "swap_axes"])
def test_gelu_blocks_match_one_whole_array_pass(rng, monkeypatch, size):
    """gelu works through its input in flat blocks; forward and backward are
    bit-identical to one pass over the whole array, on a non-contiguous input too,
    and so is the forward without a graph, which keeps erf only a block at a time."""
    if size == "swap_axes":
        x, g = np.swapaxes(3 * rng.standard_normal((2, 3, BLOCK // 2 + 5), dtype=np.float32), 1, 2)
        assert not x.flags.c_contiguous
    else:
        x, g = 3 * rng.standard_normal((2, size), dtype=np.float32)
    blocked = _gelu_fwd_bwd(x, g)
    assert gelu(Tensor(x)).data.tobytes() == blocked[0].tobytes()
    monkeypatch.setattr(onebt.tensor, "_GELU_BLOCK", x.size + 1)
    whole = _gelu_fwd_bwd(x, g)
    for b, w in zip(blocked, whole):
        assert b.shape == x.shape and b.dtype == np.float32
        assert b.tobytes() == w.tobytes()


def test_add_mul_suffix_broadcast(rng):
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal(4)
    np.testing.assert_allclose(add(Tensor(a), Tensor(b)).data, a + b)
    np.testing.assert_allclose(mul(Tensor(a), Tensor(b)).data, a * b)
    with pytest.raises(ShapeError, match="suffix"):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))


def test_scale_and_mean_axis(rng):
    x = rng.standard_normal((3, 4))
    np.testing.assert_allclose(scale(Tensor(x), 2.5).data, 2.5 * x)
    np.testing.assert_allclose(mean_axis(Tensor(x), 0).data, x.mean(axis=0))
    np.testing.assert_allclose(mean_axis(Tensor(x), -1).data, x.mean(axis=-1))
    with pytest.raises(ShapeError):
        mean_axis(Tensor(x), 2)


def test_concat_reshape_swap(rng):
    x = rng.standard_normal((2, 3, 4))
    np.testing.assert_array_equal(reshape(Tensor(x), (6, 4)).data, x.reshape(6, 4))
    np.testing.assert_array_equal(swap_axes(Tensor(x), -1, -2).data, x.swapaxes(-1, -2))
    with pytest.raises(ShapeError):
        reshape(Tensor(x), (5, 5))


# ---------------------------------------------------------------------------
# dropout semantics

def test_dropout_identity_cases(rng):
    x = Tensor(rng.standard_normal((4, 4)))
    assert dropout(x, 0.0, True, np.random.default_rng(0)) is x
    assert dropout(x, 0.5, False) is x


def test_dropout_rate_validation():
    x = Tensor(np.ones((2, 2)))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigError):
            dropout(x, bad, False)
    with pytest.raises(ConfigError):
        dropout(x, 0.5, True)       # training without an rng


def test_dropout_keep_scaling():
    x = Tensor(np.ones((200, 200)))
    out = dropout(x, 0.25, True, np.random.default_rng(7))
    vals = np.unique(out.data)
    assert set(np.round(vals, 6)) <= {0.0, round(1 / 0.75, 6)}
    assert abs(out.data.mean() - 1.0) < 0.02     # unbiased in expectation


def test_dropout_deterministic_given_rng_state():
    x = Tensor(np.ones((8, 8)))
    a = dropout(x, 0.5, True, np.random.default_rng(3)).data
    b = dropout(x, 0.5, True, np.random.default_rng(3)).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.25, 0.123, 0.9])
def test_dropout_matches_float_mask_bitwise(dtype, rate):
    """The bool mask gives the bytes of the float-mask formula it replaced,
    forward and backward, on signed zeros, infs, nans and the largest finite
    values (which a scale applied before the mask would overflow)."""
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
               np.finfo(dtype).max, -np.finfo(dtype).max]
    x = np.random.default_rng(1).standard_normal((6, 5, 40)).astype(dtype)
    g = np.random.default_rng(2).standard_normal(x.shape).astype(dtype)
    x.flat[:8] = g.flat[8:16] = special
    with np.errstate(all="ignore"):
        out = dropout(Tensor(x, requires_grad=True), rate, True, np.random.default_rng(5))
        gx, = out.node.backward_fn(g)
        u = np.random.default_rng(5).random(x.shape, dtype=np.float32)
        mask = (u >= rate).astype(dtype) / (1.0 - rate)      # the float-mask reference
        ref_out, ref_gx = x * mask, g * mask
    assert out.data.dtype == gx.dtype == dtype
    assert out.data.tobytes() == ref_out.tobytes()
    assert gx.tobytes() == ref_gx.tobytes()


# ---------------------------------------------------------------------------
# cross entropy

def test_cross_entropy_uniform_logits():
    # all-equal logits: loss is ln(c) regardless of smoothing
    logits = Tensor(np.zeros((4, 2)))
    loss = cross_entropy_label_smoothed(logits, np.array([0, 1, 0, 1]), 0.1)
    assert abs(float(loss.data) - np.log(2)) < 1e-7


def test_cross_entropy_smoothing_floor():
    # hugely confident correct logits: loss approaches the smoothing floor
    # -(1-s/c)*0 - (s/c)*logp_wrong; with logit gap g, loss ~ (s/c)*g
    gap = 50.0
    logits = Tensor(np.array([[gap, 0.0], [0.0, gap]]))
    loss = float(cross_entropy_label_smoothed(logits, np.array([0, 1]), 0.1).data)
    assert abs(loss - 0.05 * gap) < 1e-3


def test_cross_entropy_matches_manual_oracle(rng):
    x = rng.standard_normal((5, 3))
    y = np.array([0, 2, 1, 1, 0])
    s = 0.1
    # independent oracle in plain numpy
    z = x - x.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    q = np.full((5, 3), s / 3)
    q[np.arange(5), y] += 1 - s
    expect = float(-(q * logp).sum(axis=1).mean())
    got = float(cross_entropy_label_smoothed(Tensor(x), y, s).data)
    assert abs(got - expect) < 1e-12


def test_cross_entropy_validation():
    logits = Tensor(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        cross_entropy_label_smoothed(logits, np.array([0, 2]), 0.0)   # label range
    with pytest.raises(ShapeError):
        cross_entropy_label_smoothed(logits, np.array([0]), 0.0)      # length
    with pytest.raises(ShapeError):
        cross_entropy_label_smoothed(logits, np.array([0.5, 1.0]), 0.0)
    with pytest.raises(ConfigError):
        cross_entropy_label_smoothed(logits, np.array([0, 1]), 1.0)


# ---------------------------------------------------------------------------
# gradients vs finite differences (per-primitive tolerance 1e-4 of criterion 3;
# these land far below it)

TOL = 1e-6


def test_grad_matmul(rng):
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
    for wrt in (0, 1):
        g, fd = grad_of(matmul, (a, b), wrt)
        assert rel_err(g, fd) < TOL


def test_grad_matmul_batched(rng):
    a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5))
    for wrt in (0, 1):
        g, fd = grad_of(matmul, (a, b), wrt)
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


def test_grad_matmul_query_key_broadcast(rng):
    # scores = q @ k^T with unbatched latents: a (1, m, hd) against b (B, 1, hd, n)
    a, b = rng.standard_normal((1, 3, 4)), rng.standard_normal((2, 1, 4, 5))
    for wrt in (0, 1):
        g, fd = grad_of(matmul, (a, b), wrt)
        assert g.shape == (a, b)[wrt].shape
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


def test_grad_matmul_swap_axes_view_operand(rng):
    a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 5, 4))
    assert not swap_axes(Tensor(b), -1, -2).data.flags.c_contiguous

    def op(x, y):
        return matmul(x, swap_axes(y, -1, -2))

    for wrt in (0, 1):
        g, fd = grad_of(op, (a, b), wrt)
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


@pytest.mark.parametrize("x_shape", [(4,), (3, 4), (2, 3, 4), (2, 2, 3, 4)])
@pytest.mark.parametrize("use_bias", [False, True])
def test_grad_linear(rng, x_shape, use_bias):
    args = (rng.standard_normal(x_shape), rng.standard_normal((4, 5)))
    if use_bias:
        args += (rng.standard_normal(5),)
    for wrt in range(len(args)):
        g, fd = grad_of(linear, args, wrt)
        assert g.shape == args[wrt].shape
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


def test_grad_add_mul_broadcast(rng):
    a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal(4)
    for op in (add, mul):
        for wrt in (0, 1):
            g, fd = grad_of(op, (a, b), wrt)
            assert rel_err(g, fd) < TOL, f"{op.__name__} wrt={wrt}"


def test_grad_gelu(rng):
    x = rng.standard_normal((3, 6))
    g, fd = grad_of(gelu, (x,), 0)
    assert rel_err(g, fd) < TOL


def test_grad_softmax(rng):
    x = rng.standard_normal((3, 5))
    # compose with a fixed projection so the row-sum constraint doesn't hide errors
    w = rng.standard_normal((3, 5))

    def op(t):
        return mul(softmax_rows(t), Tensor(w))

    g, fd = grad_of(op, (x,), 0)
    assert rel_err(g, fd) < TOL


def test_grad_layer_norm(rng):
    x = rng.standard_normal((4, 6))
    gain = rng.standard_normal(6)
    bias = rng.standard_normal(6)
    for wrt in (0, 1, 2):
        g, fd = grad_of(layer_norm, (x, gain, bias), wrt)
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


# cross_attention layouts: (q's axes before c, x's axes before [n, C]), for
# queries shared by a batch, queries per window, and one window
_CROSS_LAYOUTS = {"shared_q": ((2, 3), (2,)), "batched_q": ((2, 2, 3), (2,)),
                  "one_window": ((2, 3), ())}


def _cross_inputs(rng, layout, pos_cols, random_affine, n=7, C=4):
    """Queries, windows, position columns and the norm's gain and bias: random, or
    LayerNorm's initial gain 1 and bias 0."""
    q_lead, x_lead = _CROSS_LAYOUTS[layout]
    c = C + pos_cols
    q, x = rng.standard_normal(q_lead + (c,)), rng.standard_normal(x_lead + (n, C))
    pos = rng.standard_normal((n, pos_cols)) if pos_cols else None
    if not random_affine:
        return q, x, pos, np.ones(c), np.zeros(c)
    return q, x, pos, 1 + 0.3 * rng.standard_normal(c), rng.standard_normal(c)


def _textbook_cross(q, x, pos, gain, bias, rate, rng):
    """softmax(q t̃ᵀ) t̃ over the tokens t = [x, pos], t̃ = layer_norm(t), op by op."""
    t = x if pos is None else np.concatenate(
        [x, np.broadcast_to(pos, x.shape[:-1] + pos.shape[-1:])], axis=-1)
    t = layer_norm(Tensor(t[..., None, :, :]), gain, bias)         # one copy per head
    probs = dropout(softmax_rows(matmul(q, swap_axes(t, -1, -2))), rate, rate > 0, rng)
    return matmul(probs, t)


@pytest.mark.parametrize("layout", sorted(_CROSS_LAYOUTS))
@pytest.mark.parametrize("pos_cols", [0, 3])
@pytest.mark.parametrize("random_affine", [False, True])
def test_cross_attention_matches_textbook_order(rng, layout, pos_cols, random_affine):
    """Output and dropout draw equal the op-by-op LayerNorm, softmax, dropout
    and context products on the tokens [x, pos]."""
    q, x, pos, gain, bias = _cross_inputs(rng, layout, pos_cols, random_affine)
    got = cross_attention(q, x, pos, gain, bias, 0.3, True, np.random.default_rng(4)).data
    want = _textbook_cross(q, x, pos, gain, bias, 0.3, np.random.default_rng(4)).data
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("layout", sorted(_CROSS_LAYOUTS))
@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_cross_attention_same_bits_with_and_without_graph(rng, layout, rate):
    """Without a graph the op scales the probabilities in place; its output and
    dropout draw are those of the graph-recording op bit for bit."""
    q, x, pos, gain, bias = _cross_inputs(rng, layout, 3, True)
    out = [cross_attention(Tensor(q, requires_grad=grad), x, pos, gain, bias, rate, True,
                           np.random.default_rng(4)) for grad in (False, True)]
    assert out[0].node is None and out[1].node is not None
    assert out[0].data.tobytes() == out[1].data.tobytes()


@pytest.mark.parametrize("layout", sorted(_CROSS_LAYOUTS))
@pytest.mark.parametrize("pos_cols", [0, 3])
@pytest.mark.parametrize("random_affine", [False, True])
def test_grad_cross_attention(rng, layout, pos_cols, random_affine):
    """FD oracle for the fused op wrt the queries, the windows (the LayerNorm
    backward included) and the norm's gain and bias."""
    q, x, pos, gain, bias = _cross_inputs(rng, layout, pos_cols, random_affine)
    w = Tensor(rng.standard_normal(cross_attention(q, x, pos, gain, bias).shape))  # output weights

    def op(q, x, gain, bias):
        return mul(cross_attention(q, x, pos, gain, bias), w)

    args = (q, x, gain, bias)
    for wrt in range(len(args)):
        g, fd = grad_of(op, args, wrt)
        assert rel_err(g, fd) < TOL, f"wrt={wrt}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("random_affine", [False, True])
def test_cross_attention_nonfinite_score_raises(rng, bad, random_affine):
    """As softmax_rows does, and without a numpy warning on the way."""
    q, x, pos, gain, bias = _cross_inputs(rng, "shared_q", 3, random_affine)
    x_bad = x.copy()
    x_bad[1, 2, 0] = bad
    with pytest.raises(NumericError, match="cross_attention: scores"):
        cross_attention(q, x_bad, pos, gain, bias)
    q[0, 1, 2] = bad
    with pytest.raises(NumericError, match="cross_attention: scores"):
        cross_attention(q, x, pos, gain, bias)


def test_grad_mean_axis(rng):
    x = rng.standard_normal((3, 4, 5))
    g, fd = grad_of(mean_axis, (x,), 0, axis=1)
    assert rel_err(g, fd) < TOL


def test_grad_cross_entropy(rng):
    x = rng.standard_normal((4, 3))
    y = np.array([0, 1, 2, 1])
    t = Tensor(x.astype(F64), requires_grad=True)
    backward(cross_entropy_label_smoothed(t, y, 0.1))
    fd = fd_grad(lambda z: float(cross_entropy_label_smoothed(Tensor(z), y, 0.1).data), x)
    assert rel_err(t.grad, fd) < TOL


def test_grad_dropout_mask_consistency():
    # backward must reuse the forward mask and scaling
    x = Tensor(np.ones((64, 64)), requires_grad=True)
    out = dropout(x, 0.5, True, np.random.default_rng(11))
    backward(mean_axis(reshape(out, (out.data.size, 1)), 0))
    mask = out.data != 0
    np.testing.assert_allclose(x.grad[mask], 2.0 / x.data.size, atol=1e-12)
    np.testing.assert_array_equal(x.grad[~mask], 0.0)


# ---------------------------------------------------------------------------
# backward-pass mechanics

def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        backward(add(t, t))


def test_grad_accumulates_across_backward_calls():
    t = Tensor(np.array([[2.0]]), requires_grad=True)
    loss = mean_axis(mean_axis(mul(t, t), 0), 0)
    backward(loss)
    first = t.grad.copy()
    backward(loss)
    np.testing.assert_allclose(t.grad, 2 * first)
    t.zero_grad()
    assert t.grad is None


def test_reused_tensor_accumulates():
    t = Tensor(np.array([[3.0]]), requires_grad=True)
    loss = mean_axis(mean_axis(mul(t, t), 0), 0)   # d/dt t^2 = 2t
    backward(loss)
    assert abs(t.grad.item() - 6.0) < 1e-12


def _graph_tensors(root):
    seen, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if t.node is not None:
                stack.extend(t.node.inputs)
    return list(seen.values())


def test_backward_writes_grads_on_leaves_only(rng):
    x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    y = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal(6), requires_grad=True)
    frozen = Tensor(rng.standard_normal((2, 6, 3)))
    # add passes one gradient array to both x and y; the swap_axes views and
    # reshape pass gradients that alias the upstream ones
    h = linear(add(x, y), w, b)
    h = reshape(add(swap_axes(h, -1, -2), frozen), (2, 18))
    loss = mean_axis(mean_axis(h, 0), 0)
    backward(loss)
    tensors = _graph_tensors(loss)
    ops = [t for t in tensors if t.node is not None]
    leaves = [t for t in tensors if t.node is None and t.requires_grad]
    assert ops and all(t.grad is None for t in ops)
    assert {id(t) for t in leaves} == {id(x), id(y), id(w), id(b)}
    assert frozen.grad is None
    for t in leaves:
        assert t.grad is not None and t.grad.shape == t.shape
        others = [u.grad for u in leaves if u is not t] + [u.data for u in tensors]
        assert not any(np.shares_memory(t.grad, o) for o in others)
    np.testing.assert_array_equal(x.grad, y.grad)


def test_no_grad_for_untracked_inputs(rng):
    a = Tensor(rng.standard_normal((2, 2)))                      # leaf, no grad
    b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    out = matmul(a, b)
    backward(mean_axis(reshape(out, (4, 1)), 0))
    assert a.grad is None and b.grad is not None


def test_dtype_follows_input():
    assert Tensor([1.0, 2.0]).dtype == np.float32
    assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64
    assert Tensor(np.zeros(3, dtype=np.int64)).dtype == np.float32
