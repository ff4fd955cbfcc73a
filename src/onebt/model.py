"""One-block latent-attention transformer for multichannel EEG windows.

A window of L timesteps x C channels is one token per timestep: the raw
channel vector concatenated with Fourier features of the timestep's
position on a [-1, 1] grid. tokenize builds them; forward takes only window
arrays, and the cross block reads each window with the shared features
without doing so. A small set of learned latent vectors cross-attends to the
token sequence once, runs a configurable number of latent self-attention
blocks, and the mean over latents feeds a linear classifier.

All blocks are pre-norm with residual connections; feed-forwards are gated
(two input projections, one passed through gelu, multiplied elementwise).
"""

import functools
from dataclasses import dataclass, asdict
from typing import Annotated

import numpy as np

from .tensor import (
    Tensor, Parameter, ShapeError, ConfigError, check_field_types, config_from_dict,
    matmul, linear, add, mul, scale, gelu, softmax_rows, layer_norm, cross_attention,
    mean_axis, dropout, reshape, swap_axes, _replayed,
)

__all__ = [
    "ModelConfig", "OneBlockTransformer", "init_parameters",
    "frequency_bands", "position_grid", "fourier_encode", "tokenize",
]


@dataclass(frozen=True)
class ModelConfig:
    num_latents: Annotated[int, "[1, inf)"] = 16
    latent_dim: Annotated[int, "[1, inf)"] = 128
    cross_heads: Annotated[int, "[1, inf)"] = 1
    self_heads: Annotated[int, "[1, inf)"] = 1
    cross_head_dim: Annotated[int, "[1, inf)"] = 64
    self_head_dim: Annotated[int, "[1, inf)"] = 64
    self_per_cross: Annotated[int, "[0, inf)"] = 1
    num_freq_bands: Annotated[int, "[1, inf)"] = 12
    max_freq: Annotated[float, "[2, inf)"] = 128.0
    input_channels: Annotated[int, "[1, inf)"] = 14
    seq_len: Annotated[int, "[2, inf)"] = 1280
    num_classes: Annotated[int, "[2, inf)"] = 2
    ff_mult: Annotated[int, "[1, inf)"] = 4
    attn_dropout: Annotated[float, "[0, 1)"] = 0.10
    ff_dropout: Annotated[float, "[0, 1)"] = 0.10

    @property
    def token_width(self):
        """Channels plus interleaved sin/cos per band plus the raw position."""
        return self.input_channels + 2 * self.num_freq_bands + 1

    def __post_init__(self):
        check_field_types(ModelConfig, vars(self), "model config")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return config_from_dict(cls, d, "model config")


# ---------------------------------------------------------------------------
# tokenization

def frequency_bands(num_bands, max_freq):
    """Linearly spaced band frequencies from 1 to max_freq / 2, inclusive."""
    if num_bands < 1:
        raise ConfigError(f"num_bands must be >= 1, got {num_bands}")
    if max_freq < 2.0:
        raise ConfigError(f"max_freq must be >= 2, got {max_freq}")
    return np.linspace(1.0, max_freq / 2.0, num_bands)


def position_grid(seq_len):
    """seq_len positions evenly spaced on [-1, 1], endpoints included."""
    return np.linspace(-1.0, 1.0, seq_len)


def fourier_encode(positions, bands):
    """Per-position features [sin(pi f1 p), cos(pi f1 p), ..., p], shape [..., 2K+1]."""
    positions = np.asarray(positions, dtype=np.float64)
    ang = np.pi * positions[..., None] * bands
    out = np.empty(positions.shape + (2 * len(bands) + 1,))
    out[..., 0:-1:2] = np.sin(ang)
    out[..., 1:-1:2] = np.cos(ang)
    out[..., -1] = positions
    return out


def tokenize(x, cfg):
    """Turn a window [L, C] (or batch [B, L, C]) into tokens [..., L, C + 2K + 1].

    Every timestep becomes one token: its channel vector with the position
    features appended. Returns a leaf Tensor in the input's float precision.
    """
    arr = _check_window(x, cfg, "tokenize")
    L, C = arr.shape[-2:]
    dtype = arr.dtype if arr.dtype == np.float64 else np.float32
    pos = _position_features(L, cfg.num_freq_bands, cfg.max_freq)
    out = np.empty(arr.shape[:-1] + (C + pos.shape[-1],), dtype=dtype)
    out[..., :C] = arr
    out[..., C:] = pos
    return Tensor(out)


def _check_window(x, cfg, op):
    """x as an array, once it is a window [L, C] or a batch [B, L, C] of cfg's geometry."""
    if isinstance(x, Tensor):
        raise ShapeError(f"{op}: takes a window array [L, C] or [B, L, C], not a Tensor")
    arr = np.asarray(x)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"{op}: expected [L, C] or [B, L, C], got {arr.shape}")
    if arr.shape[-2:] != (cfg.seq_len, cfg.input_channels):
        raise ShapeError(
            f"{op}: window is {arr.shape[-2:]}, config expects "
            f"{(cfg.seq_len, cfg.input_channels)}")
    return arr


@functools.lru_cache(maxsize=8)
def _position_features(seq_len, num_freq_bands, max_freq, dtype=np.float64):
    """fourier_encode of the position grid, [seq_len, 2K + 1] in dtype, shared read-only."""
    pos = fourier_encode(position_grid(seq_len), frequency_bands(num_freq_bands, max_freq))
    pos = pos.astype(dtype, copy=False)
    pos.flags.writeable = False
    return pos


# ---------------------------------------------------------------------------
# modules

class _Registry:
    """Creates parameters with hierarchical names and keeps insertion order.
    With rng None nothing is drawn: weights and latents start at zero."""

    def __init__(self, rng, dtype):
        self.rng = rng
        self.dtype = dtype
        self.params = {}

    def _add(self, name, data):
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = Parameter(name, data.astype(self.dtype, copy=False))
        self.params[name] = p
        return p

    def weight(self, name, fan_in, fan_out):
        if self.rng is None:
            return self._add(name, np.zeros((fan_in, fan_out), self.dtype))
        bound = 1.0 / np.sqrt(fan_in)
        return self._add(name, self.rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    def bias(self, name, n):
        return self._add(name, np.zeros(n))

    def gain(self, name, n):
        return self._add(name, np.ones(n))

    def latents(self, name, m, d):
        if self.rng is None:
            return self._add(name, np.zeros((m, d), self.dtype))
        # truncated normal: resample anything beyond 2 sigma
        a = self.rng.normal(0.0, 0.02, size=(m, d))
        bad = np.abs(a) > 0.04
        while bad.any():
            a[bad] = self.rng.normal(0.0, 0.02, size=int(bad.sum()))
            bad = np.abs(a) > 0.04
        return self._add(name, a)


class Linear:
    def __init__(self, reg, name, fan_in, fan_out, use_bias):
        self.weight = reg.weight(f"{name}.weight", fan_in, fan_out)
        self.bias = reg.bias(f"{name}.bias", fan_out) if use_bias else None

    def __call__(self, t):
        return linear(t, self.weight, self.bias)


class LayerNorm:
    def __init__(self, reg, name, dim):
        self.gain = reg.gain(f"{name}.gain", dim)
        self.bias = reg.bias(f"{name}.bias", dim)

    def __call__(self, t):
        return layer_norm(t, self.gain, self.bias)


class Attention:
    """Multi-head scaled dot-product attention, queries and keys from separate inputs."""

    def __init__(self, reg, name, q_dim, kv_dim, heads, head_dim, out_dim):
        inner = heads * head_dim
        self.heads = heads
        self.head_dim = head_dim
        self.q = Linear(reg, f"{name}.q_proj", q_dim, inner, use_bias=False)
        self.k = Linear(reg, f"{name}.k_proj", kv_dim, inner, use_bias=False)
        self.v = Linear(reg, f"{name}.v_proj", kv_dim, inner, use_bias=False)
        self.out = Linear(reg, f"{name}.out_proj", inner, out_dim, use_bias=True)

    def _split(self, t):
        # [..., n, h*hd] -> [..., h, n, hd]
        t = reshape(t, t.shape[:-1] + (self.heads, self.head_dim))
        return swap_axes(t, -3, -2)

    def __call__(self, q_in, kv_in, attn_dropout=0.0, training=False, rng=None):
        q = self._split(self.q(q_in))
        k = self._split(self.k(kv_in))
        scores = scale(matmul(q, swap_axes(k, -1, -2)), 1.0 / np.sqrt(self.head_dim))
        del q, k                    # with no graph, nothing else holds a released local's array
        probs = dropout(softmax_rows(scores), attn_dropout, training, rng)
        del scores
        ctx = matmul(probs, self._split(self.v(kv_in)))
        del probs
        return self._merge(ctx)

    def _merge(self, ctx):
        # [..., h, m, hd] -> [..., m, h*hd] -> out_proj
        ctx = swap_axes(ctx, -3, -2)
        return self.out(reshape(ctx, ctx.shape[:-2] + (self.heads * self.head_dim,)))


class LatentCrossAttention(Attention):
    """Attention whose key and value projections are absorbed into the other side.

    K and V carry no bias, so with t = kv_in (width c) and per-head weights
    W_k, W_v [c, hd]:

        q kᵀ  = (q W_kᵀ) tᵀ       probs v = (probs t) W_v

    are the same products summed in another order. This order never builds
    the [..., n, h*hd] key and value tensors: tensor.cross_attention attends
    with the [..., h, m, c] queries q W_kᵀ/√hd straight over the tokens, and
    W_v applies to its [..., h, m, c] context. That wins when n ≫ m and
    c < hd (latents reading a long, narrow token sequence). Parameters, their
    names and their init are those of Attention; only the evaluation order
    differs.

    kv_norm, the LayerNorm over c that the module is built with, is applied
    inside tensor.cross_attention without forming kv_norm(t), so float results
    agree with Attention.__call__ over kv_norm(t) up to rounding. kv_in is
    either whole tokens [..., n, c], or windows [..., n, C] with pos [n, c - C],
    the position columns every window shares.
    """

    def __init__(self, reg, name, q_dim, kv_norm, heads, head_dim, out_dim):
        super().__init__(reg, name, q_dim, kv_norm.gain.shape[0], heads, head_dim, out_dim)
        self.kv_norm = kv_norm

    def __call__(self, q_in, kv_in, attn_dropout=0.0, training=False, rng=None, pos=None):
        wk, wv = (swap_axes(reshape(w, (w.shape[0], self.heads, self.head_dim)), 0, 1)
                  for w in (self.k.weight, self.v.weight))   # [h, c, hd]
        q = self._split(self.q(q_in))                               # [..., h, m, hd]
        qk = scale(matmul(q, swap_axes(wk, -1, -2)), 1.0 / np.sqrt(self.head_dim))
        ctx = cross_attention(qk, kv_in, pos, self.kv_norm.gain, self.kv_norm.bias,
                              attn_dropout, training, rng)
        return self._merge(matmul(ctx, wv))                         # [..., h, m, c] @ W_v


class GatedFeedForward:
    """down(main(x) * gelu(gate(x))) with hidden width ff_mult * dim."""

    def __init__(self, reg, name, dim, ff_mult):
        hidden = ff_mult * dim
        self.main = Linear(reg, f"{name}.main", dim, hidden, use_bias=True)
        self.gate = Linear(reg, f"{name}.gate", dim, hidden, use_bias=True)
        self.down = Linear(reg, f"{name}.down", hidden, dim, use_bias=True)

    def __call__(self, t, ff_dropout=0.0, training=False, rng=None):
        g = gelu(self.gate(t))          # before main(t), so gate(t) is freed first
        h = dropout(mul(self.main(t), g), ff_dropout, training, rng)
        return self.down(h)


class CrossBlock:
    """Latents attend to tokens, then a gated feed-forward; both residual, pre-norm.

    norm_kv is the attention's own kv_norm and runs inside its op, so a window
    with its pos columns is never made into a [B, n, c] token array.
    """

    def __init__(self, reg, name, cfg):
        d = cfg.latent_dim
        self.norm_q = LayerNorm(reg, f"{name}.norm_q", d)
        self.norm_kv = LayerNorm(reg, f"{name}.norm_kv", cfg.token_width)
        self.attn = LatentCrossAttention(reg, f"{name}.attn", d, self.norm_kv,
                                         cfg.cross_heads, cfg.cross_head_dim, d)
        self.norm_ff = LayerNorm(reg, f"{name}.norm_ff", d)
        self.ff = GatedFeedForward(reg, f"{name}.ff", d, cfg.ff_mult)

    def __call__(self, latents, x, cfg, training, rng, pos=None):
        att = self.attn(self.norm_q(latents), x, cfg.attn_dropout, training, rng, pos)
        latents = add(att, latents)
        h = self.ff(self.norm_ff(latents), cfg.ff_dropout, training, rng)
        return add(h, latents)


class SelfBlock:
    """Latent self-attention plus gated feed-forward; both residual, pre-norm."""

    def __init__(self, reg, name, cfg):
        d = cfg.latent_dim
        self.norm = LayerNorm(reg, f"{name}.norm", d)
        self.attn = Attention(reg, f"{name}.attn", d, d,
                              cfg.self_heads, cfg.self_head_dim, d)
        self.norm_ff = LayerNorm(reg, f"{name}.norm_ff", d)
        self.ff = GatedFeedForward(reg, f"{name}.ff", d, cfg.ff_mult)

    def __call__(self, latents, cfg, training, rng):
        x = self.norm(latents)
        latents = add(self.attn(x, x, cfg.attn_dropout, training, rng), latents)
        del x
        h = self.ff(self.norm_ff(latents), cfg.ff_dropout, training, rng)
        return add(h, latents)


class OneBlockTransformer:
    def __init__(self, cfg, seed=0, dtype=np.float32):
        """seed None draws nothing: every weight starts at zero (norm gains at one)."""
        self.cfg = cfg
        rng = None if seed is None else np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed)))
        reg = _Registry(rng, dtype)
        self.latents = reg.latents("latents", cfg.num_latents, cfg.latent_dim)
        self.cross = CrossBlock(reg, "cross", cfg)
        self.blocks = [SelfBlock(reg, f"self.{i}", cfg) for i in range(cfg.self_per_cross)]
        self.final_norm = LayerNorm(reg, "final_norm", cfg.latent_dim)
        self.head = Linear(reg, "head", cfg.latent_dim, cfg.num_classes, use_bias=True)
        self._params = reg.params

    # -- parameter access ---------------------------------------------------

    def parameters(self):
        return list(self._params.values())

    def param(self, name):
        return self._params[name]

    @property
    def num_params(self):
        return sum(p.data.size for p in self._params.values())

    def zero_grad(self):
        for p in self._params.values():
            p.zero_grad()

    def astype(self, dtype):
        for p in self._params.values():
            p.data = p.data.astype(dtype)
        return self

    # -- forward ------------------------------------------------------------

    def forward(self, x, training=False, rng=None):
        """Window(s) to logits. Accepts [L, C] -> [num_classes] or [B, L, C] -> [B, num_classes].

        x is a window array, never a Tensor, and never becomes tokens: the cross
        block reads it with the shared position features. An eval forward keeps no
        graph, and runs a batch as the fewest chunks, of sizes that differ by at most
        one window, whose widest op (eval_live_bytes) fits in EVAL_CHUNK_BYTES; a
        window wider than that is a chunk of its own. The chunks run on as many
        threads as numpy's OpenBLAS may use, up to the usable CPUs and to as many
        chunks as fit in EVAL_LIVE_BYTES; they depend only on the batch, never on
        the threads. A backward through its logits runs each chunk again with a
        graph, one chunk at a time (tensor._replayed).
        """
        cfg, lat = self.cfg, self.latents
        x = _check_window(x, cfg, "forward")
        pos = _position_features(cfg.seq_len, cfg.num_freq_bands, cfg.max_freq, lat.dtype)

        def run(windows):
            h = self.cross(lat, windows.astype(lat.dtype, copy=False), cfg, training, rng, pos)
            for block in self.blocks:
                h = block(h, cfg, training, rng)
            return self.head(mean_axis(self.final_norm(h), -2))

        if training:
            return run(x)
        spans = [slice(None)] if x.ndim == 2 else _eval_chunks(cfg, len(x), lat.dtype.itemsize)
        return _replayed([functools.partial(run, x[s]) for s in spans],
                         EVAL_LIVE_BYTES // EVAL_CHUNK_BYTES)


# the widest ops of the chunks an eval forward runs at once fit in EVAL_LIVE_BYTES, and
# that of one chunk of its batch in EVAL_CHUNK_BYTES: two chunks at once at most
EVAL_LIVE_BYTES = 8 << 20
EVAL_CHUNK_BYTES = EVAL_LIVE_BYTES // 2


def eval_live_bytes(cfg, batch, itemsize):
    """Bytes of the widest op's live set in a graph-free forward of batch windows, in
    closed form: the largest of the cross-attention's scores plus its transposed
    window, B·h·m·n + B·(C + 2)·n; three feed-forward hidden arrays, 3·B·m·ff·d; and
    three [B, m, h·hd] self-attention arrays plus one [B, h, m, m] score array."""
    m, n, d = cfg.num_latents, cfg.seq_len, cfg.latent_dim
    per_window = max(cfg.cross_heads * m * n + (cfg.input_channels + 2) * n,
                     3 * m * cfg.ff_mult * d,
                     3 * m * cfg.self_heads * cfg.self_head_dim + cfg.self_heads * m * m)
    return batch * per_window * itemsize


def _eval_chunks(cfg, batch, itemsize):
    """Slices of the fewest chunks of batch windows, sizes differing by at most one,
    whose eval_live_bytes fit in EVAL_CHUNK_BYTES (at least one window a chunk)."""
    most = max(1, EVAL_CHUNK_BYTES // eval_live_bytes(cfg, 1, itemsize))
    k = max(1, -(-batch // most))
    return [slice(batch * i // k, batch * (i + 1) // k) for i in range(k)]


def init_parameters(cfg, seed=0, dtype=np.float32):
    """Build a model with freshly initialised parameters (deterministic in seed;
    seed None leaves every weight at zero, for a caller that loads them)."""
    return OneBlockTransformer(cfg, seed=seed, dtype=dtype)
