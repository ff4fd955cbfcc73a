"""One-block latent-attention transformer for multichannel EEG windows.

A window of L timesteps x C channels is tokenized per timestep: the raw
channel vector is concatenated with Fourier features of the timestep's
position on a [-1, 1] grid. A small set of learned latent vectors cross-
attends to the token sequence once, runs a configurable number of latent
self-attention blocks, and the mean over latents feeds a linear classifier.

All blocks are pre-norm with residual connections; feed-forwards are gated
(two input projections, one passed through gelu, multiplied elementwise).
"""

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from .tensor import (
    Tensor, Parameter, ShapeError, ConfigError, config_from_dict,
    matmul, linear, add, mul, scale, gelu, softmax_rows, layer_norm,
    mean_axis, dropout, reshape, swap_axes,
)

__all__ = [
    "ModelConfig", "OneBlockTransformer", "init_parameters",
    "frequency_bands", "position_grid", "fourier_encode", "tokenize",
]


@dataclass(frozen=True)
class ModelConfig:
    num_latents: int = 16
    latent_dim: int = 128
    cross_heads: int = 1
    self_heads: int = 1
    cross_head_dim: int = 64
    self_head_dim: int = 64
    self_per_cross: int = 1
    num_freq_bands: int = 12
    max_freq: float = 128.0
    input_channels: int = 14
    seq_len: int = 1280
    num_classes: int = 2
    ff_mult: int = 4
    attn_dropout: float = 0.10
    ff_dropout: float = 0.10

    @property
    def token_width(self):
        """Channels plus interleaved sin/cos per band plus the raw position."""
        return self.input_channels + 2 * self.num_freq_bands + 1

    def __post_init__(self):
        positive = ("num_latents", "latent_dim", "cross_heads", "self_heads",
                    "cross_head_dim", "self_head_dim", "num_freq_bands",
                    "input_channels", "ff_mult")
        for name in positive:
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.num_classes, int) or self.num_classes < 2:
            raise ConfigError(f"num_classes must be an integer >= 2, got {self.num_classes!r}")
        if not isinstance(self.self_per_cross, int) or self.self_per_cross < 0:
            raise ConfigError(f"self_per_cross must be a non-negative integer, got {self.self_per_cross!r}")
        if not isinstance(self.seq_len, int) or self.seq_len < 2:
            raise ConfigError(f"seq_len must be an integer >= 2, got {self.seq_len!r}")
        if not 2.0 <= self.max_freq < math.inf:       # False for NaN
            raise ConfigError(f"max_freq must be finite and >= 2, got {self.max_freq}")
        for name in ("attn_dropout", "ff_dropout"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {v}")

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
    arr = np.asarray(x.data if isinstance(x, Tensor) else x)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"tokenize: expected [L, C] or [B, L, C], got {arr.shape}")
    L, C = arr.shape[-2], arr.shape[-1]
    if L != cfg.seq_len or C != cfg.input_channels:
        raise ShapeError(
            f"tokenize: window is {(L, C)}, config expects "
            f"{(cfg.seq_len, cfg.input_channels)}")
    dtype = arr.dtype if arr.dtype == np.float64 else np.float32
    pos = _position_features(L, cfg.num_freq_bands, cfg.max_freq)
    out = np.empty(arr.shape[:-1] + (C + pos.shape[-1],), dtype=dtype)
    out[..., :C] = arr
    out[..., C:] = pos
    return Tensor(out)


@functools.lru_cache(maxsize=8)
def _position_features(seq_len, num_freq_bands, max_freq):
    """fourier_encode of the position grid, [seq_len, 2K + 1], shared read-only."""
    pos = fourier_encode(position_grid(seq_len), frequency_bands(num_freq_bands, max_freq))
    pos.flags.writeable = False
    return pos


# ---------------------------------------------------------------------------
# modules

class _Registry:
    """Creates parameters with hierarchical names and keeps insertion order."""

    def __init__(self, rng, dtype):
        self.rng = rng
        self.dtype = dtype
        self.params = {}

    def _add(self, name, data):
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = Parameter(name, data.astype(self.dtype))
        self.params[name] = p
        return p

    def weight(self, name, fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        return self._add(name, self.rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    def bias(self, name, n):
        return self._add(name, np.zeros(n))

    def gain(self, name, n):
        return self._add(name, np.ones(n))

    def latents(self, name, m, d):
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
        v = self._split(self.v(kv_in))
        scores = scale(matmul(q, swap_axes(k, -1, -2)), 1.0 / np.sqrt(self.head_dim))
        probs = dropout(softmax_rows(scores), attn_dropout, training, rng)
        return self._merge(matmul(probs, v))

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
    the [..., n, h*hd] key and value tensors; its cost is about
    2·m·n·c·h + 2·m·c·hd·h MAC against 2·n·c·hd·h + 2·m·n·hd·h, so it
    wins when n ≫ m and c < hd (latents reading a long, narrow token
    sequence). Parameters, their names and their init are those of
    Attention; only the evaluation order differs, so float results agree
    with Attention.__call__ up to rounding.
    """

    def __call__(self, q_in, kv_in, attn_dropout=0.0, training=False, rng=None):
        wk, wv = (swap_axes(reshape(w, (w.shape[0], self.heads, self.head_dim)), 0, 1)
                  for w in (self.k.weight, self.v.weight))   # [h, c, hd]
        q = self._split(self.q(q_in))                               # [..., h, m, hd]
        qk = scale(matmul(q, swap_axes(wk, -1, -2)), 1.0 / np.sqrt(self.head_dim))
        t = reshape(kv_in, kv_in.shape[:-2] + (1,) + kv_in.shape[-2:])   # [..., 1, n, c]
        scores = matmul(qk, swap_axes(t, -1, -2))                   # [..., h, m, n]
        probs = dropout(softmax_rows(scores), attn_dropout, training, rng)
        return self._merge(matmul(matmul(probs, t), wv))


class GatedFeedForward:
    """down(main(x) * gelu(gate(x))) with hidden width ff_mult * dim."""

    def __init__(self, reg, name, dim, ff_mult):
        hidden = ff_mult * dim
        self.main = Linear(reg, f"{name}.main", dim, hidden, use_bias=True)
        self.gate = Linear(reg, f"{name}.gate", dim, hidden, use_bias=True)
        self.down = Linear(reg, f"{name}.down", hidden, dim, use_bias=True)

    def __call__(self, t, ff_dropout=0.0, training=False, rng=None):
        h = mul(self.main(t), gelu(self.gate(t)))
        h = dropout(h, ff_dropout, training, rng)
        return self.down(h)


class CrossBlock:
    """Latents attend to tokens, then a gated feed-forward; both residual, pre-norm."""

    def __init__(self, reg, name, cfg):
        d = cfg.latent_dim
        self.norm_q = LayerNorm(reg, f"{name}.norm_q", d)
        self.norm_kv = LayerNorm(reg, f"{name}.norm_kv", cfg.token_width)
        self.attn = LatentCrossAttention(reg, f"{name}.attn", d, cfg.token_width,
                                         cfg.cross_heads, cfg.cross_head_dim, d)
        self.norm_ff = LayerNorm(reg, f"{name}.norm_ff", d)
        self.ff = GatedFeedForward(reg, f"{name}.ff", d, cfg.ff_mult)

    def __call__(self, latents, tokens, cfg, training, rng):
        att = self.attn(self.norm_q(latents), self.norm_kv(tokens),
                        cfg.attn_dropout, training, rng)
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
        h = self.ff(self.norm_ff(latents), cfg.ff_dropout, training, rng)
        return add(h, latents)


class OneBlockTransformer:
    def __init__(self, cfg, seed=0, dtype=np.float32):
        self.cfg = cfg
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
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
        """Window(s) to logits. Accepts [L, C] -> [num_classes] or [B, L, C] -> [B, num_classes]."""
        tokens = x if isinstance(x, Tensor) else tokenize(x, self.cfg)
        if tokens.shape[-1] != self.cfg.token_width:
            raise ShapeError(
                f"forward: token width {tokens.shape[-1]} != configured {self.cfg.token_width}")
        lat = self.latents
        if lat.dtype != tokens.dtype:
            tokens = Tensor(tokens.data.astype(lat.dtype))
        lat = self.cross(lat, tokens, self.cfg, training, rng)
        for block in self.blocks:
            lat = block(lat, self.cfg, training, rng)
        pooled = mean_axis(self.final_norm(lat), -2)
        return self.head(pooled)


def init_parameters(cfg, seed=0, dtype=np.float32):
    """Build a model with freshly initialised parameters (deterministic in seed)."""
    return OneBlockTransformer(cfg, seed=seed, dtype=dtype)
