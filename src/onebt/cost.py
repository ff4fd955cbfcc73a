"""Closed-form parameter and FLOP counts for any model configuration.

Parameter counts are exact and match runtime enumeration by construction
(same bias/norm/feed-forward choices). FLOPs count one multiply-accumulate
in a matrix product as one FLOP, for a single forward window of shape
(seq_len, input_channels); elementwise ops, norms, softmax and the
tokenizer are excluded.

FLOPs count the paper's evaluation order, in which cross-attention projects
every token to keys and values. At run time `model.LatentCrossAttention`
computes the same products in the latent-side order, which does fewer MACs
when tokens far outnumber latents; the counts here, `onebt cost` and the
pinned tables do not follow it. A time set against these counts (achieved
GFLOP/s) is therefore paper-convention MACs per second.
"""

from dataclasses import dataclass, field

from .model import ModelConfig

__all__ = ["CostReport", "cost_report", "TABLE_PRESETS"]

FLOP_CONVENTION = "1 MAC = 1 FLOP; matmuls only (projections, attention scores/values, feed-forwards, head)"


@dataclass
class CostReport:
    params: int
    params_m: float
    flops: int
    gflops: float
    breakdown: dict = field(default_factory=dict)
    convention: str = FLOP_CONVENTION


def _param_breakdown(cfg):
    d, c = cfg.latent_dim, cfg.token_width
    ic = cfg.cross_heads * cfg.cross_head_dim
    isf = cfg.self_heads * cfg.self_head_dim
    hid = cfg.ff_mult * d
    nblk = cfg.self_per_cross

    ff = 2 * (d * hid + hid) + hid * d + d          # main + gate (with bias) and down
    self_attn = 3 * d * isf + isf * d + d           # qkv (no bias) + out proj (bias)
    return {
        "latents": cfg.num_latents * d,
        "cross_attn": d * ic + 2 * c * ic + ic * d + d,
        "cross_ff": ff,
        "self_attn_blocks": nblk * (self_attn + ff),
        "head": d * cfg.num_classes + cfg.num_classes,
        "norms": (2 * d + 2 * c) + 2 * d + nblk * 4 * d + 2 * d,
    }


def _flop_breakdown(cfg):
    m, d, c, L = cfg.num_latents, cfg.latent_dim, cfg.token_width, cfg.seq_len
    ic = cfg.cross_heads * cfg.cross_head_dim
    isf = cfg.self_heads * cfg.self_head_dim
    hid = cfg.ff_mult * d

    ff = 3 * m * d * hid                            # main, gate, down
    cross = m * d * ic + 2 * L * c * ic + 2 * m * L * ic + m * ic * d
    self_blk = 3 * m * d * isf + 2 * m * m * isf + m * isf * d + ff
    return {
        "latents": 0,
        "cross_attn": cross,
        "cross_ff": ff,
        "self_attn_blocks": cfg.self_per_cross * self_blk,
        "head": d * cfg.num_classes,
        "norms": 0,
    }


def cost_report(cfg):
    """Exact parameter count and conventioned FLOP estimate for one config."""
    pb = _param_breakdown(cfg)
    fb = _flop_breakdown(cfg)
    params = sum(pb.values())
    flops = sum(fb.values())
    return CostReport(
        params=params,
        params_m=round(params / 1e6, 2),
        flops=flops,
        gflops=round(flops / 1e9, 2),
        breakdown={"params": pb, "flops": fb},
    )


def _cfg(num_latents, latent_dim, self_heads, cross_head_dim, self_head_dim, blocks):
    return ModelConfig(
        num_latents=num_latents, latent_dim=latent_dim,
        cross_heads=1, self_heads=self_heads,
        cross_head_dim=cross_head_dim, self_head_dim=self_head_dim,
        self_per_cross=blocks,
    )


# Ablation presets mirroring the published tables: 5 + 4 + 3 + 3 row-blocks,
# fifteen distinct configurations in total.
TABLE_PRESETS = {
    "table1": [  # self-attention blocks per cross-attention
        (f"blocks={b}", _cfg(32, 128, 8, 64, 64, b)) for b in (8, 6, 4, 2, 1)
    ],
    "table2": [  # self-attention heads, single block
        (f"self_heads={h}", _cfg(32, 128, h, 64, 64, 1)) for h in (6, 4, 2, 1)
    ],
    "table3": [  # latent count x latent dim
        (f"latents={m},dim={d}", _cfg(m, d, 1, 64, 64, 1))
        for m, d in ((32, 64), (16, 128), (16, 64))
    ],
    "table4": [  # cross x self head dims
        (f"cross_hd={c},self_hd={s}", _cfg(16, 128, 1, c, s, 1))
        for c, s in ((64, 32), (32, 64), (32, 32))
    ],
}
