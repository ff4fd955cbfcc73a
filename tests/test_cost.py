"""Cost model: closed forms vs runtime enumeration, published-table
reproduction, analytic deltas, and scaling properties."""

import itertools

import numpy as np
import pytest

from onebt.cost import TABLE_PRESETS, cost_report
from onebt.model import ModelConfig, init_parameters
from reference_tables import PUBLISHED, RATIO_PAIR

ALL_ROWS = [(t, label, cfg) for t, rows in TABLE_PRESETS.items()
            for label, cfg in rows]


def preset_cfg(table, label):
    return dict(TABLE_PRESETS[table])[label]


def test_fifteen_distinct_configs():
    seen = {tuple(sorted(cfg.to_dict().items())) for _, _, cfg in ALL_ROWS}
    assert len(ALL_ROWS) == 15 and len(seen) == 15


@pytest.mark.parametrize("table,label,cfg", ALL_ROWS,
                         ids=[f"{t}/{l}" for t, l, _ in ALL_ROWS])
def test_closed_form_equals_runtime_enumeration(table, label, cfg):
    rep = cost_report(cfg)
    model = init_parameters(cfg, seed=0)
    assert rep.params == model.num_params
    assert rep.params == sum(rep.breakdown["params"].values())
    assert rep.flops == sum(rep.breakdown["flops"].values())


@pytest.mark.parametrize("table,label,cfg", ALL_ROWS,
                         ids=[f"{t}/{l}" for t, l, _ in ALL_ROWS])
def test_params_match_published(table, label, cfg):
    printed = PUBLISHED[(table, label)]["params_m"]
    rep = cost_report(cfg)
    assert rep.params_m == printed                       # 2-decimal rounding
    assert abs(rep.params - printed * 1e6) <= 0.03 * printed * 1e6


def test_breakdown_keys_and_nonnegative():
    rep = cost_report(ModelConfig())
    parts = {"latents", "cross_attn", "cross_ff",
             "self_attn_blocks", "head", "norms"}
    assert set(rep.breakdown) == {"params", "flops"}
    for side in ("params", "flops"):
        assert set(rep.breakdown[side]) == parts
        assert all(v >= 0 for v in rep.breakdown[side].values())
    assert "MAC" in rep.convention


def test_per_head_delta_exact():
    # single-block configs differing only in self-attention heads
    p8 = cost_report(preset_cfg("table1", "blocks=1")).params      # 8 heads
    p1 = cost_report(preset_cfg("table2", "self_heads=1")).params  # 1 head
    assert p8 - p1 == 7 * 32768


def test_per_block_delta_constant_and_near_printed():
    cfgs = {b: preset_cfg("table1", f"blocks={b}") for b in (8, 6, 4, 2, 1)}
    params = {b: cost_report(c).params for b, c in cfgs.items()}
    deltas = {(params[8] - params[1]) / 7, (params[8] - params[6]) / 2,
              (params[6] - params[4]) / 2, (params[4] - params[2]) / 2,
              (params[2] - params[1]) / 1}
    assert len(deltas) == 1                              # linear in block count
    (delta,) = deltas
    assert abs(delta - 0.460e6) <= 0.03 * 0.460e6


def test_gflops_ratio_latent_halving():
    (t_a, l_a), (t_b, l_b) = RATIO_PAIR
    f32 = cost_report(preset_cfg(t_a, l_a)).flops
    f16 = cost_report(preset_cfg(t_b, l_b)).flops
    assert 1.6 <= f32 / f16 <= 2.4


@pytest.mark.parametrize("table,label,cfg", ALL_ROWS,
                         ids=[f"{t}/{l}" for t, l, _ in ALL_ROWS])
def test_gflops_within_half_of_published(table, label, cfg):
    printed = PUBLISHED[(table, label)]["gflops"]
    got = cost_report(cfg).flops / 1e9
    assert abs(got - printed) <= 0.5 * printed


def test_flops_monotone_in_every_knob():
    base = dict(num_latents=16, latent_dim=64, cross_heads=1, self_heads=2,
                cross_head_dim=32, self_head_dim=32, self_per_cross=2,
                num_freq_bands=8, seq_len=256, input_channels=14)
    f0 = cost_report(ModelConfig(**base)).flops
    for knob in ("num_latents", "latent_dim", "cross_heads", "self_heads",
                 "cross_head_dim", "self_head_dim", "self_per_cross",
                 "num_freq_bands"):
        bumped = dict(base, **{knob: base[knob] + 1})
        assert cost_report(ModelConfig(**bumped)).flops > f0, knob


def test_params_invariant_to_seq_len_flops_affine():
    cfgs = [ModelConfig(seq_len=L) for L in (128, 256, 384, 512)]
    reports = [cost_report(c) for c in cfgs]
    assert len({r.params for r in reports}) == 1
    flops = [r.flops for r in reports]
    diffs = np.diff(flops)
    assert len(set(diffs)) == 1 and diffs[0] > 0        # affine in L


def test_default_flops_independent_recount():
    """Recount the paper-default FLOPs from first principles, one [rows x
    inner] @ [inner x cols] product at a time, in the paper's order: K and V
    project all L tokens. The runtime cross-attention evaluates the same
    products in a cheaper order; the closed form keeps the paper's count."""
    m, d, c, L, hd, h = 16, 128, 39, 1280, 64, 512   # h: ff hidden
    products = [
        (m, d, hd), (L, c, hd), (L, c, hd),              # cross q, k, v
        (m, hd, L), (m, L, hd), (m, hd, d),              # scores, probs @ v, out
        (m, d, h), (m, d, h), (m, h, d),                 # cross ff
        (m, d, hd), (m, d, hd), (m, d, hd),              # self q, k, v
        (m, hd, m), (m, m, hd), (m, hd, d),              # self scores, values, out
        (m, d, h), (m, d, h), (m, h, d),                 # self ff
        (1, d, 2),                                       # head
    ]
    manual = sum(r * k * n for r, k, n in products)
    rep = cost_report(ModelConfig())
    assert rep.flops == manual == 16122112
    assert rep.breakdown["flops"]["cross_attn"] == 9273344


def test_params_independent_oracle_recount():
    """Recount one config from first principles, shape by shape, without the
    package's formula: walk the documented layer list and sum products."""
    cfg = ModelConfig(num_latents=16, latent_dim=128, cross_heads=1,
                      self_heads=1, cross_head_dim=64, self_head_dim=64,
                      self_per_cross=1)
    d, c, h = 128, 39, 512              # latent dim, token width, ff hidden
    shapes = [
        (16, 128),                                       # latents
        (d,), (d,), (c,), (c,),                          # cross norms
        (d, 64), (c, 64), (c, 64), (64, d), (d,),        # cross attn qkvo
        (d,), (d,),                                      # cross ff norm
        (d, h), (h,), (d, h), (h,), (h, d), (d,),        # cross ff
        (d,), (d,),                                      # self norm
        (d, 64), (d, 64), (d, 64), (64, d), (d,),        # self attn
        (d,), (d,),                                      # self ff norm
        (d, h), (h,), (d, h), (h,), (h, d), (d,),        # self ff
        (d,), (d,),                                      # final norm
        (d, 2), (2,),                                    # head
    ]
    manual = sum(int(np.prod(s)) for s in shapes)
    assert cost_report(cfg).params == manual == 453584


def test_runtime_enumeration_random_configs():
    rng = np.random.default_rng(0)
    axes = dict(num_latents=(2, 5), latent_dim=(4, 8), cross_heads=(1, 2),
                self_heads=(1, 3), cross_head_dim=(2, 4), self_head_dim=(2, 5),
                self_per_cross=(0, 2), num_freq_bands=(1, 3),
                input_channels=(1, 4), num_classes=(2, 3), ff_mult=(1, 3))
    for _ in range(12):
        kw = {k: int(rng.integers(lo, hi + 1)) for k, (lo, hi) in axes.items()}
        cfg = ModelConfig(seq_len=8, **kw)
        assert cost_report(cfg).params == init_parameters(cfg, seed=1).num_params, kw
