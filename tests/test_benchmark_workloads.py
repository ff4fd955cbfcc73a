"""The benchmark's in-process per-component timer runs against the current
model, so a refactor of the model's modules that breaks it fails here, not
only in a traced benchmark run."""

import sys
from pathlib import Path

import numpy as np
import pytest

from onebt.cost import cost_report
from onebt.model import init_parameters
from conftest import tiny_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads     # noqa: E402  (needs perfbench/ on the path)


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_component_metrics_on_tiny_model(training):
    cfg = tiny_config(attn_dropout=0.1, ff_dropout=0.1)
    model = init_parameters(cfg, seed=0)
    X = np.random.default_rng(0).standard_normal((2, cfg.seq_len, cfg.input_channels))
    out = workloads.Outcome()
    workloads.component_metrics(out, model, X.astype(np.float32), training, repeats=1, seed=0)
    flops = cost_report(cfg).breakdown["flops"]
    for key in ("cross_attn", "cross_ff", "self_attn_blocks", "head", "norms"):
        assert out.metrics[f"model.{key}.fwd_s"] > 0
        assert (f"model.{key}.bwd_s" in out.metrics) == training
        assert (f"model.{key}.gflops" in out.metrics) == bool(flops[key])
    assert all(p.grad is None for p in model.parameters())
