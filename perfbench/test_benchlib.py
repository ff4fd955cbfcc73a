"""Tests for the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os

import numpy as np
import pytest

import benchlib
from benchlib import self_times, tail_percentile, walk_graph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, 50), (39, 50), (40, 75),
    (99, 75), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert benchlib.samples_beyond(n, expected) >= 10


# -- spans and self time ----------------------------------------------------

def span(sid, name, start, end, parent=None, pid=1):
    return [pid, sid, name, start, end, parent]


def test_self_time_subtracts_children():
    spans = [span(0, "harness.run_fold", 0.0, 10.0),
             span(1, "train.fit", 1.0, 4.0, parent=0),
             span(2, "train.evaluate", 5.0, 6.0, parent=0),
             span(3, "tensor.backward", 2.0, 3.0, parent=1)]
    assert self_times(spans) == pytest.approx(
        {"harness": 6.0, "train": 3.0, "tensor": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, "cli.command", 0.0, 10.0),
             span(1, "data.a", 1.0, 5.0, parent=0),
             span(2, "data.b", 3.0, 7.0, parent=0)]
    assert self_times(spans)["cli"] == pytest.approx(4.0)


def test_self_time_keeps_processes_apart():
    spans = [span(0, "harness.run_fold", 0.0, 4.0, pid=1),
             span(0, "harness.run_fold", 0.0, 4.0, pid=2),
             span(1, "train.fit", 0.0, 3.0, parent=0, pid=2)]
    assert self_times(spans) == pytest.approx({"harness": 5.0, "train": 3.0})


def test_tracer_nests_and_flushes_at_outermost_end(tmp_path):
    sink = tmp_path / "spans.jsonl"
    tracer = benchlib.Tracer(sink=str(sink))
    inner = tracer.wrap("tensor.backward", lambda x: x + 1)
    outer = tracer.wrap("train.fit", lambda x: inner(x) * 2)
    assert outer(1) == 4
    spans = benchlib.read_spans([sink])
    assert [s[2] for s in spans] == ["train.fit", "tensor.backward"]
    assert spans[1][5] == spans[0][1] and spans[0][5] is None
    assert spans[0][3] <= spans[1][3] <= spans[1][4] <= spans[0][4]


# -- graph walker -----------------------------------------------------------

def test_graph_walker_counts_shared_input_once():
    from onebt.tensor import Tensor, add, matmul, mul
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
    h = matmul(x, w)              # shared by both operands below
    y = mul(h, h)
    z = add(y, h)
    nodes, nbytes = walk_graph(z)
    assert nodes == 3             # h, y, z: leaves are not op nodes
    assert nbytes == 3 * 2 * 4 * 4   # three [2, 4] float32 buffers, no leaf buffers


def test_graph_walker_counts_closure_arrays_and_views_once():
    from onebt.tensor import Tensor, gelu, reshape
    x = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)
    g = gelu(x)                   # keeps erf(x) alive in its backward closure
    r = reshape(g, (16,))         # a view of g's buffer
    nodes, nbytes = walk_graph(r)
    assert nodes == 2
    assert nbytes == 2 * 16 * 4   # g's buffer and the erf buffer; x excluded


# -- metric names -----------------------------------------------------------

def test_declared_metric_names_are_valid():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        benchlib.check_metric_name(name)


@pytest.mark.parametrize("bad", ["", ".x", "a b", "tensor/backward", "é", "x" * 65])
def test_bad_metric_names_are_refused(bad):
    with pytest.raises(ValueError):
        benchlib.check_metric_name(bad)
