"""Helpers shared by the benchmark runner and the command-process trace hook.

Nothing here imports onebt: spans, self time, the tail rule, the graph
walker and the metric-name rule are plain Python (plus numpy for array
sizes), so they can be tested without running a workload.
"""

import json
import os
import re
import time

import numpy as np

# One clock for every process: CLOCK_MONOTONIC is system-wide on Linux, so
# a span start in a worker and a launch time in the runner are comparable.
clock = time.monotonic

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

# Percentiles tried, highest first, by the tail rule.
TAIL_LADDER = (99, 95, 90, 75, 50)


def check_metric_name(name):
    """Raise ValueError unless name uses only [A-Za-z0-9_.-] and starts alphanumeric."""
    if not METRIC_NAME.match(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


# ---------------------------------------------------------------------------
# tail rule

def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return n * (100 - p) // 100


def tail_percentile(n, ladder=TAIL_LADDER):
    """Highest percentile in ladder with at least ten of n samples beyond it, or None."""
    for p in ladder:
        if samples_beyond(n, p) >= 10:
            return p
    return None


# ---------------------------------------------------------------------------
# spans

class Tracer:
    """In-memory spans: [pid, id, name, start, end, parent id or None].

    A span's layer is its name up to the first dot. With a sink path the
    spans are appended there as JSON lines each time the outermost open span
    of the process closes, so worker processes that never exit cleanly still
    leave their spans behind. A forked child starts with no spans.
    """

    def __init__(self, sink=None):
        self.sink = sink
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._flushed = 0

    def begin(self, name):
        span = [self.pid, len(self.spans), name, clock(), None,
                self._stack[-1][1] if self._stack else None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span[4] = clock()
        self._stack.pop()
        if not self._stack and self.sink is not None:
            self.flush()

    def flush(self):
        with open(self.sink, "a") as f:
            for s in self.spans[self._flushed:]:
                f.write(json.dumps(s) + "\n")
        self._flushed = len(self.spans)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def read_spans(paths):
    spans = []
    for path in paths:
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def layer_of(name):
    return name.split(".", 1)[0]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Seconds per layer: each span's duration minus the part its children cover."""
    children = {}
    for pid, sid, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault((pid, parent), []).append((start, end))
    out = {}
    for pid, sid, name, start, end, _ in spans:
        own = (end - start) - _covered(children.get((pid, sid), ()), start, end)
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + own
    return out


def durations(spans, name):
    return [s[4] - s[3] for s in spans if s[2] == name]


# ---------------------------------------------------------------------------
# autodiff graph, walked from outside the program

def _owner(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def walk_graph(root):
    """(op nodes, bytes) of the graph below root, each tensor counted once.

    Nodes are the distinct tensors reachable through `node.inputs` that were
    produced by an op. Bytes are computed from array sizes: the buffers owned
    by those tensors plus the arrays their backward closures keep alive,
    each buffer once, leaving out buffers of leaves (parameters and inputs).
    """
    seen = {}
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen[id(t)] = t
        if t.node is not None:
            stack.extend(t.node.inputs)
    ops = [t for t in seen.values() if t.node is not None]
    leaf_buffers = {id(_owner(t.data)) for t in seen.values() if t.node is None}
    buffers = {}
    for t in ops:
        arrays = [t.data]
        for cell in t.node.backward_fn.__closure__ or ():
            try:
                value = cell.cell_contents
            except ValueError:      # empty cell
                continue
            if isinstance(value, np.ndarray):
                arrays.append(value)
        for a in arrays:
            o = _owner(a)
            if id(o) not in leaf_buffers:
                buffers[id(o)] = o.nbytes
    return len(ops), sum(buffers.values())
