"""The workloads. Each returns an Outcome: checks, metrics and report lines.

train_step and eval_deep run in this process and time calls into onebt's
public functions. loso_serial times the `onebt` command itself, launched
the way the installed console script launches it.

End-to-end metrics are the same on every workload; an "op" is one
train step, one eval batch or one `onebt loso` command. Per-layer metrics
come from a traced run; a layer that is not on a workload's path reads 0.
"""

import hashlib
import itertools
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import onebt.data
import onebt.model
from onebt.cost import TABLE_PRESETS, cost_report
from onebt.data import SynthSpec
from onebt.model import ModelConfig, init_parameters, tokenize
from onebt.tensor import Tensor, backward, cross_entropy_label_smoothed, mean_axis, reshape
from onebt.train import AdamW, TrainConfig

import benchlib
from benchlib import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOOK = Path(__file__).resolve().parent / "hook"

# Each run builds INPUT_SETS input sets (data and model) from seeds derived
# from --seed, and its ops rotate through them. Op cost depends on the
# inputs (about 10% between seeds for loso_serial), so a run that averages
# over several sets reads steadier. setup_s is the median of the builds.
INPUT_SETS = 3
TRAIN_BATCH = 32
TRAIN_WARMUP_STEPS = 2
FINAL_LOSS_STEP = 20          # final_loss: loss of this step of the first set, from init
EVAL_BATCH = 64
# float32 eval logits against a float64 forward of the same weights
EVAL_CHECK_WINDOWS = 4
EVAL_ATOL, EVAL_RTOL = 1e-4, 1e-3

# LOSO dataset and command: 11 subjects x 3 tasks x 2 levels x 2 windows,
# one task, one epoch, batch 32 (the paper default)
LOSO_SUBJECTS, LOSO_PER_LEVEL, LOSO_SEQ_LEN = 11, 2, 1280
LOSO_TASK, LOSO_EPOCHS = "IQ", 1
LOSO_TRAIN_WINDOWS = (LOSO_SUBJECTS - 1) * 2 * LOSO_PER_LEVEL
LOSO_WINDOWS = LOSO_SUBJECTS * (LOSO_EPOCHS * LOSO_TRAIN_WINDOWS + 2 * LOSO_PER_LEVEL)
COMMAND_TIMEOUT_S = 100
# what the `onebt` console script runs
LAUNCHER = "import sys; from onebt.cli import main; sys.exit(main())"


class Outcome:
    """Checks attempted and failed, metrics by name, and report lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.named = []         # (name, value, unit, note)
        self.env = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def name(self, name, value, unit, note=""):
        self.named.append((name, value, unit, note))


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(op, seconds):
    """Run op() back to back for `seconds`; return each call's duration."""
    times = []
    deadline = clock() + seconds
    while clock() < deadline:
        t0 = clock()
        op()
        times.append(clock() - t0)
    return times


def op_metrics(out, times, windows_per_op, alias):
    """op_s_p50 and windows_per_s, and workload-named p50 and p90 report lines.

    p90 is not a bounded metric: on a 2-core machine it spread 7-16% from run to run.
    """
    p50, p90 = statistics.median(times), float(np.percentile(times, 90))
    out.metrics.update(op_s_p50=p50,
                       windows_per_s=windows_per_op * len(times) / math.fsum(times))
    tail = benchlib.tail_percentile(len(times))
    note = (f"n={len(times)}, {benchlib.samples_beyond(len(times), 90)} beyond p90; "
            f"tail rule gives p{tail}" if tail else f"n={len(times)}, below the tail rule")
    out.name(f"{alias}_p50", p50, "s", f"n={len(times)}")
    out.name(f"{alias}_p90", p90, "s", note)


def _dataset_windows(n_windows_per_cell, seed, generate):
    """Z-scored synthetic windows (one subject) and labels, from the seed."""
    spec = SynthSpec(n_subjects=1, samples_per_cell=n_windows_per_cell)
    _, samples = generate(spec, seed=seed)
    X = np.stack([s.signal for s in samples])
    y = np.array([s.label for s in samples], dtype=np.int64)
    mean, std = X.mean(axis=(0, 1)), X.std(axis=(0, 1))
    return ((X - mean) / std).astype(np.float32), y


def _rotating_batches(n, batch):
    k = 0
    while True:
        yield (k * batch + np.arange(batch)) % n
        k += 1


def input_seeds(seed):
    """The seeds of a run's input sets; the same --seed gives the same sets."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(INPUT_SETS)]


def rotate(ops):
    """One op: the next of ops, round robin."""
    turn = itertools.cycle(ops)
    return lambda: next(turn)()


# ---------------------------------------------------------------------------
# per-component timing (model.<key>.*), calling each component directly

def _component_calls(model, training, rng):
    """{cost breakdown key: [(callable, input names)]}."""
    cfg, cross = model.cfg, model.cross
    a_drop, f_drop = cfg.attn_dropout, cfg.ff_dropout
    calls = {
        "cross_attn": [(lambda q, kv: cross.attn(q, kv, a_drop, training, rng), ("lat", "tok"))],
        "cross_ff": [(lambda x: cross.ff(x, f_drop, training, rng), ("lat",))],
        "self_attn_blocks": [],
        "head": [(model.head, ("pooled",))],
        "norms": [(cross.norm_q, ("lat",)), (cross.norm_kv, ("tok",)),
                  (cross.norm_ff, ("lat",)), (model.final_norm, ("lat",))],
    }
    for b in model.blocks:
        calls["self_attn_blocks"] += [
            (lambda x, b=b: b.attn(x, x, a_drop, training, rng), ("lat",)),
            (lambda x, b=b: b.ff(x, f_drop, training, rng), ("lat",))]
        calls["norms"] += [(b.norm, ("lat",)), (b.norm_ff, ("lat",))]
    return calls


def component_metrics(out, model, X, training, repeats, seed):
    """Median forward (and, when training, backward) seconds per cost key.

    Inputs are leaf tensors that require grad when training. Backward runs
    from a scalar mean of the component output, so it includes that one
    reduction's backward.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    b, cfg = len(X), model.cfg
    arrays = {"tok": tokenize(X, cfg).data,
              "lat": rng.standard_normal((b, cfg.num_latents, cfg.latent_dim)).astype(np.float32),
              "pooled": rng.standard_normal((b, cfg.latent_dim)).astype(np.float32)}
    flops = cost_report(cfg).breakdown["flops"]
    for key, calls in _component_calls(model, training, rng).items():
        fwd, bwd = [], []
        for _ in range(repeats):
            f = g = 0.0
            for fn, names in calls:
                args = [Tensor(arrays[n], requires_grad=training) for n in names]
                t0 = clock()
                y = fn(*args)
                f += clock() - t0
                if training:
                    root = mean_axis(reshape(y, (-1,)), 0)
                    t0 = clock()
                    backward(root)
                    g += clock() - t0
                    model.zero_grad()
            fwd.append(f)
            bwd.append(g)
        f50 = statistics.median(fwd)
        out.metrics[f"model.{key}.fwd_s"] = f50
        if training:
            out.metrics[f"model.{key}.bwd_s"] = statistics.median(bwd)
        if flops[key]:
            out.metrics[f"model.{key}.gflops"] = flops[key] * b / f50 / 1e9


def span_metrics(out, spans, n_ops, timed):
    """Per-op self time of each layer, and median span time for each (metric, span)."""
    for layer, s in benchlib.self_times(spans).items():
        out.metrics[f"{layer}.self_s"] = s / n_ops
    for metric, name in timed:
        d = benchlib.durations(spans, name)
        if d:
            out.metrics[metric] = statistics.median(d)


def overhead(out, untraced, traced):
    out.metrics["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced


def _array_sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# in-process workloads

class _Patch:
    """Wrap module attributes in spans for the duration of a with block."""

    def __init__(self, tracer, targets):
        self.tracer, self.targets, self.saved = tracer, targets, []

    def __enter__(self):
        for owner, attr, name in self.targets:
            fn = getattr(owner, attr)
            self.saved.append((owner, attr, fn))
            setattr(owner, attr, self.tracer.wrap(name, fn))

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)


def _setup(out, build, seed, tracer):
    """build(s) for each input seed; setup_s is the median time. Returns the builds."""
    times, built = [], []
    with _Patch(tracer, [(onebt.data, "generate_synthetic", "data.generate_synthetic")]):
        for s in input_seeds(seed):
            t0 = clock()
            built.append(build(s))
            times.append(clock() - t0)
    out.metrics["setup_s"] = statistics.median(times)
    out.name("setup_s", out.metrics["setup_s"], "s", f"median of {INPUT_SETS}")
    out.metrics["data.generate_s"] = statistics.median(
        benchlib.durations(tracer.spans, "data.generate_synthetic"))
    return built


class _Trainer:
    """One paper-default training step.

    The three calls are attributes, so that a traced run can wrap them.
    """

    def __init__(self, X, y, model, tc, seed):
        self.X, self.y, self.model, self.tc = X, y, model, tc
        self.opt = AdamW(model.parameters(), tc.betas, tc.eps, tc.weight_decay)
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.batches = _rotating_batches(len(X), TRAIN_BATCH)
        self.forward, self.backward, self.adamw = model.forward, backward, self.opt.step
        self.losses = []

    def trace(self, tracer):
        self.forward = tracer.wrap("model.forward", self.forward)
        self.backward = tracer.wrap("tensor.backward", self.backward)
        self.adamw = tracer.wrap("train.adamw_step", self.adamw)

    def step(self):
        idx = next(self.batches)
        logits = self.forward(self.X[idx], training=True, rng=self.rng)
        loss = cross_entropy_label_smoothed(logits, self.y[idx], self.tc.label_smoothing)
        self.model.zero_grad()
        self.backward(loss)
        self.adamw(self.tc.lr)
        self.losses.append(float(loss.data))

    def loss_graph(self):
        """A fresh training-mode loss on the first batch, for the graph walk."""
        idx = np.arange(TRAIN_BATCH)
        logits = self.model.forward(self.X[idx], training=True, rng=self.rng)
        return cross_entropy_label_smoothed(logits, self.y[idx], self.tc.label_smoothing)


def train_step(seed, seconds, trace, work):
    """Paper-default forward(training=True) + backward + AdamW step at B=32."""
    out = Outcome()
    cfg = ModelConfig()
    tracer = benchlib.Tracer()

    def build(s):
        X, y = _dataset_windows(6, s, onebt.data.generate_synthetic)
        trainer = _Trainer(X, y, init_parameters(cfg, seed=s), TrainConfig(), s)
        for _ in range(TRAIN_WARMUP_STEPS):
            trainer.step()
        return trainer

    trainers = _setup(out, build, seed, tracer)
    tr = trainers[0]
    out.check(tr.model.num_params == 453_584, f"paper-default params {tr.model.num_params}")
    out.env["dataset_sha256"] = [_array_sha256(t.X, t.y) for t in trainers]
    out.metrics["cost.flops_per_window"] = cost_report(cfg).flops
    step = rotate([t.step for t in trainers])

    if not trace:
        times = timed_loop(step, seconds)
        op_metrics(out, times, TRAIN_BATCH, "step_s")
        out.metrics["peak_rss_mb"] = peak_rss_mib()
        out.name("train_windows_per_s", out.metrics["windows_per_s"], "1/s")
    else:
        base = timed_loop(step, seconds / 2)
        for t in trainers:
            t.trace(tracer)
        t_start = clock()
        with _Patch(tracer, [(onebt.model, "tokenize", "model.tokenize")]):
            times = timed_loop(step, seconds / 2)
        spans = [s for s in tracer.spans if s[3] >= t_start]
        overhead(out, statistics.median(base), statistics.median(times))
        span_metrics(out, spans, len(times), [("tensor.backward_s", "tensor.backward"),
                                              ("model.tokenize_s", "model.tokenize"),
                                              ("train.adamw_step_s", "train.adamw_step")])
        nodes, nbytes = benchlib.walk_graph(tr.loss_graph())
        out.metrics["tensor.graph_nodes"] = nodes
        out.metrics["tensor.graph_mb"] = nbytes / 2**20
        component_metrics(out, tr.model, tr.X[:TRAIN_BATCH], True, 3, seed)

    losses = [v for t in trainers for v in t.losses]
    enough = out.check(len(tr.losses) >= FINAL_LOSS_STEP,
                       f"only {len(tr.losses)} steps, fewer than {FINAL_LOSS_STEP}")
    final = tr.losses[FINAL_LOSS_STEP - 1] if enough else float("nan")
    out.check(math.isfinite(final), f"final_loss {final} is not finite")
    for i, loss in enumerate(losses):
        out.check(math.isfinite(loss), f"step {i} loss {loss} is not finite")
    out.name("final_loss", final, "nats", f"loss of step {FINAL_LOSS_STEP} from init")
    return out


def eval_deep(seed, seconds, trace, work):
    """Eval-mode forward at batch 64 on table1 blocks=8, as evaluate_confusion runs it."""
    out = Outcome()
    cfg = dict(TABLE_PRESETS["table1"])["blocks=8"]
    tracer = benchlib.Tracer()

    class Evaluator:
        def __init__(self, s):
            self.seed = s
            self.X, _ = _dataset_windows(11, s, onebt.data.generate_synthetic)
            self.model = init_parameters(cfg, seed=s)
            self.forward = self.model.forward
            self.batches = _rotating_batches(len(self.X), EVAL_BATCH)
            self.first = None
            self.forward(self.X[:EVAL_BATCH], training=False)

        def batch(self):
            idx = next(self.batches)
            logits = self.forward(self.X[idx], training=False)
            if self.first is None:
                self.first = (idx, logits.data)
            out.check(logits.shape == (EVAL_BATCH, cfg.num_classes)
                      and bool(np.all(np.isfinite(logits.data))),
                      "eval logits bad shape or non-finite")
            return logits

    evs = _setup(out, Evaluator, seed, tracer)
    ev = evs[0]
    out.check(ev.model.num_params == 3_908_816, f"table1 blocks=8 params {ev.model.num_params}")
    out.env["dataset_sha256"] = [_array_sha256(e.X) for e in evs]
    out.metrics["cost.flops_per_window"] = cost_report(cfg).flops
    batch = rotate([e.batch for e in evs])

    if not trace:
        times = timed_loop(batch, seconds)
        op_metrics(out, times, EVAL_BATCH, "eval_batch_s")
        out.metrics["peak_rss_mb"] = peak_rss_mib()
        out.name("eval_windows_per_s", out.metrics["windows_per_s"], "1/s")
    else:
        base = timed_loop(batch, seconds / 2)
        for e in evs:
            e.forward = tracer.wrap("model.forward", e.model.forward)
        t_start = clock()
        with _Patch(tracer, [(onebt.model, "tokenize", "model.tokenize")]):
            times = timed_loop(batch, seconds / 2)
        spans = [s for s in tracer.spans if s[3] >= t_start]
        overhead(out, statistics.median(base), statistics.median(times))
        span_metrics(out, spans, len(times), [("model.tokenize_s", "model.tokenize")])
        nodes, nbytes = benchlib.walk_graph(ev.batch())
        out.metrics["tensor.graph_nodes"] = nodes
        out.metrics["tensor.graph_mb"] = nbytes / 2**20
        component_metrics(out, ev.model, ev.X[:EVAL_BATCH], False, 2, seed)

    # the same weights in float64, on the first windows of the first set's first batch
    ref_model = init_parameters(cfg, seed=ev.seed).astype(np.float64)
    idx, logits = ev.first
    rows = idx[:EVAL_CHECK_WINDOWS]
    ref = ref_model.forward(ev.X[rows].astype(np.float64), training=False).data
    got = logits[:EVAL_CHECK_WINDOWS].astype(np.float64)
    err = float(np.max(np.abs(got - ref)))
    out.check(bool(np.all(np.abs(got - ref) <= EVAL_ATOL + EVAL_RTOL * np.abs(ref))),
              f"float32 logits differ from float64 by {err}")
    out.name("eval_f64_max_abs_err", err, "logit",
             f"{EVAL_CHECK_WINDOWS} windows; tolerance {EVAL_ATOL} + {EVAL_RTOL}*|ref|")
    return out


# ---------------------------------------------------------------------------
# LOSO workload: the onebt command itself

class Command:
    """One finished `onebt` command: wall time, rusage and exit code."""

    def __init__(self, argv, work, tag, trace_dir=None):
        env = dict(os.environ)
        path = [str(SRC)]
        if trace_dir is not None:
            path += [str(HOOK), str(HOOK.parent)]
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        env["PYTHONPATH"] = os.pathsep.join(path)
        with open(work / f"{tag}.stdout", "wb") as so, open(work / f"{tag}.stderr", "wb") as se:
            self.launch = clock()
            proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, *argv], cwd=work,
                                    env=env, stdout=so, stderr=se, start_new_session=True)
            # on timeout kill the command's whole process group, workers included
            timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.end = clock()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.pid = proc.pid
        self.wall = self.end - self.launch
        self.cpu = ru.ru_utime + ru.ru_stime
        self.maxrss_mib = ru.ru_maxrss / 1024

    def ok(self):
        return self.returncode == 0


def _sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _gen_data(work, seed, tag, trace_dir=None):
    path = work / f"{tag}.eeg"
    cmd = Command(["gen-data", "--subjects", str(LOSO_SUBJECTS),
                   "--per-level", str(LOSO_PER_LEVEL), "--seq-len", str(LOSO_SEQ_LEN),
                   "--seed", str(seed), "--out", path.name], work, tag, trace_dir)
    return cmd, path


def _loso(work, data, seed, tag, trace_dir=None):
    return Command(["loso", "--data", data.name, "--task", LOSO_TASK,
                    "--epochs", str(LOSO_EPOCHS), "--jobs", "1",
                    "--seed", str(seed), "--out", tag], work, tag, trace_dir)


def _check_loso(out, cmd, work, tag):
    """Exit 0, 11 folds with finite scores; returns (folds.jsonl bytes, mean accuracy)."""
    if not out.check(cmd.ok(), f"{tag}: exit code {cmd.returncode}"):
        return None, float("nan")
    raw = (work / tag / "folds.jsonl").read_bytes()
    folds = [json.loads(line) for line in raw.splitlines()]
    scores = [f[k] for f in folds for k in ("accuracy", "precision", "f1")]
    out.check(len(folds) == LOSO_SUBJECTS and all(math.isfinite(v) for v in scores),
              f"{tag}: {len(folds)} folds or a non-finite score")
    return raw, statistics.fmean(f["accuracy"] for f in folds)


def _loso_setup(out, work, seed):
    """One dataset per input seed from `onebt gen-data`; setup_s is the median time."""
    seeds = input_seeds(seed)
    made = [_gen_data(work, s, f"data{k}") for k, s in enumerate(seeds)]
    for cmd, _ in made:
        out.check(cmd.ok(), f"gen-data exit code {cmd.returncode}")
    out.metrics["setup_s"] = statistics.median(c.wall for c, _ in made)
    out.name("setup_s", out.metrics["setup_s"], "s", f"median of {INPUT_SETS} gen-data")
    out.env["dataset_sha256"] = [_sha256_file(p) if c.ok() else None for c, p in made]
    return list(zip(seeds, (p for _, p in made)))


def _span_files(trace_dir):
    return benchlib.read_spans(sorted(trace_dir.glob("spans-*.jsonl")))


def loso_serial(seed, seconds, trace, work):
    """`onebt loso --jobs 1` on one task of an 11-subject dataset from `onebt gen-data`."""
    out = Outcome()
    inputs = _loso_setup(out, work, seed)
    out.metrics["cost.flops_per_window"] = cost_report(ModelConfig()).flops

    if not trace:
        cmds, accs, firsts, deadline = [], [], {}, clock() + seconds
        # start another command only while it is expected to end in time
        while not cmds or clock() + statistics.median(c.wall for c in cmds) <= deadline:
            k = len(cmds) % INPUT_SETS
            tag = f"loso{len(cmds)}"
            cmds.append(_loso(work, inputs[k][1], inputs[k][0], tag))
            raw, acc = _check_loso(out, cmds[-1], work, tag)
            accs.append(acc)
            first = firsts.setdefault(k, raw)
            out.check(raw is not None and raw == first,
                      f"{tag}: folds.jsonl differs from the first run on the same input")
        op_metrics(out, [c.wall for c in cmds], LOSO_WINDOWS, "loso_wall_s")
        out.metrics["peak_rss_mb"] = max(c.maxrss_mib for c in cmds)
        out.name("loso_acc_mean", statistics.median(accs), "fraction", "mean over folds")
        return out

    run_seed, data = inputs[0]
    base = _loso(work, data, run_seed, "untraced")
    reference, _ = _check_loso(out, base, work, "untraced")
    trace_dir = work / "spans"
    trace_dir.mkdir()
    gen, again = _gen_data(work, run_seed, "traced-data", trace_dir)
    out.check(gen.ok() and _sha256_file(again) == _sha256_file(data),
              "gen-data wrote a different file for the same seed")
    gen_spans = _span_files(trace_dir)
    for p in trace_dir.iterdir():
        p.unlink()
    cmd = _loso(work, data, run_seed, "traced", trace_dir)
    raw, _ = _check_loso(out, cmd, work, "traced")
    out.check(raw is not None and raw == reference, "traced folds.jsonl differs from untraced")
    spans = _span_files(trace_dir)
    # the command's process is the cli span, from launch to exit
    for s in spans:
        if s[0] == cmd.pid and s[5] is None:
            s[5] = -1
    cli = [cmd.pid, -1, "cli.command", cmd.launch, cmd.end, None]
    first = min((s[3] for s in spans if s[0] == cmd.pid), default=cmd.end)
    m = out.metrics
    overhead(out, base.wall, cmd.wall)
    span_metrics(out, spans + [cli], 1, [("tensor.backward_s", "tensor.backward"),
                                         ("model.tokenize_s", "model.tokenize"),
                                         ("train.adamw_step_s", "train.adamw_step")])
    m["cli.startup_s"] = first - cmd.launch
    m["cli.other_s"] = m["cli.self_s"] - m["cli.startup_s"]
    gen_d = benchlib.durations(gen_spans, "data.generate_synthetic")
    m["data.generate_s"] = gen_d[0] if gen_d else 0.0
    load = benchlib.durations(spans, "data.load_dataset")
    m["data.load_dataset_s"] = sum(load)
    m["data.load_mb_per_s"] = data.stat().st_size / 2**20 / sum(load) if load else 0.0
    for metric, name in [("data.loso_splits_s", "data.loso_splits"),
                         ("data.channel_stats_s", "data.channel_stats"),
                         ("data.samples_to_arrays_s", "data.samples_to_arrays"),
                         ("train.fit_s", "train.fit"), ("train.evaluate_s", "train.evaluate")]:
        m[metric] = sum(benchlib.durations(spans, name))
    folds = benchlib.durations(spans, "harness.run_fold")
    out.check(len(folds) == LOSO_SUBJECTS, f"traced run recorded {len(folds)} folds")
    m["harness.run_fold_s_p50"] = statistics.median(folds) if folds else 0.0
    m["harness.run_fold_s_max"] = max(folds, default=0.0)
    m["harness.cpu_s"] = base.cpu
    return out


WORKLOADS = {"train_step": train_step, "eval_deep": eval_deep, "loso_serial": loso_serial}
