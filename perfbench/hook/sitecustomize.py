"""Trace hook for onebt command processes started by the benchmark.

The benchmark puts this directory on PYTHONPATH only for traced commands,
with PERFBENCH_TRACE_DIR naming where spans go. Every Python process of the
command, pool workers included, then wraps onebt's public calls in spans
before `onebt.cli` binds them, and appends the spans to
`spans-<pid>.jsonl` in that directory.
"""

import os

_trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
if _trace_dir:
    import importlib

    import benchlib

    def _install(trace_dir):
        # the package re-exports functions named like its modules (onebt.train)
        data, harness, model, train = (importlib.import_module(f"onebt.{m}")
                                       for m in ("data", "harness", "model", "train"))
        tracer = benchlib.Tracer()

        def sink_for_pid():
            tracer.sink = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")

        sink_for_pid()
        os.register_at_fork(after_in_child=sink_for_pid)
        # (module, attribute, span name); each is patched where callers look
        # it up, before onebt.cli imports names from data and harness
        targets = [
            (data, "generate_synthetic", "data.generate_synthetic"),
            (data, "save_dataset", "data.save_dataset"),
            (data, "load_dataset", "data.load_dataset"),
            (harness, "loso_splits", "data.loso_splits"),
            (harness, "channel_stats", "data.channel_stats"),
            (harness, "samples_to_arrays", "data.samples_to_arrays"),
            (harness, "init_parameters", "model.init_parameters"),
            (harness, "train", "train.fit"),
            (harness, "evaluate_confusion", "train.evaluate"),
            (harness, "run_fold", "harness.run_fold"),
            (harness, "run_loso", "harness.run_loso"),
            (train, "backward", "tensor.backward"),
            (train.AdamW, "step", "train.adamw_step"),
            (model.OneBlockTransformer, "forward", "model.forward"),
            (model, "tokenize", "model.tokenize"),
        ]
        for owner, attr, name in targets:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    _install(_trace_dir)
