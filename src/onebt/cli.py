"""Command-line entry point: gen-data, train, loso, sweep, cost.

Every command exits 0 on success or a categorized nonzero code with one
`error[category]: ...` line on stderr and no traceback. Commands that
produce files write them under --out together with `run.meta` (config
hash, seed, version) and an echoed `config.json`, so a run is
reconstructible from its output directory alone.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, save_model
from .cost import TABLE_PRESETS, check_fits_memory, cost_report
from .data import DataError, SynthSpec, Task, generate_synthetic, load_dataset, save_dataset
from .harness import fit, run_loso
from .metrics import cross_task_mean, fmt_mean_std, jsonl_text, render_table
from .model import ModelConfig
from .tensor import ConfigError, NumericError, check_field_types, config_from_dict, write_atomic
from .train import TrainConfig

# category: (exception type, exit code); the first type that matches wins
ERRORS = {"config": (ConfigError, 3), "data": (DataError, 4), "checkpoint": (CheckpointError, 5),
          "numeric": (NumericError, 6), "io": (OSError, 7), "internal": (Exception, 8)}


@dataclass(frozen=True)
class RunSpec:
    """Everything one run needs; JSON round-trips losslessly, unknown keys fatal.

    The run seed is the training seed: building a spec copies it into train,
    and from_dict refuses a train.seed that differs from it.
    """
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: str | None = None
    task: str | None = None
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        check_field_types(RunSpec, vars(self), "run spec")
        object.__setattr__(self, "train", replace(self.train, seed=self.seed))
        if self.task is not None:
            Task.from_name(self.task)

    def to_dict(self):
        return {"model": self.model.to_dict(), "train": self.train.to_dict(),
                "data": self.data, "task": self.task, "seed": self.seed,
                "out_dir": self.out_dir}

    @classmethod
    def from_dict(cls, d):
        raw = d
        if isinstance(d, dict):
            d = dict(d, model=ModelConfig.from_dict(d.get("model", {})),
                     train=TrainConfig.from_dict(d.get("train", {})))
        spec = config_from_dict(cls, d, "run spec")
        if raw.get("train", {}).get("seed", spec.seed) != spec.seed:   # else replaced unseen
            raise ConfigError(f"train.seed {raw['train']['seed']} differs from the run seed {spec.seed}")
        return spec

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except ValueError as e:              # bad JSON or bad utf-8
                raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        return cls.from_dict(raw)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(out_dir, name, text):
    write_atomic(os.path.join(out_dir, name), text.encode("utf-8"))


def _config_hash(spec):
    blob = json.dumps(spec.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_meta(out_dir, command, spec, argv, extra=None):
    """The echoed config.json, then run.meta: every command's last write."""
    meta = {"command": command, "argv": list(argv),
            "config_sha256": _config_hash(spec), "seed": spec.seed,
            "version": __version__}
    if extra:
        meta.update(extra)
    _write(out_dir, "config.json", _json_text(spec.to_dict()))
    _write(out_dir, "run.meta", _json_text(meta))


def _load_spec(args):
    """The config file (or the defaults) with the command-line flags applied."""
    spec = RunSpec.from_file(args.config) if args.config else RunSpec()
    given = {"data": args.data, "task": args.task, "seed": args.seed, "out_dir": args.out}
    given = {k: v for k, v in given.items() if v is not None}
    if args.epochs is not None:
        given["train"] = replace(spec.train, epochs=args.epochs)
    spec = replace(spec, **given)
    if not spec.out_dir:
        raise ConfigError("--out is required")
    return spec


def _require_data(spec):
    """(spec, records), the spec's window geometry taken from the data, once the
    model it makes fits in memory."""
    if not spec.data:
        raise ConfigError("a dataset path is required (--data or the config file)")
    manifest, records = load_dataset(spec.data)
    model = replace(spec.model, seq_len=manifest.seq_len, input_channels=manifest.n_channels)
    check_fits_memory(model)
    return replace(spec, model=model), records


def _jobs(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(args, argv):
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    spec = SynthSpec(n_subjects=args.subjects, samples_per_cell=args.per_level,
                     delta=args.delta, seq_len=args.seq_len,
                     sample_rate_hz=args.sample_rate)
    manifest, records = generate_synthetic(spec, seed=args.seed)
    save_dataset(args.out, records, manifest.sample_rate_hz,
                 manifest.channel_names, manifest.provenance)
    print(f"wrote {manifest.n_samples} samples "
          f"({manifest.seq_len}x{manifest.n_channels}, "
          f"{manifest.n_subjects} subjects) to {args.out}")
    return 0


def cmd_train(args, argv):
    spec, records = _require_data(_load_spec(args))
    idx = np.arange(len(records))
    if spec.task is not None:
        idx = np.flatnonzero(records.task == Task.from_name(spec.task))
        if not idx.size:
            raise DataError(f"no samples for task {spec.task}")

    created = not os.path.isdir(spec.out_dir)
    os.makedirs(spec.out_dir, exist_ok=True)
    state = os.path.join(spec.out_dir, "train.state")    # a rerun after a kill continues it
    try:
        model, log, _, _ = fit(records, idx, spec.model, spec.train, state)  # train.seed is spec.seed
    except BaseException:
        if created and not os.listdir(spec.out_dir):     # failed before its first epoch
            os.rmdir(spec.out_dir)
        raise
    save_model(model, os.path.join(spec.out_dir, "model.ckpt"))
    _write(spec.out_dir, "train.log.jsonl", jsonl_text(log.records))
    _write_meta(spec.out_dir, "train", spec, argv,
                {"normalization": "per-channel z-score over the fit set"})
    os.remove(state)
    print(f"trained {spec.train.epochs} epochs on {len(idx)} samples; "
          f"final loss {log.summary['final_train_loss']:.4f}, "
          f"acc {log.summary['final_train_acc']:.3f}")
    return 0


def cmd_loso(args, argv):
    spec, records = _require_data(_load_spec(args))
    jobs = _jobs(args)
    folds, summary = run_loso(records, spec.model, spec.train,
                              task=spec.task, jobs=jobs)
    table = render_table(
        ["task", "folds", "accuracy", "precision", "f1"],
        [[spec.task or "all", summary.n_folds,
          fmt_mean_std(summary.accuracy_mean, summary.accuracy_std),
          fmt_mean_std(summary.precision_mean, summary.precision_std),
          fmt_mean_std(summary.f1_mean, summary.f1_std)]])
    os.makedirs(spec.out_dir, exist_ok=True)
    _write(spec.out_dir, "folds.jsonl", jsonl_text(folds))
    _write(spec.out_dir, "summary.json", _json_text(asdict(summary)))
    _write(spec.out_dir, "summary.txt", table + "\n")
    _write_meta(spec.out_dir, "loso", spec, argv,
                {"normalization": "per-channel z-score, train-fold statistics",
                 "jobs": jobs})
    print(table)
    return 0


def _preset_rows(name):
    if name == "all":
        rows = []
        for t in ("table1", "table2", "table3", "table4"):
            rows.extend((t, label, cfg) for label, cfg in TABLE_PRESETS[t])
        return rows
    if name not in TABLE_PRESETS:
        raise ConfigError(f"unknown preset {name!r}, expected one of "
                          f"{sorted(TABLE_PRESETS) + ['all']}")
    return [(name, label, cfg) for label, cfg in TABLE_PRESETS[name]]


def cmd_cost(args, argv):
    rows = []
    records = []
    for table, label, cfg in _preset_rows(args.preset):
        rep = cost_report(cfg)
        rows.append([table, label, f"{rep.params_m:.2f}", f"{rep.gflops:.2f}",
                     rep.params, rep.flops])
        records.append({"table": table, "config": label, "model": cfg.to_dict(),
                        "params": rep.params, "params_m": rep.params_m,
                        "flops": rep.flops, "gflops": rep.gflops,
                        "breakdown": rep.breakdown, "convention": rep.convention})
    text = render_table(
        ["table", "config", "Params(M)", "GFLOPs", "params", "flops"], rows)
    print(text)
    print(f"convention: {records[0]['convention']}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write(args.out, "cost.jsonl", jsonl_text(records))
        _write(args.out, "cost.txt", text + "\n")
        _write_meta(args.out, "cost", RunSpec(seed=0), argv)
    return 0


def cmd_sweep(args, argv):
    jobs = _jobs(args)
    spec = _load_spec(args)
    if spec.task is not None:
        raise ConfigError(f"sweep runs every task, so it takes no task; got {spec.task!r}")
    presets = _preset_rows(args.preset)
    spec, records = _require_data(spec)
    default = asdict(ModelConfig())
    changed = sorted(k for k, v in asdict(spec.model).items()
                     if v != default[k] and k not in ("seq_len", "input_channels"))
    if changed:                         # each preset owns the rest; echoing them would mislead
        raise ConfigError(f"sweep runs each preset's model, so it takes no model fields "
                          f"but seq_len and input_channels; got {changed}")

    rows = []
    results = []
    for table, label, preset in presets:
        cfg = replace(preset, seq_len=spec.model.seq_len,
                      input_channels=spec.model.input_channels)
        rep = cost_report(cfg)
        summaries = []
        for t, tname in enumerate(Task.names):
            _, summary = run_loso(records, cfg, spec.train, task=t, jobs=jobs,
                                  config_id=f"{table}/{label}")
            summaries.append(summary)
        ctm = cross_task_mean(summaries)
        row = [table, label, f"{rep.params_m:.2f}", f"{rep.gflops:.2f}"]
        for s in summaries:
            row.extend([fmt_mean_std(s.accuracy_mean, s.accuracy_std),
                        fmt_mean_std(s.precision_mean, s.precision_std),
                        fmt_mean_std(s.f1_mean, s.f1_std)])
        row.append(f"{100 * ctm:.2f}")
        rows.append(row)
        results.append({
            "table": table, "config": label, "model": cfg.to_dict(),
            "params_m": rep.params_m, "gflops": rep.gflops,
            "tasks": {tn: asdict(s) for tn, s in zip(Task.names, summaries)},
            "cross_task_mean": ctm})

    headers = ["table", "config", "Params(M)", "GFLOPs"]
    for tname in Task.names:
        headers += [f"{tname} acc", f"{tname} prec", f"{tname} f1"]
    headers.append("mean")
    text = render_table(headers, rows)
    print(text)
    os.makedirs(spec.out_dir, exist_ok=True)
    _write(spec.out_dir, "sweep.txt", text + "\n")
    _write(spec.out_dir, "sweep.jsonl", jsonl_text(results))
    _write_meta(spec.out_dir, "sweep", spec, argv, {"preset": args.preset})
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser():
    p = argparse.ArgumentParser(
        prog="onebt",
        description="One-block latent-attention transformer for EEG workload windows")
    p.add_argument("--version", action="version", version=f"onebt {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic dataset")
    g.add_argument("--subjects", type=int, default=11)
    g.add_argument("--per-level", type=int, default=12,
                   help="samples per (subject, task, difficulty)")
    g.add_argument("--delta", type=float, default=1.0,
                   help="class separability; 0 means no class signal")
    g.add_argument("--seq-len", type=int, default=1280)
    g.add_argument("--sample-rate", type=int, default=128)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="dataset file path")
    g.set_defaults(fn=cmd_gen_data)

    def common(sp, jobs=False):
        sp.add_argument("--config", help="run spec JSON file")
        sp.add_argument("--data", help="dataset file")
        sp.add_argument("--task", help="IQ, MATH or GAME (default: all)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--epochs", type=int, default=None,
                        help="override the configured epoch count")
        sp.add_argument("--out", help="output directory")
        if jobs:
            sp.add_argument("--jobs", type=int, default=1,
                            help="parallel fold workers; each gets CPUs // jobs BLAS threads")

    t = sub.add_parser("train", help="fit one model on a dataset (or one task)")
    common(t)
    t.set_defaults(fn=cmd_train)

    l = sub.add_parser("loso", help="leave-one-subject-out evaluation")
    common(l, jobs=True)
    l.set_defaults(fn=cmd_loso)

    s = sub.add_parser("sweep", help="cost + LOSO performance over preset configs")
    common(s, jobs=True)
    s.add_argument("--preset", default="all",
                   help="table1, table2, table3, table4 or all")
    s.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("cost", help="closed-form parameter/FLOP table, no training")
    c.add_argument("--preset", default="all",
                   help="table1, table2, table3, table4 or all")
    c.add_argument("--out", help="optional output directory for records")
    c.set_defaults(fn=cmd_cost)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args, argv)
    except Exception as e:
        category = next(c for c, (cls, _) in ERRORS.items() if isinstance(e, cls))
        message = f"{type(e).__name__}: {e}" if category == "internal" else e
        print(f"error[{category}]: {message}", file=sys.stderr)
        return ERRORS[category][1]


if __name__ == "__main__":
    sys.exit(main())
