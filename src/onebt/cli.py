"""Command-line entry point: gen-data, train, loso, sweep, cost.

Every command exits 0 on success or a categorized nonzero code with one
`error[category]: ...` line on stderr. Commands that produce files write
them under --out together with `run.meta` (config hash, seed, version) and
an echoed `config.json`, so a run is reconstructible from its output
directory alone.
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
from .cost import TABLE_PRESETS, cost_report
from .data import DataError, SynthSpec, Task, generate_synthetic, load_dataset, save_dataset
from .harness import fit, run_loso
from .metrics import cross_task_mean, fmt_mean_std, render_table, write_records
from .model import ModelConfig
from .tensor import ConfigError, NumericError, config_from_dict
from .train import TrainConfig

EXIT_CODES = {"config": 3, "data": 4, "checkpoint": 5, "numeric": 6, "io": 7}
_ERRORS = {"config": ConfigError, "data": DataError, "checkpoint": CheckpointError,
           "numeric": NumericError, "io": OSError}


@dataclass(frozen=True)
class RunSpec:
    """Everything one run needs; JSON round-trips losslessly, unknown keys fatal.

    The run seed is the training seed: building a spec copies it into train.
    """
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: str | None = None
    task: str | None = None
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "train", replace(self.train, seed=self.seed))
        if self.task is not None:
            Task.from_name(self.task)

    def to_dict(self):
        return {"model": self.model.to_dict(), "train": self.train.to_dict(),
                "data": self.data, "task": self.task, "seed": self.seed,
                "out_dir": self.out_dir}

    @classmethod
    def from_dict(cls, d):
        if isinstance(d, dict):
            d = dict(d, model=ModelConfig.from_dict(d.get("model", {})),
                     train=TrainConfig.from_dict(d.get("train", {})))
        return config_from_dict(cls, d, "run spec")

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
        return cls.from_dict(raw)

    def save(self, path):
        _write_json(path, self.to_dict())


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _config_hash(spec):
    blob = json.dumps(spec.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_meta(out_dir, command, spec, argv, extra=None):
    meta = {"command": command, "argv": list(argv),
            "config_sha256": _config_hash(spec), "seed": spec.seed,
            "version": __version__}
    if extra:
        meta.update(extra)
    _write_json(os.path.join(out_dir, "run.meta"), meta)
    spec.save(os.path.join(out_dir, "config.json"))


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
    """(spec, records), the spec's window geometry taken from the data."""
    if not spec.data:
        raise ConfigError("a dataset path is required (--data or the config file)")
    manifest, records = load_dataset(spec.data)
    model = replace(spec.model, seq_len=manifest.seq_len, input_channels=manifest.n_channels)
    return replace(spec, model=model), records


def _jobs(args):
    """Fold workers: --jobs, capped by the ONEBT_THREADS variable when it is set."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    raw = os.environ.get("ONEBT_THREADS")
    if not raw:
        return args.jobs
    try:
        cap = int(raw)
    except ValueError:
        cap = 0                        # reported below, like any value under 1
    if cap < 1:
        raise ConfigError(f"ONEBT_THREADS must be an integer >= 1, got {raw!r}")
    return min(args.jobs, cap)


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

    os.makedirs(spec.out_dir, exist_ok=True)
    model, log, _, _ = fit(records, idx, spec.model, spec.train)   # train.seed is spec.seed
    save_model(model, os.path.join(spec.out_dir, "model.ckpt"))
    write_records(os.path.join(spec.out_dir, "train.log.jsonl"), log.records)
    _write_meta(spec.out_dir, "train", spec, argv,
                {"normalization": "per-channel z-score over the fit set"})
    print(f"trained {spec.train.epochs} epochs on {len(idx)} samples; "
          f"final loss {log.summary['final_train_loss']:.4f}, "
          f"acc {log.summary['final_train_acc']:.3f}")
    return 0


def cmd_loso(args, argv):
    spec, records = _require_data(_load_spec(args))
    jobs = _jobs(args)
    os.makedirs(spec.out_dir, exist_ok=True)
    folds, summary = run_loso(records, spec.model, spec.train,
                              task=spec.task, jobs=jobs)
    write_records(os.path.join(spec.out_dir, "folds.jsonl"), folds)
    _write_json(os.path.join(spec.out_dir, "summary.json"), asdict(summary))
    _write_meta(spec.out_dir, "loso", spec, argv,
                {"normalization": "per-channel z-score, train-fold statistics",
                 "jobs": jobs})
    table = render_table(
        ["task", "folds", "accuracy", "precision", "f1"],
        [[spec.task or "all", summary.n_folds,
          fmt_mean_std(summary.accuracy_mean, summary.accuracy_std),
          fmt_mean_std(summary.precision_mean, summary.precision_std),
          fmt_mean_std(summary.f1_mean, summary.f1_std)]])
    with open(os.path.join(spec.out_dir, "summary.txt"), "w") as f:
        f.write(table + "\n")
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
        write_records(os.path.join(args.out, "cost.jsonl"), records)
        with open(os.path.join(args.out, "cost.txt"), "w") as f:
            f.write(text + "\n")
        _write_meta(args.out, "cost", RunSpec(seed=0), argv)
    return 0


def cmd_sweep(args, argv):
    spec = _load_spec(args)
    presets = _preset_rows(args.preset)
    spec, records = _require_data(spec)
    jobs = _jobs(args)
    os.makedirs(spec.out_dir, exist_ok=True)

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
    with open(os.path.join(spec.out_dir, "sweep.txt"), "w") as f:
        f.write(text + "\n")
    write_records(os.path.join(spec.out_dir, "sweep.jsonl"), results)
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
                            help="parallel fold workers (capped by ONEBT_THREADS)")

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
    except tuple(_ERRORS.values()) as e:
        category = next(c for c, cls in _ERRORS.items() if isinstance(e, cls))
        print(f"error[{category}]: {e}", file=sys.stderr)
        return EXIT_CODES[category]


if __name__ == "__main__":
    sys.exit(main())
