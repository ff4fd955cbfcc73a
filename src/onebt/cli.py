"""Command-line entry point: gen-data, train, loso, sweep, cost.

Every command exits 0 on success or a categorized nonzero code with one
`error[category]: ...` line on stderr and no traceback; SIGINT and SIGTERM
are the category `interrupted`. Commands that produce files write them
under --out (see _run_dir) with `run.meta` (config hash, seed, version) and
an echoed `config.json`, so a run is reconstructible from it alone.
"""

import argparse
import contextlib
import hashlib
import json
import os
import signal
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
          "numeric": (NumericError, 6), "io": (OSError, 7), "internal": (Exception, 8),
          "interrupted": (KeyboardInterrupt, 130)}


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


@contextlib.contextmanager
def _run_dir(out, command, spec, argv, **meta):
    """Make --out if it is missing and yield its one writer, write(name, text).
    On success the echoed config.json and then run.meta are the last writes;
    on any failure or interrupt an --out this run made is removed, all but a
    train.state (the point a rerun resumes from)."""
    made = not os.path.isdir(out)
    os.makedirs(out, exist_ok=True)

    def write(name, text):
        write_atomic(os.path.join(out, name), text.encode("utf-8"))

    try:
        yield write
        config = spec.to_dict()
        write("config.json", _json_text(config))
        config_sha256 = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
        write("run.meta", _json_text({"command": command, "argv": list(argv), "seed": spec.seed,
                                      "config_sha256": config_sha256, "version": __version__,
                                      **meta}))
    except BaseException:
        for name in set(os.listdir(out) if made else ()) - {"train.state"}:
            os.remove(os.path.join(out, name))
        if made and not os.listdir(out):
            os.rmdir(out)
        raise


def _load_spec(args):
    """The config file (or the defaults) with the command-line flags applied."""
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
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

    state = os.path.join(spec.out_dir, "train.state")    # a rerun after a kill continues it
    with _run_dir(spec.out_dir, "train", spec, argv,
                  normalization="per-channel z-score over the fit set") as write:
        model, log, _, _ = fit(records, idx, spec.model, spec.train, state)  # train.seed is spec.seed
        save_model(model, os.path.join(spec.out_dir, "model.ckpt"))
        write("train.log.jsonl", jsonl_text(log.records))
    os.remove(state)
    print(f"trained {spec.train.epochs} epochs on {len(idx)} samples; "
          f"final loss {log.summary['final_train_loss']:.4f}, "
          f"acc {log.summary['final_train_acc']:.3f}")
    return 0


def _score_cells(summary):
    """The accuracy, precision and F1 cells of a LOSO summary, as mean ± std."""
    return [fmt_mean_std(getattr(summary, f"{m}_mean"), getattr(summary, f"{m}_std"))
            for m in ("accuracy", "precision", "f1")]


def cmd_loso(args, argv):
    spec, records = _require_data(_load_spec(args))
    with _run_dir(spec.out_dir, "loso", spec, argv, jobs=args.jobs,
                  normalization="per-channel z-score, train-fold statistics") as write:
        folds, summary = run_loso(records, spec.model, spec.train, task=spec.task, jobs=args.jobs)
        table = render_table(["task", "folds", "accuracy", "precision", "f1"],
                             [[spec.task or "all", summary.n_folds, *_score_cells(summary)]])
        write("folds.jsonl", jsonl_text(folds))
        write("summary.json", _json_text(asdict(summary)))
        write("summary.txt", table + "\n")
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
        with _run_dir(args.out, "cost", RunSpec(seed=0), argv) as write:
            write("cost.jsonl", jsonl_text(records))
            write("cost.txt", text + "\n")
    return 0


def cmd_sweep(args, argv):
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

    headers = ["table", "config", "Params(M)", "GFLOPs",
               *(f"{t} {m}" for t in Task.names for m in ("acc", "prec", "f1")), "mean"]
    rows = []
    results = []
    with _run_dir(spec.out_dir, "sweep", spec, argv, preset=args.preset) as write:
        for table, label, preset in presets:
            cfg = replace(preset, seq_len=spec.model.seq_len,
                          input_channels=spec.model.input_channels)
            rep = cost_report(cfg)
            summaries = [run_loso(records, cfg, spec.train, task=t, jobs=args.jobs,
                                  config_id=f"{table}/{label}")[1] for t in range(len(Task.names))]
            ctm = cross_task_mean(summaries)
            rows.append([table, label, f"{rep.params_m:.2f}", f"{rep.gflops:.2f}",
                         *(cell for s in summaries for cell in _score_cells(s)),
                         f"{100 * ctm:.2f}"])
            results.append({
                "table": table, "config": label, "model": cfg.to_dict(),
                "params_m": rep.params_m, "gflops": rep.gflops,
                "tasks": {tn: asdict(s) for tn, s in zip(Task.names, summaries)},
                "cross_task_mean": ctm})
        text = render_table(headers, rows)
        print(text)
        write("sweep.txt", text + "\n")
        write("sweep.jsonl", jsonl_text(results))
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
    sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)    # as SIGINT stops a run
    try:
        return args.fn(args, argv)
    except (Exception, KeyboardInterrupt) as e:
        category = next(c for c, (cls, _) in ERRORS.items() if isinstance(e, cls))
        message = {"internal": f"{type(e).__name__}: {e}",
                   "interrupted": "stopped by SIGINT or SIGTERM"}.get(category, e)
        print(f"error[{category}]: {message}", file=sys.stderr)
        return ERRORS[category][1]
    finally:
        signal.signal(signal.SIGTERM, sigterm)


if __name__ == "__main__":
    sys.exit(main())
