"""onebt benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. With --trace 0 the last line of
standard output is a JSON object holding every end-to-end metric named in
BENCHMARK.json; with --trace 1 it holds every per-layer metric instead. The
lines before it give the environment and each metric under its
workload-specific name. Run files go to .perfbench/<workload>-<seed>-<trace>/.
"""

import os
import sys

# BLAS reads its thread variables when numpy loads, so they are cleared
# before anything imports numpy; the values found are reported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "ONEBT_THREADS")
INHERITED_THREAD_VARS = {k: os.environ.pop(k, None) for k in THREAD_VARS}

import argparse                 # noqa: E402
import json                     # noqa: E402
import math                     # noqa: E402
import platform                 # noqa: E402
import shutil                   # noqa: E402
import subprocess               # noqa: E402
from pathlib import Path        # noqa: E402

import benchlib                 # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_onebt():
    """Put ./src first on the path and make sure onebt comes from there."""
    if not (SRC / "onebt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no onebt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import onebt
    if not Path(onebt.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: onebt imported from {onebt.__file__}, not {SRC}")


def _spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        benchlib.check_metric_name(m["name"])
    return spec


def _environment(outcome):
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_vars_cleared": INHERITED_THREAD_VARS,
            "git_commit": commit or None, **outcome.env}


def _result(spec, outcome, trace):
    """The metrics BENCHMARK.json declares for this mode, each with its unit."""
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    undeclared = set(outcome.metrics) - declared
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(undeclared)}")
    metrics = {}
    for m in spec["per_layer"] if trace else spec["end_to_end"]:
        # a per-layer metric of a layer that is not on this workload's path reads 0
        value = outcome.metrics.get(m["name"], 0.0 if trace else None)
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    _import_onebt()
    import workloads

    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.trace, work)
    metrics = _result(spec, outcome, args.trace)
    env = _environment(outcome)
    for path in work.rglob("*.eeg"):      # datasets are large; keep only the logs
        path.unlink()

    failed_frac = outcome.failed / outcome.attempted
    report = list(outcome.named)
    report.append(("failed_frac", failed_frac, "fraction",
                   f"{outcome.failed} of {outcome.attempted} checks"))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}")
    for name, value, unit, note in report:
        print(f"  {name:<24} {value:>14.6g} {unit:<9} {note}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    with open(work / "result.json", "w") as f:
        json.dump({"env": env, "result": result, "problems": outcome.problems,
                   "named": report}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
