"""Run every onebt command under two source trees and diff what they write.

    python tools/diff_outputs.py OTHER_SRC [WORK_DIR]

OTHER_SRC is the `src` directory of another checkout (say, the parent commit
from `git archive`). Each side runs gen-data, train, loso and sweep (each at
--jobs 1 and 2) and cost with the same arguments and relative paths, in its own
directory under WORK_DIR (a new temporary directory by default). Each side
also runs a paper-default loso (both --jobs counts) on a set of 72 windows per
subject, whose eval forwards run in several chunks, and three loso commands
that must fail: one refused before it starts,
one whose weights overflow after its --out is made, and one whose weights stay
finite but overflow the forward after them. Prints each differing file, with
the largest absolute difference among the numeric fields of a .json or .jsonl
file present on both sides; each file but run.meta and config.json that differs between two
runs of one side that differ only in --jobs; and each failing run whose exit
code, stderr or leftover --out differs. Exits 1 if anything differs.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE_SRC = Path(__file__).resolve().parent.parent / "src"
SPEC = {"model": {"num_latents": 4, "latent_dim": 16, "cross_heads": 2, "self_heads": 2,
                  "cross_head_dim": 8, "self_head_dim": 8, "self_per_cross": 1,
                  "num_freq_bands": 2, "ff_mult": 2, "attn_dropout": 0.1, "ff_dropout": 0.2},
        "train": {"epochs": 2, "batch_size": 8, "lr": 1e-3}}
COMMANDS = [
    ["gen-data", "--subjects", "3", "--per-level", "1", "--seq-len", "64", "--seed", "3",
     "--out", "d.eeg"],
    ["train", "--data", "d.eeg", "--config", "spec.json", "--out", "train"],
    ["loso", "--data", "d.eeg", "--config", "spec.json", "--out", "loso"],
    ["loso", "--data", "d.eeg", "--config", "spec.json", "--task", "IQ", "--jobs", "2",
     "--out", "loso2"],
    ["sweep", "--preset", "table4", "--data", "d.eeg", "--epochs", "1", "--out", "sweep"],
    ["sweep", "--preset", "table4", "--data", "d.eeg", "--epochs", "1", "--jobs", "2",
     "--out", "sweep2"],
    ["cost", "--out", "cost"],
    ["gen-data", "--subjects", "3", "--per-level", "12", "--seed", "3", "--out", "p.eeg"],
    ["loso", "--data", "p.eeg", "--epochs", "1", "--out", "paper"],
    ["loso", "--data", "p.eeg", "--epochs", "1", "--jobs", "2", "--out", "paper2"],
]
# --out of runs that differ only in --jobs; all they write but run.meta and config.json match
SAME_BUT_JOBS = [("paper", "paper2"), ("sweep", "sweep2")]
FAILING = [        # the last argument of each is its --out
    ["loso", "--data", "d.eeg", "--config", "spec.json", "--jobs", "0", "--out", "refused"],
    ["loso", "--data", "d.eeg", "--config", "diverge.json", "--out", "diverged"],
    ["loso", "--data", "d.eeg", "--config", "huge.json", "--out", "huge"],
]


def run_side(src, cwd):
    cwd.mkdir(parents=True)
    (cwd / "spec.json").write_text(json.dumps(SPEC))
    (cwd / "diverge.json").write_text(json.dumps({"train": {"lr": 1e300}}))
    (cwd / "huge.json").write_text(json.dumps({"train": {"lr": 1e30}}))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for argv in COMMANDS:
        subprocess.run([sys.executable, "-m", "onebt.cli", *argv], cwd=cwd, env=env,
                       check=True, stdout=subprocess.DEVNULL)
    failures = {}
    for argv in FAILING:
        proc = subprocess.run([sys.executable, "-m", "onebt.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True)
        failures[" ".join(argv)] = (f"exit {proc.returncode}, stderr {proc.stderr!r}, "
                                    f"--out {'left' if (cwd / argv[-1]).exists() else 'absent'}")
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return files, failures


def numbers(value, path=""):
    """{path: number} for every int or float leaf of a parsed JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        return {path: value}
    else:
        return {}
    return {p: n for key, v in items for p, n in numbers(v, f"{path}/{key}").items()}


def largest_difference(name, a, b):
    """(|a - b|, path) of the numeric field that moved most, or None."""
    if name.endswith(".jsonl"):
        a, b = ([json.loads(line) for line in blob.splitlines()] for blob in (a, b))
    elif name.endswith(".json"):
        a, b = json.loads(a), json.loads(b)
    else:
        return None
    a, b = numbers(a), numbers(b)
    return max(((abs(a[p] - b[p]), p) for p in a.keys() & b.keys()), default=None)


def main(argv):
    other = Path(argv[0]).resolve()
    work = Path(argv[1]) if len(argv) > 1 else Path(tempfile.mkdtemp(prefix="onebt-diff-"))
    (here, here_failed), (there, there_failed) = (run_side(HERE_SRC, work / "here"),
                                                  run_side(other, work / "other"))
    differ = sorted(n for n in here.keys() | there.keys() if here.get(n) != there.get(n))
    for name in differ:
        moved = name in here and name in there and largest_difference(name, here[name], there[name])
        print(f"differs: {name}" + (f"  max |diff| {moved[0]:.3g} at {moved[1]}" if moved else ""))
    jobs_differ = [f"{side}: {a}/{name} and {b}/{name}"
                   for side, files in (("here", here), ("other", there))
                   for a, b in SAME_BUT_JOBS
                   for name in sorted({n.split("/", 1)[1] for n in files if n.split("/", 1)[0]
                                       in (a, b)} - {"run.meta", "config.json"})
                   if files.get(f"{a}/{name}") != files.get(f"{b}/{name}")]
    for pair in jobs_differ:
        print(f"differs across --jobs: {pair}")
    fail_differ = [run for run in here_failed if here_failed[run] != there_failed[run]]
    for run in fail_differ:
        print(f"fails differently: onebt {run}\n  here:  {here_failed[run]}\n"
              f"  other: {there_failed[run]}")
    print(f"{len(here.keys() | there.keys()) - len(differ)} identical, {len(differ)} differ; "
          f"{len(FAILING) - len(fail_differ)} failing runs alike, {len(fail_differ)} differ; "
          f"in {work}")
    return 1 if differ or jobs_differ or fail_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
