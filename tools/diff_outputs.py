"""Run every onebt command under two source trees and diff what they write.

    python tools/diff_outputs.py OTHER_SRC [WORK_DIR]

OTHER_SRC is the `src` directory of another checkout (say, the parent commit
from `git archive`). Each side runs gen-data, train, loso and sweep (each at
--jobs 1 and 2) and cost with the same arguments and relative paths, in its own
directory under WORK_DIR (a new temporary directory by default). Prints each
differing file, with the largest absolute difference among the numeric fields
of a .json or .jsonl file present on both sides, and exits 1 if any output
file differs in name or bytes.
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
]


def run_side(src, cwd):
    cwd.mkdir(parents=True)
    (cwd / "spec.json").write_text(json.dumps(SPEC))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for argv in COMMANDS:
        subprocess.run([sys.executable, "-m", "onebt.cli", *argv], cwd=cwd, env=env,
                       check=True, stdout=subprocess.DEVNULL)
    return {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}


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
    here, there = run_side(HERE_SRC, work / "here"), run_side(other, work / "other")
    differ = sorted(n for n in here.keys() | there.keys() if here.get(n) != there.get(n))
    for name in differ:
        moved = name in here and name in there and largest_difference(name, here[name], there[name])
        print(f"differs: {name}" + (f"  max |diff| {moved[0]:.3g} at {moved[1]}" if moved else ""))
    print(f"{len(here.keys() | there.keys()) - len(differ)} identical, {len(differ)} differ, in {work}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
