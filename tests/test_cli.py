"""Command line surface: artifacts on disk, determinism, exit codes, and the
published cost table through the user-facing entry point."""

import ctypes
import json
import os
import shutil
import struct
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from onebt.checkpoint import load_model
import onebt.cli
import onebt.harness
from onebt.cli import main, RunSpec, ERRORS
from onebt.data import DataError, load_dataset
from onebt.tensor import ConfigError, write_atomic
from conftest import disk_full, killed_after
from reference_tables import PUBLISHED

EXIT_CODES = {category: code for category, (_, code) in ERRORS.items()}

ROOT = Path(__file__).resolve().parent.parent

TINY_SPEC = {
    "model": {"num_latents": 2, "latent_dim": 8, "cross_heads": 2,
              "self_heads": 2, "cross_head_dim": 4, "self_head_dim": 4,
              "self_per_cross": 1, "num_freq_bands": 2, "max_freq": 16.0,
              "ff_mult": 2, "attn_dropout": 0.0, "ff_dropout": 0.0},
    "train": {"epochs": 2, "batch_size": 8, "lr": 1e-3},
    "seed": 0,
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small synthetic dataset shared by the run commands."""
    path = tmp_path_factory.mktemp("data") / "tiny.eeg"
    rc = main(["gen-data", "--subjects", "3", "--per-level", "2",
               "--seq-len", "32", "--seed", "7", "--out", str(path)])
    assert rc == 0
    return str(path)


def _spec_file(tmp_path, **overrides):
    d = {**TINY_SPEC, **overrides}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(d))
    return str(path)


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_round_trip(dataset):
    manifest, samples = load_dataset(dataset)
    assert manifest.n_subjects == 3
    # 3 subjects x 3 tasks x 2 levels x 2 samples per cell
    assert manifest.n_samples == len(samples) == 36
    assert samples[0].signal.shape == (32, 14)


def test_gen_data_deterministic(tmp_path):
    paths = []
    for name in ("a.eeg", "b.eeg"):
        p = tmp_path / name
        assert main(["gen-data", "--subjects", "2", "--per-level", "1",
                     "--seq-len", "16", "--seed", "3", "--out", str(p)]) == 0
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# train

def test_train_writes_artifacts(dataset, tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--config", _spec_file(tmp_path), "--data", dataset,
               "--task", "MATH", "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["config.json", "model.ckpt", "run.meta",
                                       "train.log.jsonl"]        # no train.state left

    model = load_model(out / "model.ckpt")
    assert model.cfg.seq_len == 32          # geometry came from the data
    assert model.cfg.input_channels == 14
    assert model.cfg.latent_dim == 8

    meta = json.loads((out / "run.meta").read_text())
    assert meta["command"] == "train"
    assert meta["seed"] == 0
    assert len(meta["config_sha256"]) == 64
    assert "--task" in meta["argv"]

    lines = (out / "train.log.jsonl").read_text().strip().split("\n")
    recs = [json.loads(l) for l in lines]
    epochs = [r for r in recs if "epoch" in r]
    assert [r["epoch"] for r in epochs] == [0, 1]
    # the echoed config reloads as a valid spec
    spec = RunSpec.from_file(out / "config.json")
    assert spec.model.latent_dim == 8


def _tree(d):
    return {name: (d / name).read_bytes() for name in sorted(os.listdir(d))}


def test_train_rerun_after_kill_matches_uninterrupted_run(dataset, tmp_path):
    """A run killed after its first epoch leaves train.state; the same command
    run again continues it, and the directory ends byte-identical to an
    uninterrupted run's, with no train.state left."""
    out = tmp_path / "run"
    argv = ["train", "--config", _spec_file(tmp_path), "--data", dataset,
            "--epochs", "3", "--out", str(out)]
    assert main(argv) == 0
    straight = _tree(out)
    for name in os.listdir(out):
        os.remove(out / name)
    with killed_after(1):
        main(argv)
    assert os.listdir(out) == ["train.state"]
    assert main(argv) == 0
    assert _tree(out) == straight


@pytest.mark.parametrize("change", ["seed", "epochs", "model", "data"])
def test_train_rerun_over_foreign_state_exits_checkpoint(dataset, tmp_path, capsys, change):
    """A train.state left by a killed run is refused by a rerun with another
    seed, train config, model config or dataset (exit 5), and --out is left
    byte-identical. The model change keeps every parameter's shape."""
    out = tmp_path / "run"
    argv = ["train", "--config", _spec_file(tmp_path), "--data", dataset, "--out", str(out)]
    with killed_after(1):
        main(argv)
    before = _tree(out)
    if change == "data":
        other = tmp_path / "other.eeg"
        assert main(["gen-data", "--subjects", "3", "--per-level", "2",
                     "--seq-len", "32", "--seed", "8", "--out", str(other)]) == 0
        argv[4] = str(other)
    elif change == "model":
        _spec_file(tmp_path, model={**TINY_SPEC["model"], "attn_dropout": 0.1})
    else:
        argv += [f"--{change}", "5"]
    capsys.readouterr()
    assert main(argv) == EXIT_CODES["checkpoint"]
    assert "belongs to another run" in capsys.readouterr().err
    assert _tree(out) == before


def test_unexpected_error_exits_internal_without_traceback(dataset, tmp_path, capsys,
                                                          monkeypatch):
    """An exception no category names (here numpy refusing a 10^24-element
    latent array, once the size check that would refuse the config first is
    switched off) exits 8 with its type and message, not a traceback."""
    monkeypatch.setattr(onebt.cli, "check_fits_memory", lambda cfg: None)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"model": {"num_latents": 10 ** 12, "latent_dim": 10 ** 12}}))
    rc = main(["train", "--config", str(path), "--data", dataset, "--out", str(tmp_path / "x")])
    assert rc == EXIT_CODES["internal"] == 8
    err = capsys.readouterr().err
    assert err.startswith("error[internal]: ValueError: array is too big")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "loso"])
def test_model_build_failure_leaves_no_out_dir(dataset, tmp_path, capsys, command, monkeypatch):
    """A config that fails only when the model is built (the size check that
    would refuse it first is switched off) leaves no new --out behind, and an
    --out that existed before the run stays."""
    monkeypatch.setattr(onebt.cli, "check_fits_memory", lambda cfg: None)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"model": {"num_latents": 10 ** 12, "latent_dim": 10 ** 12}}))
    for out, existed in ((tmp_path / "new", False), (tmp_path / "old", True)):
        if existed:
            out.mkdir()
        rc = main([command, "--config", str(path), "--data", dataset, "--out", str(out)])
        assert rc == EXIT_CODES["internal"]
        assert "error[internal]" in capsys.readouterr().err
        assert out.exists() == existed and (not existed or not any(out.iterdir()))


@pytest.mark.parametrize("command", ["train", "loso"])
@pytest.mark.parametrize("model", [{"ff_mult": 10 ** 8}, {"num_freq_bands": 10 ** 8},
                                   {"cross_heads": 10 ** 5, "cross_head_dim": 10 ** 5}],
                         ids=["ff_mult", "num_freq_bands", "cross_heads"])
def test_model_too_large_for_memory_exits_config(dataset, tmp_path, capsys, command, model):
    """A model whose parameters alone, at 16 bytes each, exceed physical memory
    is refused from the closed-form count, before a weight is drawn: exit 3,
    one line on stderr and no --out."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"model": model}))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--data", dataset, "--out", str(out)])
    assert rc == EXIT_CODES["config"] == 3
    err = capsys.readouterr().err
    assert err.startswith("error[config]: the model has ") and "physical memory" in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "loso", "sweep"])
def test_diverged_training_exits_numeric_without_out_dir(dataset, tmp_path, command):
    """A learning rate that overflows the weights in one step exits 6 with one
    line on stderr, raised by the optimizer update itself (no numpy warning
    comes first), and leaves no --out. A subprocess, so the warnings tier-1
    makes errors would show on stderr."""
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps({"train": {"lr": 1e300, "batch_size": 64}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--data", dataset, "--epochs", "1", "--out", str(out)]
    if command == "sweep":
        argv += ["--preset", "table4"]
    proc = subprocess.run([sys.executable, "-m", "onebt.cli", *argv], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == EXIT_CODES["numeric"] == 6, proc.stderr
    assert "error[numeric]: non-finite weight" in proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def test_keyboard_interrupt_is_not_caught(dataset, tmp_path, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt
    monkeypatch.setattr(onebt.cli, "fit", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", _spec_file(tmp_path), "--data", dataset,
              "--out", str(tmp_path / "x")])


def test_train_unknown_task_exits_data(dataset, tmp_path):
    rc = main(["train", "--config", _spec_file(tmp_path), "--data", dataset,
               "--task", "CHESS", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CODES["data"]


def test_corrupt_channel_name_exits_data(dataset, tmp_path, capsys):
    blob = bytearray(Path(dataset).read_bytes())
    blob[29] = 0xFF                     # first byte of the first channel name
    bad = tmp_path / "bad.eeg"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "x"
    rc = main(["train", "--config", _spec_file(tmp_path), "--data", str(bad),
               "--out", str(out)])
    assert rc == EXIT_CODES["data"]
    assert "error[data]: channel 0 name" in capsys.readouterr().err
    assert not out.exists()


def test_bad_task_in_config_file_exits_data_despite_task_flag(dataset, tmp_path):
    """The file is checked in full when it is read, so --task cannot mask it."""
    out = tmp_path / "x"
    rc = main(["train", "--config", _spec_file(tmp_path, task="FOO"), "--data", dataset,
               "--task", "IQ", "--out", str(out)])
    assert rc == EXIT_CODES["data"]
    assert not out.exists()


def test_train_missing_out_exits_config(dataset, tmp_path):
    rc = main(["train", "--config", _spec_file(tmp_path), "--data", dataset])
    assert rc == EXIT_CODES["config"]


def test_train_missing_data_exits_io(tmp_path):
    rc = main(["train", "--config", _spec_file(tmp_path),
               "--data", str(tmp_path / "nope.eeg"), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CODES["io"]


def test_bad_config_json_exits_config(dataset, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["train", "--config", str(bad), "--data", dataset,
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_CODES["config"]


def test_config_file_not_utf8_exits_config(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": 0, "task": "\xff"}')
    out = tmp_path / "x"
    rc = main(["train", "--config", str(bad), "--data", dataset, "--out", str(out)])
    assert rc == EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith(f"error[config]: config file {bad} ")
    assert not out.exists()


def test_unknown_spec_key_exits_config(dataset, tmp_path):
    rc = main(["train", "--config", _spec_file(tmp_path, optimizer="sgd"),
               "--data", dataset, "--out", str(tmp_path / "x")])
    assert rc == EXIT_CODES["config"]


@pytest.mark.parametrize("raw", [
    [], 5, {"model": 5}, {"train": {"lr": "x"}}, {"seed": "abc"},
    {"train": {"betas": 3}}, {"train": {"betas": [0.9]}},
    {"model": {"max_freq": "a"}}, {"train": {"batch_size": 2.5}},
    {"task": 5}, {"train": {"lr": float("nan")}}, {"model": {"max_freq": float("inf")}},
    {"train": {"grad_clip": -1}}, {"model": {"num_classes": 1}},
    {"train": {"betas": [False, 0.9]}}, {"train": {"seed": 5}},
    pytest.param({"model": {"max_freq": 10**400}}, id="{model:{max_freq:10**400}}"),
    pytest.param({"train": {"lr": 10**400}}, id="{train:{lr:10**400}}"),
], ids=lambda raw: json.dumps(raw, separators=(",", ":")).replace('"', ""))
def test_malformed_spec_value_exits_config(dataset, tmp_path, capsys, raw):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "x"
    rc = main(["train", "--config", str(path), "--data", dataset, "--out", str(out)])
    assert rc == EXIT_CODES["config"]
    assert "error[config]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--epochs", "0"], ["loso", "--epochs", "0"],
    ["loso", "--jobs", "0"], ["loso", "--jobs", "-3"], ["sweep", "--jobs", "0"],
    *(pytest.param([command, "--jobs", "0", "--data", "/nonexistent.eeg"],
                   id=f"{command}_jobs_0_missing_data") for command in ("loso", "sweep")),
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_bad_override_exits_config_without_out_dir(dataset, tmp_path, capsys, argv):
    """The flag is refused before any file is read: an argv --data that does not
    exist replaces the dataset and still exits 3."""
    out = tmp_path / "run"
    rc = main([argv[0], "--config", _spec_file(tmp_path), "--data", dataset,
               "--task", "IQ", "--out", str(out), *argv[1:]])
    assert rc == EXIT_CODES["config"]
    assert argv[1].lstrip("-") in capsys.readouterr().err     # refused for the flag given
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "loso", "sweep"])
def test_negative_seed_exits_config_and_writes_nothing(dataset, tmp_path, capsys, command):
    out = tmp_path / "out"
    rest = ["--out", str(out)] if command == "gen-data" else [
        "--config", _spec_file(tmp_path), "--data", dataset, "--out", str(out)]
    rc = main([command, "--seed", "-1", *rest])
    assert rc == EXIT_CODES["config"]
    err = capsys.readouterr().err
    assert "error[config]" in err and "seed" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] in ([], ["spec.json"])


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_gen_data_nonfinite_delta_exits_data_and_writes_nothing(tmp_path, capsys, delta):
    rc = main(["gen-data", "--subjects", "2", "--per-level", "1", "--seq-len", "16",
               "--delta", delta, "--out", str(tmp_path / "d.eeg")])
    assert rc == EXIT_CODES["data"]
    assert "error[data]: delta" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value, named", [
    ("--sample-rate", "0", "sample_rate_hz"), ("--seq-len", "100000000", "cannot store"),
])
def test_gen_data_bad_window_exits_data_before_generating(tmp_path, capsys, flag, value, named):
    rc = main(["gen-data", "--subjects", "2", "--per-level", "1", "--seq-len", "16",
               flag, value, "--out", str(tmp_path / "d.eeg")])
    assert rc == EXIT_CODES["data"]
    err = capsys.readouterr().err
    assert err.startswith("error[data]") and named in err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["train", "loso", "sweep"])
def test_zero_window_dataset_exits_data(tmp_path, capsys, command):
    empty = tmp_path / "empty.eeg"
    empty.write_bytes(b"OBT1" + struct.pack("<6I", 1, 0, 16, 1, 128, 0)
                      + struct.pack("<B", 1) + b"A")
    out = tmp_path / "out"
    rc = main([command, "--data", str(empty), "--out", str(out)])
    assert rc == EXIT_CODES["data"]
    err = capsys.readouterr().err
    assert err == "error[data]: dataset holds no windows\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "loso", "sweep"])
def test_sidecar_not_utf8_exits_data(dataset, tmp_path, capsys, command):
    data = tmp_path / "d.eeg"
    data.write_bytes(Path(dataset).read_bytes())
    sidecar = tmp_path / "d.eeg.manifest.txt"
    sidecar.write_bytes(b"samples: 36\nprovenance: \xff\n")
    out = tmp_path / "out"
    rc = main([command, "--config", _spec_file(tmp_path), "--data", str(data),
               "--out", str(out)])
    assert rc == EXIT_CODES["data"]
    assert capsys.readouterr().err.startswith(f"error[data]: sidecar {sidecar} is not utf-8")
    assert not out.exists()


# ---------------------------------------------------------------------------
# loso

def _run_loso(dataset, tmp_path, out_name, *extra):
    out = tmp_path / out_name
    rc = main(["loso", "--config", _spec_file(tmp_path), "--data", dataset,
               "--task", "IQ", "--out", str(out), *extra])
    assert rc == 0
    return out


def test_loso_artifacts_and_determinism(dataset, tmp_path):
    a = _run_loso(dataset, tmp_path, "a")
    b = _run_loso(dataset, tmp_path, "b")
    for name in ("folds.jsonl", "summary.json", "summary.txt", "run.meta"):
        assert (a / name).exists(), name
    folds = [json.loads(l) for l in (a / "folds.jsonl").read_text().strip().split("\n")]
    assert len(folds) == 3                      # one per subject
    assert sorted(f["fold_id"] for f in folds) == [0, 1, 2]
    summary = json.loads((a / "summary.json").read_text())
    assert summary["n_folds"] == 3
    assert summary["task"] == 0                 # IQ resolved to its id
    assert 0.0 <= summary["accuracy_mean"] <= 1.0
    # bit-identical artifacts across repeated runs with the same seed
    assert (a / "folds.jsonl").read_bytes() == (b / "folds.jsonl").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_loso_jobs_parallel_matches_serial(dataset, tmp_path):
    serial = _run_loso(dataset, tmp_path, "serial", "--jobs", "1")
    par = _run_loso(dataset, tmp_path, "par", "--jobs", "2")
    assert (serial / "folds.jsonl").read_bytes() == (par / "folds.jsonl").read_bytes()
    assert (serial / "summary.json").read_bytes() == (par / "summary.json").read_bytes()


BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads")


def _mapped_openblas():
    if not os.path.exists("/proc/self/maps"):
        return []
    with open("/proc/self/maps") as f:
        return sorted({line.split()[-1] for line in f if "openblas" in line})


def _blas_threads(_):
    """(pid, the thread count of each OpenBLAS in this process that reports one)."""
    time.sleep(0.2)                 # stay busy, so the pool's other worker takes the next job
    libs = map(ctypes.CDLL, _mapped_openblas())
    return os.getpid(), [getattr(lib, n)() for lib in libs for n in BLAS_THREAD_GETTERS
                         if hasattr(lib, n)]


def test_fold_workers_split_cpus_for_blas():
    """Each of two fold workers runs numpy's OpenBLAS at usable CPUs // 2
    threads (at least 1), not at the all-core pool it inherits."""
    if not _mapped_openblas():
        pytest.skip("no OpenBLAS is mapped into this process")
    with ProcessPoolExecutor(max_workers=2, initializer=onebt.harness._init_worker,
                             initargs=(None, None, None, 2)) as ex:
        seen = dict(ex.map(_blas_threads, range(4)))
    assert len(seen) == 2
    want = max(1, len(os.sched_getaffinity(0)) // 2)
    assert all(counts and set(counts) == {want} for counts in seen.values()), seen


def _traced_span_names(tmp_path, command):
    """Run `onebt <command>` on a tiny dataset under perfbench's trace hook;
    returns the span names it recorded."""
    data = tmp_path / "d.eeg"
    assert main(["gen-data", "--subjects", "3", "--per-level", "1",
                 "--seq-len", "16", "--out", str(data)]) == 0
    trace = tmp_path / "trace"
    trace.mkdir()
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(trace), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(str(ROOT / p) for p in
                                          ("src", "perfbench/hook", "perfbench")))
    launcher = "import sys; from onebt.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, command, "--config", _spec_file(tmp_path),
         "--data", str(data), "--task", "IQ", "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return [json.loads(line)[2] for f in trace.iterdir()
            for line in f.read_text().splitlines()]


def test_benchmark_trace_hook_wraps_loso(tmp_path):
    """perfbench's trace hook wraps onebt functions by module attribute name.
    A name it cannot find prints an error from sitecustomize and leaves the
    traced benchmark without spans, so run the hook on a tiny LOSO here."""
    names = _traced_span_names(tmp_path, "loso")
    assert names.count("harness.run_fold") == 3            # one per subject


def test_benchmark_trace_hook_sees_train_fit(tmp_path):
    """`onebt train` fits through harness.fit, so the hook's spans cover it."""
    names = _traced_span_names(tmp_path, "train")
    assert names.count("train.fit") == 1
    assert names.count("data.channel_stats") == 1


# ---------------------------------------------------------------------------
# cost

def test_cost_preset_matches_published(tmp_path, capsys):
    out = tmp_path / "cost"
    assert main(["cost", "--preset", "table1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    for (table, label), row in PUBLISHED.items():
        if table != "table1":
            continue
        assert f"{row['params_m']:.2f}" in stdout
    records = [json.loads(l) for l in
               (out / "cost.jsonl").read_text().strip().split("\n")]
    assert len(records) == 5
    by_label = {r["config"]: r for r in records}
    for (table, label), row in PUBLISHED.items():
        if table == "table1":
            assert by_label[label]["params_m"] == pytest.approx(row["params_m"], abs=0.005)
    assert (out / "cost.txt").exists()


def test_cost_all_covers_every_published_row(capsys):
    assert main(["cost"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("table1") == 5
    assert stdout.count("table2") == 4
    assert stdout.count("table3") == 3
    assert stdout.count("table4") == 3
    assert "convention:" in stdout


def test_cost_unknown_preset_exits_config(capsys):
    assert main(["cost", "--preset", "table9"]) == EXIT_CODES["config"]
    assert "error[config]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep

def test_sweep_unknown_preset_exits_config_without_out_dir(dataset, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--preset", "nope", "--data", dataset, "--out", str(out)])
    assert rc == EXIT_CODES["config"]
    assert "unknown preset" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["flag", "config"])
def test_sweep_task_exits_config_without_out_dir(dataset, tmp_path, capsys, where):
    """sweep runs every task, so a task from the flag or the file is refused,
    not echoed into config.json and ignored."""
    out = tmp_path / "sweep"
    argv = ["sweep", "--preset", "table4", "--data", dataset, "--epochs", "1", "--out", str(out)]
    if where == "flag":
        argv += ["--config", _spec_file(tmp_path), "--task", "IQ"]
    else:
        argv += ["--config", _spec_file(tmp_path, task="IQ")]
    assert main(argv) == EXIT_CODES["config"]
    assert "error[config]: sweep runs every task" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_model_fields_exit_config_without_out_dir(dataset, tmp_path, capsys):
    """sweep runs each preset's model, so a config's model fields other than
    the window geometry are refused, not echoed into config.json and ignored."""
    out = tmp_path / "sweep"
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"model": {"num_latents": 3, "seq_len": 7, "input_channels": 2}}))
    rc = main(["sweep", "--preset", "table4", "--config", str(path), "--data", dataset,
               "--epochs", "1", "--out", str(out)])
    assert rc == EXIT_CODES["config"]
    err = capsys.readouterr().err
    assert err.startswith("error[config]: sweep runs each preset's model")
    assert err.endswith("got ['num_latents']\n")         # the geometry is the data's
    assert not out.exists()


def test_sweep_tiny(dataset, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--preset", "table4", "--data", dataset,
               "--epochs", "1", "--out", str(out)])
    assert rc == 0
    again = tmp_path / "again"                  # the echoed config reruns the sweep
    assert main(["sweep", "--preset", "table4", "--config", str(out / "config.json"),
                 "--out", str(again)]) == 0
    assert (again / "sweep.jsonl").read_bytes() == (out / "sweep.jsonl").read_bytes()
    records = [json.loads(l) for l in
               (out / "sweep.jsonl").read_text().strip().split("\n")]
    assert len(records) == 3
    for rec in records:
        assert set(rec["tasks"]) == {"IQ", "MATH", "GAME"}
        nine = [rec["tasks"][t][f"{m}_mean"] for t in rec["tasks"]
                for m in ("accuracy", "precision", "f1")]
        assert rec["cross_task_mean"] == pytest.approx(np.mean(nine))
    text = (out / "sweep.txt").read_text()
    assert "GAME acc" in text
    meta = json.loads((out / "run.meta").read_text())
    assert meta["preset"] == "table4"


# ---------------------------------------------------------------------------
# failed writes

def _argv(command, target, dataset, spec, seed):
    """A run of `command` into target; seed 1 and seed 2 write different files."""
    if command == "gen-data":
        return ["gen-data", "--subjects", "2", "--per-level", "1", "--seq-len", "16",
                "--seed", str(seed), "--out", str(target / "d.eeg")]
    if command == "cost":                       # no seed: the preset stands in for it
        return ["cost", "--preset", f"table{seed}", "--out", str(target)]
    argv = [command, "--config", spec, "--data", dataset, "--seed", str(seed),
            "--out", str(target)]
    return argv + (["--preset", "table4", "--epochs", "1"] if command == "sweep" else [])


@pytest.mark.parametrize("command", ["gen-data", "train", "loso", "sweep", "cost"])
def test_failed_writes_leave_each_file_old_or_new(dataset, tmp_path, capsys, command):
    """Rerun into a finished run's target with another seed while writes fail
    part-way. When all fail, it exits 7 and every file is the first run's; when
    only the k-th fails, for each k, every file is whole and either the first
    run's or the rerun's. No temp file is left, and a train.state (the resume
    point) may be."""
    spec = _spec_file(tmp_path, **({"model": {}} if command == "sweep" else {}))   # presets own it
    target = tmp_path / "run"               # one path for every run: run.meta names it

    def run(seed, files=None):
        """Run into target, which holds exactly `files` ({name: bytes}) first."""
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        for name, blob in (files or {}).items():
            (target / name).write_bytes(blob)
        return main(_argv(command, target, dataset, spec, seed))

    assert run(1) == 0
    old = _tree(target)
    assert run(2) == 0
    new = _tree(target)
    assert old.keys() == new.keys() and old != new

    with disk_full():
        assert run(2, old) == EXIT_CODES["io"] == 7
    assert _tree(target) == old
    for k in range(1, 20):
        with disk_full(only=k):
            rc = run(2, old)
        after = _tree(target)
        if rc == 0:
            assert after == new
            break
        assert rc == EXIT_CODES["io"]
        if command == "train":
            after.pop("train.state", None)
        assert after.keys() == old.keys()
        assert all(blob in (old[name], new[name]) for name, blob in after.items()), k
    else:
        pytest.fail("the rerun never completed")
    assert k > 2                                # every command writes at least two files
    assert "error[io]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spec round trip and version

def test_runspec_round_trip(tmp_path):
    spec = RunSpec.from_dict(TINY_SPEC)
    path = tmp_path / "echo.json"
    write_atomic(path, onebt.cli._json_text(spec.to_dict()).encode())
    again = RunSpec.from_file(path)
    assert again.to_dict() == spec.to_dict()


def test_runspec_is_frozen_and_replace_rechecks():
    spec = RunSpec.from_dict(dict(TINY_SPEC, seed=5, task="IQ"))
    assert spec.train.seed == 5                 # the run seed is the training seed
    assert RunSpec.from_dict(spec.to_dict()) == spec
    for target, name in ((spec, "seed"), (spec.train, "seed"), (spec.model, "seq_len")):
        with pytest.raises(FrozenInstanceError):
            setattr(target, name, 1)
    assert replace(spec, seed=9).train.seed == 9
    with pytest.raises(ConfigError, match="seed"):
        replace(spec, seed=-1)
    with pytest.raises(DataError, match="unknown task"):
        replace(spec, task="FOO")


def test_runspec_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        RunSpec.from_dict({"modle": {}})


def test_version_flag():
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "onebt.cli", "cost",
                           "--preset", "table3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "table3" in proc.stdout


NO_SCIPY = """import sys


class NoScipy:
    \"\"\"Refuses scipy, as an install without it would.\"\"\"

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
"""


def test_commands_run_without_scipy(tmp_path):
    """Every command that builds a model, and the autodiff demo, runs with
    scipy refused. The finder is a sitecustomize on the path, so the loso
    --jobs 2 workers start with it too, whatever the start method."""
    (tmp_path / "sitecustomize.py").write_text(NO_SCIPY)
    (tmp_path / "spec.json").write_text(json.dumps(TINY_SPEC))
    env = dict(os.environ, PYTHONPATH=f"{tmp_path}{os.pathsep}{ROOT / 'src'}")

    def run(*argv):
        proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        return proc.returncode, proc.stderr[-2000:]

    assert run("-c", "import scipy")[0] != 0               # the finder is in force
    data = ["--data", "d.eeg"]
    for argv in (["gen-data", "--subjects", "3", "--per-level", "1", "--seq-len", "32",
                  "--out", "d.eeg"],
                 ["train", *data, "--config", "spec.json", "--out", "train"],
                 ["loso", *data, "--config", "spec.json", "--jobs", "2", "--out", "loso"],
                 ["sweep", *data, "--preset", "table4", "--epochs", "1", "--out", "sweep"]):
        assert run("-m", "onebt.cli", *argv) == (0, ""), argv
    assert run(str(ROOT / "demos" / "01_autodiff.py")) == (0, "")


def test_cli_import_leaves_scipy_unloaded():
    """Only gelu needs scipy, so gen-data, cost and every early-exit error
    path run without paying its import."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, onebt.cli; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'scipy'))"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
