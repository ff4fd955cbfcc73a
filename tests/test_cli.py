"""Command line surface: artifacts on disk, determinism, exit codes, and the
published cost table through the user-facing entry point."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from onebt.checkpoint import load_model
from onebt.cli import main, RunSpec, EXIT_CODES
from onebt.data import load_dataset
from onebt.tensor import ConfigError
from reference_tables import PUBLISHED

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
    for name in ("model.ckpt", "train.log.jsonl", "run.meta", "config.json"):
        assert (out / name).exists(), name

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


def test_train_unknown_task_exits_data(dataset, tmp_path):
    rc = main(["train", "--config", _spec_file(tmp_path), "--data", dataset,
               "--task", "CHESS", "--out", str(tmp_path / "x")])
    assert rc == EXIT_CODES["data"]


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
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_bad_override_exits_config_without_out_dir(dataset, tmp_path, argv):
    out = tmp_path / "run"
    rc = main([*argv, "--config", _spec_file(tmp_path), "--data", dataset,
               "--task", "IQ", "--out", str(out)])
    assert rc == EXIT_CODES["config"]
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


def test_thread_cap_env_limits_jobs(dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("ONEBT_THREADS", "1")
    out = _run_loso(dataset, tmp_path, "capped", "--jobs", "8")
    meta = json.loads((out / "run.meta").read_text())
    assert meta["jobs"] == 1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_thread_cap_env_exits_config(dataset, tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("ONEBT_THREADS", value)
    out = tmp_path / "capped"
    rc = main(["loso", "--config", _spec_file(tmp_path), "--data", dataset,
               "--task", "IQ", "--out", str(out), "--jobs", "2"])
    assert rc == EXIT_CODES["config"]
    err = capsys.readouterr().err
    assert "error[config]" in err and "ONEBT_THREADS" in err
    assert not out.exists()


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

def test_sweep_tiny(dataset, tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--preset", "table4", "--data", dataset,
               "--epochs", "1", "--out", str(out)])
    assert rc == 0
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
# spec round trip and version

def test_runspec_round_trip(tmp_path):
    spec = RunSpec.from_dict(TINY_SPEC)
    path = tmp_path / "echo.json"
    spec.save(path)
    again = RunSpec.from_file(path)
    assert again.to_dict() == spec.to_dict()


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
