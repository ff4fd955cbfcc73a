"""Per-fold training/evaluation and the LOSO driver.

Each fold normalizes with its own training-fold statistics, trains a fresh
model, and evaluates on the held-out subject. Folds are independent, so the
driver can run them in worker processes; results are merged by fold id, so
the jobs count never changes the numbers.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from .data import Task, channel_stats, loso_splits, normalize, samples_to_arrays
from .metrics import aggregate, fold_result
from .model import init_parameters
from .train import evaluate_confusion, train

__all__ = ["fold_seed", "run_fold", "run_loso"]


def fold_seed(base_seed, fold_id):
    """A distinct, stable seed per (run seed, held-out subject)."""
    return int(np.random.SeedSequence([base_seed, fold_id]).generate_state(1)[0])


def run_fold(samples, train_idx, test_idx, model_cfg, train_cfg, fold_id,
             positive=1, average="binary"):
    """Train on train_idx, test on test_idx; returns (FoldResult, TrainLog)."""
    mean, std = channel_stats(samples, train_idx)
    X_tr, y_tr = samples_to_arrays(samples, train_idx)
    X_te, y_te = samples_to_arrays(samples, test_idx)
    X_tr = normalize(X_tr, mean, std)
    X_te = normalize(X_te, mean, std)

    seed = fold_seed(train_cfg.seed, fold_id)
    model = init_parameters(model_cfg, seed=seed)
    log = train(model, X_tr, y_tr, replace(train_cfg, seed=seed))
    conf = evaluate_confusion(model, X_te, y_te)
    return fold_result(fold_id, conf, positive, average), log


_worker_env = {}


def _init_worker(samples, model_cfg, train_cfg, positive, average):
    _worker_env.update(samples=samples, model_cfg=model_cfg,
                       train_cfg=train_cfg, positive=positive, average=average)


def _run_one(job):
    fold_id, train_idx, test_idx = job
    e = _worker_env
    result, _ = run_fold(e["samples"], train_idx, test_idx, e["model_cfg"],
                         e["train_cfg"], fold_id, e["positive"], e["average"])
    return result


def run_loso(samples, model_cfg, train_cfg, task=None, jobs=1,
             positive=1, average="binary", std="population", config_id=""):
    """All LOSO folds (optionally filtered to one task); returns (folds, summary).

    Folds run in min(jobs, folds) worker processes, or in this process when
    that is 1 or less.
    """
    if task is not None and isinstance(task, str):
        task = Task.from_name(task)
    splits = loso_splits(samples, task)

    ids = [samples[test[0]].subject_id for _, test in splits]
    jobs_list = [(fid, tr, te) for fid, (tr, te) in zip(ids, splits)]
    workers = min(jobs, len(jobs_list))
    if workers <= 1:
        results = []
        for fid, tr, te in jobs_list:
            result, _ = run_fold(samples, tr, te, model_cfg, train_cfg,
                                 fid, positive, average)
            results.append(result)
    else:
        with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(samples, model_cfg, train_cfg, positive, average)) as ex:
            results = list(ex.map(_run_one, jobs_list))
    results.sort(key=lambda r: r.fold_id)
    summary = aggregate(results, config_id=config_id, task=task, std=std)
    return results, summary
