"""Per-fold training/evaluation and the LOSO driver.

`fit` is the one training path: `onebt train` and every fold z-score with
the fit set's statistics and train a fresh seeded model through it. Each
fold then evaluates on the held-out subject. Folds are independent, so the
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

__all__ = ["fit", "fold_seed", "run_fold", "run_loso"]


def fold_seed(base_seed, fold_id):
    """A distinct, stable seed per (run seed, held-out subject)."""
    return int(np.random.SeedSequence([base_seed, fold_id]).generate_state(1)[0])


def fit(records, idx, model_cfg, train_cfg):
    """Z-score the indexed windows with their own statistics and train a fresh
    model seeded with train_cfg.seed; returns (model, TrainLog, mean, std)."""
    X, y = samples_to_arrays(records, idx)
    mean, std = channel_stats(X)
    X = normalize(X, mean, std)          # drop the raw gather before training
    model = init_parameters(model_cfg, seed=train_cfg.seed)
    log = train(model, X, y, train_cfg)
    return model, log, mean, std


def run_fold(records, train_idx, test_idx, model_cfg, train_cfg, fold_id):
    """Train on train_idx, test on test_idx; returns (FoldResult, TrainLog)."""
    seed = fold_seed(train_cfg.seed, fold_id)
    model, log, mean, std = fit(records, train_idx, model_cfg,
                                replace(train_cfg, seed=seed))
    X_te, y_te = samples_to_arrays(records, test_idx)
    conf = evaluate_confusion(model, normalize(X_te, mean, std), y_te)
    return fold_result(fold_id, conf), log


_worker_env = {}


def _init_worker(records, model_cfg, train_cfg):
    _worker_env.update(records=records, model_cfg=model_cfg, train_cfg=train_cfg)


def _run_one(job):
    fold_id, train_idx, test_idx = job
    e = _worker_env
    result, _ = run_fold(e["records"], train_idx, test_idx, e["model_cfg"],
                         e["train_cfg"], fold_id)
    return result


def run_loso(records, model_cfg, train_cfg, task=None, jobs=1, config_id=""):
    """All LOSO folds (optionally filtered to one task); returns (folds, summary).

    Folds run in min(jobs, folds) worker processes, or in this process when
    that is 1 or less.
    """
    if task is not None and isinstance(task, str):
        task = Task.from_name(task)
    splits = loso_splits(records, task)

    ids = [int(records.subject_id[test[0]]) for _, test in splits]
    jobs_list = [(fid, tr, te) for fid, (tr, te) in zip(ids, splits)]
    workers = min(jobs, len(jobs_list))
    if workers <= 1:
        results = [run_fold(records, tr, te, model_cfg, train_cfg, fid)[0]
                   for fid, tr, te in jobs_list]
    else:
        with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(records, model_cfg, train_cfg)) as ex:
            results = list(ex.map(_run_one, jobs_list))
    results.sort(key=lambda r: r.fold_id)
    summary = aggregate(results, config_id=config_id, task=task)
    return results, summary
