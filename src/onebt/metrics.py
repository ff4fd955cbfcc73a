"""Classification metrics and fold aggregation.

Conventions: confusion rows are true labels and columns predictions;
precision/F1 are binary on the "hard" class (label 1); the ± bands are
population standard deviations. Scores are kept as fractions in [0, 1] and
scaled by 100 only when rendered.
"""

import json
from dataclasses import dataclass, asdict

import numpy as np

from .data import HARD

__all__ = [
    "FoldResult", "RunSummary",
    "confusion_matrix", "compute_metrics", "fold_result",
    "aggregate", "cross_task_mean", "fmt_mean_std",
    "render_table", "write_records",
]


@dataclass
class FoldResult:
    fold_id: int                # held-out subject
    confusion: np.ndarray       # 2x2, rows true / cols predicted
    accuracy: float
    precision: float
    f1: float
    degenerate: bool = False    # a zero denominator was replaced by score 0


@dataclass
class RunSummary:
    config_id: str
    task: int | None
    n_folds: int
    accuracy_mean: float
    accuracy_std: float
    precision_mean: float
    precision_std: float
    f1_mean: float
    f1_std: float


def confusion_matrix(y_true, y_pred, n_classes=2):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (y_true, y_pred), 1)
    return conf


def compute_metrics(conf):
    """(accuracy, precision, f1, degenerate) from a confusion matrix, with
    precision and F1 scored on the hard class. Zero denominators give 0 and
    set the degenerate flag.
    """
    conf = np.asarray(conf)
    if conf.ndim != 2 or conf.shape[0] != conf.shape[1] or conf.size == 0:
        raise ValueError(f"confusion matrix must be square and nonempty, got {conf.shape}")
    if (conf < 0).any():
        raise ValueError("confusion matrix entries must be nonnegative")
    total = conf.sum()
    if total == 0:
        raise ValueError("confusion matrix is all zeros")
    accuracy = float(np.trace(conf) / total)
    tp = conf[HARD, HARD]
    fp = conf[:, HARD].sum() - tp
    fn = conf[HARD, :].sum() - tp
    precision = 0.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 0.0 if tp + fn == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    degenerate = bool(tp + fp == 0 or precision + recall == 0)
    return accuracy, float(precision), float(f1), degenerate


def fold_result(fold_id, conf):
    return FoldResult(fold_id, np.asarray(conf), *compute_metrics(conf))


def aggregate(folds, config_id="", task=None):
    """Mean and population std of each metric over folds."""
    if not folds:
        raise ValueError("aggregate needs at least one fold")
    vals = {name: np.array([getattr(f, name) for f in folds])
            for name in ("accuracy", "precision", "f1")}
    sd = {name: float(v.std()) for name, v in vals.items()}
    return RunSummary(
        config_id=config_id, task=task, n_folds=len(folds),
        accuracy_mean=float(vals["accuracy"].mean()), accuracy_std=sd["accuracy"],
        precision_mean=float(vals["precision"].mean()), precision_std=sd["precision"],
        f1_mean=float(vals["f1"].mean()), f1_std=sd["f1"],
    )


def cross_task_mean(summaries):
    """Mean of the nine per-task metric means (3 tasks x 3 metrics)."""
    if len(summaries) != 3:
        raise ValueError(f"cross_task_mean needs exactly 3 task summaries, got {len(summaries)}")
    nine = [m for s in summaries for m in (s.accuracy_mean, s.precision_mean, s.f1_mean)]
    return float(np.mean(nine))


# ---------------------------------------------------------------------------
# rendering

def fmt_mean_std(mean, std):
    return f"{100 * mean:.2f} ± {100 * std:.2f}"


def render_table(headers, rows):
    """Aligned plain-text table; every cell is str()-ed."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def write_records(path, records):
    """Line-delimited JSON, one record per line, keys sorted."""
    def clean(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        if isinstance(v, (np.integer, np.floating)):
            return v.item()
        return v

    with open(path, "w") as f:
        for rec in records:
            if hasattr(rec, "__dataclass_fields__"):
                rec = asdict(rec)
            f.write(json.dumps({k: clean(v) for k, v in rec.items()}, sort_keys=True) + "\n")
