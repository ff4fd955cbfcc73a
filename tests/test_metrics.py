"""Metrics: confusion building, hard-class scores, fold aggregation,
the cross-task mean contract, and the text renderers."""

import json

import numpy as np
import pytest

from onebt.metrics import (FoldResult, confusion_matrix,
                           compute_metrics, fold_result, aggregate,
                           cross_task_mean, fmt_mean_std, render_table,
                           write_records)
from reference_tables import PUBLISHED


def test_confusion_layout_rows_true_cols_pred():
    conf = confusion_matrix([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
    # row = true label, col = predicted label
    np.testing.assert_array_equal(conf, [[1, 1], [1, 2]])


def test_confusion_multiclass():
    conf = confusion_matrix([0, 1, 2, 2], [0, 2, 2, 1], n_classes=3)
    assert conf.shape == (3, 3)
    assert conf.sum() == 4
    assert conf[2, 2] == 1 and conf[1, 2] == 1


def test_perfect_predictions():
    accuracy, precision, f1, degenerate = compute_metrics([[7, 0], [0, 5]])
    assert (accuracy, precision, f1) == (1.0, 1.0, 1.0)
    assert not degenerate


def test_hand_worked_example():
    # tp=9 fp=2 fn=3 tn=10 with positive=1
    accuracy, precision, f1, degenerate = compute_metrics([[10, 2], [3, 9]])
    assert accuracy == pytest.approx(19 / 24)
    assert precision == pytest.approx(9 / 11)
    recall = 9 / 12
    assert f1 == pytest.approx(2 * (9 / 11) * recall / (9 / 11 + recall))
    assert not degenerate


def test_all_predicted_negative_is_degenerate():
    accuracy, precision, f1, degenerate = compute_metrics([[6, 0], [6, 0]])
    assert accuracy == pytest.approx(0.5)
    assert precision == 0.0
    assert f1 == 0.0
    assert degenerate


def test_metrics_input_validation():
    with pytest.raises(ValueError):
        compute_metrics([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        compute_metrics([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        compute_metrics([[1, -1], [0, 2]])


def _fold(fid, acc):
    """FoldResult with a synthetic confusion hitting the requested accuracy."""
    n = 100
    tp = tn = int(round(acc * n)) // 2
    fp = (n - tp - tn) // 2
    fn = n - tp - tn - fp
    conf = np.array([[tn, fp], [fn, tp]])
    return fold_result(fid, conf)


def test_aggregate_singleton_has_zero_std():
    s = aggregate([_fold(0, 0.8)], config_id="solo")
    assert s.n_folds == 1
    assert s.accuracy_std == 0.0
    assert s.accuracy_mean == pytest.approx(0.8)


def test_aggregate_population_vs_sample_std():
    folds = [_fold(i, a) for i, a in enumerate((0.6, 0.7, 0.8))]
    pop = aggregate(folds)
    accs = [f.accuracy for f in folds]
    assert pop.accuracy_mean == pytest.approx(np.mean(accs))
    assert pop.accuracy_std == pytest.approx(np.std(accs, ddof=0))
    with pytest.raises(ValueError):
        aggregate([])


def test_cross_task_mean_is_mean_of_nine():
    sums = [aggregate([_fold(0, a), _fold(1, a + 0.1)], task=t)
            for t, a in enumerate((0.6, 0.7, 0.8))]
    nine = [v for s in sums for v in
            (s.accuracy_mean, s.precision_mean, s.f1_mean)]
    assert cross_task_mean(sums) == pytest.approx(np.mean(nine))
    with pytest.raises(ValueError):
        cross_task_mean(sums[:2])


def test_cross_task_mean_reproduces_published_row():
    """The headline row: nine cell values average to the printed mean."""
    row = PUBLISHED[("table1", "blocks=1")]
    nine = [v for task in ("IQ", "MATH", "GAME") for v in row["cells"][task]]
    assert np.mean(nine) == pytest.approx(row["mean"], abs=0.01)


def test_fmt_mean_std():
    assert fmt_mean_std(0.6414, 0.0673) == "64.14 ± 6.73"
    assert fmt_mean_std(1.0, 0.0) == "100.00 ± 0.00"


def test_render_table_alignment():
    out = render_table(["cfg", "acc"], [["a", "64.14"], ["longer", "7.00"]])
    lines = out.split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("cfg")
    assert set(lines[1]) <= {"-", " "}
    assert all(len(l) <= len(max(lines, key=len)) for l in lines)


def test_write_records_jsonl(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [
        {"a": np.float32(1.5), "b": np.array([1, 2])},
        fold_result(3, np.array([[5, 0], [1, 4]])),
    ])
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"a": 1.5, "b": [1, 2]}
    second = json.loads(lines[1])
    assert second["fold_id"] == 3
    assert second["confusion"] == [[5, 0], [1, 4]]
    assert second["accuracy"] == pytest.approx(0.9)
