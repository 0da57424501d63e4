"""Splits, fold plans, confusion-matrix metrics, and the k-fold harness."""

import json

import numpy as np
import pytest

from voxcnn import evaluate as E, graph, records, train as T
from voxcnn.errors import InputError, NumericError
from voxcnn.fixtures import load_fixture


def labels_with_counts(cn, ad, mci, seed=0):
    labels = np.array([0] * cn + [1] * ad + [2] * mci)
    return np.random.default_rng(seed).permutation(labels)


# ---------------------------------------------------------------------------
# Stratified split


def test_split_study_composition():
    """CN 68 / AD 70 / MCI 111 at 20% -> exactly 50 test: 14 / 14 / 22."""
    labels = labels_with_counts(cn=68, ad=70, mci=111)
    train_idx, test_idx = E.stratified_split(labels, 0.2, seed=1)
    assert len(test_idx) == 50
    test_labels = labels[test_idx]
    assert (test_labels == 0).sum() == 14
    assert (test_labels == 1).sum() == 14
    assert (test_labels == 2).sum() == 22
    # Partition: every index exactly once.
    assert sorted(np.concatenate([train_idx, test_idx])) == list(range(len(labels)))


def test_split_is_deterministic_and_seed_sensitive():
    labels = labels_with_counts(20, 20, 20)
    a = E.stratified_split(labels, 0.25, seed=5)
    b = E.stratified_split(labels, 0.25, seed=5)
    c = E.stratified_split(labels, 0.25, seed=6)
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_split_rejects_degenerate_fractions():
    labels = labels_with_counts(4, 4, 4)
    for frac in (0.0, 1.0, -0.1):
        with pytest.raises(InputError):
            E.stratified_split(labels, frac, seed=0)


# ---------------------------------------------------------------------------
# Fold plans


def test_fold_plan_partition_and_stratification():
    """56/89/54, k=10, reps=5: 50 runs, exact partitions, near-proportional folds."""
    labels = labels_with_counts(56, 89, 54, seed=3)
    n = len(labels)
    plan = E.repeated_stratified_kfold(labels, k=10, reps=5, seed=9)
    runs = list(plan.runs())
    assert len(runs) == 50

    for rep in range(5):
        folds = [val for r, f, val in runs if r == rep]
        assert len(folds) == 10
        allv = np.concatenate(folds)
        assert sorted(allv) == list(range(n))  # exact partition
        for val in folds:
            vl = labels[val]
            for cls, total in ((0, 56), (1, 89), (2, 54)):
                got = (vl == cls).sum()
                assert abs(got - total / 10) <= 1.0


def test_fold_plan_deterministic_under_seed():
    labels = labels_with_counts(12, 12, 12)
    a = E.repeated_stratified_kfold(labels, 3, 2, seed=4)
    b = E.repeated_stratified_kfold(labels, 3, 2, seed=4)
    for (r1, f1, v1), (r2, f2, v2) in zip(a.runs(), b.runs()):
        assert (r1, f1) == (r2, f2)
        assert np.array_equal(v1, v2)


def test_fold_plan_rejects_k_beyond_smallest_class():
    labels = labels_with_counts(3, 10, 10)
    with pytest.raises(InputError):
        E.repeated_stratified_kfold(labels, k=4, reps=1, seed=0)
    with pytest.raises(InputError):
        E.repeated_stratified_kfold(labels, k=1, reps=1, seed=0)


# ---------------------------------------------------------------------------
# Confusion matrices and metrics


def test_confusion_matrix_12_patient_example():
    """Rows = true class in CN, AD, MCI order; columns = prediction."""
    y_true = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    y_pred = np.array([0, 0, 2, 2, 1, 1, 1, 2, 0, 1, 2, 2])
    cm = E.confusion_matrix(y_true, y_pred)
    assert np.array_equal(cm, [[2, 0, 2], [0, 3, 1], [1, 1, 2]])
    assert abs(E.accuracy(cm) - 7 / 12) < 1e-12


PET_CM = np.array([[9, 0, 5], [0, 8, 6], [4, 4, 14]])
MRI_CM = np.array([[8, 1, 5], [0, 7, 7], [4, 4, 14]])
RESNET_CM = np.array([[9, 0, 5], [0, 10, 4], [1, 5, 16]])


@pytest.mark.parametrize(
    "cm,acc,sens,spec",
    [
        (PET_CM, 0.62, 0.5714, 0.8889),
        (MRI_CM, 0.58, 0.50, 0.8611),
        (RESNET_CM, 0.70, 0.7142, 0.8611),
    ],
)
def test_metric_golden_values(cm, acc, sens, spec):
    assert abs(E.accuracy(cm) - acc) < 1e-4
    got_sens, got_spec = E.sensitivity_specificity(cm)
    assert abs(got_sens - sens) < 1e-4
    assert abs(got_spec - spec) < 1e-4


def test_sensitivity_specificity_collapse_to_positive_vs_rest():
    cm = PET_CM
    tp = cm[1, 1]
    fn = cm[1, 0] + cm[1, 2]
    fp = cm[0, 1] + cm[2, 1]
    tn = cm.sum() - tp - fn - fp
    sens, spec = E.sensitivity_specificity(cm)
    assert sens == tp / (tp + fn)
    assert spec == tn / (tn + fp)


def test_majority_class_baseline():
    labels = labels_with_counts(68, 70, 111)
    majority = max(np.bincount(labels)) / len(labels)
    assert abs(majority - 0.4458) < 5e-5
    assert majority == 111 / 249


def test_confusion_matrix_rejects_out_of_range_labels():
    with pytest.raises(InputError):
        E.confusion_matrix(np.array([0, 3]), np.array([0, 0]))


@pytest.mark.parametrize("call", [
    lambda: E.stratified_split(np.array([0.5, 1.5] * 3), 0.5, 0),
    lambda: E.repeated_stratified_kfold(np.array([0.5, 1.5] * 4), 2, 1, 0),
    lambda: E.confusion_matrix(np.array([0.5, 1]), np.array([0, 1])),
], ids=["stratified_split", "repeated_stratified_kfold", "confusion_matrix"])
def test_labels_that_are_not_integers_raise_input_error(call):
    with pytest.raises(InputError, match="vector of integers"):
        call()


# ---------------------------------------------------------------------------
# run_rkfold


@pytest.fixture(scope="module")
def tiny_data():
    recs, _ = records.gen_synthetic(4, dims=(16, 16, 16), seed=2)
    vols = np.stack([r.volume("PET") for r in recs])
    labels = np.array([r.label for r in recs])
    return vols, labels


def test_run_rkfold_counts_and_report(tiny_data):
    vols, labels = tiny_data
    spec = load_fixture("pet_8_mini")
    hyper = T.HyperParams(lr0=1e-3, epochs=2, batch_size=4, seed=5)
    plan = E.repeated_stratified_kfold(labels, k=2, reps=2, seed=5)
    report = E.run_rkfold(spec, vols, labels, hyper, plan)
    assert len(report.runs) == 4
    assert not report.any_failed
    assert 0.0 <= report.mean_accuracy <= 1.0
    assert len(report.mean_curve.rows) == 2  # pointwise mean over epochs
    d = report.to_dict()
    assert d["k"] == 2 and d["reps"] == 2 and len(d["runs"]) == 4
    # Each run's confusion matrix covers exactly its validation fold.
    for r in report.runs:
        assert r.confusion.sum() == len(labels) // 2


def test_run_rkfold_is_deterministic(tiny_data):
    vols, labels = tiny_data
    spec = load_fixture("mri_9_mini")
    hyper = T.HyperParams(lr0=1e-3, epochs=1, batch_size=4, seed=8)
    plan = E.repeated_stratified_kfold(labels, k=2, reps=1, seed=8)
    a = E.run_rkfold(spec, vols, labels, hyper, plan)
    b = E.run_rkfold(spec, vols, labels, hyper, plan)
    assert a.mean_accuracy == b.mean_accuracy
    for ra, rb in zip(a.runs, b.runs):
        assert np.array_equal(ra.confusion, rb.confusion)


def test_run_rkfold_parallel_matches_serial(tiny_data):
    vols, labels = tiny_data
    spec = load_fixture("mri_9_mini")
    hyper = T.HyperParams(lr0=1e-3, epochs=1, batch_size=4, seed=8)
    plan = E.repeated_stratified_kfold(labels, k=2, reps=1, seed=8)
    serial = E.run_rkfold(spec, vols, labels, hyper, plan, jobs=1)
    parallel = E.run_rkfold(spec, vols, labels, hyper, plan, jobs=2)
    for ra, rb in zip(serial.runs, parallel.runs):
        assert (ra.rep, ra.fold) == (rb.rep, rb.fold)
        assert np.array_equal(ra.confusion, rb.confusion)


def test_fold_plan_rejects_fewer_than_one_repetition():
    labels = np.repeat(np.arange(3), 4)
    for reps in (0, -1):
        with pytest.raises(InputError, match="reps"):
            E.repeated_stratified_kfold(labels, k=2, reps=reps, seed=0)


def test_a_study_whose_runs_all_fail_writes_valid_json(tiny_data, monkeypatch):
    vols, labels = tiny_data

    def diverge(*args, **kwargs):
        raise NumericError("epoch 0 batch 0: non-finite loss")

    monkeypatch.setattr(T, "train", diverge)
    plan = E.repeated_stratified_kfold(labels, k=2, reps=1, seed=5)
    report = E.run_rkfold(load_fixture("pet_8_mini"), vols, labels,
                          T.HyperParams(epochs=1, seed=5), plan)
    assert all(r.failed for r in report.runs) and np.isnan(report.mean_accuracy)
    d = report.to_dict()
    assert d["mean_accuracy"] is None and d["std_accuracy"] is None
    assert json.loads(json.dumps(d, allow_nan=False))["any_failed"] is True


def test_run_rkfold_rejects_fewer_than_one_job(tiny_data):
    vols, labels = tiny_data
    plan = E.repeated_stratified_kfold(labels, k=2, reps=1, seed=5)
    for jobs in (0, -3):
        with pytest.raises(InputError, match="jobs"):
            E.run_rkfold(load_fixture("pet_8_mini"), vols, labels, T.HyperParams(), plan, jobs=jobs)


@pytest.mark.parametrize("extra", [2, -2], ids=["more_volumes", "fewer_volumes"])
def test_run_rkfold_rejects_volumes_and_labels_of_different_counts(tiny_data, extra):
    vols, labels = tiny_data
    vols = np.concatenate([vols, vols[:extra]]) if extra > 0 else vols[:extra]
    plan = E.repeated_stratified_kfold(labels, k=2, reps=1, seed=5)
    with pytest.raises(InputError, match="different numbers of samples"):
        E.run_rkfold(load_fixture("pet_8_mini"), vols, labels, T.HyperParams(), plan)


def _curve(*rows):
    return T.LearningCurve([T.CurveRow(e, *row) for e, row in enumerate(rows)])


def test_a_report_summarises_the_runs_that_did_not_fail():
    plan = E.repeated_stratified_kfold(np.repeat(np.arange(3), 3), k=3, reps=1, seed=0)
    error = "epoch 0 batch 0: non-finite loss"
    runs = [
        E.RunResult(0, 0, np.diag([1, 1, 1]), _curve((1.0, 0.5, 2.0, 0.25), (0.5, 0.75, 1.0, 0.5))),
        E.RunResult(0, 1, None, None, error=error),
        E.RunResult(0, 2, np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0]]), _curve((3.0, 0.25, 4.0, 0.75))),
    ]
    report = E.EvalReport(plan, runs)
    assert [r.failed for r in runs] == [False, True, False] and report.any_failed
    assert report.mean_accuracy == np.mean([1.0, 2 / 3])
    assert report.std_accuracy == np.std([1.0, 2 / 3])
    # the epoch-wise mean, over the epochs that both runs reached
    assert report.mean_curve.rows == [T.CurveRow(0, 2.0, 0.375, 3.0, 0.5)]
    d = report.to_dict()
    assert d["mean_curve"] == [{"epoch": 0, "train_loss": 2.0, "train_acc": 0.375,
                                "val_loss": 3.0, "val_acc": 0.5}]
    assert d["runs"][1] == {"rep": 0, "fold": 1, "failed": True, "error": error, "confusion": None}
    assert d["mean_accuracy"] == report.mean_accuracy and d["any_failed"] is True
