"""Stratified splitting, repeated stratified k-fold, and the study metrics.

Classes are CN=0, AD=1, MCI=2.  Sensitivity/specificity collapse the
three-class confusion matrix to AD-vs-rest.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import graph, train as T
from .errors import InputError, NumericError, require_int
from .records import CLASS_NAMES
from .rng import substream

N_CLASSES = len(CLASS_NAMES)
AD = 1


def stratified_split(labels, test_frac: float, seed: int):
    """Class-proportional (train, test) index split.

    Per-class test counts follow largest-remainder apportionment against the
    global target round(test_frac * n), so e.g. 70/111/68 at 20% gives a
    50-sample test set with 14/22/14 per class.
    """
    if not 0.0 < test_frac < 1.0:
        raise InputError("test_frac must be in (0, 1)")
    labels = T.check_labels(labels, N_CLASSES)
    n = len(labels)
    target = round(test_frac * n)
    classes, counts = np.unique(labels, return_counts=True)
    ideal = test_frac * counts
    base = np.floor(ideal).astype(int)
    remainder = target - base.sum()
    order = np.argsort(-(ideal - base), kind="stable")
    take = base.copy()
    for i in order[:remainder]:
        take[i] += 1

    rng = substream(seed, "split")
    test_idx = []
    for cls, cnt in zip(classes, take):
        members = np.flatnonzero(labels == cls)
        picked = rng.permutation(len(members))[:cnt]
        test_idx.append(members[picked])
    test = np.sort(np.concatenate(test_idx)) if test_idx else np.array([], dtype=int)
    mask = np.ones(n, dtype=bool)
    mask[test] = False
    return np.flatnonzero(mask), test


@dataclass
class FoldPlan:
    reps: int
    k: int
    # assignment[rep][fold] -> validation index array
    assignment: list[list[np.ndarray]]

    def runs(self):
        for rep in range(self.reps):
            for fold in range(self.k):
                yield rep, fold, self.assignment[rep][fold]


def repeated_stratified_kfold(labels, k: int, reps: int, seed: int) -> FoldPlan:
    """Class-proportional k-fold partitions, repeated with fresh shuffles."""
    labels = T.check_labels(labels, N_CLASSES)
    classes, counts = np.unique(labels, return_counts=True)
    if k < 2:
        raise InputError("k must be >= 2")
    if reps < 1:
        raise InputError("reps must be >= 1")
    if k > counts.min():
        raise InputError(f"k={k} exceeds the smallest class count {counts.min()}")
    assignment = []
    for rep in range(reps):
        rng = substream(seed, "kfold", rep)
        folds = [[] for _ in range(k)]
        for cls in classes:
            members = np.flatnonzero(labels == cls)
            members = members[rng.permutation(len(members))]
            for fold, chunk in enumerate(np.array_split(members, k)):
                folds[fold].append(chunk)
        assignment.append([np.sort(np.concatenate(parts)) for parts in folds])
    return FoldPlan(reps, k, assignment)


def confusion_matrix(y_true, y_pred) -> np.ndarray:
    """3x3 counts; rows are the real class, columns the predicted class."""
    y_true = T.check_labels(y_true, N_CLASSES)
    y_pred = T.check_labels(y_pred, N_CLASSES)
    if len(y_true) != len(y_pred):
        raise InputError("label vectors must have equal length")
    cm = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm)
    total = cm.sum()
    if total == 0:
        raise InputError("empty confusion matrix")
    return float(np.trace(cm) / total)


def sensitivity_specificity(cm: np.ndarray, positive_class: int = AD):
    """(sensitivity, specificity) after collapsing to positive-vs-rest."""
    cm = np.asarray(cm)
    tp = cm[positive_class, positive_class]
    fn = cm[positive_class].sum() - tp
    fp = cm[:, positive_class].sum() - tp
    tn = cm.sum() - tp - fn - fp
    if tp + fn == 0:
        raise InputError("no samples of the positive class")
    return float(tp / (tp + fn)), float(tn / (tn + fp))


@dataclass
class RunResult:
    rep: int
    fold: int
    confusion: np.ndarray | None
    curve: T.LearningCurve | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


_CURVE_FIELDS = ("train_loss", "train_acc", "val_loss", "val_acc")


@dataclass
class EvalReport:
    """A study's plan and runs; the accuracy and curve summaries use the runs that did not fail."""

    plan: FoldPlan
    runs: list[RunResult]
    metadata: dict = field(default_factory=dict)

    @property
    def any_failed(self) -> bool:
        return any(r.failed for r in self.runs)

    def _accuracies(self) -> list[float]:
        return [accuracy(r.confusion) for r in self.runs if not r.failed]

    @property
    def mean_accuracy(self) -> float:
        accs = self._accuracies()
        return float(np.mean(accs)) if accs else float("nan")

    @property
    def std_accuracy(self) -> float:
        accs = self._accuracies()
        return float(np.std(accs)) if accs else float("nan")

    @property
    def mean_curve(self) -> T.LearningCurve:
        """The epoch-wise mean of the curves, over the epochs that every run reached."""
        epochs = zip(*(r.curve.rows for r in self.runs if not r.failed))
        return T.LearningCurve([
            T.CurveRow(e, *(float(np.mean([getattr(row, f) for row in rows])) for f in _CURVE_FIELDS))
            for e, rows in enumerate(epochs)
        ])

    def to_dict(self) -> dict:
        return {
            "reps": self.plan.reps,
            "k": self.plan.k,
            "mean_accuracy": _finite_or_none(self.mean_accuracy),
            "std_accuracy": _finite_or_none(self.std_accuracy),
            "any_failed": self.any_failed,
            "runs": [
                {
                    "rep": r.rep,
                    "fold": r.fold,
                    "failed": r.failed,
                    "error": r.error,
                    "confusion": None if r.confusion is None else r.confusion.tolist(),
                }
                for r in self.runs
            ],
            "mean_curve": [asdict(row) for row in self.mean_curve.rows],
            "metadata": self.metadata,
        }


def _finite_or_none(value: float) -> float | None:
    """JSON has no NaN: a mean or std that no run produced is written as null."""
    return value if np.isfinite(value) else None


def run_rkfold(spec: graph.ModelSpec, volumes, labels, hyper: T.HyperParams,
               plan: FoldPlan, augmentor=None, jobs: int = 1) -> EvalReport:
    """Train a fresh model per (rep, fold) and aggregate metrics.

    Model parameters and optimizer state are never reused across folds.
    Validation indices are asserted disjoint from training indices on every
    run (leakage guard).  ``jobs`` bounds fold-level parallelism; every run
    draws its seed from its own (rep, fold) substream, so results do not
    depend on scheduling.  A fold is scored from its last validation pass,
    which ran the trained model on the fold's validation samples.
    """
    require_int("jobs", jobs)
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    labels = T.check_labels(labels, N_CLASSES)
    all_idx = np.arange(T.sample_count(volumes, labels))

    def one_run(rep, fold, val_idx) -> RunResult:
        train_idx = np.setdiff1d(all_idx, val_idx)
        assert not np.intersect1d(train_idx, val_idx).size, "train/validation overlap"
        run_seed = int(substream(hyper.seed, "run", rep, fold).integers(0, 2**31 - 1))
        run_hyper = replace(hyper, seed=run_seed)
        model = graph.build(spec, seed=run_seed)
        try:
            model, curve = T.train(
                model,
                (T._take(volumes, train_idx), labels[train_idx]),
                (T._take(volumes, val_idx), labels[val_idx]),
                run_hyper,
                augmentor=augmentor,
            )
            probs = curve.val_probs
            if probs is None:
                probs = T.predict(model, T._take(volumes, val_idx), run_hyper.batch_size)
            cm = confusion_matrix(labels[val_idx], probs.argmax(axis=1))
            return RunResult(rep, fold, cm, curve)
        except NumericError as exc:
            return RunResult(rep, fold, None, None, error=str(exc))

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        runs = list(pool.map(lambda args: one_run(*args), plan.runs()))
    return EvalReport(plan, runs,
                      metadata={"seed": hyper.seed, "spec": spec.name, "epochs": hyper.epochs})
