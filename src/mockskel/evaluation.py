"""Model evaluation: stratified k-fold cross-validation, weighted
precision/recall from the pooled confusion matrix, and mean/std
aggregation across a dataset's targets."""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDatasetError
from .learners import LearnerParams, model_size, predict_encoded, train
from .prep import PreparedDataset

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FoldMetrics:
    accuracy: float
    precision: float
    recall: float
    model_size: int


@dataclass(frozen=True)
class TargetMetrics:
    """Cross-validated metrics of one learner on one target."""

    target: str
    learner: str
    accuracy: float
    precision: float
    recall: float
    model_size: float  # mean over folds
    per_fold: tuple[FoldMetrics, ...] = ()
    #: pooled confusion matrix, rows = actual, columns = predicted
    confusion: tuple[tuple[int, ...], ...] = ()
    folds: int = 10
    seed: int = 1

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "learner": self.learner,
            "accuracy": round(self.accuracy, 6),
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "modelSize": round(self.model_size, 6),
            "folds": self.folds,
            "seed": self.seed,
            "perFold": [
                {
                    "accuracy": round(f.accuracy, 6),
                    "precision": round(f.precision, 6),
                    "recall": round(f.recall, 6),
                    "modelSize": f.model_size,
                }
                for f in self.per_fold
            ],
        }


@dataclass(frozen=True)
class AggregateReport:
    """Mean and sample standard deviation over all evaluated targets."""

    dataset: str
    learner: str
    n_targets: int
    mean_accuracy: float
    std_accuracy: float
    mean_precision: float
    std_precision: float
    mean_recall: float
    std_recall: float
    mean_size: float
    std_size: float

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "learner": self.learner,
            "targets": self.n_targets,
            "meanAccuracy": round(self.mean_accuracy, 6),
            "stdAccuracy": round(self.std_accuracy, 6),
            "meanPrecision": round(self.mean_precision, 6),
            "stdPrecision": round(self.std_precision, 6),
            "meanRecall": round(self.mean_recall, 6),
            "stdRecall": round(self.std_recall, 6),
            "meanSize": round(self.mean_size, 6),
            "stdSize": round(self.std_size, 6),
        }


def stratified_folds(dataset: PreparedDataset, k: int = 10, seed: int = 1) -> list[np.ndarray]:
    """The folds ``cross_validate`` trains on: a partition of the rows of a
    prepared dataset into k folds whose per-class counts differ by at most
    one."""
    n = len(dataset)
    if n == 0:
        raise DegenerateDatasetError("cannot fold an empty dataset")
    if n < k:
        log.warning("only %d instances for %d folds, falling back to leave-one-out", n, k)
        k = n
    rng = random.Random(seed)
    by_class: dict = {}
    for i, code in enumerate(dataset.y.tolist()):
        by_class.setdefault(code, []).append(i)
    # deal the shuffled classes, in the string order of their codes,
    # round-robin: position p goes to fold p % k
    dealt: list[int] = []
    for code in sorted(by_class, key=str):
        indices = by_class[code]
        rng.shuffle(indices)
        dealt.extend(indices)
    order = np.array(dealt, dtype=np.intp)
    fold_of = np.arange(n) % k
    return [np.sort(order[fold_of == f]) for f in range(k)]


def weighted_precision_recall(confusion: np.ndarray) -> tuple[float, float]:
    """Class-frequency-weighted one-vs-rest precision and recall.

    Classes never predicted contribute precision 0; weights are the
    actual class supports, so weighted recall equals pooled accuracy.
    """
    total = confusion.sum()
    if total == 0:
        return 0.0, 0.0
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    precision = 0.0
    recall = 0.0
    for c in range(confusion.shape[0]):
        if support[c] == 0:
            continue
        weight = support[c] / total
        if predicted[c] > 0:
            precision += weight * confusion[c, c] / predicted[c]
        recall += weight * confusion[c, c] / support[c]
    return float(precision), float(recall)


def cross_validate(
    dataset: PreparedDataset,
    learner: str,
    params: LearnerParams = LearnerParams(),
    k: int = 10,
    seed: int = 1,
) -> TargetMetrics:
    """k-fold cross-validation of one learner on one target.

    Accuracy, precision, and recall are computed from the confusion
    matrix pooled over all held-out folds, whose rows are predicted with
    ``classify``; model size is averaged over the per-fold models.
    """
    folds = stratified_folds(dataset, k, seed)
    n_classes = dataset.n_classes
    pooled = np.zeros((n_classes, n_classes), dtype=np.int64)
    per_fold: list[FoldMetrics] = []
    sizes: list[int] = []

    for held_out in folds:
        if len(held_out) == 0:
            continue
        mask = np.ones(len(dataset), dtype=bool)
        mask[held_out] = False
        train_rows = np.flatnonzero(mask)
        if len(train_rows) == 0:
            continue
        model = train(learner, dataset, params, rows=train_rows)
        size = model_size(model)
        sizes.append(size)
        cells = dataset.y[held_out] * n_classes + predict_encoded(model, dataset, held_out)
        fold_confusion = np.bincount(cells, minlength=n_classes * n_classes).reshape(n_classes, n_classes)
        pooled += fold_confusion
        facc = float(np.trace(fold_confusion) / fold_confusion.sum())
        fprec, frec = weighted_precision_recall(fold_confusion)
        per_fold.append(FoldMetrics(facc, fprec, frec, size))

    accuracy = float(np.trace(pooled) / pooled.sum())
    precision, recall = weighted_precision_recall(pooled)
    return TargetMetrics(
        target=dataset.target,
        learner=learner,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        model_size=float(np.mean(sizes)) if sizes else 0.0,
        per_fold=tuple(per_fold),
        confusion=tuple(tuple(int(x) for x in row) for row in pooled),
        folds=len(folds),
        seed=seed,
    )


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def aggregate(metrics: Sequence[TargetMetrics], dataset: str = "") -> AggregateReport:
    """Mean and sample standard deviation across targets (one learner)."""
    if not metrics:
        raise ValueError("cannot aggregate an empty metrics list")
    learners = {m.learner for m in metrics}
    if len(learners) != 1:
        raise ValueError(f"aggregate() expects one learner, got {sorted(learners)}")
    acc = _mean_std([m.accuracy for m in metrics])
    prec = _mean_std([m.precision for m in metrics])
    rec = _mean_std([m.recall for m in metrics])
    size = _mean_std([m.model_size for m in metrics])
    return AggregateReport(
        dataset=dataset,
        learner=metrics[0].learner,
        n_targets=len(metrics),
        mean_accuracy=acc[0],
        std_accuracy=acc[1],
        mean_precision=prec[0],
        std_precision=prec[1],
        mean_recall=rec[0],
        std_recall=rec[1],
        mean_size=size[0],
        std_size=size[1],
    )


# ---------------------------------------------------------------------------
# Report serialization


def report_json(
    dataset: str,
    seed: int,
    folds: int,
    metrics: Sequence[TargetMetrics],
    aggregates: Sequence[AggregateReport],
    removals=(),
) -> str:
    obj = {
        "dataset": dataset,
        "seed": seed,
        "folds": folds,
        "targets": [m.to_json_dict() for m in metrics],
        "aggregates": [a.to_json_dict() for a in aggregates],
        "removed": [r.to_json_dict() for r in removals],
    }
    return json.dumps(obj, indent=2) + "\n"


def metrics_csv(metrics: Sequence[TargetMetrics]) -> str:
    """One CSV row per target and learner; a target name holding a comma,
    quote or line break is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["target", "learner", "accuracy", "precision", "recall", "modelSize"])
    for m in metrics:
        writer.writerow([m.target, m.learner, f"{m.accuracy:.6f}", f"{m.precision:.6f}",
                         f"{m.recall:.6f}", f"{m.model_size:.4f}"])
    return out.getvalue()


def render_aggregate_table(aggregates: Sequence[AggregateReport]) -> str:
    """Human-readable dataset x learner grid of mean±std per metric."""
    datasets = list(dict.fromkeys(a.dataset for a in aggregates))
    learners = list(dict.fromkeys(a.learner for a in aggregates))
    by_key = {(a.dataset, a.learner): a for a in aggregates}
    blocks = [
        ("Accuracy", "mean_accuracy", "std_accuracy"),
        ("Precision", "mean_precision", "std_precision"),
        ("Recall", "mean_recall", "std_recall"),
        ("Tree size / number of rules", "mean_size", "std_size"),
    ]
    width = max([len(d) for d in datasets] + [7]) + 2
    out = []
    for title, mean_attr, std_attr in blocks:
        out.append(title)
        header = " " * width + "".join(f"{name:>18}" for name in learners)
        out.append(header)
        for ds in datasets:
            cells = []
            for learner in learners:
                agg = by_key.get((ds, learner))
                cell = (
                    f"{getattr(agg, mean_attr):.4f}±{getattr(agg, std_attr):.4f}"
                    if agg
                    else "-"
                )
                cells.append(f"{cell:>18}")
            out.append(f"{ds:<{width}}" + "".join(cells))
        out.append("")
    return "\n".join(out)
