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
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import DegenerateDatasetError
from .learners import train
from .learners.base import predict_encoded
from .model import model_size
from .prep import PreparedDataset
from .settings import LearnerParams

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Scores:
    """The four scores a learner is judged by, of one fold, one target or,
    as a mean or a spread, of a dataset's targets."""

    accuracy: float
    precision: float
    recall: float
    model_size: float


_SCORE_NAMES = tuple(f.name for f in fields(Scores))
#: each score's report key, alone and after ``mean``/``std``
_REPORT_KEYS = {"accuracy": ("accuracy", "Accuracy"), "precision": ("precision", "Precision"),
                "recall": ("recall", "Recall"), "model_size": ("modelSize", "Size")}


def _score_keys(*halves: tuple[str, Scores]) -> dict:
    """The report keys of each ``(prefix, scores)`` half, score by score and
    rounded to 6 places: ``("", s)`` gives ``accuracy`` ... ``modelSize``,
    and an aggregate's ``("mean", m), ("std", s)`` give ``meanAccuracy``,
    ``stdAccuracy`` ... ``meanSize``, ``stdSize``.  A ``TargetMetrics``,
    which has the four fields of ``Scores``, stands for its own scores."""
    return {
        prefix + suffix if prefix else key: round(getattr(scores, name), 6)
        for name, (key, suffix) in _REPORT_KEYS.items()
        for prefix, scores in halves
    }


@dataclass(frozen=True)
class TargetMetrics:
    """Cross-validated scores of one learner on one target."""

    target: str
    learner: str
    accuracy: float
    precision: float
    recall: float
    model_size: float  # mean over folds
    per_fold: tuple[Scores, ...] = ()
    #: pooled confusion matrix, rows = actual, columns = predicted
    confusion: tuple[tuple[int, ...], ...] = ()
    folds: int = 10
    seed: int = 1

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "learner": self.learner,
            **_score_keys(("", self)),
            "folds": self.folds,
            "seed": self.seed,
            "perFold": [_score_keys(("", f)) for f in self.per_fold],
        }


@dataclass(frozen=True)
class AggregateReport:
    """Mean and sample standard deviation of each score over the targets."""

    dataset: str
    learner: str
    n_targets: int
    mean: Scores
    std: Scores

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "learner": self.learner,
            "targets": self.n_targets,
            **_score_keys(("mean", self.mean), ("std", self.std)),
        }


def stratified_folds(dataset: PreparedDataset, k: int = 10, seed: int = 1) -> list[np.ndarray]:
    """The folds ``cross_validate`` trains on: a partition of the rows of a
    prepared dataset into k folds whose per-class counts differ by at most
    one.  With at least 2 rows and 2 folds, every fold holds a row and
    leaves a row to train on."""
    n = len(dataset)
    if k < 2:
        raise ValueError(f"cannot cross-validate with {k} folds")
    if n < 2:
        raise DegenerateDatasetError(f"cannot fold {n} rows: a fold needs a row to train on")
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


def _scores(confusion: np.ndarray, model_size: float) -> Scores:
    """The scores of the predictions a confusion matrix counts, made by
    models of (mean) size ``model_size``."""
    precision, recall = weighted_precision_recall(confusion)
    return Scores(float(np.trace(confusion) / confusion.sum()), precision, recall, model_size)


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
    per_fold: list[Scores] = []
    for held_out in folds:
        mask = np.ones(len(dataset), dtype=bool)
        mask[held_out] = False
        model = train(learner, dataset, params, rows=np.flatnonzero(mask))
        cells = dataset.y[held_out] * n_classes + predict_encoded(model, dataset, held_out)
        fold_confusion = np.bincount(cells, minlength=n_classes * n_classes).reshape(n_classes, n_classes)
        pooled += fold_confusion
        per_fold.append(_scores(fold_confusion, model_size(model)))

    scores = _scores(pooled, float(np.mean([f.model_size for f in per_fold])))
    return TargetMetrics(
        target=dataset.target,
        learner=learner,
        **asdict(scores),
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
    means, stds = zip(*(_mean_std([getattr(m, name) for m in metrics]) for name in _SCORE_NAMES))
    return AggregateReport(dataset, metrics[0].learner, len(metrics), Scores(*means), Scores(*stds))


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
    titles = ("Accuracy", "Precision", "Recall", "Tree size / number of rules")
    width = max([len(d) for d in datasets] + [7]) + 2
    out = []
    for title, score in zip(titles, _SCORE_NAMES):
        out.append(title)
        out.append(" " * width + "".join(f"{learner:>18}" for learner in learners))
        for ds in datasets:
            aggs = (by_key.get((ds, learner)) for learner in learners)
            cells = (f"{getattr(a.mean, score):.4f}±{getattr(a.std, score):.4f}" if a else "-" for a in aggs)
            out.append(f"{ds:<{width}}" + "".join(f"{cell:>18}" for cell in cells))
        out.append("")
    return "\n".join(out)
