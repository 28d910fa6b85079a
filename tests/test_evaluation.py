import csv
import io
import random
from collections import Counter

import numpy as np
import pytest

from conftest import make_dataset, target_labels
from mockskel.errors import DegenerateDatasetError
from mockskel.evaluation import (
    TargetMetrics,
    aggregate,
    cross_validate,
    metrics_csv,
    render_aggregate_table,
    report_json,
    stratified_folds,
    weighted_precision_recall,
)
from mockskel.learners import train
from mockskel.model import model_size
from mockskel.settings import LearnerParams, TreeParams


def imbalanced_rows(n=1000, share=0.635, seed=3):
    """Two-class target with inputs carrying no signal."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        klass = "route-a" if i < int(n * share) else "no-exist"
        rows.append([rng.choice("ab"), rng.choice("cd"), klass])
    rng.shuffle(rows)
    return rows


class TestStratifiedFolds:
    def test_80_20_distribution(self):
        rows = [["x", "200"]] * 80 + [["x", "404"]] * 20
        ds = make_dataset(rows, ["a"])
        folds = stratified_folds(ds, k=10, seed=1)
        labels = target_labels(ds)
        for fold in folds:
            counts = Counter(labels[i] for i in fold)
            assert counts["200"] == 8
            assert counts["404"] == 2

    def test_singleton_folds(self):
        rows = [["x", str(200 + i)] for i in range(10)]
        ds = make_dataset(rows, ["a"])
        folds = stratified_folds(ds, k=10, seed=1)
        assert all(len(f) == 1 for f in folds)

    def test_same_seed_identical(self):
        rows = [["x", "200"]] * 55 + [["y", "404"]] * 45
        ds = make_dataset(rows, ["a"])
        a = stratified_folds(ds, k=10, seed=4)
        b = stratified_folds(ds, k=10, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_partition(self):
        rows = [["x", str(200 + i % 3)] for i in range(101)]
        ds = make_dataset(rows, ["a"])
        folds = stratified_folds(ds, k=10, seed=2)
        everything = np.concatenate(folds)
        assert len(everything) == 101
        assert len(set(everything.tolist())) == 101

    def test_fewer_instances_than_folds_falls_back_to_loo(self):
        rows = [["x", "200"], ["x", "404"], ["y", "200"]]
        ds = make_dataset(rows, ["a"])
        folds = stratified_folds(ds, k=10, seed=1)
        assert len(folds) == 3
        assert all(len(f) == 1 for f in folds)

    def test_one_row_cannot_be_folded(self):
        # the fold holding the only row would leave nothing to train on
        ds = make_dataset([["x", "200"]], ["a"])
        with pytest.raises(DegenerateDatasetError):
            stratified_folds(ds, k=10, seed=1)
        with pytest.raises(DegenerateDatasetError):
            cross_validate(ds, "c45", k=10, seed=1)

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_folds_are_refused(self, k):
        ds = make_dataset([["x", "200"], ["y", "404"]], ["a"])
        with pytest.raises(ValueError):
            stratified_folds(ds, k=k, seed=1)

    def test_folds_are_the_ones_cross_validation_trains_on(self):
        # the labels sort 9 < 10 < 200 in the domain but "10" < "200" < "9"
        # as strings, so folds dealt in label-string order would differ
        rng = random.Random(0)
        rows = [
            [rng.choice("xyz"), rng.choice("pq"), rng.choice("uvw"), rng.choice(["9", "10", "200"])]
            for _ in range(60)
        ]
        ds = make_dataset(rows, ["a", "b", "c"])
        assert ds.target_domain == ("9", "10", "200")
        params = LearnerParams(c45=TreeParams(min_leaf_instances=1))
        metrics = cross_validate(ds, "c45", params, k=10, seed=1)
        expected = [
            model_size(train("c45", ds, params, rows=np.setdiff1d(ds.all_rows(), fold)))
            for fold in stratified_folds(ds, k=10, seed=1)
        ]
        assert len(set(expected)) > 1  # the sizes tell the folds apart
        assert [f.model_size for f in metrics.per_fold] == expected


class TestWeightedMetrics:
    def test_recall_equals_pooled_accuracy(self):
        rng = random.Random(7)
        for _ in range(100):
            k = rng.randrange(2, 5)
            confusion = np.array(
                [[rng.randrange(0, 30) for _ in range(k)] for _ in range(k)]
            )
            if confusion.sum() == 0:
                continue
            _, recall = weighted_precision_recall(confusion)
            assert recall == pytest.approx(np.trace(confusion) / confusion.sum())

    def test_never_predicted_class_contributes_zero_precision(self):
        confusion = np.array([[10, 0], [5, 0]])  # second class never predicted
        precision, recall = weighted_precision_recall(confusion)
        assert precision == pytest.approx((10 / 15) * (10 / 15))
        assert recall == pytest.approx(10 / 15)


class TestCrossValidate:
    def test_learnable_target_scores_high(self):
        rng = random.Random(5)
        rows = []
        for _ in range(300):
            method = rng.choice(["GET", "DELETE"])
            created = rng.choice(["true", "false"])
            status = "404" if created == "false" else ("200" if method == "GET" else "204")
            rows.append([method, created, status])
        ds = make_dataset(rows, ["method", "everCreated"])
        for learner in ("c45", "ripper", "part"):
            metrics = cross_validate(ds, learner, k=10, seed=1)
            assert metrics.accuracy >= 0.99

    def test_extreme_majority_accuracy(self):
        rows = [["a", "200"]] * 4999 + [["b", "500"]]
        ds = make_dataset(rows, ["x"])
        metrics = cross_validate(ds, "c45", k=10, seed=1)
        assert metrics.accuracy == pytest.approx(0.9998, abs=1e-3)
        assert metrics.recall == pytest.approx(0.9998, abs=1e-3)

    def test_imbalanced_uninformative_inputs(self):
        # majority prediction: accuracy ~= majority share, weighted
        # precision ~= share^2, well below accuracy
        ds = make_dataset(imbalanced_rows(), ["a", "b"], target_name="responseheader:X-router")
        for learner in ("c45", "ripper", "part"):
            metrics = cross_validate(ds, learner, k=10, seed=1)
            assert metrics.accuracy == pytest.approx(0.635, abs=0.05)
            assert metrics.precision < metrics.accuracy
            assert metrics.precision == pytest.approx(0.635**2, abs=0.07)

    def test_metrics_bounded_and_size_positive(self):
        rng = random.Random(9)
        rows = [[rng.choice("ab"), rng.choice(["200", "404"])] for _ in range(60)]
        ds = make_dataset(rows, ["a"])
        for learner in ("c45", "ripper", "part"):
            metrics = cross_validate(ds, learner, k=10, seed=1)
            for value in (metrics.accuracy, metrics.precision, metrics.recall):
                assert 0.0 <= value <= 1.0
            assert metrics.model_size >= 1

    def test_recall_identity_on_produced_confusions(self):
        ds = make_dataset(imbalanced_rows(seed=11), ["a", "b"])
        metrics = cross_validate(ds, "c45", k=10, seed=1)
        confusion = np.array(metrics.confusion)
        assert metrics.recall == pytest.approx(np.trace(confusion) / confusion.sum())
        assert metrics.accuracy == pytest.approx(metrics.recall)

    def test_folds_and_seed_recorded(self):
        rows = [["a", "200"], ["b", "404"]] * 20
        metrics = cross_validate(make_dataset(rows, ["x"]), "c45", k=5, seed=42)
        assert metrics.folds == 5
        assert metrics.seed == 42


class TestAggregate:
    def metric(self, target, accuracy, learner="c45"):
        return TargetMetrics(
            target=target,
            learner=learner,
            accuracy=accuracy,
            precision=accuracy,
            recall=accuracy,
            model_size=3.0,
        )

    def test_single_target_std_zero(self):
        report = aggregate([self.metric("t", 0.9)], dataset="d")
        assert report.mean.accuracy == pytest.approx(0.9)
        assert report.std.accuracy == 0.0

    def test_two_targets_hand_computed(self):
        report = aggregate([self.metric("a", 0.9), self.metric("b", 1.0)], dataset="d")
        assert report.mean.accuracy == pytest.approx(0.95)
        assert report.std.accuracy == pytest.approx(0.0707, abs=1e-4)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mixed_learners_rejected(self):
        with pytest.raises(ValueError):
            aggregate([self.metric("a", 0.9), self.metric("b", 1.0, learner="part")])


class TestReports:
    def test_report_json_deterministic(self):
        ds = make_dataset(imbalanced_rows(seed=13), ["a", "b"])
        runs = []
        for _ in range(2):
            metrics = cross_validate(ds, "c45", k=10, seed=1)
            agg = aggregate([metrics], dataset="d")
            runs.append(report_json("d", 1, 10, [metrics], [agg]))
        assert runs[0] == runs[1]

    def test_csv_has_one_row_per_target(self):
        metrics = [
            TargetMetrics("a", "c45", 0.9, 0.9, 0.9, 3.0),
            TargetMetrics("b", "c45", 1.0, 1.0, 1.0, 1.0),
        ]
        text = metrics_csv(metrics)
        assert text.splitlines()[0] == "target,learner,accuracy,precision,recall,modelSize"
        assert len(text.strip().splitlines()) == 3

    def test_csv_reads_back_target_names_that_need_quoting(self):
        names = ["responsejson:a,b", 'responsejson:"q"', "responsejson:x\ny", "statusCode"]
        metrics = [TargetMetrics(name, "c45", 0.5, 0.25, 1.0, 3.0) for name in names]
        rows = list(csv.reader(io.StringIO(metrics_csv(metrics), newline="")))
        assert rows[0] == ["target", "learner", "accuracy", "precision", "recall", "modelSize"]
        assert rows[1:] == [
            [name, "c45", "0.500000", "0.250000", "1.000000", "3.0000"] for name in names
        ]
        assert metrics_csv(metrics[3:]).endswith("\nstatusCode,c45,0.500000,0.250000,1.000000,3.0000\n")

    def test_table_renders_grid(self):
        metrics = [TargetMetrics("a", "c45", 0.9837, 0.97, 0.98, 4.7)]
        agg = aggregate(metrics, dataset="webapi")
        text = render_aggregate_table([agg])
        assert "webapi" in text
        assert "0.9837±0.0000" in text
        assert "Accuracy" in text and "Precision" in text and "Recall" in text
