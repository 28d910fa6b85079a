"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import os
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import make_dataset, table_row
from mockskel.cli import RunConfig, choose_models, run_pipeline
from mockskel.evaluation import (
    cross_validate,
    report_json,
    stratified_folds,
    weighted_precision_recall,
)
from mockskel.features import extract_table
from mockskel.learners import (
    Leaf,
    RuleList,
    classify,
    entropy,
    gain_ratio,
    model_size,
    train_c45,
    train_part,
    train_ripper,
)
from mockskel.model import Split
from mockskel.prep import prepare_all
from mockskel.server import MockService
from mockskel.skeleton import build_skeleton, emit_skeleton, parse_skeleton
from mockskel.synth import generate_synthetic_log
from test_learners import oracle_gain_ratio, oracle_entropy, random_rows, dataset_from_rows


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL — {description}", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} PASS — {description}")


@pytest.fixture(scope="module")
def synth_pipeline(synth_log):
    config = RunConfig(input="synthetic-tasks", jobs=1)
    result = run_pipeline(synth_log, config)
    return config, result


@pytest.fixture(scope="module")
def synth_skeleton(synth_pipeline):
    config, result = synth_pipeline
    chosen = choose_models(result, config.learners)
    removed = {r.attribute for r in result.removals}
    skeleton = build_skeleton(
        service_name="synthetic-tasks",
        seed=config.seed,
        inputs=tuple(a.name for a in result.table.inputs() if a.name not in removed),
        chosen=chosen,
        removals=result.removals,
        config=config.extraction_config(),
        profile=result.profile,
    )
    return parse_skeleton(emit_skeleton(skeleton))


def model_state_attributes(model):
    """The attributes a tree splits on or a rule list's rules test."""
    if isinstance(model, RuleList):
        return {attr for rule in model.rules for attr, _ in rule.conditions}
    attributes, stack = set(), [model]
    while stack:
        node = stack.pop()
        if isinstance(node, Split):
            attributes.add(node.attribute)
            stack.extend(node.branches.values())
    return attributes


def test_criterion_1_oracle_recovery(synth_log):
    """Learners recover the synthetic service's status rule."""
    with criterion(1, "oracle recovery on 5000-transaction synthetic service"):
        start = time.monotonic()
        assert len(synth_log) == 5000
        table, _ = extract_table(synth_log)
        datasets, _ = prepare_all(table)
        ds = next(d for d in datasets if d.target == "statusCode")
        trainers = {"c45": train_c45, "ripper": train_ripper, "part": train_part}
        for learner, trainer in trainers.items():
            metrics = cross_validate(ds, learner, k=10, seed=1)
            assert metrics.accuracy >= 0.99, (learner, metrics.accuracy)
            assert metrics.model_size <= 15, (learner, metrics.model_size)
            model = trainer(ds)
            tested = model_state_attributes(model)
            assert tested & {"everCreated", "hasImmediatePreviousTransaction"}, (
                learner,
                tested,
            )
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_2_extreme_imbalance():
    """99.98%-majority target: trivial models at majority accuracy."""
    with criterion(2, "99.98% majority yields single-leaf/default-only models"):
        rng = random.Random(2)
        rows = [[rng.choice("ab"), rng.choice("cd"), "no-exist"] for _ in range(4999)]
        rows.append([rng.choice("ab"), rng.choice("cd"), "42"])
        ds = make_dataset(rows, ["x", "y"], target_name="responsejson:closed.id")
        majority = 4999 / 5000

        tree = train_c45(ds)
        assert isinstance(tree, Leaf)
        for model in (train_ripper(ds), train_part(ds)):
            assert model.rules == ()
        for learner in ("c45", "ripper", "part"):
            metrics = cross_validate(ds, learner, k=10, seed=1)
            assert abs(metrics.accuracy - majority) <= 0.001, (learner, metrics.accuracy)


def test_criterion_3_learner_micro_oracles():
    """entropy/gain-ratio vs brute force; root split maximizes gain ratio."""
    with criterion(3, "entropy and gain-ratio match brute-force oracles"):
        start = time.monotonic()
        rng = random.Random(303)
        for _ in range(1000):
            n = rng.randrange(3, 25)
            attrs = [f"a{i}" for i in range(rng.randrange(1, 4))]
            sizes = [rng.randrange(2, 5) for _ in attrs]
            rows = random_rows(rng, n, attrs, sizes, rng.randrange(2, 4))
            ds = dataset_from_rows(rows, attrs)
            counts = list(Counter(r["statusCode"] for r in rows).values())
            assert abs(entropy(counts) - oracle_entropy(counts)) <= 1e-9
            attr = rng.choice(attrs)
            expected, _ = oracle_gain_ratio(rows, attr)
            assert abs(gain_ratio(ds, attr) - expected) <= 1e-9

        # exhaustive root check over binary datasets
        for seed in range(150):
            rng = random.Random(10_000 + seed)
            attrs = [f"a{i}" for i in range(rng.randrange(1, 5))]
            rows = random_rows(rng, rng.randrange(8, 65), attrs, [2] * len(attrs), 2)
            tree = train_c45(dataset_from_rows(rows, attrs))
            if not isinstance(tree, Split):
                continue
            admissible = {}
            for attr in attrs:
                ratio, gain = oracle_gain_ratio(rows, attr)
                branch_sizes = Counter(r[attr] for r in rows)
                if gain > 1e-12 and sum(1 for c in branch_sizes.values() if c >= 2) >= 2:
                    admissible[attr] = ratio
            assert admissible[tree.attribute] >= max(admissible.values()) - 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_4_rule_list_semantics():
    """First-match counts partition instances; classify is total."""
    with criterion(4, "rule-list coverage partition and totality on 1000 tables"):
        rng = random.Random(404)
        for i in range(1000):
            n = rng.randrange(8, 40)
            attrs = [f"a{j}" for j in range(rng.randrange(1, 4))]
            rows = random_rows(rng, n, attrs, [rng.randrange(2, 4) for _ in attrs], 3)
            ds = dataset_from_rows(rows, attrs)
            model = (train_ripper if i % 2 == 0 else train_part)(ds)
            assert sum(r.train_count for r in model.rules) + model.default_count == n
            domain = set(ds.target_domain)
            instance = {a: "never-seen-value" for a in attrs}
            assert classify(model, instance) in domain


def test_criterion_5_evaluation_identities(tmp_path):
    """Recall identity, fold partition, byte-identical reports."""
    with criterion(5, "evaluation identities and report determinism"):
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randrange(30, 120)
            rows = [
                [rng.choice("abc"), rng.choice("de"), rng.choice(["200", "404", "500"])]
                for _ in range(n)
            ]
            ds = make_dataset(rows, ["x", "y"])
            folds = stratified_folds(ds, k=10, seed=3)
            joined = np.concatenate(folds)
            assert len(joined) == n and len(set(joined.tolist())) == n
            metrics = cross_validate(ds, rng.choice(["c45", "ripper", "part"]), k=10, seed=3)
            confusion = np.array(metrics.confusion)
            _, recall = weighted_precision_recall(confusion)
            assert recall == pytest.approx(np.trace(confusion) / confusion.sum(), abs=1e-12)
            assert metrics.recall == pytest.approx(metrics.accuracy, abs=1e-12)

        fixture = generate_synthetic_log(400, 25, seed=12)
        reports = []
        for _ in range(2):
            result = run_pipeline(fixture, RunConfig(input="x", jobs=1, seed=7))
            aggregates = result.aggregates("fixture")
            reports.append(
                report_json("fixture", 7, 10, result.metrics, aggregates, result.removals)
            )
        assert reports[0] == reports[1]


def test_criterion_6_skeleton_round_trip():
    """emit -> parse preserves classification; prepended rules override."""
    with criterion(6, "skeleton round-trip and hand-edit override"):
        fixture = generate_synthetic_log(1000, 60, seed=21)
        config = RunConfig(input="fixture", jobs=1)
        result = run_pipeline(fixture, config)
        chosen = choose_models(result, config.learners)
        removed = {r.attribute for r in result.removals}
        skeleton = build_skeleton(
            "fixture", 1,
            tuple(a.name for a in result.table.inputs() if a.name not in removed),
            chosen, result.removals, config.extraction_config(), result.profile,
        )
        text = emit_skeleton(skeleton)
        reparsed = parse_skeleton(text)
        table = result.table
        disagreements = 0
        for i in range(len(table.instances)):
            row = table_row(table, i)
            for name, entry in skeleton.targets.items():
                if classify(entry.model, row) != classify(reparsed.targets[name].model, row):
                    disagreements += 1
        assert disagreements == 0

        lines = text.splitlines()
        marker = next(i for i, l in enumerate(lines) if l.startswith("target statusCode"))
        lines.insert(marker + 1, "  (method = DELETE) => statusCode=503")
        edited = parse_skeleton("\n".join(lines) + "\n")
        service = MockService(edited)
        response = service.handle("DELETE", "https://tasks.example.test/tasks/1")
        assert response.status_code == 503


def test_criterion_7_serve_time_replay(synth_log, synth_skeleton):
    """Replaying the training log reproduces recorded statuses."""
    with criterion(7, "serve-time replay fidelity and reset equivalence"):
        service = MockService(synth_skeleton)
        matches = 0
        for t in synth_log.transactions:
            r = t.request
            response = service.handle(r.method, r.uri, r.headers, r.body)
            matches += response.status_code == t.response.status_code
        assert matches / len(synth_log) >= 0.97, matches / len(synth_log)

        headers = [("Content-Type", "application/json")]
        body = b'{"title": "x"}'
        uri = "https://tasks.example.test/tasks/424242"
        service_a = MockService(synth_skeleton)
        service_a.handle("POST", uri, headers, body)
        service_a.reset()
        after_reset = service_a.handle("GET", uri)
        plain = MockService(synth_skeleton).handle("GET", uri)
        assert after_reset.status_code == plain.status_code
        assert after_reset.body == plain.body


ZENODO_DIR = os.environ.get("MOCKSKEL_ZENODO_DIR", "")

#: per-dataset mean CV accuracy from the published experiments, tolerance 0.02
PUBLISHED_MEAN_ACCURACY = {
    "ghtraffic": {"c45": 0.9837, "ripper": 0.9837, "part": 0.9834},
    "twitter": {"c45": 0.9993, "ripper": 0.9993, "part": 0.9993},
    "google-tasklists": {"c45": 0.9971, "ripper": 0.9969, "part": 0.9971},
    "slack": {"c45": 0.9541, "ripper": 0.9541, "part": 0.9541},
}


@pytest.mark.skipif(
    not ZENODO_DIR,
    reason="optional: set MOCKSKEL_ZENODO_DIR to a directory holding the original "
    "recordings as <dataset>.jsonl (ghtraffic, twitter, google-tasklists, slack); "
    "this sandbox has no general network access to download them",
)
def test_criterion_8_published_number_reproduction():
    """Approximate reproduction of the published per-dataset accuracies."""
    with criterion(8, "published-number reproduction on original datasets"):
        for dataset_name, expected in PUBLISHED_MEAN_ACCURACY.items():
            path = os.path.join(ZENODO_DIR, f"{dataset_name}.jsonl")
            assert os.path.exists(path), f"missing {path}"
            from mockskel.traffic import load_traffic

            result = run_pipeline(load_traffic(path), RunConfig(input=path, jobs=0))
            for agg in result.aggregates(dataset_name):
                assert abs(agg.mean_accuracy - expected[agg.learner]) <= 0.02

            if dataset_name == "google-tasklists":
                by_key = {(m.target, m.learner): m for m in result.metrics}
                for learner in ("c45", "ripper", "part"):
                    metrics = by_key[("statusCode", learner)]
                    assert metrics.accuracy >= 0.99
                    model = result.models[("statusCode", learner)]
                    limit = 10 if learner == "c45" else 7
                    assert model_size(model) <= limit
            if dataset_name == "slack":
                router = [m for m in result.metrics if m.target == "responseheader:X-slack-router"]
                for metrics in router:
                    assert abs(metrics.accuracy - 0.6351) <= 0.05
                    assert metrics.precision < metrics.accuracy
