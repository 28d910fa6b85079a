import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, row_mapping
from mockskel.errors import DegenerateDatasetError
from mockskel.evaluation import stratified_fold_indices
from mockskel.features import extract_table
from mockskel.learners import (
    LEARNER_ORDER,
    C45Params,
    DecisionTree,
    Leaf,
    Rule,
    RuleList,
    Split,
    classify,
    entropy,
    gain_ratio,
    leaf_count,
    model_size,
    predict_encoded,
    render_model,
    train,
    train_c45,
    train_part,
    train_ripper,
)
from mockskel.learners.base import added_errors
from mockskel.prep import prepare_all
from mockskel.synth import generate_synthetic_log

# ---------------------------------------------------------------------------
# Independent oracles (plain-Python contingency arithmetic)


def oracle_entropy(counts):
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


def oracle_gain_ratio(rows, attr, target="statusCode"):
    """Gain ratio recomputed from scratch off (attribute value, class) pairs."""
    values = [(r[attr], r[target]) for r in rows]
    total = len(values)
    before = oracle_entropy(Counter(c for _, c in values).values())
    groups: dict = {}
    for v, c in values:
        groups.setdefault(v, []).append(c)
    after = sum(
        (len(g) / total) * oracle_entropy(Counter(g).values()) for g in groups.values()
    )
    split_info = oracle_entropy([len(g) for g in groups.values()])
    gain = before - after
    if split_info == 0:
        return 0.0, gain
    return gain / split_info, gain


def random_rows(rng, n, attrs, domain_sizes, n_classes):
    rows = []
    for _ in range(n):
        row = {a: f"v{rng.randrange(domain_sizes[i])}" for i, a in enumerate(attrs)}
        row["statusCode"] = str(200 + rng.randrange(n_classes))
        rows.append(row)
    return rows


def dataset_from_rows(rows, attrs):
    return make_dataset(
        [[r[a] for a in attrs] + [r["statusCode"]] for r in rows], attrs
    )


# ---------------------------------------------------------------------------


class TestEntropy:
    def test_uniform_two_class(self):
        assert entropy([5, 5]) == pytest.approx(1.0)

    def test_pure(self):
        assert entropy([10, 0]) == pytest.approx(0.0)

    def test_six_four(self):
        # -0.6*log2(0.6) - 0.4*log2(0.4) = 0.9709505944546686
        assert entropy([6, 4]) == pytest.approx(0.9710, abs=1e-4)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            entropy([])
        with pytest.raises(ValueError):
            entropy([0, 0])

    def test_matches_oracle_on_random_multisets(self):
        rng = random.Random(11)
        for _ in range(200):
            counts = [rng.randrange(0, 20) for _ in range(rng.randrange(2, 6))]
            if sum(counts) == 0:
                continue
            assert entropy(counts) == pytest.approx(oracle_entropy(counts), abs=1e-12)


class TestGainRatio:
    def test_perfect_predictor_is_maximal(self):
        rows = [
            {"a": f"x{i % 3}", "b": f"y{i % 2}", "statusCode": str(200 + i % 3)}
            for i in range(24)
        ]
        ds = dataset_from_rows(rows, ["a", "b"])
        assert gain_ratio(ds, "a") > gain_ratio(ds, "b")
        assert gain_ratio(ds, "a") == pytest.approx(oracle_gain_ratio(rows, "a")[0])

    def test_constant_attribute_is_zero(self):
        rows = [{"a": "only", "statusCode": str(200 + i % 2)} for i in range(12)]
        assert gain_ratio(dataset_from_rows(rows, ["a"]), "a") == 0.0

    def test_hand_built_12_instance_table_matches_oracle(self):
        rng = random.Random(5)
        rows = random_rows(rng, 12, ["a"], [3], 2)
        ds = dataset_from_rows(rows, ["a"])
        expected, _ = oracle_gain_ratio(rows, "a")
        assert gain_ratio(ds, "a") == pytest.approx(expected, abs=1e-9)

    def test_thousand_random_tables_match_oracle(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randrange(3, 30)
            attrs = [f"a{i}" for i in range(rng.randrange(1, 4))]
            sizes = [rng.randrange(2, 5) for _ in attrs]
            rows = random_rows(rng, n, attrs, sizes, rng.randrange(2, 4))
            ds = dataset_from_rows(rows, attrs)
            attr = rng.choice(attrs)
            expected, _ = oracle_gain_ratio(rows, attr)
            assert gain_ratio(ds, attr) == pytest.approx(expected, abs=1e-9)


class TestAddedErrors:
    def test_zero_errors_positive_correction(self):
        assert added_errors(10, 0, 0.25) > 0

    def test_monotone_in_errors(self):
        # total pessimistic estimate e + added grows with e
        estimates = [e + added_errors(100, e, 0.25) for e in range(0, 50, 5)]
        assert estimates == sorted(estimates)


class TestC45:
    def test_learns_exact_rule_set(self):
        # statusCode fully determined by method and presence of a path id
        rng = random.Random(2)
        rows = []
        for _ in range(120):
            method = rng.choice(["GET", "DELETE"])
            has_id = rng.choice(["42", "null"])
            status = {"GET": {"42": "200", "null": "404"}, "DELETE": {"42": "204", "null": "404"}}[
                method
            ][has_id]
            rows.append([method, has_id, status])
        ds = make_dataset(rows, ["method", "uriPathToken1"])
        tree = train_c45(ds)
        assert model_size(tree) <= 7
        errors = sum(
            classify(tree, row_mapping(ds, i)) != rows[i][2] for i in range(len(rows))
        )
        assert errors == 0

    def test_extreme_majority_collapses_to_single_leaf(self):
        rows = [["GET", "a", "200"]] * 4999 + [["GET", "b", "500"]]
        ds = make_dataset(rows, ["method", "noise"])
        tree = train_c45(ds)
        assert isinstance(tree.root, Leaf)
        assert tree.root.klass == "200"

    def test_single_class_gives_single_leaf(self):
        ds = make_dataset([["GET", "200"]] * 10, ["method"])
        tree = train_c45(ds)
        assert model_size(tree) == 1

    def test_empty_dataset_raises(self):
        ds = make_dataset([["GET", "200"]], ["method"])
        with pytest.raises(DegenerateDatasetError):
            train_c45(ds, rows=np.array([], dtype=np.intp))

    def test_deterministic_bit_for_bit(self):
        rng = random.Random(3)
        rows = [
            [rng.choice("ab"), rng.choice("cd"), rng.choice(["200", "404"])] for _ in range(60)
        ]
        ds = make_dataset(rows, ["x", "y"])
        assert render_model(train_c45(ds)) == render_model(train_c45(ds))

    def test_instance_permutation_does_not_change_tree(self):
        rng = random.Random(4)
        rows = [
            [rng.choice("abc"), rng.choice("de"), rng.choice(["200", "404", "500"])]
            for _ in range(80)
        ]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        t1 = train_c45(make_dataset(rows, ["x", "y"]))
        t2 = train_c45(make_dataset(shuffled, ["x", "y"]))
        assert render_model(t1) == render_model(t2)

    def test_pruning_never_grows_tree_or_estimated_error(self):
        from mockskel.learners.c45 import _estimated_errors

        rng = random.Random(6)
        for seed in range(20):
            rng = random.Random(seed)
            rows = [
                [rng.choice("ab"), rng.choice("cd"), rng.choice("ef"),
                 rng.choice(["200", "404"])]
                for _ in range(rng.randrange(20, 100))
            ]
            ds = make_dataset(rows, ["x", "y", "z"])
            pruned = train_c45(ds, prune=True)
            unpruned = train_c45(ds, prune=False)
            assert model_size(pruned) <= model_size(unpruned)
            assert _estimated_errors(pruned.root, 0.25) <= _estimated_errors(
                unpruned.root, 0.25
            ) + 1e-9

    def test_root_split_maximizes_gain_ratio_exhaustively(self):
        # datasets with <=4 binary inputs and <=64 instances: the chosen
        # root attribute has the best gain ratio among admissible splits
        for seed in range(200):
            rng = random.Random(seed)
            attrs = [f"a{i}" for i in range(rng.randrange(1, 5))]
            n = rng.randrange(8, 65)
            rows = random_rows(rng, n, attrs, [2] * len(attrs), 2)
            ds = dataset_from_rows(rows, attrs)
            tree = train_c45(ds)
            if not isinstance(tree.root, Split):
                continue
            admissible = {}
            for attr in attrs:
                ratio, gain = oracle_gain_ratio(rows, attr)
                branch_sizes = Counter(r[attr] for r in rows)
                if gain > 1e-12 and sum(1 for c in branch_sizes.values() if c >= 2) >= 2:
                    admissible[attr] = ratio
            best = max(admissible.values())
            assert admissible[tree.root.attribute] == pytest.approx(best, abs=1e-9)


class TestRuleListSemantics:
    def list_model(self):
        return RuleList(
            target="statusCode",
            rules=(
                Rule((("method", "DELETE"),), "204"),
                Rule((("method", "GET"), ("everCreated", "true")), "200"),
                Rule((("method", "GET"),), "404"),
            ),
            default_class="201",
        )

    def test_first_match_wins(self):
        model = self.list_model()
        assert classify(model, {"method": "DELETE", "everCreated": "true"}) == "204"
        assert classify(model, {"method": "GET", "everCreated": "true"}) == "200"
        assert classify(model, {"method": "GET", "everCreated": "false"}) == "404"
        assert classify(model, {"method": "POST"}) == "201"

    def test_total_on_unseen_values(self):
        model = self.list_model()
        assert classify(model, {"method": "martian"}) == "201"

    def test_tree_routes_unseen_to_heaviest_branch(self):
        tree = DecisionTree(
            target="statusCode",
            root=Split(
                "method",
                {"GET": Leaf("200", 80, 0), "DELETE": Leaf("204", 20, 0)},
            ),
        )
        assert classify(tree, {"method": "PATCH"}) == "200"
        assert classify(tree, {}) == "200"


class TestRipper:
    def stateful_rows(self, n=400, seed=8):
        rng = random.Random(seed)
        rows = []
        for _ in range(n):
            method = rng.choice(["GET", "POST", "DELETE", "PATCH"])
            created = rng.choice(["true", "false"])
            valid = rng.choice(["true", "false"]) if method == "PATCH" else "false"
            if method == "POST":
                status = "201"
            elif method == "PATCH" and valid == "false":
                status = "400"
            elif created == "false":
                status = "404"
            elif method == "DELETE":
                status = "204"
            else:
                status = "200"
            rows.append([method, created, valid, status])
        return rows

    def test_learns_stateful_service_with_few_rules(self):
        rows = self.stateful_rows()
        ds = make_dataset(rows, ["method", "everCreated", "hasValidPayload"])
        model = train_ripper(ds)
        errors = sum(
            classify(model, row_mapping(ds, i)) != rows[i][3] for i in range(len(rows))
        )
        assert errors / len(rows) <= 0.01
        assert model_size(model) <= 8

    def test_single_class_yields_default_only(self):
        ds = make_dataset([["GET", "200"]] * 30, ["method"])
        model = train_ripper(ds)
        assert model.rules == ()
        assert model.default_class == "200"

    def test_extreme_majority_yields_default_only(self):
        rows = [["a", "200"]] * 4999 + [["b", "500"]]
        ds = make_dataset(rows, ["x"])
        model = train_ripper(ds)
        assert model.rules == ()
        assert model.default_class == "200"

    def test_default_class_is_most_frequent(self):
        rows = self.stateful_rows()
        model = train_ripper(make_dataset(rows, ["method", "everCreated", "hasValidPayload"]))
        most_frequent = Counter(r[3] for r in rows).most_common(1)[0][0]
        assert model.default_class == most_frequent

    def test_deterministic(self):
        rows = self.stateful_rows(seed=13)
        ds = make_dataset(rows, ["method", "everCreated", "hasValidPayload"])
        assert render_model(train_ripper(ds)) == render_model(train_ripper(ds))

    def test_conditions_reference_distinct_attributes(self):
        rows = self.stateful_rows(seed=21)
        model = train_ripper(make_dataset(rows, ["method", "everCreated", "hasValidPayload"]))
        for rule in model.rules:
            attrs = [a for a, _ in rule.conditions]
            assert len(attrs) == len(set(attrs))


class TestPart:
    def test_pure_dataset_is_default_only(self):
        ds = make_dataset([["GET", "200"]] * 20, ["method"])
        model = train_part(ds)
        assert model.rules == ()
        assert model.default_class == "200"

    def test_learns_stateful_service(self):
        rows = TestRipper().stateful_rows(seed=17)
        ds = make_dataset(rows, ["method", "everCreated", "hasValidPayload"])
        model = train_part(ds)
        errors = sum(
            classify(model, row_mapping(ds, i)) != rows[i][3] for i in range(len(rows))
        )
        assert errors / len(rows) <= 0.01
        assert model_size(model) <= 9

    def test_two_class_flag_analogue_learns_small_ruleset(self):
        # an ok/no-exist style boolean body flag driven by two inputs
        rng = random.Random(23)
        rows = []
        for _ in range(500):
            method = rng.choice(["POST", "DELETE"])
            created = rng.choice(["true", "false"])
            ok = "no-exist" if (method == "DELETE" and created == "true") else "true"
            rows.append([method, created, ok])
        ds = make_dataset(rows, ["method", "everCreated"], target_name="responsejson:ok")
        model = train_part(ds)
        assert model_size(model) <= 4
        errors = sum(
            classify(model, row_mapping(ds, i)) != rows[i][2] for i in range(len(rows))
        )
        assert errors == 0

    def test_deterministic(self):
        rows = TestRipper().stateful_rows(seed=29)
        ds = make_dataset(rows, ["method", "everCreated", "hasValidPayload"])
        assert render_model(train_part(ds)) == render_model(train_part(ds))


class TestCoverageInvariant:
    @pytest.mark.parametrize("train_fn", [train_ripper, train_part])
    def test_first_match_counts_partition_instances(self, train_fn):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(10, 80)
            attrs = [f"a{i}" for i in range(rng.randrange(1, 4))]
            rows = random_rows(rng, n, attrs, [rng.randrange(2, 4) for _ in attrs], 3)
            ds = dataset_from_rows(rows, attrs)
            model = train_fn(ds)
            assert sum(r.train_count for r in model.rules) + model.default_count == n

    @pytest.mark.parametrize("train_fn", [train_ripper, train_part, train_c45])
    def test_classify_total_under_unseen_values(self, train_fn):
        rng = random.Random(37)
        rows = random_rows(rng, 50, ["a", "b"], [3, 3], 2)
        ds = dataset_from_rows(rows, ["a", "b"])
        model = train_fn(ds)
        domain = set(ds.target_domain)
        for _ in range(50):
            instance = {"a": rng.choice(["v0", "weird", "?"]), "b": rng.choice(["v1", "zz"])}
            assert classify(model, instance) in domain


def assert_predictions_match_classify(model, ds, rows, table=None):
    """The class predicted from each row's codes is the one ``classify``
    gives for its name->value mapping: the string row of ``table`` when
    given, else the row decoded from its codes."""
    predicted = predict_encoded(model, ds, rows)
    row_of = table.row_mapping if table is not None else (lambda i: row_mapping(ds, i))
    expected = [classify(model, row_of(int(i))) for i in rows]
    assert [ds.target_domain[c] for c in predicted] == expected


def _has_empty_leaf(node) -> bool:
    if isinstance(node, Leaf):
        return node.train_count == 0
    return any(_has_empty_leaf(child) for child in node.branches.values())


class TestEncodedPrediction:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000), n_transactions=st.integers(20, 200),
           learner=st.sampled_from(LEARNER_ORDER), fold=st.integers(0, 4))
    def test_held_out_predictions_match_classify(self, seed, n_transactions, learner, fold):
        table, _ = extract_table(generate_synthetic_log(n_transactions, 8, seed=seed))
        datasets, _ = prepare_all(table)
        for ds in datasets:
            held_out = stratified_fold_indices(ds.y.tolist(), 5, seed)[fold]
            train_rows = np.setdiff1d(ds.all_rows(), held_out)
            if len(train_rows) == 0:
                continue
            model = train(learner, ds, rows=train_rows)
            assert_predictions_match_classify(model, ds, held_out, table)
            assert_predictions_match_classify(model, ds, ds.all_rows(), table)

    def test_tree_routes_rows_to_an_empty_branch(self):
        # "c" never occurs in training, so its branch is a leaf with count 0
        rows = [["a", "x", "200"]] * 6 + [["b", "y", "404"]] * 6 + [["c", "x", "500"]] * 2
        ds = make_dataset(rows, ["k", "j"])
        tree = train("c45", ds, rows=ds.all_rows()[:12])
        assert _has_empty_leaf(tree.root)
        assert_predictions_match_classify(tree, ds, ds.all_rows())

    def test_tree_without_a_branch_takes_the_missing_value_branch(self):
        ds = make_dataset([["a", "200"], ["b", "404"], ["c", "500"], ["c", "500"]], ["k"])
        tree = DecisionTree("statusCode", Split("k", {"a": Leaf("200", 1), "b": Leaf("404", 5)}))
        assert tree.root.missing_value == "b"
        assert_predictions_match_classify(tree, ds, ds.all_rows())
        assert [ds.target_domain[c] for c in predict_encoded(tree, ds, ds.all_rows())] == [
            "200", "404", "404", "404"]

    def test_rule_list_default_and_unknown_tests(self):
        ds = make_dataset(
            [["GET", "true", "200"], ["GET", "false", "404"], ["POST", "false", "201"],
             ["DELETE", "true", "204"]],
            ["method", "everCreated"],
        )
        model = RuleList(
            target="statusCode",
            rules=(
                Rule((("method", "PATCH"),), "204"),  # value never encoded
                Rule((("nosuch", "GET"),), "204"),  # attribute not an input
                Rule((("method", "GET"), ("everCreated", "true")), "200"),
                Rule((("method", "GET"),), "404"),
            ),
            default_class="201",
        )
        assert_predictions_match_classify(model, ds, ds.all_rows())
        predicted = predict_encoded(model, ds, np.array([3, 0, 2], dtype=np.intp))
        assert [ds.target_domain[c] for c in predicted] == ["201", "200", "201"]


    @pytest.mark.parametrize("train_fn", [train_ripper, train_part])
    def test_rule_counts_match_first_match_reference(self, train_fn):
        rng = random.Random(43)
        for _ in range(20):
            attrs = ["a", "b", "c"]
            rows = random_rows(rng, rng.randrange(10, 60), attrs, [2, 3, 4], 3)
            model = train_fn(dataset_from_rows(rows, attrs))
            counts = [[0, 0] for _ in range(len(model.rules) + 1)]
            for row in rows:
                i = next((i for i, r in enumerate(model.rules) if r.matches(row)), len(model.rules))
                klass = model.rules[i].klass if i < len(model.rules) else model.default_class
                counts[i][0] += 1
                counts[i][1] += row["statusCode"] != klass
            got = [[r.train_count, r.error_count] for r in model.rules]
            assert got + [[model.default_count, model.default_errors]] == counts


class TestTreeCounts:
    def test_leaf_counts_partition_training_set(self):
        rng = random.Random(41)
        for _ in range(30):
            rows = random_rows(rng, rng.randrange(10, 80), ["a", "b"], [3, 2], 2)
            ds = dataset_from_rows(rows, ["a", "b"])
            tree = train_c45(ds)
            assert sum(leaf.train_count for leaf in tree.leaves()) == len(rows)

    def test_unpruned_pure_tree_has_perfect_training_accuracy(self):
        # no two identical inputs with conflicting classes
        rng = random.Random(43)
        rows = []
        seen = {}
        for _ in range(200):
            key = (rng.choice("abcd"), rng.choice("ef"), rng.choice("gh"))
            status = seen.setdefault(key, rng.choice(["200", "404", "500"]))
            rows.append([*key, status])
        ds = make_dataset(rows, ["x", "y", "z"])
        tree = train_c45(ds, params=C45Params(min_leaf_instances=1), prune=False)
        errors = sum(
            classify(tree, row_mapping(ds, i)) != rows[i][3] for i in range(len(rows))
        )
        assert errors == 0


class TestModelSize:
    def test_single_leaf(self):
        tree = DecisionTree("statusCode", Leaf("200", 10, 0))
        assert model_size(tree) == 1
        assert leaf_count(tree) == 1

    def test_status_code_tree_shape(self):
        # a 4-way method split where one branch tests a second attribute:
        # 7 nodes, 5 leaves
        tree = DecisionTree(
            "statusCode",
            root=Split(
                "method",
                {
                    "DELETE": Leaf("204", 1, 0),
                    "GET": Leaf("200", 2, 0),
                    "PATCH": Split(
                        "hasValidPayload",
                        {"false": Leaf("400", 1, 0), "true": Leaf("200", 2, 0)},
                    ),
                    "POST": Leaf("201", 1, 0),
                },
            ),
        )
        assert model_size(tree) == 7
        assert leaf_count(tree) == 5

    def test_rule_count_includes_default(self):
        model = RuleList("t", (Rule((("a", "b"),), "x"),), default_class="y")
        assert model_size(model) == 2


class TestRendering:
    def test_tree_lines_follow_figure_style(self):
        rows = [["GET", "200"]] * 5 + [["DELETE", "204"]] * 5
        ds = make_dataset(rows, ["method"])
        lines = render_model(train_c45(ds))
        assert "method = DELETE: 204 (5)" in lines
        assert "method = GET: 200 (5)" in lines

    def test_rules_lines_follow_figure_style(self):
        rows = [["GET", "true", "200"]] * 6 + [["GET", "false", "404"]] * 3 + [
            ["DELETE", "true", "204"]
        ] * 3
        ds = make_dataset(rows, ["method", "everCreated"])
        lines = render_model(train_part(ds))
        assert lines[-1].startswith("default: ")
        assert any(" => statusCode=" in line for line in lines[:-1])

    def test_values_with_spaces_are_quoted(self):
        from mockskel.learners.model import render_rules

        model = RuleList(
            "responseheader:Server",
            (Rule((("requestheader:Agent", "a b"),), "x y", 3, 0),),
            default_class="no-exist",
        )
        lines = render_rules(model)
        assert lines[0] == '(requestheader:Agent = "a b") => responseheader:Server="x y" (3)'
