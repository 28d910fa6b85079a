import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import dataset_row, make_dataset, table_row
from mockskel.errors import DegenerateDatasetError
from mockskel.evaluation import stratified_folds
from mockskel.features import extract_table
from mockskel.learners import (
    LEARNER_ORDER,
    Leaf,
    Rule,
    RuleList,
    Split,
    TreeParams,
    classify,
    entropy,
    gain_ratio,
    model_size,
    predict_encoded,
    train,
    train_c45,
    train_part,
    train_ripper,
)
from mockskel.learners import c45, ripper
from mockskel.learners.base import added_errors, covers
from mockskel.learners.c45 import GrownSplit, best_split, grow
from mockskel.model import leaves
from mockskel.prep import prepare_all
from mockskel.skeleton import render_model, render_rules
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


def oracle_contingency(ds, rows, attr):
    """(domain size x class count) contingency table of one input column."""
    m, k = len(ds.domains[attr]), ds.n_classes
    return np.bincount(ds.X[rows, attr].astype(np.int64) * k + ds.y[rows],
                       minlength=m * k).reshape(m, k)


def _xlogx_sum(counts):
    positive = counts[counts > 0].astype(np.float64)
    return float((positive * np.log2(positive)).sum())


def oracle_gain_and_ratio(cont):
    """Information gain and gain ratio of one contingency table."""
    branch_sizes = cont.sum(axis=1)
    total = float(branch_sizes.sum())
    if total <= 0:
        return 0.0, 0.0
    log_total = math.log2(total)
    s_branches = _xlogx_sum(branch_sizes)
    before = log_total - _xlogx_sum(cont.sum(axis=0)) / total
    gain = before - (s_branches - _xlogx_sum(cont)) / total
    split_info = log_total - s_branches / total
    return gain, (gain / split_info if split_info > 0.0 else 0.0)


def oracle_best_split(ds, rows, available, min_leaf):
    """The split search one attribute at a time, with C4.5's sequential
    tie rule: a later attribute wins only by more than 1e-12."""
    best = (None, 0.0, None)
    for a in np.flatnonzero(available):
        cont = oracle_contingency(ds, rows, int(a))
        if int((cont.sum(axis=1) >= min_leaf).sum()) < 2:
            continue
        gain, ratio = oracle_gain_and_ratio(cont)
        if gain <= 1e-12:
            continue
        if best[0] is None or ratio > best[1] + 1e-12:
            best = (int(a), ratio, cont)
    return best


def oracle_grow_rule(ds, grow_rows, pos, start=()):
    """RIPPER's rule growth scoring one attribute at a time, each with its
    own counts, with the first-maximum rule over (attribute, value)."""
    conds = list(start)
    used = {attr for attr, _ in conds}
    covered = grow_rows[covers(ds, grow_rows, tuple(conds))]
    while True:
        is_pos = ds.y[covered] == pos
        p0 = int(is_pos.sum())
        n0 = len(covered) - p0
        if n0 == 0 or p0 == 0:
            break
        acc0 = ripper._log2(p0 / (p0 + n0))
        best_gain, best_attr, best_value = 0.0, None, None
        for attr in range(len(ds.names)):
            if attr in used:
                continue
            values = ds.X[covered, attr]
            totals = np.bincount(values, minlength=len(ds.domains[attr]))
            positives = np.bincount(values[is_pos], minlength=len(ds.domains[attr]))
            for vi in range(len(totals)):
                p1 = int(positives[vi])
                if p1 == 0:
                    continue
                gain = p1 * (ripper._log2(p1 / totals[vi]) - acc0)
                if gain > best_gain + 1e-12:
                    best_gain, best_attr, best_value = gain, attr, vi
        if best_attr is None:
            break
        conds.append((best_attr, best_value))
        used.add(best_attr)
        covered = covered[ds.X[covered, best_attr] == best_value]
    return tuple(conds)


def oracle_prune_for_list(ds, prune_rows, others, conds, pos):
    """The shortest prefix of ``conds`` with the fewest errors of the rule
    set ``others`` plus that prefix, its coverage rebuilt per prefix."""
    if len(conds) <= 1 or len(prune_rows) == 0:
        return conds
    is_pos = ds.y[prune_rows] == pos
    errors = []
    for j in range(1, len(conds) + 1):
        covered = np.zeros(len(prune_rows), dtype=bool)
        for rule in others + [conds[:j]]:
            covered |= covers(ds, prune_rows, rule)
        errors.append(int((covered & ~is_pos).sum() + (~covered & is_pos).sum()))
    return conds[:errors.index(min(errors)) + 1]


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
            classify(tree, dataset_row(ds, i)) != rows[i][2] for i in range(len(rows))
        )
        assert errors == 0

    def test_extreme_majority_collapses_to_single_leaf(self):
        rows = [["GET", "a", "200"]] * 4999 + [["GET", "b", "500"]]
        ds = make_dataset(rows, ["method", "noise"])
        tree = train_c45(ds)
        assert isinstance(tree, Leaf)
        assert tree.klass == "200"

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
        assert render_model(train_c45(ds), ds.target) == render_model(train_c45(ds), ds.target)

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
        assert render_model(t1, "statusCode") == render_model(t2, "statusCode")

    def test_pruning_never_grows_tree_or_estimated_error(self):
        def estimated_errors(tree):
            return sum(
                leaf.error_count + added_errors(leaf.train_count, leaf.error_count, 0.25)
                for leaf in leaves(tree)
            )

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
            assert estimated_errors(pruned) <= estimated_errors(unpruned) + 1e-9

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
            if not isinstance(tree, Split):
                continue
            admissible = {}
            for attr in attrs:
                ratio, gain = oracle_gain_ratio(rows, attr)
                branch_sizes = Counter(r[attr] for r in rows)
                if gain > 1e-12 and sum(1 for c in branch_sizes.values() if c >= 2) >= 2:
                    admissible[attr] = ratio
            best = max(admissible.values())
            assert admissible[tree.attribute] == pytest.approx(best, abs=1e-9)


@st.composite
def split_search_cases(draw):
    """A small encoded table, a subset of its rows, the available columns
    and ``min_leaf``.  Some columns copy an earlier one with their values
    relabelled in reverse order (an exact tie whose table rows come in
    another order); a domain of size 1 gives a single-valued column."""
    n = draw(st.integers(1, 30))
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        if columns and draw(st.booleans()):
            columns.append([5 - v for v in draw(st.sampled_from(columns))])
        else:
            size = draw(st.integers(1, 6))
            columns.append(draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)))
    classes = draw(st.lists(st.integers(0, draw(st.integers(1, 4)) - 1), min_size=n, max_size=n))
    names = [f"a{j}" for j in range(len(columns))]
    ds = make_dataset([[*values, 200 + c] for *values, c in zip(*columns, classes)], names)
    rows = np.array(sorted(draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
    available = np.array(draw(st.lists(st.booleans(), min_size=len(names),
                                       max_size=len(names))), dtype=bool)
    return ds, rows, available, draw(st.integers(0, 3))


def wide_rows(seed, n=600):
    """A wide table: 40 inputs, among them exact copies and relabelled
    copies of the inputs the targets depend on, and two noisy targets."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        base = [rng.randrange(size) for size in (4, 3, 2, 5, 2, 3)]
        noise = [rng.randrange(rng.choice((2, 3, 7))) for _ in range(22)]
        copies = [base[0], base[1], 3 - base[0], base[2], 1 - base[4], base[3],
                  base[0], 2 - base[1], base[5], base[4], 4 - base[3], base[2]]
        status = ("200", "201", "404", "500")[(base[0] + base[1] * base[2]) % 4]
        if rng.random() < 0.05:
            status = rng.choice(("200", "409"))
        flag = "yes" if base[3] > 1 and base[4] else rng.choice(("no", "no", "yes"))
        rows.append([*base, *noise, *copies, status, flag])
    return rows


class TestSplitSearch:
    """``best_split`` scores every available column in one pass; the
    oracle loop scores them one at a time."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=split_search_cases())
    def test_matches_the_per_attribute_search(self, case):
        ds, rows, available, min_leaf = case
        attr, ratio, table = best_split(ds, rows, available, min_leaf)
        expected_attr, expected_ratio, expected_table = oracle_best_split(
            ds, rows, available, min_leaf)
        assert attr == expected_attr
        assert abs(ratio - expected_ratio) <= 1e-12
        if attr is not None:
            assert np.array_equal(table, expected_table)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_whole_trees_equal_those_of_the_per_attribute_search(self, seed, monkeypatch):
        names = [f"in{j:02d}" for j in range(40)]
        rows = wide_rows(seed)
        for target, column in (("statusCode", -2), ("responsejson:flag", -1)):
            ds = make_dataset([[*row[:40], row[column]] for row in rows], names, target)
            models = [train_c45(ds), train_part(ds)]
            with monkeypatch.context() as patched:
                patched.setattr(c45, "best_split", oracle_best_split)
                assert [train_c45(ds), train_part(ds)] == models
            assert model_size(models[0]) > 5 and len(models[1].rules) > 2


@st.composite
def rule_search_cases(draw):
    """A ``split_search_cases`` table and rows, a class, and up to three
    conjunctions over its columns, each testing a column at most once."""
    ds, rows, _, _ = draw(split_search_cases())
    pos = draw(st.integers(0, ds.n_classes - 1))
    conjunctions = []
    for _ in range(draw(st.integers(0, 3))):
        attrs = draw(st.lists(st.integers(0, len(ds.names) - 1), unique=True, max_size=5))
        conjunctions.append(
            tuple((a, draw(st.integers(0, len(ds.domains[a]) - 1))) for a in attrs))
    return ds, rows, pos, conjunctions


class TestRuleSearch:
    """RIPPER grows a rule from one contingency stack per step and prunes
    from one sweep of prefix masks; the oracles count per attribute and
    per prefix."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=rule_search_cases())
    def test_growth_matches_the_per_attribute_scan(self, case):
        ds, rows, pos, conjunctions = case
        for start in [(), *conjunctions]:
            expected = oracle_grow_rule(ds, rows, pos, start)
            assert ripper._grow_rule(ds, rows, pos, start) == expected

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=rule_search_cases())
    def test_pruning_matches_the_per_prefix_error(self, case):
        ds, rows, pos, conjunctions = case
        for i, conds in enumerate(conjunctions):
            others = conjunctions[:i] + conjunctions[i + 1:]
            assert (ripper._prune_for_list(ds, rows, others, conds, pos)
                    == oracle_prune_for_list(ds, rows, others, conds, pos))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_whole_rule_lists_equal_those_of_the_oracles(self, seed, monkeypatch):
        names = [f"in{j:02d}" for j in range(40)]
        rows = wide_rows(seed)
        for target, column in (("statusCode", -2), ("responsejson:flag", -1)):
            ds = make_dataset([[*row[:40], row[column]] for row in rows], names, target)
            model = train_ripper(ds)
            with monkeypatch.context() as patched:
                patched.setattr(ripper, "_grow_rule", oracle_grow_rule)
                patched.setattr(ripper, "_prune_for_list", oracle_prune_for_list)
                assert train_ripper(ds) == model
            assert len(model.rules) > 2


class TestRuleListSemantics:
    def list_model(self):
        return RuleList(
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
        tree = Split("method", {"GET": Leaf("200", 80, 0), "DELETE": Leaf("204", 20, 0)})
        assert classify(tree, {"method": "PATCH"}) == "200"
        assert classify(tree, {}) == "200"

    def test_a_blank_branch_does_not_catch_unseen_values(self):
        # "" is a value like any other (``?q=``), so the heaviest branch takes unseen ones
        tree = Split("uriQuery:q", {"": Leaf("404", 1), "a": Leaf("200", 50)})
        assert tree.missing_value == "a"
        assert classify(tree, {"uriQuery:q": "b"}) == "200"
        assert classify(tree, {"uriQuery:q": ""}) == "404"
        with pytest.raises(TypeError):
            Split("k", {"a": Leaf("200")}, missing_value="a")


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
            classify(model, dataset_row(ds, i)) != rows[i][3] for i in range(len(rows))
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
        assert render_model(train_ripper(ds), ds.target) == render_model(train_ripper(ds), ds.target)

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
            classify(model, dataset_row(ds, i)) != rows[i][3] for i in range(len(rows))
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
            classify(model, dataset_row(ds, i)) != rows[i][2] for i in range(len(rows))
        )
        assert errors == 0

    def test_deterministic(self):
        rows = TestRipper().stateful_rows(seed=29)
        ds = make_dataset(rows, ["method", "everCreated", "hasValidPayload"])
        assert render_model(train_part(ds), ds.target) == render_model(train_part(ds), ds.target)

    def test_partial_tree_stops_after_the_first_subtree(self):
        # a=x is the purest branch (entropy 0.95) and b decides it; a=z
        # (1.0) and a=y (1.58) are noise that b cannot split
        rows = [["x", "p", "200"]] * 25 + [["x", "q", "404"]] * 15
        rows += [["z", b, s] for b in "pq" for s in ("404", "500") for _ in range(5)]
        rows += [["y", b, s] for b in "pq" for s in ("200", "404", "500") for _ in range(5)]
        ds = make_dataset(rows, ["a", "b"])
        available = np.ones(len(ds.names), dtype=bool)
        root = grow(ds, ds.all_rows(), available, TreeParams(), partial=True)

        assert isinstance(root, GrownSplit)  # not collapsed into a leaf
        assert ds.names[root.attr] == "a"
        codes = {value: code for code, value in enumerate(ds.domains[root.attr])}
        branch_entropy = {
            codes[value]: oracle_entropy(Counter(r[2] for r in rows if r[0] == value).values())
            for value in codes
        }
        first, *later = sorted(branch_entropy, key=lambda code: (branch_entropy[code], code))
        assert ds.domains[root.attr][first] == "x"
        assert isinstance(root.children[first], GrownSplit)
        assert [root.children[code] for code in later] == [None, None]

        model = train_part(ds)
        assert model.rules[0].conditions == (("a", "x"), ("b", "p"))
        assert model.rules[0].klass == "200"


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
    source, row_of = (ds, dataset_row) if table is None else (table, table_row)
    expected = [classify(model, row_of(source, int(i))) for i in rows]
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
            held_out = stratified_folds(ds, 5, seed)[fold]
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
        assert _has_empty_leaf(tree)
        assert_predictions_match_classify(tree, ds, ds.all_rows())

    def test_tree_without_a_branch_takes_the_missing_value_branch(self):
        ds = make_dataset([["a", "200"], ["b", "404"], ["c", "500"], ["c", "500"]], ["k"])
        tree = Split("k", {"a": Leaf("200", 1), "b": Leaf("404", 5)})
        assert tree.missing_value == "b"
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

    def test_tested_domains_past_int64_are_renumbered(self):
        # 22 tested inputs of 8 values each: 8**22 = 2**66 combinations.
        # Rows in pairs differ only in the first input, 0 against 2, which
        # a key wrapped past int64 cannot tell apart.
        rng = random.Random(9)
        names = [f"a{j:02d}" for j in range(22)]
        rows = [[str(v)] * 22 + ["200"] for v in range(8)]  # every value occurs
        for _ in range(12):
            rest = [str(rng.randrange(7)) for _ in names[1:]]
            rows += [["0", *rest, "200"], ["2", *rest, "404"]]
        ds = make_dataset(rows, names)
        model = RuleList(
            (Rule((("a00", "2"),), "404"), *(Rule(((name, "7"),), "200") for name in names[1:])),
            "200",
        )
        assert math.prod(len(domain) for domain in ds.domains) > 2**63
        assert_predictions_match_classify(model, ds, ds.all_rows())

    @pytest.mark.parametrize("model", [
        Split("k", {
            "a": Split("j", {"x": Leaf("200", 3), "y": Leaf("404", 1)}), "b": Leaf("500", 2)}),
        RuleList((Rule((("k", "a"), ("j", "x")), "200"), Rule((("k", "b"),), "500")), "404"),
    ])
    def test_classify_runs_once_per_combination_of_tested_values(self, model, monkeypatch):
        rng = random.Random(5)
        rows = [[rng.choice("ab"), rng.choice("xy"), f"u{i}", rng.choice(["200", "404", "500"])]
                for i in range(40)]
        ds = make_dataset(rows, ["k", "j", "u"])
        calls = []

        def counting_classify(model, values):
            calls.append(values)
            return classify(model, values)

        monkeypatch.setattr("mockskel.learners.base.classify", counting_classify)
        assert_predictions_match_classify(model, ds, ds.all_rows())
        # "u" is never tested, so its 40 distinct values make no more calls
        assert len(calls) == len({(k, j) for k, j, _, _ in rows}) == 4


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
            assert sum(leaf.train_count for leaf in leaves(tree)) == len(rows)

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
        tree = train_c45(ds, params=TreeParams(min_leaf_instances=1), prune=False)
        errors = sum(
            classify(tree, dataset_row(ds, i)) != rows[i][3] for i in range(len(rows))
        )
        assert errors == 0


class TestModelSize:
    def test_single_leaf(self):
        tree = Leaf("200", 10, 0)
        assert model_size(tree) == 1
        assert len(list(leaves(tree))) == 1

    def test_status_code_tree_shape(self):
        # a 4-way method split where one branch tests a second attribute:
        # 7 nodes, 5 leaves
        tree = Split(
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
        )
        assert model_size(tree) == 7
        assert len(list(leaves(tree))) == 5

    def test_rule_count_includes_default(self):
        model = RuleList((Rule((("a", "b"),), "x"),), default_class="y")
        assert model_size(model) == 2


class TestRendering:
    def test_tree_lines_follow_figure_style(self):
        rows = [["GET", "200"]] * 5 + [["DELETE", "204"]] * 5
        ds = make_dataset(rows, ["method"])
        lines = render_model(train_c45(ds), ds.target)
        assert "method = DELETE: 204 (5)" in lines
        assert "method = GET: 200 (5)" in lines

    def test_rules_lines_follow_figure_style(self):
        rows = [["GET", "true", "200"]] * 6 + [["GET", "false", "404"]] * 3 + [
            ["DELETE", "true", "204"]
        ] * 3
        ds = make_dataset(rows, ["method", "everCreated"])
        lines = render_model(train_part(ds), ds.target)
        assert lines[-1].startswith("default: ")
        assert any(" => statusCode=" in line for line in lines[:-1])

    def test_values_with_spaces_are_quoted(self):
        model = RuleList(
            (Rule((("requestheader:Agent", "a b"),), "x y", 3, 0),), default_class="no-exist"
        )
        lines = render_rules(model, "responseheader:Server")
        assert lines[0] == '(requestheader:Agent = "a b") => responseheader:Server="x y" (3)'
