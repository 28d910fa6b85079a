import json
import random

import numpy as np
import pytest

from conftest import column, dataset_row, table_row, target_labels
from mockskel.features import Attribute, InstanceTable, Role
from mockskel.prep import PrepConfig, PreparedDataset, encode_table, prepare_all


def table_from_columns(columns: dict[str, tuple[Role, list[str]]]) -> InstanceTable:
    """A table built by hand: names, roles and rows, no domains."""
    names = list(columns)
    n = len(next(iter(columns.values()))[1])
    schema = tuple(Attribute(name, columns[name][0]) for name in names)
    return InstanceTable(schema, tuple(tuple(columns[name][1][i] for name in names) for i in range(n)))


def project(table: InstanceTable, names) -> InstanceTable:
    """The table of the columns ``names`` of ``table``, in its order."""
    keep = [i for i, name in enumerate(table.names) if name in names]
    return InstanceTable(
        tuple(table.schema[i] for i in keep),
        tuple(tuple(row[i] for i in keep) for row in table.instances),
    )


def domain(table, name):
    return table.schema[table.names.index(name)].domain


def kept_names(datasets) -> set[str]:
    """The inputs and targets of prepared datasets."""
    return set(datasets[0].names) | {ds.target for ds in datasets}


class TestDerivedDomains:
    def test_numeric_status_codes_become_nominal_domain(self):
        table = table_from_columns(
            {"statusCode": (Role.TARGET, ["200", "204", "404", "503", "200", "404"])}
        )
        assert domain(table, "statusCode") == ("200", "204", "404", "503")

    def test_constant_attribute_domain_of_one(self):
        table = table_from_columns({"host": (Role.INPUT, ["a.ex", "a.ex", "a.ex"])})
        assert domain(table, "host") == ("a.ex",)

    def test_already_nominal_unchanged(self):
        table = table_from_columns({"method": (Role.INPUT, ["GET", "POST", "GET"])})
        assert InstanceTable(table.schema, table.instances) == table

    def test_given_domain_is_replaced_by_the_observed_one(self):
        stale = (Attribute("method", Role.INPUT, domain=("GET",)),)
        table = InstanceTable(stale, (("GET",), ("POST",), ("GET",)))
        assert domain(table, "method") == ("GET", "POST")

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError, match="row 1 has 1 values, schema has 2"):
            InstanceTable((Attribute("a", Role.INPUT), Attribute("b", Role.TARGET)),
                          (("x", "y"), ("x",)))

    def test_numeric_domains_sort_numerically(self):
        table = table_from_columns({"x": (Role.INPUT, ["10", "2", "1"])})
        assert domain(table, "x") == ("1", "2", "10")


class TestPruneTargets:
    def test_unary_target_removed(self):
        table = table_from_columns(
            {
                "method": (Role.INPUT, ["GET", "POST"]),
                "statusCode": (Role.TARGET, ["200", "200"]),
            }
        )
        datasets, removals = prepare_all(table)
        assert datasets == []
        assert removals[0].attribute == "statusCode"
        assert removals[0].reason == "unary"
        assert removals[0].value == "200"

    def test_per_instance_unique_target_removed_high_cardinality(self):
        n = 100
        table = table_from_columns(
            {
                "method": (Role.INPUT, ["GET"] * n),
                "responsejson:message.text": (Role.TARGET, [f"msg {i}" for i in range(n)]),
            }
        )
        _, removals = prepare_all(table)
        reasons = {r.attribute: r.reason for r in removals}
        assert reasons["responsejson:message.text"] == "high-cardinality"

    def test_cardinality_uses_ratio_for_small_tables(self):
        # 10 instances, ratio 0.5 -> limit 5 even though the cap is 32
        table = table_from_columns(
            {
                "method": (Role.INPUT, ["GET"] * 10),
                "t": (Role.TARGET, [str(i % 6) for i in range(10)]),
            }
        )
        _, removals = prepare_all(table)
        assert any(r.attribute == "t" and r.reason == "high-cardinality" for r in removals)

    def test_constant_input_removed(self):
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex"] * 4),
                "method": (Role.INPUT, ["GET", "POST"] * 2),
                "statusCode": (Role.TARGET, ["200", "404"] * 2),
            }
        )
        datasets, removals = prepare_all(table)
        assert kept_names(datasets) == {"method", "statusCode"}
        assert any(r.attribute == "host" and r.role is Role.INPUT for r in removals)

    def test_constant_input_kept_when_configured(self):
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex"] * 4),
                "statusCode": (Role.TARGET, ["200", "404"] * 2),
            }
        )
        datasets, _ = prepare_all(table, PrepConfig(keep_single_valued_inputs=True))
        assert "host" in kept_names(datasets)

    def test_nothing_silently_dropped(self):
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex"] * 8),
                "method": (Role.INPUT, ["GET", "POST"] * 4),
                "statusCode": (Role.TARGET, ["200", "201"] * 4),
                "responseheader:Server": (Role.TARGET, ["nginx"] * 8),
            }
        )
        datasets, removals = prepare_all(table)
        removed = {r.attribute for r in removals}
        assert kept_names(datasets) | removed == set(table.names)
        assert not kept_names(datasets) & removed

    def test_report_serializes(self):
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex"] * 8),
                "statusCode": (Role.TARGET, ["200", "404"] * 4),
            }
        )
        _, removals = prepare_all(table)
        report = json.loads(json.dumps([r.to_json_dict() for r in removals]))
        assert report == [
            {"attribute": "host", "role": "input", "reason": "single-valued-input", "distinctCount": 1}
        ]


    def test_hand_built_table_needs_no_domains(self):
        n = 20
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex"] * n),
                "method": (Role.INPUT, ["GET", "POST"] * (n // 2)),
                "statusCode": (Role.TARGET, ["200", "404"] * (n // 2)),
                "responseheader:Server": (Role.TARGET, ["nginx"] * n),
            }
        )
        datasets, removals = prepare_all(table)
        assert [ds.target for ds in datasets] == ["statusCode"]
        (ds,) = datasets
        assert ds.names == ("method",) and ds.domains == (("GET", "POST"),)
        assert ds.target_domain == ("200", "404")
        assert [dataset_row(ds, i) for i in range(n)] == [
            {k: v for k, v in table_row(table, i).items() if k in ("method", "statusCode")}
            for i in range(n)
        ]
        assert [(r.attribute, r.reason, r.value) for r in removals] == [
            ("host", "single-valued-input", "a.ex"),
            ("responseheader:Server", "unary", "nginx"),
        ]


class TestProjection:
    def wide_table(self, n_inputs=42, n_targets=17, n=40):
        columns = {}
        for i in range(n_inputs):
            columns[f"in{i}"] = (Role.INPUT, [str(j % (2 + i % 3)) for j in range(n)])
        for i in range(n_targets):
            columns[f"responsejson:t{i}"] = (Role.TARGET, [str(j % 2) for j in range(n)])
        return table_from_columns(columns)

    def test_one_dataset_per_target_with_all_inputs(self):
        table = self.wide_table()
        datasets, removals = prepare_all(table)
        assert len(datasets) == 17
        for ds in datasets:
            assert len(ds.names) == len(ds.domains) == 42
            assert ds.X.shape == (40, 42) and ds.y.shape == (40,)

    def test_no_foreign_target_appears_as_predictor(self):
        table = self.wide_table(n_inputs=3, n_targets=4)
        datasets, _ = prepare_all(table)
        for ds in datasets:
            assert not any(name.startswith("responsejson:") for name in ds.names)

    def test_single_target_single_dataset(self):
        table = table_from_columns(
            {
                "method": (Role.INPUT, ["GET", "POST"] * 4),
                "statusCode": (Role.TARGET, ["200", "404"] * 4),
            }
        )
        datasets, _ = prepare_all(table)
        assert [ds.target for ds in datasets] == ["statusCode"]


def reference_codes(table: InstanceTable, role: Role) -> np.ndarray:
    """Per-cell encoding of the ``role`` columns, the loop the shared
    table replaced."""
    cols = [i for i, a in enumerate(table.schema) if a.role is role]
    out = np.zeros((len(table.instances), len(cols)), dtype=np.int32)
    for r, row in enumerate(table.instances):
        for j, i in enumerate(cols):
            out[r, j] = table.schema[i].domain.index(row[i])
    return out


class TestEncodedTable:
    def test_datasets_share_one_encoded_table(self):
        datasets, _ = prepare_all(TestProjection().wide_table(n_inputs=5, n_targets=3))
        a, b = datasets[:2]
        assert np.shares_memory(a.X, b.X)
        Y = a.y.base
        assert Y is not None and b.y.base is Y and Y.shape == (40, 3)
        assert a.y.flags.c_contiguous and a.X[:, 0].flags.c_contiguous

    def test_target_column_is_the_datasets_target(self):
        table = table_from_columns(
            {
                "m": (Role.INPUT, ["GET", "POST", "PUT", "GET"]),
                "statusCode": (Role.TARGET, ["200", "201", "200", "404"]),
                "responseheader:X": (Role.TARGET, ["a", "b", "b", "a"]),
            }
        )
        datasets, _ = prepare_all(table)
        for ds in datasets:
            assert target_labels(ds) == column(table, ds.target)

    def test_codes_match_per_cell_reference(self):
        # numbers written many ways, non-finite numbers and the empty string
        spellings = ["10", "2", "1", "1e400", "nan", "1_000", "-0", "0", "", "x", "y"]
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randrange(0, 40)
            columns = {}
            for i in range(rng.randrange(1, 5)):
                pool = rng.sample(spellings, rng.randrange(1, len(spellings) + 1))
                columns[f"in{i}"] = (Role.INPUT, [rng.choice(pool) for _ in range(n)])
            for i in range(rng.randrange(1, 4)):
                pool = rng.sample(spellings, rng.randrange(1, len(spellings) + 1))
                columns[f"responsejson:t{i}"] = (Role.TARGET, [rng.choice(pool) for _ in range(n)])
            table = table_from_columns(columns)
            for attr in table.schema:
                observed = column(table, attr.name)
                assert sorted(attr.domain) == sorted(set(observed))
            encoded = encode_table(table)
            assert encoded.X.shape == (n, len(table.inputs()))
            assert encoded.Y.shape == (n, len(table.targets()))
            np.testing.assert_array_equal(encoded.X, reference_codes(table, Role.INPUT))
            np.testing.assert_array_equal(encoded.Y, reference_codes(table, Role.TARGET))

    def test_prepare_all_encodes_the_pruned_table(self):
        rng = random.Random(9)
        n = 40
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex"] * n),
                "m": (Role.INPUT, [rng.choice(["GET", "POST", "PUT"]) for _ in range(n)]),
                "q": (Role.INPUT, [str(rng.randrange(12)) for _ in range(n)]),
                "statusCode": (Role.TARGET, [rng.choice(["9", "10", "200"]) for _ in range(n)]),
                "responseheader:Server": (Role.TARGET, ["nginx"] * n),
                "responsejson:id": (Role.TARGET, [str(i) for i in range(n)]),
                "responsejson:ok": (Role.TARGET, [rng.choice(["true", "false"]) for _ in range(n)]),
            }
        )
        datasets, removals = prepare_all(table)
        assert [(r.attribute, r.reason) for r in removals] == [
            ("host", "single-valued-input"),
            ("responseheader:Server", "unary"),
            ("responsejson:id", "high-cardinality"),
        ]
        pruned = project(table, {"m", "q", "statusCode", "responsejson:ok"})
        assert [ds.target for ds in datasets] == [a.name for a in pruned.targets()]
        targets = reference_codes(pruned, Role.TARGET)
        for t, ds in enumerate(datasets):
            assert ds.names == tuple(a.name for a in pruned.inputs())
            assert ds.domains == tuple(a.domain for a in pruned.inputs())
            np.testing.assert_array_equal(ds.X, reference_codes(pruned, Role.INPUT))
            np.testing.assert_array_equal(ds.y, targets[:, t])

    def test_hand_built_dataset_encodes_its_own_table(self):
        table = table_from_columns(
            {
                "m": (Role.INPUT, ["GET", "POST", "GET"]),
                "statusCode": (Role.TARGET, ["200", "201", "200"]),
            }
        )
        ds = PreparedDataset(encode_table(table), 0)
        assert ds.X[:, 0].tolist() == [0, 1, 0]
        assert ds.y.tolist() == [0, 1, 0]
        assert [dataset_row(ds, i) for i in range(3)] == [table_row(table, i) for i in range(3)]


class TestPruningMonotonicity:
    def test_unary_on_superset_implies_unary_on_subset_with_equal_domain(self):
        values = ["200"] * 50
        table_small = table_from_columns(
            {"m": (Role.INPUT, ["GET"] * 10 + ["POST"] * 10), "statusCode": (Role.TARGET, values[:20])}
        )
        table_big = table_from_columns(
            {"m": (Role.INPUT, ["GET"] * 25 + ["POST"] * 25), "statusCode": (Role.TARGET, values)}
        )
        _, removed_small = prepare_all(table_small)
        _, removed_big = prepare_all(table_big)
        assert {r.attribute for r in removed_big if r.reason == "unary"} <= {
            r.attribute for r in removed_small if r.reason == "unary"
        }
