import random

import numpy as np
import pytest

from mockskel.errors import PrunedTargetError, UnknownTargetError
from mockskel.features import Attribute, Instance, InstanceTable, Role
from mockskel.learners import EncodedDataset
from mockskel.prep import (
    PrepConfig,
    PreparedDataset,
    coerce_to_nominal,
    encode_table,
    prepare_all,
    project_for_target,
    prune_targets,
    removal_report_json,
)


def table_from_columns(columns: dict[str, tuple[Role, list[str]]]) -> InstanceTable:
    names = list(columns)
    n = len(next(iter(columns.values()))[1])
    schema = tuple(Attribute(name, columns[name][0]) for name in names)
    instances = tuple(
        Instance(tuple(columns[name][1][i] for name in names), f"t{i}") for i in range(n)
    )
    return coerce_to_nominal(InstanceTable(schema, instances))


class TestCoerce:
    def test_numeric_status_codes_become_nominal_domain(self):
        table = table_from_columns(
            {"statusCode": (Role.TARGET, ["200", "204", "404", "503", "200", "404"])}
        )
        assert table.attribute("statusCode").domain == ("200", "204", "404", "503")

    def test_constant_attribute_domain_of_one(self):
        table = table_from_columns({"host": (Role.INPUT, ["a.ex", "a.ex", "a.ex"])})
        assert table.attribute("host").domain == ("a.ex",)

    def test_already_nominal_unchanged(self):
        table = table_from_columns({"method": (Role.INPUT, ["GET", "POST", "GET"])})
        assert coerce_to_nominal(table) == table

    def test_numeric_domains_sort_numerically(self):
        table = table_from_columns({"x": (Role.INPUT, ["10", "2", "1"])})
        assert table.attribute("x").domain == ("1", "2", "10")


class TestPruneTargets:
    def test_unary_target_removed(self):
        table = table_from_columns(
            {
                "method": (Role.INPUT, ["GET", "POST"]),
                "statusCode": (Role.TARGET, ["200", "200"]),
            }
        )
        pruned, removals = prune_targets(table)
        assert [a.name for a in pruned.targets()] == []
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
        _, removals = prune_targets(table)
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
        _, removals = prune_targets(table)
        assert any(r.attribute == "t" and r.reason == "high-cardinality" for r in removals)

    def test_constant_input_removed(self):
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex", "a.ex"]),
                "method": (Role.INPUT, ["GET", "POST"]),
                "statusCode": (Role.TARGET, ["200", "404"]),
            }
        )
        pruned, removals = prune_targets(table)
        assert "host" not in pruned.names
        assert any(r.attribute == "host" and r.role is Role.INPUT for r in removals)

    def test_constant_input_kept_when_configured(self):
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex", "a.ex"]),
                "statusCode": (Role.TARGET, ["200", "404"]),
            }
        )
        pruned, _ = prune_targets(table, PrepConfig(drop_single_valued_inputs=False))
        assert "host" in pruned.names

    def test_nothing_silently_dropped(self):
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex"] * 8),
                "method": (Role.INPUT, ["GET", "POST"] * 4),
                "statusCode": (Role.TARGET, ["200", "201"] * 4),
                "responseheader:Server": (Role.TARGET, ["nginx"] * 8),
            }
        )
        pruned, removals = prune_targets(table)
        assert set(pruned.names) | {r.attribute for r in removals} == set(table.names)

    def test_report_serializes(self):
        table = table_from_columns(
            {
                "host": (Role.INPUT, ["a.ex"] * 8),
                "statusCode": (Role.TARGET, ["200", "404"] * 4),
            }
        )
        _, removals = prune_targets(table)
        import json

        report = json.loads(removal_report_json(removals))
        assert report == [
            {"attribute": "host", "role": "input", "reason": "single-valued-input", "distinctCount": 1}
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
            assert len(ds.input_attributes) == 42
            assert len(ds.table.targets()) == 1

    def test_no_foreign_target_appears_as_predictor(self):
        table = self.wide_table(n_inputs=3, n_targets=4)
        datasets, _ = prepare_all(table)
        for ds in datasets:
            input_names = {a.name for a in ds.input_attributes}
            assert not any(name.startswith("responsejson:") for name in input_names)

    def test_projecting_pruned_target_fails(self):
        table = table_from_columns(
            {
                "method": (Role.INPUT, ["GET", "POST"]),
                "statusCode": (Role.TARGET, ["200", "404"]),
                "responseheader:Server": (Role.TARGET, ["nginx", "nginx"]),
            }
        )
        pruned, removals = prune_targets(table)
        with pytest.raises(PrunedTargetError):
            project_for_target(pruned, "responseheader:Server", removals)

    def test_projecting_unknown_target_fails(self):
        table = table_from_columns(
            {
                "method": (Role.INPUT, ["GET", "POST"]),
                "statusCode": (Role.TARGET, ["200", "404"]),
            }
        )
        with pytest.raises(UnknownTargetError):
            project_for_target(table, "nope")
        with pytest.raises(UnknownTargetError):
            project_for_target(table, "method")

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
    for r, inst in enumerate(table.instances):
        for j, i in enumerate(cols):
            out[r, j] = table.schema[i].domain.index(inst.values[i])
    return out


class TestEncodedTable:
    def test_datasets_share_one_encoded_table(self):
        datasets, _ = prepare_all(TestProjection().wide_table(n_inputs=5, n_targets=3))
        a, b = (EncodedDataset(ds) for ds in datasets[:2])
        assert np.shares_memory(a.X, b.X)
        Y = datasets[0].encoded.Y
        assert np.shares_memory(a.y, Y) and np.shares_memory(b.y, Y)
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
            enc = EncodedDataset(ds)
            assert enc.target_name == ds.target
            assert [enc.target_domain[c] for c in enc.y] == ds.table.column(ds.target)

    def test_codes_match_per_cell_reference(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(0, 40)
            columns = {
                f"in{i}": (Role.INPUT, [str(rng.randrange(1 + i)) for _ in range(n)])
                for i in range(rng.randrange(1, 5))
            }
            for i in range(rng.randrange(1, 4)):
                columns[f"responsejson:t{i}"] = (Role.TARGET, [rng.choice("xyz") for _ in range(n)])
            table = table_from_columns(columns)
            encoded = encode_table(table)
            assert encoded.X.shape == (n, len(table.inputs()))
            assert encoded.Y.shape == (n, len(table.targets()))
            np.testing.assert_array_equal(encoded.X, reference_codes(table, Role.INPUT))
            np.testing.assert_array_equal(encoded.Y, reference_codes(table, Role.TARGET))
            for attr, codes in zip(encoded.inputs, encoded.input_codes):
                assert [attr.domain[c] for c in codes.values()] == list(codes)

    def test_hand_built_dataset_encodes_its_own_table(self):
        table = table_from_columns(
            {
                "m": (Role.INPUT, ["GET", "POST", "GET"]),
                "statusCode": (Role.TARGET, ["200", "201", "200"]),
            }
        )
        ds = PreparedDataset(table, "statusCode")
        assert ds.table is table
        enc = EncodedDataset(ds)
        assert enc.X[:, 0].tolist() == [0, 1, 0]
        assert enc.y.tolist() == [0, 1, 0]
        assert np.shares_memory(enc.X, EncodedDataset(ds).X)


class TestPruningMonotonicity:
    def test_unary_on_superset_implies_unary_on_subset_with_equal_domain(self):
        values = ["200"] * 50
        table_small = table_from_columns(
            {"m": (Role.INPUT, ["GET"] * 10 + ["POST"] * 10), "statusCode": (Role.TARGET, values[:20])}
        )
        table_big = table_from_columns(
            {"m": (Role.INPUT, ["GET"] * 25 + ["POST"] * 25), "statusCode": (Role.TARGET, values)}
        )
        _, removed_small = prune_targets(table_small)
        _, removed_big = prune_targets(table_big)
        assert {r.attribute for r in removed_big if r.reason == "unary"} <= {
            r.attribute for r in removed_small if r.reason == "unary"
        }
