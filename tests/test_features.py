import pickle
import random
from fnmatch import fnmatchcase

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mockskel.features import (
    SENTINEL_NO_EXIST,
    SENTINEL_NULL,
    ExtractionConfig,
    ResourceState,
    Role,
    escape_literal,
    extract_table,
    flatten_json,
    request_feature_map,
    response_feature_map,
    serve_input_values,
    to_arff,
    tokenize_uri,
    unescape_literal,
)
from mockskel.features import _schema_lookups
from mockskel.synth import generate_synthetic_log
from mockskel.traffic import (
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    TrafficLog,
    crud_class,
    resource_key,
)


def txn(i, method="GET", uri="https://api.ex.com/tasks/1", status=200,
        req_headers=(), req_body=None, resp_headers=(), resp_body=None):
    return HttpTransaction(
        f"t{i}",
        i,
        HttpRequest(method, uri, headers=req_headers, body=req_body),
        HttpResponse(status, headers=resp_headers, body=resp_body),
    )


def table_of(log):
    table, _ = extract_table(log)
    return table


def folded(history):
    """The ResourceState after ``history``, a sequence of transactions."""
    state = ResourceState()
    for t in history:
        state = state.after(t.request.method, t.response.status_code, crud_class(t.request))
    return state


class TestGeneral:
    @pytest.mark.parametrize(
        "method,status", [("GET", 200), ("DELETE", 204), ("POST", 422)]
    )
    def test_method_and_status(self, method, status):
        t = txn(0, method=method, status=status)
        assert request_feature_map(t.request)["method"] == method
        assert response_feature_map(t.response) == {"statusCode": str(status)}


class TestTokenizeUri:
    def test_full_uri(self):
        features = tokenize_uri("https://api.ex.com/tasks/42?max=10")
        assert features == {
            "schema": "https",
            "host": "api.ex.com",
            "uriPathToken0": "tasks",
            "uriPathToken1": "42",
            "uriQuery:max": "10",
        }

    def test_empty_path_has_no_tokens(self):
        features = tokenize_uri("https://api.ex.com/")
        assert not any(k.startswith("uriPathToken") for k in features)

    def test_fragment(self):
        assert tokenize_uri("https://a.ex/x#top")["uriFragment"] == "top"

    def test_path_token_matching_sentinel_is_escaped(self):
        features = tokenize_uri("https://a.ex/null/no-exist/lit:x")
        assert features["uriPathToken0"] == "lit:null"
        assert features["uriPathToken1"] == "lit:no-exist"
        assert features["uriPathToken2"] == "lit:lit:x"

    def test_depth_cap(self):
        features = tokenize_uri("https://a.ex/a/b/c/d", max_path_depth=2)
        assert "uriPathToken2" not in features


class TestEscaping:
    @pytest.mark.parametrize("value", ["null", "no-exist", "lit:null", "lit:lit:a", "ordinary"])
    def test_escape_unescape_inverse(self, value):
        assert unescape_literal(escape_literal(value)) == value

    def test_escaped_never_a_sentinel(self):
        for value in ["null", "no-exist", "lit:anything"]:
            assert escape_literal(value) not in (SENTINEL_NULL, SENTINEL_NO_EXIST)


class TestPayload:
    def test_valid_json_request(self):
        t = txn(0, method="POST", req_body=b'{"title":"x"}',
                req_headers=[("Content-Type", "application/json")])
        features = request_feature_map(t.request)
        assert features["hasPayload"] == "true"
        assert features["hasValidPayload"] == "true"
        assert features["requestjson:title"] == "x"

    def test_unparseable_body(self):
        t = txn(0, method="POST", req_body=b"{bad",
                req_headers=[("Content-Type", "application/json")])
        features = request_feature_map(t.request)
        assert features["hasPayload"] == "true"
        assert features["hasValidPayload"] == "false"
        assert not any(k.startswith("requestjson:") for k in features)

    def test_bodiless_request(self):
        features = request_feature_map(txn(0).request)
        assert features["hasPayload"] == "false"
        assert features["hasValidPayload"] == "false"

    def test_non_json_content_type_not_parsed(self):
        t = txn(0, method="POST", req_body=b'{"a":1}',
                req_headers=[("Content-Type", "text/plain")])
        features = request_feature_map(t.request)
        assert features["hasValidPayload"] == "false"

    def test_response_side_has_only_json_keys(self):
        t = txn(0, resp_body=b'{"ok":true}',
                resp_headers=[("Content-Type", "application/json")])
        features = response_feature_map(t.response)
        assert features == {
            "statusCode": "200",
            "responseheader:Content-Type": "application/json",
            "responsejson:ok": "true",
        }

    def test_array_paths_collected_on_both_sides(self):
        t = txn(0, method="POST", req_body=b'{"tags":["a"]}',
                req_headers=[("Content-Type", "application/json")],
                resp_body=b'{"items":[{"id":1}]}',
                resp_headers=[("Content-Type", "application/json")])
        arrays = set()
        request_feature_map(t.request, arrays=arrays)
        response_feature_map(t.response, arrays=arrays)
        assert arrays == {"requestjson:tags", "responsejson:items"}
        _, profile = extract_table(TrafficLog((t,)))
        assert profile.array_paths == ("requestjson:tags", "responsejson:items")


class TestFlattenJson:
    def test_nested_array_merges_without_indices(self):
        body = {"error": {"errors": [{"domain": "global"}]}}
        flat = flatten_json(body, "responsejson")
        assert flat == {"responsejson:error.errors.domain": "global"}

    def test_boolean_scalar(self):
        assert flatten_json({"ok": True}, "responsejson") == {"responsejson:ok": "true"}

    def test_empty_object(self):
        assert flatten_json({}, "responsejson") == {}

    def test_array_first_non_null_value_wins(self):
        body = {"items": [{"kind": None}, {"kind": "task"}, {"kind": "other"}]}
        assert flatten_json(body, "r") == {"r:items.kind": "task"}

    def test_numbers_canonical(self):
        flat = flatten_json({"a": 1, "b": 2.5, "c": 3.0, "d": None}, "r")
        assert flat == {"r:a": "1", "r:b": "2.5", "r:c": "3", "r:d": "null"}


class TestHeaders:
    def test_response_header_extracted(self):
        t = txn(0, resp_headers=[("Cache-Control", "no-cache")])
        features = response_feature_map(t.response)
        assert features["responseheader:Cache-Control"] == "no-cache"

    def test_authorisation_token_detected(self):
        t = txn(0, req_headers=[("Authorization", "Bearer t")])
        features = request_feature_map(t.request)
        assert features["hasAuthorisationToken"] == "true"
        assert features["requestheader:Authorization"] == "Bearer t"

    def test_x_token_pattern_detected(self):
        t = txn(0, req_headers=[("X-Api-Token", "secret")])
        assert request_feature_map(t.request)["hasAuthorisationToken"] == "true"

    def test_no_auth(self):
        assert request_feature_map(txn(0).request)["hasAuthorisationToken"] == "false"

    def test_auth_header_match_agrees_with_fnmatch(self):
        config = ExtractionConfig(
            auth_header_names=("Authorization", "COOKIE"),
            auth_header_patterns=("x-*-token", "Api-K?y", "[ab]-sig"),
        )

        def reference(name):
            lname = name.lower()
            return lname in {n.lower() for n in config.auth_header_names} or any(
                fnmatchcase(lname, p.lower()) for p in config.auth_header_patterns
            )

        names = ["Authorization", "cookie", "X-Api-Token", "x-token", "api-key", "API-KXY",
                 "b-sig", "c-sig", "a-sig-extra", "Accept", "X-A-Token\n", ""]
        for name in names:
            assert config.is_auth_header(name) == reference(name), name
        assert not ExtractionConfig(auth_header_patterns=()).is_auth_header("x-a-token")

    def test_auth_matchers_leave_equality_and_pickling_unchanged(self):
        config = ExtractionConfig()
        pickled = pickle.dumps(config)
        assert config.is_auth_header("Cookie")
        assert pickle.dumps(config) == pickled
        assert pickle.loads(pickled) == config == ExtractionConfig()
        assert config.to_json_dict() == ExtractionConfig().to_json_dict()

    def test_missing_header_fills_no_exist_in_table(self):
        log = TrafficLog(
            (
                txn(0, resp_headers=[("X-Frame-Options", "DENY")]),
                txn(1, uri="https://api.ex.com/tasks/2"),
            )
        )
        table = table_of(log)
        assert table.column("responseheader:X-Frame-Options") == ["DENY", SENTINEL_NO_EXIST]

    def test_header_names_take_first_spelling_in_log(self):
        log = TrafficLog(
            (
                txn(0, req_headers=[("x-tenant", "a"), ("X-Tenant", "ignored")]),
                txn(1, req_headers=[("X-TENANT", "b")]),
            )
        )
        table = table_of(log)
        assert "requestheader:X-Tenant" not in table.names
        assert table.column("requestheader:x-tenant") == ["a", "b"]


class TestStateFeatures:
    def test_first_transaction_on_resource(self):
        features = folded([]).features()
        assert features["hasImmediatePreviousTransaction"] == "false"
        assert features["prev:method"] == SENTINEL_NO_EXIST
        assert features["prev:statusCode"] == SENTINEL_NO_EXIST
        for flag in ("everCreated", "everRead", "everUpdated", "everDeleted"):
            assert features[flag] == "false"

    def test_post_then_get(self):
        features = folded([txn(0, method="POST", status=201)]).features()
        assert features["hasImmediatePreviousTransaction"] == "true"
        assert features["prev:method"] == "POST"
        assert features["prev:statusCode"] == "201"
        assert features["everCreated"] == "true"
        assert features["everRead"] == "false"

    def test_uri_pattern_overrides_method(self):
        # POST .../statuses/destroy/42 counts as a delete
        history = [txn(0, method="POST", uri="https://api.tw.com/statuses/destroy/42")]
        features = folded(history).features()
        assert features["everDeleted"] == "true"
        assert features["everCreated"] == "false"

    def test_fold_keeps_last_transaction_and_flags(self):
        history = [
            txn(0, method="POST", status=201),
            txn(1, method="GET"),
            txn(2, method="PATCH", status=400),
        ]
        state = folded(history)
        assert state == ResourceState("PATCH", 400, frozenset({"create", "read", "update"}))
        features = state.features()
        assert features["prev:method"] == "PATCH"
        assert features["prev:statusCode"] == "400"
        assert features["everDeleted"] == "false"


class TestBuildTable:
    def test_disjoint_response_keys_union_with_no_exist(self):
        log = TrafficLog(
            (
                txn(0, resp_body=b'{"a":1}', resp_headers=[("Content-Type", "application/json")]),
                txn(1, uri="https://api.ex.com/tasks/2", resp_body=b'{"b":2}',
                    resp_headers=[("Content-Type", "application/json")]),
            )
        )
        table = table_of(log)
        assert table.column("responsejson:a") == ["1", SENTINEL_NO_EXIST]
        assert table.column("responsejson:b") == [SENTINEL_NO_EXIST, "2"]

    def test_path_depth_padding_with_null(self):
        log = TrafficLog(
            (
                txn(0, uri="https://a.ex/x/1"),
                txn(1, uri="https://a.ex/x/1/sub/leaf"),
            )
        )
        table = table_of(log)
        assert table.column("uriPathToken2") == [SENTINEL_NULL, "sub"]
        assert table.column("uriPathToken3") == [SENTINEL_NULL, "leaf"]

    def test_empty_log(self):
        table = table_of(TrafficLog(()))
        assert table.schema == ()
        assert table.instances == ()

    def test_rectangular_on_synthetic_fixture(self, small_synth_log):
        table = table_of(small_synth_log)
        assert len(table.instances) == len(small_synth_log)
        width = len(table.schema)
        assert all(len(inst.values) == width for inst in table.instances)

    def test_role_soundness(self, small_synth_log):
        table = table_of(small_synth_log)
        for attr in table.schema:
            if attr.role is Role.TARGET:
                assert attr.name == "statusCode" or attr.name.startswith(
                    ("responseheader:", "responsejson:")
                )
            else:
                assert not attr.name.startswith(("responseheader:", "responsejson:"))
                assert attr.name != "statusCode"

    def test_sentinel_safety(self, small_synth_log):
        table = table_of(small_synth_log)
        for attr in table.schema:
            for value in attr.domain:
                if value == SENTINEL_NULL:
                    assert attr.name.startswith("uriPathToken") or attr.name == "uriFragment"
                if value == SENTINEL_NO_EXIST:
                    assert not attr.name.startswith("uriPathToken")

    def test_idempotent(self, small_synth_log):
        a = table_of(small_synth_log)
        b = table_of(small_synth_log)
        assert a == b

    def test_state_causality(self):
        # the same request earns different state features depending only on
        # what came strictly before it
        base = "https://a.ex/things/7"
        log = TrafficLog(
            (
                txn(0, method="GET", uri=base, status=404),
                txn(1, method="POST", uri=base, status=201),
                txn(2, method="GET", uri=base, status=200),
            )
        )
        table = table_of(log)
        assert table.column("everCreated") == ["false", "false", "true"]
        assert table.column("hasImmediatePreviousTransaction") == ["false", "true", "true"]

    def test_domains_cover_observed_values(self, small_synth_log):
        table = table_of(small_synth_log)
        for i, attr in enumerate(table.schema):
            observed = {inst.values[i] for inst in table.instances}
            assert observed <= set(attr.domain)


class TestServeValues:
    def test_deep_uri_counts_unmatched(self):
        request = HttpRequest("GET", "https://a.ex/x/1/deep/deeper")
        values, unmatched = serve_input_values(
            ["method", "uriPathToken0", "uriPathToken1"], request, ResourceState()
        )
        assert values["method"] == "GET"
        assert values["uriPathToken0"] == "x"
        assert unmatched == 2  # uriPathToken2 and uriPathToken3 unrepresentable

    def test_absent_inputs_fill_family_sentinel(self):
        request = HttpRequest("GET", "https://a.ex/x")
        values, _ = serve_input_values(
            ["uriPathToken1", "uriQuery:max", "requestheader:Accept"], request, ResourceState()
        )
        assert values["uriPathToken1"] == SENTINEL_NULL
        assert values["uriQuery:max"] == SENTINEL_NO_EXIST
        assert values["requestheader:Accept"] == SENTINEL_NO_EXIST

    def test_request_header_names_match_schema_case_insensitively(self):
        request = HttpRequest("GET", "https://a.ex/x", headers=[("content-TYPE", "text/plain")])
        values, _ = serve_input_values(["requestheader:Content-Type"], request, ResourceState())
        assert values["requestheader:Content-Type"] == "text/plain"

    def test_schema_lookups_are_not_changed_by_requests(self):
        inputs = ("method", "uriPathToken0", "requestheader:Content-Type")
        first = HttpRequest("GET", "https://a.ex/x", headers=[("x-trace", "1")])
        second = HttpRequest("GET", "https://a.ex/x", headers=[("X-TRACE", "2"), ("content-type", "a/b")])
        for request in (first, second, first):
            values, unmatched = serve_input_values(inputs, request, ResourceState())
            assert values == {"method": "GET", "uriPathToken0": "x", "requestheader:Content-Type":
                              "a/b" if request is second else SENTINEL_NO_EXIST}
            assert unmatched == 0
        spelling, _, _ = _schema_lookups(inputs, ())
        assert spelling == {"content-type": "Content-Type"}


def _recased(log: TrafficLog, rng: random.Random) -> TrafficLog:
    """``log`` with every request header name in a random letter case."""

    def recase(name: str) -> str:
        return "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in name)

    return TrafficLog(tuple(
        HttpTransaction(
            t.id,
            t.sequence,
            HttpRequest(t.request.method, t.request.uri,
                        headers=[(recase(n), v) for n, v in t.request.headers],
                        body=t.request.body),
            t.response,
        )
        for t in log.transactions
    ))


class TestServeMatchesTraining:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        n_transactions=st.integers(1, 150),
        n_resources=st.integers(1, 12),
        rng=st.randoms(use_true_random=False),
    )
    def test_replay_reproduces_training_inputs(self, seed, n_transactions, n_resources, rng):
        # replaying a recording in order, with each resource's state folded
        # over its predecessors, gives every transaction its training row
        log = _recased(generate_synthetic_log(n_transactions, n_resources, seed=seed), rng)
        config = ExtractionConfig()
        table, _ = extract_table(log, config)
        input_names = [a.name for a in table.inputs()]
        states: dict[str, ResourceState] = {}
        for i, t in enumerate(log.transactions):
            key = resource_key(t.request, config.resource)
            state = states.get(key, ResourceState())
            values, _ = serve_input_values(input_names, t.request, state, config)
            row = table.row_mapping(i)
            assert values == {name: row[name] for name in input_names}
            states[key] = state.after(
                t.request.method, t.response.status_code, crud_class(t.request, config.resource)
            )


class TestArff:
    def test_export_contains_schema_and_rows(self):
        log = TrafficLog((txn(0), txn(1, uri="https://api.ex.com/tasks/2", status=404)))
        text = to_arff(table_of(log), relation="unit")
        assert "@relation unit" in text
        assert "@attribute statusCode {200,404}" in text
        assert text.count("\n@attribute") == len(table_of(log).schema)
        assert "@data" in text

    def test_quoting(self):
        log = TrafficLog((txn(0, req_headers=[("Accept", "a b,c")]),))
        text = to_arff(table_of(log))
        assert "'a b,c'" in text
