import io
import json

import pytest

from conftest import group_by_resource
from mockskel.errors import MalformedInputError, UnparseableUriError
from mockskel.traffic import (
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    ResourceKeyConfig,
    TrafficLog,
    crud_class,
    dump_jsonl,
    load_traffic,
    path_shape,
    resource_key,
)


def line(i, method="GET", uri="https://api.ex.com/tasks/1", status=200, **extra):
    obj = {
        "id": f"t{i}",
        "sequence": i,
        "request": {"method": method, "uri": uri, "headers": []},
        "response": {"status": status, "headers": []},
    }
    obj.update(extra)
    return json.dumps(obj)


class TestJsonlLoading:
    def test_empty_stream(self):
        log = load_traffic(b"", "jsonl")
        assert len(log) == 0

    def test_three_lines_get_sequences_in_order(self):
        text = "\n".join(
            json.dumps(
                {
                    "id": f"t{i}",
                    "request": {"method": "GET", "uri": "https://a.ex/x", "headers": []},
                    "response": {"status": 200, "headers": []},
                }
            )
            for i in range(3)
        )
        log = load_traffic(text.encode(), "jsonl")
        assert [t.sequence for t in log.transactions] == [0, 1, 2]

    def test_explicit_sequences_define_order(self):
        text = "\n".join([line(5), line(2), line(9)])
        log = load_traffic(text.encode(), "jsonl")
        assert [t.sequence for t in log.transactions] == [2, 5, 9]
        assert [t.id for t in log.transactions] == ["t2", "t5", "t9"]

    def test_malformed_line_reports_index(self):
        text = line(0) + "\n{nope\n"
        with pytest.raises(MalformedInputError) as exc:
            load_traffic(text.encode(), "jsonl")
        assert exc.value.index == 1
        assert str(exc.value).startswith("line 2: invalid JSON")

    def test_unsupported_method_is_skipped_with_count(self):
        text = line(0) + "\n" + line(1, method="BREW") + "\n" + line(2)
        log = load_traffic(text.encode(), "jsonl")
        assert len(log) == 2
        assert log.skipped_methods == 1

    def test_duplicate_ids_rejected(self):
        text = line(0) + "\n" + line(0).replace('"sequence": 0', '"sequence": 1')
        with pytest.raises(MalformedInputError):
            load_traffic(text.encode(), "jsonl")

    def test_file_object_source(self):
        log = load_traffic(io.BytesIO(line(0).encode()), "jsonl")
        assert len(log) == 1

    def test_bad_status_code_is_malformed(self):
        with pytest.raises(MalformedInputError):
            load_traffic(line(0, status=99).encode(), "jsonl")


class TestRoundTrip:
    def test_body_and_binary_body_round_trip(self):
        req = HttpRequest(
            "POST",
            "https://api.ex.com/tasks",
            headers=[("Content-Type", "application/json"), ("X-Dup", "a"), ("X-Dup", "b")],
            body=b'{"title":"x"}',
        )
        resp = HttpResponse(201, headers=[("Content-Type", "application/json")], body=bytes([0, 255, 1]))
        log = TrafficLog(
            (HttpTransaction("a", 0, req, resp, timestamp=1234),), source="unit"
        )
        text = dump_jsonl(log)
        obj = json.loads(text)
        assert "bodyB64" in obj["response"]  # not valid UTF-8
        assert obj["request"]["body"] == '{"title":"x"}'
        reloaded = load_traffic(text.encode(), "jsonl")
        assert reloaded.transactions == log.transactions

    def test_round_trip_preserves_all_fields(self, small_synth_log):
        reloaded = load_traffic(dump_jsonl(small_synth_log).encode(), "jsonl")
        assert reloaded.transactions == small_synth_log.transactions


class TestHarImport:
    def har(self, entries):
        return json.dumps({"log": {"entries": entries}}).encode()

    def entry(self, method="GET", url="https://api.ex.com/a", status=200):
        return {
            "startedDateTime": "2019-07-02T10:00:00.000Z",
            "request": {"method": method, "url": url, "headers": [{"name": "Accept", "value": "*/*"}]},
            "response": {
                "status": status,
                "headers": [{"name": "Content-Type", "value": "application/json"}],
                "content": {"text": "{\"ok\":true}"},
            },
        }

    def test_entries_map_in_order(self):
        log = load_traffic(self.har([self.entry(), self.entry(method="POST")]), "har")
        assert [t.sequence for t in log.transactions] == [0, 1]
        assert log.transactions[0].timestamp == 1562061600000
        assert log.transactions[1].request.method == "POST"
        assert log.transactions[0].response.body == b'{"ok":true}'

    def test_malformed_second_entry_names_entry_index(self):
        bad = {"request": {"method": "GET"}, "response": {}}
        with pytest.raises(MalformedInputError) as exc:
            load_traffic(self.har([self.entry(), bad]), "har")
        assert exc.value.index == 1
        assert "entry 1" in str(exc.value)

    def test_base64_response_content(self):
        entry = self.entry()
        entry["response"]["content"] = {"text": "AAECww==", "encoding": "base64"}
        log = load_traffic(self.har([entry]), "har")
        assert log.transactions[0].response.body == bytes([0, 1, 2, 0xC3])


class TestResourceKey:
    def test_same_key_for_same_path(self):
        get = HttpRequest("GET", "https://api.ex.com/tasks/42")
        delete = HttpRequest("DELETE", "https://api.ex.com/tasks/42")
        assert resource_key(get) == resource_key(delete) == "api.ex.com/tasks/42"

    def test_verb_tokens_are_stripped(self):
        update = HttpRequest("POST", "https://api.ex.com/statuses/update")
        destroy = HttpRequest("POST", "https://api.ex.com/statuses/destroy/42")
        assert resource_key(destroy) == "api.ex.com/statuses/42"
        assert resource_key(update) == "api.ex.com/statuses"

    def test_identifier_shaped_tokens_survive_stripping(self):
        config = ResourceKeyConfig(strip_tokens=("42", "update"))
        req = HttpRequest("GET", "https://api.ex.com/tasks/42")
        assert resource_key(req, config) == "api.ex.com/tasks/42"

    def test_no_path_yields_host_alone(self):
        req = HttpRequest("GET", "https://api.ex.com/")
        assert resource_key(req) == "api.ex.com"

    def test_relative_uri_rejected(self):
        with pytest.raises(UnparseableUriError):
            HttpRequest("GET", "/tasks/42")

    def test_split_uri_is_kept_out_of_repr(self):
        req = HttpRequest("GET", "https://API.ex.com//tasks/42/?x=1")
        assert req.path_tokens == ("tasks", "42")
        assert req.parts.netloc == "API.ex.com"
        assert "parts" not in repr(req) and "path_tokens" not in repr(req)
        assert resource_key(req) == "api.ex.com/tasks/42"


class TestCrudClass:
    def test_method_mapping(self):
        for method, expected in [
            ("POST", "create"),
            ("GET", "read"),
            ("HEAD", "read"),
            ("PUT", "update"),
            ("PATCH", "update"),
            ("DELETE", "delete"),
            ("OPTIONS", None),
        ]:
            req = HttpRequest(method, "https://a.ex/things/1")
            assert crud_class(req) == expected

    def test_uri_token_overrides_method(self):
        req = HttpRequest("POST", "https://api.twitter.com/statuses/destroy/42")
        assert crud_class(req) == "delete"
        req = HttpRequest("GET", "https://api.twitter.com/statuses/show/42")
        assert crud_class(req) == "read"

    def test_path_shape_folds_identifiers(self):
        req = HttpRequest("GET", "https://a.ex/tasks/42/items/abc")
        assert path_shape(req) == "GET /tasks/{id}/items/abc"


class TestGrouping:
    def txn(self, i, uri):
        return HttpTransaction(
            f"t{i}", i, HttpRequest("GET", uri), HttpResponse(200)
        )

    def test_five_transactions_two_resources(self):
        log = TrafficLog(
            tuple(
                self.txn(i, uri)
                for i, uri in enumerate(
                    [
                        "https://a.ex/x/1",
                        "https://a.ex/x/2",
                        "https://a.ex/x/1",
                        "https://a.ex/x/1",
                        "https://a.ex/x/2",
                    ]
                )
            )
        )
        groups = group_by_resource(log)
        assert sorted(len(v) for v in groups.values()) == [2, 3]

    def test_single_transaction(self):
        log = TrafficLog((self.txn(0, "https://a.ex/x/1"),))
        groups = group_by_resource(log)
        assert len(groups) == 1

    def test_empty_log(self):
        assert group_by_resource(TrafficLog(())) == {}

    def test_partition_covers_log(self, small_synth_log):
        groups = group_by_resource(small_synth_log)
        assert sum(len(v) for v in groups.values()) == len(small_synth_log)
        # within-group order preserves sequence
        for txns in groups.values():
            seqs = [t.sequence for t in txns]
            assert seqs == sorted(seqs)

    def test_grouping_is_deterministic(self, small_synth_log):
        a = group_by_resource(small_synth_log)
        b = group_by_resource(small_synth_log)
        assert list(a) == list(b)
        assert a == b
