import base64
import codecs
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import group_by_resource, har_document, table_row
from mockskel.errors import MalformedInputError, UnparseableUriError
from mockskel.features import ResourceState, extract_table, serve_input_values
from mockskel.traffic import (
    SUPPORTED_METHODS,
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

    def test_a_line_nested_too_deep_is_malformed(self):
        text = line(0) + "\n" + "[" * 5000 + "]" * 5000 + "\n"
        with pytest.raises(MalformedInputError) as exc:
            load_traffic(text.encode(), "jsonl")
        assert exc.value.index == 1
        assert str(exc.value).startswith("line 2: ")

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

    def test_leading_byte_order_mark_is_dropped(self):
        text = line(0) + "\n" + line(1)
        log = load_traffic(codecs.BOM_UTF8 + text.encode(), "jsonl")
        assert log.transactions == load_traffic(text.encode(), "jsonl").transactions

    def test_only_one_byte_order_mark_is_dropped(self):
        with pytest.raises(MalformedInputError) as exc:
            load_traffic(codecs.BOM_UTF8 * 2 + line(0).encode(), "jsonl")
        assert str(exc.value).startswith("line 1: invalid JSON")

    @pytest.mark.parametrize("body", [{"title": "x", "done": True}, ["a"], 7, True])
    def test_body_that_is_not_a_string_is_malformed(self, body):
        obj = json.loads(line(0, method="POST"))
        obj["request"]["body"] = body
        with pytest.raises(MalformedInputError) as exc:
            load_traffic((line(1) + "\n" + json.dumps(obj)).encode(), "jsonl")
        assert exc.value.index == 1
        assert str(exc.value).startswith("line 2: ") and "bodyB64" in str(exc.value)

    def test_null_body_is_no_body(self):
        obj = json.loads(line(0))
        obj["response"]["body"] = None
        assert load_traffic(json.dumps(obj).encode(), "jsonl").transactions[0].response.body is None

    def test_bad_header_item_names_its_line(self):
        obj = json.loads(line(0))
        obj["request"]["headers"] = [["Accept", "a", "b"]]
        with pytest.raises(MalformedInputError) as exc:
            load_traffic((line(1) + "\n" + json.dumps(obj)).encode(), "jsonl")
        assert exc.value.index == 1
        assert str(exc.value).startswith("line 2: ")

    @pytest.mark.parametrize("name, value", [
        ("sequence", 2.7), ("timestamp", 1.9), ("status", 200.9), ("sequence", True),
        ("timestamp", False), ("status", "201"), ("sequence", "3"), ("sequence", None),
    ])
    def test_number_that_is_not_whole_is_malformed(self, name, value):
        obj = json.loads(line(0))
        (obj["response"] if name == "status" else obj)[name] = value
        with pytest.raises(MalformedInputError) as exc:
            load_traffic((line(1) + "\n" + json.dumps(obj)).encode(), "jsonl")
        assert exc.value.index == 1
        assert str(exc.value).startswith(f"line 2: {name} must be a whole number")

    def test_whole_number_written_with_a_fraction_reads_as_an_int(self):
        obj = json.loads(line(0, status=201.0, timestamp=1562061600000.0))
        obj["sequence"] = 4.0
        txn = load_traffic(json.dumps(obj).encode(), "jsonl").transactions[0]
        numbers = (txn.sequence, txn.timestamp, txn.response.status_code)
        assert numbers == (4, 1562061600000, 201)
        assert all(type(n) is int for n in numbers)


class TestLoaderRefusals:
    """Each refusal of the loaders, with its message and, where it has one,
    the zero-based index of the record at fault."""

    @pytest.mark.parametrize("records, message, index", [
        ([line(0), line(1, uri="http://[::1/a")],
         "line 2: cannot parse URI 'http://[::1/a': Invalid IPv6 URL", 1),
        ([line(0), json.dumps({**json.loads(line(1)), "request": {
            "method": "POST", "uri": "https://a.ex/x", "body": "{}", "bodyB64": "e30="}})],
         "line 2: transaction t1: request: both body and bodyB64 present", 1),
        ([line(0), "[1, 2]"], "line 2: expected a JSON object", 1),
        ([line(4), line(5), line(4).replace('"t4"', '"t6"')],
         "duplicate sequence numbers in traffic log", None),
    ], ids=["unparseable-uri", "body-and-bodyB64", "not-an-object", "duplicate-sequence"])
    def test_each_refusal_names_its_record(self, records, message, index):
        with pytest.raises(MalformedInputError) as exc:
            load_traffic("\n".join(records).encode())
        assert str(exc.value) == message
        assert exc.value.index == index

    def test_a_repeated_name_is_not_refused_and_its_last_value_wins(self):
        log = load_traffic(('{"id": "first", ' + line(0)[1:]).encode())
        assert log.transactions[0].id == "t0"

    def test_an_unknown_format_is_refused(self):
        with pytest.raises(ValueError, match=r"^unknown traffic format 'xml' \(expected jsonl or har\)$"):
            load_traffic(line(0).encode(), "xml")

    def test_a_har_time_without_an_offset_is_read_as_utc(self):
        record = {"request": {"method": "GET", "uri": "https://a.ex/x"}, "response": {"status": 200}}
        document = json.loads(har_document([record, record]))
        entries = document["log"]["entries"]
        entries[0]["startedDateTime"] = "2019-07-02T10:00:00.000"
        entries[1]["startedDateTime"] = "2019-07-02T10:00:00.000Z"
        log = load_traffic(json.dumps(document).encode(), "har")
        assert [t.timestamp for t in log.transactions] == [1562061600000] * 2

    def test_an_integer_too_long_to_convert_is_invalid_json(self):
        data = line(0).replace('"sequence": 0', '"sequence": ' + "1" * 5000).encode()
        with pytest.raises(MalformedInputError, match="^line 1: invalid JSON: Exceeds the limit") as exc:
            load_traffic(data)
        assert exc.value.index == 0


class TestRoundTrip:
    def test_body_and_binary_body_round_trip(self):
        req = HttpRequest(
            "POST",
            "https://api.ex.com/tasks",
            headers=[("Content-Type", "application/json"), ("X-Dup", "a"), ("X-Dup", "b")],
            body=b'{"title":"x"}',
        )
        resp = HttpResponse(201, headers=[("Content-Type", "application/json")], body=bytes([0, 255, 1]))
        log = TrafficLog((HttpTransaction("a", 0, req, resp, timestamp=1234),))
        text = dump_jsonl(log)
        obj = json.loads(text)
        assert "bodyB64" in obj["response"]  # not valid UTF-8
        assert obj["request"]["body"] == '{"title":"x"}'
        reloaded = load_traffic(text.encode(), "jsonl")
        assert reloaded.transactions == log.transactions

    def test_round_trip_preserves_all_fields(self, small_synth_log):
        reloaded = load_traffic(dump_jsonl(small_synth_log).encode(), "jsonl")
        assert reloaded.transactions == small_synth_log.transactions

    def test_lone_surrogates_are_escaped_and_round_trip(self):
        req = HttpRequest("GET", "https://a.ex/\udc80", headers=[("X-\ud800", "a\udfff")])
        log = TrafficLog((HttpTransaction("t\ud800", 0, req, HttpResponse(200, [("X", "\ud800")])),))
        data = dump_jsonl(log).encode("utf-8")
        assert b"\\ud800" in data
        assert load_traffic(data, "jsonl").transactions == log.transactions


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

    def test_a_document_nested_too_deep_is_malformed(self):
        data = b'{"log": {"entries": ' + b"[" * 5000 + b"]" * 5000 + b"}}"
        with pytest.raises(MalformedInputError, match="^not a HAR 1.2 document: "):
            load_traffic(data, "har")

    def test_entries_map_in_order(self):
        log = load_traffic(self.har([self.entry(), self.entry(method="POST")]), "har")
        assert [t.sequence for t in log.transactions] == [0, 1]
        assert log.transactions[0].timestamp == 1562061600000
        assert log.transactions[1].request.method == "POST"
        assert log.transactions[0].response.body == b'{"ok":true}'

    def test_started_date_time_keeps_every_millisecond(self):
        # 4249119.145 s times 1000 as a float is 4249119144.999...
        entry = dict(self.entry(), startedDateTime="1970-02-19T04:18:39.145Z")
        assert load_traffic(self.har([entry]), "har").transactions[0].timestamp == 4249119145

    @pytest.mark.parametrize("started", ["yesterday", "2019-13-02T10:00:00Z"])
    def test_unreadable_started_date_time_is_malformed(self, started):
        entry = dict(self.entry(), startedDateTime=started)
        with pytest.raises(MalformedInputError) as exc:
            load_traffic(self.har([self.entry(), entry]), "har")
        assert exc.value.index == 1
        assert str(exc.value).startswith("entry 2: startedDateTime ")

    def test_absent_or_empty_started_date_time_gives_no_timestamp(self):
        absent = self.entry()
        del absent["startedDateTime"]
        empty = dict(self.entry(), startedDateTime="")
        log = load_traffic(self.har([absent, empty]), "har")
        assert [t.timestamp for t in log.transactions] == [None, None]

    def test_entry_without_a_response_is_skipped_with_count(self):
        # browsers record a request that got no response with status 0
        log = load_traffic(self.har([self.entry(status=0), self.entry(method="POST")]), "har")
        assert [(t.id, t.request.method) for t in log.transactions] == [("har-1", "POST")]
        assert log.skipped_methods == 1
        # a native record keeps its rule: status 0 there is an error
        with pytest.raises(MalformedInputError, match="^line 1: status code 0 outside"):
            load_traffic(line(0, status=0).encode(), "jsonl")

    def test_malformed_second_entry_names_entry_index(self):
        bad = {"request": {"method": "GET"}, "response": {}}
        with pytest.raises(MalformedInputError) as exc:
            load_traffic(self.har([self.entry(), bad]), "har")
        assert exc.value.index == 1
        assert str(exc.value).startswith("entry 2: ")

    def test_base64_response_content(self):
        entry = self.entry()
        entry["response"]["content"] = {"text": "AAECww==", "encoding": "base64"}
        log = load_traffic(self.har([entry]), "har")
        assert log.transactions[0].response.body == bytes([0, 1, 2, 0xC3])

    def test_base64_content_outside_the_alphabet_is_malformed(self):
        entry = self.entry()
        entry["response"]["content"] = {"text": "AA!ECww==", "encoding": "base64"}
        with pytest.raises(MalformedInputError) as exc:
            load_traffic(self.har([self.entry(), entry]), "har")
        assert exc.value.index == 1
        assert str(exc.value).startswith("entry 2: ") and "invalid base64 body" in str(exc.value)

    @pytest.mark.parametrize("entries", [5, {"request": {}}, None])
    def test_entries_that_are_not_a_list_are_malformed(self, entries):
        with pytest.raises(MalformedInputError, match="^not a HAR 1.2 document: "):
            load_traffic(json.dumps({"log": {"entries": entries}}).encode(), "har")

    def test_leading_byte_order_mark_is_dropped(self):
        har = self.har([self.entry(), self.entry(method="POST")])
        log = load_traffic(codecs.BOM_UTF8 + har, "har")
        assert log.transactions == load_traffic(har, "har").transactions

    def test_post_data_text_that_is_not_a_string_is_malformed(self):
        entry = self.entry(method="POST")
        entry["request"]["postData"] = {"mimeType": "application/json", "text": {"title": "x"}}
        with pytest.raises(MalformedInputError) as exc:
            load_traffic(self.har([entry]), "har")
        assert exc.value.index == 0
        assert str(exc.value).startswith("entry 1: ") and "bodyB64" in str(exc.value)

    def test_request_body_is_typed_by_its_content_type_header(self):
        entry = self.entry(method="POST")
        entry["request"]["headers"] = [{"name": "Content-Type", "value": "text/plain"}]
        entry["request"]["postData"] = {"mimeType": "application/json", "text": '{"title":"x"}'}
        table, _ = extract_table(load_traffic(self.har([entry, self.entry()]), "har"))
        row = table_row(table, 0)
        assert row["hasPayload"] == "true" and row["hasValidPayload"] == "false"
        assert not any(name.startswith("requestjson:") for name in table.names)


def _headers(content_type):
    names = st.sampled_from(["Accept", "ACCEPT", "x-Trace", "X-TRACE", "Authorization"])
    others = st.lists(st.tuples(names, st.sampled_from(["a", "b", "*/*"])), max_size=3)
    if content_type is None:
        return others
    spelling = st.sampled_from(["Content-Type", "content-type", "CONTENT-TYPE"])
    return st.tuples(spelling, others).map(lambda t: [(t[0], content_type)] + t[1])


_JSON_BODIES = ['{"title":"x"}', '{"title":"y","n":1}', '{"title":"x","tags":["a"]}']


@st.composite
def _records(draw):
    """Native records with HAR-style ids and sequences, and for each the
    ``postData.mimeType`` a HAR entry could carry for its request body."""
    records, mime_types = [], []
    for i in range(draw(st.integers(1, 12))):
        method = draw(st.sampled_from(SUPPORTED_METHODS + ("BREW", "TRACE")))
        uri = f"https://api.ex.test/tasks/{draw(st.integers(0, 3))}" + draw(st.sampled_from(["", "?q=a"]))
        request = {"method": method, "uri": uri}
        if draw(st.booleans()):
            request["body"] = draw(st.sampled_from(_JSON_BODIES + ["plain words", ""]))
        content_type = draw(st.sampled_from([None, "application/json", "text/plain"]))
        request["headers"] = draw(_headers(content_type))
        response = {"status": draw(st.sampled_from([200, 201, 404])),
                    "headers": draw(_headers(draw(st.sampled_from([None, "application/json"]))))}
        kind = draw(st.sampled_from(["none", "text", "base64"]))
        if kind == "text":
            response["body"] = draw(st.sampled_from(_JSON_BODIES))
        elif kind == "base64":
            response["bodyB64"] = base64.b64encode(draw(st.binary(max_size=8))).decode()
        record = {"id": f"har-{i}", "sequence": i, "request": request, "response": response}
        if draw(st.booleans()):
            record["timestamp"] = draw(st.integers(0, 4_102_444_800_000))
        records.append(record)
        mime_types.append(draw(st.sampled_from(["application/json", "text/plain"])))
    return records, mime_types


class TestHarMatchesJsonl:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=_records())
    def test_har_entry_loads_as_its_native_record(self, drawn):
        records, mime_types = drawn
        har = load_traffic(har_document(records, mime_types), "har")
        native = load_traffic("\n".join(json.dumps(r) for r in records).encode(), "jsonl")
        dumped = load_traffic(dump_jsonl(har).encode(), "jsonl")
        table, profile = extract_table(har)
        assert (table, profile) == extract_table(dumped)
        assert har.transactions == native.transactions == dumped.transactions
        assert har.skipped_methods == native.skipped_methods
        # a live request rebuilt from a HAR-loaded one gets its training row
        input_names = [a.name for a in table.inputs()]
        states: dict[str, ResourceState] = {}
        for i, t in enumerate(har.transactions):
            request = HttpRequest(t.request.method, t.request.uri, t.request.headers, t.request.body)
            key = resource_key(request)
            state = states.get(key, ResourceState())
            values, _ = serve_input_values(input_names, request, state)
            row = table_row(table, i)
            assert values == {name: row[name] for name in input_names}
            states[key] = state.after(request.method, t.response.status_code, crud_class(request))


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
