import contextlib
import http.client
import json
import os
import re
import socket
import string
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mockskel
from mockskel import server as server_module
from mockskel.cli import RunConfig, choose_models, run_pipeline
from mockskel.features import ExtractionProfile, ResourceState, response_feature_map
from mockskel.model import Leaf
from mockskel.server import (
    MockServer,
    MockService,
    ServeState,
    http_date,
    serve_skeleton,
    synthesize_response,
)
from mockskel.skeleton import (
    MockSkeleton,
    TargetEntry,
    UnpredictedTarget,
    build_skeleton,
    emit_skeleton,
    parse_skeleton,
)
from mockskel.traffic import (
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    TrafficLog,
    resource_key,
)


def trained_skeleton(log, **run_settings):
    """The skeleton ``train`` writes for ``log``, parsed back from its text
    like the CLI does."""
    config = RunConfig(input="x", jobs=1, **run_settings)
    result = run_pipeline(log, config)
    chosen = choose_models(result, config.learners)
    removed = {r.attribute for r in result.removals}
    built = build_skeleton(
        service_name="tasks",
        seed=1,
        inputs=tuple(a.name for a in result.table.inputs() if a.name not in removed),
        chosen=chosen,
        removals=result.removals,
        config=config.extraction_config(),
        profile=result.profile,
    )
    return parse_skeleton(emit_skeleton(built))


@pytest.fixture(scope="module")
def skeleton(small_synth_log):
    return trained_skeleton(small_synth_log)


HOST = "https://tasks.example.test"


def post_body():
    return [("Content-Type", "application/json")], b'{"title": "x"}'


class TestSynthesis:
    def test_get_on_never_created_resource_is_404(self, skeleton):
        service = MockService(skeleton)
        response = service.handle("GET", f"{HOST}/tasks/5001")
        assert response.status_code == 404

    def test_create_then_get_is_200_with_body_keys(self, skeleton):
        service = MockService(skeleton)
        headers, body = post_body()
        created = service.handle("POST", f"{HOST}/tasks/77", headers, body)
        assert created.status_code == 201
        read = service.handle("GET", f"{HOST}/tasks/77")
        assert read.status_code == 200
        payload = json.loads(read.body)
        assert payload.get("ok") is True

    def test_full_lifecycle(self, skeleton):
        service = MockService(skeleton)
        headers, body = post_body()
        assert service.handle("PATCH", f"{HOST}/tasks/9", headers, body).status_code == 404
        assert service.handle("POST", f"{HOST}/tasks/9", headers, body).status_code == 201
        assert service.handle("PATCH", f"{HOST}/tasks/9", headers, body).status_code == 200
        bad = service.handle("PATCH", f"{HOST}/tasks/9", headers, b"{broken")
        assert bad.status_code == 400
        assert service.handle("DELETE", f"{HOST}/tasks/9").status_code == 204

    def test_deeper_uri_still_answered_and_counted(self, skeleton):
        service = MockService(skeleton)
        response = service.handle("GET", f"{HOST}/tasks/1/very/deep/path/here")
        assert 100 <= response.status_code <= 599
        assert service.stats()["unmatchedFeatures"] > 0

    def test_in_distribution_request_counts_no_unmatched(self, skeleton):
        # inputs dropped as constants (e.g. uriPathToken0) are known, not noise
        service = MockService(skeleton)
        service.handle("GET", f"{HOST}/tasks/1")
        assert service.stats()["unmatchedFeatures"] == 0

    def test_deterministic_sequences(self, skeleton):
        outputs = []
        for _ in range(2):
            service = MockService(skeleton)
            headers, body = post_body()
            sequence = [
                service.handle("GET", f"{HOST}/tasks/1"),
                service.handle("POST", f"{HOST}/tasks/1", headers, body),
                service.handle("GET", f"{HOST}/tasks/1"),
                service.handle("DELETE", f"{HOST}/tasks/1"),
            ]
            outputs.append([(r.status_code, r.body) for r in sequence])
        assert outputs[0] == outputs[1]

    def test_state_isolation_between_resources(self, skeleton):
        service = MockService(skeleton)
        headers, body = post_body()
        service.handle("POST", f"{HOST}/tasks/1", headers, body)
        # resource 2 never saw the create
        assert service.handle("GET", f"{HOST}/tasks/2").status_code == 404
        assert service.handle("GET", f"{HOST}/tasks/1").status_code == 200

    def test_resource_state_keeps_constant_size(self, skeleton):
        service = MockService(skeleton)
        headers, body = post_body()
        service.handle("POST", f"{HOST}/tasks/3", headers, body)
        sizes = []
        for _ in range(4):
            last = service.handle("GET", f"{HOST}/tasks/3")
            (state,) = service.state.per_resource.values()
            sizes.append(len(state))
        assert sizes == [len(ResourceState())] * 4
        assert state.prev_method == "GET"
        assert state.prev_status == last.status_code == 200
        assert state.crud_seen == {"create", "read"}

    def test_one_lock_whatever_the_resources(self, skeleton, monkeypatch):
        made = []

        def lock():
            made.append(threading.Lock())
            return made[-1]

        monkeypatch.setattr(server_module, "threading", SimpleNamespace(Lock=lock))
        service = MockService(skeleton)
        for i in range(200):
            service.handle("GET", f"{HOST}/tasks/{10_000 + i}")
        service.reset()
        service.stats()
        assert len(made) == 1

    def test_one_resource_key_per_request(self, skeleton, monkeypatch):
        keys = []

        def counted(*args, **kwargs):
            keys.append(resource_key(*args, **kwargs))
            return keys[-1]

        monkeypatch.setattr(server_module, "resource_key", counted)
        service = MockService(skeleton)
        headers, body = post_body()
        service.handle("POST", f"{HOST}/tasks/11", headers, body)
        service.handle("GET", f"{HOST}/tasks/11")
        service.handle("GET", f"{HOST}/tasks/12")
        config = skeleton.config.resource
        assert keys == [resource_key(HttpRequest("GET", f"{HOST}/tasks/{i}"), config) for i in (11, 11, 12)]

    def test_state_holds_the_most_recently_served_resources(self, skeleton, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_RESOURCES", 4)
        service = MockService(skeleton)
        uris = [f"{HOST}/tasks/{20_000 + i}" for i in range(6)]
        keys = [resource_key(HttpRequest("GET", uri), skeleton.config.resource) for uri in uris]
        for uri in uris[:4]:
            service.handle("GET", uri)
        service.handle("GET", uris[0])  # served again, so now the most recent
        for uri in uris[4:]:
            service.handle("GET", uri)
        state = service.state
        assert list(state.per_resource) == [keys[3], keys[0], keys[4], keys[5]]
        assert all(len(h) == len(ResourceState()) for h in state.per_resource.values())
        assert state.history(keys[1]) == state.history(keys[2]) == ResourceState()
        assert state.history(keys[0]).prev_method == "GET"
        assert service.stats()["resources"] == 4

    def test_cap_holds_under_concurrent_new_resources(self, skeleton, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_RESOURCES", 16)
        service = MockService(skeleton)
        threads, per_thread = 8, 40

        def hit(worker):
            for i in range(per_thread):
                service.handle("GET", f"{HOST}/tasks/{30_000 + worker * 1000 + i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hit, args=(w,)) for w in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(service.state.per_resource) == 16
        assert service.stats()["requests"] == threads * per_thread


class TestReset:
    def test_reset_forgets_history(self, skeleton):
        service = MockService(skeleton)
        headers, body = post_body()
        service.handle("POST", f"{HOST}/tasks/4", headers, body)
        assert service.handle("GET", f"{HOST}/tasks/4").status_code == 200
        service.reset()
        assert service.handle("GET", f"{HOST}/tasks/4").status_code == 404

    def test_reset_on_fresh_service_is_noop(self, skeleton):
        service = MockService(skeleton)
        service.reset()
        assert service.handle("GET", f"{HOST}/tasks/4").status_code == 404

    def test_create_reset_get_equals_plain_get(self, skeleton):
        headers, body = post_body()
        service = MockService(skeleton)
        service.handle("POST", f"{HOST}/tasks/8", headers, body)
        service.reset()
        after_reset = service.handle("GET", f"{HOST}/tasks/8")
        plain = MockService(skeleton).handle("GET", f"{HOST}/tasks/8")
        assert after_reset.status_code == plain.status_code
        assert after_reset.body == plain.body

    def test_reset_preserves_counters(self, skeleton):
        service = MockService(skeleton)
        service.handle("GET", f"{HOST}/tasks/4")
        before = service.stats()["requests"]
        service.reset()
        assert service.stats()["requests"] == before

    def test_reset_waits_for_a_request_in_flight(self, skeleton, monkeypatch):
        service = MockService(skeleton)
        headers, body = post_body()
        assert service.handle("POST", f"{HOST}/tasks/7", headers, body).status_code == 201
        entered, release = threading.Event(), threading.Event()
        real = server_module.serve_input_values

        def held(*args, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_module, "serve_input_values", held)
        get = threading.Thread(target=service.handle, args=("GET", f"{HOST}/tasks/7"))
        get.start()
        assert entered.wait(timeout=10)
        reset = threading.Thread(target=service.reset)
        reset.start()
        reset.join(timeout=0.2)
        assert reset.is_alive()  # the GET still holds the mock's lock
        release.set()
        get.join(timeout=10)
        reset.join(timeout=10)
        assert not get.is_alive() and not reset.is_alive()
        assert service.handle("GET", f"{HOST}/tasks/7").status_code == 404


class _YieldingCounterState(ServeState):
    """Serve state whose request counter yields the thread between reading
    and storing a new value, so unguarded increments lose updates."""

    @property
    def requests_served(self) -> int:
        return self._served

    @requests_served.setter
    def requests_served(self, value: int) -> None:
        time.sleep(0.0005)
        self._served = value


class TestCounters:
    def test_every_501_is_counted(self, skeleton):
        service = MockService(skeleton)
        assert service.handle("BREW", f"{HOST}/tasks/1").status_code == 501
        assert service.handle("GET", "relative/x").status_code == 501
        assert service.stats()["requests"] == 2
        strict = MockService(skeleton, strict=True)
        assert strict.handle("GET", f"{HOST}/unseen/shape").status_code == 501
        assert strict.stats() == {"requests": 1, "unmatchedFeatures": 0, "resources": 0}

    def test_concurrent_requests_on_distinct_resources_all_counted(self, skeleton, monkeypatch):
        monkeypatch.setattr(server_module, "ServeState", _YieldingCounterState)
        service = MockService(skeleton)
        threads, per_thread = 8, 40

        def hit(worker):
            for i in range(per_thread):
                service.handle("GET", f"{HOST}/tasks/{worker * 1000 + i % 5}")

        workers = [threading.Thread(target=hit, args=(w,)) for w in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        assert service.stats()["requests"] == threads * per_thread


class TestReplayFidelity:
    def test_training_log_replays_with_recorded_statuses(self, skeleton, small_synth_log):
        service = MockService(skeleton)
        matches = 0
        for txn in small_synth_log.transactions:
            r = txn.request
            response = service.handle(r.method, r.uri, r.headers, r.body)
            matches += response.status_code == txn.response.status_code
        assert matches / len(small_synth_log) >= 0.97


class TestSynthesizeResponseApi:
    def test_state_threaded_explicitly(self, skeleton):
        state = ServeState()
        headers, body = post_body()
        first = synthesize_response(
            skeleton, HttpRequest("POST", f"{HOST}/tasks/6", headers, body), state
        )
        second = synthesize_response(skeleton, HttpRequest("GET", f"{HOST}/tasks/6"), state)
        assert (first.status_code, second.status_code) == (201, 200)
        assert state.requests_served == 2


class TestStartup:
    def test_serving_imports_no_training_module(self, skeleton, tmp_path):
        # a served request only classifies with the model forms of
        # `mockskel.model`, so `serve` starts without numpy, the learners or
        # any other training module
        path = tmp_path / "skeleton.txt"
        path.write_text(emit_skeleton(skeleton), encoding="utf-8")
        code = (
            "import sys\n"
            "import mockskel.cli\n"
            "from mockskel import LearnerParams, PrepConfig\n"
            "from mockskel.server import MockService\n"
            "from mockskel.skeleton import parse_skeleton\n"
            "service = MockService(parse_skeleton(open(sys.argv[1], encoding='utf-8').read()))\n"
            "service.handle('POST', 'http://localhost/tasks/1', [('Content-Type', 'application/json')],"
            " b'{\"title\": \"x\"}')\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith("
            "('mockskel.evaluation', 'mockskel.prep', 'mockskel.learners'))))\n"
        )
        src = str(Path(mockskel.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_serving_over_http_imports_no_http_server_email_or_process_pool(self, skeleton, tmp_path):
        path = tmp_path / "skeleton.txt"
        path.write_text(emit_skeleton(skeleton), encoding="utf-8")
        code = (
            "import socket, sys, threading\n"
            "import mockskel.cli\n"
            "from mockskel.server import serve_skeleton\n"
            "from mockskel.skeleton import parse_skeleton\n"
            "server = serve_skeleton(parse_skeleton(open(sys.argv[1], encoding='utf-8').read()), port=0)\n"
            "threading.Thread(target=server.serve_forever, daemon=True).start()\n"
            "with socket.create_connection(server.server_address, timeout=10) as sock:\n"
            "    sock.sendall(b'GET /tasks/1 HTTP/1.1\\r\\nHost: x\\r\\nConnection: close\\r\\n\\r\\n')\n"
            "    answer = b''\n"
            "    while chunk := sock.recv(4096):\n"
            "        answer += chunk\n"
            "server.shutdown()\n"
            "server.server_close()\n"
            "print(answer.split(b' ')[1].decode(), sorted(m for m in sys.modules if m in "
            "('http.server', 'http.client', 'email', 'concurrent.futures.process', 'multiprocessing')))\n"
        )
        src = str(Path(mockskel.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "404 []"


#: a recording's framing headers, trained to unary defaults
FRAMED = MockSkeleton(
    service_name="s",
    seed=1,
    inputs=("method",),
    targets={},
    unpredicted=(
        UnpredictedTarget("statusCode", "unary", "200"),
        UnpredictedTarget("responseheader:Content-Length", "unary", "20"),
        UnpredictedTarget("responseheader:transfer-encoding", "unary", "chunked"),
        UnpredictedTarget("responseheader:Connection", "unary", "keep-alive"),
        UnpredictedTarget("responseheader:KEEP-ALIVE", "unary", "timeout=5"),
        UnpredictedTarget("responseheader:X-Kept", "unary", "yes"),
        UnpredictedTarget("responsejson:ok", "unary", "true"),
    ),
)


class TestFramingHeaders:
    def test_recorded_framing_headers_are_not_served(self):
        response = MockService(FRAMED).handle("GET", f"{HOST}/items/1")
        assert response.headers == (("X-Kept", "yes"), ("Content-Type", "application/json"))
        assert response.body == b'{"ok":true}'


#: an RFC 8259 literal; a recorded string that spells one is served as its value
JSON_LITERAL = re.compile(r"null|true|false|-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")
#: strings that Python's int() or float() reads as numbers, but JSON does not
NOT_JSON_NUMBERS = ["007", " 1", "NaN", "Infinity", "1_000"]

_strings = st.sampled_from(NOT_JSON_NUMBERS) | st.text(max_size=8).filter(
    lambda text: not JSON_LITERAL.fullmatch(text)
)
_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | _strings
)
_leaves = _scalars | st.lists(_scalars, min_size=1, max_size=1)
_keys = st.text(string.ascii_letters + string.digits, min_size=1, max_size=3)


def _objects(depth: int):
    values = _leaves if depth == 1 else _leaves | _objects(depth - 1)
    return st.dictionaries(_keys, values, min_size=1, max_size=4)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def served_json(body: bytes):
    """A served body read as strict JSON, which has no NaN or Infinity."""
    return json.loads(body, parse_constant=reject_constant)


class TestResponseRoundTrip:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(status=st.integers(100, 599), header=st.text(max_size=8), body=_objects(3))
    @example(status=200, header="x", body={"0": "007", "a": {"b": [" 1"]}, "c": "NaN",
                                           "d": "Infinity", "e": "1_000"})
    def test_recorded_response_is_served_back(self, status, header, body):
        recorded = HttpResponse(status, (("X-Recorded", header),), json.dumps(body).encode())
        found: set[str] = set()
        attributes = response_feature_map(recorded, arrays=found)
        mock = MockSkeleton(
            service_name="s",
            seed=1,
            inputs=("method",),
            targets={},
            unpredicted=tuple(UnpredictedTarget(n, "unary", v) for n, v in attributes.items()),
            profile=ExtractionProfile(array_paths=tuple(sorted(found))),
        )
        served = MockService(mock).handle("GET", f"{HOST}/items/1")
        assert served.status_code == (status if status >= 200 else 200)  # a 1xx is interim
        assert dict(served.headers)["X-Recorded"] == header
        assert served_json(served.body) == body

    def test_strings_stay_strings_unless_they_spell_a_json_literal(self):
        def transaction(i: int) -> HttpTransaction:
            method = "GET" if i % 2 else "POST"
            body = {"code": "007" if i % 2 else "008", "v": "NaN", "n": "1_000",
                    "seven": "7", "yes": "true", "id": i % 2}
            return HttpTransaction(
                id=f"t{i}",
                sequence=i,
                request=HttpRequest(method, f"{HOST}/items/{i}"),
                response=HttpResponse(200 if i % 2 else 201,
                                      (("Content-Type", "application/json"),),
                                      json.dumps(body).encode()),
            )

        log = TrafficLog(tuple(transaction(i) for i in range(60)))
        mock = trained_skeleton(log, learners=("c45",))
        assert {"responsejson:code", "responsejson:id"} <= set(mock.targets)
        served = MockService(mock).handle("GET", f"{HOST}/items/1001")
        assert served.status_code == 200
        # "7" and "true" spell JSON literals, so they come back as those values
        assert served_json(served.body) == {"code": "007", "v": "NaN", "n": "1_000",
                                            "seven": 7, "yes": True, "id": 1}

    def test_a_prediction_overrides_an_unpredicted_default(self):
        mock = MockSkeleton(
            service_name="s",
            seed=1,
            inputs=("method",),
            targets={
                "responseheader:X-Gone": TargetEntry(Leaf("no-exist")),
                "responsejson:b": TargetEntry(Leaf("2")),
            },
            unpredicted=(
                UnpredictedTarget("responseheader:X-Gone", "unary", "a"),
                UnpredictedTarget("responsejson:b", "unary", "1"),
                UnpredictedTarget("responsejson:c", "unary", "3"),
            ),
        )
        served = MockService(mock).handle("GET", f"{HOST}/items/1")
        assert served.headers == (("Content-Type", "application/json"),)
        assert served.body == b'{"b":2,"c":3}'


class TestStrictMode:
    def test_unknown_shape_gets_501(self, skeleton):
        service = MockService(skeleton, strict=True)
        assert service.handle("GET", f"{HOST}/never/seen/shape").status_code == 501
        # known shape still served
        assert service.handle("GET", f"{HOST}/tasks/1").status_code == 404

    def test_unsupported_method_gets_501(self, skeleton):
        service = MockService(skeleton)
        assert service.handle("BREW", f"{HOST}/tasks/1").status_code == 501


@contextlib.contextmanager
def running(skeleton):
    srv = serve_skeleton(skeleton, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()


class TestHttpServer:
    @pytest.fixture()
    def server(self, skeleton):
        with running(skeleton) as srv:
            yield srv

    def request(self, server, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
        conn.close()
        return response, data

    def test_lifecycle_over_http(self, server):
        response, _ = self.request(server, "GET", "/tasks/123")
        assert response.status == 404
        response, _ = self.request(
            server, "POST", "/tasks/123", body=b'{"title": "x"}',
            headers={"Content-Type": "application/json"},
        )
        assert response.status == 201
        response, data = self.request(server, "GET", "/tasks/123")
        assert response.status == 200
        assert json.loads(data)["ok"] is True

    def test_control_endpoints(self, server):
        self.request(server, "GET", "/tasks/55")
        response, data = self.request(server, "GET", "/_mock/stats")
        assert response.status == 200
        stats = json.loads(data)
        assert stats["requests"] >= 1
        response, data = self.request(server, "POST", "/_mock/reset")
        assert json.loads(data) == {"reset": True}
        response, data = self.request(server, "GET", "/_mock/skeleton")
        assert response.status == 200
        assert b"target statusCode" in data

    def test_unknown_control_endpoint_404(self, server):
        response, _ = self.request(server, "GET", "/_mock/nope")
        assert response.status == 404

    def test_control_route_ignores_query(self, server):
        response, data = self.request(server, "GET", "/_mock/stats?x=1")
        assert response.status == 200
        assert "requests" in json.loads(data)

    def raw_exchange(self, server, request: bytes) -> bytes:
        """Send raw bytes; everything the server writes before it closes."""
        with socket.create_connection(("127.0.0.1", server.server_address[1]), timeout=5) as sock:
            sock.sendall(request)
            received = b""
            while chunk := sock.recv(4096):
                received += chunk
        return received

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_gets_400_and_close(self, server, length):
        received = self.raw_exchange(
            server,
            f"POST /tasks/1 HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n{{}}".encode(),
        )
        assert received.startswith(b"HTTP/1.1 400 ")

    def test_head_sends_length_without_body(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
        try:
            conn.request("HEAD", "/tasks/31")
            head = conn.getresponse()
            assert head.read() == b""
            # a stray body would be read as the start of this answer
            conn.request("GET", "/tasks/31")
            get = conn.getresponse()
            body = get.read()
            assert head.status == get.status == 404
            assert json.loads(body)["ok"] is False
            assert head.getheader("Content-Length") == str(len(body))
        finally:
            conn.close()

    def test_204_has_no_body_and_no_length(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=5)
        try:
            headers, body = post_body()
            conn.request("POST", "/tasks/32", body=body, headers=dict(headers))
            assert conn.getresponse().read()
            conn.request("DELETE", "/tasks/32")
            response = conn.getresponse()
            assert response.status == 204
            assert response.getheader("Content-Length") is None
            assert response.read() == b""
            conn.request("GET", "/_mock/stats")
            assert conn.getresponse().status == 200
        finally:
            conn.close()

    def test_304_ends_at_its_headers(self):
        # a 304 with a unary JSON field: its body would be read as the next answer
        skeleton = MockSkeleton(
            service_name="s",
            seed=1,
            inputs=("method",),
            targets={},
            unpredicted=(
                UnpredictedTarget("statusCode", "unary", "304"),
                UnpredictedTarget("responsejson:ok", "unary", "true"),
            ),
        )
        get = b"GET /a HTTP/1.1\r\nHost: x\r\n"
        with running(skeleton) as srv:
            received = self.raw_exchange(srv, get + b"\r\n" + get + b"Connection: close\r\n\r\n")
        *heads, tail = received.split(b"\r\n\r\n")
        assert tail == b""
        assert [head.split(b"\r\n")[0] for head in heads] == [b"HTTP/1.1 304 Not Modified"] * 2
        assert not any(b"Content-Length" in head for head in heads)

    def test_one_content_length_equal_to_the_body(self):
        with running(FRAMED) as srv:
            received = self.raw_exchange(
                srv, b"GET /items/1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
        head, body = received.split(b"\r\n\r\n", 1)
        lengths = [line for line in head.split(b"\r\n") if line.lower().startswith(b"content-length:")]
        assert lengths == [b"Content-Length: %d" % len(body)]
        assert body == b'{"ok":true}'

    def test_chunked_request_gets_411_and_close(self, server):
        received = self.raw_exchange(
            server,
            b"POST /tasks/33 HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"5\r\n{\"a\":\r\n0\r\n\r\n"
            b"GET /tasks/33 HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        assert received.startswith(b"HTTP/1.1 411 ")
        assert received.count(b"HTTP/1.1 ") == 1


def read_responses(data: bytes) -> list[tuple[int, dict[str, str]]]:
    """The (status, headers) of each response in a stream of them, none an
    answer to a HEAD; fails unless every one is framed whole."""
    out = []
    while data:
        head, blank, data = data.partition(b"\r\n\r\n")
        assert blank, "a response ends before its blank line"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        match = re.fullmatch(r"HTTP/1\.1 ([0-9]{3}) [^\r\n]*", status_line)
        assert match, status_line
        status = int(match[1])
        fields = dict(line.split(": ", 1) for line in lines)
        if status >= 200 and status not in (204, 304):
            length = int(fields["Content-Length"])
            assert len(data) >= length, "a body ends early"
            data = data[length:]
        out.append((status, fields))
    return out


def read_until_closed(sock: socket.socket) -> bytes:
    received = b""
    while chunk := sock.recv(65536):
        received += chunk
    return received


class _CountingSocket(socket.socket):
    """An accepted socket that counts the sends it makes."""

    sends = 0

    def send(self, *args):
        self.sends += 1
        return super().send(*args)

    def sendall(self, *args):
        self.sends += 1
        return super().sendall(*args)


class _CountingServer(MockServer):
    """A MockServer whose accepted sockets count their sends."""

    def __init__(self, *args):
        super().__init__(*args)
        self.accepted: list[_CountingSocket] = []

    def get_request(self):
        sock, address = super().get_request()
        counting = _CountingSocket(fileno=sock.detach())
        self.accepted.append(counting)
        return counting, address


@contextlib.contextmanager
def counting_server(skeleton, skeleton_text="skeleton text"):
    srv = _CountingServer(("127.0.0.1", 0), MockService(skeleton), skeleton_text)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)


def exchange_over_socketpair(skeleton, *pieces: bytes) -> bytes:
    """What the server writes for a request stream the client sends over a
    socket pair in ``pieces``, each read and answered before the next is
    sent, and then shuts its side of; with no server and no thread."""
    server = SimpleNamespace(mock_service=MockService(skeleton), skeleton_bytes=b"text")
    connection = server_module._Connection(server)
    client, served = socket.socketpair()
    with client, served:
        client.settimeout(5)
        served.settimeout(5)
        for piece in pieces:
            if connection.closing:
                break
            client.sendall(piece)
            unread = len(piece)
            while unread:  # read whole, as unread bytes would reset the pair when it closes
                data = served.recv(unread)
                unread -= len(data)
                if not connection.closing:
                    served.sendall(connection.received(data))
        client.shutdown(socket.SHUT_WR)
        while not connection.closing:
            served.sendall(connection.received(served.recv(65536)))
        served.close()
        return read_until_closed(client)


_REQUEST_LINES = [
    b"GET /tasks/1 HTTP/1.1\r\n", b"POST /tasks/2 HTTP/1.1\r\n", b"DELETE /tasks/2 HTTP/1.0\r\n",
    b"PUT //tasks//3?x=1 HTTP/1.1\r\n", b"BREW /pot HTTP/1.1\r\n", b"GET /_mock/stats HTTP/1.1\r\n",
    b"POST /_mock/reset HTTP/1.1\r\n", b"GET /_mock/skeleton?x HTTP/1.1\r\n", b"GET * HTTP/1.1\r\n",
    b"GET http://h/x HTTP/1.1\r\n", b"GET /tasks/1 HTTP/2.0\r\n", b"GET /tasks/1 HTTP/1\r\n",
    b"GET /tasks/1\r\n", b"GET / HTTP/1.1 extra\r\n",
]
_HEADER_LINES = [
    b"Host: x\r\n", b"Host: [::1\r\n", b"Content-Type: application/json\r\n",
    b"Content-Length: 3\r\n", b"Content-Length: -1\r\n",
    b"Content-Length: 99999999999999999999999\r\n", b"Transfer-Encoding: chunked\r\n",
    b"Expect: 100-continue\r\n", b"Connection: close\r\n", b"Connection: keep-alive\r\n",
    b" folded\r\n", b"NoColon\r\n", b"Bad Name: x\r\n", b"\r\n", b"\n",
]
_request_bytes = st.lists(
    st.sampled_from(_REQUEST_LINES) | st.sampled_from(_HEADER_LINES)
    | st.just(b'{"title": "x"}') | st.binary(max_size=40),
    max_size=12,
).map(b"".join)


class TestHttpReader:
    """The server's own HTTP/1.1 reader and writer, over raw sockets."""

    def test_one_send_per_response(self, skeleton):
        with counting_server(skeleton) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=5)
            try:
                exchanges = [
                    ("POST", "/tasks/41", b'{"title": "x"}', 201),
                    ("GET", "/tasks/41", None, 200),
                    ("HEAD", "/tasks/41", None, 200),
                    ("DELETE", "/tasks/41", None, 204),
                    ("GET", "/_mock/stats", None, 200),
                    ("GET", "/_mock/skeleton", None, 200),
                    ("POST", "/_mock/reset", None, 200),
                    ("GET", "/_mock/nope", None, 404),
                ]
                for count, (method, path, body, status) in enumerate(exchanges, 1):
                    headers = {"Content-Type": "application/json"} if body else {}
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == status
                    (sock,) = srv.accepted
                    assert sock.sends == count, (method, path)
            finally:
                conn.close()

    def test_nagle_is_off_and_a_large_body_arrives_whole(self, skeleton):
        text = emit_skeleton(skeleton) + "# padding\n" * 1000
        assert len(text.encode()) > 8192
        with counting_server(skeleton, text) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=5)
            try:
                conn.request("GET", "/_mock/skeleton")
                response = conn.getresponse()
                assert response.read() == text.encode()
                (sock,) = srv.accepted
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                assert sock.sends == 1
            finally:
                conn.close()

    def test_expect_100_continue_is_answered_before_the_body_is_sent(self, skeleton):
        with running(skeleton) as srv:
            with socket.create_connection(srv.server_address, timeout=5) as sock:
                body = b'{"title": "x"}'
                sock.sendall(b"POST /tasks/42 HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                             b"Content-Type: application/json\r\nConnection: close\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body))
                interim = b"HTTP/1.1 100 Continue\r\n\r\n"
                received = b""
                while len(received) < len(interim):
                    received += sock.recv(len(interim) - len(received))
                assert received == interim
                sock.sendall(body)
                assert [status for status, _ in read_responses(read_until_closed(sock))] == [201]

    def test_http_1_0_without_keep_alive_closes_after_the_answer(self, skeleton):
        with running(skeleton) as srv:
            with socket.create_connection(srv.server_address, timeout=5) as sock:
                sock.sendall(b"GET /tasks/43 HTTP/1.0\r\n\r\n")
                (answer,) = read_responses(read_until_closed(sock))
        assert answer[0] == 404

    def test_pipelined_requests_are_answered_in_order(self, skeleton):
        post = (b"POST /tasks/44 HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 14\r\n\r\n{\"title\": \"x\"}")
        get = b"GET /tasks/44 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        with running(skeleton) as srv:
            with socket.create_connection(srv.server_address, timeout=5) as sock:
                sock.sendall(post + get)
                answers = read_responses(read_until_closed(sock))
        assert [status for status, _ in answers] == [201, 200]

    @pytest.mark.parametrize("request_bytes, status", [
        (b"GET /" + b"a" * 65_532, 414),
        (b"GET / HTTP/1.1\r\nX: " + b"a" * 65_534, 431),
        (b"GET / HTTP/1.1\r\n" + b"X: a\r\n" * 101 + b"\r\n", 431),
    ], ids=["request-line", "header-line", "header-count"])
    def test_limits_close_the_connection(self, skeleton, request_bytes, status):
        with running(skeleton) as srv:
            with socket.create_connection(srv.server_address, timeout=5) as sock:
                sock.sendall(request_bytes)  # no more than the limit, so none is left unread
                answers = read_responses(read_until_closed(sock))
        assert answers == [(status, answers[0][1])]
        assert answers[0][1]["Connection"] == "close"

    def test_a_content_length_too_long_to_convert_gets_413_and_close(self, skeleton):
        # the request after the refused one is never read
        request = (b"POST /tasks/1 HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n"
                   b"GET / HTTP/1.1\r\n\r\n")
        (answer,) = read_responses(exchange_over_socketpair(skeleton, request))
        assert answer[0] == 413 and answer[1]["Connection"] == "close"

    def test_leading_zeros_do_not_count_as_digits(self, skeleton):
        request = (b"POST /tasks/1 HTTP/1.1\r\nContent-Type: application/json\r\n"
                   b"Content-Length: " + b"0" * 5000 + b"14\r\nConnection: close\r\n\r\n"
                   b'{"title": "x"}')
        answers = read_responses(exchange_over_socketpair(skeleton, request))
        assert [status for status, _ in answers] == [201]

    def test_a_hundred_headers_are_read(self, skeleton):
        request = b"GET /tasks/45 HTTP/1.1\r\n" + b"X: a\r\n" * 99 + b"Connection: close\r\n\r\n"
        answers = read_responses(exchange_over_socketpair(skeleton, request))
        assert [status for status, _ in answers] == [404]

    @pytest.mark.parametrize("request_bytes", [
        b"GET /\r\n", b"GET / HTTP/1.1\r\nX: a\r\n folded\r\n\r\n",
        b"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", b"GET / HTTP/x.y\r\n\r\n",
        b"GET /tasks/1 HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
        (b"POST /tasks/1 HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 2\r\n"
         b"Content-Length: 14\r\n\r\n{\"title\": \"x\"}"),
        b"GET foo HTTP/1.1\r\n\r\n", b"GET @evil.example/x HTTP/1.1\r\n\r\n",
        b"GET .evil.example/x HTTP/1.1\r\n\r\n", b"OPTIONS * HTTP/1.1\r\n\r\n",
    ], ids=["http-0.9", "obs-fold", "space-in-name", "bad-version", "two-hosts",
            "two-content-lengths", "bare-word-target", "userinfo-target", "host-suffix-target",
            "asterisk-form"])
    def test_malformed_requests_get_400_and_close(self, skeleton, request_bytes):
        # the request after the refused one is never read
        request_bytes += b"GET / HTTP/1.1\r\n\r\n"
        (answer,) = read_responses(exchange_over_socketpair(skeleton, request_bytes))
        assert answer[0] == 400 and answer[1]["Connection"] == "close"

    def test_equal_content_lengths_frame_one_body(self, skeleton):
        request = (b"POST /tasks/46 HTTP/1.1\r\nContent-Type: application/json\r\n"
                   b"Content-Length: 14\r\nContent-Length: 14\r\n\r\n{\"title\": \"x\"}"
                   b"GET /tasks/46 HTTP/1.1\r\nConnection: close\r\n\r\n")
        answers = read_responses(exchange_over_socketpair(skeleton, request))
        assert [status for status, _ in answers] == [201, 200]

    def test_http_2_gets_505(self, skeleton):
        (answer,) = read_responses(exchange_over_socketpair(skeleton, b"GET / HTTP/2.0\r\n\r\n"))
        assert answer[0] == 505 and answer[1]["Connection"] == "close"

    def test_an_absolute_form_target_is_the_uri_and_host_is_ignored(self, skeleton):
        def without_date(received):
            return re.sub(rb"\r\nDate: [^\r]*", b"", received)

        requests = [(b"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"
                     b"Content-Length: 14\r\n\r\n{\"title\": \"x\"}"),
                    b"GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", b"GET %s HTTP/1.1\r\nHost: %s\r\n\r\n"]
        targets = [b"/tasks/7", b"/tasks/7", b"/tasks/8"]
        origin = b"".join(r % (t, b"tasks.example.test") for r, t in zip(requests, targets))
        absolute = b"".join(r % (b"http://tasks.example.test" + t, b"other.example.test")
                            for r, t in zip(requests, targets))
        received = exchange_over_socketpair(skeleton, origin)
        assert [status for status, _ in read_responses(received)] == [201, 200, 404]
        assert without_date(exchange_over_socketpair(skeleton, absolute)) == without_date(received)
        # the control endpoints are matched on the URI's path
        (answer,) = read_responses(exchange_over_socketpair(
            skeleton, b"GET http://tasks.example.test/_mock/stats?x HTTP/1.1\r\n\r\n"))
        assert answer[0] == 200 and answer[1]["Content-Type"] == "application/json"

    @pytest.mark.parametrize("host", [b"a?b", b"a/b", b"a#b", b"u@a", b"a b", b"a\tb"])
    def test_a_host_that_cannot_be_an_authority_gets_400_and_close(self, skeleton, host):
        request = b"POST /tasks/7 HTTP/1.1\r\nHost: %s\r\n\r\nGET /tasks/8 HTTP/1.1\r\n\r\n" % host
        (answer,) = read_responses(exchange_over_socketpair(skeleton, request))
        assert answer[0] == 400 and answer[1]["Connection"] == "close"

    def test_whitespace_after_the_host_is_not_part_of_it(self, skeleton):
        request = b"GET /tasks/8 HTTP/1.1\r\nHost: tasks.example.test \t\r\n\r\n"
        (answer,) = read_responses(exchange_over_socketpair(skeleton, request))
        assert answer[0] == 404

    def test_recorded_server_and_date_headers_are_served_once(self):
        date = "Tue, 15 Nov 1994 08:12:31 GMT"
        skeleton = MockSkeleton(
            service_name="s",
            seed=1,
            inputs=("method",),
            targets={},
            unpredicted=(
                UnpredictedTarget("statusCode", "unary", "200"),
                UnpredictedTarget("responseheader:Server", "unary", "nginx"),
                UnpredictedTarget("responseheader:Date", "unary", date),
            ),
        )
        received = exchange_over_socketpair(skeleton, b"GET /a HTTP/1.1\r\nHost: x\r\n\r\n")
        head = received.split(b"\r\n\r\n")[0].decode().split("\r\n")
        names = [line.split(":")[0].lower() for line in head[1:]]
        assert sorted(names) == ["content-length", "date", "server"]
        assert f"Date: {date}" in head and "Server: nginx" in head
        # without a recorded Date, the server adds its own, and no Server
        (answer,) = read_responses(exchange_over_socketpair(FRAMED, b"GET /a HTTP/1.1\r\n\r\n"))
        assert "Server" not in answer[1]
        assert re.fullmatch(r"[A-Z][a-z]{2}, [0-9]{2} [A-Z][a-z]{2} [0-9]{4} [0-9:]{8} GMT",
                            answer[1]["Date"])

    def test_http_date_is_an_imf_fixdate(self):
        assert http_date(784887151) == "Tue, 15 Nov 1994 08:12:31 GMT"
        assert http_date(0) == "Thu, 01 Jan 1970 00:00:00 GMT"

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(request=_request_bytes)
    @example(request=b"\r\n\n")
    @example(request=b"POST /tasks/1 HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n")
    def test_any_bytes_get_answers_or_a_refusal_that_closes(self, skeleton, request):
        answers = read_responses(exchange_over_socketpair(skeleton, request))
        finals = [(status, fields) for status, fields in answers if status >= 200]
        if re.match(rb"(\r?\n)*", request).end() < len(request):
            assert finals, "a request went unanswered"
        for i, (status, fields) in enumerate(finals):
            if fields.get("Connection") == "close":
                assert 400 <= status <= 599 and i == len(finals) - 1


def without_dates(received: bytes) -> bytes:
    return re.sub(rb"\r\nDate: [^\r]*", b"", received)


class TestCutOffRequests:
    """A request the end of the stream cuts off is refused, not answered as
    if it were complete (RFC 9112 8), and where the bytes are cut on their
    way changes no answer."""

    @pytest.mark.parametrize("request_bytes", [
        b"POST /items/1 HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 14\r\n\r\n"
        b'{"ti',
        b"GET /items/1 HTTP/1.1\r\nHost: x",
        b"GET /items/1 HTTP/1.1",
    ], ids=["short-body", "no-blank-line", "bare-request-line"])
    def test_a_request_cut_off_gets_400_and_leaves_the_state(self, skeleton, request_bytes):
        (answer,) = read_responses(exchange_over_socketpair(skeleton, request_bytes))
        assert answer[0] == 400 and answer[1]["Connection"] == "close"
        with running(skeleton) as srv:
            with socket.create_connection(srv.server_address, timeout=5) as sock:
                sock.sendall(request_bytes)
                sock.shutdown(socket.SHUT_WR)
                assert [status for status, _ in read_responses(read_until_closed(sock))] == [400]
            assert srv.mock_service.stats() == {"requests": 0, "unmatchedFeatures": 0,
                                                "resources": 0}

    def test_empty_lines_alone_get_no_answer(self, skeleton):
        assert exchange_over_socketpair(skeleton, b"\r\n\n\r\n") == b""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(request=_request_bytes, data=st.data())
    @example(request=b"GET /tasks/1 HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n{}}",
             data=None)
    def test_answers_do_not_depend_on_how_the_bytes_arrive(self, skeleton, request, data):
        if data is None:
            cuts = list(range(len(request) + 1))  # a byte at a time
        else:
            cuts = sorted(data.draw(st.lists(st.integers(0, len(request)), max_size=8)))
        pieces = [request[a:b] for a, b in zip([0, *cuts], [*cuts, len(request)])]
        whole = exchange_over_socketpair(skeleton, request)
        assert without_dates(exchange_over_socketpair(skeleton, *pieces)) == without_dates(whole)


class TestRequestLineWhitespace:
    """Only SP, HTAB, VT, FF and bare CR separate a request line's words
    (RFC 9112 3); other whitespace is not a separator, and the line is
    refused."""

    @pytest.mark.parametrize("space", ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0"])
    @pytest.mark.parametrize("line", ["GET{}/tasks/1 HTTP/1.1", "GET /tasks/1{}HTTP/1.1",
                                      "GET /tasks/1{} HTTP/1.1"])
    def test_other_whitespace_gets_400_and_close(self, skeleton, space, line):
        request = line.format(space).encode("latin-1") + b"\r\n\r\nGET / HTTP/1.1\r\n\r\n"
        (answer,) = read_responses(exchange_over_socketpair(skeleton, request))
        assert answer[0] == 400 and answer[1]["Connection"] == "close"

    def test_the_separators_rfc_9112_allows(self, skeleton):
        request = b" GET\t/tasks/1\x0b\x0c HTTP/1.1\r \r\nConnection: close\r\n\r\n"
        assert [status for status, _ in read_responses(exchange_over_socketpair(skeleton, request))] == [404]


class TestOneThread:
    """Every connection is served from the thread that runs serve_forever."""

    GET = b"GET /tasks/1 HTTP/1.1\r\nHost: x\r\n\r\n"

    def test_half_a_request_does_not_delay_another_connection(self, skeleton):
        with running(skeleton) as srv:
            with socket.create_connection(srv.server_address, timeout=5) as slow, \
                    socket.create_connection(srv.server_address, timeout=5) as quick:
                slow.sendall(self.GET[:20])
                time.sleep(0.05)
                quick.sendall(self.GET.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"))
                assert [status for status, _ in read_responses(read_until_closed(quick))] == [404]
                slow.sendall(self.GET[20:-2] + b"Connection: close\r\n\r\n")
                assert [status for status, _ in read_responses(read_until_closed(slow))] == [404]

    def test_five_hundred_requests_sent_at_once_are_answered_in_order(self, skeleton):
        post = (b"POST /tasks/%d HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: 14\r\n\r\n{\"title\": \"x\"}")
        get = b"GET /tasks/%d HTTP/1.1\r\nHost: x\r\n\r\n"
        requests = b"".join(post % i + get % i for i in range(60_000, 60_250))
        with running(skeleton) as srv:
            with socket.create_connection(srv.server_address, timeout=10) as sock:
                sock.sendall(requests + b"GET /tasks/1 HTTP/1.1\r\nConnection: close\r\n\r\n")
                answers = read_responses(read_until_closed(sock))
        assert [status for status, _ in answers] == [201, 200] * 250 + [404]

    def test_two_connections_start_no_thread(self, skeleton):
        with running(skeleton) as srv:
            threads = threading.active_count()
            with socket.create_connection(srv.server_address, timeout=5) as one, \
                    socket.create_connection(srv.server_address, timeout=5) as two:
                for _ in range(3):
                    for sock in (one, two):
                        sock.sendall(self.GET)
                        assert sock.recv(65536).startswith(b"HTTP/1.1 404 ")
                        assert threading.active_count() == threads

    def test_an_answer_the_socket_cannot_take_at_once_arrives_whole(self, skeleton):
        text = "x" * 2_000_000 + "\n"
        get = b"GET /_mock/skeleton HTTP/1.1\r\nHost: x\r\n\r\n"
        with counting_server(skeleton, text) as srv:
            with socket.create_connection(srv.server_address, timeout=10) as sock:
                sock.sendall(get * 2 + get.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"))
                time.sleep(0.1)  # the server fills the socket's buffers before anything is read
                received = read_until_closed(sock)
            (accepted,) = srv.accepted
            assert accepted.sends > 1
        assert [status for status, _ in read_responses(received)] == [200] * 3
        assert received.count(text.encode()) == 3

    def test_a_connection_that_fails_is_closed_and_the_others_are_served(self, skeleton,
                                                                           monkeypatch, caplog):
        with running(skeleton) as srv:
            def fail(*args):
                raise RuntimeError("boom")

            monkeypatch.setattr(srv.mock_service, "handle", fail)
            with caplog.at_level("ERROR", logger="mockskel.server"):
                with socket.create_connection(srv.server_address, timeout=5) as sock:
                    sock.sendall(self.GET)
                    assert read_until_closed(sock) == b""
            assert "boom" in caplog.text
            monkeypatch.undo()
            with socket.create_connection(srv.server_address, timeout=5) as sock:
                sock.sendall(self.GET.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"))
                assert [status for status, _ in read_responses(read_until_closed(sock))] == [404]

    def test_a_stopped_server_closes_its_connections(self, skeleton):
        srv = serve_skeleton(skeleton, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        with socket.create_connection(srv.server_address, timeout=5) as sock:
            sock.sendall(self.GET)
            assert sock.recv(65536).startswith(b"HTTP/1.1 404 ")
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert sock.recv(65536) == b""
            with contextlib.suppress(ConnectionError):
                sock.sendall(self.GET)
                assert sock.recv(65536) == b""


def one_header_skeleton(name: str, value: str) -> MockSkeleton:
    """A skeleton that answers every request 200 with one unary header."""
    return MockSkeleton(
        service_name="s",
        seed=1,
        inputs=("method",),
        targets={},
        unpredicted=(
            UnpredictedTarget("statusCode", "unary", "200"),
            UnpredictedTarget(f"responseheader:{name}", "unary", value),
        ),
    )


class TestDeeplyNestedBody:
    """A request body nested too deep to decode is answered like any body
    that is not valid JSON."""

    DEEP = b"[" * 3000 + b"]" * 3000
    JSON_TYPE = [("Content-Type", "application/json")]

    def test_the_service_answers_and_counts_it(self, skeleton):
        service = MockService(skeleton)
        answer = service.handle("POST", f"{HOST}/tasks/1", self.JSON_TYPE, self.DEEP)
        assert service.stats()["requests"] == 1
        invalid = MockService(skeleton).handle("POST", f"{HOST}/tasks/1", self.JSON_TYPE, b"[")
        assert answer == invalid

    def test_it_is_answered_over_http(self, skeleton):
        request = (b"POST /tasks/1 HTTP/1.1\r\nContent-Type: application/json\r\n"
                   b"Content-Length: 6000\r\n\r\n" + self.DEEP
                   + b"GET /_mock/stats HTTP/1.1\r\n\r\n")
        received = exchange_over_socketpair(skeleton, request)
        (answered, _), (stats, _) = read_responses(received)
        invalid = MockService(skeleton).handle("POST", f"{HOST}/tasks/1", self.JSON_TYPE, b"[")
        assert (answered, stats) == (invalid.status_code, 200)
        assert json.loads(received.rpartition(b"\r\n\r\n")[2])["requests"] == 1


class TestIntegerTooLongToConvert:
    """An integer with more digits than ``int()`` converts: in a request
    body it is a body that is not valid JSON, and as a served value it is
    a JSON string."""

    BODY = b'{"a": ' + b"1" * 5000 + b"}"
    JSON_TYPE = [("Content-Type", "application/json")]

    def test_the_service_answers_and_counts_it(self, skeleton):
        service = MockService(skeleton)
        answer = service.handle("POST", f"{HOST}/tasks/1", self.JSON_TYPE, self.BODY)
        assert service.stats()["requests"] == 1
        invalid = MockService(skeleton).handle("POST", f"{HOST}/tasks/1", self.JSON_TYPE, b"[")
        assert answer == invalid

    def test_it_is_answered_over_http(self, skeleton):
        request = (b"POST /tasks/1 HTTP/1.1\r\nContent-Type: application/json\r\n"
                   b"Content-Length: %d\r\n\r\n" % len(self.BODY) + self.BODY
                   + b"GET /_mock/stats HTTP/1.1\r\n\r\n")
        received = exchange_over_socketpair(skeleton, request)
        (answered, _), (stats, _) = read_responses(received)
        invalid = MockService(skeleton).handle("POST", f"{HOST}/tasks/1", self.JSON_TYPE, b"[")
        assert (answered, stats) == (invalid.status_code, 200)
        assert json.loads(received.rpartition(b"\r\n\r\n")[2])["requests"] == 1

    def test_a_served_default_that_spells_one_is_a_json_string(self):
        digits = "1" * 5000
        skeleton = MockSkeleton(
            service_name="s", seed=1, inputs=("method",), targets={},
            unpredicted=(UnpredictedTarget("statusCode", "unary", "200"),
                         UnpredictedTarget("responsejson:n", "unary", digits)),
        )
        answer = MockService(skeleton).handle("GET", f"{HOST}/a")
        assert (answer.status_code, json.loads(answer.body)) == (200, {"n": digits})
        received = exchange_over_socketpair(skeleton, b"GET /a HTTP/1.1\r\n\r\n")
        assert [status for status, _ in read_responses(received)] == [200]
        assert json.loads(received.partition(b"\r\n\r\n")[2]) == {"n": digits}


class TestServedHeaderBytes:
    """Served header names and values that latin-1 cannot encode, that
    would end their header line early, or names that are not tokens."""

    def test_a_value_outside_latin_1_is_sent_as_utf_8(self):
        skeleton = one_header_skeleton("X-Price", "5 €")
        received = exchange_over_socketpair(skeleton, b"GET /a HTTP/1.1\r\n\r\n")
        assert b"\r\nX-Price: 5 \xe2\x82\xac\r\n" in received
        # a latin-1 value keeps its one byte per character
        received = exchange_over_socketpair(one_header_skeleton("X-Price", "5 £"),
                                            b"GET /a HTTP/1.1\r\n\r\n")
        assert b"\r\nX-Price: 5 \xa3\r\n" in received

    @pytest.mark.parametrize("name, value", [
        ("X-Note", "a\r\nSet-Cookie: s=1"), ("X-Note", "a\nb"), ("X-Note", "a\rb"),
        ("X-Note", "a\0b"), ("X-Note\r\nSet-Cookie", "s=1"), ("X-Note", "\ud800"),
        ("A B", "v"), ("X:Y", "w"), ("", "e"),
    ], ids=["crlf-value", "lf-value", "cr-value", "nul-value", "crlf-name", "lone-surrogate",
            "space-in-name", "colon-in-name", "empty-name"])
    def test_a_header_that_cannot_be_written_gets_500_and_no_body(self, name, value, caplog):
        request = b"GET /a HTTP/1.1\r\n\r\nGET /_mock/stats HTTP/1.1\r\n\r\n"
        with caplog.at_level("ERROR", logger="mockskel.server"):
            received = exchange_over_socketpair(one_header_skeleton(name, value), request)
        assert b"Set-Cookie" not in received and b"\0" not in received
        (failed, _), (stats, _) = read_responses(received)  # the connection stays usable
        assert (failed, stats) == (500, 200)
        assert received.startswith(b"HTTP/1.1 500 ")
        assert b"\r\nContent-Length: 0\r\n\r\n" in received
        assert repr(name) in caplog.text


class TestServedStatus:
    """A hand-edited ``statusCode`` is served only when it is a final status
    code, from 200 to 599; anything else, a 1xx included, is served as 200."""

    @staticmethod
    def status_skeleton(value: str) -> MockSkeleton:
        return MockSkeleton(service_name="s", seed=1, inputs=("method",), targets={},
                            unpredicted=(UnpredictedTarget("statusCode", "unary", value),))

    @pytest.mark.parametrize("value, served", [
        ("100", 200), ("101", 200), ("199", 200), ("201", 201), ("599", 599), ("1000", 200),
        ("42", 200), ("-5", 200), ("099", 200), ("2_00", 200), ("600", 200), (" 201", 200),
        ("２０１", 200),
    ])
    def test_only_a_status_code_from_100_to_599_is_served(self, value, served, caplog):
        skeleton = self.status_skeleton(value)
        with caplog.at_level("WARNING", logger="mockskel.features"):
            answer = MockService(skeleton).handle("GET", "http://localhost/a", [], None)
        assert answer.status_code == served
        assert (repr(value) in caplog.text) == (served == 200)
        received = exchange_over_socketpair(skeleton, b"GET /a HTTP/1.1\r\n\r\n")
        assert received.startswith(f"HTTP/1.1 {served} ".encode())
        assert [status for status, _ in read_responses(received)] == [served]

    def test_a_served_100_reaches_http_client_as_200(self):
        with running(self.status_skeleton("100")) as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=5)
            try:
                conn.request("GET", "/a")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            finally:
                conn.close()
