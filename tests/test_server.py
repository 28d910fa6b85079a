import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import mockskel
from mockskel import server as server_module
from mockskel.cli import RunConfig, choose_models, run_pipeline
from mockskel.features import ResourceState
from mockskel.server import MockService, ServeState, serve_skeleton, synthesize_response
from mockskel.skeleton import build_skeleton, emit_skeleton, parse_skeleton
from mockskel.traffic import HttpRequest, resource_key


@pytest.fixture(scope="module")
def skeleton(small_synth_log):
    config = RunConfig(input="x", jobs=1)
    result = run_pipeline(small_synth_log, config)
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
    # serve from the parsed text form, like the CLI does
    return parse_skeleton(emit_skeleton(built))


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

    def test_locks_do_not_grow_with_resources(self, skeleton):
        service = MockService(skeleton)
        locks = service._locks
        for i in range(200):
            service.handle("GET", f"{HOST}/tasks/{10_000 + i}")
        assert service._locks is locks and len(locks) < 200

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
            response = service.handle_request(txn.request)
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
        # a served request only classifies, so `serve` starts without numpy
        # or any training module
        path = tmp_path / "skeleton.txt"
        path.write_text(emit_skeleton(skeleton), encoding="utf-8")
        code = (
            "import sys\n"
            "import mockskel.cli\n"
            "from mockskel.server import MockService\n"
            "from mockskel.skeleton import parse_skeleton\n"
            "service = MockService(parse_skeleton(open(sys.argv[1], encoding='utf-8').read()))\n"
            "service.handle('POST', 'http://localhost/tasks/1', [('Content-Type', 'application/json')],"
            " b'{\"title\": \"x\"}')\n"
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith("
            "('mockskel.evaluation', 'mockskel.prep', 'mockskel.learners.base', 'mockskel.learners.c45'))))\n"
        )
        src = str(Path(mockskel.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestStrictMode:
    def test_unknown_shape_gets_501(self, skeleton):
        service = MockService(skeleton, strict=True)
        assert service.handle("GET", f"{HOST}/never/seen/shape").status_code == 501
        # known shape still served
        assert service.handle("GET", f"{HOST}/tasks/1").status_code == 404

    def test_unsupported_method_gets_501(self, skeleton):
        service = MockService(skeleton)
        assert service.handle("BREW", f"{HOST}/tasks/1").status_code == 501


class TestHttpServer:
    @pytest.fixture()
    def server(self, skeleton):
        srv = serve_skeleton(skeleton, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.server_close()

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
