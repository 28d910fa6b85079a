"""Serve synthesized HTTP responses from a mock skeleton.

Each request is converted to the skeleton's input feature vector
(including state features from the folded state of the requested
resource), every predicted target is classified, and
``features.response_from_attributes`` writes the predictions as a
status code, headers and a JSON body.  ``/_mock/*`` control endpoints
expose reset, counters, and the active skeleton text.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .errors import MockskelError
from .features import ResourceState, response_from_attributes, serve_input_values
from .learners import classify
from .skeleton import PLACEHOLDER, MockSkeleton
from .traffic import HttpRequest, crud_class, path_shape, resource_key

log = logging.getLogger(__name__)

#: number of striped per-resource locks in a MockService
LOCK_STRIPES = 64

#: most resource states a ServeState holds; past it, the least recently
#: served resource is forgotten
MAX_RESOURCES = 65_536

#: response headers that frame the message: the server writes its own, so
#: recorded ones are not served
FRAMING_HEADERS = frozenset({"content-length", "transfer-encoding", "connection", "keep-alive"})


@dataclass
class SynthesizedResponse:
    status_code: int
    headers: tuple[tuple[str, str], ...]
    body: bytes | None


@dataclass
class ServeState:
    """Folded state of each served resource plus counters.

    ``per_resource`` runs from the least to the most recently served
    resource and holds at most ``MAX_RESOURCES`` of them.  ``lock`` guards
    changes to it and the counters, which requests for any resource
    update.
    """

    per_resource: OrderedDict[str, ResourceState] = field(default_factory=OrderedDict)
    requests_served: int = 0
    unmatched_features: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def history(self, key: str) -> ResourceState:
        """The folded history of resource ``key``."""
        return self.per_resource.get(key, ResourceState())

    def record(self, key: str, state: ResourceState) -> None:
        """Set the state of resource ``key``, now the most recently served,
        dropping the least recently served resource past the cap."""
        with self.lock:
            self.per_resource[key] = state
            self.per_resource.move_to_end(key)
            if len(self.per_resource) > MAX_RESOURCES:
                self.per_resource.popitem(last=False)

    def count(self, unmatched: int) -> None:
        """Count one served request that presented ``unmatched`` features."""
        with self.lock:
            self.requests_served += 1
            self.unmatched_features += unmatched

    def reset(self) -> None:
        """Forget every resource's state; counters are preserved."""
        self.per_resource.clear()


def synthesize_response(
    skeleton: MockSkeleton, request: HttpRequest, state: ServeState
) -> SynthesizedResponse:
    """Classify every predicted target for one request and write the response
    they and the unpredicted defaults spell, a prediction overriding a
    default; the served transaction is folded into the state."""
    key = resource_key(request, skeleton.config.resource)
    resource = state.history(key)
    values, unmatched = serve_input_values(
        skeleton.inputs, request, resource, skeleton.config,
        also_known=skeleton.dropped_inputs,
    )
    state.count(unmatched)

    nominals = {u.attribute: u.default for u in skeleton.unpredicted if u.default != PLACEHOLDER}
    nominals.update({name: classify(e.model, values) for name, e in skeleton.targets.items()})
    status, written, body = response_from_attributes(nominals, skeleton.profile.array_paths)
    headers = [(name, value) for name, value in written if name.lower() not in FRAMING_HEADERS]
    if body is not None and not any(name.lower() == "content-type" for name, _ in headers):
        headers.append(("Content-Type", "application/json"))

    state.record(key, resource.after(
        request.method, status, crud_class(request, skeleton.config.resource)
    ))
    return SynthesizedResponse(status_code=status, headers=tuple(headers), body=body)


class MockService:
    """Thread-safe skeleton server core (usable without HTTP).

    States of distinct resources evolve independently; requests for one
    resource are serialized so state features see a consistent ordering.
    A resource's requests take one of a fixed set of striped locks, so
    the locks do not grow with the number of resources.
    """

    def __init__(self, skeleton: MockSkeleton, strict: bool = False):
        self.skeleton = skeleton
        self.strict = strict
        self.state = ServeState()
        self._master = self.state.lock  # guards the counters, reset and stats
        self._locks = tuple(threading.Lock() for _ in range(LOCK_STRIPES))
        self._shapes = set(skeleton.profile.shapes)

    def _lock_for(self, key: str) -> threading.Lock:
        return self._locks[hash(key) % LOCK_STRIPES]

    def handle(
        self,
        method: str,
        uri: str,
        headers=(),
        body: bytes | None = None,
    ) -> SynthesizedResponse:
        try:
            request = HttpRequest(method=method, uri=uri, headers=headers, body=body)
        except (ValueError, MockskelError):
            return SynthesizedResponse(status_code=501, headers=(), body=None)
        if self.strict and path_shape(request, self.skeleton.config.resource) not in self._shapes:
            self.state.count(0)
            return SynthesizedResponse(status_code=501, headers=(), body=None)
        key = resource_key(request, self.skeleton.config.resource)
        with self._lock_for(key):
            return synthesize_response(self.skeleton, request, self.state)

    def reset(self) -> None:
        """Forget every resource's state once the requests in flight are done,
        taking the locks in ``handle``'s order: stripes, then the state lock."""
        with contextlib.ExitStack() as stack:
            for lock in self._locks:
                stack.enter_context(lock)
            with self._master:
                self.state.reset()

    def stats(self) -> dict:
        with self._master:
            return {
                "requests": self.state.requests_served,
                "unmatchedFeatures": self.state.unmatched_features,
                "resources": len(self.state.per_resource),
            }


def _content_length(value: str | None) -> int | None:
    """Body length a request declares: 0 without the header, None when the
    value is not a non-negative decimal integer."""
    if value is None:
        return 0
    value = value.strip()
    return int(value) if value.isascii() and value.isdigit() else None


def make_handler(service: MockService, skeleton_text: str):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # route through logging, not stderr
            log.debug(fmt, *args)

        def _send(self, status: int, headers, body: bytes | None) -> None:
            """Answer a HEAD with the body's length but no body, and a 1xx,
            204 or 304 (which end at their headers) with neither."""
            self.send_response(status)
            for name, value in headers:
                self.send_header(name, value)
            bodiless = status < 200 or status in (204, 304)
            if not bodiless:
                self.send_header("Content-Length", str(len(body) if body else 0))
            self.end_headers()
            if body and not bodiless and self.command != "HEAD":
                self.wfile.write(body)

        def _control(self, path: str) -> None:
            if path == "/_mock/reset" and self.command == "POST":
                service.reset()
                self._send(200, [("Content-Type", "application/json")], b'{"reset":true}')
            elif path == "/_mock/stats" and self.command == "GET":
                payload = json.dumps(service.stats()).encode()
                self._send(200, [("Content-Type", "application/json")], payload)
            elif path == "/_mock/skeleton" and self.command == "GET":
                self._send(
                    200,
                    [("Content-Type", "text/plain; charset=utf-8")],
                    skeleton_text.encode("utf-8"),
                )
            else:
                self._send(404, [], None)

        def _handle(self) -> None:
            # where the body ends is unknown, so the connection cannot be reused:
            # a chunked body is not decoded, and a bad Content-Length is a 400
            if "Transfer-Encoding" in self.headers:
                self._send(411, [("Connection", "close")], None)
                return
            length = _content_length(self.headers.get("Content-Length"))
            if length is None:
                self._send(400, [("Connection", "close")], None)
                return
            body = self.rfile.read(length) if length else None
            path = self.path.partition("?")[0]
            if path.startswith("/_mock/"):
                self._control(path)
                return
            host = self.headers.get("Host") or "localhost"
            uri = f"http://{host}{self.path}"
            response = service.handle(
                self.command, uri, list(self.headers.items()), body
            )
            log.info("%s %s -> %d", self.command, self.path, response.status_code)
            self._send(response.status_code, response.headers, response.body)

        do_GET = do_HEAD = do_POST = do_PUT = do_PATCH = do_DELETE = do_OPTIONS = _handle

    return Handler


def serve_skeleton(
    skeleton: MockSkeleton,
    port: int = 8080,
    strict: bool = False,
    skeleton_text: str = "",
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for a skeleton (caller runs serve_forever)."""
    service = MockService(skeleton, strict=strict)
    if not skeleton_text:
        from .skeleton import emit_skeleton

        skeleton_text = emit_skeleton(skeleton)
    handler = make_handler(service, skeleton_text)
    server = ThreadingHTTPServer(("127.0.0.1", port), handler)
    server.mock_service = service  # type: ignore[attr-defined]
    return server
