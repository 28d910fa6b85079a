"""Serve synthesized HTTP responses from a mock skeleton.

Each request is converted to the skeleton's input feature vector
(including state features from the folded state of the requested
resource), every predicted target is classified, and
``features.response_from_attributes`` writes the predictions as a
status code, headers and a JSON body.  ``/_mock/*`` control endpoints
expose reset, counters, and the active skeleton text.

``MockServer`` reads HTTP/1.1 itself, a thread per connection, and
writes each answer in one send with Nagle's algorithm off.  One lock per
``MockService`` serializes the answers, which are GIL-bound Python.
"""

from __future__ import annotations

import json
import logging
import re
import socketserver
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from http import HTTPStatus

from .errors import MockskelError
from .features import ResourceState, response_from_attributes, serve_input_values
from .model import classify
from .skeleton import PLACEHOLDER, MockSkeleton
from .traffic import HttpRequest, HttpResponse, crud_class, first_header, path_shape, resource_key

log = logging.getLogger(__name__)

#: most resource states a ServeState holds; past it, the least recently
#: served resource is forgotten
MAX_RESOURCES = 65_536

#: response headers that frame the message: the server writes its own, so
#: recorded ones are not served
FRAMING_HEADERS = frozenset({"content-length", "transfer-encoding", "connection", "keep-alive"})

#: longest request or header line read, its line ending included: a longer
#: request line is answered 414, a longer header line 431
MAX_LINE = 65_536

#: most header lines a request may carry; one more is answered 431
MAX_HEADERS = 100

#: largest request body read; a longer declared length is answered 413
MAX_BODY = 64 * 1024 * 1024

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_TOKEN = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")  # RFC 9110 field name
_ABSOLUTE_FORM = re.compile(r"[A-Za-z][-+.0-9A-Za-z]*://[^/?#]*")  # scheme and authority
_NOT_IN_HOST = re.compile(r"[/?#@\s]")  # would end the authority, or start its userinfo
_JSON = (("Content-Type", "application/json"),)
_TEXT = (("Content-Type", "text/plain; charset=utf-8"),)
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@dataclass
class ServeState:
    """Folded state of each served resource plus counters.

    ``per_resource`` runs from the least to the most recently served
    resource and holds at most ``MAX_RESOURCES`` of them.  A ServeState
    has one user at a time: ``MockService`` serializes its use.
    """

    per_resource: OrderedDict[str, ResourceState] = field(default_factory=OrderedDict)
    requests_served: int = 0
    unmatched_features: int = 0

    def history(self, key: str) -> ResourceState:
        """The folded history of resource ``key``."""
        return self.per_resource.get(key, ResourceState())

    def record(self, key: str, state: ResourceState) -> None:
        """Set the state of resource ``key``, now the most recently served,
        dropping the least recently served resource past the cap."""
        self.per_resource[key] = state
        self.per_resource.move_to_end(key)
        if len(self.per_resource) > MAX_RESOURCES:
            self.per_resource.popitem(last=False)

    def count(self, unmatched: int) -> None:
        """Count one served request that presented ``unmatched`` features."""
        self.requests_served += 1
        self.unmatched_features += unmatched

    def reset(self) -> None:
        """Forget every resource's state; counters are preserved."""
        self.per_resource.clear()


def synthesize_response(
    skeleton: MockSkeleton, request: HttpRequest, state: ServeState
) -> HttpResponse:
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
    if body is not None and first_header(headers, "Content-Type") is None:
        headers.append(("Content-Type", "application/json"))

    state.record(key, resource.after(
        request.method, status, crud_class(request, skeleton.config.resource)
    ))
    return HttpResponse(status, headers, body)


class MockService:
    """Thread-safe skeleton server core (usable without HTTP).

    One lock serializes ``handle``, ``reset`` and ``stats``, so state
    features see one order of requests, and a reset waits for the
    request in flight.  An answer is GIL-bound Python throughout, so
    finer locks would let no two answers run in parallel anyway.
    """

    def __init__(self, skeleton: MockSkeleton, strict: bool = False):
        self.skeleton = skeleton
        self.strict = strict
        self.state = ServeState()
        self._lock = threading.Lock()
        self._shapes = set(skeleton.profile.shapes)

    def handle(self, method: str, uri: str, headers=(), body: bytes | None = None) -> HttpResponse:
        """Answer one request.  Every answer counts as served, each 501 too: for
        an unsupported method, an unparseable URI or, when strict, an unseen shape."""
        with self._lock:
            try:
                request = HttpRequest(method=method, uri=uri, headers=headers, body=body)
            except (ValueError, MockskelError):
                request = None
            if request is None or (
                self.strict and path_shape(request, self.skeleton.config.resource) not in self._shapes
            ):
                self.state.count(0)
                return HttpResponse(501)
            return synthesize_response(self.skeleton, request, self.state)

    def reset(self) -> None:
        """Forget every resource's state once the request in flight is done."""
        with self._lock:
            self.state.reset()

    def stats(self) -> dict:
        with self._lock:
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


def http_date(seconds: float | None = None) -> str:
    """``seconds`` since the epoch, now by default, as an RFC 9110
    IMF-fixdate, spelled in English whatever the locale."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _header_line(name: str, value: str) -> bytes:
    """``name: value`` as latin-1, or as UTF-8 where latin-1 cannot encode
    it; ValueError when it holds CR, LF or NUL, which would end the header
    early, or cannot be encoded at all."""
    line = f"{name}: {value}"
    if "\r" in line or "\n" in line or "\0" in line:
        raise ValueError("it holds CR, LF or NUL")
    try:
        return line.encode("latin-1")
    except UnicodeEncodeError:
        return line.encode("utf-8")


class _Refused(Exception):
    """A request the server answers with ``status`` and then closes on."""

    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


def _request_uri(target: str, host: str) -> tuple[str, str]:
    """The URI a request target names, and its path (RFC 9112 3.2): an
    absolute-form target is the URI, whatever ``host`` says; another is
    a path on ``host``, which is refused with 400 if it cannot be an
    authority."""
    if absolute := _ABSOLUTE_FORM.match(target):
        return target, target[absolute.end():].partition("?")[0]
    if _NOT_IN_HOST.search(host):
        raise _Refused(400)
    if target.startswith("//"):  # not to be read as a scheme-relative URI
        target = "/" + target.lstrip("/")
    return f"http://{host}{target}", target.partition("?")[0]


class MockRequestHandler(socketserver.StreamRequestHandler):
    """One connection: read each request in turn and answer it in one write.

    Nagle's algorithm is off, so no answer waits for the client to
    acknowledge the one before it.
    """

    disable_nagle_algorithm = True
    server: MockServer

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except _Refused as refused:
            log.debug("refused a request with %d", refused.status)
            self._send(HttpResponse(refused.status, (("Connection", "close"),)))

    def _serve_one(self) -> bool:
        """Read one request and answer it; whether the connection stays open."""
        line = self.rfile.readline(MAX_LINE + 1)
        while line in (b"\r\n", b"\n"):  # empty lines before a request: RFC 9112 2.2 skips them
            line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        if len(line) > MAX_LINE:
            raise _Refused(414)
        words = line.decode("latin-1").split()
        match = len(words) == 3 and _VERSION.fullmatch(words[2])
        if not match:
            raise _Refused(400)
        method, target, _ = words
        version = int(match[1]), int(match[2])
        if version >= (2, 0):
            raise _Refused(505)
        headers, lookup = self._read_headers()
        connection = {token.strip().lower() for token in lookup.get("connection", "").split(",")}
        keep_alive = "close" not in connection and (version >= (1, 1) or "keep-alive" in connection)
        # where the body ends is unknown, so the connection cannot be reused:
        # a chunked body is not decoded, and a bad Content-Length is a 400
        if "transfer-encoding" in lookup:
            raise _Refused(411)
        length = _content_length(lookup.get("content-length"))
        if length is None:
            raise _Refused(400)
        if length > MAX_BODY:
            raise _Refused(413)
        host = lookup.get("host", "").rstrip(" \t") or "localhost"  # RFC 9110 5.5: less its OWS
        uri, path = _request_uri(target, host)
        if version >= (1, 1) and lookup.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length) if length else None
        self._answer(method, uri, path, headers, body)
        return keep_alive

    def _read_headers(self) -> tuple[list[tuple[str, str]], dict[str, str]]:
        """The header lines up to the blank one, as (name, value) pairs in
        order, and the first value of each name, by its lower case.  A
        second Host line, or a Content-Length line that differs from the
        first, leaves the request's target or framing ambiguous: a 400
        (RFC 9112 3.2, 6.3)."""
        headers: list[tuple[str, str]] = []
        lookup: dict[str, str] = {}
        while (line := self.rfile.readline(MAX_LINE + 1)) not in (b"\r\n", b"\n", b""):
            if len(line) > MAX_LINE or len(headers) == MAX_HEADERS:
                raise _Refused(431)
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not _TOKEN.fullmatch(name):  # an obs-fold line starts with a space
                raise _Refused(400)
            value = value.lstrip(" \t").rstrip("\r\n")
            headers.append((name, value))
            key = name.lower()
            if key in lookup and (key == "host" or (
                    key == "content-length" and lookup[key].strip() != value.strip())):
                raise _Refused(400)
            lookup.setdefault(key, value)
        return headers, lookup

    def _answer(self, method: str, uri: str, path: str, headers, body: bytes | None) -> None:
        service = self.server.mock_service
        if not path.startswith("/_mock/"):
            response = service.handle(method, uri, headers, body)
            log.info("%s %s -> %d", method, uri, response.status_code)
        elif path == "/_mock/reset" and method == "POST":
            service.reset()
            response = HttpResponse(200, _JSON, b'{"reset":true}')
        elif path == "/_mock/stats" and method == "GET":
            response = HttpResponse(200, _JSON, json.dumps(service.stats()).encode())
        elif path == "/_mock/skeleton" and method == "GET":
            response = HttpResponse(200, _TEXT, self.server.skeleton_bytes)
        else:
            response = HttpResponse(404)
        self._send(response, method == "HEAD")

    def _send(self, response: HttpResponse, head: bool = False) -> None:
        """Write the status line, headers and body in one write, with a
        Date unless the headers have one.  A HEAD answer (``head``) has the
        body's length but no body; a 204 or 304, which ends at its headers,
        has neither.  A header that cannot be written turns the answer
        into a 500 with no body."""
        status, body = response.status_code, response.body
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, '')}".encode()]
        if first_header(response.headers, "Date") is None:
            lines.append(f"Date: {http_date()}".encode())
        for name, value in response.headers:
            try:
                lines.append(_header_line(name, value))
            except ValueError as error:
                log.error("cannot send header %r: %s; answered 500", name, error)
                self._send(HttpResponse(500))
                return
        bodiless = status in (204, 304)
        if not bodiless:
            lines.append(f"Content-Length: {len(body) if body else 0}".encode())
        message = b"\r\n".join(lines) + b"\r\n\r\n"
        if body and not bodiless and not head:
            message += body
        self.wfile.write(message)


class MockServer(socketserver.ThreadingTCPServer):
    """Serves one MockService, a thread per connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: MockService, skeleton_text: str):
        self.mock_service = service
        self.skeleton_bytes = skeleton_text.encode("utf-8")
        super().__init__(address, MockRequestHandler)


def serve_skeleton(
    skeleton: MockSkeleton,
    port: int = 8080,
    strict: bool = False,
    skeleton_text: str = "",
    host: str = "127.0.0.1",
) -> MockServer:
    """Bind a server for a skeleton on ``host``:``port`` (the caller runs
    serve_forever); ``skeleton_text`` is what ``GET /_mock/skeleton``
    serves, the emitted skeleton by default."""
    if not skeleton_text:
        from .skeleton import emit_skeleton

        skeleton_text = emit_skeleton(skeleton)
    return MockServer((host, port), MockService(skeleton, strict=strict), skeleton_text)
