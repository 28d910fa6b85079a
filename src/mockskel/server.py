"""Serve synthesized HTTP responses from a mock skeleton.

Each request is converted to the skeleton's input feature vector
(including state features from the folded state of the requested
resource), every predicted target is classified, and
``features.response_from_attributes`` writes the predictions as a
status code, headers and a JSON body.  ``/_mock/*`` control endpoints
expose reset, counters, and the active skeleton text.

``MockServer`` reads HTTP/1.1 itself and serves every connection from
one thread, through one ``selectors`` loop: a pure function reads each
request from the bytes a connection has sent so far, and each answer is
written in one send with Nagle's algorithm off.  One thread means no two
connections hand the GIL back and forth; answers are GIL-bound Python,
so more threads would run none of them in parallel.  ``MockService``
keeps its one lock for callers that answer from threads of their own.
"""

from __future__ import annotations

import json
import logging
import re
import selectors
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import NamedTuple

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
#: a request line less its LF: three words that SP, HTAB, VT, FF or bare CR
#: separate (RFC 9112 3), the last an HTTP version; a word holds no whitespace
_REQUEST_LINE = re.compile(
    r"[ \t\v\f\r]*(\S+)[ \t\v\f\r]+(\S+)[ \t\v\f\r]+HTTP/([0-9]{1,10})\.([0-9]{1,10})[ \t\v\f\r]*")
_EMPTY_LINES = re.compile(rb"(?:\r?\n)*")
_BLANK_LINE = re.compile(rb"\n\r?\n")  # the end of a line, then an empty line
_RECV_SIZE = 65_536  # most bytes read from a connection at a time
_POLL_S = 0.5  # longest wait of the serving loop before it looks for a shutdown
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
    value is not a non-negative decimal integer, ``MAX_BODY + 1`` when it
    has more digits than ``MAX_BODY``, leading zeros aside."""
    if value is None:
        return 0
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    digits = value.lstrip("0")  # int() refuses a number with very many digits
    return int(digits or "0") if len(digits) <= len(str(MAX_BODY)) else MAX_BODY + 1


def http_date(seconds: float | None = None) -> str:
    """``seconds`` since the epoch, now by default, as an RFC 9110
    IMF-fixdate, spelled in English whatever the locale."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _header_line(name: str, value: str) -> bytes:
    """``name: value`` as latin-1, or as UTF-8 where latin-1 cannot encode
    it; ValueError when ``name`` is not an RFC 9110 token, which a client
    would read as another name, when the line holds CR, LF or NUL, which
    would end the header early, or when it cannot be encoded at all."""
    if not _TOKEN.fullmatch(name):
        raise ValueError("its name is not an RFC 9110 token")
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
    absolute-form target is the URI, whatever ``host`` says; an
    origin-form one, which starts with ``/``, is a path on ``host``.  Any
    other target (``*`` too: no request is answered for the whole
    server), or a ``host`` that cannot be an authority, is refused with
    400."""
    if absolute := _ABSOLUTE_FORM.match(target):
        return target, target[absolute.end():].partition("?")[0]
    if not target.startswith("/") or _NOT_IN_HOST.search(host):
        raise _Refused(400)
    if target.startswith("//"):  # not to be read as a scheme-relative URI
        target = "/" + target.lstrip("/")
    return f"http://{host}{target}", target.partition("?")[0]


class _Head(NamedTuple):
    """A request line and its header lines, read: what they ask for, the
    body length they declare, and ``end``, where their blank line ends."""

    method: str
    uri: str
    path: str
    headers: list[tuple[str, str]]
    length: int
    keep_alive: bool
    expects_continue: bool
    end: int


def _read_head(data: bytearray, start: int) -> _Head | None:
    """The request whose request line starts at ``data[start]``, or None
    until its blank line has arrived.  Each line is checked as soon as it
    has arrived, in order, so where the bytes were cut never changes the
    answer.  The words of the request line are separated by SP, HTAB, VT,
    FF or bare CR (RFC 9112 3); other whitespace makes it malformed."""
    end = data.find(b"\n", start, start + MAX_LINE)
    if end < 0:
        if len(data) - start > MAX_LINE:
            raise _Refused(414)
        return None
    match = _REQUEST_LINE.fullmatch(data[start:end].decode("latin-1"))
    if not match:
        raise _Refused(400)
    method, target, major, minor = match.groups()
    version = int(major), int(minor)
    if version >= (2, 0):
        raise _Refused(505)
    read = _read_headers(data, end + 1)
    if read is None:
        return None
    headers, lookup, end = read
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
    expects_continue = version >= (1, 1) and lookup.get("expect", "").lower() == "100-continue"
    return _Head(method, uri, path, headers, length, keep_alive, expects_continue, end)


def _read_headers(
    data: bytearray, start: int
) -> tuple[list[tuple[str, str]], dict[str, str], int] | None:
    """The header lines from ``data[start]`` up to the blank one, as (name,
    value) pairs in order, the first value of each name, by its lower
    case, and where the blank line ends; None until it has arrived.  A
    second Host line, or a Content-Length line that differs from the
    first, leaves the request's target or framing ambiguous: a 400
    (RFC 9112 3.2, 6.3)."""
    headers: list[tuple[str, str]] = []
    lookup: dict[str, str] = {}
    blank = _BLANK_LINE.search(data, start - 1)  # start - 1 ends the request line
    *lines, partial = data[start:blank.start() + 1 if blank else len(data)].decode("latin-1").split("\n")
    for line in lines:
        if len(line) >= MAX_LINE or len(headers) == MAX_HEADERS:
            raise _Refused(431)
        name, colon, value = line.partition(":")
        if not colon or not _TOKEN.fullmatch(name):  # an obs-fold line starts with a space
            raise _Refused(400)
        value = value.lstrip(" \t").rstrip("\r")
        headers.append((name, value))
        key = name.lower()
        if key in lookup and (key == "host" or (
                key == "content-length" and lookup[key].strip() != value.strip())):
            raise _Refused(400)
        lookup.setdefault(key, value)
    if blank:
        return headers, lookup, blank.end()
    if len(partial) > MAX_LINE:
        raise _Refused(431)
    return None


def _response_bytes(response: HttpResponse, head: bool = False) -> bytes:
    """The status line, headers and body of an answer, with a Date unless
    the headers have one.  A HEAD answer (``head``) has the body's length
    but no body; a 204 or 304, which ends at its headers, has neither.  A
    header that cannot be written turns the answer into a 500 with no
    body."""
    status, body = response.status_code, response.body
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, '')}".encode()]
    if first_header(response.headers, "Date") is None:
        lines.append(f"Date: {http_date()}".encode())
    for name, value in response.headers:
        try:
            lines.append(_header_line(name, value))
        except ValueError as error:
            log.error("cannot send header %r: %s; answered 500", name, error)
            return _response_bytes(HttpResponse(500))
    bodiless = status in (204, 304)
    if not bodiless:
        lines.append(f"Content-Length: {len(body) if body else 0}".encode())
    message = b"\r\n".join(lines) + b"\r\n\r\n"
    if body and not bodiless and not head:
        message += body
    return message


class _Connection:
    """One client connection: the bytes it sent that no answer has used, the
    head of a request whose body is still arriving, and the answer bytes
    its socket has not taken yet.  ``closing`` is set once the
    connection is to close after those bytes."""

    __slots__ = ("server", "inbox", "head", "outbox", "closing")

    def __init__(self, server: MockServer):
        self.server = server
        self.inbox = bytearray()
        self.head: _Head | None = None
        self.outbox = b""
        self.closing = False

    def received(self, data: bytes) -> bytes:
        """The answers to every request ``data`` completes, ``b""`` being
        the end of the stream.  Bytes the end of the stream cuts off from a
        request are refused with 400 (RFC 9112 8), and a refusal ends the
        connection."""
        inbox = self.inbox
        inbox += data
        answers: list[bytes] = []
        start = 0
        try:
            while not self.closing:
                head = self.head
                if head is None:
                    start = _EMPTY_LINES.match(inbox, start).end()  # RFC 9112 2.2 skips them
                    if start == len(inbox):
                        self.closing = not data
                        break
                    head = _read_head(inbox, start)
                    if head is None:
                        if not data:
                            raise _Refused(400)
                        break
                    if head.expects_continue:
                        answers.append(b"HTTP/1.1 100 Continue\r\n\r\n")
                    self.head, start = head, head.end
                end = start + head.length
                if end > len(inbox):
                    if not data:
                        raise _Refused(400)
                    break
                body = bytes(inbox[start:end]) if head.length else None
                self.head, start = None, end
                answers.append(self._answer(head, body))
                self.closing = not head.keep_alive
        except _Refused as refused:
            log.debug("refused a request with %d", refused.status)
            answers.append(_response_bytes(HttpResponse(refused.status, (("Connection", "close"),))))
            self.closing = True
        del inbox[:start]
        return b"".join(answers)

    def _answer(self, head: _Head, body: bytes | None) -> bytes:
        service, method, path = self.server.mock_service, head.method, head.path
        if not path.startswith("/_mock/"):
            response = service.handle(method, head.uri, head.headers, body)
            log.info("%s %s -> %d", method, head.uri, response.status_code)
        elif path == "/_mock/reset" and method == "POST":
            service.reset()
            response = HttpResponse(200, _JSON, b'{"reset":true}')
        elif path == "/_mock/stats" and method == "GET":
            response = HttpResponse(200, _JSON, json.dumps(service.stats()).encode())
        elif path == "/_mock/skeleton" and method == "GET":
            response = HttpResponse(200, _TEXT, self.server.skeleton_bytes)
        else:
            response = HttpResponse(404)
        return _response_bytes(response, method == "HEAD")


class MockServer:
    """Serves one MockService from the thread that runs ``serve_forever``:
    one ``selectors`` loop accepts connections, and reads, answers and
    writes each of them in turn.

    An answer goes out in one send, with Nagle's algorithm off, so no
    answer waits for the client to acknowledge the one before it.  What
    the socket does not take is sent when it is writable again, and the
    connection is not read until then.
    """

    def __init__(self, address: tuple[str, int], service: MockService, skeleton_text: str):
        self.mock_service = service
        self.skeleton_bytes = skeleton_text.encode("utf-8")
        self.socket = socket.create_server(address)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._stopping = False
        self._stopped = threading.Event()

    def serve_forever(self) -> None:
        """Serve until ``shutdown``, which is looked for at least every
        ``_POLL_S`` seconds."""
        try:
            while not self._stopping:
                for key, events in self._selector.select(_POLL_S):
                    sock, connection = key.fileobj, key.data
                    if connection is None:
                        self._accept()
                        continue
                    try:
                        if events & selectors.EVENT_WRITE:
                            self._flush(sock, connection, waiting=True)
                        else:
                            self._read(sock, connection)
                    except Exception:  # one connection's fault must not stop the others
                        log.exception("closed a connection after an unexpected error")
                        self._close(sock)
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Make ``serve_forever``, running in another thread, return, and
        wait until it has."""
        self._stopping = True
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listening socket and every open connection."""
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()

    def get_request(self) -> tuple[socket.socket, tuple]:
        """Accept one connection: its socket and the client's address."""
        return self.socket.accept()

    def _accept(self) -> None:
        try:
            sock, _ = self.get_request()
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # the client gave up first, or no descriptor is left
            return
        self._selector.register(sock, selectors.EVENT_READ, _Connection(self))

    def _read(self, sock: socket.socket, connection: _Connection) -> None:
        try:
            data = sock.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:  # reset by the client
            self._close(sock)
            return
        connection.outbox = connection.received(data)
        self._flush(sock, connection, waiting=False)

    def _flush(self, sock: socket.socket, connection: _Connection, waiting: bool) -> None:
        """Send what ``sock`` takes of the connection's answer bytes;
        ``waiting`` when the loop waits for it to be writable, not
        readable.  The connection closes once all are sent, if it is to."""
        outbox = connection.outbox
        if outbox:
            try:
                sent = sock.send(outbox)
            except BlockingIOError:
                sent = 0
            except OSError:  # the client has gone
                self._close(sock)
                return
            connection.outbox = outbox = outbox[sent:]
        if outbox:
            if not waiting:
                self._selector.modify(sock, selectors.EVENT_WRITE, connection)
        elif connection.closing:
            self._close(sock)
        elif waiting:
            self._selector.modify(sock, selectors.EVENT_READ, connection)

    def _close(self, sock: socket.socket) -> None:
        self._selector.unregister(sock)
        sock.close()


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
