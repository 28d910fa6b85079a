"""Canonical HTTP transaction model, recording ingestion, and resource grouping.

The native recording format is JSON lines (one transaction object per
line, schema documented in the README); HAR 1.2 archives can be imported
as well.  All types are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import base64
import codecs
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from pathlib import Path
from typing import Annotated, Iterable, Mapping
from urllib.parse import SplitResult, urlsplit

from .errors import MalformedInputError, MockskelError, UnparseableUriError
from .settings import Pairs, Settings, Valid

SUPPORTED_METHODS = ("GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "OPTIONS")


class UnsupportedMethodError(ValueError):
    """The HTTP method is outside the supported set (loaders skip these)."""

#: URI tokens that name the operation rather than the resource, mapped to
#: the CRUD class they imply.  Seeded from services that encode the verb
#: in the path (Slack's postMessage/update/delete, Twitter's
#: update/destroy/show).
DEFAULT_CRUD_TOKEN_CLASSES: Mapping[str, str] = {
    "postMessage": "create",
    "update": "update",
    "delete": "delete",
    "destroy": "delete",
    "show": "read",
}

CRUD_CLASSES = ("create", "read", "update", "delete")

_METHOD_CRUD_CLASSES = {
    "POST": "create",
    "GET": "read",
    "HEAD": "read",
    "PUT": "update",
    "PATCH": "update",
    "DELETE": "delete",
    # OPTIONS carries no CRUD meaning
}


@lru_cache(maxsize=32)
def _compile_id_regex(patterns: tuple[str, ...]):
    return re.compile("|".join(f"(?:{p})" for p in patterns)) if patterns else None


def _compiles(patterns: tuple[str, ...]) -> bool:
    try:
        _compile_id_regex(patterns)
    except re.error:
        return False
    return True


_CRUD_CLASS_MAP = Valid(
    lambda pairs: all(crud in CRUD_CLASSES for _, crud in pairs),
    f"an object whose values are each one of {', '.join(CRUD_CLASSES)}",
)


@dataclass(frozen=True)
class ResourceKeyConfig(Settings):
    """How requests are mapped onto logical resources.

    ``strip_tokens`` are removed from the path when computing resource
    keys (unless they look like identifiers), ``crud_token_classes``
    override the method-based CRUD classification when one of the tokens
    appears in the path.
    """

    #: path tokens shaped like opaque identifiers: never stripped from a
    #: resource key, and folded to "{id}" in path shapes
    id_patterns: Annotated[tuple[str, ...], Valid(_compiles, "a list of regular expressions")] = (
        r"[0-9]+",
        r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}",
    )
    strip_tokens: tuple[str, ...] = tuple(DEFAULT_CRUD_TOKEN_CLASSES)
    crud_token_classes: Annotated[Pairs, _CRUD_CLASS_MAP] = tuple(
        DEFAULT_CRUD_TOKEN_CLASSES.items()
    )

    def is_identifier(self, token: str) -> bool:
        rx = _compile_id_regex(self.id_patterns)
        return bool(rx and rx.fullmatch(token))

    @property
    def crud_map(self) -> dict[str, str]:
        return dict(self.crud_token_classes)


def _normalize_headers(headers: Iterable) -> tuple[tuple[str, str], ...]:
    return tuple((str(name), str(value)) for name, value in headers)


def first_header(headers: Iterable[tuple[str, str]], name: str) -> str | None:
    """First value of header ``name``, matched case-insensitively, or None."""
    lname = name.lower()
    for hname, value in headers:
        if hname.lower() == lname:
            return value
    return None


@dataclass(frozen=True)
class HttpRequest:
    """One recorded HTTP request.

    Header names compare case-insensitively; duplicates are permitted and
    order is preserved.  The body is kept as raw bytes, JSON decoding is
    deferred to feature extraction.  ``parts`` is the split URI and
    ``path_tokens`` its non-empty path segments.
    """

    method: str
    uri: str
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes | None = None
    parts: SplitResult = field(init=False, compare=False, repr=False)
    path_tokens: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.method not in SUPPORTED_METHODS:
            raise UnsupportedMethodError(f"unsupported HTTP method {self.method!r}")
        try:
            parts = urlsplit(self.uri)
        except ValueError as exc:
            raise UnparseableUriError(f"cannot parse URI {self.uri!r}: {exc}") from exc
        if not parts.scheme or not parts.netloc:
            raise UnparseableUriError(f"URI {self.uri!r} is not absolute (scheme and host required)")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "path_tokens", tuple(t for t in parts.path.split("/") if t))
        object.__setattr__(self, "headers", _normalize_headers(self.headers))
        if self.body is not None and not isinstance(self.body, bytes):
            object.__setattr__(self, "body", bytes(self.body))


@dataclass(frozen=True)
class HttpResponse:
    """One recorded HTTP response."""

    status_code: int
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes | None = None

    def __post_init__(self):
        if not 100 <= int(self.status_code) <= 599:
            raise ValueError(f"status code {self.status_code} outside [100, 599]")
        object.__setattr__(self, "status_code", int(self.status_code))
        object.__setattr__(self, "headers", _normalize_headers(self.headers))
        if self.body is not None and not isinstance(self.body, bytes):
            object.__setattr__(self, "body", bytes(self.body))


@dataclass(frozen=True)
class HttpTransaction:
    """One request/response pair with recording-order metadata."""

    id: str
    sequence: int
    request: HttpRequest
    response: HttpResponse
    timestamp: int | None = None  # epoch milliseconds


@dataclass(frozen=True)
class TrafficLog:
    """An ordered recording of HTTP transactions.

    Transactions are sorted ascending by their ``sequence`` number, ids
    are unique.  ``skipped_methods`` counts records dropped at load time:
    those whose method is outside the supported set, and HAR entries with
    status 0, requests that got no response.
    """

    transactions: tuple[HttpTransaction, ...]
    skipped_methods: int = 0

    def __post_init__(self):
        txns = tuple(sorted(self.transactions, key=lambda t: t.sequence))
        seqs = [t.sequence for t in txns]
        if len(set(seqs)) != len(seqs):
            raise MalformedInputError("duplicate sequence numbers in traffic log")
        ids = [t.id for t in txns]
        if len(set(ids)) != len(ids):
            raise MalformedInputError("duplicate transaction ids in traffic log")
        object.__setattr__(self, "transactions", txns)

    def __len__(self) -> int:
        return len(self.transactions)


# ---------------------------------------------------------------------------
# Loading


def _read_source(source) -> bytes:
    if isinstance(source, bytes):
        return source
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    data = source.read()
    return data.encode("utf-8") if isinstance(data, str) else data


def _body_from_json(obj: Mapping, where: str) -> bytes | None:
    if "bodyB64" in obj:
        if "body" in obj:
            raise MalformedInputError(f"{where}: both body and bodyB64 present")
        try:
            return base64.b64decode(obj["bodyB64"], validate=True)
        except (ValueError, TypeError) as exc:
            raise MalformedInputError(f"{where}: invalid base64 body: {exc}") from exc
    body = obj.get("body")
    if body is not None and not isinstance(body, str):
        raise MalformedInputError(
            f"{where}: body must be a string or null, not {type(body).__name__}"
            " (binary data goes under bodyB64)"
        )
    return None if body is None else body.encode("utf-8")


def _whole_number(value, name: str) -> int:
    """``value`` when it is a JSON number with no fractional part, so
    ``200.0`` reads as 200; MalformedInputError naming ``name`` otherwise."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise MalformedInputError(f"{name} must be a whole number, not {json_text(value)}")


def transaction_from_json(obj: Mapping, default_sequence: int) -> HttpTransaction:
    """Build a transaction from one native-format JSON object.

    Raises UnsupportedMethodError for a method outside the supported set;
    a missing or ill-typed field raises what reading it raises, which
    ``_read_records`` names by its line or entry.
    """
    req_obj = obj["request"]
    resp_obj = obj["response"]
    txn_id = str(obj["id"])
    request = HttpRequest(
        method=str(req_obj["method"]),
        uri=str(req_obj["uri"]),
        headers=req_obj.get("headers", ()),
        body=_body_from_json(req_obj, f"transaction {txn_id}: request"),
    )
    response = HttpResponse(
        status_code=_whole_number(resp_obj["status"], "status"),
        headers=resp_obj.get("headers", ()),
        body=_body_from_json(resp_obj, f"transaction {txn_id}: response"),
    )
    timestamp = obj.get("timestamp")
    return HttpTransaction(
        id=txn_id,
        sequence=_whole_number(obj.get("sequence", default_sequence), "sequence"),
        request=request,
        response=response,
        timestamp=None if timestamp is None else _whole_number(timestamp, "timestamp"),
    )


def transaction_to_json(txn: HttpTransaction) -> dict:
    """Native-format JSON object for one transaction (inverse of loading)."""

    def body_fields(body: bytes | None) -> dict:
        if body is None:
            return {}
        try:
            text = body.decode("utf-8")
            if text.encode("utf-8") == body:
                return {"body": text}
        except UnicodeDecodeError:
            pass
        return {"bodyB64": base64.b64encode(body).decode("ascii")}

    obj: dict = {"id": txn.id, "sequence": txn.sequence}
    if txn.timestamp is not None:
        obj["timestamp"] = txn.timestamp
    obj["request"] = {
        "method": txn.request.method,
        "uri": txn.request.uri,
        "headers": [[n, v] for n, v in txn.request.headers],
        **body_fields(txn.request.body),
    }
    obj["response"] = {
        "status": txn.response.status_code,
        "headers": [[n, v] for n, v in txn.response.headers],
        **body_fields(txn.response.body),
    }
    return obj


def _jsonl_record(index: int, line: bytes) -> Mapping:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedInputError("expected a JSON object")
    return obj


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _har_timestamp(started: str | None) -> int | None:
    """``startedDateTime`` in epoch milliseconds: None when it is absent or
    empty, ValueError when ISO 8601 cannot read it."""
    if not started:
        return None
    try:
        dt = datetime.fromisoformat(started.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"startedDateTime {json_text(started)} is not an ISO 8601 date") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # integer division of timedeltas is exact; dt.timestamp() * 1000 is a
    # float product that can truncate to one millisecond short
    return (dt - _EPOCH) // timedelta(milliseconds=1)


def _har_record(index: int, entry) -> Mapping | None:
    """HAR entry ``index`` as the native record it stands for, or None for
    a request that got no response, which browsers record with status 0."""
    request, response = entry["request"], entry["response"]
    if type(response["status"]) in (int, float) and response["status"] == 0:
        return None
    content = response.get("content") or {}
    text = content.get("text")
    return {
        "id": f"har-{index}",
        "sequence": index,
        "timestamp": _har_timestamp(entry.get("startedDateTime")),
        "request": {
            "method": request["method"],
            "uri": request["url"],
            "headers": [[h["name"], h["value"]] for h in request.get("headers", ())],
            "body": (request.get("postData") or {}).get("text"),
        },
        "response": {
            "status": response["status"],
            "headers": [[h["name"], h["value"]] for h in response.get("headers", ())],
            "bodyB64" if text is not None and content.get("encoding") == "base64" else "body": text,
        },
    }


def _har_entries(data: bytes) -> list:
    try:
        entries = json.loads(data.decode("utf-8"))["log"]["entries"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise MalformedInputError(f"not a HAR 1.2 document: {exc}") from exc
    if not isinstance(entries, list):
        raise MalformedInputError("not a HAR 1.2 document: log.entries is not a list")
    return entries


def _read_records(items: Iterable[tuple[int, object]], unit: str, to_record) -> TrafficLog:
    """The one reader of both formats: ``to_record(index, item)`` makes each
    item a native record, which becomes a transaction.

    Records with an unsupported method, and items that ``to_record`` turns
    into None, are counted and skipped.  An error names its ``unit`` (line
    or entry) counted from 1, while ``MalformedInputError.index`` stays
    zero-based.
    """
    transactions = []
    skipped = 0
    for index, item in items:
        try:
            record = to_record(index, item)
            if record is None:
                skipped += 1
                continue
            txn = transaction_from_json(record, default_sequence=len(transactions))
        except UnsupportedMethodError:
            skipped += 1
            continue
        except (KeyError, TypeError, AttributeError) as exc:
            raise MalformedInputError(
                f"{unit} {index + 1}: record is missing/has invalid field: {exc}", index=index
            ) from exc
        except (ValueError, MockskelError) as exc:
            raise MalformedInputError(f"{unit} {index + 1}: {exc}", index=index) from exc
        transactions.append(txn)
    return TrafficLog(transactions=tuple(transactions), skipped_methods=skipped)


def load_traffic(source, format: str = "jsonl") -> TrafficLog:
    """Load a traffic recording.

    ``source`` may be a filesystem path, raw bytes, or a file object.
    ``format`` is "jsonl" (native) or "har"; one leading UTF-8 byte-order
    mark is dropped before either.
    """
    data = _read_source(source).removeprefix(codecs.BOM_UTF8)
    fmt = format.lower()
    if fmt == "jsonl":
        lines = ((i, line) for i, raw in enumerate(data.split(b"\n")) if (line := raw.strip()))
        return _read_records(lines, "line", _jsonl_record)
    if fmt == "har":
        return _read_records(enumerate(_har_entries(data)), "entry", _har_record)
    raise ValueError(f"unknown traffic format {format!r} (expected jsonl or har)")


def json_text(value, **dumps_args) -> str:
    """``value`` as JSON text.  Lone surrogates, which UTF-8 cannot encode,
    are written as ``\\udXXX`` escapes, so the text encodes and loads back equal."""
    return json.dumps(value, ensure_ascii=False, **dumps_args).encode("utf-8", "backslashreplace").decode()


def dump_jsonl(log: TrafficLog) -> str:
    """Serialize a log to the native JSONL format (inverse of loading)."""
    lines = [json_text(transaction_to_json(t), separators=(",", ":")) for t in log.transactions]
    return "\n".join(lines) + ("\n" if lines else "")


def save_jsonl(log: TrafficLog, path) -> None:
    Path(path).write_text(dump_jsonl(log), encoding="utf-8")


# ---------------------------------------------------------------------------
# Resource keys and CRUD classification


def resource_key(request: HttpRequest, config: ResourceKeyConfig = ResourceKeyConfig()) -> str:
    """Normalized identifier of the logical resource a request addresses.

    Host plus path with verb-like tokens stripped, so that e.g.
    ``POST /statuses/destroy/42`` and ``GET /statuses/show/42`` share the
    key ``host/statuses/42``.  Identifier-shaped tokens are never
    stripped.
    """
    strip = set(config.strip_tokens)
    kept = [t for t in request.path_tokens if not (t in strip and not config.is_identifier(t))]
    host = request.parts.netloc.lower()
    return host + ("/" + "/".join(kept) if kept else "")


def crud_class(request: HttpRequest, config: ResourceKeyConfig = ResourceKeyConfig()) -> str | None:
    """CRUD class of a request: create/read/update/delete, or None.

    Derived from the HTTP method; overridden when the path carries an
    operation-naming token (the last matching token wins).
    """
    crud_map = config.crud_map
    result = None
    for token in request.path_tokens:
        if token in crud_map:
            result = crud_map[token]
    if result is not None:
        return result
    return _METHOD_CRUD_CLASSES.get(request.method)


def path_shape(request: HttpRequest, config: ResourceKeyConfig = ResourceKeyConfig()) -> str:
    """Method plus path with identifier tokens folded to ``{id}``."""
    tokens = ["{id}" if config.is_identifier(t) else t for t in request.path_tokens]
    return f"{request.method} /" + "/".join(tokens)
