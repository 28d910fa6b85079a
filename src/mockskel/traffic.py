"""Canonical HTTP transaction model, recording ingestion, and resource grouping.

The native recording format is JSON lines (one transaction object per
line, schema documented in the README); HAR 1.2 archives can be imported
as well.  All types are immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping
from urllib.parse import SplitResult, urlsplit

from .errors import MalformedInputError, UnparseableUriError

SUPPORTED_METHODS = ("GET", "HEAD", "POST", "PUT", "PATCH", "DELETE", "OPTIONS")


class UnsupportedMethodError(ValueError):
    """The HTTP method is outside the supported set (loaders skip these)."""

#: Path tokens shaped like opaque identifiers.  Tokens matching one of
#: these patterns are never stripped from a resource key and are folded
#: to "{id}" in path shapes.
DEFAULT_ID_PATTERNS = (
    r"[0-9]+",
    r"[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}",
)

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
    import re

    return re.compile("|".join(f"(?:{p})" for p in patterns)) if patterns else None


@dataclass(frozen=True)
class ResourceKeyConfig:
    """How requests are mapped onto logical resources.

    ``strip_tokens`` are removed from the path when computing resource
    keys (unless they look like identifiers), ``crud_token_classes``
    override the method-based CRUD classification when one of the tokens
    appears in the path.
    """

    id_patterns: tuple[str, ...] = DEFAULT_ID_PATTERNS
    strip_tokens: tuple[str, ...] = tuple(DEFAULT_CRUD_TOKEN_CLASSES)
    crud_token_classes: tuple[tuple[str, str], ...] = tuple(
        DEFAULT_CRUD_TOKEN_CLASSES.items()
    )

    def is_identifier(self, token: str) -> bool:
        rx = _compile_id_regex(self.id_patterns)
        return bool(rx and rx.fullmatch(token))

    @property
    def crud_map(self) -> dict[str, str]:
        return dict(self.crud_token_classes)

    def to_json_dict(self) -> dict:
        return {
            "idPatterns": list(self.id_patterns),
            "stripTokens": list(self.strip_tokens),
            "crudTokenClasses": dict(self.crud_token_classes),
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "ResourceKeyConfig":
        return cls(
            id_patterns=tuple(obj.get("idPatterns", DEFAULT_ID_PATTERNS)),
            strip_tokens=tuple(obj.get("stripTokens", tuple(DEFAULT_CRUD_TOKEN_CLASSES))),
            crud_token_classes=tuple(
                obj.get("crudTokenClasses", DEFAULT_CRUD_TOKEN_CLASSES).items()
            ),
        )


def _normalize_headers(headers: Iterable) -> tuple[tuple[str, str], ...]:
    out = []
    for item in headers:
        name, value = item
        out.append((str(name), str(value)))
    return tuple(out)


def first_header(headers: tuple[tuple[str, str], ...], name: str) -> str | None:
    """First value of header ``name``, matched case-insensitively, or None."""
    lname = name.lower()
    for hname, value in headers:
        if hname.lower() == lname:
            return value
    return None


def _split_absolute_uri(uri: str) -> SplitResult:
    try:
        parts = urlsplit(uri)
    except ValueError as exc:
        raise UnparseableUriError(f"cannot parse URI {uri!r}: {exc}") from exc
    if not parts.scheme or not parts.netloc:
        raise UnparseableUriError(f"URI {uri!r} is not absolute (scheme and host required)")
    return parts


@dataclass(frozen=True)
class HttpRequest:
    """One recorded HTTP request.

    Header names compare case-insensitively; duplicates are permitted and
    order is preserved.  The body is kept as raw bytes, JSON decoding is
    deferred to feature extraction.
    """

    method: str
    uri: str
    headers: tuple[tuple[str, str], ...] = ()
    body: bytes | None = None
    body_content_type: str | None = None

    def __post_init__(self):
        if self.method not in SUPPORTED_METHODS:
            raise UnsupportedMethodError(f"unsupported HTTP method {self.method!r}")
        _split_absolute_uri(self.uri)
        object.__setattr__(self, "headers", _normalize_headers(self.headers))
        if self.body is not None and not isinstance(self.body, bytes):
            object.__setattr__(self, "body", bytes(self.body))
        if self.body_content_type is None:
            object.__setattr__(self, "body_content_type", first_header(self.headers, "Content-Type"))

    def split_uri(self) -> SplitResult:
        return _split_absolute_uri(self.uri)

    def path_tokens(self) -> list[str]:
        return [t for t in self.split_uri().path.split("/") if t]


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
    are unique.  ``skipped_methods`` counts records dropped at load time
    because their method is outside the supported set.
    """

    transactions: tuple[HttpTransaction, ...]
    source: str = ""
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
    if "body" in obj and "bodyB64" in obj:
        raise MalformedInputError(f"{where}: both body and bodyB64 present")
    if "body" in obj:
        if obj["body"] is None:
            return None
        return str(obj["body"]).encode("utf-8")
    if "bodyB64" in obj:
        try:
            return base64.b64decode(obj["bodyB64"], validate=True)
        except (binascii.Error, TypeError) as exc:
            raise MalformedInputError(f"{where}: invalid base64 body: {exc}") from exc
    return None


def transaction_from_json(obj: Mapping, default_sequence: int) -> HttpTransaction:
    """Build a transaction from one native-format JSON object.

    Raises ValueError for unsupported methods (callers skip those) and
    MalformedInputError for anything structurally wrong.
    """
    try:
        req_obj = obj["request"]
        resp_obj = obj["response"]
        txn_id = str(obj["id"])
        request = HttpRequest(
            method=str(req_obj["method"]),
            uri=str(req_obj["uri"]),
            headers=_normalize_headers(req_obj.get("headers", ())),
            body=_body_from_json(req_obj, f"transaction {obj.get('id')}: request"),
        )
        response = HttpResponse(
            status_code=int(resp_obj["status"]),
            headers=_normalize_headers(resp_obj.get("headers", ())),
            body=_body_from_json(resp_obj, f"transaction {obj.get('id')}: response"),
        )
    except (UnsupportedMethodError, MalformedInputError):
        raise
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"transaction record is missing/has invalid field: {exc}") from exc
    sequence = int(obj.get("sequence", default_sequence))
    timestamp = obj.get("timestamp")
    return HttpTransaction(
        id=txn_id,
        sequence=sequence,
        request=request,
        response=response,
        timestamp=int(timestamp) if timestamp is not None else None,
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


def _load_jsonl(data: bytes, source: str) -> TrafficLog:
    transactions = []
    skipped = 0
    count = 0
    for lineno, raw in enumerate(data.split(b"\n")):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedInputError(f"line {lineno}: invalid JSON: {exc}", index=lineno) from exc
        if not isinstance(obj, dict):
            raise MalformedInputError(f"line {lineno}: expected a JSON object", index=lineno)
        try:
            txn = transaction_from_json(obj, default_sequence=count)
        except UnsupportedMethodError:
            skipped += 1
            continue
        except (ValueError, MalformedInputError, UnparseableUriError) as exc:
            raise MalformedInputError(f"line {lineno}: {exc}", index=lineno) from exc
        transactions.append(txn)
        count += 1
    return TrafficLog(transactions=tuple(transactions), source=source, skipped_methods=skipped)


def _har_timestamp(started: str | None) -> int | None:
    if not started:
        return None
    try:
        dt = datetime.fromisoformat(started.replace("Z", "+00:00"))
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def _load_har(data: bytes, source: str) -> TrafficLog:
    try:
        har = json.loads(data.decode("utf-8"))
        entries = har["log"]["entries"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise MalformedInputError(f"not a HAR 1.2 document: {exc}") from exc
    transactions = []
    skipped = 0
    for i, entry in enumerate(entries):
        try:
            req = entry["request"]
            resp = entry["response"]
            post = req.get("postData") or {}
            body = post.get("text")
            request = HttpRequest(
                method=str(req["method"]),
                uri=str(req["url"]),
                headers=[(h["name"], h["value"]) for h in req.get("headers", ())],
                body=body.encode("utf-8") if body is not None else None,
                body_content_type=post.get("mimeType"),
            )
            content = resp.get("content") or {}
            text = content.get("text")
            if text is None:
                resp_body = None
            elif content.get("encoding") == "base64":
                resp_body = base64.b64decode(text)
            else:
                resp_body = text.encode("utf-8")
            response = HttpResponse(
                status_code=int(resp["status"]),
                headers=[(h["name"], h["value"]) for h in resp.get("headers", ())],
                body=resp_body,
            )
        except UnsupportedMethodError:
            skipped += 1
            continue
        except (ValueError, KeyError, TypeError, binascii.Error, UnparseableUriError) as exc:
            raise MalformedInputError(f"entry {i}: {exc}", index=i) from exc
        transactions.append(
            HttpTransaction(
                id=f"har-{i}",
                sequence=i,
                request=request,
                response=response,
                timestamp=_har_timestamp(entry.get("startedDateTime")),
            )
        )
    return TrafficLog(transactions=tuple(transactions), source=source, skipped_methods=skipped)


def load_traffic(source, format: str = "jsonl") -> TrafficLog:
    """Load a traffic recording.

    ``source`` may be a filesystem path, raw bytes, or a file object.
    ``format`` is "jsonl" (native) or "har".
    """
    name = str(source) if isinstance(source, (str, Path)) else getattr(source, "name", "<stream>")
    data = _read_source(source)
    fmt = format.lower()
    if fmt == "jsonl":
        return _load_jsonl(data, name)
    if fmt == "har":
        return _load_har(data, name)
    raise ValueError(f"unknown traffic format {format!r} (expected jsonl or har)")


def dump_jsonl(log: TrafficLog) -> str:
    """Serialize a log to the native JSONL format (inverse of loading)."""
    lines = [
        json.dumps(transaction_to_json(t), separators=(",", ":"), ensure_ascii=False)
        for t in log.transactions
    ]
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
    parts = _split_absolute_uri(request.uri)
    strip = set(config.strip_tokens)
    kept = [
        t
        for t in parts.path.split("/")
        if t and not (t in strip and not config.is_identifier(t))
    ]
    host = parts.netloc.lower()
    return host + ("/" + "/".join(kept) if kept else "")


def crud_class(request: HttpRequest, config: ResourceKeyConfig = ResourceKeyConfig()) -> str | None:
    """CRUD class of a request: create/read/update/delete, or None.

    Derived from the HTTP method; overridden when the path carries an
    operation-naming token (the last matching token wins).
    """
    crud_map = config.crud_map
    result = None
    for token in request.path_tokens():
        if token in crud_map:
            result = crud_map[token]
    if result is not None:
        return result
    return _METHOD_CRUD_CLASSES.get(request.method)


def path_shape(request: HttpRequest, config: ResourceKeyConfig = ResourceKeyConfig()) -> str:
    """Method plus path with identifier tokens folded to ``{id}``."""
    tokens = ["{id}" if config.is_identifier(t) else t for t in request.path_tokens()]
    return f"{request.method} /" + "/".join(tokens)


def group_by_resource(
    log: TrafficLog, config: ResourceKeyConfig = ResourceKeyConfig()
) -> dict[str, list[HttpTransaction]]:
    """Partition transactions by resource key, preserving sequence order."""
    groups: dict[str, list[HttpTransaction]] = {}
    for txn in log.transactions:
        groups.setdefault(resource_key(txn.request, config), []).append(txn)
    return groups
