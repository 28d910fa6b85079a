"""Feature extraction: turn a traffic log into a rectangular nominal table.

Every attribute follows a fixed naming grammar that skeleton files and
the mock server share:

    method, statusCode, schema, host, uriPathToken<i>, uriQuery:<key>,
    uriFragment, hasPayload, hasValidPayload, hasAuthorisationToken,
    requestheader:<Name>, responseheader:<Name>, requestjson:<dot.path>,
    responsejson:<dot.path>, hasImmediatePreviousTransaction,
    prev:method, prev:statusCode, everCreated, everRead, everUpdated,
    everDeleted

Request-side and state attributes are inputs, response-side attributes
(statusCode, responseheader:*, responsejson:*) are prediction targets.
Two sentinel values are reserved: "null" for absent URI components and
"no-exist" for absent headers, query keys, and JSON keys.  Observed data
values that would collide with a sentinel are escaped with a "lit:"
prefix.
"""

from __future__ import annotations

import fnmatch
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import parse_qsl

from .errors import UnknownAttributeError
from .traffic import (
    HttpRequest,
    HttpResponse,
    ResourceKeyConfig,
    TrafficLog,
    crud_class,
    first_header,
    path_shape,
    resource_key,
)

SENTINEL_NULL = "null"
SENTINEL_NO_EXIST = "no-exist"
_ESCAPE_PREFIX = "lit:"

STATE_ATTRIBUTES = (
    "hasImmediatePreviousTransaction",
    "prev:method",
    "prev:statusCode",
    "everCreated",
    "everRead",
    "everUpdated",
    "everDeleted",
)


def escape_literal(value: str) -> str:
    """Escape an observed data value so it cannot collide with a sentinel."""
    if value in (SENTINEL_NULL, SENTINEL_NO_EXIST) or value.startswith(_ESCAPE_PREFIX):
        return _ESCAPE_PREFIX + value
    return value


def unescape_literal(value: str) -> str:
    if value.startswith(_ESCAPE_PREFIX):
        return value[len(_ESCAPE_PREFIX):]
    return value


class Role(str, Enum):
    INPUT = "input"
    TARGET = "target"


def role_for(name: str) -> Role:
    if name == "statusCode" or name.startswith(("responseheader:", "responsejson:")):
        return Role.TARGET
    return Role.INPUT


def sentinel_for(name: str) -> str:
    """Fill value for an attribute absent from a given transaction."""
    if name.startswith("uriPathToken") or name == "uriFragment":
        return SENTINEL_NULL
    return SENTINEL_NO_EXIST


@dataclass(frozen=True)
class Attribute:
    name: str
    role: Role
    domain: tuple[str, ...] = ()


@dataclass(frozen=True)
class Instance:
    values: tuple[str, ...]
    transaction_id: str = ""


@dataclass(frozen=True)
class InstanceTable:
    """Rectangular nominal dataset: attribute schema plus instances."""

    schema: tuple[Attribute, ...]
    instances: tuple[Instance, ...]

    def __post_init__(self):
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in schema")
        width = len(self.schema)
        for inst in self.instances:
            if len(inst.values) != width:
                raise ValueError(
                    f"instance {inst.transaction_id!r} has {len(inst.values)} values, schema has {width}"
                )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)

    def index_of(self, name: str) -> int:
        for i, a in enumerate(self.schema):
            if a.name == name:
                return i
        raise UnknownAttributeError(f"no attribute named {name!r}")

    def attribute(self, name: str) -> Attribute:
        return self.schema[self.index_of(name)]

    def inputs(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.schema if a.role is Role.INPUT)

    def targets(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.schema if a.role is Role.TARGET)

    def column(self, name: str) -> list[str]:
        i = self.index_of(name)
        return [inst.values[i] for inst in self.instances]

    def row_mapping(self, i: int) -> dict[str, str]:
        inst = self.instances[i]
        return {a.name: v for a, v in zip(self.schema, inst.values)}


def nominal_sort(values: Iterable[str]) -> tuple[str, ...]:
    """Deterministic domain order: numeric when all values are finite
    numbers, lexicographic otherwise."""
    vals = sorted(set(values))
    try:
        keyed = [(float(v), v) for v in vals]
    except ValueError:
        return tuple(vals)
    if any(math.isnan(k) or math.isinf(k) for k, _ in keyed):
        return tuple(vals)
    return tuple(v for _, v in sorted(keyed))


@dataclass(frozen=True)
class ExtractionConfig:
    resource: ResourceKeyConfig = ResourceKeyConfig()
    #: request headers that carry authorisation material
    auth_header_names: tuple[str, ...] = ("Authorization", "Cookie")
    auth_header_patterns: tuple[str, ...] = ("x-*-token",)
    #: bound on schema width for pathological URIs
    max_path_depth: int = 16

    @cached_property
    def _auth_matchers(self) -> tuple[frozenset[str], re.Pattern | None]:
        """The lower-cased auth header names, and one regex matching any
        lower-cased auth pattern as ``fnmatchcase`` does."""
        names = frozenset(n.lower() for n in self.auth_header_names)
        patterns = "|".join(fnmatch.translate(p.lower()) for p in self.auth_header_patterns)
        return names, re.compile(patterns) if patterns else None

    def __getstate__(self) -> dict:
        # pickle the fields alone, whether or not the matchers were built
        return {k: v for k, v in self.__dict__.items() if k != "_auth_matchers"}

    def is_auth_header(self, name: str) -> bool:
        lname = name.lower()
        names, pattern = self._auth_matchers
        return lname in names or (pattern is not None and pattern.match(lname) is not None)

    def to_json_dict(self) -> dict:
        return {
            "resourceKey": self.resource.to_json_dict(),
            "authHeaderNames": list(self.auth_header_names),
            "authHeaderPatterns": list(self.auth_header_patterns),
            "maxPathDepth": self.max_path_depth,
        }

    @classmethod
    def from_json_dict(cls, obj: Mapping) -> "ExtractionConfig":
        return cls(
            resource=ResourceKeyConfig.from_json_dict(obj.get("resourceKey", {})),
            auth_header_names=tuple(obj.get("authHeaderNames", ("Authorization", "Cookie"))),
            auth_header_patterns=tuple(obj.get("authHeaderPatterns", ("x-*-token",))),
            max_path_depth=int(obj.get("maxPathDepth", 16)),
        )


@dataclass(frozen=True)
class ExtractionProfile:
    """Dataset-wide facts discovered during extraction that the mock
    server needs again at serve time."""

    path_depth: int = 0
    #: flattened JSON prefixes that were arrays in the recordings
    array_paths: tuple[str, ...] = ()
    #: "METHOD /path/{id}" shapes observed in the recordings
    shapes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Per-transaction features


def tokenize_uri(uri: str, max_path_depth: int | None = None) -> dict[str, str]:
    """URI-derived attributes: scheme, host, positional path tokens,
    query keys, and fragment (only components present in the URI)."""
    from .traffic import _split_absolute_uri

    parts = _split_absolute_uri(uri)
    out = {
        "schema": escape_literal(parts.scheme.lower()),
        "host": escape_literal(parts.netloc.lower()),
    }
    tokens = [t for t in parts.path.split("/") if t]
    if max_path_depth is not None:
        tokens = tokens[:max_path_depth]
    for i, token in enumerate(tokens):
        out[f"uriPathToken{i}"] = escape_literal(token)
    for key, value in parse_qsl(parts.query, keep_blank_values=True):
        out.setdefault(f"uriQuery:{key}", escape_literal(value))
    if parts.fragment:
        out["uriFragment"] = escape_literal(parts.fragment)
    return out


def canonical_scalar(value) -> str:
    """Canonical nominal spelling of a JSON scalar."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _flatten(value, path: str, out: dict[str, str], arrays: set[str]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{path}.{key}" if path else str(key), out, arrays)
    elif isinstance(value, list):
        if path:
            arrays.add(path)
        for element in value:
            _flatten(element, path, out, arrays)
    else:
        if not path:
            return
        text = canonical_scalar(value)
        # first non-null value wins when array elements collide
        if path not in out or (out[path] == "null" and text != "null"):
            out[path] = text


def flatten_json(body, prefix: str) -> dict[str, str]:
    """Flatten a parsed JSON value to ``prefix:dot.path`` attributes.

    Nested objects become dot paths; arrays are merged index-free (union
    of element keys, first non-null value wins).
    """
    flat: dict[str, str] = {}
    _flatten(body, "", flat, set())
    return {f"{prefix}:{path}": value for path, value in flat.items()}


def _json_content(body: bytes | None, content_type: str | None):
    """(has_payload, is_valid_json, parsed_value)."""
    if body is None or len(body) == 0:
        return False, False, None
    if content_type is not None and "json" not in content_type.lower():
        return True, False, None
    try:
        return True, True, json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return True, False, None


def _add_json(out: dict[str, str], prefix: str, value, arrays: set[str] | None) -> None:
    """Add the escaped ``prefix:dot.path`` attributes of a parsed JSON body
    to ``out``, and its ``prefix:dot.path`` array prefixes to ``arrays``."""
    flat: dict[str, str] = {}
    found: set[str] = set()
    _flatten(value, "", flat, found)
    for path, text in flat.items():
        out[f"{prefix}:{path}"] = escape_literal(text)
    if arrays is not None:
        arrays.update(f"{prefix}:{path}" for path in found)


def _add_headers(out: dict[str, str], side: str, headers, spelling: dict[str, str] | None) -> None:
    """Add ``side:<Name>`` header attributes to ``out``.

    Names that differ only in case are one attribute, and the first value
    wins.  ``spelling`` maps lower-cased names onto the spelling attribute
    names use; a name it lacks is added in its own spelling, so a map
    shared over a whole log keeps the first spelling seen.  Without a map,
    the first spelling in ``headers`` is used.
    """
    if spelling is None:
        spelling = {}
    for name, value in headers:
        key = f"{side}:{spelling.setdefault(name.lower(), name)}"
        if key not in out:
            out[key] = escape_literal(value)


def request_feature_map(
    request: HttpRequest,
    config: ExtractionConfig = ExtractionConfig(),
    spelling: dict[str, str] | None = None,
    arrays: set[str] | None = None,
) -> dict[str, str]:
    """All request-side attributes of a request (no response, no state).

    The one request-side extractor: training rows and the mock server's
    input vectors are both built with it.  ``spelling`` maps lower-cased
    header names onto attribute spellings (see ``_add_headers``); when
    given, ``arrays`` collects the ``requestjson:`` prefixes that were
    arrays.
    """
    out = {"method": request.method}
    out.update(tokenize_uri(request.uri, config.max_path_depth))
    has, valid, value = _json_content(request.body, request.body_content_type)
    out["hasPayload"] = "true" if has else "false"
    out["hasValidPayload"] = "true" if valid else "false"
    if valid:
        _add_json(out, "requestjson", value, arrays)
    has_auth = any(config.is_auth_header(name) for name, _ in request.headers)
    out["hasAuthorisationToken"] = "true" if has_auth else "false"
    _add_headers(out, "requestheader", request.headers, spelling)
    return out


def response_feature_map(
    response: HttpResponse,
    spelling: dict[str, str] | None = None,
    arrays: set[str] | None = None,
) -> dict[str, str]:
    """All response-side attributes (the prediction targets): ``statusCode``,
    ``responseheader:*`` and ``responsejson:*``.

    ``spelling`` and ``arrays`` work as in ``request_feature_map``.
    """
    out = {"statusCode": str(response.status_code)}
    _add_headers(out, "responseheader", response.headers, spelling)
    _, valid, value = _json_content(response.body, first_header(response.headers, "Content-Type"))
    if valid:
        _add_json(out, "responsejson", value, arrays)
    return out


_EVER_FLAGS = (
    ("everCreated", "create"),
    ("everRead", "read"),
    ("everUpdated", "update"),
    ("everDeleted", "delete"),
)


class ResourceState(NamedTuple):
    """What the state features know of a resource's earlier transactions:
    the previous method and status, and the CRUD classes seen so far.

    Its size does not grow with the history; ``after`` folds in one more
    transaction.
    """

    prev_method: str | None = None
    prev_status: int | None = None
    crud_seen: frozenset[str] = frozenset()

    def after(self, method: str, status: int, crud: str | None) -> "ResourceState":
        """The state once a ``method`` request with CRUD class ``crud`` was
        answered with ``status``."""
        seen = self.crud_seen
        if crud is not None and crud not in seen:
            seen = seen | {crud}
        return ResourceState(method, status, seen)

    def features(self) -> dict[str, str]:
        """The state attributes (``STATE_ATTRIBUTES``) of the next transaction."""
        fresh = self.prev_method is None
        out = {
            "hasImmediatePreviousTransaction": "false" if fresh else "true",
            "prev:method": SENTINEL_NO_EXIST if fresh else self.prev_method,
            "prev:statusCode": SENTINEL_NO_EXIST if fresh else str(self.prev_status),
        }
        for name, crud in _EVER_FLAGS:
            out[name] = "true" if crud in self.crud_seen else "false"
        return out


_URI_FAMILY_PREFIXES = ("uriPathToken", "uriQuery:", "uriFragment")


@lru_cache(maxsize=16)
def _schema_lookups(
    input_names: tuple[str, ...], also_known: tuple[str, ...]
) -> tuple[dict[str, str], tuple[tuple[str, str], ...], frozenset[str]]:
    """What ``serve_input_values`` needs of one input schema: the header
    spelling map, each input with its fill value, and the known names."""
    headers = (name.split(":", 1)[1] for name in input_names if name.startswith("requestheader:"))
    spelling = {header.lower(): header for header in headers}
    fills = tuple((name, sentinel_for(name)) for name in input_names)
    return spelling, fills, frozenset(input_names) | frozenset(also_known)


def serve_input_values(
    input_names: Sequence[str],
    request: HttpRequest,
    state: ResourceState,
    config: ExtractionConfig = ExtractionConfig(),
    also_known: Sequence[str] = (),
) -> tuple[dict[str, str], int]:
    """Feature vector for a live request against a known input schema.

    ``state`` is the folded state of the request's resource.  Request
    header names match the schema's case-insensitively.  Returns the
    name->value mapping plus the number of URI-side features the request
    presented that the schema cannot represent (deeper paths, unknown
    query keys, fragments never seen in training).  ``also_known`` names
    features deliberately dropped from the schema (e.g. constant inputs),
    which do not count as unmatched.  The lookups derived from the schema
    are worked out once per schema.
    """
    spelling, fills, known = _schema_lookups(tuple(input_names), tuple(also_known))
    # a copy: request_feature_map adds the request's other header names to it
    raw = request_feature_map(request, config, dict(spelling))
    raw.update(state.features())
    values = {name: raw.get(name, fill) for name, fill in fills}
    unmatched = sum(
        1
        for key in raw
        if key not in known and key.startswith(_URI_FAMILY_PREFIXES)
    )
    return values, unmatched


# ---------------------------------------------------------------------------
# Whole-table extraction

#: column order of the table; names within one family keep first-seen order
_COLUMN_FAMILIES = (
    "method", "statusCode", "schema", "host", "uriPathToken", "uriQuery:",
    "uriFragment", "hasPayload", "hasValidPayload", "requestjson:",
    "hasAuthorisationToken", "requestheader:", "responseheader:", "responsejson:",
) + STATE_ATTRIBUTES


def _column_rank(name: str) -> int:
    return next(i for i, family in enumerate(_COLUMN_FAMILIES) if name.startswith(family))


def extract_table(
    log: TrafficLog, config: ExtractionConfig = ExtractionConfig()
) -> tuple[InstanceTable, ExtractionProfile]:
    """One instance per transaction over the union schema of the dataset.

    A row is the request's and the response's features plus the state
    features of its resource, folded over the log in order.  Header names
    take the first spelling seen in the log.
    """
    request_spelling: dict[str, str] = {}
    response_spelling: dict[str, str] = {}
    array_paths: set[str] = set()
    states: dict[str, ResourceState] = {}
    shapes: dict[str, None] = {}
    seen: dict[str, None] = {}
    rows: list[dict[str, str]] = []

    for txn in log.transactions:
        request, response = txn.request, txn.response
        row = request_feature_map(request, config, request_spelling, array_paths)
        row.update(response_feature_map(response, response_spelling, array_paths))
        key = resource_key(request, config.resource)
        state = states.get(key, ResourceState())
        row.update(state.features())
        states[key] = state.after(
            request.method, response.status_code, crud_class(request, config.resource)
        )
        shapes.setdefault(path_shape(request, config.resource), None)
        seen.update(dict.fromkeys(row))
        rows.append(row)

    if not rows:
        return InstanceTable(schema=(), instances=()), ExtractionProfile()

    names = sorted(seen, key=_column_rank)
    fills = [sentinel_for(name) for name in names]
    instances = tuple(
        Instance(
            values=tuple(row.get(name, fill) for name, fill in zip(names, fills)),
            transaction_id=txn.id,
        )
        for row, txn in zip(rows, log.transactions)
    )
    schema = tuple(
        Attribute(
            name=name,
            role=role_for(name),
            domain=nominal_sort(inst.values[i] for inst in instances),
        )
        for i, name in enumerate(names)
    )
    profile = ExtractionProfile(
        path_depth=sum(1 for name in names if name.startswith("uriPathToken")),
        array_paths=tuple(sorted(array_paths)),
        shapes=tuple(shapes),
    )
    return InstanceTable(schema=schema, instances=instances), profile


# ---------------------------------------------------------------------------
# ARFF export


def _arff_quote(text: str) -> str:
    if text == "":
        return "''"
    specials = set(" ,{}%'\"\t")
    if any(c in specials for c in text):
        return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"
    return text


def to_arff(table: InstanceTable, relation: str = "traffic") -> str:
    """Render a table in ARFF-compatible text form."""
    lines = [f"@relation {_arff_quote(relation)}", ""]
    for attr in table.schema:
        domain = ",".join(_arff_quote(v) for v in attr.domain)
        lines.append(f"@attribute {_arff_quote(attr.name)} {{{domain}}}")
    lines.append("")
    lines.append("@data")
    for inst in table.instances:
        lines.append(",".join(_arff_quote(v) for v in inst.values))
    return "\n".join(lines) + "\n"
