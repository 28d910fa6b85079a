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
import logging
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import parse_qsl

from .errors import MalformedInputError
from .settings import Count, Settings, read_json
from .traffic import (
    CRUD_CLASSES,
    HttpRequest,
    HttpResponse,
    ResourceKeyConfig,
    TrafficLog,
    crud_class,
    first_header,
    path_shape,
    resource_key,
)

log = logging.getLogger(__name__)

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
    #: the observed values in ``nominal_sort`` order, which ``InstanceTable`` derives
    domain: tuple[str, ...] = ()


@dataclass(frozen=True)
class InstanceTable:
    """Rectangular nominal dataset: attribute schema plus instances.

    Row i is a tuple of value strings, one per attribute (in ``extract_table``
    it is transaction i of the log).  The table derives each attribute's
    domain, its observed values in ``nominal_sort`` order, when it is
    built: a schema gives only names and roles.
    """

    schema: tuple[Attribute, ...]
    instances: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        names = [a.name for a in self.schema]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in schema")
        width = len(self.schema)
        for i, row in enumerate(self.instances):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} values, schema has {width}")
        schema = tuple(
            replace(attr, domain=nominal_sort(map(itemgetter(i), self.instances)))
            for i, attr in enumerate(self.schema)
        )
        object.__setattr__(self, "schema", schema)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.schema)

    def inputs(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.schema if a.role is Role.INPUT)

    def targets(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.schema if a.role is Role.TARGET)


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
class ExtractionConfig(Settings):
    resource: ResourceKeyConfig = ResourceKeyConfig()
    #: request headers that carry authorisation material
    auth_header_names: tuple[str, ...] = ("Authorization", "Cookie")
    auth_header_patterns: tuple[str, ...] = ("x-*-token",)
    #: bound on schema width for pathological URIs
    max_path_depth: Count = 16

    def is_auth_header(self, name: str) -> bool:
        lname = name.lower()
        names, pattern = _auth_matchers(self.auth_header_names, self.auth_header_patterns)
        return lname in names or (pattern is not None and pattern.match(lname) is not None)


@lru_cache(maxsize=32)
def _auth_matchers(names: tuple[str, ...], patterns: tuple[str, ...]) -> tuple[frozenset, re.Pattern | None]:
    """The lower-cased auth header ``names``, and one regex matching any
    lower-cased auth pattern as ``fnmatchcase`` does."""
    regex = "|".join(fnmatch.translate(p.lower()) for p in patterns)
    return frozenset(n.lower() for n in names), re.compile(regex) if regex else None


@dataclass(frozen=True)
class ExtractionProfile:
    """Dataset-wide facts discovered during extraction that the mock
    server needs again at serve time."""

    #: flattened response JSON prefixes that were arrays in the recordings
    array_paths: tuple[str, ...] = ()
    #: "METHOD /path/{id}" shapes observed in the recordings
    shapes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Per-transaction features


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


#: most arrays and objects a JSON body's values may be nested in.  A body
#: nested deeper is not valid JSON: the cap, far below the interpreter's
#: recursion limit, makes that so at any depth of the caller's stack, so
#: training and serving read such a body alike.
MAX_JSON_DEPTH = 500


def _flatten(value, path: str, out: dict[str, str], arrays: set[str], depth: int = 0) -> None:
    if depth > MAX_JSON_DEPTH:
        raise MalformedInputError(f"JSON nested over {MAX_JSON_DEPTH} deep")
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{path}.{key}" if path else str(key), out, arrays, depth + 1)
    elif isinstance(value, list):
        if path:
            arrays.add(path)
        for element in value:
            _flatten(element, path, out, arrays, depth + 1)
    else:
        if not path:
            return
        text = canonical_scalar(value)
        # first non-null value wins when array elements collide
        if path not in out or (out[path] == "null" and text != "null"):
            out[path] = text


def _add_json(
    out: dict[str, str],
    prefix: str,
    body: bytes | None,
    content_type: str | None,
    arrays: set[str] | None = None,
) -> tuple[bool, bool]:
    """Add the escaped ``prefix:dot.path`` attributes of a JSON body to
    ``out``, and its ``prefix:dot.path`` array prefixes to ``arrays``;
    returns (has_payload, is_valid_json).  Arrays are merged index-free:
    the union of their elements' keys, where the first non-null value wins.
    A body that ``read_json`` refuses, or nested over ``MAX_JSON_DEPTH``,
    is not valid JSON."""
    if body is None or len(body) == 0:
        return False, False
    if content_type is not None and "json" not in content_type.lower():
        return True, False
    flat: dict[str, str] = {}
    found: set[str] = set()
    try:
        _flatten(read_json(body, unique_keys=False), "", flat, found)
    except MalformedInputError:
        return True, False
    for path, text in flat.items():
        out[f"{prefix}:{path}"] = escape_literal(text)
    if arrays is not None:
        arrays.update(f"{prefix}:{path}" for path in found)
    return True, True


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
) -> dict[str, str]:
    """All request-side attributes of a request (no response, no state).

    The one request-side extractor: training rows and the mock server's
    input vectors are both built with it.  ``spelling`` maps lower-cased
    header names onto attribute spellings (see ``_add_headers``).
    """
    parts = request.parts
    out = {
        "method": request.method,
        "schema": escape_literal(parts.scheme.lower()),
        "host": escape_literal(parts.netloc.lower()),
    }
    for i, token in enumerate(request.path_tokens[: config.max_path_depth]):
        out[f"uriPathToken{i}"] = escape_literal(token)
    for key, value in parse_qsl(parts.query, keep_blank_values=True):
        out.setdefault(f"uriQuery:{key}", escape_literal(value))
    if parts.fragment:
        out["uriFragment"] = escape_literal(parts.fragment)
    content_type = first_header(request.headers, "Content-Type")
    has, valid = _add_json(out, "requestjson", request.body, content_type)
    out["hasPayload"] = "true" if has else "false"
    out["hasValidPayload"] = "true" if valid else "false"
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

    ``spelling`` works as in ``request_feature_map``; when given, ``arrays``
    collects the ``responsejson:`` prefixes that were arrays.
    """
    out = {"statusCode": str(response.status_code)}
    _add_headers(out, "responseheader", response.headers, spelling)
    content_type = first_header(response.headers, "Content-Type")
    _add_json(out, "responsejson", response.body, content_type, arrays)
    return out


_JSON_CONSTANTS = {"null": None, "true": True, "false": False}
#: an RFC 8259 number; ``[0-9]``, as ``\d`` also matches other scripts' digits
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def _json_value(nominal: str):
    """The JSON value of a ``responsejson:`` nominal: the value of a JSON
    literal (null, a boolean or a finite, convertible number), else the text."""
    text = unescape_literal(nominal)
    number = _JSON_NUMBER.fullmatch(text)
    if number is None:
        return _JSON_CONSTANTS.get(text, text)
    if not (number[1] or number[2]):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            return text
    value = float(text)
    return value if math.isfinite(value) else text


def _unflatten(values: dict[str, object], array_paths: Sequence[str]) -> dict:
    """The JSON object that holds ``values`` at their dot paths."""
    root: dict = {}
    for path, value in values.items():
        *parents, leaf = path.split(".")
        node = root
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                break  # scalar and object predictions collide on this path
        else:
            node[leaf] = value
    # merged arrays re-materialize as single-element arrays, deepest first;
    # older skeletons also list request-side prefixes, which serve nothing
    relative = sorted(
        (p.split(":", 1)[1] for p in array_paths if p.startswith("responsejson:")),
        key=lambda p: -p.count("."),
    )
    for path in relative:
        *parents, leaf = path.split(".")
        node = root
        for part in parents:
            node = node.get(part) if isinstance(node, dict) else None
        if isinstance(node, dict) and leaf in node:
            node[leaf] = [node[leaf]]
    return root


#: a final status code, the only kind the mock serves: a 1xx is interim
_STATUS_CODE = re.compile("[2-5][0-9][0-9]")


def response_from_attributes(
    nominals: Mapping[str, str], array_paths: Sequence[str] = ()
) -> tuple[int, list[tuple[str, str]], bytes | None]:
    """The response whose attributes are ``nominals`` (the inverse of
    ``response_feature_map``): the status, 200 unless ``statusCode`` is a
    final status code, three ASCII digits from 200 to 599; the headers;
    and the JSON body, None without a ``responsejson:`` attribute.
    ``no-exist`` attributes are left out, ``array_paths`` become
    one-element arrays, and a string that spells a JSON literal comes
    back as that literal."""
    status = 200
    headers: list[tuple[str, str]] = []
    body_values: dict[str, object] = {}
    for name, nominal in nominals.items():
        if name == "statusCode":
            if _STATUS_CODE.fullmatch(code := unescape_literal(nominal)):
                status = int(code)
            else:
                log.warning("statusCode prediction %r is not a final status code, serving 200",
                            nominal)
        elif nominal == SENTINEL_NO_EXIST:
            continue
        elif name.startswith("responseheader:"):
            headers.append((name.split(":", 1)[1], unescape_literal(nominal)))
        elif name.startswith("responsejson:"):
            body_values[name.split(":", 1)[1]] = _json_value(nominal)
    if not body_values:
        return status, headers, None
    body = json.dumps(_unflatten(body_values, array_paths), sort_keys=True, separators=(",", ":"))
    return status, headers, body.encode("utf-8")


_EVER_FLAGS = tuple(zip(("everCreated", "everRead", "everUpdated", "everDeleted"), CRUD_CLASSES))


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
        row = request_feature_map(request, config, request_spelling)
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
        tuple(row.get(name, fill) for name, fill in zip(names, fills)) for row in rows
    )
    schema = tuple(Attribute(name, role_for(name)) for name in names)
    profile = ExtractionProfile(
        array_paths=tuple(sorted(array_paths)),
        shapes=tuple(shapes),
    )
    return InstanceTable(schema=schema, instances=instances), profile


# ---------------------------------------------------------------------------
# ARFF export


_ARFF_SPECIALS = frozenset(" ,{}%'\"\t\r\n")


def _arff_quote(text: str) -> str:
    """``text`` as one ARFF token.  It is quoted when empty, when it is
    ``?`` (which ARFF reads as a missing value) or when it holds a
    separator, brace, comment sign, quote or line break; inside the quotes
    a backslash, quote, CR or LF is written as its escape."""
    if text and text != "?" and _ARFF_SPECIALS.isdisjoint(text):
        return text
    for char, escape in (("\\", "\\\\"), ("'", "\\'"), ("\r", "\\r"), ("\n", "\\n")):
        text = text.replace(char, escape)
    return f"'{text}'"


def to_arff(table: InstanceTable, relation: str = "traffic") -> str:
    """Render a table in ARFF-compatible text form."""
    lines = [f"@relation {_arff_quote(relation)}", ""]
    for attr in table.schema:
        domain = ",".join(_arff_quote(v) for v in attr.domain)
        lines.append(f"@attribute {_arff_quote(attr.name)} {{{domain}}}")
    lines.append("")
    lines.append("@data")
    for row in table.instances:
        lines.append(",".join(_arff_quote(v) for v in row))
    return "\n".join(lines) + "\n"
