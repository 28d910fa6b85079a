"""Seeded recordings for the benchmark workloads.

Each generator returns a list of transactions in the native JSONL object
form (see the README's "Recording format"), so the program under test
only ever sees the files written by :func:`write_jsonl`.  The same
``(workload, seed)`` always yields the same bytes.

* ``tasks`` wraps the package's own ``generate_synthetic_log``.
* ``hot`` puts most traffic on one resource, so per-resource history is
  long, with a cold tail of short-lived resources.
* ``wide`` has many request inputs and many response targets, each a
  deterministic function of the method, the resource's state and at most
  one query key.

``hot`` and ``wide`` derive their status codes from
``mockskel.synth.expected_status``, the same rule set as ``tasks``, so the
recorded status is the oracle the replay is scored against.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from urllib.parse import urlencode

from mockskel.synth import expected_status, generate_synthetic_log

#: per-workload shape; ``learners`` is what ``mockskel train`` is given and
#: ``train_runs`` how many times one benchmark run trains (``train_s`` is the
#: median).  ``hot`` trains in about 4 s, so a short host stall moves one of
#: its runs by a large share; ``tasks`` and ``wide`` train for 8-12 s.
SIZES = {
    "tasks": {"transactions": 10_000, "resources": 400, "learners": "c45,ripper,part",
              "train_runs": 1},
    "hot": {"transactions": 8_000, "hot_share": 0.75, "learners": "c45", "train_runs": 3},
    "wide": {"transactions": 5_000, "learners": "c45", "train_runs": 1},
}

#: resource ids of replay cycle ``c`` are shifted by ``c * CYCLE_ID_STRIDE``
CYCLE_ID_STRIDE = 1_000_000


@dataclass(frozen=True)
class Replay:
    """One recorded request as the HTTP client sends it."""

    method: str
    path: str  # "/<collection>/<id>" without the query
    query: str  # "" or "?a=b"
    headers: tuple[tuple[str, str], ...]
    body: bytes | None
    status: int  # recorded (oracle) status

    def target(self, cycle: int) -> str:
        """Request target with the resource id moved to cycle ``cycle``."""
        collection, _, rid = self.path.rpartition("/")
        return f"{collection}/{int(rid) + cycle * CYCLE_ID_STRIDE}{self.query}"


def _record(seq: int, method: str, uri: str, headers, body: bytes | None,
            status: int, resp_headers, resp_body: bytes | None) -> dict:
    request = {"method": method, "uri": uri, "headers": [list(h) for h in headers]}
    if body is not None:
        request["body"] = body.decode("utf-8")
    response = {"status": status, "headers": [list(h) for h in resp_headers]}
    if resp_body is not None:
        response["body"] = resp_body.decode("utf-8")
    return {"id": f"b-{seq}", "sequence": seq, "request": request, "response": response}


def _json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


# ---------------------------------------------------------------------------
# tasks


def tasks_log(seed: int) -> list[dict]:
    size = SIZES["tasks"]
    log = generate_synthetic_log(size["transactions"], size["resources"], seed=seed)
    return [
        _record(i, t.request.method, t.request.uri, t.request.headers, t.request.body,
                t.response.status_code, t.response.headers, t.response.body)
        for i, t in enumerate(log.transactions)
    ]


# ---------------------------------------------------------------------------
# hot: the task service's rules, one resource carrying most of the traffic

_TASKS_HOST = "tasks.example.test"


def _task_response(status: int, rid: int):
    if status == 204:
        return [], None
    if status in (200, 201):
        body = {"ok": True, "id": rid, "title": f"task {rid}"}
    else:
        body = {"ok": False, "error": "not-found" if status == 404 else "bad-request"}
    return [("Content-Type", "application/json")], _json(body)


def _task_script(rng: random.Random, length: int, allow_delete: bool) -> list[tuple[str, bool]]:
    """(method, body_is_valid_json) steps of one resource's lifecycle."""
    script: list[tuple[str, bool]] = []
    if rng.random() < 0.3:
        script.append((rng.choice(["GET", "GET", "PATCH", "DELETE"]), True))
    script.append(("POST", True))
    while len(script) < length:
        op = rng.random()
        if op < 0.65:
            script.append(("GET", True))
        elif op < 0.90:
            script.append(("PATCH", True))
        else:
            script.append(("PATCH", False))
    script = script[:max(length, 1)]
    if allow_delete and len(script) > 1 and rng.random() < 0.3:
        script[-1] = ("DELETE", True)
    return script


def _task_transactions(rng: random.Random, rid: int, script) -> list[tuple]:
    uri = f"https://{_TASKS_HOST}/tasks/{rid}"
    created = False
    out = []
    for method, valid in script:
        body = None
        headers = []
        if method in ("POST", "PATCH"):
            body = _json({"title": f"task {rid}"}) if valid else b'{"title": broken'
            headers.append(("Content-Type", "application/json"))
        if rng.random() < 0.5:
            headers.append(("Authorization", "Bearer synthetic-token"))
        status = expected_status(method, created, body is not None and valid)
        created = created or method == "POST"
        resp_headers, resp_body = _task_response(status, rid)
        out.append((method, uri, headers, body, status, resp_headers, resp_body))
    return out


def hot_log(seed: int) -> list[dict]:
    size = SIZES["hot"]
    rng = random.Random(seed)
    n = size["transactions"]
    n_hot = int(n * size["hot_share"])
    hot_id = rng.randint(1, 9999)
    hot = _task_transactions(rng, hot_id, _task_script(rng, n_hot, allow_delete=False))
    tail: list[tuple] = []
    rid = 10_000
    while len(tail) < n - len(hot):
        rid += 1
        length = rng.choice([1, 1, 1, 1, 1, 1, 2])
        tail.extend(_task_transactions(rng, rid, _task_script(rng, length, allow_delete=True)))
    tail = tail[:n - len(hot)]
    # interleave: the hot resource's requests land at random positions,
    # each stream keeps its own order
    slots = [True] * len(hot) + [False] * len(tail)
    rng.shuffle(slots)
    hot_iter, tail_iter = iter(hot), iter(tail)
    return [
        _record(i, *(next(hot_iter) if is_hot else next(tail_iter)))
        for i, is_hot in enumerate(slots)
    ]


# ---------------------------------------------------------------------------
# wide: ~40 inputs, ~25 targets

_WIDE_HOST = "items.example.test"

#: optional query keys and their values; each decides at most one target
_QUERY = {
    "lang": ["en", "de", "fr"],
    "format": ["full", "compact"],
    "page": ["1", "2", "3", "4", "5"],
    "limit": ["10", "20", "50"],
    "sort": ["asc", "desc"],
    "view": ["a", "b"],
    "expand": ["owner", "tags"],
    "trace": ["0", "1"],
}

#: request headers that decide nothing, each in several spellings
_HEADERS = {
    "Accept": (["Accept", "accept"], ["application/json", "*/*"]),
    "Accept-Language": (["Accept-Language", "accept-language"], ["en", "de", "fr"]),
    "User-Agent": (["User-Agent", "user-agent"], ["cli/1.0", "web/2.3", "app/4.1"]),
    "X-Client-Version": (["X-Client-Version", "x-client-version"], ["1", "2", "3"]),
    "X-Tenant": (["X-Tenant", "x-tenant", "X-TENANT"], ["t1", "t2", "t3", "t4"]),
    "X-Region": (["X-Region", "x-region"], ["eu", "us", "ap"]),
    "X-Request-Priority": (["X-Request-Priority", "x-request-priority"], ["low", "high"]),
    "Cookie": (["Cookie", "cookie"], ["session=a", "session=b"]),
}


def _wide_body(rng: random.Random) -> dict:
    return {
        "name": rng.choice(["alpha", "beta", "gamma", "delta", "eps", "zeta"]),
        "color": rng.choice(["red", "green", "blue", "black", "white"]),
        "size": rng.choice(["S", "M", "L"]),
        "qty": rng.randint(1, 5),
        "priority": rng.choice(["low", "high"]),
        "flag": rng.random() < 0.5,
        "note": rng.choice(["", "rush", "gift"]),
        "tags": [rng.choice(["x", "y", "z"])],
        "meta": {"source": rng.choice(["web", "app", "cli"]), "rev": rng.randint(1, 3)},
    }


def wide_response(method: str, status: int, query: dict, created: bool,
                  updated: bool, prev: str | None, rid: int):
    """The wide service's response: every field is a function of the
    method, the status, the resource state and at most one query key."""
    ok = status in (200, 201)
    headers = [
        ("Cache-Control", "max-age=60" if method == "GET" else "no-store"),
        ("Allow", "GET, PATCH, DELETE" if created or method == "POST" else "POST"),
        ("X-Prev-Method", prev or "none"),
        ("X-Rate-Limit", "1000"),
    ]
    state = "created" if method == "POST" else "modified" if updated else "stable"
    if created or method == "POST":
        headers.append(("X-Resource-State", state))
    if ok and "lang" in query:
        headers.append(("Content-Language", query["lang"]))
    if status == 200 and "format" in query:
        headers.append(("X-Format", query["format"]))
    if method == "GET" and status == 200:
        for key in ("page", "limit"):
            if key in query:
                headers.append((f"X-{key.title()}", query[key]))
    if method == "GET" and "sort" in query:
        headers.append(("X-Sort", query["sort"]))
    if "view" in query:
        headers.append(("X-View", query["view"]))
    if ok and "expand" in query:
        headers.append(("X-Expand", query["expand"]))
    if query.get("trace") == "1":
        headers.append(("X-Debug", "on"))
    if status == 204:
        return headers, None
    headers.insert(0, ("Content-Type", "application/json"))
    body: dict = {"ok": status < 400, "version": "v2"}
    if ok:
        body.update({
            "id": rid,
            "state": state,
            "lang": query.get("lang", "en"),
            "format": query.get("format", "full"),
            "meta": {"method": method, "prev": prev, "updated": updated,
                     "sort": query.get("sort", "asc")},
        })
        if method == "GET":
            body["page"] = int(query.get("page", "1"))
            body["limit"] = int(query.get("limit", "20"))
    else:
        body["error"] = "not-found" if status == 404 else "bad-request"
    return headers, _json(body)


def _wide_transactions(rng: random.Random, rid: int) -> list[tuple]:
    script = _task_script(rng, rng.randint(3, 40), allow_delete=True)
    path = f"https://{_WIDE_HOST}/items/{rid}"
    created = updated = False
    prev = None
    out = []
    for method, valid in script:
        query = {k: rng.choice(v) for k, v in _QUERY.items() if rng.random() < 0.3}
        uri = path + ("?" + urlencode(query) if query else "")
        headers = []
        for spellings, values in _HEADERS.values():
            if rng.random() < 0.6:
                headers.append((rng.choice(spellings), rng.choice(values)))
        body = None
        if method in ("POST", "PATCH"):
            body = _json(_wide_body(rng)) if valid else b'{"name": broken'
            headers.append((rng.choice(["Content-Type", "content-type"]), "application/json"))
        if rng.random() < 0.5:
            headers.append(("Authorization", "Bearer wide-token"))
        status = expected_status(method, created, body is not None and valid)
        resp_headers, resp_body = wide_response(method, status, query, created, updated, prev, rid)
        out.append((method, uri, headers, body, status, resp_headers, resp_body))
        created = created or method == "POST"
        updated = updated or method == "PATCH"
        prev = method
    return out


def wide_log(seed: int) -> list[dict]:
    rng = random.Random(seed)
    n = SIZES["wide"]["transactions"]
    queues: list[list[tuple]] = []
    total = 0
    rid = 0
    while total < n:
        rid += 1
        queues.append(_wide_transactions(rng, rid))
        total += len(queues[-1])
    out: list[dict] = []
    while queues and len(out) < n:
        i = rng.randrange(len(queues))
        out.append(_record(len(out), *queues[i].pop(0)))
        if not queues[i]:
            queues.pop(i)
    return out


GENERATORS = {"tasks": tasks_log, "hot": hot_log, "wide": wide_log}


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":"), ensure_ascii=False))
            fh.write("\n")


def replays(records: list[dict]) -> list[Replay]:
    """The requests of a recording, as the HTTP client sends them."""
    out = []
    for record in records:
        request = record["request"]
        _, _, rest = request["uri"].partition("://")
        _, _, target = rest.partition("/")
        path, sep, query = ("/" + target).partition("?")
        body = request.get("body")
        out.append(Replay(
            method=request["method"],
            path=path,
            query=sep + query,
            headers=tuple((n, v) for n, v in request["headers"]),
            body=body.encode("utf-8") if body is not None else None,
            status=record["response"]["status"],
        ))
    return out
