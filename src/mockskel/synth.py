"""Deterministic synthetic traffic generator for exercising the pipeline.

Simulates a small task-store service whose status codes follow a fixed
rule set over per-resource state:

  * POST on a fresh resource creates it -> 201
  * PATCH with a body that is not valid JSON -> 400
  * GET / PATCH / DELETE on a never-created resource -> 404
  * GET / valid PATCH after create -> 200
  * DELETE after create -> 204 (and the resource sees no further traffic)

Because deletion is terminal and resources are never re-created, the
status code is an exact function of (method, everCreated,
hasValidPayload), which a learner can recover from the extracted
features.
"""

from __future__ import annotations

import json
import random

from .traffic import HttpRequest, HttpResponse, HttpTransaction, TrafficLog


def expected_status(method: str, ever_created: bool, has_valid_payload: bool) -> int:
    """The generating rule: ground truth for oracle checks."""
    if method == "POST":
        return 201
    if method == "PATCH" and not has_valid_payload:
        return 400
    if not ever_created:
        return 404
    if method == "DELETE":
        return 204
    return 200


def _response_for(status: int, resource_id: int, title: str) -> HttpResponse:
    if status in (200, 201):
        body = json.dumps({"ok": True, "id": resource_id, "title": title}).encode()
    elif status == 404:
        body = json.dumps({"ok": False, "error": "not-found"}).encode()
    elif status == 400:
        body = json.dumps({"ok": False, "error": "bad-request"}).encode()
    else:  # 204
        return HttpResponse(status_code=status)
    return HttpResponse(
        status_code=status,
        headers=[("Content-Type", "application/json")],
        body=body,
    )


def _resource_script(rng: random.Random, resource_id: int, host: str) -> list[HttpTransaction]:
    """Unsequenced transactions for one resource's lifecycle, in order."""
    uri = f"https://{host}/tasks/{resource_id}"
    title = f"task {resource_id}"
    script: list[tuple[str, bytes | None, bool]] = []  # (method, body, body_is_valid_json)

    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):  # probes before creation
        script.append((rng.choice(["GET", "GET", "PATCH", "DELETE"]), None, False))
    script.append(("POST", json.dumps({"title": title}).encode(), True))
    for _ in range(rng.randint(2, 42)):
        op = rng.random()
        if op < 0.65:
            script.append(("GET", None, False))
        elif op < 0.90:
            script.append(("PATCH", json.dumps({"title": title + "!"}).encode(), True))
        else:
            script.append(("PATCH", b'{"title": broken', False))
    if rng.random() < 0.5:
        script.append(("DELETE", None, False))

    ever_created = False
    transactions = []
    for method, body, body_valid in script:
        # PATCH probes carry the same body shape as ordinary updates
        if method == "PATCH" and body is None:
            body = json.dumps({"title": title + "!"}).encode()
            body_valid = True
        has_valid = body_valid and body is not None
        status = expected_status(method, ever_created, has_valid)
        if method == "POST":
            ever_created = True
        headers = []
        if body is not None:
            headers.append(("Content-Type", "application/json"))
        if rng.random() < 0.5:
            headers.append(("Authorization", "Bearer synthetic-token"))
        request = HttpRequest(method=method, uri=uri, headers=headers, body=body)
        transactions.append((request, _response_for(status, resource_id, title)))
    return transactions


def generate_synthetic_log(
    n_transactions: int = 5000,
    n_resources: int = 200,
    seed: int = 7,
    host: str = "tasks.example.test",
) -> TrafficLog:
    """Interleaved multi-resource traffic, ``n_transactions`` long.

    Per-resource transaction order is preserved under the interleaving,
    so state features stay consistent.  Output is deterministic in the
    seed.
    """
    rng = random.Random(seed)
    queues: list[list] = []
    resource_id = 0
    total = 0
    # scripts for n_resources resources, plus extras if traffic runs short
    while total < n_transactions or resource_id < n_resources:
        resource_id += 1
        script = _resource_script(rng, resource_id, host)
        queues.append(script)
        total += len(script)

    transactions: list[HttpTransaction] = []
    live = [q for q in queues if q]
    while live and len(transactions) < n_transactions:
        i = rng.randrange(len(live))
        request, response = live[i].pop(0)
        seq = len(transactions)
        transactions.append(
            HttpTransaction(id=f"syn-{seq}", sequence=seq, request=request, response=response)
        )
        if not live[i]:
            live.pop(i)
    return TrafficLog(transactions=tuple(transactions))
