import json
from datetime import datetime, timedelta, timezone

import pytest

from mockskel.features import Attribute, InstanceTable, Role
from mockskel.prep import PreparedDataset, encode_table
from mockskel.synth import generate_synthetic_log
from mockskel.traffic import resource_key


@pytest.fixture(scope="session")
def synth_log():
    """The acceptance-scale synthetic recording (5000 transactions)."""
    return generate_synthetic_log(5000, 200, seed=7)


@pytest.fixture(scope="session")
def small_synth_log():
    return generate_synthetic_log(800, 40, seed=3)


def make_dataset(rows, input_names, target_name="statusCode"):
    """Build a single-target PreparedDataset from (inputs..., target) rows."""
    schema = tuple(Attribute(n, Role.INPUT) for n in input_names) + (
        Attribute(target_name, Role.TARGET),
    )
    table = InstanceTable(schema, tuple(tuple(str(v) for v in row) for row in rows))
    return PreparedDataset(encode_table(table), 0)


def table_row(table, i):
    """Row ``i`` of an instance table as name -> value."""
    return dict(zip(table.names, table.instances[i]))


def column(table, name):
    """The values of attribute ``name`` in an instance table, row by row."""
    i = table.names.index(name)
    return [row[i] for row in table.instances]


def group_by_resource(log):
    """A log's transactions by their ``resource_key``, each list in log order."""
    groups = {}
    for txn in log.transactions:
        groups.setdefault(resource_key(txn.request), []).append(txn)
    return groups


def dataset_row(ds, i):
    """Row ``i`` of a prepared dataset as name -> value, decoded from its codes."""
    row = {name: domain[code] for name, domain, code in zip(ds.names, ds.domains, ds.X[i])}
    row[ds.target] = ds.target_domain[ds.y[i]]
    return row


def target_labels(ds):
    """The target column of a prepared dataset, decoded from its codes."""
    return [ds.target_domain[code] for code in ds.y]


def har_document(records, mime_types=None):
    """A HAR 1.2 document whose entry i stands for native record i (its
    ``id`` and ``sequence`` aside): the inverse of the mapping the HAR
    reader applies.  A request body's ``postData.mimeType`` is
    ``mime_types[i]``; like the other fields written here that have no
    native counterpart, the reader ignores it."""

    def headers(pairs):
        return [{"name": name, "value": value} for name, value in pairs]

    entries = []
    for i, record in enumerate(records):
        req, resp = record["request"], record["response"]
        request = {"method": req["method"], "url": req["uri"], "httpVersion": "HTTP/1.1",
                   "headers": headers(req.get("headers", ())), "cookies": []}
        if req.get("body") is not None:
            mime = mime_types[i] if mime_types else "application/octet-stream"
            request["postData"] = {"mimeType": mime, "text": req["body"]}
        content = {"size": -1, "mimeType": "x-unmapped/ignored"}
        if resp.get("body") is not None:
            content["text"] = resp["body"]
        elif "bodyB64" in resp:
            content.update(text=resp["bodyB64"], encoding="base64")
        entry = {"request": request, "response": {
            "status": resp["status"], "headers": headers(resp.get("headers", ())), "content": content}}
        if record.get("timestamp") is not None:
            started = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(milliseconds=record["timestamp"])
            entry["startedDateTime"] = started.isoformat(timespec="milliseconds").replace("+00:00", "Z")
        entries.append(entry)
    return json.dumps({"log": {"version": "1.2", "entries": entries}}).encode()
