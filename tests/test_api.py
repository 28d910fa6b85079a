"""The package's public names: every lazily exported name resolves, and
the benchmark harness's traced pipeline and serve replay still run on
them."""

from pathlib import Path

import pytest

import mockskel
from mockskel.cli import run_pipeline
from mockskel.features import ResourceState
from mockskel.server import MockService
from mockskel.skeleton import parse_skeleton
from mockskel.synth import generate_synthetic_log
from mockskel.traffic import HttpRequest, resource_key, save_jsonl, transaction_to_json

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_lazily_exported_name_resolves():
    # a name left in the lazy table after its function is gone fails only
    # when first read
    assert [name for name in mockskel._LAZY if not hasattr(mockskel, name)] == []


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's ``bench/tracing.py`` module."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_bench_traced_pipeline_matches_run_pipeline(tracing, tmp_path):
    recording = tmp_path / "tasks.jsonl"
    save_jsonl(generate_synthetic_log(300, 15, seed=2), recording)
    config = tracing.cli_config(recording, "c45,ripper,part", 1)
    traced = tracing.train_pipeline(tracing.Tracer(enabled=False), config)
    assert config.jobs == 1 and traced["datasets"]
    expected = tracing.emit_outputs(config, run_pipeline(traced["log"], config))
    assert (traced["skeleton_text"], traced["report"]) == expected


def test_bench_serve_replay_matches_a_plain_replay(tracing, tmp_path):
    # c45 misclassifies one of the 300 training rows (a PATCH recorded 404),
    # so agreement is compared with a replay through MockService alone
    import workloads  # on the path the tracing fixture set

    log = generate_synthetic_log(300, 15, seed=2)
    recording = tmp_path / "tasks.jsonl"
    save_jsonl(log, recording)
    config = tracing.cli_config(recording, "c45", 1)
    text = tracing.train_pipeline(tracing.Tracer(enabled=False), config)["skeleton_text"]
    replays = workloads.replays([transaction_to_json(t) for t in log.transactions])
    serve = tracing.serve_replay(tracing.Tracer(), text, replays)

    skeleton = parse_skeleton(text)
    service = MockService(skeleton)
    uris = ["http://localhost" + r.target(0) for r in replays]
    agreed = sum(service.handle(r.method, uri, r.headers, r.body).status_code == r.status
                 for r, uri in zip(replays, uris))
    assert serve["requests"] == len(replays) == 300
    assert serve["agreement"] == agreed / 300 > 0.99
    resources = {resource_key(HttpRequest("GET", uri), skeleton.config.resource) for uri in uris}
    assert serve["state_entries"] == len(resources) * len(ResourceState()) > 0
