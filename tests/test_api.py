"""The package's public names: every lazily exported name resolves, and
the benchmark harness's traced pipeline still runs on them."""

from pathlib import Path

import pytest

import mockskel
import mockskel.learners
from mockskel.cli import run_pipeline
from mockskel.synth import generate_synthetic_log
from mockskel.traffic import save_jsonl

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_lazily_exported_name_resolves():
    # a name left in a lazy table after its function is gone fails only
    # when first read
    learners = mockskel.learners
    names = [(mockskel, name) for name in mockskel._LAZY]
    names += [(learners, name) for name in [*learners._LAZY, *learners.__all__]]
    assert [f"{m.__name__}.{name}" for m, name in names if not hasattr(m, name)] == []


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
