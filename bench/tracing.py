"""The traced run: each layer's public functions called in-process and
serially, with spans recorded around every call.

Spans (name, start, end, parent, trace id) are kept in memory and written
out when the run ends.  A span's self time is its duration minus the
durations of its children; calls within one trace are serial, so the
children never overlap.  Trace 0 is the training pipeline, trace 1 the
learner probe and one-off layer calls, and each in-process request of the
serve replay gets a trace of its own.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

from mockskel.cli import PipelineResult, build_parser, choose_models, resolve_run_config, run_pipeline
from mockskel.evaluation import cross_validate, report_json
from mockskel.features import extract_table, serve_input_values
from mockskel.learners import LEARNER_ORDER, EncodedDataset, classify, model_size, train
from mockskel.prep import prepare_all
from mockskel.server import MockService
from mockskel.skeleton import build_skeleton, emit_skeleton, parse_skeleton
from mockskel.traffic import HttpRequest, load_traffic, resource_key

from client import percentile
from workloads import Replay

TRAIN_TRACE, PROBE_TRACE, FIRST_REQUEST_TRACE = 0, 1, 2
PARSE_REPEATS = 5


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, trace id]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: int):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, trace_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over spans."""
        child_time = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start - children) / 1e9
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "trace")
        payload = {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "self_s": self.self_times(),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def cli_config(recording: Path, learners: str, jobs: int):
    """The RunConfig ``mockskel train`` builds for these flags."""
    args = build_parser().parse_args(
        ["train", "--input", str(recording), "--learners", learners, "--jobs", str(jobs)])
    return resolve_run_config(args)


def train_pipeline(tracer: Tracer, config) -> dict:
    """What ``mockskel train`` does, one layer call at a time, serially."""
    t = TRAIN_TRACE
    with tracer.span("train", t):
        with tracer.span("traffic.load", t):
            log = load_traffic(config.input, config.format)
        with tracer.span("features.extract", t):
            table, profile = extract_table(log, config.extraction_config())
        with tracer.span("prep.prepare", t):
            datasets, removals = prepare_all(table, config.prep_config())
        params = config.learner_params()
        result = PipelineResult(table=table, profile=profile, removals=removals, metrics=[])
        for dataset in datasets:
            for learner in config.learners:
                with tracer.span(f"evaluation.cv.{learner}", t):
                    metrics = cross_validate(dataset, learner, params, k=config.folds, seed=config.seed)
                with tracer.span(f"learners.fit.{learner}", t):
                    model = train(learner, dataset, params)
                result.metrics.append(metrics)
                result.models[(dataset.target, learner)] = model
        with tracer.span("skeleton.emit", t):
            text, report = emit_outputs(config, result)
    return {"log": log, "datasets": datasets, "result": result,
            "skeleton_text": text, "report": report}


def emit_outputs(config, result: PipelineResult) -> tuple[str, str]:
    """Skeleton text and report JSON, as ``mockskel train`` writes them."""
    removed = {r.attribute for r in result.removals}
    skeleton = build_skeleton(
        service_name=config.service_name,
        seed=config.seed,
        inputs=tuple(a.name for a in result.table.inputs() if a.name not in removed),
        chosen=choose_models(result, config.learners),
        removals=result.removals,
        config=config.extraction_config(),
        profile=result.profile,
    )
    report = report_json(config.service_name, config.seed, config.folds, result.metrics,
                         result.aggregates(config.service_name), result.removals)
    return emit_skeleton(skeleton), report


def serve_replay(tracer: Tracer, skeleton_text: str, replays: list[Replay]) -> dict:
    """Replay one cycle through ``MockService.handle`` in-process.

    Before each request, the input vector is also built on its own with
    ``serve_input_values`` against the live history, and every target is
    classified, so the two layers under ``handle`` get spans of their own.
    """
    skeleton = parse_skeleton(skeleton_text)
    service = MockService(skeleton)
    models = [entry.model for entry in skeleton.targets.values()]
    agreed = 0
    for i, replay in enumerate(replays):
        t = FIRST_REQUEST_TRACE + i
        uri = "http://localhost" + replay.target(0)
        request = HttpRequest(method=replay.method, uri=uri, headers=replay.headers, body=replay.body)
        history = service.state.history(resource_key(request, skeleton.config.resource))
        with tracer.span("features.serve_input", t):
            values, _ = serve_input_values(skeleton.inputs, request, history, skeleton.config,
                                           also_known=skeleton.dropped_inputs)
        with tracer.span("learners.classify", t):
            for model in models:
                classify(model, values)
        with tracer.span("server.handle", t):
            response = service.handle(replay.method, uri, replay.headers, replay.body)
        agreed += response.status_code == replay.status
    handle_us = [d * 1e6 for d in tracer.durations("server.handle")]
    return {
        "requests": len(replays),
        "agreement": agreed / len(replays),
        "handle_us_mean": statistics.mean(handle_us),
        "handle_us_p50": percentile(handle_us, 0.50),
        "handle_us_p99": percentile(handle_us, 0.99),
        "serve_input_us_p99": percentile([d * 1e6 for d in tracer.durations("features.serve_input")], 0.99),
        "classify_us": tracer.total("learners.classify") * 1e6 / max(1, len(replays) * len(models)),
        "state_entries": sum(len(h) for h in service.state.per_resource.values()),
    }


def traced_run(recording: Path, learners: str, jobs: int, replays: list[Replay],
               out: Path) -> dict:
    """Per-layer metrics for one workload.

    Writes the serial pipeline's skeleton and report to ``out`` (in place
    of a ``mockskel train`` run) and the spans to ``out/spans.json``;
    ``problems`` lists the outputs that disagree.
    """
    config = cli_config(recording, learners, jobs=1)
    problems = []

    # untraced twin first, so both pipelines start from the same heap
    start = time.perf_counter()
    untraced = train_pipeline(Tracer(enabled=False), config)
    untraced_train_s = time.perf_counter() - start
    untraced_outputs = (untraced["skeleton_text"], untraced["report"])
    del untraced

    tracer = Tracer()
    traced = train_pipeline(tracer, config)
    text = traced["skeleton_text"]
    (out / "skeleton.txt").write_text(text, encoding="utf-8")
    (out / "report.json").write_text(traced["report"])
    if untraced_outputs != (text, traced["report"]):
        problems.append("the traced and untraced serial pipelines wrote different outputs")
    t = PROBE_TRACE

    datasets = traced["datasets"]
    for dataset in datasets:
        with tracer.span("learners.encode", t):
            EncodedDataset(dataset)

    # learners the workload does not train with still get measured, on the same tables
    params = config.learner_params()
    sizes = {name: 0 for name in LEARNER_ORDER}
    for (_, learner), model in traced["result"].models.items():
        sizes[learner] += model_size(model)
    for learner in LEARNER_ORDER:
        if learner in config.learners:
            continue
        for dataset in datasets:
            with tracer.span(f"evaluation.cv.{learner}", t):
                cross_validate(dataset, learner, params, k=config.folds, seed=config.seed)
            with tracer.span(f"learners.fit.{learner}", t):
                sizes[learner] += model_size(train(learner, dataset, params))

    parallel = dataclasses.replace(config, jobs=jobs)
    with tracer.span("cli.pipeline", t):
        parallel_result = run_pipeline(traced["log"], parallel)
    if emit_outputs(parallel, parallel_result) != (text, traced["report"]):
        problems.append(f"run_pipeline(jobs={jobs}) and the serial pipeline emit different outputs")
    del parallel_result

    for _ in range(PARSE_REPEATS):
        with tracer.span("skeleton.parse", t):
            parse_skeleton(text)

    tracemalloc.start()
    try:
        extract_table(traced["log"], config.extraction_config())
        _, extract_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    serve = serve_replay(tracer, text, replays)
    tracer.write(out / "spans.json")

    stages = ("features.extract", "prep.prepare") + tuple(
        f"{kind}.{learner}" for learner in config.learners
        for kind in ("evaluation.cv", "learners.fit"))
    serial_stage_s = sum(tracer.total(name) for name in stages)
    pipeline_s = tracer.total("cli.pipeline")
    table = traced["result"].table
    metrics = {
        "traffic.load_s": (tracer.total("traffic.load"), "s"),
        "features.extract_s": (tracer.total("features.extract"), "s"),
        "features.extract_peak_mb": (extract_peak / 2**20, "MB"),
        "features.attributes": (len(table.schema), "count"),
        "prep.prepare_s": (tracer.total("prep.prepare"), "s"),
        "prep.targets": (len(datasets), "count"),
        "prep.inputs": (len(datasets[0].input_attributes), "count"),
        "learners.encode_s": (tracer.total("learners.encode"), "s"),
    }
    for learner in LEARNER_ORDER:
        metrics[f"evaluation.cv_s.{learner}"] = (tracer.total(f"evaluation.cv.{learner}"), "s")
        metrics[f"learners.fit_s.{learner}"] = (tracer.total(f"learners.fit.{learner}"), "s")
        metrics[f"learners.model_size.{learner}"] = (sizes[learner], "count")
    traced_train_s = tracer.total("train")
    metrics.update({
        "cli.pipeline_s": (pipeline_s, "s"),
        "cli.parallel_speedup": (serial_stage_s / pipeline_s, "x"),
        "skeleton.emit_s": (tracer.total("skeleton.emit"), "s"),
        "skeleton.parse_s": (statistics.median(tracer.durations("skeleton.parse")), "s"),
        "skeleton.bytes": (len(text.encode("utf-8")), "bytes"),
        "server.handle_us_p50": (serve["handle_us_p50"], "us"),
        "server.handle_us_p99": (serve["handle_us_p99"], "us"),
        "features.serve_input_us_p99": (serve["serve_input_us_p99"], "us"),
        "learners.classify_us": (serve["classify_us"], "us"),
        "server.state_entries": (serve["state_entries"], "count"),
        "trace.overhead_share": (traced_train_s / untraced_train_s - 1.0, "share"),
    })
    return {
        "metrics": metrics,
        "self_s": tracer.self_times(),
        "traced_train_s": traced_train_s,
        "untraced_train_s": untraced_train_s,
        "transactions": len(traced["log"]),
        "serve": serve,
        "problems": problems,
    }
