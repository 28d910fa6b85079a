"""Command-line entry point: train, evaluate, emit, serve, import-har.

Exit codes: 0 success, 2 usage, 3 I/O error, 4 parse error, 5 degenerate
data (nothing learnable).

The training modules, numpy and the process pool are imported inside
the functions that train, so ``serve`` starts without loading them.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Annotated

from .errors import (
    DegenerateDatasetError,
    MalformedInputError,
    SettingError,
    SkeletonSyntaxError,
    UnknownAttributeError,
    UnparseableUriError,
)
from .features import ExtractionConfig, ExtractionProfile, InstanceTable, extract_table
from .model import Model, model_size
from .settings import (
    LEARNER_ORDER,
    Count,
    LearnerParams,
    PrepConfig,
    Settings,
    Valid,
    at_least,
    read_json,
    read_setting,
    setting_types,
)
from .skeleton import build_skeleton, emit_skeleton, parse_skeleton
from .synth import generate_synthetic_log
from .traffic import TrafficLog, load_traffic, save_jsonl

if TYPE_CHECKING:
    from .evaluation import TargetMetrics
    from .prep import PreparedDataset, Removal

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_DEGENERATE = 5


_FORMATS = Valid(lambda name: name.lower() in ("jsonl", "har"), "jsonl or har")
_LEARNER_NAMES = Valid(
    lambda names: bool(names) and set(names) <= set(LEARNER_ORDER),
    f"a non-empty list of {', '.join(LEARNER_ORDER)}",
)


@dataclass(frozen=True)
class RunConfig(Settings):
    """One run's own settings, and the extraction, preparation and learner
    settings it hands on."""

    input: str = ""
    format: Annotated[str, _FORMATS] = "jsonl"
    learners: Annotated[tuple[str, ...], _LEARNER_NAMES] = LEARNER_ORDER
    seed: int = 1
    folds: Annotated[int, at_least(2)] = 10
    jobs: Count = 0  # 0 means the CPUs this process may use
    service_name: str = ""
    out_skeleton: str = "skeleton.txt"
    out_report: str = "report.json"
    out_csv: str = ""
    extraction: ExtractionConfig = ExtractionConfig()
    prep: PrepConfig = PrepConfig()
    params: LearnerParams = LearnerParams()

    def prep_config(self) -> PrepConfig:
        return self.prep

    def extraction_config(self) -> ExtractionConfig:
        return self.extraction

    def learner_params(self) -> LearnerParams:
        """The learner settings, RIPPER's seeded with the run's seed."""
        return replace(self.params, ripper=replace(self.params.ripper, seed=self.seed))


#: every config-file key, each also the ``dest`` of its flag if it has one,
#: and the dotted path of the RunConfig field it sets
CONFIG_KEYS = {
    **{name: name for name, hint in setting_types(RunConfig).items() if not is_dataclass(hint)},
    "max_target_cardinality": "prep.max_target_cardinality",
    "max_target_distinct_ratio": "prep.max_target_distinct_ratio",
    "keep_single_valued_inputs": "prep.keep_single_valued_inputs",
    "max_path_depth": "extraction.max_path_depth",
    "id_patterns": "extraction.resource.id_patterns",
    "strip_tokens": "extraction.resource.strip_tokens",
    "crud_patterns": "extraction.resource.crud_token_classes",
    "auth_header_names": "extraction.auth_header_names",
    "auth_header_patterns": "extraction.auth_header_patterns",
    "c45_confidence": "params.c45.confidence_factor",
    "c45_min_leaf": "params.c45.min_leaf_instances",
    "ripper_folds_split": "params.ripper.folds_split",
    "ripper_min_rule_coverage": "params.ripper.min_rule_coverage",
    "ripper_optimization_runs": "params.ripper.optimization_runs",
    "part_confidence": "params.part.confidence_factor",
    "part_min_leaf": "params.part.min_leaf_instances",
}


def _with(obj, path: str, value, key: str):
    """``obj`` with the field at the dotted ``path`` set to the setting that
    the JSON ``value`` under ``key`` gives."""
    name, _, rest = path.partition(".")
    if rest:
        value = _with(getattr(obj, name), rest, value, key)
    else:
        value = read_setting(setting_types(type(obj))[name], value, key)
    return replace(obj, **{name: value})


def _read_user_text(path: str) -> str:
    """A text file the user wrote: UTF-8, with or without a byte-order
    mark.  One that does not decode is a parse error naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path}: not UTF-8 text: {exc}") from exc


def resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file supplies defaults, explicit flags win.  Each value is
    read as its field's type and checked against its field's range; a bad
    one raises SettingError naming the config key or the flag."""
    given = []  # (name in messages, key, value)
    if getattr(args, "config", None):
        file_values = read_json(_read_user_text(args.config))
        if not isinstance(file_values, dict):
            raise SettingError(f"config file must be a JSON object, not {file_values!r}")
        if unknown := sorted(file_values.keys() - CONFIG_KEYS.keys()):
            raise SettingError(f"unknown config keys: {unknown}")
        given += [(f"config key {key!r}", key, value) for key, value in file_values.items()]
    for key in CONFIG_KEYS:
        if (value := getattr(args, key, None)) is not None:
            given.append(("--" + key.replace("_", "-"), key, value))
    config = RunConfig()
    for name, key, value in given:
        if key == "learners" and type(value) is str:  # comma-separated, file or flag
            value = value.split(",")
        config = _with(config, CONFIG_KEYS[key], value, name)
    if not config.service_name:
        config = replace(config, service_name=Path(config.input).stem if config.input else "service")
    return config


# ---------------------------------------------------------------------------
# Pipeline


@dataclass
class PipelineResult:
    table: InstanceTable
    profile: ExtractionProfile
    removals: tuple[Removal, ...]
    metrics: list[TargetMetrics]
    models: dict[tuple[str, str], Model] = field(default_factory=dict)

    def aggregates(self, dataset_name: str):
        from .evaluation import aggregate

        out = []
        for learner in LEARNER_ORDER:
            per_learner = [m for m in self.metrics if m.learner == learner]
            if per_learner:
                out.append(aggregate(per_learner, dataset=dataset_name))
        return out


@dataclass(frozen=True)
class _TrainJob:
    """What every (target, learner) task of one run reads: the datasets,
    all views of one encoded table, and the run's settings."""

    datasets: tuple[PreparedDataset, ...]
    params: LearnerParams
    folds: int
    seed: int

    def run(self, target: int, learner: str) -> tuple[TargetMetrics, Model]:
        """Cross-validate ``learner`` on dataset ``target``, then fit it on
        every row."""
        from .evaluation import cross_validate
        from .learners import train

        dataset = self.datasets[target]
        metrics = cross_validate(dataset, learner, self.params, k=self.folds, seed=self.seed)
        return metrics, train(learner, dataset, self.params)


#: the job of this worker process, set once by ``_start_worker``
_worker_job: _TrainJob | None = None


def _start_worker(job: _TrainJob) -> None:
    global _worker_job
    _worker_job = job


def _run_in_worker(target: int, learner: str) -> tuple[TargetMetrics, Model]:
    return _worker_job.run(target, learner)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pipeline(traffic_log: TrafficLog, config: RunConfig) -> PipelineResult:
    """Extract, prepare and encode once, then cross-validate and fit every
    (target, learner) pair.  Pool workers receive the datasets once, when
    they start; each task names only a dataset and a learner."""
    from .prep import prepare_all

    table, profile = extract_table(traffic_log, config.extraction_config())
    datasets, removals = prepare_all(table, config.prep_config())
    if not datasets:
        raise DegenerateDatasetError("no learnable targets after preparation")
    job = _TrainJob(tuple(datasets), config.learner_params(), config.folds, config.seed)
    tasks = [(t, learner) for t in range(len(datasets)) for learner in config.learners]
    jobs = min(config.jobs or _usable_cpus(), len(tasks))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker, initargs=(job,)) as pool:
            futures = [pool.submit(_run_in_worker, t, learner) for t, learner in tasks]
            results = [f.result() for f in futures]
    else:
        results = [job.run(t, learner) for t, learner in tasks]
    out = PipelineResult(table=table, profile=profile, removals=removals, metrics=[])
    for (t, learner), (metrics, model) in zip(tasks, results):
        out.metrics.append(metrics)
        out.models[(datasets[t].target, learner)] = model
    return out


def choose_models(result: PipelineResult, learners: tuple[str, ...]):
    """Per target, the learner with the best CV accuracy (ties prefer the
    smaller model, then learner order)."""
    chosen = {}
    targets = list(dict.fromkeys(m.target for m in result.metrics))
    by_key = {(m.target, m.learner): m for m in result.metrics}
    for target in targets:
        candidates = []
        for order, learner in enumerate(name for name in LEARNER_ORDER if name in learners):
            metrics = by_key.get((target, learner))
            if metrics is None:
                continue
            model = result.models[(target, learner)]
            candidates.append((-round(metrics.accuracy, 9), model_size(model), order, learner, model, metrics))
        candidates.sort(key=lambda c: c[:3])
        _, _, _, learner, model, metrics = candidates[0]
        chosen[target] = (learner, model, metrics)
    return chosen


# ---------------------------------------------------------------------------
# Subcommands


def _load_input(config: RunConfig) -> TrafficLog:
    if config.input == "@synthetic":  # built-in generator, for demos and tests
        return generate_synthetic_log(seed=config.seed)
    return load_traffic(config.input, config.format)


def _run_and_report(args: argparse.Namespace, training: bool) -> int:
    """The body of ``train`` and ``evaluate``: run the pipeline, then write
    the skeleton (``train`` only), the report and the optional CSV, in
    that order, and print the aggregate table and what was written."""
    from .evaluation import metrics_csv, render_aggregate_table, report_json

    config = resolve_run_config(args)
    result = run_pipeline(_load_input(config), config)
    aggregates = result.aggregates(config.service_name)
    if training:
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
        Path(config.out_skeleton).write_text(emit_skeleton(skeleton), encoding="utf-8")
    report = report_json(
        config.service_name, config.seed, config.folds, result.metrics, aggregates, result.removals
    )
    Path(config.out_report).write_text(report, encoding="utf-8")
    if config.out_csv:  # a lone surrogate in a target name is written as its escape
        Path(config.out_csv).write_text(
            metrics_csv(result.metrics), encoding="utf-8", errors="backslashreplace"
        )
    print(render_aggregate_table(aggregates))
    if training:
        print(f"skeleton written to {config.out_skeleton}")
    print(f"report written to {config.out_report}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    return _run_and_report(args, training=False)


def cmd_train(args: argparse.Namespace) -> int:
    return _run_and_report(args, training=True)


def cmd_emit(args: argparse.Namespace) -> int:
    """Validate and re-render a (possibly hand-edited) skeleton."""
    skeleton = parse_skeleton(_read_user_text(args.skeleton))
    text = emit_skeleton(skeleton)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"normalized skeleton written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import serve_skeleton

    text = _read_user_text(args.skeleton)
    skeleton = parse_skeleton(text)  # syntax errors surface before the port binds
    server = serve_skeleton(
        skeleton, port=args.port, strict=args.strict, skeleton_text=text, host=args.host
    )
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    host, port = server.server_address[:2]
    print(f"serving {skeleton.service_name} on http://{host}:{port} "
          f"({len(skeleton.targets)} predicted targets{', strict' if args.strict else ''})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_import_har(args: argparse.Namespace) -> int:
    traffic_log = load_traffic(args.input, "har")
    save_jsonl(traffic_log, args.out)
    print(f"{len(traffic_log)} transactions written to {args.out}"
          + (f" ({traffic_log.skipped_methods} skipped)" if traffic_log.skipped_methods else ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_pipeline_options(sub: argparse.ArgumentParser, training: bool) -> None:
    sub.add_argument("--input", help="traffic recording path (or @synthetic)")
    sub.add_argument("--format", choices=["jsonl", "har"], help="input format (default jsonl)")
    sub.add_argument("--learners", help="comma-separated subset of c45,ripper,part")
    sub.add_argument("--seed", type=int, help="seed for folds and rule induction (default 1)")
    sub.add_argument("--folds", type=int, help="cross-validation folds (default 10)")
    sub.add_argument("--jobs", type=int, help="parallel workers (default: the CPUs usable)")
    sub.add_argument("--service-name", dest="service_name", help="name recorded in outputs")
    sub.add_argument("--config", help="JSON config file mirroring these flags (flags win)")
    sub.add_argument("--max-target-cardinality", dest="max_target_cardinality", type=int)
    sub.add_argument("--max-target-distinct-ratio", dest="max_target_distinct_ratio", type=float)
    sub.add_argument(
        "--keep-single-valued-inputs",
        dest="keep_single_valued_inputs",
        action="store_const",
        const=True,
    )
    sub.add_argument("--max-path-depth", dest="max_path_depth", type=int)
    sub.add_argument("--out-report", dest="out_report", help="report JSON path")
    sub.add_argument("--out-csv", dest="out_csv", help="per-target CSV path")
    if training:
        sub.add_argument("--out-skeleton", dest="out_skeleton", help="skeleton output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mockskel",
        description="Learn editable mock skeletons of HTTP services from recorded traffic.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    train_p = subs.add_parser("train", help="full pipeline: ingest, learn, evaluate, emit skeleton")
    _add_pipeline_options(train_p, training=True)
    train_p.set_defaults(func=cmd_train)

    eval_p = subs.add_parser("evaluate", help="cross-validate learners, write the report only")
    _add_pipeline_options(eval_p, training=False)
    eval_p.set_defaults(func=cmd_evaluate)

    emit_p = subs.add_parser("emit", help="validate and normalize a skeleton file")
    emit_p.add_argument("--skeleton", required=True)
    emit_p.add_argument("--out")
    emit_p.set_defaults(func=cmd_emit)

    serve_p = subs.add_parser("serve", help="serve synthesized responses from a skeleton")
    serve_p.add_argument("--skeleton", required=True)
    serve_p.add_argument("--host", default="127.0.0.1", help="address to bind (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8080)
    serve_p.add_argument(
        "--strict",
        action="store_true",
        help="respond 501 to method+path shapes never seen in training",
    )
    serve_p.set_defaults(func=cmd_serve)

    har_p = subs.add_parser("import-har", help="convert a HAR archive to the native JSONL format")
    har_p.add_argument("--input", required=True)
    har_p.add_argument("--out", required=True)
    har_p.set_defaults(func=cmd_import_har)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        MalformedInputError,
        SettingError,
        SkeletonSyntaxError,
        UnknownAttributeError,
        UnparseableUriError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateDatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
