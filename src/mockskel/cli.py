"""Command-line entry point: train, evaluate, emit, serve, import-har.

Exit codes: 0 success, 2 usage, 3 I/O error, 4 parse error, 5 degenerate
data (nothing learnable).

The training modules, and numpy with them, are imported inside the
functions that train, so ``serve`` starts without loading them.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    DegenerateDatasetError,
    MalformedInputError,
    SkeletonSyntaxError,
    UnknownAttributeError,
    UnparseableUriError,
)
from .features import ExtractionConfig, ExtractionProfile, InstanceTable, extract_table
from .learners import LEARNER_ORDER, Model, model_size
from .skeleton import build_skeleton, emit_skeleton, parse_skeleton
from .synth import generate_synthetic_log
from .traffic import (
    DEFAULT_CRUD_TOKEN_CLASSES,
    DEFAULT_ID_PATTERNS,
    ResourceKeyConfig,
    TrafficLog,
    load_traffic,
    save_jsonl,
)

if TYPE_CHECKING:
    from .evaluation import TargetMetrics
    from .learners import LearnerParams
    from .prep import EncodedTable, PrepConfig, Removal

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_DEGENERATE = 5


@dataclass
class RunConfig:
    input: str = ""
    format: str = "jsonl"
    learners: tuple[str, ...] = LEARNER_ORDER
    seed: int = 1
    folds: int = 10
    jobs: int = 0  # 0 means logical core count
    service_name: str = ""
    max_target_cardinality: int = 32
    max_target_distinct_ratio: float = 0.5
    keep_single_valued_inputs: bool = False
    max_path_depth: int = 16
    # resource keys / CRUD classification (config-file keys)
    id_patterns: tuple[str, ...] = DEFAULT_ID_PATTERNS
    strip_tokens: tuple[str, ...] = tuple(DEFAULT_CRUD_TOKEN_CLASSES)
    crud_patterns: dict = field(default_factory=lambda: dict(DEFAULT_CRUD_TOKEN_CLASSES))
    auth_header_names: tuple[str, ...] = ("Authorization", "Cookie")
    auth_header_patterns: tuple[str, ...] = ("x-*-token",)
    # learner parameters (config-file keys; documented tool defaults)
    c45_confidence: float = 0.25
    c45_min_leaf: int = 2
    ripper_folds_split: int = 3
    ripper_min_rule_coverage: int = 2
    ripper_optimization_runs: int = 2
    part_confidence: float = 0.25
    part_min_leaf: int = 2
    out_skeleton: str = "skeleton.txt"
    out_report: str = "report.json"
    out_csv: str = ""

    def prep_config(self) -> PrepConfig:
        from .prep import PrepConfig

        return PrepConfig(
            max_target_cardinality=self.max_target_cardinality,
            max_target_distinct_ratio=self.max_target_distinct_ratio,
            drop_single_valued_inputs=not self.keep_single_valued_inputs,
        )

    def extraction_config(self) -> ExtractionConfig:
        resource = ResourceKeyConfig(
            id_patterns=tuple(self.id_patterns),
            strip_tokens=tuple(self.strip_tokens),
            crud_token_classes=tuple(dict(self.crud_patterns).items()),
        )
        return ExtractionConfig(
            resource=resource,
            auth_header_names=tuple(self.auth_header_names),
            auth_header_patterns=tuple(self.auth_header_patterns),
            max_path_depth=self.max_path_depth,
        )

    def learner_params(self) -> LearnerParams:
        from .learners import C45Params, LearnerParams, PartParams, RipperParams

        return LearnerParams(
            c45=C45Params(self.c45_confidence, self.c45_min_leaf),
            ripper=RipperParams(
                folds_split=self.ripper_folds_split,
                min_rule_coverage=self.ripper_min_rule_coverage,
                optimization_runs=self.ripper_optimization_runs,
                seed=self.seed,
            ),
            part=PartParams(self.part_confidence, self.part_min_leaf),
        )


_CONFIG_KEYS = {f.name for f in RunConfig.__dataclass_fields__.values()}  # type: ignore[attr-defined]


def resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file supplies defaults, explicit flags win."""
    config = RunConfig()
    if getattr(args, "config", None):
        file_values = json.loads(Path(args.config).read_text())
        unknown = set(file_values) - _CONFIG_KEYS
        if unknown:
            raise MalformedInputError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            setattr(config, key, tuple(value) if key == "learners" else value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if isinstance(config.learners, str):
        config.learners = tuple(config.learners.split(","))
    for name in config.learners:
        if name not in LEARNER_ORDER:
            raise MalformedInputError(f"unknown learner {name!r} (expected subset of {LEARNER_ORDER})")
    if not config.learners:
        raise MalformedInputError("at least one learner must be selected")
    if not config.service_name:
        config.service_name = Path(config.input).stem if config.input else "service"
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
    """What every (target, learner) task of one run reads: the shared
    encoded table and the run's settings."""

    table: EncodedTable
    params: LearnerParams
    folds: int
    seed: int

    def run(self, target: int, learner: str) -> tuple[TargetMetrics, Model]:
        """Cross-validate ``learner`` on target column ``target``, then fit
        it on every row."""
        from .evaluation import cross_validate_encoded
        from .learners import EncodedDataset, train_encoded

        enc = EncodedDataset.for_target(self.table, target)
        metrics = cross_validate_encoded(enc, learner, self.params, k=self.folds, seed=self.seed)
        return metrics, train_encoded(learner, enc, enc.all_rows(), self.params)


#: the job of this worker process, set once by ``_start_worker``
_worker_job: _TrainJob | None = None


def _start_worker(job: _TrainJob) -> None:
    global _worker_job
    _worker_job = job


def _run_in_worker(target: int, learner: str) -> tuple[TargetMetrics, Model]:
    return _worker_job.run(target, learner)


def run_pipeline(traffic_log: TrafficLog, config: RunConfig) -> PipelineResult:
    """Extract, prepare and encode once, then cross-validate and fit every
    (target, learner) pair.  Pool workers receive the encoded table once,
    when they start; each task names only a target column and a learner."""
    from .prep import prepare_all

    table, profile = extract_table(traffic_log, config.extraction_config())
    datasets, removals = prepare_all(table, config.prep_config())
    if not datasets:
        raise DegenerateDatasetError("no learnable targets after preparation")
    job = _TrainJob(datasets[0].encoded, config.learner_params(), config.folds, config.seed)
    tasks = [(dataset, learner) for dataset in datasets for learner in config.learners]
    jobs = config.jobs or os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker, initargs=(job,)) as pool:
            futures = [
                pool.submit(_run_in_worker, dataset.target_index, learner)
                for dataset, learner in tasks
            ]
            results = [f.result() for f in futures]
    else:
        results = [job.run(dataset.target_index, learner) for dataset, learner in tasks]
    out = PipelineResult(table=table, profile=profile, removals=removals, metrics=[])
    for (dataset, learner), (metrics, model) in zip(tasks, results):
        out.metrics.append(metrics)
        out.models[(dataset.target, learner)] = model
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


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import metrics_csv, render_aggregate_table, report_json

    config = resolve_run_config(args)
    traffic_log = _load_input(config)
    result = run_pipeline(traffic_log, config)
    aggregates = result.aggregates(config.service_name)
    report = report_json(
        config.service_name, config.seed, config.folds, result.metrics, aggregates, result.removals
    )
    Path(config.out_report).write_text(report)
    if config.out_csv:
        Path(config.out_csv).write_text(metrics_csv(result.metrics))
    print(render_aggregate_table(aggregates))
    print(f"report written to {config.out_report}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    from .evaluation import metrics_csv, render_aggregate_table, report_json

    config = resolve_run_config(args)
    traffic_log = _load_input(config)
    result = run_pipeline(traffic_log, config)
    aggregates = result.aggregates(config.service_name)
    chosen = choose_models(result, config.learners)
    skeleton = build_skeleton(
        service_name=config.service_name,
        seed=config.seed,
        inputs=tuple(a.name for a in result.table.inputs() if a.name not in
                     {r.attribute for r in result.removals}),
        chosen=chosen,
        removals=result.removals,
        config=config.extraction_config(),
        profile=result.profile,
    )
    text = emit_skeleton(skeleton)
    report = report_json(
        config.service_name, config.seed, config.folds, result.metrics, aggregates, result.removals
    )
    Path(config.out_skeleton).write_text(text, encoding="utf-8")
    Path(config.out_report).write_text(report)
    if config.out_csv:
        Path(config.out_csv).write_text(metrics_csv(result.metrics))
    print(render_aggregate_table(aggregates))
    print(f"skeleton written to {config.out_skeleton}")
    print(f"report written to {config.out_report}")
    return EXIT_OK


def cmd_emit(args: argparse.Namespace) -> int:
    """Validate and re-render a (possibly hand-edited) skeleton."""
    skeleton = parse_skeleton(Path(args.skeleton).read_text(encoding="utf-8"))
    text = emit_skeleton(skeleton)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"normalized skeleton written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import serve_skeleton

    text = Path(args.skeleton).read_text(encoding="utf-8")
    skeleton = parse_skeleton(text)  # syntax errors surface before the port binds
    server = serve_skeleton(skeleton, port=args.port, strict=args.strict, skeleton_text=text)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    print(f"serving {skeleton.service_name} on http://127.0.0.1:{args.port} "
          f"({len(skeleton.targets)} predicted targets{', strict' if args.strict else ''})")
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
    sub.add_argument("--jobs", type=int, help="parallel workers (default: logical cores)")
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
        SkeletonSyntaxError,
        UnknownAttributeError,
        UnparseableUriError,
        json.JSONDecodeError,
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
