"""mockskel: learn editable mock skeletons of HTTP services from traffic.

The toolchain ingests recorded HTTP transactions, extracts nominal
features, trains per-response-feature decision trees and rule lists,
evaluates them by cross-validation, bundles them into a human-editable
skeleton document, and serves synthesized responses from it.
"""

from importlib import import_module

from .errors import (
    DegenerateDatasetError,
    MalformedInputError,
    MockskelError,
    PrunedTargetError,
    SchemaMismatchError,
    SkeletonSyntaxError,
    UnknownAttributeError,
    UnknownTargetError,
    UnparseableUriError,
)
from .features import (
    Attribute,
    ExtractionConfig,
    ExtractionProfile,
    Instance,
    InstanceTable,
    Role,
    extract_table,
    flatten_json,
    to_arff,
    tokenize_uri,
)
from .learners import DecisionTree, Rule, RuleList, classify, model_size
from .server import MockService, ServeState, SynthesizedResponse, serve_skeleton, synthesize_response
from .skeleton import MockSkeleton, build_skeleton, emit_skeleton, parse_skeleton
from .synth import expected_status, generate_synthetic_log
from .traffic import (
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    ResourceKeyConfig,
    TrafficLog,
    crud_class,
    dump_jsonl,
    group_by_resource,
    load_traffic,
    resource_key,
    save_jsonl,
)

__version__ = "0.1.0"

#: training names, which need numpy: loaded from their module on first use,
#: so that serving a skeleton does not import them
_LAZY = {
    **dict.fromkeys(
        ("AggregateReport", "TargetMetrics", "aggregate", "cross_validate", "stratified_folds"),
        "evaluation",
    ),
    **dict.fromkeys(
        ("C45Params", "LearnerParams", "PartParams", "RipperParams", "entropy", "gain_ratio",
         "train_c45", "train_part", "train_ripper"),
        "learners",
    ),
    **dict.fromkeys(
        ("PrepConfig", "PreparedDataset", "coerce_to_nominal", "prepare_all", "project_for_target",
         "prune_targets"),
        "prep",
    ),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
