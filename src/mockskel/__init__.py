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
    SchemaMismatchError,
    SkeletonSyntaxError,
    UnknownAttributeError,
    UnparseableUriError,
)
from .features import (
    Attribute,
    ExtractionConfig,
    ExtractionProfile,
    InstanceTable,
    Role,
    extract_table,
    to_arff,
)
from .model import Leaf, Rule, RuleList, Split, classify, model_size
from .server import MockService, ServeState, serve_skeleton, synthesize_response
from .settings import LearnerParams, PrepConfig, RipperParams, TreeParams
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
    **dict.fromkeys(("entropy", "gain_ratio"), "learners.base"),
    "train_c45": "learners.c45",
    "train_part": "learners.part",
    "train_ripper": "learners.ripper",
    **dict.fromkeys(("PreparedDataset", "prepare_all"), "prep"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
