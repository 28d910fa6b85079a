"""mockskel: learn editable mock skeletons of HTTP services from traffic.

The toolchain ingests recorded HTTP transactions, extracts nominal
features, trains per-response-feature decision trees and rule lists,
evaluates them by cross-validation, bundles them into a human-editable
skeleton document, and serves synthesized responses from it.
"""

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
from .evaluation import (
    AggregateReport,
    TargetMetrics,
    aggregate,
    cross_validate,
    stratified_folds,
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
from .learners import (
    C45Params,
    DecisionTree,
    LearnerParams,
    PartParams,
    RipperParams,
    Rule,
    RuleList,
    classify,
    entropy,
    gain_ratio,
    model_size,
    train_c45,
    train_part,
    train_ripper,
)
from .prep import (
    PrepConfig,
    PreparedDataset,
    coerce_to_nominal,
    prepare_all,
    project_for_target,
    prune_targets,
)
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
