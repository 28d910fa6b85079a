"""Symbolic learners over nominal single-target datasets.

The model forms load with the package.  The learners and their numpy
machinery load on first use, so a process that only serves a skeleton
never imports them.
"""

from __future__ import annotations

from importlib import import_module

from .model import (
    DecisionTree,
    Leaf,
    Model,
    Rule,
    RuleList,
    Split,
    classify,
    leaf_count,
    model_size,
    render_model,
    render_rules,
    render_tree,
)

#: the learners, each named after its module; ties between them break in this order
LEARNER_ORDER = ("c45", "ripper", "part")

#: names loaded from a submodule on first use
_LAZY = {
    **dict.fromkeys(
        ("C45Params", "LearnerParams", "PartParams", "RipperParams", "added_errors", "entropy",
         "gain_ratio", "predict_encoded"),
        "base",
    ),
    **{f"train_{name}": name for name in LEARNER_ORDER},
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def train(name: str, dataset, params: LearnerParams | None = None, rows=None):
    """Train one learner by name on ``rows`` of a prepared dataset (every
    row when None), with default parameters when ``params`` is None."""
    if name not in LEARNER_ORDER:
        raise ValueError(f"unknown learner {name!r} (expected one of {sorted(LEARNER_ORDER)})")
    params = params or __getattr__("LearnerParams")()
    return __getattr__(f"train_{name}")(dataset, getattr(params, name), rows=rows)


def EncodedDataset(dataset):
    """``dataset`` itself, already an encoded view: kept because the
    benchmark harness (``bench/tracing.py``) imports this name."""
    return dataset


__all__ = [
    "C45Params",
    "DecisionTree",
    "LEARNER_ORDER",
    "Leaf",
    "LearnerParams",
    "Model",
    "PartParams",
    "RipperParams",
    "Rule",
    "RuleList",
    "Split",
    "added_errors",
    "classify",
    "entropy",
    "gain_ratio",
    "leaf_count",
    "model_size",
    "predict_encoded",
    "render_model",
    "render_rules",
    "render_tree",
    "train",
    "train_c45",
    "train_part",
    "train_ripper",
]
