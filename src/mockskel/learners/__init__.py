"""Symbolic learners over nominal single-target datasets.

The model forms and the learner settings load with the package.  The
learners and their numpy machinery load on first use, so a process that
only serves a skeleton never imports them.
"""

from __future__ import annotations

from importlib import import_module

from ..settings import LearnerParams, RipperParams, TreeParams
from .model import (
    DecisionTree,
    Leaf,
    Model,
    Rule,
    RuleList,
    Split,
    classify,
    model_size,
)

#: the learners, each named after its module; ties between them break in this order
LEARNER_ORDER = ("c45", "ripper", "part")

#: names loaded from a submodule on first use
_LAZY = {
    **dict.fromkeys(("added_errors", "entropy", "gain_ratio", "predict_encoded"), "base"),
    **{f"train_{name}": name for name in LEARNER_ORDER},
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


def train(name: str, dataset, params: LearnerParams = LearnerParams(), rows=None):
    """Train one learner by name on ``rows`` of a prepared dataset (every
    row when None)."""
    if name not in LEARNER_ORDER:
        raise ValueError(f"unknown learner {name!r} (expected one of {sorted(LEARNER_ORDER)})")
    return __getattr__(f"train_{name}")(dataset, getattr(params, name), rows=rows)


def EncodedDataset(dataset):
    """``dataset`` itself, already an encoded view: kept because the
    benchmark harness (``bench/tracing.py``) imports this name."""
    return dataset


__all__ = [
    "DecisionTree",
    "LEARNER_ORDER",
    "Leaf",
    "LearnerParams",
    "Model",
    "RipperParams",
    "Rule",
    "RuleList",
    "Split",
    "TreeParams",
    "added_errors",
    "classify",
    "entropy",
    "gain_ratio",
    "model_size",
    "predict_encoded",
    "train",
    "train_c45",
    "train_part",
    "train_ripper",
]
