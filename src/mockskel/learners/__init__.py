"""Symbolic learners over nominal single-target datasets.

The learners need numpy; the model forms they build and ``classify`` are
in ``mockskel.model``, so a process that only serves a skeleton never
imports this package.
"""

from __future__ import annotations

# the benchmark harness (``bench/tracing.py``) imports ``classify``,
# ``model_size`` and ``LEARNER_ORDER`` from here
from ..model import classify, model_size
from ..settings import LEARNER_ORDER, LearnerParams
from .c45 import train_c45
from .part import train_part
from .ripper import train_ripper

#: each learner's trainer, under its name in ``LEARNER_ORDER``
_TRAINERS = {"c45": train_c45, "ripper": train_ripper, "part": train_part}


def train(name: str, dataset, params: LearnerParams = LearnerParams(), rows=None):
    """Train one learner by name on ``rows`` of a prepared dataset (every
    row when None)."""
    if name not in _TRAINERS:
        raise ValueError(f"unknown learner {name!r} (expected one of {sorted(LEARNER_ORDER)})")
    return _TRAINERS[name](dataset, getattr(params, name), rows=rows)


def EncodedDataset(dataset):
    """``dataset`` itself, already an encoded view: kept because the
    benchmark harness (``bench/tracing.py``) imports this name."""
    return dataset
