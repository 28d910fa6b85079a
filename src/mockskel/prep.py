"""Dataset preparation: target pruning and integer encoding.

Learning happens on one single-target dataset per surviving response
feature; targets that cannot discriminate (one distinct value) or cannot
generalize (almost one distinct value per instance) are removed and the
removal is recorded so skeleton consumers can see why a field carries no
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .features import Attribute, InstanceTable, Role
from .settings import PrepConfig

REASON_UNARY = "unary"
REASON_HIGH_CARDINALITY = "high-cardinality"
REASON_SINGLE_VALUED_INPUT = "single-valued-input"


@dataclass(frozen=True)
class Removal:
    attribute: str
    role: Role
    reason: str
    distinct_count: int
    #: the single observed value for unary attributes (serveable default)
    value: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "attribute": self.attribute,
            "role": self.role.value,
            "reason": self.reason,
            "distinctCount": self.distinct_count,
        }


@dataclass(frozen=True, eq=False)
class EncodedTable:
    """The integer form of a prepared table, built once and shared by
    every target, learner, fold and worker.

    Column j of ``X`` holds indices into ``inputs[j].domain`` and column t
    of ``Y`` indices into ``targets[t].domain``.  Both arrays are
    column-major, so one attribute's codes are contiguous.
    """

    X: np.ndarray
    Y: np.ndarray
    inputs: tuple[Attribute, ...]
    targets: tuple[Attribute, ...]


def encode_table(table: InstanceTable, keep: Sequence[int] | None = None) -> EncodedTable:
    """Encode the attributes of ``table`` at positions ``keep`` (all of them
    by default) against their domains, one column at a time."""
    keep = range(len(table.schema)) if keep is None else keep
    rows = table.instances
    n = len(rows)
    schema = [table.schema[i] for i in keep]
    inputs = tuple(a for a in schema if a.role is Role.INPUT)
    targets = tuple(a for a in schema if a.role is Role.TARGET)
    X = np.empty((n, len(inputs)), dtype=np.int32, order="F")
    Y = np.empty((n, len(targets)), dtype=np.int32, order="F")
    x_col = y_col = 0
    for i, attr in zip(keep, schema):
        code_of = {value: c for c, value in enumerate(attr.domain)}
        codes = np.fromiter(map(code_of.__getitem__, map(itemgetter(i), rows)), dtype=np.int32, count=n)
        if attr.role is Role.INPUT:
            X[:, x_col] = codes
            x_col += 1
        else:
            Y[:, y_col] = codes
            y_col += 1
    return EncodedTable(X=X, Y=Y, inputs=inputs, targets=targets)


class PreparedDataset:
    """All input attributes plus exactly one target: one target column of
    an ``EncodedTable``.

    Column j of ``X`` holds indices into ``domains[j]``; ``y`` holds
    indices into ``target_domain``.  ``X`` is the table's own array and
    ``y`` one column of its ``Y``, so the datasets of one table copy
    nothing.  Every field is a plain attribute, bound once: the learners
    read them in their inner loops.
    """

    def __init__(self, table: EncodedTable, target: int):
        attr = table.targets[target]
        self.target = attr.name
        self.target_domain: tuple[str, ...] = attr.domain
        self.n_classes = len(attr.domain)
        self.names: tuple[str, ...] = tuple(a.name for a in table.inputs)
        self.domains: tuple[tuple[str, ...], ...] = tuple(a.domain for a in table.inputs)
        self.X = table.X
        self.y = table.Y[:, target]

    def __len__(self) -> int:
        return len(self.y)

    def all_rows(self) -> np.ndarray:
        return np.arange(len(self.y), dtype=np.intp)

    def total_conditions(self) -> int:
        return sum(len(d) for d in self.domains)

    @property
    def input_attributes(self) -> tuple[Attribute, ...]:
        """The inputs as attributes, built on demand (the bench's traced run counts them)."""
        return tuple(Attribute(n, Role.INPUT, d) for n, d in zip(self.names, self.domains))


def _prune(table: InstanceTable, config: PrepConfig) -> tuple[list[int], tuple[Removal, ...]]:
    """Positions of the attributes that survive pruning, judged by their
    domains, and the removal report."""
    limit = config.cardinality_limit(len(table.instances))
    removals: list[Removal] = []
    kept: list[int] = []
    for i, attr in enumerate(table.schema):
        distinct = len(attr.domain)
        if attr.role is Role.TARGET:
            if distinct <= 1:
                removals.append(
                    Removal(attr.name, attr.role, REASON_UNARY, distinct,
                            value=attr.domain[0] if attr.domain else None)
                )
                continue
            if distinct > limit:
                removals.append(Removal(attr.name, attr.role, REASON_HIGH_CARDINALITY, distinct))
                continue
        else:
            if not config.keep_single_valued_inputs and distinct <= 1:
                removals.append(
                    Removal(attr.name, attr.role, REASON_SINGLE_VALUED_INPUT, distinct,
                            value=attr.domain[0] if attr.domain else None)
                )
                continue
        kept.append(i)
    return kept, tuple(removals)


def prepare_all(
    table: InstanceTable, config: PrepConfig = PrepConfig()
) -> tuple[list[PreparedDataset], tuple[Removal, ...]]:
    """Prune, then encode the kept columns once; one dataset per surviving
    target, each a view of that one encoded table.  Pruning reads the
    domains the table derived, and encoding indexes into them.
    """
    kept, removals = _prune(table, config)
    encoded = encode_table(table, kept)
    datasets = [PreparedDataset(encoded, t) for t in range(len(encoded.targets))]
    return datasets, removals
