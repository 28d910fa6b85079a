"""Dataset preparation: nominal coercion, target pruning, integer encoding.

Learning happens on one single-target dataset per surviving response
feature; targets that cannot discriminate (one distinct value) or cannot
generalize (almost one distinct value per instance) are removed and the
removal is recorded so skeleton consumers can see why a field carries no
model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import PrunedTargetError, UnknownTargetError
from .features import Attribute, Instance, InstanceTable, Role, nominal_sort

REASON_UNARY = "unary"
REASON_HIGH_CARDINALITY = "high-cardinality"
REASON_SINGLE_VALUED_INPUT = "single-valued-input"


@dataclass(frozen=True)
class PrepConfig:
    max_target_cardinality: int = 32
    max_target_distinct_ratio: float = 0.5
    drop_single_valued_inputs: bool = True

    def __post_init__(self):
        if self.max_target_cardinality < 2:
            raise ValueError("max_target_cardinality must be >= 2")
        if not 0.0 < self.max_target_distinct_ratio <= 1.0:
            raise ValueError("max_target_distinct_ratio must be in (0, 1]")

    def cardinality_limit(self, n_instances: int) -> float:
        return min(self.max_target_cardinality, self.max_target_distinct_ratio * n_instances)


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


def removal_report_json(removals: tuple[Removal, ...]) -> str:
    return json.dumps([r.to_json_dict() for r in removals], indent=2)


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
    #: per input, value -> code (the inverse of its domain)
    input_codes: tuple[dict[str, int], ...]

    def target_index(self, name: str) -> int:
        for t, attr in enumerate(self.targets):
            if attr.name == name:
                return t
        raise UnknownTargetError(f"{name!r} is not a target attribute of this table")


def encode_table(table: InstanceTable, keep: Sequence[int] | None = None) -> EncodedTable:
    """Encode the attributes of ``table`` at positions ``keep`` (all of them
    by default) against their domains, one column at a time."""
    keep = range(len(table.schema)) if keep is None else keep
    rows = [inst.values for inst in table.instances]
    n = len(rows)
    schema = [table.schema[i] for i in keep]
    inputs = tuple(a for a in schema if a.role is Role.INPUT)
    targets = tuple(a for a in schema if a.role is Role.TARGET)
    X = np.empty((n, len(inputs)), dtype=np.int32, order="F")
    Y = np.empty((n, len(targets)), dtype=np.int32, order="F")
    input_codes = []
    y_col = 0
    for i, attr in zip(keep, schema):
        code_of = {value: c for c, value in enumerate(attr.domain)}
        codes = np.fromiter(map(code_of.__getitem__, map(itemgetter(i), rows)), dtype=np.int32, count=n)
        if attr.role is Role.INPUT:
            X[:, len(input_codes)] = codes
            input_codes.append(code_of)
        else:
            Y[:, y_col] = codes
            y_col += 1
    return EncodedTable(X=X, Y=Y, inputs=inputs, targets=targets, input_codes=tuple(input_codes))


class PreparedDataset:
    """All input attributes plus exactly one target: one target column of
    an ``EncodedTable``.

    Column j of ``X`` holds indices into ``domains[j]`` (``codes[j]`` maps
    each value to its index); ``y`` holds indices into ``target_domain``.
    ``X`` is the table's own array and ``y`` one column of its ``Y``, so
    the datasets of one table copy nothing.  Every field is a plain
    attribute, bound once: the learners read them in their inner loops.
    """

    def __init__(self, table: EncodedTable, target: int, provenance: tuple[Removal, ...] = ()):
        attr = table.targets[target]
        self.target = attr.name
        self.target_domain: tuple[str, ...] = attr.domain
        self.n_classes = len(attr.domain)
        self.input_attributes = table.inputs
        self.names: tuple[str, ...] = tuple(a.name for a in table.inputs)
        self.domains: tuple[tuple[str, ...], ...] = tuple(a.domain for a in table.inputs)
        self.codes: tuple[dict[str, int], ...] = table.input_codes
        self.X = table.X
        self.y = table.Y[:, target]
        self.provenance = provenance

    def __len__(self) -> int:
        return len(self.y)

    def all_rows(self) -> np.ndarray:
        return np.arange(len(self.y), dtype=np.intp)

    def total_conditions(self) -> int:
        return sum(len(d) for d in self.domains)


def coerce_to_nominal(table: InstanceTable) -> InstanceTable:
    """Recompute every attribute's domain as the finite set of observed
    value strings (numeric-looking values become nominal literals)."""
    schema = tuple(
        replace(attr, domain=nominal_sort(inst.values[i] for inst in table.instances))
        for i, attr in enumerate(table.schema)
    )
    return InstanceTable(schema=schema, instances=table.instances)


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
            if config.drop_single_valued_inputs and distinct <= 1:
                removals.append(
                    Removal(attr.name, attr.role, REASON_SINGLE_VALUED_INPUT, distinct,
                            value=attr.domain[0] if attr.domain else None)
                )
                continue
        kept.append(i)
    return kept, tuple(removals)


def prune_targets(
    table: InstanceTable, config: PrepConfig = PrepConfig()
) -> tuple[InstanceTable, tuple[Removal, ...]]:
    """Drop unary and high-cardinality targets (and, when configured,
    single-valued inputs).  Returns the reduced table and the removal
    report."""
    kept, removals = _prune(table, config)
    schema = tuple(table.schema[i] for i in kept)
    instances = tuple(
        Instance(values=tuple(inst.values[i] for i in kept), transaction_id=inst.transaction_id)
        for inst in table.instances
    )
    return InstanceTable(schema=schema, instances=instances), removals


def project_for_target(
    table: InstanceTable,
    target: str,
    removals: tuple[Removal, ...] = (),
) -> PreparedDataset:
    """The dataset of a pruned table's inputs plus the named target; the
    whole table is encoded."""
    for removal in removals:
        if removal.attribute == target:
            raise PrunedTargetError(f"target {target!r} was removed ({removal.reason})")
    encoded = encode_table(table)
    return PreparedDataset(encoded, encoded.target_index(target), removals)


def prepare_all(
    table: InstanceTable, config: PrepConfig = PrepConfig()
) -> tuple[list[PreparedDataset], tuple[Removal, ...]]:
    """Prune, then encode the kept columns once; one dataset per surviving
    target, each a view of that one encoded table.

    ``table`` must carry its domains: each attribute's observed values in
    ``nominal_sort`` order, as ``extract_table`` builds them.  Pruning
    reads those domains and encoding indexes into them, so a table built
    by hand goes through ``coerce_to_nominal`` first.
    """
    kept, removals = _prune(table, config)
    encoded = encode_table(table, kept)
    datasets = [PreparedDataset(encoded, t, removals) for t in range(len(encoded.targets))]
    return datasets, removals
