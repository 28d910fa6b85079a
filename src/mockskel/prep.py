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
from functools import cached_property

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


def encode_table(table: InstanceTable) -> EncodedTable:
    """Encode every attribute of ``table`` against its domain, one column
    at a time."""
    n = len(table.instances)
    inputs, targets = table.inputs(), table.targets()
    X = np.empty((n, len(inputs)), dtype=np.int32, order="F")
    Y = np.empty((n, len(targets)), dtype=np.int32, order="F")
    columns = list(zip(*(inst.values for inst in table.instances))) or [()] * len(table.schema)
    input_codes = []
    x_col = y_col = 0
    for attr, column in zip(table.schema, columns):
        code_of = {value: i for i, value in enumerate(attr.domain)}
        codes = np.fromiter(map(code_of.__getitem__, column), dtype=np.int32, count=n)
        if attr.role is Role.INPUT:
            X[:, x_col] = codes
            x_col += 1
            input_codes.append(code_of)
        else:
            Y[:, y_col] = codes
            y_col += 1
    return EncodedTable(X=X, Y=Y, inputs=inputs, targets=targets, input_codes=tuple(input_codes))


class PreparedDataset:
    """All input attributes plus exactly one target attribute.

    ``source`` may hold other targets as well: the datasets of one
    ``prepare_all`` share it and its ``encoded`` form, and ``table``, the
    one-target projection, is built only when read.  A dataset built by
    hand encodes its source the first time ``encoded`` is read.
    """

    def __init__(
        self,
        table: InstanceTable,
        target: str,
        provenance: tuple[Removal, ...] = (),
        encoded: EncodedTable | None = None,
    ):
        if table.attribute(target).role is not Role.TARGET:
            raise UnknownTargetError(f"{target!r} is not a target attribute")
        self.source = table
        self.target = target
        self.provenance = provenance
        self._encoded = encoded

    @property
    def encoded(self) -> EncodedTable:
        if self._encoded is None:
            self._encoded = encode_table(self.source)
        return self._encoded

    @property
    def target_index(self) -> int:
        """This dataset's column of ``encoded.Y``."""
        return self.encoded.target_index(self.target)

    @cached_property
    def table(self) -> InstanceTable:
        """The inputs plus this dataset's target, as strings."""
        keep = [
            i for i, a in enumerate(self.source.schema)
            if a.role is Role.INPUT or a.name == self.target
        ]
        if len(keep) == len(self.source.schema):
            return self.source
        return InstanceTable(
            schema=tuple(self.source.schema[i] for i in keep),
            instances=tuple(
                Instance(values=tuple(inst.values[i] for i in keep), transaction_id=inst.transaction_id)
                for inst in self.source.instances
            ),
        )

    @property
    def target_attribute(self) -> Attribute:
        return self.source.attribute(self.target)

    @property
    def input_attributes(self) -> tuple[Attribute, ...]:
        return self.source.inputs()

    def __len__(self) -> int:
        return len(self.source.instances)


def coerce_to_nominal(table: InstanceTable) -> InstanceTable:
    """Recompute every attribute's domain as the finite set of observed
    value strings (numeric-looking values become nominal literals)."""
    schema = tuple(
        replace(attr, domain=nominal_sort(inst.values[i] for inst in table.instances))
        for i, attr in enumerate(table.schema)
    )
    return InstanceTable(schema=schema, instances=table.instances)


def prune_targets(
    table: InstanceTable, config: PrepConfig = PrepConfig()
) -> tuple[InstanceTable, tuple[Removal, ...]]:
    """Drop unary and high-cardinality targets (and, when configured,
    single-valued inputs).  Returns the reduced table and the removal
    report."""
    n = len(table.instances)
    limit = config.cardinality_limit(n)
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

    schema = tuple(table.schema[i] for i in kept)
    instances = tuple(
        Instance(values=tuple(inst.values[i] for i in kept), transaction_id=inst.transaction_id)
        for inst in table.instances
    )
    return InstanceTable(schema=schema, instances=instances), tuple(removals)


def project_for_target(
    table: InstanceTable,
    target: str,
    removals: tuple[Removal, ...] = (),
) -> PreparedDataset:
    """The dataset of a pruned table's inputs plus the named target."""
    for removal in removals:
        if removal.attribute == target:
            raise PrunedTargetError(f"target {target!r} was removed ({removal.reason})")
    names = {a.name: a for a in table.schema}
    if target not in names or names[target].role is not Role.TARGET:
        raise UnknownTargetError(f"{target!r} is not a target attribute of this table")
    return PreparedDataset(table, target, removals)


def prepare_all(
    table: InstanceTable, config: PrepConfig = PrepConfig()
) -> tuple[list[PreparedDataset], tuple[Removal, ...]]:
    """Coerce, prune, and encode once; one dataset per surviving target,
    all sharing the pruned table and its encoded form."""
    coerced = coerce_to_nominal(table)
    pruned, removals = prune_targets(coerced, config)
    encoded = encode_table(pruned)
    datasets = [PreparedDataset(pruned, attr.name, removals, encoded) for attr in encoded.targets]
    return datasets, removals
