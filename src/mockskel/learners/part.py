"""Rule learning by repeated partial decision trees.

Each iteration builds a pruned tree on the still-uncovered instances but
only expands the most promising branches (children are expanded in order
of increasing entropy until one refuses to collapse into a leaf).  The
leaf covering the most instances becomes a rule, covered instances are
removed, and the loop continues until nothing is left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..errors import DegenerateDatasetError
from ..prep import PreparedDataset
from .base import (
    PartParams,
    added_errors,
    branch_entropies,
    class_counts,
    contingency,
    majority_class,
)
from .c45 import best_split
from .model import Rule, RuleList
from .ripper import recount_encoded

_Conds = tuple[tuple[int, int], ...]


@dataclass
class _PLeaf:
    ci: int
    n: int
    e: int


@dataclass
class _PSplit:
    attr: int
    #: value index -> child; None marks branches left unexpanded
    children: dict[int, Union["_PSplit", _PLeaf, None]] = field(default_factory=dict)


_PNode = Union[_PLeaf, _PSplit]


def _expand(
    ds: PreparedDataset, rows: np.ndarray, available: np.ndarray, params: PartParams
) -> _PNode:
    counts = class_counts(ds, rows)
    total = len(rows)
    maj = majority_class(counts)
    errors = total - int(counts[maj])
    leaf = _PLeaf(maj, total, errors)
    if errors == 0 or total < 2 * params.min_leaf_instances or not available.any():
        return leaf
    attr, _ = best_split(ds, rows, available, params.min_leaf_instances)
    if attr is None:
        return leaf

    child_available = available.copy()
    child_available[attr] = False
    column = ds.X[rows, attr]
    subsets = {vi: rows[column == vi] for vi in range(len(ds.domains[attr]))}
    entropies = branch_entropies(contingency(ds, rows, attr))
    order = sorted(subsets, key=lambda vi: (entropies[vi], vi))

    node = _PSplit(attr=attr, children={vi: None for vi in range(len(subsets))})
    for vi in order:
        sub = subsets[vi]
        child = _PLeaf(maj, 0, 0) if len(sub) == 0 else _expand(ds, sub, child_available, params)
        node.children[vi] = child
        if isinstance(child, _PSplit):
            return node  # further siblings stay unexpanded

    # fully expanded into leaves: consider collapsing
    subtree_est = sum(
        c.e + added_errors(c.n, c.e, params.confidence_factor)
        for c in node.children.values()
    )
    leaf_est = errors + added_errors(total, errors, params.confidence_factor)
    if leaf_est <= subtree_est + 0.1:
        return leaf
    return node


def _best_leaf(node: _PNode, conds: _Conds = ()) -> tuple[_PLeaf, _Conds]:
    """Leaf with maximum coverage (pre-order ties keep the first)."""
    if isinstance(node, _PLeaf):
        return node, conds
    best: tuple[_PLeaf, _Conds] | None = None
    for vi, child in node.children.items():
        if child is None:
            continue
        leaf, path = _best_leaf(child, conds + (((node.attr, vi)),))
        if best is None or leaf.n > best[0].n:
            best = (leaf, path)
    return best


def train_part(
    ds: PreparedDataset, params: PartParams = PartParams(), rows: np.ndarray | None = None
) -> RuleList:
    """Learn a rule list from ``rows`` of ``ds`` (every row when None)."""
    rows = ds.all_rows() if rows is None else rows
    if len(rows) == 0:
        raise DegenerateDatasetError("cannot train a rule list on 0 instances")
    remaining = rows
    rules: list[Rule] = []
    default_class: str | None = None
    while len(remaining):
        available = np.ones(len(ds.names), dtype=bool)
        tree = _expand(ds, remaining, available, params)
        leaf, conds = _best_leaf(tree)
        if not conds:
            default_class = ds.target_domain[leaf.ci]
            break
        named = tuple((ds.names[a], ds.domains[a][v]) for a, v in conds)
        rules.append(Rule(conditions=named, klass=ds.target_domain[leaf.ci]))
        mask = np.ones(len(remaining), dtype=bool)
        for a, v in conds:
            mask &= ds.X[remaining, a] == v
        remaining = remaining[~mask]
    if default_class is None:
        default_class = rules[-1].klass if rules else ds.target_domain[0]
    rule_list = RuleList(target=ds.target, rules=tuple(rules), default_class=default_class)
    recount_encoded(rule_list, ds, rows)
    return rule_list
