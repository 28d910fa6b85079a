"""Pruned decision-tree induction over nominal attributes.

Top-down induction chooses the admissible split with the highest gain
ratio (positive information gain, at least two branches holding
``min_leaf_instances``); bottom-up pessimistic-error pruning replaces
subtrees by leaves when that does not increase the estimated error.
Ties break toward the lower schema index, so training is deterministic.

``grow`` grows both the whole trees of ``train_c45`` and the partial
trees of PART.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateDatasetError
from ..model import Leaf, Node, Split
from ..prep import PreparedDataset
from ..settings import TreeParams
from .base import (
    added_errors,
    branch_entropies,
    class_counts,
    contingency_tables,
    gains_and_ratios,
    majority_class,
)

_GAIN_EPS = 1e-12


@dataclass
class GrownLeaf:
    ci: int  # class code
    n: int
    e: int


@dataclass
class GrownSplit:
    attr: int  # input column
    #: value code -> child; None marks a branch a partial tree left unexpanded
    children: dict[int, GrownSplit | GrownLeaf | None]


Grown = GrownLeaf | GrownSplit


def _estimated_errors(node: Grown, cf: float) -> float:
    if isinstance(node, GrownLeaf):
        return node.e + added_errors(node.n, node.e, cf)
    return sum(_estimated_errors(child, cf) for child in node.children.values())


def best_split(
    ds: PreparedDataset, rows: np.ndarray, available: np.ndarray, min_leaf: int
) -> tuple[int | None, float, np.ndarray | None]:
    """Index, gain ratio and contingency table over ``rows`` of the best
    admissible split attribute; (None, 0.0, None) when none is admissible.

    One pass over ``rows`` counts the tables of every available attribute.
    """
    attrs = np.flatnonzero(available)
    if len(rows) == 0 or len(attrs) == 0:
        return None, 0.0, None
    tables, starts = contingency_tables(ds, rows, attrs)
    large = np.add.reduceat((tables.sum(axis=1) >= min_leaf).astype(np.intp), starts)
    gains, ratios = gains_and_ratios(tables, starts, class_counts(ds, rows))
    admissible = (large >= 2) & (gains > _GAIN_EPS)
    best, best_ratio = None, 0.0
    for i, ratio in zip(np.flatnonzero(admissible).tolist(), ratios[admissible].tolist()):
        if best is None or ratio > best_ratio + _GAIN_EPS:
            best, best_ratio = i, ratio
    if best is None:
        return None, 0.0, None
    attr = int(attrs[best])
    return attr, best_ratio, tables[starts[best] : starts[best] + len(ds.domains[attr])]


def grow(
    ds: PreparedDataset,
    rows: np.ndarray,
    available: np.ndarray,
    params: TreeParams,
    prune: bool = True,
    partial: bool = False,
) -> Grown:
    """Grow a tree on ``rows`` over the ``available`` input columns.

    A partial tree (PART) expands the children in order of increasing
    branch entropy and returns the node as soon as one child stays a
    subtree, leaving the later branches None; only a node whose children
    all became leaves is considered for collapse.
    """
    counts = class_counts(ds, rows)
    total = len(rows)
    maj = majority_class(counts)
    errors = total - int(counts[maj])
    leaf = GrownLeaf(maj, total, errors)
    if errors == 0 or total < 2 * params.min_leaf_instances or not available.any():
        return leaf

    attr, _, table = best_split(ds, rows, available, params.min_leaf_instances)
    if attr is None:
        return leaf

    child_available = available.copy()
    child_available[attr] = False
    column = ds.X[rows, attr]
    node = GrownSplit(attr, dict.fromkeys(range(len(ds.domains[attr]))))
    order = list(node.children)
    if partial:
        entropies = branch_entropies(table)
        order.sort(key=lambda vi: (entropies[vi], vi))
    for vi in order:
        sub = rows[column == vi]
        child = GrownLeaf(maj, 0, 0)  # an empty branch predicts the parent's majority
        if len(sub):
            child = grow(ds, sub, child_available, params, prune, partial)
        node.children[vi] = child
        if partial and isinstance(child, GrownSplit):
            return node  # further siblings stay unexpanded

    if prune:
        subtree_est = _estimated_errors(node, params.confidence_factor)
        leaf_est = errors + added_errors(total, errors, params.confidence_factor)
        if leaf_est <= subtree_est + 0.1:
            return leaf
    return node


def _named(ds: PreparedDataset, node: Grown) -> Node:
    if isinstance(node, GrownLeaf):
        return Leaf(ds.target_domain[node.ci], node.n, node.e)
    domain = ds.domains[node.attr]
    return Split(
        ds.names[node.attr],
        {domain[vi]: _named(ds, child) for vi, child in node.children.items()},
    )


def train_c45(
    ds: PreparedDataset,
    params: TreeParams = TreeParams(),
    prune: bool = True,
    rows: np.ndarray | None = None,
) -> Node:
    """Fit a tree on ``rows`` of ``ds`` (every row when None); returns its root."""
    rows = ds.all_rows() if rows is None else rows
    if len(rows) == 0:
        raise DegenerateDatasetError("cannot train a tree on 0 instances")
    available = np.ones(len(ds.names), dtype=bool)
    return _named(ds, grow(ds, rows, available, params, prune))
