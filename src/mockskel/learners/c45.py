"""Pruned decision-tree induction over nominal attributes.

Top-down induction chooses the admissible split with the highest gain
ratio (positive information gain, at least two branches holding
``min_leaf_instances``); bottom-up pessimistic-error pruning replaces
subtrees by leaves when that does not increase the estimated error.
Ties break toward the lower schema index, so training is deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateDatasetError
from ..prep import PreparedDataset
from .base import (
    C45Params,
    added_errors,
    class_counts,
    contingency,
    gain_and_ratio,
    majority_class,
)
from .model import DecisionTree, Leaf, Node, Split

_GAIN_EPS = 1e-12


def _estimated_errors(node: Node, cf: float) -> float:
    if isinstance(node, Leaf):
        return node.error_count + added_errors(node.train_count, node.error_count, cf)
    return sum(_estimated_errors(child, cf) for child in node.branches.values())


def best_split(
    ds: PreparedDataset, rows: np.ndarray, available: np.ndarray, min_leaf: int
) -> tuple[int | None, float]:
    """Index and gain ratio of the best admissible split attribute."""
    best_attr, best_ratio = None, 0.0
    for a in np.flatnonzero(available):
        cont = contingency(ds, rows, int(a))
        branch_sizes = cont.sum(axis=1)
        if int((branch_sizes >= min_leaf).sum()) < 2:
            continue
        gain, ratio = gain_and_ratio(cont)
        if gain <= _GAIN_EPS:
            continue
        if best_attr is None or ratio > best_ratio + _GAIN_EPS:
            best_attr, best_ratio = int(a), ratio
    return best_attr, best_ratio


def _build(
    ds: PreparedDataset,
    rows: np.ndarray,
    available: np.ndarray,
    params: C45Params,
    prune: bool,
) -> Node:
    counts = class_counts(ds, rows)
    total = len(rows)
    maj = majority_class(counts)
    errors = total - int(counts[maj])
    leaf = Leaf(ds.target_domain[maj], total, errors)
    if errors == 0 or total < 2 * params.min_leaf_instances or not available.any():
        return leaf

    attr, _ = best_split(ds, rows, available, params.min_leaf_instances)
    if attr is None:
        return leaf

    child_available = available.copy()
    child_available[attr] = False
    column = ds.X[rows, attr]
    branches: dict[str, Node] = {}
    for vi, value in enumerate(ds.domains[attr]):
        sub = rows[column == vi]
        if len(sub) == 0:
            branches[value] = Leaf(ds.target_domain[maj], 0, 0)
        else:
            branches[value] = _build(ds, sub, child_available, params, prune)
    node = Split(ds.names[attr], branches)

    if prune:
        subtree_est = _estimated_errors(node, params.confidence_factor)
        leaf_est = errors + added_errors(total, errors, params.confidence_factor)
        if leaf_est <= subtree_est + 0.1:
            return leaf
    return node


def train_c45(
    ds: PreparedDataset,
    params: C45Params = C45Params(),
    prune: bool = True,
    rows: np.ndarray | None = None,
) -> DecisionTree:
    """Fit a tree on ``rows`` of ``ds`` (every row when None)."""
    rows = ds.all_rows() if rows is None else rows
    if len(rows) == 0:
        raise DegenerateDatasetError("cannot train a tree on 0 instances")
    available = np.ones(len(ds.names), dtype=bool)
    root = _build(ds, rows, available, params, prune)
    return DecisionTree(target=ds.target, root=root)
