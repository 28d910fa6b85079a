"""Rule learning by repeated partial decision trees.

Each iteration grows a pruned C4.5 tree on the still-uncovered instances
but only expands the most promising branches (children are expanded in
order of increasing entropy until one refuses to collapse into a leaf).
The leaf covering the most instances becomes a rule, covered instances
are removed, and the loop continues until a partial tree is a single
leaf, the default.  A rule's split has another non-empty branch, so
instances always remain for the next loop.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateDatasetError
from ..model import RuleList
from ..prep import PreparedDataset
from ..settings import TreeParams
from .base import Conjunction, counted_rule_list, covers
from .c45 import Grown, GrownLeaf, grow


def _best_leaf(node: Grown, conds: Conjunction = ()) -> tuple[GrownLeaf, Conjunction]:
    """Leaf with maximum coverage (pre-order ties keep the first)."""
    if isinstance(node, GrownLeaf):
        return node, conds
    best: tuple[GrownLeaf, Conjunction] | None = None
    for vi, child in node.children.items():
        if child is None:
            continue
        leaf, path = _best_leaf(child, conds + ((node.attr, vi),))
        if best is None or leaf.n > best[0].n:
            best = (leaf, path)
    return best


def train_part(
    ds: PreparedDataset, params: TreeParams = TreeParams(), rows: np.ndarray | None = None
) -> RuleList:
    """Learn a rule list from ``rows`` of ``ds`` (every row when None)."""
    rows = ds.all_rows() if rows is None else rows
    if len(rows) == 0:
        raise DegenerateDatasetError("cannot train a rule list on 0 instances")
    remaining = rows
    rules: list[Conjunction] = []
    classes: list[int] = []
    while True:
        leaf, conds = _best_leaf(grow(ds, remaining, params, partial=True))
        if not conds:
            return counted_rule_list(ds, rows, rules, classes, leaf.ci)
        rules.append(conds)
        classes.append(leaf.ci)
        remaining = remaining[~covers(ds, remaining, conds)]
