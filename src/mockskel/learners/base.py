"""Shared learner machinery: parameters, classification of encoded rows,
entropy / gain ratio, and the pessimistic error estimate used for
pruning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable

import numpy as np

from ..errors import DegenerateDatasetError, SchemaMismatchError, UnknownAttributeError
from ..prep import PreparedDataset
from .model import DecisionTree, Leaf, Model, Node, RuleList


@dataclass(frozen=True)
class C45Params:
    confidence_factor: float = 0.25
    min_leaf_instances: int = 2


@dataclass(frozen=True)
class RipperParams:
    #: data is split fold-style for growing/pruning: (folds-1)/folds grows
    folds_split: int = 3
    min_rule_coverage: int = 2
    optimization_runs: int = 2
    seed: int = 1


@dataclass(frozen=True)
class PartParams:
    confidence_factor: float = 0.25
    min_leaf_instances: int = 2


@dataclass(frozen=True)
class LearnerParams:
    c45: C45Params = C45Params()
    ripper: RipperParams = RipperParams()
    part: PartParams = PartParams()


# ---------------------------------------------------------------------------
# Classification of encoded rows: ``classify`` over codes, a block at a time


def first_match(rule_list: RuleList, ds: PreparedDataset, rows: np.ndarray) -> np.ndarray:
    """Per encoded row, the index of the first rule it satisfies, or
    ``len(rule_list.rules)`` where the default fires."""
    column_of = {name: j for j, name in enumerate(ds.names)}
    fired = np.full(len(rows), len(rule_list.rules), dtype=np.intp)
    undecided = np.ones(len(rows), dtype=bool)
    for i, rule in enumerate(rule_list.rules):
        mask = undecided.copy()
        for attr, value in rule.conditions:
            j = column_of.get(attr)
            code = None if j is None else ds.codes[j].get(value)
            if code is None:  # a test no encoded row can pass
                mask[:] = False
                break
            mask &= ds.X[rows, j] == code
        fired[mask] = i
        undecided &= ~mask
    return fired


def rule_class_codes(rule_list: RuleList, ds: PreparedDataset) -> np.ndarray:
    """Index into ``ds.target_domain`` of each rule's class, then of the
    default class (-1 for a class outside that domain)."""
    code_of = {value: i for i, value in enumerate(ds.target_domain)}
    classes = [rule.klass for rule in rule_list.rules] + [rule_list.default_class]
    return np.array([code_of.get(klass, -1) for klass in classes], dtype=np.intp)


def predict_encoded(model: Model, ds: PreparedDataset, rows: np.ndarray) -> np.ndarray:
    """Index into ``ds.target_domain`` of the class ``classify`` predicts
    for each encoded row (-1 for a class outside that domain).

    Trees route whole blocks of rows down each branch; rule lists take
    the first matching rule's class.
    """
    if isinstance(model, RuleList):
        return rule_class_codes(model, ds)[first_match(model, ds, rows)]
    if not isinstance(model, DecisionTree):
        raise SchemaMismatchError(f"cannot classify with {type(model).__name__}")
    code_of = {value: i for i, value in enumerate(ds.target_domain)}
    column_of = {name: j for j, name in enumerate(ds.names)}
    out = np.empty(len(rows), dtype=np.intp)
    stack: list[tuple[Node, np.ndarray]] = [(model.root, np.arange(len(rows)))]
    while stack:
        node, at = stack.pop()
        if isinstance(node, Leaf):
            out[at] = code_of.get(node.klass, -1)
            continue
        j = column_of.get(node.attribute)
        if j is None:
            stack.append((node.branches[node.missing_value], at))
            continue
        keys = list(node.branches)
        slot = {value: b for b, value in enumerate(keys)}
        missing = slot[node.missing_value]
        branch_of_code = np.array([slot.get(v, missing) for v in ds.domains[j]], dtype=np.intp)
        branch = branch_of_code[ds.X[rows[at], j]]
        for b in np.unique(branch):
            stack.append((node.branches[keys[b]], at[branch == b]))
    return out


def entropy(class_counts: Iterable[float]) -> float:
    """Shannon entropy in bits of a class-count multiset."""
    counts = [c for c in class_counts]
    if any(c < 0 for c in counts):
        raise ValueError("class counts must be non-negative")
    total = float(sum(counts))
    if total <= 0:
        raise ValueError("entropy of an empty class-count set is undefined")
    result = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            result -= p * math.log2(p)
    return result


def _xlogx_sum(counts: np.ndarray) -> float:
    positive = counts[counts > 0].astype(np.float64)
    return float((positive * np.log2(positive)).sum())


def _entropy_np(counts: np.ndarray) -> float:
    total = float(counts.sum())
    if total <= 0:
        return 0.0
    return math.log2(total) - _xlogx_sum(counts) / total


def contingency(ds: PreparedDataset, rows: np.ndarray, attr_index: int) -> np.ndarray:
    """(domain size x class count) contingency table over ``rows``."""
    m = len(ds.domains[attr_index])
    k = ds.n_classes
    values = ds.X[rows, attr_index].astype(np.int64)
    return np.bincount(values * k + ds.y[rows], minlength=m * k).reshape(m, k)


def branch_entropies(cont: np.ndarray) -> np.ndarray:
    """Per-branch class entropy of a contingency table (0 for empty branches)."""
    sizes = cont.sum(axis=1).astype(np.float64)
    out = np.zeros(len(sizes))
    nonzero = sizes > 0
    cell_terms = np.where(cont > 0, cont * np.log2(np.maximum(cont, 1)), 0.0).sum(axis=1)
    out[nonzero] = np.log2(sizes[nonzero]) - cell_terms[nonzero] / sizes[nonzero]
    return out


def gain_and_ratio(cont: np.ndarray) -> tuple[float, float]:
    """Information gain and gain ratio from a contingency table.

    Ratio is 0 when the split information is 0 (single-valued attribute).
    Uses the identity H(p) = log2(N) - sum(c*log2(c))/N per partition.
    """
    branch_sizes = cont.sum(axis=1)
    total = float(branch_sizes.sum())
    if total <= 0:
        return 0.0, 0.0
    log_total = math.log2(total)
    s_cells = _xlogx_sum(cont)
    s_branches = _xlogx_sum(branch_sizes)
    before = log_total - _xlogx_sum(cont.sum(axis=0)) / total
    after = (s_branches - s_cells) / total
    gain = before - after
    split_info = log_total - s_branches / total
    if split_info <= 0.0:
        return gain, 0.0
    return gain, gain / split_info


def gain_ratio(dataset: PreparedDataset, attribute: str, target: str | None = None) -> float:
    """Gain ratio of an input attribute with respect to the dataset's target."""
    if target is not None and target != dataset.target:
        raise UnknownAttributeError(
            f"dataset is projected for target {dataset.target!r}, not {target!r}"
        )
    if len(dataset) == 0:
        raise DegenerateDatasetError("no instances")
    try:
        idx = dataset.names.index(attribute)
    except ValueError:
        raise UnknownAttributeError(f"no input attribute named {attribute!r}") from None
    _, ratio = gain_and_ratio(contingency(dataset, dataset.all_rows(), idx))
    return ratio


def added_errors(n: float, e: float, cf: float) -> float:
    """Pessimistic upper-bound correction on ``e`` observed errors in
    ``n`` instances at confidence ``cf`` (the classic C4.5 estimate)."""
    if n <= 0:
        return 0.0
    cf = min(cf, 0.5)
    if e < 1:
        base = n * (1 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (added_errors(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1 - cf)
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1 + z * z / n
    )
    return r * n - e


def class_counts(ds: PreparedDataset, rows: np.ndarray) -> np.ndarray:
    return np.bincount(ds.y[rows], minlength=ds.n_classes)


def majority_class(counts: np.ndarray) -> int:
    # argmax takes the first maximum: ties break to the lower class index
    return int(np.argmax(counts))
