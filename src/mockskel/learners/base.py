"""Shared learner machinery: classification of encoded rows, entropy /
gain ratio, and the pessimistic error estimate used for pruning."""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Iterable

import numpy as np

from ..errors import DegenerateDatasetError, UnknownAttributeError
from ..model import Model, Rule, RuleList, classify, tested_attributes
from ..prep import PreparedDataset


# ---------------------------------------------------------------------------
# Coded rules and the classification of encoded rows

#: a rule body, a conjunction of coded tests: ((input column, value code), ...)
Conjunction = tuple[tuple[int, int], ...]


def covers(ds: PreparedDataset, rows: np.ndarray, conds: Conjunction) -> np.ndarray:
    """Per row of ``rows``, whether it satisfies every test of ``conds``."""
    mask = np.ones(len(rows), dtype=bool)
    for attr, value in conds:
        mask &= ds.X[rows, attr] == value
    return mask


def first_match(ds: PreparedDataset, rows: np.ndarray, rules: list[Conjunction]) -> np.ndarray:
    """Per row, the index of the first rule it satisfies, or ``len(rules)``
    where the default fires."""
    fired = np.full(len(rows), len(rules), dtype=np.intp)
    undecided = np.ones(len(rows), dtype=bool)
    for i, conds in enumerate(rules):
        mask = undecided & covers(ds, rows, conds)
        fired[mask] = i
        undecided &= ~mask
    return fired


def counted_rule_list(
    ds: PreparedDataset,
    rows: np.ndarray,
    rules: list[Conjunction],
    classes: list[int],
    default: int,
) -> RuleList:
    """The rule list of coded ``rules`` predicting class codes ``classes``,
    then ``default``, named and annotated with (N/E) first-match counts
    over ``rows``."""
    fired = first_match(ds, rows, rules)
    class_codes = np.array([*classes, default], dtype=np.intp)
    slots = len(class_codes)
    covered = np.bincount(fired, minlength=slots)
    correct = np.bincount(fired[ds.y[rows] == class_codes[fired]], minlength=slots)
    errors = covered - correct
    named = tuple(
        Rule(tuple((ds.names[a], ds.domains[a][v]) for a, v in conds), ds.target_domain[ci],
             int(covered[i]), int(errors[i]))
        for i, (conds, ci) in enumerate(zip(rules, classes))
    )
    return RuleList(named, ds.target_domain[default], int(covered[-1]), int(errors[-1]))


def predict_encoded(model: Model, ds: PreparedDataset, rows: np.ndarray) -> np.ndarray:
    """Index into ``ds.target_domain`` of the class ``classify`` predicts
    for each encoded row (-1 for a class outside that domain).

    ``classify`` runs once per group of rows that agree on every input the
    model tests, on one row of the group decoded.  This is exact because
    ``classify`` reads only tested attributes; one that is not an input of
    ``ds`` is absent, so it takes the missing-value branch or fails its rule.
    """
    tested = tested_attributes(model)
    columns = [j for j, name in enumerate(ds.names) if name in tested]
    # a mixed-radix key of the tested codes, renumbered to its distinct
    # values wherever the next digit could overflow int64
    key = np.zeros(len(rows), dtype=np.int64)
    radix = 1
    for j in columns:
        m = len(ds.domains[j])
        if radix * m > np.iinfo(np.int64).max:
            distinct, key = np.unique(key, return_inverse=True)
            radix = len(distinct)
        key = key * m + ds.X[rows, j]
        radix *= m
    _, group = np.unique(key, return_inverse=True)
    sample = np.empty(group.max(initial=-1) + 1, dtype=np.intp)
    sample[group] = rows  # a row of each group
    code_of = {value: i for i, value in enumerate(ds.target_domain)}
    predicted = []
    for codes in ds.X[np.ix_(sample, columns)].tolist():
        values = {ds.names[j]: ds.domains[j][c] for j, c in zip(columns, codes)}
        predicted.append(code_of.get(classify(model, values), -1))
    return np.array(predicted, dtype=np.intp)[group]


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


def _xlogx_sums(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per segment of ``counts`` (segment i begins at ``starts[i]``), the
    sum of c*log2(c) over its counts."""
    counts = counts.astype(np.float64)
    return np.add.reduceat(counts * np.log2(np.maximum(counts, 1.0)), starts)


def contingency_tables(ds: PreparedDataset, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (domain size x class count) contingency tables of every input
    column over ``rows``, stacked, and the first row of each.

    One bincount counts them all: each column's codes are shifted past
    the domains of the columns before it.
    """
    sizes = np.array([len(domain) for domain in ds.domains], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    k = ds.n_classes
    cells = ds.X.T.take(rows, axis=1) + starts[:, None]
    cells *= k
    cells += ds.y[rows]
    return np.bincount(cells.ravel(), minlength=int(sizes.sum()) * k).reshape(-1, k), starts


def gains_and_ratios(
    tables: np.ndarray, starts: np.ndarray, class_totals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Information gain and gain ratio of each of the stacked contingency
    ``tables`` (as ``contingency_tables`` returns them), counted over rows
    whose per-class counts are ``class_totals``, at least one row.

    A ratio is 0 when the split information is 0 (single-valued attribute).
    Uses the identity H(p) = log2(N) - sum(c*log2(c))/N per partition.
    """
    total = float(class_totals.sum())
    log_total = math.log2(total)
    s_branches = _xlogx_sums(tables.sum(axis=1), starts)
    s_cells = _xlogx_sums(tables.ravel(), starts * tables.shape[1])
    before = log_total - _xlogx_sums(class_totals, [0])[0] / total
    gains = before - (s_branches - s_cells) / total
    split_info = log_total - s_branches / total
    ratios = np.zeros(len(starts))
    np.divide(gains, split_info, out=ratios, where=split_info > 0.0)
    return gains, ratios


def branch_entropies(cont: np.ndarray) -> np.ndarray:
    """Per-branch class entropy of a contingency table (0 for empty branches)."""
    sizes = cont.sum(axis=1).astype(np.float64)
    out = np.zeros(len(sizes))
    nonzero = sizes > 0
    cell_terms = np.where(cont > 0, cont * np.log2(np.maximum(cont, 1)), 0.0).sum(axis=1)
    out[nonzero] = np.log2(sizes[nonzero]) - cell_terms[nonzero] / sizes[nonzero]
    return out


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
    rows = dataset.all_rows()
    tables, starts = contingency_tables(dataset, rows)
    _, ratios = gains_and_ratios(tables, starts, class_counts(dataset, rows))
    return float(ratios[idx])


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
