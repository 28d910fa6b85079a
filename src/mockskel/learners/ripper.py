"""Ordered rule-list induction by repeated grow/prune with an MDL stop.

Classes are handled from rarest to most frequent; for each class, rules
are grown condition-by-condition maximizing FOIL information gain on a
grow split, pruned back on a prune split maximizing (p-n)/(p+n), and
accepted while the ruleset's description length stays within 64 bits of
the best seen.  Replacement/revision optimization passes then shrink and
refit the list.  The most frequent class becomes the default.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

import numpy as np

from ..errors import DegenerateDatasetError
from ..model import RuleList
from ..prep import PreparedDataset
from ..settings import RipperParams
from .base import Conjunction, class_counts, contingency_tables, counted_rule_list, covers

MDL_SURPLUS_BITS = 64.0
_EXPECTED_FP_SHARE = 0.5  # expected share of false positives among coding errors
_THEORY_WEIGHT = 0.5  # redundancy discount on rule-theory bits

def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else 0.0


def _subset_dl(t: float, k: float, p: float) -> float:
    """Bits to identify k of t elements given inclusion probability p."""
    if t <= 0:
        return 0.0
    p = min(max(p, 1e-12), 1 - 1e-12)
    bits = 0.0
    if k > 0:
        bits -= k * math.log2(p)
    if t - k > 0:
        bits -= (t - k) * math.log2(1 - p)
    return bits


def _theory_dl(total_conditions: int, k: int) -> float:
    if k == 0 or total_conditions <= 0:
        return 0.0
    bits = _log2(k)
    if k > 1 and bits > 0:
        bits += 2.0 * _log2(bits)
    bits += _subset_dl(total_conditions, k, k / total_conditions)
    return _THEORY_WEIGHT * bits


def _data_dl(cover: int, uncover: int, fp: int, fn: int) -> float:
    bits = _log2(cover + uncover + 1.0)
    if cover > uncover:
        expected = _EXPECTED_FP_SHARE * (fp + fn)
        bits += _subset_dl(cover, fp, expected / cover) if cover > 0 else 0.0
        bits += _subset_dl(uncover, fn, fn / uncover) if uncover > 0 else 0.0
    else:
        expected = (1 - _EXPECTED_FP_SHARE) * (fp + fn)
        bits += _subset_dl(cover, fp, fp / cover) if cover > 0 else 0.0
        bits += _subset_dl(uncover, fn, expected / uncover) if uncover > 0 else 0.0
    return bits


def _union_coverage(
    ds: PreparedDataset, rows: np.ndarray, ruleset: list[Conjunction]
) -> np.ndarray:
    mask = np.zeros(len(rows), dtype=bool)
    for conds in ruleset:
        mask |= covers(ds, rows, conds)
    return mask


def _stage_dl(ds: PreparedDataset, rows: np.ndarray, ruleset: list[Conjunction], pos: int) -> float:
    covered = _union_coverage(ds, rows, ruleset)
    is_pos = ds.y[rows] == pos
    cover = int(covered.sum())
    uncover = len(rows) - cover
    fp = int((covered & ~is_pos).sum())
    fn = int((~covered & is_pos).sum())
    total_conds = ds.total_conditions()
    return _data_dl(cover, uncover, fp, fn) + sum(
        _theory_dl(total_conds, len(c)) for c in ruleset
    )


def _grow_rule(
    ds: PreparedDataset, grow_rows: np.ndarray, pos: int, start: Conjunction = ()
) -> Conjunction:
    """Add attribute=value conditions maximizing FOIL information gain
    until no covered negatives remain (or no condition helps)."""
    conds = list(start)
    covered = grow_rows[covers(ds, grow_rows, tuple(conds))]
    while True:
        p0 = int((ds.y[covered] == pos).sum())
        n0 = len(covered) - p0
        if n0 == 0 or p0 == 0:
            break
        acc0 = _log2(p0 / (p0 + n0))
        tables, starts = contingency_tables(ds, covered)
        positives, totals = tables[:, pos], tables.sum(axis=1)
        # cells run in (attribute, value) order: a later one wins only by over
        # 1e-12; a test the rule already holds has gain 0, so it never wins
        best_gain, best_cell = 0.0, None
        for cell in np.flatnonzero(positives).tolist():
            p1 = int(positives[cell])
            gain = p1 * (_log2(p1 / totals[cell]) - acc0)
            if gain > best_gain + 1e-12:
                best_gain, best_cell = gain, cell
        if best_cell is None:
            break
        attr = int(np.searchsorted(starts, best_cell, side="right")) - 1
        value = best_cell - int(starts[attr])
        conds.append((attr, value))
        covered = covered[ds.X[covered, attr] == value]
    return tuple(conds)


def _prune_value(p: int, n: int) -> float:
    return (p - n) / (p + n) if p + n > 0 else 0.0


def _prefix_masks(
    ds: PreparedDataset, rows: np.ndarray, conds: Conjunction
) -> Iterator[np.ndarray]:
    """Per prefix of ``conds``, shortest first, which of ``rows`` it covers."""
    mask = np.ones(len(rows), dtype=bool)
    for attr, value in conds:
        mask = mask & (ds.X[rows, attr] == value)
        yield mask


def _prune_rule(
    ds: PreparedDataset, prune_rows: np.ndarray, conds: Conjunction, pos: int
) -> Conjunction:
    """Keep the condition prefix maximizing (p-n)/(p+n) on the prune set
    (ties prefer the shorter rule).  At least one condition is kept."""
    if len(conds) <= 1 or len(prune_rows) == 0:
        return conds
    is_pos = ds.y[prune_rows] == pos
    best_len, best_worth = 0, None
    for j, mask in enumerate(_prefix_masks(ds, prune_rows, conds), 1):
        p = int((mask & is_pos).sum())
        worth = _prune_value(p, int(mask.sum()) - p)
        if best_worth is None or worth > best_worth + 1e-12:
            best_len, best_worth = j, worth
    return conds[:best_len]


def _grow_prune_split(
    ds: PreparedDataset, rows: np.ndarray, pos: int, params: RipperParams, rng: random.Random
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified fold-style split: (folds-1)/folds grow, the rest prunes."""
    grow: list[int] = []
    prune: list[int] = []
    for group_rows in (rows[ds.y[rows] == pos], rows[ds.y[rows] != pos]):
        group = group_rows.tolist()
        rng.shuffle(group)
        cut = len(group) - len(group) // params.folds_split
        grow.extend(group[:cut])
        prune.extend(group[cut:])
    return np.sort(np.array(grow, dtype=np.intp)), np.sort(np.array(prune, dtype=np.intp))


def _acceptable(
    ds: PreparedDataset, remaining: np.ndarray, conds: Conjunction, pos: int, params: RipperParams
) -> bool:
    mask = covers(ds, remaining, conds)
    p = int((ds.y[remaining[mask]] == pos).sum())
    n = int(mask.sum()) - p
    return p > 0 and n < p and (p + n) >= params.min_rule_coverage


def _build_stage(
    ds: PreparedDataset,
    stage_rows: np.ndarray,
    pos: int,
    params: RipperParams,
    rng: random.Random,
    ruleset: list[Conjunction] | None = None,
) -> list[Conjunction]:
    """Grow rules for one class until positives run out or MDL says stop."""
    ruleset = list(ruleset or [])
    remaining = stage_rows[~_union_coverage(ds, stage_rows, ruleset)]
    min_dl = _stage_dl(ds, stage_rows, ruleset, pos)
    while (ds.y[remaining] == pos).any():
        grow_rows, prune_rows = _grow_prune_split(ds, remaining, pos, params, rng)
        conds = _grow_rule(ds, grow_rows, pos)
        if not conds:
            break
        conds = _prune_rule(ds, prune_rows, conds, pos)
        dl = _stage_dl(ds, stage_rows, ruleset + [conds], pos)
        min_dl = min(min_dl, dl)
        if dl > min_dl + MDL_SURPLUS_BITS:
            break
        if not _acceptable(ds, remaining, conds, pos, params):
            break
        ruleset.append(conds)
        remaining = remaining[~covers(ds, remaining, conds)]
    return ruleset


def _prune_for_list(
    ds: PreparedDataset,
    prune_rows: np.ndarray,
    others: list[Conjunction],
    conds: Conjunction,
    pos: int,
) -> Conjunction:
    """Prune a candidate by the error of the whole ruleset on the prune set
    (ties prefer the shorter rule)."""
    if len(conds) <= 1 or len(prune_rows) == 0:
        return conds
    is_pos = ds.y[prune_rows] == pos
    others_cover = _union_coverage(ds, prune_rows, others)
    best_len, best_err = 0, None
    for j, mask in enumerate(_prefix_masks(ds, prune_rows, conds), 1):
        err = int(((others_cover | mask) != is_pos).sum())
        if best_err is None or err < best_err:
            best_len, best_err = j, err
    return conds[:best_len]


def _optimize_stage(
    ds: PreparedDataset,
    stage_rows: np.ndarray,
    ruleset: list[Conjunction],
    pos: int,
    params: RipperParams,
    rng: random.Random,
) -> list[Conjunction]:
    """One replacement/revision pass over the ruleset."""
    result = list(ruleset)
    for i in range(len(result)):
        others = result[:i] + result[i + 1:]
        basis = stage_rows[~_union_coverage(ds, stage_rows, others)]
        if len(basis) == 0:
            continue
        grow_rows, prune_rows = _grow_prune_split(ds, basis, pos, params, rng)
        candidates = [result[i]]
        replacement = _grow_rule(ds, grow_rows, pos)
        if replacement:
            candidates.append(_prune_for_list(ds, prune_rows, others, replacement, pos))
        revision = _grow_rule(ds, grow_rows, pos, start=result[i])
        if revision:
            candidates.append(_prune_for_list(ds, prune_rows, others, revision, pos))
        best, best_dl = None, None
        for cand in candidates:
            dl = _stage_dl(ds, stage_rows, result[:i] + [cand] + result[i + 1:], pos)
            if best_dl is None or dl < best_dl - 1e-9:
                best, best_dl = cand, dl
        result[i] = best
    return result


def _sweep_deletions(
    ds: PreparedDataset, stage_rows: np.ndarray, ruleset: list[Conjunction], pos: int
) -> list[Conjunction]:
    """Drop rules whose removal does not increase the description length."""
    result = list(ruleset)
    dl = _stage_dl(ds, stage_rows, result, pos)
    for i in reversed(range(len(result))):
        without = result[:i] + result[i + 1:]
        without_dl = _stage_dl(ds, stage_rows, without, pos)
        if without_dl <= dl:
            result, dl = without, without_dl
    return result


def train_ripper(
    ds: PreparedDataset, params: RipperParams = RipperParams(), rows: np.ndarray | None = None
) -> RuleList:
    """Learn a rule list from ``rows`` of ``ds`` (every row when None)."""
    rows = ds.all_rows() if rows is None else rows
    if len(rows) == 0:
        raise DegenerateDatasetError("cannot train a rule list on 0 instances")
    counts = class_counts(ds, rows)
    order = sorted(
        (c for c in range(ds.n_classes) if counts[c] > 0),
        key=lambda c: (counts[c], c),
    )
    rng = random.Random(params.seed)
    rules: list[Conjunction] = []
    classes: list[int] = []
    data = rows
    for ci in order[:-1]:
        if not (ds.y[data] == ci).any():
            continue
        ruleset = _build_stage(ds, data, ci, params, rng)
        for _ in range(params.optimization_runs):
            if not ruleset:
                break
            ruleset = _optimize_stage(ds, data, ruleset, ci, params, rng)
            ruleset = _build_stage(ds, data, ci, params, rng, ruleset=ruleset)
        ruleset = _sweep_deletions(ds, data, ruleset, ci)
        rules += ruleset
        classes += [ci] * len(ruleset)
        if ruleset:
            data = data[~_union_coverage(ds, data, ruleset)]
    return counted_rule_list(ds, rows, rules, classes, order[-1])
