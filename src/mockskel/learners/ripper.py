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

import numpy as np

from ..errors import DegenerateDatasetError
from ..prep import PreparedDataset
from .base import EncodedDataset, RipperParams, class_counts, first_match, rule_class_codes
from .model import Rule, RuleList

MDL_SURPLUS_BITS = 64.0
_EXPECTED_FP_SHARE = 0.5  # expected share of false positives among coding errors
_THEORY_WEIGHT = 0.5  # redundancy discount on rule-theory bits

Conds = tuple[tuple[int, int], ...]  # ((attribute index, value index), ...)


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


def _match_mask(enc: EncodedDataset, rows: np.ndarray, conds: Conds) -> np.ndarray:
    mask = np.ones(len(rows), dtype=bool)
    for attr, value in conds:
        mask &= enc.X[rows, attr] == value
    return mask


def _union_coverage(enc: EncodedDataset, rows: np.ndarray, ruleset: list[Conds]) -> np.ndarray:
    mask = np.zeros(len(rows), dtype=bool)
    for conds in ruleset:
        mask |= _match_mask(enc, rows, conds)
    return mask


def _stage_dl(enc: EncodedDataset, rows: np.ndarray, ruleset: list[Conds], pos: int) -> float:
    covered = _union_coverage(enc, rows, ruleset)
    is_pos = enc.y[rows] == pos
    cover = int(covered.sum())
    uncover = len(rows) - cover
    fp = int((covered & ~is_pos).sum())
    fn = int((~covered & is_pos).sum())
    total_conds = enc.total_conditions()
    return _data_dl(cover, uncover, fp, fn) + sum(
        _theory_dl(total_conds, len(c)) for c in ruleset
    )


def _grow_rule(
    enc: EncodedDataset, grow_rows: np.ndarray, pos: int, start: Conds = ()
) -> Conds:
    """Add attribute=value conditions maximizing FOIL information gain
    until no covered negatives remain (or no condition helps)."""
    conds = list(start)
    used = {attr for attr, _ in conds}
    covered = grow_rows[_match_mask(enc, grow_rows, tuple(conds))]
    while True:
        is_pos = enc.y[covered] == pos
        p0 = int(is_pos.sum())
        n0 = len(covered) - p0
        if n0 == 0 or p0 == 0:
            break
        acc0 = _log2(p0 / (p0 + n0))
        best_gain, best_attr, best_value = 0.0, None, None
        for attr in range(len(enc.names)):
            if attr in used:
                continue
            values = enc.X[covered, attr]
            totals = np.bincount(values, minlength=len(enc.domains[attr]))
            positives = np.bincount(values[is_pos], minlength=len(enc.domains[attr]))
            for vi in range(len(totals)):
                p1 = int(positives[vi])
                if p1 == 0:
                    continue
                gain = p1 * (_log2(p1 / totals[vi]) - acc0)
                if gain > best_gain + 1e-12:
                    best_gain, best_attr, best_value = gain, attr, vi
        if best_attr is None:
            break
        conds.append((best_attr, best_value))
        used.add(best_attr)
        covered = covered[enc.X[covered, best_attr] == best_value]
    return tuple(conds)


def _prune_value(p: int, n: int) -> float:
    return (p - n) / (p + n) if p + n > 0 else 0.0


def _prune_rule(enc: EncodedDataset, prune_rows: np.ndarray, conds: Conds, pos: int) -> Conds:
    """Keep the condition prefix maximizing (p-n)/(p+n) on the prune set
    (ties prefer the shorter rule).  At least one condition is kept."""
    if len(conds) <= 1 or len(prune_rows) == 0:
        return conds
    is_pos = enc.y[prune_rows] == pos
    mask = np.ones(len(prune_rows), dtype=bool)
    worths = []
    for attr, value in conds:
        mask = mask & (enc.X[prune_rows, attr] == value)
        p = int((mask & is_pos).sum())
        n = int(mask.sum()) - p
        worths.append(_prune_value(p, n))
    best_len = 1
    for j in range(2, len(conds) + 1):
        if worths[j - 1] > worths[best_len - 1] + 1e-12:
            best_len = j
    return conds[:best_len]


def _grow_prune_split(
    enc: EncodedDataset, rows: np.ndarray, pos: int, params: RipperParams, rng: random.Random
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified fold-style split: (folds-1)/folds grow, the rest prunes."""
    grow: list[int] = []
    prune: list[int] = []
    for group_rows in (rows[enc.y[rows] == pos], rows[enc.y[rows] != pos]):
        group = group_rows.tolist()
        rng.shuffle(group)
        cut = len(group) - len(group) // params.folds_split
        grow.extend(group[:cut])
        prune.extend(group[cut:])
    return np.sort(np.array(grow, dtype=np.intp)), np.sort(np.array(prune, dtype=np.intp))


def _acceptable(enc: EncodedDataset, remaining: np.ndarray, conds: Conds, pos: int, params: RipperParams) -> bool:
    mask = _match_mask(enc, remaining, conds)
    p = int((enc.y[remaining[mask]] == pos).sum())
    n = int(mask.sum()) - p
    return p > 0 and n < p and (p + n) >= params.min_rule_coverage


def _build_stage(
    enc: EncodedDataset,
    stage_rows: np.ndarray,
    pos: int,
    params: RipperParams,
    rng: random.Random,
    ruleset: list[Conds] | None = None,
) -> list[Conds]:
    """Grow rules for one class until positives run out or MDL says stop."""
    ruleset = list(ruleset or [])
    remaining = stage_rows[~_union_coverage(enc, stage_rows, ruleset)]
    min_dl = _stage_dl(enc, stage_rows, ruleset, pos)
    while (enc.y[remaining] == pos).any():
        grow_rows, prune_rows = _grow_prune_split(enc, remaining, pos, params, rng)
        conds = _grow_rule(enc, grow_rows, pos)
        if not conds:
            break
        conds = _prune_rule(enc, prune_rows, conds, pos)
        dl = _stage_dl(enc, stage_rows, ruleset + [conds], pos)
        min_dl = min(min_dl, dl)
        if dl > min_dl + MDL_SURPLUS_BITS:
            break
        if not _acceptable(enc, remaining, conds, pos, params):
            break
        ruleset.append(conds)
        remaining = remaining[~_match_mask(enc, remaining, conds)]
    return ruleset


def _whole_list_error(
    enc: EncodedDataset, rows: np.ndarray, ruleset: list[Conds], pos: int
) -> int:
    covered = _union_coverage(enc, rows, ruleset)
    is_pos = enc.y[rows] == pos
    return int((covered & ~is_pos).sum() + (~covered & is_pos).sum())


def _prune_for_list(
    enc: EncodedDataset,
    prune_rows: np.ndarray,
    others: list[Conds],
    conds: Conds,
    pos: int,
) -> Conds:
    """Prune a candidate by the error of the whole ruleset on the prune set."""
    if len(conds) <= 1 or len(prune_rows) == 0:
        return conds
    best_len, best_err = None, None
    for j in range(1, len(conds) + 1):
        err = _whole_list_error(enc, prune_rows, others + [conds[:j]], pos)
        if best_err is None or err < best_err:
            best_len, best_err = j, err
    return conds[:best_len]


def _optimize_stage(
    enc: EncodedDataset,
    stage_rows: np.ndarray,
    ruleset: list[Conds],
    pos: int,
    params: RipperParams,
    rng: random.Random,
) -> list[Conds]:
    """One replacement/revision pass over the ruleset."""
    result = list(ruleset)
    for i in range(len(result)):
        others = result[:i] + result[i + 1:]
        basis = stage_rows[~_union_coverage(enc, stage_rows, others)]
        if len(basis) == 0:
            continue
        grow_rows, prune_rows = _grow_prune_split(enc, basis, pos, params, rng)
        candidates = [result[i]]
        replacement = _grow_rule(enc, grow_rows, pos)
        if replacement:
            candidates.append(_prune_for_list(enc, prune_rows, others, replacement, pos))
        revision = _grow_rule(enc, grow_rows, pos, start=result[i])
        if revision:
            candidates.append(_prune_for_list(enc, prune_rows, others, revision, pos))
        best, best_dl = None, None
        for cand in candidates:
            dl = _stage_dl(enc, stage_rows, result[:i] + [cand] + result[i + 1:], pos)
            if best_dl is None or dl < best_dl - 1e-9:
                best, best_dl = cand, dl
        result[i] = best
    return result


def _sweep_deletions(
    enc: EncodedDataset, stage_rows: np.ndarray, ruleset: list[Conds], pos: int
) -> list[Conds]:
    """Drop rules whose removal does not increase the description length."""
    result = list(ruleset)
    i = len(result) - 1
    while i >= 0:
        without = result[:i] + result[i + 1:]
        if _stage_dl(enc, stage_rows, without, pos) <= _stage_dl(enc, stage_rows, result, pos):
            result = without
        i -= 1
    return result


def train_ripper_encoded(
    enc: EncodedDataset, rows: np.ndarray, params: RipperParams = RipperParams()
) -> RuleList:
    if len(rows) == 0:
        raise DegenerateDatasetError("cannot train a rule list on 0 instances")
    counts = class_counts(enc, rows)
    order = sorted(
        (c for c in range(enc.n_classes) if counts[c] > 0),
        key=lambda c: (counts[c], c),
    )
    rng = random.Random(params.seed)
    rules: list[Rule] = []
    data = rows
    for ci in order[:-1]:
        if not (enc.y[data] == ci).any():
            continue
        ruleset = _build_stage(enc, data, ci, params, rng)
        for _ in range(params.optimization_runs):
            if not ruleset:
                break
            ruleset = _optimize_stage(enc, data, ruleset, ci, params, rng)
            ruleset = _build_stage(enc, data, ci, params, rng, ruleset=ruleset)
        ruleset = _sweep_deletions(enc, data, ruleset, ci)
        for conds in ruleset:
            named = tuple((enc.names[a], enc.domains[a][v]) for a, v in conds)
            rules.append(Rule(conditions=named, klass=enc.target_domain[ci]))
        if ruleset:
            data = data[~_union_coverage(enc, data, ruleset)]
    default_class = enc.target_domain[order[-1]]
    rule_list = RuleList(target=enc.target_name, rules=tuple(rules), default_class=default_class)
    recount_encoded(rule_list, enc, rows)
    return rule_list


def recount_encoded(rule_list: RuleList, enc: EncodedDataset, rows: np.ndarray) -> None:
    """Refresh (N/E) annotations with first-match counts over ``rows``."""
    fired = first_match(rule_list, enc, rows)
    class_codes = rule_class_codes(rule_list, enc)
    slots = len(class_codes)
    covered = np.bincount(fired, minlength=slots)
    correct = np.bincount(fired[enc.y[rows] == class_codes[fired]], minlength=slots)
    errors = covered - correct
    rule_list.rules = tuple(
        Rule(rule.conditions, rule.klass, int(covered[i]), int(errors[i]))
        for i, rule in enumerate(rule_list.rules)
    )
    rule_list.default_count = int(covered[-1])
    rule_list.default_errors = int(errors[-1])


def train_ripper(dataset: PreparedDataset, params: RipperParams = RipperParams()) -> RuleList:
    enc = EncodedDataset(dataset)
    return train_ripper_encoded(enc, enc.all_rows(), params)
