"""Symbolic model forms: decision trees and ordered rule lists.

Both forms classify nominal instances given as name->value mappings and
render to the indented/parenthesised text that skeleton files embed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from ..errors import SchemaMismatchError


@dataclass
class Leaf:
    klass: str
    train_count: int = 0
    error_count: int = 0


@dataclass
class Split:
    attribute: str
    branches: dict[str, "Node"]
    #: branch value followed for values never seen in training
    missing_value: str = ""

    def __post_init__(self):
        if not self.branches:
            raise ValueError("split node needs at least one branch")
        if self.missing_value not in self.branches:
            self.missing_value = _heaviest_branch(self.branches)


Node = Union[Leaf, Split]


def _node_total(node: Node) -> int:
    if isinstance(node, Leaf):
        return node.train_count
    return sum(_node_total(child) for child in node.branches.values())


def _heaviest_branch(branches: dict[str, Node]) -> str:
    best_value, best_total = None, -1
    for value, child in branches.items():
        total = _node_total(child)
        if total > best_total:
            best_value, best_total = value, total
    return best_value


@dataclass
class DecisionTree:
    target: str
    root: Node

    def leaves(self) -> Iterator[Leaf]:
        def walk(node: Node) -> Iterator[Leaf]:
            if isinstance(node, Leaf):
                yield node
            else:
                for child in node.branches.values():
                    yield from walk(child)

        return walk(self.root)

    def split_attributes(self) -> set[str]:
        out: set[str] = set()

        def walk(node: Node) -> None:
            if isinstance(node, Split):
                out.add(node.attribute)
                for child in node.branches.values():
                    walk(child)

        walk(self.root)
        return out


@dataclass(frozen=True)
class Rule:
    """Conjunction of attribute=value tests implying a target class."""

    conditions: tuple[tuple[str, str], ...]
    klass: str
    train_count: int = 0
    error_count: int = 0

    def matches(self, values: Mapping[str, str]) -> bool:
        return all(values.get(attr) == expected for attr, expected in self.conditions)


@dataclass
class RuleList:
    """Ordered rules evaluated first-match-wins with a trailing default."""

    target: str
    rules: tuple[Rule, ...]
    default_class: str
    default_count: int = 0
    default_errors: int = 0

    def condition_attributes(self) -> set[str]:
        return {attr for rule in self.rules for attr, _ in rule.conditions}


Model = Union[DecisionTree, RuleList]


def classify(model: Model, values: Mapping[str, str]) -> str:
    """Predict the target value for an instance.

    Total over any instance: tree branches route unseen values to the
    most-populated branch, rule lists fall through to the default.
    """
    if isinstance(model, DecisionTree):
        node = model.root
        while isinstance(node, Split):
            value = values.get(node.attribute)
            node = node.branches.get(value) or node.branches[node.missing_value]
        return node.klass
    if isinstance(model, RuleList):
        for rule in model.rules:
            if rule.matches(values):
                return rule.klass
        return model.default_class
    raise SchemaMismatchError(f"cannot classify with {type(model).__name__}")


def model_size(model: Model) -> int:
    """Tree: total node count.  Rule list: rule count including the default."""
    if isinstance(model, DecisionTree):
        def count(node: Node) -> int:
            if isinstance(node, Leaf):
                return 1
            return 1 + sum(count(c) for c in node.branches.values())

        return count(model.root)
    return len(model.rules) + 1


def leaf_count(tree: DecisionTree) -> int:
    return sum(1 for _ in tree.leaves())


# ---------------------------------------------------------------------------
# Rendering (the exact text skeleton files embed)

#: values that skeleton files write (and parse) without JSON quotes
BARE_TOKEN = re.compile(r"[A-Za-z0-9_.\-{}/@+]+")


def _quote(value: str) -> str:
    if BARE_TOKEN.fullmatch(value):
        return value
    return json.dumps(value, ensure_ascii=False)


def _counts(n: int, e: int, include: bool) -> str:
    if not include:
        return ""
    return f" ({n})" if e == 0 else f" ({n}/{e})"


def render_tree(tree: DecisionTree, indent: str = "", include_counts: bool = True) -> list[str]:
    lines: list[str] = []

    def walk(node: Node, pad: str) -> None:
        for value, child in node.branches.items():
            prefix = f"{pad}{node.attribute} = {_quote(value)}:"
            if isinstance(child, Leaf):
                lines.append(
                    f"{prefix} {_quote(child.klass)}"
                    f"{_counts(child.train_count, child.error_count, include_counts)}"
                )
            else:
                lines.append(prefix)
                walk(child, pad + "  ")

    if isinstance(tree.root, Leaf):
        leaf = tree.root
        lines.append(
            f"{indent}{_quote(leaf.klass)}"
            f"{_counts(leaf.train_count, leaf.error_count, include_counts)}"
        )
    else:
        walk(tree.root, indent)
    return lines


def render_rules(rules: RuleList, indent: str = "", include_counts: bool = True) -> list[str]:
    lines: list[str] = []
    for rule in rules.rules:
        conds = " and ".join(f"{attr} = {_quote(value)}" for attr, value in rule.conditions)
        lines.append(
            f"{indent}({conds}) => {rules.target}={_quote(rule.klass)}"
            f"{_counts(rule.train_count, rule.error_count, include_counts)}"
        )
    lines.append(
        f"{indent}default: {_quote(rules.default_class)}"
        f"{_counts(rules.default_count, rules.default_errors, include_counts)}"
    )
    return lines


def render_model(model: Model, indent: str = "", include_counts: bool = True) -> list[str]:
    if isinstance(model, DecisionTree):
        return render_tree(model, indent, include_counts)
    return render_rules(model, indent, include_counts)
