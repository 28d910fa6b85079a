"""Symbolic model forms: decision trees, each its root ``Split`` or
``Leaf``, and ordered rule lists.  Neither holds its target's name.

Both forms classify nominal instances given as name->value mappings;
``mockskel.skeleton`` writes and reads their text form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

from .errors import SchemaMismatchError


@dataclass
class Leaf:
    klass: str
    train_count: int = 0
    error_count: int = 0


@dataclass
class Split:
    attribute: str
    branches: dict[str, "Node"]
    #: branch value followed for values without a branch: the heaviest branch's
    missing_value: str = field(init=False)

    def __post_init__(self):
        if not self.branches:
            raise ValueError("split node needs at least one branch")
        self.missing_value = _heaviest_branch(self.branches)


Node = Union[Leaf, Split]


def _nodes(node: Node) -> Iterator[Node]:
    """``node`` and every node below it, in pre-order."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Split):
            stack.extend(reversed(node.branches.values()))


def leaves(tree: Node) -> Iterator[Leaf]:
    """The leaves of ``tree``, in pre-order."""
    return (node for node in _nodes(tree) if isinstance(node, Leaf))


def _heaviest_branch(branches: dict[str, Node]) -> str:
    best_value, best_total = None, -1
    for value, child in branches.items():
        total = sum(leaf.train_count for leaf in leaves(child))
        if total > best_total:
            best_value, best_total = value, total
    return best_value


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

    rules: tuple[Rule, ...]
    default_class: str
    default_count: int = 0
    default_errors: int = 0


Model = Union[Leaf, Split, RuleList]


def classify(model: Model, values: Mapping[str, str]) -> str:
    """Predict the target value for an instance.

    Total over any instance: tree branches route unseen values to the
    most-populated branch, rule lists fall through to the default.
    """
    node = model
    while isinstance(node, Split):
        value = values.get(node.attribute)
        node = node.branches.get(value) or node.branches[node.missing_value]
    if isinstance(node, Leaf):
        return node.klass
    if isinstance(model, RuleList):
        for rule in model.rules:
            if rule.matches(values):
                return rule.klass
        return model.default_class
    raise SchemaMismatchError(f"cannot classify with {type(model).__name__}")


def tested_attributes(model: Model) -> set[str]:
    """The attributes ``model``'s splits or rule conditions test: all ``classify`` reads."""
    if isinstance(model, RuleList):
        return {attr for rule in model.rules for attr, _ in rule.conditions}
    return {node.attribute for node in _nodes(model) if isinstance(node, Split)}


def model_size(model: Model) -> int:
    """Tree: total node count.  Rule list: rule count including the default."""
    if isinstance(model, RuleList):
        return len(model.rules) + 1
    return sum(1 for _ in _nodes(model))
