"""Mock skeleton documents: emit trained models to an editable text file,
parse (possibly hand-edited) files back into executable models.

Skeleton grammar (UTF-8, ``#`` comment lines, two-space indentation):

    # free comments
    service: <name>
    schema-digest: <hex>
    seed: <int>
    config: <one-line JSON object>

    inputs:
      <input attribute name>
      ...

    target <name> tree:
      # learner=<l> cv-accuracy=<f> cv-precision=<f> cv-recall=<f> cv-size=<f>
      <attr> = <value>: <class> (N[/E])      # branch to a leaf
      <attr> = <value>:                      # branch to a subtree
        ...
      <class> (N[/E])                        # single-leaf tree body

    target <name> rules:
      (<attr> = <value> and <attr> = <value>) => <name>=<class> (N[/E])
      default: <class> (N[/E])

    unpredicted:
      <name>  reason=<reason>  default=<json literal>

Values containing spaces or punctuation are JSON-quoted.  Lines without
a trailing ``(N)``/``(N/E)`` count are treated as hand edits and flag
their target's model as edited.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from .errors import SkeletonSyntaxError, UnknownAttributeError
from .features import ExtractionConfig, ExtractionProfile
from .learners.model import BARE_TOKEN, DecisionTree, Leaf, Model, Rule, RuleList, Split, render_model

if TYPE_CHECKING:  # training-side types; serving does not import them
    from .evaluation import TargetMetrics
    from .prep import Removal

log = logging.getLogger(__name__)

PLACEHOLDER = "<EDIT-ME>"

ORIGIN_LEARNED = "learned"
ORIGIN_EDITED = "edited"


@dataclass
class TargetEntry:
    model: Model
    learner: str | None = None
    origin: str = ORIGIN_LEARNED
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class UnpredictedTarget:
    attribute: str
    reason: str
    #: nominal default value served for this attribute, or PLACEHOLDER
    default: str = PLACEHOLDER


@dataclass
class MockSkeleton:
    service_name: str
    seed: int
    inputs: tuple[str, ...]
    targets: dict[str, TargetEntry]
    unpredicted: tuple[UnpredictedTarget, ...]
    config: ExtractionConfig = ExtractionConfig()
    profile: ExtractionProfile = ExtractionProfile()
    #: input attributes dropped during preparation (constant values);
    #: live requests presenting them are not counted as unmatched
    dropped_inputs: tuple[str, ...] = ()
    schema_digest: str = ""

    def __post_init__(self):
        if not self.schema_digest:
            self.schema_digest = self.computed_digest()

    def computed_digest(self) -> str:
        material = "\n".join(self.inputs)
        material += "\0" + "\n".join(sorted(self.target_names()))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def target_names(self) -> tuple[str, ...]:
        return tuple(self.targets) + tuple(u.attribute for u in self.unpredicted)


def build_skeleton(
    service_name: str,
    seed: int,
    inputs: tuple[str, ...],
    chosen: Mapping[str, tuple[str, Model, TargetMetrics | None]],
    removals: tuple[Removal, ...] = (),
    config: ExtractionConfig = ExtractionConfig(),
    profile: ExtractionProfile = ExtractionProfile(),
) -> MockSkeleton:
    """Bundle trained models plus pruning leftovers into a skeleton.

    ``chosen`` maps each predicted target to (learner name, model,
    cross-validation metrics).  Pruned targets become unpredicted
    entries; unary ones keep their single observed value as a serveable
    default, high-cardinality ones get an edit-me placeholder.
    """
    targets: dict[str, TargetEntry] = {}
    for name, (learner, model, metrics) in chosen.items():
        entry_metrics: dict[str, float] = {}
        if metrics is not None:
            entry_metrics = {
                "cv-accuracy": round(metrics.accuracy, 6),
                "cv-precision": round(metrics.precision, 6),
                "cv-recall": round(metrics.recall, 6),
                "cv-size": round(metrics.model_size, 4),
            }
        targets[name] = TargetEntry(model=model, learner=learner, metrics=entry_metrics)
    unpredicted = tuple(
        UnpredictedTarget(
            attribute=r.attribute,
            reason=r.reason,
            default=r.value if r.value is not None else PLACEHOLDER,
        )
        for r in removals
        if r.role.value == "target"
    )
    dropped = tuple(r.attribute for r in removals if r.role.value == "input")
    return MockSkeleton(
        service_name=service_name,
        seed=seed,
        inputs=inputs,
        targets=targets,
        unpredicted=unpredicted,
        config=config,
        profile=profile,
        dropped_inputs=dropped,
    )


# ---------------------------------------------------------------------------
# Emission


def _config_json(skeleton: MockSkeleton) -> str:
    obj = skeleton.config.to_json_dict()
    obj["pathDepth"] = skeleton.profile.path_depth
    obj["arrayPaths"] = list(skeleton.profile.array_paths)
    obj["shapes"] = list(skeleton.profile.shapes)
    obj["droppedInputs"] = list(skeleton.dropped_inputs)
    return json.dumps(obj, separators=(", ", ": "))


def emit_skeleton(skeleton: MockSkeleton) -> str:
    """Render a skeleton to its editable text form."""
    lines = [
        "# mock skeleton v1",
        f"service: {skeleton.service_name}",
        f"schema-digest: {skeleton.computed_digest()}",
        f"seed: {skeleton.seed}",
        f"config: {_config_json(skeleton)}",
        "",
        "inputs:",
    ]
    lines += [f"  {name}" for name in skeleton.inputs]
    for name, entry in skeleton.targets.items():
        kind = "tree" if isinstance(entry.model, DecisionTree) else "rules"
        lines.append("")
        lines.append(f"target {name} {kind}:")
        meta = [f"learner={entry.learner}"] if entry.learner else []
        meta += [f"{key}={value}" for key, value in entry.metrics.items()]
        learned = entry.origin == ORIGIN_LEARNED
        if meta and learned:
            lines.append("  # " + " ".join(meta))
        # edited models stay count-free so their provenance survives re-emission
        lines += render_model(entry.model, indent="  ", include_counts=learned)
    if skeleton.unpredicted:
        lines.append("")
        lines.append("unpredicted:")
        for item in skeleton.unpredicted:
            default = json.dumps(item.default, ensure_ascii=False)
            lines.append(f"  {item.attribute}  reason={item.reason}  default={default}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing

_COUNTS = re.compile(r"\((\d+)(?:/(\d+))?\)\s*$")
_DECODER = json.JSONDecoder()


def _take_value(text: str, line_no: int) -> tuple[str, str]:
    """Consume one (possibly JSON-quoted) value token; returns (value, rest)."""
    text = text.lstrip()
    if text.startswith('"'):
        try:
            value, end = _DECODER.raw_decode(text)
        except json.JSONDecodeError as exc:
            raise SkeletonSyntaxError(f"bad quoted value: {exc}", line_no) from None
        if not isinstance(value, str):
            raise SkeletonSyntaxError("quoted value must be a JSON string", line_no)
        return value, text[end:]
    match = BARE_TOKEN.match(text)
    if not match:
        raise SkeletonSyntaxError(f"expected a value, found {text!r}", line_no)
    return match.group(0), text[match.end():]


def _take_counts(text: str, line_no: int) -> tuple[int, int, bool]:
    """(train count, error count, counts present) from a line tail."""
    match = _COUNTS.search(text)
    if not match:
        if text.strip():
            raise SkeletonSyntaxError(f"unexpected trailing text {text.strip()!r}", line_no)
        return 0, 0, False
    if text[: match.start()].strip():
        raise SkeletonSyntaxError(
            f"unexpected text before counts: {text[: match.start()].strip()!r}", line_no
        )
    return int(match.group(1)), int(match.group(2) or 0), True


@dataclass
class _Line:
    number: int  # 1-based
    indent: int
    text: str


def _model_lines(block: list[_Line]) -> tuple[list[_Line], dict[str, float]]:
    metrics: dict[str, float] = {}
    kept = []
    for line in block:
        if line.text.startswith("#"):
            for token in line.text[1:].split():
                key, _, value = token.partition("=")
                if key and value:
                    try:
                        metrics[key] = float(value)
                    except ValueError:
                        metrics[key] = value  # e.g. learner=c45
        else:
            kept.append(line)
    return kept, metrics


def _parse_tree(name: str, block: list[_Line], inputs: set[str]) -> tuple[DecisionTree, bool]:
    edited = False

    def parse_leaf_tail(text: str, line_no: int) -> Leaf:
        nonlocal edited
        klass, rest = _take_value(text, line_no)
        n, e, counted = _take_counts(rest, line_no)
        if not counted:
            edited = True
        return Leaf(klass, n, e)

    def parse_level(start: int, indent: int) -> tuple[object, int]:
        """Parse the sibling branch group starting at ``start``."""
        branches: dict[str, object] = {}
        attribute = None
        i = start
        while i < len(block) and block[i].indent == indent:
            line = block[i]
            head, sep, tail = line.text.partition(" = ")
            if not sep:
                raise SkeletonSyntaxError(f"expected '<attribute> = <value>:', got {line.text!r}", line.number)
            if attribute is None:
                attribute = head.strip()
                if attribute not in inputs:
                    raise UnknownAttributeError(
                        f"line {line.number}: unknown attribute {attribute!r} in tree for {name!r}"
                    )
            elif head.strip() != attribute:
                raise SkeletonSyntaxError(
                    f"sibling branches must test one attribute ({attribute!r}), got {head.strip()!r}",
                    line.number,
                )
            value, rest = _take_value(tail, line.number)
            rest = rest.lstrip()
            if not rest.startswith(":"):
                raise SkeletonSyntaxError("expected ':' after branch value", line.number)
            rest = rest[1:].strip()
            if rest:
                branches[value] = parse_leaf_tail(rest, line.number)
                i += 1
            else:
                if i + 1 >= len(block) or block[i + 1].indent <= indent:
                    raise SkeletonSyntaxError("branch subtree is empty", block[i].number)
                child, i = parse_level(i + 1, block[i + 1].indent)
                branches[value] = child
        if attribute is None:
            raise SkeletonSyntaxError("empty tree body", block[start].number if block else 0)
        return Split(attribute, branches), i

    if not block:
        raise SkeletonSyntaxError(f"target {name!r} has an empty model body")
    if len(block) == 1 and " = " not in block[0].text:
        root = parse_leaf_tail(block[0].text, block[0].number)
        return DecisionTree(target=name, root=root), edited
    root, end = parse_level(0, block[0].indent)
    if end != len(block):
        raise SkeletonSyntaxError("unexpected indentation", block[end].number)
    return DecisionTree(target=name, root=root), edited


def _parse_rules(name: str, block: list[_Line], inputs: set[str]) -> tuple[RuleList, bool]:
    edited = False
    rules: list[Rule] = []
    default: tuple[str, int, int] | None = None
    for line in block:
        text = line.text
        if text.startswith("default:"):
            if default is not None:
                raise SkeletonSyntaxError("duplicate default line", line.number)
            klass, rest = _take_value(text[len("default:"):], line.number)
            n, e, counted = _take_counts(rest, line.number)
            edited = edited or not counted
            default = (klass, n, e)
            continue
        if not text.startswith("("):
            raise SkeletonSyntaxError(f"expected a rule or default line, got {text!r}", line.number)
        rest = text[1:].lstrip()
        conditions: list[tuple[str, str]] = []
        while not rest.startswith(")"):
            attr, sep, tail = rest.partition(" = ")
            if not sep:
                raise SkeletonSyntaxError("expected '<attribute> = <value>' in rule", line.number)
            attr = attr.strip()
            if attr not in inputs:
                raise UnknownAttributeError(
                    f"line {line.number}: unknown attribute {attr!r} in rule for {name!r}"
                )
            value, rest = _take_value(tail, line.number)
            rest = rest.lstrip()
            if rest.startswith("and "):
                rest = rest[4:].lstrip()
            elif not rest.startswith(")"):
                raise SkeletonSyntaxError("expected 'and' or ')' in rule conditions", line.number)
            conditions.append((attr, value))
        rest = rest[1:].lstrip()
        if not rest.startswith("=>"):
            raise SkeletonSyntaxError("expected '=>' after rule conditions", line.number)
        rest = rest[2:].lstrip()
        target, sep, tail = rest.partition("=")
        if not sep:
            raise SkeletonSyntaxError("expected '<target>=<class>' after '=>'", line.number)
        if target.strip() != name:
            raise SkeletonSyntaxError(
                f"rule assigns {target.strip()!r} inside target section {name!r}", line.number
            )
        klass, rest = _take_value(tail, line.number)
        n, e, counted = _take_counts(rest, line.number)
        edited = edited or not counted
        rules.append(Rule(tuple(conditions), klass, n, e))
    if default is None:
        raise SkeletonSyntaxError(f"target {name!r} rules have no default line")
    return (
        RuleList(
            target=name,
            rules=tuple(rules),
            default_class=default[0],
            default_count=default[1],
            default_errors=default[2],
        ),
        edited,
    )


_TARGET_HEADER = re.compile(r"target\s+(\S+)\s+(tree|rules):\s*$")


def parse_skeleton(text: str) -> MockSkeleton:
    """Parse a skeleton document; syntax errors report line numbers.

    Models whose lines lack count annotations are marked as edited.
    Class values never seen in the learned (counted) lines are accepted
    with a warning, since edits may introduce new response literals.
    """
    lines: list[_Line] = []
    for number, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip())
        lines.append(_Line(number=number, indent=indent, text=stripped.strip()))

    service_name = ""
    seed = 0
    digest = ""
    config = ExtractionConfig()
    profile = ExtractionProfile()
    dropped_inputs: tuple[str, ...] = ()
    inputs: list[str] = []
    targets: dict[str, TargetEntry] = {}
    unpredicted: list[UnpredictedTarget] = []

    i = 0

    def collect_block(start: int) -> tuple[list[_Line], int]:
        block = []
        j = start
        while j < len(lines) and lines[j].indent > 0:
            block.append(lines[j])
            j += 1
        return block, j

    while i < len(lines):
        line = lines[i]
        if line.indent != 0:
            raise SkeletonSyntaxError(f"unexpected indented line {line.text!r}", line.number)
        if line.text.startswith("#"):
            i += 1
            continue
        if line.text.startswith("service:"):
            service_name = line.text[len("service:"):].strip()
            i += 1
        elif line.text.startswith("schema-digest:"):
            digest = line.text[len("schema-digest:"):].strip()
            i += 1
        elif line.text.startswith("seed:"):
            try:
                seed = int(line.text[len("seed:"):].strip())
            except ValueError:
                raise SkeletonSyntaxError("seed must be an integer", line.number) from None
            i += 1
        elif line.text.startswith("config:"):
            try:
                obj = json.loads(line.text[len("config:"):].strip())
            except json.JSONDecodeError as exc:
                raise SkeletonSyntaxError(f"bad config JSON: {exc}", line.number) from None
            config = ExtractionConfig.from_json_dict(obj)
            profile = ExtractionProfile(
                path_depth=int(obj.get("pathDepth", 0)),
                array_paths=tuple(obj.get("arrayPaths", ())),
                shapes=tuple(obj.get("shapes", ())),
            )
            dropped_inputs = tuple(obj.get("droppedInputs", ()))
            i += 1
        elif line.text == "inputs:":
            block, i = collect_block(i + 1)
            inputs = [b.text for b in block]
        elif line.text.startswith("target "):
            match = _TARGET_HEADER.fullmatch(line.text)
            if not match:
                raise SkeletonSyntaxError(
                    "expected 'target <name> tree:' or 'target <name> rules:'", line.number
                )
            name, kind = match.group(1), match.group(2)
            if name in targets:
                raise SkeletonSyntaxError(f"duplicate target section {name!r}", line.number)
            block, i = collect_block(i + 1)
            body, meta = _model_lines(block)
            known = set(inputs)
            if kind == "tree":
                model, edited = _parse_tree(name, body, known)
            else:
                model, edited = _parse_rules(name, body, known)
            learner = meta.pop("learner", None)
            targets[name] = TargetEntry(
                model=model,
                learner=str(learner) if learner is not None else None,
                origin=ORIGIN_EDITED if edited else ORIGIN_LEARNED,
                metrics={k: v for k, v in meta.items() if isinstance(v, float)},
            )
            _warn_unknown_values(name, model)
        elif line.text == "unpredicted:":
            block, i = collect_block(i + 1)
            for b in block:
                unpredicted.append(_parse_unpredicted(b))
        else:
            raise SkeletonSyntaxError(f"unrecognized directive {line.text!r}", line.number)

    if not inputs:
        raise SkeletonSyntaxError("skeleton has no inputs section")
    skeleton = MockSkeleton(
        service_name=service_name,
        seed=seed,
        inputs=tuple(inputs),
        targets=targets,
        unpredicted=tuple(unpredicted),
        config=config,
        profile=profile,
        dropped_inputs=dropped_inputs,
        schema_digest=digest,
    )
    if digest and digest != skeleton.computed_digest():
        log.warning(
            "schema digest %s does not match the document's schema (%s); "
            "the skeleton was probably edited",
            digest,
            skeleton.computed_digest(),
        )
    return skeleton


def _warn_unknown_values(name: str, model: Model) -> None:
    learned: set[str] = set()
    introduced: set[str] = set()
    if isinstance(model, DecisionTree):
        for leaf in model.leaves():
            (learned if leaf.train_count or leaf.error_count else introduced).add(leaf.klass)
    else:
        for rule in model.rules:
            (learned if rule.train_count or rule.error_count else introduced).add(rule.klass)
        (learned if model.default_count else introduced).add(model.default_class)
    if not learned:
        return  # fully count-free model: no training baseline to compare against
    for value in sorted(introduced - learned):
        log.warning("target %s: class value %r not seen in training, accepting edit", name, value)


def _parse_unpredicted(line: _Line) -> UnpredictedTarget:
    parts = line.text.split()
    if len(parts) < 2:
        raise SkeletonSyntaxError("expected '<name>  reason=<r>  default=<json>'", line.number)
    name = parts[0]
    reason = ""
    default = PLACEHOLDER
    rest = line.text[len(name):].strip()
    while rest:
        key, sep, tail = rest.partition("=")
        key = key.strip()
        if not sep or key not in ("reason", "default"):
            raise SkeletonSyntaxError(f"unexpected field {rest!r} in unpredicted entry", line.number)
        if key == "reason":
            value_match = re.match(r"\S+", tail)
            reason = value_match.group(0) if value_match else ""
            rest = tail[len(reason):].strip()
        else:
            try:
                value, end = _DECODER.raw_decode(tail.strip())
            except json.JSONDecodeError as exc:
                raise SkeletonSyntaxError(f"bad default literal: {exc}", line.number) from None
            from .features import canonical_scalar

            default = value if isinstance(value, str) else canonical_scalar(value)
            rest = tail.strip()[end:].strip()
    if not reason:
        raise SkeletonSyntaxError("unpredicted entry is missing reason=", line.number)
    return UnpredictedTarget(attribute=name, reason=reason, default=default)
