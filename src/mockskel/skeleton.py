"""Mock skeleton documents: emit trained models to an editable text file,
parse (possibly hand-edited) files back into executable models.

Skeleton grammar (UTF-8, ``#`` comment lines, two-space indentation):

    # free comments
    service: <name>
    schema-digest: <hex>
    seed: <int>
    config: <one-line JSON object>

    inputs:
      <name>
      ...

    target <name> tree:
      # learner=<l> cv-accuracy=<f> cv-precision=<f> cv-recall=<f> cv-size=<f>
      <name> = <value>: <class> (N[/E])      # branch to a leaf
      <name> = <value>:                      # branch to a subtree
        ...
      <class> (N[/E])                        # single-leaf tree body

    target <name> rules:
      (<name> = <value> and <name> = <value>) => <name>=<class> (N[/E])
      default: <class> (N[/E])

    unpredicted:
      <name>  reason=<value>  default=<JSON string>

One rule writes every token: a name (of an input, a target or a tested
attribute) is bare unless it is empty, holds whitespace, a ``"`` or a
lone surrogate, or starts with ``#`` or ``)``; a value, class or reason
is bare only if it is made of ``A-Z a-z 0-9 _ . - { } / @ +``.  Any
other token, and every ``default=``, is a JSON string whose lone
surrogates are ``\\udXXX`` escapes, so the document always encodes as
UTF-8.  (Skeletons written before names were quoted need any name that
holds whitespace quoted by hand.)  Comment lines may stand in every
block.  Lines without a trailing ``(N)``/``(N/E)`` count are treated as
hand edits and flag their target's model as edited.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from dataclasses import dataclass, field, fields
from functools import cache
from typing import TYPE_CHECKING, Mapping

from .errors import SettingError, SkeletonSyntaxError, UnknownAttributeError
from .features import ExtractionConfig, ExtractionProfile
from .model import Leaf, Model, Node, Rule, RuleList, Split, leaves
from .settings import read_setting, settings_json
from .traffic import json_text

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

    def computed_digest(self) -> str:
        material = "\n".join(self.inputs)
        material += "\0" + "\n".join(sorted(self.target_names()))
        return hashlib.sha256(material.encode("utf-8", "surrogatepass")).hexdigest()[:16]

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
# Names, values, attribute tests and classes: the tokens every line is made of

#: values, classes and reasons that skeleton files write without JSON quotes
BARE_TOKEN = re.compile(r"[A-Za-z0-9_.\-{}/@+]+")
#: names of inputs, targets and tested attributes written without JSON quotes:
#: a ``#`` would start a comment line and a ``)`` would end a rule's conditions
BARE_NAME = re.compile(r"(?![#)])[^\s\"\ud800-\udfff]+")
_EQUALS = re.compile(r"\s* = ")
_FIELD = re.compile(r"\s+(reason|default)\s*=")
_COUNTS = re.compile(r"\((\d+)(?:/(\d+))?\)\s*$")
_DECODER = json.JSONDecoder()


def _quote(text: str, bare: re.Pattern = BARE_TOKEN) -> str:
    """``text`` as one token: bare if ``bare`` matches all of it, else a JSON string."""
    return text if bare.fullmatch(text) else json_text(text)


def _class_tail(klass: str, n: int, e: int, include: bool) -> str:
    """The ``<class> (N/E)`` tail that ``_take_class`` reads, with the
    counts left out unless ``include``."""
    if not include:
        return _quote(klass)
    return f"{_quote(klass)} ({n})" if e == 0 else f"{_quote(klass)} ({n}/{e})"


def _take_value(text: str, line_no: int, bare: re.Pattern = BARE_TOKEN) -> tuple[str, str]:
    """Consume one token that ``_quote(..., bare)`` wrote; returns (token, rest)."""
    text = text.lstrip()
    if text.startswith('"'):
        try:
            value, end = _DECODER.raw_decode(text)
        except json.JSONDecodeError as exc:
            raise SkeletonSyntaxError(f"bad JSON string: {exc}", line_no) from None
        return value, text[end:]
    match = bare.match(text)
    if not match:
        raise SkeletonSyntaxError(f"expected a name or value, found {text!r}", line_no)
    return match.group(0), text[match.end():]


def _take_test(text: str, line_no: int, target: str, inputs: set[str]) -> tuple[str, str, str]:
    """Consume one ``<name> = <value>`` test of a known input; returns
    (attribute, value, rest)."""
    attribute, rest = _take_value(text, line_no, BARE_NAME)
    equals = _EQUALS.match(rest)
    if not equals:
        raise SkeletonSyntaxError(f"expected '<attribute> = <value>', got {text!r}", line_no)
    if attribute not in inputs:
        raise UnknownAttributeError(
            f"line {line_no}: unknown attribute {attribute!r} in the model for {target!r}"
        )
    value, rest = _take_value(rest[equals.end():], line_no)
    return attribute, value, rest.lstrip()


def _take_class(text: str, line_no: int) -> tuple[str, int, int, bool]:
    """A line's ``<class> (N/E)`` tail: (class, train count, error count,
    counts present)."""
    klass, rest = _take_value(text, line_no)
    match = _COUNTS.search(rest)
    if not match:
        if rest.strip():
            raise SkeletonSyntaxError(f"unexpected trailing text {rest.strip()!r}", line_no)
        return klass, 0, 0, False
    if rest[: match.start()].strip():
        raise SkeletonSyntaxError(
            f"unexpected text before counts: {rest[: match.start()].strip()!r}", line_no
        )
    return klass, int(match.group(1)), int(match.group(2) or 0), True


# ---------------------------------------------------------------------------
# Model bodies


def render_tree(tree: Node, indent: str = "", include_counts: bool = True) -> list[str]:
    def leaf(node: Leaf) -> str:
        return _class_tail(node.klass, node.train_count, node.error_count, include_counts)

    if isinstance(tree, Leaf):
        return [f"{indent}{leaf(tree)}"]
    lines: list[str] = []

    def walk(node: Split, pad: str) -> None:
        for value, child in node.branches.items():
            prefix = f"{pad}{_quote(node.attribute, BARE_NAME)} = {_quote(value)}:"
            if isinstance(child, Leaf):
                lines.append(f"{prefix} {leaf(child)}")
            else:
                lines.append(prefix)
                walk(child, pad + "  ")

    walk(tree, indent)
    return lines


def render_rules(
    rules: RuleList, target: str, indent: str = "", include_counts: bool = True
) -> list[str]:
    """``rules`` as the lines of a ``target <target> rules:`` section."""
    lines = []
    for rule in rules.rules:
        conds = " and ".join(
            f"{_quote(attr, BARE_NAME)} = {_quote(value)}" for attr, value in rule.conditions
        )
        tail = _class_tail(rule.klass, rule.train_count, rule.error_count, include_counts)
        lines.append(f"{indent}({conds}) => {_quote(target, BARE_NAME)}={tail}")
    tail = _class_tail(rules.default_class, rules.default_count, rules.default_errors, include_counts)
    return lines + [f"{indent}default: {tail}"]


def render_model(
    model: Model, target: str, indent: str = "", include_counts: bool = True
) -> list[str]:
    if isinstance(model, RuleList):
        return render_rules(model, target, indent, include_counts)
    return render_tree(model, indent, include_counts)


@dataclass
class _Line:
    number: int  # 1-based
    indent: int
    text: str


def _model_lines(block: list[_Line]) -> tuple[list[_Line], dict[str, float]]:
    """A target block's model lines, and the metrics of its comment lines
    made only of ``key=value`` tokens, as ``emit_skeleton`` writes them;
    any other comment line is a note, read as nothing."""
    metrics: dict[str, float] = {}
    kept = []
    for line in block:
        if not line.text.startswith("#"):
            kept.append(line)
            continue
        pairs = [token.partition("=") for token in line.text[1:].split()]
        if all(key and value for key, _, value in pairs):
            for key, _, value in pairs:
                try:
                    metrics[key] = float(value)
                except ValueError:
                    metrics[key] = value  # e.g. learner=c45
    return kept, metrics


def _parse_tree(name: str, block: list[_Line], inputs: set[str]) -> tuple[Node, bool]:
    edited = False

    def leaf(text: str, line_no: int) -> Leaf:
        nonlocal edited
        klass, n, e, counted = _take_class(text, line_no)
        edited = edited or not counted
        return Leaf(klass, n, e)

    def parse_level(start: int, indent: int) -> tuple[Split, int]:
        """Parse the sibling branch group starting at ``start``."""
        branches: dict[str, object] = {}
        attribute = None
        i = start
        while i < len(block) and block[i].indent == indent:
            line = block[i]
            tested, value, rest = _take_test(line.text, line.number, name, inputs)
            if attribute is None:
                attribute = tested
            elif tested != attribute:
                raise SkeletonSyntaxError(
                    f"sibling branches must test one attribute ({attribute!r}), got {tested!r}",
                    line.number,
                )
            if not rest.startswith(":"):
                raise SkeletonSyntaxError("expected ':' after branch value", line.number)
            rest = rest[1:].strip()
            if rest:
                branches[value] = leaf(rest, line.number)
                i += 1
            else:
                if i + 1 >= len(block) or block[i + 1].indent <= indent:
                    raise SkeletonSyntaxError("branch subtree is empty", line.number)
                branches[value], i = parse_level(i + 1, block[i + 1].indent)
        return Split(attribute, branches), i

    if not block:
        raise SkeletonSyntaxError(f"target {name!r} has an empty model body")
    # a branch line is a name and " = "; a single-leaf body is one class
    _, rest = _take_value(block[0].text, block[0].number, BARE_NAME)
    if len(block) == 1 and not _EQUALS.match(rest):
        return leaf(block[0].text, block[0].number), edited
    root, end = parse_level(0, block[0].indent)
    if end != len(block):
        raise SkeletonSyntaxError("unexpected indentation", block[end].number)
    return root, edited


def _parse_rules(name: str, block: list[_Line], inputs: set[str]) -> tuple[RuleList, bool]:
    edited = False
    rules: list[Rule] = []
    default: tuple[str, int, int] | None = None
    assigns = re.compile(rf"\)\s*=>\s*{re.escape(_quote(name, BARE_NAME))}\s*=")
    for line in block:
        text = line.text
        if text.startswith("default:"):
            if default is not None:
                raise SkeletonSyntaxError("duplicate default line", line.number)
            klass, n, e, counted = _take_class(text[len("default:"):], line.number)
            edited = edited or not counted
            default = (klass, n, e)
            continue
        if not text.startswith("("):
            raise SkeletonSyntaxError(f"expected a rule or default line, got {text!r}", line.number)
        rest = text[1:].lstrip()
        conditions: list[tuple[str, str]] = []
        while not rest.startswith(")"):
            attribute, value, rest = _take_test(rest, line.number, name, inputs)
            if rest.startswith("and "):
                rest = rest[4:].lstrip()
            elif not rest.startswith(")"):
                raise SkeletonSyntaxError("expected 'and' or ')' in rule conditions", line.number)
            conditions.append((attribute, value))
        head = assigns.match(rest)
        if not head:
            raise SkeletonSyntaxError(
                f"expected '=> {_quote(name, BARE_NAME)}=<class>' after rule conditions",
                line.number,
            )
        klass, n, e, counted = _take_class(rest[head.end():], line.number)
        edited = edited or not counted
        rules.append(Rule(tuple(conditions), klass, n, e))
    if default is None:
        raise SkeletonSyntaxError(f"target {name!r} rules have no default line")
    klass, n, e = default
    return RuleList(tuple(rules), klass, default_count=n, default_errors=e), edited


# ---------------------------------------------------------------------------
# The config: line, one JSON key per field of ExtractionConfig (with its
# ResourceKeyConfig under "resourceKey") and ExtractionProfile, plus
# "droppedInputs".  A "pathDepth" key, which earlier skeletons carry and
# nothing reads, is ignored.


@cache
def _config_key(field_name: str) -> str:
    """A field's JSON key: ``resourceKey``, or the field's name in camelCase."""
    if field_name == "resource":
        return "resourceKey"
    return re.sub(r"_([a-z])", lambda m: m[1].upper(), field_name)


def _parse_config(
    text: str, line_no: int
) -> tuple[ExtractionConfig, ExtractionProfile, tuple[str, ...]]:
    """The config, profile and dropped inputs of a ``config:`` line."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SkeletonSyntaxError(f"bad config JSON: {exc}", line_no) from None
    if not isinstance(obj, dict):
        raise SkeletonSyntaxError("config must be a JSON object", line_no)
    obj.pop("pathDepth", None)
    profile_keys = {_config_key(f.name) for f in fields(ExtractionProfile)}
    profile_obj = {k: obj.pop(k) for k in list(obj) if k in profile_keys}
    try:
        dropped = read_setting(tuple[str, ...], obj.pop("droppedInputs", []), "droppedInputs")
        config = read_setting(ExtractionConfig, obj, "config", _config_key)
        profile = read_setting(ExtractionProfile, profile_obj, "config", _config_key)
    except SettingError as exc:
        raise SkeletonSyntaxError(str(exc), line_no) from None
    return config, profile, dropped


# ---------------------------------------------------------------------------
# Documents


def emit_skeleton(skeleton: MockSkeleton) -> str:
    """Render a skeleton to its editable text form."""
    config = settings_json(skeleton.config, _config_key) | settings_json(
        skeleton.profile, _config_key
    )
    config["droppedInputs"] = skeleton.dropped_inputs
    lines = [
        "# mock skeleton v1",
        f"service: {skeleton.service_name}",
        f"schema-digest: {skeleton.computed_digest()}",
        f"seed: {skeleton.seed}",
        f"config: {json.dumps(config, separators=(', ', ': '))}",
        "",
        "inputs:",
    ]
    lines += [f"  {_quote(name, BARE_NAME)}" for name in skeleton.inputs]
    for name, entry in skeleton.targets.items():
        kind = "rules" if isinstance(entry.model, RuleList) else "tree"
        lines.append("")
        lines.append(f"target {_quote(name, BARE_NAME)} {kind}:")
        meta = [f"learner={entry.learner}"] if entry.learner else []
        meta += [f"{key}={value}" for key, value in entry.metrics.items()]
        learned = entry.origin == ORIGIN_LEARNED
        if meta and learned:
            lines.append("  # " + " ".join(meta))
        # edited models stay count-free so their provenance survives re-emission
        lines += render_model(entry.model, name, indent="  ", include_counts=learned)
    if skeleton.unpredicted:
        lines.append("")
        lines.append("unpredicted:")
        for item in skeleton.unpredicted:
            name, reason = _quote(item.attribute, BARE_NAME), _quote(item.reason)
            lines.append(f"  {name}  reason={reason}  default={json_text(item.default)}")
    return "\n".join(lines) + "\n"


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

    def collect_block(start: int, comments: bool = False) -> tuple[list[_Line], int]:
        end = start
        while end < len(lines) and lines[end].indent > 0:
            end += 1
        return [b for b in lines[start:end] if comments or not b.text.startswith("#")], end

    while i < len(lines):
        line = lines[i]
        i += 1
        if line.indent != 0:
            raise SkeletonSyntaxError(f"unexpected indented line {line.text!r}", line.number)
        if line.text.startswith("#"):
            continue
        if line.text.startswith("service:"):
            service_name = line.text[len("service:"):].strip()
        elif line.text.startswith("schema-digest:"):
            digest = line.text[len("schema-digest:"):].strip()
        elif line.text.startswith("seed:"):
            try:
                seed = int(line.text[len("seed:"):].strip())
            except ValueError:
                raise SkeletonSyntaxError("seed must be an integer", line.number) from None
        elif line.text.startswith("config:"):
            config, profile, dropped_inputs = _parse_config(
                line.text[len("config:"):], line.number
            )
        elif line.text == "inputs:":
            block, i = collect_block(i)
            inputs = []
            for b in block:
                name, rest = _take_value(b.text, b.number, BARE_NAME)
                if rest:
                    raise SkeletonSyntaxError(f"unexpected text {rest!r} after an input", b.number)
                inputs.append(name)
        elif line.text.startswith("target "):
            name, rest = _take_value(line.text[len("target "):], line.number, BARE_NAME)
            kind = rest.strip()
            if kind not in ("tree:", "rules:"):
                raise SkeletonSyntaxError(
                    "expected 'target <name> tree:' or 'target <name> rules:'", line.number
                )
            if name in targets:
                raise SkeletonSyntaxError(f"duplicate target section {name!r}", line.number)
            block, i = collect_block(i, comments=True)
            body, meta = _model_lines(block)
            parse = _parse_tree if kind == "tree:" else _parse_rules
            model, edited = parse(name, body, set(inputs))
            learner = meta.pop("learner", None)
            targets[name] = TargetEntry(
                model=model,
                learner=str(learner) if learner is not None else None,
                origin=ORIGIN_EDITED if edited else ORIGIN_LEARNED,
                metrics={k: v for k, v in meta.items() if isinstance(v, float)},
            )
            _warn_unknown_values(name, model)
        elif line.text == "unpredicted:":
            block, i = collect_block(i)
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
    if isinstance(model, RuleList):
        for rule in model.rules:
            (learned if rule.train_count or rule.error_count else introduced).add(rule.klass)
        (learned if model.default_count else introduced).add(model.default_class)
    else:
        for leaf in leaves(model):
            (learned if leaf.train_count or leaf.error_count else introduced).add(leaf.klass)
    if not learned:
        return  # fully count-free model: no training baseline to compare against
    for value in sorted(introduced - learned):
        log.warning("target %s: class value %r not seen in training, accepting edit", name, value)


def _parse_unpredicted(line: _Line) -> UnpredictedTarget:
    name, rest = _take_value(line.text, line.number, BARE_NAME)
    values: dict[str, str] = {}
    while rest:
        field_match = _FIELD.match(rest)
        if not field_match:
            raise SkeletonSyntaxError(f"unexpected field {rest!r} in unpredicted entry", line.number)
        values[field_match[1]], rest = _take_value(rest[field_match.end():], line.number)
    if "reason" not in values:
        raise SkeletonSyntaxError("unpredicted entry is missing reason=", line.number)
    return UnpredictedTarget(name, values["reason"], values.get("default", PLACEHOLDER))
