import dataclasses
import json
import logging
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, table_row
from mockskel import cli
from mockskel.cli import RunConfig, choose_models, run_pipeline
from mockskel.errors import SettingError, SkeletonSyntaxError, UnknownAttributeError
from mockskel.features import ExtractionConfig, ExtractionProfile, Role
from mockskel.learners.c45 import train_c45
from mockskel.learners.part import train_part
from mockskel.model import Leaf, Rule, RuleList, Split, classify
from mockskel.prep import Removal
from mockskel.server import MockService
from mockskel.skeleton import (
    PLACEHOLDER,
    MockSkeleton,
    TargetEntry,
    UnpredictedTarget,
    build_skeleton,
    emit_skeleton,
    parse_skeleton,
    render_rules,
)
from mockskel.traffic import CRUD_CLASSES, ResourceKeyConfig


@pytest.fixture(scope="module")
def trained_skeleton(small_synth_log):
    config = RunConfig(input="x", jobs=1)
    result = run_pipeline(small_synth_log, config)
    chosen = choose_models(result, config.learners)
    removed = {r.attribute for r in result.removals}
    skeleton = build_skeleton(
        service_name="tasks",
        seed=1,
        inputs=tuple(a.name for a in result.table.inputs() if a.name not in removed),
        chosen=chosen,
        removals=result.removals,
        config=config.extraction_config(),
        profile=result.profile,
    )
    return skeleton, result


class TestEmission:
    def test_tree_section_renders_branch_lines(self):
        rows = [["GET", "200"]] * 5 + [["DELETE", "204"]] * 5
        ds = make_dataset(rows, ["method"])
        tree = train_c45(ds)
        skeleton = MockSkeleton(
            service_name="s",
            seed=1,
            inputs=("method",),
            targets={"statusCode": TargetEntry(model=tree, learner="c45")},
            unpredicted=(),
        )
        text = emit_skeleton(skeleton)
        assert "target statusCode tree:" in text
        assert "  method = DELETE: 204 (5)" in text

    def test_unpredicted_section(self):
        skeleton = MockSkeleton(
            service_name="s",
            seed=1,
            inputs=("method",),
            targets={},
            unpredicted=(
                UnpredictedTarget("responsejson:message.text", "high-cardinality"),
            ),
        )
        text = emit_skeleton(skeleton)
        assert "unpredicted:" in text
        assert (
            '  responsejson:message.text  reason=high-cardinality  default="<EDIT-ME>"'
            in text
        )
        reparsed = parse_skeleton(text)
        assert reparsed.targets == {}
        assert reparsed.unpredicted[0].default == PLACEHOLDER
        commented = parse_skeleton(text.replace("unpredicted:\n", "unpredicted:\n  # note\n"))
        assert commented.unpredicted == reparsed.unpredicted

    def test_unary_target_keeps_value_as_default(self):
        removals = (
            Removal("responseheader:Server", Role.TARGET, "unary", 1, value="nginx"),
        )
        skeleton = build_skeleton("s", 1, ("method",), {}, removals)
        text = emit_skeleton(skeleton)
        assert 'responseheader:Server  reason=unary  default="nginx"' in text


class TestRoundTrip:
    def test_emit_parse_preserves_classification(self, trained_skeleton, small_synth_log):
        skeleton, result = trained_skeleton
        text = emit_skeleton(skeleton)
        reparsed = parse_skeleton(text)
        assert set(reparsed.targets) == set(skeleton.targets)
        table = result.table
        rows = [table_row(table, i) for i in range(len(table.instances))]
        for name, entry in skeleton.targets.items():
            again = reparsed.targets[name]
            assert again.origin == "learned"
            for row in rows:
                assert classify(entry.model, row) == classify(again.model, row)

    def test_round_trip_under_unseen_values(self, trained_skeleton):
        # missing-branch routing survives the text form
        skeleton, _ = trained_skeleton
        reparsed = parse_skeleton(emit_skeleton(skeleton))
        rng = random.Random(1)
        for name, entry in skeleton.targets.items():
            for _ in range(200):
                instance = {
                    attr: rng.choice(["true", "false", "GET", "weird", "no-exist"])
                    for attr in skeleton.inputs
                }
                assert classify(entry.model, instance) == classify(
                    reparsed.targets[name].model, instance
                )

    def test_double_round_trip_is_stable(self, trained_skeleton):
        skeleton, _ = trained_skeleton
        once = emit_skeleton(parse_skeleton(emit_skeleton(skeleton)))
        twice = emit_skeleton(parse_skeleton(once))
        assert once == twice

    def test_coverage_targets_plus_unpredicted(self, trained_skeleton):
        skeleton, result = trained_skeleton
        all_targets = {a.name for a in result.table.targets()}
        predicted = set(skeleton.targets)
        unpredicted = {u.attribute for u in skeleton.unpredicted}
        assert predicted | unpredicted == all_targets
        assert not predicted & unpredicted

    def test_metrics_comments_survive(self, trained_skeleton):
        skeleton, _ = trained_skeleton
        reparsed = parse_skeleton(emit_skeleton(skeleton))
        for name, entry in reparsed.targets.items():
            assert entry.learner in ("c45", "ripper", "part")
            assert "cv-accuracy" in entry.metrics

    def test_a_note_under_a_target_is_not_read_as_metrics(self, trained_skeleton):
        skeleton, _ = trained_skeleton
        text = emit_skeleton(skeleton)
        note = "  # reviewed by ops, timeout=30 cv-accuracy=0.5\n"
        noted = re.sub(r"(target [^\n]*:\n)(  # [^\n]*\n)", rf"\1{note}\2{note}", text)
        assert noted.count(note) == 2 * len(skeleton.targets)
        reparsed = parse_skeleton(noted)
        assert emit_skeleton(reparsed) == text
        for name, entry in reparsed.targets.items():
            assert entry.metrics == skeleton.targets[name].metrics


class TestConfigLine:
    @staticmethod
    def bare_skeleton(**fields) -> MockSkeleton:
        return MockSkeleton(
            service_name="s", seed=1, inputs=("method",), targets={}, unpredicted=(), **fields
        )

    def test_non_default_config_round_trips(self):
        skeleton = self.bare_skeleton(
            config=ExtractionConfig(
                resource=ResourceKeyConfig(
                    id_patterns=("[a-z]{3}[0-9]+",),
                    strip_tokens=("v1", "do"),
                    crud_token_classes=(("do", "update"), ("make", "create")),
                ),
                auth_header_names=("X-Key",),
                auth_header_patterns=("*-sig", "api-*"),
                max_path_depth=5,
            ),
            profile=ExtractionProfile(
                array_paths=("responsejson:items",), shapes=("GET /a/{id}", "POST /a")
            ),
            dropped_inputs=("schema", "host"),
        )
        # every field differs from its default, so none round-trips by falling back to it
        for obj in (skeleton.config, skeleton.config.resource, skeleton.profile):
            for f in dataclasses.fields(obj):
                assert getattr(obj, f.name) != f.default, f.name
        text = emit_skeleton(skeleton)
        parsed = parse_skeleton(text)
        assert parsed.config == skeleton.config
        assert parsed.profile == skeleton.profile
        assert parsed.dropped_inputs == skeleton.dropped_inputs
        assert emit_skeleton(parsed) == text

    def test_missing_keys_take_their_defaults(self):
        parsed = parse_skeleton("service: s\nconfig: {}\ninputs:\n  # note\n  method\n")
        assert parsed.inputs == ("method",)
        assert parsed.config == ExtractionConfig()
        assert parsed.profile == ExtractionProfile()
        assert parsed.dropped_inputs == ()

    @pytest.mark.parametrize(
        "config",
        [
            "[]",
            '{"maxPathDepth": "x"}',
            '{"resourceKey": {"crudTokenClasses": ["a"]}}',
            '{"shapes": 5}',
            '{"resourceKey": {"idPatterns": ["("]}}',
            '{"maxPathdepth": 3}',
            '{"resourceKey": {"idPattern": ["x"]}}',
            '{"maxPathDepth": -1}',
            '{"resourceKey": {"crudTokenClasses": {"x": "remove"}}}',
        ],
    )
    def test_malformed_config_is_a_parse_error_on_its_line(self, config, tmp_path):
        text = f"service: s\nconfig: {config}\ninputs:\n  method\n"
        with pytest.raises(SkeletonSyntaxError) as exc:
            parse_skeleton(text)
        assert exc.value.line == 2
        path = tmp_path / "skeleton.txt"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["emit", "--skeleton", str(path)]) == cli.EXIT_PARSE

    def test_an_earlier_path_depth_key_is_ignored(self, trained_skeleton):
        # skeletons written before pathDepth was dropped still parse and serve
        text = emit_skeleton(trained_skeleton[0])
        old = text.replace('"maxPathDepth": 16, ', '"maxPathDepth": 16, "pathDepth": 2, ', 1)
        assert old != text
        assert parse_skeleton(old) == parse_skeleton(text)
        assert emit_skeleton(parse_skeleton(old)) == text
        requests = [("POST", "/tasks/3", [("Content-Type", "application/json")], b'{"title": "x"}'),
                    ("GET", "/tasks/3", [], None), ("DELETE", "/tasks/3", [], None),
                    ("GET", "/tasks/3", [], None), ("PATCH", "/tasks/9", [], None)]
        services = [MockService(parse_skeleton(t)) for t in (old, text)]
        answers = [[service.handle(method, "http://localhost" + path, headers, body)
                    for method, path, headers, body in requests] for service in services]
        assert answers[0] == answers[1]
        assert {answer.status_code for answer in answers[0]} >= {200, 201}

    @pytest.mark.parametrize("config, key", [
        ('{"maxPathdepth": 3}', "'maxPathdepth'"),
        ('{"resourceKey": {"idPattern": ["x"]}}', "'idPattern'"),
    ])
    def test_unknown_key_is_named(self, config, key):
        with pytest.raises(SkeletonSyntaxError, match=key):
            parse_skeleton(f"service: s\nconfig: {config}\ninputs:\n  method\n")

    @pytest.mark.parametrize("config, key", [
        ('{"maxPathDepth": 3, "maxPathDepth": 16}', "maxPathDepth"),
        ('{"resourceKey": {"stripTokens": [], "stripTokens": ["v1"]}}', "stripTokens"),
    ])
    def test_a_repeated_key_is_a_parse_error_on_its_line(self, config, key):
        with pytest.raises(SkeletonSyntaxError, match=f"repeated key '{key}'") as exc:
            parse_skeleton(f"service: s\nconfig: {config}\ninputs:\n  method\n")
        assert exc.value.line == 2


class TestHandEdits:
    def test_hand_prepended_rule_wins(self, trained_skeleton):
        skeleton, _ = trained_skeleton
        text = emit_skeleton(skeleton)
        lines = text.splitlines()
        marker = next(
            i for i, line in enumerate(lines) if line.startswith("target statusCode")
        )
        lines.insert(marker + 1, "  (method = DELETE) => statusCode=503")
        edited = parse_skeleton("\n".join(lines) + "\n")
        entry = edited.targets["statusCode"]
        assert entry.origin == "edited"
        prediction = classify(
            entry.model,
            {name: "no-exist" for name in skeleton.inputs} | {"method": "DELETE"},
        )
        assert prediction == "503"

    def test_hand_edit_requires_rules_section(self, trained_skeleton, caplog):
        # unknown class values are warned about but accepted
        skeleton, _ = trained_skeleton
        text = emit_skeleton(skeleton)
        lines = text.splitlines()
        marker = next(
            i for i, line in enumerate(lines) if line.startswith("target statusCode")
        )
        lines.insert(marker + 1, "  (method = DELETE) => statusCode=599")
        with caplog.at_level(logging.WARNING):
            parse_skeleton("\n".join(lines) + "\n")
        assert any("599" in record.message for record in caplog.records)

    def test_only_a_class_on_no_counted_line_draws_a_warning(self, caplog):
        text = (
            "service: s\ninputs:\n  method\ntarget statusCode tree:\n"
            "  method = GET: 200 (5)\n  method = PUT: 409 (0)\n"
            "  method = POST: 201\n  method = PATCH: 200\n"
        )
        with caplog.at_level(logging.WARNING):
            parsed = parse_skeleton(text)
        assert parsed.targets["statusCode"].origin == "edited"
        assert [r.getMessage() for r in caplog.records] == [
            "target statusCode: class value '201' not seen in training, accepting edit"
        ]

    def test_edits_are_localized(self, trained_skeleton, small_synth_log):
        skeleton, result = trained_skeleton
        text = emit_skeleton(skeleton)
        lines = text.splitlines()
        marker = next(
            i for i, line in enumerate(lines) if line.startswith("target statusCode")
        )
        lines.insert(marker + 1, "  (method = DELETE) => statusCode=503")
        edited = parse_skeleton("\n".join(lines) + "\n")
        table = result.table
        rows = [table_row(table, i) for i in range(len(table.instances))]
        for name, entry in skeleton.targets.items():
            if name == "statusCode":
                continue
            assert edited.targets[name].origin == "learned"
            for row in rows[:100]:
                assert classify(entry.model, row) == classify(
                    edited.targets[name].model, row
                )

    def test_edited_origin_survives_reemission(self, trained_skeleton):
        skeleton, _ = trained_skeleton
        text = emit_skeleton(skeleton)
        lines = text.splitlines()
        marker = next(
            i for i, line in enumerate(lines) if line.startswith("target statusCode")
        )
        lines.insert(marker + 1, "  (method = DELETE) => statusCode=503")
        edited = parse_skeleton("\n".join(lines) + "\n")
        normalized = parse_skeleton(emit_skeleton(edited))
        assert normalized.targets["statusCode"].origin == "edited"
        prediction = classify(
            normalized.targets["statusCode"].model,
            {name: "no-exist" for name in skeleton.inputs} | {"method": "DELETE"},
        )
        assert prediction == "503"

    def test_unknown_attribute_rejected(self, trained_skeleton):
        skeleton, _ = trained_skeleton
        text = emit_skeleton(skeleton)
        lines = text.splitlines()
        marker = next(
            i for i, line in enumerate(lines) if line.startswith("target statusCode")
        )
        lines.insert(marker + 1, "  (uriPathToken99 = x) => statusCode=200")
        with pytest.raises(UnknownAttributeError) as exc:
            parse_skeleton("\n".join(lines) + "\n")
        assert "uriPathToken99" in str(exc.value)


class TestSyntaxErrors:
    def test_error_reports_line_number(self):
        text = "service: s\ninputs:\n  method\ntarget statusCode tree:\n  ???\n"
        with pytest.raises(SkeletonSyntaxError) as exc:
            parse_skeleton(text)
        assert exc.value.line == 5

    def test_missing_inputs_section(self):
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton("service: s\n")

    def test_rules_need_default(self):
        text = (
            "service: s\ninputs:\n  method\n"
            "target statusCode rules:\n  (method = GET) => statusCode=200 (3)\n"
        )
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton(text)

    def test_mixed_sibling_attributes_rejected(self):
        text = (
            "service: s\ninputs:\n  method\n  everCreated\n"
            "target statusCode tree:\n"
            "  method = GET: 200 (3)\n"
            "  everCreated = true: 404 (2)\n"
        )
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton(text)

    def test_unknown_attribute_on_a_later_branch_names_its_line(self):
        text = (
            "service: s\ninputs:\n  method\n"
            "target statusCode tree:\n"
            "  method = GET: 200 (3)\n"
            "  nosuch = true: 404 (2)\n"
        )
        with pytest.raises(UnknownAttributeError, match="line 6: unknown attribute 'nosuch'"):
            parse_skeleton(text)

    def test_a_second_branch_for_a_value_is_refused(self):
        text = (
            "service: s\ninputs:\n  method\n"
            "target statusCode tree:\n"
            "  method = GET: 200 (5)\n"
            "  method = GET: 404 (3)\n"
        )
        with pytest.raises(SkeletonSyntaxError, match="duplicate branch 'method' = 'GET'") as exc:
            parse_skeleton(text)
        assert exc.value.line == 6

    @pytest.mark.parametrize("text, line", [
        ("service: a\nservice: b\ninputs:\n  method\n", 2),
        ("schema-digest: ab\nschema-digest: ab\ninputs:\n  method\n", 2),
        ("seed: 1\nseed: 9\ninputs:\n  method\n", 2),
        ('config: {"maxPathDepth": 3}\nconfig: {}\ninputs:\n  method\n', 2),
        ("inputs:\n  method\ninputs:\n  path\n", 3),
        ("inputs:\n  method\n  # note\n  method\n", 4),
        ("inputs:\n  method\nunpredicted:\n  statusCode  reason=unary\n"
         "unpredicted:\n  responsejson:a  reason=unary\n", 5),
        ('inputs:\n  method\nunpredicted:\n  statusCode  reason=unary  default="1"\n'
         '  statusCode  reason=unary  default="2"\n', 5),
        ("inputs:\n  method\nunpredicted:\n  statusCode  reason=unary  reason=unary\n", 4),
        ('inputs:\n  method\nunpredicted:\n  statusCode  reason=unary  default="1"  default="2"\n',
         4),
    ], ids=["service", "schema-digest", "seed", "config", "inputs", "input", "unpredicted",
            "unpredicted-attribute", "reason", "default"])
    def test_each_directive_name_and_field_is_defined_once(self, text, line):
        with pytest.raises(SkeletonSyntaxError, match="duplicate") as exc:
            parse_skeleton(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        ('inputs:\n  "method\n', 2, "bad JSON string"),
        ("inputs:\n  method\ntarget statusCode tree:\n  200 extra\n", 4,
         "unexpected trailing text 'extra'"),
        ("inputs:\n  method\ntarget statusCode tree:\n  200 extra (3)\n", 4,
         "unexpected text before counts"),
        ("inputs:\n  method\n  everCreated\ntarget statusCode tree:\n  method = GET:\n"
         "      everCreated = true: 200 (1)\n    everCreated = false: 404 (1)\n", 7,
         "unexpected indentation"),
        ("inputs:\n  method\ntarget statusCode tree:\n  method = GET 200 (1)\n", 4,
         "expected ':' after branch value"),
        ("inputs:\n  method\ntarget statusCode tree:\n  method = GET: 200 (1)\n"
         "    method = POST: 404 (1)\n", 5, "unexpected indentation"),
        ("inputs:\n  method\ntarget statusCode rules:\n  method = GET\n  default: 200\n", 4,
         "expected a rule or default line"),
        ("inputs:\n  method\ntarget statusCode rules:\n  (method = GET or x) => statusCode=200\n"
         "  default: 200\n", 4, "expected 'and' or '\\)'"),
        ("inputs:\n  method\ntarget statusCode rules:\n  (method = GET) -> statusCode=200\n"
         "  default: 200\n", 4, "expected '=> statusCode=<class>'"),
        ("config: {nope\ninputs:\n  method\n", 1, "bad config JSON"),
        ("config: " + "[" * 5000 + "]" * 5000 + "\ninputs:\n  method\n", 1,
         "bad config JSON: nested too deep"),
        ("  service: s\ninputs:\n  method\n", 1, "unexpected indented line 'service: s'"),
        ("inputs:\n  method\ntarget statusCode graph:\n  200 (1)\n", 3,
         "expected 'target <name> tree:'"),
        ("inputs:\n  method\ntarget statusCode tree:\n  200 (1)\n"
         "target statusCode tree:\n  404 (1)\n", 5, "duplicate target section 'statusCode'"),
        ('service: "s" x\ninputs:\n  method\n', 1, "unexpected text ' x' after the service name"),
        ("seed: one\ninputs:\n  method\n", 1, "seed must be an integer"),
        ("inputs:\n  method extra\n", 2, "unexpected text ' extra' after an input"),
        ("seed: 1\n  2\ninputs:\n  method\n", 2, "unexpected indented line '2'"),
        ("inputs:\n  method\nunpredicted:\n  statusCode  reason=unary  color=red\n", 4,
         "unexpected field"),
        ('inputs:\n  method\nunpredicted:\n  statusCode  default="1"\n', 4,
         "missing reason="),
    ], ids=["json-string", "trailing-text", "text-before-counts", "off-level", "branch-colon",
            "under-a-leaf", "not-a-rule", "and-or-paren", "rule-head", "config-json",
            "config-nested-too-deep", "indented-directive", "target-kind", "duplicate-target",
            "after-service", "seed", "after-input", "under-a-directive", "unpredicted-field",
            "reason"])
    def test_each_refusal_names_its_line(self, text, line, message):
        with pytest.raises(SkeletonSyntaxError, match=message) as exc:
            parse_skeleton(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("counts, message", [
        ("(١٢)", "unexpected trailing text"),  # Arabic-Indic digits
        ("(" + "1" * 5000 + ")", "a count has too many digits"),
        ("(3/" + "1" * 5000 + ")", "a count has too many digits"),
    ], ids=["not-ascii-digits", "too-long", "too-long-errors"])
    def test_counts_are_ascii_digits_that_int_converts(self, counts, message):
        text = f"inputs:\n  method\ntarget statusCode tree:\n  200 {counts}\n"
        with pytest.raises(SkeletonSyntaxError, match=message) as exc:
            parse_skeleton(text)
        assert exc.value.line == 4

    def test_a_config_integer_too_long_to_convert_is_bad_config_json(self):
        text = 'config: {"maxPathDepth": ' + "1" * 5000 + "}\ninputs:\n  method\n"
        with pytest.raises(SkeletonSyntaxError, match="bad config JSON: ") as exc:
            parse_skeleton(text)
        assert exc.value.line == 1

    def test_rules_notes_and_a_predicted_unpredicted_attribute_may_repeat(self):
        text = (
            "service: s\n# a\n# a\ninputs:\n  method\n"
            "target statusCode rules:\n  # note\n  # note\n"
            "  (method = GET) => statusCode=200\n"
            "  (method = GET) => statusCode=404\n"
            "  default: 500\n"
            'unpredicted:\n  statusCode  reason=unary  default="201"\n'
        )
        parsed = parse_skeleton(text)
        assert classify(parsed.targets["statusCode"].model, {"method": "GET"}) == "200"
        assert parsed.unpredicted == (UnpredictedTarget("statusCode", "unary", "201"),)

    @pytest.mark.parametrize("text, line", [
        ("inputs:\n  method\ntarget responsejsn:ok tree:\n  true (1)\n", 3),
        ("inputs:\n  method\ntarget method rules:\n  default: GET (1)\n", 3),
        ('inputs:\n  method\nunpredicted:\n  responsheader:X-B  reason=unary  default="1"\n', 4),
    ], ids=["target", "input-as-target", "unpredicted"])
    def test_target_and_unpredicted_names_are_response_attributes(self, text, line):
        with pytest.raises(SkeletonSyntaxError, match="is not a response attribute") as exc:
            parse_skeleton(text)
        assert exc.value.line == line

    def test_digest_mismatch_warns_but_parses(self, trained_skeleton, caplog):
        skeleton, _ = trained_skeleton
        text = emit_skeleton(skeleton).replace(
            f"schema-digest: {skeleton.computed_digest()}", "schema-digest: deadbeef"
        )
        with caplog.at_level(logging.WARNING):
            parsed = parse_skeleton(text)
        assert parsed.service_name == skeleton.service_name
        assert any("digest" in r.message for r in caplog.records)


class TestQuotedValues:
    @pytest.mark.parametrize("name", ["a\nb", " padded ", '"q"', "", "#x"])
    def test_service_name_round_trips(self, name):
        skeleton = MockSkeleton(service_name=name, seed=1, inputs=("method",), targets={},
                                unpredicted=())
        assert parse_skeleton(emit_skeleton(skeleton)).service_name == name

    def test_values_with_spaces_round_trip(self):
        rows = [["Bearer a b", "200"]] * 6 + [["no-exist", "401"]] * 6
        ds = make_dataset(rows, ["requestheader:Authorization"])
        model = train_part(ds)
        skeleton = MockSkeleton(
            service_name="s",
            seed=1,
            inputs=("requestheader:Authorization",),
            targets={"statusCode": TargetEntry(model=model, learner="part")},
            unpredicted=(),
        )
        reparsed = parse_skeleton(emit_skeleton(skeleton))
        again = reparsed.targets["statusCode"].model
        assert classify(again, {"requestheader:Authorization": "Bearer a b"}) == "200"
        assert classify(again, {"requestheader:Authorization": "no-exist"}) == "401"


#: any text a recording can carry, lone surrogates too, with pieces of
#: the skeleton grammar drawn often; JSON reads a high surrogate followed
#: by a low one as one character, so no recording holds that pair
GRAMMAR = (" = ", " and ", "(", ")", " => ", ":", '"', "#", "\\", "default:", " (1/2)", "\n")
TEXT = (
    st.lists(st.one_of(st.characters(), st.sampled_from(GRAMMAR)), max_size=4)
    .map("".join)
    .filter(lambda text: json.loads(json.dumps(text)) == text)
)
COUNT = st.integers(0, 99)
LEAVES = st.builds(Leaf, TEXT, COUNT, COUNT)
#: names of response attributes, which alone can be targets or unpredicted
RESPONSE_NAMES = st.one_of(
    st.just("statusCode"),
    TEXT.map("responseheader:".__add__),
    TEXT.map("responsejson:".__add__),
)


def models(attributes):
    """Trees and rule lists that test ``attributes``."""
    trees = st.recursive(
        LEAVES,
        lambda children: st.builds(
            Split, attributes, st.dictionaries(TEXT, children, min_size=1, max_size=3)
        ),
        max_leaves=8,
    )
    rules = st.builds(
        Rule, st.lists(st.tuples(attributes, TEXT), max_size=3).map(tuple), TEXT, COUNT, COUNT
    )
    rule_lists = st.builds(
        RuleList, st.lists(rules, max_size=4).map(tuple), TEXT, COUNT, COUNT
    )
    return st.one_of(trees, rule_lists)


@st.composite
def skeletons(draw) -> MockSkeleton:
    inputs = tuple(draw(st.lists(TEXT, min_size=1, max_size=4, unique=True)))
    targets = {
        name: TargetEntry(draw(models(st.sampled_from(inputs))), learner="c45")
        for name in draw(st.lists(RESPONSE_NAMES, min_size=1, max_size=2, unique=True))
    }
    unpredicted = st.builds(
        UnpredictedTarget, RESPONSE_NAMES, st.sampled_from(("unary", "high-cardinality")), TEXT
    )
    unpredicted_list = st.lists(unpredicted, max_size=3, unique_by=lambda u: u.attribute)
    return MockSkeleton(draw(TEXT), 1, inputs, targets, tuple(draw(unpredicted_list)))


def compile_together(patterns) -> bool:
    try:
        ResourceKeyConfig(id_patterns=patterns)
    except SettingError:
        return False
    return True


STRINGS = st.lists(TEXT, max_size=3).map(tuple)
CONFIGS = st.builds(
    ExtractionConfig,
    resource=st.builds(
        ResourceKeyConfig,
        id_patterns=STRINGS.filter(compile_together),
        strip_tokens=STRINGS,
        crud_token_classes=st.dictionaries(TEXT, st.sampled_from(CRUD_CLASSES), max_size=3).map(
            lambda classes: tuple(classes.items())
        ),
    ),
    auth_header_names=STRINGS,
    auth_header_patterns=STRINGS,
    max_path_depth=st.integers(min_value=0),
)


class TestTextFormProperties:
    @settings(max_examples=300, deadline=None)
    @given(skeleton=skeletons())
    def test_any_model_survives_emit_parse_emit(self, skeleton):
        text = emit_skeleton(skeleton)
        parsed = parse_skeleton(text)
        assert parsed.service_name == skeleton.service_name
        assert parsed.inputs == skeleton.inputs
        assert {name: entry.model for name, entry in parsed.targets.items()} == {
            name: entry.model for name, entry in skeleton.targets.items()
        }
        assert parsed.unpredicted == skeleton.unpredicted
        assert emit_skeleton(parsed).encode("utf-8") == text.encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(skeleton=skeletons(), data=st.data())
    def test_no_definition_is_silently_overwritten(self, skeleton, data):
        lines = emit_skeleton(skeleton).split("\n")
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
        rule_lines = {
            line
            for name, entry in skeleton.targets.items()
            if isinstance(entry.model, RuleList)
            for line in render_rules(entry.model, name, indent="  ")[:-1]
        }
        try:
            parse_skeleton("\n".join(lines[: i + 1] + lines[i:]))
        except SkeletonSyntaxError:
            return
        assert lines[i] in rule_lines or lines[i].lstrip().startswith("#")

    @settings(max_examples=150, deadline=None)
    @given(config=CONFIGS)
    def test_any_in_range_config_survives_the_config_line(self, config):
        text = emit_skeleton(TestConfigLine.bare_skeleton(config=config))
        parsed = parse_skeleton(text)
        assert parsed.config == config
        assert emit_skeleton(parsed) == text
