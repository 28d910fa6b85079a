import concurrent.futures
import csv
import http.client
import json
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import pytest

import mockskel
from conftest import har_document

from mockskel import cli
from mockskel.cli import EXIT_DEGENERATE, EXIT_IO, EXIT_OK, EXIT_PARSE, RunConfig, main, run_pipeline
from mockskel.server import MockService
from mockskel.skeleton import MockSkeleton, UnpredictedTarget, emit_skeleton, parse_skeleton
from mockskel.synth import generate_synthetic_log
from mockskel.traffic import (
    HttpRequest,
    HttpResponse,
    HttpTransaction,
    TrafficLog,
    load_traffic,
    save_jsonl,
    transaction_to_json,
)


@pytest.fixture(scope="module")
def fixture_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "traffic.jsonl"
    save_jsonl(generate_synthetic_log(600, 30, seed=9), path)
    return path


def run(args):
    return main([str(a) for a in args])


def tiny_skeleton_text():
    """A one-target skeleton with nothing to learn."""
    return emit_skeleton(MockSkeleton(
        service_name="s", seed=1, inputs=("method",), targets={},
        unpredicted=(UnpredictedTarget("statusCode", "unary", "200"),),
    ))


class TestTrain:
    def test_writes_skeleton_and_report(self, fixture_log, tmp_path, capsys):
        skeleton_path = tmp_path / "skeleton.txt"
        report_path = tmp_path / "report.json"
        code = run(
            ["train", "--input", fixture_log, "--jobs", 1,
             "--out-skeleton", skeleton_path, "--out-report", report_path]
        )
        assert code == EXIT_OK
        skeleton = parse_skeleton(skeleton_path.read_text())
        assert "statusCode" in skeleton.targets
        report = json.loads(report_path.read_text())
        assert report["seed"] == 1
        assert report["targets"]
        out = capsys.readouterr().out
        assert "Accuracy" in out

    def test_missing_input_exits_io_without_partial_outputs(self, tmp_path):
        skeleton_path = tmp_path / "skeleton.txt"
        code = run(
            ["train", "--input", tmp_path / "absent.jsonl",
             "--out-skeleton", skeleton_path, "--out-report", tmp_path / "r.json"]
        )
        assert code == EXIT_IO
        assert not skeleton_path.exists()

    def test_single_learner_selection(self, fixture_log, tmp_path):
        skeleton_path = tmp_path / "skeleton.txt"
        code = run(
            ["train", "--input", fixture_log, "--jobs", 1, "--learners", "ripper",
             "--out-skeleton", skeleton_path, "--out-report", tmp_path / "r.json"]
        )
        assert code == EXIT_OK
        text = skeleton_path.read_text()
        assert " rules:" in text
        assert " tree:" not in text

    def test_unknown_learner_is_parse_error(self, fixture_log, tmp_path):
        code = run(
            ["train", "--input", fixture_log, "--learners", "id3",
             "--out-skeleton", tmp_path / "s.txt", "--out-report", tmp_path / "r.json"]
        )
        assert code == EXIT_PARSE

    def test_a_body_with_an_integer_too_long_to_convert_trains(self, tmp_path):
        log = generate_synthetic_log(40, 4, seed=2)
        first = log.transactions[0]
        body = b'{"title": ' + b"1" * 5000 + b"}"
        headers = (("Content-Type", "application/json"),)
        long_int = replace(first, request=HttpRequest("POST", first.request.uri, headers, body))
        path = tmp_path / "traffic.jsonl"
        save_jsonl(TrafficLog((long_int, *log.transactions[1:])), path)
        code = run(["train", "--input", path, "--jobs", 1,
                    "--out-skeleton", tmp_path / "s.txt", "--out-report", tmp_path / "r.json"])
        assert code == EXIT_OK

    def test_degenerate_input_exits_5(self, tmp_path):
        # a single repeated transaction leaves nothing learnable
        line = json.dumps(
            {
                "id": "t0",
                "request": {"method": "GET", "uri": "https://a.ex/x", "headers": []},
                "response": {"status": 200, "headers": []},
            }
        )
        path = tmp_path / "tiny.jsonl"
        path.write_text(line + "\n")
        code = run(
            ["train", "--input", path,
             "--out-skeleton", tmp_path / "s.txt", "--out-report", tmp_path / "r.json"]
        )
        assert code == EXIT_DEGENERATE


def names_log(n, request_key, response_body):
    """``n`` POSTs to fresh resources: every third carries ``request_key``
    in its JSON body and is answered 400, the others 201, each with
    ``response_body(i, has_key)`` as its JSON body."""
    transactions = []
    for i in range(n):
        has_key = i % 3 != 0
        body = {"a=b": "p" if i % 5 < 2 else "q"} | ({request_key: "v"} if has_key else {})
        transactions.append(HttpTransaction(
            id=f"t{i}",
            sequence=i,
            request=HttpRequest(
                "POST",
                f"https://names.example.test/items/{i}?a%20%3D%20b={'x' if i % 2 else 'y'}",
                (("Content-Type", "application/json"),),
                json.dumps(body).encode(),
            ),
            response=HttpResponse(
                201 if has_key else 400,
                (("Content-Type", "application/json"),),
                json.dumps(response_body(i, has_key)).encode(),
            ),
        ))
    return TrafficLog(tuple(transactions))


def train_and_emit(log, tmp_path, learners):
    """Train on ``log``; check that ``emit`` reproduces the skeleton and
    return its text."""
    recording, skeleton_path = tmp_path / "names.jsonl", tmp_path / "skeleton.txt"
    save_jsonl(log, recording)
    assert run(
        ["train", "--input", recording, "--jobs", 1, "--learners", learners,
         "--out-skeleton", skeleton_path, "--out-report", tmp_path / "r.json"]
    ) == EXIT_OK
    assert run(["emit", "--skeleton", skeleton_path, "--out", tmp_path / "again.txt"]) == EXIT_OK
    text = skeleton_path.read_text(encoding="utf-8")
    assert (tmp_path / "again.txt").read_text(encoding="utf-8") == text
    return text


class TestRecordedNames:
    """Names that need quoting in a skeleton train, emit and serve."""

    NAMES = ("first name", "a = b", "k ", "a=b")

    @pytest.mark.parametrize("learners", ["c45", "ripper"])
    def test_names_needing_quotes_train_emit_and_serve(self, tmp_path, learners):
        def response_body(i, has_key):
            return {"first name": "ann" if has_key else "bob",
                    "a = b": "x" if i % 2 else "y",
                    "k ": "yes" if has_key else "no",
                    "a=b": "p" if i % 5 < 2 else "q",
                    "u": {name: "c" for name in self.NAMES}}

        log = names_log(60, "k ", response_body)
        skeleton = parse_skeleton(train_and_emit(log, tmp_path, learners))
        assert {"requestjson:k ", "requestjson:a=b", "uriQuery:a = b"} <= set(skeleton.inputs)
        assert {f"responsejson:{name}" for name in self.NAMES} <= set(skeleton.targets)
        assert {f"responsejson:u.{name}" for name in self.NAMES} <= {
            u.attribute for u in skeleton.unpredicted
        }
        service = MockService(skeleton)
        for txn in log.transactions:
            r = txn.request
            served = service.handle(r.method, r.uri, r.headers, r.body)
            assert served.status_code == txn.response.status_code
            assert json.loads(served.body) == json.loads(txn.response.body)

    def test_lone_surrogates_train_and_emit(self, tmp_path):
        def response_body(i, has_key):
            return {"\ud800": "\udc00" if has_key else "w", "c": "\udc00"}

        text = train_and_emit(names_log(40, "\ud800", response_body), tmp_path, "c45")
        skeleton = parse_skeleton(text)
        assert "requestjson:\ud800" in skeleton.inputs
        assert "responsejson:\ud800" in skeleton.targets
        assert ("responsejson:c", "\udc00") in {(u.attribute, u.default) for u in skeleton.unpredicted}

    def test_lone_surrogate_target_name_is_escaped_in_the_csv(self, tmp_path):
        def response_body(i, has_key):
            return {"\ud800": "\udc00" if has_key else "w", "c": "\udc00"}

        recording, csv_path = tmp_path / "names.jsonl", tmp_path / "metrics.csv"
        save_jsonl(names_log(40, "\ud800", response_body), recording)
        assert run(
            ["evaluate", "--input", recording, "--jobs", 1, "--learners", "c45",
             "--out-report", tmp_path / "r.json", "--out-csv", csv_path]
        ) == EXIT_OK
        with open(csv_path, encoding="utf-8", newline="") as f:
            targets = {row[0] for row in csv.reader(f)}
        assert "responsejson:\\ud800" in targets


class TestEvaluate:
    def test_report_has_entry_per_target_per_learner(self, fixture_log, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(
            ["evaluate", "--input", fixture_log, "--jobs", 1, "--out-report", report_path]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        targets = {t["target"] for t in report["targets"]}
        learners = {t["learner"] for t in report["targets"]}
        assert learners == {"c45", "ripper", "part"}
        assert len(report["targets"]) == len(targets) * 3

    def test_rerun_byte_identical(self, fixture_log, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            assert run(
                ["evaluate", "--input", fixture_log, "--jobs", 1,
                 "--seed", 1, "--out-report", path]
            ) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_export(self, fixture_log, tmp_path):
        csv_path = tmp_path / "metrics.csv"
        run(
            ["evaluate", "--input", fixture_log, "--jobs", 1,
             "--out-report", tmp_path / "r.json", "--out-csv", csv_path]
        )
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "target,learner,accuracy,precision,recall,modelSize"
        assert len(lines) > 1


class TestConfigFile:
    def test_config_file_supplies_defaults_flags_win(self, fixture_log, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"learners": ["ripper"], "seed": 5}))
        report_path = tmp_path / "report.json"
        code = run(
            ["evaluate", "--input", fixture_log, "--jobs", 1, "--config", config_path,
             "--seed", 2, "--out-report", report_path]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["seed"] == 2  # flag beats config file
        assert {t["learner"] for t in report["targets"]} == {"ripper"}

    def test_all_tunables_are_config_keys(self, tmp_path):
        import argparse

        from mockskel.cli import resolve_run_config

        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "input": "x.jsonl",
                    "strip_tokens": ["archive"],
                    "crud_patterns": {"archive": "delete"},
                    "auth_header_names": ["X-Session"],
                    "c45_confidence": 0.1,
                    "ripper_optimization_runs": 1,
                }
            )
        )
        args = argparse.Namespace(config=str(config_path))
        config = resolve_run_config(args)
        extraction = config.extraction_config()
        assert extraction.resource.strip_tokens == ("archive",)
        assert extraction.resource.crud_map == {"archive": "delete"}
        assert extraction.is_auth_header("x-session")
        params = config.learner_params()
        assert params.c45.confidence_factor == 0.1
        assert params.ripper.optimization_runs == 1

    def test_unknown_config_key_rejected(self, fixture_log, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"learner": "ripper"}))
        code = run(
            ["evaluate", "--input", fixture_log, "--config", config_path,
             "--out-report", tmp_path / "r.json"]
        )
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("text, message", [
        ("[1]", "config file must be a JSON object, not [1]"),
        ('{"seed": ' + "1" * 5000 + "}", "Exceeds the limit"),
    ], ids=["array", "integer-too-long"])
    def test_a_config_file_that_is_no_config_exits_parse(self, fixture_log, tmp_path, capsys,
                                                         text, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        report_path = tmp_path / "r.json"
        code = run(["evaluate", "--input", fixture_log, "--config", config_path,
                    "--out-report", report_path])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert message in err and "Traceback" not in err
        assert not report_path.exists()

    def test_repeated_config_key_rejected(self, fixture_log, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"seed": 5, "seed": 6}')
        report_path = tmp_path / "r.json"
        code = run(
            ["evaluate", "--input", fixture_log, "--config", config_path,
             "--out-report", report_path]
        )
        assert code == EXIT_PARSE
        assert "repeated key 'seed'" in capsys.readouterr().err
        assert not report_path.exists()

    def test_an_integer_is_accepted_for_a_float(self, tmp_path):
        import argparse

        from mockskel.cli import resolve_run_config

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"c45_confidence": 1, "max_target_distinct_ratio": 1}))
        config = resolve_run_config(argparse.Namespace(config=str(config_path)))
        assert config.learner_params().c45.confidence_factor == 1.0
        assert type(config.prep_config().max_target_distinct_ratio) is float

    def test_every_key_sets_a_field_with_a_default_and_every_flag_is_a_key(self):
        import argparse
        import dataclasses

        from mockskel.cli import CONFIG_KEYS, RunConfig, _add_pipeline_options
        from mockskel.settings import setting_types

        for key, path in CONFIG_KEYS.items():
            *parents, name = path.split(".")
            owner = RunConfig
            for parent in parents:
                owner = setting_types(owner)[parent]
            field = {f.name: f for f in dataclasses.fields(owner)}[name]
            assert field.default is not dataclasses.MISSING, key
        for training in (True, False):
            parser = argparse.ArgumentParser()
            _add_pipeline_options(parser, training)
            dests = {action.dest for action in parser._actions} - {"help", "config"}
            assert dests <= CONFIG_KEYS.keys()


class TestRunSettings:
    @pytest.mark.parametrize(
        "values, key",
        [
            ({"folds": "10"}, "folds"),
            ({"max_path_depth": "3"}, "max_path_depth"),
            ({"c45_min_leaf": "2"}, "c45_min_leaf"),
            ({"jobs": 2.5}, "jobs"),
            ({"seed": "5"}, "seed"),
            ({"seed": True}, "seed"),
            ({"learners": ["c45", 4]}, "learners"),
            ({"folds": 1}, "folds"),
            ({"jobs": -1}, "jobs"),
            ({"id_patterns": ["("]}, "id_patterns"),
            ({"crud_patterns": {"tasks": 7}}, "crud_patterns"),
            ({"ripper_folds_split": 0}, "ripper_folds_split"),
            ({"c45_confidence": 0}, "c45_confidence"),
            ({"max_path_depth": -1}, "max_path_depth"),
            ({"format": "xml"}, "format"),
        ],
    )
    def test_bad_file_value_exits_parse_naming_the_key(
        self, fixture_log, tmp_path, capsys, values, key
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(values))
        report_path = tmp_path / "report.json"
        code = run(
            ["evaluate", "--input", fixture_log, "--config", config_path,
             "--out-report", report_path]
        )
        assert code == EXIT_PARSE
        assert key in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("flag, value", [("--folds", 1), ("--folds", 0), ("--folds", -3),
                                             ("--jobs", -1), ("--max-target-cardinality", 1),
                                             ("--max-target-distinct-ratio", 0)])
    def test_bad_flag_value_exits_parse_naming_the_key(
        self, fixture_log, tmp_path, capsys, flag, value
    ):
        report_path = tmp_path / "report.json"
        code = run(["evaluate", "--input", fixture_log, flag, value, "--out-report", report_path])
        assert code == EXIT_PARSE
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not report_path.exists()

    def test_file_learners_split_on_commas_like_the_flag(self, fixture_log, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"learners": "c45,part"}))
        report_path = tmp_path / "report.json"
        code = run(
            ["evaluate", "--input", fixture_log, "--jobs", 1, "--config", config_path,
             "--out-report", report_path]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert {t["learner"] for t in report["targets"]} == {"c45", "part"}


class TestEmit:
    def test_normalizes_edited_skeleton(self, fixture_log, tmp_path, capsys):
        skeleton_path = tmp_path / "skeleton.txt"
        run(
            ["train", "--input", fixture_log, "--jobs", 1,
             "--out-skeleton", skeleton_path, "--out-report", tmp_path / "r.json"]
        )
        out_path = tmp_path / "normalized.txt"
        assert run(["emit", "--skeleton", skeleton_path, "--out", out_path]) == EXIT_OK
        assert parse_skeleton(out_path.read_text()).service_name

    def test_invalid_skeleton_exits_parse(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("service: x\ninputs:\n  method\ntarget t tree:\n  ???\n")
        assert run(["emit", "--skeleton", bad]) == EXIT_PARSE


class TestServe:
    def test_invalid_skeleton_exits_before_binding(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a skeleton\n")
        assert run(["serve", "--skeleton", bad, "--port", 1]) == EXIT_PARSE

    def test_banner_names_the_bound_host_and_port(self, tmp_path):
        path = tmp_path / "skeleton.txt"
        path.write_text(tiny_skeleton_text(), encoding="utf-8")
        src = str(Path(mockskel.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "mockskel.cli", "serve", "--skeleton", str(path),
             "--host", "127.0.0.1", "--port", "0"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.fullmatch(r"serving s on http://127\.0\.0\.1:([0-9]+) .*\n", banner)
            assert match and match[1] != "0", banner
            conn = http.client.HTTPConnection("127.0.0.1", int(match[1]), timeout=10)
            conn.request("GET", "/_mock/stats")
            assert conn.getresponse().status == 200
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


class TestUserFiles:
    """Config and skeleton files are UTF-8, with or without a byte-order
    mark; one that does not decode is a parse error naming the file."""

    def test_config_with_bom_is_read(self, tmp_path):
        import argparse

        from mockskel.cli import resolve_run_config

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": 5}), encoding="utf-8-sig")
        assert resolve_run_config(argparse.Namespace(config=str(config_path))).seed == 5

    def test_skeleton_with_bom_is_emitted(self, tmp_path):
        path, out = tmp_path / "skeleton.txt", tmp_path / "normalized.txt"
        path.write_text(tiny_skeleton_text(), encoding="utf-8-sig")
        assert run(["emit", "--skeleton", path, "--out", out]) == EXIT_OK
        assert out.read_text(encoding="utf-8") == tiny_skeleton_text()

    @pytest.mark.parametrize("command", ["config", "emit", "serve"])
    def test_undecodable_file_exits_parse_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(tiny_skeleton_text().replace("service: s", "service: caf\xe9").encode("latin-1"))
        args = {
            "config": ["evaluate", "--input", tmp_path / "missing.jsonl", "--config", path],
            "emit": ["emit", "--skeleton", path],
            "serve": ["serve", "--skeleton", path, "--port", 1],
        }[command]
        assert run(args) == EXIT_PARSE
        assert str(path) in capsys.readouterr().err


    @pytest.mark.parametrize("file", ["config", "input"])
    def test_json_nested_too_deep_exits_parse(self, fixture_log, tmp_path, capsys, file):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        args = {
            "config": ["evaluate", "--input", fixture_log, "--config", path],
            "input": ["evaluate", "--input", path],
        }[file]
        assert run([*args, "--out-report", tmp_path / "r.json"]) == EXIT_PARSE
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestImportHar:
    def test_conversion(self, tmp_path):
        har = {
            "log": {
                "entries": [
                    {
                        "startedDateTime": "2019-07-02T10:00:00Z",
                        "request": {"method": "GET", "url": "https://a.ex/x", "headers": []},
                        "response": {"status": 200, "headers": [], "content": {"text": "{}"}},
                    }
                ]
            }
        }
        har_path = tmp_path / "traffic.har"
        har_path.write_text(json.dumps(har))
        out_path = tmp_path / "traffic.jsonl"
        assert run(["import-har", "--input", har_path, "--out", out_path]) == EXIT_OK
        line = json.loads(out_path.read_text())
        assert line["request"]["uri"] == "https://a.ex/x"

    def test_malformed_har_exits_parse(self, tmp_path):
        har_path = tmp_path / "traffic.har"
        har_path.write_text("{}")
        assert run(["import-har", "--input", har_path, "--out", tmp_path / "o"]) == EXIT_PARSE

    def test_an_integer_too_long_to_convert_exits_parse(self, tmp_path, capsys):
        record = {"request": {"method": "GET", "uri": "https://a.ex/x"}, "response": {"status": 200}}
        har_path = tmp_path / "traffic.har"
        har_path.write_bytes(har_document([record]).replace(b'"entries"', b'"n": ' + b"1" * 5000
                                                            + b', "entries"'))
        assert run(["import-har", "--input", har_path, "--out", tmp_path / "o"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: not a HAR 1.2 document: ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_lone_surrogate_header_value_is_written_escaped(self, tmp_path):
        record = {"request": {"method": "GET", "uri": "https://a.ex/x", "headers": [["X-Odd", "\ud800"]]},
                  "response": {"status": 200}}
        har_path, out_path = tmp_path / "traffic.har", tmp_path / "traffic.jsonl"
        har_path.write_bytes(har_document([record]))
        assert run(["import-har", "--input", har_path, "--out", out_path]) == EXIT_OK
        assert b"\\ud800" in out_path.read_bytes()
        assert load_traffic(out_path).transactions == load_traffic(har_path, "har").transactions

    def test_training_on_har_matches_training_on_its_import(self, tmp_path):
        # every request body's postData.mimeType disagrees with its
        # Content-Type header, which alone types the body
        records = [transaction_to_json(t) for t in generate_synthetic_log(300, 15, seed=4).transactions]
        har_path = tmp_path / "har" / "traffic.har"
        har_path.parent.mkdir()
        har_path.write_bytes(har_document(records, ["text/plain"] * len(records)))
        jsonl_path = tmp_path / "traffic.jsonl"
        assert run(["import-har", "--input", har_path, "--out", jsonl_path]) == EXIT_OK
        outputs = []
        for args in (["--input", har_path, "--format", "har"], ["--input", jsonl_path]):
            out = tmp_path / str(len(outputs))
            out.mkdir()
            assert run(["train", *args, "--jobs", 1, "--learners", "c45,ripper",
                        "--out-skeleton", out / "s.txt", "--out-report", out / "r.json"]) == EXIT_OK
            outputs.append(((out / "s.txt").read_bytes(), (out / "r.json").read_bytes()))
        assert outputs[0] == outputs[1]


class TestParallelism:
    def test_parallel_matches_serial(self, fixture_log, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        run(["evaluate", "--input", fixture_log, "--jobs", 1, "--out-report", serial])
        run(["evaluate", "--input", fixture_log, "--jobs", 4, "--out-report", parallel])
        assert serial.read_bytes() == parallel.read_bytes()

    class RecordingPool:
        """A stand-in for ProcessPoolExecutor that records the workers asked
        for and runs each task in this process."""

        def __init__(self, max_workers, initializer, initargs, sizes):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of each pool that training starts."""
        sizes = []
        monkeypatch.setattr(cli, "_worker_job", None)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda **kwargs: self.RecordingPool(**kwargs, sizes=sizes))
        return sizes

    @pytest.fixture(scope="class")
    def six_tasks(self):
        """A run of six (target, learner) tasks, and its serial metrics."""
        log = generate_synthetic_log(120, 6, seed=3)
        config = RunConfig(input="x", jobs=1, learners=("c45",))
        result = run_pipeline(log, config)
        assert len(result.metrics) == 6
        return log, config, result.metrics

    def test_the_pool_never_has_more_workers_than_tasks(self, six_tasks, pool_sizes):
        log, config, serial = six_tasks
        result = run_pipeline(log, replace(config, jobs=64))
        assert pool_sizes == [6]
        assert result.metrics == serial

    def test_jobs_0_counts_the_cpus_this_process_may_use(self, six_tasks, pool_sizes, monkeypatch):
        log, config, serial = six_tasks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        result = run_pipeline(log, replace(config, jobs=0))
        assert pool_sizes == []  # one usable CPU: no pool
        assert result.metrics == serial
        # without an affinity call, the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_pipeline(log, replace(config, jobs=0))
        assert pool_sizes == [3]
