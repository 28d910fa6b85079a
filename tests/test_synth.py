from collections import Counter

from conftest import group_by_resource
from mockskel.features import extract_table
from mockskel.synth import expected_status, generate_synthetic_log
from mockskel.traffic import dump_jsonl, load_traffic


class TestGenerator:
    def test_exact_transaction_count(self):
        assert len(generate_synthetic_log(500, 30, seed=1)) == 500

    def test_deterministic_in_seed(self):
        a = generate_synthetic_log(300, 20, seed=5)
        b = generate_synthetic_log(300, 20, seed=5)
        assert dump_jsonl(a) == dump_jsonl(b)
        c = generate_synthetic_log(300, 20, seed=6)
        assert dump_jsonl(a) != dump_jsonl(c)

    def test_covers_all_rule_outcomes(self, synth_log):
        statuses = Counter(t.response.status_code for t in synth_log.transactions)
        assert set(statuses) == {200, 201, 204, 400, 404}

    def test_loadable_via_native_format(self, small_synth_log):
        reloaded = load_traffic(dump_jsonl(small_synth_log).encode(), "jsonl")
        assert reloaded.transactions == small_synth_log.transactions


class TestGeneratedSemantics:
    def test_statuses_match_rule_set_given_history(self, synth_log):
        # replaying per-resource histories, every recorded status equals the
        # generating rule applied to (method, everCreated, hasValidPayload)
        import json

        for txns in group_by_resource(synth_log).values():
            ever_created = False
            for txn in txns:
                body = txn.request.body
                valid = False
                if body is not None:
                    try:
                        json.loads(body.decode("utf-8"))
                        valid = True
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        valid = False
                expected = expected_status(txn.request.method, ever_created, valid)
                assert txn.response.status_code == expected
                if txn.request.method == "POST":
                    ever_created = True

    def test_delete_is_terminal_and_post_is_unique(self, synth_log):
        for txns in group_by_resource(synth_log).values():
            methods = [t.request.method for t in txns]
            assert methods.count("POST") <= 1
            created_deletes = [
                i for i, t in enumerate(txns)
                if t.request.method == "DELETE" and t.response.status_code == 204
            ]
            if created_deletes:
                assert created_deletes[0] == len(txns) - 1

    def test_state_feature_is_required_for_perfect_prediction(self, synth_log):
        # without state features the status of a GET is ambiguous: the same
        # bare GET appears with both 200 and 404 outcomes
        table, _ = extract_table(synth_log)
        by_request: dict = {}
        i_method = table.names.index("method")
        i_created = table.names.index("everCreated")
        i_status = table.names.index("statusCode")
        for row in table.instances:
            if row[i_method] == "GET":
                by_request.setdefault(row[i_created], set()).add(row[i_status])
        assert by_request["false"] == {"404"}
        assert by_request["true"] == {"200"}
