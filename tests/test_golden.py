"""Golden outputs: for a fixed recording and seed, ``mockskel train``
writes the same skeleton and report bytes, and fits the same model for
every (target, learner) pair, as when the files under ``golden/`` were
recorded.

Only a change that is meant to alter the outputs re-records them: copy
the skeleton the test writes over the golden file, and the digests its
failing asserts print into the constants below.
"""

import hashlib
from pathlib import Path

from mockskel import cli
from mockskel.skeleton import render_model
from mockskel.synth import generate_synthetic_log
from mockskel.traffic import save_jsonl

GOLDEN_SKELETON = Path(__file__).resolve().parent / "golden" / "synthetic_400_25_s12.skeleton.txt"
#: sha256 of the report (about 29 KB, so only its digest is kept)
REPORT_SHA256 = "e4cd8eed3e3d7d05fee2f0fbd49b2f73b8b7c846985205517979edb44d55eb5c"
#: sha256 of every fitted model rendered with its counts, ordered by (target, learner)
MODELS_SHA256 = "fefc0c1f4873d233fd8a4b98fc8029f768c8ff5d20346deb35f08266a0d51d3c"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_train_outputs_match_golden(tmp_path, monkeypatch):
    recording = tmp_path / "synthetic.jsonl"
    save_jsonl(generate_synthetic_log(400, 25, seed=12), recording)
    results = []
    real_run_pipeline = cli.run_pipeline

    def run_pipeline(traffic_log, config):
        results.append(real_run_pipeline(traffic_log, config))
        return results[-1]

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    skeleton_path, report_path = tmp_path / "skeleton.txt", tmp_path / "report.json"
    code = cli.main(["train", "--input", str(recording), "--jobs", "1",
                     "--out-skeleton", str(skeleton_path), "--out-report", str(report_path)])
    assert code == cli.EXIT_OK and len(results) == 1
    skeleton = skeleton_path.read_text(encoding="utf-8")
    report = report_path.read_text(encoding="utf-8")
    models = "".join(
        f"{target} {learner}\n" + "".join(f"{line}\n" for line in render_model(model, target))
        for (target, learner), model in sorted(results[0].models.items())
    )
    assert skeleton == GOLDEN_SKELETON.read_text(encoding="utf-8")
    assert sha256(report) == REPORT_SHA256
    assert sha256(models) == MODELS_SHA256
