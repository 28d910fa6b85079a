"""README.md's Python examples run as written, in a directory that holds
the ``traffic.jsonl`` recording they read."""

import re
from pathlib import Path

import pytest

from mockskel import generate_synthetic_log, save_jsonl

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert EXAMPLES, "no ```python block found"


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"example-{i}" for i in range(len(EXAMPLES))])
def test_example_runs(code, tmp_path, monkeypatch):
    save_jsonl(generate_synthetic_log(600, 30, seed=7), str(tmp_path / "traffic.jsonl"))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
