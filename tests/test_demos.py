"""Each demo prints what it printed when its recorded output was taken.

The recordings under tests/data/demos were made by running the demos as
scripts; here each demo's main() runs in a fresh working directory, since
demo 04 writes its artifacts next to where it runs.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_recorded_output(demo, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{demo.stem}", demo)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    module.main()
    expected = (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_text()
    assert capsys.readouterr().out == expected
