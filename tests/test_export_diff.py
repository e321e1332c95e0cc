import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "export_diff.py"
SPEC = importlib.util.spec_from_file_location("export_diff", PATH)
export_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(export_diff)


def solution(alpha, p_kw, lam):
    return {"schema": "gridclear-solution/1", "status": "optimal",
            "objective_cents": -100.0, "alpha": alpha,
            "flows": [{"from": "1", "to": "2", "phase": "a", "p_kw": p_kw, "q_kvar": 1.0}],
            "duals": {"lambda_p": [{"bus": "2", "phase": "a", "value": lam}]}}


def write_tree(root: Path, files: dict) -> Path:
    run = root / "ref123-crowd" / "7" / "C"
    run.mkdir(parents=True)
    for name, doc in files.items():
        (run / name).write_text(json.dumps(doc))
    return root


def trees(tmp_path, **edits):
    base = {"solution_offers.json": solution({"o1": 1.0, "o2": 0.25}, 40.0, -2500.0),
            "manifest.json": {"case": "C", "created_utc": "2026-01-01T00:00:00+00:00"}}
    changed = {name: dict(doc) for name, doc in base.items()}
    changed["manifest.json"]["created_utc"] = "2026-01-02T00:00:00+00:00"
    changed["solution_offers.json"] = solution(**{
        "alpha": {"o1": 1.0, "o2": 0.25}, "p_kw": 40.0, "lam": -2500.0, **edits})
    return write_tree(tmp_path / "a", base), write_tree(tmp_path / "b", changed)


def test_moved_dual_is_reported_but_passes(tmp_path, capsys):
    a, b = trees(tmp_path, lam=-1600.0, p_kw=40.0 + 1e-9)
    assert export_diff.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "9.000e+02" in out and "solution_offers.json duals.lambda_p[].value" in out
    assert "non-numeric" not in out  # the manifest timestamp is not compared


@pytest.mark.parametrize("edits, line", [
    ({"alpha": {"o1": 1.0, "o2": 0.25 + 2e-9}}, "alpha.{} (ref123-crowd/7/C)  primal  OVER"),
    ({"p_kw": 40.0 * (1 + 2e-9)}, "flows[].p_kw (ref123-crowd/7/C)  primal  OVER"),
    ({"alpha": {"o1": 1.0, "o3": 0.25}}, "non-numeric: ref123-crowd/7/C/solution_offers.json"
                                         " alpha: keys differ"),
], ids=["acceptance", "flow", "der-ids"])
def test_primal_or_non_numeric_difference_fails(tmp_path, capsys, edits, line):
    a, b = trees(tmp_path, **edits)
    assert export_diff.main(["compare", str(a), str(b)]) == 1
    assert line in capsys.readouterr().out


def test_missing_file_fails(tmp_path, capsys):
    a, b = trees(tmp_path)
    (b / "ref123-crowd" / "7" / "C" / "manifest.json").unlink()
    assert export_diff.main(["compare", str(a), str(b)]) == 1
    assert "manifest.json: only under" in capsys.readouterr().out
