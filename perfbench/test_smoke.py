"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at minimal length in both modes and checks that each
metric BENCHMARK.json names is printed with its unit, and that the output
gate catches a known-bad dispatch.  Takes about two minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gridclear as gc  # noqa: E402

import gate  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


def _two_bus_scenario(case: str) -> gc.ScenarioConfig:
    """Criterion 07's single-phase path: a bid and an offer at its far end
    that only fit together (offer at 12.0, LMP 13.0)."""
    line = {"r_ohm": [[3.0, 0, 0], [0, 0, 0], [0, 0, 0]],
            "x_ohm": [[5.5, 0, 0], [0, 0, 0], [0, 0, 0]],
            "phases": "a", "s_max_kva": {"a": 2000.0}}
    feeder = {
        "schema": "gridclear-feeder/1",
        "base": {"s_base_kva": 1000.0, "v_base_kv": 2.401, "v0_pu": 1.03,
                 "v_min_pu": 0.95, "v_max_pu": 1.05, "s0_max_kva": 5000.0},
        "buses": [{"id": 0, "phases": "abc"}, {"id": 1, "phases": "a"},
                  {"id": 2, "phases": "a"}],
        "lines": [dict(line, **{"from": 0, "to": 1}),
                  dict(line, **{"from": 1, "to": 2})],
    }
    ders = {"schema": "gridclear-ders/1", "ders": [
        {"id": "b1", "bus": 2, "phases": "a", "side": "bid",
         "price_cents_per_kwh": 16.0, "volume_kw": 60.0, "power_factor": 0.9},
        {"id": "o1", "bus": 2, "phases": "a", "side": "offer",
         "price_cents_per_kwh": 12.0, "volume_kw": 65.0, "power_factor": 0.9},
    ]}
    return gc.load_scenario({"schema": "gridclear-scenario/1", "feeder": feeder,
                             "ders": ders, "market": {"lmp": 13.0}, "case": case})


def _gate(result) -> list[str]:
    residuals, _ = gate.bin_residuals(result.network, result.population,
                                      result.bins.params, result.bins)
    return gate.check_interval(result.network, result.population, result.bins,
                               result.outcome, result.violations, residuals)


def test_gate_flags_the_naive_dispatch():
    # test-case-1 quotes without withholding: the exchange rejects o1's
    # quote (14.5 > 13.0), so o1 is zeroed and b1 alone sags the voltage
    naive = gc.run_scenario(_two_bus_scenario("test-case-1"))
    assert naive.outcome.final_alpha["o1"] == 0.0
    failures = _gate(naive)
    assert any("voltage" in f for f in failures), failures
    assert _gate(gc.run_scenario(_two_bus_scenario("C"))) == []
