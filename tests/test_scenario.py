import json
from pathlib import Path

import pytest

from gridclear.cli import main
from gridclear.errors import ConfigError, InfeasibleError
from gridclear.scenario import (
    bundled_feeder,
    emit_plot_data,
    load_scenario,
    run_scenario,
)

from conftest import bus_rec, feeder_doc, line_rec, mc_feeder_doc


def ders_doc(offer_price=9.0, include_offer=True):
    recs = [{"id": "b1", "bus": 2, "phases": "a", "side": "bid",
             "price_cents_per_kwh": 16.0, "volume_kw": 60.0,
             "power_factor": 0.9}]
    if include_offer:
        recs.append({"id": "o1", "bus": 2, "phases": "a", "side": "offer",
                     "price_cents_per_kwh": offer_price, "volume_kw": 65.0,
                     "power_factor": 0.9})
    return {"schema": "gridclear-ders/1", "ders": recs}


def write_scenario(tmp_path, *, case="C", offer_price=9.0, lmp=13.0,
                   include_offer=True, feeder=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "feeder.json").write_text(json.dumps(feeder or mc_feeder_doc()))
    (tmp_path / "ders.json").write_text(
        json.dumps(ders_doc(offer_price, include_offer)))
    config = {
        "schema": "gridclear-scenario/1",
        "feeder": "feeder.json",
        "ders": "ders.json",
        "market": {"m_cents_per_kwh": 2.5, "lmp": lmp},
        "case": case,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    return path


class TestConfig:
    def test_relative_paths_resolve_against_config(self, tmp_path):
        path = write_scenario(tmp_path / "nested")
        config = load_scenario(path)
        assert config.feeder["schema"] == "gridclear-feeder/1"
        assert config.lmp_source == 13.0
        assert config.case == "C"

    def test_wrong_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ConfigError):
            load_scenario(bad)

    def test_unknown_case_rejected(self, tmp_path):
        path = write_scenario(tmp_path)
        doc = json.loads(path.read_text())
        doc["case"] = "D"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_affine_lmp_parsed(self, tmp_path):
        path = write_scenario(tmp_path)
        doc = json.loads(path.read_text())
        doc["market"]["lmp"] = {"intercept": 1.0, "slope": 0.1,
                                "base_load_kw": 100.0}
        path.write_text(json.dumps(doc))
        config = load_scenario(path)
        assert config.lmp_source.intercept == 1.0

    def test_bundled_feeder_available(self):
        doc = bundled_feeder()
        assert doc["schema"] == "gridclear-feeder/1"
        assert len(doc["buses"]) == 124
        with pytest.raises(ConfigError):
            bundled_feeder("missing")


class TestRun:
    def test_full_pipeline_artifacts(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path))
        out = tmp_path / "out"
        result = run_scenario(config, out)
        names = {"manifest.json", "ders.json", "solution_bids.json",
                 "solution_offers.json", "solution_joint.json",
                 "outcome.json", "retail.json"}
        assert {p.name for p in out.iterdir()} == names
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["schema"] == "gridclear-outcome/1"
        assert outcome["cleared_mc"]["o1"] == pytest.approx(60.0 / 65.0)
        assert outcome["violations"] == []
        assert result.violations == []
        retail = json.loads((out / "retail.json").read_text())
        by_id = {s["der_id"]: s for s in retail["signals"]}
        assert by_id["b1"]["price_cents_per_kwh"] == pytest.approx(15.5)

    def test_exports_are_reproducible(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_scenario(config, out1)
        run_scenario(config, out2)
        for name in ("ders.json", "solution_bids.json", "solution_offers.json",
                     "solution_joint.json", "outcome.json", "retail.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("created_utc"), m2.pop("created_utc")
        assert m1 == m2

    def test_naive_case_breaks_what_full_case_fixes(self, tmp_path):
        naive = run_scenario(load_scenario(
            write_scenario(tmp_path / "naive", case="test-case-1",
                           offer_price=12.0)))
        full = run_scenario(load_scenario(
            write_scenario(tmp_path / "full", case="C", offer_price=12.0)))
        assert len(naive.violations) >= 1
        assert naive.outcome.rectification == "naive"
        assert full.violations == []

    def test_bids_only_case_matches_side_restriction(self, tmp_path):
        case_a = run_scenario(load_scenario(
            write_scenario(tmp_path / "a", case="A")))
        case_c = run_scenario(load_scenario(
            write_scenario(tmp_path / "c", case="C", include_offer=False)))
        assert set(case_a.outcome.final_alpha) == {"b1"}
        assert case_a.outcome.final_alpha["b1"] == pytest.approx(
            case_c.outcome.final_alpha["b1"], abs=1e-9)

    def test_generated_population_run(self, tmp_path):
        path = write_scenario(tmp_path)
        doc = json.loads(path.read_text())
        doc["ders"] = {"generate": {"n_bids": 2, "n_offers": 1, "seed": 11}}
        path.write_text(json.dumps(doc))
        result = run_scenario(load_scenario(path), tmp_path / "out")
        assert result.population.n == 3
        exported = json.loads((tmp_path / "out" / "ders.json").read_text())
        assert len(exported["ders"]) == 3


def generate_spec(**spec):
    return {"generate": dict({"n_bids": 2, "n_offers": 1, "seed": 11}, **spec)}


# each one replaces a top-level section of a valid scenario
BAD_CONFIGS = {
    "wrong-schema": {"schema": "nope"},
    "price-window-reversed": {"ders": generate_spec(price_lo=30, price_hi=5)},
    "count-as-string": {"ders": generate_spec(n_offers="3")},
    "negative-count": {"ders": generate_spec(n_bids=-2)},
    "charge-as-string": {"market": {"m_cents_per_kwh": "2.5", "lmp": 13.0}},
    "zero-interval": {"market": {"m_cents_per_kwh": 2.5, "delta_t_hours": 0,
                                 "lmp": 13.0}},
}


def lateral_feeder_doc():
    """Three-phase trunk head-1-3 with a phase-b lateral 1-2."""
    lateral = {"from": 1, "to": 2, "phases": "b",
               "r_ohm": [[0, 0, 0], [0, 0.3, 0], [0, 0, 0]],
               "x_ohm": [[0, 0, 0], [0, 0.6, 0], [0, 0, 0]],
               "s_max_kva": {"b": 500.0}}
    return feeder_doc(
        buses=[bus_rec(0), bus_rec(1, p_kw={"a": -20.0, "c": -10.0}),
               bus_rec(2, phases="b", p_kw={"b": -15.0}), bus_rec(3)],
        lines=[line_rec(0, 1, scale=0.2), lateral, line_rec(1, 3, scale=0.2)],
    )


def test_exports_list_only_carried_phases(tmp_path):
    ders = {"schema": "gridclear-ders/1", "ders": [
        {"id": "b1", "bus": 2, "phases": "b", "side": "bid",
         "price_cents_per_kwh": 16.0, "volume_kw": 20.0, "power_factor": 0.9},
        {"id": "o1", "bus": 3, "phases": "abc", "side": "offer",
         "price_cents_per_kwh": 9.0, "volume_kw": 30.0, "power_factor": 0.9},
    ]}
    config = load_scenario({"schema": "gridclear-scenario/1",
                            "feeder": lateral_feeder_doc(), "ders": ders,
                            "market": {"m_cents_per_kwh": 2.5, "lmp": 13.0}})
    run_scenario(config, tmp_path)
    joint = json.loads((tmp_path / "solution_joint.json").read_text())
    outcome = json.loads((tmp_path / "outcome.json").read_text())

    def pairs(rows):
        return [(r["bus"], r["phase"]) for r in rows]

    bus_phases = [("1", "a"), ("1", "b"), ("1", "c"), ("2", "b"),
                  ("3", "a"), ("3", "b"), ("3", "c")]
    assert pairs(joint["voltages"]) == bus_phases
    assert pairs(joint["duals"]["lambda_p"]) == bus_phases
    assert pairs(joint["duals"]["lambda_q"]) == bus_phases
    assert [(f["from"], f["to"], f["phase"]) for f in joint["flows"]] == [
        ("0", "1", "a"), ("0", "1", "b"), ("0", "1", "c"), ("1", "2", "b"),
        ("1", "3", "a"), ("1", "3", "b"), ("1", "3", "c")]
    assert pairs(outcome["final_state"]["voltages"]) == pairs(joint["voltages"])


class TestCli:
    def test_run_and_plot_data(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
        assert "rectification: applied" in capsys.readouterr().out
        assert main(["plot-data", "-r", str(out)]) == 0
        plot = out / "plotdata"
        assert {p.name for p in plot.iterdir()} == {
            "voltages.csv", "nqp.csv", "curves.csv", "retail_compare.csv"}
        header = (plot / "voltages.csv").read_text().splitlines()[0]
        assert header == "bus,phase,v_pu"

    def test_check_passes_then_flags_naive(self, tmp_path):
        cfg = write_scenario(tmp_path, offer_price=12.0)
        out = tmp_path / "run"
        assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
        assert main(["check", "-c", str(cfg),
                     "-a", str(out / "outcome.json")]) == 0
        naive_cfg = write_scenario(tmp_path / "n", case="test-case-1",
                                   offer_price=12.0)
        naive_out = tmp_path / "n" / "run"
        assert main(["run", "-c", str(naive_cfg), "-o", str(naive_out)]) == 0
        assert main(["check", "-c", str(naive_cfg),
                     "-a", str(naive_out / "outcome.json")]) == 3

    def test_generate_ders_deterministic(self, tmp_path):
        path = write_scenario(tmp_path)
        doc = json.loads(path.read_text())
        doc["ders"] = {"generate": {"n_bids": 3, "n_offers": 2, "seed": 5}}
        path.write_text(json.dumps(doc))
        f1, f2 = tmp_path / "d1.json", tmp_path / "d2.json"
        assert main(["generate-ders", "-c", str(path), "-o", str(f1)]) == 0
        assert main(["generate-ders", "-c", str(path), "-o", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert len(json.loads(f1.read_text())["ders"]) == 5

    @pytest.mark.parametrize("override", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_bad_config_exit_code(self, tmp_path, capsys, override):
        path = write_scenario(tmp_path)
        doc = json.loads(path.read_text())
        doc.update(override)
        path.write_text(json.dumps(doc))
        assert main(["run", "-c", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_infeasible_feeder_exit_code(self, tmp_path, capsys):
        feeder = mc_feeder_doc()
        feeder["buses"][2]["fixed_p_kw"] = {"a": -700.0}
        cfg = write_scenario(tmp_path, feeder=feeder)
        assert main(["run", "-c", str(cfg)]) == 3
        assert "infeasible" in capsys.readouterr().err


def test_run_without_output_dir_writes_nothing(tmp_path):
    config = load_scenario(write_scenario(tmp_path))
    result = run_scenario(config)
    assert "manifest.json" not in result.documents
    assert not (Path.cwd() / "gridclear-out").exists()
