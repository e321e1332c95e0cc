import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridclear.cli import main
from gridclear.ders import GenerationSpec, generate_population, population_document
from gridclear.errors import ConfigError, InfeasibleError, read_document
from gridclear.network import load_network
from gridclear.scenario import (
    _write_json,
    bundled_feeder,
    emit_plot_data,
    load_scenario,
    run_scenario,
)

from conftest import lateral_feeder_doc, mc_feeder_doc


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

    def test_read_document_keeps_a_mapping_as_is(self):
        doc = mc_feeder_doc()
        assert read_document(doc, "gridclear-feeder/1", "feeder") is doc

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


def der_edit(**fields):
    """Inline DER document whose first record has `fields` replaced."""
    doc = ders_doc()
    doc["ders"][0].update(fields)
    return {"ders": doc}


def feeder_edit(*path, value):
    """Inline feeder document with the entry at `path` set to `value`."""
    doc = mc_feeder_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return {"feeder": doc}



# each one replaces a top-level section of a valid scenario
BAD_CONFIGS = {
    "wrong-schema": {"schema": "nope"},
    "price-window-reversed": {"ders": generate_spec(price_lo=30, price_hi=5)},
    "tail-window": {"ders": generate_spec(price_mean=20, price_sd=1,
                                          price_lo=1000, price_hi=1001)},
    "count-as-string": {"ders": generate_spec(n_offers="3")},
    "negative-count": {"ders": generate_spec(n_bids=-2)},
    "charge-as-string": {"market": {"m_cents_per_kwh": "2.5", "lmp": 13.0}},
    "zero-interval": {"market": {"m_cents_per_kwh": 2.5, "delta_t_hours": 0,
                                 "lmp": 13.0}},
    "lmp-nan": {"market": {"m_cents_per_kwh": 2.5, "lmp": float("nan")}},
    "lmp-bool": {"market": {"m_cents_per_kwh": 2.5, "lmp": True}},
    "intercept-as-string": {"market": {"lmp": {"intercept": "8", "slope": 0.004}}},
    "slope-as-string": {"market": {"lmp": {"intercept": 8.0, "slope": "0.004"}}},
    "slope-nan": {"market": {"lmp": {"intercept": 8.0, "slope": float("nan")}}},
    "price-overflow": {"market": {"lmp": {"intercept": 8.0, "slope": 1e308,
                                          "base_load_kw": 1e10}}},
    "negative-slope": {"market": {"lmp": {"intercept": 8.0, "slope": -0.004}}},
    "polygon-edges-huge": {"market": {"m_cents_per_kwh": 2.5, "lmp": 13.0,
                                      "polygon_edges": 10**6}},
    "volume-as-string": der_edit(volume_kw="abc"),
    "volume-null": der_edit(volume_kw=None),
    "volume-nan": der_edit(volume_kw=float("nan")),
    "volume-infinite": der_edit(volume_kw=float("inf")),
    "der-price-as-string": der_edit(price_cents_per_kwh="x"),
    "der-price-nan": der_edit(price_cents_per_kwh=float("nan")),
    "der-price-infinite": der_edit(price_cents_per_kwh=float("inf")),
    "power-factor-as-string": der_edit(power_factor="x"),
    "der-record-not-object": {"ders": {"schema": "gridclear-ders/1", "ders": [1]}},
    "s-base-as-string": feeder_edit("base", "s_base_kva", value="abc"),
    "s-base-nan": feeder_edit("base", "s_base_kva", value=float("nan")),
    "v0-as-string": feeder_edit("base", "v0_pu", value="x"),
    "head-limit-nan": feeder_edit("base", "s0_max_kva", value=float("nan")),
    "line-limit-nan": feeder_edit("lines", 0, "s_max_kva", value=float("nan")),
    "fixed-load-nan": feeder_edit("buses", 2, "fixed_p_kw", value=float("nan")),
    "resistance-nan": feeder_edit("lines", 0, "r_ohm", 0, 0, value=float("nan")),
    "bus-record-not-object": feeder_edit("buses", 2, value=1),
    "bus-phase-not-fed": feeder_edit("buses", 2, value={"id": 2, "phases": "abc",
                                                        "fixed_p_kw": {"b": -5.0}}),
    "buses-not-list": feeder_edit("buses", value=5),
    "lines-not-list": feeder_edit("lines", value=5),
}


def outcome_bytes(**fields):
    return json.dumps(dict({"schema": "gridclear-outcome/1"}, **fields)).encode()


# (command, file under tmp_path, its bytes or None for a directory): the
# file replaces one of a valid scenario's files, or of a finished run's
BAD_FILES = {
    "feeder-array": ("run", "feeder.json", b"[]"),
    "ders-array": ("run", "ders.json", b"[]"),
    "config-is-directory": ("run", "scenario.json", None),
    "config-not-utf8": ("run", "scenario.json", b'{"schema": "\xff"}'),
    "alpha-array": ("check", "alpha.json", b"[]"),
    "final-alpha-list": ("check", "alpha.json", outcome_bytes(final_alpha=[])),
    "final-alpha-nan": ("check", "alpha.json",
                        outcome_bytes(final_alpha={"b1": float("nan")})),
    "final-alpha-string": ("check", "alpha.json",
                           outcome_bytes(final_alpha={"b1": "abc"})),
    "final-alpha-unknown-der": ("check", "alpha.json",
                                outcome_bytes(final_alpha={"x9": 1.0})),
    "outcome-without-final-alpha": ("check", "alpha.json", outcome_bytes()),
    "outcome-not-json": ("plot-data", "run/outcome.json", b"{"),
    "outcome-empty-object": ("plot-data", "run/outcome.json", b"{}"),
    "output-dir-is-file": ("run", "out", b""),
    "outcome-without-final-state": ("plot-data", "run/outcome.json",
                                    outcome_bytes(quotes=[])),
    "outcome-without-quotes": ("plot-data", "run/outcome.json",
                               outcome_bytes(final_state={"voltages": []})),
    "retail-without-signals": ("plot-data", "run/retail.json",
                               json.dumps({"schema": "gridclear-retail/1"}).encode()),
}


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
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, content", BAD_FILES.values(),
                             ids=BAD_FILES.keys())
    def test_bad_file_exit_code(self, tmp_path, capsys, command, name, content):
        cfg = write_scenario(tmp_path)
        if command == "plot-data":
            assert main(["run", "-c", str(cfg), "-o", str(tmp_path / "run")]) == 0
        path = tmp_path / name
        if content is None:
            path.unlink()
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = {"run": ["run", "-c", str(cfg), "-o", str(tmp_path / "out")],
                "check": ["check", "-c", str(cfg), "-a", str(path)],
                "plot-data": ["plot-data", "-r", str(path.parent),
                              "-o", str(tmp_path / "plot")]}[command]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_generate_ders_into_a_directory_exit_code(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        doc = json.loads(path.read_text())
        doc["ders"] = {"generate": {"n_bids": 3, "n_offers": 2, "seed": 5}}
        path.write_text(json.dumps(doc))
        assert main(["generate-ders", "-c", str(path), "-o", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_plot_data_checks_every_file_before_writing(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        run = tmp_path / "run"
        assert main(["run", "-c", str(cfg), "-o", str(run)]) == 0
        (run / "retail.json").write_text(json.dumps({"schema": "gridclear-retail/1"}))
        plot = tmp_path / "plot"
        assert main(["plot-data", "-r", str(run), "-o", str(plot)]) == 2
        assert "retail.json" in capsys.readouterr().err
        assert not plot.exists()

    def test_plot_data_into_a_file_exit_code(self, tmp_path, capsys):
        cfg = write_scenario(tmp_path)
        run = tmp_path / "run"
        assert main(["run", "-c", str(cfg), "-o", str(run)]) == 0
        (tmp_path / "plot").write_text("")
        assert main(["plot-data", "-r", str(run), "-o", str(tmp_path / "plot")]) == 2
        assert str(tmp_path / "plot") in capsys.readouterr().err

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


def exported_bytes(scenario: dict) -> dict:
    """Every file `run_scenario` exports for `scenario` except the
    timestamped manifest, by name."""
    with tempfile.TemporaryDirectory() as out:
        run_scenario(load_scenario(scenario), out)
        return {p.name: p.read_bytes() for p in Path(out).iterdir()
                if p.name != "manifest.json"}


def ders_scenario(feeder: dict, records: list, lmp) -> dict:
    return {"schema": "gridclear-scenario/1", "feeder": feeder,
            "ders": {"schema": "gridclear-ders/1", "ders": records},
            "market": {"m_cents_per_kwh": 2.5, "lmp": lmp}}


# bids and offers at the end of the single-phase path, each side at one
# shared price and with more volume than the voltage band lets through, so
# the acceptance LPs have many optimal vertices
TIED_DERS = [{"id": f"{side[0]}{i}", "bus": 2, "phases": "a", "side": side,
              "price_cents_per_kwh": price, "volume_kw": 30.0, "power_factor": 0.9}
             for side, price in (("bid", 16.0), ("offer", 9.0)) for i in range(1, 5)]


class TestDerOrder:
    @given(st.permutations(TIED_DERS))
    @settings(max_examples=15, deadline=None)
    def test_tied_prices_export_the_same_bytes_in_any_order(self, records):
        feeder = mc_feeder_doc()
        assert (exported_bytes(ders_scenario(feeder, records, 13.0))
                == exported_bytes(ders_scenario(feeder, TIED_DERS, 13.0)))

    def test_reversed_crowd_exports_the_same_bytes(self):
        # the first 300 DERs (all bids) of a 1200-DER population on the
        # reference feeder, prices rounded to whole cents so that many tie
        feeder = bundled_feeder()
        network = load_network(feeder)
        spec = GenerationSpec(n_bids=600, n_offers=600, seed=1826701615)
        records = population_document(generate_population(spec, network),
                                      network)["ders"][:300]
        for rec in records:
            rec["price_cents_per_kwh"] = float(round(rec["price_cents_per_kwh"]))
            rec["volume_kw"] = 20.0
        lmp = {"intercept": 8.0, "slope": 0.004, "base_load_kw": 1347.5}
        assert (exported_bytes(ders_scenario(feeder, records[::-1], lmp))
                == exported_bytes(ders_scenario(feeder, records, lmp)))


# Strings the indented layout could be confused by: quotes, escapes, line
# breaks, the text of a record boundary, brackets and non-ASCII.
AWKWARD_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "},\n    {", "},\n{", "[]", "{}", "]", "{",
                     ": ", ",\n  ", "é", "日本語", " ", "\x00"]),
)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10**40, max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308]),
    AWKWARD_TEXT,
)
# keys that compare with each other, so the stdlib can sort them
OTHER_KEYS = st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans())


def json_documents():
    """Nested dicts, lists and tuples (empty ones too), lists of flat
    records, and dicts with keys that are not strings."""
    records = st.lists(st.dictionaries(AWKWARD_TEXT, JSON_SCALARS, min_size=1,
                                       max_size=4), min_size=1, max_size=4)
    return st.recursive(JSON_SCALARS, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(AWKWARD_TEXT, children, max_size=4),
        st.dictionaries(OTHER_KEYS, children, max_size=3),
        records,
    ), max_leaves=25)


class TestJsonWriter:
    @given(json_documents())
    @settings(max_examples=400, deadline=None)
    def test_writes_what_the_stdlib_writes(self, doc):
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        with tempfile.TemporaryDirectory() as out:
            path = Path(out, "doc.json")
            _write_json(path, doc)
            assert path.read_text() == expected

    def test_unencodable_document_leaves_no_file(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(TypeError):
            _write_json(path, {"a": object()})
        assert not path.exists()

    def test_run_exports_are_the_stdlib_text_of_its_documents(self, tmp_path):
        result = run_scenario(load_scenario(write_scenario(tmp_path)), tmp_path / "out")
        for name, doc in result.documents.items():
            assert ((tmp_path / "out" / name).read_text()
                    == json.dumps(doc, indent=2, sort_keys=True) + "\n"), name
