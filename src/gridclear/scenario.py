"""Scenario configuration, end-to-end interval runs, deterministic exports.

A scenario document names a feeder, a DER population (stored or sampled),
the market constants, the wholesale price model, and which procedure to
run.  `run_scenario` executes one interval and, given an output
directory, writes a fixed set of JSON artifacts; every file except the
manifest is byte-reproducible for the same configuration.  `emit_plot_data`
turns a finished run directory into flat CSV files for plotting.
"""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .ders import (
    DERS_SCHEMA,
    DerPopulation,
    GenerationSpec,
    generate_population,
    load_ders,
    population_document,
)
from .errors import ConfigError, SchemaError
from .network import FEEDER_SCHEMA, Network, load_network, voltage_rows
from .pipeline import (
    AffineLmp,
    IdsoQuote,
    aggregate_curves,
    build_bins,
    dispatch_check,
    evaluate_dispatch,
    expost_rectify,
    make_quotes,
    mc_ids,
    naive_quotes,
    qualification_prices,
    wpm_clear,
)
from .retail import retail_signals
from .tdopf import TdopfParams, solution_document

SCENARIO_SCHEMA = "gridclear-scenario/1"
OUTCOME_SCHEMA = "gridclear-outcome/1"
RETAIL_SCHEMA = "gridclear-retail/1"
MANIFEST_SCHEMA = "gridclear-manifest/1"

CASES = ("A", "B", "C", "test-case-1", "test-case-2")

# case -> which procedure runs; test-case-1 skips withholding on purpose
_NAIVE_CASES = ("test-case-1",)


@dataclass(frozen=True)
class ScenarioConfig:
    """A resolved scenario: all file references already read into documents."""

    feeder: dict
    ders: dict | GenerationSpec
    params: TdopfParams
    lmp_source: float | AffineLmp
    case: str = "C"
    output_dir: str | None = None


def bundled_feeder(name: str = "ieee123_mod") -> dict:
    """The reference feeder document shipped inside the package."""
    path = resources.files("gridclear").joinpath(f"data/{name}.json")
    try:
        with path.open() as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no bundled feeder named {name!r}") from None


def _resolve_document(entry, base_dir: Path, schema: str, what: str) -> dict:
    if isinstance(entry, str):
        path = Path(entry)
        if not path.is_absolute():
            path = base_dir / path
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"{what} file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None
    elif isinstance(entry, dict):
        doc = entry
    else:
        raise ConfigError(f"{what} must be a path or an inline document")
    if doc.get("schema") != schema:
        raise ConfigError(f"{what} document must carry schema {schema!r}")
    return doc


def load_scenario(source, base_dir=None) -> ScenarioConfig:
    """Read a scenario document from a path, file object, or dict.

    Relative feeder / DER paths resolve against the config file's
    directory (or `base_dir` for inline dicts).
    """
    if isinstance(source, (str, Path)):
        base = Path(source).resolve().parent
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"scenario file not found: {source}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario file is not valid JSON: {exc}") from None
    else:
        base = Path(base_dir) if base_dir is not None else Path.cwd()
        doc = dict(source)
    if not isinstance(doc, dict) or doc.get("schema") != SCENARIO_SCHEMA:
        raise ConfigError(f"expected schema {SCENARIO_SCHEMA!r}")

    feeder_entry = doc.get("feeder")
    if isinstance(feeder_entry, dict) and "bundled" in feeder_entry:
        feeder = bundled_feeder(str(feeder_entry["bundled"]))
    else:
        feeder = _resolve_document(feeder_entry, base, FEEDER_SCHEMA, "feeder")

    ders_entry = doc.get("ders")
    if isinstance(ders_entry, dict) and "generate" in ders_entry:
        try:
            ders = GenerationSpec(**ders_entry["generate"])
        except TypeError as exc:
            raise ConfigError(f"bad generate spec: {exc}") from None
    else:
        ders = _resolve_document(ders_entry, base, DERS_SCHEMA, "ders")

    market = doc.get("market", {})
    if not isinstance(market, dict):
        raise ConfigError("market section must be an object")
    known = {"m_cents_per_kwh", "delta_t_hours", "big_m_cents", "polygon_edges"}
    try:
        params = TdopfParams(**{k: market[k] for k in known if k in market})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad market constants: {exc}") from None

    lmp_entry = market.get("lmp", 0.0)
    if isinstance(lmp_entry, dict):
        try:
            lmp_source = AffineLmp(**lmp_entry)
        except TypeError as exc:
            raise ConfigError(f"bad lmp model: {exc}") from None
    elif isinstance(lmp_entry, (int, float)):
        lmp_source = float(lmp_entry)
    else:
        raise ConfigError("market.lmp must be a number or an affine model object")

    case = doc.get("case", "C")
    if case not in CASES:
        raise ConfigError(f"case must be one of {', '.join(CASES)}")
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    return ScenarioConfig(feeder=feeder, ders=ders, params=params,
                          lmp_source=lmp_source, case=case, output_dir=output_dir)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one interval produced, plus the exported documents."""

    network: Network
    population: DerPopulation
    bins: object
    outcome: object
    signals: list
    violations: list
    documents: dict


def _phase_dict(vec, s_base) -> dict:
    return {ph: float(vec[i] * s_base) for i, ph in enumerate("abc")}


def run_scenario(config: ScenarioConfig, output_dir=None) -> ScenarioResult:
    """Execute one interval and optionally export its artifacts.

    The export set: manifest.json (the only file with a timestamp),
    ders.json, solution_bids.json / solution_offers.json /
    solution_joint.json, outcome.json, retail.json.
    """
    network = load_network(config.feeder)
    if isinstance(config.ders, GenerationSpec):
        population = generate_population(config.ders, network)
    else:
        population = load_ders(config.ders, network)
    if config.case == "A":
        population = DerPopulation.from_ders(population.subset("bid"), network)
    elif config.case == "B":
        population = DerPopulation.from_ders(population.subset("offer"), network)

    bins = build_bins(network, population, config.params)
    if config.case in _NAIVE_CASES:
        quotes = naive_quotes(bins)
        cleared = wpm_clear(quotes, config.lmp_source, bins.alpha_c)
        final_alpha = {d.id: 0.0 for d in population.ders}
        final_alpha.update(cleared.cleared_bids)
        final_alpha.update(cleared.cleared_offers)
        outcome = replace(cleared, final_alpha=final_alpha, rectification="naive")
    else:
        quotes = make_quotes(bins)
        cleared = wpm_clear(quotes, config.lmp_source, bins.alpha_a, bins.alpha_b)
        outcome = expost_rectify(bins, cleared)
    cutoffs = qualification_prices(bins)
    signals = retail_signals(bins, outcome, cutoffs)
    violations = dispatch_check(network, population, outcome.final_alpha,
                                config.params)
    state = evaluate_dispatch(network, population, outcome.final_alpha)
    s = network.s_base_kva
    outcome_doc = {
        "schema": OUTCOME_SCHEMA,
        "case": config.case,
        "lmp_cents_per_kwh": outcome.lmp,
        "network_charge_cents_per_kwh": config.params.m_cents_per_kwh,
        "quotes": [{"der_id": q.der_id, "side": q.side,
                    "price_cents_per_kwh": q.price_cents_per_kwh,
                    "quantity_kw": q.quantity_kw} for q in quotes],
        "cleared_bids": {k: float(v) for k, v in sorted(outcome.cleared_bids.items())},
        "cleared_offers": {k: float(v) for k, v in sorted(outcome.cleared_offers.items())},
        "mc_withheld": sorted(mc_ids(bins)),
        "mc_candidates": sorted(outcome.mc_candidates),
        "cleared_mc": {k: float(v) for k, v in sorted(outcome.cleared_mc.items())},
        "scheduled_net_interchange_kw": float(outcome.scheduled_net_interchange_kw),
        "rectification": outcome.rectification,
        "final_alpha": {k: float(v) for k, v in sorted(outcome.final_alpha.items())},
        "final_state": {
            "voltages": voltage_rows(network, state["v"]),
            "head_kw": _phase_dict(state["p0"], s),
            "head_kvar": _phase_dict(state["q0"], s),
        },
        "violations": violations,
    }
    retail_doc = {
        "schema": RETAIL_SCHEMA,
        "lmp_cents_per_kwh": outcome.lmp,
        "network_charge_cents_per_kwh": config.params.m_cents_per_kwh,
        "signals": [{
            "der_id": sig.der_id,
            "side": sig.side,
            "classification": sig.classification,
            "price_cents_per_kwh": sig.price_cents_per_kwh,
            "quantity_kw": sig.quantity_kw,
            "stated_price_cents_per_kwh": population.by_id(sig.der_id).price,
            "cutoff_cents_per_kwh": float(cutoffs[sig.der_id]),
        } for sig in signals],
    }
    documents = {
        "ders.json": population_document(population, network),
        "solution_bids.json": solution_document(bins.sol_a, network, population),
        "solution_offers.json": solution_document(bins.sol_b, network, population),
        "solution_joint.json": solution_document(bins.sol_c, network, population),
        "outcome.json": outcome_doc,
        "retail.json": retail_doc,
    }

    if output_dir is not None:
        from . import __version__

        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, doc in documents.items():
            _write_json(out / name, doc)
        kw, kvar = network.total_fixed_load()
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "created_utc": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "package_version": __version__,
            "case": config.case,
            "n_buses": network.n + 1,
            "n_lines": network.n,
            "n_ders": population.n,
            "fixed_load_kw": kw,
            "fixed_load_kvar": kvar,
            "files": sorted(documents),
        }
        _write_json(out / "manifest.json", manifest)
        documents = dict(documents, **{"manifest.json": manifest})

    return ScenarioResult(network=network, population=population, bins=bins,
                          outcome=outcome, signals=signals,
                          violations=violations, documents=documents)


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_run_file(run_dir: Path, name: str) -> dict:
    path = run_dir / name
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"run directory is missing {name}") from None


def emit_plot_data(run_dir, out_dir=None) -> list[Path]:
    """Flatten a finished run directory into CSV files.

    Writes voltages.csv, nqp.csv, curves.csv, retail_compare.csv and
    returns their paths.
    """
    run_dir = Path(run_dir)
    out = Path(out_dir) if out_dir is not None else run_dir / "plotdata"
    out.mkdir(parents=True, exist_ok=True)
    outcome = _read_run_file(run_dir, "outcome.json")
    retail = _read_run_file(run_dir, "retail.json")
    written = []

    def table(name, header, rows):
        path = out / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        written.append(path)

    table("voltages.csv", ["bus", "phase", "v_pu"],
          [[r["bus"], r["phase"], r["v_pu"]]
           for r in outcome["final_state"]["voltages"]])

    table("nqp.csv",
          ["der_id", "side", "stated_price_cents_per_kwh",
           "cutoff_cents_per_kwh", "classification"],
          [[s["der_id"], s["side"], s["stated_price_cents_per_kwh"],
            s["cutoff_cents_per_kwh"], s["classification"]]
           for s in retail["signals"]])

    quotes = [IdsoQuote(der_id=q["der_id"], side=q["side"],
                        price_cents_per_kwh=q["price_cents_per_kwh"],
                        quantity_kw=q["quantity_kw"])
              for q in outcome["quotes"]]
    bid_curve, offer_curve = aggregate_curves(quotes)
    table("curves.csv", ["side", "price_cents_per_kwh", "quantity_kw",
                         "cumulative_kw"],
          [["bid", s.price, s.quantity_kw, s.cumulative_kw] for s in bid_curve]
          + [["offer", s.price, s.quantity_kw, s.cumulative_kw]
             for s in offer_curve])

    table("retail_compare.csv",
          ["der_id", "side", "classification", "stated_price_cents_per_kwh",
           "retail_price_cents_per_kwh", "quantity_kw"],
          [[s["der_id"], s["side"], s["classification"],
            s["stated_price_cents_per_kwh"], s["price_cents_per_kwh"],
            s["quantity_kw"]] for s in retail["signals"]])
    return written
