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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .ders import (
    DERS_SCHEMA,
    DerPopulation,
    GenerationSpec,
    generate_population,
    load_ders,
    population_document,
)
from .errors import ConfigError, SchemaError, read_document, require_real
from .network import FEEDER_SCHEMA, Network, load_network, voltage_rows
from .pipeline import (
    AffineLmp,
    IdsoQuote,
    _violations,
    aggregate_curves,
    build_bins,
    evaluate_dispatch,
    expost_rectify,
    make_quotes,
    mc_ids,
    naive_quotes,
    qualification_prices,
    settled_alpha,
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
    return read_document(path, FEEDER_SCHEMA, f"bundled feeder {name!r}")


def load_scenario(source, base_dir=None) -> ScenarioConfig:
    """Read a scenario document from a path or a dict.

    Feeder and DER entries are inline documents or paths; relative paths
    resolve against the scenario file's directory (or `base_dir`, by
    default the working directory, for a dict).  Every document is read
    by `read_document`: ConfigError when a file cannot be read or parsed,
    SchemaError when a document is not an object or carries the wrong
    schema tag, except a wrong scenario tag, which is a ConfigError.
    """
    if isinstance(source, (str, Path)):
        base = Path(source).resolve().parent
    else:
        base = Path(base_dir) if base_dir is not None else Path.cwd()
    doc = read_document(source, None, "scenario")
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise ConfigError(f"expected schema {SCENARIO_SCHEMA!r}")

    feeder_entry = doc.get("feeder")
    if isinstance(feeder_entry, dict) and "bundled" in feeder_entry:
        feeder = bundled_feeder(str(feeder_entry["bundled"]))
    else:
        feeder = read_document(feeder_entry, FEEDER_SCHEMA, "feeder", base)

    ders_entry = doc.get("ders")
    if isinstance(ders_entry, dict) and "generate" in ders_entry:
        try:
            ders = GenerationSpec(**ders_entry["generate"])
        except TypeError as exc:
            raise ConfigError(f"bad generate spec: {exc}") from None
    else:
        ders = read_document(ders_entry, DERS_SCHEMA, "ders", base)

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
    else:
        lmp_source = require_real("market.lmp", lmp_entry)

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


def load_population(config: ScenarioConfig, network: Network) -> DerPopulation:
    """The scenario's DER population on `network`: sampled or loaded."""
    if isinstance(config.ders, GenerationSpec):
        return generate_population(config.ders, network)
    return load_ders(config.ders, network)


def _phase_dict(vec, s_base) -> dict:
    return {ph: float(vec[i] * s_base) for i, ph in enumerate("abc")}


def run_scenario(config: ScenarioConfig, output_dir=None) -> ScenarioResult:
    """Execute one interval and optionally export its artifacts.

    The export set: manifest.json (the only file with a timestamp),
    ders.json, solution_bids.json / solution_offers.json /
    solution_joint.json, outcome.json, retail.json.
    """
    network = load_network(config.feeder)
    population = load_population(config, network)
    if config.case == "A":
        population = DerPopulation.from_ders(population.subset("bid"), network)
    elif config.case == "B":
        population = DerPopulation.from_ders(population.subset("offer"), network)

    bins = build_bins(network, population, config.params)
    if config.case in _NAIVE_CASES:
        quotes = naive_quotes(bins)
        cleared = wpm_clear(quotes, config.lmp_source, bins.alpha_c)
        outcome = replace(cleared, final_alpha=settled_alpha(population, cleared),
                          rectification="naive")
    else:
        quotes = make_quotes(bins)
        cleared = wpm_clear(quotes, config.lmp_source, bins.alpha_a, bins.alpha_b)
        outcome = expost_rectify(bins, cleared)
    cutoffs = qualification_prices(bins)
    signals = retail_signals(bins, outcome, cutoffs)
    state = evaluate_dispatch(network, population, outcome.final_alpha)
    violations = _violations(network, state, config.params)
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

        out = _output_dir(output_dir)
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


def _output_dir(path) -> Path:
    """`path` as a directory, created if missing; ConfigError if it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror or exc}") from None
    return out


def _write_json(path: Path, obj) -> None:
    """Write `obj` to `path` as `json.dumps(obj, indent=2, sort_keys=True)`
    plus a newline, byte for byte; see `_json_text`.

    The text is built before the file is opened, so a document that cannot
    be encoded raises (TypeError, ValueError) and leaves no file behind.
    ConfigError if the file cannot be written.
    """
    text = _json_text(obj) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


_INDENT = "  "


@lru_cache(maxsize=None)
def _flat_encoder(newline: str) -> json.JSONEncoder:
    """CPython's C encoder, with `newline` (a line break and an indent)
    after each item separator."""
    return json.JSONEncoder(sort_keys=True, separators=("," + newline, ": "))


def _all_of(values, types) -> bool:
    """Whether every one of `values` is an instance of `types`."""
    return all(issubclass(t, types) for t in set(map(type, values)))


def _scalars(values) -> bool:
    """Whether every one of `values` is a JSON scalar: str, int (bool
    too), float or None."""
    return _all_of(values, (str, int, float, type(None)))


def _json_text(obj, newline: str = "\n", _on_path: frozenset = frozenset()) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, for `obj`
    nested where `newline` (a line break and that depth's indent) starts
    each of its lines.

    The stdlib writes any indented document on its pure-Python path.  Here
    a list or a str-keyed dict of scalars is one call of the C encoder
    with `newline` plus one indent as its item separator, wrapped in its
    brackets.  A list of non-empty str-keyed dicts of scalars is one call
    too, with the record boundaries `},<separator>{` re-indented by one
    `str.replace`: the encoder escapes every control character inside a
    string, so a raw line break only ever follows a separator, and only
    a record boundary puts `{` after one.  Other containers recurse, and a
    dict with a key that is not a str is left to the stdlib and
    re-indented.  A scalar, or an object JSON has no form for (TypeError),
    goes to the C encoder alone.  `_on_path` holds the ids of the
    containers that enclose `obj`: meeting one again means the document
    contains itself, which raises ValueError as the stdlib does.
    """
    if isinstance(obj, dict) and not _all_of(obj, str):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", newline)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return _flat_encoder(newline).encode(obj)
    inner = newline + _INDENT
    values = obj.values() if isinstance(obj, dict) else obj
    if _scalars(values):
        flat = _flat_encoder(inner).encode(obj)
        return flat[0] + inner + flat[1:-1] + newline + flat[-1]
    if id(obj) in _on_path:
        raise ValueError("Circular reference detected")
    on_path = _on_path | {id(obj)}
    if isinstance(obj, dict):
        body = ("," + inner).join(f"{encode_basestring_ascii(key)}: "
                                  f"{_json_text(obj[key], inner, on_path)}"
                                  for key in sorted(obj))
        return "{" + inner + body + newline + "}"
    if (_all_of(obj, dict) and all(obj) and _all_of(chain.from_iterable(obj), str)
            and _scalars(chain.from_iterable(map(dict.values, obj)))):
        record = inner + _INDENT
        flat = _flat_encoder(record).encode(obj)
        body = flat[2:-2].replace("}," + record + "{",
                                  inner + "}," + inner + "{" + record)
        return "[" + inner + "{" + record + body + inner + "}" + newline + "]"
    return "[" + inner + ("," + inner).join(_json_text(v, inner, on_path) for v in obj) \
        + newline + "]"


@contextmanager
def _fields_of(what: str, path: Path):
    """Turn a missing or mistyped field of the run file `path` into a
    SchemaError."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{what} file {path} has a missing or mistyped "
                          f"field: {exc!r}") from None


def emit_plot_data(run_dir, out_dir=None) -> list[Path]:
    """Flatten a finished run directory into CSV files.

    Writes voltages.csv, nqp.csv, curves.csv, retail_compare.csv and
    returns their paths.  outcome.json and retail.json are read by
    `read_document` and must carry their schema tags; a field the tables
    need that is missing or of the wrong type is a SchemaError, raised
    before anything is written.
    """
    run_dir = Path(run_dir)
    outcome_path, retail_path = run_dir / "outcome.json", run_dir / "retail.json"
    outcome = read_document(outcome_path, OUTCOME_SCHEMA, "outcome")
    retail = read_document(retail_path, RETAIL_SCHEMA, "retail")

    with _fields_of("outcome", outcome_path):
        voltages = [[r["bus"], r["phase"], r["v_pu"]]
                    for r in outcome["final_state"]["voltages"]]
        quotes = [IdsoQuote(der_id=q["der_id"], side=q["side"],
                            price_cents_per_kwh=q["price_cents_per_kwh"],
                            quantity_kw=q["quantity_kw"])
                  for q in outcome["quotes"]]
        bid_curve, offer_curve = aggregate_curves(quotes)
        curves = ([["bid", s.price, s.quantity_kw, s.cumulative_kw] for s in bid_curve]
                  + [["offer", s.price, s.quantity_kw, s.cumulative_kw]
                     for s in offer_curve])
    with _fields_of("retail", retail_path):
        nqp = [[s["der_id"], s["side"], s["stated_price_cents_per_kwh"],
                s["cutoff_cents_per_kwh"], s["classification"]]
               for s in retail["signals"]]
        retail_compare = [[s["der_id"], s["side"], s["classification"],
                           s["stated_price_cents_per_kwh"], s["price_cents_per_kwh"],
                           s["quantity_kw"]] for s in retail["signals"]]

    tables = {
        "voltages.csv": (["bus", "phase", "v_pu"], voltages),
        "nqp.csv": (["der_id", "side", "stated_price_cents_per_kwh",
                     "cutoff_cents_per_kwh", "classification"], nqp),
        "curves.csv": (["side", "price_cents_per_kwh", "quantity_kw",
                        "cumulative_kw"], curves),
        "retail_compare.csv": (["der_id", "side", "classification",
                                "stated_price_cents_per_kwh",
                                "retail_price_cents_per_kwh", "quantity_kw"],
                               retail_compare),
    }
    out = _output_dir(out_dir if out_dir is not None else run_dir / "plotdata")
    written = []
    for name, (header, rows) in tables.items():
        path = out / name
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        written.append(path)
    return written
