"""Spans recorded from outside the program, and the per-layer numbers.

A traced interval makes the same public calls `run_scenario` makes for
case C, each inside a span named `<module>.<function>`.  The LP work
happens inside `build_bins` and `expost_rectify`, where no span can reach
without instrumenting the program, so after the interval a `reissue`
span repeats those solves with the same clamps (`tdopf.assemble.<tag>`,
`tdopf.solve.<tag>`, `tdopf.kkt_residuals`) and checks that they
reproduce the returned objectives and dispatch.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import gridclear as gc

import gate

EXPOST_TOL = 1e-9


class Tracer:
    """In-memory spans: name, start, end, parent span id and interval id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, interval: int):
        rec = {"id": len(self.spans), "name": name, "interval": interval,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, interval: int, fn, *args, **kwargs):
        with self.span(name, interval):
            return fn(*args, **kwargs)

    def write(self, path: Path, meta: dict) -> None:
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}))


def _write_documents(out_dir: Path, documents: dict) -> int:
    written = 0
    for name, doc in documents.items():
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        (out_dir / name).write_text(text)
        written += len(text.encode())
    return written


def traced_interval(tr: Tracer, iv: int, config: gc.ScenarioConfig,
                    out_dir: Path) -> dict:
    """One case-C interval as `run_scenario` runs it, one span per call.

    The outcome and retail documents are assembled by private code inside
    `run_scenario` and are not rebuilt here; the export span covers the
    solution and DER documents and their JSON writes.
    """
    if config.case != "C":
        raise ValueError("the traced interval reproduces case C only")
    with tr.span("interval", iv) as root:
        net = tr.call("network.load_network", iv, gc.load_network, config.feeder)
        pop = tr.call("ders.load_ders", iv, gc.load_ders, config.ders, net)
        bins = tr.call("pipeline.build_bins", iv, gc.build_bins, net, pop,
                       config.params)
        quotes = tr.call("pipeline.make_quotes", iv, gc.make_quotes, bins)
        cleared = tr.call("pipeline.wpm_clear", iv, gc.wpm_clear, quotes,
                          config.lmp_source, bins.alpha_a, bins.alpha_b)
        outcome = tr.call("pipeline.expost_rectify", iv, gc.expost_rectify,
                          bins, cleared)
        cutoffs = tr.call("retail.qualification_prices", iv,
                          gc.qualification_prices, bins)
        tr.call("retail.retail_signals", iv, gc.retail_signals, bins, outcome,
                cutoffs)
        violations = tr.call("pipeline.dispatch_check", iv, gc.dispatch_check,
                             net, pop, outcome.final_alpha, config.params)
        tr.call("network.evaluate_dispatch", iv, gc.evaluate_dispatch, net, pop,
                outcome.final_alpha)
        with tr.span("scenario.export", iv) as export:
            documents = {
                "ders.json": gc.population_document(pop, net),
                "solution_bids.json": gc.solution_document(bins.sol_a, net, pop),
                "solution_offers.json": gc.solution_document(bins.sol_b, net, pop),
                "solution_joint.json": gc.solution_document(bins.sol_c, net, pop),
            }
            export["bytes"] = _write_documents(out_dir, documents)
    root["withheld"] = len(gc.mc_ids(bins))
    root["quotes"] = len(quotes)
    root["ders"] = pop.n
    root["rectification"] = outcome.rectification
    return {"network": net, "population": pop, "bins": bins,
            "outcome": outcome, "violations": violations}


def reissue(tr: Tracer, iv: int, params: gc.TdopfParams, interval: dict
            ) -> tuple[dict, list[str]]:
    """Repeat the interval's LP work in spans; return the bin residuals and
    any mismatch with what the interval returned."""
    net, pop = interval["network"], interval["population"]
    bins, outcome = interval["bins"], interval["outcome"]
    sols = gate.bin_solutions(bins)
    residuals, failures = {}, []
    with tr.span("reissue", iv) as root:
        tr.call("network.build_matrices", iv, gc.build_matrices, net)
        for tag, clamp in gate.bin_clamps(pop).items():
            problem = tr.call(f"tdopf.assemble.{tag}", iv, gc.assemble, net,
                              pop, params, clamp=clamp)
            sol = tr.call(f"tdopf.solve.{tag}", iv, gc.solve, problem)
            if sol.objective_cents != sols[tag].objective_cents:
                failures.append(f"re-issued bin {tag} objective "
                                f"{sol.objective_cents!r} != "
                                f"{sols[tag].objective_cents!r}")
            residuals[tag] = tr.call("tdopf.kkt_residuals", iv,
                                     gc.kkt_residuals, problem, sols[tag])
            if tag == "c":
                root.update(gate.lp_dimensions(problem))
            del problem
        expost = gate.expost_problem_inputs(bins, outcome)
        if expost is not None:
            clamp, viable = expost
            problem = tr.call("tdopf.assemble.expost", iv, gc.assemble, net,
                              pop, params, clamp=clamp, zero_net_volume=viable)
            sol = tr.call("tdopf.solve.expost", iv, gc.solve, problem)
            drift = max(abs(sol.alpha[k] - outcome.final_alpha[k])
                        for k in sol.alpha) if sol.status == "optimal" else None
            if drift is None or drift > EXPOST_TOL:
                failures.append(f"re-issued ex-post LP does not reproduce the "
                                f"dispatch ({sol.status}, drift {drift})")
    return residuals, failures


LAYER_SPANS = (
    "network.load_network", "network.build_matrices", "network.evaluate_dispatch",
    "ders.load_ders",
    "tdopf.assemble.a", "tdopf.assemble.b", "tdopf.assemble.c",
    "tdopf.assemble.expost",
    "tdopf.solve.a", "tdopf.solve.b", "tdopf.solve.c", "tdopf.solve.expost",
    "tdopf.kkt_residuals",
    "pipeline.build_bins", "pipeline.make_quotes", "pipeline.wpm_clear",
    "pipeline.expost_rectify", "pipeline.dispatch_check",
    "retail.qualification_prices", "retail.retail_signals",
    "scenario.export",
)


def _metric_name(span: str) -> str:
    """`tdopf.solve.a` -> `tdopf.solve_s.a`; `pipeline.wpm_clear` -> `..._s`."""
    parts = span.split(".")
    if parts[0] == "tdopf" and len(parts) == 3:
        return f"tdopf.{parts[1]}_s.{parts[2]}"
    return f"{span}_s"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _child_time(spans: list[dict]) -> dict:
    """Span id -> summed duration of its direct children."""
    out: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] = out.get(s["parent"], 0.0) + _dur(s)
    return out


def per_layer(spans: list[dict], untraced_p50: float, failed: int,
              attempted: int) -> dict:
    """Per-layer metrics from a finished trace, as {name: (value, unit)}.

    A layer never called in the run (the ex-post LP when nothing was
    withheld) reads 0.0 s.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {_metric_name(n): (_median([_dur(s) for s in by_name.get(n, [])]), "s")
           for n in LAYER_SPANS}

    roots = by_name.get("interval", [])
    reissues = by_name.get("reissue", [])
    bins_lp: dict[int, float] = {}
    for s in spans:
        if s["name"].startswith(("tdopf.assemble.", "tdopf.solve.")) \
                and not s["name"].endswith("expost"):
            bins_lp[s["interval"]] = bins_lp.get(s["interval"], 0.0) + _dur(s)
    bins_self = [_dur(s) - bins_lp.get(s["interval"], 0.0)
                 for s in by_name.get("pipeline.build_bins", [])]
    out["pipeline.build_bins_self_s"] = (_median(bins_self), "s")

    for key in ("lp_rows", "lp_cols", "lp_nnz"):
        out[f"tdopf.{key}"] = (_median([r[key] for r in reissues]), "count")
    out["tdopf.lp_dense_mb"] = (_median([r["lp_dense_mb"] for r in reissues]), "MB")

    ders = sum(r["ders"] for r in roots)
    attempts = sum(r["rectification"] != "none" for r in roots)
    applied = sum(r["rectification"] == "applied" for r in roots)
    out["pipeline.withheld_count"] = (_median([r["withheld"] for r in roots]), "count")
    out["pipeline.der_count"] = (_median([r["ders"] for r in roots]), "count")
    out["pipeline.quoted_fraction"] = (
        sum(r["quotes"] for r in roots) / ders if ders else 0.0, "ratio")
    out["pipeline.expost_attempts"] = (float(attempts), "count")
    out["pipeline.expost_applied_fraction"] = (
        applied / attempts if attempts else 0.0, "ratio")

    out["scenario.export_bytes"] = (
        _median([s["bytes"] for s in by_name.get("scenario.export", [])]), "bytes")
    out["trace.intervals"] = (float(len(roots)), "count")
    children = _child_time(spans)
    out["trace.unaccounted_s"] = (
        _median([_dur(r) - children.get(r["id"], 0.0) for r in roots]), "s")
    out["trace.overhead_s"] = (_median([_dur(r) for r in roots]) - untraced_p50, "s")
    out["gate.failed_fraction"] = (failed / attempted if attempted else 0.0, "ratio")
    return out


def self_time_table(spans: list[dict]) -> str:
    """Per-layer self time, summed over the traced intervals."""
    child_time = _child_time(spans)
    rows: dict[str, list] = {}
    for s in spans:
        row = rows.setdefault(s["name"], [0, 0.0, 0.0, []])
        row[0] += 1
        row[1] += _dur(s)
        row[2] += _dur(s) - child_time.get(s["id"], 0.0)
        row[3].append(_dur(s))
    interval_total = rows.get("interval", [0, 0.0])[1] or 1.0
    lines = [f"{'span':34s} {'calls':>5s} {'median_s':>10s} {'self_s':>10s} "
             f"{'self/interval':>13s}"]
    for name, (calls, _, self_s, durs) in sorted(rows.items(),
                                                 key=lambda kv: -kv[1][2]):
        lines.append(f"{name:34s} {calls:5d} {statistics.median(durs):10.4f} "
                     f"{self_s:10.4f} {self_s / interval_total:13.1%}")
    return "\n".join(lines)
