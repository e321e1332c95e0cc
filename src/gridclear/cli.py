"""Command line front end.

Subcommands: run a scenario end to end, sample a DER population, check a
dispatch against the network limits, and flatten a finished run into CSV
files.  Exit codes: 0 success, 2 bad document or configuration (a file
that cannot be read or parsed, a document of the wrong shape or schema,
or a bad value, in any file a subcommand reads), 3 no feasible operating
point (or a dispatch check that found violations), 4 internal failure.

`check -a` takes any JSON object with a `final_alpha` object, such as a
run's outcome.json; every key must be a DER id of the scenario and every
value a finite number.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ders import GenerationSpec, generate_population, population_document
from .errors import (
    ConfigError,
    DomainError,
    GridclearError,
    InfeasibleError,
    SchemaError,
    ShapeError,
    TopologyError,
    read_document,
    require_real,
)
from .network import load_network
from .pipeline import dispatch_check
from .scenario import (
    _write_json,
    emit_plot_data,
    load_population,
    load_scenario,
    run_scenario,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _cmd_run(args) -> int:
    config = load_scenario(args.config)
    out_dir = args.output_dir or config.output_dir or "gridclear-out"
    result = run_scenario(config, out_dir)
    o = result.outcome
    print(f"case {config.case}: lmp {o.lmp:.4f} c/kWh, "
          f"{len(o.cleared_bids)} bids and {len(o.cleared_offers)} offers cleared, "
          f"{len(o.cleared_mc)} settled ex post")
    print(f"scheduled net interchange {o.scheduled_net_interchange_kw:.3f} kW; "
          f"rectification: {o.rectification}")
    if result.violations:
        print(f"final dispatch violates {len(result.violations)} constraint(s)")
        for v in result.violations:
            print(f"  {_violation_line(v)}")
    else:
        print("final dispatch respects all network limits")
    print(f"artifacts in {Path(out_dir).resolve()}")
    return EXIT_OK


def _cmd_generate_ders(args) -> int:
    config = load_scenario(args.config)
    if not isinstance(config.ders, GenerationSpec):
        raise ConfigError("scenario does not use a generate spec for its DERs")
    network = load_network(config.feeder)
    population = generate_population(config.ders, network)
    doc = population_document(population, network)
    _write_json(Path(args.output), doc)
    print(f"wrote {len(doc['ders'])} DERs to {args.output}")
    return EXIT_OK


def _violation_line(v: dict) -> str:
    where = v.get("bus") or v.get("line") or "head"
    return (f"{v['kind']} at {where} phase {v['phase']}: "
            f"{v['value']:.5f} vs limit {v['limit']:.5f}")


def _cmd_check(args) -> int:
    config = load_scenario(args.config)
    network = load_network(config.feeder)
    population = load_population(config, network)
    alpha = read_document(args.alpha, None, "alpha").get("final_alpha")
    if not isinstance(alpha, dict):
        raise SchemaError("alpha file needs a final_alpha object")
    for der_id, value in alpha.items():
        if der_id not in population.column_of:
            raise SchemaError(f"final_alpha names no DER of the scenario: {der_id!r}")
        require_real(f"final_alpha[{der_id!r}]", value)
    report = dispatch_check(network, population, alpha, config.params)
    if not report:
        print("dispatch respects all network limits")
        return EXIT_OK
    for v in report:
        print(_violation_line(v))
    print(f"{len(report)} violation(s)")
    return EXIT_INFEASIBLE


def _cmd_plot_data(args) -> int:
    written = emit_plot_data(args.run_dir, args.output_dir)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridclear",
        description="Bid-based distribution market engine: acceptance solves, "
                    "wholesale clearing, ex-post repair, retail signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario interval and export artifacts")
    p.add_argument("-c", "--config", required=True, help="scenario JSON file")
    p.add_argument("-o", "--output-dir", help="overrides the scenario's output_dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("generate-ders",
                       help="sample the scenario's DER population and save it")
    p.add_argument("-c", "--config", required=True, help="scenario JSON file")
    p.add_argument("-o", "--output", required=True, help="destination ders JSON")
    p.set_defaults(func=_cmd_generate_ders)

    p = sub.add_parser("check",
                       help="check a dispatch against the feeder's limits")
    p.add_argument("-c", "--config", required=True, help="scenario JSON file")
    p.add_argument("-a", "--alpha", required=True,
                   help="outcome JSON (or any JSON object with a final_alpha map)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("plot-data",
                       help="flatten a finished run directory into CSV files")
    p.add_argument("-r", "--run-dir", required=True)
    p.add_argument("-o", "--output-dir", help="defaults to <run-dir>/plotdata")
    p.set_defaults(func=_cmd_plot_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError, TopologyError, ShapeError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InfeasibleError as exc:
        hint = f" (suspect: {', '.join(exc.hint)})" if exc.hint else ""
        print(f"infeasible: {exc}{hint}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except GridclearError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - last resort
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
