#!/usr/bin/env python3
"""Compare the exports of two commits field by field, with a stated bound.

    python3 tools/export_diff.py write OUT      # exports of the 36 digest runs
    python3 tools/export_diff.py compare A B    # A and B written by `write`

`write` runs the 36 runs of tools/digest_runs.py and exports each under
`OUT/<workload>/<seed>/<case>/`.  `compare` walks every exported JSON
document of A and B side by side.  A field is a file name and the path of
keys inside it, with list positions written `[]` and DER ids in acceptance
maps written `{}`, so `solution_joint.json flows[].p_kw` gathers every flow
of every run.  It prints, per field, the largest absolute difference, the
largest relative one (|a - b| / max(1, |a|, |b|)) and the run where that
sits, then every difference that is not between two numbers: a string, a
key, a list length, a file or a run that is not the same.  The manifest's
timestamp is not compared.

Primal fields are acceptances (the DER-id maps), flows and head powers
(`p_kw`, `q_kvar`, `head_kw`, `head_kvar`), voltages (`v_pu`), quantities
(`quantity_kw`, `scheduled_net_interchange_kw`) and objectives
(`objective_cents`), and whatever lies under one of these keys.  `compare` exits 1 when
a non-numeric difference exists or a primal field moves by more than
PRIMAL_RTOL relative, else 0.  Duals, cutoffs and prices are reported but
not bounded: where an LP is dual-degenerate they may move between optimal
duals without any primal field moving.
"""

from __future__ import annotations

import argparse
import json
import sys
from numbers import Real
from pathlib import Path

PRIMAL_RTOL = 1e-9

ACCEPTANCE_MAPS = frozenset({"alpha", "final_alpha", "cleared_bids",
                             "cleared_offers", "cleared_mc"})
PRIMAL_KEYS = frozenset({"p_kw", "q_kvar", "head_kw", "head_kvar", "v_pu",
                         "quantity_kw", "scheduled_net_interchange_kw",
                         "objective_cents"})
IGNORED = {("manifest.json", "created_utc")}


def write(out: Path) -> None:
    """Export every digest run under `out`."""
    from digest_runs import runs  # pins BLAS and sets sys.path before numpy loads

    import gridclear as gc

    for tag, config in runs():
        gc.run_scenario(config, out / tag)


def is_primal(field: str) -> bool:
    keys = field.replace("[]", "").split(".")
    return not PRIMAL_KEYS.isdisjoint(keys) or (len(keys) > 1 and keys[-2] in ACCEPTANCE_MAPS)


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


class Comparison:
    """Largest differences per (file, field) and every non-numeric one."""

    def __init__(self):
        self.largest = {}  # (file, field) -> (abs, rel, run)
        self.other = []  # readable lines

    def walk(self, run: str, name: str, field: str, a, b) -> None:
        """Compare `a` and `b`, found at `field` of file `name` in `run`."""
        where = f"{run}/{name} {field or '(root)'}"
        if _is_number(a) and _is_number(b):
            diff = abs(float(a) - float(b))
            rel = diff / max(1.0, abs(float(a)), abs(float(b)))
            old = self.largest.get((name, field))
            if old is None or diff > old[0]:
                self.largest[(name, field)] = (diff, max(rel, old[1] if old else 0.0), run)
            elif rel > old[1]:
                self.largest[(name, field)] = (old[0], rel, old[2])
        elif isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.other.append(f"{where}: keys differ")
                return
            generic = field.rsplit(".", 1)[-1] in ACCEPTANCE_MAPS
            for key in a:
                if (name, key) in IGNORED and not field:
                    continue
                sub = "{}" if generic else key
                self.walk(run, name, f"{field}.{sub}" if field else sub, a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.other.append(f"{where}: lengths {len(a)} != {len(b)}")
                return
            for x, y in zip(a, b):
                self.walk(run, name, f"{field}[]", x, y)
        elif a != b or type(a) is not type(b):
            self.other.append(f"{where}: {a!r} != {b!r}")

    def failed(self) -> bool:
        return bool(self.other) or any(
            rel > PRIMAL_RTOL for (_, field), (_, rel, _) in self.largest.items()
            if is_primal(field))

    def report(self) -> list[str]:
        lines = [f"{'max_abs':>10s} {'max_rel':>10s}  field (run of the largest)"]
        for (name, field), (diff, rel, run) in sorted(self.largest.items()):
            mark = "  primal" if is_primal(field) else ""
            over = "  OVER BOUND" if mark and rel > PRIMAL_RTOL else ""
            lines.append(f"{diff:10.3e} {rel:10.3e}  {name} {field} ({run}){mark}{over}")
        lines.extend(f"non-numeric: {line}" for line in self.other)
        return lines


def compare(a: Path, b: Path) -> Comparison:
    """Compare every run directory and JSON file under `a` and `b`."""
    result = Comparison()

    def runs(root: Path) -> set:
        return {p.parent.relative_to(root).as_posix() for p in root.rglob("*.json")}

    runs_a, runs_b = runs(a), runs(b)
    for run in sorted(runs_a ^ runs_b):
        result.other.append(f"{run}: only under {a if run in runs_a else b}")
    for run in sorted(runs_a & runs_b):
        files_a = {p.name for p in (a / run).glob("*.json")}
        files_b = {p.name for p in (b / run).glob("*.json")}
        for name in sorted(files_a ^ files_b):
            result.other.append(f"{run}/{name}: only under {a if name in files_a else b}")
        for name in sorted(files_a & files_b):
            docs = [json.loads((root / run / name).read_text()) for root in (a, b)]
            result.walk(run, name, "", *docs)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("write", help="export the digest runs").add_argument("out", type=Path)
    cmp = sub.add_parser("compare", help="compare two trees written by `write`")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out)
        return 0
    result = compare(args.a, args.b)
    print("\n".join(result.report()))
    return 1 if result.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
