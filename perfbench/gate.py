"""Output checks behind `failed_fraction`: an interval fails when any holds.

- `dispatch_check` reports a violated voltage, line or head limit;
- the settled ex-post block carries net volume (criterion 06);
- the head draw moved by something other than the scheduled interchange
  (criterion 06);
- a scaled optimality residual of a bin solve exceeds 1e-6 (criterion 03).

Per run there are two more: one interval re-run must export byte-identical
documents apart from the manifest timestamp (criterion 10), and the bin
objectives of the reference interval must equal `reference.json`.
Optimal objectives are unique even where the optimal vertex is not, so the
last check holds across reformulations of the LP.
"""

from __future__ import annotations

import json
from pathlib import Path

import gridclear as gc

VOLUME_TOL_PU = 1e-6  # criterion 06
KKT_TOL = 1e-6  # criterion 03
OBJECTIVE_RTOL = 1e-7

REFERENCE = Path(__file__).resolve().with_name("reference.json")


def bin_clamps(population: gc.DerPopulation) -> dict:
    """The clamps `build_bins` gives its bids-only, offers-only and joint solves."""
    return {
        "a": {d.id: 0.0 for d in population.ders if d.side == "offer"},
        "b": {d.id: 0.0 for d in population.ders if d.side == "bid"},
        "c": None,
    }


def bin_solutions(bins: gc.Bins) -> dict:
    return {"a": bins.sol_a, "b": bins.sol_b, "c": bins.sol_c}


def expost_problem_inputs(bins: gc.Bins, outcome: gc.WpmOutcome):
    """Clamp and coupled block of the ex-post LP that `expost_rectify` solved,
    or None when it solved none."""
    viable = tuple(outcome.mc_candidates)
    if not viable or outcome.rectification != "applied":
        return None
    clamp = {}
    for d in bins.population.ders:
        if d.id in viable:
            continue
        if d.id in outcome.cleared_bids:
            clamp[d.id] = bins.alpha_a[d.id]
        elif d.id in outcome.cleared_offers:
            clamp[d.id] = bins.alpha_b[d.id]
        else:
            clamp[d.id] = 0.0
    return clamp, viable


def lp_dimensions(problem: gc.TdopfProblem) -> dict:
    """Rows, columns, nonzeros and computed dense bytes of an assembled LP."""
    a_ub, a_eq = problem.a_ub, problem.a_eq
    return {
        "lp_rows": int(a_ub.shape[0] + a_eq.shape[0]),
        "lp_cols": int(len(problem.c)),
        "lp_nnz": int((a_ub != 0).sum() + (a_eq != 0).sum()),
        "lp_dense_mb": (a_ub.nbytes + a_eq.nbytes) / 1e6,
    }


def bin_residuals(network, population, params, bins) -> tuple[dict, dict]:
    """Optimality residuals of the three bin solves, plus the joint LP's size.

    Each LP is re-assembled with the clamps `build_bins` used and dropped
    before the next, so the check never holds more than one dense LP.
    """
    residuals, dims = {}, {}
    sols = bin_solutions(bins)
    for tag, clamp in bin_clamps(population).items():
        problem = gc.assemble(network, population, params, clamp=clamp)
        residuals[tag] = gc.kkt_residuals(problem, sols[tag])
        if tag == "c":
            dims = lp_dimensions(problem)
        del problem
    return residuals, dims


def check_interval(network, population, bins, outcome, violations,
                   residuals: dict) -> list[str]:
    """Every failed output check of one interval, as readable strings."""
    failures = []
    if violations:
        kinds = sorted({v["kind"] for v in violations})
        failures.append(f"dispatch_check: {len(violations)} violation(s) "
                        f"({', '.join(kinds)})")

    s_base = network.s_base_kva
    volume = {d.id: d.volume_kw for d in population.ders}
    block = abs(sum(outcome.final_alpha[i] * volume[i]
                    for i in outcome.mc_candidates)) / s_base
    if block > VOLUME_TOL_PU:
        failures.append(f"ex-post block volume {block:.3e} p.u. > {VOLUME_TOL_PU}")

    base = gc.evaluate_dispatch(network, population, {})
    after = gc.evaluate_dispatch(network, population, outcome.final_alpha)
    head_shift = after["p0"].sum() - base["p0"].sum()
    mismatch = abs(head_shift - outcome.scheduled_net_interchange_kw / s_base)
    if mismatch > VOLUME_TOL_PU:
        failures.append(f"head vs scheduled interchange {mismatch:.3e} p.u. "
                        f"> {VOLUME_TOL_PU}")

    for tag, res in residuals.items():
        worst = max(res.values())
        if worst > KKT_TOL:
            name = max(res, key=res.get)
            failures.append(f"kkt_residuals[{tag}].{name} = {worst:.3e} > {KKT_TOL}")
    return failures


def bin_objectives(bins: gc.Bins) -> dict:
    return {tag: sol.objective_cents for tag, sol in bin_solutions(bins).items()}


def check_reference_objectives(workload: str, bins: gc.Bins) -> list[str]:
    """Compare the reference interval's bin objectives with the recorded ones."""
    recorded = json.loads(REFERENCE.read_text())[workload]["bin_objectives_cents"]
    failures = []
    for tag, got in bin_objectives(bins).items():
        want = recorded[tag]
        if abs(got - want) > OBJECTIVE_RTOL * max(1.0, abs(want)):
            failures.append(f"bin {tag} objective {got!r} != recorded {want!r}")
    return failures


def compare_exports(dir1: Path, dir2: Path) -> list[str]:
    """Files that differ between two exports of the same interval; the
    manifest is compared without its timestamp."""
    names = sorted(p.name for p in dir1.iterdir())
    if names != sorted(p.name for p in dir2.iterdir()):
        return ["export file sets differ"]
    diffs = []
    for name in names:
        if name == "manifest.json":
            m1, m2 = (json.loads((d / name).read_text()) for d in (dir1, dir2))
            m1.pop("created_utc"), m2.pop("created_utc")
            same = m1 == m2
        else:
            same = (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
        if not same:
            diffs.append(f"re-run export {name} differs")
    return diffs
