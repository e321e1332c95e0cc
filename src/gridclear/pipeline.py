"""Market pipeline: side bins, quotes, wholesale clearing, ex-post repair.

The aggregator runs three acceptance solves per interval: a bids-only bin,
an offers-only bin, and a joint bin.  A DER whose acceptance moves between
its own side's bin and the joint bin is mutually contingent: it is only
grid-feasible in the company of counterparties on the other side.  Such
DERs are withheld from the wholesale quotes and settled after the
wholesale price is known, as a zero-net-volume block that leaves the
scheduled interchange untouched.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .ders import Der, DerPopulation
from .errors import DomainError, InfeasibleError, InternalError, require_real
from .network import (
    PHASES,
    Network,
    flows_from_injections,
    head_injection,
    lindistflow_voltages,
)
from .tdopf import (
    TdopfParams,
    TdopfProblem,
    TdopfSolution,
    assemble,
    clamped,
    qualification_price,
    solve,
)

logger = logging.getLogger("gridclear")

# below this an acceptance fraction counts as zero
ALPHA_TOL = 1e-6
PRICE_TOL = 1e-9
# how far past a limit a dispatch may sit before dispatch_check reports it
DISPATCH_TOL = 1e-7


@dataclass(frozen=True)
class Bins:
    """The three per-interval acceptance solves and what moved between them.

    alpha_a / alpha_b / alpha_c map every DER id to its acceptance in the
    bids-only, offers-only, and joint bins.  problem is the interval's one
    assembled LP, the joint bin's; the side bins and the ex-post LP are
    `clamped` from it.
    """

    network: Network
    population: DerPopulation
    params: TdopfParams
    problem: TdopfProblem
    sol_a: TdopfSolution
    sol_b: TdopfSolution
    sol_c: TdopfSolution
    alpha_a: dict
    alpha_b: dict
    alpha_c: dict

    def own_bin(self, der: Der) -> TdopfSolution:
        """The bin of the DER's own side: bids-only for bids, offers-only
        for offers."""
        return self.sol_a if der.side == "bid" else self.sol_b

    @cached_property
    def alpha_mc(self) -> dict:
        """Joint-bin acceptance of each DER whose value moved relative to
        its own side's bin."""
        return {d.id: self.alpha_c[d.id] for d in self.population.ders
                if abs(self.alpha_c[d.id] - self.own_bin(d).alpha[d.id]) > ALPHA_TOL}


@dataclass(frozen=True)
class IdsoQuote:
    """One aggregated quote forwarded to the wholesale market.

    Quantities are signed accepted volumes in kW (bids negative); prices
    have the network charge already netted out of the DER's stated price.
    """

    der_id: str
    side: str
    price_cents_per_kwh: float
    quantity_kw: float


@dataclass(frozen=True)
class CurveStep:
    """One step of an aggregate curve; quantities are positive kW."""

    price: float
    quantity_kw: float
    cumulative_kw: float


@dataclass(frozen=True)
class AffineLmp:
    """Wholesale price as an affine function of feeder net demand.

    lmp = intercept + slope * q, with q the feeder's net wholesale demand
    in kW: base_load_kw plus cleared bid volume minus cleared offer volume.
    """

    intercept: float
    slope: float
    base_load_kw: float = 0.0

    def __post_init__(self):
        require_real("market.lmp.intercept", self.intercept)
        require_real("market.lmp.slope", self.slope)
        require_real("market.lmp.base_load_kw", self.base_load_kw)
        if self.slope < 0:
            raise DomainError(f"market.lmp.slope must be >= 0 (an increasing "
                              f"supply line), got {self.slope!r}")


@dataclass(frozen=True)
class WpmOutcome:
    """Wholesale clearing result, later augmented by the ex-post pass.

    cleared_bids / cleared_offers map cleared DER ids to the acceptance
    fraction their quote was built from.  mc_candidates are the withheld
    mutually contingent DERs that survive the price-viability filter;
    cleared_mc maps those that end with nonzero acceptance to it.
    final_alpha maps every DER id to the dispatched acceptance fraction.
    """

    lmp: float
    cleared_bids: dict
    cleared_offers: dict
    scheduled_net_interchange_kw: float
    mc_candidates: tuple = ()
    cleared_mc: dict = field(default_factory=dict)
    final_alpha: dict = field(default_factory=dict)
    rectification: str = "pending"


def _require_optimal(solution: TdopfSolution, tag: str) -> TdopfSolution:
    if solution.status == "optimal":
        return solution
    if solution.status == "infeasible":
        raise InfeasibleError(f"{tag} acceptance solve is infeasible",
                              hint=solution.infeasibility_hint)
    raise InternalError(f"{tag} acceptance solve ended {solution.status}: "
                        f"{solution.message}")


def build_bins(network: Network, population: DerPopulation,
               params: TdopfParams) -> Bins:
    """Run the bids-only, offers-only, and joint acceptance solves.

    The joint LP is assembled once; each side bin clamps the other side's
    DERs to zero in it.  A side bin that clamps nothing, because the other
    side has no DERs, is the joint LP, and its solution serves as the
    joint bin's.
    """
    joint = assemble(network, population, params)
    offers_out = {d.id: 0.0 for d in population.ders if d.side == "offer"}
    bids_out = {d.id: 0.0 for d in population.ders if d.side == "bid"}
    sol_a = _require_optimal(solve(clamped(joint, offers_out)), "bids-only")
    sol_b = _require_optimal(solve(clamped(joint, bids_out)), "offers-only")
    sol_c = _require_optimal(sol_a if not offers_out else sol_b if not bids_out
                             else solve(joint), "joint")
    return Bins(network=network, population=population, params=params,
                problem=joint, sol_a=sol_a, sol_b=sol_b, sol_c=sol_c,
                alpha_a=dict(sol_a.alpha), alpha_b=dict(sol_b.alpha),
                alpha_c=dict(sol_c.alpha))


def mc_ids(bins: Bins) -> tuple:
    """Ids withheld from quoting: moved between bins and active jointly."""
    return tuple(i for i, a in bins.alpha_mc.items() if abs(a) > ALPHA_TOL)


def qualification_prices(bins: Bins) -> dict:
    """Cutoff price for every DER, from the duals of its own side's bin."""
    params, net = bins.params, bins.network
    out = {}
    for d in bins.population.ders:
        sol = bins.own_bin(d)
        out[d.id] = qualification_price(d, sol.lambda_p, sol.lambda_q,
                                        params.big_m_cents, net.s_base_kva,
                                        params.delta_t_hours)
    return out


def _quote(der: Der, alpha: float, m: float) -> IdsoQuote:
    """Quote of one DER at acceptance alpha; bids shed the network charge m,
    offers add it."""
    price = der.price - m if der.side == "bid" else der.price + m
    return IdsoQuote(der_id=der.id, side=der.side, price_cents_per_kwh=price,
                     quantity_kw=alpha * der.volume_kw)


def make_quotes(bins: Bins) -> list[IdsoQuote]:
    """Aggregate side-bin acceptances into wholesale quotes.

    Mutually contingent DERs are withheld; so are DERs their own bin left
    at zero.  Bid quotes shed the network charge, offer quotes add it.
    """
    m = bins.params.m_cents_per_kwh
    withheld = set(mc_ids(bins))
    quotes = []
    for d in bins.population.ders:
        if d.id in withheld:
            continue
        a = bins.own_bin(d).alpha[d.id]
        if a > ALPHA_TOL:
            quotes.append(_quote(d, a, m))
    return quotes


def naive_quotes(bins: Bins) -> list[IdsoQuote]:
    """Quotes with no withholding: every jointly accepted DER is forwarded
    at its joint-bin acceptance.

    Exists to reproduce the failure mode the withholding logic prevents; a
    DER that is only feasible alongside a counterparty gets quoted anyway,
    and the market may clear one side without the other.
    """
    m = bins.params.m_cents_per_kwh
    return [_quote(d, bins.alpha_c[d.id], m) for d in bins.population.ders
            if bins.alpha_c[d.id] > ALPHA_TOL]


def aggregate_curves(quotes) -> tuple[list[CurveStep], list[CurveStep]]:
    """Stack quotes into (bid, offer) curves.

    Bids are ordered by falling price (willingness to pay), offers by
    rising price; ties break on DER id so the curves are reproducible.
    """
    def steps(side_quotes):
        out, total = [], 0.0
        for q in side_quotes:
            qty = abs(q.quantity_kw)
            total += qty
            out.append(CurveStep(price=q.price_cents_per_kwh,
                                 quantity_kw=qty, cumulative_kw=total))
        return out

    bids = sorted((q for q in quotes if q.side == "bid"),
                  key=lambda q: (-q.price_cents_per_kwh, q.der_id))
    offers = sorted((q for q in quotes if q.side == "offer"),
                    key=lambda q: (q.price_cents_per_kwh, q.der_id))
    return steps(bids), steps(offers)


def _net_demand(quotes, base_load_kw: float, price: float) -> float:
    """Feeder wholesale demand in kW if the market cleared at `price`."""
    d = base_load_kw
    for q in quotes:
        if q.side == "bid" and q.price_cents_per_kwh >= price - PRICE_TOL:
            d += -q.quantity_kw
        elif q.side == "offer" and q.price_cents_per_kwh <= price + PRICE_TOL:
            d -= q.quantity_kw
    return d


def resolve_lmp(quotes, lmp_source) -> float:
    """Wholesale price: either given directly or intersected with supply.

    With an AffineLmp source the price solves lmp = intercept + slope * D(lmp)
    where D is the step net-demand curve of the quotes on top of the base
    load.  D is nonincreasing and the supply side increasing, so either one
    constant piece of D contains the fixed point or the curves cross on a
    vertical segment at a quote price, which supply on the pieces on either
    side of it brackets.  Raises DomainError when the supply line gives a
    price that is not finite.
    """
    if not isinstance(lmp_source, AffineLmp):
        return float(lmp_source)
    a, b, base = lmp_source.intercept, lmp_source.slope, lmp_source.base_load_kw

    def supply(demand_kw: float) -> float:
        pi = a + b * demand_kw
        if not math.isfinite(pi):
            raise DomainError(f"affine lmp model gives price {pi} at net demand "
                              f"{demand_kw} kW")
        return pi

    prices = sorted({q.price_cents_per_kwh for q in quotes})
    if not prices:
        return float(supply(base))

    # probe each open piece of the step curve; piece k lies below prices[k]
    bounds = [-np.inf] + prices + [np.inf]
    probes = [prices[0] - 1.0]
    probes += [0.5 * (lo + hi) for lo, hi in zip(prices, prices[1:])]
    probes.append(prices[-1] + 1.0)
    piece_supply = []
    for k, probe in enumerate(probes):
        pi = supply(_net_demand(quotes, base, probe))
        if bounds[k] < pi < bounds[k + 1]:
            return float(pi)
        piece_supply.append(pi)

    # otherwise the supply line pierces a vertical segment of the demand step
    for bp, below, above in zip(prices, piece_supply, piece_supply[1:]):
        if above <= bp + PRICE_TOL and bp <= below + PRICE_TOL:
            return float(bp)
    raise InternalError("no intersection of supply and net demand found")


def wpm_clear(quotes, lmp_source, alpha_bids: dict,
              alpha_offers: dict | None = None) -> WpmOutcome:
    """Clear the quotes against the wholesale price.

    A bid clears when its quote price is at or above the price, an offer
    at or below; ties clear.  alpha_bids / alpha_offers supply the
    acceptance fraction each quote was built from (one merged mapping may
    serve both sides).
    """
    if alpha_offers is None:
        alpha_offers = alpha_bids
    lmp = resolve_lmp(quotes, lmp_source)
    cleared_bids, cleared_offers = {}, {}
    imported = exported = 0.0
    for q in quotes:
        if q.side == "bid" and q.price_cents_per_kwh >= lmp - PRICE_TOL:
            cleared_bids[q.der_id] = float(alpha_bids[q.der_id])
            imported += -q.quantity_kw
        elif q.side == "offer" and q.price_cents_per_kwh <= lmp + PRICE_TOL:
            cleared_offers[q.der_id] = float(alpha_offers[q.der_id])
            exported += q.quantity_kw
    return WpmOutcome(lmp=lmp, cleared_bids=cleared_bids,
                      cleared_offers=cleared_offers,
                      scheduled_net_interchange_kw=imported - exported)


def settled_alpha(population: DerPopulation, outcome: WpmOutcome) -> dict:
    """Every DER's acceptance as the wholesale market settled it: cleared
    DERs at their cleared acceptance, all others at zero."""
    alpha = {d.id: 0.0 for d in population.ders}
    alpha.update(outcome.cleared_bids)
    alpha.update(outcome.cleared_offers)
    return alpha


def expost_rectify(bins: Bins, outcome: WpmOutcome) -> WpmOutcome:
    """Settle the withheld DERs now that the wholesale price is known.

    Withheld DERs whose stated price is not viable against the price plus
    the network charge are dropped.  The viable ones are re-optimized with
    every cleared DER pinned at its cleared acceptance, every uncleared
    DER pinned at zero, and the viable block constrained to zero net
    volume, so the scheduled interchange is preserved.  If that solve is
    infeasible the block is conservatively dropped and the outcome flagged.
    """
    pop, params = bins.population, bins.params
    lmp, m = outcome.lmp, params.m_cents_per_kwh
    retained = mc_ids(bins)

    viable = []
    for der_id in retained:
        d = pop.by_id(der_id)
        f = d.price - lmp + m if d.side == "offer" else lmp - d.price + m
        if f <= PRICE_TOL:
            viable.append(der_id)
    viable = tuple(viable)

    settled = settled_alpha(pop, outcome)
    if not viable:
        return replace(outcome, mc_candidates=(), cleared_mc={}, final_alpha=settled,
                       rectification="applied" if retained else "none")

    clamp = {i: a for i, a in settled.items() if i not in viable}
    sol = solve(clamped(bins.problem, clamp, viable))
    if sol.status == "optimal":
        final_alpha = dict(sol.alpha)
        cleared_mc = {i: final_alpha[i] for i in viable
                      if abs(final_alpha[i]) > ALPHA_TOL}
        return replace(outcome, mc_candidates=viable, cleared_mc=cleared_mc,
                       final_alpha=final_alpha, rectification="applied")

    # conservative fallback: drop the block rather than dispatch unchecked
    logger.warning("ex-post LP for %d viable withheld DERs ended %s (hint: %s); "
                   "dropping the block", len(viable), sol.status,
                   ", ".join(sol.infeasibility_hint) or "none")
    return replace(outcome, mc_candidates=viable, cleared_mc={},
                   final_alpha=settled, rectification="infeasible_fallback")


def evaluate_dispatch(network: Network, population: DerPopulation,
                      alpha: dict) -> dict:
    """Network state of a dispatch given per-DER acceptance fractions.

    Ids missing from `alpha` count as zero.  Returns per-unit arrays:
    line flows p/q, squared voltages v, and head draw p0/q0.
    """
    m = network.matrices
    avec = np.array([float(alpha.get(d.id, 0.0)) for d in population.ders])
    p_fix, q_fix = network.fixed_injections()
    p = p_fix + (population.scatter_p() @ avec if population.n else 0.0)
    q = q_fix + (population.scatter_q() @ avec if population.n else 0.0)
    p_flow, q_flow = flows_from_injections(m, p, q)
    v = lindistflow_voltages(m, network.v0, p_flow, q_flow)
    p0, q0 = head_injection(m, p_flow, q_flow)
    return {"p_flow": p_flow, "q_flow": q_flow, "v": v, "p0": p0, "q0": q0}


def dispatch_check(network: Network, population: DerPopulation, alpha: dict,
                   params: TdopfParams) -> list[dict]:
    """Verify a dispatch against the same constraint set the solves use.

    Returns one record per violated constraint: voltage band rows on
    phases the bus carries, polygon rows on phases each line carries, and
    the head polygon, each beyond DISPATCH_TOL.  An empty list means the
    dispatch is clean.
    """
    return _violations(network, evaluate_dispatch(network, population, alpha), params)


def _violations(network: Network, state: dict, params: TdopfParams) -> list[dict]:
    """`dispatch_check`'s report on a state from `evaluate_dispatch`.

    Bus rows come first, then line rows, each in the order of
    `Network.carried_rows`, then the head phases a, b, c.  The rows are
    judged by array comparisons, and only the flagged ones become records.
    """
    rows = network.carried_rows
    labels = network.row_labels
    s_base = network.s_base_kva
    beta, delta, gamma = params.polygon()
    apothem = -gamma[0]  # regular polygon: every gamma_e = -cos(pi / edges)
    report = []

    v = state["v"][rows]
    low = v < network.v_min - DISPATCH_TOL
    flagged = np.flatnonzero(low | (v > network.v_max + DISPATCH_TOL))
    # a low reading is floored at 0 before its root, a high one is positive
    values = np.sqrt(np.where(0.0 > v[flagged], 0.0, v[flagged]))
    for k, value in zip(flagged.tolist(), values.tolist()):
        kind, limit = (("voltage_low", network.v_min) if low[k]
                       else ("voltage_high", network.v_max))
        report.append({"kind": kind, "bus": labels.bus[k],
                       "phase": labels.phase[k], "value": value,
                       "limit": float(np.sqrt(limit))})

    limits = np.reshape([ln.s_max for ln in network.lines], -1)[rows]
    reach = np.multiply.outer(state["p_flow"][rows], beta)
    reach += np.multiply.outer(state["q_flow"][rows], delta)
    reach = reach.max(axis=1)
    flagged = np.flatnonzero(reach > apothem * limits + DISPATCH_TOL)
    values = (reach[flagged] / apothem * s_base).tolist()
    for k, value, limit in zip(flagged.tolist(), values,
                               (limits[flagged] * s_base).tolist()):
        report.append({"kind": "line_overload",
                       "line": f"{labels.parent[k]}-{labels.bus[k]}",
                       "phase": labels.phase[k], "value": value,
                       "limit": limit})

    for i, ph in enumerate(PHASES):
        reach = float(np.max(beta * state["p0"][i] + delta * state["q0"][i]))
        if reach > apothem * network.s0_max[i] + DISPATCH_TOL:
            report.append({"kind": "head_overload", "phase": ph,
                           "value": float(reach / apothem * network.s_base_kva),
                           "limit": float(network.s0_max[i] * network.s_base_kva)})
    return report
