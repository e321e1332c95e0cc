"""Retail price signals derived from one interval's market outcome.

Every DER receives a posted price and a settled quantity.  Cleared DERs
(and the ex-post settled block) transact at the wholesale price plus the
network charge for bids, minus it for offers.  DERs their own bin shut
out see their qualification cutoff instead whenever it is the stricter
number, so the posted price always explains the rejection: a shut-out bid
never sees a price below its stated one, a shut-out offer never a price
above it.  In export-congested pockets the offer cutoff can go negative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import phase_rows
from .pipeline import ALPHA_TOL, Bins, WpmOutcome, qualification_prices


@dataclass(frozen=True)
class RetailSignal:
    """Posted price and settled quantity for one DER, one interval."""

    der_id: str
    side: str
    classification: str  # cleared | qualified_uncleared | unqualified
    price_cents_per_kwh: float
    quantity_kw: float


def retail_signals(bins: Bins, outcome: WpmOutcome,
                   cutoff_prices: dict | None = None) -> list[RetailSignal]:
    """Post one signal per DER from the bins and the settled outcome.

    A DER with nonzero acceptance in its side bin (or settled in the
    ex-post block) is priced at the wholesale pass-through; whether it
    actually cleared decides cleared vs qualified_uncleared.  Everything
    else is unqualified with zero quantity, priced at whichever of the
    pass-through and its own cutoff bounds it away from regret.
    """
    if cutoff_prices is None:
        cutoff_prices = qualification_prices(bins)
    lmp, m = outcome.lmp, bins.params.m_cents_per_kwh
    signals = []
    for d in bins.population.ders:
        if d.side == "bid":
            through = lmp + m
            side_alpha = bins.alpha_a[d.id]
            in_market = d.id in outcome.cleared_bids
            fence = max(through, cutoff_prices[d.id])
        else:
            through = lmp - m
            side_alpha = bins.alpha_b[d.id]
            in_market = d.id in outcome.cleared_offers
            fence = min(through, cutoff_prices[d.id])
        settled_mc = outcome.cleared_mc.get(d.id)
        if settled_mc is not None:
            cls, price, qty = "cleared", through, settled_mc * d.volume_kw
        elif side_alpha > ALPHA_TOL:
            cls = "cleared" if in_market else "qualified_uncleared"
            price, qty = through, side_alpha * d.volume_kw
        else:
            cls, price, qty = "unqualified", fence, 0.0
        signals.append(RetailSignal(der_id=d.id, side=d.side, classification=cls,
                                    price_cents_per_kwh=float(price),
                                    quantity_kw=float(qty)))
    return signals


def congestion_on_feed_path(bins: Bins, der_id: str, tol: float = 1e-9) -> list[dict]:
    """Voltage-band duals along a DER's feed path, from its side's bin.

    Explains out-of-band retail prices: a nonzero upper dual on the path
    means more export there would push through a binding voltage ceiling,
    a nonzero lower dual means more consumption would sag below the floor.
    Returns one record per (bus, phase) with a dual above `tol`.
    """
    d = bins.population.by_id(der_id)
    sol = bins.sol_a if d.side == "bid" else bins.sol_b
    net = bins.network
    records = []
    for bus in net.path_to_head(d.bus):
        for ph, r in phase_rows(bus - 1, net.buses[bus].phases):
            up, lo = float(sol.mu_v_upper[r]), float(sol.mu_v_lower[r])
            if max(up, lo) > tol:
                records.append({"bus": net.label_of(bus), "phase": ph,
                                "mu_upper": up, "mu_lower": lo})
    return records
