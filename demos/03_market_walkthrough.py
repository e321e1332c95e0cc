"""One market interval, end to end, on a deliberately fragile feeder.

A big flexible load (bid) and a big generator (offer) sit at the end of a
weak single-phase lateral.  Alone, either one runs into a voltage limit;
together they cancel and both fit.  That makes them mutually contingent:
the aggregator must not quote them into the wholesale market separately,
because the market could accept one and reject the other.

The walkthrough shows the three acceptance solves, the withholding
decision, wholesale clearing, the ex-post settlement of the withheld
block, and the retail prices each resource ends up facing.  A final
section replays the interval with withholding turned off to show the
voltage violation that motivates all of this.
"""

from gridclear import (
    Der,
    DerPopulation,
    TdopfParams,
    build_bins,
    dispatch_check,
    expost_rectify,
    load_network,
    make_quotes,
    mc_ids,
    naive_quotes,
    retail_signals,
    wpm_clear,
)

FEEDER = {
    "schema": "gridclear-feeder/1",
    "base": {"s_base_kva": 1000.0, "v_base_kv": 2.401, "v0_pu": 1.03,
             "v_min_pu": 0.95, "v_max_pu": 1.05, "s0_max_kva": 5000.0},
    "buses": [
        {"id": 0, "phases": "abc"},
        {"id": 1, "phases": "a"},
        {"id": 2, "phases": "a"},
    ],
    "lines": [
        {"from": 0, "to": 1, "phases": "a",
         "r_ohm": [[3.0, 0, 0], [0, 0, 0], [0, 0, 0]],
         "x_ohm": [[5.5, 0, 0], [0, 0, 0], [0, 0, 0]],
         "s_max_kva": {"a": 2000.0}},
        {"from": 1, "to": 2, "phases": "a",
         "r_ohm": [[3.0, 0, 0], [0, 0, 0], [0, 0, 0]],
         "x_ohm": [[5.5, 0, 0], [0, 0, 0], [0, 0, 0]],
         "s_max_kva": {"a": 2000.0}},
    ],
}

DERS = [
    Der(id="b1", bus=2, phases=("a",), side="bid", price=16.0,
        volume_kw=-60.0, power_factor=0.9),
    Der(id="o1", bus=2, phases=("a",), side="offer", price=9.0,
        volume_kw=65.0, power_factor=0.9),
]

LMP = 13.0  # cents/kWh at the substation


def main():
    net = load_network(FEEDER)
    pop = DerPopulation.from_ders(DERS, net)
    params = TdopfParams()

    print("--- acceptance solves (bids alone / offers alone / jointly) ---")
    bins = build_bins(net, pop, params)
    for d in pop.ders:
        print(f"  {d.id}: alone {bins.own_bin(d).alpha[d.id]:.3f}"
              f"  jointly {bins.alpha_c[d.id]:.3f}")
    withheld = mc_ids(bins)
    print(f"mutually contingent, withheld from the exchange: {sorted(withheld)}")

    print("\n--- wholesale clearing ---")
    quotes = make_quotes(bins)
    if quotes:
        for q in quotes:
            print(f"  quote {q.der_id}: {q.price_cents_per_kwh} c/kWh, "
                  f"{q.quantity_kw} kW")
    else:
        print("  no quotes submitted this interval")
    outcome = wpm_clear(quotes, LMP, bins.alpha_a, bins.alpha_b)
    print(f"  lmp {outcome.lmp} c/kWh, scheduled interchange "
          f"{outcome.scheduled_net_interchange_kw:.1f} kW")

    print("\n--- ex-post settlement of the withheld block ---")
    final = expost_rectify(bins, outcome)
    print(f"  rectification: {final.rectification}, "
          f"viable candidates {sorted(final.mc_candidates)}")
    for der_id, a in sorted(final.cleared_mc.items()):
        kw = a * pop.by_id(der_id).volume_kw
        print(f"  {der_id}: acceptance {a:.4f} -> {kw:+.1f} kW")
    block = sum(a * pop.by_id(i).volume_kw for i, a in final.cleared_mc.items())
    print(f"  block net volume {block:+.2f} kW (held at zero by construction)")
    report = dispatch_check(net, pop, final.final_alpha, params)
    print(f"  limit violations in the final dispatch: {len(report)}")

    print("\n--- retail prices ---")
    m = params.m_cents_per_kwh
    print(f"  (wholesale {LMP} c/kWh, network charge m = {m} c/kWh)")
    for sig in retail_signals(bins, final):
        print(f"  {sig.der_id}: {sig.classification:20s} "
              f"{sig.price_cents_per_kwh:6.2f} c/kWh for {sig.quantity_kw:+.1f} kW")

    print("\n--- why withholding matters: a costlier generator, quoted naively ---")
    # reprice the offer to 12 c/kWh; its quote of 12 + 2.5 now sits above
    # the lmp, so an exchange that judges each quote alone rejects it
    # while still accepting its partner bid
    pop2 = DerPopulation.from_ders([
        DERS[0],
        Der(id="o1", bus=2, phases=("a",), side="offer", price=12.0,
            volume_kw=65.0, power_factor=0.9),
    ], net)
    bins2 = build_bins(net, pop2, params)
    naive = wpm_clear(naive_quotes(bins2), LMP, bins2.alpha_c)
    alpha = {d.id: 0.0 for d in pop2.ders}
    alpha.update(naive.cleared_bids)
    alpha.update(naive.cleared_offers)
    print(f"  exchange accepts: bids {sorted(naive.cleared_bids)}, "
          f"offers {sorted(naive.cleared_offers)}")
    for v in dispatch_check(net, pop2, alpha, params):
        print(f"  violation: {v['kind']} at bus {v['bus']} phase {v['phase']}: "
              f"{v['value']:.4f} vs limit {v['limit']:.4f}")
    safe = expost_rectify(bins2, wpm_clear(make_quotes(bins2), LMP,
                                           bins2.alpha_a, bins2.alpha_b))
    worst = max(abs(a) for a in safe.final_alpha.values())
    print(f"  with withholding the block simply stands down "
          f"(largest acceptance {worst:.1f}), no violations: "
          f"{len(dispatch_check(net, pop2, safe.final_alpha, params))}")


if __name__ == "__main__":
    main()
