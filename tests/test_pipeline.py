import copy
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gridclear.pipeline
from gridclear.ders import (
    Der,
    DerPopulation,
    GenerationSpec,
    generate_population,
    population_document,
    reactive_ratio,
)
from gridclear.errors import InfeasibleError, StateError
from gridclear.network import PHASES, load_network
from gridclear.pipeline import (
    DISPATCH_TOL,
    AffineLmp,
    Bins,
    IdsoQuote,
    aggregate_curves,
    build_bins,
    dispatch_check,
    evaluate_dispatch,
    expost_rectify,
    make_quotes,
    mc_ids,
    qualification_prices,
    resolve_lmp,
    wpm_clear,
)
from gridclear.scenario import bundled_feeder, load_scenario, run_scenario
from gridclear.tdopf import TdopfParams, TdopfSolution, assemble, kkt_residuals, solve

from conftest import (
    bus_rec,
    feeder_doc,
    lateral_feeder_doc,
    mc_ders,
    mc_feeder_doc,
    random_tree_doc,
)


def dispatch_check_by_rows(network, population, alpha, params):
    """`dispatch_check` as it was first written, one row at a time: the
    reference the array version must reproduce exactly."""
    state = evaluate_dispatch(network, population, alpha)
    beta, delta, gamma = params.polygon()
    apothem = -gamma[0]
    report = []
    for bus, ph, r in network.bus_rows():
        val = float(state["v"][r])
        if val < network.v_min - DISPATCH_TOL:
            report.append({"kind": "voltage_low", "bus": bus.label,
                           "phase": ph, "value": float(np.sqrt(max(val, 0.0))),
                           "limit": float(np.sqrt(network.v_min))})
        elif val > network.v_max + DISPATCH_TOL:
            report.append({"kind": "voltage_high", "bus": bus.label,
                           "phase": ph, "value": float(np.sqrt(val)),
                           "limit": float(np.sqrt(network.v_max))})
    for line, ph, r in network.line_rows():
        limit = line.s_max[PHASES.index(ph)]
        reach = float(np.max(beta * state["p_flow"][r] + delta * state["q_flow"][r]))
        if reach > apothem * limit + DISPATCH_TOL:
            frm = network.label_of(line.from_bus)
            to = network.label_of(line.to_bus)
            report.append({"kind": "line_overload", "line": f"{frm}-{to}", "phase": ph,
                           "value": float(reach / apothem * network.s_base_kva),
                           "limit": float(limit * network.s_base_kva)})
    for i, ph in enumerate(PHASES):
        reach = float(np.max(beta * state["p0"][i] + delta * state["q0"][i]))
        if reach > apothem * network.s0_max[i] + DISPATCH_TOL:
            report.append({"kind": "head_overload", "phase": ph,
                           "value": float(reach / apothem * network.s_base_kva),
                           "limit": float(network.s0_max[i] * network.s_base_kva)})
    return report


R_PU = 3.0 / 5.764801
X_PU = 5.5 / 5.764801
ETA = reactive_ratio(0.9)


def mc_population(net, offer_price):
    return DerPopulation.from_ders(mc_ders(offer_price), net)


def alpha_bin_a_expected():
    # voltage floor at bus 2 caps the bid in the bids-only solve
    per_alpha = 4.0 * (R_PU * 0.06 + X_PU * 0.06 * ETA)
    return (1.03**2 - 0.95**2) / per_alpha


def alpha_bin_b_expected():
    per_alpha = 4.0 * (R_PU * 0.065 + X_PU * 0.065 * ETA)
    return (1.05**2 - 1.03**2) / per_alpha


class TestBins:
    def test_side_clamps_and_mc_detection(self):
        net = load_network(mc_feeder_doc())
        pop = mc_population(net, offer_price=9.0)
        bins = build_bins(net, pop, TdopfParams())
        assert bins.alpha_a["o1"] == 0.0  # offers sit out of the bids-only bin
        assert bins.alpha_b["b1"] == 0.0
        assert bins.alpha_a["b1"] == pytest.approx(alpha_bin_a_expected(), abs=1e-6)
        assert bins.alpha_b["o1"] == pytest.approx(alpha_bin_b_expected(), abs=1e-6)
        assert bins.alpha_c["b1"] == pytest.approx(1.0, abs=1e-7)
        assert bins.alpha_c["o1"] == pytest.approx(1.0, abs=1e-7)
        # both moved between their side bin and the joint bin
        assert set(bins.alpha_mc) == {"b1", "o1"}
        assert set(mc_ids(bins)) == {"b1", "o1"}

    def test_no_mc_when_unconstrained(self, two_bus_doc):
        net = load_network(two_bus_doc)
        pop = DerPopulation.from_ders([
            Der(id="b1", bus=1, phases=("a",), side="bid", price=14.0,
                volume_kw=-20.0, power_factor=0.9),
            Der(id="o1", bus=1, phases=("b",), side="offer", price=11.0,
                volume_kw=25.0, power_factor=0.9),
        ], net)
        bins = build_bins(net, pop, TdopfParams())
        assert bins.alpha_a["b1"] == pytest.approx(1.0, abs=1e-8)
        assert bins.alpha_b["o1"] == pytest.approx(1.0, abs=1e-8)
        assert bins.alpha_mc == {}
        assert mc_ids(bins) == ()

    @pytest.mark.parametrize("side", ["bid", "offer"])
    def test_one_sided_population_solves_the_joint_lp_once(self, side, monkeypatch):
        solved = []

        def counting(problem):
            solved.append(problem)
            return solve(problem)

        monkeypatch.setattr(gridclear.pipeline, "solve", counting)
        net = load_network(mc_feeder_doc())
        pop = DerPopulation.from_ders(
            [d for d in mc_ders(offer_price=9.0) if d.side == side], net)
        bins = build_bins(net, pop, TdopfParams())
        # the side bin clamps nothing, so it is the joint bin
        assert len(solved) == 2
        assert bins.sol_c is (bins.sol_a if side == "bid" else bins.sol_b)
        assert bins.alpha_mc == {}


class TestQuotes:
    def test_mc_ders_withheld(self):
        net = load_network(mc_feeder_doc())
        pop = mc_population(net, offer_price=9.0)
        bins = build_bins(net, pop, TdopfParams())
        assert make_quotes(bins) == []

    def test_prices_and_quantities(self, two_bus_doc):
        net = load_network(two_bus_doc)
        pop = DerPopulation.from_ders([
            Der(id="b1", bus=1, phases=("a",), side="bid", price=14.0,
                volume_kw=-20.0, power_factor=0.9),
            Der(id="o1", bus=1, phases=("b",), side="offer", price=11.0,
                volume_kw=25.0, power_factor=0.9),
        ], net)
        bins = build_bins(net, pop, TdopfParams(m_cents_per_kwh=2.5))
        quotes = {q.der_id: q for q in make_quotes(bins)}
        assert quotes["b1"].price_cents_per_kwh == pytest.approx(14.0 - 2.5)
        assert quotes["o1"].price_cents_per_kwh == pytest.approx(11.0 + 2.5)
        assert quotes["b1"].quantity_kw == pytest.approx(-20.0, abs=1e-6)
        assert quotes["o1"].quantity_kw == pytest.approx(25.0, abs=1e-6)
        for q in quotes.values():
            assert abs(q.quantity_kw) <= abs(pop.by_id(q.der_id).volume_kw) + 1e-9


class TestCurves:
    def test_steps_sorted_and_cumulative(self):
        quotes = [
            IdsoQuote(der_id="b1", side="bid", price_cents_per_kwh=10.0, quantity_kw=-5.0),
            IdsoQuote(der_id="b2", side="bid", price_cents_per_kwh=12.5, quantity_kw=-10.0),
            IdsoQuote(der_id="o1", side="offer", price_cents_per_kwh=8.0, quantity_kw=20.0),
            IdsoQuote(der_id="o2", side="offer", price_cents_per_kwh=6.0, quantity_kw=15.0),
        ]
        bid_curve, offer_curve = aggregate_curves(quotes)
        assert [(s.price, s.cumulative_kw) for s in bid_curve] == [(12.5, 10.0), (10.0, 15.0)]
        assert [(s.price, s.cumulative_kw) for s in offer_curve] == [(6.0, 15.0), (8.0, 35.0)]
        assert all(s.quantity_kw > 0 for s in bid_curve + offer_curve)


class TestClearing:
    def quotes(self):
        return [
            IdsoQuote(der_id="b_hi", side="bid", price_cents_per_kwh=20.0, quantity_kw=-30.0),
            IdsoQuote(der_id="b_at", side="bid", price_cents_per_kwh=13.0, quantity_kw=-10.0),
            IdsoQuote(der_id="b_lo", side="bid", price_cents_per_kwh=9.0, quantity_kw=-20.0),
            IdsoQuote(der_id="o_lo", side="offer", price_cents_per_kwh=5.0, quantity_kw=25.0),
            IdsoQuote(der_id="o_at", side="offer", price_cents_per_kwh=13.0, quantity_kw=5.0),
            IdsoQuote(der_id="o_hi", side="offer", price_cents_per_kwh=18.0, quantity_kw=40.0),
        ]

    def test_fixed_lmp_with_ties_clearing(self):
        alpha = {q.der_id: 1.0 for q in self.quotes()}
        outcome = wpm_clear(self.quotes(), 13.0, alpha)
        assert set(outcome.cleared_bids) == {"b_hi", "b_at"}
        assert set(outcome.cleared_offers) == {"o_lo", "o_at"}
        assert outcome.lmp == 13.0
        assert outcome.scheduled_net_interchange_kw == pytest.approx(40.0 - 30.0)

    def test_affine_lmp_intersection(self):
        quotes = [
            IdsoQuote(der_id="b1", side="bid", price_cents_per_kwh=20.0, quantity_kw=-30.0),
            IdsoQuote(der_id="b2", side="bid", price_cents_per_kwh=10.0, quantity_kw=-20.0),
            IdsoQuote(der_id="o1", side="offer", price_cents_per_kwh=5.0, quantity_kw=25.0),
        ]
        lmp = resolve_lmp(quotes, AffineLmp(intercept=1.0, slope=0.1, base_load_kw=100.0))
        assert lmp == pytest.approx(11.5, abs=1e-9)

    def test_affine_price_between_close_quote_prices(self):
        # supply reads 10.1 with only b2 cleared and 11.2 with both, so the
        # fixed point is b2's price, not b1's 5e-7 below it
        quotes = [
            IdsoQuote(der_id="b1", side="bid", price_cents_per_kwh=10.0, quantity_kw=-100.0),
            IdsoQuote(der_id="b2", side="bid", price_cents_per_kwh=10.0000005,
                      quantity_kw=-100.0),
        ]
        outcome = wpm_clear(quotes, AffineLmp(intercept=9.0, slope=0.011),
                            {"b1": 1.0, "b2": 1.0})
        assert outcome.lmp == 10.0000005
        assert set(outcome.cleared_bids) == {"b2"}

    def test_affine_with_zero_slope_is_fixed(self):
        lmp = resolve_lmp([], AffineLmp(intercept=13.0, slope=0.0, base_load_kw=500.0))
        assert lmp == pytest.approx(13.0)


class TestRectification:
    def setup_case(self, offer_price):
        net = load_network(mc_feeder_doc())
        pop = mc_population(net, offer_price=offer_price)
        params = TdopfParams()
        bins = build_bins(net, pop, params)
        quotes = make_quotes(bins)
        outcome = wpm_clear(quotes, 13.0, bins.alpha_a, bins.alpha_b)
        return net, pop, params, bins, outcome

    def test_both_pass_and_balance(self):
        net, pop, params, bins, outcome = self.setup_case(offer_price=9.0)
        final = expost_rectify(bins, outcome)
        assert final.rectification == "applied"
        assert set(final.mc_candidates) == {"b1", "o1"}
        assert set(final.cleared_mc) == {"b1", "o1"}
        assert final.cleared_mc["b1"] == pytest.approx(1.0, abs=1e-7)
        assert final.cleared_mc["o1"] == pytest.approx(60.0 / 65.0, abs=1e-7)
        total = final.cleared_mc["b1"] * -60.0 + final.cleared_mc["o1"] * 65.0
        assert total == pytest.approx(0.0, abs=1e-6)
        # the deal is internal: nothing changes at the head
        assert final.scheduled_net_interchange_kw == pytest.approx(0.0, abs=1e-9)
        assert dispatch_check(net, pop, final.final_alpha, params) == []

    def test_price_filter_drops_the_offer(self):
        net, pop, params, bins, outcome = self.setup_case(offer_price=12.0)
        # 12 > lmp - m = 10.5: the offer fails the viability test
        final = expost_rectify(bins, outcome)
        assert final.mc_candidates == ("b1",)
        assert final.cleared_mc == {}
        assert all(v == 0.0 for v in final.final_alpha.values())
        assert dispatch_check(net, pop, final.final_alpha, params) == []

    def test_naive_clearing_breaks_the_feeder(self):
        net, pop, params, bins, outcome = self.setup_case(offer_price=12.0)
        # what test-case-1 emulates: take the joint-bin acceptances, then
        # drop the market-rejected offer and keep the bid at full volume
        naive = {"b1": bins.alpha_c["b1"], "o1": 0.0}
        report = dispatch_check(net, pop, naive, params)
        kinds = {v["kind"] for v in report}
        assert "voltage_low" in kinds
        assert any(v["bus"] == "2" for v in report)

    def test_infeasible_block_is_dropped_with_a_warning(self, monkeypatch, caplog):
        net, pop, params, bins, outcome = self.setup_case(offer_price=9.0)
        monkeypatch.setattr(gridclear.pipeline, "solve", lambda problem: TdopfSolution(
            status="infeasible", infeasibility_hint=("voltage_box",)))
        with caplog.at_level(logging.WARNING, logger="gridclear"):
            final = expost_rectify(bins, outcome)
        assert final.rectification == "infeasible_fallback"
        assert final.mc_candidates == ("b1", "o1") and final.cleared_mc == {}
        assert final.final_alpha == {"b1": 0.0, "o1": 0.0}
        assert "2 viable withheld DERs ended infeasible (hint: voltage_box)" in caplog.text

    def test_one_assembly_per_interval(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(gridclear.pipeline, "assemble", counting)
        net = load_network(mc_feeder_doc())
        ders = population_document(mc_population(net, offer_price=9.0), net)
        result = run_scenario(load_scenario({
            "schema": "gridclear-scenario/1", "feeder": mc_feeder_doc(),
            "ders": ders, "market": {"m_cents_per_kwh": 2.5, "lmp": 13.0},
            "case": "C"}))
        # three bins and the ex-post LP all ran, on one assembly
        assert result.outcome.rectification == "applied"
        assert result.outcome.cleared_mc
        assert calls == [{}]

    def test_empty_mc_leaves_outcome_alone(self, two_bus_doc):
        net = load_network(two_bus_doc)
        pop = DerPopulation.from_ders([
            Der(id="b1", bus=1, phases=("a",), side="bid", price=16.0,
                volume_kw=-20.0, power_factor=0.9),
        ], net)
        params = TdopfParams()
        bins = build_bins(net, pop, params)
        outcome = wpm_clear(make_quotes(bins), 13.0, bins.alpha_a, bins.alpha_b)
        final = expost_rectify(bins, outcome)
        assert final.rectification == "none"
        assert final.cleared_mc == {}
        assert final.cleared_bids == {"b1": pytest.approx(1.0, abs=1e-8)}
        assert final.final_alpha["b1"] == pytest.approx(1.0, abs=1e-8)


class TestQualificationPrices:
    def test_bid_prices_use_their_own_bin(self, two_bus_doc):
        net = load_network(two_bus_doc)
        pop = DerPopulation.from_ders([
            Der(id="b1", bus=1, phases=("a",), side="bid", price=14.0,
                volume_kw=-20.0, power_factor=0.9),
            Der(id="o1", bus=1, phases=("b",), side="offer", price=11.0,
                volume_kw=25.0, power_factor=0.9),
        ], net)
        params = TdopfParams(m_cents_per_kwh=2.5, big_m_cents=1000.0)
        bins = build_bins(net, pop, params)
        qp = qualification_prices(bins)
        # unconstrained feeder: bids cut off at the network charge,
        # offers at the charge plus the acceptance subsidy
        assert qp["b1"] == pytest.approx(2.5, abs=1e-6)
        assert qp["o1"] == pytest.approx(2.5 + 1000.0 / 25.0, abs=1e-6)
        # the qualification inequalities for accepted DERs
        assert pop.by_id("b1").price >= qp["b1"]
        assert pop.by_id("o1").price <= qp["o1"]


class TestDispatchCheck:
    def test_reports_overloads(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, p_kw={"a": -80.0})],
            lines=[{
                "from": 0, "to": 1, "phases": "abc",
                "r_ohm": (np.eye(3) * 0.3).tolist(),
                "x_ohm": (np.eye(3) * 0.6).tolist(),
                "s_max_kva": 60.0,
            }],
        )
        net = load_network(doc)
        pop = DerPopulation.from_ders([], net)
        report = dispatch_check(net, pop, {}, TdopfParams())
        kinds = [v["kind"] for v in report]
        assert "line_overload" in kinds

    def test_clean_dispatch_is_empty(self, two_bus_doc):
        net = load_network(two_bus_doc)
        pop = DerPopulation.from_ders([], net)
        assert dispatch_check(net, pop, {}, TdopfParams()) == []

    @pytest.mark.parametrize("doc, n_ders, s0_max_kva",
                             [(bundled_feeder, 150, 200.0), (lateral_feeder_doc, 10, 30.0)],
                             ids=["bundled-123", "phase-b-lateral"])
    def test_matches_the_row_by_row_check(self, doc, n_ders, s0_max_kva):
        """Limits tightened until the dispatches below break all four kinds:
        the report equals the row-by-row reference, record for record and
        float for float, in the same order."""
        doc = copy.deepcopy(doc())
        doc["base"].update(v_min_pu=1.02, v_max_pu=doc["base"]["v0_pu"],
                           s0_max_kva=s0_max_kva)
        for rec in doc["lines"]:
            rec.pop("ampacity_a", None)
            rec["s_max_kva"] = 40.0
        net = load_network(doc)
        pop = generate_population(GenerationSpec(n_bids=n_ders, n_offers=n_ders, seed=3), net)
        rng = np.random.default_rng(0)
        dispatches = [{}, {d.id: 1.0 for d in pop.subset("offer")},
                      {d.id: 1.0 for d in pop.subset("bid")},
                      {d.id: float(rng.uniform()) for d in pop.ders}]
        params = TdopfParams(polygon_edges=7)
        kinds = set()
        for alpha in dispatches:
            report = dispatch_check(net, pop, alpha, params)
            expected = dispatch_check_by_rows(net, pop, alpha, params)
            assert report == expected
            assert repr(report) == repr(expected)
            kinds |= {v["kind"] for v in report}
        assert kinds == {"voltage_low", "voltage_high", "line_overload", "head_overload"}


def test_every_lp_of_a_crowd_interval_is_optimal(monkeypatch):
    """The bundled feeder with 600 bids and 600 offers at an affine price
    (interval seed 1826701615, case C): both side bins, the joint bin and
    the ex-post LP of the withheld block each meet their optimality
    conditions."""
    feeder = bundled_feeder()
    net = load_network(feeder)
    pop = generate_population(GenerationSpec(n_bids=600, n_offers=600, seed=1826701615), net)
    config = load_scenario({
        "schema": "gridclear-scenario/1", "feeder": feeder,
        "ders": population_document(pop, net), "case": "C",
        "market": {"m_cents_per_kwh": 2.5,
                   "lmp": {"intercept": 8.0, "slope": 0.004, "base_load_kw": 1347.5}},
    })
    solved = []

    def recording(problem):
        solution = solve(problem)
        solved.append((problem, solution))
        return solution

    monkeypatch.setattr(gridclear.pipeline, "solve", recording)
    outcome = run_scenario(config).outcome
    assert outcome.rectification == "applied" and len(outcome.mc_candidates) == 189
    assert len(outcome.cleared_mc) == 188
    assert [problem.zero_net_volume != () for problem, _ in solved] == [False] * 3 + [True]
    for problem, solution in solved:
        assert solution.status == "optimal"
        for key, val in kkt_residuals(problem, solution).items():
            assert val <= 1e-9, f"{key} = {val}"


def assert_cutoffs_are_reduced_costs(bins):
    """Each DER's cutoff is its stated price shifted by its reduced cost per
    kWh in its own side's bin: price - (alpha_lo - alpha_up) / (volume * dt),
    the stationarity of its column with the big-M subsidy cancelled."""
    cutoffs = qualification_prices(bins)
    dt = bins.params.delta_t_hours
    for j, der in enumerate(bins.population.ders):
        sol = bins.own_bin(der)
        reduced = (sol.alpha_lo[j] - sol.alpha_up[j]) / (der.volume_kw * dt)
        assert cutoffs[der.id] == pytest.approx(der.price - reduced, rel=0, abs=1e-9), der.id


class TestCutoffsAreReducedCosts:
    @pytest.mark.parametrize("case", ["C", "A", "B"])
    @pytest.mark.parametrize("n_bids, n_offers, seed", [(40, 15, 1826701615),
                                                        (600, 600, 1367864807)],
                             ids=["ref123-paper", "ref123-crowd"])
    def test_bundled_feeder(self, n_bids, n_offers, seed, case):
        """An interval of each bundled-feeder workload; cases A and B keep
        one side of the population, as `run_scenario` does."""
        net = load_network(bundled_feeder())
        pop = generate_population(GenerationSpec(n_bids=n_bids, n_offers=n_offers,
                                                 seed=seed), net)
        if case != "C":
            pop = DerPopulation.from_ders(pop.subset("bid" if case == "A" else "offer"), net)
        assert_cutoffs_are_reduced_costs(build_bins(net, pop, TdopfParams()))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=7),
           st.sampled_from([0.25, 1.0]))
    @settings(max_examples=30, deadline=None)
    def test_random_trees(self, seed, n_bus, delta_t_hours):
        rng = np.random.default_rng(seed)
        net = load_network(random_tree_doc(rng, n_bus, all_three_phase=False))
        pop = generate_population(GenerationSpec(n_bids=4, n_offers=4, seed=seed,
                                                 volume_mean_kw=150.0, volume_sd_kw=100.0,
                                                 volume_lo_kw=20.0, volume_hi_kw=400.0), net)
        try:
            bins = build_bins(net, pop, TdopfParams(delta_t_hours=delta_t_hours))
        except InfeasibleError:
            assume(False)
        assert_cutoffs_are_reduced_costs(bins)
