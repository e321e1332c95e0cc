import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import sparse

from gridclear._lp import solve_lp

from gridclear.ders import Der, DerPopulation, GenerationSpec, generate_population, reactive_ratio
from gridclear.errors import DomainError, SchemaError, StateError
from gridclear.network import load_network
from gridclear.tdopf import (
    MAX_POLYGON_EDGES,
    TdopfParams,
    TdopfSolution,
    assemble,
    clamped,
    kkt_residuals,
    polygon_coefficients,
    qualification_price,
    solution_document,
    solve,
)
from gridclear.scenario import bundled_feeder

from conftest import (
    R_OHM_MILE,
    X_OHM_MILE,
    bus_rec,
    dense_matrices_oracle,
    feeder_doc,
    line_rec,
)


def pop_of(net, ders):
    return DerPopulation.from_ders(ders, net)


def bid(id, bus, kw, price, phases=("a",), pf=0.9):
    return Der(id=id, bus=bus, phases=phases, side="bid", price=price,
               volume_kw=-abs(kw), power_factor=pf)


def offer(id, bus, kw, price, phases=("a",), pf=0.9):
    return Der(id=id, bus=bus, phases=phases, side="offer", price=price,
               volume_kw=abs(kw), power_factor=pf)


class TestPolygonCoefficients:
    def test_frozen_values_e12(self):
        beta, delta, gamma = polygon_coefficients(12)
        assert len(beta) == 12
        assert beta[0] == pytest.approx(np.cos(np.pi / 6), abs=1e-12)   # e = 1
        assert delta[0] == pytest.approx(0.5, abs=1e-12)
        assert_allclose(gamma, -0.9659258262890683, atol=1e-12)
        # last edge points along the +p axis
        assert beta[-1] == pytest.approx(1.0, abs=1e-12)
        assert delta[-1] == pytest.approx(0.0, abs=1e-12)

    def test_feasible_set_is_inside_the_disc(self):
        # every vertex of the inner polygon lies on the circle of radius s
        for edges in (4, 6, 12, 24):
            beta, delta, gamma = polygon_coefficients(edges)
            s = 1.7
            radii = []
            for e in range(edges):
                f = (e + 1) % edges
                a = np.array([[beta[e], delta[e]], [beta[f], delta[f]]])
                vertex = np.linalg.solve(a, [-gamma[e] * s, -gamma[f] * s])
                radii.append(np.hypot(*vertex))
                margins = beta * vertex[0] + delta * vertex[1] + gamma * s
                assert np.max(margins) <= 1e-9
            assert np.max(radii) == pytest.approx(s, abs=1e-9)

    def test_square_apothem(self):
        beta, delta, gamma = polygon_coefficients(4)
        ok = beta * 0.70 + delta * 0.0 + gamma * 1.0
        bad = beta * 0.71 + delta * 0.0 + gamma * 1.0
        assert np.max(ok) <= 0.0
        assert np.max(bad) > 0.0

    def test_boundary_point_e12(self):
        beta, delta, gamma = polygon_coefficients(12)
        p = 1.0 * np.cos(np.pi / 12)
        margins = beta * p + gamma * 1.0
        assert np.max(margins) == pytest.approx(0.0, abs=1e-12)

    def test_too_few_edges(self):
        with pytest.raises(DomainError):
            polygon_coefficients(2)

    def test_edge_count_is_bounded(self):
        assert TdopfParams(polygon_edges=MAX_POLYGON_EDGES).polygon_edges == 360
        for edges in (MAX_POLYGON_EDGES + 1, 10**6):
            with pytest.raises(DomainError, match="at most 360"):
                TdopfParams(polygon_edges=edges)


@pytest.fixture
def two_bus_net(two_bus_doc):
    return load_network(two_bus_doc)


class TestAssembly:
    def test_variable_and_row_census(self, two_bus_net):
        pop = pop_of(two_bus_net, [bid("b1", 1, 20.0, 12.0)])
        prob = assemble(two_bus_net, pop, TdopfParams())
        n_var = 1 + 3 + 3  # alpha, P, Q for one three-phase line
        assert prob.c.shape == (n_var,)
        assert prob.a_eq.shape == (6, n_var)
        # voltage box (6) + line polygon (12 * 3) + head polygon (12 * 3)
        assert prob.a_ub.shape == (78, n_var)
        assert len(prob.bounds) == n_var
        assert prob.bounds[0] == (0.0, 1.0)

    def test_objective_coefficients(self, two_bus_net):
        pop = pop_of(two_bus_net, [bid("b1", 1, 20.0, 12.0),
                                   offer("o1", 1, 29.0, 18.6, phases=("c",))])
        prob = assemble(two_bus_net, pop, TdopfParams(m_cents_per_kwh=2.5, delta_t_hours=1.0))
        # bids: price * signed volume * dt; offers: (price - M/vol) * vol * dt
        assert prob.c[0] == pytest.approx(12.0 * -20.0)
        assert prob.c[1] == pytest.approx((18.6 - 1000.0 / 29.0) * 29.0)
        # network term prices real flow on head lines only
        assert_allclose(prob.c[2:5], 2.5 * 1000.0, rtol=1e-12)
        assert_allclose(prob.c[5:8], 0.0)

    def test_clamp_becomes_fixed_bound(self, two_bus_net):
        pop = pop_of(two_bus_net, [bid("b1", 1, 20.0, 12.0)])
        prob = assemble(two_bus_net, pop, TdopfParams(), clamp={"b1": 0.37})
        assert prob.bounds[0] == (0.37, 0.37)

    def test_unknown_clamp_id(self, two_bus_net):
        pop = pop_of(two_bus_net, [bid("b1", 1, 20.0, 12.0)])
        with pytest.raises(SchemaError):
            assemble(two_bus_net, pop, TdopfParams(), clamp={"zz": 0.0})


class TestSolveBasics:
    def test_no_der_fixed_load(self, two_bus_net):
        pop = pop_of(two_bus_net, [])
        params = TdopfParams(m_cents_per_kwh=2.5, delta_t_hours=1.0)
        sol = solve(assemble(two_bus_net, pop, params))
        assert sol.status == "optimal"
        # lossless: head supplies exactly the fixed load
        assert sol.p0.sum() * 1000.0 == pytest.approx(240.0, abs=1e-6)
        assert sol.objective_cents == pytest.approx(2.5 * 240.0, abs=1e-6)
        # every constraint slack, so the only price is the network's own cost
        assert_allclose(sol.lambda_p, -2.5 * 1000.0, atol=1e-6)
        assert_allclose(sol.lambda_q, 0.0, atol=1e-6)
        assert np.max(np.abs(sol.mu_v_upper)) <= 1e-9
        assert np.max(np.abs(sol.mu_line)) <= 1e-9

    def test_cheap_bid_fully_accepted(self, two_bus_net):
        pop = pop_of(two_bus_net, [bid("b1", 1, 20.0, 12.0)])
        sol = solve(assemble(two_bus_net, pop, TdopfParams()))
        assert sol.status == "optimal"
        assert sol.alpha["b1"] == pytest.approx(1.0, abs=1e-8)
        # unconstrained feeder: cutoff price for a bid is the network charge m
        qp = qualification_price(pop.ders[0], sol.lambda_p, sol.lambda_q,
                                 big_m=1000.0, s_base_kva=1000.0, delta_t_hours=1.0)
        assert qp == pytest.approx(2.5, abs=1e-6)

    def test_expensive_offer_still_accepted(self, two_bus_net):
        # the acceptance discount dominates the stated price
        pop = pop_of(two_bus_net, [offer("o1", 1, 20.0, 20.0)])
        sol = solve(assemble(two_bus_net, pop, TdopfParams()))
        assert sol.alpha["o1"] == pytest.approx(1.0, abs=1e-8)
        qp = qualification_price(pop.ders[0], sol.lambda_p, sol.lambda_q,
                                 big_m=1000.0, s_base_kva=1000.0, delta_t_hours=1.0)
        assert qp == pytest.approx(2.5 + 1000.0 / 20.0, abs=1e-6)
        assert qp >= 20.0

    def test_voltages_and_flows_reported(self, two_bus_net):
        pop = pop_of(two_bus_net, [])
        sol = solve(assemble(two_bus_net, pop, TdopfParams()))
        assert sol.v.shape == (3,)
        assert np.all(sol.v <= two_bus_net.v_max + 1e-9)
        assert np.all(sol.v >= two_bus_net.v_min - 1e-9)
        assert sol.p_flow.shape == (3,)
        assert sol.p_flow[0] == pytest.approx(0.1, abs=1e-9)

    def test_iterations_kept_out_of_the_document(self):
        net = load_network(bundled_feeder())
        pop = generate_population(GenerationSpec(n_bids=30, n_offers=25, seed=1), net)
        sol = solve(assemble(net, pop, TdopfParams()))
        assert sol.status == "optimal" and sol.iterations > 0
        assert "iterations" not in solution_document(sol, net, pop)

    def test_solution_document_shape(self, two_bus_net):
        pop = pop_of(two_bus_net, [bid("b1", 1, 20.0, 12.0)])
        sol = solve(assemble(two_bus_net, pop, TdopfParams()))
        doc = solution_document(sol, two_bus_net, pop)
        assert doc["schema"] == "gridclear-solution/1"
        assert doc["status"] == "optimal"
        assert doc["alpha"]["b1"] == pytest.approx(1.0, abs=1e-8)
        row = doc["voltages"][0]
        assert set(row) == {"bus", "phase", "v_pu"}
        assert row["v_pu"] == pytest.approx(np.sqrt(sol.v[0]), abs=1e-12)
        assert doc["duals"]["lambda_p"][0]["bus"] == "1"


class TestVoltageCongestion:
    @pytest.fixture
    def stressed(self):
        # weak path feeder with a floor tight enough that the far bid binds it
        doc = feeder_doc(
            buses=[
                bus_rec(0),
                bus_rec(1, p_kw={"a": -100.0, "b": -60.0, "c": -60.0},
                        q_kvar={"a": -40.0, "b": -25.0, "c": -25.0}),
                bus_rec(2, p_kw={"a": -80.0}, q_kvar={"a": -30.0}),
            ],
            lines=[line_rec(0, 1), line_rec(1, 2)],
            v_min_pu=0.97,
        )
        net = load_network(doc)
        pop = pop_of(net, [bid("b1", 2, 80.0, 18.0), bid("b2", 1, 40.0, 6.0)])
        return net, pop

    def test_partial_acceptance_with_binding_box(self, stressed):
        # heavy single-phase acceptance lifts a coupled phase to the ceiling
        net, pop = stressed
        sol = solve(assemble(net, pop, TdopfParams()))
        assert sol.status == "optimal"
        assert min(sol.alpha.values()) < 1.0 - 1e-6  # someone is curtailed
        binding = max(np.max(sol.mu_v_lower), np.max(sol.mu_v_upper))
        assert binding > 1e-6
        assert (np.min(sol.v) == pytest.approx(net.v_min, abs=1e-7)
                or np.max(sol.v) == pytest.approx(net.v_max, abs=1e-7))

    def test_floor_binds_without_coupling(self):
        # single-phase lateral, no cross-phase terms: the floor caps the bid
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, phases="a", p_kw={"a": -80.0},
                                       q_kvar={"a": -30.0})],
            lines=[{
                "from": 0, "to": 1, "phases": "a",
                "r_ohm": [[3.0, 0, 0], [0, 0, 0], [0, 0, 0]],
                "x_ohm": [[5.5, 0, 0], [0, 0, 0], [0, 0, 0]],
                "s_max_kva": {"a": 2000.0},
            }],
        )
        net = load_network(doc)
        pop = pop_of(net, [bid("b1", 1, 80.0, 18.0)])
        prob = assemble(net, pop, TdopfParams())
        sol = solve(prob)
        assert sol.status == "optimal"
        assert 1e-6 < sol.alpha["b1"] < 1.0 - 1e-6
        assert sol.v[0] == pytest.approx(net.v_min, abs=1e-8)
        assert sol.mu_v_lower[0] > 1e-6
        res = kkt_residuals(prob, sol)
        for key, val in res.items():
            assert val <= 1e-6, f"{key} = {val}"

    def test_kkt_residuals_small(self, stressed):
        net, pop = stressed
        prob = assemble(net, pop, TdopfParams())
        sol = solve(prob)
        res = kkt_residuals(prob, sol)
        for key, val in res.items():
            assert val <= 1e-6, f"{key} = {val}"

    @pytest.fixture
    def optimum(self, stressed):
        net, pop = stressed
        prob = assemble(net, pop, TdopfParams())
        sol = solve(prob)
        # each test below moves one multiplier by 1e-3 of the largest of its
        # kind, the unit the check scales by, and the check must notice
        top_mu = max(np.max(sol.mu_v_upper), np.max(sol.mu_v_lower),
                     np.max(sol.mu_line), np.max(sol.mu_sub))
        assert top_mu > 1.0
        return net, prob, sol, top_mu

    def test_kkt_residuals_catch_a_shifted_price(self, optimum):
        net, prob, sol, _ = optimum
        lambda_p = sol.lambda_p.copy()
        lambda_p[net.carried_rows[0]] += 1e-3 * np.max(np.abs(lambda_p))
        res = kkt_residuals(prob, replace(sol, lambda_p=lambda_p))
        assert max(res["stationarity_alpha"], res["stationarity_p"]) > 1e-6

    def test_kkt_residuals_catch_a_price_on_a_slack_row(self, optimum):
        net, prob, sol, top_mu = optimum
        rows = net.carried_rows
        row = rows[np.argmax(net.v_max - sol.v[rows])]
        assert net.v_max - sol.v[row] > 1e-2 and sol.mu_v_upper[row] == 0.0
        mu_v_upper = sol.mu_v_upper.copy()
        mu_v_upper[row] += 1e-3 * top_mu
        res = kkt_residuals(prob, replace(sol, mu_v_upper=mu_v_upper))
        assert res["comp_slack_rows"] > 1e-6

    def test_kkt_residuals_catch_a_negative_multiplier(self, optimum):
        net, prob, sol, top_mu = optimum
        mu_line = sol.mu_line.copy()
        mu_line[0, net.carried_rows[0]] = -1e-3 * top_mu
        res = kkt_residuals(prob, replace(sol, mu_line=mu_line))
        assert res["dual_sign"] > 1e-6

    def test_kkt_needs_an_optimal_solution(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, p_kw={"a": -300.0})],
            lines=[line_rec(0, 1, s_max_kva=105.0)],
        )
        net = load_network(doc)
        pop = DerPopulation.from_ders([], net)
        prob = assemble(net, pop, TdopfParams())
        sol = solve(prob)
        assert sol.status == "infeasible"
        with pytest.raises(StateError):
            kkt_residuals(prob, sol)


class TestLineCongestion:
    def test_polygon_limits_acceptance(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, p_kw={"a": -80.0}, q_kvar={"a": -10.0})],
            lines=[line_rec(0, 1, s_max_kva=105.0)],
        )
        net = load_network(doc)
        pop = pop_of(net, [bid("b1", 1, 40.0, 15.0, pf=1.0)])
        prob = assemble(net, pop, TdopfParams())
        sol = solve(prob)
        assert sol.status == "optimal"
        assert 1e-6 < sol.alpha["b1"] < 1.0 - 1e-6
        assert np.max(sol.mu_line) > 1e-6
        res = kkt_residuals(prob, sol)
        for key, val in res.items():
            assert val <= 1e-6, f"{key} = {val}"

    def test_head_polygon_binds(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, p_kw={"a": -80.0}, q_kvar={"a": -10.0})],
            lines=[line_rec(0, 1)],
            s0_max_kva={"a": 105.0, "b": 5000.0, "c": 5000.0},
        )
        net = load_network(doc)
        pop = pop_of(net, [bid("b1", 1, 40.0, 15.0, pf=1.0)])
        prob = assemble(net, pop, TdopfParams())
        sol = solve(prob)
        assert sol.status == "optimal"
        assert 1e-6 < sol.alpha["b1"] < 1.0 - 1e-6
        assert np.max(sol.mu_sub) > 1e-6
        res = kkt_residuals(prob, sol)
        for val in res.values():
            assert val <= 1e-6

    def test_overload_infeasible_with_hint(self, caplog):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, p_kw={"a": -150.0})],
            lines=[line_rec(0, 1, s_max_kva=105.0)],
        )
        net = load_network(doc)
        with caplog.at_level(logging.DEBUG, logger="gridclear"):
            sol = solve(assemble(net, pop_of(net, []), TdopfParams()))
        assert sol.status == "infeasible"
        assert sol.infeasibility_hint == ("line_polygon",)
        assert sol.alpha is None
        # one debug line per re-solve: voltage_box first, then line_polygon
        assert caplog.messages == ["infeasibility probe without voltage_box: infeasible",
                                   "infeasibility probe without line_polygon: optimal"]


class TestAbsentPhases:
    def test_flows_pinned_to_zero(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1), bus_rec(2, phases="a", p_kw={"a": -30.0})],
            lines=[line_rec(0, 1), {
                "from": 1, "to": 2, "phases": "a",
                "r_ohm": [[0.6, 0, 0], [0, 0, 0], [0, 0, 0]],
                "x_ohm": [[1.1, 0, 0], [0, 0, 0], [0, 0, 0]],
                "s_max_kva": {"a": 1500.0},
            }],
        )
        net = load_network(doc)
        pop = pop_of(net, [bid("b1", 2, 25.0, 14.0)])
        prob = assemble(net, pop, TdopfParams())
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.p_flow[4] == 0.0 and sol.p_flow[5] == 0.0
        assert sol.q_flow[4] == 0.0 and sol.q_flow[5] == 0.0
        res = kkt_residuals(prob, sol)
        for key, val in res.items():
            assert val <= 1e-6, f"{key} = {val}"


class TestNetVolumeCoupling:
    def test_balanced_pair(self, two_bus_net):
        pop = pop_of(two_bus_net, [bid("b1", 1, 60.0, 16.0), offer("o1", 1, 65.0, 9.0)])
        prob = assemble(two_bus_net, pop, TdopfParams(),
                        zero_net_volume=("b1", "o1"))
        sol = solve(prob)
        assert sol.status == "optimal"
        total = sol.alpha["b1"] * -60.0 + sol.alpha["o1"] * 65.0
        assert total == pytest.approx(0.0, abs=1e-6)
        assert sol.alpha["b1"] == pytest.approx(1.0, abs=1e-7)
        assert sol.alpha["o1"] == pytest.approx(60.0 / 65.0, abs=1e-7)

    def test_optimality_with_the_volume_row(self, two_bus_net):
        pop = pop_of(two_bus_net, [bid("b1", 1, 60.0, 16.0), offer("o1", 1, 65.0, 9.0),
                                   bid("b2", 1, 30.0, 4.0, phases=("b",))])
        prob = assemble(two_bus_net, pop, TdopfParams(), zero_net_volume=("b1", "o1"))
        sol = solve(prob)
        assert sol.status == "optimal" and sol.lambda_net_volume != 0.0
        for key, val in kkt_residuals(prob, sol).items():
            assert val <= 1e-9, f"{key} = {val}"


class TestOwnBounds:
    def test_der_at_an_upper_bound_below_one(self, two_bus_net):
        """Complementarity is read against each column's own bounds: a
        cheap bid held at 0.5 by its bound is optimal there."""
        pop = pop_of(two_bus_net, [bid("b1", 1, 20.0, 12.0)])
        joint = assemble(two_bus_net, pop, TdopfParams())
        prob = replace(joint, bounds=[(0.0, 0.5)] + joint.bounds[1:])
        sol = solve(prob)
        assert sol.alpha["b1"] == pytest.approx(0.5, abs=1e-12)
        assert sol.alpha_up[0] > 1.0
        for key, val in kkt_residuals(prob, sol).items():
            assert val <= 1e-9, f"{key} = {val}"


def dense_layout_oracle(net, pop, params, zero_net_volume=()):
    """The constraint matrices over every 3N flow slot written out dense,
    block by block, from `dense_matrices_oracle`: a_ub = voltage rows,
    line-polygon rows, head rows; a_eq = real and reactive balances, then
    the volume row.  Returns (a_ub, b_ub, a_eq, b_eq)."""
    dense, voltage = dense_matrices_oracle(net)
    n, n3 = pop.n, 3 * net.n
    beta, delta, gamma = params.polygon()
    edges = len(beta)
    sl_a, sl_p, sl_q = slice(0, n), slice(n, n + n3), slice(n + n3, n + 2 * n3)
    a_eq = np.zeros((2 * n3 + (1 if zero_net_volume else 0), n + 2 * n3))
    a_eq[0:n3, sl_a] = -pop.scatter_p()
    a_eq[0:n3, sl_p] = dense["c"].T
    a_eq[n3:2 * n3, sl_a] = -pop.scatter_q()
    a_eq[n3:2 * n3, sl_q] = dense["c"].T
    for der_id in zero_net_volume:
        j = pop.column_of[der_id]
        a_eq[-1, j] = pop.ders[j].volume_kw
    p_f, q_f = net.fixed_injections()
    b_eq = np.concatenate([p_f, q_f, [0.0] if zero_net_volume else []])
    a_ub = np.zeros((2 * n3 + edges * n3 + edges * 3, n + 2 * n3))
    a_ub[0:2 * n3, n:] = voltage
    s_line = np.concatenate([line.s_max for line in net.lines])
    b_ub = [np.full(n3, net.v_max - net.v0), np.full(n3, net.v0 - net.v_min)]
    for e in range(edges):
        rows = slice(2 * n3 + e * n3, 2 * n3 + (e + 1) * n3)
        a_ub[rows, sl_p] = beta[e] * np.eye(n3)
        a_ub[rows, sl_q] = delta[e] * np.eye(n3)
        head = slice(2 * n3 + edges * n3 + 3 * e, 2 * n3 + edges * n3 + 3 * (e + 1))
        a_ub[head, sl_p] = beta[e] * dense["c0"].T
        a_ub[head, sl_q] = delta[e] * dense["c0"].T
        b_ub.append(-gamma[e] * s_line)
    b_ub.extend(-gamma[e] * net.s0_max for e in range(edges))
    return a_ub, np.concatenate(b_ub), a_eq, b_eq


def carried_layout(net, pop, params, zero_net_volume=()):
    """Indices of the rows and columns of `dense_layout_oracle` that the
    LP keeps, as (ub_rows, eq_rows, columns): the balance and voltage rows
    of the phases each bus carries, the line-polygon rows and flow columns
    of the phases each line carries, every head row and DER column."""
    n, n3 = pop.n, 3 * net.n
    bus = np.array([row for _, _, row in net.bus_rows()])
    line = np.array([row for _, _, row in net.line_rows()])
    edges = params.polygon_edges
    ub_rows = np.concatenate([bus, n3 + bus]
                             + [(2 + e) * n3 + line for e in range(edges)]
                             + [np.arange((2 + edges) * n3, (2 + edges) * n3 + 3 * edges)])
    eq_rows = np.concatenate([bus, n3 + bus] + ([[2 * n3]] if zero_net_volume else []))
    columns = np.concatenate([np.arange(n), n + line, n + n3 + line])
    return ub_rows, eq_rows, columns


class TestSparseAssembly:
    @pytest.fixture
    def lateral(self):
        # three-phase trunk with a single-phase (c) lateral off bus 1
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, p_kw={"a": -40.0, "b": -30.0}),
                   bus_rec(2, phases="c", p_kw={"c": -25.0}, q_kvar={"c": -8.0}),
                   bus_rec(3, p_kw={"b": -20.0})],
            lines=[line_rec(0, 1, scale=0.4), {
                "from": 1, "to": 2, "phases": "c",
                "r_ohm": [[0, 0, 0], [0, 0, 0], [0, 0, 0.7]],
                "x_ohm": [[0, 0, 0], [0, 0, 0], [0, 0, 1.2]],
                "s_max_kva": {"c": 800.0},
            }, line_rec(1, 3, scale=0.3)],
        )
        net = load_network(doc)
        pop = pop_of(net, [bid("b1", 2, 30.0, 14.0, phases=("c",)),
                           bid("b2", 3, 25.0, 11.0, phases=("a", "b")),
                           offer("o1", 3, 40.0, 9.0, phases=("a", "b", "c")),
                           offer("o2", 1, 20.0, 7.0, phases=("b",))])
        return net, pop

    @pytest.mark.parametrize("clamp, zero_net_volume", [
        (None, ()),
        ({"o1": 0.0, "o2": 0.0}, ()),
        ({"b2": 0.4}, ("b1", "o1", "o2")),
    ], ids=["joint", "clamped", "volume-row"])
    def test_matches_dense_layout(self, lateral, clamp, zero_net_volume):
        net, pop = lateral
        params = TdopfParams()
        prob = assemble(net, pop, params, clamp=clamp, zero_net_volume=zero_net_volume)
        a_ub, b_ub, a_eq, b_eq = dense_layout_oracle(net, pop, params, zero_net_volume)
        ub_rows, eq_rows, columns = carried_layout(net, pop, params, zero_net_volume)
        assert np.array_equal(prob.a_ub, a_ub[np.ix_(ub_rows, columns)])
        assert np.array_equal(prob.a_eq, a_eq[np.ix_(eq_rows, columns)])
        assert np.array_equal(prob.b_ub, b_ub[ub_rows])
        assert np.array_equal(prob.b_eq, b_eq[eq_rows])
        for a in (prob.a_ub_csr, prob.a_eq_csr):
            # canonical CSR is what csr_array makes of the dense matrix
            assert a.has_canonical_format
            assert np.all(a.data != 0)

    def test_named_blocks_tile_the_lp(self, lateral):
        net, pop = lateral
        prob = assemble(net, pop, TdopfParams(polygon_edges=8))
        # 7 of the 9 bus and line phases are carried: abc, c, abc
        n, flows = pop.n, 7
        assert prob.cols == {"alpha": slice(0, n), "p": slice(n, n + flows),
                             "q": slice(n + flows, n + 2 * flows)}
        assert prob.ub_rows == {"voltage_box": slice(0, 14),
                                "line_polygon": slice(14, 14 + 8 * flows),
                                "substation_polygon": slice(70, 94)}
        assert prob.a_ub_csr.shape == (94, n + 2 * flows)
        assert prob.a_eq_csr.shape == (14, n + 2 * flows)
        assert prob.bounds[n:] == [(None, None)] * (2 * flows)

    @pytest.mark.parametrize("feeder", ["lateral", "bundled"])
    def test_dropped_rows_are_redundant(self, lateral, feeder):
        """Every row left out once the absent-phase flow columns are gone is
        empty with a feasible right-hand side, or a kept row again."""
        if feeder == "lateral":
            net, pop = lateral
        else:
            net = load_network(bundled_feeder())
            pop = generate_population(GenerationSpec(n_bids=8, n_offers=4, seed=3), net)
        params = TdopfParams()
        a_ub, b_ub, a_eq, b_eq = dense_layout_oracle(net, pop, params)
        ub_rows, eq_rows, columns = carried_layout(net, pop, params)
        dropped_columns = np.setdiff1d(np.arange(a_ub.shape[1]), columns)
        assert len(dropped_columns) == (226 if feeder == "bundled" else 4)
        checked = 0
        for a, b, kept, equality in ((a_ub, b_ub, ub_rows, False),
                                     (a_eq, b_eq, eq_rows, True)):
            a = a[:, columns]
            copies = {(a[r].tobytes(), b[r]) for r in kept}
            for r in np.setdiff1d(np.arange(len(b)), kept):
                if not a[r].any():
                    assert b[r] == 0.0 if equality else b[r] >= 0.0, r
                else:
                    assert (a[r].tobytes(), b[r]) in copies, r
                checked += 1
        assert checked == (1808 if feeder == "bundled" else 32)
    def test_dense_views_are_read_only(self, lateral):
        net, pop = lateral
        prob = assemble(net, pop, TdopfParams())
        with pytest.raises(ValueError):
            prob.a_ub[0, 0] = 1.0

    @pytest.mark.parametrize("clamp, zero_net_volume", [
        ({"o1": 0.0, "o2": 0.0}, ()),
        ({"b1": 0.0, "b2": 0.0}, ()),
        ({"b2": 0.4, "o2": 0.0}, ("b1", "o1")),
    ], ids=["bids-only", "offers-only", "ex-post"])
    def test_clamped_matches_fresh_assembly(self, lateral, clamp, zero_net_volume):
        net, pop = lateral
        params = TdopfParams()
        joint = assemble(net, pop, params)
        # derived from another bin's LP: its clamps are replaced, not kept
        derived = clamped(clamped(joint, {"b1": 1.0, "o1": 0.5}), clamp, zero_net_volume)
        fresh = assemble(net, pop, params, clamp=clamp, zero_net_volume=zero_net_volume)
        assert np.array_equal(derived.c, fresh.c)
        for name in ("a_eq_csr", "a_ub_csr"):
            a, b = getattr(derived, name), getattr(fresh, name)
            assert a.shape == b.shape
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(a, part), getattr(b, part))
                assert getattr(a, part).dtype == getattr(b, part).dtype
        assert np.array_equal(derived.b_eq, fresh.b_eq)
        assert np.array_equal(derived.b_ub, fresh.b_ub)
        assert derived.bounds == fresh.bounds
        assert derived.bounds[:pop.n] == [(clamp[d.id],) * 2 if d.id in clamp
                                          else (0.0, 1.0) for d in pop.ders]
        # only the bounds and the volume row differ from the joint LP
        assert derived.a_ub_csr is joint.a_ub_csr and derived.c is joint.c
        assert derived.bounds[pop.n:] == joint.bounds[pop.n:]

    def test_clamped_checks_its_inputs(self, lateral):
        net, pop = lateral
        joint = assemble(net, pop, TdopfParams())
        with pytest.raises(SchemaError):
            clamped(joint, {"zz": 0.0})
        with pytest.raises(DomainError):
            clamped(joint, {"b1": 1.5})
        with pytest.raises(SchemaError):
            clamped(joint, {}, ("b1", "zz"))
        with pytest.raises(StateError):
            clamped(clamped(joint, {}, ("b1", "o1")), {"b2": 0.0})


def full_layout_solution(net, pop, params, clamp=None):
    """Solve the LP over every 3N flow slot, with the flows on phases no line
    carries pinned at zero, as the acceptance LP was built before it kept
    carried phases only.  Returns that LP's solution in the 3N layout of
    `TdopfSolution`, with the duals of every row it has."""
    a_ub, b_ub, a_eq, b_eq = dense_layout_oracle(net, pop, params)
    n, n3, edges = pop.n, 3 * net.n, params.polygon_edges
    carried = assemble(net, pop, params, clamp=clamp)
    c = np.zeros(n + 2 * n3)
    c[:n] = carried.c[carried.cols["alpha"]]
    c[n:n + n3] = (params.m_cents_per_kwh * net.s_base_kva * params.delta_t_hours
                   * (dense_matrices_oracle(net)[0]["c0"] @ np.ones(3)))
    flow_bounds = [(0.0, 0.0)] * n3
    for _, _, row in net.line_rows():
        flow_bounds[row] = (None, None)
    res = solve_lp(c, sparse.csr_array(a_ub), b_ub, sparse.csr_array(a_eq), b_eq,
                   carried.bounds[:n] + flow_bounds * 2)
    assert res.status == "optimal"
    x, lam, mu = res.x, res.eq_marginals, -res.ub_marginals
    return TdopfSolution(
        status="optimal", alpha={d.id: float(a) for d, a in zip(pop.ders, x[:n])},
        p_flow=x[n:n + n3], q_flow=x[n + n3:],
        lambda_p=lam[:n3], lambda_q=lam[n3:2 * n3],
        mu_v_upper=mu[:n3], mu_v_lower=mu[n3:2 * n3],
        mu_line=mu[2 * n3:(2 + edges) * n3].reshape(edges, n3),
        mu_sub=mu[(2 + edges) * n3:].reshape(edges, 3),
        alpha_lo=res.lower_marginals[:n], alpha_up=-res.upper_marginals[:n],
        objective_cents=res.fun)


def assert_layouts_agree(net, pop, params, clamp=None):
    """The carried-phase LP and the full-layout LP reach the same
    acceptances and objective, and each solution meets the optimality
    conditions of the carried-phase LP.  Their duals need not agree: where
    the LP is dual-degenerate each solve may return another optimal one."""
    problem = assemble(net, pop, params, clamp=clamp)
    carried = solve(problem)
    full = full_layout_solution(net, pop, params, clamp)
    assert carried.status == "optimal"
    for sol in (carried, full):
        for key, val in kkt_residuals(problem, sol).items():
            assert val <= 1e-9, f"{key} = {val}"
    assert max(abs(carried.alpha[d] - full.alpha[d]) for d in carried.alpha) <= 1e-9
    assert carried.objective_cents == pytest.approx(full.objective_cents, rel=1e-12)
    return carried, full


@st.composite
def lateral_feeders(draw):
    """A small random radial feeder whose laterals carry one phase, or
    the phases of their parent bus."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_bus = draw(st.integers(min_value=2, max_value=7))
    phases = ["abc"]
    buses, lines = [bus_rec(0)], []
    for i in range(1, n_bus):
        parent = int(rng.integers(0, i))
        ph = phases[parent]
        if rng.random() < 0.6:
            ph = str(rng.choice(list(ph)))
        phases.append(ph)
        mask = np.array([p in ph for p in "abc"])
        scale = float(rng.uniform(0.1, 0.6)) * np.outer(mask, mask)
        buses.append(bus_rec(i, phases=ph,
                             p_kw={p: float(-rng.uniform(5.0, 60.0)) for p in ph},
                             q_kvar={p: float(-rng.uniform(0.0, 20.0)) for p in ph}))
        lines.append({"from": parent, "to": i, "phases": ph,
                      "r_ohm": (R_OHM_MILE * scale).tolist(),
                      "x_ohm": (X_OHM_MILE * scale).tolist(),
                      "s_max_kva": {p: float(rng.uniform(100.0, 600.0)) for p in ph}})
    return feeder_doc(buses=buses, lines=lines)


class TestCarriedLayout:
    def test_dual_degenerate_offers_bin(self):
        """ref123-crowd interval 1367864807: the offers-only bin's balance
        duals move by up to 900 between the two layouts, and so do five
        cutoffs; acceptances and objective do not."""
        net = load_network(bundled_feeder())
        pop = generate_population(GenerationSpec(n_bids=600, n_offers=600,
                                                 seed=1367864807), net)
        bids_out = {d.id: 0.0 for d in pop.ders if d.side == "bid"}
        assert_layouts_agree(net, pop, TdopfParams(), bids_out)

    @given(lateral_feeders(), st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(["joint", "bid", "offer"]))
    @settings(max_examples=40, deadline=None)
    def test_layouts_agree_on_lateral_feeders(self, doc, seed, side):
        net = load_network(doc)
        pop = generate_population(GenerationSpec(n_bids=4, n_offers=4, seed=seed,
                                                 volume_mean_kw=150.0, volume_sd_kw=100.0,
                                                 volume_lo_kw=20.0, volume_hi_kw=400.0), net)
        idle = solve(assemble(net, pop, TdopfParams(),
                              clamp={d.id: 0.0 for d in pop.ders}))
        assume(idle.status == "optimal")
        clamp = {d.id: 0.0 for d in pop.ders if d.side != side} if side != "joint" else None
        assert_layouts_agree(net, pop, TdopfParams(), clamp)
