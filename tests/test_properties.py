import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridclear.ders import Der, gamma_price, reactive_ratio
from gridclear.network import build_matrices, flows_from_injections, load_network
from gridclear.pipeline import (
    PRICE_TOL,
    AffineLmp,
    IdsoQuote,
    _net_demand,
    aggregate_curves,
    resolve_lmp,
)
from gridclear.tdopf import polygon_coefficients

from conftest import assert_tree_matches_dense, dense_matrices_oracle, random_tree_doc


@st.composite
def tree_docs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n_bus = draw(st.integers(min_value=2, max_value=7))
    rng = np.random.default_rng(seed)
    return random_tree_doc(rng, n_bus)


class TestIncidenceProperties:
    @given(tree_docs())
    @settings(max_examples=40, deadline=None)
    def test_every_tree_telescopes_to_the_head(self, doc):
        net = load_network(doc)
        m = build_matrices(net)
        dense, _ = dense_matrices_oracle(net)
        assert_tree_matches_dense(m, dense)
        stacked = np.tile(np.eye(3), (net.n, 1))
        assert np.max(np.abs(dense["c0"] + dense["c"] @ stacked)) < 1e-12
        assert np.max(np.abs(m.t0 + m.t @ np.ones(net.n))) < 1e-12

    @given(tree_docs(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_flows_conserve_any_injection(self, doc, seed):
        net = load_network(doc)
        m = build_matrices(net)
        rng = np.random.default_rng(seed)
        p = rng.normal(size=3 * net.n)
        q = rng.normal(size=3 * net.n)
        P, Q = flows_from_injections(m, p, q)
        dense, _ = dense_matrices_oracle(net)
        # at every bus, inflow minus outflows equals the local injection
        assert np.max(np.abs(dense["c"].T @ P - p)) < 1e-9
        assert np.max(np.abs(dense["c"].T @ Q - q)) < 1e-9
        # lossless network: the head supplies the total withdrawal
        p0 = dense["c0"].T @ P
        assert p0.sum() == pytest.approx(-p.sum(), abs=1e-9)


class TestPolygonProperties:
    @given(st.integers(min_value=3, max_value=48),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=200)
    def test_support_between_apothem_and_vertex(self, edges, theta):
        beta, delta, gamma = polygon_coefficients(edges)
        reach = float(np.max(beta * math.cos(theta) + delta * math.sin(theta)))
        assert math.cos(math.pi / edges) - 1e-12 <= reach <= 1.0 + 1e-12

    @given(st.integers(min_value=3, max_value=48))
    def test_rows_close_around_the_circle(self, edges):
        beta, delta, gamma = polygon_coefficients(edges)
        assert np.hypot(beta, delta) == pytest.approx(np.ones(edges), abs=1e-12)
        assert float(beta.sum()) == pytest.approx(0.0, abs=1e-9)
        assert float(delta.sum()) == pytest.approx(0.0, abs=1e-9)


class TestPriceProperties:
    @given(st.floats(min_value=0.05, max_value=1.0))
    def test_reactive_ratio_matches_power_triangle(self, pf):
        eta = reactive_ratio(pf)
        assert math.hypot(pf, pf * eta) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=5.0, max_value=500.0),
           st.floats(min_value=1.0, max_value=5000.0))
    def test_offer_discount_grows_with_big_m(self, price, volume, big_m):
        offer = Der(id="o", bus=1, phases=("a",), side="offer", price=price,
                    volume_kw=volume, power_factor=0.9)
        g1 = gamma_price(offer, big_m)
        g2 = gamma_price(offer, big_m * 2.0)
        assert g1 == pytest.approx(price - big_m / volume, abs=1e-9)
        assert g2 < g1 < price

    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_bid_price_passes_through(self, price):
        bid = Der(id="b", bus=1, phases=("a",), side="bid", price=price,
                  volume_kw=-20.0, power_factor=0.9)
        assert gamma_price(bid, 1000.0) == price


@st.composite
def quote_books(draw):
    quotes = []
    n = draw(st.integers(min_value=0, max_value=8))
    for i in range(n):
        side = draw(st.sampled_from(["bid", "offer"]))
        price = draw(st.floats(min_value=0.5, max_value=30.0))
        qty = draw(st.floats(min_value=1.0, max_value=80.0))
        quotes.append(IdsoQuote(der_id=f"d{i}", side=side,
                                price_cents_per_kwh=round(price, 3),
                                quantity_kw=-qty if side == "bid" else qty))
    return quotes


@st.composite
def close_price_books(draw):
    """(quotes, anchor): every quote price is the anchor plus 0 to 10 steps
    of 1e-8, so distinct prices sit within 1e-7 of each other and at least
    1e-8 apart, well clear of PRICE_TOL."""
    anchor = round(draw(st.floats(min_value=1.0, max_value=30.0)), 3)
    quotes = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        side = draw(st.sampled_from(["bid", "offer"]))
        price = anchor + draw(st.integers(min_value=0, max_value=10)) * 1e-8
        qty = draw(st.floats(min_value=1.0, max_value=80.0))
        quotes.append(IdsoQuote(der_id=f"d{i}", side=side, price_cents_per_kwh=price,
                                quantity_kw=-qty if side == "bid" else qty))
    return quotes, anchor


def piece_probe(lo, hi):
    """A price inside the open piece (lo, hi) of a step curve; None is an
    open end."""
    if lo is None:
        return hi - 1.0
    if hi is None:
        return lo + 1.0
    return 0.5 * (lo + hi)


class TestClearingProperties:
    @given(quote_books())
    @settings(max_examples=150)
    def test_curves_are_monotone_staircases(self, quotes):
        bid_curve, offer_curve = aggregate_curves(quotes)
        bid_prices = [s.price for s in bid_curve]
        offer_prices = [s.price for s in offer_curve]
        assert bid_prices == sorted(bid_prices, reverse=True)
        assert offer_prices == sorted(offer_prices)
        for curve in (bid_curve, offer_curve):
            total = 0.0
            for step in curve:
                total += step.quantity_kw
                assert step.cumulative_kw == pytest.approx(total, abs=1e-9)

    @given(quote_books(),
           st.floats(min_value=-5.0, max_value=25.0),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=300.0))
    @settings(max_examples=150)
    def test_affine_price_lands_in_the_monotone_bracket(self, quotes, a, b, base):
        lmp = resolve_lmp(quotes, AffineLmp(intercept=a, slope=b, base_load_kw=base))
        prices = [q.price_cents_per_kwh for q in quotes]
        lo_probe = (min(prices) - 1.0) if prices else 0.0
        hi_probe = (max(prices) + 1.0) if prices else 0.0
        from gridclear.pipeline import _net_demand

        hi = a + b * _net_demand(quotes, base, lo_probe)
        lo = a + b * _net_demand(quotes, base, hi_probe)
        assert lo - 1e-9 <= lmp <= hi + 1e-9
        # same book, same model, same price
        again = resolve_lmp(quotes, AffineLmp(intercept=a, slope=b, base_load_kw=base))
        assert again == lmp

    @given(close_price_books(),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.01, max_value=4.0))
    @settings(max_examples=300)
    def test_affine_price_is_a_fixed_point_between_close_prices(self, book, below,
                                                                 swing):
        quotes, anchor = book
        a = anchor - below
        b = swing / sum(abs(q.quantity_kw) for q in quotes)
        lmp = resolve_lmp(quotes, AffineLmp(intercept=a, slope=b))
        # supply must meet the step curve: at or below lmp on the open piece
        # just above it, at or above lmp on the piece just below
        prices = sorted({q.price_cents_per_kwh for q in quotes})
        lo = max((p for p in prices if p < lmp), default=None)
        hi = min((p for p in prices if p > lmp), default=None)
        if lmp in prices:
            probe_below, probe_above = piece_probe(lo, lmp), piece_probe(lmp, hi)
        else:
            probe_below = probe_above = piece_probe(lo, hi)
        assert a + b * _net_demand(quotes, 0.0, probe_above) <= lmp + PRICE_TOL
        assert lmp <= a + b * _net_demand(quotes, 0.0, probe_below) + PRICE_TOL
