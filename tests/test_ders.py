import json
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import kstest, norm

from gridclear.errors import DomainError, SchemaError
from gridclear.ders import (
    Der,
    DerPopulation,
    GenerationSpec,
    gamma_price,
    generate_population,
    load_ders,
    population_document,
    reactive_ratio,
)
from gridclear.network import load_network

from conftest import bus_rec, feeder_doc, line_rec, random_tree_doc


def make_der(side="offer", volume=29.0, price=18.6, phases=("c",), bus=1, pf=0.9, id="d1"):
    signed = -abs(volume) if side == "bid" else abs(volume)
    return Der(id=id, bus=bus, phases=tuple(phases), side=side,
               price=price, volume_kw=signed, power_factor=pf)


class TestReactiveRatio:
    def test_frozen_value_at_09(self):
        assert reactive_ratio(0.9) == pytest.approx(0.48432210483785254, abs=1e-12)

    def test_unity_pf_gives_zero(self):
        assert reactive_ratio(1.0) == 0.0

    def test_out_of_range(self):
        for bad in (0.0, -0.5, 1.01):
            with pytest.raises(DomainError):
                reactive_ratio(bad)


def bus_injection(der, net):
    """The real-scatter column of a one-DER population, cut to the DER's bus rows."""
    gp = DerPopulation.from_ders([der], net).scatter_p()
    rows = slice(3 * (der.bus - 1), 3 * der.bus)
    assert_allclose(np.delete(gp[:, 0], np.arange(gp.shape[0])[rows]), 0.0)
    return gp[rows, 0]


class TestPerPhaseInjection:
    def test_single_phase_offer(self, small_net):
        # 29 kW on phase c at a 1000 kVA base
        vec = bus_injection(make_der(), small_net)
        assert_allclose(vec, [0.0, 0.0, 0.029], atol=1e-15)

    def test_two_phase_bid_splits_evenly(self, small_net):
        der = make_der(side="bid", volume=30.0, phases=("a", "b"))
        vec = bus_injection(der, small_net)
        assert_allclose(vec, [-0.015, -0.015, 0.0], atol=1e-15)

    def test_sum_recovers_total(self, small_net):
        der = make_der(side="bid", volume=42.0, phases=("a", "b", "c"))
        vec = bus_injection(der, small_net)
        assert vec.sum() == pytest.approx(-42.0 / 1000.0, abs=1e-15)


class TestGammaPrice:
    def test_bid_is_its_price(self):
        der = make_der(side="bid", price=12.5)
        assert gamma_price(der, big_m=1000.0) == 12.5

    def test_offer_discounted_by_big_m(self):
        # 18.6 - 1000/29, checked against exact rational arithmetic
        exact = Fraction(186, 10) - Fraction(1000, 29)
        got = gamma_price(make_der(price=18.6, volume=29.0), big_m=1000.0)
        assert got == pytest.approx(float(exact), abs=1e-12)
        assert got == pytest.approx(-15.8828, abs=1e-4)

    def test_offer_gamma_below_bid_gamma_at_same_price(self):
        bid = make_der(side="bid", price=15.0, volume=20.0)
        offer = make_der(side="offer", price=15.0, volume=20.0)
        assert gamma_price(offer, 1000.0) < gamma_price(bid, 1000.0)


class TestDerValidation:
    def test_nonpositive_volume(self):
        with pytest.raises(DomainError):
            Der(id="d", bus=1, phases=("a",), side="bid", price=10.0,
                volume_kw=0.0, power_factor=0.9)

    def test_bid_sign_enforced(self):
        with pytest.raises(DomainError):
            Der(id="d", bus=1, phases=("a",), side="bid", price=10.0,
                volume_kw=5.0, power_factor=0.9)

    def test_negative_price(self):
        with pytest.raises(DomainError):
            make_der(price=-1.0)

    def test_bad_side(self):
        with pytest.raises(DomainError):
            Der(id="d", bus=1, phases=("a",), side="buy", price=10.0,
                volume_kw=-5.0, power_factor=0.9)


@pytest.fixture
def small_net():
    return load_network(feeder_doc(
        buses=[bus_rec(0), bus_rec(1), bus_rec(2, phases="ab")],
        lines=[line_rec(0, 1), {
            "from": 1, "to": 2, "phases": "ab",
            "r_ohm": [[0.2, 0.05, 0], [0.05, 0.2, 0], [0, 0, 0]],
            "x_ohm": [[0.4, 0.1, 0], [0.1, 0.4, 0], [0, 0, 0]],
            "s_max_kva": {"a": 1000.0, "b": 1000.0},
        }],
    ))


def ders_doc(records):
    return {"schema": "gridclear-ders/1", "ders": records}


class TestDocumentIngestion:
    def test_roundtrip_and_sign_convention(self, small_net):
        doc = ders_doc([
            {"id": "b1", "bus": 1, "phases": "a", "side": "bid",
             "price_cents_per_kwh": 12.0, "volume_kw": 20.0, "power_factor": 0.9},
            {"id": "o1", "bus": 2, "phases": "ab", "side": "offer",
             "price_cents_per_kwh": 9.5, "volume_kw": 16.0, "power_factor": 0.95},
        ])
        pop = load_ders(doc, small_net)
        assert pop.n == 2
        b1, o1 = pop.ders
        assert b1.volume_kw == -20.0  # stated as positive consumption, stored signed
        assert o1.volume_kw == 16.0
        assert o1.bus == small_net.index_of(2)
        out = population_document(pop, small_net)
        assert out["schema"] == "gridclear-ders/1"
        assert out["ders"][0]["volume_kw"] == 20.0
        pop2 = load_ders(json.loads(json.dumps(out)), small_net)
        assert pop2.ders[0].volume_kw == b1.volume_kw
        assert pop2.ders[1].phases == o1.phases

    def test_phase_must_exist_at_bus(self, small_net):
        doc = ders_doc([{"id": "x", "bus": 2, "phases": "c", "side": "bid",
                         "price_cents_per_kwh": 10.0, "volume_kw": 5.0,
                         "power_factor": 0.9}])
        with pytest.raises(SchemaError):
            load_ders(doc, small_net)

    def test_unknown_bus(self, small_net):
        doc = ders_doc([{"id": "x", "bus": 99, "phases": "a", "side": "bid",
                         "price_cents_per_kwh": 10.0, "volume_kw": 5.0,
                         "power_factor": 0.9}])
        with pytest.raises(SchemaError):
            load_ders(doc, small_net)

    def test_head_bus_rejected(self, small_net):
        doc = ders_doc([{"id": "x", "bus": 0, "phases": "a", "side": "bid",
                         "price_cents_per_kwh": 10.0, "volume_kw": 5.0,
                         "power_factor": 0.9}])
        with pytest.raises(SchemaError):
            load_ders(doc, small_net)

    def test_duplicate_id(self, small_net):
        rec = {"id": "x", "bus": 1, "phases": "a", "side": "bid",
               "price_cents_per_kwh": 10.0, "volume_kw": 5.0, "power_factor": 0.9}
        with pytest.raises(SchemaError):
            load_ders(ders_doc([rec, dict(rec)]), small_net)


class TestPopulationStructure:
    def test_scatter_blocks(self, small_net):
        doc = ders_doc([
            {"id": "b1", "bus": 1, "phases": "a", "side": "bid",
             "price_cents_per_kwh": 12.0, "volume_kw": 20.0, "power_factor": 0.9},
            {"id": "o1", "bus": 2, "phases": "ab", "side": "offer",
             "price_cents_per_kwh": 9.5, "volume_kw": 16.0, "power_factor": 0.9},
        ])
        pop = load_ders(doc, small_net)
        gp = pop.scatter_p()
        assert gp.shape == (6, 2)
        assert_allclose(gp[0:3, 0], [-0.02, 0.0, 0.0])    # b1 at bus 1
        assert_allclose(gp[3:6, 1], [0.008, 0.008, 0.0])  # o1 at bus 2
        assert_allclose(gp[3:6, 0], 0.0)
        assert_allclose(gp[0:3, 1], 0.0)
        # each column scatters exactly its DER's signed volume
        assert_allclose(gp.sum(axis=0), [-0.02, 0.016])
        assert pop.column_of == {"b1": 0, "o1": 1}
        assert pop.by_id("o1") is pop.ders[1]
        with pytest.raises(ValueError):
            gp[0, 0] = 1.0

    def test_scatter_q_follows_scatter_p(self, small_net):
        doc = ders_doc([
            {"id": "o1", "bus": 2, "phases": "ab", "side": "offer",
             "price_cents_per_kwh": 9.5, "volume_kw": 16.0, "power_factor": 0.9},
        ])
        pop = load_ders(doc, small_net)
        gp = pop.scatter_p()
        gq = pop.scatter_q()
        assert_allclose(gp[:, 0], [0.0, 0.0, 0.0, 0.008, 0.008, 0.0], atol=1e-15)
        assert_allclose(gq[:, 0], gp[:, 0] * reactive_ratio(0.9), atol=1e-15)


class TestGeneration:
    def test_deterministic_for_seed(self, small_net):
        spec = GenerationSpec(n_bids=12, n_offers=9, seed=42)
        p1 = generate_population(spec, small_net)
        p2 = generate_population(spec, small_net)
        assert population_document(p1, small_net) == population_document(p2, small_net)
        p3 = generate_population(GenerationSpec(n_bids=12, n_offers=9, seed=43), small_net)
        assert population_document(p3, small_net) != population_document(p1, small_net)

    def test_counts_sides_and_ranges(self, small_net):
        pop = generate_population(GenerationSpec(n_bids=40, n_offers=25, seed=3), small_net)
        bids = [d for d in pop.ders if d.side == "bid"]
        offers = [d for d in pop.ders if d.side == "offer"]
        assert len(bids) == 40 and len(offers) == 25
        for d in bids:
            assert -45.0 <= d.volume_kw <= -5.0
        for d in offers:
            assert 5.0 <= d.volume_kw <= 45.0
        for d in pop.ders:
            assert 1.0 <= d.price <= 25.0
            assert d.bus != 0
            assert set(d.phases) <= set(small_net.buses[d.bus].phases)
            assert d.power_factor == 0.9

    def test_volumes_match_truncated_normal(self):
        # one large population; distribution check against the closed-form CDF
        net = load_network(random_tree_doc(np.random.default_rng(0), 6))
        pop = generate_population(GenerationSpec(n_bids=4000, n_offers=4000, seed=7), net)
        vols = np.array([-d.volume_kw for d in pop.ders if d.side == "bid"])
        a, b = (5.0 - 20.0) / 10.0, (45.0 - 20.0) / 10.0
        z = norm.cdf(b) - norm.cdf(a)

        def cdf(x):
            return (norm.cdf((np.asarray(x) - 20.0) / 10.0) - norm.cdf(a)) / z

        stat = kstest(vols, cdf).statistic
        assert stat < 0.03
        prices = np.array([d.price for d in pop.ders])
        za, zb = (1.0 - 15.0) / 5.0, (25.0 - 15.0) / 5.0
        zp = norm.cdf(zb) - norm.cdf(za)

        def cdf_p(x):
            return (norm.cdf((np.asarray(x) - 15.0) / 5.0) - norm.cdf(za)) / zp

        assert kstest(prices, cdf_p).statistic < 0.03
