"""Workload definitions: the in-memory scenario documents one run feeds to
`gridclear.run_scenario`.

Every interval gets a fresh population seed drawn from the workload seed,
so a run averages over inputs instead of timing one lucky draw.  The
synthetic tree is drawn from the same interval seed, so `tree300` also
averages over feeder shapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import gridclear as gc

# Impedances (ohm/mile) of a 336,400 26/7 ACSR overhead three-phase line,
# the stock conductor of the synthetic trees.
_R_OHM_MILE = np.array([[0.4576, 0.1560, 0.1535],
                        [0.1560, 0.4666, 0.1580],
                        [0.1535, 0.1580, 0.4615]])
_X_OHM_MILE = np.array([[1.0780, 0.5017, 0.3849],
                        [0.5017, 1.0482, 0.4236],
                        [0.3849, 0.4236, 1.0651]])


def random_tree_feeder(seed, n_bus: int, load_scale: float) -> dict:
    """A random radial three-phase feeder document drawn from `seed`.

    The parent of bus i is uniform over 0..i-1, per-phase loads are
    uniform in 5..60 kW times `load_scale` at power factor ~0.93, and each
    line is the stock conductor scaled by 0.1..0.6 miles.  With
    `load_scale` 0.08 and 300 buses the 5 MVA head limit holds.
    """
    rng = np.random.default_rng(seed)
    buses = [{"id": 0, "phases": "abc"}]
    lines = []
    for i in range(1, n_bus):
        parent = int(rng.integers(0, i))
        p = {ph: float(-rng.uniform(5.0, 60.0) * load_scale) for ph in "abc"}
        buses.append({"id": i, "phases": "abc", "fixed_p_kw": p,
                      "fixed_q_kvar": {ph: 0.4 * p[ph] for ph in "abc"}})
        scale = float(rng.uniform(0.1, 0.6))
        lines.append({"from": parent, "to": i, "phases": "abc",
                      "r_ohm": (_R_OHM_MILE * scale).tolist(),
                      "x_ohm": (_X_OHM_MILE * scale).tolist(),
                      "s_max_kva": 3000.0})
    return {
        "schema": "gridclear-feeder/1",
        "base": {"s_base_kva": 1000.0, "v_base_kv": 2.401, "v0_pu": 1.03,
                 "v_min_pu": 0.95, "v_max_pu": 1.05, "s0_max_kva": 5000.0},
        "buses": buses,
        "lines": lines,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    n_bids: int
    n_offers: int
    lmp: float | dict
    tree_buses: int = 0  # 0: the bundled 123-bus feeder

    def scenario(self, interval_seed: int, bundled: dict) -> dict:
        """The scenario document of one interval, DERs stored inline."""
        feeder = self._tree(interval_seed) if self.tree_buses else bundled
        spec = gc.GenerationSpec(n_bids=self.n_bids, n_offers=self.n_offers,
                                 seed=interval_seed)
        network = gc.load_network(feeder)
        ders = gc.population_document(gc.generate_population(spec, network), network)
        return {"schema": "gridclear-scenario/1", "feeder": feeder, "ders": ders,
                "market": {"m_cents_per_kwh": 2.5, "lmp": self.lmp}, "case": "C"}

    def _tree(self, interval_seed: int) -> dict:
        """The first random tree of the seed whose fixed loads alone respect
        every limit.  About one tree in ten sags below the voltage floor
        on a deep branch, and then no acceptance solve is feasible."""
        for attempt in itertools.count():
            feeder = random_tree_feeder([interval_seed, attempt],
                                        self.tree_buses, 0.08)
            network = gc.load_network(feeder)
            idle = gc.DerPopulation.from_ders((), network)
            if not gc.dispatch_check(network, idle, {}, gc.TdopfParams()):
                return feeder


# Why each workload exists is in BENCHMARK.json and NOTES.md: ref123-paper is
# bound by the network LPs and bypasses the ex-post step, ref123-crowd drives
# the DER-side paths (withholding, ex-post LP, affine clearing, retail), and
# tree300 makes the dense O(N^2) network matrices and assembly dominate.
WORKLOADS = {w.name: w for w in (
    Workload("ref123-paper", n_bids=40, n_offers=15, lmp=13.0),
    Workload("ref123-crowd", n_bids=600, n_offers=600,
             lmp={"intercept": 8.0, "slope": 0.004, "base_load_kw": 1347.5}),
    Workload("tree300", n_bids=150, n_offers=150, lmp=13.0, tree_buses=300),
)}


def interval_seeds(seed: int):
    """Endless stream of per-interval population seeds for a workload seed."""
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(0, 2**31))
