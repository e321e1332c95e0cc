"""Distributed energy resources: bids, offers, and their market attributes.

A DER is a price-quantity pair at a bus: bids buy energy (negative signed
volume), offers sell it (positive).  Volumes split evenly across the DER's
phases, and reactive output follows real output through a constant
power-factor ratio.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, SchemaError, read_document, require_int, require_real
from .network import PHASES, Network, parse_phases, phase_rows

DERS_SCHEMA = "gridclear-ders/1"

SIDES = ("bid", "offer")

_split_digit_runs = re.compile(r"(\d+)").split


def _natural_order(der: "Der") -> tuple:
    """Sort key of a DER by its id: digit runs compare as integers, so
    der-999 comes before der-1000; ids that still tie compare as strings."""
    parts = _split_digit_runs(der.id)
    parts[1::2] = map(int, parts[1::2])
    return parts, der.id


def reactive_ratio(power_factor: float) -> float:
    """Ratio of reactive to real power at a lagging power factor.

    sqrt(1 / pf^2 - 1); 0.9 gives about 0.4843.
    """
    if not 0.0 < power_factor <= 1.0:
        raise DomainError(f"power factor must be in (0, 1], got {power_factor}")
    return math.sqrt(1.0 / power_factor**2 - 1.0)


@dataclass(frozen=True)
class Der:
    """One bid or offer.

    volume_kw is signed: negative for bids (consumption), positive for
    offers (injection).  price is in cents per kWh and applies to the
    whole volume.
    """

    id: str
    bus: int
    phases: tuple[str, ...]
    side: str
    price: float
    volume_kw: float
    power_factor: float

    def __post_init__(self):
        if self.side not in SIDES:
            raise DomainError(f"DER {self.id}: side must be one of {SIDES}, got {self.side!r}")
        require_real(f"DER {self.id}: volume_kw", self.volume_kw)
        require_real(f"DER {self.id}: price", self.price)
        if self.volume_kw == 0.0:
            raise DomainError(f"DER {self.id}: zero volume")
        if self.side == "bid" and self.volume_kw > 0:
            raise DomainError(f"DER {self.id}: bids carry negative signed volume")
        if self.side == "offer" and self.volume_kw < 0:
            raise DomainError(f"DER {self.id}: offers carry positive signed volume")
        if self.price < 0:
            raise DomainError(f"DER {self.id}: negative price")
        if not self.phases or any(p not in PHASES for p in self.phases):
            raise DomainError(f"DER {self.id}: invalid phase set {self.phases!r}")
        if not 0.0 < self.power_factor <= 1.0:
            raise DomainError(f"DER {self.id}: power factor out of range")

    @property
    def eta(self) -> float:
        return reactive_ratio(self.power_factor)


def gamma_price(der: Der, big_m: float) -> float:
    """Objective price coefficient: bids at their stated price, offers
    discounted by big_m / volume so grid-feasible offers are preferred."""
    if der.side == "bid":
        return der.price
    return der.price - big_m / der.volume_kw


@dataclass(frozen=True)
class DerPopulation:
    """All DERs participating in one interval, bound to a feeder.

    Built once by `from_ders`, which sorts the DERs by the natural order of
    their ids (`_natural_order`), so the LP columns, the quotes and every
    export follow one order whatever the order of the input.  It also
    fixes where each DER injects: column j of the read-only (3N x n) real
    scatter holds DER j's signed per-unit volume, split evenly over its
    phase rows at its bus, and the reactive scatter is that column times
    the DER's reactive ratio `Der.eta`.  column_of maps each DER id to its
    column.
    """

    ders: tuple[Der, ...]
    column_of: dict = field(repr=False)
    _gp: np.ndarray = field(repr=False)
    _gq: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.ders)

    @classmethod
    def from_ders(cls, ders, network: Network) -> "DerPopulation":
        ders = tuple(sorted(ders, key=_natural_order))
        gp = np.zeros((3 * network.n, len(ders)))
        for j, der in enumerate(ders):
            share = der.volume_kw / (network.s_base_kva * len(der.phases))
            for _, row in phase_rows(der.bus - 1, der.phases):
                gp[row, j] = share
        gq = gp * np.array([d.eta for d in ders])
        gp.setflags(write=False)
        gq.setflags(write=False)
        return cls(ders=ders, column_of={d.id: j for j, d in enumerate(ders)},
                   _gp=gp, _gq=gq)

    def by_id(self, der_id: str) -> Der:
        return self.ders[self.column_of[der_id]]

    def scatter_p(self) -> np.ndarray:
        """(3N x n) map from acceptance fractions to per-unit real injections."""
        return self._gp

    def scatter_q(self) -> np.ndarray:
        """(3N x n) map from acceptance fractions to per-unit reactive injections."""
        return self._gq

    def subset(self, side: str) -> tuple[Der, ...]:
        return tuple(d for d in self.ders if d.side == side)


def load_ders(source, network: Network) -> DerPopulation:
    """Load a DER document and bind it to a feeder.

    User-facing records state volumes as positive magnitudes with a side
    field; the sign convention is applied here.
    """
    doc = read_document(source, DERS_SCHEMA, "ders")
    recs = doc.get("ders")
    if not isinstance(recs, list):
        raise SchemaError("ders document needs a 'ders' list")

    ders = []
    seen = set()
    for rec in recs:
        if not isinstance(rec, dict):
            raise SchemaError(f"DER record must be an object, got {rec!r}")
        der_id = str(rec.get("id", ""))
        if not der_id:
            raise SchemaError("DER record without id")
        if der_id in seen:
            raise SchemaError(f"duplicate DER id {der_id!r}")
        seen.add(der_id)
        where = f"DER {der_id}"
        try:
            bus = network.index_of(rec["bus"])
        except KeyError:
            raise SchemaError(f"{where}: unknown bus {rec.get('bus')!r}") from None
        if bus == 0:
            raise SchemaError(f"{where}: DERs cannot sit at the head bus")
        phases = parse_phases(rec.get("phases"), where)
        if not set(phases) <= set(network.buses[bus].phases):
            raise SchemaError(f"{where}: phase not present at bus {rec['bus']!r}")
        side = rec.get("side")
        if side not in SIDES:
            raise SchemaError(f"{where}: side must be 'bid' or 'offer'")
        volume = require_real(f"{where}: volume_kw", rec.get("volume_kw"))
        if volume <= 0:
            raise DomainError(f"{where}: volume_kw must be positive")
        signed = -volume if side == "bid" else volume
        ders.append(Der(id=der_id, bus=bus, phases=phases, side=side,
                        price=require_real(f"{where}: price_cents_per_kwh",
                                           rec.get("price_cents_per_kwh")),
                        volume_kw=signed,
                        power_factor=require_real(f"{where}: power_factor",
                                                  rec.get("power_factor"))))
    return DerPopulation.from_ders(ders, network)


def population_document(pop: DerPopulation, network: Network) -> dict:
    """Serialize a population back to its document form (positive volumes)."""
    recs = []
    for d in pop.ders:
        recs.append({
            "id": d.id,
            "bus": network.label_of(d.bus),
            "phases": "".join(d.phases),
            "side": d.side,
            "price_cents_per_kwh": d.price,
            "volume_kw": abs(d.volume_kw),
            "power_factor": d.power_factor,
        })
    return {"schema": DERS_SCHEMA, "ders": recs}


# Smallest share of a sampling normal a truncation window may hold: about
# 1e4 rejected draws per accepted value.
MIN_WINDOW_MASS = 1e-4


@dataclass(frozen=True)
class GenerationSpec:
    """Parameters for sampling a synthetic DER population."""

    n_bids: int
    n_offers: int
    seed: int
    volume_mean_kw: float = 20.0
    volume_sd_kw: float = 10.0
    volume_lo_kw: float = 5.0
    volume_hi_kw: float = 45.0
    price_mean: float = 15.0
    price_sd: float = 5.0
    price_lo: float = 1.0
    price_hi: float = 25.0
    power_factor: float = 0.9

    def __post_init__(self):
        for name in ("n_bids", "n_offers", "seed"):
            require_int(f"generate.{name}", getattr(self, name), 0)
        for name in ("volume_mean_kw", "volume_lo_kw", "volume_hi_kw",
                     "price_mean", "price_lo", "price_hi"):
            require_real(f"generate.{name}", getattr(self, name))
        for name in ("volume_sd_kw", "price_sd", "power_factor"):
            require_real(f"generate.{name}", getattr(self, name), positive=True)
        for mean, sd, lo, hi in (
            ("volume_mean_kw", "volume_sd_kw", "volume_lo_kw", "volume_hi_kw"),
            ("price_mean", "price_sd", "price_lo", "price_hi"),
        ):
            mu, sigma, a, b = (getattr(self, name) for name in (mean, sd, lo, hi))
            if not a < b:
                raise DomainError(f"generate.{lo} must be below generate.{hi}")
            # rejection sampling takes 1 / mass draws per value on average
            mass = ndtr((b - mu) / sigma) - ndtr((a - mu) / sigma)
            if not mass >= MIN_WINDOW_MASS:
                raise DomainError(
                    f"generate.{lo}/{hi}: window [{a}, {b}] holds {mass:.3g} of the "
                    f"normal({mu}, {sigma}) mass, below {MIN_WINDOW_MASS}")


def _truncated_normal(rng, mean, sd, lo, hi) -> float:
    # plain rejection; GenerationSpec bounds the expected number of draws
    while True:
        draw = rng.normal(mean, sd)
        if lo <= draw <= hi:
            return float(draw)


def _nonempty_subsets(phases):
    out = []
    n = len(phases)
    for mask in range(1, 2**n):
        out.append(tuple(p for i, p in enumerate(phases) if mask >> i & 1))
    return out


def generate_population(spec: GenerationSpec, network: Network) -> DerPopulation:
    """Sample a population: volumes and prices from truncated normals,
    locations uniform over non-head buses and their phase subsets.

    All randomness flows from spec.seed through two named child streams, one
    for market attributes and one for placement, so adding DERs of one side
    leaves the other stream's draws alone only if counts change together;
    identical specs always reproduce the identical population.
    """
    seq = np.random.SeedSequence(spec.seed)
    pop_stream, place_stream = [np.random.default_rng(s) for s in seq.spawn(2)]
    eligible = [b.index for b in network.buses[1:]]
    if not eligible:
        raise DomainError("feeder has no non-head buses to place DERs on")

    ders = []
    counter = 0
    for side, count in (("bid", spec.n_bids), ("offer", spec.n_offers)):
        for _ in range(count):
            counter += 1
            if side == "bid":
                vol = _truncated_normal(pop_stream, spec.volume_mean_kw, spec.volume_sd_kw,
                                        spec.volume_lo_kw, spec.volume_hi_kw)
                signed = -vol
            else:
                drawn = _truncated_normal(pop_stream, -spec.volume_mean_kw, spec.volume_sd_kw,
                                          -spec.volume_hi_kw, -spec.volume_lo_kw)
                signed = -drawn
            price = _truncated_normal(pop_stream, spec.price_mean, spec.price_sd,
                                      spec.price_lo, spec.price_hi)
            bus = int(eligible[place_stream.integers(len(eligible))])
            subsets = _nonempty_subsets(network.buses[bus].phases)
            phases = subsets[place_stream.integers(len(subsets))]
            ders.append(Der(id=f"der-{counter:03d}", bus=bus, phases=phases, side=side,
                            price=price, volume_kw=signed,
                            power_factor=spec.power_factor))
    return DerPopulation.from_ders(ders, network)
