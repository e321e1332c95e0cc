"""Three-phase radial feeder model and its linearized flow equations.

The model is the squared-voltage linear branch-flow approximation of an
unbalanced radial feeder.  Everything downstream of ingestion works in
per-unit on the feeder's power base; voltages are carried as squared
per-unit magnitudes.  Consumption is a negative injection throughout.

A feeder with N non-head buses is described by stacked per-phase vectors of
length 3N.  Row 3*(i-1) + phi holds bus i, phase phi (phi = 0, 1, 2 for
a, b, c); the same layout indexes lines, where line l feeds bus l + 1 after
canonical ordering.  `phase_rows`, `Network.bus_rows` and
`Network.line_rows` are the way other modules reach those rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.linalg import block_diag, solve_triangular

from .errors import DomainError, SchemaError, ShapeError, TopologyError

PHASES = ("a", "b", "c")

FEEDER_SCHEMA = "gridclear-feeder/1"

# Elementwise phase-coupling weights: W = [[1, w, w2], [w2, 1, w], [w, w2, 1]]
# with w = exp(2j pi / 3).  Only the real and imaginary parts are needed.
_W = np.array(
    [
        [1.0, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)],
        [np.exp(-2j * np.pi / 3), 1.0, np.exp(2j * np.pi / 3)],
        [np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3), 1.0],
    ]
)
_W_RE = _W.real.copy()
_W_IM = _W.imag.copy()


def phase_rows(slot: int, phases) -> list[tuple[str, int]]:
    """(phase, row) for each of `phases` in block `slot` of the stacked 3N layout.

    Bus i occupies block i - 1 and line l block l; phases come out in
    a, b, c order.
    """
    return [(p, 3 * slot + i) for i, p in enumerate(PHASES) if p in phases]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Bus:
    """A feeder bus with its fixed (price-inelastic) injection."""

    index: int
    label: str
    phases: tuple[str, ...]
    fixed_p: np.ndarray  # (3,) per-unit, negative = consumption
    fixed_q: np.ndarray  # (3,) per-unit
    is_head: bool = False


@dataclass(frozen=True)
class Line:
    """A directed line, stored parent to child, with per-unit impedance."""

    index: int
    from_bus: int
    to_bus: int
    phases: tuple[str, ...]
    r: np.ndarray  # (3, 3) per-unit, zero rows/cols on absent phases
    x: np.ndarray  # (3, 3) per-unit
    s_max: np.ndarray  # (3,) per-phase apparent-power limit, per-unit


@dataclass(frozen=True)
class Network:
    """A validated radial feeder in canonical ordering.

    Attributes
    ----------
    buses : list[Bus]
        Bus 0 is the head; parents precede children.
    lines : list[Line]
        Line l feeds bus l + 1.
    v0, v_min, v_max : float
        Squared per-unit voltage at the head and the box limits applied to
        every non-head bus-phase.
    s0_max : numpy.ndarray
        (3,) per-phase apparent-power limit at the head, per-unit.
    """

    s_base_kva: float
    v_base_kv: float
    v0: float
    v_min: float
    v_max: float
    s0_max: np.ndarray
    buses: list[Bus]
    lines: list[Line]
    _index_of: dict = field(repr=False, default_factory=dict)

    @property
    def n(self) -> int:
        """Number of non-head buses (N)."""
        return len(self.buses) - 1

    def index_of(self, label) -> int:
        return self._index_of[str(label)]

    def label_of(self, index: int) -> str:
        return self.buses[index].label

    def fixed_injections(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked per-unit fixed injections (p, q) over non-head buses, (3N,)."""
        p = np.concatenate([b.fixed_p for b in self.buses[1:]]) if self.n else np.zeros(0)
        q = np.concatenate([b.fixed_q for b in self.buses[1:]]) if self.n else np.zeros(0)
        return p, q

    def total_fixed_load(self) -> tuple[float, float]:
        """Total fixed load as positive (kW, kvar) consumption."""
        p, q = self.fixed_injections()
        return (-p.sum() * self.s_base_kva, -q.sum() * self.s_base_kva)

    def row_of(self, bus: int, phase: str) -> int:
        """Row of (bus, phase) in the stacked 3N layout; bus must be non-head."""
        if bus < 1 or bus > self.n:
            raise DomainError(f"bus index {bus} out of range 1..{self.n}")
        return 3 * (bus - 1) + PHASES.index(phase)

    def bus_rows(self):
        """Yield (bus, phase, row) for every phase each non-head bus carries."""
        for bus in self.buses[1:]:
            for phase, row in phase_rows(bus.index - 1, bus.phases):
                yield bus, phase, row

    def line_rows(self):
        """Yield (line, phase, row) for every phase each line carries."""
        for line in self.lines:
            for phase, row in phase_rows(line.index, line.phases):
                yield line, phase, row

    def path_to_head(self, bus: int) -> list[int]:
        """Bus indices from `bus` up to (excluding) the head."""
        path = []
        while bus != 0:
            path.append(bus)
            bus = self.lines[bus - 1].from_bus
        return path


@dataclass(frozen=True)
class NetworkMatrices:
    """Constant matrices of the linearized model, all built once per feeder.

    c0 is the head block of the branch-bus incidence (3N x 3), c the non-head
    block (3N x 3N, invertible for a tree), c_inv its inverse computed by
    forward substitution, and d_r / d_x the block-diagonal phase-coupled
    impedance matrices.
    """

    c0: np.ndarray
    c: np.ndarray
    c_inv: np.ndarray
    d_r: np.ndarray
    d_x: np.ndarray

    @property
    def n(self) -> int:
        return self.c.shape[0] // 3


def phase_coupled_impedance(r: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the approximate phase-unbalance coupling to a line's R and X.

    Parameters
    ----------
    r, x : numpy.ndarray
        (3, 3) series resistance and reactance of one line (any consistent
        unit; zero rows/cols mark absent phases).

    Returns
    -------
    (r_bar, x_bar) : tuple of numpy.ndarray
        Coupled matrices Re(W) o R + Im(W) o X and Re(W) o X - Im(W) o R.
    """
    r = np.asarray(r, dtype=float)
    x = np.asarray(x, dtype=float)
    if r.shape != (3, 3) or x.shape != (3, 3):
        raise ShapeError(f"expected (3, 3) impedance matrices, got {r.shape} and {x.shape}")
    r_bar = _W_RE * r + _W_IM * x
    x_bar = _W_RE * x - _W_IM * r
    return r_bar, x_bar


def parse_phases(value, where: str) -> tuple[str, ...]:
    """A document's phase set ("ab" or ["a", "b"]) as a tuple in a, b, c order."""
    if isinstance(value, str):
        chars = list(value)
    elif isinstance(value, (list, tuple)):
        chars = [str(c) for c in value]
    else:
        raise SchemaError(f"{where}: phases must be a string or list, got {type(value).__name__}")
    if not chars or any(c not in PHASES for c in chars) or len(set(chars)) != len(chars):
        raise SchemaError(f"{where}: invalid phase set {value!r}")
    return tuple(p for p in PHASES if p in chars)


def _phase_map_to_vec(value, phases, where: str) -> np.ndarray:
    """Per-phase scalar map/list -> (3,) vector, zero on absent phases."""
    vec = np.zeros(3)
    if value is None:
        return vec
    if isinstance(value, dict):
        for key, val in value.items():
            if key not in PHASES:
                raise SchemaError(f"{where}: unknown phase key {key!r}")
            if key not in phases:
                raise SchemaError(f"{where}: value given for absent phase {key!r}")
            vec[PHASES.index(key)] = float(val)
    elif isinstance(value, (int, float)):
        for p in phases:
            vec[PHASES.index(p)] = float(value)
    elif isinstance(value, (list, tuple)) and len(value) == 3:
        vec[:] = [float(v) for v in value]
        for i, p in enumerate(PHASES):
            if vec[i] != 0.0 and p not in phases:
                raise SchemaError(f"{where}: value given for absent phase {p!r}")
    else:
        raise SchemaError(f"{where}: expected per-phase map, scalar, or length-3 list")
    return vec


def _matrix_3x3(value, where: str) -> np.ndarray:
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: not a numeric matrix") from exc
    if m.shape != (3, 3):
        raise SchemaError(f"{where}: expected a 3x3 matrix, got shape {m.shape}")
    return m


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return doc[key]


def load_network(source) -> Network:
    """Load and validate a feeder document.

    Parameters
    ----------
    source : dict | str | pathlib.Path
        A parsed document, or a path to a JSON file with schema tag
        ``gridclear-feeder/1``.

    Returns
    -------
    Network
        Canonically ordered (head first, parents before children, line l
        feeds bus l + 1), converted to per-unit.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaError("feeder document must be a mapping")
    if doc.get("schema") != FEEDER_SCHEMA:
        raise SchemaError(f"expected schema {FEEDER_SCHEMA!r}, got {doc.get('schema')!r}")

    base = _require(doc, "base", "feeder")
    s_base = float(_require(base, "s_base_kva", "base"))
    v_base = float(_require(base, "v_base_kv", "base"))
    if s_base <= 0 or v_base <= 0:
        raise DomainError("s_base_kva and v_base_kv must be positive")
    v0_mag = float(_require(base, "v0_pu", "base"))
    v_min_mag = float(_require(base, "v_min_pu", "base"))
    v_max_mag = float(_require(base, "v_max_pu", "base"))
    if not (0 < v_min_mag <= v0_mag <= v_max_mag):
        raise DomainError(
            f"voltage band must satisfy 0 < v_min <= v0 <= v_max, "
            f"got {v_min_mag}, {v0_mag}, {v_max_mag}"
        )
    z_base_ohm = 1e3 * v_base**2 / s_base

    bus_recs = _require(doc, "buses", "feeder")
    line_recs = _require(doc, "lines", "feeder")
    if not bus_recs:
        raise SchemaError("feeder has no buses")

    labels = []
    by_label = {}
    for rec in bus_recs:
        label = str(_require(rec, "id", "bus"))
        if label in by_label:
            raise SchemaError(f"duplicate bus id {label!r}")
        by_label[label] = rec
        labels.append(label)

    # adjacency in document labels
    children: dict[str, list] = {lab: [] for lab in labels}
    fed: dict[str, dict] = {}
    for rec in line_recs:
        frm = str(_require(rec, "from", "line"))
        to = str(_require(rec, "to", "line"))
        for end in (frm, to):
            if end not in by_label:
                raise SchemaError(f"line references unknown bus {end!r}")
        if frm == to:
            raise TopologyError(f"line from bus {frm!r} to itself")
        if to in fed:
            raise TopologyError(f"bus {to!r} is fed by more than one line")
        fed[to] = rec
        children[frm].append(to)

    if len(line_recs) != len(bus_recs) - 1:
        raise TopologyError(
            f"{len(bus_recs)} buses need {len(bus_recs) - 1} lines, got {len(line_recs)}"
        )
    roots = [lab for lab in labels if lab not in fed]
    if len(roots) != 1:
        raise TopologyError(f"expected exactly one head bus, found {roots!r}")

    # canonical order: breadth-first from the head, document order within a level
    order = [roots[0]]
    seen = {roots[0]}
    cursor = 0
    while cursor < len(order):
        for child in children[order[cursor]]:
            if child in seen:
                raise TopologyError(f"bus {child!r} reached twice; feeder is not a tree")
            seen.add(child)
            order.append(child)
        cursor += 1
    if len(order) != len(labels):
        missing = sorted(set(labels) - seen)
        raise TopologyError(f"buses not connected to the head: {missing!r}")

    index_of = {lab: i for i, lab in enumerate(order)}

    buses = []
    for i, lab in enumerate(order):
        rec = by_label[lab]
        phases = parse_phases(rec.get("phases", "abc"), f"bus {lab}")
        p = _phase_map_to_vec(rec.get("fixed_p_kw"), phases, f"bus {lab} fixed_p_kw") / s_base
        q = _phase_map_to_vec(rec.get("fixed_q_kvar"), phases, f"bus {lab} fixed_q_kvar") / s_base
        buses.append(Bus(index=i, label=lab, phases=phases,
                         fixed_p=_frozen(p), fixed_q=_frozen(q), is_head=(i == 0)))

    lines = [None] * (len(order) - 1)
    for to_lab, rec in fed.items():
        child = index_of[to_lab]
        parent = index_of[str(rec["from"])]
        where = f"line {rec['from']}-{rec['to']}"
        phases = parse_phases(rec.get("phases", "abc"), where)
        for end in (parent, child):
            if not set(phases) <= set(buses[end].phases):
                raise SchemaError(f"{where}: carries a phase absent at bus {buses[end].label!r}")
        r = _matrix_3x3(_require(rec, "r_ohm", where), f"{where} r_ohm") / z_base_ohm
        x = _matrix_3x3(_require(rec, "x_ohm", where), f"{where} x_ohm") / z_base_ohm
        mask = np.array([p in phases for p in PHASES])
        off = ~np.outer(mask, mask)
        if np.any(np.abs(r[off]) > 1e-12) or np.any(np.abs(x[off]) > 1e-12):
            raise SchemaError(f"{where}: nonzero impedance on absent phase")
        if "s_max_kva" in rec:
            s_max = _phase_map_to_vec(rec["s_max_kva"], phases, f"{where} s_max_kva") / s_base
        elif "ampacity_a" in rec:
            amps = _phase_map_to_vec(rec["ampacity_a"], phases, f"{where} ampacity_a")
            s_max = amps * v_base / s_base  # kV * A = kVA per phase
        else:
            raise SchemaError(f"{where}: needs s_max_kva or ampacity_a")
        if np.any(s_max < 0):
            raise DomainError(f"{where}: negative flow limit")
        lines[child - 1] = Line(index=child - 1, from_bus=parent, to_bus=child,
                                phases=phases, r=_frozen(r), x=_frozen(x),
                                s_max=_frozen(s_max))

    s0_max = _phase_map_to_vec(_require(base, "s0_max_kva", "base"), PHASES, "s0_max_kva") / s_base
    if np.any(s0_max < 0):
        raise DomainError("negative head flow limit")

    return Network(
        s_base_kva=s_base,
        v_base_kv=v_base,
        v0=v0_mag**2,
        v_min=v_min_mag**2,
        v_max=v_max_mag**2,
        s0_max=_frozen(s0_max),
        buses=buses,
        lines=lines,
        _index_of=index_of,
    )


def build_matrices(network: Network) -> NetworkMatrices:
    """Build the constant matrices of the linearized model.

    The incidence blocks use +I3 where a line originates and -I3 where it
    feeds; with the canonical ordering c is lower triangular, so its inverse
    comes from forward substitution rather than dense inversion.
    """
    n = network.n
    if n == 0:
        raise TopologyError("feeder has no non-head buses")
    c0 = np.zeros((3 * n, 3))
    c = np.zeros((3 * n, 3 * n))
    for line in network.lines:
        l = line.index
        c[3 * l:3 * l + 3, 3 * (line.to_bus - 1):3 * line.to_bus] = -np.eye(3)
        if line.from_bus == 0:
            c0[3 * l:3 * l + 3, :] = np.eye(3)
        else:
            c[3 * l:3 * l + 3, 3 * (line.from_bus - 1):3 * line.from_bus] = np.eye(3)
    c_inv = solve_triangular(c, np.eye(3 * n), lower=True)
    coupled = [phase_coupled_impedance(line.r, line.x) for line in network.lines]
    d_r = block_diag(*[rb for rb, _ in coupled])
    d_x = block_diag(*[xb for _, xb in coupled])
    return NetworkMatrices(c0=_frozen(c0), c=_frozen(c), c_inv=_frozen(c_inv),
                           d_r=_frozen(d_r), d_x=_frozen(d_x))


def voltage_rows(network: Network, v) -> list[dict]:
    """Per-unit voltage magnitude of every carried bus phase, from squared v."""
    return [{"bus": bus.label, "phase": phase,
             "v_pu": float(np.sqrt(v[row])) if v[row] > 0 else 0.0}
            for bus, phase, row in network.bus_rows()]


def _check_flow_shape(m: NetworkMatrices, *vecs):
    for v in vecs:
        if np.shape(v) != (3 * m.n,):
            raise ShapeError(f"expected shape ({3 * m.n},), got {np.shape(v)}")


def lindistflow_voltages(m: NetworkMatrices, v0: float, p_flow, q_flow) -> np.ndarray:
    """Squared voltages at non-head buses given per-phase line flows.

    v = v0 * 1 + 2 * c_inv (d_r P + d_x Q); with the sign conventions here a
    positive flow toward a consuming bus lowers the downstream voltage.
    """
    p_flow = np.asarray(p_flow, dtype=float)
    q_flow = np.asarray(q_flow, dtype=float)
    _check_flow_shape(m, p_flow, q_flow)
    return v0 + 2.0 * (m.c_inv @ (m.d_r @ p_flow + m.d_x @ q_flow))


def head_injection(m: NetworkMatrices, p_flow, q_flow) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase (p0, q0) drawn from the transmission system at the head."""
    p_flow = np.asarray(p_flow, dtype=float)
    q_flow = np.asarray(q_flow, dtype=float)
    _check_flow_shape(m, p_flow, q_flow)
    return m.c0.T @ p_flow, m.c0.T @ q_flow


def flows_from_injections(m: NetworkMatrices, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase line flows that balance the given non-head injections.

    Solves c^T P = p by back-substitution; for a tree the flows are unique,
    so this is the accumulation of downstream injections along each line.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    _check_flow_shape(m, p, q)
    P = solve_triangular(m.c, p, lower=True, trans="T")
    Q = solve_triangular(m.c, q, lower=True, trans="T")
    return P, Q
