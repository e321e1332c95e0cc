import numpy as np
import pytest
from scipy.linalg import block_diag, solve_triangular

from gridclear.network import phase_coupled_impedance

# Impedance matrices (ohm/mile) for a 336,400 26/7 ACSR overhead configuration,
# used as the stock three-phase line in the small fixtures.
R_OHM_MILE = np.array(
    [
        [0.4576, 0.1560, 0.1535],
        [0.1560, 0.4666, 0.1580],
        [0.1535, 0.1580, 0.4615],
    ]
)
X_OHM_MILE = np.array(
    [
        [1.0780, 0.5017, 0.3849],
        [0.5017, 1.0482, 0.4236],
        [0.3849, 0.4236, 1.0651],
    ]
)


def feeder_doc(buses, lines, *, s_base_kva=1000.0, v_base_kv=2.401,
               v0_pu=1.03, v_min_pu=0.95, v_max_pu=1.05, s0_max_kva=5000.0):
    return {
        "schema": "gridclear-feeder/1",
        "base": {
            "s_base_kva": s_base_kva,
            "v_base_kv": v_base_kv,
            "v0_pu": v0_pu,
            "v_min_pu": v_min_pu,
            "v_max_pu": v_max_pu,
            "s0_max_kva": s0_max_kva,
        },
        "buses": buses,
        "lines": lines,
    }


def bus_rec(bid, phases="abc", p_kw=None, q_kvar=None):
    rec = {"id": bid, "phases": phases}
    if p_kw:
        rec["fixed_p_kw"] = p_kw
    if q_kvar:
        rec["fixed_q_kvar"] = q_kvar
    return rec


def line_rec(frm, to, phases="abc", scale=1.0, s_max_kva=2000.0):
    r = (R_OHM_MILE * scale).tolist()
    x = (X_OHM_MILE * scale).tolist()
    return {
        "from": frm,
        "to": to,
        "phases": phases,
        "r_ohm": r,
        "x_ohm": x,
        "s_max_kva": s_max_kva,
    }


@pytest.fixture
def two_bus_doc():
    # One three-phase line, a modest unbalanced load at the far bus.
    return feeder_doc(
        buses=[
            bus_rec(0),
            bus_rec(1, p_kw={"a": -100.0, "b": -80.0, "c": -60.0},
                    q_kvar={"a": -40.0, "b": -30.0, "c": -20.0}),
        ],
        lines=[line_rec(0, 1)],
    )


@pytest.fixture
def path3_doc():
    return feeder_doc(
        buses=[
            bus_rec(0),
            bus_rec(1, p_kw={"a": -50.0}),
            bus_rec(2, p_kw={"b": -30.0}, q_kvar={"b": -10.0}),
        ],
        lines=[line_rec(0, 1), line_rec(1, 2, scale=0.5)],
    )


@pytest.fixture
def star3_doc():
    return feeder_doc(
        buses=[
            bus_rec(0),
            bus_rec(1, p_kw={"a": -40.0}),
            bus_rec(2, p_kw={"c": -40.0}),
        ],
        lines=[line_rec(0, 1), line_rec(0, 2)],
    )


def lateral_feeder_doc():
    """Three-phase trunk head-1-3 with a phase-b lateral 1-2."""
    lateral = {"from": 1, "to": 2, "phases": "b",
               "r_ohm": [[0, 0, 0], [0, 0.3, 0], [0, 0, 0]],
               "x_ohm": [[0, 0, 0], [0, 0.6, 0], [0, 0, 0]],
               "s_max_kva": {"b": 500.0}}
    return feeder_doc(
        buses=[bus_rec(0), bus_rec(1, p_kw={"a": -20.0, "c": -10.0}),
               bus_rec(2, phases="b", p_kw={"b": -15.0}), bus_rec(3)],
        lines=[line_rec(0, 1, scale=0.2), lateral, line_rec(1, 3, scale=0.2)],
    )


def mc_feeder_doc():
    # single-phase path head-1-2; no fixed load; DERs live at bus 2
    line = {
        "r_ohm": [[3.0, 0, 0], [0, 0, 0], [0, 0, 0]],
        "x_ohm": [[5.5, 0, 0], [0, 0, 0], [0, 0, 0]],
        "phases": "a",
        "s_max_kva": {"a": 2000.0},
    }
    return feeder_doc(
        buses=[bus_rec(0), bus_rec(1, phases="a"), bus_rec(2, phases="a")],
        lines=[dict(line, **{"from": 0, "to": 1}), dict(line, **{"from": 1, "to": 2})],
    )


def mc_ders(offer_price):
    """A bid and an offer at the end of the single-phase path, sized so each
    is curtailed alone (voltage floor / ceiling) but both run jointly."""
    from gridclear.ders import Der

    return [
        Der(id="b1", bus=2, phases=("a",), side="bid", price=16.0,
            volume_kw=-60.0, power_factor=0.9),
        Der(id="o1", bus=2, phases=("a",), side="offer", price=offer_price,
            volume_kw=65.0, power_factor=0.9),
    ]


def random_tree_doc(rng, n_bus, *, tight_voltage=False, all_three_phase=True,
                    load_scale=1.0, s_max_kva=3000.0):
    """A random radial feeder document for the randomized suites.

    Parent of bus i is drawn uniformly from 0..i-1, so the labels are already
    topological.  Loads are light unless load_scale says otherwise.  With
    all_three_phase False, each bus and the line feeding it carry a nonempty
    subset of the parent's phases, drawn after the draws a three-phase tree
    makes, with loads and impedances only on those phases.
    """
    buses = [bus_rec(0)]
    lines = []
    phases = ["abc"]
    for i in range(1, n_bus):
        parent = int(rng.integers(0, i))
        p = {ph: float(-rng.uniform(5.0, 60.0) * load_scale) for ph in "abc"}
        line = line_rec(parent, i, scale=float(rng.uniform(0.1, 0.6)),
                        s_max_kva=s_max_kva)
        own = "abc"
        if not all_three_phase:
            subset = int(rng.integers(1, 2 ** len(phases[parent])))
            own = "".join(ph for k, ph in enumerate(phases[parent]) if subset >> k & 1)
            on = np.array([ph in own for ph in "abc"])
            off = ~np.outer(on, on)
            for key in ("r_ohm", "x_ohm"):
                line[key] = np.where(off, 0.0, line[key]).tolist()
            line["phases"] = own
        phases.append(own)
        buses.append(bus_rec(i, phases=own, p_kw={ph: p[ph] for ph in own},
                             q_kvar={ph: 0.4 * p[ph] for ph in own}))
        lines.append(line)
    v_min = 0.98 if tight_voltage else 0.95
    return feeder_doc(buses=buses, lines=lines, v_min_pu=v_min)


def dense_matrices_oracle(net):
    """The network matrices built at 3N x 3N, the reference the package's
    bus-level tree is checked against: +-I3 incidence blocks c0 (3N x 3)
    and c, a 3N-wide forward substitution for c_inv, block_diag for d_r /
    d_x, and the dense voltage rows 2 c_inv [D_r D_x] stacked over their
    negation.  Returns (dict of the five matrices, voltage rows)."""
    n = net.n
    c0 = np.zeros((3 * n, 3))
    c = np.zeros((3 * n, 3 * n))
    for line in net.lines:
        l = line.index
        c[3 * l:3 * l + 3, 3 * (line.to_bus - 1):3 * line.to_bus] = -np.eye(3)
        if line.from_bus == 0:
            c0[3 * l:3 * l + 3, :] = np.eye(3)
        else:
            c[3 * l:3 * l + 3, 3 * (line.from_bus - 1):3 * line.from_bus] = np.eye(3)
    c_inv = solve_triangular(c, np.eye(3 * n), lower=True)
    coupled = [phase_coupled_impedance(line.r, line.x) for line in net.lines]
    d_r = block_diag(*[rb for rb, _ in coupled])
    d_x = block_diag(*[xb for _, xb in coupled])
    upper = np.hstack([2.0 * c_inv @ d_r, 2.0 * c_inv @ d_x])
    dense = {"c0": c0, "c": c, "c_inv": c_inv, "d_r": d_r, "d_x": d_x}
    return dense, np.vstack([upper, -upper])


def assert_tree_matches_dense(m, dense):
    """The bus-level tree `m` (a `NetworkMatrices`), repeated on each phase,
    is exactly the oracle's 3N x 3N matrices `dense`: c0 = kron(t0, I3),
    c = kron(T, I3), c_inv = kron(path, I3), and d_r / d_x hold r_bar /
    x_bar on their diagonal blocks."""
    eye = np.eye(3)
    assert np.array_equal(np.kron(m.t0[:, None], eye), dense["c0"])
    assert np.array_equal(np.kron(m.t.toarray(), eye), dense["c"])
    assert np.array_equal(np.kron(m.path.toarray(), eye), dense["c_inv"])
    assert np.array_equal(block_diag(*m.r_bar), dense["d_r"])
    assert np.array_equal(block_diag(*m.x_bar), dense["d_x"])
