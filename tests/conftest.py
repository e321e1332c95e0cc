import numpy as np
import pytest

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
    topological.  Loads are light unless load_scale says otherwise.
    """
    buses = [bus_rec(0)]
    lines = []
    for i in range(1, n_bus):
        parent = int(rng.integers(0, i))
        p = {ph: float(-rng.uniform(5.0, 60.0) * load_scale) for ph in "abc"}
        q = {ph: 0.4 * p[ph] for ph in "abc"}
        buses.append(bus_rec(i, p_kw=p, q_kvar=q))
        lines.append(line_rec(parent, i, scale=float(rng.uniform(0.1, 0.6)),
                              s_max_kva=s_max_kva))
    v_min = 0.98 if tight_voltage else 0.95
    return feeder_doc(buses=buses, lines=lines, v_min_pu=v_min)
