"""Feeder documents, phase-coupled impedances, and the linearized solve.

Builds a two-bus feeder by hand, then walks through what the model layer
produces: per-unit impedance blocks, the incidence structure, squared
voltage magnitudes under a fixed unbalanced load, and the head draw.
Run from the repo root:

    python3 demos/01_feeder_basics.py
"""

import numpy as np

from gridclear import build_matrices, evaluate_dispatch, load_network
from gridclear.ders import DerPopulation

# A 336,400 26/7 ACSR overhead configuration, ohm per mile.
R_OHM = [
    [0.4576, 0.1560, 0.1535],
    [0.1560, 0.4666, 0.1580],
    [0.1535, 0.1580, 0.4615],
]
X_OHM = [
    [1.0780, 0.5017, 0.3849],
    [0.5017, 1.0482, 0.4236],
    [0.3849, 0.4236, 1.0651],
]

DOC = {
    "schema": "gridclear-feeder/1",
    "base": {
        "s_base_kva": 1000.0,
        "v_base_kv": 2.401,
        "v0_pu": 1.03,
        "v_min_pu": 0.95,
        "v_max_pu": 1.05,
        "s0_max_kva": 5000.0,
    },
    "buses": [
        {"id": 0, "phases": "abc"},
        {
            "id": 1,
            "phases": "abc",
            "fixed_p_kw": {"a": -100.0, "b": -80.0, "c": -60.0},
            "fixed_q_kvar": {"a": -40.0, "b": -30.0, "c": -20.0},
        },
    ],
    "lines": [
        {"from": 0, "to": 1, "phases": "abc",
         "r_ohm": R_OHM, "x_ohm": X_OHM, "s_max_kva": 2000.0},
    ],
}


def main():
    net = load_network(DOC)
    z_base = 1e3 * net.v_base_kv**2 / net.s_base_kva
    print(f"feeder: {net.n} non-head bus(es), head {net.label_of(0)!r}, "
          f"z_base {z_base:.6f} ohm")

    m = build_matrices(net)
    rbar = m.r_bar[0]
    print("\nphase-coupled R block (p.u.), line 0-1:")
    with np.printoptions(precision=4, suppress=True):
        print(rbar)
    print("note the negative off-diagonals: consumption on one phase can")
    print("raise the voltage of a coupled phase, which is why single-phase")
    print("resources need the full 3x3 treatment.")

    # incidence sanity: head columns and internal columns telescope to zero;
    # every phase is the same tree, so |c0 + C S| is the bus-level |t0 + T 1|
    print(f"\nincidence identity |c0 + C S| = "
          f"{np.max(np.abs(m.t0 + m.t @ np.ones(net.n))):.1e}")

    pop = DerPopulation.from_ders([], net)
    state = evaluate_dispatch(net, pop, {})
    v = np.sqrt(state["v"])
    print("\nvoltage magnitudes at bus 1 under the fixed load (p.u.):")
    for i, ph in enumerate("abc"):
        print(f"  phase {ph}: {v[i]:.5f}")
    p0_kw = state["p0"] * net.s_base_kva
    print(f"head real draw per phase (kW): "
          + ", ".join(f"{x:.1f}" for x in p0_kw)
          + f"  (total {p0_kw.sum():.1f})")


if __name__ == "__main__":
    main()
