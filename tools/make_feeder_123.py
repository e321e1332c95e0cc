#!/usr/bin/env python3
"""Generate the bundled 124-bus reference feeder document.

Topology, segment lengths, phase designations, and load placement follow
the well-known 123-node radial distribution test feeder.  The closed
sectionalizing switches and the head regulator are flattened into short
plain segments, the normally open ties are omitted, and the off-voltage
transformer lateral is dropped, leaving a 124-bus radial tree fed from
bus 150.  Spot loads are halved and then scaled so the document totals
are exactly 1347.5 kW and 960.0 kvar (the last entry absorbs the
rounding residue).  Impedances come from published overhead and
concentric-neutral cable configurations; ratings from stock conductor
ampacities.  Run from anywhere; writes src/gridclear/data/ieee123_mod.json.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# ohm/mile, 336,400 26/7 ACSR overhead, used for every three-phase segment
OH3_R = [
    [0.4576, 0.1560, 0.1535],
    [0.1560, 0.4666, 0.1580],
    [0.1535, 0.1580, 0.4615],
]
OH3_X = [
    [1.0780, 0.5017, 0.3849],
    [0.5017, 1.0482, 0.4236],
    [0.3849, 0.4236, 1.0651],
]

# ohm/mile, 250 kcmil concentric-neutral cable, for the underground run
UG3_R = [
    [0.7982, 0.3192, 0.2849],
    [0.3192, 0.7891, 0.3192],
    [0.2849, 0.3192, 0.7982],
]
UG3_X = [
    [0.4463, 0.0328, -0.0143],
    [0.0328, 0.4041, 0.0328],
    [-0.0143, 0.0328, 0.4463],
]

# ohm/mile, 1/0 ACSR two-phase and single-phase laterals
TWO_SELF = (1.3238, 1.3569)
TWO_SELF2 = (1.3294, 1.3471)
TWO_MUT = (0.2066, 0.4591)
ONE_SELF = (1.3292, 1.3475)

FT_PER_MILE = 5280.0


def _embed(phases, entries):
    """Place (phase pair -> complex ohm/mile) entries into 3x3 r, x lists."""
    idx = {"a": 0, "b": 1, "c": 2}
    r = [[0.0] * 3 for _ in range(3)]
    x = [[0.0] * 3 for _ in range(3)]
    for (p1, p2), (re, im) in entries.items():
        r[idx[p1]][idx[p2]] = re
        x[idx[p1]][idx[p2]] = im
    return r, x


def configs():
    out = {}
    for cfg in (1, 2, 3, 4, 5, 6):
        out[cfg] = ("abc", OH3_R, OH3_X, 530.0)
    out[12] = ("abc", UG3_R, UG3_X, 260.0)
    for cfg, pair in ((7, "ac"), (8, "ab")):
        p1, p2 = pair
        r, x = _embed(pair, {
            (p1, p1): TWO_SELF, (p2, p2): TWO_SELF2,
            (p1, p2): TWO_MUT, (p2, p1): TWO_MUT,
        })
        out[cfg] = (pair, r, x, 230.0)
    for cfg, ph in ((9, "a"), (10, "b"), (11, "c")):
        r, x = _embed(ph, {(ph, ph): ONE_SELF})
        out[cfg] = (ph, r, x, 230.0)
    return out


# (from, to, length_ft, config); the last six rows are the flattened
# closed switches and the head regulator
SEGMENTS = [
    (1, 2, 175, 10), (1, 3, 250, 11), (1, 7, 300, 1),
    (3, 4, 200, 11), (3, 5, 325, 11), (5, 6, 250, 11),
    (7, 8, 200, 1), (8, 12, 225, 10), (8, 9, 225, 9), (8, 13, 300, 1),
    (9, 14, 425, 9), (13, 34, 150, 11), (13, 18, 825, 2),
    (14, 11, 250, 9), (14, 10, 250, 9), (15, 16, 375, 11), (15, 17, 350, 11),
    (18, 19, 250, 9), (18, 21, 300, 2), (19, 20, 325, 9),
    (21, 22, 525, 10), (21, 23, 250, 2), (23, 24, 550, 11), (23, 25, 275, 2),
    (25, 26, 350, 7), (25, 28, 200, 2), (26, 27, 275, 7), (26, 31, 225, 11),
    (27, 33, 500, 9), (28, 29, 300, 2), (29, 30, 350, 2), (30, 250, 200, 2),
    (31, 32, 300, 11), (34, 15, 100, 11),
    (35, 36, 650, 8), (35, 40, 250, 1), (36, 37, 300, 9), (36, 38, 250, 10),
    (38, 39, 325, 10), (40, 41, 325, 11), (40, 42, 250, 1),
    (42, 43, 500, 10), (42, 44, 200, 1), (44, 45, 200, 9), (44, 47, 250, 1),
    (45, 46, 300, 9), (47, 48, 150, 4), (47, 49, 250, 4),
    (49, 50, 250, 4), (50, 51, 250, 4),
    (52, 53, 200, 1), (53, 54, 125, 1), (54, 55, 275, 1), (54, 57, 350, 3),
    (55, 56, 275, 1), (57, 58, 250, 10), (57, 60, 750, 3), (58, 59, 250, 10),
    (60, 61, 550, 5), (60, 62, 250, 12), (62, 63, 175, 12), (63, 64, 350, 12),
    (64, 65, 425, 12), (65, 66, 325, 12),
    (67, 68, 200, 9), (67, 72, 275, 3), (67, 97, 250, 3),
    (68, 69, 275, 9), (69, 70, 325, 9), (70, 71, 275, 9),
    (72, 73, 275, 11), (72, 76, 200, 3), (73, 74, 350, 11), (74, 75, 400, 11),
    (76, 77, 400, 6), (76, 86, 700, 6), (77, 78, 100, 6), (78, 79, 225, 6),
    (78, 80, 475, 6), (80, 81, 175, 6), (81, 82, 250, 6), (81, 84, 675, 11),
    (82, 83, 250, 6), (84, 85, 475, 11), (86, 87, 450, 6), (87, 88, 175, 9),
    (87, 89, 275, 6), (89, 90, 225, 10), (89, 91, 225, 6), (91, 92, 300, 11),
    (91, 93, 225, 6), (93, 94, 275, 9), (93, 95, 300, 6), (95, 96, 200, 10),
    (97, 98, 275, 3), (98, 99, 550, 3), (99, 100, 300, 3), (100, 450, 800, 3),
    (101, 102, 225, 11), (101, 105, 275, 3), (102, 103, 325, 11),
    (103, 104, 700, 11), (105, 106, 225, 10), (105, 108, 325, 3),
    (106, 107, 575, 10), (108, 109, 450, 9), (108, 300, 1000, 3),
    (109, 110, 300, 9), (110, 111, 575, 9), (110, 112, 125, 9),
    (112, 113, 525, 9), (113, 114, 325, 9),
    (135, 35, 375, 4), (149, 1, 400, 1), (152, 52, 400, 1),
    (160, 67, 350, 6), (197, 101, 250, 3),
    (13, 152, 10, 1), (18, 135, 10, 2), (60, 160, 10, 6),
    (97, 197, 10, 3), (450, 451, 10, 3), (150, 149, 25, 1),
]

# (bus, phase, kW, kvar) at full standard scale; halved and rescaled below
SPOT_LOADS = [
    (1, "a", 40, 20), (2, "b", 20, 10), (4, "c", 40, 20), (5, "c", 20, 10),
    (6, "c", 40, 20), (7, "a", 20, 10), (9, "a", 40, 20), (10, "a", 20, 10),
    (11, "a", 40, 20), (12, "b", 20, 10), (16, "c", 40, 20), (17, "c", 20, 10),
    (19, "a", 40, 20), (20, "a", 40, 20), (22, "b", 40, 20), (24, "c", 40, 20),
    (28, "a", 40, 20), (29, "a", 40, 20), (30, "c", 40, 20), (31, "c", 20, 10),
    (32, "c", 20, 10), (33, "a", 40, 20), (34, "c", 40, 20), (35, "a", 40, 20),
    (37, "a", 40, 20), (38, "b", 20, 10), (39, "b", 20, 10), (41, "c", 20, 10),
    (42, "a", 20, 10), (43, "b", 40, 20), (45, "a", 20, 10), (46, "a", 20, 10),
    (47, "a", 35, 25), (47, "b", 35, 25), (47, "c", 35, 25),
    (48, "a", 70, 50), (48, "b", 70, 50), (48, "c", 70, 50),
    (49, "a", 35, 25), (49, "b", 70, 50), (49, "c", 35, 25),
    (50, "c", 40, 20), (51, "a", 20, 10), (52, "a", 40, 20), (53, "a", 40, 20),
    (55, "a", 20, 10), (56, "b", 20, 10), (58, "b", 20, 10), (59, "b", 20, 10),
    (60, "a", 20, 10), (62, "c", 40, 20), (63, "a", 40, 20), (64, "b", 75, 35),
    (65, "a", 35, 25), (65, "b", 35, 25), (65, "c", 70, 50), (66, "c", 75, 35),
    (68, "a", 20, 10), (69, "a", 40, 20), (70, "a", 20, 10), (71, "a", 40, 20),
    (73, "c", 40, 20), (74, "c", 40, 20), (75, "c", 40, 20),
    (76, "a", 105, 80), (76, "b", 70, 50), (76, "c", 70, 50),
    (77, "b", 40, 20), (79, "a", 40, 20), (80, "b", 40, 20), (82, "a", 40, 20),
    (83, "c", 20, 10), (84, "c", 20, 10), (85, "c", 40, 20), (86, "b", 20, 10),
    (87, "b", 40, 20), (88, "a", 40, 20), (90, "b", 40, 20), (92, "c", 40, 20),
    (94, "a", 40, 20), (95, "b", 20, 10), (96, "b", 20, 10), (98, "a", 40, 20),
    (99, "b", 40, 20), (100, "c", 40, 20), (102, "c", 20, 10),
    (103, "c", 40, 20), (104, "c", 40, 20), (106, "b", 40, 20),
    (107, "b", 40, 20), (109, "a", 40, 20), (111, "a", 20, 10),
    (112, "a", 20, 10), (113, "a", 40, 20), (114, "a", 20, 10),
]

TARGET_KW = 1347.5
TARGET_KVAR = 960.0
HEAD = 150


def build_document():
    cfg = configs()
    assert len(SEGMENTS) == 123, len(SEGMENTS)
    full_kw = sum(row[2] for row in SPOT_LOADS)
    full_kvar = sum(row[3] for row in SPOT_LOADS)
    assert (full_kw, full_kvar) == (3490, 1925), (full_kw, full_kvar)

    bus_phases: dict[int, set] = {}
    for frm, to, _, c in SEGMENTS:
        for b in (frm, to):
            bus_phases.setdefault(b, set()).update(cfg[c][0])
    assert len(bus_phases) == 124, len(bus_phases)

    # halve, rescale, round; the final entry absorbs the rounding residue
    skw = TARGET_KW / (full_kw / 2.0)
    skvar = TARGET_KVAR / (full_kvar / 2.0)
    scaled = [(b, ph, round(kw / 2.0 * skw, 6), round(kv / 2.0 * skvar, 6))
              for b, ph, kw, kv in SPOT_LOADS]
    b, ph, _, _ = scaled[-1]
    rest_kw = sum(r[2] for r in scaled[:-1])
    rest_kvar = sum(r[3] for r in scaled[:-1])
    scaled[-1] = (b, ph, TARGET_KW - rest_kw, TARGET_KVAR - rest_kvar)

    loads: dict[int, dict[str, list]] = {}
    for b, ph, kw, kv in scaled:
        assert ph in bus_phases[b], (b, ph)
        rec = loads.setdefault(b, {"p": {}, "q": {}})
        rec["p"][ph] = rec["p"].get(ph, 0.0) - kw
        rec["q"][ph] = rec["q"].get(ph, 0.0) - kv

    buses = []
    for b in sorted(bus_phases):
        rec = {"id": b, "phases": "".join(p for p in "abc" if p in bus_phases[b])}
        if b in loads:
            rec["fixed_p_kw"] = loads[b]["p"]
            rec["fixed_q_kvar"] = loads[b]["q"]
        buses.append(rec)

    lines = []
    for frm, to, length_ft, c in SEGMENTS:
        phases, r, x, amps = cfg[c]
        scale = length_ft / FT_PER_MILE
        lines.append({
            "from": frm, "to": to, "phases": phases,
            "r_ohm": [[round(v * scale, 9) for v in row] for row in r],
            "x_ohm": [[round(v * scale, 9) for v in row] for row in x],
            "ampacity_a": amps,
        })

    return {
        "schema": "gridclear-feeder/1",
        "base": {
            "s_base_kva": 1000.0,
            "v_base_kv": 2.401,
            "v0_pu": 1.03,
            "v_min_pu": 0.95,
            "v_max_pu": 1.05,
            "s0_max_kva": 3000.0,
        },
        "buses": buses,
        "lines": lines,
    }


def main():
    doc = build_document()

    sys.path.insert(0, str(ROOT / "src"))
    import gridclear

    net = gridclear.load_network(doc)
    kw, kvar = net.total_fixed_load()
    assert abs(kw - TARGET_KW) < 1e-9 and abs(kvar - TARGET_KVAR) < 1e-9, (kw, kvar)
    assert net.label_of(0) == str(HEAD)

    out = ROOT / "src" / "gridclear" / "data"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "ieee123_mod.json"
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}: {len(doc['buses'])} buses, {len(doc['lines'])} lines, "
          f"{kw:.1f} kW / {kvar:.1f} kvar fixed load")


if __name__ == "__main__":
    main()
