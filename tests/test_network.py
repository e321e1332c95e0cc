import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, solve_triangular

import gridclear.network
from gridclear.ders import DerPopulation, population_document
from gridclear.errors import DomainError, SchemaError, ShapeError, TopologyError
from gridclear.network import (
    PHASES,
    Network,
    build_matrices,
    flows_from_injections,
    head_injection,
    lindistflow_voltages,
    load_network,
    phase_coupled_impedance,
    voltage_rows,
)
from gridclear.scenario import bundled_feeder, load_scenario, run_scenario

from conftest import (
    R_OHM_MILE,
    X_OHM_MILE,
    bus_rec,
    feeder_doc,
    lateral_feeder_doc,
    line_rec,
    mc_ders,
    mc_feeder_doc,
    random_tree_doc,
)

Z_BASE_OHM = 5.764801  # 1000 * 2.401**2 / 1000, the fixture base impedance
I3 = np.eye(3)


def coupling_oracle(r, x):
    # Independent path: elementwise conj(W) * (R + jX) in complex arithmetic.
    w = np.exp(2j * np.pi / 3)
    W = np.array([[1, w, w**2], [w**2, 1, w], [w, w**2, 1]])
    z = np.conj(W) * (r + 1j * x)
    return z.real, z.imag


class TestPhaseCoupling:
    def test_matches_complex_oracle(self):
        r_bar, x_bar = phase_coupled_impedance(R_OHM_MILE, X_OHM_MILE)
        r_exp, x_exp = coupling_oracle(R_OHM_MILE, X_OHM_MILE)
        assert_allclose(r_bar, r_exp, atol=1e-12)
        assert_allclose(x_bar, x_exp, atol=1e-12)

    def test_frozen_spot_values(self):
        r_bar, x_bar = phase_coupled_impedance(R_OHM_MILE, X_OHM_MILE)
        assert r_bar[0, 1] == pytest.approx(0.356484945079, abs=1e-9)
        assert r_bar[1, 0] == pytest.approx(-0.512484945079, abs=1e-9)
        assert x_bar[0, 1] == pytest.approx(-0.385949962990, abs=1e-9)
        assert x_bar[2, 0] == pytest.approx(-0.325384899481, abs=1e-9)

    def test_diagonal_passes_through(self):
        # W has ones on the diagonal, so self-impedance terms are unchanged.
        r_bar, x_bar = phase_coupled_impedance(R_OHM_MILE, X_OHM_MILE)
        assert_allclose(np.diag(r_bar), np.diag(R_OHM_MILE), atol=1e-15)
        assert_allclose(np.diag(x_bar), np.diag(X_OHM_MILE), atol=1e-15)

    def test_zero_rows_stay_zero(self):
        r = R_OHM_MILE.copy()
        x = X_OHM_MILE.copy()
        r[1, :] = r[:, 1] = 0.0
        x[1, :] = x[:, 1] = 0.0
        r_bar, x_bar = phase_coupled_impedance(r, x)
        assert np.all(r_bar[1, :] == 0) and np.all(r_bar[:, 1] == 0)
        assert np.all(x_bar[1, :] == 0) and np.all(x_bar[:, 1] == 0)

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            phase_coupled_impedance(np.eye(2), np.eye(2))


class TestLoading:
    def test_two_bus_roundtrip(self, two_bus_doc):
        net = load_network(two_bus_doc)
        assert isinstance(net, Network)
        assert net.n == 1
        assert net.buses[0].is_head and net.buses[0].index == 0
        # per-unit conversion of the line impedance
        assert_allclose(net.lines[0].r, R_OHM_MILE / Z_BASE_OHM, rtol=1e-12)
        # squared voltage limits
        assert net.v0 == pytest.approx(1.03**2)
        assert net.v_min == pytest.approx(0.95**2)
        assert net.v_max == pytest.approx(1.05**2)
        # consumption enters as negative injection, stored per-unit
        p, q = net.fixed_injections()
        assert_allclose(p, [-0.1, -0.08, -0.06], atol=1e-15)
        assert_allclose(q, [-0.04, -0.03, -0.02], atol=1e-15)
        pk, qk = net.total_fixed_load()
        assert pk == pytest.approx(240.0)
        assert qk == pytest.approx(90.0)

    def test_labels_are_arbitrary(self):
        doc = feeder_doc(
            buses=[bus_rec("sub"), bus_rec("m1", p_kw={"a": -10.0})],
            lines=[line_rec("sub", "m1")],
        )
        net = load_network(doc)
        assert net.buses[0].label == "sub"
        assert net.index_of("m1") == 1

    def test_head_detected_from_topology(self, path3_doc):
        net = load_network(path3_doc)
        assert [b.is_head for b in net.buses] == [True, False, False]
        # line l feeds bus l+1 after canonical ordering
        for l, line in enumerate(net.lines):
            assert line.to_bus == l + 1

    def test_absent_phase_rows_zeroed(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, phases="ac", p_kw={"a": -10.0})],
            lines=[{
                "from": 0, "to": 1, "phases": "ac",
                "r_ohm": np.where(np.outer([1, 0, 1], [1, 0, 1]), R_OHM_MILE, 0.0).tolist(),
                "x_ohm": np.where(np.outer([1, 0, 1], [1, 0, 1]), X_OHM_MILE, 0.0).tolist(),
                "s_max_kva": {"a": 2000.0, "c": 2000.0},
            }],
        )
        net = load_network(doc)
        line = net.lines[0]
        assert np.all(line.r[1, :] == 0) and np.all(line.r[:, 1] == 0)
        assert line.s_max[1] == 0.0
        assert net.buses[1].phases == ("a", "c")

    def test_nonzero_impedance_on_absent_phase(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, phases="ac")],
            lines=[line_rec(0, 1, phases="ac")],  # full matrix, phase b absent
        )
        with pytest.raises(SchemaError):
            load_network(doc)

    def test_wrong_schema_tag(self, two_bus_doc):
        doc = dict(two_bus_doc, schema="gridclear-feeder/9")
        with pytest.raises(SchemaError):
            load_network(doc)

    def test_unknown_bus_reference(self, two_bus_doc):
        doc = dict(two_bus_doc)
        doc["lines"] = [line_rec(0, 7)]
        with pytest.raises(SchemaError):
            load_network(doc)

    def test_cycle_rejected(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1), bus_rec(2)],
            lines=[line_rec(0, 1), line_rec(1, 2), line_rec(2, 0)],
        )
        with pytest.raises(TopologyError):
            load_network(doc)

    def test_disconnected_rejected(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1), bus_rec(2), bus_rec(3)],
            lines=[line_rec(0, 1), line_rec(2, 3)],
        )
        with pytest.raises(TopologyError):
            load_network(doc)

    def test_voltage_band_must_contain_head(self):
        doc = feeder_doc(buses=[bus_rec(0), bus_rec(1)], lines=[line_rec(0, 1)],
                         v0_pu=1.06, v_max_pu=1.05)
        with pytest.raises(DomainError):
            load_network(doc)

    def test_load_on_absent_phase(self):
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, phases="a", p_kw={"b": -5.0})],
            lines=[{
                "from": 0, "to": 1, "phases": "a",
                "r_ohm": [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]],
                "x_ohm": [[1.0, 0, 0], [0, 0, 0], [0, 0, 0]],
                "s_max_kva": {"a": 2000.0},
            }],
        )
        with pytest.raises(SchemaError):
            load_network(doc)

    def test_bus_phase_not_fed_by_its_line(self):
        # a phase-a line cannot feed the load on phase b of an abc bus
        doc = feeder_doc(
            buses=[bus_rec(0), bus_rec(1, p_kw={"b": -5.0})],
            lines=[{
                "from": 0, "to": 1, "phases": "a",
                "r_ohm": [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]],
                "x_ohm": [[1.0, 0, 0], [0, 0, 0], [0, 0, 0]],
                "s_max_kva": {"a": 2000.0},
            }],
        )
        with pytest.raises(SchemaError, match="bus '1' carries a phase this line does not feed"):
            load_network(doc)


class TestRowLayout:
    def test_row_iterators_agree_with_row_of(self):
        net = load_network(bundled_feeder())
        bus_rows = list(net.bus_rows())
        assert [(b.index, ph) for b, ph, _ in bus_rows] == [
            (b.index, ph) for b in net.buses[1:] for ph in PHASES if ph in b.phases]
        for bus, ph, row in bus_rows:
            assert row == net.row_of(bus.index, ph)
        line_rows = list(net.line_rows())
        assert [(l.index, ph) for l, ph, _ in line_rows] == [
            (l.index, ph) for l in net.lines for ph in PHASES if ph in l.phases]
        for line, ph, row in line_rows:
            assert row == net.row_of(line.to_bus, ph)  # line l feeds bus l + 1
        # the feeder's single- and two-phase laterals leave rows to skip
        assert len(line_rows) <= len(bus_rows) < 3 * net.n


class TestIncidence:
    def test_two_bus_blocks(self, two_bus_doc):
        m = build_matrices(load_network(two_bus_doc))
        assert_allclose(m.c0, I3)
        assert_allclose(m.c, -I3)
        assert_allclose(m.c_inv, -I3)

    def test_path3_blocks(self, path3_doc):
        m = build_matrices(load_network(path3_doc))
        z = np.zeros((3, 3))
        assert_allclose(m.c0, np.vstack([I3, z]))
        assert_allclose(m.c, np.block([[-I3, z], [I3, -I3]]))
        # hand-inverted: lower block triangular of -I3
        assert_allclose(m.c_inv, np.block([[-I3, z], [-I3, -I3]]))

    def test_star3_blocks(self, star3_doc):
        m = build_matrices(load_network(star3_doc))
        assert_allclose(m.c0, np.vstack([I3, I3]))
        assert_allclose(m.c, -np.eye(6))
        assert_allclose(m.c_inv, -np.eye(6))

    def test_tree_identity_random(self):
        # c0 * I3 + C * [I3; ...; I3] = 0 on every feeder, so C^-1 c0 = -[I3; ...]
        rng = np.random.default_rng(7)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            net = load_network(random_tree_doc(rng, n))
            m = build_matrices(net)
            stacked = np.tile(I3, (net.n, 1))
            assert_allclose(m.c0 + m.c @ stacked, 0.0, atol=1e-12)
            assert_allclose(m.c_inv @ m.c0, -stacked, atol=1e-10)
            assert_allclose(m.c_inv @ m.c, np.eye(3 * net.n), atol=1e-10)

    def test_impedance_blocks_are_coupled(self, two_bus_doc):
        net = load_network(two_bus_doc)
        m = build_matrices(net)
        r_bar, x_bar = coupling_oracle(net.lines[0].r, net.lines[0].x)
        assert_allclose(m.d_r, r_bar, atol=1e-12)
        assert_allclose(m.d_x, x_bar, atol=1e-12)


class TestFlowEquations:
    def test_two_bus_voltage_hand_expansion(self, two_bus_doc):
        net = load_network(two_bus_doc)
        m = build_matrices(net)
        P = np.array([0.10, 0.08, 0.06])
        Q = np.array([0.04, 0.03, 0.02])
        v = lindistflow_voltages(m, net.v0, P, Q)
        r_bar, x_bar = coupling_oracle(net.lines[0].r, net.lines[0].x)
        expected = net.v0 - 2.0 * (r_bar @ P + x_bar @ Q)
        assert_allclose(v, expected, atol=1e-12)

    def test_path3_voltage_accumulates(self, path3_doc):
        net = load_network(path3_doc)
        m = build_matrices(net)
        P = np.array([0.05, 0.03, 0.0, 0.02, 0.03, 0.0])
        Q = np.zeros(6)
        v = lindistflow_voltages(m, net.v0, P, Q)
        r0, x0 = coupling_oracle(net.lines[0].r, net.lines[0].x)
        r1, x1 = coupling_oracle(net.lines[1].r, net.lines[1].x)
        v1 = net.v0 - 2.0 * (r0 @ P[:3])
        v2 = v1 - 2.0 * (r1 @ P[3:])
        assert_allclose(v[:3], v1, atol=1e-12)
        assert_allclose(v[3:], v2, atol=1e-12)

    def test_head_injection_reads_root_lines(self, star3_doc):
        net = load_network(star3_doc)
        m = build_matrices(net)
        P = np.arange(6, dtype=float) / 100.0
        Q = np.zeros(6)
        p0, q0 = head_injection(m, P, Q)
        assert_allclose(p0, P[:3] + P[3:], atol=1e-14)
        assert_allclose(q0, 0.0, atol=1e-14)

    def test_flows_from_injections_balance(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            net = load_network(random_tree_doc(rng, int(rng.integers(2, 8))))
            m = build_matrices(net)
            p, q = net.fixed_injections()
            P, Q = flows_from_injections(m, p, q)
            # per-bus balance and the lossless head identity
            assert_allclose(m.c.T @ P, p, atol=1e-12)
            p0, _ = head_injection(m, P, Q)
            assert p0.sum() == pytest.approx(-p.sum(), abs=1e-12)


class TestMatricesCache:
    def test_built_once_per_interval(self, monkeypatch):
        calls = []

        def counting(net):
            calls.append(net)
            return build_matrices(net)

        monkeypatch.setattr(gridclear.network, "build_matrices", counting)
        net = load_network(mc_feeder_doc())
        ders = population_document(DerPopulation.from_ders(mc_ders(9.0), net), net)
        config = load_scenario({"schema": "gridclear-scenario/1",
                                "feeder": mc_feeder_doc(), "ders": ders,
                                "market": {"m_cents_per_kwh": 2.5, "lmp": 13.0},
                                "case": "C"})
        result = run_scenario(config)
        # three bin solves, the ex-post solve and the dispatch check all ran
        assert result.outcome.mc_candidates == ("b1", "o1")
        assert len(calls) == 1 and calls[0] is result.network

    def test_cached_matrices_equal_a_fresh_build(self):
        net = load_network(bundled_feeder())
        assert net.matrices is net.matrices
        fresh = build_matrices(net)
        for name in ("c0", "c", "c_inv", "d_r", "d_x"):
            assert np.array_equal(getattr(net.matrices, name), getattr(fresh, name))


def dense_matrices_oracle(net):
    """The network matrices built at 3N x 3N: +-I3 incidence blocks, a
    3N-wide forward substitution, block_diag, and the dense voltage rows
    2 c_inv [D_r D_x] stacked over their negation."""
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


@pytest.mark.parametrize("doc", [bundled_feeder, lateral_feeder_doc],
                         ids=["bundled-123", "phase-b-lateral"])
def test_structural_matrices_match_dense_oracle(doc):
    net = load_network(doc())
    dense, voltage = dense_matrices_oracle(net)
    built = build_matrices(net)
    for name, expected in dense.items():
        got = getattr(built, name)
        assert np.array_equal(got, expected), name
        assert np.array_equal(np.signbit(got), np.signbit(expected)), name
    block = net.voltage_block
    assert np.array_equal(block.toarray(), voltage)
    assert block.has_canonical_format and np.all(block.data != 0)


@pytest.mark.parametrize("doc", [bundled_feeder, lateral_feeder_doc],
                         ids=["bundled-123", "phase-b-lateral"])
def test_row_labels_name_the_carried_rows_in_order(doc):
    net = load_network(doc())
    bus, line = net.carried_rows
    labels = net.row_labels
    assert list(zip(labels.bus, labels.bus_phase, bus.tolist())) == [
        (b.label, ph, row) for b, ph, row in net.bus_rows()]
    assert list(zip(labels.line_from, labels.line_to, labels.line_phase,
                    line.tolist())) == [
        (net.label_of(ln.from_bus), net.label_of(ln.to_bus), ph, row)
        for ln, ph, row in net.line_rows()]
    assert net.row_labels is labels


def test_voltage_rows_read_zero_where_the_squared_voltage_is_not_positive():
    net = load_network(lateral_feeder_doc())
    v = np.full(3 * net.n, 1.0404)
    bus = net.carried_rows[0]
    v[bus[:4]] = [0.0, -0.0, -1e-3, np.nan]
    rows = voltage_rows(net, v)
    assert [r["v_pu"] for r in rows] == [0.0, 0.0, 0.0, 0.0, 1.02, 1.02, 1.02]
    assert all(repr(r["v_pu"]) != "-0.0" for r in rows)
    assert [(r["bus"], r["phase"]) for r in rows] == [
        (b.label, ph) for b, ph, _ in net.bus_rows()]
