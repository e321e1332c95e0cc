import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gridclear.ders import DerPopulation
from gridclear.network import build_matrices, load_network
from gridclear.scenario import bundled_feeder
from gridclear.tdopf import TdopfParams, assemble, solve

from conftest import dense_matrices_oracle


@pytest.fixture(scope="module")
def net():
    return load_network(bundled_feeder())


def test_bundled_document_matches_its_generator():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_feeder_123.py"
    spec = importlib.util.spec_from_file_location("make_feeder_123", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.build_document() == bundled_feeder()


def test_size_and_head(net):
    assert net.n == 123  # 124 buses, one head
    assert net.label_of(0) == "150"


def test_fixed_load_totals_exact(net):
    kw, kvar = net.total_fixed_load()
    assert kw == pytest.approx(1347.5, abs=1e-9)
    assert kvar == pytest.approx(960.0, abs=1e-9)


def test_named_buses_present(net):
    for label in ["6", "62", "69", "71", "84", "85", "94", "96", "98",
                  "109", "110", "111", "112", "113", "114", "250", "300",
                  "451"]:
        assert net.index_of(label) >= 1


def test_phase_structure(net):
    # the long phase-a lateral used by the placement studies
    for label in ["109", "110", "111", "112", "113", "114"]:
        assert net.buses[net.index_of(label)].phases == ("a",)
    assert net.buses[net.index_of("300")].phases == ("a", "b", "c")


def test_base_case_solves_clean(net):
    pop = DerPopulation.from_ders([], net)
    sol = solve(assemble(net, pop, TdopfParams()))
    assert sol.status == "optimal"
    # lossless model: the head serves exactly the fixed load
    assert sol.p0.sum() * net.s_base_kva == pytest.approx(1347.5, abs=1e-6)
    present = [3 * (b.index - 1) + i for b in net.buses[1:]
               for i, ph in enumerate("abc") if ph in b.phases]
    v = np.sqrt(sol.v[present])
    assert v.min() > 0.95 and v.max() < 1.05


def test_matrices_well_conditioned(net):
    m = build_matrices(net)
    dense, _ = dense_matrices_oracle(net)
    # triangular incidence with unit diagonal: solves stay exact
    assert np.array_equal(m.t.diagonal(), -np.ones(net.n))
    assert np.allclose(np.diag(dense["c"]), -1.0)
    identity = dense["c"] @ np.kron(m.path.toarray(), np.eye(3))
    assert np.max(np.abs(identity - np.eye(3 * net.n))) < 1e-12
