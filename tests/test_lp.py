"""solve_lp against scipy.optimize.linprog, the reference for its binding.

solve_lp calls scipy's bundled HiGHS binding directly, with the options,
input checks and post-solve check of linprog(method="highs"); on the same
LP both must return the same status, iteration count, objective, vertex
and marginals, bit for bit.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import gridclear as gc
import gridclear.tdopf
from gridclear import _lp
from gridclear._lp import _OPTIONS, solve_lp

# min c'x over a free, a two-sided, a fixed and a one-sided column
HAND = dict(
    c=np.array([1.0, -2.0, 0.5, 1.5]),
    a_ub=sparse.csr_array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]]),
    b_ub=np.array([4.0, 3.0]),
    a_eq=sparse.csr_array([[1.0, 0.0, 0.0, 1.0]]),
    b_eq=np.array([1.0]),
    bounds=[(None, None), (0.0, 2.5), (1.0, 1.0), (-1.0, None)],
)

NO_EQ = dict(HAND, a_eq=None, b_eq=None, bounds=HAND["bounds"][1:] + [(0.0, 1.0)])


def _args(lp: dict) -> tuple:
    return tuple(lp[k] for k in ("c", "a_ub", "b_ub", "a_eq", "b_eq", "bounds"))


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def assert_matches_linprog(c, a_ub, b_ub, a_eq, b_eq, bounds):
    ours = solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)
    has_ub = a_ub is not None and a_ub.shape[0] > 0
    has_eq = a_eq is not None and a_eq.shape[0] > 0
    ref = linprog(c, A_ub=a_ub if has_ub else None, b_ub=b_ub if has_ub else None,
                  A_eq=a_eq if has_eq else None, b_eq=b_eq if has_eq else None,
                  bounds=bounds, method="highs", options=_OPTIONS)
    assert ours.status == _lp_status(ref.status)
    assert ours.nit == ref.nit
    if ours.status != "optimal":
        assert ours.x is None and ref.x is None
        return ours
    assert _bits(ours.fun) == _bits(ref.fun)
    assert _bits(ours.x) == _bits(ref.x)
    assert _bits(ours.eq_marginals) == _bits(ref.eqlin.marginals if has_eq else [])
    assert _bits(ours.ub_marginals) == _bits(ref.ineqlin.marginals if has_ub else [])
    assert _bits(ours.lower_marginals) == _bits(ref.lower.marginals)
    assert _bits(ours.upper_marginals) == _bits(ref.upper.marginals)
    return ours


def _lp_status(scipy_status: int) -> str:
    return {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(scipy_status, "numerical")


def test_hand_made_lp_matches_linprog():
    res = assert_matches_linprog(*_args(HAND))
    assert res.status == "optimal"
    assert (res.lower_marginals != 0).any() or (res.upper_marginals != 0).any()


def test_lp_without_inequality_rows_matches_linprog():
    lp = dict(HAND, a_ub=None, b_ub=None)
    assert assert_matches_linprog(*_args(lp)).status == "optimal"
    empty = dict(HAND, a_ub=sparse.csr_array((0, 4)), b_ub=np.zeros(0))
    assert assert_matches_linprog(*_args(empty)).ub_marginals.shape == (0,)


def test_lp_without_equality_rows_matches_linprog():
    assert assert_matches_linprog(*_args(NO_EQ)).status == "optimal"


def test_repeated_matrix_entries_are_summed_as_linprog_does():
    # row 0 of A_eq stores column 0 twice: 0.5 + 0.5
    a_eq = sparse.csr_array((np.array([0.5, 0.5, 1.0]), np.array([0, 0, 3]),
                             np.array([0, 3])), shape=(1, 4))
    res = assert_matches_linprog(*_args(dict(HAND, a_eq=a_eq)))
    assert res.status == "optimal"
    assert _bits(res.x) == _bits(solve_lp(*_args(HAND)).x)


def test_infeasible_lp_matches_linprog():
    lp = dict(HAND, b_eq=np.array([-5.0]))  # x0 <= 2 - 1 - 1 and x3 >= -1 cannot meet -5
    lp["bounds"] = [(0.0, None)] + HAND["bounds"][1:]
    assert assert_matches_linprog(*_args(lp)).status == "infeasible"


def test_every_lp_of_a_crowd_interval_matches_linprog(monkeypatch):
    """The LPs of one interval of the ref123-crowd benchmark workload: the
    bundled feeder, 600 bids and 600 offers at an affine price (interval
    seed 1826701615, case C)."""
    network = gc.load_network(gc.bundled_feeder())
    spec = gc.GenerationSpec(n_bids=600, n_offers=600, seed=1826701615)
    doc = {"schema": "gridclear-scenario/1", "feeder": gc.bundled_feeder(),
           "ders": gc.population_document(gc.generate_population(spec, network), network),
           "market": {"m_cents_per_kwh": 2.5,
                      "lmp": {"intercept": 8.0, "slope": 0.004, "base_load_kw": 1347.5}},
           "case": "C"}
    calls = []

    def recording(*args):
        calls.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(gridclear.tdopf, "solve_lp", recording)
    gc.run_scenario(gc.load_scenario(doc))
    assert len(calls) == 4  # three acceptance LPs and the ex-post LP
    for args in calls:
        assert assert_matches_linprog(*args).status == "optimal"


@pytest.mark.parametrize("field, value", [
    ("c", np.array([1.0, np.nan, 0.5, 1.5])),
    ("b_ub", np.array([4.0, np.inf])),
    ("b_eq", np.array([np.nan])),
    ("bounds", [(None, None), (0.0, np.nan), (1.0, 1.0), (-1.0, None)]),
], ids=["nan-cost", "inf-b_ub", "nan-b_eq", "nan-bound"])
def test_non_finite_input_is_rejected(field, value):
    with pytest.raises(ValueError):
        solve_lp(*_args(dict(HAND, **{field: value})))


@pytest.mark.parametrize("field, value", [
    ("b_ub", np.array([4.0])),
    ("b_eq", np.array([1.0, 2.0])),
    ("a_eq", sparse.csr_array([[1.0, 0.0, 1.0]])),
    ("bounds", HAND["bounds"][:3]),
], ids=["b_ub", "b_eq", "a_eq-columns", "bounds"])
def test_length_mismatch_is_rejected(field, value):
    with pytest.raises(ValueError):
        solve_lp(*_args(dict(HAND, **{field: value})))


def test_model_highs_rejects_is_not_optimal():
    # a column whose lower bound is +inf fails HiGHS's model check
    res = solve_lp(*_args(dict(HAND, bounds=HAND["bounds"][:3] + [(np.inf, np.inf)])))
    assert res.status == "numerical"
    assert res.x is None


def _drifting(col_shift=0.0, row_shift=0.0):
    """A HiGHS binding that reports its solution moved by the given shifts."""

    class Drifting(_lp._core._Highs):
        def getSolution(self):
            solution = super().getSolution()
            solution.col_value = [v + col_shift for v in solution.col_value]
            solution.row_value = [v + row_shift for v in solution.row_value]
            return solution

    return Drifting


@pytest.mark.parametrize("lp, shifts", [
    (HAND, {"col_shift": 10.0}),
    (NO_EQ, {"row_shift": 10.0}),
    (dict(HAND, a_ub=None, b_ub=None), {"row_shift": 1e-3}),
], ids=["bounds", "ub-rows", "eq-rows"])
def test_solution_off_its_constraints_is_numerical(monkeypatch, lp, shifts):
    assert solve_lp(*_args(lp)).status == "optimal"
    monkeypatch.setattr(_lp._core, "_Highs", _drifting(**shifts))
    res = solve_lp(*_args(lp))
    assert res.status == "numerical"
    assert res.x is None
