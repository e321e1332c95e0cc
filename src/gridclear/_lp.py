"""Thin wrapper around the LP solver.

Everything above this module speaks in terms of LpResult; swapping HiGHS for
another solver only means reimplementing solve_lp with the same dual
conventions: for min c'x s.t. A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub
the returned marginals satisfy

    c = A_eq' eq_marginals + A_ub' ub_marginals + lower_marginals + upper_marginals

with ub_marginals <= 0, lower_marginals >= 0, upper_marginals <= 0.
The constraint matrices are scipy.sparse; a matrix with no rows stands for
no constraints of its kind.  A bound of None is no bound.

solve_lp hands the LP to HiGHS through the binding scipy bundles
(`scipy.optimize._highspy._core`), as arrays: A_ub stacked over A_eq in
compressed-column form, with the rows as lo <= row <= hi.  It sets the
options, checks the input and judges the solution as scipy's own
`method="highs"` LP front end does with `_OPTIONS`, so both give HiGHS
the same model and return the same status, vertex and duals
(tests/test_lp.py compares them bit for bit).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core

# in scipy's option names too: tests/test_lp.py hands them to its reference solve
_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

# what scipy's HiGHS front end sets, given _OPTIONS
_HIGHS_OPTIONS = {
    "presolve": "on",
    "simplex_strategy": int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "output_flag": False,
    **_OPTIONS,
}

# an optimal x off its bounds or rows by more than this is "numerical" (scipy's check)
_CHECK_TOL = np.sqrt(1e-9) * 10

_STATUS = {
    _core.HighsModelStatus.kOptimal: "optimal",
    _core.HighsModelStatus.kInfeasible: "infeasible",
    _core.HighsModelStatus.kUnbounded: "unbounded",
}  # every other model status is "numerical"


@dataclass(frozen=True)
class LpResult:
    status: str
    x: np.ndarray | None
    fun: float | None
    eq_marginals: np.ndarray | None
    ub_marginals: np.ndarray | None
    lower_marginals: np.ndarray | None
    upper_marginals: np.ndarray | None
    message: str = ""
    nit: int = 0  # solver iterations


def _failed(status: str, message: str, nit: int = 0) -> LpResult:
    return LpResult(status=status, x=None, fun=None, eq_marginals=None,
                    ub_marginals=None, lower_marginals=None,
                    upper_marginals=None, message=message, nit=nit)


def _finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must not contain inf or nan")


def _rows(name: str, a, rhs, n: int) -> tuple:
    """`a` (None or empty for no rows) and its right-hand side, checked
    against each other and against the n columns."""
    rhs = np.zeros(0) if rhs is None else np.asarray(rhs, dtype=float)
    if a is None or not a.shape[0]:
        if rhs.size:
            raise ValueError(f"b_{name} has {rhs.size} values for no A_{name} rows")
        return None, np.zeros(0)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"A_{name} must have {n} columns, got shape {a.shape}")
    if rhs.shape != (a.shape[0],):
        raise ValueError(f"b_{name} must have {a.shape[0]} values, got shape {rhs.shape}")
    _finite(f"b_{name}", rhs)
    return a, rhs


def _bounds(bounds, n: int) -> tuple:
    """(lb, ub) from one (lb, ub) pair per column; None is no bound, nan is
    rejected."""
    cells = np.array(bounds, dtype=object)
    if cells.shape != (n, 2):
        raise ValueError(f"bounds must be {n} (lb, ub) pairs, got shape {cells.shape}")
    free = cells == None  # noqa: E711 - elementwise test for None
    cells[free] = 0.0
    lb_ub = cells.astype(float)
    if np.isnan(lb_ub).any():
        raise ValueError("bounds must not contain nan")
    lb_ub[:, 0][free[:, 0]] = -np.inf
    lb_ub[:, 1][free[:, 1]] = np.inf
    lb, ub = lb_ub.T.copy()
    return lb, ub


def solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds) -> LpResult:
    c = np.asarray(c, dtype=float)
    if c.ndim != 1 or not c.size:
        raise ValueError(f"c must be a nonempty 1-D array, got shape {c.shape}")
    _finite("c", c)
    n = c.size
    a_ub, b_ub = _rows("ub", a_ub, b_ub, n)
    a_eq, b_eq = _rows("eq", a_eq, b_eq, n)
    lb, ub = _bounds(bounds, n)
    blocks = [a for a in (a_ub, a_eq) if a is not None]
    a = sparse.csc_array(sparse.vstack(blocks) if blocks else (0, n))
    a.sum_duplicates()  # HiGHS rejects a repeated entry; scipy's front end summed them
    _finite("A_ub and A_eq", a.data)
    m_ub = b_ub.size
    row_lo = np.concatenate([np.full(m_ub, -np.inf), b_eq])
    row_hi = np.concatenate([b_ub, b_eq])

    highs = _core._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        highs.setOptionValue(name, value)
    if highs.passModel(n, a.shape[0], a.nnz, int(_core.MatrixFormat.kColwise),
                       int(_core.ObjSense.kMinimize), 0.0, c, lb, ub, row_lo, row_hi,
                       a.indptr, a.indices, a.data,
                       np.zeros(n, dtype=np.int32)) == _core.HighsStatus.kError:
        return _failed("numerical", "HiGHS rejected the model")
    if highs.run() == _core.HighsStatus.kError:
        return _failed("numerical", "HiGHS failed to solve the model")
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    nit = int(info.simplex_iteration_count or info.ipm_iteration_count)
    message = highs.modelStatusToString(model_status)
    status = _STATUS.get(model_status, "numerical")
    if status != "optimal":
        return _failed(status, message, nit)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = float(info.objective_function_value)
    slack = row_hi - np.array(solution.row_value)
    feasible = not (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
                    or (x < lb - _CHECK_TOL).any() or (x > ub + _CHECK_TOL).any()
                    or (slack[:m_ub] < -_CHECK_TOL).any()
                    or (np.abs(slack[m_ub:]) > _CHECK_TOL).any())
    if not feasible:
        return _failed("numerical", f"{message}, but the solution misses its bounds "
                       f"or rows by more than {_CHECK_TOL:.2e}", nit)

    row_dual = np.array(solution.row_dual)
    col_dual = np.array(solution.col_dual)
    col_status = np.fromiter(map(operator.index, highs.getBasis().col_status),
                             dtype=np.int8, count=n)
    return LpResult(
        status=status,
        x=x,
        fun=fun,
        eq_marginals=row_dual[m_ub:],
        ub_marginals=row_dual[:m_ub],
        lower_marginals=np.where(col_status == int(_core.HighsBasisStatus.kLower), col_dual, 0.0),
        upper_marginals=np.where(col_status == int(_core.HighsBasisStatus.kUpper), col_dual, 0.0),
        message=message,
        nit=nit,
    )
