"""Thin wrapper around the LP solver.

Everything above this module speaks in terms of LpResult; swapping HiGHS for
another solver only means reimplementing solve_lp with the same dual
conventions: for min c'x s.t. A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub
the returned marginals satisfy

    c = A_eq' eq_marginals + A_ub' ub_marginals + lower_marginals + upper_marginals

with ub_marginals <= 0, lower_marginals >= 0, upper_marginals <= 0.
The constraint matrices are scipy.sparse and are handed to the solver as
they are; a matrix with no rows stands for no constraints of its kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

_STATUS = {0: "optimal", 1: "numerical", 2: "infeasible", 3: "unbounded", 4: "numerical"}

_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


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


def solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds) -> LpResult:
    a_ub_s = a_ub if a_ub is not None and a_ub.shape[0] else None
    a_eq_s = a_eq if a_eq is not None and a_eq.shape[0] else None
    res = linprog(c, A_ub=a_ub_s, b_ub=b_ub, A_eq=a_eq_s, b_eq=b_eq,
                  bounds=bounds, method="highs", options=_OPTIONS)
    status = _STATUS.get(res.status, "numerical")
    nit = int(res.nit)
    if status != "optimal":
        return LpResult(status=status, x=None, fun=None, eq_marginals=None,
                        ub_marginals=None, lower_marginals=None,
                        upper_marginals=None, message=str(res.message), nit=nit)
    return LpResult(
        status=status,
        x=np.asarray(res.x),
        fun=float(res.fun),
        eq_marginals=np.asarray(res.eqlin.marginals) if a_eq_s is not None else np.zeros(0),
        ub_marginals=np.asarray(res.ineqlin.marginals) if a_ub_s is not None else np.zeros(0),
        lower_marginals=np.asarray(res.lower.marginals),
        upper_marginals=np.asarray(res.upper.marginals),
        message=str(res.message),
        nit=nit,
    )
