"""A fixed piece of work that times how fast the machine runs right now.

On a shared machine the same interval can take 25% longer for minutes at
a time while neighbours are busy, and process CPU time slows with it.  A
run therefore times this kernel between its intervals and reports times
in reference seconds: measured seconds times REFERENCE_S over the run's
median kernel time.  The kernel is a small HiGHS LP plus a Python dict
loop, the two kinds of work that slowed together with the intervals; it
uses no gridclear code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# median kernel time on the machine the bounds were set on (2 vCPUs,
# Python 3.11, scipy 1.17); it only fixes the scale of reference seconds
REFERENCE_S = 0.05


def _problem():
    rng = np.random.default_rng(20251017)
    a = rng.standard_normal((300, 150))
    a[np.abs(a) < 1.2] = 0.0
    return (-np.abs(rng.standard_normal(150)), sparse.csr_matrix(a),
            np.abs(rng.standard_normal(300)) + 1.0)


_C, _A, _B = _problem()


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    t0 = time.perf_counter()
    res = linprog(_C, A_ub=_A, b_ub=_B, bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"calibration LP ended {res.message}")
    table = {}
    for i in range(20000):
        table[f"k{i % 4000}"] = i
    return time.perf_counter() - t0
