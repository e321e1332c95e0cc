#!/usr/bin/env python3
"""Print a digest of every LP the benchmark workloads' intervals hand to HiGHS.

    python3 tools/lp_digest.py > lps.txt

Makes the same 36 runs as tools/export_digest.py (the first three interval
seeds of workload seed 0 of each workload in perfbench/workloads.py, in
cases C, A, B and test-case-1).  Every call of `gridclear.tdopf.solve_lp`
prints one `<sha256>  <workload>/<seed>/<case>/lp<k>` line over the model
it was given (c, both constraint matrices as CSR arrays with their index
dtypes, b_ub, b_eq, bounds) and the solution it returned (status, x,
objective and every marginal).  Run it on two commits and diff the
output: no difference means both handed HiGHS the same models and got the
same vertices and duals back.  Takes a few minutes; writes no files.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread, as in the benchmark, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import gridclear as gc  # noqa: E402
import gridclear.tdopf  # noqa: E402
from workloads import WORKLOADS, interval_seeds  # noqa: E402

CASES = ("C", "A", "B", "test-case-1")
INTERVALS = 3


def _feed(h, value) -> None:
    """Hash `value` with its type, shape and dtype, so equal digests mean
    equal arrays down to the bytes."""
    if hasattr(value, "indptr"):  # a compressed sparse matrix
        h.update(f"csr{value.shape}".encode())
        for part in (value.data, value.indices, value.indptr):
            _feed(h, part)
    elif isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


def _digest(args, result) -> str:
    h = hashlib.sha256()
    for value in args:
        _feed(h, value)
    for name in ("status", "x", "fun", "eq_marginals", "ub_marginals",
                 "lower_marginals", "upper_marginals"):
        _feed(h, getattr(result, name))
    return h.hexdigest()


def main() -> int:
    solve_lp = gridclear.tdopf.solve_lp
    digests: list[str] = []

    def recording(*args):
        result = solve_lp(*args)
        digests.append(_digest(args, result))
        return result

    gridclear.tdopf.solve_lp = recording
    bundled = gc.bundled_feeder()
    for name, workload in WORKLOADS.items():
        for seed in itertools.islice(interval_seeds(0), INTERVALS):
            doc = workload.scenario(seed, bundled)
            for case in CASES:
                digests.clear()
                gc.run_scenario(gc.load_scenario(dict(doc, case=case)))
                for k, digest in enumerate(digests):
                    print(f"{digest}  {name}/{seed}/{case}/lp{k}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
