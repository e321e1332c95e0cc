#!/usr/bin/env python3
"""Print a digest of every LP the benchmark workloads' intervals hand to HiGHS.

    python3 tools/lp_digest.py > lps.txt

Makes the 36 runs of tools/digest_runs.py, as tools/export_digest.py
does.  Every call of `gridclear.tdopf.solve_lp` prints one
`<sha256>  <workload>/<seed>/<case>/lp<k>` line over the model it was
given (c, both constraint matrices as CSR arrays with their index dtypes,
b_ub, b_eq, bounds) and the solution it returned (status, x, objective
and every marginal).  Run it on two commits and diff the output: no
difference means both handed HiGHS the same models and got the same
vertices and duals back.  Takes a few minutes; writes no files.
"""

from __future__ import annotations

import hashlib
import sys

from digest_runs import runs  # first: pins BLAS and sets sys.path

import numpy as np  # noqa: E402

import gridclear as gc  # noqa: E402
import gridclear.tdopf  # noqa: E402


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
    for tag, config in runs():
        digests.clear()
        gc.run_scenario(config)
        for k, digest in enumerate(digests):
            print(f"{digest}  {tag}/lp{k}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
