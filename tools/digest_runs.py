"""The 36 runs that tools/export_digest.py and tools/lp_digest.py digest.

The first three interval seeds of workload seed 0 of each workload in
perfbench/workloads.py, in cases C, A, B and test-case-1.  Importing this
module pins BLAS to one thread, as in the benchmark, before numpy loads,
and puts src/ and perfbench/ on sys.path, so a tool imports it first.
"""

from __future__ import annotations

import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gridclear as gc  # noqa: E402
from workloads import WORKLOADS, interval_seeds  # noqa: E402

CASES = ("C", "A", "B", "test-case-1")
INTERVALS = 3


def runs():
    """Yield (`<workload>/<seed>/<case>`, scenario config) for each run, in order."""
    bundled = gc.bundled_feeder()
    for name, workload in WORKLOADS.items():
        for seed in itertools.islice(interval_seeds(0), INTERVALS):
            doc = workload.scenario(seed, bundled)
            for case in CASES:
                yield f"{name}/{seed}/{case}", gc.load_scenario(dict(doc, case=case))
