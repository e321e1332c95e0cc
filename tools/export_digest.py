#!/usr/bin/env python3
"""Print a digest of every file the benchmark workloads' intervals export.

    python3 tools/export_digest.py > digest.txt

Runs the first three interval seeds of workload seed 0 of each workload in
perfbench/workloads.py, in cases C, A, B and test-case-1 (36 runs), and
prints one `<sha256>  <workload>/<seed>/<case>/<file>` line per exported
file except manifest.json, which carries a timestamp.  Run it on two
commits and diff the output: no difference means the change left every
exported byte as it was.  Takes a few minutes; writes only to a temporary
directory.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread, as in the benchmark, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gridclear as gc  # noqa: E402
from workloads import WORKLOADS, interval_seeds  # noqa: E402

CASES = ("C", "A", "B", "test-case-1")
INTERVALS = 3


def main() -> int:
    bundled = gc.bundled_feeder()
    with tempfile.TemporaryDirectory(prefix="export-digest-") as tmp:
        for name, workload in WORKLOADS.items():
            for seed in itertools.islice(interval_seeds(0), INTERVALS):
                doc = workload.scenario(seed, bundled)
                for case in CASES:
                    out = Path(tmp, name, str(seed), case)
                    gc.run_scenario(gc.load_scenario(dict(doc, case=case)), out)
                    for path in sorted(out.iterdir()):
                        if path.name == "manifest.json":
                            continue
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        print(f"{digest}  {name}/{seed}/{case}/{path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
