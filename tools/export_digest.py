#!/usr/bin/env python3
"""Print a digest of every file the benchmark workloads' intervals export.

    python3 tools/export_digest.py > digest.txt

Makes the 36 runs of tools/digest_runs.py (the first three interval seeds
of workload seed 0 of each workload in perfbench/workloads.py, in cases C,
A, B and test-case-1) and prints one
`<sha256>  <workload>/<seed>/<case>/<file>` line per exported file except
manifest.json, which carries a timestamp.  Run it on two commits and diff
the output: no difference means the change left every exported byte as it
was.  Takes a few minutes; writes only to a temporary directory.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from digest_runs import runs  # first: pins BLAS and sets sys.path

import gridclear as gc  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="export-digest-") as tmp:
        for tag, config in runs():
            out = Path(tmp, tag)
            gc.run_scenario(config, out)
            for path in sorted(out.iterdir()):
                if path.name == "manifest.json":
                    continue
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {tag}/{path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
