"""Market-interval benchmark for gridclear.

    python3 perfbench/run.py --workload ref123-paper --seed 1 --seconds 20 --trace 0

A closed loop with one client: one interval at a time goes through
`gridclear.run_scenario(config, output_dir)`, the `gridclear run` path
without argparse, on in-memory documents built from the workload seed.
Only the `run_scenario` calls are timed; `--seconds` is their summed wall
time.  Every interval's outputs are checked (see gate.py).

Times are reported in reference seconds (see calibrate.py): each
measurement is divided by the slowdown the calibration passes just before
and just after it show.  The measured seconds are printed next to them and
kept in the meta line.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced intervals on the same inputs and prints the per-layer metrics (see
tracing.py).  The last stdout line is the JSON result; the line before it
(`meta {...}`) records the machine, versions and LP size.  Spans and
metadata are also written to .perfbench_run/ in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread, set before numpy loads.  On a small shared machine a
# second worker spins whenever a neighbour holds the other core, which made
# interval times noisier and no faster.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if not (SRC / "gridclear" / "__init__.py").is_file():
    sys.exit(f"perfbench: no gridclear sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import ctypes  # noqa: E402
import gc as pygc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gridclear as gc  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, interval_seeds  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
CALIBRATION_PASSES = 5  # before the set-up processes
# a safety stop so a run ends well inside three minutes on a slow machine
WALL_LIMIT_S = 120.0

# argv: src dir, scenario path, optional output dir.  With an output dir the
# interval also runs, and the second figure is the process's peak RSS in MB.
SETUP_CODE = """
import resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gridclear
config = gridclear.load_scenario(sys.argv[2])
print(time.perf_counter() - t0)
if len(sys.argv) > 3:
    gridclear.run_scenario(config, sys.argv[3])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def fresh_processes(scenario_path: Path, out_dir: Path):
    """Set-up times of fresh interpreters that import gridclear and load the
    scenario document, each with the slowdown of the calibrations on either
    side of it; and the peak RSS of the last one, which also runs the
    interval and exports it to `out_dir`."""
    times, speed = [], [slowdown_of(calibration(0.0, CALIBRATION_PASSES))]
    for i in range(SETUP_REPEATS):
        extra = [str(out_dir)] if i == SETUP_REPEATS - 1 else []
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               str(scenario_path), *extra],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        figures = [float(x) for x in proc.stdout.split()]
        times.append(figures[0])
        speed.append(slowdown_of(calibration(0.0, 3)))
    slow = [(a + b) / 2 for a, b in zip(speed, speed[1:])]
    return times, slow, figures[-1]


def slowdown_of(passes: list[float]) -> float:
    return statistics.median(passes) / calibrate.REFERENCE_S


def calibration(seconds: float, at_least: int = 1) -> list[float]:
    """Kernel times of passes lasting `seconds`, and at least `at_least`."""
    passes: list[float] = []
    while len(passes) < at_least or sum(passes) < seconds:
        passes.append(calibrate.kernel_seconds())
    return passes


def timed_run(config, out_dir: Path):
    """One `run_scenario` call: (result, wall seconds, process CPU seconds)."""
    pygc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    result = gc.run_scenario(config, out_dir)
    return result, time.perf_counter() - w0, time.process_time() - c0


def check_result(result) -> tuple[list[str], dict]:
    residuals, dims = gate.bin_residuals(result.network, result.population,
                                         result.bins.params, result.bins)
    failures = gate.check_interval(result.network, result.population, result.bins,
                                   result.outcome, result.violations, residuals)
    return failures, dims


def percentile(values, q: int) -> float:
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    run_dir = ROOT / ".perfbench_run"
    run_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=run_dir))
    try:
        return _run(args, run_dir, scratch, started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, run_dir: Path, scratch: Path, started: float) -> int:
    workload = WORKLOADS[args.workload]
    bundled = gc.bundled_feeder()
    failures: list[str] = []
    attempted = failed = 0

    def record(tag, problems):
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            failures.extend(f"{tag}: {p}" for p in problems)

    # The reference interval has fixed inputs.  It warms the caches and is
    # checked against the recorded objectives; a fresh process re-runs it,
    # which must export the same bytes and gives the peak RSS.
    ref_doc = workload.scenario(next(interval_seeds(DEFAULT_SEED)), bundled)
    ref, _, _ = timed_run(gc.load_scenario(ref_doc), scratch / "ref")
    problems, dims = check_result(ref)
    problems += gate.check_reference_objectives(workload.name, ref.bins)
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "n_buses": ref.network.n + 1, "der_count": ref.population.n, **dims,
    }
    del ref
    scenario_path = scratch / "scenario.json"
    scenario_path.write_text(json.dumps(ref_doc))
    setup_times, setup_slow, peak_rss = fresh_processes(scenario_path,
                                                        scratch / "rerun")
    problems += gate.compare_exports(scratch / "ref", scratch / "rerun")
    record("reference", problems)

    # blocks[k]: calibration passes run just before interval (or traced
    # pair) k, the last one after the loop
    blocks: list[list[float]] = []
    walls, cpus, block_of = [], [], []
    tr = tracing.Tracer()
    seeds = interval_seeds(args.seed)
    measured, iv = 0.0, 0
    while measured < args.seconds and time.perf_counter() - started < WALL_LIMIT_S:
        config = gc.load_scenario(workload.scenario(next(seeds), bundled))
        blocks.append(calibration(0.05 * (walls[-1] if walls else 0.0),
                                  1 if blocks else CALIBRATION_PASSES))
        # in a traced run, pairs alternate which side goes first
        traced_first = args.trace == 1 and iv % 2 == 1
        if traced_first:
            measured += _traced(tr, iv, config, scratch, record)
        try:
            result, wall, cpu = timed_run(config, scratch / "out")
        except gc.GridclearError as exc:
            record(f"interval {iv}", [f"run_scenario raised {exc!r}"])
        else:
            measured += wall
            walls.append(wall)
            cpus.append(cpu)
            block_of.append(len(blocks) - 1)
            record(f"interval {iv}", check_result(result)[0])
            del result
        if args.trace == 1 and not traced_first:
            measured += _traced(tr, iv, config, scratch, record)
        iv += 1
    blocks.append(calibration(0.05 * (walls[-1] if walls else 0.0)))

    if not walls:
        print("perfbench: no interval completed", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1

    # The machine's speed changes within seconds, so each measurement is
    # scaled by the calibrations on either side of it.
    speed = [slowdown_of(b) for b in blocks]
    slow = [(speed[k] + speed[k + 1]) / 2 for k in block_of]
    slowdown = slowdown_of([p for b in blocks for p in b])
    raw = {"setup_s": statistics.median(setup_times),
           "interval_s.p50": statistics.median(walls),
           "interval_s.p90": percentile(walls, 90),
           "interval_cpu_s.p50": statistics.median(cpus)}
    if args.trace == 0:
        scaled = [w / s for w, s in zip(walls, slow)]
        metrics = {
            "setup_s": (statistics.median(
                t / s for t, s in zip(setup_times, setup_slow)), "s"),
            "interval_s.p50": (statistics.median(scaled), "s"),
            "interval_s.p90": (percentile(scaled, 90), "s"),
            "interval_cpu_s.p50": (
                statistics.median(c / s for c, s in zip(cpus, slow)), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    else:
        # per-layer spans scale by the run's median slowdown
        layer = tracing.per_layer(tr.spans, raw["interval_s.p50"], failed, attempted)
        raw.update({k: v for k, (v, unit) in layer.items() if unit == "s"})
        metrics = {k: (v / slowdown if unit == "s" else v, unit)
                   for k, (v, unit) in layer.items()}

    meta.update({
        "slowdown": slowdown, "interval_slowdown": slow,
        "setup_times_s": setup_times, "setup_slowdown": setup_slow,
        "calibration_s": blocks,
        "measured_s": raw, "interval_samples": len(walls), "interval_s": walls,
        "failed_fraction": failed / attempted, "failures": failures,
        "timed_process_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    tr.write(run_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
             meta)

    if args.trace == 1:
        print(f"self time per span in measured seconds, {workload.name}, "
              f"{metrics['trace.intervals'][0]:.0f} traced intervals:")
        print(tracing.self_time_table(tr.spans))
    print(f"{'metric':36s} {'value':>14s} unit  (measured s)")
    for name, (value, unit) in metrics.items():
        measured_s = f"  ({raw[name]:.6g})" if name in raw else ""
        print(f"{name:36s} {value:14.6g} {unit}{measured_s}")
    print(f"{'slowdown':36s} {slowdown:14.6g} machine vs reference, "
          f"{sum(map(len, blocks))} calibration passes")
    print(f"{'samples':36s} {len(walls):14d} intervals timed")
    print(f"{'failed_fraction':36s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} intervals)")
    for f in failures:
        print(f"FAILED {f}")
    print("meta " + json.dumps({k: v for k, v in meta.items()
                                if k not in ("calibration_s", "interval_s",
                                             "interval_slowdown", "setup_times_s",
                                             "setup_slowdown")},
                               sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _traced(tr, iv, config, scratch, record) -> float:
    """Run one traced interval and its re-issued solves; return the
    interval span's duration."""
    pygc.collect()
    out = scratch / "traced"
    out.mkdir(exist_ok=True)
    try:
        interval = tracing.traced_interval(tr, iv, config, out)
    except gc.GridclearError as exc:
        record(f"traced interval {iv}", [f"raised {exc!r}"])
        return 0.0
    residuals, problems = tracing.reissue(tr, iv, config.params, interval)
    problems += gate.check_interval(interval["network"], interval["population"],
                                    interval["bins"], interval["outcome"],
                                    interval["violations"], residuals)
    record(f"traced interval {iv}", problems)
    root = next(s for s in reversed(tr.spans) if s["name"] == "interval")
    return root["end"] - root["start"]


if __name__ == "__main__":
    sys.exit(main())
