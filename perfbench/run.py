"""Benchmark for the hermitia package.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of laws, enumerate, queries-random, queries-families (see
``workloads.py``).  The run builds its inputs from the seed, fills the
package's lazy caches, then repeats whole blocks of the workload until
``--seconds`` of wall time have passed, one operation at a time from a
single thread.  Every answer is checked; any wrong or failed operation makes
the exit code 1.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``layers.py`` with
``--trace 1``.  ``--size tiny`` shrinks every workload for the self-test.

The package is imported from ``src/`` next to this directory; the command
exits with code 2 and prints no result when that source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

# Fresh processes timed for setup_s, some before and some after the measured
# blocks so that a slow spell of the machine does not hit them all; the
# median is reported.
SETUP_PROBES = (4, 3)
PROBE_TIMEOUT_S = 120
# The load is one thread: these keep numpy's BLAS from starting a thread
# pool, in this process and in the set-up probes, which inherit them.
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def import_package():
    """Import hermitia from this checkout's ``src/``, or return None."""
    if not (SRC / "hermitia" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hermitia

    if Path(hermitia.__file__).resolve().parent != SRC / "hermitia":
        return None
    return hermitia


def measure_setup(order: int, probes: int) -> list[float]:
    """Times, in ``probes`` fresh processes, to import the package and fill
    the cache of connected underlying graphs up to ``order`` (see
    setup_probe.py)."""
    times = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(order)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile: at 0.99 of 1000 values, 10 lie beyond it."""
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(dict.fromkeys(SINGLE_THREAD_ENV, "1"))
    if import_package() is None:
        print(f"error: no hermitia source tree at {SRC}", file=sys.stderr)
        return 2
    import layers
    import numpy as np
    import workloads
    from clock import Clock

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
    clock = Clock()
    try:
        setup_times = measure_setup(workload.setup_order, SETUP_PROBES[0])
        tracer = layers.Tracer(clock) if args.trace else None
        if tracer is not None:
            tracer.install()
        workload.prepare()
        tally = workloads.Tally()
        busy = 0.0
        samples = 0
        p50s, p99s = [], []
        start = time.perf_counter()
        with clock:
            while True:
                workload.block(tally)
                # Summarize each block on its own, so memory does not grow
                # with the number of blocks a faster program fits in.
                clock.sample()
                latencies = np.sort(np.frombuffer(clock.durations(tally.spans))) * 1000.0
                del tally.spans[:]
                busy += latencies.sum() / 1000.0
                samples += len(latencies)
                p50s.append(float(np.median(latencies)))
                p99s.append(percentile(latencies, 0.99))
                if time.perf_counter() - start >= args.seconds:
                    break
        if tracer is not None:
            tracer.uninstall()
        setup_times += measure_setup(workload.setup_order, SETUP_PROBES[1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            SCRATCH.rmdir()

    items_per_s = tally.items / busy
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (items_per_s, "1/s"),
            "latency_p50_ms": (statistics.median(p50s), "ms"),
            "latency_p99_ms": (statistics.median(p99s), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = tracer.metrics()
        metrics["trace.items_per_s"] = (items_per_s, "1/s")
        metrics["latency.samples"] = (float(samples), "count")
        metrics["fail_ratio"] = (tally.failed / tally.attempted, "ratio")

    print(f"workload {args.workload}: {tally.items} {workload.item}; latency of "
          f"{workload.latency_of}, {samples} samples in {len(p50s)} blocks")
    print(f"fail_ratio {tally.failed}/{tally.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
