"""What every bench/ script shares: the host record, the alternating timer and the report path.

A script imports this module before halfheat (it puts the checkout's
src/ first on sys.path), times its calls with `alternate`, and its
`main(argv)` returns `run(build, "BENCH_<topic>.json", argv)`, where
`build(repeats)` returns the report and the lines of its failed gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """The host record: interpreter, numpy, scipy, cores, CPU model and the BLAS and OpenMP
    thread caps (None when unset), against which a spread in times can be read."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
            **{name: os.environ.get(name)
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def quartiles(times) -> dict:
    """The median and the first and third quartiles of `times`; one time stands for all three."""
    if len(times) == 1:
        times = times * 3
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def alternate(calls, repeats: int) -> list:
    """Per call, the quartiles of its wall times (s) over `repeats` calls, and its last result.

    The calls are made in turn, one each per repeat, so a slow episode of
    the host weighs on every side.
    """
    times, results = [[] for _ in calls], [None] * len(calls)
    for _ in range(repeats):
        for n, fn in enumerate(calls):
            t0 = time.perf_counter()
            results[n] = fn()
            times[n].append(time.perf_counter() - t0)
    return [(quartiles(t), r) for t, r in zip(times, results)]


def run(build, default_out: str, argv=None) -> int:
    """Parse --out and --repeats, write build(repeats)'s report as JSON and print its FAIL lines.

    The report gains the environment, the repeats and the failures, and
    is written whether or not a gate failed; the exit code is 1 if one
    did, else 0.
    """
    parser = argparse.ArgumentParser(description=build.__doc__)
    parser.add_argument("--out", default=str(ROOT / default_out))
    parser.add_argument("--repeats", type=int, default=7)  # quartiles: the 2nd and 6th call
    args = parser.parse_args(argv)
    report, failures = build(args.repeats)
    report = {"environment": environment(), "repeats": args.repeats, **report,
              "failures": failures}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0
