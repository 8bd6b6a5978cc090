"""halfheat benchmark: one workload per process, metrics with the oracle error.

    python3 perfbench/run.py --workload columns|kernel_cli|verdicts \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from its
`src/` directory, and scratch files go to `.perfbench_out/` at the root.
BLAS threads are capped at the CPU count, and the process re-executes
itself once with the environment in PINNED_ENV.

A run repeats the workload's fixed round of calls into halfheat until
`--seconds` have passed, checking every round's outputs against the
oracles outside the timed section.  With `--trace 0` it reports the
end-to-end metrics:

    wall_refs    one round's calls into halfheat, in times of a fixed
                 reference loop timed next to each call (see round_refs)
    setup_s      median, over separate set-up processes, of the time from
                 process start to the first timed call (imports, inputs,
                 first-use costs)
    peak_rss_mb  peak resident memory of this process (ru_maxrss)
    err_max      worst relative error against the workload's oracle

With `--trace 1` rounds alternate between untraced and traced; the
traced rounds give the per-layer metrics (see tracing.py), and
`trace.overhead` is the traced over the untraced median round wall time.
The last line of standard output is the JSON result; the full record,
with the environment, the time of every call of every round, and the
spans of the last traced round, is written to `.perfbench_out/`.  The
human-readable lines also give `wall_s`, the median round wall time in
seconds, which is not steady enough between runs to gate on.  The exit
code is 1 when any check failed.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("columns", "kernel_cli", "verdicts")
DEFAULT_SEED = 20240901
SETUP_PROBES = 7
MIN_ROUNDS = 3               # per kind (untraced, traced), whatever --seconds says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [("wall_refs", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("err_max", "1")]

# Without these the peak RSS of `columns` lands on 129, 133 or 145 MB from one
# process to the next: string-hash order and glibc's sliding mmap threshold
# decide whether freed LU factors go back to the system before the next one.
PINNED_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": str(1 << 20)}


def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child process timing set-up only
    return parser.parse_args(argv)


def load_workload(name: str, seed: int, workdir: Path):
    """Import halfheat from the checkout, draw the inputs, pay first-use costs."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed, workdir)
    workload.warm_up(inputs)
    return workload, inputs


def setup_probe(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        load_workload(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)
    return 0


def measure_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {rc}")
    return elapsed


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def round_refs(rounds: list[list[tuple[float, float]]]) -> float:
    """Mean over the rounds of a round's calls in reference-loop times: each
    call's wall time over the reference's around it, summed over the round.

    On a shared host the whole machine runs 30-50% slower or faster for
    seconds at a time, as neighbours come and go; a 30 s run holds only a
    few such spells, so its median round time moves by 10-30% from one
    run to the next.  The reference loop, timed right before and right
    after each call, slows down with it.
    """
    return statistics.fmean(sum(t / ref for t, ref in calls) for calls in rounds)


def run(args, nproc: int) -> tuple[dict, int]:
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload, inputs = load_workload(args.workload, args.seed, workdir)
    own_setup = time.perf_counter() - PROCESS_START

    import halfheat
    import workloads
    from tracing import PER_LAYER, Tracer

    tracer = Tracer(halfheat) if args.trace else None
    walls = {False: [], True: []}
    calls = {False: [], True: []}
    layer_rounds = []
    attempted = 0
    errs = []
    failures = []
    spans = []
    # set-up probes run between rounds, outside the measured time, so that
    # they meet the host at several speeds and not all at one
    setup_samples = []
    probes_s = 0.0
    started = time.perf_counter()
    traced = False
    try:
        while True:
            round_started = time.perf_counter()
            if traced:
                tracer.reset()
                tracer.install()
            workloads.start_round()
            try:
                outputs = workload.run_round(inputs)
            finally:
                if traced:
                    tracer.uninstall()
            calls[traced].append(list(workloads.ROUND_CALLS))
            wall = sum(t for t, _ in workloads.ROUND_CALLS)
            walls[traced].append(wall)
            for op in workload.check(inputs, outputs):
                attempted += 1
                if op.err is not None:
                    errs.append(op.err)
                if not op.ok:
                    failures.append(f"round {len(walls[False]) + len(walls[True])}: "
                                    f"{op.name}: {op.detail}")
            if traced:
                layer_rounds.append({**tracer.summary(wall), **workload.output_stats(inputs)})
                spans = list(tracer.spans)
            workload.clean(inputs)
            del outputs
            round_s = time.perf_counter() - round_started
            if not args.trace and len(setup_samples) < SETUP_PROBES:
                probe_started = time.perf_counter()
                setup_samples.append(measure_setup(args))
                probes_s += time.perf_counter() - probe_started
            # stop before a round that would end past the deadline
            measured = time.perf_counter() - started - probes_s
            kinds = (False, True) if tracer else (False,)
            enough = all(len(walls[kind]) >= MIN_ROUNDS for kind in kinds)
            if enough and measured + round_s > args.seconds:
                break
            traced = tracer is not None and not traced
        while not args.trace and len(setup_samples) < SETUP_PROBES:
            setup_samples.append(measure_setup(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        values = {name: statistics.median(layers.get(name, 0.0) for layers in layer_rounds)
                  for name, _ in PER_LAYER}
        values["trace.wall_s"] = statistics.median(walls[True])
        # wall times, not reference times: the tracer's counting hooks call
        # BLAS, whose spinning threads slow the reference loop after them
        values["trace.overhead"] = values["trace.wall_s"] / statistics.median(walls[False])
        units = dict(PER_LAYER)
    else:
        values = {
            "wall_refs": round_refs(calls[False]),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss_mb,
            # a non-finite error is a failed check; keep the JSON finite
            "err_max": min(max(errs, default=math.inf), sys.float_info.max),
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(nproc),
        "rounds": {"untraced_s": walls[False], "traced_s": walls[True]},
        "calls_s": {"untraced": calls[False], "traced": calls[True]},
        "wall_s": statistics.median(walls[False]),
        "setup_samples_s": setup_samples, "own_setup_s": own_setup,
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = {"fields": ["name", "start", "end", "parent"], "spans": spans}
    return record, 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "halfheat" / "__init__.py").is_file():
        print(f"perfbench: no halfheat sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    if any(os.environ.get(var) != value for var, value in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.setup_probe:
        return setup_probe(args)
    OUT.mkdir(exist_ok=True)
    record, code = run(args, nproc)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, default=float) + "\n")
    print(json.dumps({"environment": record["environment"]}))
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    metrics = record["metrics"]
    for name, m in metrics.items():
        print(f"{args.workload:>10}  {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:>10}  {'wall_s (median round, not gated)':<34}"
          f" {record['wall_s']:.6g} s")
    print(f"{args.workload:>10}  rounds={len(record['rounds']['untraced_s']) + len(record['rounds']['traced_s'])}"
          f" attempted={record['attempted']} failed={record['failed']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
