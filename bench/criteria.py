"""The acceptance-criteria table of `halfheat verify`, timed check by check at both probe sets.

    python3 bench/criteria.py [--out BENCH_criteria.json] [--repeats 7]

Each repeat calls verify.run_criteria at every probe set of
verify.PROBE_SETS (`desk`, then `full`), each followed by a
solver_session call at that set's session inputs, which run_criteria
builds but does not time; harness.alternate makes the calls in turn.
Per probe set the JSON records:

    total_s          the run_criteria call, with its solver session
    session_s        the solver_session call alone
    checks           per check of the last run: name, residual,
                     tolerance and passed, and wall_s, the quartiles of
                     the check's own wall_s over the repeats (the time
                     since the check before it; the first repeat is the
                     first call in the process, which fills the caches)

Every time is the median and quartiles over --repeats calls.  The gates
are the table's own tolerances: the exit code is 1 when a check of the
last run at either probe set did not pass.
"""

from __future__ import annotations

from harness import alternate, quartiles, run  # first: it puts src/ on sys.path

from halfheat import verify


def build(repeats: int):
    """The acceptance-criteria table of `halfheat verify`, timed check by check at both probe sets."""
    runs = {name: [] for name in verify.PROBE_SETS}
    calls = []
    for name in runs:
        calls += [lambda name=name: runs[name].append(verify.run_criteria(name)),
                  lambda name=name: verify.solver_session(**verify.PROBE_SETS[name]["session"])]
    timed = alternate(calls, repeats)
    report, failures = {}, []
    for n, name in enumerate(runs):
        (total_s, _), (session_s, _) = timed[2 * n:2 * n + 2]
        checks = [{**{key: check[key] for key in ("name", "residual", "tolerance", "passed")},
                   "wall_s": quartiles([r[i]["wall_s"] for r in runs[name]])}
                  for i, check in enumerate(runs[name][-1])]
        report[name] = {"total_s": total_s, "session_s": session_s, "checks": checks}
        failures += [f"{name} {c['name']}: residual {c['residual']:.3e}, "
                     f"tolerance {c['tolerance']:.3e}" for c in checks if not c["passed"]]
        print(f"{name}: {len(checks)} checks in {total_s['median']:.2f} s, "
              f"session {session_s['median']:.2f} s, "
              f"{len(checks) - sum(c['passed'] for c in checks)} failed", flush=True)
    return {"probe_sets": report}, failures


def main(argv=None) -> int:
    return run(build, "BENCH_criteria.json", argv)


if __name__ == "__main__":
    raise SystemExit(main())
