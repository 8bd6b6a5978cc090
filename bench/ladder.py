"""The S^{alpha,beta} norm ladder, timed, against the ladder built bump by bump.

    python3 bench/ladder.py [--out BENCH_ladder.json] [--repeats 5]

`sab_norm_estimate` evaluates every level of the ladder from one cached
table, the t = 1 Gaussian on the deepest level's output rule, in one
contraction per ladder.  `per_bump_ladder` below is the ladder as it was
before that table: one `sab_apply_bump` call per dyadic bump per level,
each building its own Gaussian on the level's rule.  This script runs
both through the public API only.

Cases: the twelve criterion-9 specs (acceptance criterion 9, the
test-suite's CASE_MATRIX) at levels 3 and 4, base_octaves 6, all of
levels 3 first.  Per case the JSON records:

    first_s          the case's first sab_norm_estimate call in the
                     process; the cache holds the table of one depth, so
                     the first spec of each levels value builds it
    repeat_s         median of --repeats later calls
    per_bump_s       median of --repeats per_bump_ladder calls, each
                     timed right after a repeat_s call
    ladder, max_rel_diff  the ladder, and its largest relative
                     difference from per_bump_ladder's
    criterion        sab_criterion's closed-form verdict
    verdict, reference_verdict  "bounded" (growth < 1.5, last step
                     < 1.1), "unbounded" (growth >= 10) or "undecided",
                     of the ladder and of per_bump_ladder's
    agrees           verdict is the one sab_criterion predicts

The summary sums repeat_s and per_bump_s over each levels value.  The
JSON also holds the environment.  The exit code is 1 when a case's
max_rel_diff exceeds DIFF_TOL or its verdict differs from
reference_verdict (`passes`); the JSON is written either way.
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

from halfheat.quadrature import legendre_panel  # noqa: E402
from halfheat.sab import (  # noqa: E402
    LADDER_GAUSS,
    LADDER_OCTAVES,
    SabSpec,
    sab_apply_bump,
    sab_criterion,
    sab_norm_estimate,
)

#: acceptance criterion 9: both sides of each inequality, p in {1, 2, 4}
SPECS = [
    SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=2.0),
    SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=1.0),
    SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=4.0),
    SabSpec(alpha=0.0, beta=0.5, m=-0.5, p=2.0),
    SabSpec(alpha=0.25, beta=0.25, m=0.0, p=2.0),
    SabSpec(alpha=0.0, beta=0.0, theta=0.3, m=0.0, p=2.0),
    SabSpec(alpha=0.0, beta=-0.5, m=0.2, p=1.0),
    SabSpec(alpha=1.0, beta=0.0, m=0.0, p=2.0),
    SabSpec(alpha=0.0, beta=0.0, theta=1.2, m=0.0, p=2.0),
    SabSpec(alpha=0.0, beta=0.9, m=0.0, p=2.0),
    SabSpec(alpha=0.0, beta=0.0, m=2.5, p=2.0),
    SabSpec(alpha=0.0, beta=0.5, m=0.0, p=1.0),
]
LEVELS = (3, 4)
BASE_OCTAVES = 6
#: largest relative difference from the per-bump ladder; round-off, about 1e-15, is expected
DIFF_TOL = 1e-13


def per_bump_ladder(spec: SabSpec, levels: int, base_octaves: int = BASE_OCTAVES) -> list:
    """The norm ladder bump by bump: one sab_apply_bump call per bump on each level's rule."""
    out = []
    for level in range(levels):
        depth = base_octaves + LADDER_OCTAVES * level
        y, w = np.concatenate([legendre_panel(2.0 ** e, 2.0 ** (e + 1), LADDER_GAUSS)
                               for e in range(-depth, 6)], axis=1)
        dens = w * y ** (spec.m - spec.p * spec.theta)
        best = 0.0
        for e in range(-depth, 5):
            a, b = 2.0 ** e, 2.0 ** (e + 1)
            f = sab_apply_bump(spec, 1.0, (a, b), y)
            num = float(np.dot(dens, np.abs(f) ** spec.p)) ** (1.0 / spec.p)
            k = spec.m + 1.0
            mass = np.log(b / a) if k == 0.0 else (b ** k - a ** k) / k
            best = max(best, num / mass ** (1.0 / spec.p))
        out.append(best)
    return out


def verdict(ladder) -> str:
    """The criterion-9 reading of a ladder."""
    growth = ladder[-1] / ladder[0]
    if growth < 1.5 and ladder[-1] / ladder[-2] < 1.1:
        return "bounded"
    return "unbounded" if growth >= 10.0 else "undecided"


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def case_record(spec: SabSpec, levels: int, repeats: int) -> dict:
    first_s, ladder = timed(sab_norm_estimate, spec, levels=levels, base_octaves=BASE_OCTAVES)
    repeat, per_bump = [], []
    for _ in range(repeats):  # the two ladders in turn, so a slow episode weighs on both
        repeat.append(timed(sab_norm_estimate, spec, levels=levels,
                            base_octaves=BASE_OCTAVES)[0])
        elapsed, reference = timed(per_bump_ladder, spec, levels)
        per_bump.append(elapsed)
    diff = np.abs(np.subtract(ladder, reference)) / np.abs(reference)
    expected = sab_criterion(spec)
    rec = {"spec": vars(spec), "levels": levels, "first_s": first_s,
           "repeat_s": statistics.median(repeat), "per_bump_s": statistics.median(per_bump),
           "ladder": ladder, "max_rel_diff": float(diff.max()), "criterion": expected,
           "verdict": verdict(ladder), "reference_verdict": verdict(reference)}
    rec["agrees"] = rec["verdict"] == ("bounded" if expected else "unbounded")
    print(f"levels {levels} {spec}: first {first_s * 1e3:.2f} ms  repeat "
          f"{rec['repeat_s'] * 1e3:.2f} ms  per-bump {rec['per_bump_s'] * 1e3:.2f} ms  "
          f"max_rel_diff {rec['max_rel_diff']:.1e}  {rec['verdict']}", flush=True)
    return rec


def passes(rec: dict) -> bool:
    """A case's gate: the per-bump ladder to DIFF_TOL, and the same verdict."""
    return rec["max_rel_diff"] <= DIFF_TOL and rec["verdict"] == rec["reference_verdict"]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    cases = [case_record(spec, levels, args.repeats) for levels in LEVELS for spec in SPECS]
    summary = {f"levels{levels}": {
        key: sum(rec[key] for rec in cases if rec["levels"] == levels)
        for key in ("repeat_s", "per_bump_s")} for levels in LEVELS}
    report = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        },
        "repeats": args.repeats, "base_octaves": BASE_OCTAVES, "diff_tol": DIFF_TOL,
        "summary": summary, "cases": cases,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(passes(rec) for rec in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
