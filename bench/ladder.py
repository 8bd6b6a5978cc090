"""The S^{alpha,beta} norm ladder, timed, against the ladder built bump by bump.

    python3 bench/ladder.py [--out BENCH_ladder.json] [--repeats 7]

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
                     process (one call, so its quartiles are its time);
                     the cache holds the table of one depth, so the
                     first spec of each levels value builds it
    repeat_s         --repeats later calls
    per_bump_s       --repeats per_bump_ladder calls, each made right
                     after a repeat_s call (harness.alternate)
    ladder, max_rel_diff  the ladder, and its largest relative
                     difference from per_bump_ladder's
    criterion        sab_criterion's closed-form verdict
    verdict, reference_verdict  "bounded" (growth < 1.5, last step
                     < 1.1), "unbounded" (growth >= 10) or "undecided",
                     of the ladder and of per_bump_ladder's
    agrees           verdict is the one sab_criterion predicts

Each time is the median and quartiles of its calls; the summary sums
the medians of repeat_s and per_bump_s per levels value.  The exit code
is 1 when a case's max_rel_diff exceeds DIFF_TOL or its verdict differs
from reference_verdict.
"""

from __future__ import annotations

import numpy as np
from harness import alternate, run  # first: it puts src/ on sys.path

from halfheat.quadrature import legendre_panel
from halfheat.sab import (
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


def case_record(spec: SabSpec, levels: int, repeats: int) -> dict:
    def ladder_call():
        return sab_norm_estimate(spec, levels=levels, base_octaves=BASE_OCTAVES)
    [(first_s, ladder)] = alternate([ladder_call], 1)
    (repeat_s, _), (per_bump_s, reference) = alternate(
        [ladder_call, lambda: per_bump_ladder(spec, levels)], repeats)
    diff = np.abs(np.subtract(ladder, reference)) / np.abs(reference)
    expected = sab_criterion(spec)
    rec = {"spec": vars(spec), "levels": levels, "first_s": first_s,
           "repeat_s": repeat_s, "per_bump_s": per_bump_s,
           "ladder": ladder, "max_rel_diff": float(diff.max()), "criterion": expected,
           "verdict": verdict(ladder), "reference_verdict": verdict(reference)}
    rec["agrees"] = rec["verdict"] == ("bounded" if expected else "unbounded")
    print(f"levels {levels} {spec}: first {first_s['median'] * 1e3:.2f} ms  repeat "
          f"{repeat_s['median'] * 1e3:.2f} ms  per-bump {per_bump_s['median'] * 1e3:.2f} ms  "
          f"max_rel_diff {rec['max_rel_diff']:.1e}  {rec['verdict']}", flush=True)
    return rec


def failures(rec: dict) -> list[str]:
    """A case's gate: the per-bump ladder to DIFF_TOL, and the same verdict."""
    if rec["max_rel_diff"] <= DIFF_TOL and rec["verdict"] == rec["reference_verdict"]:
        return []
    return [f"levels {rec['levels']} {rec['spec']}: max_rel_diff {rec['max_rel_diff']:.3e} "
            f"(bound {DIFF_TOL:.0e}), verdict {rec['verdict']} against {rec['reference_verdict']}"]


def build(repeats: int):
    """The S^{alpha,beta} norm ladder, timed, against the ladder built bump by bump."""
    cases = [case_record(spec, levels, repeats) for levels in LEVELS for spec in SPECS]
    summary = {f"levels{levels}": {
        key: sum(rec[key]["median"] for rec in cases if rec["levels"] == levels)
        for key in ("repeat_s", "per_bump_s")} for levels in LEVELS}
    report = {"base_octaves": BASE_OCTAVES, "diff_tol": DIFF_TOL,
              "summary": summary, "cases": cases}
    return report, [line for rec in cases for line in failures(rec)]


def main(argv=None) -> int:
    return run(build, "BENCH_ladder.json", argv)


if __name__ == "__main__":
    raise SystemExit(main())
