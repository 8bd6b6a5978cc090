"""Kernel columns on each solver route, timed, with the oracle error and each route fork measured.

    python3 bench/contour.py [--out BENCH_contour.json] [--repeats 7]

halfheat evaluates every kernel column as exp(-t W^{-1} S) u0 through
one call, `kernel_columns`, which picks its route from the operator's
coefficient matrix B: a diagonal B is evaluated exactly from one
y-eigendecomposition (route "separable"); any other B takes the
Bromwich contour (route "contour"), which solves only the live x-modes
of each checkpoint window [t0, WINDOW_RATIO t0], and for a symmetric B
solves them in Hermitian pairs.  This script measures those routes
through the public API only, the way the test-suite checks them: each
fork is measured against its other side, an operator that differs from
the package's in the last bits of one coefficient and so takes the
other branch.

Cases, each through the acceptance fixture's checkpoints TS in the two
windows of WINDOWS:

    model_128x128_a0_c0.5    the a = 0 model of the perfbench `columns`
                             workload (separable), against the same grid
                             with B01 = B10 = 1e-300 (paired contour)
    cross_112x112_q0.5_c0.6  the cross-term divergence-form operator of
                             that workload (paired contour), against
                             B10 = nextafter(B10, +inf) (unpaired contour)
    model_224x192_a0.5_c1    the a = 0.5 operator of the acceptance
                             fixture (unpaired contour), no counterpart

For k = 1 and k = 4 of SOURCES and for each window, one kernel_columns
call per side records its time per call (median and quartiles over
--repeats, the two sides called in turn by harness.alternate), its
SOLVE_STATS (contour_err and max_solve_residual the largest over the
columns), the distinct y-rows of its sources (`source_rows`), its mass
defect (largest |mass - 1|) and its oracle error
(max |p - p_exact| / max p_exact over the columns, where a closed form
exists); the window adds `gap_max_rel`, the largest difference of the
two sides' columns relative to each counterpart column's maximum, and
`gap_bound`, its gate.  One untimed call per operator, counterparts
included, runs before its first timed one.  The JSON also holds the
contour constants and the gates.

The exit code is 1 when a call reports more than one contour window
(the separable route reports none), a contour call's `solve_columns`
is not its `source_rows` (one unit column per source row; the separable
route reports 0), a column's mass defect exceeds MASS_TOL, or a fork's
gap exceeds its bound: the separable columns may
differ from the contour's by the contour call's `contour_err` +
DIFF_TOL (the separable route is exact, the contour carries its rule's
error), the paired from the unpaired columns by DIFF_TOL (both sum the
same rule).
"""

from __future__ import annotations

import numpy as np
from harness import alternate, run  # first: it puts src/ on sys.path

from halfheat import solver
from halfheat.kernels import exact_slice
from halfheat.operators import (
    GeneralOperatorSpec,
    ModelOperatorSpec,
    general_kernel_exact,
    reduce_to_model,
)
from halfheat.solver import (
    SOLVE_STATS,
    DiscreteOperator,
    GridSpec,
    assemble,
    assemble_divergence_form,
    kernel_columns,
)

#: each a window [t0, WINDOW_RATIO t0] of the contour route, so one call each
WINDOWS = ((0.25, 0.5, 0.75, 1.0), (2.0, 4.0))
TS = WINDOWS[0] + WINDOWS[1]
SOURCES = np.array([[0.0, 0.3], [0.5, 1.0], [-1.0, 3.0], [0.0, 0.05]])
SIDES = ("package", "counterpart")

#: largest paired-minus-unpaired difference, and the separable-minus-contour
#: difference beyond contour_err, relative to the column maximum
DIFF_TOL = 1e-12
#: largest mass defect of a column
MASS_TOL = 1e-12


def off_diagonal(op: DiscreteOperator, b01: float, b10: float) -> DiscreteOperator:
    """op with B01 and B10 replaced."""
    bmat = op.bmat.copy()
    bmat[0, 1], bmat[1, 0] = b01, b10
    return DiscreteOperator(op.grid, bmat)


def cases():
    """(name, operator, oracle(t, source, points) -> values or None, counterpart or None)."""
    m128 = ModelOperatorSpec(n=1, a=np.array([0.0]), c=0.5)
    op = assemble(m128, GridSpec(rx=8.0, ry=8.0, nx=128, ny=128, c=0.5))
    yield ("model_128x128_a0_c0.5", op,
           lambda t, z2, pts: exact_slice(m128, t, z2, pts).values,
           off_diagonal(op, 1e-300, 1e-300))
    q, cg = 0.5, 0.6
    spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[2.0, q], [q, 1.0]]),
                               drift=np.array([cg * q, cg]))
    red = reduce_to_model(spec)
    op = assemble_divergence_form(spec, GridSpec(rx=8.0, ry=8.0, nx=112, ny=112, c=cg))
    yield ("cross_112x112_q0.5_c0.6", op,
           lambda t, z2, pts: general_kernel_exact(red, t, pts, z2),
           off_diagonal(op, op.bmat[0, 1], np.nextafter(op.bmat[1, 0], np.inf)))
    yield ("model_224x192_a0.5_c1",
           assemble(ModelOperatorSpec(n=1, a=np.array([0.5]), c=1.0),
                    GridSpec(rx=14.0, ry=12.0, nx=224, ny=192, c=1.0)),
           None, None)


def relative_error(values, ref) -> float:
    return float(np.abs(values - ref).max() / np.abs(ref).max())


def record(cols, oracle) -> dict:
    """The stats of `cols`, their distinct source rows, worst mass defect and oracle error."""
    per_column = ("contour_err", "max_solve_residual")
    return {**{key: cols[0].meta[key] for key in SOLVE_STATS if key not in per_column},
            **{key: max(s.meta[key] for s in cols) for key in per_column},
            "source_rows": len({float(s.source[1]) for s in cols}),  # snapped to cell centres
            "mass_defect": max(abs(s.mass() - 1.0) for s in cols),
            "oracle_err": (max(relative_error(s.values, oracle(s.t, s.source, s.points))
                               for s in cols) if oracle else None)}


def window_failures(label: str, win: dict) -> list[str]:
    """The gates of one window record: one window and one column per source row per call,
    the mass defects and the fork's gap."""
    out = []
    for side in [side for side in SIDES if side in win]:
        rec = win[side]
        if rec["windows"] > 1:  # the separable route reports none
            out.append(f"{label} {side}: the call took {rec['windows']} windows, not 1")
        columns = rec["source_rows"] if rec["route"] == "contour" else 0
        if rec["solve_columns"] != columns:
            out.append(f"{label} {side}: each node solved {rec['solve_columns']} columns, "
                       f"not {columns}")
        if not rec["mass_defect"] <= MASS_TOL:
            out.append(f"{label} {side}: mass defect {rec['mass_defect']:.3e}")
    if "gap_max_rel" in win and not win["gap_max_rel"] <= win["gap_bound"]:
        out.append(f"{label}: {win['package']['route']} columns differ from the counterpart's "
                   f"by {win['gap_max_rel']:.3e}, over {win['gap_bound']:.3e}")
    return out


def window_record(sides, ts, sources, oracle, repeats: int) -> dict:
    """One window's record: the package call and, given a counterpart, its call and the gap."""
    win = {"times": list(ts)}
    timed = alternate([lambda o=o: kernel_columns(o, ts, sources) for o in sides], repeats)
    (win["package"], cols), *rest = [({"time_s": t, **record(c, oracle)}, c) for t, c in timed]
    if rest:
        win["counterpart"], other = rest[0]
        win["gap_max_rel"] = max(relative_error(a.values, b.values) for a, b in zip(cols, other))
        separable = win["package"]["route"] == "separable"  # exact, so the gap is the contour's
        win["gap_bound"] = (win["counterpart"]["contour_err"] if separable else 0.0) + DIFF_TOL
    return win


def case_record(name, op, oracle, counterpart, repeats: int, failures: list) -> dict:
    """Per k and window, the window records of op and its counterpart; gate failures go to `failures`."""
    sides = [o for o in (op, counterpart) if o is not None]
    for o in sides:  # untimed: first-use costs stay out of the timings
        kernel_columns(o, TS[:1], SOURCES[:1])
    rec = {"unknowns": op.grid.nx * op.grid.ny, "column_times": list(TS), "bmat": op.bmat.tolist()}
    if counterpart is not None:
        rec["counterpart_bmat"] = counterpart.bmat.tolist()
    if oracle is None:
        rec["oracle_note"] = "no closed form; contour_err stands for the time error"
    for k in (1, 4):
        windows = []
        for ts in WINDOWS:
            win = window_record(sides, ts, SOURCES[:k], oracle, repeats)
            print(f"{name} k={k} t0={ts[0]:g}", *(
                f"{side} {r['route']} {r['time_s']['median'] * 1e3:.1f} ms rows {r['solve_rows']} "
                f"cols {r['solve_columns']} "
                f"mass {r['mass_defect']:.1e} contour_err {r['contour_err']:.1e} "
                f"oracle_err {r['oracle_err']}" for side, r in win.items() if side in SIDES),
                f"gap {win.get('gap_max_rel')}", sep="  |  ", flush=True)
            failures += window_failures(f"{name} k={k} t0={ts[0]}", win)
            windows.append(win)
        rec[f"k{k}"] = windows
    return rec


def build(repeats: int):
    """Kernel columns on each solver route, timed, with the oracle error and each fork measured."""
    failures = []
    report = {
        "windows": [list(ts) for ts in WINDOWS],
        "contour": {"guard_nodes": solver.CONTOUR_NODES, "alpha": solver.CONTOUR_ALPHA,
                    "span": solver.CONTOUR_SPAN, "mu_t0_per_node": solver.CONTOUR_MU,
                    "window_ratio": solver.WINDOW_RATIO, "tolerance": solver.CONTOUR_TOL},
        "gates": {"mass_defect": MASS_TOL, "windows_per_call": 1,
                  "solve_columns": "source_rows on the contour route, 0 on the separable",
                  "paired_minus_unpaired_max_rel": DIFF_TOL,
                  "separable_minus_contour_max_rel": f"contour_err + {DIFF_TOL}"},
        "cases": {name: case_record(name, op, oracle, counterpart, repeats, failures)
                  for name, op, oracle, counterpart in cases()},
    }
    return report, failures


def main(argv=None) -> int:
    return run(build, "BENCH_contour.json", argv)


if __name__ == "__main__":
    raise SystemExit(main())
