"""Bromwich-contour kernel columns on the live x-modes against all x-modes, with the oracle error beside them.

    python3 bench/contour.py [--out BENCH_contour.json] [--repeats 3]

halfheat evaluates every kernel column as exp(-t W^{-1} S) u0.  For a
diagonal coefficient matrix B (B01 = B10 = 0) S is a Kronecker sum and
the package evaluates it exactly from one y-eigendecomposition (the
separable route, solver._separable).  Any other B takes the contour
route: the trapezoid rule on a hyperbolic Bromwich contour, one fused
tridiagonal factor-solve (LAPACK gtsv) of the x-modes of zW + S per
node, and a coarser guard rule of solver.CONTOUR_NODES nodes
(`contour_err`).  Per checkpoint window [t0, 4 t0] it solves only the
live x-modes: a mode whose logarithmic-norm bound has taken it below
machine epsilon times the column maximum by t0 is left at 0
(solver._live_modes).  For a symmetric B the mode blocks are Hermitian
with S_{nx-m} = conj(S_m), and the contour route solves each live pair
(m, nx - m) once, as one real-symmetric block with 2k right-hand sides
(solver._fused_system); any other B keeps one block per live mode.
This script times the package path (`kernel_columns`) beside the same
call with _live_modes replaced by one that keeps every mode; the package
has no option for the all-modes path.  For a separable case the package
path is the "separable" record, and the contour diagnostics come from
explicit solver._contour_sum calls in the contour route's paired layout
("pruned" on the live modes, "all_modes" on every mode).

Cases: the 128^2 a = 0 model (separable) and the 112^2 cross-term
divergence-form operator (paired contour) of the perfbench `columns`
workload, and the 224x192 a = 0.5 operator of the acceptance fixture
(unpaired contour), each through the fixture's checkpoints (0.25, 0.5,
0.75, 1, 2, 4), which make the two contour windows [0.25, 1] and
[2, 4].  Each case records its `route` and whether its contour is
`paired`.  For k = 1 and k = 4 sources and for each window, each path
records its time per call (median over --repeats), the live modes and
`solve_rows` (the rows of each node's fused factor-solve, summed over
windows: ny per live pair when paired, ny per live mode otherwise), the
oracle error (max |p - p_exact| / max p_exact over the window's
checkpoints, where a closed form exists), `contour_err` and the mass
defect; the pair adds `dropped_modes_exact_max_rel`, the exact evolution
of the modes the pruned path drops (a dense expm per mode block), the
largest difference of their columns, `all_modes_dead_rule_gap`, the
all-modes run's coarse-minus-fine rule difference on the dropped modes
alone, which is that run's own error there, and, for a paired case,
`paired_minus_unpaired_max_rel`, the paired columns against the
unpaired solver._contour_sum sums of the same live modes; a separable
case adds `separable_minus_contour_max_rel`, the separable columns
against the pruned contour's returned rule; all relative to each
column's maximum.  `self_convergence` lists, at k = 4, the error
of the N-node rule for N = 8 .. 28 against a fixed REFERENCE_NODES-node
rule, both through solver._contour_sum on the live modes of each window
in the contour route's layout, relative to each column's maximum (the
package guards CONTOUR_NODES and returns the rule its `nodes` stat
names, so the table shows the returned rule's own error).
`self_convergence_floor` is the same difference between the
REFERENCE_NODES and REFERENCE_NODES + 4 rules, the reference's own
round-off: a table entry at or below it is unresolved.  One untimed
kernel_columns call per case runs before the first timed one.  The JSON
also holds the environment.

The exit code is 1 when the dropped modes' exact values exceed DIFF_TOL
times a column's maximum, a paired case's columns differ from the
unpaired sums by more than DIFF_TOL times a column's maximum, a
pruned or separable column's mass defect exceeds MASS_TOL, or the
separable columns differ from the contour's returned rule by more than
that window's `contour_err` + DIFF_TOL; the JSON is written either
way.  The pruned-minus-all-modes difference is not gated: it carries the
all-modes run's own rule error on the dropped modes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from halfheat import solver  # noqa: E402
from halfheat.kernels import KernelSlice, exact_slice  # noqa: E402
from halfheat.operators import (  # noqa: E402
    GeneralOperatorSpec,
    ModelOperatorSpec,
    general_kernel_exact,
    reduce_to_model,
)

TS = (0.25, 0.5, 0.75, 1.0, 2.0, 4.0)
SOURCES = np.array([[0.0, 0.3], [0.5, 1.0], [-1.0, 3.0], [0.0, 0.05]])
SELF_CONVERGENCE_NODES = (8, 12, 16, 20, 24, 28)
#: nodes of the reference rule of the self-convergence table
REFERENCE_NODES = 36

#: largest exact value of the dropped modes, and largest paired-minus-unpaired
#: difference, relative to the column maximum
DIFF_TOL = 1e-12
#: largest mass defect of a pruned column
MASS_TOL = 1e-12


def model(a: float, c: float) -> ModelOperatorSpec:
    return ModelOperatorSpec(n=1, a=np.array([a]), c=c)


def cases():
    """(name, operator, oracle(t, source, points) -> values or None)."""
    m128 = model(0.0, 0.5)
    yield ("model_128x128_a0_c0.5",
           solver.assemble(m128, solver.GridSpec(rx=8.0, ry=8.0, nx=128, ny=128, c=0.5)),
           lambda t, z2, pts: exact_slice(m128, t, z2, pts).values)
    q, cg = 0.5, 0.6
    spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[2.0, q], [q, 1.0]]),
                               drift=np.array([cg * q, cg]))
    red = reduce_to_model(spec)
    yield ("cross_112x112_q0.5_c0.6",
           solver.assemble_divergence_form(
               spec, solver.GridSpec(rx=8.0, ry=8.0, nx=112, ny=112, c=cg)),
           lambda t, z2, pts: general_kernel_exact(red, t, pts, z2))
    yield ("model_224x192_a0.5_c1",
           solver.assemble(model(0.5, 1.0),
                           solver.GridSpec(rx=14.0, ry=12.0, nx=224, ny=192, c=1.0)),
           None)


@contextlib.contextmanager
def all_modes():
    """The package's evolution with every x-mode live."""
    saved = solver._live_modes
    solver._live_modes = lambda bands, w, rhs, t0, nx: np.ones(nx, dtype=bool)
    try:
        yield
    finally:
        solver._live_modes = saved


def relative_error(values, ref) -> float:
    return float(np.abs(values - ref).max() / np.abs(ref).max())


def record(times, cols, oracle) -> dict:
    """The median of `times`, the stats of `cols`, their worst mass defect and oracle error."""
    meta = cols[0].meta
    return {"time_s": statistics.median(times),
            **{key: meta[key] for key in ("route", "nodes", "live_modes", "solve_rows",
                                          "factorizations", "factor_s", "solve_s", "transform_s")},
            "contour_err": max(s.meta["contour_err"] for s in cols),
            "max_solve_residual": max(s.meta["max_solve_residual"] for s in cols),
            "mass_defect": max(abs(s.mass() - 1.0) for s in cols),
            "oracle_err": (max(relative_error(s.values, oracle(s.t, s.source, s.points))
                               for s in cols) if oracle else None)}


def path_record(op, ts, sources, oracle, repeats: int):
    """Median time of `repeats` kernel_columns calls and the last call's record and slices."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cols = solver.kernel_columns(op, ts, sources)
        times.append(time.perf_counter() - t0)
    return record(times, cols, oracle), cols


def contour_record(op, ts, sources, oracle, repeats: int, every_mode: bool):
    """The contour route's record and slices for an operator the package evaluates separably.

    The window's guard rule (solver.CONTOUR_NODES) and returned rule (4
    more nodes) through rule_sums in the paired layout, which is how the
    contour route solves a symmetric B, on the window's live modes (every
    mode when `every_mode`); `repeats` evaluations, timed as path_record
    times kernel_columns.  The slices hold the returned rule's columns,
    source-major, with the stats kernel_columns would put in their meta
    (`transform_s` is not timed here and reads 0).
    """
    grid, k = op.grid, len(sources)
    fine = solver.CONTOUR_NODES + 4
    live = np.ones(grid.nx, dtype=bool) if every_mode else ~dead_modes(op, ts[0], sources)[2]
    times = []
    for _ in range(repeats):
        stats = {"factorizations": 0, "factor_s": 0.0, "solve_s": 0.0, "transform_s": 0.0}
        worst = np.zeros(k)
        t0 = time.perf_counter()
        coarse, sums = (rule_sums(op, ts, sources, live, n, True, stats, worst)
                        for n in (solver.CONTOUR_NODES, fine))
        times.append(time.perf_counter() - t0)
    err = np.zeros(k)
    for a, b in zip(coarse, sums):
        np.maximum(err, np.abs(a - b).max(axis=1) / np.abs(b).max(axis=1), out=err)
    stats.update(route="contour", nodes=fine, live_modes=int(live.sum()),
                 solve_rows=grid.ny * int(live[:grid.nx // 2 + 1].sum()))
    cells = [grid.locate(z) for z in sources]
    cols = [KernelSlice(t=t, source=np.array([grid.x_centers[i], grid.y_centers[j]]),
                        points=grid.points(), values=sums[n][col], c=grid.c, weights=op.w,
                        meta={**stats, "contour_err": float(err[col]),
                              "max_solve_residual": float(worst[col])})
            for col, (i, j) in enumerate(cells) for n, t in enumerate(ts)]
    return record(times, cols, oracle), cols


def paired(op) -> bool:
    """Whether the contour route solves op's x-modes in Hermitian pairs (a symmetric B)."""
    return bool(op.bmat[0, 1] == op.bmat[1, 0])


def separable(op) -> bool:
    """Whether solver._evolve_block evaluates op on the separable route (a diagonal B)."""
    return bool(op.bmat[0, 1] == 0.0 and op.bmat[1, 0] == 0.0)


def dead_modes(op, t0, sources):
    """The sources' deltas in x-modes, shape (k, nx, ny), the bands and the modes dropped at t0.

    The data, the bands and the dead set are the ones solver._evolve_block
    forms for the window starting at t0: for a paired operator a mode is
    live when it or its partner nx - m is.
    """
    grid, k = op.grid, len(sources)
    u = np.zeros((op.w.size, k))
    for col, z2 in enumerate(sources):
        i, j = grid.locate(z2)
        u[i * grid.ny + j, col] = 1.0 / op.w[i * grid.ny + j]
    modes = np.fft.fft(u.T.reshape(k, grid.nx, grid.ny), axis=1)
    rhs = op.w[:, None] * modes.reshape(k, -1).T
    bands = solver._mode_bands(grid, op.bmat)
    live = solver._live_modes(bands, op.w, rhs, t0, grid.nx)
    if paired(op):
        live = live | live[-np.arange(grid.nx) % grid.nx]
    return modes, bands, ~live


def column_tops(cols, k: int, n_times: int) -> list[float]:
    """max |p| of the columns in `cols` (source-major), time-major like the mode sums."""
    return [np.abs(cols[col * n_times + n].values).max() for n in range(n_times)
            for col in range(k)]


def dropped_modes_exact(op, ts, sources, cols) -> float:
    """What the dropped modes hold at the window's times, relative to each column's maximum.

    Each mode _live_modes drops is evolved exactly: expm(-t W_y^{-1} S_m)
    of its tridiagonal block S_m (W_y the y-cell weights, the same for
    every mode) at each checkpoint, applied to that mode's data of all k
    sources.  The inverse fft of those modes alone, the live modes 0, is
    what the pruned run leaves out; the largest value relative to the
    maximum of each column in `cols`.
    """
    grid, k = op.grid, len(sources)
    ny = grid.ny
    modes, (lower, diag, upper), dead = dead_modes(op, ts[0], sources)
    if not dead.any():
        return 0.0
    wy = op.w[:ny]
    out = np.zeros((len(ts), k, grid.nx, ny), dtype=complex)
    for m in np.flatnonzero(dead):
        r = slice(m * ny, (m + 1) * ny)
        off = slice(m * ny, (m + 1) * ny - 1)
        gen = (np.diag(diag[r]) + np.diag(lower[off], -1) + np.diag(upper[off], 1)) / wy[:, None]
        for n, t in enumerate(ts):
            out[n, :, m] = modes[:, m] @ scipy.linalg.expm(-t * gen).T
    values = np.abs(np.fft.ifft(out, axis=2).real).max(axis=(2, 3)).ravel()
    return float(max(v / top for v, top in zip(values, column_tops(cols, k, len(ts)))))


def rule_sums(op, ts, sources, modes, n: int, pairs: bool, stats=None, worst=None):
    """The n-node contour sums of the x-modes in `modes` (a mask, shape (nx,)) in cell space.

    The fused system is the one solver._evolve_block's contour route solves
    for the window ts (solver._fused_system), in the paired layout when
    `pairs` (then `modes` must hold whole pairs) and one block per mode
    otherwise; returns one (k, nx * ny) array per time, the other modes 0.
    solver._contour_sum adds its counts and phase times to `stats` and its
    worst relative residual per column to `worst`, when given.
    """
    grid, k = op.grid, len(sources)
    data, bands, _ = dead_modes(op, ts[0], sources)
    rhs = op.w[:, None] * data.reshape(k, -1).T
    *system, layout = solver._fused_system(bands, op.w, rhs, modes, grid.ny, pairs)
    if stats is None:
        stats = {"factorizations": 0, "factor_s": 0.0, "solve_s": 0.0}
    sums = solver._contour_sum(*system, ts, n, stats, np.zeros(k) if worst is None else worst)
    return [solver._to_space(v, layout, grid.nx, grid.ny) for v in sums]


def paired_minus_unpaired(op, ts, sources, cols) -> float | None:
    """How far the package's paired columns lie from one block per live mode.

    The unpaired sums (rule_sums with pairs=False) of the returned rule on
    the same live modes, against the columns of `cols` (source-major); the
    largest difference relative to each column's maximum.  None for an
    operator the package does not pair.
    """
    if not paired(op):
        return None
    live = ~dead_modes(op, ts[0], sources)[2]
    ref = rule_sums(op, ts, sources, live, cols[0].meta["nodes"], False)
    k, n_times = len(sources), len(ts)
    return float(max(np.abs(cols[col * n_times + n].values - ref[n][col]).max()
                     / np.abs(ref[n][col]).max() for n in range(n_times) for col in range(k)))


def dead_mode_rule_gap(op, ts, sources, cols) -> float:
    """How far the all-modes run's two contour rules differ on the dead modes alone.

    The contour sums of the modes _live_modes drops, by the guard rule
    (solver.CONTOUR_NODES) and the returned rule (the `nodes` stat of
    `cols`); the largest difference relative to each column's maximum in
    `cols`.  Beside dropped_modes_exact this is the all-modes run's own
    error there, which is what the pruned run differs from it by.
    """
    dead = dead_modes(op, ts[0], sources)[2]
    if not dead.any():
        return 0.0
    coarse, fine = (rule_sums(op, ts, sources, dead, n, paired(op))
                    for n in (solver.CONTOUR_NODES, cols[0].meta["nodes"]))
    gaps = [np.abs(a - b).max(axis=1) for a, b in zip(coarse, fine)]
    return float(max(g / top for g, top in zip(np.concatenate(gaps),
                                               column_tops(cols, len(sources), len(ts)))))


def self_convergence(op, sources):
    """Error of the N-node rule against the REFERENCE_NODES-node rule, per N, and its floor.

    For each window of TS, both rules' sums of the window's live modes
    (rule_sums, in the package's layout); the largest difference over the
    window's times and the sources, relative to each reference column's
    maximum.  The floor is the same difference between the
    REFERENCE_NODES and REFERENCE_NODES + 4 rules: the reference's own
    round-off, which grows with the largest |e^{zt}| on its contour.  A
    table entry at or below the floor is unresolved: it bounds the N-node
    rule's error only by the floor.
    """
    table = dict.fromkeys((*SELF_CONVERGENCE_NODES, REFERENCE_NODES + 4), 0.0)
    for ts in solver._windows(TS):
        live = ~dead_modes(op, ts[0], sources)[2]
        ref = rule_sums(op, ts, sources, live, REFERENCE_NODES, paired(op))
        tops = [np.abs(r).max(axis=1) for r in ref]
        for n in table:
            for a, b, top in zip(rule_sums(op, ts, sources, live, n, paired(op)), ref, tops):
                table[n] = max(table[n], float((np.abs(a - b).max(axis=1) / top).max()))
    floor = table.pop(REFERENCE_NODES + 4)
    return {str(n): e for n, e in table.items()}, floor


def window_record(op, ts, sources, oracle, repeats: int) -> dict:
    """One window's record: the contour route on the live modes ("pruned") and on all modes.

    For a separable operator the package's own columns are the
    "separable" record, and both contour records come from contour_record.
    """
    rec = {"times": list(ts), "modes": op.grid.nx}
    if separable(op):
        rec["separable"], s_cols = path_record(op, ts, sources, oracle, repeats)
        pruned, p_cols = contour_record(op, ts, sources, oracle, repeats, False)
        full, f_cols = contour_record(op, ts, sources, oracle, repeats, True)
        rec["separable_minus_contour_max_rel"] = max(
            relative_error(s.values, p.values) for s, p in zip(s_cols, p_cols))
    else:
        pruned, p_cols = path_record(op, ts, sources, oracle, repeats)
        with all_modes():
            full, f_cols = path_record(op, ts, sources, oracle, repeats)
    diff = max(relative_error(p.values, f.values) for p, f in zip(p_cols, f_cols))
    return {**rec, "live_modes": pruned["live_modes"],
            "solve_rows": pruned["solve_rows"], "pruned": pruned, "all_modes": full,
            "paired_minus_unpaired_max_rel": paired_minus_unpaired(op, ts, sources, p_cols),
            "speedup": full["time_s"] / pruned["time_s"],
            "dropped_modes_exact_max_rel": dropped_modes_exact(op, ts, sources, p_cols),
            "pruned_minus_all_modes_max_rel": diff,
            "all_modes_dead_rule_gap": dead_mode_rule_gap(op, ts, sources, f_cols)}


def case_record(name, op, oracle, repeats: int, failures: list) -> dict:
    rec = {"unknowns": op.w.size, "column_times": list(TS),
           "route": "separable" if separable(op) else "contour", "paired": paired(op)}
    for k in (1, 4):
        windows = []
        for ts in solver._windows(TS):
            win = window_record(op, ts, SOURCES[:k], oracle, repeats)
            p, f = win["pruned"], win["all_modes"]
            dropped = win["dropped_modes_exact_max_rel"]
            pair_diff = win["paired_minus_unpaired_max_rel"]
            print(f"{name:24s} k={k} t0={ts[0]:<5g} live {win['live_modes']:3d}/{win['modes']}  "
                  f"rows {win['solve_rows']}  paired-unpaired {pair_diff}  "
                  f"time {p['time_s']:.3f} / {f['time_s']:.3f} s ({win['speedup']:.2f}x)  "
                  f"dropped {dropped:.1e}  diff {win['pruned_minus_all_modes_max_rel']:.1e} "
                  f"(dead-mode rule gap {win['all_modes_dead_rule_gap']:.1e})  "
                  f"mass {p['mass_defect']:.1e}  "
                  f"contour_err {p['contour_err']:.1e} / {f['contour_err']:.1e}  "
                  f"oracle_err {p['oracle_err']} / {f['oracle_err']}", flush=True)
            if not dropped <= DIFF_TOL:
                failures.append(f"{name} k={k} t0={ts[0]}: dropped modes hold {dropped:.3e}")
            if pair_diff is not None and not pair_diff <= DIFF_TOL:
                failures.append(f"{name} k={k} t0={ts[0]}: paired columns differ from one "
                                f"block per mode by {pair_diff:.3e}")
            if not p["mass_defect"] <= MASS_TOL:
                failures.append(f"{name} k={k} t0={ts[0]}: mass defect {p['mass_defect']:.3e}")
            if "separable" in win:
                sep, gap = win["separable"], win["separable_minus_contour_max_rel"]
                print(f"{name:24s} k={k} t0={ts[0]:<5g} separable time {sep['time_s']:.4f} s  "
                      f"mass {sep['mass_defect']:.1e}  oracle_err {sep['oracle_err']}  "
                      f"separable-contour {gap:.1e}", flush=True)
                if not gap <= p["contour_err"] + DIFF_TOL:
                    failures.append(f"{name} k={k} t0={ts[0]}: separable columns differ from "
                                    f"the contour rule by {gap:.3e}, over contour_err "
                                    f"{p['contour_err']:.3e} + {DIFF_TOL:.0e}")
                if not sep["mass_defect"] <= MASS_TOL:
                    failures.append(f"{name} k={k} t0={ts[0]}: separable mass defect "
                                    f"{sep['mass_defect']:.3e}")
            windows.append(win)
        rec[f"k{k}"] = {"windows": windows,
                        "pruned_time_s": sum(w["pruned"]["time_s"] for w in windows),
                        "all_modes_time_s": sum(w["all_modes"]["time_s"] for w in windows)}
        if separable(op):
            rec[f"k{k}"]["separable_time_s"] = sum(w["separable"]["time_s"] for w in windows)
    table, floor = self_convergence(op, SOURCES)
    rec["self_convergence"], rec["self_convergence_floor"] = table, floor
    print(f"{name:24s} N vs {REFERENCE_NODES}: "
          + "  ".join(f"{n}: {e:.1e}" for n, e in table.items())
          + f"  (floor {floor:.1e})", flush=True)
    if oracle is None:
        rec["oracle_note"] = ("a = 0.5 has no closed form; contour_err stands for the time "
                              "error, and the other cases give the oracle error")
    return rec


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
    parser.add_argument("--out", default=str(ROOT / "BENCH_contour.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    failures = []
    ops = list(cases())
    for _, op, _ in ops:  # untimed: first-use costs of each route stay out of the timings
        solver.kernel_columns(op, TS[:1], SOURCES[:1])
    report = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        },
        "repeats": args.repeats,
        "contour": {"guard_nodes": solver.CONTOUR_NODES, "reference_nodes": REFERENCE_NODES,
                    "alpha": solver.CONTOUR_ALPHA,
                    "span": solver.CONTOUR_SPAN, "mu_t0_per_node": solver.CONTOUR_MU,
                    "window_ratio": solver.WINDOW_RATIO, "tolerance": solver.CONTOUR_TOL},
        "gates": {"dropped_modes_exact_max_rel": DIFF_TOL,
                  "paired_minus_unpaired_max_rel": DIFF_TOL, "mass_defect": MASS_TOL,
                  "separable_minus_contour_max_rel": f"contour_err + {DIFF_TOL}"},
        "cases": {name: case_record(name, op, oracle, args.repeats, failures)
                  for name, op, oracle in ops},
    }
    report["failures"] = failures
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    for line in failures:
        print("FAIL", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
