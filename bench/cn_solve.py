"""Crank-Nicolson step cost: x-Fourier modes against a 2-D sparse LU, with the oracle error beside it.

    python3 bench/cn_solve.py [--out BENCH_cn_solve.json] [--repeats 3]

halfheat steps every kernel column in x-Fourier modes: x is periodic, so
an rfft along x splits W + (ht/2) S into one tridiagonal y-block per
mode, factored once per step size.  This script runs that path
(`kernel_columns`) beside a script-local reference that takes the same
Crank-Nicolson steps (step counts, Rannacher start-up, per-column
residual guard) with one 2-D sparse LU of W + (ht/2) S on the same
periodic `op.form`, ordered by minimum degree on A' + A, with one sparse
product per column as the package did before the mode path.  The package
has no option for the reference path.

Cases: the 128^2 a = 0 model and the 112^2 cross-term divergence-form
operator of the perfbench `columns` workload, and the 224x192 a = 0.5
operator of the acceptance fixture, each to t = 1 with checkpoints
(0.25, 0.5, 1).  For each path and for k = 1 and k = 4 sources it records
`lu_nnz` (the entries SuperLU stores for L and U), the factor time, the
time per step (median over --repeats evolutions), the oracle error
(max |p - p_exact| / max p_exact over the checkpoints, where a closed
form exists), and the largest difference between the two paths' columns
relative to each column's maximum.  Criterion 1 (a = 0, c = 1, 8 x 8
domain, 128^2 and 256^2, t = 1, source (0, 1)) is run on both paths,
with err256 and err128/err256.  The JSON also holds the environment
(python, numpy, scipy, CPU count and model).
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
from scipy import sparse
from scipy.sparse.linalg import splu

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from halfheat import solver  # noqa: E402
from halfheat.errors import SolveFailure  # noqa: E402
from halfheat.kernels import exact_slice  # noqa: E402
from halfheat.operators import (  # noqa: E402
    GeneralOperatorSpec,
    ModelOperatorSpec,
    general_kernel_exact,
    reduce_to_model,
)

TS = (0.25, 0.5, 1.0)
SOURCES = np.array([[0.0, 0.3], [0.5, 1.0], [-1.0, 3.0], [0.0, 0.05]])


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


def lu_columns(op, ts, sources):
    """The same CN steps as kernel_columns with a 2-D sparse LU on op.form.

    Returns the (n, k) states at ts, the snapped sources and the stats
    (`steps`, `lu_nnz`, `factor_s`, `solve_s`, `max_step_residual`).
    """
    grid = op.grid
    w = op.w[:, None]
    cells = [grid.locate(z) for z in sources]
    u = np.zeros((op.w.size, len(cells)), order="F")
    for k, (i, j) in enumerate(cells):
        u[i * grid.ny + j, k] = 1.0 / op.w[i * grid.ny + j]

    def solve_checked(lu, a_mat, rhs):
        out = lu.solve(rhs)
        num = np.abs(np.array([a_mat @ col for col in out.T]).T - rhs).max(axis=0)
        den = np.abs(rhs).max(axis=0)
        if not np.all(num <= solver.SOLVE_RTOL * den):
            raise SolveFailure(f"reference step residual {num.max():.3e}")
        return out, num / den

    stats = {"steps": 0, "lu_nnz": 0, "factor_s": 0.0, "solve_s": 0.0,
             "max_step_residual": 0.0}
    states, start, ht_lu, rannacher = [], 0.0, None, solver.RANNACHER_STEPS
    for t in ts:
        steps = solver._segment_steps(grid, t - start)
        ht, start = (t - start) / steps, t
        stats["steps"] += steps
        if ht != ht_lu:
            t0 = time.perf_counter()
            lu = a_mat = None
            a_cn = (sparse.diags(op.w) + (0.5 * ht) * op.form).tocsc()
            lu = splu(a_cn, permc_spec="MMD_AT_PLUS_A")
            a_mat = a_cn.tocsr()
            explicit = (sparse.diags(op.w) - (0.5 * ht) * op.form).tocsr()
            stats["factor_s"] += time.perf_counter() - t0
            stats["lu_nnz"] = max(stats["lu_nnz"], lu.nnz)
            ht_lu = ht
        t0 = time.perf_counter()
        for _ in range(steps):
            if rannacher > 0:
                u, res = solve_checked(lu, a_mat, w * u)
                u, res = solve_checked(lu, a_mat, w * u)
                rannacher -= 1
            else:
                rhs = np.array([explicit @ col for col in u.T]).T
                u, res = solve_checked(lu, a_mat, rhs)
            stats["max_step_residual"] = max(stats["max_step_residual"], float(res.max()))
        stats["solve_s"] += time.perf_counter() - t0
        states.append(u)
    snapped = [np.array([grid.x_centers[i], grid.y_centers[j]]) for i, j in cells]
    return states, snapped, stats


def fourier_columns(op, ts, sources):
    """kernel_columns, reshaped like lu_columns's output."""
    cols = solver.kernel_columns(op, ts, sources)
    states = [np.column_stack([cols[k * len(ts) + n].values for k in range(len(sources))])
              for n in range(len(ts))]
    meta = cols[0].meta
    stats = {key: meta[key] for key in ("steps", "lu_nnz", "factor_s", "solve_s",
                                        "transform_s")}
    stats["max_step_residual"] = max(s.meta["max_step_residual"] for s in cols)
    return states, [cols[k * len(ts)].source for k in range(len(sources))], stats


def relative_error(values, ref) -> float:
    return float(np.abs(values - ref).max() / np.abs(ref).max())


def path_record(run, op, ts, sources, oracle, repeats: int):
    """Median timings of `repeats` evolutions and the last one's states."""
    step_ms, factor_s = [], []
    for _ in range(repeats):
        states, snapped, stats = run(op, ts, sources)
        step_ms.append(1e3 * stats["solve_s"] / stats["steps"])
        factor_s.append(stats["factor_s"])
    rec = {"steps": stats["steps"], "lu_nnz": int(stats["lu_nnz"]),
           "factor_s": statistics.median(factor_s),
           "step_ms": statistics.median(step_ms),
           "max_step_residual": stats["max_step_residual"]}
    if "transform_s" in stats:
        rec["transform_s"] = stats["transform_s"]
    points = op.grid.points()
    rec["oracle_err"] = (max(relative_error(u[:, k], oracle(t, z2, points))
                             for t, u in zip(ts, states) for k, z2 in enumerate(snapped))
                         if oracle else None)
    return rec, states


def case_record(name, op, oracle, repeats: int) -> dict:
    rec = {"unknowns": op.form.shape[0], "form_nnz": int(op.form.nnz),
           "modes": op.grid.nx // 2 + 1, "column_times": list(TS)}
    for k in (1, 4):
        sources = SOURCES[:k]
        fourier, f_states = path_record(fourier_columns, op, TS, sources, oracle, repeats)
        lu, l_states = path_record(lu_columns, op, TS, sources, oracle, repeats)
        diff = max(relative_error(f[:, c], l[:, c])
                   for f, l in zip(f_states, l_states) for c in range(k))
        rec[f"k{k}"] = {"fourier": fourier, "lu": lu,
                        "step_speedup": lu["step_ms"] / fourier["step_ms"],
                        "paths_max_rel_diff": diff}
        print(f"{name:24s} k={k}  lu_nnz {fourier['lu_nnz']:>7,d} / {lu['lu_nnz']:>9,d}  "
              f"step {fourier['step_ms']:.2f} / {lu['step_ms']:.2f} ms "
              f"({lu['step_ms'] / fourier['step_ms']:.1f}x)  "
              f"oracle_err {fourier['oracle_err']} / {lu['oracle_err']}  diff {diff:.1e}",
              flush=True)
    if oracle is None:
        rec["oracle_note"] = ("a = 0.5 has no closed form; the paths' difference stands "
                              "for equal accuracy, and criterion_1 gives the oracle error")
    return rec


def criterion_1() -> dict:
    """Criterion-1 oracle error (a = 0, c = 1, t = 1, source (0, 1)) at 128^2 and 256^2."""
    m = model(0.0, 1.0)
    out = {}
    for path, run in (("fourier", fourier_columns), ("lu", lu_columns)):
        rec = {}
        for n in (128, 256):
            op = solver.assemble(m, solver.GridSpec(rx=8.0, ry=8.0, nx=n, ny=n, c=1.0))
            t0 = time.perf_counter()
            states, snapped, _ = run(op, [1.0], np.array([[0.0, 1.0]]))
            rec[f"column_{n}_s"] = time.perf_counter() - t0
            rec[f"err{n}"] = relative_error(
                states[0][:, 0], exact_slice(m, 1.0, snapped[0], op.grid.points()).values)
        rec["err128_over_err256"] = rec["err128"] / rec["err256"]
        out[path] = rec
        print(f"criterion 1 {path:8s} err256 {rec['err256']:.4e} "
              f"ratio {rec['err128_over_err256']:.3f} column256 {rec['column_256_s']:.2f} s",
              flush=True)
    return out


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
    parser.add_argument("--out", default=str(ROOT / "BENCH_cn_solve.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    report = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        },
        "repeats": args.repeats,
        "cases": {name: case_record(name, op, oracle, args.repeats)
                  for name, op, oracle in cases()},
        "criterion_1": criterion_1(),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
