"""Bromwich-contour kernel columns against Crank-Nicolson steps, with the oracle error beside them.

    python3 bench/contour.py [--out BENCH_contour.json] [--repeats 3]

halfheat evaluates every kernel column as exp(-t W^{-1} S) u0 with the
trapezoid rule on a hyperbolic Bromwich contour, one tridiagonal
factorization (LAPACK gttrf) of the x-modes of zW + S per node, and a
second rule with 3/2 as many nodes as a guard (`contour_err`).  This
script times that path (`kernel_columns`) beside a script-local copy of
the Crank-Nicolson loop it replaced: the same x-modes (the rfft half),
uniform steps of min(h^2, segment/64) per checkpoint segment, two
Rannacher start-up steps, one SuperLU factorization of W + (ht/2) S per
step size and a per-column step residual check.  The package has no
option for the reference path.

Cases: the 128^2 a = 0 model and the 112^2 cross-term divergence-form
operator of the perfbench `columns` workload, and the 224x192 a = 0.5
operator of the acceptance fixture, each through the fixture's
checkpoints (0.25, 0.5, 0.75, 1, 2, 4), which make two contour windows.
For k = 1 and k = 4 sources each path records its time per call (median
over --repeats), the oracle error (max |p - p_exact| / max p_exact over
the checkpoints, where a closed form exists) and its mass defect; the
contour adds its stats (`contour_err`, the worst solve residual, the
factorizations and the phase times), and the pair the largest
difference of their columns relative to each column's maximum (CN's
time error, as the contour's is below 1e-8).  `self_convergence` lists,
at k = 4, the relative difference of the N- and 3N/2-node rules for
N = 8 .. 24 (the package uses N = solver.CONTOUR_NODES; the guard is
lifted for this table only).  The JSON also holds the environment.
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

TS = (0.25, 0.5, 0.75, 1.0, 2.0, 4.0)
SOURCES = np.array([[0.0, 0.3], [0.5, 1.0], [-1.0, 3.0], [0.0, 0.05]])
SELF_CONVERGENCE_NODES = (8, 12, 16, 20, 24)


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


def deltas(op, sources):
    """The (n, k) block of discrete deltas 1/w at the source cells, and the snapped sources."""
    grid = op.grid
    cells = [grid.locate(z) for z in sources]
    u = np.zeros((op.w.size, len(cells)))
    for k, (i, j) in enumerate(cells):
        u[i * grid.ny + j, k] = 1.0 / op.w[i * grid.ny + j]
    return u, [np.array([grid.x_centers[i], grid.y_centers[j]]) for i, j in cells]


def cn_columns(op, ts, sources):
    """Crank-Nicolson steps of the source deltas in x-modes, as halfheat took them before.

    Returns the (n, k) states at ts, the snapped sources and the stats
    (`steps`, `max_step_residual`).
    """
    grid = op.grid
    u, snapped = deltas(op, sources)
    k, modes = u.shape[1], grid.nx // 2 + 1
    # the rfft half of the x-modes: the first nx//2 + 1 blocks of the fft modes
    n = modes * grid.ny
    lower, diag, upper = solver._mode_bands(grid, op.bmat)
    s_modes = sparse.diags([lower[:n - 1], diag[:n], upper[:n - 1]], [-1, 0, 1], format="csr")
    w = op.w[:n]
    wmat, blocks = sparse.diags(w), sparse.identity(k)

    def solve_checked(lu, a_k, rhs):
        out = lu.solve(rhs.T).T
        num = np.abs(a_k @ out.ravel() - rhs.ravel()).reshape(rhs.shape).max(axis=1)
        den = np.abs(rhs).max(axis=1)
        if not np.all(num <= solver.SOLVE_RTOL * den):
            raise SolveFailure(f"reference step residual {num.max():.3e}")
        return out, float((num / den).max())

    u = np.fft.rfft(u.T.reshape(k, grid.nx, grid.ny), axis=1).reshape(k, -1)
    stats = {"steps": 0, "max_step_residual": 0.0}
    states, start, ht_lu, rannacher = [], 0.0, None, 2
    for t in ts:
        seg = t - start
        h = min(grid.hx, grid.hy)
        steps = max(int(np.ceil(seg / min(h * h, seg / 64.0))), 1)
        ht, start = seg / steps, t
        stats["steps"] += steps
        if ht != ht_lu:
            lu = a_k = explicit_k = None
            a_mat = wmat + (0.5 * ht) * s_modes
            lu = splu(a_mat.tocsc(), permc_spec="NATURAL", relax=1)
            a_k = sparse.kron(blocks, a_mat, format="csr")
            explicit_k = sparse.kron(blocks, wmat - (0.5 * ht) * s_modes, format="csr")
            ht_lu = ht
        for _ in range(steps):
            if rannacher > 0:
                u, res = solve_checked(lu, a_k, w * u)
                stats["max_step_residual"] = max(stats["max_step_residual"], res)
                u, res = solve_checked(lu, a_k, w * u)
                rannacher -= 1
            else:
                u, res = solve_checked(lu, a_k, (explicit_k @ u.ravel()).reshape(k, -1))
            stats["max_step_residual"] = max(stats["max_step_residual"], res)
        states.append(np.fft.irfft(u.reshape(k, -1, grid.ny), n=grid.nx, axis=1)
                      .reshape(k, -1).T)
    return states, snapped, stats


def contour_columns(op, ts, sources):
    """kernel_columns, reshaped like cn_columns's output, with its stats."""
    cols = solver.kernel_columns(op, ts, sources)
    states = [np.column_stack([cols[k * len(ts) + n].values for k in range(len(sources))])
              for n in range(len(ts))]
    meta = cols[0].meta
    stats = {key: meta[key] for key in ("windows", "nodes", "factorizations",
                                        "factor_s", "solve_s", "transform_s")}
    for key in ("contour_err", "max_solve_residual"):
        stats[key] = max(s.meta[key] for s in cols)
    return states, [cols[k * len(ts)].source for k in range(len(sources))], stats


@contextlib.contextmanager
def contour_nodes(n: int):
    """The package's contour with n coarse nodes and no guard, for the self-convergence table."""
    saved = solver.CONTOUR_NODES, solver.CONTOUR_TOL
    solver.CONTOUR_NODES, solver.CONTOUR_TOL = n, np.inf
    try:
        yield
    finally:
        solver.CONTOUR_NODES, solver.CONTOUR_TOL = saved


def relative_error(values, ref) -> float:
    return float(np.abs(values - ref).max() / np.abs(ref).max())


def path_record(run, op, ts, sources, oracle, repeats: int):
    """Median time of `repeats` calls, the last call's stats, oracle error and mass defect."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        states, snapped, stats = run(op, ts, sources)
        times.append(time.perf_counter() - t0)
    rec = {"time_s": statistics.median(times), **stats}
    points = op.grid.points()
    rec["oracle_err"] = (max(relative_error(u[:, k], oracle(t, z2, points))
                             for t, u in zip(ts, states) for k, z2 in enumerate(snapped))
                         if oracle else None)
    rec["mass_defect"] = max(abs(op.w @ u[:, k] - 1.0) for u in states
                             for k in range(len(snapped)))
    return rec, states


def case_record(name, op, oracle, repeats: int) -> dict:
    rec = {"unknowns": op.w.size, "column_times": list(TS)}
    for k in (1, 4):
        sources = SOURCES[:k]
        contour, c_states = path_record(contour_columns, op, TS, sources, oracle, repeats)
        cn, n_states = path_record(cn_columns, op, TS, sources, oracle, repeats)
        diff = max(relative_error(n[:, c], f[:, c])
                   for f, n in zip(c_states, n_states) for c in range(k))
        rec[f"k{k}"] = {"contour": contour, "cn": cn,
                        "speedup": cn["time_s"] / contour["time_s"],
                        "cn_minus_contour_max_rel": diff}
        print(f"{name:24s} k={k}  time {contour['time_s']:.3f} / {cn['time_s']:.3f} s "
              f"({cn['time_s'] / contour['time_s']:.1f}x)  oracle_err {contour['oracle_err']} "
              f"/ {cn['oracle_err']}  contour_err {contour['contour_err']:.1e}  "
              f"cn-contour {diff:.1e}", flush=True)
    table = {}
    for n in SELF_CONVERGENCE_NODES:
        with contour_nodes(n):
            table[str(n)] = contour_columns(op, TS, SOURCES)[2]["contour_err"]
    rec["self_convergence"] = table
    print(f"{name:24s} N vs 3N/2: " + "  ".join(f"{n}: {e:.1e}" for n, e in table.items()),
          flush=True)
    if oracle is None:
        rec["oracle_note"] = ("a = 0.5 has no closed form; contour_err and the CN difference "
                              "stand for the time error, and the other cases give the oracle error")
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
    report = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        },
        "repeats": args.repeats,
        "contour": {"nodes": solver.CONTOUR_NODES, "alpha": solver.CONTOUR_ALPHA,
                    "span": solver.CONTOUR_SPAN, "mu_t0_per_node": solver.CONTOUR_MU,
                    "window_ratio": solver.WINDOW_RATIO, "tolerance": solver.CONTOUR_TOL},
        "cases": {name: case_record(name, op, oracle, args.repeats)
                  for name, op, oracle in cases()},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
