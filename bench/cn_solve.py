"""Crank-Nicolson step cost under two column orderings, with the oracle error beside it.

    python3 bench/cn_solve.py [--out BENCH_cn_solve.json] [--repeats 15]

Every kernel column is a run of Crank-Nicolson steps, each one sparse LU
solve with W + (ht/2) S.  For three operators (the 128^2 a = 0 model and
the 112^2 cross-term divergence-form operator of the perfbench `columns`
workload, and the 224x192 a = 0.5 operator of the acceptance fixture)
this script factors that matrix under COLAMD and under the minimum-degree
ordering on A' + A (MMD_AT_PLUS_A, the one halfheat uses) and records the
fill (`lu_nnz`, the entries SuperLU stores for L and U, as in a solver
slice's meta, and `l_plus_u_nnz`, the nonzeros of L and U), the factor
time and the time of one solve with 1 and with 4 right-hand sides.  Times are medians over --repeats calls.

Beside every time it records accuracy under the same ordering: each case
evolves a kernel column with `kernel_columns`, giving its wall time, its
error against the case's closed form where one exists (criterion-1
metric, max |p - p_exact| / max p_exact over the times) and its largest
difference from the other ordering's column; and the criterion-1 setting
itself (a = 0, c = 1, 8 x 8 domain, 128^2 and 256^2, t = 1) is run once
per ordering.  The ordering is swapped by wrapping `halfheat.solver.splu`
inside this script; the package has no option for it.  The JSON also
holds the environment (python, numpy, scipy, CPU count and model).
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
from halfheat.kernels import exact_slice  # noqa: E402
from halfheat.operators import (  # noqa: E402
    GeneralOperatorSpec,
    ModelOperatorSpec,
    general_kernel_exact,
    reduce_to_model,
)

ORDERINGS = ("COLAMD", "MMD_AT_PLUS_A")
TS = (0.25, 0.5, 1.0)
SOURCES = np.array([[0.0, 0.3], [0.5, 1.0], [-1.0, 3.0], [0.0, 0.05]])


def model(a: float, c: float) -> ModelOperatorSpec:
    return ModelOperatorSpec(n=1, a=np.array([a]), c=c)


def cases():
    """(name, operator, column times, oracle(slice) -> values or None)."""
    m128 = model(0.0, 0.5)
    yield ("model_128x128_a0_c0.5",
           solver.assemble(m128, solver.GridSpec(rx=8.0, ry=8.0, nx=128, ny=128, c=0.5)),
           TS, lambda s: exact_slice(m128, s.t, s.source, s.points).values)
    q, cg = 0.5, 0.6
    spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[2.0, q], [q, 1.0]]),
                               drift=np.array([cg * q, cg]))
    red = reduce_to_model(spec)
    yield ("cross_112x112_q0.5_c0.6",
           solver.assemble_divergence_form(
               spec, solver.GridSpec(rx=8.0, ry=8.0, nx=112, ny=112, c=cg)),
           TS, lambda s: general_kernel_exact(red, s.t, s.points, s.source))
    yield ("model_224x192_a0.5_c1",
           solver.assemble(model(0.5, 1.0),
                           solver.GridSpec(rx=14.0, ry=12.0, nx=224, ny=192, c=1.0)),
           (0.25,), None)


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def with_ordering(ordering: str, fn, *args):
    """Call fn with halfheat.solver factoring under `ordering`."""
    real = solver.splu
    solver.splu = lambda mat, **kwargs: real(mat, permc_spec=ordering)
    try:
        return fn(*args)
    finally:
        solver.splu = real


def relative_error(values, ref) -> float:
    return float(np.abs(values - ref).max() / np.abs(ref).max())


def factor_record(op, ht: float, ordering: str, repeats: int) -> dict:
    a_cn = (sparse.diags(op.w) + (0.5 * ht) * op.form).tocsc()
    lu = splu(a_cn, permc_spec=ordering)
    rng = np.random.default_rng(0)
    rhs1 = rng.standard_normal(a_cn.shape[0])
    rhs4 = np.asfortranarray(rng.standard_normal((a_cn.shape[0], 4)))
    return {
        "ht": ht,
        "lu_nnz": int(lu.nnz),
        "l_plus_u_nnz": int(lu.L.nnz + lu.U.nnz),
        "factor_s": median_time(lambda: splu(a_cn, permc_spec=ordering), max(repeats // 5, 3)),
        "solve_1rhs_s": median_time(lambda: lu.solve(rhs1), repeats),
        "solve_4rhs_s": median_time(lambda: lu.solve(rhs4), repeats),
    }


def case_record(name, op, ts, oracle, repeats: int) -> dict:
    rec = {"unknowns": op.form.shape[0], "form_nnz": int(op.form.nnz), "orderings": {}}
    columns = {}
    for ordering in ORDERINGS:
        t0 = time.perf_counter()
        cols = with_ordering(ordering, solver.kernel_columns, op, ts, SOURCES)
        block_s = time.perf_counter() - t0
        # the matrix of the evolution's first checkpoint segment
        out = factor_record(op, cols[0].meta["ht"][0], ordering, repeats)
        out["column_block_s"] = block_s
        out["column_sources"] = len(SOURCES)
        out["column_times"] = list(ts)
        out["max_step_residual"] = max(s.meta["max_step_residual"] for s in cols)
        out["oracle_err"] = (max(relative_error(s.values, oracle(s)) for s in cols)
                             if oracle else None)
        columns[ordering] = cols
        rec["orderings"][ordering] = out
        print(f"{name:26s} {ordering:14s} lu_nnz {out['lu_nnz']:>9,d}  "
              f"factor {out['factor_s']:.3f} s  solve {1e3 * out['solve_1rhs_s']:.2f} / "
              f"{1e3 * out['solve_4rhs_s']:.2f} ms (1 / 4 rhs)  "
              f"block {out['column_block_s']:.2f} s  oracle_err {out['oracle_err']}",
              flush=True)
    rec["orderings_max_rel_diff"] = max(
        relative_error(a.values, b.values) for a, b in zip(*columns.values()))
    if oracle is None:
        rec["oracle_note"] = ("a = 0.5 has no closed form; see criterion_1 for the "
                              "oracle error under each ordering")
    return rec


def criterion_1(ordering: str) -> dict:
    """Criterion-1 oracle error (a = 0, c = 1, t = 1, source (0, 1)) at 128^2 and 256^2."""
    m = model(0.0, 1.0)
    out = {}
    for n in (128, 256):
        t0 = time.perf_counter()
        op = solver.assemble(m, solver.GridSpec(rx=8.0, ry=8.0, nx=n, ny=n, c=1.0))
        slc = with_ordering(ordering, solver.kernel_column, op, 1.0, np.array([0.0, 1.0]))
        out[f"column_{n}_s"] = time.perf_counter() - t0
        out[f"err{n}"] = relative_error(
            slc.values, exact_slice(m, 1.0, slc.source, slc.points).values)
    out["err128_over_err256"] = out["err128"] / out["err256"]
    print(f"criterion 1 {ordering:14s} err256 {out['err256']:.4e} "
          f"ratio {out['err128_over_err256']:.3f} column256 {out['column_256_s']:.2f} s",
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
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    report = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        },
        "repeats": args.repeats,
        "cases": {name: case_record(name, op, ts, oracle, args.repeats)
                  for name, op, ts, oracle in cases()},
        "criterion_1": {ordering: criterion_1(ordering) for ordering in ORDERINGS},
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
