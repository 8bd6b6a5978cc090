"""The `halfheat kernel` output path beside the per-row code it replaced, with the oracle error.

    python3 bench/kernel_out.py [--out BENCH_kernel_out.json] [--repeats 3]

`halfheat kernel` is one kernel_slices call followed by one write_csv
call.  write_csv builds the CSV text column by column (the `x1,y1`
column once per run, `t` and `x2,y2` once per file, `p` with one `%`
per chunk of rows); on the closed-form route kernel_slices evaluates the
a = 0 kernel on the tensor grid as an outer product of nx Gaussians and
ny Bessel values (solver._closed_form_column).  This script times both
next to script-local copies of what they replaced: the per-row writer
(six `%.17g` numbers formatted per row) and exact_slice on all nx * ny
cell centres (nx * ny Bessel evaluations).  The package has no option
for the old paths.

Cases: the README example (128^2, solver-reduced route) and the three
configs of the perfbench `kernel_cli` workload at their nominal values,
each at 96^2 and 256^2: `general` (mixed A and an oblique drift, so the
model keeps a != 0: solver-reduced), `divergence` (d = (c/gamma) q,
which reduces to a = 0 up to round-off: exact-reduced) and `diagonal`
(exact-reduced).  Per case the JSON records:

    cli_s            median wall time of `halfheat kernel` in-process
    evaluate_s       median time of the kernel_slices call
    write_per_file_s write_csv over the run, per file, and
    old_write_per_file_s  the per-row writer, per file
    bytes_identical  every file of the two writers is byte-identical
    tensor_per_slice_s / points_per_slice_s  (closed-form cases) the
                     tensor evaluation and exact_slice on grid.points(),
                     per (time, source); values_identical compares them
                     with ==
    oracle_err       max |p - p_exact| / max p_exact over the files, from
                     the CSV text read back, against
                     operators.general_kernel_exact (closed-form cases)
    contour_err, mass_defect  (solver cases, which have no closed form)
                     the contour rules' difference and the mass defect

Times are medians over --repeats.  The JSON also holds the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from halfheat import cli, solver  # noqa: E402
from halfheat.kernels import CSV_CHUNK_ROWS, exact_slice, write_csv  # noqa: E402
from halfheat.operators import (  # noqa: E402
    GeneralOperatorSpec,
    general_kernel_exact,
    map_point,
    reduce_to_model,
)

#: (name, A, d, c, sources, t.list, grid.Rx = grid.Ry, cells per direction)
README_CASE = ("readme_128", [[2.0, 0.7], [0.7, 1.0]], 0.3, 0.6,
               [(0.0, 1.0), (0.0, 0.5)], [0.5, 1.0], 6.0, 128)
KERNEL_CLI = [  # perfbench kernel_cli at its nominal values
    ("general", [[2.0, 0.7], [0.7, 1.0]], 0.3, 0.6, [(0.0, 1.0), (0.0, 0.5)]),
    ("divergence", [[2.0, 0.7], [0.7, 1.2]], 0.6 * 0.7 / 1.2, 0.6, [(0.5, 1.0), (0.5, 0.5)]),
    ("diagonal", [[2.0, 0.0], [0.0, 1.0]], 0.0, 0.6, [(0.0, 1.0), (0.0, 0.5)]),
]
KERNEL_CLI_TS = [0.25, 0.5]


def cases():
    yield README_CASE
    for n in (96, 256):
        for name, a, d, c, sources in KERNEL_CLI:
            yield (f"{name}_{n}", a, d, c, sources, KERNEL_CLI_TS, 6.0, n)


def config_text(a, d, c, sources, ts, r, n) -> str:
    return "\n".join([
        "N = 1",
        f"A.row.1 = {a[0][0]!r}, {a[0][1]!r}",
        f"A.row.2 = {a[1][0]!r}, {a[1][1]!r}",
        f"v.d = {d!r}",
        f"v.c = {c!r}",
        f"grid.Rx = {r!r}",
        f"grid.Ry = {r!r}",
        f"grid.nx = {n}",
        f"grid.ny = {n}",
        "t.list = " + ", ".join(repr(t) for t in ts),
        "sources = " + " ; ".join(f"{x!r},{y!r}" for x, y in sources),
    ]) + "\n"


def old_write(slc, path) -> None:
    """The per-row writer write_csv replaced: six `%.17g` numbers per row, row by row."""
    m = len(slc.values)
    table = np.column_stack([np.full(m, slc.t), slc.points,
                             np.broadcast_to(slc.source, (m, 2)), slc.values])
    fmt = ",".join(["%.17g"] * 6) + "," + slc.convention.replace("%", "%%") + "\n"
    with open(path, "w", newline="") as fh:
        fh.write("t,x1,y1,x2,y2,p,convention\n")
        for start in range(0, m, CSV_CHUNK_ROWS):
            rows = table[start:start + CSV_CHUNK_ROWS].tolist()
            fh.write("".join(fmt % tuple(row) for row in rows))


def median_time(fn, repeats: int):
    """Median wall time of `repeats` calls of fn, and the last call's result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def case_record(case, repeats: int, tmp: Path) -> dict:
    name, a, d, c, sources, ts, r, n = case
    spec = GeneralOperatorSpec(n=1, a_matrix=np.array(a), drift=np.array([d, c]))
    sources = [np.array(z) for z in sources]
    cfg = tmp / f"{name}.cfg"
    cfg.write_text(config_text(a, d, c, sources=[z.tolist() for z in sources], ts=ts, r=r, n=n))

    def run_cli():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["kernel", str(cfg), "--out", str(tmp / "cli")])
    cli_s, rc = median_time(run_cli, repeats)
    if rc != cli.EXIT_PASS:
        raise RuntimeError(f"{name}: halfheat kernel exited {rc}")
    evaluate_s, slices = median_time(
        lambda: solver.kernel_slices(spec, ts, sources, rx=r, ry=r, nx=n, ny=n), repeats)
    method = slices[0].meta["method"]
    rec = {"method": method, "grid_cells": [n, n], "t": ts,
           "sources": [z.tolist() for z in sources], "files": len(slices),
           "rows_per_file": n * n, "cli_s": cli_s, "evaluate_s": evaluate_s}

    new = [tmp / f"new_{k}.csv" for k in range(len(slices))]
    old = [tmp / f"old_{k}.csv" for k in range(len(slices))]
    write_s, _ = median_time(lambda: write_csv(slices, new), repeats)
    old_s, _ = median_time(lambda: [old_write(s, p) for s, p in zip(slices, old)], repeats)
    rec["write_per_file_s"] = write_s / len(slices)
    rec["old_write_per_file_s"] = old_s / len(slices)
    rec["write_speedup"] = old_s / write_s
    rec["bytes_identical"] = all(p.read_bytes() == q.read_bytes() for p, q in zip(new, old))

    if method.startswith("exact"):
        red = reduce_to_model(spec)
        grid = solver.GridSpec(rx=r, ry=r, nx=n, ny=n, c=red.model.c)
        pairs = [(red.time_scale * t, map_point(red, z)) for t in ts for z in sources]
        tensor_s, tensor = median_time(lambda: [solver._closed_form_column(
            red.model, grid, mt, z2m) for mt, z2m in pairs], repeats)
        points_s, points = median_time(lambda: [exact_slice(
            red.model, mt, z2m, grid.points()).values for mt, z2m in pairs], repeats)
        rec["tensor_per_slice_s"] = tensor_s / len(pairs)
        rec["points_per_slice_s"] = points_s / len(pairs)
        rec["tensor_speedup"] = points_s / tensor_s
        rec["values_identical"] = all(np.array_equal(u, v) for u, v in zip(tensor, points))
        worst = 0.0
        for path in new:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(6))
            exact = general_kernel_exact(red, rows[0, 0], rows[:, 1:3], rows[0, 3:5])
            worst = max(worst, float(np.abs(rows[:, 5] - exact).max() / np.abs(exact).max()))
        rec["oracle_err"] = worst
    else:
        rec["oracle_err"] = None
        rec["oracle_note"] = "a != 0 has no closed form; contour_err and mass_defect stand in"
        rec["contour_err"] = max(s.meta["contour_err"] for s in slices)
        rec["mass_defect"] = max(s.meta["mass_defect"] for s in slices)
    line = (f"{name:16s} {method:15s} cli {cli_s:.3f} s  evaluate {evaluate_s:.3f} s  "
            f"write/file {rec['write_per_file_s'] * 1e3:.1f} / "
            f"{rec['old_write_per_file_s'] * 1e3:.1f} ms  bytes_identical "
            f"{rec['bytes_identical']}")
    if "tensor_per_slice_s" in rec:
        line += (f"  closed form/slice {rec['tensor_per_slice_s'] * 1e3:.2f} / "
                 f"{rec['points_per_slice_s'] * 1e3:.2f} ms  identical "
                 f"{rec['values_identical']}  oracle_err {rec['oracle_err']:.1e}")
    else:
        line += f"  contour_err {rec['contour_err']:.1e}"
    print(line, flush=True)
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
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernel_out.json"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    report = {
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu_model(),
        },
        "repeats": args.repeats,
        "cases": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases():
            report["cases"][case[0]] = case_record(case, args.repeats, Path(tmp))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    ok = all(rec["bytes_identical"] and rec.get("values_identical", True)
             for rec in report["cases"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
