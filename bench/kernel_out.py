"""`halfheat kernel` and the closed-form quadrature paths, timed, with the oracle error.

    python3 bench/kernel_out.py [--out BENCH_kernel_out.json] [--repeats 3]

`halfheat kernel` is one kernel_slices call followed by one write_csv
call.  write_csv builds the CSV text column by column (the `x1,y1`
column once per run, `t` and `x2,y2` once per file, `p` per chunk of
rows), and writes every number as the bytes of `"%.17g" % v`,
formatted in numpy rather than by one Python `%` per value.  On every
tensor grid the a = 0 kernel is one
kernels.tensor_kernel call: the outer product of nx Gaussians and ny
Bessel values.  kernel_slices uses it on the cell centres, and
verify.exact_quadrature_slice and the Chapman-Kolmogorov integral of
verify.check_identities_exact on the two 1-D rules of halfspace_nodes.
The test-suite pins each of these bit for bit against the path it
replaced, so this script times them and measures their error only.

Cases: the README example (128^2, solver-reduced route) and the three
configs of the perfbench `kernel_cli` workload at their nominal values,
each at 96^2 and 256^2: `general` (mixed A and an oblique drift, so the
model keeps a != 0: solver-reduced), `divergence` (d = (c/gamma) q,
which reduces to a = 0 up to round-off: exact-reduced) and `diagonal`
(exact-reduced).  Per case the JSON records:

    cli_s            median wall time of `halfheat kernel` in-process
    evaluate_s       median time of the kernel_slices call
    write_per_file_s write_csv over the run, per file
    write_per_file_percent_s  the same files from percent_write_csv, the
                     writer with one `%` per chunk of rows that write_csv
                     replaced; files_identical says whether both wrote
                     the same bytes
    tensor_per_slice_s  (closed-form cases) the tensor evaluation per
                     (time, source)
    oracle_err       max |p - p_exact| / max p_exact over the files, from
                     the CSV text read back, against
                     operators.general_kernel_exact (closed-form cases)
    contour_err, mass_defect  (solver cases, which have no closed form)
                     the contour rules' difference and the mass defect

The `quadrature` section covers the acceptance criterion-2 set
(c in {-0.5, 0, 1, 2} x t in {0.5, 1, 2}, source (0.1, 0.7)) and, per c,
check_identities_exact at the `verify` sweep's arguments.  Per entry:

    time_s           exact_quadrature_slice (or check_identities_exact)
    mass_defect      |mass - 1| of the slice (slices), or
    chapman_kolmogorov  the CK residual (identities)

Times are medians over --repeats.  The JSON also holds the environment.
The script exits 1 when a closed-form case's oracle_err exceeds
ORACLE_TOL, or when a file of write_csv differs from percent_write_csv's
(`passes`).  The test-suite checks the formatter itself against `%`
value by value, and counts the values it hands to `%`.
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

from halfheat import cli, kernels, solver, verify  # noqa: E402
from halfheat.kernels import WEIGHTED_CONVENTION, tensor_kernel, write_csv  # noqa: E402
from halfheat.operators import (  # noqa: E402
    GeneralOperatorSpec,
    ModelOperatorSpec,
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
#: acceptance criterion 2 (conservation of closed-form quadrature slices)
QUADRATURE_CS = [-0.5, 0.0, 1.0, 2.0]
QUADRATURE_TS = [0.5, 1.0, 2.0]
QUADRATURE_SOURCE = (0.1, 0.7)
#: the arguments of the closed-form identities check in `halfheat verify`
IDENTITY_ARGS = dict(t=0.5, s=0.5, x0=1.3, scale=2.0, z1=(0.2, 1.1), z2=(-0.3, 0.6))
#: largest oracle_err of a closed-form case; round-off, about 4e-16, is expected
ORACLE_TOL = 1e-12


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


def median_time(fn, repeats: int):
    """Median wall time of `repeats` calls of fn, and the last call's result."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def percent_write_csv(slices, paths) -> None:
    """write_csv as it was before its numpy formatter: one `%` per chunk of rows per column."""
    def chunks(fmt, values):
        values = np.asarray(values, dtype=float)
        for start in range(0, len(values), kernels.CSV_CHUNK_ROWS):
            rows = values[start:start + kernels.CSV_CHUNK_ROWS]
            yield "\n".join([fmt] * len(rows)) % tuple(rows.ravel().tolist())

    xy_chunks = {}
    tail = "," + WEIGHTED_CONVENTION + "\n"
    for slc, path in zip(slices, paths, strict=True):
        xy = xy_chunks.get(id(slc.points))
        if xy is None:
            xy = xy_chunks[id(slc.points)] = list(chunks("%.17g,%.17g", slc.points))
        head = "%.17g," % float(slc.t)
        mid = ",%.17g,%.17g," % tuple(slc.source.tolist())
        with open(path, "w", newline="") as fh:
            fh.write("t,x1,y1,x2,y2,p,convention\n")
            for xy_text, p_text in zip(xy, chunks("%.17g", slc.values)):
                fh.write("".join([f"{head}{a}{mid}{b}{tail}" for a, b in
                                  zip(xy_text.split("\n"), p_text.split("\n"))]))


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

    paths = [tmp / f"slice_{k}.csv" for k in range(len(slices))]
    write_s, _ = median_time(lambda: write_csv(slices, paths), repeats)
    rec["write_per_file_s"] = write_s / len(slices)
    percent_paths = [tmp / f"percent_{k}.csv" for k in range(len(slices))]
    percent_s, _ = median_time(lambda: percent_write_csv(slices, percent_paths), repeats)
    rec["write_per_file_percent_s"] = percent_s / len(slices)
    rec["files_identical"] = all(a.read_bytes() == b.read_bytes()
                                 for a, b in zip(paths, percent_paths))

    if method.startswith("exact"):
        red = reduce_to_model(spec)
        grid = solver.GridSpec(rx=r, ry=r, nx=n, ny=n, c=red.model.c)
        pairs = [(red.time_scale * t, map_point(red, z)) for t in ts for z in sources]
        tensor_s, _ = median_time(lambda: [tensor_kernel(
            red.model, mt, z2m, grid.x_centers, grid.y_centers) for mt, z2m in pairs], repeats)
        rec["tensor_per_slice_s"] = tensor_s / len(pairs)
        worst = 0.0
        for path in paths:
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
            f"write/file {rec['write_per_file_s'] * 1e3:.1f} ms"
            f" (% {rec['write_per_file_percent_s'] * 1e3:.1f} ms)"
            f"  identical {rec['files_identical']}")
    if "tensor_per_slice_s" in rec:
        line += (f"  closed form/slice {rec['tensor_per_slice_s'] * 1e3:.2f} ms"
                 f"  oracle_err {rec['oracle_err']:.1e}")
    else:
        line += f"  contour_err {rec['contour_err']:.1e}"
    print(line, flush=True)
    return rec


def passes(rec: dict) -> bool:
    """A case's gate: the closed-form oracle error within ORACLE_TOL and both writers' files equal."""
    return (rec["oracle_err"] is None or rec["oracle_err"] <= ORACLE_TOL) and rec["files_identical"]


def quadrature_record(repeats: int) -> dict:
    """Quadrature slices and the closed-form identities: times, mass defects, CK residuals."""
    out = {"slices": {}, "identities": {}}
    for c in QUADRATURE_CS:
        m = ModelOperatorSpec(n=1, a=np.array([0.0]), c=c)
        for t in QUADRATURE_TS:
            time_s, slc = median_time(
                lambda: verify.exact_quadrature_slice(m, t, QUADRATURE_SOURCE), repeats)
            rec = {"nodes": len(slc.values), "time_s": time_s,
                   "mass_defect": verify.check_conservation(slc)}
            out["slices"][f"c={c!r},t={t!r}"] = rec
            print(f"quadrature slice c={c:<5} t={t:<4} {time_s * 1e3:6.2f} ms"
                  f"  mass_defect {rec['mass_defect']:.1e}", flush=True)
        time_s, ids = median_time(lambda: verify.check_identities_exact(m, **IDENTITY_ARGS),
                                  repeats)
        rec = {"time_s": time_s, "chapman_kolmogorov": ids["chapman_kolmogorov"]}
        out["identities"][f"c={c!r}"] = rec
        print(f"identities_exact c={c:<5}        {time_s * 1e3:6.2f} ms"
              f"  chapman_kolmogorov {rec['chapman_kolmogorov']:.1e}", flush=True)
    out["identity_args"] = IDENTITY_ARGS
    out["source"] = QUADRATURE_SOURCE
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
    report["quadrature"] = quadrature_record(args.repeats)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(passes(rec) for rec in report["cases"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
