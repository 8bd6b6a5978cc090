"""`halfheat kernel`, timed, with the oracle error.

    python3 bench/kernel_out.py [--out BENCH_kernel_out.json] [--repeats 7]

`halfheat kernel` is one kernel_slices call (every check first,
locating each source's model cell once, then the work: on the solver
route one evolution of those cells, on the path kernel_columns also
takes, without a second check) and one write_csv call, which writes
every number as the bytes of `"%.17g" % v`.  The
a = 0 kernel on a tensor grid is one kernels.tensor_kernel call, which
kernel_slices uses on the cell centres.  The test-suite pins each of
these bit for bit against the path it replaced, so this script times
them and measures their error only.

Cases: the README example (128^2, solver-reduced route) and the three
configs of the perfbench `kernel_cli` workload at their nominal values,
each at 96^2 and 256^2: `general` (mixed A and an oblique drift, so the
model keeps a != 0: solver-reduced), `divergence` (d = (c/gamma) q,
which reduces to a = 0 up to round-off: exact-reduced) and `diagonal`
(exact-reduced).  Per case the JSON records:

    cli_s            wall time of `halfheat kernel` in-process
    evaluate_s, write_per_file_s  its kernel_slices and write_csv
                     phases (per file), as its kernel_index.json gives them
    tensor_per_slice_s  (closed-form cases) the tensor evaluation per
                     (time, source)
    oracle_err       max |p - p_exact| / max p_exact over its files, from
                     the CSV text read back, against
                     operators.general_kernel_exact (closed-form cases)
    contour_err, mass_defect  (solver cases, which have no closed form)
                     the largest over its files, from kernel_index.json

Every time is the median and quartiles over --repeats calls.  The exit
code is 1 when a closed-form case's oracle_err exceeds ORACLE_TOL.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from harness import alternate, quartiles, run  # first: it puts src/ on sys.path

from halfheat import cli
from halfheat.kernels import tensor_kernel
from halfheat.operators import (
    GeneralOperatorSpec,
    general_kernel_exact,
    map_point,
    reduce_to_model,
)
from halfheat.solver import GridSpec

#: (name, A, d, c, sources, t.list, grid.Rx = grid.Ry, cells per direction)
README_CASE = ("readme_128", [[2.0, 0.7], [0.7, 1.0]], 0.3, 0.6,
               [(0.0, 1.0), (0.0, 0.5)], [0.5, 1.0], 6.0, 128)
KERNEL_CLI = [  # perfbench kernel_cli at its nominal values
    ("general", [[2.0, 0.7], [0.7, 1.0]], 0.3, 0.6, [(0.0, 1.0), (0.0, 0.5)]),
    ("divergence", [[2.0, 0.7], [0.7, 1.2]], 0.6 * 0.7 / 1.2, 0.6, [(0.5, 1.0), (0.5, 0.5)]),
    ("diagonal", [[2.0, 0.0], [0.0, 1.0]], 0.0, 0.6, [(0.0, 1.0), (0.0, 0.5)]),
]
KERNEL_CLI_TS = [0.25, 0.5]
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


def case_record(case, repeats: int, tmp: Path) -> dict:
    name, a, d, c, sources, ts, r, n = case
    cfg, printed = tmp / f"{name}.cfg", []
    cfg.write_text(config_text(a, d, c, sources, ts, r, n))

    def run_cli():
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = cli.main(["kernel", str(cfg), "--out", str(tmp / name)])
        if rc != cli.EXIT_PASS:
            raise RuntimeError(f"{name}: halfheat kernel exited {rc}")
        printed.append(stdout.getvalue())  # the run's kernel_index.json
    [(cli_s, _)] = alternate([run_cli], repeats)
    indexes = [json.loads(text) for text in printed]
    outputs = indexes[-1]["outputs"]
    method = outputs[0]["method"]
    rec = {"method": method, "grid_cells": [n, n], "t": ts, "sources": sources,
           "files": len(outputs), "rows_per_file": n * n, "cli_s": cli_s,
           "evaluate_s": quartiles([index["evaluate_s"] for index in indexes]),
           "write_per_file_s": quartiles([index["write_s"] / len(outputs) for index in indexes])}
    if method.startswith("exact"):
        red = reduce_to_model(GeneralOperatorSpec(n=1, a_matrix=np.array(a),
                                                  drift=np.array([d, c])))
        grid = GridSpec(rx=r, ry=r, nx=n, ny=n, c=red.model.c)
        pairs = [(red.time_scale * t, map_point(red, z)) for t in ts for z in sources]
        [(tensor_s, _)] = alternate([lambda: [tensor_kernel(
            red.model, mt, z2m, grid.x_centers, grid.y_centers) for mt, z2m in pairs]], repeats)
        rec["tensor_per_slice_s"] = {key: v / len(pairs) for key, v in tensor_s.items()}
        worst = 0.0
        for entry in outputs:
            rows = np.loadtxt(entry["file"], delimiter=",", skiprows=1, usecols=range(6))
            exact = general_kernel_exact(red, rows[0, 0], rows[:, 1:3], rows[0, 3:5])
            worst = max(worst, float(np.abs(rows[:, 5] - exact).max() / np.abs(exact).max()))
        rec["oracle_err"] = worst
        note = (f"closed form/slice {rec['tensor_per_slice_s']['median'] * 1e3:.2f} ms"
                f"  oracle_err {worst:.1e}")
    else:
        rec["oracle_err"] = None
        rec["oracle_note"] = "a != 0 has no closed form; contour_err and mass_defect stand in"
        rec["contour_err"] = max(entry["contour_err"] for entry in outputs)
        rec["mass_defect"] = max(entry["mass_defect"] for entry in outputs)
        note = f"contour_err {rec['contour_err']:.1e}"
    print(f"{name:16s} {method:15s} cli {cli_s['median']:.3f} s  "
          f"evaluate {rec['evaluate_s']['median']:.3f} s  "
          f"write/file {rec['write_per_file_s']['median'] * 1e3:.1f} ms  {note}", flush=True)
    return rec


def failures(name: str, rec: dict) -> list[str]:
    """A case's gate: the closed-form oracle error within ORACLE_TOL."""
    if rec["oracle_err"] is None or rec["oracle_err"] <= ORACLE_TOL:
        return []
    return [f"{name}: oracle_err {rec['oracle_err']:.3e}, over {ORACLE_TOL:.0e}"]


def build(repeats: int):
    """`halfheat kernel`, timed, with the oracle error."""
    report = {"cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases():
            report["cases"][case[0]] = case_record(case, repeats, Path(tmp))
    return report, [line for name, rec in report["cases"].items() for line in failures(name, rec)]


def main(argv=None) -> int:
    return run(build, "BENCH_kernel_out.json", argv)


if __name__ == "__main__":
    raise SystemExit(main())
