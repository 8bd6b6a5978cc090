"""`halfheat kernel` and the closed-form quadrature paths, timed, with the oracle error.

    python3 bench/kernel_out.py [--out BENCH_kernel_out.json] [--repeats 7]

`halfheat kernel` is one kernel_slices call (every check first,
locating each source's model cell once, then the work: on the solver
route one evolution of those cells, on the path kernel_columns also
takes, without a second check) and one write_csv call, which writes
every number as the bytes of `"%.17g" % v`.  The
a = 0 kernel on a tensor grid is one kernels.tensor_kernel call, which
kernel_slices uses on the cell centres, and verify.exact_quadrature_slice
and verify.check_identities_exact on the 1-D rules of halfspace_nodes.
The test-suite pins each of these bit for bit against the path it
replaced, so this script times them and measures their error only.

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

The `quadrature` section covers the closed-form verdicts: the acceptance
criterion-2 set (c in {-0.5, 0, 1, 2} x t in {0.5, 1, 2}, source
(0.1, 0.7)) and, per c, check_identities_exact at the `verify` sweep's
arguments; compute_G at the G-trace test's arguments (G_TRACE); and
poincare_ratio on the seven field shapes of the perfbench `verdicts`
workload at their nominal values on a 128^2 grid (POINCARE).  Per entry:

    time_s           exact_quadrature_slice, check_identities_exact,
                     compute_G or poincare_ratio
    first_s          (slices) the slice's first call in the process; the
                     first t of each c also builds the c's Gauss-Jacobi
                     reference rule, which later calls take from the cache
    mass_defect      |mass - 1| of the slice (slices)
    chapman_kolmogorov  the CK residual (identities)
    max_G            the largest G(t) of the trace (g_trace)
    u_x_dev          |ratio(u = x) - 1/(2 alpha)| / (1/(2 alpha)) (poincare)

Every time_s is the median and quartiles over --repeats calls.  The exit
code is 1 when a closed-form case's oracle_err exceeds ORACLE_TOL or a
quadrature entry's accuracy figure exceeds its bound in QUADRATURE_TOLS.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import numpy as np
from harness import alternate, quartiles, run  # first: it puts src/ on sys.path

from halfheat import cli, verify
from halfheat.kernels import tensor_kernel
from halfheat.operators import (
    GeneralOperatorSpec,
    ModelOperatorSpec,
    general_kernel_exact,
    map_point,
    reduce_to_model,
)
from halfheat.solver import Field, GridSpec

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
#: the closed-form G-trace of the tests (criterion 7): c, z2, theta, times
G_TRACE = dict(c=0.0, z2=(0.0, 0.5), theta=0.5, ts=(0.5, 0.75, 1.0))
#: the perfbench `verdicts` Poincare probe at its nominal values (criterion 8)
POINCARE = dict(c=1.0, centre=(4.0, 4.0), width=0.05, cells=128)
#: bound of each quadrature entry's accuracy figure (criteria 2, 3, 7 and 8)
QUADRATURE_TOLS = {"mass_defect": 1e-8, "chapman_kolmogorov": 1e-6, "max_G": 1e-8,
                   "u_x_dev": 1e-6}
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


def poincare_fields() -> list:
    """The seven probe fields of the perfbench `verdicts` Poincare check, on POINCARE's grid."""
    n, (x0, y0), width = POINCARE["cells"], POINCARE["centre"], POINCARE["width"]
    grid = GridSpec(rx=8.0, ry=8.0, nx=n, ny=n, c=POINCARE["c"])
    fns = (
        lambda x, y: x,
        lambda x, y: y,
        lambda x, y: x * y,
        lambda x, y: x ** 2 - y ** 2,
        lambda x, y: x ** 3,
        lambda x, y: np.exp(-((y - 0.01) / width) ** 2),
        lambda x, y: np.exp(-((x - x0) ** 2 + (y - y0) ** 2)),
    )
    return [Field.from_function(grid, fn) for fn in fns]


def quadrature_record(repeats: int) -> dict:
    """Closed-form verdicts: times beside mass defects, CK residuals, G and the Poincare ratio."""
    out = {"slices": {}, "identities": {}, "identity_args": IDENTITY_ARGS,
           "source": QUADRATURE_SOURCE}
    for c in QUADRATURE_CS:  # per c, the slices and the identities called in turn
        m = ModelOperatorSpec(n=1, a=np.array([0.0]), c=c)
        slice_calls = [lambda t=t: verify.exact_quadrature_slice(m, t, QUADRATURE_SOURCE)
                       for t in QUADRATURE_TS]
        first_s = []
        for call in slice_calls:
            t0 = time.perf_counter()
            call()
            first_s.append(time.perf_counter() - t0)
        *slices, (ids_s, ids) = alternate(
            slice_calls + [lambda: verify.check_identities_exact(m, **IDENTITY_ARGS)], repeats)
        for t, first, (time_s, slc) in zip(QUADRATURE_TS, first_s, slices):
            rec = out["slices"][f"c={c!r},t={t!r}"] = {
                "nodes": len(slc.values), "first_s": first, "time_s": time_s,
                "mass_defect": verify.check_conservation(slc)}
            print(f"quadrature slice c={c:<5} t={t:<4} {time_s['median'] * 1e3:6.2f} ms"
                  f" (first {first * 1e3:6.2f} ms)  mass_defect {rec['mass_defect']:.1e}",
                  flush=True)
        out["identities"][f"c={c!r}"] = {"time_s": ids_s,
                                         "chapman_kolmogorov": ids["chapman_kolmogorov"]}
        print(f"identities_exact c={c:<5}        {ids_s['median'] * 1e3:6.2f} ms"
              f"  chapman_kolmogorov {ids['chapman_kolmogorov']:.1e}", flush=True)

    g = G_TRACE
    model = ModelOperatorSpec(n=1, a=np.array([0.0]), c=g["c"])
    alpha = verify.normalizing_alpha(g["c"], 1)
    [(g_s, trace)] = alternate([lambda: verify.compute_G(
        model, np.array(g["z2"]), g["theta"], alpha, g["ts"])], repeats)
    out["g_trace"] = {**g, "alpha": alpha, "time_s": g_s, "values": trace.values.tolist(),
                      "max_G": float(np.max(trace.values))}
    print(f"g_trace c={g['c']:<5}               {g_s['median'] * 1e3:6.2f} ms"
          f"  max_G {out['g_trace']['max_G']:.3f}", flush=True)

    fields = poincare_fields()
    alpha = verify.normalizing_alpha(POINCARE["c"], 1)
    [(p_s, res)] = alternate([lambda: verify.poincare_ratio(fields, alpha, POINCARE["c"])],
                             repeats)
    exact = 1.0 / (2.0 * alpha)
    out["poincare"] = {**POINCARE, "fields": len(fields), "alpha": alpha, "time_s": p_s,
                       "ratios": res["ratios"], "u_x_dev": abs(res["ratios"][0] - exact) / exact}
    print(f"poincare c={POINCARE['c']:<5} {len(fields)} fields   {p_s['median'] * 1e3:6.2f} ms"
          f"  u_x_dev {out['poincare']['u_x_dev']:.1e}", flush=True)
    return out


def quadrature_failures(rec: dict) -> list[str]:
    """The quadrature section's gates: every accuracy figure within QUADRATURE_TOLS (NaN fails)."""
    entries = [(f"slice {key}", e) for key, e in rec["slices"].items()]
    entries += [(f"identities {key}", e) for key, e in rec["identities"].items()]
    entries += [("g_trace", rec["g_trace"]), ("poincare", rec["poincare"])]
    return [f"quadrature {name}: {figure} {entry[figure]:.3e}, over {tol:.0e}"
            for name, entry in entries for figure, tol in QUADRATURE_TOLS.items()
            if figure in entry and not entry[figure] <= tol]


def build(repeats: int):
    """`halfheat kernel` and the closed-form quadrature paths, timed, with the oracle error."""
    report = {"cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases():
            report["cases"][case[0]] = case_record(case, repeats, Path(tmp))
    report["quadrature"] = quadrature_record(repeats)
    return report, ([line for name, rec in report["cases"].items() for line in failures(name, rec)]
                    + quadrature_failures(report["quadrature"]))


def main(argv=None) -> int:
    return run(build, "BENCH_kernel_out.json", argv)


if __name__ == "__main__":
    raise SystemExit(main())
