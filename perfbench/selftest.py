"""Self-tests: every correctness check turns a crafted bad input into a failure.

    python3 perfbench/selftest.py

Each test runs a small workload, checks that the untouched outputs pass,
then breaks one input (a perturbed oracle value, a NaN in a column, a
truncated CSV, a failing exit code, a flipped expected verdict) and
checks that exactly that operation is counted as failed, by the rule
run.py uses: an operation whose `ok` is false adds one to `failed`.
Exits 1 if any test does not hold.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from halfheat import sab, solver  # noqa: E402
from tracing import Tracer  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selftest"
SEED = 7


def failed(ops) -> int:
    return sum(not op.ok for op in ops)


def small_columns():
    wl = W.Columns()
    wl.TS = (0.5, 1.0)
    wl.MODEL_GRID = wl.CROSS_GRID = dict(rx=8.0, ry=8.0, nx=64, ny=64)
    inp = wl.make_inputs(SEED, WORK)
    return wl, inp, wl.run_round(inp)


def test_nan_column():
    wl, inp, out = small_columns()
    clean = failed(wl.check(inp, out))
    out["model"][0][1].values[10] = np.nan
    return clean == 0 and failed(wl.check(inp, out)) == 1


def test_perturbed_oracle():
    wl, inp, out = small_columns()
    slices = out["model"][0]

    def oracle(slc):
        return W.kernels.exact_slice(inp["model"], slc.t, slc.source, slc.points).values

    def perturbed(slc):
        exact = oracle(slc).copy()
        exact[np.argmax(exact)] *= 1.1
        return exact

    good = W.check_column("model/source0", slices, wl.TS, oracle)
    bad = W.check_column("model/source0", slices, wl.TS, perturbed)
    return failed([good]) == 0 and failed([bad]) == 1 and bad.err > W.ORACLE_TOL


def small_kernel_cli():
    wl = W.KernelCli()
    wl.TS = (0.25,)
    wl.GRID = dict(rx=6.0, ry=6.0, nx=16, ny=16)
    inp = wl.make_inputs(SEED, WORK / "kernel_cli")
    inp["configs"] = [cfg for cfg in inp["configs"] if cfg["name"] == "diagonal"]
    return wl, inp


def test_truncated_csv():
    wl, inp = small_kernel_cli()
    wl.clean(inp)
    out = wl.run_round(inp)
    clean = failed(wl.check(inp, out))
    csv = sorted(inp["configs"][0]["out"].glob("*.csv"))[0]
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[: len(lines) // 2]))
    return clean == 0 and failed(wl.check(inp, out)) == 1


def test_exit_code():
    wl, inp = small_kernel_cli()
    wl.clean(inp)
    cfg = inp["configs"][0]
    cfg["path"].write_text(cfg["path"].read_text().replace("A.row.2 = 0.0,", "A.row.2 = -1.0,"))
    out = wl.run_round(inp)
    return out["diagonal"][0] != 0 and failed(wl.check(inp, out)) == 1


def test_flipped_verdict():
    spec = sab.SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=2.0)   # bounded
    predicted = sab.sab_criterion(spec)
    ladder = sab.sab_norm_estimate(spec, levels=2)
    good = W.check_ladder("sab/case1", predicted, ladder, True)
    bad = W.check_ladder("sab/case1", predicted, ladder, False)
    return failed([good]) == 0 and failed([bad]) == 1


def test_residual_bound():
    return (failed([W.check_bound("conservation", 1e-12, W.EXACT_MASS_TOL)]) == 0
            and failed([W.check_bound("conservation", 1e-7, W.EXACT_MASS_TOL)]) == 1
            and failed([W.check_bound("conservation", np.nan, W.EXACT_MASS_TOL)]) == 1)


def test_missing_traced_name():
    """Names a refactor removed are not wrapped and read zero; nothing stops."""
    grid = solver.GridSpec(rx=4.0, ry=4.0, nx=16, ny=16, c=0.5)
    op = solver.assemble(W.operators.ModelOperatorSpec(n=1, a=np.array([0.0]), c=0.5), grid)
    # a package whose solver module lost everything but kernel_columns
    package = SimpleNamespace(solver=SimpleNamespace(kernel_columns=solver.kernel_columns))
    tracer = Tracer(package)
    tracer.install()
    try:
        package.solver.kernel_columns(op, [0.25], np.array([0.0, 1.0]))
    finally:
        tracer.uninstall()
    layers = tracer.summary(wall=1.0)
    return (layers["solver.columns_calls"] == 1 and layers["solver.factorizations"] == 0
            and layers["sab.ladders"] == 0 and layers["cli.invocations"] == 0)


def main() -> int:
    tests = [test_nan_column, test_perturbed_oracle, test_truncated_csv,
             test_exit_code, test_flipped_verdict, test_residual_bound,
             test_missing_traced_name]
    bad = 0
    try:
        for test in tests:
            ok = bool(test())
            bad += not ok
            print(f"{'PASS' if ok else 'FAIL'}  {test.__name__}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
