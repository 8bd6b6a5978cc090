"""The bench scripts run on small inputs through the public API, and their gates can fire."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from halfheat import verify as V
from halfheat.kernels import exact_slice
from halfheat.operators import GeneralOperatorSpec, ModelOperatorSpec
from halfheat.solver import GridSpec, assemble, assemble_divergence_form, kernel_columns

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))  # the scripts import bench/harness.py as `harness`

import harness  # noqa: E402


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def smoke(module, tmp_path) -> dict:
    """The report of module.main at --repeats 1, which must exit 0 with no failures."""
    out = tmp_path / "bench.json"
    assert module.main(["--out", str(out), "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    assert report["environment"] == harness.environment()
    assert report["repeats"] == 1 and report["failures"] == []
    return report


def is_timing(t) -> bool:
    return set(t) == {"median", "q1", "q3"} and 0.0 < t["q1"] <= t["median"] <= t["q3"]


class TestHarness:
    def test_environment_records_thread_caps(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        env = harness.environment()
        assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"], env["MKL_NUM_THREADS"]) == (
            "1", None, None)

    def test_alternate_and_run(self, tmp_path, capsys):
        called = []
        timed = harness.alternate([lambda: called.append("package") or 1,
                                   lambda: called.append("counterpart") or 2], 5)
        assert called == ["package", "counterpart"] * 5
        assert [result for _, result in timed] == [1, 2]
        for timing, _ in timed:
            assert set(timing) == {"median", "q1", "q3"}
            assert timing["q1"] <= timing["median"] <= timing["q3"]
        assert harness.quartiles([3.0, 1.0, 2.0, 5.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert harness.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0}

        def build(repeats):
            """A report with one failed gate."""
            return {"cases": {"x": repeats}}, ["x: over its bound"]
        out = tmp_path / "report.json"
        assert harness.run(build, "unused.json", ["--out", str(out), "--repeats", "3"]) == 1
        report = json.loads(out.read_text())
        assert report == {"environment": harness.environment(), "repeats": 3,
                          "cases": {"x": 3}, "failures": ["x: over its bound"]}
        assert capsys.readouterr().out.splitlines()[-1] == "FAIL x: over its bound"


@pytest.fixture(scope="module")
def contour():
    return load("contour")


@pytest.fixture(scope="module")
def small_ops(contour):
    """The 24x16 separable model and paired cross operator, each with its counterpart."""
    model = ModelOperatorSpec(n=1, a=np.array([0.0]), c=0.5)
    sep = assemble(model, GridSpec(rx=4.0, ry=4.0, nx=24, ny=16, c=0.5))
    spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]),
                               drift=np.array([0.3, 0.6]))
    cross = assemble_divergence_form(spec, GridSpec(rx=4.0, ry=4.0, nx=24, ny=16, c=0.6))
    return {
        "separable": (sep, lambda t, z2, pts: exact_slice(model, t, z2, pts).values,
                      contour.off_diagonal(sep, 1e-300, 1e-300)),
        "paired": (cross, None, contour.off_diagonal(
            cross, cross.bmat[0, 1], np.nextafter(cross.bmat[1, 0], np.inf))),
    }


class TestContourBench:
    @pytest.mark.parametrize("fork", ["separable", "paired"])
    def test_case_passes_its_gates(self, contour, small_ops, fork):
        op, oracle, counterpart = small_ops[fork]
        failures = []
        rec = contour.case_record(fork, op, oracle, counterpart, 1, failures)
        assert failures == []
        assert rec["counterpart_bmat"] == counterpart.bmat.tolist()
        for k in (1, 4):
            windows = rec[f"k{k}"]
            assert [tuple(w["times"]) for w in windows] == list(contour.WINDOWS)
            for win in windows:
                for side in ("package", "counterpart"):
                    assert set(contour.SOLVE_STATS) <= set(win[side])
                    assert {"mass_defect", "oracle_err"} <= set(win[side])
                    assert is_timing(win[side]["time_s"])
                assert win["gap_max_rel"] <= win["gap_bound"]
                routes = (win["package"]["route"], win["counterpart"]["route"])
                assert routes == (("separable", "contour") if fork == "separable"
                                  else ("contour", "contour"))
                if fork == "paired":  # one block per pair against one per mode
                    assert win["package"]["solve_rows"] < win["counterpart"]["solve_rows"]
                    # one unit column per source row on either side
                    assert (win["package"]["solve_columns"] == win["counterpart"]["solve_columns"]
                            == win["package"]["source_rows"] == k)
                    assert win["gap_bound"] == contour.DIFF_TOL
                else:
                    assert win["package"]["oracle_err"] is not None

    def test_gap_gate_fires(self, contour, small_ops):
        op = small_ops["paired"][0]
        off = contour.off_diagonal(op, op.bmat[0, 1], op.bmat[1, 0] + 1e-3)
        win = contour.window_record([op, off], contour.WINDOWS[0], contour.SOURCES[:1], None, 1)
        assert [f for f in contour.window_failures("x", win) if "differ" in f]

    def test_mass_gate_fires(self, contour, small_ops):
        op = small_ops["separable"][0]
        cols = kernel_columns(op, contour.WINDOWS[1], contour.SOURCES[:1])
        cols[0].values *= 1.0 + 1e-9
        win = {"package": contour.record(cols, None)}
        assert [f for f in contour.window_failures("x", win) if "mass defect" in f]

    def test_columns_gate_fires(self, contour, small_ops):
        # two columns per source, as the paired route solved before unit columns
        cols = kernel_columns(small_ops["paired"][0], contour.WINDOWS[0], contour.SOURCES[:1])
        win = {"package": contour.record(cols, None)}
        assert contour.window_failures("x", win) == []
        win["package"]["solve_columns"] = 2
        assert contour.window_failures("x", win) == [
            "x package: each node solved 2 columns, not 1"]

    def test_window_gate_fires(self, contour, small_ops):
        op = small_ops["paired"][0]
        win = contour.window_record([op], (0.25, 4.0), contour.SOURCES[:1], None, 1)
        assert win["package"]["windows"] == 2
        assert contour.window_failures("x", win) == ["x package: the call took 2 windows, not 1"]

    def test_main_on_the_smallest_case(self, contour, tmp_path, monkeypatch):
        cases = [case for case in contour.cases() if case[0] == "cross_112x112_q0.5_c0.6"]
        monkeypatch.setattr(contour, "cases", lambda: cases)
        report = smoke(contour, tmp_path)
        assert list(report["cases"]) == ["cross_112x112_q0.5_c0.6"]
        assert report["gates"]["paired_minus_unpaired_max_rel"] == contour.DIFF_TOL


class TestKernelOutBench:
    def test_cases_pass_their_gates(self, tmp_path):
        kernel_out = load("kernel_out")
        for name, a, d, c, sources in kernel_out.KERNEL_CLI[:2]:
            rec = kernel_out.case_record((f"{name}_16", a, d, c, sources, [0.25], 6.0, 16),
                                         1, tmp_path)
            assert kernel_out.failures(name, rec) == []
            assert rec["files"] == len(sources)
            for key in ("cli_s", "evaluate_s", "write_per_file_s"):
                assert is_timing(rec[key])
            if rec["method"].startswith("exact"):
                assert rec["oracle_err"] <= kernel_out.ORACLE_TOL
                assert is_timing(rec["tensor_per_slice_s"])
            else:
                assert rec["oracle_err"] is None and rec["mass_defect"] <= 1e-12
        # the last case is closed-form, so the gate can fail
        assert kernel_out.failures("x", {**rec, "oracle_err": 2 * kernel_out.ORACLE_TOL})

    def test_main_on_the_smallest_case(self, tmp_path, monkeypatch):
        kernel_out = load("kernel_out")
        cases = [case for case in kernel_out.cases() if case[0] == "divergence_96"]
        monkeypatch.setattr(kernel_out, "cases", lambda: cases)
        report = smoke(kernel_out, tmp_path)
        assert list(report["cases"]) == ["divergence_96"]
        assert report["cases"]["divergence_96"]["oracle_err"] <= kernel_out.ORACLE_TOL


class TestCriteriaBench:
    @staticmethod
    def cheap_rows(monkeypatch):
        """Cut both probe sets to criterion 2 and the geometry rows, on a 32 x 32 session."""
        for name in ("desk", "full"):
            monkeypatch.setitem(V.PROBE_SETS, name, {"conservation": {}, "geometry": {},
                                                     "session": {"nx": 32, "ny": 32}})

    def test_main_on_cheap_rows(self, tmp_path, monkeypatch):
        self.cheap_rows(monkeypatch)
        out = tmp_path / "bench.json"
        assert load("criteria").main(["--out", str(out), "--repeats", "3"]) == 0
        report = json.loads(out.read_text())
        assert report["repeats"] == 3 and report["failures"] == []
        assert list(report["probe_sets"]) == ["desk", "full"]
        for rec in report["probe_sets"].values():
            assert is_timing(rec["total_s"]) and is_timing(rec["session_s"])
            assert [check["name"] for check in rec["checks"]] == [
                "conservation_exact", "conservation_solver_c-0.5", "conservation_solver_c1.0",
                "doubling", "equivalence_window"]
            for check in rec["checks"]:
                assert set(check) == {"name", "residual", "tolerance", "passed", "wall_s"}
                assert check["passed"]
                wall_s = check["wall_s"]
                assert set(wall_s) == {"median", "q1", "q3"}
                assert 0.0 <= wall_s["q1"] <= wall_s["median"] <= wall_s["q3"]

    def test_failed_check_fails_the_run(self, tmp_path, monkeypatch):
        self.cheap_rows(monkeypatch)
        monkeypatch.setattr(V, "doubling_check", lambda c, n: {
            "worst_ratio": 5.0, "shape_bound": 4.0, "within_shape": False})
        out = tmp_path / "bench.json"
        assert load("criteria").main(["--out", str(out), "--repeats", "1"]) == 1
        report = json.loads(out.read_text())
        assert report["failures"] == ["desk doubling: residual 5.000e+00, tolerance 4.000e+00",
                                      "full doubling: residual 5.000e+00, tolerance 4.000e+00"]
