"""The bench scripts run on small inputs through the public API, and their gates can fire."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

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
        monkeypatch.setattr(kernel_out, "QUADRATURE_CS", [1.0])
        monkeypatch.setattr(kernel_out, "QUADRATURE_TS", [0.5])
        report = smoke(kernel_out, tmp_path)
        assert list(report["cases"]) == ["divergence_96"]
        assert report["cases"]["divergence_96"]["oracle_err"] <= kernel_out.ORACLE_TOL
        quad = report["quadrature"]
        assert list(quad["slices"]) == ["c=1.0,t=0.5"]
        assert quad["slices"]["c=1.0,t=0.5"]["first_s"] > 0.0
        for entry in (quad["identities"]["c=1.0"], quad["g_trace"], quad["poincare"]):
            assert is_timing(entry["time_s"])
        assert len(quad["g_trace"]["values"]) == 3 and len(quad["poincare"]["ratios"]) == 7

    def test_quadrature_gates_fire(self, monkeypatch):
        kernel_out = load("kernel_out")
        monkeypatch.setattr(kernel_out, "QUADRATURE_CS", [0.0])
        monkeypatch.setattr(kernel_out, "QUADRATURE_TS", [1.0])
        rec = kernel_out.quadrature_record(1)
        assert kernel_out.quadrature_failures(rec) == []
        for section, key, figure in (("slices", "c=0.0,t=1.0", "mass_defect"),
                                     ("identities", "c=0.0", "chapman_kolmogorov"),
                                     ("g_trace", None, "max_G"),
                                     ("poincare", None, "u_x_dev")):
            for bad in (2.0 * kernel_out.QUADRATURE_TOLS[figure], np.nan):
                crafted = json.loads(json.dumps(rec))  # a deep copy
                entry = crafted[section] if key is None else crafted[section][key]
                entry[figure] = bad
                [line] = kernel_out.quadrature_failures(crafted)
                assert figure in line


class TestLadderBench:
    def test_cases_pass_their_gates(self):
        ladder = load("ladder")
        for spec, expected in ((ladder.SPECS[0], "bounded"), (ladder.SPECS[7], "undecided")):
            rec = ladder.case_record(spec, 2, 1)
            assert ladder.failures(rec) == []
            assert rec["verdict"] == rec["reference_verdict"] == expected
            for key in ("first_s", "repeat_s", "per_bump_s"):
                assert is_timing(rec[key])
            assert len(rec["ladder"]) == 2
        # both halves of the gate can fail
        assert ladder.failures({**rec, "max_rel_diff": 2 * ladder.DIFF_TOL})
        assert ladder.failures({**rec, "verdict": "unbounded"})

    def test_main_on_the_smallest_case(self, tmp_path, monkeypatch):
        ladder = load("ladder")
        monkeypatch.setattr(ladder, "SPECS", ladder.SPECS[:1])
        monkeypatch.setattr(ladder, "LEVELS", (3,))
        report = smoke(ladder, tmp_path)
        assert [rec["levels"] for rec in report["cases"]] == [3]
        assert report["summary"]["levels3"]["repeat_s"] > 0.0

    def test_verdicts(self):
        ladder = load("ladder")
        assert ladder.verdict([1.0, 1.2, 1.3]) == "bounded"
        assert ladder.verdict([1.0, 1.2, 1.4]) == "undecided"  # last step >= 1.1
        assert ladder.verdict([1.0, 4.0, 10.0]) == "unbounded"
