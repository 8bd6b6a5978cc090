"""The bench scripts run on small inputs through the public API, and their gates can fire."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from halfheat.kernels import exact_slice
from halfheat.operators import GeneralOperatorSpec, ModelOperatorSpec
from halfheat.solver import GridSpec, assemble, assemble_divergence_form, kernel_columns

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
            windows = rec[f"k{k}"]["windows"]
            assert [tuple(w["times"]) for w in windows] == list(contour.WINDOWS)
            assert rec[f"k{k}"]["time_s"] > 0.0 and rec[f"k{k}"]["counterpart_time_s"] > 0.0
            for win in windows:
                for side in ("package", "counterpart"):
                    assert set(contour.SOLVE_STATS) <= set(win[side])
                    assert {"time_s", "mass_defect", "oracle_err"} <= set(win[side])
                assert win["gap_max_rel"] <= win["gap_bound"]
                routes = (win["package"]["route"], win["counterpart"]["route"])
                assert routes == (("separable", "contour") if fork == "separable"
                                  else ("contour", "contour"))
                if fork == "paired":  # one block per pair against one per mode
                    assert win["package"]["solve_rows"] < win["counterpart"]["solve_rows"]
                    assert win["gap_bound"] == contour.DIFF_TOL
                else:
                    assert win["package"]["oracle_err"] is not None

    def test_sides_alternate(self, contour, small_ops, monkeypatch):
        op, _, counterpart = small_ops["paired"]
        called = []

        def recording(o, *args):
            called.append(o)
            return kernel_columns(o, *args)

        monkeypatch.setattr(contour, "kernel_columns", recording)
        win = contour.window_record(op, counterpart, contour.WINDOWS[0], contour.SOURCES[:1],
                                    None, 3)
        assert [o is op for o in called] == [True, False] * 3  # package, counterpart, ...
        assert called[1] is counterpart
        assert {"package", "counterpart"} <= set(win)

    def test_gap_gate_fires(self, contour, small_ops):
        op = small_ops["paired"][0]
        off = contour.off_diagonal(op, op.bmat[0, 1], op.bmat[1, 0] + 1e-3)
        win = contour.window_record(op, off, contour.WINDOWS[0], contour.SOURCES[:1], None, 1)
        assert [f for f in contour.window_failures("x", win) if "differ" in f]

    def test_mass_gate_fires(self, contour, small_ops):
        op = small_ops["separable"][0]
        cols = kernel_columns(op, contour.WINDOWS[1], contour.SOURCES[:1])
        cols[0].values *= 1.0 + 1e-9
        win = {"package": contour.record([0.0], cols, None)}
        assert [f for f in contour.window_failures("x", win) if "mass defect" in f]

    def test_window_gate_fires(self, contour, small_ops):
        op = small_ops["paired"][0]
        win = contour.window_record(op, None, (0.25, 4.0), contour.SOURCES[:1], None, 1)
        assert win["package"]["windows"] == 2
        assert contour.window_failures("x", win) == ["x package: the call took 2 windows, not 1"]


class TestKernelOutBench:
    def test_cases_pass_their_gates(self, tmp_path):
        kernel_out = load("kernel_out")
        for name, a, d, c, sources in kernel_out.KERNEL_CLI[:2]:
            rec = kernel_out.case_record((f"{name}_16", a, d, c, sources, [0.25], 6.0, 16),
                                         1, tmp_path)
            assert kernel_out.passes(rec)
            assert rec["files"] == len(sources)
            assert {"cli_s", "evaluate_s", "write_per_file_s",
                    "write_per_file_percent_s"} <= set(rec)
            if rec["method"].startswith("exact"):
                assert rec["oracle_err"] <= kernel_out.ORACLE_TOL
            else:
                assert rec["oracle_err"] is None and rec["mass_defect"] <= 1e-12
        # the last case is closed-form, so both halves of the gate can fail
        assert not kernel_out.passes({**rec, "oracle_err": 2 * kernel_out.ORACLE_TOL})
        assert not kernel_out.passes({**rec, "files_identical": False})


class TestLadderBench:
    def test_cases_pass_their_gates(self):
        ladder = load("ladder")
        for spec, expected in ((ladder.SPECS[0], "bounded"), (ladder.SPECS[7], "undecided")):
            rec = ladder.case_record(spec, 2, 1)
            assert ladder.passes(rec)
            assert rec["verdict"] == rec["reference_verdict"] == expected
            assert rec["first_s"] > 0.0 and rec["repeat_s"] > 0.0 and rec["per_bump_s"] > 0.0
            assert len(rec["ladder"]) == 2
        # both halves of the gate can fail
        assert not ladder.passes({**rec, "max_rel_diff": 2 * ladder.DIFF_TOL})
        assert not ladder.passes({**rec, "verdict": "unbounded"})

    def test_verdicts(self):
        ladder = load("ladder")
        assert ladder.verdict([1.0, 1.2, 1.3]) == "bounded"
        assert ladder.verdict([1.0, 1.2, 1.4]) == "undecided"  # last step >= 1.1
        assert ladder.verdict([1.0, 4.0, 10.0]) == "unbounded"
