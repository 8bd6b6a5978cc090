"""CLI: config grammar, routing, exit codes, artifact formats."""

import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from halfheat import cli, operators, solver
from halfheat import verify as V
from halfheat.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL,
    EXIT_PASS,
    main,
    operator_from_config,
    parse_config,
)
from halfheat.errors import StructuralError
from halfheat.operators import (
    general_kernel_exact,
    inverse_map_point,
    map_point,
    reduce_to_model,
)
from halfheat.solver import GridSpec


def strict_json(text: str):
    """The JSON value of text; the bare tokens Infinity, -Infinity and NaN raise."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


IDENTITY_CFG = """\
# identity operator
N = 1
A.row.1 = 1, 0
A.row.2 = 0, 1
v.d = 0
v.c = 0
grid.nx = 32
grid.ny = 32
grid.Rx = 5
grid.Ry = 5
t.list = 0.5
sources = 0,1
"""

N2_CFG = """\
N = 2
A.row.1 = 1, 0, 0
A.row.2 = 0, 1, 0
A.row.3 = 0, 0, 1
v.d = 0, 0
v.c = 0
grid.nx = 32
grid.ny = 32
t.list = 0.5
sources = 0,0,1
"""

MIXED_CFG = """\
N = 1
A.row.1 = 1, 0.5
A.row.2 = 0.5, 1
v.d = 0
v.c = 1.0
grid.nx = 32
grid.ny = 32
grid.Rx = 4
grid.Ry = 4
t.list = 0.25
sources = 0,1
"""

OUTSIDE_CFG = """\
# identity operator; the source x = 5 lies outside the 2 x 2 domain
N = 1
A.row.1 = 1, 0
A.row.2 = 0, 1
v.d = 0
v.c = 0.5
grid.nx = 16
grid.ny = 16
grid.Rx = 2
grid.Ry = 2
t.list = 0.5
sources = 5,1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigGrammar:
    def test_parse_comments_and_pairs(self, tmp_path):
        cfg = parse_config(write(tmp_path, "a.cfg", "x = 1 # tail comment\n# line\n\ny = 2\n"))
        assert cfg == {"x": "1", "y": "2"}

    def test_missing_file(self):
        with pytest.raises(StructuralError):
            parse_config("/nonexistent/path.cfg")

    def test_bad_line(self, tmp_path):
        with pytest.raises(StructuralError):
            parse_config(write(tmp_path, "a.cfg", "just words\n"))

    def test_operator_parsing(self, tmp_path):
        cfg = parse_config(write(tmp_path, "op.cfg", IDENTITY_CFG))
        spec = operator_from_config(cfg)
        assert spec.n == 1
        assert spec.gamma == 1.0

    def test_repeated_key(self, tmp_path):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG + "v.c = 1\n")
        with pytest.raises(StructuralError, match="repeated key 'v.c'"):
            parse_config(path)
        assert main(["kernel", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR

    def test_unknown_key(self, tmp_path, capsys):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG + "grid.NX = 64\n")
        assert main(["validate", path]) == EXIT_CONFIG_ERROR
        assert main(["kernel", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert "grid.NX" in capsys.readouterr().out

    def test_huge_n_refused_in_constant_memory(self, tmp_path):
        # the known keys are decided from the keys present, not from a set of
        # every A.row.i up to N + 1 (122 MB at this N)
        path = write(tmp_path, "op.cfg", "N = 1000000\nA.row.1 = 1, 0\nA.row.2 = 0, 1\n")
        cfg = parse_config(path)
        tracemalloc.start()
        try:
            with pytest.raises(StructuralError, match="A.row.1 needs 1000001 entries"):
                operator_from_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert main(["validate", path]) == EXIT_CONFIG_ERROR
        assert main(["kernel", path, "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("key", ["A.row.0", "A.row.01", "A.row.3", "A.row.1.0", "A.row.x"])
    def test_row_key_outside_the_rows_is_unknown(self, tmp_path, capsys, key):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG + f"{key} = 1, 0\n")
        assert main(["validate", path]) == EXIT_CONFIG_ERROR
        assert f"unknown config keys: {key}" in capsys.readouterr().out

    @pytest.mark.parametrize("old,new,detail", [
        ("v.c = 0", "v.c = 0, 1", "v.c needs one number"),
        ("grid.Rx = 5", "grid.Rx = 5, 6", "grid.Rx needs one number"),
        ("N = 1\n", "", "config needs integer key N"),
        ("N = 1", "N = one", "config needs integer key N"),
        ("A.row.2 = 0, 1\n", "", "config missing A.row.2"),
        ("v.d = 0", "v.d = 0, 1", "v.d needs 1 entries, got 2"),
        ("grid.nx = 32", "grid.nx = 4", "grids need an integer count of at least 8"),
    ], ids=["vc_two", "Rx_two", "N_missing", "N_word", "row_missing", "vd_count", "nx_few"])
    def test_structural_error_exits_2(self, tmp_path, capsys, old, new, detail):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG.replace(old, new))
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert json.loads(capsys.readouterr().out)["detail"].startswith(detail)
        assert not out_dir.exists()  # a config error leaves no output directory behind

    @pytest.mark.parametrize("command", ["validate", "kernel"])
    def test_config_not_utf8_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "op.cfg"
        path.write_bytes(b"N = 1\n\xff\n")
        with pytest.raises(StructuralError, match="cannot read config"):
            parse_config(path)
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "config error" and str(path) in report["detail"]

    def test_malformed_matrix_row(self, tmp_path):
        cfg = parse_config(write(tmp_path, "op.cfg", "N = 1\nA.row.1 = 1, zebra\nA.row.2 = 0, 1\n"))
        with pytest.raises(StructuralError):
            operator_from_config(cfg)


class TestValidateCommand:
    def test_identity_passes(self, tmp_path, capsys):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG)
        assert main(["validate", path]) == EXIT_PASS
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert out["schema_version"] == 11

    def test_degeneracy_failure_names_invariant(self, tmp_path, capsys):
        bad = IDENTITY_CFG.replace("v.c = 0", "v.c = -1.5")
        path = write(tmp_path, "op.cfg", bad)
        assert main(["validate", path]) == EXIT_CHECK_FAILED
        out = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in out["checks"] if not c["passed"]]
        assert failed == ["degeneracy"]

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "op.cfg", "N = 1\nA.row.1 = 1, zebra\nA.row.2 = 0, 1\n")
        assert main(["validate", path]) == EXIT_CONFIG_ERROR


class TestKernelCommand:
    def test_exact_route(self, tmp_path, capsys):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        assert index["outputs"][0]["method"] == "exact"
        assert index["schema_version"] == 11
        assert all(np.isfinite(index[k]) and index[k] >= 0.0 for k in ("evaluate_s", "write_s"))
        csv_file = out_dir / index["outputs"][0]["file"].split("/")[-1]
        header = csv_file.read_text().splitlines()[0]
        assert header == "t,x1,y1,x2,y2,p,convention"

    def test_exact_route_at_a_tiny_time_is_finite(self, tmp_path):
        # y1 y2 / (2t) reaches 2^30 on most rows, where scipy's ive is NaN
        cfg = (IDENTITY_CFG.replace("v.c = 0", "v.c = 0.5").replace("grid.Ry = 5", "grid.Ry = 8")
               .replace("t.list = 0.5", "t.list = 1e-9"))
        path = write(tmp_path, "op.cfg", cfg)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        rows = Path(index["outputs"][0]["file"]).read_text().splitlines()[1:]
        assert len(rows) == 32 * 32
        assert all(np.isfinite(float(row.split(",")[5])) for row in rows)

    def test_exact_reduced_route_writes_the_requested_source(self, tmp_path):
        # a sheared a = 0 operator: the closed form is evaluated at each source's exact
        # image, so the index and the CSV x2,y2 keep the requested doubles, not a round trip
        cfg = IDENTITY_CFG.replace("A.row.1 = 1, 0\nA.row.2 = 0, 1",
                                   "A.row.1 = 2, 0.7\nA.row.2 = 0.7, 1.2").replace(
            "v.d = 0\nv.c = 0", "v.d = 0.35\nv.c = 0.6").replace(
            "sources = 0,1", "sources = 0.1,1.0 ; -0.3,0.7")
        path = write(tmp_path, "op.cfg", cfg)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        outputs = json.loads((out_dir / "kernel_index.json").read_text())["outputs"]
        for entry, source in zip(outputs, [[0.1, 1.0], [-0.3, 0.7]], strict=True):
            assert entry["method"] == "exact-reduced"
            assert entry["source"] == entry["source_used"] == source
            assert entry["snap_offset_cells"] == 0.0
            rows = Path(entry["file"]).read_text().splitlines()[1:]
            assert {tuple(float(v) for v in row.split(",")[3:5]) for row in rows} == {tuple(source)}

    def test_lost_mass_fails_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        real = cli.kernel_slices
        monkeypatch.setattr(cli, "kernel_slices", lambda *args, **kw: [
            replace(slc, meta={**slc.meta, "mass_defect": 2e-3}) for slc in real(*args, **kw)])
        path = write(tmp_path, "op.cfg", MIXED_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CHECK_FAILED
        error = strict_json(capsys.readouterr().out)
        assert error["error"] == "mass not conserved"
        assert error["mass_defect"] == 2e-3 and error["tolerance"] == cli.MASS_TOL == 1e-3
        assert not out_dir.exists()  # no CSV, no index, and the --out it made is gone

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_mass_tol_must_be_finite_and_non_negative(self, tmp_path, tol):
        # nan and inf once switched the check off, -1 failed every run: the
        # tolerance is fixed now, and argparse refuses the retired option
        assert np.isfinite(cli.MASS_TOL) and cli.MASS_TOL >= 0.0
        path = write(tmp_path, "op.cfg", MIXED_CFG)
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["kernel", path, "--out", str(out_dir), "--mass-tol", tol])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()

    def test_solver_route_for_mixed_term(self, tmp_path):
        path = write(tmp_path, "op.cfg", MIXED_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        entry = index["outputs"][0]
        assert entry["method"] == "solver"
        assert index["reduction"]["a"] == pytest.approx([0.5])
        # the evolution's stats ride along; the reduction is listed once
        assert set(solver.SOLVE_STATS) <= set(entry)
        assert entry["route"] == "contour"
        assert entry["windows"] == 1 and entry["nodes"] > solver.CONTOUR_NODES
        assert entry["factorizations"] == solver.CONTOUR_NODES + entry["nodes"]
        assert 0 < entry["live_modes"] <= 32  # one window of the 32 x-modes
        assert entry["solve_rows"] == 32 * entry["live_modes"]  # a != 0: ny rows per live mode
        assert entry["solve_columns"] == 1  # one source, one unit column
        assert 0.0 < entry["contour_err"] <= solver.CONTOUR_TOL
        assert 0.0 < entry["max_solve_residual"] < solver.SOLVE_RTOL
        assert "reduction" not in entry

    @pytest.mark.parametrize("cfg", [IDENTITY_CFG.replace("t.list = 0.5", "t.list ="),
                                     MIXED_CFG.replace("t.list = 0.25", "t.list =")],
                             ids=["exact", "solver"])
    def test_empty_time_list_rejected(self, tmp_path, capsys, cfg):
        path = write(tmp_path, "op.cfg", cfg)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"
        assert not out_dir.exists()

    @pytest.mark.parametrize("cfg", [
        OUTSIDE_CFG,
        OUTSIDE_CFG.replace("A.row.1 = 1, 0\nA.row.2 = 0, 1", "A.row.1 = 1, 0.5\nA.row.2 = 0.5, 1"),
    ], ids=["exact", "solver"])
    def test_source_outside_grid_rejected_on_both_routes(self, tmp_path, capsys, cfg):
        path = write(tmp_path, "op.cfg", cfg)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"
        assert not out_dir.exists()  # a failed run removes the --out it made

    @pytest.mark.parametrize("old,new", [
        ("t.list = 0.5", "t.list = inf"),
        ("t.list = 0.5", "t.list = nan"),
        ("grid.Rx = 5", "grid.Rx = inf"),
        ("v.c = 0", "v.c = inf"),
        ("grid.nx = 32", "grid.nx = inf"),
    ], ids=["t_inf", "t_nan_numeric", "Rx_inf", "vc_inf", "nx_inf"])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, old, new):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG.replace(old, new))
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "config error"
        assert not (out_dir / "kernel_index.json").exists()

    def test_close_times_write_distinct_files(self, tmp_path):
        # 0.5 and 0.5000001 agree to the 6 digits of :g
        cfg = IDENTITY_CFG.replace("t.list = 0.5", "t.list = 0.5, 0.5000001").replace(
            "sources = 0,1", "sources = 0,1 ; 0.5,1.5")
        path = write(tmp_path, "op.cfg", cfg)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        files = sorted(Path(entry["file"]).name for entry in index["outputs"])
        assert len(files) == 4
        assert sorted(p.name for p in out_dir.glob("*.csv")) == files
        assert "kernel_t0p5_x0_y1.csv" in files

    @pytest.mark.parametrize("old,new", [
        ("t.list = 0.5", "t.list = 0.5, 0.50"),
        ("sources = 0,1", "sources = 0,1 ; 0.0,1.0"),
    ], ids=["time", "source"])
    def test_repeats_rejected(self, tmp_path, capsys, old, new):
        # one file per (t, source): a repeat would write the same file twice
        path = write(tmp_path, "op.cfg", IDENTITY_CFG.replace(old, new))
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert "repeats" in json.loads(capsys.readouterr().out)["detail"]
        assert not (out_dir / "kernel_index.json").exists()
        assert not list(out_dir.glob("*.csv"))

    @pytest.mark.parametrize("old,new,key", [
        ("sources = 0,1", "sources = 0,,1", "sources"),
        ("A.row.1 = 1, 0", "A.row.1 = 1,, 0", "A.row.1"),
        ("t.list = 0.5", "t.list = 0.5,", "t.list"),
    ], ids=["sources", "row", "trailing"])
    def test_empty_list_entry_rejected(self, tmp_path, capsys, old, new, key):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG.replace(old, new))
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        detail = json.loads(capsys.readouterr().out)["detail"]
        assert detail.startswith(f"{key}: malformed number list")
        assert not out_dir.exists()

    @pytest.mark.parametrize("sources", ["0,1,2", "0,1 ; 0,1,2"], ids=["one", "ragged"])
    def test_source_not_one_point_rejected(self, tmp_path, capsys, sources):
        cfg = IDENTITY_CFG.replace("sources = 0,1", f"sources = {sources}")
        path = write(tmp_path, "op.cfg", cfg)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        assert "[0.0, 1.0, 2.0] is not one point" in json.loads(capsys.readouterr().out)["detail"]
        assert not (out_dir / "kernel_index.json").exists()
        assert not list(out_dir.glob("*.csv"))
        assert not out_dir.exists()

    @pytest.mark.parametrize("cfg,error,detail", [
        (IDENTITY_CFG.replace("t.list = 0.5", "t.list = -1"), "DomainError", "positive"),
        (MIXED_CFG.replace("t.list = 0.25", "t.list = -1"), "DomainError", "positive"),
        (IDENTITY_CFG.replace("t.list = 0.5", "t.list = 0"), "DomainError", "positive"),
        (MIXED_CFG.replace("t.list = 0.25", "t.list = 0"), "DomainError", "positive"),
        (N2_CFG, "config error", "defined for N = 1"),  # refused before either route
        (N2_CFG.replace("A.row.1 = 1, 0", "A.row.1 = 1, 0.5").replace("A.row.2 = 0, 1", "A.row.2 = 0.5, 1"),
         "config error", "defined for N = 1"),
    ], ids=[  # flags0: an a = 0 operator (exact route); flags1: a mixed one (solver route)
        "t_negative-flags0", "t_negative-flags1", "t_zero-flags0", "t_zero-flags1",
        "n2-flags0", "n2-flags1",
    ])
    def test_bad_request_leaves_no_out(self, tmp_path, capsys, cfg, error, detail):
        # --out is made before the request's checks; the failed run removes all of it
        path = write(tmp_path, "op.cfg", cfg)
        out_dir = tmp_path / "a" / "b"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == error and detail in report["detail"]
        assert not out_dir.exists()
        assert not (tmp_path / "a").exists()

    def test_inadmissible_operator_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG.replace("v.c = 0", "v.c = -1.5"))
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "invalid operator"
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["degeneracy"]
        assert not out_dir.exists()

    def test_contour_guard_exits_3(self, tmp_path, capsys, monkeypatch):
        # 4 and 8 contour nodes disagree far beyond CONTOUR_TOL
        monkeypatch.setattr(solver, "CONTOUR_NODES", 4)
        path = write(tmp_path, "op.cfg", MIXED_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_NUMERICAL
        detail = json.loads(capsys.readouterr().out)["detail"]
        assert "4 and 8 nodes" in detail and "CONTOUR_TOL" in detail
        assert not out_dir.exists()  # a failed run removes the --out it made

    def test_failed_run_keeps_a_pre_existing_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "CONTOUR_NODES", 4)
        path = write(tmp_path, "op.cfg", MIXED_CFG)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_NUMERICAL
        assert out_dir.is_dir() and not any(out_dir.iterdir())

    def test_failed_run_removes_every_directory_it_made(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "CONTOUR_NODES", 4)
        path = write(tmp_path, "op.cfg", MIXED_CFG)
        out_dir = tmp_path / "a" / "b"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_NUMERICAL
        assert not (tmp_path / "a").exists()

    def test_full_precision_csv(self, tmp_path):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG)
        out_dir = tmp_path / "out"
        main(["kernel", path, "--out", str(out_dir)])
        index = json.loads((out_dir / "kernel_index.json").read_text())
        lines = Path(index["outputs"][0]["file"]).read_text().splitlines()[1:]
        # kernel values round-trip bit-exactly through the 17-digit format
        import numpy as np
        from halfheat.kernels import product_kernel
        from halfheat.operators import ModelOperatorSpec
        m = ModelOperatorSpec(n=1, a=np.zeros(1), c=0.0)
        row = lines[len(lines) // 2].split(",")
        z1 = np.array([float(row[1]), float(row[2])])
        z2 = np.array([float(row[3]), float(row[4])])
        assert float(row[5]) == product_kernel(m, float(row[0]), z1, z2)

    def test_one_assembly_and_one_evolution_per_run(self, tmp_path, monkeypatch):
        cfg = MIXED_CFG.replace("t.list = 0.25", "t.list = 0.25, 0.5").replace(
            "sources = 0,1", "sources = 0,1 ; 0.5,1.5")
        path = write(tmp_path, "op.cfg", cfg)
        calls = {"assemble": 0, "_evolve_block": 0, "reduce_to_model": 0, "validate_general": 0}
        for name in calls:
            for module in (cli, operators, solver):  # wherever a caller looks the name up
                if hasattr(module, name):
                    def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                        calls[_name] += 1
                        return _fn(*args, **kwargs)
                    monkeypatch.setattr(module, name, counted)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        assert len(index["outputs"]) == 4
        # validate_general: the CLI's report, then the one reduction's check
        assert calls == {"assemble": 1, "_evolve_block": 1, "reduce_to_model": 1,
                         "validate_general": 2}


def desk_rows(monkeypatch, *rows):
    """Cut PROBE_SETS["desk"] to the named rows (or "session"), each at its desk inputs."""
    desk = V.PROBE_SETS["desk"]
    monkeypatch.setitem(V.PROBE_SETS, "desk", {row: desk[row] for row in rows})


class TestVerifyCommand:
    def test_broken_envelope_fails(self, capsys, monkeypatch):
        # fit_envelope_constants serves criterion 4 alone, so only its checks fail
        real = V.fit_envelope_constants

        def halved(*args, **kw):
            rep = real(*args, **kw)
            return replace(rep, k_up=rep.k_up / 2.0)

        monkeypatch.setattr(V, "fit_envelope_constants", halved)
        desk_rows(monkeypatch, "envelope", "session")
        assert main(["verify"]) == EXIT_CHECK_FAILED
        bundle = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in bundle["checks"] if not c["passed"]]
        assert failed == ["envelope_exact_c-0.5", "envelope_exact_c1.0",
                          "envelope_solver_c-0.5", "envelope_solver_c1.0"]

    @pytest.mark.parametrize("residual", [1.0, np.nan])
    def test_residual_over_tolerance_fails(self, capsys, monkeypatch, residual):
        # a check without its own verdict passes only when residual <= tolerance
        real = V.check_identities_exact
        monkeypatch.setattr(V, "check_identities_exact",
                            lambda *args, **kw: {**real(*args, **kw), "scaling": residual})
        desk_rows(monkeypatch, "identities")
        assert main(["verify"]) == EXIT_CHECK_FAILED
        bundle = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in bundle["checks"] if not c["passed"]] == ["scaling_exact"]

    def test_equivalence_window_inf_fails_in_strict_json(self, tmp_path, monkeypatch):
        monkeypatch.setattr(V, "envelope_equivalence_window", lambda c, eps: (0.5, np.inf, eps))
        desk_rows(monkeypatch, "geometry")
        out_dir = tmp_path / "v"
        assert main(["verify", "--out", str(out_dir)]) == EXIT_CHECK_FAILED
        bundle = strict_json((out_dir / "verify.json").read_text())
        check = next(c for c in bundle["checks"] if c["name"] == "equivalence_window")
        assert check["passed"] is False and check["residual"] is None
        assert check["tolerance"] == pytest.approx(2.0251, abs=1e-4)

    def test_equivalence_window_wrong_weight_exponent_fails(self, capsys, monkeypatch):
        # the weight y^{-c} (1 ^ y)^c in place of y^{-c/2} (1 ^ y)^{c/2} overshoots
        # the closed-form supremum of the window
        real = V.envelope_equivalence_window
        monkeypatch.setattr(V, "envelope_equivalence_window", lambda c, eps: real(2.0 * c, eps))
        desk_rows(monkeypatch, "geometry")
        assert main(["verify"]) == EXIT_CHECK_FAILED
        bundle = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in bundle["checks"] if not c["passed"]] == ["equivalence_window"]

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
    def test_non_finite_break_rate_rejected(self, tmp_path, rate):
        # the envelope can no longer be broken from the command line
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:  # argparse refuses it before any work
            main(["verify", "--break-rate", rate, "--out", str(out_dir)])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()

    def test_unknown_probe_set_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--probe-set", "bogus"])

    def test_smoke_probe_set_retired(self, tmp_path):
        # its closed-form-only rows read no solver session, a mode the criteria no longer have
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--probe-set", "smoke", "--out", str(out_dir)])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert not out_dir.exists()


@pytest.mark.parametrize("command,under", [
    ("validate", True), ("kernel", False), ("kernel", True), ("verify", True),
], ids=["validate", "kernel_file", "kernel_under", "verify"])
def test_out_that_cannot_be_made_exits_2(tmp_path, capsys, monkeypatch, command, under):
    # --out names a regular file, or a directory under one; the command fails
    # before its work
    work = {"validate": "validate_general", "kernel": "kernel_slices", "verify": "run_criteria"}
    monkeypatch.setattr(cli, work[command], lambda *a, **k: pytest.fail(f"{command} did its work"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "out" if under else blocker
    args = ["verify"] if command == "verify" else [command, write(tmp_path, "op.cfg", IDENTITY_CFG)]
    assert main([*args, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "output error"
    assert blocker.read_text() == ""


GENERAL_CFG = """\
N = 1
A.row.1 = 2, 0.7
A.row.2 = 0.7, 1
v.d = 0.3
v.c = 0.6
grid.nx = 32
grid.ny = 32
grid.Rx = 4
grid.Ry = 4
t.list = 0.5
sources = 0.2,1.0
"""


class TestGeneralOperatorRoute:
    def test_reduced_solve_maps_back(self, tmp_path):
        path = write(tmp_path, "gen.cfg", GENERAL_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        entry = index["outputs"][0]
        assert entry["method"] == "solver-reduced"
        assert entry["mass_defect"] < 1e-10
        assert index["reduction"]["a"][0] != 0.0
        # the CSV source column is the snapped model cell centre, mapped back;
        # the index keeps the requested general-coordinates point
        red = reduce_to_model(operator_from_config(parse_config(path)))
        grid = GridSpec(rx=4.0, ry=4.0, nx=32, ny=32, c=red.model.c)
        i, j = grid.locate(map_point(red, [0.2, 1.0]))
        snapped = inverse_map_point(red, [grid.x_centers[i], grid.y_centers[j]])
        csv_lines = Path(entry["file"]).read_text().splitlines()
        x2, y2 = csv_lines[1].split(",")[3:5]
        assert [float(x2), float(y2)] == snapped.tolist()
        assert entry["source"] == [0.2, 1.0]

    def test_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # 1e14 y-cells: the first array of that length (728 TiB, past any
        # address space) is refused outright, before any memory is touched
        path = write(tmp_path, "gen.cfg", GENERAL_CFG.replace("grid.nx = 32", "grid.nx = 16")
                     .replace("grid.ny = 32", "grid.ny = 100000000000000"))
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_CONFIG_ERROR
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "out of memory"
        assert report["detail"].startswith("Unable to allocate")
        assert not out_dir.exists()  # a failed run removes the --out it made


DIVERGENCE_CFG = """\
N = 1
A.row.1 = 2, 0.7
A.row.2 = 0.7, 1.2
v.d = 0.35
v.c = 0.6
grid.nx = 32
grid.ny = 32
grid.Rx = 4
grid.Ry = 4
t.list = 0.25, 0.5
sources = 0.1,1.0
"""


def test_divergence_form_takes_the_closed_form(tmp_path):
    # d = (c/gamma) q reduces to a = 0 up to round-off
    path = write(tmp_path, "div.cfg", DIVERGENCE_CFG)
    out_dir = tmp_path / "out"
    assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
    index = json.loads((out_dir / "kernel_index.json").read_text())
    red = reduce_to_model(operator_from_config(parse_config(path)))
    assert abs(red.model.a[0]) <= 1e-13
    for entry in index["outputs"]:
        assert entry["method"] == "exact-reduced"
        assert entry["snap_offset_cells"] == 0.0
        rows = np.loadtxt(entry["file"], delimiter=",", skiprows=1, usecols=range(6))
        want = general_kernel_exact(red, rows[0, 0], rows[:, 1:3], rows[0, 3:5])
        assert np.max(np.abs(rows[:, 5] - want)) <= 1e-12 * np.max(np.abs(want))


def test_full_sweep_is_strict_json(tmp_path):
    out_dir = tmp_path / "full"
    assert main(["verify", "--probe-set", "full", "--out", str(out_dir)]) == EXIT_PASS
    bundle = strict_json((out_dir / "verify.json").read_text())
    assert bundle["passed"] is True


def test_desk_sweep_passes(tmp_path):
    out_dir = tmp_path / "desk"
    assert main(["verify", "--probe-set", "desk", "--out", str(out_dir)]) == EXIT_PASS
    bundle = strict_json((out_dir / "verify.json").read_text())
    assert bundle["passed"] is True
    assert bundle["schema_version"] == 11 and bundle["probe_set"] == "desk"
    assert "seed" not in bundle
    assert all(np.isfinite(c["wall_s"]) and c["wall_s"] >= 0.0 for c in bundle["checks"])
    # every check has a finite tolerance; the window's is its closed-form supremum
    assert all(np.isfinite(c["tolerance"]) for c in bundle["checks"])
    window = next(c for c in bundle["checks"] if c["name"] == "equivalence_window")
    assert window["residual"] <= window["tolerance"] == pytest.approx(2.0251, abs=1e-4)
    # every row of the table, at the desk grids
    names = {c["name"] for c in bundle["checks"]}
    for kind in ("adjoint", "scaling", "translation"):
        assert {f"{kind}_solver_a0.5_c-0.5", f"{kind}_solver_a0.5_c1.0"} <= names
    assert {"oracle_solver_c2.0", "conservation_solver_c1.0", "envelope_solver_c-0.5",
            "gradient_solver_c1.0", "floors_solver_c1.0", "g_trace_solver_c1.0",
            "poincare_c2.0", "sab_family_c1.0_p4.0", "round_trip_solver", "doubling"} <= names
    round_trip = next(c for c in bundle["checks"] if c["name"] == "round_trip_solver")
    assert round_trip["params"]["n"] == 64
    # solver checks carry the stats of their evolutions, the others none
    for check in bundle["checks"]:
        assert ("solve" in check) == ("_solver" in check["name"])
        if "solve" in check:
            assert set(check["solve"]) == set(solver.SOLVE_STATS)
            assert check["solve"]["contour_err"] <= solver.CONTOUR_TOL
            if check["solve"]["route"] == "contour":  # a != 0
                assert 0.0 < check["solve"]["contour_err"]
                assert 0 < check["solve"]["live_modes"] <= 96 * check["solve"]["windows"]
            else:  # criterion 1 at a = 0
                assert check["name"].startswith("oracle_solver")
                assert check["solve"]["route"] == "separable"
