"""CLI: config grammar, routing, exit codes, artifact formats."""

import json
from pathlib import Path

import numpy as np
import pytest

from halfheat import solver
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

LONG_CFG = """\
# identity operator; h = 1/128 makes t = 10 need 163,840 steps
N = 1
A.row.1 = 1, 0
A.row.2 = 0, 1
v.d = 0
v.c = 0
grid.nx = 128
grid.ny = 128
grid.Rx = 0.5
grid.Ry = 1
t.list = 10
sources = 0,0.5
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
        assert out["schema_version"] == 2

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
        csv_file = out_dir / index["outputs"][0]["file"].split("/")[-1]
        header = csv_file.read_text().splitlines()[0]
        assert header == "t,x1,y1,x2,y2,p,convention"

    def test_solver_route_for_mixed_term(self, tmp_path):
        path = write(tmp_path, "op.cfg", MIXED_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        assert index["outputs"][0]["method"] == "solver"
        assert index["reduction"]["a"] == pytest.approx([0.5])

    @pytest.mark.parametrize("flags", [[], ["--force-numeric"]])
    def test_source_outside_grid_rejected_on_both_routes(self, tmp_path, capsys, flags):
        path = write(tmp_path, "op.cfg", OUTSIDE_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir), *flags]) == EXIT_CONFIG_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "DomainError"
        assert not (out_dir / "kernel_index.json").exists()

    def test_step_budget_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "op.cfg", LONG_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir), "--force-numeric"]) == EXIT_NUMERICAL
        detail = json.loads(capsys.readouterr().out)["detail"]
        assert "163840" in detail and str(solver.MAX_STEPS) in detail
        assert not (out_dir / "kernel_index.json").exists()

    def test_force_numeric(self, tmp_path):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir), "--force-numeric"]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        assert index["outputs"][0]["method"] == "solver"

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

    def test_exact_and_numeric_share_sample_points(self, tmp_path):
        path = write(tmp_path, "op.cfg", IDENTITY_CFG)
        columns = []
        for extra in ([], ["--force-numeric"]):
            out_dir = tmp_path / ("numeric" if extra else "exact")
            assert main(["kernel", path, "--out", str(out_dir), *extra]) == EXIT_PASS
            index = json.loads((out_dir / "kernel_index.json").read_text())
            lines = Path(index["outputs"][0]["file"]).read_text().splitlines()[1:]
            columns.append([line.split(",")[1:3] for line in lines])
        assert len(columns[0]) == 32 * 32
        assert columns[0] == columns[1]

    def test_one_assembly_and_one_evolution_per_source(self, tmp_path, monkeypatch):
        cfg = MIXED_CFG.replace("t.list = 0.25", "t.list = 0.25, 0.5").replace(
            "sources = 0,1", "sources = 0,1 ; 0.5,1.5")
        path = write(tmp_path, "op.cfg", cfg)
        calls = {"assemble": 0, "kernel_columns": 0}
        for name in calls:
            def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)
        out_dir = tmp_path / "out"
        assert main(["kernel", path, "--out", str(out_dir)]) == EXIT_PASS
        index = json.loads((out_dir / "kernel_index.json").read_text())
        assert len(index["outputs"]) == 4
        assert calls == {"assemble": 1, "kernel_columns": 2}


class TestVerifyCommand:
    def test_smoke_passes(self, tmp_path, capsys):
        out_dir = tmp_path / "v"
        assert main(["verify", "--probe-set", "smoke", "--out", str(out_dir)]) == EXIT_PASS
        bundle = json.loads((out_dir / "verify.json").read_text())
        assert bundle["passed"] is True
        assert bundle["schema_version"] == 2
        assert "seed" not in bundle
        names = {c["name"] for c in bundle["checks"]}
        assert {"conservation_exact", "scaling_exact", "envelope_exact"} <= names

    def test_broken_envelope_fails(self, capsys):
        assert main(["verify", "--probe-set", "smoke", "--break-rate", "0.5"]) \
            == EXIT_CHECK_FAILED
        bundle = json.loads(capsys.readouterr().out)
        failed = [c["name"] for c in bundle["checks"] if not c["passed"]]
        assert "envelope_exact" in failed

    def test_unknown_probe_set_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--probe-set", "bogus"])


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


def test_desk_sweep_passes(tmp_path):
    out_dir = tmp_path / "desk"
    assert main(["verify", "--probe-set", "desk", "--out", str(out_dir)]) == EXIT_PASS
    bundle = json.loads((out_dir / "verify.json").read_text())
    assert bundle["passed"] is True
    names = {c["name"] for c in bundle["checks"]}
    assert any(n.startswith("adjoint_solver") for n in names)
    assert "sab_sec6_stable" in names
