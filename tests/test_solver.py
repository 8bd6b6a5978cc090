"""Discretization, evolution, kernel columns, and discrete identities."""

import numpy as np
import pytest

from halfheat import solver
from halfheat.errors import (
    DomainError,
    ParameterError,
    SolveFailure,
    StructuralError,
    WrongOperatorError,
)
from halfheat.kernels import exact_slice, product_kernel
from halfheat.operators import GeneralOperatorSpec, ModelOperatorSpec
from halfheat.solver import (
    Field,
    GridSpec,
    assemble,
    assemble_divergence_form,
    discrete_gradient,
    evolve,
    kernel_column,
    kernel_columns,
    slice_to_field,
)


def make(a=0.0, c=0.0, n=48, r=5.0):
    grid = GridSpec(rx=r, ry=r, nx=n, ny=n, c=c)
    model = ModelOperatorSpec(n=1, a=np.array([a]), c=c)
    return model, grid, assemble(model, grid)


def column(op, t, z2, **kw):
    return kernel_column(op, t, np.asarray(z2, dtype=float), **kw)


class TestAssembly:
    def test_interior_row_is_five_point_laplacian(self):
        # a = 0, c = 0, square cells: rows of -W^{-1} S are the 5-point stencil
        grid = GridSpec(rx=2.0, ry=4.0, nx=16, ny=16, c=0.0)
        op = assemble(ModelOperatorSpec(n=1, a=np.zeros(1), c=0.0), grid)
        assert grid.hx == grid.hy
        h2 = grid.hx ** 2
        k = 8 * grid.ny + 8
        e = np.zeros((grid.nx, grid.ny))
        e[8, 8] = 1.0
        out = op.apply(e).ravel()
        assert out[k] == pytest.approx(-4.0 / h2, rel=1e-12)
        for kk in (k - 1, k + 1, k - grid.ny, k + grid.ny):
            assert out[kk] == pytest.approx(1.0 / h2, rel=1e-12)

    def test_constant_annihilated(self):
        for a, c in ((0.0, 0.0), (0.5, 1.0), (-0.3, -0.5)):
            _, grid, op = make(a, c, n=24, r=3.0)
            out = op.apply(np.ones((grid.nx, grid.ny)))
            assert np.max(np.abs(out)) <= 1e-12

    def test_coercivity(self):
        # a(u,u) >= (1 - |a|) * dirichlet(u) for the a = 0.5, c = 1 form
        model, grid, op = make(0.5, 1.0, n=24, r=3.0)
        _, _, dirichlet_op = make(0.0, 1.0, n=24, r=3.0)
        rng = np.random.default_rng(8)
        for _ in range(50):
            u = rng.standard_normal(grid.nx * grid.ny)
            qa = op.quadratic_form(u)
            qd = dirichlet_op.quadratic_form(u)
            assert qa >= (1.0 - 0.5) * qd - 1e-12 * abs(qd)

    def test_refuses_bad_coefficients(self):
        grid = GridSpec(rx=2.0, ry=2.0, nx=16, ny=16, c=0.0)
        with pytest.raises(ParameterError):
            ModelOperatorSpec(n=1, a=np.array([1.0]), c=0.0)
        model = ModelOperatorSpec(n=1, a=np.array([0.0]), c=1.0)
        with pytest.raises(StructuralError):
            assemble(model, grid)  # weight mismatch

    def test_consistency_second_order(self):
        x0, y0, s = 0.3, 2.0, 0.5

        def f(x, y):
            return np.exp(-((x - x0) ** 2 + (y - y0) ** 2) / (2 * s ** 2))

        def lf(x, y, a, c):
            g = f(x, y)
            fy = -(y - y0) / s ** 2 * g
            fxx = (-1 / s ** 2 + (x - x0) ** 2 / s ** 4) * g
            fyy = (-1 / s ** 2 + (y - y0) ** 2 / s ** 4) * g
            fxy = (x - x0) * (y - y0) / s ** 4 * g
            return fxx + fyy + 2 * a * fxy + c / y * fy

        for a, c in ((0.5, 1.0), (0.7, -0.5)):
            errs = []
            for n in (48, 96):
                grid = GridSpec(rx=4.0, ry=4.0, nx=n, ny=n, c=c)
                op = assemble(ModelOperatorSpec(n=1, a=np.array([a]), c=c), grid)
                x, y = np.meshgrid(grid.x_centers, grid.y_centers, indexing="ij")
                interior = (np.abs(x) < 3.0) & (y > 0.5) & (y < 3.5)
                got = op.apply(Field.from_function(grid, f).values)
                errs.append(np.abs(got - lf(x, y, a, c))[interior].max())
            assert errs[0] / errs[1] > 3.0  # ~4 for second order


class TestEvolve:
    def test_constant_is_stationary(self):
        _, grid, op = make(0.5, 1.0, n=24, r=3.0)
        out = evolve(op, Field.constant(grid, 1.0), 2.0)
        assert out.values == pytest.approx(np.ones_like(out.values), abs=1e-12)

    def test_mass_conserved(self):
        _, grid, op = make(0.5, -0.5, n=24, r=3.0)
        f = Field.from_function(grid, lambda x, y: np.exp(-(x ** 2 + (y - 1) ** 2)))
        m0 = f.mass()
        out = evolve(op, f, 1.0)
        assert abs(out.mass() - m0) <= 1e-10 * abs(m0)

    def test_l2_contraction_selfadjoint(self):
        _, grid, op = make(0.0, 1.0, n=24, r=3.0)
        f = Field.from_function(grid, lambda x, y: np.sin(x) * np.exp(-y))
        out = evolve(op, f, 0.5)
        assert out.norm_l2() <= f.norm_l2() + 1e-12

    def test_l1_contraction_positive_data(self):
        _, grid, op = make(0.5, 1.0, n=24, r=3.0)
        rng = np.random.default_rng(15)
        for _ in range(5):
            x0, y0 = rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
            f = Field.from_function(
                grid, lambda x, y: np.exp(-((x - x0) ** 2 + (y - y0) ** 2))
            )
            out = evolve(op, f, 0.7)
            assert out.norm_l1() <= f.norm_l1() + 1e-8

    def test_matches_exact_convolution(self):
        # a = 0: evolve(f) equals the weighted convolution with the kernel
        model, grid, op = make(0.0, 1.0, n=48, r=6.0)
        f = Field.from_function(
            grid, lambda x, y: np.exp(-((x - 0.5) ** 2 + (y - 1.0) ** 2))
        )
        t = 0.5
        out = evolve(op, f, t)
        pts = grid.points()
        w = grid.masses().ravel()
        fv = f.values.ravel()
        conv = np.empty(len(pts))
        for idx in range(len(pts)):
            vals = product_kernel(model, t, pts[idx][None, :], pts)
            conv[idx] = np.dot(w, vals * fv)
        err = np.abs(out.values.ravel() - conv).max() / np.abs(conv).max()
        assert err < 0.02

    def test_checkpoints_match_single_runs(self):
        _, grid, op = make(0.3, 1.0, n=24, r=3.0)
        f = Field.from_function(grid, lambda x, y: np.exp(-(x ** 2 + (y - 1) ** 2)))
        a, b = evolve(op, f, 1.0, checkpoints=[0.5, 1.0])
        solo = evolve(op, f, 0.5)
        assert a.values == pytest.approx(solo.values, rel=1e-10, abs=1e-14)
        assert b.values.shape == solo.values.shape

    def test_nan_data_fails_the_step_check(self):
        _, grid, op = make(0.5, 1.0, n=16, r=2.0)
        f = Field.constant(grid)
        f.values[3, 4] = np.nan
        with pytest.raises(SolveFailure):
            evolve(op, f, 0.1)

    def test_one_factorization_per_step_size(self, monkeypatch):
        # hx = hy = 1/16, so every checkpoint segment gets ht = h^2 = 2^-8
        grid = GridSpec(rx=1.0, ry=1.0, nx=32, ny=16, c=0.5)
        op = assemble(ModelOperatorSpec(n=1, a=np.array([0.3]), c=0.5), grid)
        calls = []
        real_splu = solver.splu

        def counting_splu(mat, *args, **kwargs):
            calls.append(mat.shape)
            return real_splu(mat, *args, **kwargs)

        monkeypatch.setattr(solver, "splu", counting_splu)
        cols = kernel_columns(op, (0.25, 0.5, 1.0), np.array([0.0, 0.5]))
        assert len(cols) == 3
        assert len(calls) == 1

    def test_step_budget(self, monkeypatch):
        # ht = h^2 = 1/64 on both segments: 9,600 + 9,600 steps, over MAX_STEPS
        _, grid, op = make(n=16, r=2.0)
        monkeypatch.setattr(solver, "splu", lambda *a, **k: pytest.fail("factorized"))
        with pytest.raises(SolveFailure, match="19200 time steps.*MAX_STEPS = 16384"):
            evolve(op, Field.constant(grid), 300.0, checkpoints=[150.0, 300.0])

    def test_time_errors(self):
        _, grid, op = make()
        f = Field.constant(grid)
        with pytest.raises(DomainError):
            evolve(op, f, -1.0)
        with pytest.raises(StructuralError):
            evolve(op, f, 1.0, checkpoints=[0.5])


class TestKernelColumn:
    @pytest.mark.parametrize("c", [-0.5, 0.0, 1.0, 2.0])
    def test_matches_exact_kernel(self, c):
        model, grid, op = make(0.0, c, n=64, r=6.0)
        slc = column(op, 1.0, [0.0, 1.0])
        ex = exact_slice(model, 1.0, slc.source, slc.points)
        err = np.abs(slc.values - ex.values).max() / ex.values.max()
        assert err < 0.05

    def test_error_halves_with_h(self):
        model = ModelOperatorSpec(n=1, a=np.array([0.0]), c=1.0)
        errs = []
        for n in (48, 96):
            grid = GridSpec(rx=6.0, ry=6.0, nx=n, ny=n, c=1.0)
            op = assemble(model, grid)
            slc = column(op, 1.0, [0.0, 1.0])
            ex = exact_slice(model, 1.0, slc.source, slc.points)
            errs.append(np.abs(slc.values - ex.values).max() / ex.values.max())
        assert errs[0] / errs[1] >= 2.0

    def test_mass_and_positivity(self):
        # the -1e-10 positivity band needs the resolved regime (h ~ 0.08);
        # coarser grids show larger mixed-term discretization lobes
        _, grid, op = make(0.5, -0.5, n=64, r=5.0)
        for slc in kernel_columns(op, [0.5, 1.0, 2.0], np.array([0.0, 1.0])):
            assert abs(slc.mass() - 1.0) < 1e-10
            assert slc.values.min() > -1e-10
            assert slc.clamped_values().min() >= 0.0

    def test_adjoint_duality_discrete(self):
        _, grid, op = make(0.5, 1.0, n=32, r=4.0)
        i1, j1, i2, j2 = 10, 8, 22, 20
        z1 = [grid.x_centers[i1], grid.y_centers[j1]]
        z2 = [grid.x_centers[i2], grid.y_centers[j2]]
        fwd = column(op, 0.5, z2).values[i1 * grid.ny + j1]
        adj = column(op.adjoint(), 0.5, z1).values[i2 * grid.ny + j2]
        assert adj == pytest.approx(fwd, rel=1e-12)

    def test_adjoint_pairing_random_fields(self):
        # <L u, v>_w = <u, L* v>_w by construction
        _, grid, op = make(0.4, 1.0, n=20, r=2.5)
        rng = np.random.default_rng(2)
        w = grid.masses().ravel()
        adj = op.adjoint()
        for _ in range(20):
            u = rng.standard_normal(grid.nx * grid.ny)
            v = rng.standard_normal(grid.nx * grid.ny)
            lhs = np.dot(w * op.apply(u.reshape(grid.nx, grid.ny)).ravel(), v)
            rhs = np.dot(w * adj.apply(v.reshape(grid.nx, grid.ny)).ravel(), u)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_discrete_scaling_node_for_node(self):
        model, grid, op = make(0.5, 1.0, n=32, r=4.0)
        s = 2.0
        z2 = np.array([grid.x_centers[20], grid.y_centers[10]])
        base = column(op, 0.5, z2)
        ops = assemble(model, grid.scaled(s))
        scaled = column(ops, s * s * 0.5, s * z2)
        mapped = s ** (-(2.0 + grid.c)) * base.values
        resid = np.abs(scaled.values - mapped).max() / np.abs(mapped).max()
        assert resid < 1e-12

    def test_snap_recorded(self):
        _, grid, op = make(n=16, r=2.0)
        slc = kernel_column(op, 0.1, np.array([0.1234, 0.9876]))
        # h = 1/4 in x and 1/8 in y: the centre of cell (8, 7)
        assert slc.source.tolist() == [0.125, 0.9375]

    def test_slice_to_field_round_trip(self):
        _, grid, op = make(n=16, r=2.0)
        slc = column(op, 0.2, [grid.x_centers[8], grid.y_centers[8]])
        fld = slice_to_field(slc)
        assert fld.values.ravel() == pytest.approx(slc.values)
        assert fld.mass() == pytest.approx(slc.mass())


class TestDivergenceForm:
    def test_requires_divergence_drift(self):
        spec = GeneralOperatorSpec(
            n=1, a_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]),
            drift=np.array([0.1, 0.5]),
        )
        grid = GridSpec(rx=3.0, ry=3.0, nx=16, ny=16, c=0.5)
        with pytest.raises(WrongOperatorError):
            assemble_divergence_form(spec, grid)

    def test_constant_stationary_and_conservative(self):
        m = 0.5
        spec = GeneralOperatorSpec(
            n=1, a_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]),
            drift=np.array([m * 0.5, m * 1.0]),
        )
        grid = GridSpec(rx=3.0, ry=3.0, nx=24, ny=24, c=m)
        op = assemble_divergence_form(spec, grid)
        assert np.max(np.abs(op.apply(np.ones((24, 24))))) <= 1e-12
        slc = column(op, 0.5, [0.0, 1.0])
        assert abs(slc.mass() - 1.0) < 1e-10
        # symmetric form: the kernel column is symmetric under adjoint
        adj = column(op.adjoint(), 0.5, [0.0, 1.0])
        assert adj.values == pytest.approx(slc.values, rel=1e-11, abs=1e-16)


class TestGradient:
    def test_constant_zero(self):
        _, grid, _ = make(n=16, r=2.0)
        gx, gy = discrete_gradient(Field.constant(grid, 3.0))
        assert np.max(np.abs(gx.values)) == 0.0
        assert np.max(np.abs(gy.values)) == 0.0

    def test_linear_exact(self):
        _, grid, _ = make(n=16, r=2.0)
        gx, gy = discrete_gradient(Field.from_function(grid, lambda x, y: x))
        assert gx.values == pytest.approx(np.ones_like(gx.values), rel=1e-12)
        assert np.max(np.abs(gy.values)) < 1e-13


def test_grid_invariants():
    with pytest.raises(StructuralError):
        GridSpec(rx=-1.0, ry=1.0, nx=16, ny=16, c=0.0)
    with pytest.raises(StructuralError):
        GridSpec(rx=1.0, ry=1.0, nx=4, ny=16, c=0.0)
    with pytest.raises(ParameterError):
        GridSpec(rx=1.0, ry=1.0, nx=16, ny=16, c=-2.0)


def test_field_csv(tmp_path):
    _, grid, _ = make(n=8, r=1.0)
    f = Field.from_function(grid, lambda x, y: x + y)
    path = tmp_path / "field.csv"
    f.to_csv(str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,y,value"
    assert len(rows) == 1 + grid.nx * grid.ny
