"""Discretization, evolution, kernel columns, and discrete identities."""

import itertools
import time

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from halfheat import kernels, solver
from halfheat.errors import (
    DomainError,
    ParameterError,
    SolveFailure,
    StructuralError,
)
from halfheat.kernels import exact_slice, product_kernel
from halfheat.operators import (
    GeneralOperatorSpec,
    ModelOperatorSpec,
    map_kernel_value,
    map_point,
    reduce_to_model,
)
from halfheat.solver import (
    Field,
    GridSpec,
    assemble,
    assemble_divergence_form,
    discrete_gradient,
    kernel_columns,
    kernel_slices,
)
from halfheat.verify import _POINCARE_FIELDS


def make(a=0.0, c=0.0, n=48, r=5.0):
    grid = GridSpec(rx=r, ry=r, nx=n, ny=n, c=c)
    model = ModelOperatorSpec(n=1, a=np.array([a]), c=c)
    return model, grid, assemble(model, grid)


def column(op, t, z2):
    return kernel_columns(op, [t], np.asarray(z2, dtype=float))[0]


def form_factors(grid, bmat):
    """The cell-space form S as (coefficient, x factor, y factor) Kronecker terms.

    An independent reference for solver._mode_bands: with x the major
    index, S = (B00/hx) Dx'Dx (x) Z + B11 (hx/hy) I (x) Dy' Y Dy
    + B01 Gx' (x) Cy + B10 Gx (x) Cy', Cy = Ay' (hx Y) Dy, where Dx is the
    circulant face difference (face i between cells i and i+1 mod nx),
    Gx = |Dx|' Dx / (2 hx) the centred cell gradient, Dy the differences
    across the interior y-faces, Ay = |Dy| / 2 the two-cell face average,
    Y = diag(y^c) on the interior y-faces and Z the cell integrals of y^c.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    dx = np.roll(np.eye(nx), 1, axis=1) - np.eye(nx)
    gx = np.abs(dx).T @ dx / (2.0 * hx)
    dy = np.eye(ny - 1, ny, k=1) - np.eye(ny - 1, ny)
    yc = np.diag(grid.y_faces[1:-1] ** grid.c)
    cy = (0.5 * np.abs(dy)).T @ (hx * yc) @ dy
    return [(bmat[0, 0] / hx, dx.T @ dx, np.diag(grid.cell_y_masses())),
            (bmat[1, 1] * hx / hy, np.eye(nx), dy.T @ yc @ dy),
            (bmat[0, 1], gx.T, cy), (bmat[1, 0], gx, cy.T)]


def dense_form(grid, bmat):
    """The cell-space form matrix S, dense: the np.kron sum of form_factors."""
    return sum(coef * np.kron(fx, fy) for coef, fx, fy in form_factors(grid, bmat))


def mode_blocks(grid, bmat):
    """Every x-mode's block of solver._mode_bands, dense and block diagonal in mode order.

    Block m has the diagonal even + i odd, the super-diagonal stiff + i skew
    and the sub-diagonal its conjugate.
    """
    even, odd, stiff, skew = solver._mode_bands(grid, np.asarray(bmat), np.arange(grid.nx))
    return block_diag(*(np.diag(d) + np.diag(stiff + 1j * k, 1) + np.diag(stiff - 1j * k, -1)
                        for d, k in zip(even + 1j * odd, skew)))


def generator(op, values):
    """du/dt = -W^{-1} S u of the semi-discrete law, for a (nx, ny) or flat array.

    Applies each term of form_factors as fx U fy' on U = u.reshape(nx, ny),
    which is its np.kron matrix times u without forming it.
    """
    grid = op.grid
    u = values.reshape(grid.nx, grid.ny)
    su = sum(coef * (fx @ u @ fy.T) for coef, fx, fy in form_factors(grid, op.bmat))
    return (-su.ravel() / op.grid.masses().ravel()).reshape(values.shape)


def evolve(op, f, times):
    """exp(-t W^{-1} S) f at each of `times` by solver._evolve_block, as Fields."""
    states, _ = solver._evolve_block(op, f.values[None], times)
    return [Field(op.grid, u[0]) for u in states]


def deltas(grid, sources):
    """The (n, k) block of discrete deltas 1/w at the source cells."""
    w = grid.masses().ravel()
    u = np.zeros((w.size, len(sources)))
    for k, z2 in enumerate(sources):
        i, j = grid.locate(z2)
        u[i * grid.ny + j, k] = 1.0 / w[i * grid.ny + j]
    return u


def per_window(meta):
    """Factorizations per checkpoint window: the guard rule's nodes and the returned rule's."""
    return solver.CONTOUR_NODES + meta["nodes"]


def weighted_norm(f, p):
    """L^p norm of a field against its grid's weighted cell masses."""
    return float(np.sum(f.grid.masses() * np.abs(f.values) ** p)) ** (1.0 / p)


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
        out = generator(op, e).ravel()
        assert out[k] == pytest.approx(-4.0 / h2, rel=1e-12)
        for kk in (k - 1, k + 1, k - grid.ny, k + grid.ny):
            assert out[kk] == pytest.approx(1.0 / h2, rel=1e-12)

    def test_constant_annihilated(self):
        for a, c in ((0.0, 0.0), (0.5, 1.0), (-0.3, -0.5)):
            _, grid, op = make(a, c, n=24, r=3.0)
            out = generator(op, np.ones((grid.nx, grid.ny)))
            assert np.max(np.abs(out)) <= 1e-12

    def test_coercivity(self):
        # a(u,u) >= (1 - |a|) * dirichlet(u) for the a = 0.5, c = 1 form
        model, grid, op = make(0.5, 1.0, n=24, r=3.0)
        _, _, dirichlet_op = make(0.0, 1.0, n=24, r=3.0)
        rng = np.random.default_rng(8)
        form, dirichlet = dense_form(grid, op.bmat), dense_form(grid, dirichlet_op.bmat)
        for _ in range(50):
            u = rng.standard_normal(grid.nx * grid.ny)
            qa = u @ (form @ u)
            qd = u @ (dirichlet @ u)
            assert qa >= (1.0 - 0.5) * qd - 1e-12 * abs(qd)

    def test_refuses_bad_coefficients(self):
        grid = GridSpec(rx=2.0, ry=2.0, nx=16, ny=16, c=0.0)
        with pytest.raises(ParameterError):
            ModelOperatorSpec(n=1, a=np.array([1.0]), c=0.0)
        model = ModelOperatorSpec(n=1, a=np.array([0.0]), c=1.0)
        with pytest.raises(StructuralError):
            assemble(model, grid)  # weight mismatch
        with pytest.raises(StructuralError, match="N = 1"):
            assemble(ModelOperatorSpec(n=2, a=np.zeros(2), c=0.0), grid)
        with pytest.raises(StructuralError, match="does not match grid"):
            Field(grid, np.zeros((16, 15)))

    @pytest.mark.parametrize("a_matrix,drift,c,error,match", [
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, -1.5], 0.0, ParameterError, "inadmissible"),
        (np.eye(3), [0.0, 0.0, 0.0], 0.0, StructuralError, "N = 1"),
        ([[1.0, 0.5], [0.5, 2.0]], [0.25, 1.0], 1.0, StructuralError, "c/gamma=0.5"),
    ], ids=["inadmissible", "n2", "grid-weight"])
    def test_divergence_form_guards(self, a_matrix, drift, c, error, match):
        spec = GeneralOperatorSpec(n=len(drift) - 1, a_matrix=np.array(a_matrix, dtype=float),
                                   drift=np.array(drift))
        grid = GridSpec(rx=2.0, ry=2.0, nx=16, ny=16, c=c)
        with pytest.raises(error, match=match):
            assemble_divergence_form(spec, grid)

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
                got = generator(op, Field.from_function(grid, f).values)
                errs.append(np.abs(got - lf(x, y, a, c))[interior].max())
            assert errs[0] / errs[1] > 3.0  # ~4 for second order


class TestEvolve:
    def test_constant_is_stationary(self):
        _, grid, op = make(0.5, 1.0, n=24, r=3.0)
        (out,) = evolve(op, Field(grid, np.full((grid.nx, grid.ny), 1.0)), [2.0])
        assert out.values == pytest.approx(np.ones_like(out.values), abs=1e-12)

    def test_mass_conserved(self):
        _, grid, op = make(0.5, -0.5, n=24, r=3.0)
        f = Field.from_function(grid, lambda x, y: np.exp(-(x ** 2 + (y - 1) ** 2)))
        m0 = f.mass()
        (out,) = evolve(op, f, [1.0])
        assert abs(out.mass() - m0) <= 1e-10 * abs(m0)

    def test_l2_contraction_selfadjoint(self):
        _, grid, op = make(0.0, 1.0, n=24, r=3.0)
        f = Field.from_function(grid, lambda x, y: np.sin(x) * np.exp(-y))
        (out,) = evolve(op, f, [0.5])
        assert weighted_norm(out, 2) <= weighted_norm(f, 2) + 1e-12

    def test_l1_contraction_positive_data(self):
        _, grid, op = make(0.5, 1.0, n=24, r=3.0)
        rng = np.random.default_rng(15)
        for _ in range(5):
            x0, y0 = rng.uniform(-1, 1), rng.uniform(0.5, 2.0)
            f = Field.from_function(
                grid, lambda x, y: np.exp(-((x - x0) ** 2 + (y - y0) ** 2))
            )
            (out,) = evolve(op, f, [0.7])
            assert weighted_norm(out, 1) <= weighted_norm(f, 1) + 1e-8

    def test_matches_exact_convolution(self):
        # a = 0: the evolution of f equals the weighted convolution with the kernel
        model, grid, op = make(0.0, 1.0, n=48, r=6.0)
        f = Field.from_function(
            grid, lambda x, y: np.exp(-((x - 0.5) ** 2 + (y - 1.0) ** 2))
        )
        t = 0.5
        (out,) = evolve(op, f, [t])
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
        a, b = evolve(op, f, [0.5, 1.0])
        (solo,) = evolve(op, f, [0.5])
        assert a.values == pytest.approx(solo.values, rel=1e-10, abs=1e-14)
        assert b.values.shape == solo.values.shape

    def test_nan_data_fails_the_step_check(self):
        _, grid, op = make(0.5, 1.0, n=16, r=2.0)
        f = Field(grid, np.full((grid.nx, grid.ny), 1.0))
        f.values[3, 4] = np.nan
        with pytest.raises(SolveFailure):
            evolve(op, f, [0.1])

    def test_one_factorization_per_node(self, monkeypatch):
        # (0.25, 0.5, 1.0) is one window and 2.0 a second; the two sources
        # share every node's factorization of the live modes' unknowns,
        # fewer than the 32 * 16 of all modes
        grid = GridSpec(rx=1.0, ry=1.0, nx=32, ny=16, c=0.5)
        op = assemble(ModelOperatorSpec(n=1, a=np.array([0.3]), c=0.5), grid)
        calls = []
        real_zgtsv = solver.zgtsv

        def counting_zgtsv(lower, diag, upper, rhs, **kwargs):
            # no overwrite_* flag: zgtsv works on copies and leaves its operands as they were
            assert not kwargs
            operands = (lower, diag, upper, rhs)
            before = [a.copy() for a in operands]
            calls.append(diag.shape)
            result = real_zgtsv(*operands)
            assert all(np.array_equal(a, b) for a, b in zip(operands, before))
            return result

        monkeypatch.setattr(solver, "zgtsv", counting_zgtsv)
        cols = kernel_columns(op, (0.25, 0.5, 1.0, 2.0), np.array([[0.0, 0.5], [0.5, 0.25]]))
        assert len(cols) == 8
        per = per_window(cols[0].meta)
        first, second = calls[:per], calls[per:]
        assert len(calls) == 2 * per and len(set(first)) == len(set(second)) == 1
        sizes = first[0][0], second[0][0]
        assert all(n % 16 == 0 and n < 32 * 16 for n in sizes)
        assert sum(sizes) == 16 * cols[0].meta["live_modes"]
        assert cols[0].meta["windows"] == 2
        assert cols[0].meta["factorizations"] == 2 * per

    def test_block_residual_guard_is_per_column(self):
        _, grid, op = make(0.5, 1.0, n=16, r=2.0)
        u = np.ones((2, grid.nx, grid.ny))
        states, stats = solver._evolve_block(op, u, [0.1])
        assert states[0].shape == u.shape
        assert np.all(stats["max_solve_residual"] < solver.SOLVE_RTOL)
        u[1, 0, 5] = np.nan
        with pytest.raises(SolveFailure, match="in column 1"):
            solver._evolve_block(op, u, [0.1])

    def test_separable_guard_names_the_column(self):
        _, grid, op = make(0.0, 1.0, n=16, r=2.0)
        u = np.ones((3, grid.nx, grid.ny))
        states, stats = solver._evolve_block(op, u, [0.1])
        assert stats["route"] == "separable"
        assert np.all(stats["max_solve_residual"] < solver.SOLVE_RTOL)
        u[2, 0, 5] = np.nan
        with pytest.raises(SolveFailure, match="in column 2"):
            solver._evolve_block(op, u, [0.1])
        # all-zero data has no source row and stays 0, on either route
        for bmat in (op.bmat, np.array(CROSS_B), np.array(MODEL_B)):
            states, _ = solver._evolve_block(solver.DiscreteOperator(grid, bmat),
                                             np.zeros_like(u), [0.1, 1.0])
            assert all(s.shape == u.shape and not np.any(s) for s in states)

    def test_non_finite_data_is_refused_before_either_route(self, monkeypatch):
        # one check at the top of _evolve_block names the column; no route starts
        def never(*args, **kwargs):
            raise AssertionError("a route ran on non-finite data")

        monkeypatch.setattr(solver, "zgtsv", never)
        monkeypatch.setattr(solver, "eigh_tridiagonal", never)
        grid = GridSpec(rx=2.0, ry=2.0, nx=16, ny=16, c=1.0)
        u = np.zeros((3, grid.nx, grid.ny))
        u[1, 4, 6] = np.inf
        for bmat in (np.eye(2), np.array(CROSS_B), np.array(MODEL_B)):
            with pytest.raises(SolveFailure, match="non-finite data in column 1"):
                solver._evolve_block(solver.DiscreteOperator(grid, bmat), u, [0.1])

    def test_separable_eigen_residual_guard(self, monkeypatch):
        # eigenvectors mixed by 1e-6 are no eigenvectors: the residual check fires
        _, grid, op = make(0.0, 1.0, n=16, r=2.0)
        real = solver.eigh_tridiagonal

        def perturbed(*args, **kwargs):
            mu, q = real(*args, **kwargs)
            return mu, q + 1e-6 * np.roll(q, 1, axis=1)

        monkeypatch.setattr(solver, "eigh_tridiagonal", perturbed)
        with pytest.raises(SolveFailure, match="eigen-residual"):
            solver._evolve_block(op, np.ones((1, grid.nx, grid.ny)), [0.1])

    def test_separable_non_finite_y_block_guard(self):
        # y^(c+1) overflows on [0, 8] at c = 400, so the cell masses are NaN
        op = solver.DiscreteOperator(GridSpec(rx=8.0, ry=8.0, nx=16, ny=16, c=400.0), np.eye(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolveFailure, match="non-finite y-block"):
                solver._evolve_block(op, np.ones((1, 16, 16)), [0.1])

    @pytest.mark.parametrize("nx", [12, 11])
    @pytest.mark.parametrize("bmat", [[[1.0, 1.0], [0.0, 1.0]], [[2.0, 0.5], [0.5, 1.0]]],
                             ids=["model", "cross"])
    def test_mode_matrix_is_tridiagonal(self, bmat, nx):
        # the model B (a = 0.5) and a symmetric cross-term B: the real and
        # imaginary parts of the bands give tridiagonal mode blocks whose block
        # diagonal is the fft along x of the cell-space form
        ny = 10
        grid = GridSpec(rx=3.0, ry=2.0, nx=nx, ny=ny, c=1.0)
        even, odd, stiff, skew = solver._mode_bands(grid, np.array(bmat), np.arange(nx))
        assert even.shape == odd.shape == (nx, ny)
        assert stiff.shape == (ny - 1,) and skew.shape == (nx, ny - 1)
        modes = mode_blocks(grid, bmat)
        fourier = np.kron(np.fft.fft(np.eye(nx), axis=0), np.eye(ny))
        ref = fourier @ dense_form(grid, np.array(bmat)) @ np.linalg.inv(fourier)
        assert np.abs(modes - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_singular_node_guard(self):
        # bands with no coupling and diag = -z0 w make the first node's
        # matrix z0 W + S exactly 0
        t0, ny = 0.5, 8
        w = np.linspace(0.5, 1.5, 2 * ny)
        z0 = solver._contour(solver.CONTOUR_NODES, t0)[0][0]
        off = np.zeros(w.size - 1, dtype=complex)
        bands = (off, -(z0 * w), off)
        rhs = np.asfortranarray(np.ones((w.size, 2), dtype=complex))
        stats = {"factorizations": 0, "factor_s": 0.0, "solve_s": 0.0}
        with pytest.raises(SolveFailure, match="singular mode matrix"):
            solver._contour_sum(bands, w, rhs, [t0], solver.CONTOUR_NODES, stats, np.zeros(2))
        assert stats["factorizations"] == 1

    def test_phase_times(self):
        _, grid, op = make(0.5, 1.0, n=32, r=3.0)
        t0 = time.perf_counter()
        cols = kernel_columns(op, (0.25, 0.5), np.array([[0.0, 1.0], [0.5, 1.5]]))
        wall = time.perf_counter() - t0
        for slc in cols:
            phases = [slc.meta[key] for key in ("transform_s", "factor_s", "solve_s")]
            assert all(np.isfinite(p) and p >= 0.0 for p in phases)
            assert sum(phases) <= wall

    def test_contour_guard(self, monkeypatch):
        # 4 and 8 nodes cannot resolve a window; the default rules can
        _, grid, op = make(0.5, 1.0, n=16, r=2.0)
        z2 = np.array([0.0, 0.5])
        assert 0.0 < kernel_columns(op, [0.5], z2)[0].meta["contour_err"] <= solver.CONTOUR_TOL
        monkeypatch.setattr(solver, "CONTOUR_NODES", 4)
        with pytest.raises(SolveFailure, match="rules of 4 and 8 nodes.*CONTOUR_TOL = 1e-08"):
            kernel_columns(op, [0.5], z2)

    def test_time_errors(self):
        _, grid, op = make()
        for ts in ([0.5, np.inf], [np.nan], [0.0, 1.0], []):
            with pytest.raises(DomainError, match="finite"):
                kernel_columns(op, ts, np.array([0.0, 1.0]))

    def test_times_in_caller_order(self):
        _, grid, op = make(0.5, 1.0, n=16, r=2.0)
        sources = np.array([[0.0, 1.0], [0.5, 0.5]])
        fwd = kernel_columns(op, [0.5, 1.0], sources)
        rev = kernel_columns(op, [1.0, 0.5], sources)
        assert [s.t for s in rev] == [1.0, 0.5, 1.0, 0.5]
        for k, slc in enumerate(rev):  # source-major: swap the two times of each source
            assert np.array_equal(slc.values, fwd[k ^ 1].values)

    def test_repeated_time_repeats_the_column(self, monkeypatch):
        _, grid, op = make(0.5, 1.0, n=16, r=2.0)
        z2 = np.array([0.0, 1.0])
        calls = []
        real_zgtsv = solver.zgtsv

        def counting_zgtsv(*args, **kwargs):
            calls.append(1)
            return real_zgtsv(*args, **kwargs)

        monkeypatch.setattr(solver, "zgtsv", counting_zgtsv)
        once = kernel_columns(op, [0.5, 1.0], z2)
        n_once = len(calls)
        repeated = kernel_columns(op, [1.0, 0.5, 1.0], z2)
        assert len(calls) - n_once == n_once
        assert repeated[0].meta["factorizations"] == once[0].meta["factorizations"]
        assert [s.t for s in repeated] == [1.0, 0.5, 1.0]
        for slc, ref in zip(repeated, (once[1], once[0], once[1])):
            assert np.array_equal(slc.values, ref.values)


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
            lhs = np.dot(w * generator(op, u), v)
            rhs = np.dot(w * generator(adj, v), u)
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

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_block_matches_one_source_at_a_time(self, adjoint):
        _, grid, op = make(0.5, 1.0, n=32, r=4.0)
        op = op.adjoint() if adjoint else op
        ts = (0.25, 0.5)
        sources = np.array([[0.0, 0.3], [0.7, 1.0], [-1.2, 2.5]])
        block = kernel_columns(op, ts, sources)
        single = [slc for z2 in sources for slc in kernel_columns(op, ts, z2)]
        assert len(block) == len(single) == 6
        for b, s in zip(block, single):
            assert (b.t, b.source.tolist()) == (s.t, s.source.tolist())
            err = np.abs(b.values - s.values).max() / np.abs(s.values).max()
            assert err <= 1e-14
            assert b.meta["factorizations"] == per_window(b.meta)

    @pytest.mark.parametrize("nx", [24, 23])
    @pytest.mark.parametrize("adjoint", [False, True])
    def test_matches_dense_expm(self, adjoint, nx):
        # exp(-t W^{-1} S) of the periodic cell-space form by dense expm, over two
        # windows; an odd nx has no Nyquist mode, an even one pairs it with itself.
        # The cross term has a symmetric B and takes the paired contour solve; a = 0
        # and the diagonal B take the separable route, exact to round-off, also with
        # a source in the first y-cell at c = 5, sources in the first and the last
        # x-cell (the circulant wraps around) and two sources in one x-cell
        ts = (0.05, 0.2, 1.0)
        cases = [*itertools.product((0.5, 0.9, 0.0, "cross", "diagonal"), (-0.5, 1.0)),
                 (0.0, 5.0), ("diagonal", 5.0)]
        for b, c in cases:
            grid = GridSpec(rx=3.0, ry=3.0, nx=nx, ny=20, c=c)
            if b in ("cross", "diagonal"):
                op = solver.DiscreteOperator(grid, np.array(CROSS_B if b == "cross" else DIAG_B))
            else:
                op = assemble(ModelOperatorSpec(n=1, a=np.array([b]), c=c), grid)
            op = op.adjoint() if adjoint else op
            separable = op.bmat[0, 1] == op.bmat[1, 0] == 0.0
            extra = [[-1.0, 0.05], [-2.95, 1.0], [2.95, 2.5], [0.0, 1.0]] if separable else []
            sources = np.array([[0.0, 0.2], [1.0, 1.5], *extra])
            cols = kernel_columns(op, ts, sources)
            assert cols[0].meta["route"] == ("separable" if separable else "contour")
            tol = 1e-12 if separable else 1e-8
            # each t is a whole number of steps exp(-ts[0] W^{-1} S), one dense expm
            w = op.grid.masses().ravel()
            step = expm(-ts[0] * (dense_form(op.grid, op.bmat) / w[:, None]))
            ref, done = deltas(op.grid, sources), 0
            for n, t in enumerate(ts):
                for _ in range(round(t / ts[0]) - done):
                    ref = step @ ref
                done = round(t / ts[0])
                for k in range(len(sources)):
                    got = cols[k * len(ts) + n].values
                    assert np.abs(got - ref[:, k]).max() <= tol * np.abs(ref[:, k]).max()
                    if separable:
                        assert abs(cols[k * len(ts) + n].mass() - 1.0) <= 1e-12

    def test_one_ulp_off_diagonal_takes_the_contour(self):
        # B01 = 1e-300 is not 0, so the operator takes the contour route, and
        # its columns agree with the separable ones to the contour's accuracy
        grid = GridSpec(rx=2.0, ry=2.0, nx=24, ny=16, c=0.5)
        ts, sources = (0.25, 0.5, 2.0), np.array([[0.0, 0.5], [0.5, 0.25]])
        runs = {}
        for b01, route in ((0.0, "separable"), (1e-300, "contour")):
            runs[route] = kernel_columns(
                solver.DiscreteOperator(grid, np.array([[2.0, b01], [0.0, 0.7]])), ts, sources)
            assert all(s.meta["route"] == route for s in runs[route])
        for s, c in zip(runs["separable"], runs["contour"]):
            assert np.abs(s.values - c.values).max() <= 1e-10 * np.abs(s.values).max()

    @pytest.mark.parametrize("c", [3.0, 5.0])
    def test_large_c_source_near_the_boundary_at_a0(self, c):
        # a delta in the first y-cell at large c: the contour's two rules differ
        # here by 2.7e-7 (c = 3, 128^2) up to 7.2e-3 (c = 5, 256^2), over
        # CONTOUR_TOL; the separable route is exact, and the grid error halves
        model = ModelOperatorSpec(n=1, a=np.array([0.0]), c=c)
        errs = []
        for n in (128, 256):
            grid = GridSpec(rx=8.0, ry=8.0, nx=n, ny=n, c=c)
            cols = kernel_columns(assemble(model, grid), [0.25, 1.0], np.array([0.0, 0.02]))
            assert all(abs(s.mass() - 1.0) <= 1e-12 for s in cols)
            errs.append(max(
                np.abs(s.values - kernels.tensor_kernel(model, s.t, s.source, grid.x_centers,
                                                        grid.y_centers)).max()
                / np.abs(s.values).max() for s in cols))
        assert max(errs) <= 0.05
        assert errs[0] / errs[1] >= 2.0

    def test_paired_solve_counts_and_one_ulp_off_is_unpaired(self, monkeypatch):
        # a symmetric B solves each live pair (m, nx - m) once: ny rows per pair;
        # a B one ulp off symmetric keeps one block per live mode; both solve one
        # unit column per distinct source row (3 here), and the two agree to round-off
        grid = GridSpec(rx=2.0, ry=2.0, nx=24, ny=16, c=0.5)
        ts, sources = (0.25, 0.5, 2.0), np.array([[0.0, 0.5], [0.5, 0.25], [-1.0, 1.0]])
        calls = []
        real_zgtsv = solver.zgtsv

        def counting_zgtsv(lower, diag, upper, rhs, **kwargs):
            calls.append(rhs.shape)
            return real_zgtsv(lower, diag, upper, rhs, **kwargs)

        monkeypatch.setattr(solver, "zgtsv", counting_zgtsv)
        masks = record_live_modes(monkeypatch)
        runs = {}
        for name, b10 in (("paired", 0.5), ("unpaired", np.nextafter(0.5, 1.0))):
            del calls[:], masks[:]
            runs[name] = cols = kernel_columns(
                solver.DiscreteOperator(grid, np.array([[2.0, 0.5], [b10, 1.0]])), ts, sources)
            per, meta = per_window(cols[0].meta), cols[0].meta
            assert len(calls) == 2 * per and len(masks) == meta["windows"] == 2
            for window, live in enumerate(masks):
                if name == "paired":  # the mask is symmetric; the half m <= nx / 2 is solved
                    shape = (grid.ny * int(live[:grid.nx // 2 + 1].sum()), 3)
                else:
                    shape = (grid.ny * int(live.sum()), 3)
                assert set(calls[window * per:(window + 1) * per]) == {shape}
                assert 0 < live.sum() < grid.nx
            assert meta["solve_rows"] == sum(rows for rows, _ in calls[::per])
            assert meta["solve_columns"] == 3
        for p, u in zip(runs["paired"], runs["unpaired"]):
            assert p.meta["solve_rows"] < u.meta["solve_rows"]
            assert np.abs(p.values - u.values).max() <= 1e-12 * np.abs(u.values).max()
            assert abs(p.mass() - 1.0) <= 1e-12

    def test_paired_residual_guard_names_the_column(self):
        grid = GridSpec(rx=2.0, ry=2.0, nx=16, ny=16, c=1.0)
        op = solver.DiscreteOperator(grid, np.array(CROSS_B))
        u = np.ones((3, grid.nx, grid.ny))
        u[2, 0, 5] = np.nan
        with pytest.raises(SolveFailure, match="in column 2"):
            solver._evolve_block(op, u, [0.1])
        # column j of a fused right-hand side is named as the caller's column owners[j]
        w = np.linspace(0.5, 1.5, 16)
        off = np.zeros(w.size - 1, dtype=complex)
        rhs = np.asfortranarray(np.ones((w.size, 4), dtype=complex))
        rhs[3, 3] = np.nan
        stats = {"factorizations": 0, "factor_s": 0.0, "solve_s": 0.0}
        with pytest.raises(SolveFailure, match="in column 1"):
            solver._contour_sum((off, w.astype(complex), off), w, rhs, [0.5],
                                solver.CONTOUR_NODES, stats, np.zeros(4), np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("b10", [0.5, np.nextafter(0.5, 1.0)], ids=["paired", "unpaired"])
    def test_sources_on_one_row_share_a_column(self, monkeypatch, b10):
        # two sources on one y-row at different x: one unit column on either
        # route, and each column is its single-source call's to round-off
        grid = GridSpec(rx=2.0, ry=2.0, nx=24, ny=16, c=0.5)
        op = solver.DiscreteOperator(grid, np.array([[2.0, 0.5], [b10, 1.0]]))
        ts, sources = (0.25, 0.5, 2.0), np.array([[0.0, 0.5], [1.0, 0.5]])
        assert grid.locate(sources[0])[1] == grid.locate(sources[1])[1]
        columns = record_columns(monkeypatch)
        both = kernel_columns(op, ts, sources)
        assert set(columns) == {1} and both[0].meta["solve_columns"] == 1
        for n, z2 in enumerate(sources):
            for col, solo in zip(both[n * len(ts):(n + 1) * len(ts)], kernel_columns(op, ts, z2)):
                assert np.abs(col.values - solo.values).max() <= 1e-13 * np.abs(solo.values).max()

    def test_dense_field_solves_one_column_per_row(self, monkeypatch):
        # a dense field on the contour route: one unit column per y-row that holds
        # data (rows 3 and 7 left empty), and the state matches dense expm
        grid = GridSpec(rx=1.0, ry=1.5, nx=12, ny=10, c=0.5)
        op = solver.DiscreteOperator(grid, np.array(CROSS_B))
        f = Field.from_function(grid, lambda x, y: np.exp(-(x ** 2 + (y - 0.7) ** 2)))
        f.values[:, [3, 7]] = 0.0
        columns = record_columns(monkeypatch)
        states, stats = solver._evolve_block(op, f.values[None], [0.4])
        assert set(columns) == {grid.ny - 2} and stats["solve_columns"] == grid.ny - 2
        w = grid.masses().ravel()
        want = expm(-0.4 * (dense_form(grid, op.bmat) / w[:, None])) @ f.values.ravel()
        assert np.abs(states[0][0].ravel() - want).max() <= 1e-10 * np.abs(want).max()

    def test_residual_guard_names_the_first_source_of_the_row(self, monkeypatch):
        # sources 0 and 2 share row 5 and source 1 has row 2; the unit columns are
        # rows (2, 5), so a failure in unit column 1 names source 0, in column 0
        # source 1; each source's residual is the worst of its rows' columns
        grid = GridSpec(rx=2.0, ry=2.0, nx=16, ny=16, c=1.0)
        op = solver.DiscreteOperator(grid, np.array(CROSS_B))
        u = np.zeros((3, grid.nx, grid.ny))
        u[0, 3, 5], u[1, 8, 2], u[2, 12, 5] = 1.0, 2.0, 3.0
        real_zgtsv = solver.zgtsv

        def perturbed(unit, size):
            def zgtsv(*args, **kwargs):
                *rest, x, info = real_zgtsv(*args, **kwargs)
                x[:, unit] *= 1.0 + size
                return (*rest, x, info)
            return zgtsv

        for unit, named in ((1, 0), (0, 1)):
            monkeypatch.setattr(solver, "zgtsv", perturbed(unit, 1e-6))
            with pytest.raises(SolveFailure, match=f"in column {named} exceeds"):
                solver._evolve_block(op, u, [0.5])
        monkeypatch.setattr(solver, "zgtsv", perturbed(1, 1e-12))
        _, stats = solver._evolve_block(op, u, [0.5])
        residual = stats["max_solve_residual"]
        assert stats["solve_columns"] == 2
        assert residual[0] == residual[2] > 1e-13 > residual[1] > 0.0

    def test_kernel_slices_one_factorization_for_all_sources(self, monkeypatch):
        spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                   drift=np.array([0.0, 1.0]))
        calls = {"zgtsv": 0, "_evolve_block": 0}
        for name in calls:
            def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(solver, name, counted)
        out = kernel_slices(spec, [0.25, 0.5],
                            [np.array([0.0, 1.0]), np.array([0.5, 1.5])],
                            rx=4.0, ry=4.0, nx=32, ny=32)
        assert calls == {"zgtsv": per_window(out[0].meta), "_evolve_block": 1}
        # t-major over ts x sources
        assert [(s.t, s.meta["source"]) for s in out] == [
            (0.25, [0.0, 1.0]), (0.25, [0.5, 1.5]), (0.5, [0.0, 1.0]), (0.5, [0.5, 1.5])]
        assert all(s.meta["factorizations"] == per_window(s.meta) for s in out)

    def test_kernel_slices_checks_places_and_evolves_once(self, monkeypatch):
        spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                   drift=np.array([0.0, 1.0]))
        calls = {"_request": 0, "locate": 0, "_evolve_block": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(solver, "_request", counted(solver._request, "_request"))
        monkeypatch.setattr(solver, "_evolve_block", counted(solver._evolve_block, "_evolve_block"))
        monkeypatch.setattr(GridSpec, "locate", counted(GridSpec.locate, "locate"))
        out = kernel_slices(spec, [0.5, 0.25], [[0.0, 1.0], [0.5, 1.5]],
                            rx=4.0, ry=4.0, nx=32, ny=32)
        assert len(out) == 4
        assert calls == {"_request": 1, "locate": 2, "_evolve_block": 1}

    def test_separable_route_stats(self):
        # a = 0: one y-eigendecomposition, no contour, every x-mode evaluated
        _, _, op = make(n=32, r=5.0)
        for col in kernel_columns(op, [0.5, 1.0], [[0.0, 1.0], [0.5, 1.5]]):
            assert col.meta["route"] == "separable"
            assert col.meta["windows"] == col.meta["nodes"] == col.meta["factorizations"] == 0
            assert (col.meta["live_modes"], col.meta["solve_rows"]) == (32, 32)
            assert col.meta["contour_err"] == 0.0
            assert 0.0 < col.meta["max_solve_residual"] < solver.SOLVE_RTOL
            assert abs(col.mass() - 1.0) <= 1e-12

    def test_kernel_slices_solver_route_is_kernel_columns(self):
        # identity reduction with a != 0: the solver slices are kernel_columns' columns,
        # bit for bit
        spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[1.0, 0.5], [0.5, 1.0]]),
                                   drift=np.array([0.0, 0.5]))
        ts, sources = [0.5, 0.25, 0.5], [[0.1, 1.03], [-0.7, 0.4]]
        red = reduce_to_model(spec)
        assert red.is_identity and red.model.a_norm > solver.A_ZERO_TOL
        out = kernel_slices(spec, ts, sources, rx=3.0, ry=3.0, nx=24, ny=16)
        grid = GridSpec(rx=3.0, ry=3.0, nx=24, ny=16, c=red.model.c)
        cols = kernel_columns(assemble(red.model, grid), ts, sources)
        for n, t in enumerate(ts):
            for k, z2 in enumerate(sources):
                slc, col = out[n * len(sources) + k], cols[k * len(ts) + n]
                assert slc.t == col.t == t
                assert np.array_equal(slc.values, col.values)
                assert np.array_equal(slc.source, col.source)
                assert slc.meta["source_used"] == col.source.tolist()
                assert slc.meta["snap_offset_cells"] == float(
                    np.hypot(*((col.source - z2) / (grid.hx, grid.hy))))
                assert slc.meta["snap_offset_cells"] > 0.0
                assert slc.meta["mass_defect"] == abs(col.mass() - 1.0)
                for key in solver.SOLVE_STATS:
                    if not key.endswith("_s"):  # the phase wall times differ between runs
                        assert slc.meta[key] == col.meta[key]

    @pytest.mark.parametrize("a_matrix,drift", [
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.5]),
        ([[2.0, 0.7], [0.7, 1.2]], [0.35, 0.6]),  # sheared and scaled, a = 0 to round-off
    ], ids=["identity", "sheared"])
    def test_kernel_slices_closed_form_is_product_kernel(self, monkeypatch, a_matrix, drift):
        spec = GeneralOperatorSpec(n=1, a_matrix=np.array(a_matrix), drift=np.array(drift))
        red = reduce_to_model(spec)
        nx, ny = 24, 16
        grid = GridSpec(rx=2.0, ry=1.0, nx=nx, ny=ny, c=red.model.c)
        # the second source sits in the first y-cell: at t = 8, xi = y1 y2 / (2t)
        # drops below 1e-4 near y = 0, where bessel_heat_kernel takes its series
        ts, sources = [0.25, 8.0], [np.array([0.1, 0.5]), np.array([0.0, 0.5 * grid.hy])]
        xi = grid.y_centers * sources[1][1] / (2.0 * red.time_scale * ts[1])
        assert np.any(xi < 1e-4) and not np.all(xi < 1e-4)
        sizes = []

        def counted(nu, x, _fn=kernels.bessel_i_scaled):
            sizes.append(np.size(x))
            return _fn(nu, x)
        monkeypatch.setattr(kernels, "bessel_i_scaled", counted)
        out = kernel_slices(spec, ts, sources, rx=2.0, ry=1.0, nx=nx, ny=ny)
        assert sizes == [ny] * (len(ts) * len(sources))  # not nx * ny per slice
        cells = grid.points()
        for slc in out:
            want = product_kernel(red.model, red.time_scale * slc.t, cells,
                                  map_point(red, slc.meta["source"]))
            want = map_kernel_value(red, slc.t, slc.points, slc.source, want)
            assert np.array_equal(slc.values, want)  # bit for bit

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_kernel_slices_closed_form_rejects_non_finite_time(self, t):
        spec = GeneralOperatorSpec(n=1, a_matrix=np.eye(2), drift=np.array([0.0, 0.5]))
        with pytest.raises(DomainError, match="finite"):
            kernel_slices(spec, [0.5, t], [np.array([0.0, 1.0])], rx=2.0, ry=2.0, nx=16, ny=16)

    def test_snap_recorded(self):
        _, grid, op = make(n=16, r=2.0)
        slc = kernel_columns(op, [0.1], np.array([0.1234, 0.9876]))[0]
        # h = 1/4 in x and 1/8 in y: the centre of cell (8, 7)
        assert slc.source.tolist() == [0.125, 0.9375]

    @pytest.mark.parametrize("z2,error", [
        (np.array([]), DomainError), (np.zeros((0, 2)), DomainError),
        (np.array([0.0, 1.0, 0.5]), StructuralError),
        (np.array([[0.0, 1.0, 0.5], [0.5, 1.0, 0.5]]), StructuralError),
        (np.zeros((1, 1, 2)), StructuralError),
        (5.0, StructuralError),
    ], ids=["empty", "empty-k2", "three-coordinates", "k-by-3", "three-axes", "scalar"])
    def test_rejects_bad_sources(self, z2, error):
        _, _, op = make(n=16, r=2.0)
        with pytest.raises(error, match="source"):
            kernel_columns(op, [0.5], z2)

    def test_kernel_slices_need_n1(self):
        spec = GeneralOperatorSpec(n=2, a_matrix=np.eye(3), drift=np.zeros(3))
        with pytest.raises(StructuralError, match="kernel slices are defined for N = 1"):
            kernel_slices(spec, [0.5], [[0.0, 1.0]], rx=2.0, ry=2.0, nx=16, ny=16)

    def test_ragged_sources_name_the_point(self):
        _, _, op = make(n=16, r=2.0)
        with pytest.raises(StructuralError, match=r"kernel source \[0, 1, 7\] is not one point"):
            kernel_columns(op, [0.5], [[0, 1], [0, 1, 7]])

    @pytest.mark.parametrize("a_matrix", [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]],
                             ids=["closed-form", "solver"])
    def test_kernel_slices_keep_the_caller_time_order(self, a_matrix, monkeypatch):
        spec = GeneralOperatorSpec(n=1, a_matrix=np.array(a_matrix), drift=np.array([0.0, 0.5]))
        sources = [np.array([0.0, 1.0]), np.array([0.5, 1.5])]
        ref = kernel_slices(spec, [0.25, 0.5], sources, rx=2.0, ry=2.0, nx=16, ny=16)
        calls = []
        real = solver.tensor_kernel
        monkeypatch.setattr(solver, "tensor_kernel",
                            lambda model, t, *args: calls.append(t) or real(model, t, *args))
        out = kernel_slices(spec, [0.5, 0.25, 0.5], sources, rx=2.0, ry=2.0, nx=16, ny=16)
        # the closed form is evaluated once per distinct time and source
        assert len(calls) == (4 if ref[0].meta["method"] == "exact" else 0)
        want = [ref[2], ref[3], ref[0], ref[1], ref[2], ref[3]]  # t-major
        assert [(s.t, s.meta["source"]) for s in out] == [(s.t, s.meta["source"]) for s in want]
        for slc, r in zip(out, want):
            assert np.array_equal(slc.values, r.values)

    @pytest.mark.parametrize("a_matrix", [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.5, 1.0]]],
                             ids=["closed-form", "solver"])
    def test_kernel_slices_rejects_bad_sources(self, a_matrix):
        spec = GeneralOperatorSpec(n=1, a_matrix=np.array(a_matrix), drift=np.array([0.0, 0.5]))
        with pytest.raises(DomainError, match="no kernel sources"):
            kernel_slices(spec, [0.5], [], rx=2.0, ry=2.0, nx=16, ny=16)
        with pytest.raises(StructuralError, match="one point"):
            kernel_slices(spec, [0.5], [np.array([0.0, 1.0, 7.0])], rx=2.0, ry=2.0, nx=16, ny=16)
        with pytest.raises(StructuralError, match=r"\[0\.0, 1\.0, 7\.0\]"):
            kernel_slices(spec, [0.5], [[0.0, 1.0], [0.0, 1.0, 7.0]],
                          rx=2.0, ry=2.0, nx=16, ny=16)


    @pytest.mark.parametrize("a_matrix,drift,ts,sources,grid,error,match", [
        (np.eye(3), [0.0, 0.0, 0.0], [0.5], [[0.0, 0.0, 1.0]], {}, StructuralError, "N = 1"),
        (np.eye(2), [0.0, 0.5], [], [[0.0, 1.0]], {}, DomainError, "times"),
        (np.eye(2), [0.0, 0.5], [-1.0], [[0.0, 1.0]], {}, DomainError, "times"),
        (np.eye(2), [0.0, 0.5], [0.0], [[0.0, 1.0]], {}, DomainError, "times"),
        (np.eye(2), [0.0, 0.5], [0.5], [], {}, DomainError, "no kernel sources"),
        (np.eye(2), [0.0, 0.5], [0.5], [[0.0, 1.0, 7.0]], {}, StructuralError, "one point"),
        (np.eye(2), [0.0, -1.5], [0.5], [[0.0, 1.0]], {}, ParameterError, "degeneracy"),
        (np.eye(2), [0.0, 0.5], [0.5], [[0.0, 1.0]], {"nx": 4}, StructuralError, "8 cells"),
        (np.eye(2), [0.0, 0.5], [0.5], [[0.0, 100.0]], {}, DomainError, "outside the grid"),
        (np.eye(2), [0.0, 0.5], [0.5], [[0.0, -1.0]], {}, DomainError, "y > 0"),
        # time scale 2: the model time 2 * 1e308 overflows, on either route
        ([[1.0, 0.5], [0.5, 2.0]], [0.0, 0.5], [1e308], [[0.0, 1.0]], {}, DomainError, "finite"),
        ([[1.0, 0.0], [0.0, 2.0]], [0.0, 0.5], [1e308], [[0.0, 1.0]], {}, DomainError, "finite"),
        # time scale 0.5: the model time 0.5 * 5e-324 underflows to 0
        ([[0.5, 0.2], [0.2, 0.5]], [0.0, 0.5], [5e-324], [[0.0, 1.0]], {}, DomainError,
         "positive"),
    ], ids=["n2", "no-time", "t-negative", "t-zero", "no-source", "three-coordinates",
            "inadmissible", "grid", "outside", "below", "overflow-solver", "overflow-exact",
            "underflow"])
    def test_kernel_request_checks_before_any_work(self, monkeypatch, a_matrix, drift, ts,
                                                   sources, grid, error, match):
        for name in ("assemble", "tensor_kernel", "kernel_columns", "_evolve_block"):
            monkeypatch.setattr(solver, name, lambda *a, _n=name, **k: pytest.fail(f"{_n} ran"))
        spec = GeneralOperatorSpec(n=len(drift) - 1, a_matrix=np.array(a_matrix),
                                   drift=np.array(drift))
        grid = {"rx": 2.0, "ry": 2.0, "nx": 16, "ny": 16, **grid}
        with pytest.raises(error, match=match):
            kernel_slices(spec, ts, sources, **grid)
        # a good request passes every check and reaches the patched work
        good = GeneralOperatorSpec(n=1, a_matrix=np.eye(2), drift=np.array([0.0, 0.5]))
        with pytest.raises(pytest.fail.Exception, match="tensor_kernel ran"):
            kernel_slices(good, [0.5], [[0.0, 1.0]], rx=2.0, ry=2.0, nx=16, ny=16)

MODEL_B = [[1.0, 1.0], [0.0, 1.0]]  # the model operator at a = 0.5
CROSS_B = [[2.0, 0.5], [0.5, 1.0]]  # a symmetric cross term
DIAG_B = [[2.0, 0.0], [0.0, 0.7]]  # a diagonal, non-identity B


def all_modes(bands, w, rhs, t0):
    """Stand-in for solver._live_modes that keeps every x-mode: the all-modes run."""
    return np.ones(len(w), dtype=bool)


def record_columns(monkeypatch):
    """Patch solver.zgtsv to record the right-hand sides of each call; returns the list."""
    columns = []
    real = solver.zgtsv

    def recording(lower, diag, upper, rhs, **kwargs):
        columns.append(rhs.shape[1])
        return real(lower, diag, upper, rhs, **kwargs)
    monkeypatch.setattr(solver, "zgtsv", recording)
    return columns


def record_live_modes(monkeypatch):
    """Patch solver._live_modes to record each window's live mask; returns the list.

    Every mask is checked to be symmetric, live[m] == live[-m % nx], as it
    is recorded.
    """
    masks = []
    real = solver._live_modes

    def recording(*args):
        masks.append(real(*args))
        nx = len(masks[-1])
        assert np.array_equal(masks[-1], masks[-1][-np.arange(nx) % nx])
        return masks[-1]
    monkeypatch.setattr(solver, "_live_modes", recording)
    return masks


class TestLiveModes:
    @pytest.mark.parametrize("bmat", [MODEL_B, CROSS_B], ids=["a0.5", "cross"])
    def test_matches_all_modes(self, monkeypatch, bmat):
        # two windows, [0.5, 2] and [3, 12], each with dead modes
        grid = GridSpec(rx=4.0, ry=4.0, nx=48, ny=40, c=0.6)
        op = solver.DiscreteOperator(grid, np.array(bmat))
        ts, sources = (0.5, 2.0, 3.0, 12.0), np.array([[0.0, 0.5], [1.0, 1.5]])
        masks = record_live_modes(monkeypatch)
        pruned = kernel_columns(op, ts, sources)
        monkeypatch.setattr(solver, "_live_modes", all_modes)
        full = kernel_columns(op, ts, sources)
        assert len(masks) == pruned[0].meta["windows"] == 2
        assert all(0 < m.sum() < grid.nx for m in masks)
        assert pruned[0].meta["live_modes"] == sum(m.sum() for m in masks)
        assert full[0].meta["live_modes"] == 2 * grid.nx
        for p, f in zip(pruned, full):
            assert np.abs(p.values - f.values).max() <= 1e-12 * np.abs(f.values).max()
            assert abs(p.mass() - 1.0) <= 1e-12

    @pytest.mark.parametrize("bmat", [MODEL_B, CROSS_B], ids=["a0.5", "cross"])
    def test_dead_modes_below_round_off_by_expm(self, bmat):
        # each dead mode's exact block evolution to t0, by dense expm, moves a
        # value by at most its modulus / nx; together they stay below eps
        # times the column maximum of the exact evolution
        grid = GridSpec(rx=1.0, ry=1.5, nx=16, ny=12, c=0.5)
        op = solver.DiscreteOperator(grid, np.array(bmat))
        nx, ny, t0 = grid.nx, grid.ny, 0.3
        u = deltas(grid, np.array([[0.0, 0.4], [0.3, 1.0]]))
        w = op.grid.masses().ravel()
        modes = np.fft.fft(u.T.reshape(-1, nx, ny), axis=1)  # (k, nx, ny)
        half = np.arange(nx // 2 + 1)
        live = solver._live_modes(solver._mode_bands(grid, op.bmat, half), grid.masses(),
                                  grid.masses()[0] * modes[:, half], t0)
        assert live[0] and 0 < np.sum(~live)
        s_modes = mode_blocks(grid, op.bmat)
        cols = expm(-t0 * (dense_form(grid, op.bmat) / w[:, None])) @ u
        moved = np.zeros(2)
        for m in np.flatnonzero(~live):
            block = s_modes[m * ny:(m + 1) * ny, m * ny:(m + 1) * ny]
            evolved = expm(-t0 * (block / w[:ny, None])) @ modes[:, m].T
            moved += np.abs(evolved).max(axis=0) / nx
        assert np.all(moved <= np.finfo(float).eps * np.abs(cols).max(axis=0))

    def test_dead_set_invariant(self, monkeypatch):
        # the operator, its adjoint, a source shifted by whole x-cells and the
        # grid scaled by 2 at 4 t drop the same modes
        model, grid, op = make(0.5, 1.0, n=32, r=2.0)
        z2, t, lam = np.array([grid.x_centers[12], grid.y_centers[5]]), 0.4, 2.0
        masks = record_live_modes(monkeypatch)
        kernel_columns(op, [t], z2)
        kernel_columns(op.adjoint(), [t], z2)
        kernel_columns(op, [t], z2 + np.array([3 * grid.hx, 0.0]))
        kernel_columns(assemble(model, grid.scaled(lam)), [lam * lam * t], lam * z2)
        assert len(masks) == 4 and masks[0][0] and 0 < np.sum(~masks[0])
        for mask in masks[1:]:
            assert np.array_equal(mask, masks[0])

    def test_mode_zero_live_and_bad_data_keeps_every_mode(self, monkeypatch):
        _, grid, op = make(0.5, 1.0, n=16, r=2.0)
        shape, nx = (grid.nx, grid.ny), grid.nx
        masks = record_live_modes(monkeypatch)
        # constant data: mode 0 carries all of it and is the one mode solved
        states, stats = solver._evolve_block(op, np.ones((1, *shape)), [0.5])
        assert masks[-1].tolist() == [True] + [False] * (nx - 1)
        assert stats["live_modes"] == 1
        assert states[0] == pytest.approx(np.ones((1, *shape)), abs=1e-12)
        # zero mass: a dipole of two deltas
        dipole = deltas(grid, np.array([[0.0, 0.5], [0.5, 1.0]]))
        solver._evolve_block(op, (dipole[:, 0] - dipole[:, 1]).reshape(1, *shape), [0.5])
        assert masks[-1].all()
        # NaN data: every mode stays, and _evolve_block names the column before
        # any mode test
        u = np.ones((2, *shape))
        u[1, 0, 5] = np.nan
        tested = len(masks)
        with pytest.raises(SolveFailure, match="in column 1"):
            solver._evolve_block(op, u, [0.5])
        assert len(masks) == tested
        w = grid.masses()
        assert solver._live_modes(solver._mode_bands(grid, op.bmat, np.arange(nx // 2 + 1)), w,
                                  w[0] * np.fft.rfft(u, axis=1), 0.5).all()


def complex_bands(grid, bmat):
    """(lower, diag, upper) of every x-mode by the complex formula, shape (nx, ny) each.

    The formula of README "Numerical notes" in complex arithmetic: cross =
    B01 conj(g) + B10 g and skew = B01 conj(g) - B10 g with g = i sin(theta) / hx,
    sin(theta) 0 at the Nyquist mode; lower and upper are 0 after each
    mode's last cell.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    theta = 2.0 * np.pi * np.arange(nx) / nx
    sin = np.sin(theta)
    if nx % 2 == 0:
        sin[nx // 2] = 0.0
    g = (1j * sin / hx)[:, None]
    cross = bmat[0, 1] * g.conj() + bmat[1, 0] * g
    skew = bmat[0, 1] * g.conj() - bmat[1, 0] * g
    yf = grid.y_faces[1:-1] ** grid.c
    yl, yr = np.append(0.0, yf), np.append(yf, 0.0)
    diag = ((bmat[0, 0] / hx) * (4.0 * np.sin(0.5 * theta) ** 2)[:, None] * grid.cell_y_masses()
            + bmat[1, 1] * (hx / hy) * (yl + yr) + 0.5 * hx * cross * (yl - yr))
    stiff, half_skew = -bmat[1, 1] * (hx / hy) * yf, 0.5 * hx * skew * yf
    lower, upper = np.zeros((2, nx, ny), dtype=complex)
    lower[:, :-1] = stiff - half_skew
    upper[:, :-1] = stiff + half_skew
    return lower, diag, upper


class TestHalfSpectrum:
    @pytest.mark.parametrize("nx", [16, 15])
    @pytest.mark.parametrize("bmat", [MODEL_B, CROSS_B, DIAG_B, [[1.5, -0.3], [0.8, 0.9]]],
                             ids=["model", "cross", "diagonal", "oblique"])
    def test_real_parts_are_the_complex_bands(self, bmat, nx):
        # every mode's real and imaginary parts, for all modes or any subset,
        # are those of the complex formula bit for bit, and the sub-diagonal
        # is the conjugate of the super-diagonal
        grid = GridSpec(rx=3.0, ry=1.5, nx=nx, ny=12, c=0.6)  # s / hx would differ in 3-5 modes
        lower, diag, upper = complex_bands(grid, np.array(bmat))
        for modes in (np.arange(nx), np.array([0, 3, nx // 2, nx - 3])):
            even, odd, stiff, skew = solver._mode_bands(grid, np.array(bmat), modes)
            assert np.array_equal(even, diag[modes].real) and np.array_equal(odd, diag[modes].imag)
            assert np.array_equal(np.broadcast_to(stiff, skew.shape), upper[modes, :-1].real)
            assert np.array_equal(skew, upper[modes, :-1].imag)
            assert np.array_equal(-skew, lower[modes, :-1].imag)
            assert np.array_equal(lower[modes, :-1].real, upper[modes, :-1].real)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("nx", [16, 15])
    @pytest.mark.parametrize("bmat", [CROSS_B, MODEL_B], ids=["paired", "unpaired"])
    def test_columns_match_dense_expm(self, bmat, nx, adjoint):
        # an even nx has a Nyquist mode, an odd one none: both halves of the
        # spectrum come back from the rfft modes m <= nx / 2
        grid = GridSpec(rx=1.5, ry=1.5, nx=nx, ny=12, c=0.5)
        op = solver.DiscreteOperator(grid, np.array(bmat))
        op = op.adjoint() if adjoint else op
        ts, sources = (0.1, 0.3), np.array([[0.0, 0.2], [0.7, 0.9]])
        cols = kernel_columns(op, ts, sources)
        assert cols[0].meta["route"] == "contour" and cols[0].meta["windows"] == 1
        w = grid.masses().ravel()
        ref = deltas(grid, sources)
        for n, t in enumerate(ts):
            want = expm(-t * (dense_form(grid, op.bmat) / w[:, None])) @ ref
            for k in range(len(sources)):
                got = cols[k * len(ts) + n].values
                assert np.abs(got - want[:, k]).max() <= 1e-12 * np.abs(want[:, k]).max()

    def test_columns_cross_case_solve_work(self, monkeypatch):
        # the cross operator of the perfbench `columns` workload: the solve
        # work of one paired call, one source and one window
        spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]),
                                   drift=np.array([0.3, 0.6]))
        op = assemble_divergence_form(spec, GridSpec(rx=8.0, ry=8.0, nx=112, ny=112, c=0.6))
        masks = record_live_modes(monkeypatch)
        cols = kernel_columns(op, (0.25, 0.5, 1.0), np.array([0.0, 0.7]))
        stats = {key: cols[0].meta[key]
                 for key in ("live_modes", "solve_rows", "factorizations", "solve_columns")}
        assert stats == {"live_modes": 57, "solve_rows": 3248, "factorizations": 44,
                         "solve_columns": 1}
        assert len(masks) == 1 and masks[0].sum() == 57
        assert all(abs(col.mass() - 1.0) <= 1e-12 for col in cols)

    def test_separable_pencil_and_symbols_are_the_complex_bands(self, monkeypatch):
        # the y-pencil that _separable decomposes is Re of mode 0's complex
        # diagonal and super-diagonal, and the x-symbols of the modes the irfft
        # reads are (diag - diag[0]).sum(axis=1) / wy.sum(), bit for bit
        model = ModelOperatorSpec(n=1, a=np.array([0.0]), c=0.5)
        grid = GridSpec(rx=8.0, ry=8.0, nx=128, ny=128, c=0.5)
        op = assemble(model, grid)
        _, diag, upper = complex_bands(grid, op.bmat)
        wy = grid.masses()[0]
        root = np.sqrt(wy)
        pencils, spectra = [], []
        real_eigh, real_irfft = solver.eigh_tridiagonal, np.fft.irfft

        def eigh(d, e, **kwargs):
            pencils.append((d, e))
            return real_eigh(d, e, **kwargs)

        def irfft(a, *args, **kwargs):
            spectra.append(a)
            return real_irfft(a, *args, **kwargs)
        monkeypatch.setattr(solver, "eigh_tridiagonal", eigh)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        ts = (0.25, 0.5, 1.0)
        kernel_columns(op, ts, np.array([0.0, 0.7]))
        (d, e), = pencils
        assert np.array_equal(d, diag[0].real / wy)
        assert np.array_equal(e, upper[0, :-1].real / (root[:-1] * root[1:]))
        rate = ((diag.real - diag.real[0]).sum(axis=1) / wy.sum())[:grid.nx // 2 + 1]
        assert len(spectra) == len(ts)
        for t, spectrum in zip(ts, spectra):
            assert np.array_equal(spectrum, np.exp(-t * rate))


class TestDivergenceForm:
    @staticmethod
    def bmat(a_matrix, drift):
        spec = GeneralOperatorSpec(n=1, a_matrix=np.array(a_matrix, dtype=float),
                                   drift=np.array(drift, dtype=float))
        grid = GridSpec(rx=3.0, ry=3.0, nx=16, ny=16, c=spec.c / spec.gamma)
        return assemble_divergence_form(spec, grid).bmat

    def test_requires_divergence_drift(self):
        """A drift off d = (c/gamma) q assembles the oblique B: beta = d/m =
        0.1/0.5, so B = [[2, 2 q - beta], [beta, 1]]."""
        assert self.bmat([[2.0, 0.5], [0.5, 1.0]], [0.1, 0.5]).tolist() == [[2.0, 0.8], [0.2, 1.0]]

    @pytest.mark.parametrize("a", [0.0, 0.3, -0.55])
    @pytest.mark.parametrize("c", [-0.5, 0.0, 1.0])
    def test_model_b_is_literal(self, a, c):
        """The model's B, pinned apart from the shared formula: [[1, 2a], [0, 1]]."""
        grid = GridSpec(rx=3.0, ry=3.0, nx=16, ny=16, c=c)
        op = assemble(ModelOperatorSpec(n=1, a=np.array([a]), c=c), grid)
        assert op.bmat.tolist() == [[1.0, 2.0 * a], [0.0, 1.0]]

    @pytest.mark.parametrize("q,gamma,cg", [(0.7, 1.2, 0.6), (0.5, 1.0, 0.6), (0.49, 1.0, 0.58),
                                            (0.51, 1.0, 0.63)])
    def test_divergence_subfamily_keeps_b_equal_to_a(self, q, gamma, cg):
        """d = (c/gamma) q (test_verify's spec; perfbench's and bench/contour.py's
        cross specs at and around their jitter) gives B == A, so the symmetric
        paired route."""
        a_matrix = [[2.0, q], [q, gamma]]
        b = self.bmat(a_matrix, [cg * q / gamma, cg])
        assert b.tolist() == a_matrix and b[0, 1] == b[1, 0]

    def test_c0_is_neumann(self):
        """At c = 0 admissibility forces d = 0, and beta = 0: B = [[Q, 2q], [0, gamma]],
        whose natural condition is u_y -> 0, as on the reduction route."""
        assert self.bmat([[2.0, 0.5], [0.5, 1.0]], [0.0, 0.0]).tolist() == [[2.0, 1.0], [0.0, 1.0]]

    def test_constant_stationary_and_conservative(self):
        m = 0.5
        spec = GeneralOperatorSpec(
            n=1, a_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]),
            drift=np.array([m * 0.5, m * 1.0]),
        )
        grid = GridSpec(rx=3.0, ry=3.0, nx=24, ny=24, c=m)
        op = assemble_divergence_form(spec, grid)
        assert np.max(np.abs(generator(op, np.ones((24, 24))))) <= 1e-12
        slc = column(op, 0.5, [0.0, 1.0])
        assert abs(slc.mass() - 1.0) < 1e-10
        # symmetric form: the kernel column is symmetric under adjoint
        adj = column(op.adjoint(), 0.5, [0.0, 1.0])
        assert adj.values == pytest.approx(slc.values, rel=1e-11, abs=1e-16)


class TestGradient:
    def test_constant_zero(self):
        _, grid, _ = make(n=16, r=2.0)
        gx, gy = discrete_gradient(Field(grid, np.full((grid.nx, grid.ny), 3.0)))
        assert np.max(np.abs(gx.values)) == 0.0
        assert np.max(np.abs(gy.values)) == 0.0

    def test_linear_exact(self):
        _, grid, _ = make(n=16, r=2.0)
        gx, gy = discrete_gradient(Field.from_function(grid, lambda x, y: x))
        assert gx.values == pytest.approx(np.ones_like(gx.values), rel=1e-12)
        assert np.max(np.abs(gy.values)) < 1e-13


class TestFromFunction:
    """fn is called on the open mesh and its result broadcast to (nx, ny); a
    non-square grid makes a transposed axis show as a shape or value change."""

    grid = GridSpec(rx=4.0, ry=3.0, nx=48, ny=32, c=0.5)

    @pytest.mark.parametrize("k", range(len(_POINCARE_FIELDS)))
    def test_dense_mesh_values_bit_for_bit(self, k):
        fn = _POINCARE_FIELDS[k]
        x, y = np.meshgrid(self.grid.x_centers, self.grid.y_centers, indexing="ij")
        values = Field.from_function(self.grid, fn).values
        assert values.shape == (48, 32)
        assert values.tobytes() == np.asarray(fn(x, y), dtype=float).tobytes()
        assert values.flags.writeable and values.flags.owndata

    def test_y_only_probe_sees_the_open_mesh(self):
        seen = []

        def probe(x, y):
            seen.append((x.shape, y.shape))
            return np.exp(-((y - 0.01) / 0.05) ** 2)
        values = Field.from_function(self.grid, probe).values
        assert seen == [((48, 1), (1, 32))]
        assert np.all(values == values[:1])

    def test_scalar_is_a_constant_field(self):
        values = Field.from_function(self.grid, lambda x, y: 2.5).values
        assert values.shape == (48, 32) and np.all(values == 2.5)
        values[0, 0] = 1.0  # a fresh array, not a read-only broadcast view

    def test_result_that_does_not_broadcast_is_structural(self):
        with pytest.raises(StructuralError, match=r"values shape \(32, 48\) does not match grid \(48,32\)"):
            Field.from_function(self.grid, lambda x, y: np.zeros((32, 48)))


def test_grid_invariants():
    with pytest.raises(StructuralError):
        GridSpec(rx=-1.0, ry=1.0, nx=16, ny=16, c=0.0)
    with pytest.raises(StructuralError):
        GridSpec(rx=1.0, ry=1.0, nx=4, ny=16, c=0.0)
    with pytest.raises(ParameterError):
        GridSpec(rx=1.0, ry=1.0, nx=16, ny=16, c=-2.0)



@pytest.mark.parametrize("bad", [
    {"rx": np.nan}, {"ry": np.nan}, {"rx": np.inf}, {"ry": np.inf},
    {"nx": 16.5}, {"ny": 16.0}, {"nx": 7}, {"ny": True},
], ids=["rx-nan", "ry-nan", "rx-inf", "ry-inf", "nx-fraction", "ny-float", "nx-7", "ny-bool"])
def test_grid_refuses_non_finite_extents_and_non_integer_counts(bad):
    with pytest.raises(StructuralError):
        GridSpec(**{"rx": 1.0, "ry": 1.0, "nx": 16, "ny": 16, "c": 0.0, **bad})
