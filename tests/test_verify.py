"""Harness layer: fits, identities, G-trace, Poincare, floors."""

import itertools

import numpy as np
import pytest

from halfheat import kernels, solver
from halfheat import verify as V
from halfheat.errors import DomainError, FitUnderdeterminedError, ParameterError, StructuralError
from halfheat.geometry import EnvelopeParams
from halfheat.kernels import KernelSlice, exact_slice, product_kernel
from halfheat.operators import GeneralOperatorSpec, ModelOperatorSpec
from halfheat.quadrature import halfspace_nodes, legendre_panel, y_weighted_nodes
from halfheat.solver import (Field, GridSpec, assemble, assemble_divergence_form, discrete_gradient,
                             kernel_columns)
from halfheat.verify import (
    GTrace,
    check_conservation,
    check_G_monotone,
    check_identities_exact,
    check_identities_solver,
    compute_G,
    compute_G_from_slices,
    criterion_conservation,
    envelope_verdict,
    exact_quadrature_slice,
    far_field_floor,
    fit_envelope_constants,
    gaussian_normalizer,
    normalizing_alpha,
    poincare_ratio,
    solve_stats,
)


def model(c, a=0.0):
    return ModelOperatorSpec(n=1, a=np.array([a]), c=c)


@pytest.fixture
def bessel_sizes(monkeypatch):
    """The number of points of each kernels.bessel_i_scaled call, in order."""
    sizes = []

    def counted(nu, x, _fn=kernels.bessel_i_scaled):
        sizes.append(np.size(x))
        return _fn(nu, x)
    monkeypatch.setattr(kernels, "bessel_i_scaled", counted)
    return sizes


def probe_slices(m, ts=(0.25, 1.0), y2s=(0.1, 1.0), n_y=14, n_x=8):
    return V._probe_slices(m, ts, y2s, n_y, n_x)


class TestGaussianNormalizer:
    def test_closed_form_against_quadrature(self):
        for n, c, alpha in [(1, 1.0, 1.0), (0, 0.0, 2.0), (1, -0.5, 0.7), (2, 2.0, 0.4)]:
            closed = gaussian_normalizer(alpha, c, n)
            x, wx = legendre_panel(-40.0 / np.sqrt(alpha), 40.0 / np.sqrt(alpha), 400)
            xint = float(np.dot(wx, np.exp(-alpha * x ** 2))) ** n
            y, wy = y_weighted_nodes(c, 50.0 / np.sqrt(alpha))
            yint = float(np.dot(wy, np.exp(-alpha * y * y)))
            assert closed == pytest.approx(xint * yint, rel=1e-9)

    def test_spot_value(self):
        # N = 1, c = 1, alpha = 1: sqrt(pi)/2
        assert gaussian_normalizer(1.0, 1.0, 1) == pytest.approx(
            np.sqrt(np.pi) / 2.0, rel=1e-14
        )

    def test_half_line_case(self):
        # N = 0, c = 0: sqrt(pi)/(2 sqrt(alpha))
        for alpha in (0.3, 1.0, 4.0):
            assert gaussian_normalizer(alpha, 0.0, 0) == pytest.approx(
                np.sqrt(np.pi) / (2.0 * np.sqrt(alpha)), rel=1e-14
            )

    @pytest.mark.parametrize("alpha", [0.0, np.nan, np.inf])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ParameterError, match="finite"):
            gaussian_normalizer(alpha, 0.5, 1)

    def test_bad_weight_or_dimension_rejected(self):
        with pytest.raises(ParameterError, match="c \\+ 1 > 0"):
            gaussian_normalizer(1.0, -1.0, 1)
        with pytest.raises(DomainError, match="dimension"):
            gaussian_normalizer(1.0, 0.5, -1)

    def test_normalizing_alpha(self):
        # N = 1, c = 1:   pi^{1/2} alpha^{-3/2} / 2 = 1
        a = normalizing_alpha(1.0, 1)
        assert a == pytest.approx((np.sqrt(np.pi) / 2.0) ** (2.0 / 3.0), rel=1e-12)
        for c, n in [(-0.5, 1), (0.0, 1), (2.0, 1), (0.0, 0)]:
            a = normalizing_alpha(c, n)
            assert gaussian_normalizer(a, c, n) == pytest.approx(1.0, rel=1e-12)


class TestConservation:
    @pytest.mark.parametrize("c", [-0.5, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_exact_slices(self, c, t):
        slc = exact_quadrature_slice(model(c), t, np.array([0.2, 0.7]))
        assert check_conservation(slc) <= 1e-8

    @pytest.mark.parametrize("c,t,z2", [
        (-0.5, 0.5, (0.2, 0.7)),
        (1.0, 2.0, (0.1, 1e-3)),  # xi < 1e-4 in the first y-panel: the series branch
    ])
    def test_slice_is_product_kernel_on_the_rule(self, bessel_sizes, c, t, z2):
        z2 = np.array(z2)
        slc = exact_quadrature_slice(model(c), t, z2)
        st = np.sqrt(t)
        (xs, wx), (ys, wy) = halfspace_nodes(c, x_extent=12.0 * st, y_extent=z2[1] + 12.0 * st,
                                             n_x=160, n_panel=32, x_center=z2[0])
        assert bessel_sizes == [len(ys)]  # one Bessel value per y-node, not per node
        x, y = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([x.ravel(), y.ravel()])
        assert np.array_equal(slc.points, pts)
        assert np.array_equal(slc.weights, np.outer(wx, wy).ravel())
        assert np.array_equal(slc.values, product_kernel(model(c), t, pts, z2[None, :]))

    def test_points_are_the_x_major_meshgrid(self):
        z2 = np.array([0.2, 0.7])
        slc = exact_quadrature_slice(model(0.5), 1.0, z2)
        (xs, _), (ys, _) = halfspace_nodes(0.5, x_extent=12.0, y_extent=z2[1] + 12.0,
                                           n_x=160, n_panel=32, x_center=z2[0])
        x, y = np.meshgrid(xs, ys, indexing="ij")
        assert np.array_equal(slc.points, np.column_stack([x.ravel(), y.ravel()]))
        assert slc.points.dtype == np.float64 and slc.points.flags.c_contiguous

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [0.0, np.nan], [0.0, np.inf]],
                             ids=["x-nan", "y-nan", "y-inf"])
    def test_non_finite_source_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            exact_quadrature_slice(model(0.5), 1.0, np.array(bad))

    def test_n2_rejected(self):
        with pytest.raises(StructuralError, match="N = 1"):
            exact_quadrature_slice(ModelOperatorSpec(n=2, a=np.zeros(2), c=0.5), 1.0,
                                   np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("t", [-1.0, np.inf])
    def test_bad_time_rejected_before_the_grid(self, t):
        with pytest.raises(DomainError, match="kernel time"):
            exact_quadrature_slice(model(0.5), t, np.array([0.0, 1.0]))


class TestEnvelopeFit:
    def test_exact_kernel_two_sided(self):
        for c in (-0.5, 0.0, 1.0):
            rep = fit_envelope_constants(probe_slices(model(c)), "product", c, 1)
            assert rep.verdict
            assert rep.k_low < rep.k_fit < rep.k_up
            # true Gaussian rate is 4 in this normalization
            assert rep.k_low < 4.0 < rep.k_up
            v = envelope_verdict(probe_slices(model(c)), rep.params_up(), rep.params_low(), c, 1)
            assert v["worst_upper_ratio"] >= 1.0 - 1e-9
            assert v["worst_lower_ratio"] <= 1.0 + 1e-9
            assert rep.c_low <= rep.c_up

    def test_forms_change_amplitude_not_verdict(self):
        c = 1.0
        sls = probe_slices(model(c))
        reports = {f: fit_envelope_constants(sls, f, c, 1)
                   for f in ("product", "one-sided-1", "one-sided-2", "volume")}
        assert all(r.verdict for r in reports.values())
        rates = {f: r.k_fit for f, r in reports.items()}
        assert max(rates.values()) / min(rates.values()) < 1.2

    @pytest.mark.parametrize("form", ["product", "one-sided-1", "one-sided-2", "volume"])
    def test_verdict_is_envelope_verdict_on_the_fitting_samples(self, solver_slices, form):
        # the amplitudes are the extremal ratios on the fitting samples, so a
        # well-posed fit holds there; on closed-form probe slices and on the
        # c = 1 solver columns of the acceptance session
        probe_sets = [(probe_slices(model(0.0), n_y=16, n_x=10), 0.0, 1e-12),
                      ([slc for (c, _, t), slc in solver_slices.items()
                        if c == 1.0 and t in (0.25, 1.0, 4.0)], 1.0, 1e-7)]
        for sls, c, floor in probe_sets:
            rep = fit_envelope_constants(sls, form, c, 1, noise_floor_rel=floor)
            v = envelope_verdict(sls, rep.params_up(), rep.params_low(), c, 1, floor)
            assert rep.verdict
            assert rep.verdict == (v["upper_holds"] and v["lower_holds"])

    def test_on_diagonal_only_is_underdetermined(self):
        m = model(1.0)
        pts = np.column_stack([np.zeros(5), np.linspace(0.5, 1.5, 5)])
        slc = exact_slice(m, 1.0, np.array([0.0, 1.0]), pts)
        with pytest.raises(FitUnderdeterminedError):
            fit_envelope_constants([slc], "product", 1.0, 1)

    def test_growing_far_field_is_underdetermined(self):
        # values that grow with |z1 - z2|^2 / t give the log-fit a positive slope
        pts = np.column_stack([np.linspace(3.0, 6.0, 8), np.ones(8)])
        slc = KernelSlice(t=1.0, source=np.array([0.0, 1.0]), points=pts,
                          values=np.exp(pts[:, 0] ** 2), c=1.0)
        with pytest.raises(FitUnderdeterminedError, match="does not decay"):
            fit_envelope_constants([slc], "product", 1.0, 1)

    def test_verdict_without_samples_is_underdetermined(self):
        slc = probe_slices(model(1.0))[0]
        slc.values = np.zeros_like(slc.values)
        params = EnvelopeParams(1.0, 4.0)
        with pytest.raises(FitUnderdeterminedError):
            envelope_verdict([slc], params, params, 1.0, 1)

    def test_monotone_under_enlargement(self):
        # constants fitted on a small probe set can only break, never
        # improve, when the probe set is enlarged
        c = 1.0
        small = probe_slices(model(c), ts=(1.0,), y2s=(1.0,))
        rep = fit_envelope_constants(small, "product", c, 1)
        big = probe_slices(model(c), ts=(0.25, 1.0, 4.0), y2s=(0.05, 0.3, 1.0, 3.0))
        v_small = envelope_verdict(small, rep.params_up(), rep.params_low(), c, 1)
        assert v_small["upper_holds"] and v_small["lower_holds"]
        v_big = envelope_verdict(big, rep.params_up(), rep.params_low(), c, 1)
        # enlargement may or may not break the fit, but the worst ratios
        # cannot improve
        assert v_big["worst_upper_ratio"] <= v_small["worst_upper_ratio"] + 1e-12
        assert v_big["worst_lower_ratio"] >= v_small["worst_lower_ratio"] - 1e-12

    def test_halved_rate_breaks_upper(self):
        c = 0.0
        sls = probe_slices(model(c))
        rep = fit_envelope_constants(sls, "product", c, 1)
        broken = EnvelopeParams(rep.c_up, rep.k_up / 2.0, form="product")
        v = envelope_verdict(sls, broken, rep.params_low(), c, 1)
        assert not v["upper_holds"]


class TestIdentities:
    def test_exact(self):
        # criterion 3's closed-form arguments, at c = 1 as there and at the other c of criterion 2
        for c in (-0.5, 0.0, 1.0, 2.0):
            res = check_identities_exact(model(c), t=0.5, s=0.5, x0=1.5, scale=2.0,
                                         z1=np.array([0.2, 1.0]), z2=np.array([-0.4, 0.5]))
            assert res["scaling"] <= 1e-12, c
            assert res["translation"] <= 1e-12, c
            assert res["adjoint"] <= 1e-12, c
            assert res["chapman_kolmogorov"] <= 1e-6, c

    @staticmethod
    def identity_operator(kind):
        """The a = 0.5 model operator, its adjoint, or a divergence-form operator."""
        if kind == "divergence":
            # d = (c / gamma) q: a pure weighted divergence with weight y^(c / gamma)
            spec = GeneralOperatorSpec(n=1, a_matrix=np.array([[2.0, 0.7], [0.7, 1.2]]),
                                       drift=np.array([0.6 * 0.7 / 1.2, 0.6]))
            grid = GridSpec(rx=6.0, ry=6.0, nx=56, ny=56, c=0.5)
            return assemble_divergence_form(spec, grid)
        op = assemble(model(1.0, a=0.5), GridSpec(rx=6.0, ry=6.0, nx=56, ny=56, c=1.0))
        return op.adjoint() if kind == "adjoint" else op

    @pytest.mark.parametrize("t,s", [(0.5, 0.5), (0.3, 0.7)])
    @pytest.mark.parametrize("kind", ["model", "adjoint", "divergence"])
    def test_solver(self, kind, t, s):
        op = self.identity_operator(kind)
        res = check_identities_solver(op, t=t, s=s, x0_cells=4, scale=2.0,
                                      z1_index=(22, 12), z2_index=(30, 18))
        assert res["scaling"] <= 1e-12
        assert res["adjoint"] <= 1e-12
        assert res["chapman_kolmogorov"] <= 1e-3
        assert res["translation"] <= 1e-12
        # s, t and t + s share one window: forward, adjoint and scaled
        # evolutions make both contour rules' factorizations once each
        per_window = solver.CONTOUR_NODES + res["solve"]["nodes"]
        assert res["solve"]["factorizations"] == 3 * per_window

    def test_solver_separable_route(self):
        # a = 0: all three evolutions take the separable route, with no factorizations
        op = assemble(model(1.0), GridSpec(rx=6.0, ry=6.0, nx=56, ny=56, c=1.0))
        res = check_identities_solver(op, t=0.5, s=0.5, x0_cells=4, scale=2.0,
                                      z1_index=(22, 12), z2_index=(30, 18))
        assert max(res[key] for key in ("scaling", "adjoint", "translation")) <= 1e-12
        assert res["chapman_kolmogorov"] <= 1e-3
        assert res["solve"]["route"] == "separable" and res["solve"]["factorizations"] == 0
        contour = assemble(model(1.0, a=0.5), op.grid)
        cols = [kernel_columns(o, [0.5], np.array([0.0, 1.0]))[0] for o in (op, contour)]
        assert solve_stats(cols)["route"] == "contour+separable"

    def test_solver_zero_shift(self):
        grid = GridSpec(rx=3.0, ry=3.0, nx=24, ny=24, c=0.0)
        op = assemble(model(0.0, a=0.3), grid)
        res = check_identities_solver(op, t=0.25, s=0.25, x0_cells=0, scale=2.0,
                                      z1_index=(8, 8), z2_index=(14, 12))
        assert res["translation"] == 0.0

    @pytest.mark.parametrize("c,z1,z2", [
        (-0.5, (0.2, 1.1), (-0.3, 0.6)),
        (1.0, (0.0, 1e-3), (0.4, 2e-3)),  # sources near y = 0: the series branch
    ])
    def test_chapman_exact_is_product_kernel(self, bessel_sizes, c, z1, z2):
        m, z1, z2, t, s = model(c), np.array(z1), np.array(z2), 0.5, 0.35
        res = check_identities_exact(m, t=t, s=s, x0=1.3, scale=2.0, z1=z1, z2=z2)
        st = np.sqrt(max(t, s))
        (xs, wx), (ys, wy) = halfspace_nodes(
            c, x_extent=abs(z1[0] - z2[0]) / 2 + 10.0 * st,
            y_extent=max(z1[1], z2[1]) + 10.0 * st,
            n_x=200, n_panel=32, x_center=0.5 * (z1[0] + z2[0]))
        assert max(bessel_sizes) == len(ys)  # the CK factors take one Bessel value per y-node
        x, y = np.meshgrid(xs, ys, indexing="ij")
        mid = np.column_stack([x.ravel(), y.ravel()])
        comp = float(np.dot(np.outer(wx, wy).ravel(), product_kernel(m, t, z1[None, :], mid)
                            * product_kernel(m, s, mid, z2[None, :])))
        direct = product_kernel(m, t + s, z1, z2)
        assert res["chapman_kolmogorov"] == abs(comp - direct) / abs(direct)

    def test_result_keys(self):
        res = check_identities_exact(model(0.0), t=0.5, s=0.5, x0=1.0, scale=2.0,
                                     z1=np.array([0.0, 1.0]), z2=np.array([0.0, 0.5]))
        assert set(res) == {"scaling", "translation", "adjoint", "chapman_kolmogorov"}


class TestGTrace:
    def test_constant_kernel_standin(self):
        # p == 1 gives u == 1 and G == 0
        m = model(0.0)
        slc = exact_quadrature_slice(m, 1.0, np.array([0.0, 1.0]))
        slc.values = np.ones_like(slc.values)
        alpha = normalizing_alpha(0.0, 1)
        tr = compute_G_from_slices([slc], 0.5, alpha)
        assert tr.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_exact_kernel_negative(self):
        m = model(0.0)
        alpha = normalizing_alpha(0.0, 1)
        tr = compute_G(m, np.array([0.0, 0.5]), 0.5, alpha, [0.5, 0.75, 1.0])
        assert np.all(tr.values <= 1e-8)
        mono = check_G_monotone(tr)
        assert mono["finite"]
        assert np.all(np.diff(tr.values + mono["A_required"] * tr.ts) >= -1e-15)

    def test_solver_trace(self):
        c = 1.0
        grid = GridSpec(rx=6.0, ry=6.0, nx=64, ny=64, c=c)
        op = assemble(model(c, a=0.5), grid)
        alpha = normalizing_alpha(c, 1)
        slices = kernel_columns(op, [0.5, 0.75, 1.0], np.array([0.0, 0.5]))
        tr = compute_G_from_slices(slices, 0.5, alpha)
        assert np.all(tr.values <= 1e-8)
        assert np.all(np.isfinite(tr.values))

    def test_theta_range_enforced(self):
        with pytest.raises(ParameterError, match="theta"):
            GTrace(theta=0.2, ts=np.array([1.0]), values=np.array([0.0]))

    def test_guards(self):
        with pytest.raises(DomainError, match="non-finite"):
            GTrace(theta=0.5, ts=np.array([1.0, 2.0]), values=np.array([0.0, np.nan]))
        # a repeated time once made check_G_monotone fold 0/0 into A_required = 0
        with pytest.raises(DomainError, match="strictly increase"):
            compute_G(model(0.0), (0.0, 0.5), 0.5, normalizing_alpha(0.0, 1), [0.5, 0.5, 1.0])
        for ts in ([2.0, 1.0], [1.0, np.nan]):
            with pytest.raises(DomainError, match="strictly increase"):
                GTrace(theta=0.5, ts=np.array(ts), values=np.zeros(2))
        tr = GTrace(theta=0.5, ts=np.array([0.5, 1.0]), values=np.zeros(2))
        tr.ts[1] = 0.5  # past the guard, the slope is 0/0: the NaN is the result
        with np.errstate(invalid="ignore"):
            assert not check_G_monotone(tr)["finite"]
        with pytest.raises(StructuralError, match="at least one slice"):
            compute_G_from_slices([], 0.5, 1.0)
        probe = exact_slice(model(0.0), 1.0, np.array([0.0, 1.0]), np.array([[0.0, 1.0]]))
        with pytest.raises(StructuralError, match="integration weights"):
            compute_G_from_slices([probe], 0.5, 1.0)


class TestPoincare:
    def _grid(self, c):
        return GridSpec(rx=8.0, ry=8.0, nx=96, ny=96, c=c)

    def test_odd_coordinate_closed_form(self):
        c = 1.0
        alpha = normalizing_alpha(c, 1)
        grid = self._grid(c)
        res = poincare_ratio([Field.from_function(grid, lambda x, y: x)], alpha, c)
        # closed form: ratio = second Gaussian moment / mass = 1/(2 alpha)
        assert res["sup_ratio"] == pytest.approx(1.0 / (2.0 * alpha), rel=1e-6)

    def test_invariant_under_constant_shift(self):
        c = 1.0
        alpha = normalizing_alpha(c, 1)
        grid = self._grid(c)
        r1 = poincare_ratio([Field.from_function(grid, lambda x, y: x * y)], alpha, c)
        r2 = poincare_ratio(
            [Field.from_function(grid, lambda x, y: x * y + 7.0)], alpha, c
        )
        assert r1["sup_ratio"] == pytest.approx(r2["sup_ratio"], rel=1e-10)

    def test_boundary_bump_finite(self):
        c = 2.0
        alpha = normalizing_alpha(c, 1)
        grid = self._grid(c)
        res = poincare_ratio(
            [Field.from_function(grid, lambda x, y: np.exp(-((y - 0.01) / 0.05) ** 2))],
            alpha, c,
        )
        assert np.isfinite(res["sup_ratio"]) and res["sup_ratio"] > 0.0

    def test_constant_excluded(self):
        c = 1.0
        grid = self._grid(c)
        fields = [Field(grid, np.full((grid.nx, grid.ny), 2.0)),
                  Field.from_function(grid, lambda x, y: x)]
        res = poincare_ratio(fields, 1.0, c)
        assert res["skipped_constant"] == 1
        with pytest.raises(DomainError):
            poincare_ratio([Field(grid, np.full((grid.nx, grid.ny), 1.0))], 1.0, c)


    def test_guards(self):
        grid = self._grid(1.0)
        field = Field.from_function(grid, lambda x, y: x)
        with pytest.raises(StructuralError, match="does not match c"):
            poincare_ratio([field], 1.0, 0.5)
        # sign alternating in x: every central difference is 0, and the one-sided
        # ones at x = +-rx carry no weight, since exp(-alpha x^2) underflows there
        sign = np.where(np.arange(grid.nx) % 2 == 0, 1.0, -1.0)
        flip = Field(grid, np.repeat(sign[:, None], grid.ny, axis=1))
        with pytest.raises(DomainError, match="zero discrete gradient"):
            poincare_ratio([flip], 20.0, 1.0)
        # a mismatch on a later grid, after the first grid's nu is made
        other = Field.from_function(GridSpec(rx=8.0, ry=8.0, nx=96, ny=96, c=0.5),
                                    lambda x, y: x)
        with pytest.raises(StructuralError, match="does not match c"):
            poincare_ratio([field, other], 1.0, 1.0)

    def test_fields_on_two_grids_are_the_per_grid_calls_joined(self):
        # same c and cell counts, different extents: a nu reused across the
        # grids would have the right shape and the wrong values
        c = 1.0
        alpha = normalizing_alpha(c, 1)
        fns = (lambda x, y: x, lambda x, y: x * y + y)
        near, far = ([Field.from_function(GridSpec(rx=r, ry=r, nx=48, ny=48, c=c), fn)
                      for fn in fns] for r in (5.0, 8.0))
        joint = poincare_ratio([near[0], far[0], near[1], far[1]], alpha, c)
        r_near = poincare_ratio(near, alpha, c)["ratios"]
        r_far = poincare_ratio(far, alpha, c)["ratios"]
        assert joint["ratios"] == [r_near[0], r_far[0], r_near[1], r_far[1]]
        assert joint["sup_ratio"] == max(r_near + r_far)
        assert r_near != r_far

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected_before_any_work(self, bad, monkeypatch):
        grid = GridSpec(rx=4.0, ry=4.0, nx=16, ny=16, c=1.0)
        good = Field.from_function(grid, lambda x, y: x)
        values = good.values.copy()
        values[3, 5] = bad

        def no_work(f):
            raise AssertionError("a gradient was taken")
        monkeypatch.setattr(V, "discrete_gradient", no_work)
        with pytest.raises(DomainError, match="non-finite"):
            poincare_ratio([good, Field(grid, values)], 1.0, 1.0)


class TestPerCoordinateForms:
    """The per-column squared norms and the per-axis Poincare weight give the
    bits of the axis-sum formulas they replace."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sq_norm_is_the_axis_sum(self, k):
        rng = np.random.default_rng(k)
        d = rng.standard_normal((64, k)) * 10.0 ** rng.integers(-200, 200, (64, k))
        special = list(itertools.product([-0.0, 1.5, np.inf, -np.inf, np.nan], repeat=k))
        d = np.vstack([d, special])
        with np.errstate(over="ignore", under="ignore"):
            want = np.sum(d ** 2, axis=-1)
            got = V._sq_norm(d)
        assert got.tobytes() == want.tobytes()

    def test_compute_G_on_criterion_7_inputs(self):
        m, z2, theta, ts = model(0.0), np.array([0.0, 0.5]), 0.5, (0.5, 0.75, 1.0)
        alpha = normalizing_alpha(0.0, 1)
        want = []
        for t in ts:
            s = exact_quadrature_slice(m, t, z2)
            envn = np.exp(-alpha * np.sum(s.points ** 2, axis=-1))
            u = theta * s.clamped_values() + (1.0 - theta)
            want.append(float(np.dot(s.weights, envn * np.log(u))))
        assert compute_G(m, z2, theta, alpha, ts).values.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("c", [-0.5, 1.0, 2.0])
    def test_poincare_ratio_on_criterion_8_fields(self, c):
        alpha = normalizing_alpha(c, 1)
        grid = GridSpec(rx=8.0, ry=8.0, nx=128, ny=128, c=c)
        x, y = np.meshgrid(grid.x_centers, grid.y_centers, indexing="ij")
        fields = [Field(grid, fn(x, y)) for fn in V._POINCARE_FIELDS]
        nu = grid.masses().ravel() * np.exp(-alpha * np.sum(grid.points() ** 2, axis=-1))
        want = []
        for f in fields:
            u = f.values.ravel()
            mean = float(np.dot(nu, u) / np.sum(nu))
            gx, gy = discrete_gradient(f)
            den = float(np.dot(nu, gx.values.ravel() ** 2 + gy.values.ravel() ** 2))
            want.append(float(np.dot(nu, (u - mean) ** 2)) / den)
        assert poincare_ratio(fields, alpha, c)["ratios"] == want


@pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("fn", [poincare_ratio, compute_G_from_slices],
                         ids=["poincare_ratio", "compute_G_from_slices"])
def test_bad_alpha_rejected_before_any_work(fn, alpha):
    # none of these alpha gives the Gaussian measure e^{-alpha |z|^2}
    if fn is poincare_ratio:
        grid = GridSpec(rx=4.0, ry=4.0, nx=16, ny=16, c=1.0)
        args = ([Field.from_function(grid, lambda x, y: x)], alpha, 1.0)
    else:
        args = ([exact_quadrature_slice(model(0.0), 1.0, np.array([0.0, 0.5]))], 0.5, alpha)
    with pytest.raises(ParameterError, match="finite"):
        fn(*args)


class TestFloors:
    def _slices(self, c=0.0):
        m = model(c)
        out = []
        for t in (0.5, 1.0):
            st = np.sqrt(t)
            for y2 in (1.5 * st, 3.0 * st):
                z2 = np.array([0.0, y2])
                y1 = np.linspace(1.0 * st, 5.0 * st, 12)
                dx = np.linspace(0.0, 3.0 * st, 8)
                yy, xx = np.meshgrid(y1, dx, indexing="ij")
                pts = np.vstack([[z2], np.column_stack([xx.ravel(), yy.ravel()]),
                                 z2 + np.array([0.05 * st, 0.0])])
                out.append(exact_slice(m, t, z2, pts))
        return out

    def test_positive_floors(self):
        res = far_field_floor(self._slices(), r=1.0, rate=4.5)
        assert res["far_floor"] is not None and res["far_floor"] > 0.0
        assert res["diag_floor"] is not None and res["diag_floor"] > 0.0
        assert res["near_floor"] is not None
        assert res["near_floor"] >= res["diag_floor"] / 2.0

    def test_matches_direct_grid_minimum(self):
        sls = self._slices(c=1.0)
        res = far_field_floor(sls, r=1.0, rate=4.5)
        direct = []
        from halfheat.geometry import ball_volume
        for s in sls:
            st = np.sqrt(s.t)
            y1 = s.points[:, 1]
            sel = y1 >= st
            d2 = np.sum((s.points - s.source) ** 2, axis=-1)
            v1 = ball_volume(y1[sel], st, s.c, 1)
            v2 = ball_volume(s.source[1], st, s.c, 1)
            direct.append(np.min(
                s.values[sel] * np.sqrt(v1 * v2) * np.exp(d2[sel] / (4.5 * s.t))
            ))
        assert res["far_floor"] == pytest.approx(min(direct), rel=1e-12)


class TestCriteria:
    @pytest.mark.parametrize("criterion", [
        V.criterion_conservation, V.criterion_envelope, V.criterion_gradient,
        V.criterion_floors, V.criterion_g_function])
    def test_session_without_slices_is_refused(self, criterion):
        # all() of no solver checks once passed criteria 5 and 6 on an empty session
        with pytest.raises(StructuralError, match="no slice"):
            criterion({})

    def test_nan_mass_defect_fails_conservation(self):
        # one NaN value makes that slice's defect NaN; folded with max(worst, r)
        # after a finite defect it read 4.0e-15 and passed <= 1e-3
        stats = {"route": "separable", **dict.fromkeys(solver.SOLVE_STATS[1:], 0)}
        session = {(1.0, y2, t): exact_quadrature_slice(model(1.0), t, np.array([0.0, y2]))
                   for y2 in (0.3, 1.0) for t in (0.5, 1.0)}
        for slc in session.values():
            slc.meta = dict(stats)
        session[(1.0, 1.0, 1.0)].values[7] = np.nan
        checks = {check["name"]: check for check in criterion_conservation(session=session)}
        assert checks["conservation_exact"]["passed"]
        assert np.isnan(checks["conservation_solver_c1.0"]["residual"])
        assert not checks["conservation_solver_c1.0"]["passed"]

    def test_solve_stats_keep_a_nan(self):
        op = assemble(model(1.0, a=0.5), GridSpec(rx=6.0, ry=6.0, nx=24, ny=24, c=1.0))
        cols = kernel_columns(op, [0.5], [[0.0, 1.0], [0.0, 2.0]])
        cols[1].meta["contour_err"] = np.nan
        assert np.isnan(solve_stats(cols)["contour_err"])
        assert np.isnan(solve_stats(cols[:1], columns=cols)["contour_err"])
