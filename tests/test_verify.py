"""Harness layer: fits, identities, G-trace, Poincare, floors."""

import numpy as np
import pytest

from halfheat.errors import DomainError, FitUnderdeterminedError, StructuralError
from halfheat.geometry import EnvelopeParams
from halfheat.kernels import exact_slice
from halfheat.operators import ModelOperatorSpec
from halfheat.quadrature import integrate_y_weighted, legendre_panel
from halfheat.solver import Field, GridSpec, assemble, kernel_columns
from halfheat.verify import (
    GTrace,
    check_conservation,
    check_G_monotone,
    check_identities_exact,
    check_identities_solver,
    compute_G,
    compute_G_from_slices,
    envelope_verdict,
    exact_quadrature_slice,
    far_field_floor,
    fit_envelope_constants,
    gaussian_normalizer,
    normalizing_alpha,
    poincare_ratio,
)


def model(c, a=0.0):
    return ModelOperatorSpec(n=1, a=np.array([a]), c=c)


def probe_slices(m, ts=(0.25, 1.0), y2s=(0.1, 1.0), n_y=14, n_x=8):
    out = []
    for t in ts:
        st = np.sqrt(t)
        for y2 in y2s:
            y1 = np.geomspace(0.02, 8.0, n_y)
            dx = np.linspace(0.0, 6 * st, n_x)
            yy, xx = np.meshgrid(y1, dx, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            out.append(exact_slice(m, t, np.array([0.0, y2]), pts))
    return out


class TestGaussianNormalizer:
    def test_closed_form_against_quadrature(self):
        for n, c, alpha in [(1, 1.0, 1.0), (0, 0.0, 2.0), (1, -0.5, 0.7), (2, 2.0, 0.4)]:
            closed = gaussian_normalizer(alpha, c, n)
            x, wx = legendre_panel(-40.0 / np.sqrt(alpha), 40.0 / np.sqrt(alpha), 400)
            xint = float(np.dot(wx, np.exp(-alpha * x ** 2))) ** n
            yint = integrate_y_weighted(
                lambda y: np.exp(-alpha * y * y), c, 50.0 / np.sqrt(alpha)
            )
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

    def test_rejects_other_conventions(self):
        slc = exact_quadrature_slice(model(0.0), 1.0, np.array([0.0, 1.0]))
        slc.convention = "dz"
        with pytest.raises(StructuralError):
            check_conservation(slc)


class TestEnvelopeFit:
    def test_exact_kernel_two_sided(self):
        for c in (-0.5, 0.0, 1.0):
            rep = fit_envelope_constants(probe_slices(model(c)), "product", c, 1)
            assert rep.verdict
            assert rep.k_low < rep.k_fit < rep.k_up
            # true Gaussian rate is 4 in this normalization
            assert rep.k_low < 4.0 < rep.k_up
            assert np.all(rep.ratios_up >= 1.0 - 1e-9)
            assert np.all(rep.ratios_low <= 1.0 + 1e-9)
            assert rep.c_low <= rep.c_up

    def test_forms_change_amplitude_not_verdict(self):
        c = 1.0
        sls = probe_slices(model(c))
        reports = {f: fit_envelope_constants(sls, f, c, 1)
                   for f in ("product", "one-sided-1", "one-sided-2", "volume")}
        assert all(r.verdict for r in reports.values())
        rates = {f: r.k_fit for f, r in reports.items()}
        assert max(rates.values()) / min(rates.values()) < 1.2

    def test_on_diagonal_only_is_underdetermined(self):
        m = model(1.0)
        pts = np.column_stack([np.zeros(5), np.linspace(0.5, 1.5, 5)])
        slc = exact_slice(m, 1.0, np.array([0.0, 1.0]), pts)
        with pytest.raises(FitUnderdeterminedError):
            fit_envelope_constants([slc], "product", 1.0, 1)

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
        broken = EnvelopeParams(rep.c_up, rep.k_up / 2.0, form="product", side="upper")
        v = envelope_verdict(sls, broken, rep.params_low(), c, 1)
        assert not v["upper_holds"]


class TestIdentities:
    def test_exact(self):
        res = check_identities_exact(model(1.0), t=0.5, s=0.5, x0=2.0, scale=2.0,
                                     z1=np.array([0.1, 0.9]), z2=np.array([-0.5, 0.4]))
        assert res["scaling"] <= 1e-12
        assert res["translation"] <= 1e-12
        assert res["adjoint"] <= 1e-12
        assert res["chapman_kolmogorov"] <= 1e-6

    def test_solver(self):
        grid = GridSpec(rx=6.0, ry=6.0, nx=56, ny=56, c=1.0)
        op = assemble(model(1.0, a=0.5), grid)
        res = check_identities_solver(op, t=0.5, s=0.5, x0_cells=4, scale=2.0,
                                      z1_index=(22, 12), z2_index=(30, 18))
        assert res["scaling"] <= 1e-12
        assert res["adjoint"] <= 1e-12
        assert res["chapman_kolmogorov"] <= 1e-3
        assert res["translation"] <= 1e-3

    def test_solver_zero_shift(self):
        grid = GridSpec(rx=3.0, ry=3.0, nx=24, ny=24, c=0.0)
        op = assemble(model(0.0, a=0.3), grid)
        res = check_identities_solver(op, t=0.25, s=0.25, x0_cells=0, scale=2.0,
                                      z1_index=(8, 8), z2_index=(14, 12))
        assert res["translation"] == 0.0

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
        assert check_G_monotone(tr, a_probe=mono["A_required"] + 0.1)["monotone_with_probe"]

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
        with pytest.raises(Exception):
            GTrace(theta=0.2, z2=np.array([0.0, 1.0]), alpha=1.0,
                   ts=np.array([1.0]), values=np.array([0.0]))


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
        fields = [Field.constant(grid, 2.0),
                  Field.from_function(grid, lambda x, y: x)]
        res = poincare_ratio(fields, 1.0, c)
        assert res["skipped_constant"] == 1
        with pytest.raises(DomainError):
            poincare_ratio([Field.constant(grid, 1.0)], 1.0, c)


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


def test_fit_report_residual_csv(tmp_path):
    import io
    c = 1.0
    rep = fit_envelope_constants(probe_slices(model(c)), "product", c, 1)
    buf = io.StringIO()
    rep.residuals_to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,y1,x2,y2,ratio_up,ratio_low"
    assert len(lines) == rep.n_samples + 1
