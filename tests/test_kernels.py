"""Closed-form kernel identities, conservation, and slice round-trips."""

import io

import numpy as np
import pytest

from halfheat.errors import DomainError, ParameterError, WrongOperatorError
from halfheat.kernels import (
    KernelSlice,
    bessel_heat_kernel,
    exact_slice,
    product_kernel,
    to_lebesgue,
)
from halfheat.operators import ModelOperatorSpec
from halfheat.quadrature import halfspace_nodes, integrate_y_weighted


def model(c, a=0.0, n=1):
    return ModelOperatorSpec(n=n, a=np.full(n, a), c=c)


class TestBesselKernel:
    def test_c0_is_reflected_gaussian(self):
        t = 0.8
        y1 = np.linspace(0.05, 4.0, 40)
        y2 = 1.3
        got = bessel_heat_kernel(0.0, t, y1, y2)
        ref = (4 * np.pi * t) ** -0.5 * (
            np.exp(-((y1 - y2) ** 2) / (4 * t)) + np.exp(-((y1 + y2) ** 2) / (4 * t))
        )
        assert got == pytest.approx(ref, rel=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = float(rng.uniform(-0.9, 3.0))
            t = float(rng.uniform(0.05, 5.0))
            y1, y2 = rng.uniform(0.01, 8.0, 2)
            assert bessel_heat_kernel(c, t, y1, y2) == bessel_heat_kernel(c, t, y2, y1)

    @pytest.mark.parametrize("c", [-0.5, 0.0, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("y1", [0.05, 1.0, 5.0])
    def test_conservation_quadrature(self, c, t, y1):
        upper = y1 + 14.0 * np.sqrt(t)
        mass = integrate_y_weighted(
            lambda y2: bessel_heat_kernel(c, t, y1, y2), c, upper, points=[y1]
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_positive_and_finite(self):
        y = np.geomspace(1e-3, 50.0, 200)
        for c in (-0.99, -0.5, 0.0, 2.0, 5.0):
            v = bessel_heat_kernel(c, 1.0, y, 0.7)
            assert np.all(np.isfinite(v))
            assert np.all(v >= 0.0)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            bessel_heat_kernel(-1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_heat_kernel(0.0, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_heat_kernel(0.0, 1.0, 0.0, 1.0)


class TestProductKernel:
    def test_n1_c0_product_of_gaussians(self):
        m = model(0.0)
        z1, z2 = np.array([0.7, 1.1]), np.array([-0.4, 0.3])
        t = 0.6
        gx = (4 * np.pi * t) ** -0.5 * np.exp(-((z1[0] - z2[0]) ** 2) / (4 * t))
        assert product_kernel(m, t, z1, z2) == pytest.approx(
            gx * bessel_heat_kernel(0.0, t, z1[1], z2[1]), rel=1e-13
        )

    def test_scaling_identity(self):
        rng = np.random.default_rng(1)
        for c in (-0.5, 0.0, 1.7):
            m = model(c)
            for _ in range(10):
                z1 = np.array([rng.uniform(-3, 3), rng.uniform(0.05, 5)])
                z2 = np.array([rng.uniform(-3, 3), rng.uniform(0.05, 5)])
                t, s = rng.uniform(0.1, 2.0), rng.uniform(0.3, 3.0)
                lhs = product_kernel(m, s * s * t, s * z1, s * z2)
                rhs = s ** -(2.0 + c) * product_kernel(m, t, z1, z2)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_translation_exact(self):
        m = model(1.0)
        z1, z2 = np.array([0.2, 0.9]), np.array([1.0, 2.0])
        shift = np.array([13.7, 0.0])
        # invariance is exact analytically; floats shift by an ulp in x1-x2
        assert product_kernel(m, 1.0, z1 + shift, z2 + shift) == pytest.approx(
            product_kernel(m, 1.0, z1, z2), rel=1e-12
        )

    def test_wrong_operator(self):
        with pytest.raises(WrongOperatorError):
            product_kernel(model(0.0, a=0.5), 1.0, np.array([0, 1.0]), np.array([0, 1.0]))

    def test_n2_supported(self):
        m = model(1.0, n=2)
        z1 = np.array([0.1, -0.2, 0.5])
        z2 = np.array([0.0, 0.3, 1.0])
        v = product_kernel(m, 0.5, z1, z2)
        assert np.isfinite(v) and v > 0.0

    @pytest.mark.parametrize("ts", [(0.5, 0.5), (0.25, 1.0)])
    def test_chapman_kolmogorov(self, ts):
        t, s = ts
        rng = np.random.default_rng(6)
        m = model(1.0)
        st = np.sqrt(max(t, s))
        for _ in range(10):
            z1 = np.array([rng.uniform(-1, 1), rng.uniform(0.1, 2.0)])
            z2 = np.array([rng.uniform(-1, 1), rng.uniform(0.1, 2.0)])
            x, y, w = halfspace_nodes(
                m.c, x_extent=10 * st, y_extent=max(z1[1], z2[1]) + 10 * st,
                n_x=160, n_panel=28, x_center=0.5 * (z1[0] + z2[0]),
            )
            mid = np.column_stack([x, y])
            comp = np.dot(w, product_kernel(m, t, z1[None, :], mid)
                          * product_kernel(m, s, mid, z2[None, :]))
            direct = product_kernel(m, t + s, z1, z2)
            assert comp == pytest.approx(direct, rel=1e-6)


class TestKernelSlice:
    def _slice(self):
        m = model(1.0)
        pts = np.column_stack([np.linspace(-1, 1, 7), np.linspace(0.1, 2.0, 7)])
        return exact_slice(m, 0.5, np.array([0.0, 1.0]), pts)

    def test_csv_round_trip(self):
        slc = self._slice()
        buf = io.StringIO(slc.csv_text())
        back = KernelSlice.from_csv(buf, c=slc.c)
        assert back.t == slc.t
        assert back.points == pytest.approx(slc.points)
        assert back.values == pytest.approx(slc.values, rel=0, abs=0)  # bit-exact
        assert back.convention == "y^c dz"

    def test_csv_path_round_trip(self, tmp_path):
        slc = self._slice()
        path = tmp_path / "slice.csv"
        slc.to_csv(path)
        assert path.read_text() == slc.csv_text()
        back = KernelSlice.from_csv(path, c=slc.c)
        assert back.source.tolist() == slc.source.tolist()
        assert back.values == pytest.approx(slc.values, rel=0, abs=0)

    def test_invariants(self):
        with pytest.raises(DomainError):
            KernelSlice(t=-1.0, source=np.array([0.0, 1.0]),
                        points=np.zeros((1, 2)), values=np.zeros(1), c=0.0)
        with pytest.raises(DomainError):
            KernelSlice(t=1.0, source=np.array([0.0, -1.0]),
                        points=np.zeros((1, 2)), values=np.zeros(1), c=0.0)

    def test_mass_requires_weights(self):
        slc = self._slice()
        with pytest.raises(DomainError):
            slc.mass()

    def test_clamping(self):
        slc = self._slice()
        slc.values[0] = -1e-12
        assert slc.clamped_values().min() >= 0.0

    def test_lebesgue_helper(self):
        # p_lebesgue = p * y2^c
        assert to_lebesgue(2.0, 3.0, 2.0) == pytest.approx(18.0)
