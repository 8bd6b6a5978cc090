"""Operator validation, shear, reduction, and kernel mapping."""

import numpy as np
import pytest

from halfheat.errors import DomainError, ParameterError, StructuralError
from halfheat.kernels import bessel_heat_kernel, product_kernel
from halfheat.operators import (
    GeneralOperatorSpec,
    ModelOperatorSpec,
    general_kernel_exact,
    inverse_map_point,
    map_kernel_value,
    map_point,
    reduce_to_model,
    shear_transform,
    validate_general,
)


def spec(a_matrix, drift, n=1):
    return GeneralOperatorSpec(n=n, a_matrix=np.array(a_matrix, dtype=float),
                               drift=np.array(drift, dtype=float))


class TestValidation:
    def test_identity_passes(self):
        rep = validate_general(spec(np.eye(2), [0.0, 0.0]))
        assert rep.passed
        assert rep.eigen_margin == pytest.approx(1.0)
        assert rep.degeneracy_margin == pytest.approx(1.0)

    def test_oblique_violation(self):
        rep = validate_general(spec(np.eye(2), [1.0, 0.0]))
        assert not rep.passed
        assert rep.failures() == ["obliqueness"]

    def test_degeneracy_violation(self):
        rep = validate_general(spec(np.diag([1.0, 1.0]), [0.0, -1.5]))
        assert not rep.passed
        assert "degeneracy" in rep.failures()
        assert rep.degeneracy_margin == pytest.approx(-0.5)

    def test_asymmetric_matrix(self):
        rep = validate_general(spec([[1.0, 0.2], [0.1, 1.0]], [0.0, 0.0]))
        assert "symmetry" in rep.failures()

    def test_indefinite_matrix(self):
        rep = validate_general(spec([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0]))
        assert "positive_definite" in rep.failures()

    def test_dimension_mismatch_is_structural(self):
        with pytest.raises(StructuralError):
            spec(np.eye(3), [0.0, 0.0], n=1)
        with pytest.raises(StructuralError):
            spec(np.eye(2), [0.0, 0.0, 0.0], n=1)
        with pytest.raises(StructuralError, match="N must be >= 1"):
            spec(np.eye(1), [0.0], n=0)


class TestShear:
    def test_worked_example(self):
        # N=1, Q=2, q=0, gamma=1, d=1, c=2
        s = spec([[2.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        tilde, c = shear_transform(s)
        assert c == 2.0
        assert tilde == pytest.approx(np.array([[2.25, -0.5], [-0.5, 1.0]]))

    def test_no_drift_is_identity(self):
        s = spec([[2.0, 0.3], [0.3, 1.0]], [0.0, 1.0])
        tilde, _ = shear_transform(s)
        assert tilde == pytest.approx(s.a_matrix)

    def test_corner_preserved_and_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.uniform(-1, 1, (3, 3))
            a = m @ m.T + 0.5 * np.eye(3)
            d = rng.uniform(-1, 1, 2)
            s = spec(a, [*d, 1.5], n=2)
            tilde, _ = shear_transform(s)
            assert tilde[2, 2] == a[2, 2]
            assert np.max(np.abs(tilde - tilde.T)) == 0.0
            assert np.min(np.linalg.eigvalsh(tilde)) > 0.0

    def test_oblique_without_c_raises(self):
        s = spec(np.eye(2), [1.0, 0.0])
        with pytest.raises(ParameterError):
            shear_transform(s)


class TestReduction:
    def test_already_model_form(self):
        c0 = 0.7
        red = reduce_to_model(spec(np.eye(2), [0.0, c0]))
        assert red.model.a == pytest.approx(np.zeros(1))
        assert red.model.c == pytest.approx(c0)
        assert red.time_scale == pytest.approx(1.0)
        assert red.x_change == pytest.approx(np.eye(1))
        assert red.shear.shape == (1,) and not red.shear.any()

    def test_worked_example(self):
        # Q~=1, gamma=1, q~=0.5, c=1 -> a=0.5, c=1
        red = reduce_to_model(spec([[1.0, 0.5], [0.5, 1.0]], [0.0, 1.0]))
        assert red.model.a == pytest.approx(np.array([0.5]))
        assert red.model.c == pytest.approx(1.0)

    def test_m_diagonalizes(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            m = rng.uniform(-1, 1, (n + 1, n + 1))
            eigs = rng.uniform(0.1, 10.0, n + 1)
            q, _ = np.linalg.qr(m)
            a = q @ np.diag(eigs) @ q.T
            a = 0.5 * (a + a.T)
            c = float(rng.uniform(-0.9, 3.0)) * a[n, n]
            d = rng.uniform(-0.5, 0.5, n) if c != 0.0 else np.zeros(n)
            s = spec(a, [*d, c], n=n)
            red = reduce_to_model(s)
            tilde, _ = shear_transform(s)
            mqm = red.x_change @ tilde[:n, :n] @ red.x_change.T
            assert mqm == pytest.approx(red.time_scale * np.eye(n), rel=1e-12, abs=1e-12)
            # |a|^2 = q~^T Q~^{-1} q~ / gamma
            qt = tilde[:n, n]
            expected = qt @ np.linalg.solve(tilde[:n, :n], qt) / red.time_scale
            assert red.model.a_norm ** 2 == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert red.model.a_norm < 1.0

    def test_degenerate_schur_approaches_unit_a(self):
        # Schur complement -> 0+ forces |a| -> 1-
        for eps in (1e-1, 1e-3, 1e-5):
            a = np.array([[1.0, np.sqrt(1.0 - eps)], [np.sqrt(1.0 - eps), 1.0]])
            red = reduce_to_model(spec(a, [0.0, 0.5]))
            assert red.model.a_norm ** 2 == pytest.approx(1.0 - eps, rel=1e-9)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ParameterError):
            reduce_to_model(spec(np.eye(2), [0.0, -2.0]))


class TestPointMapping:
    def _red(self):
        return reduce_to_model(spec([[2.0, 0.5], [0.5, 1.0]], [0.25, 0.5]))

    def test_round_trip(self):
        red = self._red()
        rng = np.random.default_rng(4)
        z = np.column_stack([rng.uniform(-5, 5, 50), rng.uniform(0.01, 10, 50)])
        back = inverse_map_point(red, map_point(red, z))
        assert back == pytest.approx(z, rel=1e-12, abs=1e-12)

    def test_round_trip_without_drift(self):
        # d = 0: the shear is a zero array, and the map is the x-change alone
        red = reduce_to_model(spec([[2.0, 0.5], [0.5, 1.0]], [0.0, 0.5]))
        assert red.shear.shape == (1,) and not red.shear.any()
        z = np.array([[1.3, 0.7], [-2.0, 4.5]])
        assert map_point(red, z)[:, :1] == pytest.approx(z[:, :1] @ red.x_change.T)
        assert inverse_map_point(red, map_point(red, z)) == pytest.approx(z, rel=1e-12)

    def test_y_preserved(self):
        red = self._red()
        z = np.array([1.3, 0.7])
        assert map_point(red, z)[-1] == pytest.approx(0.7)

    def test_domain_error(self):
        red = self._red()
        with pytest.raises(DomainError):
            map_point(red, np.array([0.0, -1.0]))
        with pytest.raises(DomainError):
            map_kernel_value(red, 1.0, np.array([0.0, -1.0]), np.array([0.0, 1.0]), 1.0)
        for fn in (map_point, inverse_map_point):
            with pytest.raises(DomainError, match="y > 0"):
                fn(red, np.array([[0.0, 1.0], [0.0, np.nan]]))
        for t, y1, y2 in ((np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (0.0, 1.0, 1.0),
                          (1.0, np.nan, 1.0), (1.0, 1.0, np.nan)):
            with pytest.raises(DomainError):
                map_kernel_value(red, t, np.array([0.0, y1]), np.array([0.0, y2]), 1.0)

    @pytest.mark.parametrize("z", [[0.0, 1.0, 7.0], [1.0], [[0.0, 1.0, 7.0]], 1.0],
                             ids=["three", "one", "k-by-3", "scalar"])
    def test_wrong_length_rejected(self, z):
        # N = 1: a point has 2 coordinates; a third is not dropped silently
        red = self._red()
        for fn in (map_point, inverse_map_point):
            with pytest.raises(StructuralError, match="need 2 coordinates"):
                fn(red, z)


class TestKernelMapping:
    def test_identity_reduction_passthrough(self):
        red = reduce_to_model(spec(np.eye(2), [0.0, 1.0]))
        z1, z2 = np.array([0.3, 1.0]), np.array([-0.2, 0.5])
        p_model = product_kernel(red.model, 1.0, map_point(red, z1), map_point(red, z2))
        assert map_kernel_value(red, 1.0, z1, z2, p_model) == pytest.approx(p_model)

    def test_pure_time_scale(self):
        # A = 4 I, v = 0: general kernel = model kernel at 4t (no volume factor:
        # |det M| = |det(2 * (1/2))| = 1), against the reflected-Gaussian form
        red = reduce_to_model(spec(4.0 * np.eye(2), [0.0, 0.0]))
        assert red.time_scale == pytest.approx(4.0)
        assert red.det_x_change == pytest.approx(1.0)
        z1, z2 = np.array([0.4, 1.2]), np.array([-0.1, 0.8])
        t = 0.7
        got = general_kernel_exact(red, t, z1, z2)
        tt = 4.0 * t
        gauss_x = (4.0 * np.pi * tt) ** -0.5 * np.exp(-((z1[0] - z2[0]) ** 2) / (4 * tt))
        # c = 0 kernel: reflected Neumann Gaussian
        refl = (4.0 * np.pi * tt) ** -0.5 * (
            np.exp(-((z1[1] - z2[1]) ** 2) / (4 * tt))
            + np.exp(-((z1[1] + z2[1]) ** 2) / (4 * tt))
        )
        assert got == pytest.approx(gauss_x * refl, rel=1e-12)

    def test_c0_reduction_against_bessel_form(self):
        # scaling consistency: the mapped kernel must obey the general
        # scaling law p(s^2 t, s z) = s^{-(N+1+c/gamma)} p(t, z)
        red = reduce_to_model(spec([[2.0, 0.5], [0.5, 1.0]], [0.25, 0.5]))
        z1, z2 = np.array([0.5, 1.0]), np.array([-0.3, 0.4])
        s = 2.0
        p1 = general_kernel_exact(red, 1.0, z1, z2)
        p2 = general_kernel_exact(red, s * s, s * z1, s * z2)
        assert p2 == pytest.approx(s ** (-(2.0 + red.model.c)) * p1, rel=1e-12)

    def test_shear_constant_characteristics(self):
        # with d != 0 the map shifts x by (d/c) y; the mapped kernel is
        # invariant when both points slide along the sheared direction
        # (q = (gamma/c) d makes the reduced model commutative, a = 0)
        red = reduce_to_model(spec([[2.0, 0.5], [0.5, 1.0]], [1.0, 2.0]))
        assert red.shear.any()
        assert red.model.a_norm == pytest.approx(0.0, abs=1e-14)
        z1, z2 = np.array([0.2, 0.9]), np.array([0.5, 0.9])
        shift = np.array([1.7, 0.0])
        p_a = general_kernel_exact(red, 0.8, z1, z2)
        p_b = general_kernel_exact(red, 0.8, z1 + shift, z2 + shift)
        assert p_b == pytest.approx(p_a, rel=1e-12)


def test_model_spec_invariants():
    with pytest.raises(ParameterError):
        ModelOperatorSpec(n=1, a=np.array([1.0]), c=0.0)
    with pytest.raises(ParameterError):
        ModelOperatorSpec(n=1, a=np.array([0.0]), c=-1.0)
    with pytest.raises(StructuralError):
        ModelOperatorSpec(n=2, a=np.array([0.5]), c=0.0)


def test_bessel_kernel_c0_reduction():
    # the c = 0 Bessel kernel equals the reflected Gaussian
    t, y1, y2 = 0.6, 0.8, 1.7
    got = bessel_heat_kernel(0.0, t, y1, y2)
    expected = (4.0 * np.pi * t) ** -0.5 * (
        np.exp(-((y1 - y2) ** 2) / (4 * t)) + np.exp(-((y1 + y2) ** 2) / (4 * t))
    )
    assert got == pytest.approx(expected, rel=1e-12)
