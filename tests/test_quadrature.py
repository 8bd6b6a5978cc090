"""Weighted quadrature rules against closed-form integrals."""

import numpy as np
import pytest
from scipy import special

from halfheat import quadrature
from halfheat.errors import DomainError, ParameterError
from halfheat.quadrature import (
    halfspace_nodes,
    jacobi_panel,
    legendre_panel,
    y_weighted_nodes,
)
from halfheat.special import log_gamma


def test_jacobi_panel_moments():
    # integral_0^a y^k y^c dy = a^{k+c+1}/(k+c+1), exact for polynomial f
    for c in (-0.5, 0.0, 1.0, 2.5):
        y, w = jacobi_panel(2.0, c, n=12)
        for k in range(6):
            exact = 2.0 ** (k + c + 1) / (k + c + 1)
            assert np.dot(w, y ** k) == pytest.approx(exact, rel=1e-13)


def test_jacobi_panel_rejects_divergent_weight():
    with pytest.raises(ParameterError):
        jacobi_panel(1.0, -1.0)


@pytest.mark.parametrize("upper", [np.inf, np.nan, 0.0])
def test_y_rule_rejects_bad_upper_bound(upper):
    with pytest.raises(DomainError, match="finite"):
        y_weighted_nodes(0.5, upper)
    with pytest.raises(DomainError, match="finite"):
        jacobi_panel(upper, 0.5)


def test_legendre_panel():
    y, w = legendre_panel(-1.0, 3.0, n=8)
    assert np.dot(w, y ** 3) == pytest.approx((3.0 ** 4 - 1.0) / 4.0, rel=1e-13)


def test_legendre_reference_cached_read_only():
    x1, w1 = quadrature._legendre_reference(16)
    x2, w2 = quadrature._legendre_reference(16)
    assert x1 is x2 and w1 is w2
    assert np.array_equal(x1, np.polynomial.legendre.leggauss(16)[0])
    for arr in (x1, w1):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # panels are fresh arrays: writing one leaves the cached rule intact
    y, _ = legendre_panel(0.0, 2.0, n=16)
    y[0] = -1.0
    assert np.array_equal(quadrature._legendre_reference(16)[0], x2)


@pytest.mark.parametrize("c", [-0.9, -0.5, 0.0, 0.6, 3.0])
def test_jacobi_reference_cached_read_only(c):
    x1, w1 = quadrature._jacobi_reference(32, c)
    x2, w2 = quadrature._jacobi_reference(32, c)
    assert x1 is x2 and w1 is w2
    x_ref, w_ref = special.roots_jacobi(32, 0.0, c)
    assert np.array_equal(x1, x_ref) and np.array_equal(w1, w_ref)
    for arr in (x1, w1):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # panels are fresh arrays: writing one leaves the cached rule and the next panel intact
    y, wy = jacobi_panel(2.0, c)
    y_ref, wy_ref = y.copy(), wy.copy()
    y[0], wy[:] = -1.0, 0.0
    y_next, wy_next = jacobi_panel(2.0, c)
    assert np.array_equal(y_next, y_ref) and np.array_equal(wy_next, wy_ref)
    assert np.array_equal(quadrature._jacobi_reference(32, c)[0], x_ref)


@pytest.mark.parametrize("upper,c,error", [
    (1.0, -1.0, ParameterError), (1.0, np.nan, ParameterError),
    (0.0, 0.5, DomainError), (np.nan, 0.5, DomainError), (np.inf, 0.5, DomainError),
], ids=["c=-1", "c=nan", "upper=0", "upper=nan", "upper=inf"])
def test_jacobi_panel_rejects_before_building_a_rule(upper, c, error):
    before = quadrature._jacobi_reference.cache_info()
    with pytest.raises(error):
        jacobi_panel(upper, c)
    assert quadrature._jacobi_reference.cache_info() == before  # no lookup, no rule


def test_composite_gaussian_moment():
    # integral_0^inf y^c e^{-y^2} dy = Gamma((c+1)/2)/2
    for c in (-0.5, 0.0, 1.0, 3.0):
        y, w = y_weighted_nodes(c, 30.0)
        got = np.dot(w, np.exp(-y ** 2))
        exact = 0.5 * np.exp(log_gamma(0.5 * (c + 1.0)))
        assert got == pytest.approx(exact, rel=1e-12)


def test_halfspace_tensor_rule():
    # integral over x in R, y in (0, inf) of y^c e^{-|z|^2}
    c = 1.0
    (xs, wx), (ys, wy) = halfspace_nodes(c, x_extent=8.0, y_extent=12.0)
    assert np.array_equal(ys, y_weighted_nodes(c, 12.0, n_panel=24)[0])
    x, y = np.meshgrid(xs, ys, indexing="ij")
    got = np.dot(np.outer(wx, wy).ravel(), np.exp(-(x.ravel() ** 2 + y.ravel() ** 2)))
    exact = np.sqrt(np.pi) * 0.5  # sqrt(pi) * Gamma(1)/2
    assert got == pytest.approx(exact, rel=1e-10)
