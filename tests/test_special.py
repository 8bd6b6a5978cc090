"""Special-function layer: scaled Bessel I and log-Gamma.

Frozen expected values were generated from an independent high-precision
power-series oracle (mpmath at 50 digits): e^{-x} sum_k (x/2)^{2k+nu} /
(k! Gamma(k+nu+1)).  The oracle is re-run live on a random sweep so the
frozen numbers cannot drift away from their source.
"""

import math

import numpy as np
import pytest

mp = pytest.importorskip("mpmath")

from halfheat.errors import DomainError, ParameterError
from halfheat.special import bessel_i_scaled, log_gamma

# (nu, x) -> e^{-x} I_nu(x), mpmath series at 50 digits
SERIES_ORACLE_VALUES = {
    (0.5, 0.5): 0.35663583483745893528,
    (0.5, 1.0): 0.34495131388824462599,
    (0.5, 10.0): 0.12615662584097981553,
    (0.0, 1.0): 0.4657596075936404365,
    (-0.5, 1.0): 0.45293324691462072989,
    (-0.5, 30.0): 0.072836562039471938036,
    (2.3, 45.0): 0.056196889007288665417,
    (0.0, 700.0): 0.015081295651531357587,
    (1.7, 0.25): 0.014785790574649848379,
    (-0.9, 3.0): 0.20490478824217700727,
}

LOG_GAMMA_VALUES = {
    0.5: 0.57236494292470008707,   # log sqrt(pi)
    1.0: 0.0,
    5.0: 3.1780538303479456196,    # log 24
    0.1: 2.252712651734205902,
    12.7: 19.233043179570086912,
}


def series_scaled_bessel(nu, x, dps=50):
    mp.mp.dps = dps
    xm, num = mp.mpf(x), mp.mpf(nu)
    s = mp.mpf(0)
    k = 0
    while True:
        term = (xm / 2) ** (2 * k + num) / (mp.factorial(k) * mp.gamma(k + num + 1))
        s += term
        if k > 5 and abs(term) < abs(s) * mp.mpf(10) ** -45:
            break
        k += 1
        assert k < 20000
    return float(mp.e ** (-xm) * s)


@pytest.mark.parametrize("nu,x", sorted(SERIES_ORACLE_VALUES))
def test_frozen_series_values(nu, x):
    expected = SERIES_ORACLE_VALUES[(nu, x)]
    assert bessel_i_scaled(nu, x) == pytest.approx(expected, rel=1e-10)


def test_series_oracle_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nu = float(rng.uniform(-0.95, 5.0))
        x = float(np.exp(rng.uniform(np.log(1e-2), np.log(700.0))))
        assert bessel_i_scaled(nu, x) == pytest.approx(
            series_scaled_bessel(nu, x), rel=1e-10
        ), (nu, x)


def test_half_integer_closed_form():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh(x)
    for x in (0.5, 1.0, 10.0):
        expected = math.exp(-x) * math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        assert bessel_i_scaled(0.5, x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 7.3, 19.5])
def test_large_argument(nu):
    # scipy's ive is NaN from x = 2^30 on; the large-argument series takes over
    mp.mp.dps = 30
    x = np.array([2.0 ** 30 - 1, 2.0 ** 30, 3e9, 1e12, 1e100, 1e300])
    got = bessel_i_scaled(nu, x)
    want = np.array([float(mp.besseli(nu, v) * mp.exp(-mp.mpf(v))) for v in x])
    assert np.all(np.abs(got - want) <= 1e-15 * want), (got, want)
    if abs(nu) == 0.5:  # I_{+-1/2}(x) e^{-x} = (1 -+ e^{-2x}) / sqrt(2 pi x)
        assert np.array_equal(got[1:], 1.0 / np.sqrt(2.0 * np.pi * x[1:]))


def test_values_at_zero():
    assert bessel_i_scaled(0.0, 0.0) == 1.0
    assert bessel_i_scaled(0.5, 0.0) == 0.0
    assert bessel_i_scaled(2.0, 0.0) == 0.0
    assert bessel_i_scaled(-0.5, 0.0) == np.inf


def test_monotone_tail():
    # scaled form decreases in x beyond the first maximum for nu >= 0
    for nu in (0.0, 1.0, 3.5):
        x = np.linspace(5.0 + 3.0 * nu ** 2, 300.0 + 3.0 * nu ** 2, 200)
        v = bessel_i_scaled(nu, x)
        assert np.all(np.diff(v) < 0.0)


def test_recurrence():
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x), scaled form inherits it
    rng = np.random.default_rng(11)
    for _ in range(50):
        nu = float(rng.uniform(0.05, 5.0))
        x = float(rng.uniform(0.1, 50.0))
        lhs = bessel_i_scaled(nu - 1.0, x) - bessel_i_scaled(nu + 1.0, x)
        rhs = (2.0 * nu / x) * bessel_i_scaled(nu, x)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-300)


def test_order_out_of_range():
    with pytest.raises(ParameterError):
        bessel_i_scaled(-1.0, 1.0)
    with pytest.raises(ParameterError):
        bessel_i_scaled(-2.5, 1.0)


def test_negative_argument_rejected():
    for x in (-1.0, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(DomainError):
            bessel_i_scaled(0.5, x)


@pytest.mark.parametrize("x", sorted(LOG_GAMMA_VALUES))
def test_log_gamma_frozen(x):
    assert log_gamma(x) == pytest.approx(LOG_GAMMA_VALUES[x], rel=1e-12, abs=1e-15)


def test_log_gamma_recurrence():
    # Gamma(x+1) = x Gamma(x)
    rng = np.random.default_rng(3)
    for _ in range(60):
        x = float(rng.uniform(0.1, 20.0))
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-12, abs=1e-13
        )


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.0)
    with pytest.raises(DomainError):
        log_gamma(np.nan)


def test_log_gamma_mpmath_sweep():
    rng = np.random.default_rng(5)
    mp.mp.dps = 40
    for _ in range(30):
        x = float(np.exp(rng.uniform(np.log(0.05), np.log(150.0))))
        assert log_gamma(x) == pytest.approx(float(mp.loggamma(x)), rel=1e-12)
