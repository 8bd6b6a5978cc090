"""Scaled modified Bessel function and log-Gamma.

These are the only two special functions the closed-form kernel and the
Gaussian normalizer need.  Evaluation is delegated to scipy's vetted
routines; this module owns the domain restrictions (order nu > -1 arises
as (c-1)/2 with c+1 > 0) and the scaled form e^{-x} I_nu(x) that keeps
the Gaussian cancellation in the kernel exact in exponent arithmetic.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import DomainError, ParameterError

__all__ = ["bessel_i_scaled", "log_gamma"]

#: scipy's ive returns NaN from here on; the large-argument series takes over
LARGE_X = 2.0 ** 30


def bessel_i_scaled(nu: float, x):
    """e^{-x} I_nu(x) for nu > -1 and x >= 0.

    Accepts scalar or array x.  The scaled form stays O(1) for large x
    (I_nu(x) ~ e^x / sqrt(2 pi x)), so products with explicit Gaussian
    factors never overflow.  For x >= LARGE_X it is the large-argument
    series (2 pi x)^{-1/2} sum_k (-1)^k prod_{i<=k} (4 nu^2 - (2i-1)^2)
    / (k! (8x)^k) to k = 3; for nu <= 512 the first dropped term is below
    2^-56 of the sum.
    """
    if not nu > -1.0:
        raise ParameterError(f"Bessel order must exceed -1, got nu={nu}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):  # NaN fails too
        raise DomainError("bessel_i_scaled requires x >= 0")
    out = _sp.ive(nu, x)
    large = x >= LARGE_X
    if np.any(large):
        xl = np.where(large, x, LARGE_X)
        term = total = np.ones_like(xl)
        for k in range(1, 4):
            term = -term * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k * xl)
            total = total + term
        out = np.where(large, total / np.sqrt(2.0 * np.pi * xl), out)
    # ive(nu, 0) = 0^nu/(2^nu Gamma(nu+1)): 1 at nu=0, 0 for nu>0, inf guard for nu<0.
    if np.any(x == 0.0) and nu < 0.0:
        out = np.where(x == 0.0, np.inf, out)
    return out if out.ndim else float(out)


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):  # NaN fails too
        raise DomainError("log_gamma requires x > 0")
    out = _sp.gammaln(x)
    return out if out.ndim else float(out)
