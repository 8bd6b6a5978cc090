"""Gaussian-weighted integral operators with boundary weight exponents.

The two-parameter family acts on functions over R^{N+M} (Lebesgue
measure on the input side) by

    S(t) f(z1) = t^{-(N+M)/2} ((|y1|/sqrt t) ^ 1)^{-alpha}
                 * integral ((|y2|/sqrt t) ^ 1)^{-beta}
                            exp(-|z1-z2|^2/(kappa t)) f(z2) dz2,

and is bounded L^p_m -> L^p_{m - p theta} (with norm C t^{-theta/2})
exactly when alpha + theta < (M+m)/p < M - beta for 1 < p < infinity,
the right inequality relaxing to <= at p = 1.  The closed-form
predicate and an empirical operator-norm ladder over adversarial bump
families are both provided; on criterion-true parameters the ladder
stabilizes, on criterion-false ones it grows without bound as the
bumps and the output integration window refine toward the boundary
weight's singularity.

Since the x-directions only contribute a Gaussian convolution that is
uniformly bounded on every L^p, the norm ladder works in the pure
y-variable (N = 0, M = 1) at t = 1: scale homogeneity 2 reduces every t
to t = 1 (sab_scale_identity_residual checks it).  Each ladder level
builds one quadrature rule, shared by all of that level's bumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, StructuralError
from .quadrature import legendre_panel
from .solver import Field

__all__ = [
    "SabSpec",
    "sab_criterion",
    "sab_apply",
    "sab_apply_bump",
    "sab_norm_estimate",
    "sab_scale_identity_residual",
]

#: octaves of refinement toward y = 0 added per norm-ladder level
LADDER_OCTAVES = 4

#: Gauss-Legendre nodes per dyadic panel of the norm ladder
LADDER_GAUSS = 16


@dataclass(frozen=True)
class SabSpec:
    """Parameters of the weighted operator family and of the norm question."""

    alpha: float
    beta: float
    theta: float = 0.0
    m: float = 0.0
    p: float = 2.0
    m_dim: int = 1
    kappa: float = 1.0

    def __post_init__(self):
        if self.p < 1.0:
            raise ParameterError("p must lie in [1, infinity)")
        if self.theta < 0.0:
            raise ParameterError("smoothing order theta must be >= 0")
        if self.kappa <= 0.0:
            raise ParameterError("kappa must be positive")
        if self.m_dim != 1:
            raise StructuralError("desk scale supports y-dimension M = 1 only")


def sab_criterion(spec: SabSpec) -> bool:
    """Closed-form boundedness predicate L^p_m -> L^p_{m - p theta}."""
    big_m = spec.m_dim
    mid = (big_m + spec.m) / spec.p
    if spec.p > 1.0:
        return spec.alpha + spec.theta < mid < big_m - spec.beta
    return spec.alpha + spec.theta < big_m + spec.m <= big_m - spec.beta


def _in_weight(y, t, beta):
    return np.minimum(np.abs(y) / np.sqrt(t), 1.0) ** (-beta)


def sab_apply(spec: SabSpec, t: float, f: Field) -> Field:
    """Apply S(t) to a grid field (N = 1 in x plus M = 1 in y).

    The integral uses the field's Lebesgue cell areas (the family is
    defined against dz, not the weighted measure).  The Gaussian factor
    separates, so the double sum runs as two dense mat-muls.
    """
    if t <= 0.0:
        raise DomainError("t must be positive")
    g = f.grid
    x, y = g.x_centers, g.y_centers
    gx = np.exp(-((x[:, None] - x[None, :]) ** 2) / (spec.kappa * t))
    gy = np.exp(-((y[:, None] - y[None, :]) ** 2) / (spec.kappa * t))
    inner = f.values * _in_weight(y, t, spec.beta)[None, :]
    conv = gx @ inner @ gy.T * (g.hx * g.hy)
    out = t ** (-0.5 * (1 + spec.m_dim)) * _in_weight(y, t, spec.alpha)[None, :] * conv
    return Field(g, out)


def sab_apply_bump(spec: SabSpec, t: float, bump: tuple, y_out,
                   n_gauss: int = 24) -> np.ndarray:
    """S(t) applied to the indicator of [bump[0], bump[1]], sampled at y_out.

    Pure y-variable form (N = 0): the inner integral runs over the bump
    support with Gauss nodes, exact enough because the weight is a
    smooth power there.
    """
    a, b = bump
    if not 0.0 < a < b:
        raise DomainError("bump must satisfy 0 < a < b")
    y_out = np.asarray(y_out, dtype=float)
    yn, wn = legendre_panel(a, b, n_gauss)
    inner = _in_weight(yn, t, spec.beta)
    ker = np.exp(-((y_out[:, None] - yn[None, :]) ** 2) / (spec.kappa * t))
    integral = ker @ (inner * wn)
    return t ** (-0.5 * spec.m_dim) * _in_weight(y_out, t, spec.alpha) * integral


def _bump_norm(bump: tuple, m: float, p: float) -> float:
    a, b = bump
    if m == -1.0:
        return float(np.log(b / a)) ** (1.0 / p)
    return ((b ** (m + 1.0) - a ** (m + 1.0)) / (m + 1.0)) ** (1.0 / p)


def sab_norm_estimate(spec: SabSpec, levels: int = 4,
                      base_octaves: int = 6) -> list[float]:
    """Empirical norm ladder of S(1): L^p_m -> L^p_{m - p theta}.

    Level l takes the adversarial family of dyadic indicator bumps with
    supports from 2^{-depth}, depth = base + LADDER_OCTAVES * l, up to
    2^5 (concentrating at the boundary and spreading outward) and
    measures the output norm on [2^{-depth}, 2^6].  One rule per level:
    LADDER_GAUSS Gauss-Legendre nodes on each dyadic panel of that
    window, with the output weight folded in, serves all of the level's
    bumps.  Criterion-true parameters give a stabilizing sequence;
    criterion-false ones grow without bound as l increases.
    """
    out = []
    for level in range(levels):
        depth = base_octaves + LADDER_OCTAVES * level
        y, w = np.concatenate([legendre_panel(2.0 ** e, 2.0 ** (e + 1), LADDER_GAUSS)
                               for e in range(-depth, 6)], axis=1)
        dens = w * y ** (spec.m - spec.p * spec.theta)
        best = 0.0
        for e in range(-depth, 5):
            bump = (2.0 ** e, 2.0 ** (e + 1))
            f = sab_apply_bump(spec, 1.0, bump, y, n_gauss=LADDER_GAUSS)
            num = float(np.dot(dens, np.abs(f) ** spec.p)) ** (1.0 / spec.p)
            best = max(best, num / _bump_norm(bump, spec.m, spec.p))
        out.append(best)
    return out


def sab_scale_identity_residual(spec: SabSpec, t: float, bump: tuple,
                                y_out, n_gauss: int = 32) -> float:
    """Residual of S(t) f = I_{1/sqrt t} ( S(1) I_{sqrt t} f ).

    With f an indicator bump, I_{sqrt t} f is the rescaled indicator,
    so both sides are computable by the same quadrature; the identity
    carries the scale factor of the Lebesgue integral, which is what it
    verifies.
    """
    y_out = np.asarray(y_out, dtype=float)
    st = np.sqrt(t)
    lhs = sab_apply_bump(spec, t, bump, y_out, n_gauss=n_gauss)
    scaled_bump = (bump[0] / st, bump[1] / st)
    rhs = sab_apply_bump(spec, 1.0, scaled_bump, y_out / st, n_gauss=n_gauss)
    denom = np.max(np.abs(lhs))
    return float(np.max(np.abs(lhs - rhs)) / denom)
