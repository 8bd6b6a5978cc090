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
to t = 1 (the test-suite checks the identity with sab_apply_bump).  Each
ladder level builds one quadrature rule, shared by all of that level's
bumps.

The desk scale fixes one y-variable, M = M_DIM = 1, and the Gaussian
rate kappa = KAPPA = 1; both are module constants, not SabSpec fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .quadrature import legendre_panel

__all__ = [
    "SabSpec",
    "sab_criterion",
    "sab_apply_bump",
    "sab_norm_estimate",
]

#: octaves of refinement toward y = 0 added per norm-ladder level
LADDER_OCTAVES = 4

#: Gauss-Legendre nodes per dyadic panel of the norm ladder
LADDER_GAUSS = 16

#: dimension M of the y-variable
M_DIM = 1

#: Gaussian rate kappa of the operator family
KAPPA = 1.0


@dataclass(frozen=True)
class SabSpec:
    """Parameters of the weighted operator family and of the norm question."""

    alpha: float
    beta: float
    theta: float = 0.0
    m: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        for name in ("alpha", "beta", "m"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not 1.0 <= self.p < np.inf:  # NaN fails both
            raise ParameterError(f"p must lie in [1, infinity), got {self.p}")
        if not 0.0 <= self.theta < np.inf:
            raise ParameterError(f"smoothing order theta must be finite and >= 0, got {self.theta}")


def sab_criterion(spec: SabSpec) -> bool:
    """Closed-form boundedness predicate L^p_m -> L^p_{m - p theta}."""
    mid = (M_DIM + spec.m) / spec.p
    if spec.p > 1.0:
        return spec.alpha + spec.theta < mid < M_DIM - spec.beta
    return spec.alpha + spec.theta < M_DIM + spec.m <= M_DIM - spec.beta


def _in_weight(y, t, beta):
    return np.minimum(np.abs(y) / np.sqrt(t), 1.0) ** (-beta)


def sab_apply_bump(spec: SabSpec, t: float, bump: tuple, y_out) -> np.ndarray:
    """S(t) applied to the indicator of [bump[0], bump[1]], sampled at y_out.

    Pure y-variable form (N = 0): the inner integral runs over the bump
    support with LADDER_GAUSS Gauss nodes, exact enough because the
    weight is a smooth power there.
    """
    a, b = bump
    if not 0.0 < a < b:
        raise DomainError("bump must satisfy 0 < a < b")
    y_out = np.asarray(y_out, dtype=float)
    yn, wn = legendre_panel(a, b, LADDER_GAUSS)
    inner = _in_weight(yn, t, spec.beta)
    ker = np.exp(-((y_out[:, None] - yn[None, :]) ** 2) / (KAPPA * t))
    integral = ker @ (inner * wn)
    return t ** (-0.5 * M_DIM) * _in_weight(y_out, t, spec.alpha) * integral


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
            f = sab_apply_bump(spec, 1.0, bump, y)
            num = float(np.dot(dens, np.abs(f) ** spec.p)) ** (1.0 / spec.p)
            best = max(best, num / _bump_norm(bump, spec.m, spec.p))
        out.append(best)
    return out
