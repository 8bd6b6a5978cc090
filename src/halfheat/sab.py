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
to t = 1 (the test-suite checks the identity with sab_apply_bump).  At
t = 1 the ladder's Gaussian depends on nothing but its depth: bump
[2^e, 2^{e+1}] has the nodes of panel e of the output rule, and every
level's rule and bumps are trailing blocks of the deepest level's.  So
one read-only table exp(-(y_i - y_j)^2 / kappa) on the deepest rule,
cached for the last depth asked for, serves every level and every spec,
and a ladder is one contraction of it.

The desk scale fixes one y-variable, M = M_DIM = 1, and the Gaussian
rate kappa = KAPPA = 1; both are module constants, not SabSpec fields.
"""

from __future__ import annotations

import functools
import numbers
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

#: deepest ladder level, in octaves below y = 1 (its Gaussian table takes about 2.6 MB)
LADDER_MAX_DEPTH = 30

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


def _bump_norm(bump: tuple, m: float, p: float):
    """L^p_m norm of the indicator of [a, b]; a and b may be arrays of bumps."""
    a, b = bump
    if m == -1.0:
        return np.log(b / a) ** (1.0 / p)
    return ((b ** (m + 1.0) - a ** (m + 1.0)) / (m + 1.0)) ** (1.0 / p)


@functools.lru_cache(maxsize=1)
def _ladder_rule(depth: int):
    """Read-only `(y, w, gauss)` of the ladder level at `depth`, built once per depth.

    `(y, w)` is LADDER_GAUSS-point Gauss-Legendre on each dyadic panel
    [2^e, 2^{e+1}], e = -depth .. 5, and `gauss[i, j] = exp(-(y_i - y_j)^2
    / KAPPA)` for j over every panel but the last: the t = 1 kernel of
    the bumps e <= 4, panel by panel, on the rule.
    """
    rule = np.concatenate([legendre_panel(2.0 ** e, 2.0 ** (e + 1), LADDER_GAUSS)
                           for e in range(-depth, 6)], axis=1)
    rule.flags.writeable = False
    y, w = rule
    gauss = y[:, None] - y[None, :-LADDER_GAUSS]
    gauss *= gauss  # in place, so that building the table takes no second one
    gauss /= -KAPPA
    np.exp(gauss, out=gauss)
    gauss.flags.writeable = False
    return y, w, gauss


def _count_arg(name: str, value, least: int) -> None:
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ParameterError(f"{name} must be an int >= {least}, got {value!r}")


def sab_norm_estimate(spec: SabSpec, levels: int = 4,
                      base_octaves: int = 6) -> list[float]:
    """Empirical norm ladder of S(1): L^p_m -> L^p_{m - p theta}.

    Level l takes the adversarial family of dyadic indicator bumps with
    supports from 2^{-depth}, depth = base + LADDER_OCTAVES * l, up to
    2^5 (concentrating at the boundary and spreading outward) and
    measures the output norm on [2^{-depth}, 2^6], by LADDER_GAUSS
    Gauss-Legendre nodes on each dyadic panel of that window with the
    output weight folded in.  Every level reads its block of one cached
    table, the Gaussian on the deepest level's rule (_ladder_rule): each
    bump's output, sab_apply_bump's on the rule up to round-off, is one
    contraction of that table, and each level one sum over its window.
    The deepest level may reach LADDER_MAX_DEPTH.  Criterion-true
    parameters give a stabilizing sequence; criterion-false ones grow
    without bound as l increases.
    """
    _count_arg("levels", levels, 1)
    _count_arg("base_octaves", base_octaves, 0)
    deepest = base_octaves + LADDER_OCTAVES * (levels - 1)
    if deepest > LADDER_MAX_DEPTH:
        raise ParameterError(f"the ladder's deepest level, base_octaves + {LADDER_OCTAVES} * "
                             f"(levels - 1) = {deepest}, exceeds LADDER_MAX_DEPTH = "
                             f"{LADDER_MAX_DEPTH}")
    g = LADDER_GAUSS
    y, w, gauss = _ladder_rule(deepest)
    inner = (_in_weight(y[:-g], 1.0, spec.beta) * w[:-g]).reshape(-1, g)
    f = _in_weight(y, 1.0, spec.alpha)[:, None] * np.einsum(
        "ybg,bg->yb", gauss.reshape(len(y), -1, g), inner)
    mass = (w * y ** (spec.m - spec.p * spec.theta))[:, None] * np.abs(f) ** spec.p
    lower = 2.0 ** np.arange(-deepest, 5)
    norms = _bump_norm((lower, 2.0 * lower), spec.m, spec.p)
    out = []
    for level in range(levels):
        # depth + 5 bumps and depth + 6 output panels, the trailing ones of the deepest level
        bumps = base_octaves + LADDER_OCTAVES * level + 5
        num = mass[-(bumps + 1) * g:, -bumps:].sum(axis=0) ** (1.0 / spec.p)
        out.append(float(np.max(num / norms[-bumps:])))
    return out
