"""Cylindric-ball volumes and the Gaussian envelope shapes.

The two-sided kernel bounds are written against one of three equivalent
shapes: a product of per-point boundary weights, a one-sided weight in
either argument, or the reciprocal ball-volume form.  This module
evaluates all of them, the gradient envelope, and the doubling behavior
of the ball-volume function.  The amplitude C and Gaussian rate k are
always free parameters: no canonical values exist, so comparability is
reported as observed ratio windows instead of asserted constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .special import log_gamma

__all__ = [
    "EnvelopeParams",
    "unit_ball_volume",
    "ball_volume",
    "boundary_weight",
    "envelope_eval",
    "gradient_envelope",
    "envelope_equivalence_window",
    "doubling_check",
]

FORMS = ("product", "one-sided-1", "one-sided-2", "volume")


@dataclass(frozen=True)
class EnvelopeParams:
    """Amplitude/rate constants plus which equivalent shape is in force.

    The same constants serve an upper or a lower bound; which one is the
    caller's choice.  Both must be finite and positive.
    """

    amplitude: float
    rate: float
    form: str = "product"

    def __post_init__(self):
        if not (0.0 < self.amplitude < np.inf and 0.0 < self.rate < np.inf):  # NaN fails both
            raise ParameterError(f"envelope constants C, k must be finite and positive, "
                                 f"got C={self.amplitude}, k={self.rate}")
        if self.form not in FORMS:
            raise ParameterError(f"unknown envelope form {self.form!r}")


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n (1 for n = 0)."""
    if n < 0:
        raise DomainError("dimension must be >= 0")
    return float(np.pi ** (0.5 * n) / np.exp(log_gamma(0.5 * n + 1.0)))


def ball_volume(y0, r, c: float, n: int):
    """y^c-measure of the cylindric ball B(x0, r) x [y0, y0+r).

    Closed form: omega_n r^n ((y0+r)^{c+1} - y0^{c+1}) / (c+1).  Only
    the boundary distance y0 of the center enters; x-translation leaves
    the volume unchanged.
    """
    if not c + 1.0 > 0.0:
        raise ParameterError(f"measure diverges unless c+1 > 0, got c={c}")
    y0 = np.asarray(y0, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (np.all(y0 >= 0.0) and np.all(r > 0.0)):  # NaN fails both
        raise DomainError("ball_volume requires y0 >= 0 and r > 0")
    vol = unit_ball_volume(n) * r ** n * ((y0 + r) ** (c + 1.0) - y0 ** (c + 1.0)) / (c + 1.0)
    return vol if np.ndim(vol) else float(vol)


def boundary_weight(y, t, c: float):
    """The degeneracy factor y^{-c/2} (1 ^ y/sqrt(t))^{c/2}."""
    y = np.asarray(y, dtype=float)
    return y ** (-0.5 * c) * np.minimum(1.0, y / np.sqrt(t)) ** (0.5 * c)


def _split(z, n):
    z = np.asarray(z, dtype=float)
    return z[..., :n], z[..., n]


def envelope_eval(params: EnvelopeParams, t, z1, z2, c: float, n: int):
    """Evaluate the envelope C t^{-(N+1)/2} (weights) exp(-|z1-z2|^2/(k t)).

    The "weights" factor depends on params.form:
      product     -- boundary_weight(y1) * boundary_weight(y2)
      one-sided-i -- y_i^{-c} (1 ^ y_i/sqrt t)^c
      volume      -- t^{(N+1)/2} / sqrt(V(z1, sqrt t) V(z2, sqrt t))
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t < np.inf)):  # NaN fails both
        raise DomainError("envelope time must be positive and finite")
    x1, y1 = _split(z1, n)
    x2, y2 = _split(z2, n)
    if not (np.all(y1 > 0.0) and np.all(y2 > 0.0)):  # NaN fails both
        raise DomainError("envelope points must satisfy y > 0")
    dist2 = np.sum((x1 - x2) ** 2, axis=-1) + (y1 - y2) ** 2
    gauss = np.exp(-dist2 / (params.rate * t))
    if params.form == "product":
        w = boundary_weight(y1, t, c) * boundary_weight(y2, t, c)
    elif params.form == "one-sided-1":
        w = boundary_weight(y1, t, c) ** 2
    elif params.form == "one-sided-2":
        w = boundary_weight(y2, t, c) ** 2
    else:  # volume
        v1 = ball_volume(y1, np.sqrt(t), c, n)
        v2 = ball_volume(y2, np.sqrt(t), c, n)
        w = t ** (0.5 * (n + 1)) / np.sqrt(v1 * v2)
    val = params.amplitude * t ** (-0.5 * (n + 1)) * w * gauss
    return val if np.ndim(val) else float(val)


def gradient_envelope(t, z1, z2, c: float, n: int, amplitude: float, rate: float):
    """Envelope for |grad_{z1} p|: exponent (N+2)/2 and source-side weight.

    C t^{-(N+2)/2} y2^{-c} (1 ^ y2/sqrt t)^c exp(-|z1-z2|^2/(k t)), the
    one-sided-2 envelope times t^{-1/2}.
    """
    params = EnvelopeParams(amplitude, rate, form="one-sided-2")
    return envelope_eval(params, t, z1, z2, c, n) / np.sqrt(t)


def envelope_equivalence_window(c: float, eps: float):
    """Observed window for swapping the boundary weight between arguments.

    Over a dense grid (y1, y2) in [1e-3, 50]^2 (400 geometric samples
    per axis) the ratio

        f(y1) / (f(y2) exp(eps |y1 - y2|^2)),   f(y) = y^{-c/2}(1 ^ y)^{c/2}

    is computed; a bounded window certifies that the one-sided forms are
    interchangeable at the price of shifting the Gaussian rate.  Returns
    (min_ratio, max_ratio, rate_shift) where rate_shift is the additive
    change of 1/k absorbed by the exp(eps |y1-y2|^2) factor.
    """
    if not 0.0 < eps < np.inf:  # NaN fails both
        raise ParameterError(f"eps must be positive and finite, got {eps}")
    y = np.geomspace(1e-3, 50.0, 400)
    f = y ** (-0.5 * c) * np.minimum(1.0, y) ** (0.5 * c)
    ratio = f[:, None] / (f[None, :] * np.exp(eps * (y[:, None] - y[None, :]) ** 2))
    return float(ratio.min()), float(ratio.max()), eps


def doubling_check(c: float, n: int) -> dict:
    """Worst-case V(z0, 2r)/V(z0, r) over y0 in {0, 0.01, 0.1, 1, 10}, r in [1e-2, 1e2].

    The measure is doubling: the worst ratio must stay below the shape
    C (s/r)^N (1 v s/r)^{1+c^+} with s = 2r, i.e. below C 2^{N+1+c^+}.
    Returns the observed worst case and the shape bound it is compared
    against (with C = 1 it is an exact bound for y0 = 0).
    """
    r = np.geomspace(1e-2, 1e2, 41)
    worst = 0.0
    worst_at = None
    for y0 in (0.0, 0.01, 0.1, 1.0, 10.0):
        v2 = ball_volume(np.full_like(r, y0), 2.0 * r, c, n)
        v1 = ball_volume(np.full_like(r, y0), r, c, n)
        ratios = v2 / v1
        i = int(np.argmax(ratios))
        if ratios[i] > worst:
            worst = float(ratios[i])
            worst_at = (float(y0), float(r[i]))
    shape = 2.0 ** n * 2.0 ** (1.0 + max(c, 0.0))
    return {
        "worst_ratio": worst,
        "worst_at": worst_at,
        "shape_bound": shape,
        "within_shape": worst <= shape * (1.0 + 1e-12),
    }
