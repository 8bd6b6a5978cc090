"""Closed-form heat kernels for the commuting case a = 0.

The one-dimensional generator D_yy + (c/y) D_y with the natural no-flux
condition at y = 0 has an explicit kernel built from the scaled modified
Bessel function; the full-space kernel is its product with the standard
N-dimensional Gaussian.  All values are taken with respect to the
weighted measure y^c dz, the convention used everywhere in this package
(conservation reads: integral of p against y^c dz equals 1).
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, WrongOperatorError
from .special import bessel_i_scaled, log_gamma

__all__ = [
    "WEIGHTED_CONVENTION",
    "bessel_heat_kernel",
    "product_kernel",
    "to_lebesgue",
    "KernelSlice",
    "exact_slice",
]

WEIGHTED_CONVENTION = "y^c dz"

#: largest |a| treated as zero: reductions of a = 0 operators leave round-off
A_ZERO_TOL = 1e-13

#: rows formatted per write, so the text buffer stays small for large tables
CSV_CHUNK_ROWS = 2048


def _check_time(t):
    if not np.all(np.asarray(t) > 0.0):
        raise DomainError("kernel time must be positive")


def bessel_heat_kernel(c: float, t: float, y1, y2):
    """Kernel of the 1-D Bessel generator w.r.t. y^c dy, for c + 1 > 0.

    p(t, y1, y2) = (2t)^{-1} (y1 y2)^{-(c-1)/2}
                   exp(-(y1-y2)^2/(4t)) * [e^{-xi} I_{(c-1)/2}(xi)],
    xi = y1 y2 / (2t).  The Gaussian cancellation between the exponential
    and the Bessel growth is done in the exponent, so no intermediate
    overflows occur.
    """
    if not c + 1.0 > 0.0:
        raise ParameterError(f"Bessel drift must satisfy c+1 > 0, got c={c}")
    _check_time(t)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    if np.any(y1 <= 0.0) or np.any(y2 <= 0.0):
        raise DomainError("bessel_heat_kernel requires y > 0")
    nu = 0.5 * (c - 1.0)
    xi = y1 * y2 / (2.0 * t)
    small = xi < 1e-4
    with np.errstate(over="ignore", invalid="ignore"):
        val = (
            (0.5 / t)
            * (y1 * y2) ** (-nu)
            * np.exp(-((y1 - y2) ** 2) / (4.0 * t))
            * bessel_i_scaled(nu, np.where(small, 1.0, xi))
        )
    if np.any(small):
        # leading series of I_nu: the y powers cancel against the prefactor,
        # leaving a bounded expression where the direct product would be 0*inf
        lim = (
            (0.5 / t) * (4.0 * t) ** (-nu) / np.exp(log_gamma(nu + 1.0))
            * np.exp(-(y1 ** 2 + y2 ** 2) / (4.0 * t))
            * (1.0 + xi ** 2 / (4.0 * (nu + 1.0)))
        )
        val = np.where(small, lim, val)
    return val if np.ndim(val) else float(val)


def product_kernel(model, t: float, z1, z2):
    """Full kernel for the model operator with a = 0, w.r.t. y^c dz.

    z1, z2 are points (x..., y) of length N+1, or arrays of shape
    (m, N+1) for batched evaluation.  Raises WrongOperatorError when the
    mixed-derivative coefficient does not vanish (round-off zeros from
    reductions are accepted): no closed form exists then and the caller
    must use the finite-difference solver.
    """
    if np.linalg.norm(model.a) > A_ZERO_TOL:
        raise WrongOperatorError(
            "closed-form kernel requires a = 0; use the finite-difference solver"
        )
    _check_time(t)
    z1 = np.atleast_2d(np.asarray(z1, dtype=float))
    z2 = np.atleast_2d(np.asarray(z2, dtype=float))
    n = model.n
    if z1.shape[-1] != n + 1 or z2.shape[-1] != n + 1:
        raise DomainError(f"points must have {n + 1} coordinates")
    x1, y1 = z1[..., :n], z1[..., n]
    x2, y2 = z2[..., :n], z2[..., n]
    gauss = (4.0 * np.pi * t) ** (-0.5 * n) * np.exp(
        -np.sum((x1 - x2) ** 2, axis=-1) / (4.0 * t)
    )
    val = gauss * bessel_heat_kernel(model.c, t, y1, y2)
    return float(val[0]) if val.shape == (1,) else val


def to_lebesgue(value, y2, c: float):
    """Convert kernel values from the y^c dz convention to Lebesgue dz.

    Not used internally; provided so exported data can be compared with
    unweighted references.
    """
    return value * np.asarray(y2, dtype=float) ** c


@dataclass
class KernelSlice:
    """Sampled kernel values p(t, ., z2) with their sampling metadata.

    `weights` carries the y^c dz quadrature/cell masses of the sample
    points when the slice is integration-capable (solver columns,
    quadrature grids); probe-only slices leave it None.
    """

    t: float
    source: np.ndarray
    points: np.ndarray
    values: np.ndarray
    c: float
    convention: str = WEIGHTED_CONVENTION
    weights: np.ndarray | None = None
    method: str = "exact"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.t <= 0.0 or self.source[-1] <= 0.0:
            raise DomainError("KernelSlice requires t > 0 and source y > 0")
        if self.points.shape[0] != self.values.shape[0]:
            raise DomainError("points/values length mismatch")

    @property
    def n(self) -> int:
        return self.points.shape[1] - 1

    def clamped_values(self, floor: float = 0.0) -> np.ndarray:
        """Values with small negative discretization noise clamped."""
        return np.maximum(self.values, floor)

    def mass(self) -> float:
        """Discrete integral of the slice against y^c dz."""
        if self.weights is None:
            raise DomainError("slice carries no integration weights")
        return float(np.dot(self.weights, self.values))

    def to_csv(self, path_or_buf) -> None:
        """Write `t,x1,y1,x2,y2,p,convention` rows at full double precision."""
        if self.n != 1:
            raise DomainError("CSV slice format is defined for N = 1")
        m = len(self.values)
        table = np.column_stack([np.full(m, self.t), self.points,
                                 np.broadcast_to(self.source, (m, 2)), self.values])
        write_csv(path_or_buf, "t,x1,y1,x2,y2,p,convention", table, "," + self.convention)

    @classmethod
    def from_csv(cls, path_or_buf, c: float, **kw) -> "KernelSlice":
        """Read a slice written by to_csv (columns by position)."""
        own = isinstance(path_or_buf, (str, bytes, os.PathLike))
        with open(path_or_buf) if own else contextlib.nullcontext(path_or_buf) as fh:
            lines = fh.read().splitlines()[1:]
        if not lines:
            raise DomainError("empty slice file")
        table = np.loadtxt(lines, delimiter=",", usecols=range(6), ndmin=2)
        return cls(t=float(table[0, 0]), source=table[0, 3:5], points=table[:, 1:3],
                   values=table[:, 5], c=c, convention=lines[0].rsplit(",", 1)[1], **kw)

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def exact_slice(model, t: float, z2, points, weights=None) -> KernelSlice:
    """Evaluate the a = 0 closed form on given sample points as a slice."""
    z2 = np.asarray(z2, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = product_kernel(model, t, points, z2[None, :])
    return KernelSlice(
        t=t, source=z2, points=points, values=np.atleast_1d(vals),
        c=model.c, weights=weights, method="exact",
    )


def write_csv(path_or_buf, header: str, table, suffix: str = "") -> None:
    """Write `header` and the rows of a 2-D float table, one CSV line each.

    Numbers use `%.17g`, which round-trips doubles bit-exactly; `suffix`
    is appended to every row (constant text columns).  A path is opened
    and closed here; an open text buffer is written in place.
    """
    table = np.asarray(table, dtype=float)
    fmt = ",".join(["%.17g"] * table.shape[1]) + suffix.replace("%", "%%") + "\n"
    own = isinstance(path_or_buf, (str, bytes, os.PathLike))
    with open(path_or_buf, "w", newline="") if own else contextlib.nullcontext(path_or_buf) as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            rows = table[start:start + CSV_CHUNK_ROWS].tolist()
            fh.write("".join(fmt % tuple(row) for row in rows))
