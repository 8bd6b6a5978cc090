"""Closed-form heat kernels for the commuting case a = 0.

The one-dimensional generator D_yy + (c/y) D_y with the natural no-flux
condition at y = 0 has an explicit kernel built from the scaled modified
Bessel function; the full-space kernel is its product with the standard
N-dimensional Gaussian.  All values are taken with respect to the
weighted measure y^c dz, the convention used everywhere in this package
(conservation reads: integral of p against y^c dz equals 1).

On a tensor grid the a = 0 kernel is evaluated once per axis by
tensor_kernel: Gaussians at the x-nodes, Bessel values at the y-nodes,
and their outer product, bit-identical to product_kernel at every node.

Slices are written by one CSV writer, write_csv, which builds the text
column by column: the sample points once per call, the time and source
once per file, the values once per chunk of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, WrongOperatorError
from .special import bessel_i_scaled, log_gamma

__all__ = [
    "WEIGHTED_CONVENTION",
    "bessel_heat_kernel",
    "product_kernel",
    "tensor_kernel",
    "KernelSlice",
    "exact_slice",
    "write_csv",
]

WEIGHTED_CONVENTION = "y^c dz"

#: largest |a| treated as zero: reductions of a = 0 operators leave round-off
A_ZERO_TOL = 1e-13

#: rows formatted per write, so the text buffer stays small for large tables
CSV_CHUNK_ROWS = 2048


def _check_time(t):
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t > 0.0)):  # NaN fails both
        raise DomainError("kernel time must be positive and finite")


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
    if not (np.all(np.isfinite(y1) & (y1 > 0.0))
            and np.all(np.isfinite(y2) & (y2 > 0.0))):  # NaN fails both
        raise DomainError("bessel_heat_kernel requires finite y > 0")
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


def _check_commuting(model, t):
    if np.linalg.norm(model.a) > A_ZERO_TOL:
        raise WrongOperatorError(
            "closed-form kernel requires a = 0; use the finite-difference solver"
        )
    _check_time(t)


def product_kernel(model, t: float, z1, z2):
    """Full kernel for the model operator with a = 0, w.r.t. y^c dz.

    z1, z2 are points (x..., y) of length N+1, or arrays of shape
    (m, N+1) for batched evaluation.  Raises WrongOperatorError when the
    mixed-derivative coefficient does not vanish (round-off zeros from
    reductions are accepted): no closed form exists then and the caller
    must use the finite-difference solver.
    """
    _check_commuting(model, t)
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


def tensor_kernel(model, t: float, z2, xs, ys) -> np.ndarray:
    """The a = 0 kernel p(t, (xs[i], ys[j]), z2) at entry i * len(ys) + j (N = 1).

    The kernel is a Gaussian in x times the Bessel kernel in y, so the
    len(xs) Gaussians and len(ys) Bessel values give every value of the
    tensor grid xs x ys by an outer product: len(ys) scaled-Bessel
    evaluations, not len(xs) * len(ys).  Each entry is the product of the
    same two doubles that product_kernel forms at that point, with the
    grid point as either argument, so the values are bit-identical to it.
    Rejects a != 0 (WrongOperatorError) as product_kernel does.
    """
    _check_commuting(model, t)
    if model.n != 1:
        raise DomainError("tensor grids are defined for N = 1")
    z2 = np.asarray(z2, dtype=float)
    xs = np.asarray(xs, dtype=float)
    bessel = bessel_heat_kernel(model.c, t, ys, z2[1])
    gauss = (4.0 * np.pi * t) ** -0.5 * np.exp(-((xs - z2[0]) ** 2) / (4.0 * t))
    return np.outer(gauss, bessel).ravel()


@dataclass
class KernelSlice:
    """Sampled kernel values p(t, ., z2) with their sampling metadata.

    Values are densities against y^c dz (WEIGHTED_CONVENTION), the one
    convention of the package and of the CSV files.

    `weights` carries the y^c dz quadrature/cell masses of the sample
    points when the slice is integration-capable (solver columns,
    quadrature grids); probe-only slices leave it None.
    """

    t: float
    source: np.ndarray
    points: np.ndarray
    values: np.ndarray
    c: float
    weights: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.source = np.asarray(self.source, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _check_time(self.t)
        if not (np.all(np.isfinite(self.source)) and self.source[-1] > 0.0):
            raise DomainError("KernelSlice requires a finite source with y > 0")
        if self.points.shape[0] != self.values.shape[0]:
            raise DomainError("points/values length mismatch")

    @property
    def n(self) -> int:
        return self.points.shape[1] - 1

    def clamped_values(self) -> np.ndarray:
        """Values with small negative discretization noise clamped to 0."""
        return np.maximum(self.values, 0.0)

    def mass(self) -> float:
        """Discrete integral of the slice against y^c dz."""
        if self.weights is None:
            raise DomainError("slice carries no integration weights")
        return float(np.dot(self.weights, self.values))


def _chunks(fmt: str, values):
    """`fmt % row` for the rows of `values`, one `%` and one text per CSV_CHUNK_ROWS rows.

    Rows are joined by newlines, with none after the last.
    """
    values = np.asarray(values, dtype=float)
    for start in range(0, len(values), CSV_CHUNK_ROWS):
        rows = values[start:start + CSV_CHUNK_ROWS]
        yield "\n".join([fmt] * len(rows)) % tuple(rows.ravel().tolist())


def write_csv(slices, paths) -> None:
    """Write slices[k] to the file paths[k] as `t,x1,y1,x2,y2,p,convention` rows.

    Numbers use `%.17g`, which round-trips doubles bit-exactly.  The text
    is built column by column: the `x1,y1` column once per distinct
    `points` array of the call (all slices of one kernel_slices call
    share one), `t` and `x2,y2` once per slice, and `p` with one `%` per
    CSV_CHUNK_ROWS rows, the unit in which rows are written.
    """
    xy_chunks = {}  # id(points) -> its x1,y1 texts; the slices keep the arrays alive
    tail = "," + WEIGHTED_CONVENTION + "\n"
    for slc, path in zip(slices, paths, strict=True):
        if slc.n != 1:
            raise DomainError("CSV slice format is defined for N = 1")
        xy = xy_chunks.get(id(slc.points))
        if xy is None:
            xy = xy_chunks[id(slc.points)] = list(_chunks("%.17g,%.17g", slc.points))
        head = "%.17g," % float(slc.t)
        mid = ",%.17g,%.17g," % tuple(slc.source.tolist())
        with open(path, "w", newline="") as fh:
            fh.write("t,x1,y1,x2,y2,p,convention\n")
            for xy_text, p_text in zip(xy, _chunks("%.17g", slc.values)):
                fh.write("".join([f"{head}{a}{mid}{b}{tail}" for a, b in
                                  zip(xy_text.split("\n"), p_text.split("\n"))]))


def exact_slice(model, t: float, z2, points) -> KernelSlice:
    """Evaluate the a = 0 closed form on given sample points as a probe-only slice."""
    z2 = np.asarray(z2, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    vals = product_kernel(model, t, points, z2[None, :])
    return KernelSlice(t=t, source=z2, points=points, values=np.atleast_1d(vals), c=model.c)
