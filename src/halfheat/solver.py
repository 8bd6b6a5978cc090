"""Finite-difference semigroup solver on the truncated half-plane.

The generator is discretized from its sesquilinear form on a staggered
tensor grid: y-cells never touch y = 0 (centers at (j+1/2) h_y), the
no-flux closure of the form encodes the natural boundary condition
lim y^c D_y u = 0 without ghost points, and the mixed term is kept
inside the same form matrix so that transposing it realizes the adjoint
operator exactly at the discrete level.

The assembled object is the pair (S, w): a sparse form matrix with
S[v, u] ~ a(u, v) and the vector of weighted cell masses, giving the
semi-discrete evolution w du/dt = -S u.  Constants are annihilated by
S on both sides (every entry of S comes from a difference), so constant
states are exactly stationary and total mass Sum(w u) is conserved to
solver round-off by each Crank-Nicolson step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import DomainError, ParameterError, StructuralError, SolveFailure, WrongOperatorError
from .kernels import A_ZERO_TOL, WEIGHTED_CONVENTION, KernelSlice, exact_slice, write_csv
from .operators import (
    GeneralOperatorSpec,
    ModelOperatorSpec,
    inverse_map_point,
    map_kernel_value,
    map_point,
    reduce_to_model,
    validate_general,
)

__all__ = [
    "GridSpec",
    "Field",
    "DiscreteOperator",
    "assemble",
    "assemble_divergence_form",
    "evolve",
    "kernel_column",
    "kernel_columns",
    "kernel_slices",
    "discrete_gradient",
    "slice_to_field",
]

#: relative residual above which a linear solve is declared failed
SOLVE_RTOL = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform staggered grid on [-rx, rx] x (0, ry] with weight y^c.

    Cell centers sit at x_i = -rx + (i+1/2) h_x and y_j = (j+1/2) h_y,
    so the singular coefficient c/y is never evaluated at y = 0.
    """

    rx: float
    ry: float
    nx: int
    ny: int
    c: float

    def __post_init__(self):
        if self.rx <= 0.0 or self.ry <= 0.0:
            raise StructuralError("grid extents must be positive")
        if self.nx < 8 or self.ny < 8:
            raise StructuralError("grids need at least 8 cells per direction")
        if not self.c + 1.0 > 0.0:
            raise ParameterError(f"weight exponent must satisfy c+1 > 0, got c={self.c}")

    @property
    def hx(self) -> float:
        return 2.0 * self.rx / self.nx

    @property
    def hy(self) -> float:
        return self.ry / self.ny

    @property
    def x_centers(self) -> np.ndarray:
        return -self.rx + (np.arange(self.nx) + 0.5) * self.hx

    @property
    def y_centers(self) -> np.ndarray:
        return (np.arange(self.ny) + 0.5) * self.hy

    @property
    def y_faces(self) -> np.ndarray:
        return np.arange(self.ny + 1) * self.hy

    def cell_y_masses(self) -> np.ndarray:
        """Exact integrals of y^c over each y-cell."""
        f = self.y_faces ** (self.c + 1.0) / (self.c + 1.0)
        return np.diff(f)

    def masses(self) -> np.ndarray:
        """Weighted cell masses w_ij = h_x * integral_cell y^c dy, shape (nx, ny)."""
        return np.broadcast_to(self.hx * self.cell_y_masses(), (self.nx, self.ny)).copy()

    def points(self) -> np.ndarray:
        """All cell centers as a flat (nx*ny, 2) array, index k = i*ny + j."""
        x, y = np.meshgrid(self.x_centers, self.y_centers, indexing="ij")
        return np.column_stack([x.ravel(), y.ravel()])

    def scaled(self, s: float) -> "GridSpec":
        """Geometrically similar grid with all lengths multiplied by s."""
        return replace(self, rx=s * self.rx, ry=s * self.ry)

    def locate(self, z, strict: bool = False):
        """Cell indices (i, j) of the cell containing z, with snapping."""
        x, y = float(z[0]), float(z[1])
        if not (0.0 < y <= self.ry) or not (-self.rx <= x <= self.rx):
            raise DomainError(f"point {z} outside the grid domain")
        i = min(max(int((x + self.rx) / self.hx), 0), self.nx - 1)
        j = min(max(int(y / self.hy), 0), self.ny - 1)
        snapped = np.array([self.x_centers[i], self.y_centers[j]])
        off = np.hypot(*(snapped - np.array([x, y])))
        if off > 1e-12 * max(self.hx, self.hy):
            msg = f"source {z} snapped to cell center {snapped}"
            if strict:
                raise DomainError(msg)
            warnings.warn(msg, stacklevel=2)
        return i, j


@dataclass
class Field:
    """Discrete function on a grid, values at cell centers, shape (nx, ny)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise StructuralError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nx},{self.grid.ny})"
            )

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "Field":
        x, y = np.meshgrid(grid.x_centers, grid.y_centers, indexing="ij")
        return cls(grid, fn(x, y))

    @classmethod
    def constant(cls, grid: GridSpec, value: float = 1.0) -> "Field":
        return cls(grid, np.full((grid.nx, grid.ny), value))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def mass(self) -> float:
        return float(np.sum(self.grid.masses() * self.values))

    def norm_l1(self) -> float:
        return float(np.sum(self.grid.masses() * np.abs(self.values)))

    def norm_l2(self) -> float:
        return float(np.sqrt(np.sum(self.grid.masses() * self.values ** 2)))

    def to_csv(self, path_or_buf) -> None:
        """Rows `x,y,value` at full double precision."""
        write_csv(path_or_buf, "x,y,value",
                  np.column_stack([self.grid.points(), self.values.ravel()]))


def _form_matrix(grid: GridSpec, bmat: np.ndarray) -> sparse.csr_matrix:
    """Assemble the discrete form for a(u,v) = int <B grad u, grad v> y^c.

    B is the 2x2 constant coefficient matrix in the (x, y) gradient
    pairing: B[0,0] u_x v_x + B[0,1] u_y v_x + B[1,0] u_x v_y +
    B[1,1] u_y v_y.  Diagonal terms live on faces, cross terms pair a
    face gradient with the centered average of transverse face
    gradients; every entry is a product of differences, so constants
    are in the kernel of both the matrix and its transpose.
    """
    nx, ny, hx, hy, c = grid.nx, grid.ny, grid.hx, grid.hy, grid.c
    zeta = grid.cell_y_masses()            # (ny,)
    yf = grid.y_faces                      # (ny+1,)

    def k(i, j):
        return i * ny + j

    rows, cols, vals = [], [], []

    def add(r, cl, v):
        rows.append(np.asarray(r).ravel())
        cols.append(np.asarray(cl).ravel())
        vals.append(np.asarray(v).ravel())

    ii = np.arange(nx)
    jj = np.arange(ny)

    # x-face Dirichlet term: B00 * sum_faces (Du)(Dv) zeta_j / hx
    if bmat[0, 0] != 0.0:
        i = ii[:-1][:, None]
        j = jj[None, :]
        g = np.broadcast_to(bmat[0, 0] * zeta[None, :] / hx, (nx - 1, ny))
        k1 = np.broadcast_to(k(i, j), g.shape)
        k2 = np.broadcast_to(k(i + 1, j), g.shape)
        for (r, cl, sgn) in ((k1, k1, 1.0), (k2, k2, 1.0), (k1, k2, -1.0), (k2, k1, -1.0)):
            add(r, cl, sgn * g)

    # y-face Dirichlet term: B11 * sum_faces (Du)(Dv) hx * Y^c / hy
    if bmat[1, 1] != 0.0:
        i = ii[:, None]
        j = jj[:-1][None, :]
        g = np.broadcast_to(bmat[1, 1] * hx * yf[1:-1] ** c / hy, (nx, ny - 1))
        k1 = np.broadcast_to(k(i, j), g.shape)
        k2 = np.broadcast_to(k(i, j + 1), g.shape)
        for (r, cl, sgn) in ((k1, k1, 1.0), (k2, k2, 1.0), (k1, k2, -1.0), (k2, k1, -1.0)):
            add(r, cl, sgn * g)

    # cross terms: the (u_y, v_x) pairing is discretized on interior y-faces
    # as (face D_y u) * (centered average of D_x v); the (u_x, v_y) pairing
    # is its exact transpose, so a symmetric B yields a symmetric matrix.
    if bmat[0, 1] != 0.0 or bmat[1, 0] != 0.0:
        # the average of D_x v over the two cells of a face, one-sided at the
        # x-walls: im..ip spans 2 cells inside and 1 at either wall
        i = ii[:, None]
        j = jj[None, :-1]
        ip, im = np.minimum(i + 1, nx - 1), np.maximum(i - 1, 0)
        face_w = hx * hy * yf[1:-1] ** c
        denom = 2.0 * hx * (ip - im)
        xr, xc, xv = [], [], []
        for vk, sv in ((k(ip, j), 1.0), (k(im, j), -1.0),
                       (k(ip, j + 1), 1.0), (k(im, j + 1), -1.0)):
            for uk, su in ((k(i, j + 1), 1.0 / hy), (k(i, j), -1.0 / hy)):
                xr.append(vk.ravel())
                xc.append(uk.ravel())
                xv.append((face_w * sv * su / denom).ravel())
        xr = np.concatenate(xr)
        xc = np.concatenate(xc)
        xv = np.concatenate(xv)
        if bmat[0, 1] != 0.0:
            add(xr, xc, bmat[0, 1] * xv)
        if bmat[1, 0] != 0.0:
            add(xc, xr, bmat[1, 0] * xv)

    mat = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * ny, nx * ny),
    ).tocsr()
    # every face adds +g/-g to each touched row, so row sums vanish in exact
    # arithmetic; fold the summation round-off into the diagonal so constants
    # are annihilated exactly (and the transposed operator conserves exactly)
    mat = mat - sparse.diags(np.asarray(mat.sum(axis=1)).ravel())
    return mat.tocsr()


@dataclass
class DiscreteOperator:
    """Assembled generator: sparse form matrix, masses, and provenance tags.

    The semi-discrete law is w du/dt = -(S u); `apply` returns du/dt.
    The adjoint operator shares masses and transposes S, realizing
    a*(u, v) = a(v, u) exactly.
    """

    grid: GridSpec
    form: sparse.csr_matrix
    w: np.ndarray
    is_adjoint: bool = False
    label: str = "model"
    meta: dict = field(default_factory=dict)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Discrete generator applied to a (nx, ny) or flat array."""
        shape = values.shape
        out = -(self.form @ values.ravel()) / self.w
        return out.reshape(shape)

    def adjoint(self) -> "DiscreteOperator":
        return DiscreteOperator(
            grid=self.grid, form=self.form.T.tocsr(), w=self.w,
            is_adjoint=not self.is_adjoint, label=self.label + "*",
            meta=dict(self.meta),
        )

    def quadratic_form(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """a(u, v) evaluated discretely (v defaults to u)."""
        v = u if v is None else v
        return float(v.ravel() @ (self.form @ u.ravel()))


def assemble(model: ModelOperatorSpec, grid: GridSpec) -> DiscreteOperator:
    """Discrete generator for the model operator on the given grid."""
    if model.n != 1:
        raise StructuralError("the desk-scale solver supports N = 1 only")
    if not model.a_norm < 1.0:
        raise ParameterError("assembly refused: |a| >= 1 loses coercivity")
    if grid.c != model.c:
        raise StructuralError(
            f"grid weight c={grid.c} does not match operator c={model.c}"
        )
    bmat = np.array([[1.0, 2.0 * float(model.a[0])], [0.0, 1.0]])
    form = _form_matrix(grid, bmat)
    return DiscreteOperator(
        grid=grid, form=form, w=grid.masses().ravel(),
        label="model", meta={"a": float(model.a[0]), "c": model.c},
    )


def assemble_divergence_form(spec: GeneralOperatorSpec, grid: GridSpec) -> DiscreteOperator:
    """Direct discretization of a general operator in divergence form.

    Only the subfamily with d = (c/gamma) q is a pure weighted divergence
    y^{-m} div(y^m A grad u) with m = c/gamma; those are the general
    operators this desk-scale path can solve without reduction, which is
    exactly what the reduction round-trip check needs.
    """
    report = validate_general(spec)
    if not report.passed:
        raise ParameterError("inadmissible spec: " + ", ".join(report.failures()))
    if spec.n != 1:
        raise StructuralError("the desk-scale solver supports N = 1 only")
    m = spec.c / spec.gamma
    if not np.allclose(spec.d, m * spec.q_vec, rtol=0.0, atol=1e-13):
        raise WrongOperatorError(
            "direct general solve requires the divergence-form drift d = (c/gamma) q"
        )
    if grid.c != m:
        raise StructuralError(f"grid weight c={grid.c} must equal c/gamma={m}")
    form = _form_matrix(grid, np.asarray(spec.a_matrix, dtype=float))
    return DiscreteOperator(
        grid=grid, form=form, w=grid.masses().ravel(),
        label="general", meta={"gamma": spec.gamma, "m": m},
    )


def _solve_checked(lu, a_mat, rhs):
    out = lu.solve(rhs)
    num = np.linalg.norm(a_mat @ out - rhs, np.inf)
    den = np.linalg.norm(rhs, np.inf)
    # NaN or inf in the data or the solution leaves a non-finite residual
    if not np.isfinite(num) or (den > 0.0 and num > SOLVE_RTOL * den):
        raise SolveFailure(f"linear step residual {num:.3e} exceeds "
                           f"{SOLVE_RTOL:.0e} x |rhs| = {den:.3e}")
    return out


def _segment_steps(grid: GridSpec, duration: float) -> int:
    h = min(grid.hx, grid.hy)
    target = min(h * h, duration / 64.0)
    return max(int(np.ceil(duration / target)), 1)


def evolve(op: DiscreteOperator, f: Field, t: float, steps: int | None = None,
           checkpoints=None, rannacher: int = 2):
    """Crank-Nicolson evolution of a field under the discrete semigroup.

    Runs uniform steps per segment between checkpoints (all of one size
    within a segment, which keeps the step propagator identical across
    a run and the adjoint relation exact); segments with the same step
    size share one factorization.  The first `rannacher` CN
    steps are replaced by pairs of backward-Euler half-steps to damp the
    non-smooth modes of rough data; both schemes conserve the discrete
    mass identically because constants annihilate S on the test side.

    Returns the final Field, or a list of Fields at the checkpoint times
    (which must then include t as their maximum).
    """
    if t <= 0.0:
        raise DomainError("evolution time must be positive")
    if f.grid != op.grid:
        raise StructuralError("field grid does not match operator grid")
    times = sorted(checkpoints) if checkpoints else [t]
    if abs(times[-1] - t) > 1e-12 * t:
        raise StructuralError("checkpoints must end at the evolution time")

    w = op.w
    wmat = sparse.diags(w)
    u = f.values.ravel().copy()
    outputs = []
    t_prev = 0.0
    ht_lu = None
    remaining_rannacher = max(rannacher, 0)
    for t_next in times:
        seg = t_next - t_prev
        if seg <= 0.0:
            raise StructuralError("checkpoints must be strictly increasing")
        n = steps if (steps and len(times) == 1) else _segment_steps(op.grid, seg)
        ht = seg / n
        if ht != ht_lu:
            # one factorization per step size; release the old one first
            lu = a_csr = None
            a_cn = (wmat + (0.5 * ht) * op.form).tocsc()
            lu = splu(a_cn)
            a_csr = a_cn.tocsr()
            ht_lu = ht
        for _ in range(n):
            if remaining_rannacher > 0:
                # two backward-Euler half steps share the CN matrix
                u = _solve_checked(lu, a_csr, w * u)
                u = _solve_checked(lu, a_csr, w * u)
                remaining_rannacher -= 1
            else:
                rhs = w * u - (0.5 * ht) * (op.form @ u)
                u = _solve_checked(lu, a_csr, rhs)
        t_prev = t_next
        outputs.append(Field(op.grid, u.reshape(op.grid.nx, op.grid.ny).copy()))
    return outputs if checkpoints else outputs[0]


def kernel_columns(op: DiscreteOperator, ts, z2, strict: bool = False,
                   rannacher: int = 2) -> list[KernelSlice]:
    """Kernel slices p(t, ., z2) for several times from one evolution.

    The initial state is the discrete delta 1/w at the source cell, so
    the computed column is already in the y^c dz convention.
    """
    grid = op.grid
    ts = sorted(float(t) for t in np.atleast_1d(ts))
    if ts[0] <= 0.0:
        raise DomainError("kernel times must be positive")
    i, j = grid.locate(z2, strict=strict)
    source = np.array([grid.x_centers[i], grid.y_centers[j]])
    w = grid.masses()
    init = np.zeros((grid.nx, grid.ny))
    init[i, j] = 1.0 / w[i, j]
    fields = evolve(op, Field(grid, init), ts[-1], checkpoints=ts, rannacher=rannacher)
    slices = []
    for t, fld in zip(ts, fields):
        slices.append(
            KernelSlice(
                t=t, source=source, points=grid.points(),
                values=fld.values.ravel(), c=grid.c,
                convention=WEIGHTED_CONVENTION, weights=w.ravel(),
                method="solver",
                meta={"grid": grid, "adjoint": op.is_adjoint, "label": op.label},
            )
        )
    return slices


def kernel_column(op: DiscreteOperator, t: float, z2, strict: bool = False,
                  rannacher: int = 2) -> KernelSlice:
    """Single-time kernel column; see kernel_columns."""
    return kernel_columns(op, [t], z2, strict=strict, rannacher=rannacher)[0]


def kernel_slices(spec: GeneralOperatorSpec, ts, sources, rx: float, ry: float,
                  nx: int, ny: int, numeric: bool = False) -> list[KernelSlice]:
    """Kernel slices p(t, ., z2) of a general operator, t-major over ts x sources.

    One reduction and one model grid on [-rx, rx] x (0, ry] serve every
    slice, which samples the model cell centres mapped back once.  The
    closed form is used when |a| <= A_ZERO_TOL unless `numeric`; otherwise
    one assembly, and one evolution per source through all model times
    time_scale * t.  Values are mapped back by map_kernel_value, which is
    exact for the identity reduction.  A slice's `source` is the point its
    column came from (for the solver, the snapped cell, mapped back); meta
    holds the method, the requested source, the snap offset in model
    cells and, for solver columns, the mass defect.
    """
    red = reduce_to_model(spec)
    model = red.model
    if model.n != 1:
        raise StructuralError("kernel slices are defined for N = 1")
    grid = GridSpec(rx=rx, ry=ry, nx=nx, ny=ny, c=model.c)
    cells = grid.points()
    points = inverse_map_point(red, cells)
    exact = model.a_norm <= A_ZERO_TOL and not numeric
    method = ("exact" if exact else "solver") + ("" if red.is_identity else "-reduced")
    model_ts = sorted({red.time_scale * float(t) for t in ts})
    op = None if exact else assemble(model, grid)
    columns = []
    for z2 in sources:
        z2m = map_point(red, z2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the snap is recorded in meta
            cols = ([exact_slice(model, mt, z2m, cells) for mt in model_ts]
                    if exact else kernel_columns(op, model_ts, z2m))
        columns.append((z2, z2m, dict(zip(model_ts, cols))))
    out = []
    for t in ts:
        for z2, z2m, cols in columns:
            col = cols[red.time_scale * float(t)]
            used = inverse_map_point(red, col.source)
            snap = np.hypot(*((col.source - z2m) / (grid.hx, grid.hy)))
            meta = {"method": method, "source": [float(v) for v in z2],
                    "source_used": used.tolist(), "snap_offset_cells": float(snap),
                    "grid_cells": [nx, ny]}
            if col.weights is not None:
                meta["mass_defect"] = abs(col.mass() - 1.0)
            out.append(KernelSlice(t=float(t), source=used, points=points, c=model.c,
                                   values=map_kernel_value(red, t, points, used, col.values),
                                   method=method, meta=meta))
    return out


def slice_to_field(slc: KernelSlice) -> Field:
    grid = slc.meta.get("grid")
    if grid is None:
        raise StructuralError("slice does not carry its grid")
    return Field(grid, slc.values.reshape(grid.nx, grid.ny).copy())


def discrete_gradient(f: Field):
    """(d/dx, d/dy) by central differences, one-sided at boundaries."""
    u = f.values
    gx = np.gradient(u, f.grid.hx, axis=0)
    gy = np.gradient(u, f.grid.hy, axis=1)
    return Field(f.grid, gx), Field(f.grid, gy)
