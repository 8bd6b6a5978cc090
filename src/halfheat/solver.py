"""Finite-difference semigroup solver on the truncated half-plane.

The generator is discretized from its sesquilinear form on a staggered
tensor grid: y-cells never touch y = 0 (centers at (j+1/2) h_y), the
no-flux closure of the form encodes the natural boundary condition
lim y^c D_y u = 0 without ghost points, and the mixed term is kept
inside the same form matrix so that transposing it realizes the adjoint
operator exactly at the discrete level.

The assembled object is the pair (S, w): a sparse form matrix with
S[v, u] ~ a(u, v) and the vector of weighted cell masses, giving the
semi-discrete evolution w du/dt = -S u.  S is a sum of Kronecker
products of 1-D difference, averaging and weight operators in x and
in y (see _form_matrix).  Constants are annihilated by S on both sides
(every entry of S comes from a difference), so constant states are
exactly stationary and total mass Sum(w u) is conserved to solver
round-off by each Crank-Nicolson step.
"""

from __future__ import annotations

import itertools
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

#: leading CN steps replaced by pairs of backward-Euler half-steps
RANNACHER_STEPS = 2

#: most time steps one evolution may take, summed over its segments
MAX_STEPS = 16384

#: the evolution stats kernel_columns puts in a solver slice's meta
SOLVE_STATS = ("steps", "ht", "factorizations", "lu_nnz", "max_step_residual")


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

    def locate(self, z):
        """Cell indices (i, j) of the cell containing z.

        A point off a cell centre snaps to the centre of its cell; callers
        record the snapped point.  A point outside the grid raises DomainError.
        """
        x, y = float(z[0]), float(z[1])
        if not (0.0 < y <= self.ry) or not (-self.rx <= x <= self.rx):
            raise DomainError(f"point {z} outside the grid domain")
        i = min(max(int((x + self.rx) / self.hx), 0), self.nx - 1)
        j = min(max(int(y / self.hy), 0), self.ny - 1)
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


def _face_difference(n: int) -> sparse.csr_matrix:
    """(n-1) x n differences across the interior faces of a row of n cells."""
    ones = np.ones(n - 1)
    return sparse.diags([-ones, ones], [0, 1], shape=(n - 1, n), format="csr")


def _form_matrix(grid: GridSpec, bmat: np.ndarray) -> sparse.csr_matrix:
    """Assemble the discrete form for a(u,v) = int <B grad u, grad v> y^c.

    B is the 2x2 constant coefficient matrix in the (x, y) gradient
    pairing: B[0,0] u_x v_x + B[0,1] u_y v_x + B[1,0] u_x v_y +
    B[1,1] u_y v_y.  With x as the major index (k = i*ny + j) the form is

        (B00/hx) Dx'Dx (x) Z  +  B11 (hx/hy) I (x) Dy' Y Dy  +  B01 C + B10 C',
        C = Gx' (x) Ay' (hx Y) Dy,

    with Dx, Dy the face differences, Z = diag(cell y-masses), Y = diag(y^c)
    on the interior y-faces, Ay the two-cell face average in y and Gx the
    centred cell gradient in x (one-sided at the walls).  Every term carries
    a difference on each side, so constants are in the kernel of both the
    matrix and its transpose.
    """
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    dx, dy = _face_difference(nx), _face_difference(ny)
    yc = sparse.diags(grid.y_faces[1:-1] ** grid.c)
    mat = sparse.csr_matrix((nx * ny, nx * ny))
    if bmat[0, 0] != 0.0:
        zeta = sparse.diags(grid.cell_y_masses())
        mat = mat + (bmat[0, 0] / hx) * sparse.kron(dx.T @ dx, zeta)
    if bmat[1, 1] != 0.0:
        mat = mat + (bmat[1, 1] * hx / hy) * sparse.kron(sparse.identity(nx), dy.T @ yc @ dy)
    # the (u_y, v_x) pairing sits on interior y-faces as (face D_y u) times
    # the face average of the cell gradient of v; (u_x, v_y) is its transpose,
    # so a symmetric B yields a symmetric matrix
    if bmat[0, 1] != 0.0 or bmat[1, 0] != 0.0:
        # cell gradient: the mean of the cell's one or two face differences
        near = abs(dx).T
        gx = sparse.diags(1.0 / (hx * np.asarray(near.sum(axis=1)).ravel())) @ near @ dx
        cross = sparse.kron(gx.T, (0.5 * abs(dy)).T @ (hx * yc) @ dy)
        if bmat[0, 1] != 0.0:
            mat = mat + bmat[0, 1] * cross
        if bmat[1, 0] != 0.0:
            mat = mat + bmat[1, 0] * cross.T
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


def _apply_columns(mat, block: np.ndarray) -> np.ndarray:
    """mat @ block for an (n, k) block, one sparse product per column.

    scipy's multi-vector product copies a Fortran-ordered block to C order
    and costs more than k single products (0.34 against 2 x 0.10 ms for
    k = 2 at 96^2 on a 2-vCPU Xeon); the result is Fortran-ordered, like
    lu.solve's.
    """
    return np.array([mat @ col for col in block.T]).T


def _solve_checked(lu, a_mat, rhs):
    """Solve a_mat x = rhs for a block rhs of shape (n, k).

    Returns x and the k relative residuals.  Each column is held to its
    own |rhs|: a residual above SOLVE_RTOL times it, or a non-finite one,
    raises SolveFailure.
    """
    out = lu.solve(rhs)
    num = np.abs(_apply_columns(a_mat, out) - rhs).max(axis=0)
    den = np.abs(rhs).max(axis=0)
    # NaN or inf in the data or the solution leaves a non-finite residual
    bad = ~np.isfinite(num) | ((den > 0.0) & (num > SOLVE_RTOL * den))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise SolveFailure(f"linear step residual {num[k]:.3e} in column {k} exceeds "
                           f"{SOLVE_RTOL:.0e} x |rhs| = {den[k]:.3e}")
    return out, np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _segment_steps(grid: GridSpec, duration: float) -> int:
    h = min(grid.hx, grid.hy)
    target = min(h * h, duration / 64.0)
    return max(int(np.ceil(duration / target)), 1)


def _evolve_block(op: DiscreteOperator, u: np.ndarray, times):
    """Crank-Nicolson steps of the k columns of u, shape (n, k), through `times`.

    The one stepping loop: each checkpoint segment takes uniform steps, a
    factorization of W + (ht/2) S (minimum-degree ordering on the pattern
    of A' + A) serves every segment with a bitwise-equal ht and is
    released before the next one is built, and every step is one
    multi-right-hand-side solve for the whole block.  Returns the (n, k)
    states at `times` and the run's stats: total `steps`, the `ht` of
    each segment, `factorizations`, the largest `lu_nnz` (the entries
    SuperLU stores for L and U) and, per column, the worst relative step
    residual `max_step_residual`.
    """
    segs = [b - a for a, b in zip([0.0] + times[:-1], times)]
    if min(segs) <= 0.0:
        raise StructuralError("checkpoints must be strictly increasing")
    counts = [_segment_steps(op.grid, seg) for seg in segs]
    if sum(counts) > MAX_STEPS:
        raise SolveFailure(f"evolution needs {sum(counts)} time steps, over the "
                           f"budget of MAX_STEPS = {MAX_STEPS}")

    w = op.w[:, None]
    wmat = sparse.diags(op.w)
    worst = np.zeros(u.shape[1])
    stats = {"steps": sum(counts), "ht": [], "factorizations": 0, "lu_nnz": 0}
    states = []
    ht_lu = None
    remaining_rannacher = RANNACHER_STEPS
    for seg, n in zip(segs, counts):
        ht = seg / n
        stats["ht"].append(ht)
        if ht != ht_lu:
            # one factorization per step size; release the old one first
            lu = a_csr = None
            a_cn = (wmat + (0.5 * ht) * op.form).tocsc()
            lu = splu(a_cn, permc_spec="MMD_AT_PLUS_A")
            a_csr = a_cn.tocsr()
            ht_lu = ht
            stats["factorizations"] += 1
            stats["lu_nnz"] = max(stats["lu_nnz"], lu.nnz)
        for _ in range(n):
            if remaining_rannacher > 0:
                # two backward-Euler half steps share the CN matrix
                u, res = _solve_checked(lu, a_csr, w * u)
                np.maximum(worst, res, out=worst)
                u, res = _solve_checked(lu, a_csr, w * u)
                remaining_rannacher -= 1
            else:
                rhs = w * u - (0.5 * ht) * _apply_columns(op.form, u)
                u, res = _solve_checked(lu, a_csr, rhs)
            np.maximum(worst, res, out=worst)
        states.append(u)
    stats["max_step_residual"] = worst
    return states, stats


def evolve(op: DiscreteOperator, f: Field, t: float, checkpoints=None):
    """Crank-Nicolson evolution of a field under the discrete semigroup.

    Runs uniform steps per segment between checkpoints (all of one size
    within a segment, which keeps the step propagator identical across
    a run and the adjoint relation exact); segments with the same step
    size share one LU, factored with a minimum-degree ordering and freed
    when the evolution ends.  The first RANNACHER_STEPS CN steps are
    replaced by pairs of backward-Euler half-steps to damp the non-smooth
    modes of rough data; both schemes conserve the discrete mass
    identically because constants annihilate S on the test side.  This
    is the one-column case of the block stepping kernel_columns uses.

    More than MAX_STEPS steps in all raises SolveFailure before any factorization.

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
    states, _ = _evolve_block(op, f.values.reshape(-1, 1), times)
    outputs = [Field(op.grid, u.reshape(op.grid.nx, op.grid.ny)) for u in states]
    return outputs if checkpoints else outputs[0]


def kernel_columns(op: DiscreteOperator, ts, z2) -> list[KernelSlice]:
    """Kernel slices p(t, ., z2) for several times and sources from one evolution.

    `z2` is one source point, shape (2,), or k of them, shape (k, 2).  The
    initial state holds the discrete delta 1/w at each source cell as one
    column of an (n, k) block, so the computed columns are already in the
    y^c dz convention; the block is stepped once, with one LU per distinct
    step size and one multi-right-hand-side solve per step.  Returns the
    k * len(ts) slices source-major (all times of the first source, then
    the next), each with the evolution's stats in `meta` and its own
    column's worst step residual.
    """
    grid = op.grid
    ts = sorted(float(t) for t in np.atleast_1d(ts))
    if not ts or ts[0] <= 0.0:
        raise DomainError("kernel times must be given and positive")
    cells = [grid.locate(z) for z in np.atleast_2d(z2)]
    w = grid.masses().ravel()
    flat = [i * grid.ny + j for i, j in cells]
    init = np.zeros((w.size, len(flat)), order="F")
    init[flat, range(len(flat))] = 1.0 / w[flat]
    states, stats = _evolve_block(op, init, ts)
    points = grid.points()
    slices = []
    for col, (i, j) in enumerate(cells):
        source = np.array([grid.x_centers[i], grid.y_centers[j]])
        meta = {"grid": grid, "adjoint": op.is_adjoint, "label": op.label, **stats,
                "max_step_residual": float(stats["max_step_residual"][col])}
        for t, u in zip(ts, states):
            slices.append(
                KernelSlice(
                    t=t, source=source, points=points, values=u[:, col],
                    c=grid.c, convention=WEIGHTED_CONVENTION, weights=w,
                    method="solver", meta=dict(meta),
                )
            )
    return slices


def kernel_column(op: DiscreteOperator, t: float, z2) -> KernelSlice:
    """Single-time kernel column; see kernel_columns."""
    return kernel_columns(op, [t], z2)[0]


def kernel_slices(spec: GeneralOperatorSpec, ts, sources, rx: float, ry: float,
                  nx: int, ny: int, numeric: bool = False) -> list[KernelSlice]:
    """Kernel slices p(t, ., z2) of a general operator, t-major over ts x sources.

    One reduction and one model grid on [-rx, rx] x (0, ry] serve every
    slice, which samples the model cell centres mapped back once.  The
    closed form is used when |a| <= A_ZERO_TOL unless `numeric`; otherwise
    one assembly and one kernel_columns call, which evolves all sources
    together through all model times time_scale * t.  Values are mapped
    back by map_kernel_value, which is exact for the identity reduction.
    A slice's `source` is the point its column came from (for the solver,
    the snapped cell, mapped back); meta holds the method, the requested
    source, the snap offset in model cells, the reduction (`time_scale`
    and the model's `a` and `c`) and, for solver columns, the mass defect
    and the SOLVE_STATS of the evolution (`ht` in model time).  A source
    whose model image lies outside the model grid raises DomainError on
    either route, and so does an empty `ts`.
    """
    if len(ts) == 0:
        raise DomainError("no kernel times given")
    red = reduce_to_model(spec)
    model = red.model
    if model.n != 1:
        raise StructuralError("kernel slices are defined for N = 1")
    grid = GridSpec(rx=rx, ry=ry, nx=nx, ny=ny, c=model.c)
    cells = grid.points()
    points = inverse_map_point(red, cells)
    mapped = [map_point(red, z2) for z2 in sources]
    for z2m in mapped:
        grid.locate(z2m)  # either route rejects a source outside the model grid
    exact = model.a_norm <= A_ZERO_TOL and not numeric
    method = ("exact" if exact else "solver") + ("" if red.is_identity else "-reduced")
    reduction = {"time_scale": red.time_scale, "a": model.a.tolist(), "c": model.c}
    model_ts = sorted({red.time_scale * float(t) for t in ts})
    # source-major, like kernel_columns
    cols = ([exact_slice(model, mt, z2m, cells) for z2m in mapped for mt in model_ts]
            if exact else kernel_columns(assemble(model, grid), model_ts, np.array(mapped)))
    by_key = dict(zip(itertools.product(range(len(sources)), model_ts), cols))
    out = []
    for t in ts:
        for k, (z2, z2m) in enumerate(zip(sources, mapped)):
            col = by_key[k, red.time_scale * float(t)]
            used = inverse_map_point(red, col.source)
            snap = np.hypot(*((col.source - z2m) / (grid.hx, grid.hy)))
            meta = {"method": method, "source": [float(v) for v in z2],
                    "source_used": used.tolist(), "snap_offset_cells": float(snap),
                    "grid_cells": [nx, ny], "reduction": reduction}
            if col.weights is not None:
                meta["mass_defect"] = abs(col.mass() - 1.0)
                meta.update((key, col.meta[key]) for key in SOLVE_STATS)
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
