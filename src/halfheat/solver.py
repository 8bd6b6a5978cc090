"""Finite-difference semigroup solver on the truncated half-plane.

The generator is discretized from its sesquilinear form on a staggered
tensor grid: y-cells never touch y = 0 (centers at (j+1/2) h_y), the
no-flux closure of the form in y encodes the natural boundary condition
lim y^c D_y u = 0 without ghost points, x is closed periodically, and
the mixed term is kept inside the same form matrix so that transposing
it realizes the adjoint operator exactly at the discrete level.

The assembled object is the pair (S, w): a sparse form matrix with
S[v, u] ~ a(u, v) and the vector of weighted cell masses, giving the
semi-discrete evolution w du/dt = -S u.  S is a sum of Kronecker
products of 1-D difference, averaging and weight operators in x and
in y (see _form_matrix); its x factors are circulant.  Constants are
annihilated by S on both sides (every entry of S comes from a
difference), so constant states are exactly stationary and total mass
Sum(w u) is conserved to solver round-off by each Crank-Nicolson step.

The coefficients do not depend on x, so the stepping loop never uses S
itself: an rfft along x splits W + (ht/2) S into one tridiagonal y-block
per x-mode (fast diagonalization), each step runs per mode, and the step
residual is checked in mode space.  The adjoint stays exact to FFT
round-off relative to the column maximum.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import DomainError, ParameterError, StructuralError, SolveFailure, WrongOperatorError
from .kernels import A_ZERO_TOL, WEIGHTED_CONVENTION, KernelSlice, exact_slice
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
SOLVE_STATS = ("steps", "ht", "factorizations", "lu_nnz", "max_step_residual",
               "transform_s", "factor_s", "solve_s")


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

    def mass(self) -> float:
        return float(np.sum(self.grid.masses() * self.values))


def _face_difference(n: int) -> sparse.csr_matrix:
    """(n-1) x n differences across the interior faces of a row of n cells."""
    ones = np.ones(n - 1)
    return sparse.diags([-ones, ones], [0, 1], shape=(n - 1, n), format="csr")


def _kron_form(grid: GridSpec, bmat: np.ndarray, lap_x, grad_x) -> sparse.csr_matrix:
    """Sum of Kronecker products of x factors and the grid's 1-D y-operators.

        (B00/hx) lap_x (x) Z  +  B11 (hx/hy) I (x) Dy' Y Dy
            +  B01 grad_x^H (x) Cy  +  B10 grad_x (x) Cy',    Cy = Ay' (hx Y) Dy,

    with Dy the interior face differences, Z = diag(cell y-masses),
    Y = diag(y^c) on the interior y-faces and Ay the two-cell face average
    in y.  In cell space lap_x = Dx'Dx and grad_x is the cell gradient; in
    x-Fourier modes both are diagonal (their symbols), which gives the
    mode blocks of the same form.  Zero-coefficient terms are skipped.
    """
    nx, ny, hx, hy = lap_x.shape[0], grid.ny, grid.hx, grid.hy  # nx cells or modes
    dy = _face_difference(ny)
    yc = sparse.diags(grid.y_faces[1:-1] ** grid.c)
    mat = sparse.csr_matrix((nx * ny, nx * ny), dtype=grad_x.dtype)  # complex per mode
    if bmat[0, 0] != 0.0:
        mat = mat + (bmat[0, 0] / hx) * sparse.kron(lap_x, sparse.diags(grid.cell_y_masses()))
    if bmat[1, 1] != 0.0:
        mat = mat + (bmat[1, 1] * hx / hy) * sparse.kron(sparse.identity(nx), dy.T @ yc @ dy)
    # the (u_y, v_x) pairing sits on interior y-faces as (face D_y u) times
    # the face average of the cell gradient of v; (u_x, v_y) is its transpose,
    # so a symmetric B yields a symmetric (Hermitian, per mode) matrix
    cy = (0.5 * abs(dy)).T @ (hx * yc) @ dy
    if bmat[0, 1] != 0.0:
        mat = mat + bmat[0, 1] * sparse.kron(grad_x.conj().T, cy)
    if bmat[1, 0] != 0.0:
        mat = mat + bmat[1, 0] * sparse.kron(grad_x, cy.T)
    return mat.tocsr()


def _form_matrix(grid: GridSpec, bmat: np.ndarray) -> sparse.csr_matrix:
    """Assemble the discrete form for a(u,v) = int <B grad u, grad v> y^c.

    B is the 2x2 constant coefficient matrix in the (x, y) gradient
    pairing: B[0,0] u_x v_x + B[0,1] u_y v_x + B[1,0] u_x v_y +
    B[1,1] u_y v_y.  With x the major index (k = i*ny + j) the form is the
    _kron_form sum with lap_x = Dx'Dx and grad_x = Gx, where x is closed
    periodically: Dx is the circulant face difference (face i between
    cells i and i+1 mod nx) and Gx = |Dx|' Dx / (2 hx) the centred cell
    gradient, so both x factors are circulant.  Every term carries a
    difference on each side, so constants are in the kernel of both the
    matrix and its transpose.
    """
    nx = grid.nx
    # face i lies between cells i and i+1 mod nx
    dx = sparse.eye(nx, k=1) + sparse.eye(nx, k=1 - nx) - sparse.eye(nx)
    mat = _kron_form(grid, bmat, dx.T @ dx, (0.5 / grid.hx) * abs(dx).T @ dx)
    # every face adds +g/-g to each touched row, so row sums vanish in exact
    # arithmetic; fold the summation round-off into the diagonal so constants
    # are annihilated exactly (and the transposed operator conserves exactly)
    mat = mat - sparse.diags(np.asarray(mat.sum(axis=1)).ravel())
    return mat.tocsr()


def _mode_form(grid: GridSpec, bmat: np.ndarray) -> sparse.csr_matrix:
    """The form in x-Fourier modes: nx//2 + 1 tridiagonal ny x ny blocks.

    Mode m (theta = 2 pi m / nx, the rfft index) takes the symbols
    2 - 2 cos theta of Dx'Dx and i sin(theta) / hx of Gx; the block
    diagonal is indexed m * ny + j.  sin(theta) is set to 0 at the
    Nyquist mode, where the centred gradient of (-1)^i vanishes exactly.
    """
    theta = 2.0 * np.pi * np.arange(grid.nx // 2 + 1) / grid.nx
    sin = np.sin(theta)
    if grid.nx % 2 == 0:
        sin[-1] = 0.0
    return _kron_form(grid, bmat, sparse.diags(4.0 * np.sin(0.5 * theta) ** 2),
                      sparse.diags(1j * sin / grid.hx))


@dataclass
class DiscreteOperator:
    """Assembled generator: sparse form matrix, masses, and provenance tags.

    The semi-discrete law is w du/dt = -(S u), with S = `form`.
    `bmat` is the 2x2 coefficient matrix S was built from; the stepping
    loop builds its x-mode blocks from it.  The adjoint operator shares
    masses and transposes S and bmat, realizing a*(u, v) = a(v, u) exactly.
    """

    grid: GridSpec
    form: sparse.csr_matrix
    w: np.ndarray
    bmat: np.ndarray
    is_adjoint: bool = False
    label: str = "model"
    meta: dict = field(default_factory=dict)

    def adjoint(self) -> "DiscreteOperator":
        return DiscreteOperator(
            grid=self.grid, form=self.form.T.tocsr(), w=self.w, bmat=self.bmat.T,
            is_adjoint=not self.is_adjoint, label=self.label + "*",
            meta=dict(self.meta),
        )


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
    return DiscreteOperator(
        grid=grid, form=_form_matrix(grid, bmat), w=grid.masses().ravel(), bmat=bmat,
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
    bmat = np.asarray(spec.a_matrix, dtype=float)
    return DiscreteOperator(
        grid=grid, form=_form_matrix(grid, bmat), w=grid.masses().ravel(), bmat=bmat,
        label="general", meta={"gamma": spec.gamma, "m": m},
    )


def _solve_checked(lu, a_k, rhs):
    """Solve the k systems of rhs, shape (k, n), with the factor lu of one n x n matrix.

    a_k is the block diagonal of k copies of that matrix, so one sparse
    product gives every row's residual.  Returns x, shape (k, n), and the
    k relative residuals.  Each system is held to its own |rhs|: a
    residual above SOLVE_RTOL times it, or a non-finite one, raises
    SolveFailure naming its column of the source block.
    """
    out = lu.solve(rhs.T).T
    num = np.abs(a_k @ out.ravel() - rhs.ravel()).reshape(rhs.shape).max(axis=1)
    den = np.abs(rhs).max(axis=1)
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

    The one stepping loop.  x is periodic and the coefficients do not
    depend on x, so one rfft along x splits W + (ht/2) S into nx//2 + 1
    tridiagonal ny x ny blocks, one per x-mode (built by _mode_form from
    the operator's bmat; op.form is not read).  The block is stepped
    entirely in mode space and brought back by irfft only at the
    checkpoints.  Each checkpoint segment takes uniform steps; one
    factorization of the block-diagonal mode matrix (natural order, no
    fill) serves every segment with a bitwise-equal ht and is released
    before the next one is built; every step is one sparse product for
    the explicit half and one multi-right-hand-side solve, whose residual
    is checked in mode space.  Returns the (n, k) states at `times` and
    the run's stats: total `steps`, the `ht` of each segment,
    `factorizations`, the largest `lu_nnz` (the entries SuperLU stores
    for L and U), per column the worst relative step residual
    `max_step_residual`, and the wall time of each phase: `transform_s`
    (rfft and irfft), `factor_s` (mode matrices and factorizations) and
    `solve_s` (the steps).
    """
    segs = [b - a for a, b in zip([0.0] + times[:-1], times)]
    if min(segs) <= 0.0:
        raise StructuralError("checkpoints must be strictly increasing")
    counts = [_segment_steps(op.grid, seg) for seg in segs]
    if sum(counts) > MAX_STEPS:
        raise SolveFailure(f"evolution needs {sum(counts)} time steps, over the "
                           f"budget of MAX_STEPS = {MAX_STEPS}")

    grid, k = op.grid, u.shape[1]
    clock = time.perf_counter
    stats = {"steps": sum(counts), "ht": [], "factorizations": 0, "lu_nnz": 0,
             "transform_s": 0.0, "factor_s": 0.0, "solve_s": 0.0}
    t0 = clock()
    # source-major: row c of u holds the modes of source c, index m * ny + j
    u = np.fft.rfft(u.T.reshape(k, grid.nx, grid.ny), axis=1).reshape(k, -1)
    stats["transform_s"] += clock() - t0
    t0 = clock()
    s_modes = _mode_form(grid, op.bmat)
    w = np.tile(grid.hx * grid.cell_y_masses(), grid.nx // 2 + 1)
    wmat, blocks = sparse.diags(w), sparse.identity(k)
    stats["factor_s"] += clock() - t0
    worst = np.zeros(k)
    states = []
    ht_lu = None
    remaining_rannacher = RANNACHER_STEPS
    for seg, n in zip(segs, counts):
        ht = seg / n
        stats["ht"].append(ht)
        if ht != ht_lu:
            # one factorization per step size; release the old one first
            t0 = clock()
            lu = a_k = explicit_k = None
            a_mat = wmat + (0.5 * ht) * s_modes
            # tridiagonal blocks in natural order: no fill; relax=1 keeps SuperLU
            # from padding supernodes, so lu_nnz counts only L and U
            lu = splu(a_mat.tocsc(), permc_spec="NATURAL", relax=1)
            a_k = sparse.kron(blocks, a_mat, format="csr")
            explicit_k = sparse.kron(blocks, wmat - (0.5 * ht) * s_modes, format="csr")
            ht_lu = ht
            stats["factorizations"] += 1
            stats["lu_nnz"] = max(stats["lu_nnz"], lu.nnz)
            stats["factor_s"] += clock() - t0
        t0 = clock()
        for _ in range(n):
            if remaining_rannacher > 0:
                # two backward-Euler half steps share the CN matrix
                u, res = _solve_checked(lu, a_k, w * u)
                np.maximum(worst, res, out=worst)
                u, res = _solve_checked(lu, a_k, w * u)
                remaining_rannacher -= 1
            else:
                u, res = _solve_checked(lu, a_k, (explicit_k @ u.ravel()).reshape(k, -1))
            np.maximum(worst, res, out=worst)
        stats["solve_s"] += clock() - t0
        t0 = clock()
        states.append(np.fft.irfft(u.reshape(k, -1, grid.ny), n=grid.nx, axis=1)
                      .reshape(k, -1).T)
        stats["transform_s"] += clock() - t0
    stats["max_step_residual"] = worst
    return states, stats


def evolve(op: DiscreteOperator, f: Field, t: float, checkpoints=None):
    """Crank-Nicolson evolution of a field under the discrete semigroup.

    Runs uniform steps per segment between checkpoints (all of one size
    within a segment, which keeps the step propagator identical across
    a run and the adjoint relation exact).  x is periodic, so the field
    is stepped per x-mode on tridiagonal y-blocks, with the residual
    checked in mode space; segments with the same step size share one
    factorization of those blocks, freed when the evolution ends.  The
    first RANNACHER_STEPS CN steps are replaced by pairs of backward-Euler
    half-steps to damp the non-smooth modes of rough data; both schemes
    conserve the discrete mass identically because constants annihilate S
    on the test side.  This is the one-column case of the block stepping
    kernel_columns uses.

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
    y^c dz convention.  x is periodic: the block is taken to x-modes once,
    stepped per mode on tridiagonal y-blocks (one factorization per
    distinct step size, one multi-right-hand-side solve per step, the
    residual checked in mode space) and brought back at the checkpoints;
    the adjoint is exact to FFT round-off relative to the column maximum.
    Returns the k * len(ts) slices source-major (all times of the first
    source, then the next), each with the evolution's stats in `meta`
    (SOLVE_STATS, with the phase wall times) and its own column's worst
    step residual.
    """
    grid = op.grid
    ts = sorted(float(t) for t in np.atleast_1d(ts))
    if not ts or not all(0.0 < t < np.inf for t in ts):  # NaN fails both
        raise DomainError("kernel times must be given, positive and finite")
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
