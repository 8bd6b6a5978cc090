"""Finite-difference semigroup solver on the truncated half-plane.

The generator is discretized from its sesquilinear form on a staggered
tensor grid: y-cells never touch y = 0 (centers at (j+1/2) h_y), the
no-flux closure of the form in y encodes the natural boundary condition
lim y^c D_y u = 0 without ghost points, x is closed periodically, and
the mixed term is kept inside the same form so that transposing its
coefficient matrix realizes the adjoint operator exactly at the
discrete level.

The assembled object is the pair (grid, bmat): the grid and the 2x2
coefficient matrix of the form a(u, v) = int <B grad u, grad v> y^c.
The grid gives the vector w of weighted cell masses and with it the
semi-discrete evolution w du/dt = -S u.
The coefficients do not depend on x, so S is one tridiagonal y-block per
x-Fourier mode (fast diagonalization); _mode_bands builds the real and
imaginary parts of the bands of any set of modes, one row per mode.  B,
the data and the kernel are real, so S_{nx-m} = conj(S_m) and mode
nx - m of the data is the conjugate of mode m: the solver holds the
half spectrum m <= nx/2 of the rfft and returns by the irfft, and
builds complex bands only for the modes it solves.  The data of k
sources is held as (k, nx, ny) cells or (k, nx/2 + 1, ny) modes
(source, x-cell or x-mode, y-cell), from the source deltas to the fused
LAPACK system, the one place where modes are laid end to end; only that
system and the public slice values are flat.  Constants are annihilated by S on
both sides (mode 0 is a pure y-difference form), so constant states are
stationary and total mass Sum(w u) is conserved by the semi-discrete law.

The evolution exp(-t W^{-1} S) is evaluated, not stepped, on one of two
routes chosen from bmat.  A diagonal B (B01 == B10 == 0.0 exactly: the
model at a = 0, a general operator with q = d = 0) gives mode blocks
S_m = K + s_m W that share the eigenvectors of one y-pencil (K, W), so S
is a Kronecker sum and one symmetric tridiagonal eigendecomposition
evaluates the evolution exactly at every time (_separable), as an
x-circulant column times y-products on the source rows: O(nx log nx +
k r ny (ny + nx)) per time for r x-rows holding data (r <= k for kernel
columns).  Any other B takes the contour route: the trapezoid
rule on a hyperbolic Bromwich contour (Weideman & Trefethen 2007) needs
one shifted solve (zW + S)^{-1} per node, shared by every checkpoint of
a window [t0, 4 t0].  An rfft along x takes the data to x-modes, where
each zW + S is tridiagonal and one LAPACK gtsv call factors and solves
it.  Only the live modes are solved: a mode whose logarithmic-norm
bound e^{-kappa_m t0} has taken it below round-off of the column
maximum by the window's first time is left at 0 (_live_modes, which
tests the modes m <= nx/2 and gives nx - m the verdict of m).  A
symmetric B (B01 == B10 exactly: a general operator with
d = (c/gamma) q and c != 0, where B = A) makes every block Hermitian,
so each live pair (m, nx - m) is solved once, as one real-symmetric
block (_fused_system); any other B (an oblique one, B01 != B10) keeps
one block per live mode.  Either way only the Hermitian part
(X_m + conj X_{nx-m}) / 2 of the mode solutions reaches the cells, and
_to_space forms it for m <= nx/2 before the irfft.  On
either layout each node solves one unit column e_j per y-row j that
holds data, not one column per source: a kernel column is a delta, so
all of its x-modes sit on its source's y-row, sources on one row share
a column, and each source's modes are its weighted sums of the unit
solutions (_to_space).  The rule is normalized at lambda = 0, so constants
stay and mass is conserved to round-off.  The returned rule has CONTOUR_NODES + 4 nodes;
the CONTOUR_NODES-node rule guards its time error.
On either route the adjoint is the same function of S', exact to
round-off relative to the column maximum.

Every kernel column takes one path, _evolve_cells: it deduplicates the
caller's times once, puts the discrete delta of each located source cell
into one (k, nx, ny) block, evolves the block once and returns each
source's columns with its own stats and the cell centre it came from.
kernel_columns and kernel_slices each check their request (_request) and
locate its sources (GridSpec.locate) once, then call it, so on either
entry point a request is checked, placed and reordered once.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import zaxpy
from scipy.linalg.lapack import zgtsv

from .errors import DomainError, ParameterError, StructuralError, SolveFailure
from .kernels import A_ZERO_TOL, KernelSlice, tensor_kernel
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
    "kernel_columns",
    "kernel_slices",
    "discrete_gradient",
]

#: relative residual above which a linear solve is declared failed
SOLVE_RTOL = 1e-9

#: nodes of the contour rule that guards the returned rule, which has 4 more
CONTOUR_NODES = 20

#: largest relative difference allowed between the two contour rules
CONTOUR_TOL = 1e-8

#: checkpoints t0 <= t <= WINDOW_RATIO t0 share one contour
WINDOW_RATIO = 4.0

#: Weideman & Trefethen (2007), Sec. 4, for a spectrum on the negative real
#: axis: the hyperbola's angle maximizes the convergence rate
#: (pi^2 - 2 pi alpha) / a(alpha), and h = CONTOUR_SPAN / N = a(alpha) / N
#: and mu = CONTOUR_MU N / t0 follow in closed form
CONTOUR_ALPHA = 1.0969
CONTOUR_SPAN = float(np.arccosh(
    ((np.pi - 2.0 * CONTOUR_ALPHA) * WINDOW_RATIO + 4.0 * CONTOUR_ALPHA - np.pi)
    / ((4.0 * CONTOUR_ALPHA - np.pi) * np.sin(CONTOUR_ALPHA))))
CONTOUR_MU = (4.0 * CONTOUR_ALPHA - np.pi) * np.pi / (WINDOW_RATIO * CONTOUR_SPAN)

#: the evolution stats of a solver column, in its slice's meta
SOLVE_STATS = ("route", "windows", "nodes", "factorizations", "live_modes", "solve_rows",
               "solve_columns", "contour_err", "max_solve_residual", "transform_s", "factor_s",
               "solve_s")


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
        if not (0.0 < self.rx < np.inf and 0.0 < self.ry < np.inf):  # NaN fails both
            raise StructuralError(f"grid extents must be finite and positive, got "
                                  f"rx={self.rx}, ry={self.ry}")
        if not all(isinstance(n, numbers.Integral) and n >= 8
                   for n in (self.nx, self.ny)):
            raise StructuralError(f"grids need an integer count of at least 8 cells per "
                                  f"direction, got nx={self.nx!r}, ny={self.ny!r}")
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
        """The field fn(x, y) on the cell centres, fn called on the open mesh:
        x of shape (nx, 1) and y of shape (1, ny).  Its result must broadcast
        to (nx, ny) (a scalar gives a constant field); it is copied into fresh
        values, so a probe in y alone is evaluated ny times, not nx * ny.
        """
        x, y = np.meshgrid(grid.x_centers, grid.y_centers, indexing="ij", sparse=True)
        values = np.asarray(fn(x, y), dtype=float)
        try:
            values = np.broadcast_to(values, (grid.nx, grid.ny)).copy()
        except ValueError:
            pass  # __post_init__ names the shape that does not match
        return cls(grid, values)

    def mass(self) -> float:
        return float(np.sum(self.grid.masses() * self.values))


def _mode_bands(grid: GridSpec, bmat: np.ndarray, modes: np.ndarray):
    """The discrete form in the x-Fourier modes `modes`: the real and imaginary parts of its bands.

    For a(u,v) = int <B grad u, grad v> y^c, B the real 2x2 constant
    coefficient matrix in the (x, y) gradient pairing (B[0,1] pairs u_y
    with v_x), x closed periodically and y on the staggered grid, mode m
    of the fft along x (theta = 2 pi m / nx) is one tridiagonal ny x ny
    block (fast diagonalization, Lynch, Rice & Thomas 1964).  The x
    symbols are 2 - 2 cos theta for the circulant Dx'Dx and g = i s for
    the centred gradient, s = sin(theta) / hx; sin(theta) is set to 0 at
    the Nyquist mode, where the centred gradient of (-1)^i vanishes
    exactly.  With yf the weight y^c on the interior y-faces, yl / yr the
    face weight below / above each cell (0 at the ends) and Z the cell
    integrals of y^c, the block's diagonal is even + i odd and its
    super-diagonal stiff + i skew, the sub-diagonal the conjugate of it:

        even  = (B00/hx)(2 - 2 cos theta) Z + B11 (hx/hy)(yl + yr)
        odd   = hx/2 (B10 - B01) s (yl - yr)
        stiff = -B11 (hx/hy) yf
        skew  = -hx/2 (B01 + B10) s yf

    These are the fft along x of the cell-space Kronecker sum (README,
    "Numerical notes"): the (u_y, v_x) pairing sits on the interior
    y-faces as the face difference of u times the face average of the
    x-gradient of v, and (u_x, v_y) is its transpose.  The Hermitian part
    of a block (the block of (B + B')/2) has the diagonal `even` and the
    super-diagonal stiff + i skew, so a symmetric B (odd = 0) gives
    Hermitian blocks; s is odd in m, so S_{nx-m} = conj(S_m) for every
    real B.  Returns the real arrays `even` and `odd` of shape
    (modes, ny), `stiff` of shape (ny - 1,), the same for every mode, and
    `skew` of shape (modes, ny - 1), where entry j couples cells j and
    j + 1.  Each term is evaluated in the order of the complex product
    (hx/2) (B01 conj(g) + B10 g) (yl - yr), with s formed as
    sin(theta) (1 / hx) the way numpy divides i sin(theta) by hx, so the
    bands agree bit for bit with that complex formula.  Every row and
    column of mode 0 sums to 0, so constants are stationary and mass is
    conserved; transposing B conjugate-transposes every block.
    """
    hx, hy = grid.hx, grid.hy
    theta = 2.0 * np.pi * modes / grid.nx
    s = np.where(2 * modes == grid.nx, 0.0, np.sin(theta))[:, None] * (1.0 / hx)
    yf = grid.y_faces[1:-1] ** grid.c
    yl, yr = np.append(0.0, yf), np.append(yf, 0.0)
    even = ((bmat[0, 0] / hx) * (4.0 * np.sin(0.5 * theta) ** 2)[:, None] * grid.cell_y_masses()
            + bmat[1, 1] * (hx / hy) * (yl + yr))
    odd = 0.5 * hx * (bmat[1, 0] * s - bmat[0, 1] * s) * (yl - yr)
    skew = 0.5 * hx * (-bmat[0, 1] * s - bmat[1, 0] * s) * yf
    return even, odd, -bmat[1, 1] * (hx / hy) * yf, skew


@dataclass
class DiscreteOperator:
    """Assembled generator (grid, bmat): the grid and the 2x2 coefficients.

    The semi-discrete law is w du/dt = -(S u), where S is the discrete
    form of the 2x2 coefficient matrix `bmat`, one tridiagonal y-block
    per x-Fourier mode (_mode_bands), and w the grid's weighted cell
    masses.  The adjoint operator shares the grid and transposes bmat,
    which conjugate-transposes every mode block and realizes
    a*(u, v) = a(v, u) exactly.
    """

    grid: GridSpec
    bmat: np.ndarray

    def adjoint(self) -> "DiscreteOperator":
        return replace(self, bmat=self.bmat.T)


def _oblique_form(grid: GridSpec, m: float, a_matrix, beta: float) -> DiscreteOperator:
    """The one assembly formula: B = [[Q, 2q - beta], [beta, gamma]] on a grid of weight m.

    With A = [[Q, q], [q, gamma]] and m = c/gamma, the form int <B grad u,
    grad v> y^m is y^{-m} div(y^m B grad u) = Tr(A D^2 u) + m (beta u_x +
    gamma u_y)/y, since the symmetric part of B is A; the drift is
    v = (d, c) when m beta = d.  The natural condition of the form is
    y^m (beta u_x + gamma u_y) -> 0: for m != 0 that is y^m <v, grad u>
    -> 0, the oblique-derivative condition along v, and for beta = 0
    (d = 0) the Neumann condition u_y -> 0.
    """
    if grid.c != m:
        raise StructuralError(f"grid weight c={grid.c} does not match the operator's c/gamma={m}")
    (qq, q), (_, gamma) = a_matrix
    return DiscreteOperator(grid, np.array([[qq, 2.0 * q - beta], [beta, gamma]]))


def assemble(model: ModelOperatorSpec, grid: GridSpec) -> DiscreteOperator:
    """Discrete generator for the model operator on the given grid.

    The model is the general operator with Q = gamma = 1, q = a and d = 0,
    so beta = 0 and _oblique_form gives B = [[1, 2a], [0, 1]], whose
    natural condition is y^c u_y -> 0 (u_y -> 0 at c = 0).
    """
    if model.n != 1:
        raise StructuralError("the desk-scale solver supports N = 1 only")
    a = float(model.a[0])
    return _oblique_form(grid, model.c, [[1.0, a], [a, 1.0]], 0.0)


def assemble_divergence_form(spec: GeneralOperatorSpec, grid: GridSpec) -> DiscreteOperator:
    """Direct discretization of any admissible N = 1 general operator, in weighted divergence form.

    Tr(A D^2 u) + (d u_x + c u_y)/y is y^{-m} div(y^m B grad u) with m =
    c/gamma and B = [[Q, 2q - beta], [beta, gamma]] (_oblique_form), whose
    natural condition at y = 0 is the oblique one, y^m <v, grad u> -> 0:
    - beta = q on the divergence subfamily |d - m q| <= 1e-13 (m != 0),
      so that B is A bit for bit and symmetric;
    - beta = 0 at c = 0, where admissibility forces d = 0: the condition
      is then Neumann, u_y -> 0, the one the reduction route of
      kernel_slices solves;
    - beta = d/m otherwise (0 when d = 0).
    The grid's weight must be m.  An inadmissible spec raises
    ParameterError, N != 1 or a grid of another weight StructuralError.
    """
    report = validate_general(spec)
    if not report.passed:
        raise ParameterError("inadmissible spec: " + ", ".join(report.failures()))
    if spec.n != 1:
        raise StructuralError("the desk-scale solver supports N = 1 only")
    m, q, d = spec.c / spec.gamma, float(spec.q_vec[0]), float(spec.d[0])
    beta = 0.0 if m == 0.0 else q if abs(d - m * q) <= 1e-13 else d / m
    return _oblique_form(grid, m, spec.a_matrix, beta)


def _contour(n: int, t0: float):
    """Nodes z_k and weights c_k of the n-node rule for the window [t0, WINDOW_RATIO t0].

    Midpoint nodes u_k = (k + 1/2) h, k < n, h = CONTOUR_SPAN / n, on the
    upper half of z(u) = mu (1 + sin(iu - CONTOUR_ALPHA)), mu = CONTOUR_MU n / t0.
    The lower half is the complex conjugate, so a real result is
    Re sum_k c_k e^{z_k t} F(z_k) with c_k = h z'(u_k) / (pi i).
    """
    h = CONTOUR_SPAN / n
    u = (np.arange(n) + 0.5) * h
    mu = CONTOUR_MU * n / t0
    z = mu * (1.0 + np.sin(1j * u - CONTOUR_ALPHA))
    return z, (h * mu / np.pi) * np.cos(1j * u - CONTOUR_ALPHA)


def _windows(times):
    """Sorted times grouped greedily into windows [t0, WINDOW_RATIO t0]."""
    out = []
    for t in times:
        if out and t <= WINDOW_RATIO * out[-1][0]:
            out[-1].append(t)
        else:
            out.append([t])
    return out


def _contour_sum(bands, w, rhs, window, n, stats, worst, owners=None):
    """The n-node rule in mode space for every time of one window.

    `bands` are the sub-, main and super-diagonal of a fused system
    (_fused_system): each node's matrix z W + S is tridiagonal over all
    of its rows, and its factors serve only that node, so one fused LAPACK
    call (zgtsv) factors it and solves for all r = worst.size columns of
    rhs, shape (rows, r), at once; nonzero `info` (an exactly singular
    pivot) raises SolveFailure.  The residual is formed from the three
    diagonals; its maxima are kept per node and column, and after the
    last node each is held to its own column's |rhs|: above SOLVE_RTOL
    times it, or non-finite, it raises SolveFailure naming the caller's
    column owners[j] of rhs column j (j itself without `owners`; the
    first failing node's first), and otherwise the worst relative
    residual of each column goes into `worst`.  The coefficients
    c_k e^{z_k t} of all nodes and times come from one outer product.
    Returns the sums per time, shape (r, rows), each divided by the
    rule's own value at lambda = 0, which is what makes mass exact.
    """
    lower, diag, upper = bands
    clock = time.perf_counter
    z, c = _contour(n, window[0])
    coef = c[:, None] * np.exp(np.outer(z, window))  # c_k e^{z_k t}, shape (n, len(window))
    den = np.abs(rhs).max(axis=0)
    num = np.empty((n, rhs.shape[1]))
    acc = np.zeros((len(window), rhs.shape[1], rhs.shape[0]), dtype=complex)
    for zk, coef_k, num_k in zip(z, coef, num):
        t0 = clock()
        node_diag = diag + zk * w
        *_, x, info = zgtsv(lower, node_diag, upper, rhs)
        stats["factorizations"] += 1
        stats["factor_s"] += clock() - t0
        if info != 0:
            raise SolveFailure(f"contour node z = {zk:.4g}: singular mode matrix")
        t0 = clock()
        res = node_diag[:, None] * x - rhs
        res[1:] += lower[:, None] * x[:-1]
        res[:-1] += upper[:, None] * x[1:]
        num_k[:] = np.abs(res).max(axis=0)
        for acc_t, a in zip(acc, coef_k):
            zaxpy(x.T.ravel(), acc_t.ravel(), a=a)  # in place
        stats["solve_s"] += clock() - t0
    # NaN or inf in the data or the solution leaves a non-finite residual
    bad = ~np.isfinite(num) | ((den > 0.0) & (num > SOLVE_RTOL * den))
    if np.any(bad):
        node, j = np.argwhere(bad)[0]
        raise SolveFailure(f"linear solve residual {num[node, j]:.3e} in column "
                           f"{j if owners is None else owners[j]} exceeds "
                           f"{SOLVE_RTOL:.0e} x |rhs| = {den[j]:.3e}")
    np.maximum(worst, np.divide(num.max(axis=0), den, out=np.zeros_like(den), where=den > 0.0),
               out=worst)
    return [a / np.real(np.sum(coef[:, i] / z)) for i, a in enumerate(acc)]


def _live_modes(parts, w, rhs, t0: float) -> np.ndarray:
    """The x-modes of rhs that can still move a value at some t >= t0, a mask of shape (nx,).

    `parts` are _mode_bands' real parts of the modes 0..nx/2, the weights
    `w` have shape (nx, ny), and `rhs` holds W U_m(0) of those modes,
    shape (k, nx/2 + 1, ny), as _evolve_block builds it from the rfft.
    Re<S_m v, v> = <H_m v, v> for H_m the Hermitian part of the mode
    block (the block of (B + B')/2: the skew part of B gives
    skew-Hermitian blocks), whose diagonal is `even` and whose
    off-diagonal has the modulus |stiff + i skew|.  So
    |U_m(t)|_W <= e^{-kappa_m t} |U_m(0)|_W with kappa_m the least
    eigenvalue of the pencil (H_m, W) (the logarithmic norm, Soederlind
    2006).  Mode m is dead when H_m - K_m W is positive definite, tested
    by the signs of the LDL' pivots of that Hermitian tridiagonal for the
    modes 0..nx/2 at once, in real arithmetic, one contiguous row of
    modes per y-cell, with

        K_m = log(sum(w) max_col(|U_m(0)|_W / |mass|) / (eps sqrt(min w))) / t0.

    Then one dead mode moves no value at t >= t0 by more than
    eps |mass| / (nx sum(w)) (the inverse transform divides by nx), the
    at most nx dead modes together by eps |mass| / sum(w), and mass
    conservation makes that at most eps times the column maximum.  Mode
    nx - m has the conjugate block and data of mode m (real B, real
    data), so the same H_m spectrum and norm, and takes mode m's verdict:
    the mask is symmetric, live[m] == live[-m % nx].  Mode 0 (the mass)
    is always live; zero-mass or non-finite data keeps every mode
    (_evolve_block refuses non-finite data before it gets here).
    """
    even, _, stiff, skew = parts
    nx, wy = len(w), w[0]  # the same weights for every mode
    mass = rhs[:, 0].real.sum(axis=1)
    if not (np.all(np.isfinite(rhs)) and np.all(mass != 0.0)):
        return np.ones(nx, dtype=bool)
    norm = np.sqrt(np.abs(rhs) ** 2 @ (1.0 / wy))  # |U_m(0)|_W, shape (k, nx/2 + 1)
    ratio = (norm / np.abs(mass)[:, None]).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # K_m = -inf for a mode without data
        rate = np.log(w.sum() * ratio / (np.finfo(float).eps * np.sqrt(wy.min()))) / t0  # K_m
        # the diagonal of H_m - K_m W, row j the y-cell j of every mode, turned
        # into the pivots in place, and the |off-diagonal|^2 of H_m
        pivot = np.ascontiguousarray(even.T) - wy[:, None] * rate
        off2 = np.ascontiguousarray(np.hypot(stiff, skew).T) ** 2
        for j in range(1, wy.size):
            pivot[j] -= off2[j - 1] / pivot[j - 1]
    dead = np.all(pivot > 0.0, axis=0)
    dead[0] = False
    return ~dead[np.minimum(np.arange(nx), nx - np.arange(nx))]


def _fused_system(op: DiscreteOperator, w, rhs, rows, live):
    """The tridiagonal system every node of one window solves, and its layout.

    The weights have shape (nx, ny), rhs (k, nx/2 + 1, ny) (the rfft
    modes) and `rows` lists the r y-rows where some source holds data;
    this is the one place where modes are laid end to end, the solved
    modes' blocks (_mode_bands, built here for those modes only) in mode
    order as the rows of one flat system.  Its right-hand side has one
    unit column per row j of `rows`, e_j in every solved block, so
    sources that share a y-row share a column: source s puts
    rhs[s, m, :] = sum_j beta[s, m, j] e_j on mode m, and the solution is
    the same sum of the unit solutions.  The data are real, so only the
    Hermitian part 1/2(X_m + conj X_{nx-m}) of the mode solutions X
    reaches the cells, and with beta[s, nx-m] = conj(beta[s, m]) it is
    sum_j beta[s, m, j] 1/2(Y_{m,j} + conj Y_{nx-m,j}) for Y_{m,j} the unit
    solutions of mode m: _to_space forms that for the modes m <= nx/2
    from the weights of those modes alone.

    Unpaired (an oblique op.bmat, B01 != B10): every live mode of the
    symmetric mask `live`, shape (nx,), is one block, and the Hermitian
    part of mode m pairs the unit sums of the blocks m and nx - m.

    Paired (B01 == B10): S_{nx-m} = conj(S_m) and S_m is Hermitian, so
    the live modes m <= nx/2 are solved alone, each as the real-symmetric
    block R_m = P_m* S_m P_m with the real diagonal of S_m and |e_j| off
    it, for e_j the super-diagonal of S_m and P_m the diagonal unitary
    phase p_0 = 1, p_{j+1} = p_j conj(e_j) / |e_j|.  Then
    zW + S_m = P_m (zW + R_m) P_m* and zW + S_{nx-m} = conj(P_m) (zW + R_m) P_m,
    and P_m* e_j = conj(p_j) e_j, so with y_j = (zW + R_m)^{-1} e_j the
    Hermitian part of mode m is P_m sum_j beta[s, m, j] conj(p_j) Re y_j:
    block m's unit sums are their own partner's.

    Returns the system's bands, weights and unit columns (Fortran order,
    as zgtsv takes them) and the layout that _to_space takes: the modes
    m <= nx/2 solved (the first ones of the system), the position in the
    system of each one's partner nx - m, the phases (P_m of shape
    (modes, ny), 1 unpaired) and the weights of shape (modes, k, r), with
    conj(p_j) in them when paired.
    """
    nx, ny = w.shape
    paired = op.bmat[0, 1] == op.bmat[1, 0]  # Hermitian blocks, S_{nx-m} = conj(S_m)
    modes = np.flatnonzero(live[:nx // 2 + 1] if paired else live)
    even, odd, stiff, skew = _mode_bands(op.grid, op.bmat, modes)
    upper = np.zeros((modes.size, ny), dtype=complex)  # each block's super-diagonal, then 0
    upper[:, :-1] = stiff + 1j * skew
    half = modes[:np.searchsorted(modes, nx // 2, side="right")]
    beta = np.moveaxis(rhs[:, half[:, None], rows], 1, 0)  # (half modes, k, r)
    if not paired:
        sub, phase = (upper.conj(), even + 1j * odd, upper), 1.0
        partner = np.searchsorted(modes, -half % nx)
    else:
        size = np.abs(upper)
        unit = np.divide(upper.conj(), size, out=np.ones_like(upper), where=size > 0.0)
        phase = np.ones_like(upper)
        phase[:, 1:] = np.cumprod(unit[:, :-1], axis=1)
        off = size.astype(complex)
        sub, partner = (off, even.astype(complex), off), np.arange(modes.size)
        beta = phase[:, None, rows].conj() * beta
    units = np.zeros((rows.size, modes.size, ny), dtype=complex)
    units[np.arange(rows.size), :, rows] = 1.0
    lower, diag, upper = (band.ravel() for band in sub)
    # column c of the system is unit column c, its modes end to end: (rows, columns), Fortran order
    return ((lower[:-1], diag, upper[:-1]), w[modes].ravel(),
            units.reshape(rows.size, -1).T, (half, partner, phase, beta))


def _to_space(sums, layout, shape) -> np.ndarray:
    """Cell values, shape (k, nx, ny), of the sums of a fused system, the modes not solved 0.

    `layout` is _fused_system's (half, partner, phase, weights) and
    `shape` is (nx, ny).  Each row of `sums` is the sum of one unit
    column, its solved modes end to end.  For each mode m <= nx/2 solved
    this forms the Hermitian part H = 1/2(Y_m + conj Y_{nx-m}) of the unit
    sums (Re Y_m when paired, where the phases P_m go back on), each
    source's weighted sum of it over the rows, and returns the irfft of
    the half spectrum, once per time.
    """
    half, partner, phase, weights = layout
    nx, ny = shape
    sums = sums.reshape(len(sums), -1, ny)
    herm = phase * (0.5 * (sums[:, :half.size] + sums[:, partner].conj()))  # (r, modes, ny)
    out = np.zeros((weights.shape[1], nx // 2 + 1, ny), dtype=complex)
    # per solved mode, the (k, r) weights times the (r, ny) Hermitian parts
    out[:, half] = np.swapaxes(weights @ herm.swapaxes(0, 1), 0, 1)
    return np.fft.irfft(out, n=nx, axis=1)


def _separable(op: DiscreteOperator, u: np.ndarray, times):
    """exp(-t W^{-1} S) of the k sources of u, shape (k, nx, ny), for a diagonal bmat, exactly.

    With B01 = B10 = 0 every mode block of _mode_bands is real,
    S_m = K + s_m W in y (K mode 0's block, W the y-cell weights, s_m the
    x symbol of mode m times B00 / hx^2), so S is the Kronecker
    sum of an x and a y operator and all modes share the eigenvectors of
    the pencil (K, W).  So e^{-t W^{-1} S} is the x-circulant e^{-t A_x},
    A_x the circulant of symbol s_m, times the y-evolution, and one
    symmetric tridiagonal eigendecomposition
    C = W^{-1/2} K W^{-1/2} = Q diag(mu) Q' (LAPACK stemr) gives

        u(t)[i] = sum_r g_t[(i - i_r) mod nx] W^{-1/2} Q e^{-t mu} Q' W^{1/2} u0[i_r]

    for every column and time, with no contour, window or mode pruning:
    i_r runs over the x-rows where some source of u is nonzero (one row
    per delta source, r of them) and g_t = irfft(e^{-t s_m}) is column 0
    of e^{-t A_x}.  The y-products run on those r rows only, so a time
    costs O(nx log nx + k r ny (ny + nx)) instead of the
    O(k nx ny (ny + log nx)) of evolving all nx rows in x-modes.  The
    entries of g_t and of the y-factor below tiny / eps (decayed through
    the subnormal range) are set to 0: they move no value by more than r
    times that times the other factor's largest entry (g_t <= 1, since
    e^{-t A_x} is doubly stochastic), and subnormal products run about 4
    times slower.  The pencil (mode 0's `even` and `stiff`) and the
    symbols s_m of the modes m <= nx/2 that the irfft reads are taken from
    _mode_bands' real parts, in real arithmetic; no complex band is built.
    A non-finite C and a relative eigen-residual
    max|C Q - Q diag(mu)| / max|mu| above SOLVE_RTOL raise SolveFailure
    (_evolve_block has refused non-finite data).

    Returns the (k, nx, ny) states at `times` and the stats of _evolve_block:
    `route` "separable", no windows, nodes or factorizations, all nx
    `live_modes`, ny `solve_rows` (the one y-block decomposed), 0
    `solve_columns` (there is no fused solve), `contour_err` 0 and the eigen-residual as every column's
    `max_solve_residual`; `factor_s` is the real bands and the decomposition,
    `transform_s` the x-factor (g_t and its circulant entries), and
    `solve_s` the y-products and the product of the two factors.
    """
    k, nx, ny = u.shape
    clock = time.perf_counter
    t0 = clock()
    even, _, stiff, _ = _mode_bands(op.grid, op.bmat, np.arange(nx // 2 + 1))  # the modes rfft keeps
    wy = op.grid.masses()[0]  # the same weights for every mode
    rate = (even - even[0]).sum(axis=1) / wy.sum()  # s_m, 0 for mode 0
    root = np.sqrt(wy)
    d, e = even[0] / wy, stiff / (root[:-1] * root[1:])
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise SolveFailure("non-finite y-block of the separable operator")
    mu, q = eigh_tridiagonal(d, e, lapack_driver="stemr")
    cq = d[:, None] * q - q * mu
    cq[:-1] += e[:, None] * q[1:]
    cq[1:] += e[:, None] * q[:-1]
    residual = np.abs(cq).max() / np.abs(mu).max()
    if not residual <= SOLVE_RTOL:
        raise SolveFailure(f"eigen-residual {residual:.3e} of the y-block exceeds "
                           f"{SOLVE_RTOL:.0e} x max|mu|")
    stats = {"route": "separable", "windows": 0, "nodes": 0, "factorizations": 0,
             "live_modes": nx, "solve_rows": ny, "solve_columns": 0, "contour_err": np.zeros(k),
             "max_solve_residual": np.full(k, residual), "factor_s": clock() - t0}
    t0 = clock()
    rows = np.flatnonzero(np.any(u != 0.0, axis=(0, 2)))  # x-rows holding data
    # the y-products run in einsum's own loop, not a threaded BLAS gemm, whose
    # second thread can hold every call for a scheduler tick on a busy host
    v = np.einsum("krj,jl->krl", u[:, rows] * root, q, optimize=False)
    solve_s = clock() - t0
    offset = (np.arange(nx)[:, None] - rows) % nx  # circulant entry (i, rows[r])
    flush = np.finfo(float).tiny / np.finfo(float).eps
    transform_s, states = 0.0, []
    for t in times:
        t0 = clock()
        gx = np.fft.irfft(np.exp(-t * rate), n=nx)  # column 0 of e^{-t A_x}
        gx[np.abs(gx) < flush] = 0.0
        ex = gx[offset]
        t1 = clock()
        y = np.einsum("krj,lj->krl", v * np.exp(-t * mu), q, optimize=False) / root
        y[np.abs(y) < flush] = 0.0
        states.append(np.einsum("ir,krj->kij", ex, y, optimize=False))
        transform_s += t1 - t0
        solve_s += clock() - t1
    stats.update(transform_s=transform_s, solve_s=solve_s)
    return states, stats


def _evolve_block(op: DiscreteOperator, u: np.ndarray, times):
    """exp(-t W^{-1} S) of the k sources of u, shape (k, nx, ny), at each of the increasing `times`.

    Non-finite data raises SolveFailure naming its column (source) first,
    on either route.  A diagonal bmat (B01 == B10 == 0.0 exactly: the
    model at a = 0, a general operator with q = d = 0) makes S a
    Kronecker sum, evaluated exactly by _separable.  Any other bmat takes
    the contour route: the trapezoid rule on a hyperbolic Bromwich
    contour, u(t) = (1/2 pi i) int e^{zt} (zW + S)^{-1} W u0 dz (Weideman &
    Trefethen 2007; see _contour).  x is periodic and the coefficients do
    not depend on x, so the x-modes split every zW + S into one
    tridiagonal block per mode (_mode_bands).  The data and the kernel
    are real and B is real, so S_{nx-m} = conj(S_m) and mode nx - m of
    the data is the conjugate of mode m: one rfft along axis 1 of u
    holds the data of the modes m <= nx/2, and nothing is built, tested
    or transformed for the others.  Checkpoints are grouped into windows
    [t0, WINDOW_RATIO t0]; one set of shifted solves serves every time of
    a window.  Per window only the live modes (_live_modes, tested on
    the half spectrum from _mode_bands' real parts and mirrored, so the
    mask is symmetric) are solved: _fused_system builds the complex
    blocks of the modes it solves and lays them and the weights end to
    end as one flat system, whose right-hand side is one unit column e_j
    per y-row j that holds data (r columns for r distinct rows, so
    r <= k for kernel columns, and all-zero data solves one column of
    zero weight), and _to_space forms the Hermitian part of the unit
    sums for the modes m <= nx/2, weights it by each source's data on
    those rows and takes the irfft, so the dropped modes move no value
    by more than machine epsilon times the column maximum.  When
    op.bmat[0, 1] == op.bmat[1, 0] exactly, the blocks are Hermitian and
    each node solves only the live modes m <= nx/2, as the
    real-symmetric blocks R_m = P_m* S_m P_m, whose unit solutions serve
    mode m and its partner nx - m.  Any other bmat keeps one block per
    live mode over 0..nx-1.  Each window is evaluated with
    CONTOUR_NODES and CONTOUR_NODES + 4 nodes; the finer result is
    returned, and a relative difference above CONTOUR_TOL raises
    SolveFailure.  The rule's error falls about 240-fold per 4 nodes until
    it meets round-off near 20 nodes, so the difference of the two rules
    bounds the coarser rule's error and the returned rule is the better.
    Both rules are normalized by their value at lambda = 0, so constants
    stay and mass is conserved to round-off: 1'S = 0 gives
    mass(t) = r(0) mass(0) for the rule's rational function r.

    Returns the (k, nx, ny) states at `times` and the run's stats: `route`
    ("contour" here, "separable" from _separable), `windows`,
    `nodes` (of the returned rule, per window), `factorizations`,
    `live_modes` (the live x-modes over 0..nx-1, summed over windows), `solve_rows`
    (the rows of each node's fused factor-solve, summed over windows: ny
    per live mode m <= nx/2 when paired, ny per live mode otherwise),
    `solve_columns` (the unit columns of each node's solve), per column
    the relative difference of the two rules `contour_err` and the worst
    relative solve residual `max_solve_residual` over the unit columns of
    its rows (a residual above SOLVE_RTOL names the first source whose
    data use the failing column's row), and the wall
    time of each phase: `transform_s` (rfft and irfft), `factor_s` (mode
    bands, the live-mode test, the fused system and the
    factor-solves) and `solve_s` (residuals and sums).
    """
    bad = ~np.all(np.isfinite(u), axis=(1, 2))
    if np.any(bad):
        raise SolveFailure(f"non-finite data in column {int(np.argmax(bad))}")
    if op.bmat[0, 1] == 0.0 and op.bmat[1, 0] == 0.0:
        return _separable(op, u, times)
    k, nx, ny = u.shape
    coarse, fine = CONTOUR_NODES, CONTOUR_NODES + 4
    used = np.any(u != 0.0, axis=1)  # (k, ny): the y-rows of each source's data
    rows = np.flatnonzero(used.any(axis=0))
    if rows.size == 0:  # all-zero data: one unit column of zero weight keeps the shapes
        rows = np.zeros(1, dtype=int)
    owners = used[:, rows].argmax(axis=0)  # the first source that uses each row
    clock = time.perf_counter
    stats = {"route": "contour", "windows": 0, "nodes": fine, "factorizations": 0,
             "live_modes": 0, "solve_rows": 0, "solve_columns": rows.size, "transform_s": 0.0,
             "factor_s": 0.0, "solve_s": 0.0}
    t0 = clock()
    rhs = np.fft.rfft(u, axis=1)  # rhs[c, m] holds x-mode m <= nx/2 of source c
    stats["transform_s"] += clock() - t0
    t0 = clock()
    parts = _mode_bands(op.grid, op.bmat, np.arange(nx // 2 + 1))  # for the live-mode test
    w = op.grid.masses()  # constant along x, so the same weights for every x-mode
    rhs = w[0] * rhs
    stats["factor_s"] += clock() - t0
    worst, err = np.zeros(rows.size), np.zeros(k)
    states = []
    for window in _windows(times):
        stats["windows"] += 1
        t0 = clock()
        live = _live_modes(parts, w, rhs, window[0])
        sub, sub_w, units, layout = _fused_system(op, w, rhs, rows, live)
        stats["live_modes"] += int(live.sum())
        stats["solve_rows"] += sub_w.size
        stats["factor_s"] += clock() - t0
        sums = {n: _contour_sum(sub, sub_w, units, window, n, stats, worst, owners)
                for n in (coarse, fine)}
        t0 = clock()
        for a, b in zip(sums[coarse], sums[fine]):
            a, b = (_to_space(v, layout, (nx, ny)) for v in (a, b))
            top = np.abs(b).max(axis=(1, 2))
            diff = np.divide(np.abs(a - b).max(axis=(1, 2)), top, out=np.zeros(k),
                             where=top > 0.0)
            np.maximum(err, diff, out=err)
            states.append(b)
        stats["transform_s"] += clock() - t0
    if not np.all(err <= CONTOUR_TOL):
        j = int(np.argmax(~(err <= CONTOUR_TOL)))
        raise SolveFailure(f"contour rules of {coarse} and {fine} nodes differ by {err[j]:.3e} "
                           f"in column {j}, over CONTOUR_TOL = {CONTOUR_TOL:.0e}")
    stats["contour_err"] = err
    stats["max_solve_residual"] = np.where(used[:, rows], worst, 0.0).max(axis=1)
    return states, stats


def _request(ts, sources):
    """The checked times (floats) and sources (shape (k, 2)) of a kernel request.

    No time, a time that is not positive and finite, or no source raises
    DomainError.  `sources` is one point (x, y) or a sequence of them,
    checked one by one, so a ragged list raises StructuralError naming the
    source that is not one point, like any other such source.
    """
    ts = [float(t) for t in np.atleast_1d(ts)]
    if not ts or not all(0.0 < t < np.inf for t in ts):  # NaN fails both
        raise DomainError("kernel times must be given, positive and finite")
    sources = list(sources) if np.iterable(sources) else [sources]
    if not sources:
        raise DomainError("no kernel sources given")
    if all(np.ndim(v) == 0 for v in sources):  # one point
        sources = [sources]
    for z in sources:
        if np.shape(z) != (2,):
            raise StructuralError(f"kernel source {np.asarray(z).tolist()} is not one point (x, y)")
    return ts, np.array(sources, dtype=float)


def _evolve_cells(op: DiscreteOperator, ts, cells):
    """The one evolution of kernel columns: the discrete deltas of `cells` at the times `ts`.

    `ts` are checked times in any order and `cells` the (i, j) cells of k
    sources, as GridSpec.locate gives them; this is the one place where a
    cell becomes a column and the point that column came from.  Each
    distinct time is evaluated once: the initial state holds the discrete
    delta 1/w at each cell as one source of a (k, nx, ny) block, so the
    columns are already in the y^c dz convention, and one _evolve_block
    call evolves them all.  Returns per source its flat columns at the
    caller's times (in the order of grid.points(); a repeated time repeats
    its column), its stats (the evolution's, with its own column's
    `contour_err` and `max_solve_residual` as floats) and its cell's
    centre, where the source snapped.
    """
    grid = op.grid
    times, order = np.unique(ts, return_inverse=True)
    w = grid.masses()
    init = np.zeros((len(cells), grid.nx, grid.ny))
    for col, (i, j) in enumerate(cells):
        init[col, i, j] = 1.0 / w[i, j]
    states, stats = _evolve_block(op, init, times.tolist())
    own = ("contour_err", "max_solve_residual")  # per column
    return [([states[n][col].reshape(-1) for n in order],
             {**stats, **{key: float(stats[key][col]) for key in own}},
             np.array([grid.x_centers[i], grid.y_centers[j]])) for col, (i, j) in enumerate(cells)]


def kernel_columns(op: DiscreteOperator, ts, z2) -> list[KernelSlice]:
    """Kernel slices p(t, ., z2) for several times and sources from one evolution.

    `z2` is one source point (x, y) or a sequence of k of them; _request
    checks them and the times once, grid.locate finds each source's cell
    once, and _evolve_cells evolves the discrete deltas of all of them
    together, each distinct time once.  Each slice's `source` is its
    cell's centre and its values are that source's (nx, ny) state, flat in
    the order of grid.points(), with the cell masses as `weights`.  x is
    periodic.  A diagonal bmat is evaluated exactly from one
    y-eigendecomposition for all sources and times, as an x-circulant
    column times y-products on the source rows (_separable); any other
    bmat takes the block to x-modes once and is evaluated on a Bromwich
    contour per window of checkpoints (one fused tridiagonal factor-solve
    of the live x-modes per node for all sources at once, with one unit
    column per distinct source y-row, so sources on one row share a
    column; the residual checked in mode space; the half spectrum of the
    rfft; with a symmetric bmat one solve per Hermitian pair of modes, see
    _evolve_block), where the modes left out move no value by more than
    machine epsilon times the column maximum.  The adjoint is exact to
    round-off relative to the column maximum.  Returns the k * len(ts)
    slices source-major, each source's times in the caller's order (a
    repeated time repeats its column), each with the grid and the
    evolution's stats in `meta` (SOLVE_STATS: the route, windows, nodes,
    factorizations, live modes, solve rows and columns and phase wall times of the
    evolution) and its own column's `contour_err` and worst solve residual
    (on the separable route 0 and the eigen-residual).  A contour error
    above CONTOUR_TOL, non-finite data or a failed eigendecomposition
    raises SolveFailure.
    """
    grid = op.grid
    ts, sources = _request(ts, z2)
    cols = _evolve_cells(op, ts, [grid.locate(z) for z in sources])
    points, weights = grid.points(), grid.masses().ravel()
    return [KernelSlice(t=t, source=centre, points=points, values=u, c=grid.c, weights=weights,
                        meta={"grid": grid, **stats})
            for values, stats, centre in cols for t, u in zip(ts, values)]


def kernel_slices(spec: GeneralOperatorSpec, ts, sources, rx: float, ry: float,
                  nx: int, ny: int) -> list[KernelSlice]:
    """Kernel slices p(t, ., z2) of a general operator, t-major over ts x sources.

    Every check comes first, before any kernel work: N = 1 whatever the
    sources' shape (StructuralError), then _request checks the times and
    sources, the operator is reduced once (ParameterError if
    inadmissible), a model time time_scale * t that underflows to 0 or
    overflows raises DomainError, the model grid on [-rx, rx] x (0, ry]
    checks itself, and each source's model image is located on it, once
    (DomainError if it lies off the grid, on either route).

    The times keep the caller's order (a repeated time repeats its
    slices).  One reduction and one model grid serve every slice, which
    samples the model cell centres mapped back once.  Each distinct model
    time time_scale * t is evaluated once, on the route the reduced
    operator fixes: the closed form when |a| <= A_ZERO_TOL, evaluated at
    the requested model source on the tensor grid of cell centres by
    tensor_kernel (bit-identical to product_kernel at the cell centres)
    once per distinct time and source; otherwise one assembly and one
    _evolve_cells call on the located cells, which evolves all sources
    together (the same path as kernel_columns, without its second check).
    All slices share one `points` array, so write_csv formats it once per
    run.  Values are mapped back by map_kernel_value, which is exact for
    the identity reduction.  A slice's `source` is the point its column
    came from: the requested source for the closed form, the snapped cell
    centre mapped back once for the solver; meta holds the method, the
    requested source, the snap offset in model cells (0 for the closed
    form), the reduction (`time_scale` and the model's `a` and `c`) and,
    for solver columns, the mass defect against the grid's cell masses and
    the SOLVE_STATS of the evolution.
    """
    if spec.n != 1:
        raise StructuralError("kernel slices are defined for N = 1")
    ts, sources = _request(ts, sources)
    red = reduce_to_model(spec)
    model_ts = [red.time_scale * t for t in ts]
    if not all(0.0 < mt < np.inf for mt in model_ts):
        raise DomainError(f"kernel times must give a positive, finite model time "
                          f"time_scale * t (time_scale = {red.time_scale:g})")
    grid = GridSpec(rx=rx, ry=ry, nx=nx, ny=ny, c=red.model.c)
    mapped = map_point(red, sources)
    cells = [grid.locate(z2m) for z2m in mapped]
    model = red.model
    points = inverse_map_point(red, grid.points())
    exact = model.a_norm <= A_ZERO_TOL
    method = ("exact" if exact else "solver") + ("" if red.is_identity else "-reduced")
    reduction = {"time_scale": red.time_scale, "a": model.a.tolist(), "c": model.c}
    if exact:  # per source: its columns at the caller's times, no stats, its own point
        times, order = np.unique(model_ts, return_inverse=True)
        tables = [[tensor_kernel(model, mt, z2m, grid.x_centers, grid.y_centers)
                   for mt in times.tolist()] for z2m in mapped]
        cols = [([table[n] for n in order], None, z2m) for table, z2m in zip(tables, mapped)]
    else:
        cols = _evolve_cells(assemble(model, grid), model_ts, cells)
        w = grid.masses().ravel()  # for the mass defects
    rows = [[] for _ in ts]  # t-major
    for z2, z2m, (values, stats, centre) in zip(sources, mapped, cols):
        used = z2 if exact else inverse_map_point(red, centre)
        meta = {"method": method, "source": [float(v) for v in z2], "source_used": used.tolist(),
                "snap_offset_cells": float(np.hypot(*((centre - z2m) / (grid.hx, grid.hy)))),
                "grid_cells": [grid.nx, grid.ny], "reduction": reduction}
        for row, t, u in zip(rows, ts, values):
            solved = {} if stats is None else {"mass_defect": abs(float(np.dot(w, u)) - 1.0),
                                               **{key: stats[key] for key in SOLVE_STATS}}
            row.append(KernelSlice(t=t, source=used, points=points, c=model.c,
                                   values=map_kernel_value(red, t, points, used, u),
                                   meta={**meta, **solved}))
    return [s for row in rows for s in row]


def discrete_gradient(f: Field):
    """(d/dx, d/dy) by central differences, one-sided at boundaries."""
    u = f.values
    gx = np.gradient(u, f.grid.hx, axis=0)
    gy = np.gradient(u, f.grid.hy, axis=1)
    return Field(f.grid, gx), Field(f.grid, gy)
