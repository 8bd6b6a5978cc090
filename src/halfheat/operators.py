"""Operator specifications and the reduction to normal form.

The general second-order generator on the half-space has coefficient
data (A, v): a symmetric positive definite (N+1)x(N+1) matrix A and a
drift vector v = (d, c) acting through division by the boundary
distance y.  Two affine changes of variables bring it to the model form

    Laplacian_x + 2 a . grad_x D_y + D_yy + (c/y) D_y

with |a| < 1:  a shear removes the tangential drift d, then a linear
change of the x variables turns the remaining top-order x-block into a
multiple of the identity.  The reduction records everything needed to
map kernel values of the model operator back to the original one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, StructuralError

__all__ = [
    "GeneralOperatorSpec",
    "ModelOperatorSpec",
    "ValidationReport",
    "ReductionResult",
    "validate_general",
    "shear_transform",
    "reduce_to_model",
    "map_point",
    "inverse_map_point",
    "map_kernel_value",
]

#: smallest admissible eigenvalue of A, relative to the largest
PD_RTOL = 1e-10


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GeneralOperatorSpec:
    """Coefficients (A, v) of the general operator; partition is derived.

    The matrix splits as A = [[Q, q], [q^T, gamma]] with Q the x-block,
    q the mixed column and gamma the yy entry; the drift is v = (d, c).
    Construction only enforces shapes -- mathematical admissibility is
    checked by validate_general so that violations can be reported
    rather than raised.
    """

    n: int
    a_matrix: np.ndarray
    drift: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        v = np.atleast_1d(np.asarray(self.drift, dtype=float))
        if self.n < 1:
            raise StructuralError("spatial dimension N must be >= 1")
        if a.shape != (self.n + 1, self.n + 1):
            raise StructuralError(
                f"A must be ({self.n + 1},{self.n + 1}), got {a.shape}"
            )
        if v.shape != (self.n + 1,):
            raise StructuralError(f"v must have {self.n + 1} entries, got {v.shape}")
        object.__setattr__(self, "a_matrix", _freeze(a))
        object.__setattr__(self, "drift", _freeze(v))

    @property
    def q_vec(self) -> np.ndarray:
        return self.a_matrix[: self.n, self.n]

    @property
    def gamma(self) -> float:
        return float(self.a_matrix[self.n, self.n])

    @property
    def d(self) -> np.ndarray:
        return self.drift[: self.n]

    @property
    def c(self) -> float:
        return float(self.drift[self.n])


@dataclass(frozen=True)
class ModelOperatorSpec:
    """Normal form: mixed coefficient a (|a| < 1) and Bessel drift c (c+1 > 0)."""

    n: int
    a: np.ndarray
    c: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.shape != (self.n,):
            raise StructuralError(f"a must have {self.n} entries, got {a.shape}")
        if not np.linalg.norm(a) < 1.0:
            raise ParameterError(f"ellipticity requires |a| < 1, got |a|={np.linalg.norm(a)}")
        if not self.c + 1.0 > 0.0:
            raise ParameterError(f"Bessel drift requires c+1 > 0, got c={self.c}")
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "c", float(self.c))

    @property
    def a_norm(self) -> float:
        return float(np.linalg.norm(self.a))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_general: per-invariant pass/fail plus margins."""

    checks: tuple
    eigen_margin: float
    degeneracy_margin: float

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [name for name, ok, _ in self.checks if not ok]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "eigen_margin": self.eigen_margin,
            "degeneracy_margin": self.degeneracy_margin,
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }


def validate_general(spec: GeneralOperatorSpec) -> ValidationReport:
    """Check symmetry, positive definiteness, obliqueness and degeneracy range."""
    a = spec.a_matrix
    asym = float(np.max(np.abs(a - a.T)))
    sym_ok = asym == 0.0

    eigs = np.linalg.eigvalsh(0.5 * (a + a.T))
    eig_min, eig_max = float(eigs[0]), float(eigs[-1])
    pd_ok = eig_min > PD_RTOL * max(eig_max, 0.0)

    oblique_ok = not (spec.c == 0.0 and np.any(spec.d != 0.0))

    gamma = spec.gamma
    degeneracy = spec.c / gamma + 1.0 if gamma > 0.0 else -np.inf
    deg_ok = degeneracy > 0.0

    checks = (
        ("symmetry", sym_ok, f"max |A_ij - A_ji| = {asym:g}"),
        ("positive_definite", pd_ok, f"min eigenvalue = {eig_min:g}"),
        ("obliqueness", oblique_ok, "d = 0 required when c = 0"),
        ("degeneracy", deg_ok, f"c/gamma + 1 = {degeneracy:g}"),
    )
    return ValidationReport(checks=checks, eigen_margin=eig_min,
                            degeneracy_margin=float(degeneracy))


def shear_transform(spec: GeneralOperatorSpec):
    """Remove the tangential drift by the shear (x, y) -> (x - (d/c) y, y).

    Returns (tilde_A, c).  tilde_A = J A J^T with J the shear Jacobian,
    which keeps symmetry and positive definiteness exactly and leaves
    the corner entry gamma untouched; the drift becomes (0, c).
    When d = 0 the shear is the identity and A is returned as-is.
    """
    if np.all(spec.d == 0.0):
        return spec.a_matrix.copy(), spec.c
    if spec.c == 0.0:
        raise ParameterError("oblique drift d != 0 with c = 0 is inadmissible")
    n = spec.n
    jac = np.eye(n + 1)
    jac[:n, n] = -spec.d / spec.c
    tilde = jac @ spec.a_matrix @ jac.T
    tilde = 0.5 * (tilde + tilde.T)  # kill representation asymmetry at round-off
    return tilde, spec.c


@dataclass(frozen=True)
class ReductionResult:
    """Change-of-variable data mapping the general operator to model form.

    model coordinates: (x', y) = (M (x - shear y), y); the map multiplies
    time by time_scale = gamma, so the model kernel at gamma t
    corresponds to the general kernel at t.
    """

    model: ModelOperatorSpec
    shear: np.ndarray | None
    x_change: np.ndarray
    time_scale: float
    tilde_a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_change", _freeze(self.x_change))
        object.__setattr__(self, "tilde_a", _freeze(self.tilde_a))
        if self.shear is not None:
            object.__setattr__(self, "shear", _freeze(self.shear))

    @property
    def is_identity(self) -> bool:
        """True when no variable and no time is changed: the map is exact."""
        return (self.shear is None and self.time_scale == 1.0
                and np.array_equal(self.x_change, np.eye(self.model.n)))

    @property
    def det_x_change(self) -> float:
        return abs(float(np.linalg.det(self.x_change)))


def reduce_to_model(spec: GeneralOperatorSpec) -> ReductionResult:
    """Compose shear and x-change into the model operator.

    M = sqrt(gamma) Q~^{-1/2} (symmetric square root), so M Q~ M^T =
    gamma I; the model coefficients are a = gamma^{-1/2} Q~^{-1/2} q~
    and c_model = c / gamma, and time is rescaled by gamma.
    """
    report = validate_general(spec)
    if not report.passed:
        raise ParameterError(
            "inadmissible operator spec: " + ", ".join(report.failures())
        )
    tilde, c = shear_transform(spec)
    n = spec.n
    q_t = tilde[:n, :n]
    qv_t = tilde[:n, n]
    gamma = float(tilde[n, n])

    evals, evecs = np.linalg.eigh(q_t)
    if np.min(evals) <= 0.0:
        raise ParameterError("internal consistency failure: Q~ not positive definite")
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.T
    m = np.sqrt(gamma) * inv_sqrt

    a_model = inv_sqrt @ qv_t / np.sqrt(gamma)
    model = ModelOperatorSpec(n=n, a=a_model, c=c / gamma)
    shear = None if np.all(spec.d == 0.0) else spec.d / spec.c
    return ReductionResult(model=model, shear=shear, x_change=m,
                           time_scale=gamma, tilde_a=tilde)


def map_point(red: ReductionResult, z) -> np.ndarray:
    """General-operator coordinates -> model coordinates (y unchanged)."""
    z = np.asarray(z, dtype=float)
    n = red.model.n
    x, y = z[..., :n], z[..., n]
    if np.any(y <= 0.0):
        raise DomainError("points must lie in the open half-space y > 0")
    if red.shear is not None:
        x = x - np.multiply.outer(y, red.shear)
    xp = x @ red.x_change.T
    return np.concatenate([xp, y[..., None]], axis=-1)


def inverse_map_point(red: ReductionResult, z) -> np.ndarray:
    """Model coordinates -> general coordinates; inverse of map_point."""
    z = np.asarray(z, dtype=float)
    n = red.model.n
    xp, y = z[..., :n], z[..., n]
    if np.any(y <= 0.0):
        raise DomainError("points must lie in the open half-space y > 0")
    x = xp @ np.linalg.inv(red.x_change).T
    if red.shear is not None:
        x = x + np.multiply.outer(y, red.shear)
    return np.concatenate([x, y[..., None]], axis=-1)


def map_kernel_value(red: ReductionResult, t: float, z1, z2, p_model_value):
    """Model kernel value -> general kernel value.

    `p_model_value` must be the model kernel at time time_scale * t and
    at the mapped points map_point(z1), map_point(z2), in the model's
    y^{c/gamma} dz convention.  The general value (same convention,
    since c_model = c/gamma) picks up the x-volume Jacobian |det M|;
    the shear and y are measure-preserving.
    """
    if t <= 0.0:
        raise DomainError("kernel time must be positive")
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if np.any(z1[..., -1] <= 0.0) or np.any(z2[..., -1] <= 0.0):
        raise DomainError("points must lie in the open half-space y > 0")
    return red.det_x_change * np.asarray(p_model_value)


def general_kernel_exact(red: ReductionResult, t: float, z1, z2):
    """General kernel through the reduction when the model has a = 0."""
    from .kernels import product_kernel

    zm1 = map_point(red, z1)
    zm2 = map_point(red, z2)
    p_model = product_kernel(red.model, red.time_scale * t, zm1, zm2)
    return map_kernel_value(red, t, z1, z2, p_model)
