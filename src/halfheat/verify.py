"""Verification harness: envelope fits, identities, G-trace, Poincare.

Everything here consumes computed kernels (closed-form or solver
columns) and checks them against the quantities the theory is stated
in: two-sided Gaussian envelopes with fitted constants, conservation of
the weighted mass, the scaling/translation/adjoint/semigroup identities,
the log-kernel trace G(t) against the normalized Gaussian measure, the
weighted Poincare ratio, and the on/near/far-diagonal kernel floors.

Constants are never taken from theory (none are provided); the fitting
order is: Gaussian rate k from a far-field least-squares slope, then
amplitude C as the extremal ratio over the probe set.  Verdicts on a
fixed probe set are therefore tight by construction; re-evaluating the
frozen constants on enlarged probe sets is what can break them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FitUnderdeterminedError, ParameterError, StructuralError
from .geometry import EnvelopeParams, ball_volume, envelope_eval
from .kernels import KernelSlice, _check_time, product_kernel, tensor_kernel
from .operators import ModelOperatorSpec
from .quadrature import halfspace_nodes
from .solver import SOLVE_STATS, DiscreteOperator, discrete_gradient, kernel_columns
from .special import log_gamma

__all__ = [
    "FitReport",
    "GTrace",
    "exact_quadrature_slice",
    "fit_envelope_constants",
    "envelope_verdict",
    "check_conservation",
    "check_identities_exact",
    "check_identities_solver",
    "solve_stats",
    "gaussian_normalizer",
    "normalizing_alpha",
    "compute_G",
    "compute_G_from_slices",
    "check_G_monotone",
    "poincare_ratio",
    "far_field_floor",
]

NOISE_FLOOR_REL = 1e-12

#: relative margin by which the fitted upper/lower Gaussian rates bracket the fitted one
RATE_MARGIN = 0.15


# ---------------------------------------------------------------------------
# slices on quadrature grids (integration-capable closed-form slices)


def exact_quadrature_slice(model: ModelOperatorSpec, t: float, z2) -> KernelSlice:
    """Closed-form slice sampled on a tensor quadrature grid.

    The grid reaches 12 sqrt(t) either side of the source in x and
    12 sqrt(t) above it in y, with 160 x-nodes and 32-point y-panels.
    The values come from tensor_kernel on the two 1-D rules of
    halfspace_nodes (one Bessel value per y-node); points and weights are
    the same rules flattened x-major.  The returned slice carries the
    y^c dz quadrature weights, so its mass() is the conservation integral
    to quadrature accuracy.
    """
    z2 = np.asarray(z2, dtype=float)
    if model.n != 1:
        raise StructuralError("quadrature slices are built for N = 1")
    _check_time(t)  # before the grid, which is scaled by sqrt(t)
    st = np.sqrt(t)
    (xs, wx), (ys, wy) = halfspace_nodes(
        model.c,
        x_extent=12.0 * st,
        y_extent=float(z2[1]) + 12.0 * st,
        n_x=160, n_panel=32, x_center=float(z2[0]),
    )
    x, y = np.meshgrid(xs, ys, indexing="ij")
    return KernelSlice(t=t, source=z2, points=np.column_stack([x.ravel(), y.ravel()]),
                       values=tensor_kernel(model, t, z2, xs, ys), c=model.c,
                       weights=np.outer(wx, wy).ravel())


# ---------------------------------------------------------------------------
# envelope fitting


@dataclass
class FitReport:
    """Fitted two-sided envelope constants of one form and their verdict.

    `verdict` says that the fit is well posed: both amplitudes finite and
    positive and k_low < k_up.  Then envelope_verdict finds both bounds
    holding on the fitting samples, since the amplitudes are the extremal
    ratios on those samples, so the fit does not judge them again.
    """

    form: str
    c: float
    n: int
    c_up: float
    k_up: float
    c_low: float
    k_low: float
    k_fit: float
    verdict: bool

    def params_up(self) -> EnvelopeParams:
        return EnvelopeParams(self.c_up, self.k_up, form=self.form)

    def params_low(self) -> EnvelopeParams:
        return EnvelopeParams(self.c_low, self.k_low, form=self.form)


def _gather_samples(slices, noise_floor_rel: float):
    """(t, z1, z2, p) of all slices' samples above noise_floor_rel times the peak.

    No such sample (all values zero, negative or NaN) raises
    FitUnderdeterminedError.
    """
    ts, z1s, z2s, ps = [], [], [], []
    for s in slices:
        m = len(s.values)
        ts.append(np.full(m, s.t))
        z1s.append(s.points)
        z2s.append(np.broadcast_to(s.source, s.points.shape))
        ps.append(s.values)
    p = np.concatenate(ps)
    keep = p > noise_floor_rel * p.max(initial=0.0)
    if not np.any(keep):
        raise FitUnderdeterminedError("no kernel samples above the noise floor")
    return np.concatenate(ts)[keep], np.vstack(z1s)[keep], np.vstack(z2s)[keep], p[keep]


def fit_envelope_constants(slices, form: str, c: float, n: int,
                           noise_floor_rel: float = NOISE_FLOOR_REL) -> FitReport:
    """Fit (C_up, k_up, C_low, k_low) of the chosen envelope form.

    The Gaussian rate is fitted first, by least squares of log p against
    |z1-z2|^2/t on far-field samples (|z1-z2| >= 2 sqrt(t)) with the
    form's weight factors divided out; the upper/lower rates bracket the
    fitted one by RATE_MARGIN.  Amplitudes are then the extremal
    sample ratios, making the verdict tight on the given probe set.
    """
    t, z1, z2, p = _gather_samples(slices, noise_floor_rel)

    dist2 = np.sum((z1 - z2) ** 2, axis=-1)
    rho = dist2 / t
    far = rho >= 4.0  # |z1 - z2| >= 2 sqrt(t)
    if np.count_nonzero(far) < 2 or np.ptp(rho[far]) == 0.0:
        raise FitUnderdeterminedError(
            "need far-field samples at distinct |z1-z2|^2/t to fit the rate"
        )

    shape = EnvelopeParams(1.0, 1.0, form=form)
    # weight + prefactor of the form, with the Gaussian factor removed
    base = envelope_eval(shape, t, z1, z2, c, n) * np.exp(rho)
    g = np.log(p) - np.log(base)
    slope, _ = np.polyfit(rho[far], g[far], 1)
    if slope >= 0.0:
        raise FitUnderdeterminedError("far field does not decay; cannot fit a rate")
    k_fit = -1.0 / slope

    k_up = k_fit * (1.0 + RATE_MARGIN)
    k_low = k_fit / (1.0 + RATE_MARGIN)
    c_up = float(np.max(p / (base * np.exp(-rho / k_up))))
    c_low = float(np.min(p / (base * np.exp(-rho / k_low))))
    verdict = bool(0.0 < c_up < np.inf and 0.0 < c_low < np.inf and k_low < k_up)
    return FitReport(form=form, c=c, n=n, c_up=c_up, k_up=k_up, c_low=c_low, k_low=k_low,
                     k_fit=k_fit, verdict=verdict)


def envelope_verdict(slices, params_up: EnvelopeParams, params_low: EnvelopeParams,
                     c: float, n: int,
                     noise_floor_rel: float = NOISE_FLOOR_REL) -> dict:
    """Re-evaluate frozen envelope constants on a (possibly new) probe set.

    Adding samples can only break a fitted bound, never create one; this
    is the monotone direction the harness checks.  A bound holds when
    every sample's envelope-to-kernel ratio is on its side of 1 to
    within 1e-9.  No sample above the noise floor raises
    FitUnderdeterminedError.
    """
    t, z1, z2, p = _gather_samples(slices, noise_floor_rel)
    up = envelope_eval(params_up, t, z1, z2, c, n)
    low = envelope_eval(params_low, t, z1, z2, c, n)
    worst_up = float(np.min(up / p))
    worst_low = float(np.max(low / p))
    return {
        "upper_holds": bool(worst_up >= 1.0 - 1e-9),
        "lower_holds": bool(worst_low <= 1.0 + 1e-9),
        "worst_upper_ratio": worst_up,
        "worst_lower_ratio": worst_low,
        "n_samples": int(len(p)),
    }


# ---------------------------------------------------------------------------
# conservation and identities


def check_conservation(slc: KernelSlice) -> float:
    """Mass defect |integral of p against y^c dz  -  1| of a slice."""
    return abs(slc.mass() - 1.0)


def check_identities_exact(model: ModelOperatorSpec, t: float, s: float,
                           x0: float, scale: float, z1, z2) -> dict:
    """Residuals of the four kernel identities for the closed form (a = 0).

    Chapman-Kolmogorov integrates p(t, z1, w) p(s, w, z2) over a tensor
    quadrature grid truncated 10 sqrt(max(t, s)) beyond both points; both
    factors come from tensor_kernel with the grid node as the first point
    (the closed form is symmetric in its two points to the last bit).
    Everything else is direct evaluation.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    n = model.n
    p_ref = product_kernel(model, t, z1, z2)

    lam = scale
    p_sc = product_kernel(model, lam * lam * t, lam * z1, lam * z2)
    scaling = abs(p_sc - lam ** (-(n + 1 + model.c)) * p_ref) / abs(p_ref)

    shift = np.zeros(n + 1)
    shift[0] = x0
    p_tr = product_kernel(model, t, z1 + shift, z2 + shift)
    translation = abs(p_tr - p_ref) / abs(p_ref)

    adjoint = abs(product_kernel(model, t, z2, z1) - p_ref) / abs(p_ref)

    st = np.sqrt(max(t, s))
    xmid = 0.5 * (z1[0] + z2[0])
    (xs, wx), (ys, wy) = halfspace_nodes(
        model.c,
        x_extent=abs(z1[0] - z2[0]) / 2 + 10.0 * st,
        y_extent=max(z1[-1], z2[-1]) + 10.0 * st,
        n_x=200, n_panel=32, x_center=float(xmid),
    )
    pk1 = tensor_kernel(model, t, z1, xs, ys)
    pk2 = tensor_kernel(model, s, z2, xs, ys)
    p_comp = float(np.dot(np.outer(wx, wy).ravel(), pk1 * pk2))
    p_sum = product_kernel(model, t + s, z1, z2)
    chapman = abs(p_comp - p_sum) / abs(p_sum)

    return {"scaling": float(scaling), "translation": float(translation),
            "adjoint": float(adjoint), "chapman_kolmogorov": float(chapman)}


def check_identities_solver(op: DiscreteOperator, t: float, s: float,
                            x0_cells: int, scale: float,
                            z1_index: tuple, z2_index: tuple) -> dict:
    """Residuals of the four identities for the solver kernels of any operator.

    Three evolutions share the times ts = (t, s, t + s), so they run on
    the same contour windows: the forward block holds the columns at z2
    and at z2 shifted by x0_cells cells, the adjoint evolution the column
    at z1, and the scaled one the column at scale z2 on the scaled grid
    at the times scale^2 ts.  Scaling compares with the forward column
    (each scaled window's nodes are the forward ones over scale^2, so
    e^{zt} is unchanged and the identity holds to rounding of the scaled
    coefficients); translation compares the shifted column with the
    forward one rolled along the periodic x-axis, over the whole grid;
    adjoint compares the forward column at z1 against the adjoint column
    at z2; Chapman-Kolmogorov composes an adjoint and a forward column
    through the discrete weighted sum.  `solve` holds the solve_stats of
    the three evolutions.
    """
    grid = op.grid
    ny = grid.ny

    def flat(ij):
        return ij[0] * ny + ij[1]

    z1 = np.array([grid.x_centers[z1_index[0]], grid.y_centers[z1_index[1]]])
    z2 = np.array([grid.x_centers[z2_index[0]], grid.y_centers[z2_index[1]]])
    ts = [t, s, t + s]
    lam = scale

    fwd = kernel_columns(op, ts, [z2, z2 + np.array([x0_cells * grid.hx, 0.0])])
    adj = kernel_columns(op.adjoint(), ts, z1)
    scaled = kernel_columns(replace(op, grid=grid.scaled(lam)), [lam * lam * u for u in ts],
                            lam * z2)
    col_t, col_s, col_ts, col_sh = fwd[:4]  # z2 at t, s and t + s; the shifted source at t
    adj_t, col_sc = adj[0], scaled[0]

    # (a) scaling against the solve on the scaled grid
    mapped = lam ** (-(2.0 + grid.c)) * col_t.values
    scaling = float(np.max(np.abs(col_sc.values - mapped)) / np.max(np.abs(mapped)))

    # (b) x-translation by whole cells: x is periodic, so the shifted
    # column is the rolled one over the whole grid
    a = col_t.values.reshape(grid.nx, ny)
    diff = col_sh.values.reshape(grid.nx, ny) - np.roll(a, x0_cells, axis=0)
    translation = float(np.max(np.abs(diff)) / np.max(np.abs(a)))

    # (c) adjoint duality at the discrete level
    v_fwd = col_t.values[flat(z1_index)]
    v_adj = adj_t.values[flat(z2_index)]
    adjoint = abs(v_fwd - v_adj) / max(abs(v_fwd), abs(v_adj))

    # (d) Chapman-Kolmogorov through the discrete weighted sum:
    # p(t+s, z1, z2) = sum_w p(t, z1, w) p(s, w, z2) mass(w), with the
    # row p(t, z1, .) realized as the adjoint column at z1.
    composed = float(np.dot(col_s.weights, adj_t.values * col_s.values))
    direct = col_ts.values[flat(z1_index)]
    chapman = abs(composed - direct) / abs(direct)

    solve = solve_stats([fwd[0], adj[0], scaled[0]])
    for key in ("contour_err", "max_solve_residual"):  # the shifted column's own worst
        solve[key] = max(solve[key], col_sh.meta[key])
    return {"scaling": scaling, "translation": translation,
            "adjoint": float(adjoint), "chapman_kolmogorov": float(chapman),
            "solve": solve}


def solve_stats(slices) -> dict:
    """SOLVE_STATS of the evolutions behind solver slices, one slice each.

    Counts and phase times add up; `nodes`, `contour_err` and
    `max_solve_residual` are the largest, and `route` names the distinct
    routes, sorted and joined by "+".
    """
    worst = ("nodes", "contour_err", "max_solve_residual")
    stats = {key: (max if key in worst else sum)(s.meta[key] for s in slices)
             for key in SOLVE_STATS if key != "route"}
    return {"route": "+".join(sorted({s.meta["route"] for s in slices})), **stats}


# ---------------------------------------------------------------------------
# Gaussian normalizer and the Nash G-trace


def gaussian_normalizer(alpha: float, c: float, n: int) -> float:
    """Closed form of the weighted Gaussian mass over the half-space:

        integral y^c exp(-alpha |z|^2) dz
            = pi^{N/2} alpha^{-(N+1+c)/2} Gamma((c+1)/2) / 2.

    The half-line y-factor carries the 1/2; the value is quadrature-
    verified in the test-suite.
    """
    if not 0.0 < alpha < np.inf:  # NaN fails both
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if not c + 1.0 > 0.0:
        raise ParameterError("weight requires c + 1 > 0")
    if n < 0:
        raise DomainError("dimension must be >= 0")
    return float(
        np.pi ** (0.5 * n)
        * alpha ** (-0.5 * (n + 1 + c))
        * np.exp(log_gamma(0.5 * (c + 1.0)))
        / 2.0
    )


def normalizing_alpha(c: float, n: int) -> float:
    """The alpha making the weighted Gaussian a probability measure.

    The normalizer is K alpha^{-(N+1+c)/2} with K its value at alpha = 1,
    so alpha = K^{2/(N+1+c)} = (pi^{N/2} Gamma((c+1)/2) / 2)^{2/(N+1+c)}.
    """
    return gaussian_normalizer(1.0, c, n) ** (2.0 / (n + 1 + c))


@dataclass
class GTrace:
    """Samples of G(t) = integral log(theta p + 1 - theta) d(nu)."""

    theta: float
    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not 0.5 <= self.theta < 1.0:
            raise ParameterError("theta must lie in [1/2, 1)")
        self.ts = np.asarray(self.ts, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("G-trace contains non-finite samples")

    @property
    def final(self) -> float:
        return float(self.values[-1])


def compute_G_from_slices(slices, theta: float, alpha: float) -> GTrace:
    """G(t) from integration-capable kernel slices at increasing times.

    The log argument is bounded below by 1 - theta > 0, so slices with
    (clamped) zero values in the far field stay integrable.
    """
    if not slices:
        raise StructuralError("need at least one slice")
    ts, vals = [], []
    for s in sorted(slices, key=lambda s: s.t):
        if s.weights is None:
            raise StructuralError("G-trace needs slices with integration weights")
        u = theta * s.clamped_values() + (1.0 - theta)
        envn = np.exp(-alpha * np.sum(s.points ** 2, axis=-1))
        ts.append(s.t)
        vals.append(float(np.dot(s.weights, envn * np.log(u))))
    return GTrace(theta=theta, ts=np.array(ts), values=np.array(vals))


def compute_G(model: ModelOperatorSpec, z2, theta: float, alpha: float, t_grid) -> GTrace:
    """Trace G on closed-form quadrature slices at the times t_grid."""
    slices = [exact_quadrature_slice(model, float(t), z2) for t in np.atleast_1d(t_grid)]
    return compute_G_from_slices(slices, theta, alpha)


def check_G_monotone(trace: GTrace) -> dict:
    """Smallest A making G(t) + A t nondecreasing on the sample grid."""
    dg = np.diff(trace.values)
    dt = np.diff(trace.ts)
    a_req = float(max(0.0, np.max(-dg / dt))) if len(dg) else 0.0
    return {"A_required": a_req, "finite": bool(np.isfinite(a_req))}


# ---------------------------------------------------------------------------
# Poincare ratio


def poincare_ratio(fields, alpha: float, c: float) -> dict:
    """sup over probe fields of ||u - mean(u)||^2_nu / ||grad u||^2_nu.

    nu is the weighted Gaussian y^c e^{-alpha |z|^2} dz realized through
    the fields' cell masses; gradients are the discrete ones.  Constant
    fields are excluded (0/0).
    """
    ratios = []
    skipped = 0
    for f in fields:
        if np.ptp(f.values) == 0.0:
            skipped += 1
            continue
        grid = f.grid
        if grid.c != c:
            raise StructuralError("field grid weight does not match c")
        pts = grid.points()
        nu = grid.masses().ravel() * np.exp(-alpha * np.sum(pts ** 2, axis=-1))
        u = f.values.ravel()
        mean = float(np.dot(nu, u) / np.sum(nu))
        num = float(np.dot(nu, (u - mean) ** 2))
        gx, gy = discrete_gradient(f)
        den = float(np.dot(nu, gx.values.ravel() ** 2 + gy.values.ravel() ** 2))
        if den == 0.0:
            raise DomainError("nonconstant field with zero discrete gradient")
        ratios.append(num / den)
    if not ratios:
        raise DomainError("no nonconstant probe fields given")
    return {
        "sup_ratio": float(np.max(ratios)),
        "ratios": [float(r) for r in ratios],
        "skipped_constant": skipped,
    }


# ---------------------------------------------------------------------------
# kernel floors


def far_field_floor(slices, r: float, rate: float,
                    noise_floor_rel: float = NOISE_FLOOR_REL) -> dict:
    """Kernel floors with the Gaussian factor divided out.

    far_floor: min of p * sqrt(V(z1) V(z2)) * exp(+|z1-z2|^2/(rate t))
               over samples with y1, y2 >= r sqrt(t);
    diag_floor: min over slices of p(t, z2, z2) * V(z2, sqrt t);
    near_floor: min of p * V(z2, sqrt t) over |z1 - z2| <= 0.1 sqrt(t).

    Samples below noise_floor_rel times the slice peak are excluded from
    the far floor: there the computed kernel is round-off or solver
    tail, not signal.
    """
    far_vals, diag_vals, near_vals = [], [], []
    for s in slices:
        st = np.sqrt(s.t)
        y1 = s.points[:, -1]
        y2 = float(s.source[-1])
        d2 = np.sum((s.points - s.source) ** 2, axis=-1)
        n = s.n
        v2 = ball_volume(y2, st, s.c, n)
        p = s.clamped_values()

        sel = (y1 >= r * st) & (y2 >= r * st) & (p > noise_floor_rel * p.max())
        if np.any(sel):
            v1 = ball_volume(y1[sel], st, s.c, n)
            far_vals.append(
                np.min(p[sel] * np.sqrt(v1 * v2) * np.exp(d2[sel] / (rate * s.t)))
            )

        idx = int(np.argmin(d2))
        if d2[idx] <= (1e-9 * st) ** 2:
            diag_vals.append(p[idx] * v2)
        near = d2 <= (0.1 * st) ** 2
        if np.any(near):
            near_vals.append(np.min(p[near] * v2))

    return {
        "far_floor": float(np.min(far_vals)) if far_vals else None,
        "diag_floor": float(np.min(diag_vals)) if diag_vals else None,
        "near_floor": float(np.min(near_vals)) if near_vals else None,
        "n_slices": len(slices),
    }
