"""Verification harness: envelope fits, identities, G-trace, Poincare,
and the table of acceptance criteria.

Everything here consumes computed kernels (closed-form or solver
columns) and checks them against the quantities the theory is stated
in: two-sided Gaussian envelopes with fitted constants, conservation of
the weighted mass, the scaling/translation/adjoint/semigroup identities,
the log-kernel trace G(t) against the normalized Gaussian measure, the
weighted Poincare ratio, and the on/near/far-diagonal kernel floors.

The ten acceptance criteria are one function each, listed in CRITERIA;
the tier-1 suite runs each at its default inputs and `halfheat verify`
runs the table at one of PROBE_SETS (run_criteria).

Constants are never taken from theory (none are provided); the fitting
order is: Gaussian rate k from a far-field least-squares slope, then
amplitude C as the extremal ratio over the probe set.  Verdicts on a
fixed probe set are therefore tight by construction; re-evaluating the
frozen constants on enlarged probe sets is what can break them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FitUnderdeterminedError, ParameterError, StructuralError
from .geometry import (EnvelopeParams, ball_volume, doubling_check, envelope_equivalence_window,
                       envelope_eval, gradient_envelope)
from .kernels import KernelSlice, _check_time, exact_slice, product_kernel, tensor_kernel
from .operators import (GeneralOperatorSpec, ModelOperatorSpec, general_kernel_exact,
                        inverse_map_point, map_kernel_value, map_point, reduce_to_model)
from .quadrature import halfspace_nodes
from .sab import SabSpec, sab_criterion, sab_norm_estimate
from .solver import (SOLVE_STATS, DiscreteOperator, Field, GridSpec, assemble,
                     assemble_divergence_form, discrete_gradient, kernel_columns)
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
    # the acceptance criteria, their table and runner
    "CRITERIA", "PROBE_SETS", "run_criteria", "solver_session", "criterion_oracle_equivalence",
    "criterion_conservation", "criterion_identities", "criterion_envelope", "criterion_gradient",
    "criterion_floors", "criterion_g_function", "criterion_poincare", "criterion_sab",
    "criterion_round_trip", "geometry_rows",
]

NOISE_FLOOR_REL = 1e-12

#: relative margin by which the fitted upper/lower Gaussian rates bracket the fitted one
RATE_MARGIN = 0.15


def _sq_norm(d):
    """Squared norm along the last axis, summed one column at a time.

    Bit-equal to np.sum(d ** 2, axis=-1) for fewer than eight columns, which
    numpy adds in sequence, without its reduction over a short strided axis.
    """
    out = d[..., 0] ** 2
    for j in range(1, d.shape[-1]):
        out += d[..., j] ** 2
    return out


# ---------------------------------------------------------------------------
# slices on quadrature grids (integration-capable closed-form slices)


def exact_quadrature_slice(model: ModelOperatorSpec, t: float, z2) -> KernelSlice:
    """Closed-form slice sampled on a tensor quadrature grid.

    The grid reaches 12 sqrt(t) either side of the source in x and
    12 sqrt(t) above it in y, with 160 x-nodes and 32-point y-panels.
    The values come from tensor_kernel on the two 1-D rules of
    halfspace_nodes (one Bessel value per y-node); points and weights are
    the same rules flattened x-major, the points filled in one
    (nx ny, 2) array from np.repeat(xs, ny) and np.tile(ys, nx).  The
    returned slice carries the y^c dz quadrature weights, so its mass()
    is the conservation integral to quadrature accuracy.
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
    points = np.empty((len(xs) * len(ys), 2))
    points[:, 0] = np.repeat(xs, len(ys))
    points[:, 1] = np.tile(ys, len(xs))
    return KernelSlice(t=t, source=z2, points=points,
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

    rho = _sq_norm(z1 - z2) / t
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
                            z1_index: tuple, z2_index: tuple, columns=kernel_columns) -> dict:
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
    the three evolutions.  `columns` is the kernel provider, called as
    kernel_columns is.
    """
    grid = op.grid
    ny = grid.ny

    def flat(ij):
        return ij[0] * ny + ij[1]

    z1 = np.array([grid.x_centers[z1_index[0]], grid.y_centers[z1_index[1]]])
    z2 = np.array([grid.x_centers[z2_index[0]], grid.y_centers[z2_index[1]]])
    ts = [t, s, t + s]
    lam = scale

    fwd = columns(op, ts, [z2, z2 + np.array([x0_cells * grid.hx, 0.0])])
    adj = columns(op.adjoint(), ts, z1)
    scaled = columns(replace(op, grid=grid.scaled(lam)), [lam * lam * u for u in ts], lam * z2)
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

    return {"scaling": scaling, "translation": translation,
            "adjoint": float(adjoint), "chapman_kolmogorov": float(chapman),
            "solve": solve_stats([fwd[0], adj[0], scaled[0]], columns=[col_sh])}


def solve_stats(slices, columns=()) -> dict:
    """SOLVE_STATS of the evolutions behind solver slices, one slice each.

    Counts and phase times add up; `nodes`, `contour_err` and
    `max_solve_residual` are the largest over `slices` and any further
    `columns` of the same evolutions, and a NaN among them is the result.
    `route` names the distinct routes, sorted and joined by "+".
    """
    worst = ("nodes", "contour_err", "max_solve_residual")
    stats = {key: (np.max([s.meta[key] for s in (*slices, *columns)]) if key in worst
                   else np.sum([s.meta[key] for s in slices])).item()
             for key in SOLVE_STATS if key != "route"}
    return {"route": "+".join(sorted({s.meta["route"] for s in slices})), **stats}


# ---------------------------------------------------------------------------
# Gaussian normalizer and the Nash G-trace


def _check_alpha(alpha: float) -> None:
    """The Gaussian rate alpha of exp(-alpha |z|^2) must be positive and finite."""
    if not 0.0 < alpha < np.inf:  # NaN fails both
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")


def gaussian_normalizer(alpha: float, c: float, n: int) -> float:
    """Closed form of the weighted Gaussian mass over the half-space:

        integral y^c exp(-alpha |z|^2) dz
            = pi^{N/2} alpha^{-(N+1+c)/2} Gamma((c+1)/2) / 2.

    The half-line y-factor carries the 1/2; the value is quadrature-
    verified in the test-suite.
    """
    _check_alpha(alpha)
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
    """Samples of G(t) = integral log(theta p + 1 - theta) d(nu) at strictly increasing times."""

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
        if not np.all(np.diff(self.ts) > 0.0):  # NaN fails too
            raise DomainError("G-trace times must strictly increase")

    @property
    def final(self) -> float:
        return float(self.values[-1])


def compute_G_from_slices(slices, theta: float, alpha: float) -> GTrace:
    """G(t) from integration-capable kernel slices at increasing times.

    The log argument is bounded below by 1 - theta > 0, so slices with
    (clamped) zero values in the far field stay integrable.  An alpha
    that is not positive and finite raises ParameterError first.
    """
    _check_alpha(alpha)
    if not slices:
        raise StructuralError("need at least one slice")
    ts, vals = [], []
    for s in sorted(slices, key=lambda s: s.t):
        if s.weights is None:
            raise StructuralError("G-trace needs slices with integration weights")
        u = theta * s.clamped_values() + (1.0 - theta)
        envn = np.exp(-alpha * _sq_norm(s.points))
        ts.append(s.t)
        vals.append(float(np.dot(s.weights, envn * np.log(u))))
    return GTrace(theta=theta, ts=np.array(ts), values=np.array(vals))


def compute_G(model: ModelOperatorSpec, z2, theta: float, alpha: float, t_grid) -> GTrace:
    """Trace G on closed-form quadrature slices at the times t_grid."""
    _check_alpha(alpha)  # before the slices are built
    slices = [exact_quadrature_slice(model, float(t), z2) for t in np.atleast_1d(t_grid)]
    return compute_G_from_slices(slices, theta, alpha)


def check_G_monotone(trace: GTrace) -> dict:
    """Smallest A making G(t) + A t nondecreasing on the sample grid."""
    dg = np.diff(trace.values)
    dt = np.diff(trace.ts)
    a_req = float(np.max(-dg / dt, initial=0.0))  # a NaN slope is the result
    return {"A_required": a_req, "finite": bool(np.isfinite(a_req))}


# ---------------------------------------------------------------------------
# Poincare ratio


def poincare_ratio(fields, alpha: float, c: float) -> dict:
    """sup over probe fields of ||u - mean(u)||^2_nu / ||grad u||^2_nu.

    nu is the weighted Gaussian y^c e^{-alpha |z|^2} dz realized through
    the fields' cell masses, computed once per distinct GridSpec of the
    call (fields on one grid share it); gradients are the discrete ones.
    Constant fields are excluded (0/0).  An alpha that is not positive
    and finite raises ParameterError before any field is read, and a
    field with a non-finite value raises DomainError before any ratio.
    """
    _check_alpha(alpha)
    fields = list(fields)
    if not all(np.isfinite(f.values).all() for f in fields):
        raise DomainError("Poincaré probe field has non-finite values")
    ratios = []
    skipped = 0
    nus = {}  # GridSpec -> nu on its cells, for this call only
    for f in fields:
        if np.ptp(f.values) == 0.0:
            skipped += 1
            continue
        grid = f.grid
        if grid.c != c:
            raise StructuralError("field grid weight does not match c")
        nu = nus.get(grid)
        if nu is None:
            r2 = (grid.x_centers ** 2)[:, None] + (grid.y_centers ** 2)[None, :]
            nu = nus[grid] = (grid.masses() * np.exp(-alpha * r2)).ravel()
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
        d2 = _sq_norm(s.points - s.source)
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


# ---------------------------------------------------------------------------
# the acceptance criteria, one function each.  Each fixes its probe inputs and
# tolerances; the grid sizes that the desk probe set shrinks are arguments whose
# defaults are the `full` (tier-1) ones.  A criterion that evolves kernels takes a
# provider `columns`, called as kernel_columns is; criteria 2 and 4-7 also read a
# `session` of solver slices.


class _Checks(list):
    """Check records (name, residual, tolerance, passed, params, wall_s; `solve`
    on solver columns).  Every check has a numeric tolerance.  A check passes when
    its residual is finite and at most its tolerance, or finite and its own verdict
    true.  `wall_s` is the time since the record before, or since the list was made."""

    def __init__(self):
        super().__init__()
        self._since = time.perf_counter()

    def record(self, name, residual, tolerance, verdict=None, solve=None, **params):
        now, residual = time.perf_counter(), float(residual)
        holds = residual <= tolerance if verdict is None else verdict
        check = {"name": name, "residual": residual, "tolerance": float(tolerance),
                 "passed": bool(np.isfinite(residual) and holds), "params": params,
                 "wall_s": now - self._since}
        self.append(check if solve is None else {**check, "solve": solve})
        self._since = now


def _model(c: float, a: float = 0.0) -> ModelOperatorSpec:
    return ModelOperatorSpec(n=1, a=np.array([a]), c=c)


def solver_session(nx=224, ny=192, columns=kernel_columns) -> dict:
    """The solver slices of criteria 2 and 4-7, keyed (c, y2, t) source-major: per c
    in (-0.5, 1) one `columns` call evolves the sources (0, y2), y2 in (0.05, 0.3,
    1, 3), of the model with a = 0.5 on [-14, 14] x (0, 12] at nx x ny cells
    through the times (0.25, 0.5, 0.75, 1, 2, 4)."""
    ys, ts, out = (0.05, 0.3, 1.0, 3.0), (0.25, 0.5, 0.75, 1.0, 2.0, 4.0), {}
    for c in (-0.5, 1.0):
        op = assemble(_model(c, 0.5), GridSpec(rx=14.0, ry=12.0, nx=nx, ny=ny, c=c))
        cols = columns(op, ts, [[0.0, y2] for y2 in ys])
        out.update(zip(((c, y2, t) for y2 in ys for t in ts), cols))
    return out


def _session_slices(session, ts, ys=None):
    """(c, slices) per c of a session: its slices at the times ts from the sources at
    the heights ys (all by default), source-major.  None such raises StructuralError,
    so that a criterion never passes on no solver slices."""
    groups = {}
    for (c, y2, t), slc in session.items():
        if t in ts and (ys is None or y2 in ys):
            groups.setdefault(c, []).append(slc)
    if not groups:
        raise StructuralError(f"the session holds no slice at t in {ts}")
    return groups.items()


def _probe_slices(model, ts, y2s, n_y=16, n_x=12):
    """Closed-form probe slices: y in [0.02, 8] (n_y rows), x - x2 in [0, 6 sqrt(t)] (n_x)."""
    out = []
    for t in ts:
        for y2 in y2s:
            yy, xx = np.meshgrid(np.geomspace(0.02, 8.0, n_y),
                                 np.linspace(0.0, 6.0 * np.sqrt(t), n_x), indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            out.append(exact_slice(model, t, np.array([0.0, y2]), pts))
    return out


def _probe_window(slc: KernelSlice) -> KernelSlice:
    """A solver column subsampled to the window of _probe_slices, plus a
    small block around the source cell so that the diagonal floors have samples."""
    grid = slc.meta["grid"]
    vals = slc.values.reshape(grid.nx, grid.ny)
    i0 = int(np.argmin(np.abs(grid.x_centers - slc.source[0])))
    j0 = int(np.argmin(np.abs(grid.y_centers - slc.source[1])))
    jy = {int(np.argmin(np.abs(grid.y_centers - y)))
          for y in np.geomspace(max(0.02, grid.hy / 2), 8.0, 16)}
    jy |= {max(0, min(grid.ny - 1, j0 + k)) for k in range(-3, 4)}
    ix = {min(i0 + int(round(dx / grid.hx)), grid.nx - 1)
          for dx in np.linspace(0.0, 6.0 * np.sqrt(slc.t), 12)}
    ix |= {max(0, min(grid.nx - 1, i0 + k)) for k in range(-3, 4)}
    ij = [(i, j) for i in sorted(ix) for j in sorted(jy)]
    return KernelSlice(t=slc.t, source=slc.source, c=slc.c, values=[vals[i, j] for i, j in ij],
                       points=[[grid.x_centers[i], grid.y_centers[j]] for i, j in ij])


def criterion_oracle_equivalence(cs=(-0.5, 0.0, 1.0, 2.0), ns=(128, 256), columns=kernel_columns):
    """Criterion 1: at a = 0 the column from (0, 1) at t = 1 on [-8, 8] x (0, 8]
    at n x n cells (n in ns) matches the closed form: on the finest grid to
    5% of its maximum, 2x closer than on the one before, in at most 120 s."""
    checks = _Checks()
    for c in cs:
        m, errs = _model(c), []
        for n in ns:
            start = time.perf_counter()
            op = assemble(m, GridSpec(rx=8.0, ry=8.0, nx=n, ny=n, c=c))
            slc = columns(op, [1.0], [0.0, 1.0])[0]
            ex = exact_slice(m, 1.0, slc.source, slc.points)
            errs.append(np.max(np.abs(slc.values - ex.values)) / np.max(ex.values))
            runtime = time.perf_counter() - start
        halving = errs[-2] / errs[-1]
        checks.record(f"oracle_solver_c{c}", errs[-1], 0.05,
                      verdict=errs[-1] <= 0.05 and halving >= 2.0 and runtime <= 120.0,
                      solve=solve_stats([slc]), n=ns[-1], halving=halving, runtime_s=runtime)
    return checks


def criterion_conservation(session):
    """Criterion 2: the weighted mass is 1, to 1e-8 on the closed-form quadrature
    slices (a = 0) from (0.1, 0.7) at c in (-0.5, 0, 1, 2) and t in (0.5, 1, 2),
    and to 1e-3 on the session's slices at those times."""
    checks, cs, ts = _Checks(), (-0.5, 0.0, 1.0, 2.0), (0.5, 1.0, 2.0)
    defects = [check_conservation(exact_quadrature_slice(_model(c), t, (0.1, 0.7)))
               for c in cs for t in ts]
    checks.record("conservation_exact", np.max(defects), 1e-8, cs=cs, ts=ts)
    for c, slices in _session_slices(session, ts):
        checks.record(f"conservation_solver_c{c}", np.max([check_conservation(s) for s in slices]),
                      1e-3, solve=solve_stats(slices[:1], columns=slices))
    return checks


def criterion_identities(n=64, columns=kernel_columns):
    """Criterion 3: the kernel identities at t = s = 0.5 and scale 2.  The closed form
    (a = 0, c = 1) from (-0.4, 0.5) to (0.2, 1): scaling to 1e-12, Chapman-Kolmogorov
    to 1e-6.  check_identities_solver per c in (-0.5, 1) on the model with a = 0.5 on
    [-6, 6] x (0, 6] at n x n cells, from the cell (9/16, 11/32) n to (13/32, 7/32) n,
    shifted 4 cells: scaling to 1e-10, translation and adjoint to 1e-12,
    Chapman-Kolmogorov to 1e-3."""
    checks = _Checks()
    ids = check_identities_exact(_model(1.0), t=0.5, s=0.5, x0=1.5, scale=2.0, z1=(0.2, 1.0),
                                 z2=(-0.4, 0.5))
    checks.record("scaling_exact", ids["scaling"], 1e-12, c=1.0)
    checks.record("chapman_exact", ids["chapman_kolmogorov"], 1e-6, c=1.0)
    for c in (-0.5, 1.0):
        op = assemble(_model(c, 0.5), GridSpec(rx=6.0, ry=6.0, nx=n, ny=n, c=c))
        ids = check_identities_solver(op, t=0.5, s=0.5, x0_cells=4, scale=2.0,
                                      z1_index=(13 * n // 32, 7 * n // 32),
                                      z2_index=(9 * n // 16, 11 * n // 32), columns=columns)
        for name, key, tol in (("scaling", "scaling", 1e-10), ("translation", "translation", 1e-12),
                               ("adjoint", "adjoint", 1e-12),
                               ("chapman", "chapman_kolmogorov", 1e-3)):
            checks.record(f"{name}_solver_a0.5_c{c}", ids[key], tol, solve=ids["solve"], n=n)
    return checks


def criterion_envelope(session):
    """Criterion 4: two-sided product envelopes are fitted and hold at t in (0.25, 1, 4),
    within 900 s: per c in (-0.5, 1) on the closed form (a = 0) on _probe_slices from
    (0, y2), y2 in (0.05, 0.3, 1, 3), and per c of the session in _probe_window (its
    tails bottom out near 1e-9 of the peak, so the fit keeps samples above 1e-7 of it).
    The fit is well posed and holds under envelope_verdict; the residual is
    1 - min(worst upper ratio, 1)."""
    start, checks, ts = time.perf_counter(), _Checks(), (0.25, 1.0, 4.0)

    def judge(name, slices, c, floor, solve=None):
        rep = fit_envelope_constants(slices, "product", c, 1, noise_floor_rel=floor)
        v = envelope_verdict(slices, rep.params_up(), rep.params_low(), c, 1, floor)
        checks.record(name, 1.0 - min(v["worst_upper_ratio"], 1.0), 0.0,
                      verdict=(rep.verdict and v["upper_holds"] and v["lower_holds"]
                               and time.perf_counter() - start <= 900.0),
                      solve=solve, k_up=rep.k_up, k_low=rep.k_low, c_up=rep.c_up, c_low=rep.c_low)

    for c in (-0.5, 1.0):
        judge(f"envelope_exact_c{c}", _probe_slices(_model(c), ts, (0.05, 0.3, 1.0, 3.0)), c,
              NOISE_FLOOR_REL)
    for c, slices in _session_slices(session, ts):
        judge(f"envelope_solver_c{c}", [_probe_window(s) for s in slices], c, 1e-7,
              solve=solve_stats(slices[:1], columns=slices))
    return checks


def _max_gradient_ratio(fld, source, t, floor_rel):
    """Largest |grad u| over the gradient envelope of rate 9, for |z1 - z2| <=
    6 sqrt(t) (where the kernel is at least ~e^-9 of its peak), y1 <= 8, away from
    the walls and the first y-rows, and above floor_rel times the field's peak."""
    grid = fld.grid
    gx, gy = discrete_gradient(fld)
    pts, vals = grid.points(), fld.values.ravel()
    keep = ((vals > floor_rel * vals.max())
            & (np.hypot(pts[:, 0] - source[0], pts[:, 1] - source[1]) <= 6.0 * np.sqrt(t))
            & (pts[:, 1] <= 8.0) & (pts[:, 1] > 2.5 * grid.hy)
            & (np.abs(pts[:, 0]) < grid.rx - 2 * grid.hx) & (pts[:, 1] < grid.ry - 2 * grid.hy))
    shape = gradient_envelope(t, pts[keep], source, grid.c, 1, 1.0, 9.0)
    return np.max(np.hypot(gx.values, gy.values).ravel()[keep] / shape)


def criterion_gradient(session):
    """Criterion 5: discrete gradients respect the gradient envelope.  Per c of the
    session, C_fit is the largest gradient ratio of the closed form (a = 0) from
    (0, y2), y2 in (0.3, 1, 3), at t in (0.25, 1) on the session's grid; its slices
    at t in (0.25, 1, 4) may exceed it 3 times.  The rate 9 is twice the a = 0
    far-field rate (~4) with margin: the mixed term tilts the top eigenvalue of the
    diffusion tensor to 1 + |a| < 2, so a rate beyond 8 dominates the tails of the
    whole admissible family while the a = 0 fit still pins the amplitude."""
    checks = _Checks()
    for c, slices in _session_slices(session, (0.25, 1.0, 4.0)):
        grid, m = slices[0].meta["grid"], _model(c)
        pts, fitted = grid.points(), []
        for t in (0.25, 1.0):
            for z2 in ([0.0, y2] for y2 in (0.3, 1.0, 3.0)):
                fld = Field(grid, exact_slice(m, t, z2, pts).values.reshape(grid.nx, grid.ny))
                fitted.append(_max_gradient_ratio(fld, z2, t, 1e-12))
        worst = np.max([_max_gradient_ratio(Field(grid, s.values.reshape(grid.nx, grid.ny)),
                                            s.source, s.t, 1e-7) for s in slices])
        checks.record(f"gradient_solver_c{c}", worst, 3.0 * np.max(fitted),
                      solve=solve_stats(slices[:1], columns=slices), c_fit=np.max(fitted))
    return checks


def criterion_floors(session):
    """Criterion 6: per c of the session, on its slices at t in (0.25, 1, 4) in
    _probe_window, far_field_floor's (r = 1, rate 5) on-diagonal and far floors
    are positive and the near-diagonal one at least half the on-diagonal one:
    the residual diag/near is at most 2."""
    checks = _Checks()
    for c, slices in _session_slices(session, (0.25, 1.0, 4.0)):
        res = far_field_floor([_probe_window(s) for s in slices], r=1.0, rate=5.0,
                              noise_floor_rel=1e-7)
        diag, near, far = (np.nan if res[key] is None else res[key]
                           for key in ("diag_floor", "near_floor", "far_floor"))
        ratio = diag / near if near > 0.0 else np.inf
        checks.record(f"floors_solver_c{c}", ratio, 2.0,
                      verdict=ratio <= 2.0 and diag > 0.0 and far > 0.0,
                      solve=solve_stats(slices[:1], columns=slices), diag=diag, near=near, far=far)
    return checks


def criterion_g_function(session):
    """Criterion 7: the Nash G-function (theta = 1/2) is at most 1e-8 at t in
    (0.5, 0.75, 1), with a finite monotonizing slope (check_G_monotone) and a finite
    G(1): from (0, 0.5) on closed-form quadrature slices (a = 0, c = 0), and per c
    of the session from its sources (0, y2) in B(0, 1) x (0, 1), y2 in (0.05, 0.3)."""
    checks, ts = _Checks(), (0.5, 0.75, 1.0)
    tr = compute_G(_model(0.0), np.array([0.0, 0.5]), 0.5, normalizing_alpha(0.0, 1), ts)
    checks.record("g_trace_exact", np.max(tr.values), 1e-8,
                  verdict=np.max(tr.values) <= 1e-8 and check_G_monotone(tr)["finite"],
                  c=0.0, G1=tr.final)
    for c, slices in _session_slices(session, ts, (0.05, 0.3)):
        alpha = normalizing_alpha(c, 1)
        traces = [compute_G_from_slices(slices[i:i + len(ts)], 0.5, alpha)
                  for i in range(0, len(slices), len(ts))]
        worst = np.max([trace.values for trace in traces])
        inf_g1 = np.min([trace.final for trace in traces])
        checks.record(f"g_trace_solver_c{c}", worst, 1e-8,
                      verdict=(worst <= 1e-8 and np.isfinite(inf_g1)
                               and all(check_G_monotone(trace)["finite"] for trace in traces)),
                      solve=solve_stats(slices[:1], columns=slices), inf_G1=inf_g1)
    return checks


_POINCARE_FIELDS = (  # u = x first: its ratio has the moment value 1/(2 alpha)
    lambda x, y: x, lambda x, y: y, lambda x, y: x * y, lambda x, y: x ** 2 - y ** 2,
    lambda x, y: x ** 3, lambda x, y: y ** 3, lambda x, y: x ** 2 * y,
    lambda x, y: np.exp(-((y - 0.01) / 0.05) ** 2),
    lambda x, y: np.exp(-((x - 4.0) ** 2 + (y - 4.0) ** 2)),
)


def criterion_poincare():
    """Criterion 8: per c in (-0.5, 1, 2), the weighted Poincare ratios of nine
    probe fields on [-8, 8] x (0, 8] at 128 x 128 cells are finite, and u = x's
    is its moment value 1/(2 alpha) to 1e-6 relative (alpha the normalizing one)."""
    checks = _Checks()
    for c in (-0.5, 1.0, 2.0):
        alpha = normalizing_alpha(c, 1)
        grid = GridSpec(rx=8.0, ry=8.0, nx=128, ny=128, c=c)
        res = poincare_ratio([Field.from_function(grid, fn) for fn in _POINCARE_FIELDS], alpha, c)
        moment = 1.0 / (2.0 * alpha)
        err = abs(res["ratios"][0] - moment) / moment
        checks.record(f"poincare_c{c}", err, 1e-6,
                      verdict=err <= 1e-6 and np.isfinite(res["sup_ratio"]),
                      sup_ratio=res["sup_ratio"])
    return checks


#: (case, its closed-form S^{alpha,beta} verdict) of criterion 9
SAB_MATRIX = tuple((SabSpec(*args), expected) for *args, expected in (
    # alpha, beta, theta, m, p
    (0.0, -1.0, 0.0, 1.0, 2.0, True), (0.0, -1.0, 0.0, 1.0, 1.0, True),
    (0.0, -1.0, 0.0, 1.0, 4.0, True), (0.0, 0.5, 0.0, -0.5, 2.0, True),
    (0.25, 0.25, 0.0, 0.0, 2.0, True), (0.0, 0.0, 0.3, 0.0, 2.0, True),
    (0.0, -0.5, 0.0, 0.2, 1.0, True), (1.0, 0.0, 0.0, 0.0, 2.0, False),
    (0.0, 0.0, 1.2, 0.0, 2.0, False), (0.0, 0.9, 0.0, 0.0, 2.0, False),
    (0.0, 0.0, 0.0, 2.5, 2.0, False), (0.0, 0.5, 0.0, 0.0, 1.0, False),
))


def criterion_sab():
    """Criterion 9: norm ladders follow the S^{alpha,beta} criterion.  Over 4
    levels a criterion-true case of SAB_MATRIX grows less than 1.5x, and less than
    1.1x over its last level; a criterion-false one at least 10x.  The boundedness
    family alpha = 0, beta = -c, m = c, for c in (-0.5, 1) and p in (1, 2, 4), is
    criterion-true and grows less than 1.5x over 3 levels.  The residual is the growth."""
    checks = _Checks()
    for spec, expected in SAB_MATRIX:
        ladder = sab_norm_estimate(spec, levels=4)
        growth = ladder[-1] / ladder[0]
        bounded = growth < 1.5 and ladder[-1] / ladder[-2] < 1.1 if expected else growth >= 10.0
        checks.record(f"sab_a{spec.alpha}_b{spec.beta}_theta{spec.theta}_m{spec.m}_p{spec.p}",
                      growth, 1.5 if expected else 10.0,
                      verdict=bounded and sab_criterion(spec) is expected, criterion=expected)
    for c in (-0.5, 1.0):
        for p in (1.0, 2.0, 4.0):
            spec = SabSpec(alpha=0.0, beta=-c, m=c, p=p)
            ladder = sab_norm_estimate(spec, levels=3)
            checks.record(f"sab_family_c{c}_p{p}", ladder[-1] / ladder[0], 1.5,
                          verdict=ladder[-1] / ladder[0] < 1.5 and sab_criterion(spec))
    return checks


def _cubic_at(grid: GridSpec, values, pts):
    """`values`, shape (nx, ny) on the cell centres of `grid`, at the points `pts`
    (inside the grid) by the 4-point Lagrange rule along each axis, exact on cubics."""
    stencils = []
    for pos, n in (((pts[:, 0] + grid.rx) / grid.hx - 0.5, grid.nx),
                   (pts[:, 1] / grid.hy - 0.5, grid.ny)):
        i = np.clip(np.floor(pos).astype(int) - 1, 0, n - 4)
        s = pos - i
        stencils.append((i[:, None] + np.arange(4), np.stack(
            [-(s - 1) * (s - 2) * (s - 3) / 6, s * (s - 2) * (s - 3) / 2,
             -s * (s - 1) * (s - 3) / 2, s * (s - 1) * (s - 2) / 6], axis=-1)))
    (ix, wx), (iy, wy) = stencils
    return np.einsum("pi,pj,pij->p", wx, wy, values[ix[:, :, None], iy[:, None, :]])


def _oblique_gap(spec: GeneralOperatorSpec, n: int, columns):
    """The direct solve of `spec` against its reduction route, at t = 1 from (0, 1).

    Direct: assemble_divergence_form on [-18, 18] x (0, 6] at 3n x n cells.
    Reduction route (that of kernel_slices): the reduced model on [-10, 10] x
    (0, 6] at 3n x 3n model cells, from the model cell centre nearest the image
    of (0, 1), mapped back by map_kernel_value.  Both columns start at cell
    centres, so the model column is read, by _cubic_at, at map_point of the direct
    cells shifted by the offset of its source; the largest gap over |x - x2| < 4,
    y < 4, relative to the model column's largest value there.  Returns the gap
    and the two slices."""
    red = reduce_to_model(spec)
    wide = GridSpec(rx=18.0, ry=6.0, nx=3 * n, ny=n, c=spec.c / spec.gamma)
    direct = columns(assemble_divergence_form(spec, wide), [1.0], [0.0, 1.0])[0]
    grid = GridSpec(rx=10.0, ry=6.0, nx=3 * n, ny=3 * n, c=red.model.c)
    model = columns(assemble(red.model, grid), [red.time_scale], map_point(red, direct.source))[0]
    pts = direct.points
    near = (np.abs(pts[:, 0] - direct.source[0]) < 4.0) & (pts[:, 1] < 4.0)
    at = pts[near] - direct.source + inverse_map_point(red, model.source)
    values = _cubic_at(grid, model.values.reshape(grid.nx, grid.ny), map_point(red, at))
    ref = map_kernel_value(red, 1.0, at, model.source, values)
    return np.max(np.abs(direct.values[near] - ref)) / np.max(ref), (direct, model)


def criterion_round_trip(n=96, ns=(63, 189), columns=kernel_columns):
    """Criterion 10: the direct solve of a general operator matches its reduction.

    The operator is A = [[2, 0.5], [0.5, 1]] with a drift v = (d, c), assembled
    directly by assemble_divergence_form.
    - `round_trip_solver`: v = (0.25, 0.5), which has a shear, c != 0 and d =
      (c/gamma) q, so B = A, evolved on [-6, 6] x (0, 6] at n x n cells from
      (0, 1) to t = 1, is within 5% of its maximum of its reduced model's closed
      form mapped back (general_kernel_exact).
    - `oblique_solver_*`: the oblique round trip, where the reduced model has
      a != 0 and both routes solve: for v in ((0.75, 0.5), (-0.5, 0.5), (1.25,
      1.5)), which have B != A and the oblique condition y^m <v, grad u> -> 0,
      and v = (0, 0) at c = 0, the Neumann condition, _oblique_gap at each n of
      ns is at most 5% at the last and at least 2x smaller than at the one before
      (ns = (n/3, n), each n = 3 mod 6, so that (0, 1) is a cell centre of both
      grids).  Every column passes through `columns`, the model's too, so a
      provider that is wrong on the reduction side alone is seen.
    """
    if any(k % 6 != 3 for k in ns):
        raise StructuralError(f"the oblique round trip needs n = 3 mod 6, got ns = {tuple(ns)}")
    checks = _Checks()
    a_matrix = np.array([[2.0, 0.5], [0.5, 1.0]])
    spec = GeneralOperatorSpec(n=1, a_matrix=a_matrix, drift=np.array([0.25, 0.5]))
    red = reduce_to_model(spec)
    grid = GridSpec(rx=6.0, ry=6.0, nx=n, ny=n, c=spec.c / spec.gamma)
    slc = columns(assemble_divergence_form(spec, grid), [1.0], [0.0, 1.0])[0]
    mapped = general_kernel_exact(red, 1.0, slc.points, slc.source)
    err = np.max(np.abs(slc.values - mapped)) / np.max(mapped)
    checks.record("round_trip_solver", err, 0.05,
                  verdict=err <= 0.05 and red.shear.any() and spec.c != 0.0,
                  solve=solve_stats([slc]), n=n)
    for d, c in ((0.75, 0.5), (-0.5, 0.5), (1.25, 1.5), (0.0, 0.0)):
        spec = GeneralOperatorSpec(n=1, a_matrix=a_matrix, drift=np.array([d, c]))
        gaps = [_oblique_gap(spec, k, columns) for k in ns]
        err, ratio = gaps[-1][0], gaps[-2][0] / gaps[-1][0]
        checks.record(f"oblique_solver_d{d}_c{c}", err, 0.05,
                      verdict=err <= 0.05 and ratio >= 2.0,
                      solve=solve_stats(gaps[-1][1]), n=ns[-1], ratio=ratio,
                      model_a=float(reduce_to_model(spec).model.a[0]))
    return checks


def geometry_rows():
    """The rows besides the criteria: the weighted measure is doubling (c = 0),
    and the one-sided boundary weights swap within a finite window (c = 2, eps =
    0.1): the largest ratio on the grid is at most its supremum over all y1, y2,
    (1 + d)^{|c|/2} e^{-eps d^2}, taken at y1 = 1 and y2 = 1 + d (or swapped for
    c < 0) with d = (sqrt(1 + |c|/eps) - 1)/2."""
    checks = _Checks()
    dbl = doubling_check(0.0, 1)
    checks.record("doubling", dbl["worst_ratio"], dbl["shape_bound"], verdict=dbl["within_shape"])
    c, eps = 2.0, 0.1
    d = (np.sqrt(1.0 + abs(c) / eps) - 1.0) / 2.0
    checks.record("equivalence_window", envelope_equivalence_window(c, eps)[1],
                  (1.0 + d) ** (abs(c) / 2.0) * np.exp(-eps * d * d))
    return checks


#: The acceptance criteria 1-10 in order, then the geometry rows: (name, check
#: function, whether it reads the solver session).
CRITERIA = (
    ("oracle_equivalence", criterion_oracle_equivalence, False),
    ("conservation", criterion_conservation, True), ("identities", criterion_identities, False),
    ("envelope", criterion_envelope, True), ("gradient", criterion_gradient, True),
    ("floors", criterion_floors, True), ("g_function", criterion_g_function, True),
    ("poincare", criterion_poincare, False), ("sab", criterion_sab, False),
    ("round_trip", criterion_round_trip, False), ("geometry", geometry_rows, False),
)

#: Per probe set of `halfheat verify`: the rows it runs, each with the inputs
#: that differ from its defaults, and the solver_session's.
PROBE_SETS = {
    "desk": {**{name: {} for name, *_ in CRITERIA}, "session": {"nx": 96, "ny": 96},
             "oracle_equivalence": {"ns": (64, 128)}, "identities": {"n": 96},
             "round_trip": {"n": 64, "ns": (21, 63)}},
    "full": {**{name: {} for name, *_ in CRITERIA}, "session": {}},
}


def run_criteria(probe_set: str) -> list[dict]:
    """The check records of the CRITERIA rows of one probe set, in table order: one
    solver_session serves every row that reads one."""
    probes = PROBE_SETS[probe_set]
    run = {"session": solver_session(**probes["session"])} if "session" in probes else {}
    checks = []
    for name, criterion, reads_session in CRITERIA:
        if name in probes:
            checks += criterion(**probes[name], **(run if reads_session else {}))
    return checks
