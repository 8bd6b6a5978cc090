"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s`); the
solver probe matrix is shared through the session fixture in conftest.
Desk scale throughout: N = 1, grids <= 512 x 512.
"""

import time

import numpy as np
import pytest

from halfheat.geometry import gradient_envelope
from halfheat.kernels import exact_slice
from halfheat.operators import (
    GeneralOperatorSpec,
    ModelOperatorSpec,
    general_kernel_exact,
    reduce_to_model,
)
from halfheat.sab import SabSpec, sab_criterion, sab_norm_estimate
from halfheat.solver import (
    Field,
    GridSpec,
    assemble,
    assemble_divergence_form,
    discrete_gradient,
    kernel_columns,
)
from halfheat.verify import (
    check_conservation,
    check_G_monotone,
    check_identities_exact,
    check_identities_solver,
    compute_G,
    compute_G_from_slices,
    exact_quadrature_slice,
    far_field_floor,
    fit_envelope_constants,
    normalizing_alpha,
    poincare_ratio,
)

from conftest import SOLVER_CS, SOURCE_YS


def model(c, a=0.0):
    return ModelOperatorSpec(n=1, a=np.array([a]), c=c)


def report(log, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    log.append(line)
    print(line)
    assert ok, line


def exact_probe_slices(m, ts=(0.25, 1.0, 4.0), y2s=(0.05, 0.3, 1.0, 3.0)):
    """Probe grid of the acceptance matrix: y in [0.02, 8], |x1-x2| <= 6 sqrt(t)."""
    out = []
    for t in ts:
        st = np.sqrt(t)
        for y2 in y2s:
            y1 = np.geomspace(0.02, 8.0, 16)
            dx = np.linspace(0.0, 6.0 * st, 12)
            yy, xx = np.meshgrid(y1, dx, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            out.append(exact_slice(m, t, np.array([0.0, y2]), pts))
    return out


def solver_probe_slice(slc):
    """Subsample a solver column to the acceptance probe window.

    Log-spaced y rows and x offsets up to 6 sqrt(t), plus a small block
    around the source cell so on/near-diagonal floors have samples.
    """
    grid = slc.meta["grid"]
    st = np.sqrt(slc.t)
    vals = slc.values.reshape(grid.nx, grid.ny)
    i0 = int(np.argmin(np.abs(grid.x_centers - slc.source[0])))
    j0 = int(np.argmin(np.abs(grid.y_centers - slc.source[1])))
    jy = {int(np.argmin(np.abs(grid.y_centers - y)))
          for y in np.geomspace(max(0.02, grid.hy / 2), 8.0, 16)}
    jy |= {max(0, min(grid.ny - 1, j0 + k)) for k in range(-3, 4)}
    ix = {min(i0 + int(round(dx / grid.hx)), grid.nx - 1)
          for dx in np.linspace(0.0, 6.0 * st, 12)}
    ix |= {max(0, min(grid.nx - 1, i0 + k)) for k in range(-3, 4)}
    pts, pvals = [], []
    for i in sorted(ix):
        for j in sorted(jy):
            pts.append([grid.x_centers[i], grid.y_centers[j]])
            pvals.append(vals[i, j])
    return type(slc)(t=slc.t, source=slc.source, points=np.array(pts),
                     values=np.array(pvals), c=slc.c)


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", [-0.5, 0.0, 1.0, 2.0])
def test_criterion_1_oracle_equivalence(c, acceptance_log):
    """Solver matches the closed form at t=1 and improves 2x when h halves."""
    m = model(c)
    errs = {}
    runtimes = {}
    for n in (128, 256):
        t0 = time.time()
        grid = GridSpec(rx=8.0, ry=8.0, nx=n, ny=n, c=c)
        op = assemble(m, grid)
        slc = kernel_columns(op, [1.0], np.array([0.0, 1.0]))[0]
        ex = exact_slice(m, 1.0, slc.source, slc.points)
        errs[n] = float(np.abs(slc.values - ex.values).max() / ex.values.max())
        runtimes[n] = time.time() - t0
    ok = errs[256] <= 0.05 and errs[128] / errs[256] >= 2.0 and runtimes[256] <= 120.0
    report(acceptance_log, f"criterion 1 (oracle equivalence, c={c})", ok,
           f"err256={errs[256]:.2e} err128/err256={errs[128] / errs[256]:.2f} "
           f"runtime256={runtimes[256]:.0f}s")


def test_criterion_2_conservation(solver_slices, acceptance_log):
    """Mass defect <= 1e-8 exact (quadrature), <= 1e-3 solver."""
    worst_exact = 0.0
    for c in (-0.5, 0.0, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            slc = exact_quadrature_slice(model(c), t, np.array([0.1, 0.7]))
            worst_exact = max(worst_exact, check_conservation(slc))
    worst_solver = 0.0
    for c in SOLVER_CS:
        for t in (0.5, 1.0, 2.0):
            for y2 in SOURCE_YS:
                worst_solver = max(
                    worst_solver, check_conservation(solver_slices[(c, y2, t)])
                )
    ok = worst_exact <= 1e-8 and worst_solver <= 1e-3
    report(acceptance_log, "criterion 2 (conservation)", ok,
           f"exact defect={worst_exact:.2e} (<=1e-8), "
           f"solver defect={worst_solver:.2e} (<=1e-3)")


def test_criterion_3_identities(acceptance_log):
    """Scaling, adjoint duality, Chapman-Kolmogorov at stated tolerances."""
    ex = check_identities_exact(model(1.0), t=0.5, s=0.5, x0=1.5, scale=2.0,
                                z1=np.array([0.2, 1.0]), z2=np.array([-0.4, 0.5]))
    grid = GridSpec(rx=6.0, ry=6.0, nx=64, ny=64, c=1.0)
    op = assemble(model(1.0, a=0.5), grid)
    sv = check_identities_solver(op, t=0.5, s=0.5, x0_cells=4, scale=2.0,
                                 z1_index=(26, 14), z2_index=(36, 22))
    ok = (ex["scaling"] <= 1e-12 and ex["chapman_kolmogorov"] <= 1e-6
          and sv["scaling"] <= 1e-10 and sv["adjoint"] <= 1e-12
          and sv["chapman_kolmogorov"] <= 1e-3)
    report(acceptance_log, "criterion 3 (identities)", ok,
           f"exact: scale={ex['scaling']:.1e} CK={ex['chapman_kolmogorov']:.1e}; "
           f"solver: scale={sv['scaling']:.1e} adjoint={sv['adjoint']:.1e} "
           f"CK={sv['chapman_kolmogorov']:.1e}")


def test_criterion_4_two_sided_envelope(solver_slices, acceptance_log):
    """fit_envelope_constants verdict true for (a,c) in {0,0.5}x{-0.5,1}."""
    t0 = time.time()
    details = []
    ok = True
    for c in SOLVER_CS:
        rep = fit_envelope_constants(exact_probe_slices(model(c)), "product", c, 1)
        ok &= rep.verdict and rep.k_low < rep.k_up and np.isfinite(rep.c_up)
        details.append(f"a=0,c={c}: k=[{rep.k_low:.2f},{rep.k_up:.2f}]")

        probes = [solver_probe_slice(solver_slices[(c, y2, t)])
                  for y2 in SOURCE_YS for t in (0.25, 1.0, 4.0)]
        # solver tails bottom out near 1e-9 of peak; keep the fit on signal
        rep = fit_envelope_constants(probes, "product", c, 1,
                                     noise_floor_rel=1e-7)
        ok &= rep.verdict and rep.k_low < rep.k_up and np.isfinite(rep.c_up)
        ok &= rep.c_low > 0.0
        details.append(
            f"a=0.5,c={c}: k=[{rep.k_low:.2f},{rep.k_up:.2f}] "
            f"C=[{rep.c_low:.3g},{rep.c_up:.3g}]"
        )
    runtime = time.time() - t0
    ok &= runtime <= 900.0
    report(acceptance_log, "criterion 4 (two-sided envelope)", ok,
           "; ".join(details) + f" [{runtime:.0f}s]")


def _gradient_window(fld, pts, grid, t, source, floor_rel):
    """Acceptance probe window for gradient checks.

    Restricts to |z1 - z2| <= 6 sqrt(t) (within which the kernel is at
    least ~e^-9 of its peak, well above the solver tail floor), y1 <= 8,
    a margin away from the truncation walls and the first y-rows, and
    above the computed kernel's relative noise floor.
    """
    peak = fld.values.max()
    vals = fld.values.ravel()
    st = np.sqrt(t)
    dist = np.hypot(pts[:, 0] - source[0], pts[:, 1] - source[1])
    return (
        (vals > floor_rel * peak)
        & (dist <= 6.0 * st)
        & (pts[:, 1] <= 8.0)
        & (pts[:, 1] > 2.5 * grid.hy)
        & (np.abs(pts[:, 0]) < grid.rx - 2 * grid.hx)
        & (pts[:, 1] < grid.ry - 2 * grid.hy)
    )


def _max_gradient_ratio(fld, source, t, c, k_rate, floor_rel):
    gx, gy = discrete_gradient(fld)
    mag = np.hypot(gx.values, gy.values).ravel()
    pts = fld.grid.points()
    keep = _gradient_window(fld, pts, fld.grid, t, source, floor_rel)
    shape = gradient_envelope(t, pts[keep], source, c, 1, 1.0, k_rate)
    return float(np.max(mag[keep] / shape))


def test_criterion_5_gradient_bound(solver_slices, acceptance_log):
    """FD gradients respect the gradient envelope; constants fitted once on
    the exact a=0 case and reused with a 3x slack factor.

    The fitted rate carries a factor-2 margin over the a=0 far-field
    rate (~4): the mixed term tilts the diffusion tensor's top
    eigenvalue to 1+|a| < 2, so any rate beyond 8 dominates the tails of
    the whole admissible family while the a=0 fit still pins the
    amplitude.
    """
    k_rate = 9.0
    details = []
    ok = True
    for c in SOLVER_CS:
        ref_grid = GridSpec(c=c, rx=14.0, ry=12.0, nx=224, ny=192)
        m = model(c)
        c_fit = 0.0
        for t in (0.25, 1.0):
            for y2 in (0.3, 1.0, 3.0):
                z2 = np.array([0.0, y2])
                fld = Field.from_function(
                    ref_grid,
                    lambda x, y: exact_slice(
                        m, t, z2, np.column_stack([x.ravel(), y.ravel()])
                    ).values.reshape(x.shape),
                )
                c_fit = max(c_fit, _max_gradient_ratio(fld, z2, t, c, k_rate, 1e-12))
        worst = 0.0
        for y2 in SOURCE_YS:
            for t in (0.25, 1.0, 4.0):
                slc = solver_slices[(c, y2, t)]
                grid = slc.meta["grid"]
                fld = Field(grid, slc.values.reshape(grid.nx, grid.ny))
                worst = max(worst, _max_gradient_ratio(fld, slc.source, t, c, k_rate, 1e-7))
        ok &= worst <= 3.0 * c_fit
        details.append(f"c={c}: C_fit={c_fit:.3g} worst_solver={worst:.3g}")
    report(acceptance_log, "criterion 5 (gradient bound)", ok,
           "; ".join(details) + " (3x slack)")


def test_criterion_6_diagonal_floors(solver_slices, acceptance_log):
    """On-diagonal kernel floor positive; near-diagonal within factor 2."""
    ok = True
    details = []
    for c in SOLVER_CS:
        slices = [solver_probe_slice(solver_slices[(c, y2, t)])
                  for y2 in SOURCE_YS for t in (0.25, 1.0, 4.0)]
        res = far_field_floor(slices, r=1.0, rate=5.0, noise_floor_rel=1e-7)
        good = (res["diag_floor"] is not None and res["diag_floor"] > 0.0
                and res["near_floor"] is not None
                and res["near_floor"] >= res["diag_floor"] / 2.0
                and res["far_floor"] is not None and res["far_floor"] > 0.0)
        ok &= good
        details.append(
            f"c={c}: diag={res['diag_floor']:.3g} near={res['near_floor']:.3g} "
            f"far={res['far_floor']:.3g}"
        )
    report(acceptance_log, "criterion 6 (on/near-diagonal floors)", ok,
           "; ".join(details))


def test_criterion_7_g_function(solver_slices, acceptance_log):
    """G <= 0 on [1/2, 1]; finite monotonizing slope; G(1) bounded over probes."""
    ok = True
    details = []
    for c in SOLVER_CS:
        alpha = normalizing_alpha(c, 1)
        g_finals = []
        for y2 in (0.05, 0.3):  # z2 in B(0,1) x (0,1)
            trace = compute_G_from_slices(
                [solver_slices[(c, y2, t)] for t in (0.5, 0.75, 1.0)], 0.5, alpha
            )
            mono = check_G_monotone(trace)
            ok &= bool(np.all(trace.values <= 1e-8)) and mono["finite"]
            g_finals.append(trace.final)
        inf_g1 = min(g_finals)
        ok &= np.isfinite(inf_g1)
        details.append(f"c={c}: inf G(1)={inf_g1:.3f}")
    # closed-form route as well (a=0, c=0)
    tr = compute_G(model(0.0), np.array([0.0, 0.5]), 0.5,
                   normalizing_alpha(0.0, 1), [0.5, 0.75, 1.0])
    ok &= bool(np.all(tr.values <= 1e-8))
    report(acceptance_log, "criterion 7 (Nash G-function)", ok,
           "; ".join(details) + f"; exact G(1)={tr.final:.3f}")


def test_criterion_8_poincare(acceptance_log):
    """Finite Poincare ratios; u = x matches its moment value to 1e-6."""
    ok = True
    details = []
    for c in (-0.5, 1.0, 2.0):
        alpha = normalizing_alpha(c, 1)
        grid = GridSpec(rx=8.0, ry=8.0, nx=128, ny=128, c=c)
        probes = [
            Field.from_function(grid, fn) for fn in (
                lambda x, y: x,
                lambda x, y: y,
                lambda x, y: x * y,
                lambda x, y: x ** 2 - y ** 2,
                lambda x, y: x ** 3,
                lambda x, y: y ** 3,
                lambda x, y: x ** 2 * y,
                lambda x, y: np.exp(-((y - 0.01) / 0.05) ** 2),
                lambda x, y: np.exp(-((x - 4.0) ** 2 + (y - 4.0) ** 2)),
            )
        ]
        res = poincare_ratio(probes, alpha, c)
        x_ratio = res["ratios"][0]
        ok &= np.isfinite(res["sup_ratio"])
        ok &= abs(x_ratio - 1.0 / (2.0 * alpha)) <= 1e-6 * (1.0 / (2.0 * alpha))
        details.append(f"c={c}: sup={res['sup_ratio']:.3f} "
                       f"u=x ratio={x_ratio:.6f} (1/(2a)={1 / (2 * alpha):.6f})")
    report(acceptance_log, "criterion 8 (Poincare ratios)", ok, "; ".join(details))


SAB_MATRIX = [
    (SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=2.0), True),
    (SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=1.0), True),
    (SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=4.0), True),
    (SabSpec(alpha=0.0, beta=0.5, m=-0.5, p=2.0), True),
    (SabSpec(alpha=0.25, beta=0.25, m=0.0, p=2.0), True),
    (SabSpec(alpha=0.0, beta=0.0, theta=0.3, m=0.0, p=2.0), True),
    (SabSpec(alpha=0.0, beta=-0.5, m=0.2, p=1.0), True),
    (SabSpec(alpha=1.0, beta=0.0, m=0.0, p=2.0), False),
    (SabSpec(alpha=0.0, beta=0.0, theta=1.2, m=0.0, p=2.0), False),
    (SabSpec(alpha=0.0, beta=0.9, m=0.0, p=2.0), False),
    (SabSpec(alpha=0.0, beta=0.0, m=2.5, p=2.0), False),
    (SabSpec(alpha=0.0, beta=0.5, m=0.0, p=1.0), False),
]


def test_criterion_9_sab_criterion(acceptance_log):
    """Norm ladders stabilize exactly on criterion-true cases, grow >= 10x
    across three refinement levels on criterion-false cases."""
    ok = True
    n_true = n_false = 0
    for spec, expected in SAB_MATRIX:
        assert sab_criterion(spec) is expected
        ladder = sab_norm_estimate(spec, levels=4)
        growth = ladder[-1] / ladder[0]
        if expected:
            ok &= growth < 1.5 and ladder[-1] / ladder[-2] < 1.1
            n_true += 1
        else:
            ok &= growth >= 10.0
            n_false += 1
    sec6_ok = True
    for c in SOLVER_CS:
        for p in (1.0, 2.0, 4.0):
            spec = SabSpec(alpha=0.0, beta=-c, m=c, p=p)
            sec6_ok &= sab_criterion(spec)
            ladder = sab_norm_estimate(spec, levels=3)
            sec6_ok &= ladder[-1] / ladder[0] < 1.5
    ok &= sec6_ok
    report(acceptance_log, "criterion 9 (weighted operator criterion)", ok,
           f"{n_true} true cases stable, {n_false} false cases diverge >=10x, "
           f"boundedness family passes p in {{1,2,4}}")


def test_criterion_10_reduction_round_trip(acceptance_log):
    """General operator (d != 0, c != 0) solved directly vs mapped-back model."""
    spec = GeneralOperatorSpec(
        n=1, a_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]),
        drift=np.array([0.25, 0.5]),
    )
    red = reduce_to_model(spec)
    assert red.shear.any() and spec.c != 0.0
    m_weight = spec.c / spec.gamma
    grid = GridSpec(rx=6.0, ry=6.0, nx=96, ny=96, c=m_weight)
    op = assemble_divergence_form(spec, grid)
    slc = kernel_columns(op, [1.0], np.array([0.0, 1.0]))[0]
    mapped = general_kernel_exact(red, 1.0, slc.points, slc.source)
    err = float(np.abs(slc.values - mapped).max() / mapped.max())
    ok = err <= 0.05
    report(acceptance_log, "criterion 10 (reduction round-trip)", ok,
           f"direct general solve vs mapped model kernel: rel Linf={err:.2e} (<=5%)")
