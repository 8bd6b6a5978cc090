"""Batch front door: validate operator configs, compute kernels, verify.

Config files are plain text `key = value` lines with `#` comments.
The keys below are the only ones accepted, each at most once:

    N          spatial x-dimension (integer)
    A.row.i    i-th row of A, comma-separated (i = 1 .. N+1)
    v.d        tangential drift, comma-separated (N entries)
    v.c        normal drift coefficient
    grid.Rx, grid.Ry, grid.nx, grid.ny
    t.list     comma-separated kernel times
    sources    semicolon-separated source points, each "x,y"

Exit codes: 0 pass, 1 check failed, 2 config/structural error,
3 numerical failure.  Every command is deterministic: the same config
and options give the same output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import sab as sab_mod
from . import verify as V
from .errors import HalfheatError, SolveFailure, StructuralError
from .geometry import EnvelopeParams, doubling_check, envelope_equivalence_window
from .kernels import exact_slice
from .operators import (
    GeneralOperatorSpec,
    ModelOperatorSpec,
    reduce_to_model,
    validate_general,
)
from .solver import GridSpec, assemble, kernel_column, kernel_slices

SCHEMA_VERSION = 2

#: config keys besides the rows A.row.1 .. A.row.N+1
KNOWN_KEYS = {"N", "v.d", "v.c", "grid.Rx", "grid.Ry", "grid.nx", "grid.ny", "t.list", "sources"}

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3


def parse_config(path) -> dict:
    """key = value grammar; matrix rows as comma-separated lists."""
    raw = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise StructuralError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise StructuralError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise StructuralError(f"{path}:{lineno}: repeated key {key!r}")
        raw[key] = value
    return raw


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise StructuralError(f"malformed number list: {text!r}") from exc


def operator_from_config(cfg: dict) -> GeneralOperatorSpec:
    try:
        n = int(cfg["N"])
    except (KeyError, ValueError) as exc:
        raise StructuralError("config needs integer key N") from exc
    known = KNOWN_KEYS | {f"A.row.{i}" for i in range(1, n + 2)}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise StructuralError(f"unknown config keys: {', '.join(unknown)}")
    rows = []
    for i in range(1, n + 2):
        key = f"A.row.{i}"
        if key not in cfg:
            raise StructuralError(f"config missing {key}")
        row = _floats(cfg[key])
        if len(row) != n + 1:
            raise StructuralError(f"{key} needs {n + 1} entries, got {len(row)}")
        rows.append(row)
    d = _floats(cfg.get("v.d", ",".join(["0"] * n)))
    if len(d) != n:
        raise StructuralError(f"v.d needs {n} entries, got {len(d)}")
    c = float(cfg.get("v.c", "0"))
    return GeneralOperatorSpec(n=n, a_matrix=np.array(rows), drift=np.array(d + [c]))


def _emit(report: dict, out_dir: Path | None, name: str) -> None:
    text = json.dumps(report, indent=2, default=float)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text + "\n")
    print(text)


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    spec = operator_from_config(cfg)
    report = validate_general(spec)
    bundle = {"schema_version": SCHEMA_VERSION, "command": "validate",
              "config": str(args.config), **report.as_dict()}
    _emit(bundle, Path(args.out) if args.out else None, "validate.json")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def cmd_kernel(args) -> int:
    cfg = parse_config(args.config)
    spec = operator_from_config(cfg)
    report = validate_general(spec)
    if not report.passed:
        print(json.dumps({"error": "invalid operator", **report.as_dict()}))
        return EXIT_CHECK_FAILED
    ts = _floats(cfg.get("t.list", "1.0"))
    sources = []
    for tok in cfg.get("sources", "0,1").split(";"):
        pt = _floats(tok)
        if len(pt) != spec.n + 1:
            raise StructuralError(f"source {tok!r} needs {spec.n + 1} coordinates")
        sources.append(np.array(pt))
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    slices = kernel_slices(
        spec, ts, sources, numeric=args.force_numeric,
        rx=float(cfg.get("grid.Rx", "8")), ry=float(cfg.get("grid.Ry", "8")),
        nx=int(cfg.get("grid.nx", "128")), ny=int(cfg.get("grid.ny", "128")))
    written = []
    for slc in slices:
        defect = slc.meta.get("mass_defect", 0.0)
        if defect > args.mass_tol:
            print(json.dumps({
                "error": "grid too small for requested time",
                "t": slc.t, "mass_defect": defect, "tolerance": args.mass_tol,
            }))
            return EXIT_CHECK_FAILED
        x2, y2 = slc.meta["source"]
        tag = f"t{slc.t:g}_x{x2:g}_y{y2:g}".replace("-", "m").replace(".", "p")
        path = out_dir / f"kernel_{tag}.csv"
        slc.to_csv(path)
        written.append({"file": str(path), "t": slc.t, **slc.meta})
    red = reduce_to_model(spec)
    _emit({"schema_version": SCHEMA_VERSION, "command": "kernel",
           "reduction": {"time_scale": red.time_scale,
                          "a": red.model.a.tolist(), "c": red.model.c},
           "outputs": written}, out_dir, "kernel_index.json")
    return EXIT_PASS


PROBE_SETS = ("smoke", "desk", "full")


def _verify_checks(probe_set: str, k_break: float = 1.0):
    """Run the deterministic verification sweep; returns (checks, all_passed)."""
    checks = []

    def record(name, residual, tol, passed, **params):
        checks.append({
            "name": name, "residual": residual, "tolerance": tol,
            "passed": bool(passed), "params": params,
        })

    # --- closed-form layer (always) ---
    model0 = hh_model(0.0, 0.0)
    slc = V.exact_quadrature_slice(model0, 1.0, np.array([0.0, 1.0]))
    defect = V.check_conservation(slc)
    record("conservation_exact", defect, 1e-8, defect <= 1e-8, c=0.0, t=1.0)

    ids = V.check_identities_exact(model0, t=0.5, s=0.5, x0=1.3, scale=2.0,
                                   z1=np.array([0.2, 1.1]), z2=np.array([-0.3, 0.6]))
    record("scaling_exact", ids["scaling"], 1e-12, ids["scaling"] <= 1e-12)
    record("chapman_exact", ids["chapman_kolmogorov"], 1e-6,
           ids["chapman_kolmogorov"] <= 1e-6)

    sls = _probe_slices(model0, ts=(0.25, 1.0), y2s=(0.1, 1.0))
    rep = V.fit_envelope_constants(sls, "product", 0.0, 1)
    params_up = EnvelopeParams(rep.c_up, rep.k_up * k_break,
                               form=rep.form, side="upper")
    verdict = V.envelope_verdict(sls, params_up, rep.params_low(), 0.0, 1)
    env_ok = rep.verdict and verdict["upper_holds"] and verdict["lower_holds"]
    record("envelope_exact", 1.0 - min(verdict["worst_upper_ratio"], 1.0), 0.0,
           env_ok, k_up=params_up.rate, k_low=rep.k_low)

    alpha0 = V.normalizing_alpha(0.0, 1)
    tr = V.compute_G(model0, np.array([0.0, 0.5]), 0.5, alpha0, [0.5, 1.0])
    mono = V.check_G_monotone(tr)
    record("g_trace_exact", float(np.max(tr.values)), 1e-6,
           np.max(tr.values) <= 1e-6 and mono["finite"], G1=tr.final)

    dbl = doubling_check(0.0, 1)
    record("doubling", dbl["worst_ratio"], dbl["shape_bound"], dbl["within_shape"])

    win = envelope_equivalence_window(2.0, 1, 0.1)
    record("equivalence_window", win[1], np.inf, np.isfinite(win[1]))

    if probe_set == "smoke":
        return checks, all(ch["passed"] for ch in checks)

    # --- solver layer (desk / full) ---
    heavy = probe_set == "full"
    n_cells = 128 if heavy else 96
    for (a, c) in ((0.5, -0.5), (0.5, 1.0)):
        model = hh_model(a, c)
        grid = GridSpec(rx=6.0, ry=6.0, nx=n_cells, ny=n_cells, c=c)
        op = assemble(model, grid)
        col = kernel_column(op, 1.0, np.array([0.0, 1.0]))
        defect = V.check_conservation(col)
        record(f"conservation_solver_a{a}_c{c}", defect, 1e-3, defect <= 1e-3)

        ids = V.check_identities_solver(op, t=0.5, s=0.5, x0_cells=4, scale=2.0,
                                        z1_index=(n_cells // 2, n_cells // 4),
                                        z2_index=(n_cells // 2 + 6, n_cells // 3))
        record(f"adjoint_solver_a{a}_c{c}", ids["adjoint"], 1e-12,
               ids["adjoint"] <= 1e-12)
        record(f"chapman_solver_a{a}_c{c}", ids["chapman_kolmogorov"], 1e-3,
               ids["chapman_kolmogorov"] <= 1e-3)

    sab_spec = sab_mod.SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=2.0)
    ladder = sab_mod.sab_norm_estimate(sab_spec, levels=3)
    stab = ladder[-1] / ladder[0]
    record("sab_sec6_stable", stab, 1.5, stab < 1.5)
    bad = sab_mod.SabSpec(alpha=1.0, beta=0.0, m=0.0, p=2.0)
    ladder_bad = sab_mod.sab_norm_estimate(bad, levels=3)
    record("sab_false_diverges", ladder_bad[-1] / ladder_bad[0], 10.0,
           ladder_bad[-1] / ladder_bad[0] >= 10.0)
    return checks, all(ch["passed"] for ch in checks)


def hh_model(a: float, c: float) -> ModelOperatorSpec:
    return ModelOperatorSpec(n=1, a=np.array([a]), c=c)


def _probe_slices(model, ts, y2s):
    slices = []
    for t in ts:
        st = np.sqrt(t)
        for y2 in y2s:
            y1 = np.geomspace(0.02, 8.0, 16)
            dx = np.linspace(0.0, 6.0 * st, 10)
            yy, xx = np.meshgrid(y1, dx, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            slices.append(exact_slice(model, t, np.array([0.0, y2]), pts))
    return slices


def cmd_verify(args) -> int:
    if args.probe_set not in PROBE_SETS:
        raise StructuralError(f"probe set must be one of {PROBE_SETS}")
    try:
        checks, ok = _verify_checks(args.probe_set, k_break=args.break_rate)
    except SolveFailure as exc:
        print(json.dumps({"error": "numerical failure", "detail": str(exc)}))
        return EXIT_NUMERICAL
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "probe_set": args.probe_set,
        "passed": ok,
        "checks": checks,
    }
    _emit(bundle, Path(args.out) if args.out else None, "verify.json")
    return EXIT_PASS if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfheat",
        description="kernel computations and bound verification for "
                    "degenerate operators on the half-space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate an operator config")
    p_val.add_argument("config")
    p_val.add_argument("--out", default=None, help="directory for the JSON report")
    p_val.set_defaults(fn=cmd_validate)

    p_ker = sub.add_parser("kernel", help="compute kernel slices to CSV")
    p_ker.add_argument("config")
    p_ker.add_argument("--out", default=None, help="output directory")
    p_ker.add_argument("--force-numeric", action="store_true",
                       help="use the solver even when a = 0")
    p_ker.add_argument("--mass-tol", type=float, default=1e-3)
    p_ker.set_defaults(fn=cmd_kernel)

    p_ver = sub.add_parser("verify", help="run the verification sweep")
    p_ver.add_argument("--probe-set", default="smoke", choices=PROBE_SETS)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--break-rate", type=float, default=1.0,
                       help="multiply the fitted upper Gaussian rate "
                            "(values < 1 deliberately break the envelope check)")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StructuralError as exc:
        print(json.dumps({"error": "config error", "detail": str(exc)}))
        return EXIT_CONFIG_ERROR
    except SolveFailure as exc:
        print(json.dumps({"error": "numerical failure", "detail": str(exc)}))
        return EXIT_NUMERICAL
    except HalfheatError as exc:
        print(json.dumps({"error": exc.__class__.__name__, "detail": str(exc)}))
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
