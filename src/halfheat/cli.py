"""Batch front door: validate operator configs, compute kernels, verify.

Config files are plain text `key = value` lines with `#` comments.
The keys below are the only ones accepted, each at most once; a list
with an empty entry (`0,,1`) is refused:

    N          spatial x-dimension (integer)
    A.row.i    i-th row of A, comma-separated (i = 1 .. N+1)
    v.d        tangential drift, comma-separated (N entries)
    v.c        normal drift coefficient
    grid.Rx, grid.Ry, grid.nx, grid.ny
    t.list     comma-separated kernel times, no time twice
    sources    semicolon-separated source points, each "x,y", no point twice

Exit codes:

    0  pass
    1  check failed
    2  config/structural error or an output that cannot be written
    2  a grid too large to allocate (MemoryError), as JSON, not a traceback
    3  numerical failure

A run that writes no file removes each directory it made for --out,
if it is still empty; an --out that existed before the run is kept.

Every command is deterministic: the same config and options give the
same output, apart from the wall times it reports.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import sab as sab_mod
from . import verify as V
from .errors import HalfheatError, ParameterError, SolveFailure, StructuralError
from .geometry import EnvelopeParams, doubling_check, envelope_equivalence_window
from .kernels import exact_slice, write_csv
from .operators import GeneralOperatorSpec, ModelOperatorSpec, validate_general
from .solver import GridSpec, assemble, kernel_columns, kernel_slices

SCHEMA_VERSION = 9

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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _floats(key: str, text: str) -> list[float]:
    """The comma-separated numbers of config key `key`, each finite (`0,,1` is refused)."""
    if not text.strip():
        return []
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise StructuralError(f"{key}: malformed number list {text!r}") from exc
    if not np.all(np.isfinite(values)):
        raise StructuralError(f"{key}: non-finite number in {text!r}")
    return values


def _scalar(cfg: dict, key: str, default: str) -> float:
    values = _floats(key, cfg.get(key, default))
    if len(values) != 1:
        raise StructuralError(f"{key} needs one number, got {cfg[key]!r}")
    return values[0]


def _count(cfg: dict, key: str, default: str) -> int:
    try:
        return int(cfg.get(key, default))
    except ValueError as exc:
        raise StructuralError(f"{key} needs an integer, got {cfg[key]!r}") from exc


def _is_row_key(key: str, n: int) -> bool:
    """Whether key is A.row.i for an integer 1 <= i <= n + 1 written as str(i).

    Decided from the key alone, so the cost does not grow with n;
    A.row.0 and A.row.01 are not row keys.
    """
    i = key.removeprefix("A.row.")
    return (i != key and i.isascii() and i.isdigit() and len(i) <= len(str(n + 1))
            and i == str(int(i)) and 1 <= int(i) <= n + 1)


def operator_from_config(cfg: dict) -> GeneralOperatorSpec:
    try:
        n = int(cfg["N"])
    except (KeyError, ValueError) as exc:
        raise StructuralError("config needs integer key N") from exc
    unknown = sorted(key for key in cfg if key not in KNOWN_KEYS and not _is_row_key(key, n))
    if unknown:
        raise StructuralError(f"unknown config keys: {', '.join(unknown)}")
    rows = []
    for i in range(1, n + 2):
        key = f"A.row.{i}"
        if key not in cfg:
            raise StructuralError(f"config missing {key}")
        row = _floats(key, cfg[key])
        if len(row) != n + 1:
            raise StructuralError(f"{key} needs {n + 1} entries, got {len(row)}")
        rows.append(row)
    d = _floats("v.d", cfg.get("v.d", ",".join(["0"] * n)))
    if len(d) != n:
        raise StructuralError(f"v.d needs {n} entries, got {len(d)}")
    c = _scalar(cfg, "v.c", "0")
    return GeneralOperatorSpec(n=n, a_matrix=np.array(rows), drift=np.array(d + [c]))


def _finite(obj):
    """obj with every non-finite float replaced by None: strict JSON has no inf or NaN."""
    if isinstance(obj, dict):
        return {key: _finite(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        return None
    return obj


def _out_dir(out: str | None) -> Path | None:
    """The --out directory, made before the work so that one that cannot be made fails fast."""
    if not out:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(report: dict, out_dir: Path | None, name: str) -> None:
    text = json.dumps(_finite(report), indent=2, default=float, allow_nan=False)
    if out_dir is not None:
        (out_dir / name).write_text(text + "\n")
    print(text)


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    spec = operator_from_config(cfg)
    out_dir = _out_dir(args.out)
    report = validate_general(spec)
    bundle = {"schema_version": SCHEMA_VERSION, "command": "validate",
              "config": str(args.config), **report.as_dict()}
    _emit(bundle, out_dir, "validate.json")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def cmd_kernel(args) -> int:
    if not 0.0 <= args.mass_tol < np.inf:  # NaN fails both
        raise ParameterError(f"--mass-tol must be finite and >= 0, got {args.mass_tol}")
    cfg = parse_config(args.config)
    spec = operator_from_config(cfg)
    report = validate_general(spec)
    if not report.passed:
        print(json.dumps({"error": "invalid operator", **report.as_dict()}))
        return EXIT_CHECK_FAILED
    ts = _floats("t.list", cfg.get("t.list", "1.0"))
    if len(set(ts)) != len(ts):
        raise StructuralError(f"t.list repeats a time: {cfg['t.list']!r}")
    # kernel_slices checks that each is one point (x, y)
    sources = [_floats("sources", tok) for tok in cfg.get("sources", "0,1").split(";")]
    if len({tuple(z) for z in sources}) != len(sources):
        raise StructuralError(f"sources repeats a point: {cfg['sources']!r}")
    grid = {"rx": _scalar(cfg, "grid.Rx", "8"), "ry": _scalar(cfg, "grid.Ry", "8"),
            "nx": _count(cfg, "grid.nx", "128"), "ny": _count(cfg, "grid.ny", "128")}
    out_dir = _out_dir(args.out) or Path(".")

    clock = time.perf_counter
    start = clock()
    slices = kernel_slices(spec, ts, sources, **grid)
    evaluate_s = clock() - start
    for slc in slices:
        defect = slc.meta.get("mass_defect", 0.0)
        if defect > args.mass_tol:
            print(json.dumps({
                "error": "grid too small for requested time",
                "t": slc.t, "mass_defect": defect, "tolerance": args.mass_tol,
            }))
            return EXIT_CHECK_FAILED
    paths = []
    for slc in slices:
        # shortest round-trip digits, so distinct values get distinct names
        t, x2, y2 = (str(float(v)).removesuffix(".0") for v in (slc.t, *slc.meta["source"]))
        tag = f"t{t}_x{x2}_y{y2}".replace("-", "m").replace(".", "p")
        paths.append(out_dir / f"kernel_{tag}.csv")
    start = clock()
    write_csv(slices, paths)
    write_s = clock() - start
    written = [{"file": str(path), "t": slc.t,
                **{k: v for k, v in slc.meta.items() if k != "reduction"}}
               for slc, path in zip(slices, paths)]
    # every slice of the run carries the same reduction
    _emit({"schema_version": SCHEMA_VERSION, "command": "kernel",
           "reduction": slices[0].meta["reduction"],
           "evaluate_s": evaluate_s, "write_s": write_s, "outputs": written},
          out_dir, "kernel_index.json")
    return EXIT_PASS


PROBE_SETS = ("smoke", "desk", "full")


def _verify_checks(probe_set: str, k_break: float = 1.0):
    """Run the deterministic verification sweep; returns (checks, all_passed).

    A check passes when its residual is at most its tolerance, unless it
    passes its own verdict (then its tolerance may be None).  Each check
    carries `wall_s`, the time since the previous check was recorded (so
    a check read off the same computation as the one before it shows
    about 0), and each solver check the `solve` stats of its evolutions.
    """
    checks = []
    start = time.perf_counter()

    def record(name, residual, tol, passed=None, solve=None, **params):
        nonlocal start
        now = time.perf_counter()
        passed = residual <= tol if passed is None else passed
        check = {"name": name, "residual": residual, "tolerance": tol,
                 "passed": bool(passed), "params": params, "wall_s": now - start}
        if solve is not None:
            check["solve"] = solve
        checks.append(check)
        start = now

    # --- closed-form layer (always) ---
    model0 = hh_model(0.0, 0.0)
    slc = V.exact_quadrature_slice(model0, 1.0, np.array([0.0, 1.0]))
    defect = V.check_conservation(slc)
    record("conservation_exact", defect, 1e-8, c=0.0, t=1.0)

    ids = V.check_identities_exact(model0, t=0.5, s=0.5, x0=1.3, scale=2.0,
                                   z1=np.array([0.2, 1.1]), z2=np.array([-0.3, 0.6]))
    record("scaling_exact", ids["scaling"], 1e-12)
    record("chapman_exact", ids["chapman_kolmogorov"], 1e-6)

    sls = _probe_slices(model0, ts=(0.25, 1.0), y2s=(0.1, 1.0))
    rep = V.fit_envelope_constants(sls, "product", 0.0, 1)
    params_up = EnvelopeParams(rep.c_up, rep.k_up * k_break, form=rep.form)
    verdict = V.envelope_verdict(sls, params_up, rep.params_low(), 0.0, 1)
    env_ok = rep.verdict and verdict["upper_holds"] and verdict["lower_holds"]
    record("envelope_exact", 1.0 - min(verdict["worst_upper_ratio"], 1.0), 0.0,
           passed=env_ok, k_up=params_up.rate, k_low=rep.k_low)

    alpha0 = V.normalizing_alpha(0.0, 1)
    tr = V.compute_G(model0, np.array([0.0, 0.5]), 0.5, alpha0, [0.5, 1.0])
    mono = V.check_G_monotone(tr)
    record("g_trace_exact", float(np.max(tr.values)), 1e-6,
           passed=np.max(tr.values) <= 1e-6 and mono["finite"], G1=tr.final)

    dbl = doubling_check(0.0, 1)
    record("doubling", dbl["worst_ratio"], dbl["shape_bound"], passed=dbl["within_shape"])

    win = envelope_equivalence_window(2.0, 0.1)
    record("equivalence_window", win[1], None, passed=np.isfinite(win[1]))

    if probe_set == "smoke":
        return checks, all(ch["passed"] for ch in checks)

    # --- solver layer (desk / full) ---
    heavy = probe_set == "full"
    n_cells = 128 if heavy else 96
    for (a, c) in ((0.5, -0.5), (0.5, 1.0)):
        model = hh_model(a, c)
        grid = GridSpec(rx=6.0, ry=6.0, nx=n_cells, ny=n_cells, c=c)
        op = assemble(model, grid)
        col = kernel_columns(op, [1.0], np.array([0.0, 1.0]))[0]
        defect = V.check_conservation(col)
        record(f"conservation_solver_a{a}_c{c}", defect, 1e-3, solve=V.solve_stats([col]))

        ids = V.check_identities_solver(op, t=0.5, s=0.5, x0_cells=4, scale=2.0,
                                        z1_index=(n_cells // 2, n_cells // 4),
                                        z2_index=(n_cells // 2 + 6, n_cells // 3))
        for name, key, tol in (("scaling", "scaling", 1e-10),
                               ("translation", "translation", 1e-12),
                               ("adjoint", "adjoint", 1e-12),
                               ("chapman", "chapman_kolmogorov", 1e-3)):
            record(f"{name}_solver_a{a}_c{c}", ids[key], tol, solve=ids["solve"])

    sab_spec = sab_mod.SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=2.0)
    ladder = sab_mod.sab_norm_estimate(sab_spec, levels=3)
    stab = ladder[-1] / ladder[0]
    record("sab_sec6_stable", stab, 1.5, passed=stab < 1.5)
    bad = sab_mod.SabSpec(alpha=1.0, beta=0.0, m=0.0, p=2.0)
    ladder_bad = sab_mod.sab_norm_estimate(bad, levels=3)
    growth = ladder_bad[-1] / ladder_bad[0]
    record("sab_false_diverges", growth, 10.0, passed=growth >= 10.0)
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
    if not 0.0 < args.break_rate < np.inf:  # NaN fails both
        raise ParameterError(f"--break-rate must be finite and positive, got {args.break_rate}")
    out_dir = _out_dir(args.out)
    checks, ok = _verify_checks(args.probe_set, k_break=args.break_rate)
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "probe_set": args.probe_set,
        "passed": ok,
        "checks": checks,
    }
    _emit(bundle, out_dir, "verify.json")
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


def _made_dirs(out: str | None) -> list[Path]:
    """The directories, deepest first, that making --out would create."""
    if not out:
        return []
    path = Path(out)
    return [p for p in (path, *path.parents) if not p.exists()]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    made = _made_dirs(args.out)
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
    except OSError as exc:  # an --out that cannot be made or written
        print(json.dumps({"error": "output error", "detail": str(exc)}))
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # a grid whose arrays cannot be allocated
        print(json.dumps({"error": "out of memory", "detail": str(exc)}))
        return EXIT_CONFIG_ERROR
    finally:
        # a run that wrote no file leaves none of the directories it made for --out
        for path in made:
            with contextlib.suppress(OSError):  # not empty, or never made
                path.rmdir()


if __name__ == "__main__":
    sys.exit(main())
