"""The benchmark workloads: seeded inputs, timed calls, correctness checks.

Every workload has the same four steps:

    make_inputs(seed, workdir)  draws the inputs; the seed jitters values
                                around fixed nominal ones, the amount of
                                work is fixed
    warm_up(inputs)             small calls that pay first-use costs (set-up)
    run_round(inputs)           the timed section: only calls into halfheat,
                                each made through `_attempt`, which times it
    check(inputs, outputs)      untimed oracle and format checks -> list[Op]

An operation fails when its call raised, returned a non-finite value, or
failed its check; `Op.err` is its relative error against the oracle.
The check functions take plain values, so the self-tests can feed them
crafted bad inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special as sp

from halfheat import cli, kernels, operators, sab, solver, verify

warnings.filterwarnings("ignore", message="source .* snapped")

# acceptance tolerances (tests/test_acceptance.py)
ORACLE_TOL = 0.05            # criteria 1 and 10: solver vs closed form
SOLVER_MASS_TOL = 1e-3       # criterion 2, solver columns
EXACT_MASS_TOL = 1e-8        # criterion 2, quadrature grids
CK_TOL = 1e-6                # criterion 3, exact Chapman-Kolmogorov
SCALING_TOL = 1e-12          # criterion 3, exact scaling
G_TOL = 1e-6                 # verify --probe-set smoke, G-trace
POINCARE_TOL = 1e-6          # criterion 8, u = x against 1/(2 alpha)
EXACT_ROUTE_TOL = 1e-12      # closed-form CLI route against the benchmark's own formula


@dataclass
class Op:
    """Verdict on one operation of a round."""

    name: str
    ok: bool
    err: float | None = None
    detail: str = ""


def rel_err(values, exact) -> float:
    """max |values - exact| / max |exact|; inf when anything is non-finite."""
    values = np.asarray(values, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if values.shape != exact.shape or not np.all(np.isfinite(values)):
        return float("inf")
    return float(np.max(np.abs(values - exact)) / np.max(np.abs(exact)))


def _jitter(rng, nominal: float, spread: float) -> float:
    return float(nominal + spread * rng.uniform(-1.0, 1.0))


REFERENCE_ITERATIONS = 150_000   # about 15 ms on a 2.1 GHz Xeon


def reference_time() -> float:
    """Wall time of a fixed pure-Python loop that uses no halfheat code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


# (call seconds, reference seconds) for every `_attempt` call since
# start_round(); the reference is the mean of the loops timed right before
# and right after the call.  A round makes the same calls in the same order.
ROUND_CALLS: list[tuple[float, float]] = []
_last_reference = [None]


def start_round() -> None:
    """Forget the last reference: a round's first call takes only the one
    after it, because the checks that run just before a round leave BLAS
    threads spinning, and they slow the loop on a 2-vCPU machine."""
    ROUND_CALLS.clear()
    _last_reference[0] = None


def _attempt(fn, *args, **kwargs):
    """Result of a timed call, or the exception it raised."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a raising call is a failed operation
        return exc
    finally:
        elapsed = time.perf_counter() - t0
        after = reference_time()
        before = _last_reference[0]
        ROUND_CALLS.append((elapsed, after if before is None else 0.5 * (before + after)))
        _last_reference[0] = after


def _failed(name: str, result) -> Op | None:
    if isinstance(result, Exception):
        return Op(name, False, None, f"raised {type(result).__name__}: {result}")
    return None


class Workload:
    """Defaults for workloads that write no files."""

    def output_stats(self, inp: dict) -> dict:
        return {}

    def clean(self, inp: dict) -> None:
        pass


# ---------------------------------------------------------------------------
# columns: solver-bound kernel columns through several checkpoints


def check_column(name: str, slices, ts, oracle) -> Op:
    """Finite values, mass defect <= 1e-3, oracle error <= 5% per checkpoint.

    `oracle(slice)` returns the exact values at the slice's points and
    snapped source.
    """
    if len(slices) != len(ts) or any(abs(s.t - t) > 1e-12 for s, t in zip(slices, ts)):
        return Op(name, False, None, "checkpoint times do not match the request")
    worst = 0.0
    for slc in slices:
        if not np.all(np.isfinite(slc.values)):
            return Op(name, False, float("inf"), f"non-finite values at t={slc.t}")
        defect = abs(slc.mass() - 1.0)
        if not defect <= SOLVER_MASS_TOL:
            return Op(name, False, None, f"mass defect {defect:.3e} at t={slc.t}")
        worst = max(worst, rel_err(slc.values, oracle(slc)))
    ok = worst <= ORACLE_TOL
    return Op(name, ok, worst, "" if ok else f"oracle error {worst:.3e}")


class Columns(Workload):
    """Two operators, two sources each, three checkpoints per column."""

    name = "columns"
    TS = (0.25, 0.5, 1.0)
    MODEL_GRID = dict(rx=8.0, ry=8.0, nx=128, ny=128)
    CROSS_GRID = dict(rx=8.0, ry=8.0, nx=112, ny=112)

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        c = _jitter(rng, 0.5, 0.05)
        model = operators.ModelOperatorSpec(n=1, a=np.array([0.0]), c=c)
        q, cg = _jitter(rng, 0.5, 0.01), _jitter(rng, 0.6, 0.03)
        # d = (c / gamma) q makes the operator a pure weighted divergence
        spec = operators.GeneralOperatorSpec(
            n=1, a_matrix=np.array([[2.0, q], [q, 1.0]]), drift=np.array([cg * q, cg]))

        def sources():
            return [np.array([_jitter(rng, 0.0, 0.2), _jitter(rng, y, 0.05)])
                    for y in (0.7, 1.3)]

        return {
            "model": model, "model_grid": solver.GridSpec(c=c, **self.MODEL_GRID),
            "model_sources": sources(),
            "spec": spec, "cross_grid": solver.GridSpec(c=cg, **self.CROSS_GRID),
            "cross_sources": sources(),
        }

    def warm_up(self, inp: dict) -> None:
        grid = solver.GridSpec(rx=4.0, ry=4.0, nx=16, ny=16, c=inp["model"].c)
        op = solver.assemble(inp["model"], grid)
        solver.kernel_columns(op, [0.25], np.array([0.0, 1.0]))

    def run_round(self, inp: dict) -> dict:
        out = {}
        for case, build, args in (
            ("model", solver.assemble, (inp["model"], inp["model_grid"])),
            ("cross", solver.assemble_divergence_form, (inp["spec"], inp["cross_grid"])),
        ):
            op = _attempt(build, *args)
            if isinstance(op, Exception):
                out[case] = op
                continue
            out[case] = [_attempt(solver.kernel_columns, op, self.TS, z2)
                         for z2 in inp[f"{case}_sources"]]
        return out

    def check(self, inp: dict, out: dict) -> list[Op]:
        red = operators.reduce_to_model(inp["spec"])
        oracles = {
            "model": lambda s: kernels.exact_slice(inp["model"], s.t, s.source, s.points).values,
            "cross": lambda s: operators.general_kernel_exact(red, s.t, s.points, s.source),
        }
        ops = []
        for case in ("model", "cross"):
            n_src = len(inp[f"{case}_sources"])
            result = out.get(case)
            if isinstance(result, Exception) or result is None:
                ops += [Op(f"{case}/source{k}", False, None, f"assembly failed: {result}")
                        for k in range(n_src)]
                continue
            for k, slices in enumerate(result):
                name = f"{case}/source{k}"
                ops.append(_failed(name, slices)
                           or check_column(name, slices, self.TS, oracles[case]))
        return ops


# ---------------------------------------------------------------------------
# kernel_cli: the `halfheat kernel` front door, in-process


def bessel_oracle(c: float, t: float, y1, y2):
    """1-D Bessel heat kernel w.r.t. y^c dy, straight from scipy's ive."""
    nu = 0.5 * (c - 1.0)
    xi = y1 * y2 / (2.0 * t)
    return (0.5 / t) * (y1 * y2) ** (-nu) * np.exp(-((y1 - y2) ** 2) / (4.0 * t)) * sp.ive(nu, xi)


def diagonal_oracle(q_xx: float, gamma: float, c: float, t: float, rows: np.ndarray):
    """Kernel of Q D_xx + gamma D_yy + (c/y) D_y w.r.t. y^{c/gamma} dz.

    The x-factor is the heat kernel of Q D_xx at time t; the y-factor is
    the Bessel kernel of order (c/gamma - 1)/2 at time gamma t.
    """
    _, x1, y1, x2, y2 = rows[:, :5].T
    gauss = np.exp(-((x1 - x2) ** 2) / (4.0 * q_xx * t)) / np.sqrt(4.0 * np.pi * q_xx * t)
    return gauss * bessel_oracle(c / gamma, gamma * t, y1, y2)


CSV_HEADER = "t,x1,y1,x2,y2,p,convention"


def check_kernel_run(name: str, cfg: dict, result, out_dir: Path) -> Op:
    """Exit 0; the index lists every (t, source); nx*ny finite rows per CSV
    in the y^c dz convention; mass defect <= 1e-3 where the index has one;
    the oracle error where the config has an oracle."""
    failed = _failed(name, result)
    if failed:
        return failed
    rc, stdout = result
    if rc != 0:
        return Op(name, False, None, f"exit code {rc}: {stdout[-300:]}")
    try:
        index = json.loads((out_dir / "kernel_index.json").read_text())
    except (OSError, ValueError) as exc:
        return Op(name, False, None, f"unreadable kernel_index.json: {exc}")
    want = [(t, tuple(z)) for t in cfg["ts"] for z in cfg["sources"]]
    entries = index.get("outputs", [])
    got = [(e["t"], tuple(e["source"])) for e in entries]
    if len(got) != len(want) or any(
            abs(gt - wt) > 1e-12 or not np.allclose(gz, wz, rtol=0, atol=1e-12)
            for (gt, gz), (wt, wz) in zip(sorted(got), sorted(want))):
        return Op(name, False, None, f"index lists {got}, expected {want}")
    n_rows = cfg["nx"] * cfg["ny"]
    oracle = cfg.get("oracle")
    worst = 0.0
    for entry in entries:
        path = Path(entry["file"])
        try:
            lines = path.read_text().splitlines()
        except OSError as exc:
            return Op(name, False, None, f"unreadable {path.name}: {exc}")
        if not lines or lines[0] != CSV_HEADER or len(lines) - 1 != n_rows:
            return Op(name, False, None,
                      f"{path.name}: {len(lines) - 1} rows, expected {n_rows} under the header")
        if not all(line.endswith(",y^c dz") for line in lines[1:]):
            return Op(name, False, None, f"{path.name}: convention is not y^c dz")
        try:
            rows = np.loadtxt(lines[1:], delimiter=",", usecols=range(6), ndmin=2)
        except ValueError as exc:
            return Op(name, False, None, f"{path.name}: malformed row: {exc}")
        if rows.shape != (n_rows, 6) or not np.all(np.isfinite(rows)):
            return Op(name, False, float("inf"), f"{path.name}: non-finite values")
        defect = entry.get("mass_defect")
        if defect is not None and not defect <= SOLVER_MASS_TOL:
            return Op(name, False, None, f"{path.name}: mass defect {defect:.3e}")
        if oracle is not None:
            worst = max(worst, rel_err(rows[:, 5], oracle(rows)))
    if oracle is None:
        return Op(name, True, None)
    tol = cfg.get("tol", ORACLE_TOL)
    ok = worst <= tol
    return Op(name, ok, worst, "" if ok else f"oracle error {worst:.3e} > {tol:g}")


def _config_text(cfg: dict) -> str:
    (qxx, q), (_, gamma) = cfg["A"]
    src = " ; ".join(f"{x!r},{y!r}" for x, y in cfg["sources"])
    return "\n".join([
        "N = 1",
        f"A.row.1 = {qxx!r}, {q!r}",
        f"A.row.2 = {q!r}, {gamma!r}",
        f"v.d = {cfg['d']!r}",
        f"v.c = {cfg['c']!r}",
        f"grid.Rx = {cfg['rx']!r}",
        f"grid.Ry = {cfg['ry']!r}",
        f"grid.nx = {cfg['nx']}",
        f"grid.ny = {cfg['ny']}",
        "t.list = " + ", ".join(repr(t) for t in cfg["ts"]),
        f"sources = {src}",
    ]) + "\n"


def _spec(cfg: dict) -> operators.GeneralOperatorSpec:
    return operators.GeneralOperatorSpec(n=1, a_matrix=np.array(cfg["A"]),
                                         drift=np.array([cfg["d"], cfg["c"]]))


class KernelCli(Workload):
    """`halfheat kernel <cfg> --out <dir>` on three configs, in-process."""

    name = "kernel_cli"
    TS = (0.25, 0.5)
    GRID = dict(rx=6.0, ry=6.0, nx=96, ny=96)

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        j = lambda nominal, spread: _jitter(rng, nominal, spread)  # noqa: E731
        configs = []

        # general: mixed A and an oblique drift off the divergence form, so the
        # model keeps a != 0 and the CLI takes the solver-reduced route
        q = j(0.7, 0.02)
        configs.append(dict(name="general", A=[[j(2.0, 0.05), q], [q, 1.0]],
                            d=j(0.3, 0.02), c=j(0.6, 0.03),
                            sources=[(j(0.0, 0.2), j(1.0, 0.05)),
                                     (j(0.0, 0.2), j(0.5, 0.05))]))

        # divergence: d = (c/gamma) q reduces to a = 0 up to round-off.  A and c
        # are fixed because the route the CLI takes depends on that round-off.
        # The sources sit a fixed 0.1 of a model cell off a cell center, so
        # the snapped-source defect weighs the same for every seed.
        a_div, c_div = [[2.0, 0.7], [0.7, 1.2]], 0.6
        div = dict(name="divergence", A=a_div, d=c_div * 0.7 / 1.2, c=c_div)
        div["sources"] = self._offset_sources(div, rng)
        configs.append(div)

        # diagonal: diagonal A, d = 0 -> closed-form exact-reduced route
        configs.append(dict(name="diagonal", A=[[j(2.0, 0.05), 0.0], [0.0, j(1.0, 0.05)]],
                            d=0.0, c=j(0.6, 0.03),
                            sources=[(j(0.0, 0.2), j(1.0, 0.05)),
                                     (j(0.0, 0.2), j(0.5, 0.05))]))

        (workdir / "cfg").mkdir(parents=True, exist_ok=True)
        for cfg in configs:
            cfg.update(ts=list(self.TS), **self.GRID)
            cfg["path"] = workdir / "cfg" / f"{cfg['name']}.cfg"
            cfg["path"].write_text(_config_text(cfg))
            cfg["out"] = workdir / "out" / cfg["name"]
        self._attach_oracles(configs)
        return {"configs": configs, "workdir": workdir}

    def _offset_sources(self, cfg: dict, rng) -> list[tuple]:
        """General-coordinate sources whose model images sit (0.1, 0.1) cells
        off a seeded model cell center."""
        (qxx, q), (_, gamma) = cfg["A"]
        shear = cfg["d"] / cfg["c"]
        q_t = qxx - 2.0 * shear * q + shear ** 2 * gamma      # sheared x-block
        m = np.sqrt(gamma / q_t)                               # model x' = m (x - shear y)
        hx = 2.0 * self.GRID["rx"] / self.GRID["nx"]
        hy = self.GRID["ry"] / self.GRID["ny"]
        out = []
        for y_nominal in (1.0, 0.5):
            i = self.GRID["nx"] // 2 + int(rng.integers(-3, 4))
            jy = int(y_nominal / hy) + int(rng.integers(-1, 2))
            xm = -self.GRID["rx"] + (i + 0.6) * hx
            y = (jy + 0.6) * hy
            out.append((float(xm / m + shear * y), float(y)))
        return out

    @staticmethod
    def _attach_oracles(configs: list[dict]) -> None:
        """Oracles take the numeric CSV columns of one file: one t, one source."""
        for cfg in configs:
            if cfg["name"] == "divergence":
                red = operators.reduce_to_model(_spec(cfg))
                cfg["oracle"] = lambda rows, red=red: operators.general_kernel_exact(
                    red, rows[0, 0], rows[:, 1:3], rows[0, 3:5])
            elif cfg["name"] == "diagonal":
                (qxx, _), (_, gamma) = cfg["A"]
                cfg["oracle"] = lambda rows, qxx=qxx, gamma=gamma, c=cfg["c"]: \
                    diagonal_oracle(qxx, gamma, c, rows[0, 0], rows)
                cfg["tol"] = EXACT_ROUTE_TOL

    def warm_up(self, inp: dict) -> None:
        tiny = dict(inp["configs"][0], nx=16, ny=16, ts=[0.25],
                    sources=inp["configs"][0]["sources"][:1])
        path = inp["workdir"] / "cfg" / "warm.cfg"
        path.write_text(_config_text(tiny))
        out = inp["workdir"] / "out" / "warm"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["kernel", str(path), "--out", str(out)])
        shutil.rmtree(out, ignore_errors=True)

    def run_round(self, inp: dict) -> dict:
        out = {}
        for cfg in inp["configs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = _attempt(cli.main, ["kernel", str(cfg["path"]), "--out", str(cfg["out"])])
            out[cfg["name"]] = rc if isinstance(rc, Exception) else (rc, buf.getvalue())
        return out

    def check(self, inp: dict, out: dict) -> list[Op]:
        return [check_kernel_run(cfg["name"], cfg, out.get(cfg["name"]), cfg["out"])
                for cfg in inp["configs"]]

    def output_stats(self, inp: dict) -> dict:
        files = [p for cfg in inp["configs"] if cfg["out"].exists()
                 for p in cfg["out"].iterdir()]
        return {"cli.files_written": len(files),
                "cli.bytes_written": sum(p.stat().st_size for p in files)}

    def clean(self, inp: dict) -> None:
        for cfg in inp["configs"]:
            shutil.rmtree(cfg["out"], ignore_errors=True)


# ---------------------------------------------------------------------------
# verdicts: the closed-form verdict sweep and the S^{alpha,beta} matrix

SAB_MATRIX = [  # criterion 9
    (dict(alpha=0.0, beta=-1.0, m=1.0, p=2.0), True),
    (dict(alpha=0.0, beta=-1.0, m=1.0, p=1.0), True),
    (dict(alpha=0.0, beta=-1.0, m=1.0, p=4.0), True),
    (dict(alpha=0.0, beta=0.5, m=-0.5, p=2.0), True),
    (dict(alpha=0.25, beta=0.25, m=0.0, p=2.0), True),
    (dict(alpha=0.0, beta=0.0, theta=0.3, m=0.0, p=2.0), True),
    (dict(alpha=0.0, beta=-0.5, m=0.2, p=1.0), True),
    (dict(alpha=1.0, beta=0.0, m=0.0, p=2.0), False),
    (dict(alpha=0.0, beta=0.0, theta=1.2, m=0.0, p=2.0), False),
    (dict(alpha=0.0, beta=0.9, m=0.0, p=2.0), False),
    (dict(alpha=0.0, beta=0.0, m=2.5, p=2.0), False),
    (dict(alpha=0.0, beta=0.5, m=0.0, p=1.0), False),
]


def check_ladder(name: str, predicted, ladder, expected: bool) -> Op:
    """sab_criterion agrees with the expected verdict, and the ladder shows it:
    growth < 1.5 with last step < 1.1 when bounded, growth >= 10 when not."""
    failed = _failed(name, predicted) or _failed(name, ladder)
    if failed:
        return failed
    ladder = np.asarray(ladder, dtype=float)
    if ladder.size < 2 or not np.all(np.isfinite(ladder)) or not np.all(ladder > 0):
        return Op(name, False, None, f"ladder {ladder.tolist()} is not positive and finite")
    growth = ladder[-1] / ladder[0]
    if expected:
        shows = growth < 1.5 and ladder[-1] / ladder[-2] < 1.1
    else:
        shows = growth >= 10.0
    ok = predicted is expected and shows
    return Op(name, ok, None, "" if ok else
              f"expected {expected}, criterion {predicted}, growth {growth:.3g}")


def check_bound(name: str, value, tol: float, err: bool = True) -> Op:
    """A residual at or below its tolerance; it is the op's error when `err`."""
    failed = _failed(name, value)
    if failed:
        return failed
    value = float(value)
    ok = bool(np.isfinite(value) and value <= tol)
    return Op(name, ok, value if err else None,
              "" if ok else f"residual {value:.3e} > {tol:g}")


class Verdicts(Workload):
    """Closed-form checks on the acceptance inputs, seeded probes, four ladders.

    The ladders are four fixed cases of the criterion-9 matrix, two bounded
    and two unbounded, one of each with theta != 0.  Every case makes the
    same calls, but not at the same cost, so the seed does not pick them.
    """

    name = "verdicts"
    CONSERVATION_CS = (-0.5, 0.0, 1.0, 2.0)     # criterion 2
    CONSERVATION_TS = (0.5, 1.0, 2.0)
    SAB_LEVELS = 4
    SAB_CASES = (2, 5, 8, 11)   # p = 4; theta = 0.3; theta = 1.2; p = 1

    def make_inputs(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        model = lambda c: operators.ModelOperatorSpec(n=1, a=np.array([0.0]), c=c)  # noqa: E731
        c_env = _jitter(rng, 1.0, 0.1)
        c_g = _jitter(rng, 0.0, 0.1)
        c_p = _jitter(rng, 1.0, 0.1)
        return {
            # round-off residuals (~5e-15) scatter by tens of percent under any
            # jitter, so err_max reads the fixed acceptance inputs
            "conservation": [(model(c), t) for c in self.CONSERVATION_CS
                             for t in self.CONSERVATION_TS],
            "cons_z2": np.array([0.1, 0.7]),
            "identity": (model(1.0), dict(t=0.5, s=0.5, x0=1.5, scale=2.0,
                                          z1=np.array([0.2, 1.0]),
                                          z2=np.array([-0.4, 0.5]))),
            "envelope": (model(c_env), c_env,
                         [_jitter(rng, 0.1, 0.02), _jitter(rng, 1.0, 0.1)]),
            "g_trace": (model(c_g), c_g,
                        np.array([_jitter(rng, 0.0, 0.2), _jitter(rng, 0.5, 0.05)])),
            "poincare": (c_p, [(_jitter(rng, 4.0, 0.5), _jitter(rng, 4.0, 0.5)),
                               _jitter(rng, 0.05, 0.01)]),
            "sab": [(k, sab.SabSpec(**SAB_MATRIX[k][0]), SAB_MATRIX[k][1])
                    for k in self.SAB_CASES],
        }

    @staticmethod
    def probe_slices(m, ts, y2s):
        """Exact probe slices: y in [0.02, 8], x offsets up to 6 sqrt(t)."""
        slices = []
        for t in ts:
            y1 = np.geomspace(0.02, 8.0, 16)
            dx = np.linspace(0.0, 6.0 * np.sqrt(t), 12)
            yy, xx = np.meshgrid(y1, dx, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            slices += [kernels.exact_slice(m, t, np.array([0.0, y2]), pts) for y2 in y2s]
        return slices

    @staticmethod
    def poincare_fields(c: float, centre, width: float):
        grid = solver.GridSpec(rx=8.0, ry=8.0, nx=128, ny=128, c=c)
        fns = (
            lambda x, y: x,
            lambda x, y: y,
            lambda x, y: x * y,
            lambda x, y: x ** 2 - y ** 2,
            lambda x, y: x ** 3,
            lambda x, y: np.exp(-((y - 0.01) / width) ** 2),
            lambda x, y: np.exp(-((x - centre[0]) ** 2 + (y - centre[1]) ** 2)),
        )
        return [solver.Field.from_function(grid, fn) for fn in fns]

    def warm_up(self, inp: dict) -> None:
        m, _ = inp["identity"]
        verify.exact_quadrature_slice(m, 1.0, inp["cons_z2"])
        _, spec, _ = inp["sab"][0]
        sab.sab_norm_estimate(spec, levels=1, base_octaves=1)

    def run_round(self, inp: dict) -> dict:
        out = {"conservation": [
            _attempt(lambda m=m, t=t: verify.check_conservation(
                verify.exact_quadrature_slice(m, t, inp["cons_z2"])))
            for m, t in inp["conservation"]]}
        m, kw = inp["identity"]
        out["identity"] = _attempt(verify.check_identities_exact, m, **kw)

        m, c, y2s = inp["envelope"]

        def envelope():
            slices = self.probe_slices(m, (0.25, 1.0), y2s)
            rep = verify.fit_envelope_constants(slices, "product", c, 1)
            return rep, verify.envelope_verdict(slices, rep.params_up(), rep.params_low(), c, 1)
        out["envelope"] = _attempt(envelope)

        m, c, z2 = inp["g_trace"]
        out["g_trace"] = _attempt(lambda: verify.compute_G(
            m, z2, 0.5, verify.normalizing_alpha(c, 1), [0.5, 0.75, 1.0]))

        c, (centre, width) = inp["poincare"]

        def poincare():
            alpha = verify.normalizing_alpha(c, 1)
            fields = self.poincare_fields(c, centre, width)
            return verify.poincare_ratio(fields, alpha, c), alpha
        out["poincare"] = _attempt(poincare)

        out["sab"] = [(_attempt(sab.sab_criterion, spec),
                       _attempt(sab.sab_norm_estimate, spec, levels=self.SAB_LEVELS))
                      for _, spec, _ in inp["sab"]]
        return out

    def check(self, inp: dict, out: dict) -> list[Op]:
        ops = [check_bound(f"conservation/c{m.c:g}/t{t:g}", defect, EXACT_MASS_TOL)
               for (m, t), defect in zip(inp["conservation"], out["conservation"])]

        ids = out["identity"]
        ops.append(_failed("identities", ids) or _all_of("identities", [
            check_bound("chapman_kolmogorov", ids["chapman_kolmogorov"], CK_TOL),
            check_bound("scaling", ids["scaling"], SCALING_TOL, err=False)]))

        env = out["envelope"]
        if isinstance(env, Exception):
            ops.append(_failed("envelope", env))
        else:
            rep, verdict = env
            ok = bool(rep.verdict and verdict["upper_holds"] and verdict["lower_holds"])
            ops.append(Op("envelope", ok, None, "" if ok else f"envelope verdict {verdict}"))

        tr = out["g_trace"]
        ops.append(_failed("g_trace", tr) or check_bound(
            "g_trace", np.max(tr.values) if np.all(np.isfinite(tr.values)) else np.inf,
            G_TOL, err=False))

        res = out["poincare"]
        if isinstance(res, Exception):
            ops.append(_failed("poincare", res))
        else:
            ratio, alpha = res
            exact = 1.0 / (2.0 * alpha)
            dev = abs(ratio["ratios"][0] - exact) / exact
            ops.append(_all_of("poincare", [
                check_bound("u=x", dev, POINCARE_TOL, err=False),
                Op("sup", bool(np.isfinite(ratio["sup_ratio"])))]))

        for (k, _, expected), (predicted, ladder) in zip(inp["sab"], out["sab"]):
            ops.append(check_ladder(f"sab/case{k + 1}", predicted, ladder, expected))
        return ops


def _all_of(name: str, parts: list[Op]) -> Op:
    errs = [p.err for p in parts if p.err is not None]
    bad = [f"{p.name}: {p.detail}" for p in parts if not p.ok]
    return Op(name, not bad, max(errs) if errs else None, "; ".join(bad))


WORKLOADS = {w.name: w for w in (Columns(), KernelCli(), Verdicts())}
