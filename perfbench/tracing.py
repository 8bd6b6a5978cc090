"""Spans around calls into halfheat, recorded from outside the package.

`Tracer.install` replaces every public function of every halfheat module
(and the public methods of its classes) by a wrapper, in each module
namespace where a caller looks the name up: `halfheat.cli.assemble`,
`halfheat.sab.legendre_panel`, `halfheat.kernels.bessel_i_scaled` and so
on.  A function bound under several names gets one shared wrapper.  Each
call becomes a span (name, start, end, parent) kept in memory;
`uninstall` puts the originals back.  A span is named after the module
that defines the function, so its layer is the part before the first dot.

Names that a later refactor removes are simply not found: the metrics
that read them report zero calls.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "operators", "special", "kernels", "solver", "geometry",
          "verify", "sab", "quadrature")

# foreign functions a halfheat module calls through its own namespace
FOREIGN = (("solver", "splu", "solver.splu"),)

# (name, unit) of every per-layer metric; all read "lower is better"
PER_LAYER = [
    ("solver.columns_s", "s"), ("solver.columns_calls", "count"),
    ("solver.column_s_p50", "s"), ("solver.assemble_s", "s"),
    ("solver.assemble_calls", "count"), ("solver.evolve_s", "s"),
    ("solver.factorizations", "count"), ("solver.factorize_s", "s"),
    ("solver.unknowns", "count"), ("solver.form_nnz", "count"),
    ("solver.mass_defect_max", "1"),
    ("kernels.to_csv_s", "s"), ("kernels.csv_rows", "count"),
    ("kernels.product_kernel_s", "s"), ("kernels.points", "count"),
    ("special.bessel_s", "s"),
    ("quadrature.legendre_panel_s", "s"), ("quadrature.legendre_panel_calls", "count"),
    ("quadrature.halfspace_nodes_s", "s"),
    ("sab.norm_estimate_s", "s"), ("sab.ladders", "count"),
    ("sab.apply_bump_calls", "count"),
    ("verify.quadrature_slice_s", "s"), ("verify.fit_s", "s"),
    ("verify.identities_s", "s"), ("verify.g_trace_s", "s"),
    ("verify.poincare_s", "s"), ("geometry.envelope_eval_s", "s"),
    ("operators.validate_s", "s"), ("operators.reduce_s", "s"),
    ("operators.map_s", "s"), ("operators.exact_s", "s"),
    ("cli.invocations", "count"), ("cli.files_written", "count"),
    ("cli.bytes_written", "bytes"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("trace.outside_spans_s", "s"), ("trace.spans", "count"), ("trace.hook_errors", "count"),
    ("trace.wall_s", "s"), ("trace.overhead", "ratio"),
]


def _home(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("halfheat."):
        return None
    return mod.split(".", 1)[1]


class Tracer:
    """Span recorder for one traced round at a time."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict = defaultdict(float)
        self._patches: list = []
        self._wrappers: dict = {}

    # -- installation -------------------------------------------------

    def _wrap(self, name: str, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, stack = self.spans, self.stack
        hook = _HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                try:
                    hook(self.counters, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.counters["trace.hook_errors"] += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        self._wrappers[key] = wrapper
        return wrapper

    def _patch(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {short: getattr(self.package, short, None) for short in LAYERS}
        for short, mod in modules.items():
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = _home(value)
                if home is None:
                    continue
                if inspect.isfunction(value):
                    self._patch(mod, attr, f"{home}.{attr}")
                elif inspect.isclass(value) and home == short:
                    for meth, member in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(member):
                            self._patch(value, meth, f"{home}.{attr}.{meth}")
        for short, attr, name in FOREIGN:
            mod = modules.get(short)
            if mod is not None and callable(getattr(mod, attr, None)):
                self._patch(mod, attr, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrappers.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    # -- reduction to per-layer metrics -------------------------------

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def ancestors_in(idx, names):
            parent = spans[idx][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        by_name = defaultdict(list)
        for i, span in enumerate(spans):
            by_name[span[0]].append(i)

        def inclusive(*names):
            names = set(names)
            return sum(spans[i][2] - spans[i][1] for n in names for i in by_name[n]
                       if not ancestors_in(i, names))

        def calls(*names):
            return sum(len(by_name[n]) for n in names)

        self_time = defaultdict(float)
        roots = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            self_time[name.split(".", 1)[0]] += (end - start) - child_time[i]
            if parent < 0:
                roots += end - start

        cols = [spans[i][2] - spans[i][1] for i in by_name["solver.kernel_columns"]]
        ctr = self.counters
        out = {
            "solver.columns_s": inclusive("solver.kernel_columns"),
            "solver.columns_calls": calls("solver.kernel_columns"),
            "solver.column_s_p50": statistics.median(cols) if cols else 0.0,
            "solver.assemble_s": inclusive("solver.assemble",
                                           "solver.assemble_divergence_form"),
            "solver.assemble_calls": calls("solver.assemble",
                                           "solver.assemble_divergence_form"),
            "solver.evolve_s": inclusive("solver.evolve"),
            "solver.factorizations": calls("solver.splu"),
            "solver.factorize_s": inclusive("solver.splu"),
            "solver.unknowns": ctr["solver.unknowns"],
            "solver.form_nnz": ctr["solver.form_nnz"],
            "solver.mass_defect_max": ctr["solver.mass_defect_max"],
            "kernels.to_csv_s": inclusive("kernels.KernelSlice.to_csv"),
            "kernels.csv_rows": ctr["kernels.csv_rows"],
            "kernels.product_kernel_s": inclusive("kernels.product_kernel"),
            "kernels.points": ctr["kernels.points"],
            "special.bessel_s": inclusive("special.bessel_i_scaled"),
            "quadrature.legendre_panel_s": inclusive("quadrature.legendre_panel"),
            "quadrature.legendre_panel_calls": calls("quadrature.legendre_panel"),
            "quadrature.halfspace_nodes_s": inclusive("quadrature.halfspace_nodes"),
            "sab.norm_estimate_s": inclusive("sab.sab_norm_estimate"),
            "sab.ladders": calls("sab.sab_norm_estimate"),
            "sab.apply_bump_calls": calls("sab.sab_apply_bump"),
            "verify.quadrature_slice_s": inclusive("verify.exact_quadrature_slice"),
            "verify.fit_s": inclusive("verify.fit_envelope_constants",
                                      "verify.envelope_verdict"),
            "verify.identities_s": inclusive("verify.check_identities",
                                             "verify.check_identities_exact",
                                             "verify.check_identities_solver"),
            "verify.g_trace_s": inclusive("verify.compute_G",
                                          "verify.compute_G_from_slices"),
            "verify.poincare_s": inclusive("verify.poincare_ratio"),
            "geometry.envelope_eval_s": inclusive("geometry.envelope_eval"),
            "operators.validate_s": inclusive("operators.validate_general"),
            "operators.reduce_s": inclusive("operators.reduce_to_model",
                                            "operators.shear_transform"),
            "operators.map_s": inclusive("operators.map_point",
                                         "operators.inverse_map_point",
                                         "operators.map_kernel_value"),
            "operators.exact_s": inclusive("operators.general_kernel_exact"),
            "cli.invocations": calls("cli.main"),
            "trace.spans": len(spans),
            "trace.hook_errors": ctr["trace.hook_errors"],
            "trace.outside_spans_s": max(wall - roots, 0.0),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        return out


# -- counters read from arguments and results at layer boundaries ------


def _count_operator(ctr, args, kwargs, op):
    form = getattr(op, "form", None)
    if form is not None:
        ctr["solver.unknowns"] = max(ctr["solver.unknowns"], form.shape[0])
        ctr["solver.form_nnz"] = max(ctr["solver.form_nnz"], form.nnz)


def _count_columns(ctr, args, kwargs, slices):
    for slc in slices:
        if slc.weights is not None:
            defect = abs(float(np.dot(slc.weights, slc.values)) - 1.0)
            ctr["solver.mass_defect_max"] = max(ctr["solver.mass_defect_max"], defect)


def _count_csv_rows(ctr, args, kwargs, result):
    ctr["kernels.csv_rows"] += len(args[0].values)


def _count_points(ctr, args, kwargs, result):
    z1 = args[2] if len(args) > 2 else kwargs.get("z1")
    z2 = args[3] if len(args) > 3 else kwargs.get("z2")
    shapes = [np.atleast_2d(np.asarray(z)).shape[:-1] for z in (z1, z2)]
    ctr["kernels.points"] += int(np.prod(np.broadcast_shapes(*shapes)))


_HOOKS = {
    "solver.assemble": _count_operator,
    "solver.assemble_divergence_form": _count_operator,
    "solver.kernel_columns": _count_columns,
    "kernels.KernelSlice.to_csv": _count_csv_rows,
    "kernels.product_kernel": _count_points,
}
