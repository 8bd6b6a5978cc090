"""Package-level guards: the import graph and the public export lists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import halfheat

MODULES = sorted(m.name for m in pkgutil.iter_modules(halfheat.__path__) if m.name != "__main__")


def test_import_leaves_out_scipy_integrate_optimize_and_sparse():
    # scipy.integrate pulls in scipy.optimize; together they cost a large
    # share of the CLI's start-up, and no module needs them; nor does any
    # module need scipy.sparse (the solver builds its mode bands with numpy
    # and factors and solves them with LAPACK's gtsv)
    code = ("import sys, halfheat.cli, halfheat.verify, halfheat.sab, halfheat.quadrature\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse')"
            " if m in sys.modules))")
    src = str(Path(halfheat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"halfheat.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
