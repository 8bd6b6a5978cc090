"""Shared fixtures: the expensive solver runs are computed once per session.

The desk-scale probe matrix (a = 0.5, c in {-0.5, 1}) evolves one
discrete delta per source through all checkpoint times, so conservation,
envelope, gradient, floor, and G-function criteria all read from the
same columns.
"""

import numpy as np
import pytest

from halfheat.operators import ModelOperatorSpec
from halfheat.solver import GridSpec, assemble, kernel_columns

SOLVER_A = 0.5
SOLVER_CS = (-0.5, 1.0)
SOURCE_YS = (0.05, 0.3, 1.0, 3.0)
CHECKPOINTS = (0.25, 0.5, 0.75, 1.0, 2.0, 4.0)
SOLVER_GRID = dict(rx=14.0, ry=12.0, nx=224, ny=192)


@pytest.fixture(scope="session")
def solver_slices():
    """dict (c, y2, t) -> solver KernelSlice for the desk probe matrix."""
    out = {}
    for c in SOLVER_CS:
        grid = GridSpec(c=c, **SOLVER_GRID)
        op = assemble(ModelOperatorSpec(n=1, a=np.array([SOLVER_A]), c=c), grid)
        for y2 in SOURCE_YS:
            cols = kernel_columns(op, CHECKPOINTS, np.array([0.0, y2]))
            for slc in cols:
                out[(c, float(y2), float(slc.t))] = slc
    return out


@pytest.fixture(scope="session")
def acceptance_log():
    lines = []
    yield lines
    print()
    for line in lines:
        print(line)
