"""Shared fixtures: the expensive solver runs are computed once per session.

The acceptance criteria 2 and 4-7 all read the columns of one solver session.
"""

import pytest

from halfheat.verify import solver_session


@pytest.fixture(scope="session")
def solver_slices():
    """dict (c, y2, t) -> solver KernelSlice: verify.solver_session at its full inputs."""
    return solver_session()


@pytest.fixture(scope="session")
def acceptance_log():
    lines = []
    yield lines
    print()
    for line in lines:
        print(line)
