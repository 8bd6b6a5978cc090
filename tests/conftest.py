"""Shared fixtures: the expensive solver runs are computed once per session.

The acceptance criteria 2 and 4-7 all read the columns of one solver session;
criterion 10 with the right kernel serves both its acceptance test and the
mutation rows.
"""

import functools

import pytest

from halfheat.verify import CRITERIA, PROBE_SETS, solver_session


@pytest.fixture(scope="session")
def solver_slices():
    """dict (c, y2, t) -> solver KernelSlice: verify.solver_session at its full inputs."""
    return solver_session()


@pytest.fixture(scope="session")
def right_checks():
    """(criterion, probe set) -> the check records of that CRITERIA row, which must not
    read the solver session, at the probe set's inputs with the package's own solver;
    each pair runs once per session."""
    rows = {name: run for name, run, _ in CRITERIA}
    return functools.cache(lambda name, probe_set: rows[name](**PROBE_SETS[probe_set][name]))


@pytest.fixture(scope="session")
def acceptance_log():
    lines = []
    yield lines
    print()
    for line in lines:
        print(line)
