"""Known-wrong kernels that the acceptance criteria must reject.

Each row builds a wrong kernel provider from public inputs alone; the named
criterion of halfheat.verify.CRITERIA rejects it at the `full` and `desk`
inputs and passes the right provider, kernel_columns, so no row is a false alarm.
"""

import itertools
from dataclasses import replace

import pytest

from halfheat import verify as V
from halfheat.solver import kernel_columns


def clock(op, ts, z2):
    """kernel_columns evolved to 1.1 t, each slice labelled t."""
    cols = kernel_columns(op, [1.1 * t for t in ts], z2)
    return [replace(slc, t=t) for slc, t in zip(cols, itertools.cycle(ts))]


@pytest.mark.parametrize("probe_set", ["full", "desk"])
@pytest.mark.parametrize("wrong,criterion", [(clock, "round_trip")], ids=["clock"])
def test_wrong_kernel_is_rejected(wrong, criterion, probe_set):
    run, inputs = {n: f for n, f, _ in V.CRITERIA}[criterion], V.PROBE_SETS[probe_set][criterion]
    assert all(check["passed"] for check in run(**inputs))
    assert not all(check["passed"] for check in run(**inputs, columns=wrong))
