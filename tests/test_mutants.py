"""Known-wrong kernels that the acceptance criteria must reject.

Each row builds a wrong kernel provider from public inputs alone; the named
criterion of halfheat.verify.CRITERIA rejects it at the `full` and `desk`
inputs and passes the right provider, kernel_columns, so no row is a false alarm.
The mirror and conormal rows are wrong on the reduction side alone: they change
the B of the reduced model's operators, B = [[1, 2a], [0, 1]], and evolve every
other operator, the direct solve of a general one among them, as kernel_columns
does.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from halfheat import verify as V
from halfheat.solver import kernel_columns


def clock(op, ts, z2):
    """kernel_columns evolved to 1.1 t, each slice labelled t."""
    cols = kernel_columns(op, [1.1 * t for t in ts], z2)
    return [replace(slc, t=t) for slc, t in zip(cols, itertools.cycle(ts))]


def on_model(wrong_b):
    """kernel_columns with wrong_b(B) in place of B for the model's operators."""
    def provider(op, ts, z2):
        b = op.bmat
        if b[0, 0] == b[1, 1] == 1.0 and b[1, 0] == 0.0:
            op = replace(op, bmat=wrong_b(b))
        return kernel_columns(op, ts, z2)
    return provider


#: the model with -a: B = [[1, -2a], [0, 1]]
mirror = on_model(lambda b: b * np.array([[1.0, -1.0], [-1.0, 1.0]]))
#: the conormal condition: B replaced by its symmetric part [[1, a], [a, 1]]
conormal = on_model(lambda b: 0.5 * (b + b.T))


@pytest.mark.parametrize("probe_set", ["full", "desk"])
@pytest.mark.parametrize("wrong,criterion", [(clock, "round_trip"), (mirror, "round_trip"),
                                             (conormal, "round_trip")],
                         ids=["clock", "mirror", "conormal"])
def test_wrong_kernel_is_rejected(wrong, criterion, probe_set, right_checks):
    run, inputs = {n: f for n, f, _ in V.CRITERIA}[criterion], V.PROBE_SETS[probe_set][criterion]
    assert all(check["passed"] for check in right_checks(criterion, probe_set))
    assert not all(check["passed"] for check in run(**inputs, columns=wrong))
