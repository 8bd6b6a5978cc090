"""Acceptance suite: every exit criterion at its stated tolerance.

Each test runs one criterion of halfheat.verify.CRITERIA at its default
inputs, which `halfheat verify --probe-set full` runs too, and prints one
PASS/FAIL line (visible with `pytest -s`).  Desk scale: N = 1, grids <= 567 x 567.
"""

import pytest

from halfheat import verify as V


def report(log, name, checks):
    ok = all(check["passed"] for check in checks)
    line = f"{'PASS' if ok else 'FAIL'}  {name}: " + "; ".join(
        f"{check['name']}={check['residual']:.3g} (tol {check['tolerance']})" for check in checks)
    log.append(line)
    print(line)
    assert ok, line


@pytest.mark.parametrize("c", [-0.5, 0.0, 1.0, 2.0])
def test_criterion_1_oracle_equivalence(c, acceptance_log):
    report(acceptance_log, f"criterion 1 (oracle equivalence, c={c})",
           V.criterion_oracle_equivalence(cs=(c,)))


def test_criterion_2_conservation(solver_slices, acceptance_log):
    report(acceptance_log, "criterion 2 (conservation)",
           V.criterion_conservation(session=solver_slices))


def test_criterion_3_identities(acceptance_log):
    report(acceptance_log, "criterion 3 (identities)", V.criterion_identities())


def test_criterion_4_two_sided_envelope(solver_slices, acceptance_log):
    report(acceptance_log, "criterion 4 (two-sided envelope)",
           V.criterion_envelope(session=solver_slices))


def test_criterion_5_gradient_bound(solver_slices, acceptance_log):
    report(acceptance_log, "criterion 5 (gradient bound, 3x slack)",
           V.criterion_gradient(session=solver_slices))


def test_criterion_6_diagonal_floors(solver_slices, acceptance_log):
    report(acceptance_log, "criterion 6 (on/near-diagonal floors)",
           V.criterion_floors(session=solver_slices))


def test_criterion_7_g_function(solver_slices, acceptance_log):
    report(acceptance_log, "criterion 7 (Nash G-function)",
           V.criterion_g_function(session=solver_slices))


def test_criterion_8_poincare(acceptance_log):
    report(acceptance_log, "criterion 8 (Poincare ratios)", V.criterion_poincare())


def test_criterion_9_sab_criterion(acceptance_log):
    report(acceptance_log, "criterion 9 (weighted operator criterion)", V.criterion_sab())


def test_criterion_10_reduction_round_trip(right_checks, acceptance_log):
    report(acceptance_log, "criterion 10 (reduction round-trip)",
           right_checks("round_trip", "full"))
