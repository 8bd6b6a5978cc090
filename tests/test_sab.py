"""Boundedness criterion and norm ladders for the weighted operator family."""

import numpy as np
import pytest

from halfheat import sab
from halfheat.errors import DomainError, ParameterError
from halfheat.quadrature import legendre_panel
from halfheat.sab import (
    LADDER_GAUSS,
    LADDER_MAX_DEPTH,
    LADDER_OCTAVES,
    SabSpec,
    sab_apply_bump,
    sab_criterion,
    sab_norm_estimate,
)
from halfheat.verify import SAB_MATRIX

# SAB_MATRIX, criterion 9's 12 cases with their expected verdicts: both sides of
# each inequality of the criterion, p in {1, 2, 4}, failures driven by alpha,
# beta, theta and m


def test_criterion_matrix():
    for spec, expected in SAB_MATRIX:
        assert sab_criterion(spec) is expected, spec


def test_criterion_p1_equality_boundary():
    # at p = 1 the right inequality allows equality; p > 1 does not
    eq1 = SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=1.0)   # M+m = 2 = M-beta
    assert sab_criterion(eq1)
    eq2 = SabSpec(alpha=0.0, beta=-1.0, m=3.0, p=2.0)   # (M+m)/p = 2 = M-beta
    assert not sab_criterion(eq2)


def test_spec_validation():
    with pytest.raises(ParameterError):
        SabSpec(alpha=0.0, beta=0.0, p=0.5)
    with pytest.raises(ParameterError):
        SabSpec(alpha=0.0, beta=0.0, theta=-0.1)
    # a NaN p once gave sab_criterion a True verdict
    for bad in ({"p": np.nan}, {"p": np.inf}, {"theta": np.nan}, {"theta": np.inf}):
        with pytest.raises(ParameterError):
            SabSpec(alpha=0.0, beta=0.0, **bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["alpha", "beta", "m"])
def test_non_finite_exponent_rejected(field, value):
    # a NaN alpha once gave sab_criterion an "unbounded" verdict, and a NaN m
    # a ladder of zeros
    with pytest.raises(ParameterError, match=f"^{field} must be finite"):
        SabSpec(**{"alpha": 0.0, "beta": -1.0, "m": 1.0, field: value})


@pytest.mark.parametrize("bump", [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0), (2.0, 1.0)])
def test_bad_bump_rejected(bump):
    with pytest.raises(DomainError, match="0 < a < b"):
        sab_apply_bump(SabSpec(alpha=0.0, beta=0.0), 1.0, bump, np.array([1.0]))


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_bump_norm_at_m_minus_one(p):
    # (integral of y^-1 over the bump)^(1/p), by 40-point Gauss-Legendre
    a, b = 0.25, 4.0
    x, w = np.polynomial.legendre.leggauss(40)
    y = 0.5 * (b - a) * x + 0.5 * (b + a)
    integral = 0.5 * (b - a) * np.dot(w, 1.0 / y)
    assert sab._bump_norm((a, b), -1.0, p) == pytest.approx(integral ** (1.0 / p), rel=1e-14)


@pytest.mark.parametrize("spec,expected", SAB_MATRIX[:2] + SAB_MATRIX[7:10])
def test_ladder_follows_criterion(spec, expected):
    ladder = sab_norm_estimate(spec, levels=4)
    growth = ladder[-1] / ladder[0]
    if expected:
        assert growth < 1.5
        assert ladder[-1] / ladder[-2] < 1.1
    else:
        assert growth >= 10.0


def per_bump_ladder(spec, levels, base_octaves=6):
    """The norm ladder bump by bump, from the public single-bump operator."""
    out = []
    for level in range(levels):
        depth = base_octaves + LADDER_OCTAVES * level
        y, w = np.concatenate([legendre_panel(2.0 ** e, 2.0 ** (e + 1), LADDER_GAUSS)
                               for e in range(-depth, 6)], axis=1)
        dens = w * y ** (spec.m - spec.p * spec.theta)
        best = 0.0
        for e in range(-depth, 5):
            a, b = 2.0 ** e, 2.0 ** (e + 1)
            f = sab_apply_bump(spec, 1.0, (a, b), y)
            num = float(np.dot(dens, np.abs(f) ** spec.p)) ** (1.0 / spec.p)
            k = spec.m + 1.0
            mass = np.log(b / a) if k == 0.0 else (b ** k - a ** k) / k
            best = max(best, num / mass ** (1.0 / spec.p))
        out.append(best)
    return out


@pytest.mark.parametrize("levels,base_octaves", [(3, 6), (4, 6), (1, 1)])
def test_ladder_matches_per_bump_reference(levels, base_octaves):
    for spec, _ in SAB_MATRIX:
        ladder = sab_norm_estimate(spec, levels=levels, base_octaves=base_octaves)
        assert len(ladder) == levels
        np.testing.assert_allclose(ladder, per_bump_ladder(spec, levels, base_octaves),
                                   rtol=1e-13, atol=0.0, err_msg=str(spec))


def test_ladder_table_is_one_and_read_only():
    spec = SAB_MATRIX[0][0]
    sab_norm_estimate(spec, levels=2)
    sab_norm_estimate(spec, levels=1, base_octaves=1)
    assert sab._ladder_rule.cache_info().currsize == 1
    y, w, gauss = sab._ladder_rule(1)
    assert gauss.shape == (len(y), len(y) - LADDER_GAUSS)
    for array in (y, w, gauss):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("kwargs,match", [
    ({"levels": 0}, "levels must be an int >= 1"),
    ({"levels": -2}, "levels must be an int >= 1"),
    ({"levels": 2.5}, "levels must be an int >= 1"),
    ({"levels": True}, "levels must be an int >= 1"),
    ({"base_octaves": -7}, "base_octaves must be an int >= 0"),
    ({"base_octaves": 1.0}, "base_octaves must be an int >= 0"),
    ({"base_octaves": False}, "base_octaves must be an int >= 0"),
    ({"levels": 1, "base_octaves": LADDER_MAX_DEPTH + 1}, "exceeds LADDER_MAX_DEPTH"),
    ({"levels": 8, "base_octaves": 6}, "exceeds LADDER_MAX_DEPTH"),
], ids=["levels_0", "levels_neg", "levels_float", "levels_bool", "base_neg",
        "base_float", "base_bool", "base_deep", "levels_deep"])
def test_ladder_arguments_refused(kwargs, match):
    with pytest.raises(ParameterError, match=match):
        sab_norm_estimate(SAB_MATRIX[0][0], **kwargs)


def test_ladder_reaches_its_depth_bound():
    # the deepest table allowed, at depth 7 levels of the default base
    spec = SAB_MATRIX[0][0]
    assert 6 + LADDER_OCTAVES * 6 == LADDER_MAX_DEPTH
    ladder = sab_norm_estimate(spec, levels=7, base_octaves=np.int64(6))
    np.testing.assert_allclose(ladder, per_bump_ladder(spec, 7), rtol=1e-13, atol=0.0)


def test_scale_identity():
    # S(t) f = I_{1/sqrt t} S(1) I_{sqrt t} f, with I_s f = f(s .): for an
    # indicator bump the right side is S(1) on the rescaled bump at y / sqrt t
    spec = SabSpec(alpha=0.0, beta=-1.0, m=1.0, p=2.0)
    y_out = np.geomspace(0.02, 8.0, 30)
    for t in (0.25, 4.0, 2.7):
        st = np.sqrt(t)
        lhs = sab_apply_bump(spec, t, (0.5, 1.0), y_out)
        rhs = sab_apply_bump(spec, 1.0, (0.5 / st, 1.0 / st), y_out / st)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_section6_family_passes_all_p():
    # (alpha, beta, theta, m) = (0, -c, 0, c) is bounded for p in {1, 2, 4}
    for c in (-0.5, 1.0):
        for p in (1.0, 2.0, 4.0):
            spec = SabSpec(alpha=0.0, beta=-c, m=c, p=p)
            assert sab_criterion(spec)
            ladder = sab_norm_estimate(spec, levels=3)
            assert ladder[-1] / ladder[0] < 1.5
