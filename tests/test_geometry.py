"""Ball volumes, envelope forms, doubling, and the equivalence window."""

import numpy as np
import pytest

from halfheat.errors import DomainError, ParameterError
from halfheat.geometry import (
    EnvelopeParams,
    ball_volume,
    boundary_weight,
    doubling_check,
    envelope_equivalence_window,
    envelope_eval,
    gradient_envelope,
    unit_ball_volume,
)


class TestBallVolume:
    def test_unit_ball(self):
        assert unit_ball_volume(0) == pytest.approx(1.0)
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4.0 * np.pi / 3.0)

    def test_lebesgue_case(self):
        # c = 0: volume of the cylinder, omega_N r^{N+1}
        for n in (1, 2):
            assert ball_volume(0.7, 1.3, 0.0, n) == pytest.approx(
                unit_ball_volume(n) * 1.3 ** (n + 1)
            )

    def test_worked_example(self):
        # N=1, c=1, y0=0, r=1: 2 * 1/2 = 1
        assert ball_volume(0.0, 1.0, 1.0, 1) == pytest.approx(1.0)

    def test_scaling_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c = float(rng.uniform(-0.9, 3.0))
            n = int(rng.integers(1, 4))
            y0 = float(rng.uniform(0.0, 5.0))
            r = float(rng.uniform(0.01, 10.0))
            lhs = ball_volume(y0, r, c, n)
            rhs = r ** (n + 1 + c) * ball_volume(y0 / r, 1.0, c, n)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ParameterError):
            ball_volume(0.0, 1.0, -1.5, 1)
        with pytest.raises(DomainError):
            ball_volume(-0.1, 1.0, 0.0, 1)
        with pytest.raises(DomainError):
            ball_volume(0.0, 0.0, 0.0, 1)
        with pytest.raises(DomainError, match="dimension"):
            unit_ball_volume(-1)
        for y0, r in ((np.nan, 1.0), (0.5, np.nan), (np.array([0.5, np.nan]), 1.0)):
            with pytest.raises(DomainError):
                ball_volume(y0, r, 0.5, 1)


class TestEnvelope:
    def test_on_diagonal_reference_point(self):
        # y1 = y2 = sqrt(t) = 1, z1 = z2: both bracket factors are 1 and the
        # product form reduces to C t^{-(N+1)/2}
        c, n = 1.3, 1
        p = EnvelopeParams(2.0, 4.0, form="product")
        z = np.array([0.4, 1.0])
        assert envelope_eval(p, 1.0, z, z, c, n) == pytest.approx(2.0, rel=1e-13)
        # at general t the absolute y-powers of the weight survive: t^{-c/2}
        t = 0.7
        z = np.array([0.4, np.sqrt(t)])
        assert envelope_eval(p, t, z, z, c, n) == pytest.approx(
            2.0 * t ** (-1.0) * t ** (-c / 2.0), rel=1e-13
        )

    def test_one_sided_c0_is_gaussian(self):
        p = EnvelopeParams(1.0, 4.0, form="one-sided-2")
        z1, z2 = np.array([1.0, 0.3]), np.array([-1.0, 2.0])
        t = 0.5
        d2 = np.sum((z1 - z2) ** 2)
        assert envelope_eval(p, t, z1, z2, 0.0, 1) == pytest.approx(
            t ** -1.0 * np.exp(-d2 / (4.0 * t)), rel=1e-13
        )

    def test_forms_agree_within_window(self):
        # product vs volume form: bounded multiplicative window over a
        # log-spaced grid (the comparability of the ball-volume formula)
        c, n = 1.0, 1
        prod = EnvelopeParams(1.0, 4.0, form="product")
        vol = EnvelopeParams(1.0, 4.0, form="volume")
        t = 1.0
        ys = np.geomspace(0.01, 30.0, 25)
        ratios = []
        for y1 in ys:
            for y2 in ys:
                z1, z2 = np.array([0.0, y1]), np.array([0.0, y2])
                ratios.append(
                    envelope_eval(prod, t, z1, z2, c, n)
                    / envelope_eval(vol, t, z1, z2, c, n)
                )
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 10.0

    def test_decreasing_in_distance(self):
        p = EnvelopeParams(1.0, 4.0, form="product")
        y = 0.8
        vals = [
            envelope_eval(p, 1.0, np.array([x, y]), np.array([0.0, y]), 1.0, 1)
            for x in np.linspace(0.0, 5.0, 30)
        ]
        assert np.all(np.diff(vals) < 0.0)

    def test_gradient_ratio_is_sqrt_t(self):
        # gradient envelope / one-sided-2 envelope = t^{-1/2} exactly
        c, n = 1.5, 1
        z1, z2 = np.array([0.3, 0.5]), np.array([-0.6, 1.4])
        for t in (0.25, 1.0, 4.0):
            ge = gradient_envelope(t, z1, z2, c, n, 2.0, 4.0)
            ee = envelope_eval(EnvelopeParams(2.0, 4.0, form="one-sided-2"),
                               t, z1, z2, c, n)
            assert ge / ee == pytest.approx(t ** -0.5, rel=1e-13)

    def test_scaling_covariance(self):
        p = EnvelopeParams(1.0, 4.0, form="product")
        c, n, s = 0.7, 1, 2.0
        z1, z2 = np.array([0.5, 0.4]), np.array([-0.2, 1.0])
        lhs = envelope_eval(p, s * s * 1.0, s * z1, s * z2, c, n)
        rhs = s ** -(n + 1 + c) * envelope_eval(p, 1.0, z1, z2, c, n)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    @pytest.mark.parametrize("t,y1,y2", [(np.nan, 1.0, 1.0), (1.0, np.nan, 1.0),
                                         (1.0, 1.0, np.nan)], ids=["t", "y1", "y2"])
    def test_nan_rejected(self, t, y1, y2):
        z1, z2 = np.array([0.0, y1]), np.array([0.3, y2])
        with pytest.raises(DomainError):
            envelope_eval(EnvelopeParams(1.0, 4.0), t, z1, z2, 0.5, 1)
        with pytest.raises(DomainError):
            gradient_envelope(t, z1, z2, 0.5, 1, 1.0, 4.0)

    @pytest.mark.parametrize("c", [-0.5, 1.0])
    @pytest.mark.parametrize("t", [np.inf, [1.0, np.inf]], ids=["scalar", "array"])
    def test_infinite_time_rejected(self, t, c):
        # not NaN (c = -0.5) or 0 (c = 1): an infinite time has no envelope
        with pytest.raises(DomainError, match="finite"):
            envelope_eval(EnvelopeParams(1.0, 4.0), t, (0.0, 1.0), (0.0, 2.0), c, 1)

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            EnvelopeParams(-1.0, 4.0)
        with pytest.raises(ParameterError):
            EnvelopeParams(1.0, 4.0, form="bogus")
        for amplitude, rate in ((1.0, np.nan), (np.nan, 4.0), (1.0, np.inf), (np.inf, 4.0)):
            with pytest.raises(ParameterError, match="finite"):
                EnvelopeParams(amplitude, rate)


class TestEquivalenceWindow:
    def test_equal_arguments_ratio_one(self):
        y = np.geomspace(0.01, 40.0, 50)
        c = 2.0
        f = y ** (-c / 2) * np.minimum(1.0, y) ** (c / 2)
        ratio = f / (f * np.exp(0.0))
        assert ratio == pytest.approx(np.ones_like(y))

    def test_c0_trivial(self):
        lo, hi, shift = envelope_equivalence_window(0.0, 0.1)
        assert hi <= 1.0 + 1e-12
        assert shift == 0.1

    def test_c2_bounded(self):
        lo, hi, _ = envelope_equivalence_window(2.0, 0.1)
        assert np.isfinite(hi) and hi > 1.0
        assert 0.0 < lo <= 1.0

    def test_needs_positive_eps(self):
        for eps in (0.0, np.nan, np.inf):
            with pytest.raises(ParameterError, match="positive and finite"):
                envelope_equivalence_window(1.0, eps)


class TestDoubling:
    def test_lebesgue_exact(self):
        out = doubling_check(0.0, 1)
        assert out["worst_ratio"] == pytest.approx(4.0, rel=1e-12)
        assert out["within_shape"]

    def test_boundary_centered_exact(self):
        # y0 = 0: ratio is exactly 2^{N+1+c}
        for c in (-0.5, 1.0, 2.0):
            r = 0.37
            got = ball_volume(0.0, 2 * r, c, 1) / ball_volume(0.0, r, c, 1)
            assert got == pytest.approx(2.0 ** (2.0 + c), rel=1e-12)

    def test_far_from_boundary_limit(self):
        # y0 >> r: weight locally constant, ratio -> 2^{N+1}
        got = ball_volume(1e4, 2e-2, 2.0, 1) / ball_volume(1e4, 1e-2, 2.0, 1)
        assert got == pytest.approx(4.0, rel=1e-5)

    def test_shape_bound_over_probes(self):
        for c in (-0.5, 0.0, 1.0, 2.0):
            out = doubling_check(c, 1)
            assert out["within_shape"], out


def test_boundary_weight_regimes():
    t = 4.0
    # below sqrt(t): constant t^{-c/4}; above: y^{-c/2}
    c = 2.0
    assert boundary_weight(0.3, t, c) == pytest.approx(t ** (-c / 4))
    assert boundary_weight(7.0, t, c) == pytest.approx(7.0 ** (-c / 2))

