"""Two-point asymmetry estimator and its error propagation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontrack.estimator import (
    EstimateResult,
    TwoPointConfig,
    analytic_sigma,
    binomial_variance,
    estimate_from_counts,
    g_forward,
    g_invert,
    g_slope,
    probe_probabilities,
)
from iontrack.lineshape import MotionalModel, PulseSpec

TWO_PI = 2.0 * math.pi
RABI = TWO_PI * 640.0
PULSE = PulseSpec.pi_pulse(RABI)
GROUND = TwoPointConfig(pulse=PULSE, motion=MotionalModel(nbar=0.0, eta=0.026))
HOT = TwoPointConfig(pulse=PULSE, motion=MotionalModel(nbar=80.0, eta=0.026))


class TestConfig:
    def test_window_halfwidth(self):
        assert GROUND.window_halfwidth == pytest.approx(0.2 * RABI, rel=1e-15)

    def test_kappa_bounds(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                TwoPointConfig(pulse=PULSE, motion=GROUND.motion, kappa=bad)


class TestGMap:
    def test_zero_at_center(self):
        assert g_forward(0.0, GROUND) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        assert g_forward(0.1 * RABI, GROUND) == \
            pytest.approx(0.18866752443151857, rel=1e-10)

    @given(st.floats(min_value=0.0, max_value=0.2))
    @settings(max_examples=50, deadline=None)
    def test_odd_symmetry(self, frac):
        assert g_forward(frac * RABI, GROUND) == \
            pytest.approx(-g_forward(-frac * RABI, GROUND), rel=1e-9, abs=1e-12)

    def test_monotone_in_window(self):
        deltas = np.linspace(-0.2, 0.2, 41) * RABI
        values = [g_forward(d, GROUND) for d in deltas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_slope_positive_at_center(self):
        assert g_slope(0.0, GROUND) > 0.0

    @given(st.floats(min_value=-0.19, max_value=0.19))
    @settings(max_examples=50, deadline=None)
    def test_invert_round_trips(self, frac):
        delta = frac * RABI
        back, in_window = g_invert(g_forward(delta, GROUND), GROUND)
        assert in_window
        assert back == pytest.approx(delta, abs=2e-6 * RABI)

    def test_out_of_window_clamps_and_flags(self):
        g_big = g_forward(0.2 * RABI, GROUND) + 0.05
        delta, in_window = g_invert(g_big, GROUND)
        assert not in_window
        assert delta == pytest.approx(0.2 * RABI, rel=1e-12)
        delta, in_window = g_invert(-g_big, GROUND)
        assert not in_window
        assert delta == pytest.approx(-0.2 * RABI, rel=1e-12)


class TestBinomialVariance:
    def test_interior_value(self):
        assert binomial_variance(0.25, 100) == pytest.approx(0.25 * 0.75 / 100)

    def test_saturated_counts_floor(self):
        assert binomial_variance(0.0, 50) == pytest.approx(1.0 / 52.0 / 50.0)
        assert binomial_variance(1.0, 50) == pytest.approx(1.0 / 52.0 / 50.0)

    def test_no_shots_rejected(self):
        with pytest.raises(ValueError):
            binomial_variance(0.5, 0)


class TestEstimateFromCounts:
    def test_symmetric_counts_give_zero(self):
        result = estimate_from_counts(30, 30, GROUND)
        assert isinstance(result, EstimateResult)
        assert result.delta == pytest.approx(0.0, abs=2e-6 * RABI)
        assert result.in_window
        assert result.sigma_delta > 0.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            estimate_from_counts(51, 10, GROUND)
        with pytest.raises(ValueError):
            estimate_from_counts(-1, 10, GROUND)
        with pytest.raises(ValueError):
            estimate_from_counts(0, 0, GROUND)

    def test_more_plus_counts_give_positive_delta(self):
        assert estimate_from_counts(35, 25, GROUND).delta > 0.0

    def test_estimate_consistent_with_g_map(self):
        result = estimate_from_counts(32, 25, GROUND)
        g = (32 / 50 - 25 / 50) / (32 / 50 + 25 / 50)
        assert result.g_measured == pytest.approx(g, rel=1e-12)
        assert result.delta == pytest.approx(g_invert(g, GROUND)[0], abs=1e-12)


class TestAnalyticSigma:
    @pytest.mark.parametrize("cfg,expected", [
        (GROUND, 0.05272242172636223),
        (HOT, 0.05405998199187886),
    ])
    def test_center_noise_floor(self, cfg, expected):
        assert analytic_sigma(cfg, 0.0, 50) / RABI == \
            pytest.approx(expected, rel=1e-10)

    def test_larger_offset_is_noisier(self):
        s0 = analytic_sigma(GROUND, 0.0, 50)
        s3 = analytic_sigma(GROUND, 0.3 * RABI, 50)
        s7 = analytic_sigma(GROUND, 0.7 * RABI, 50)
        assert s3 / RABI == pytest.approx(0.062017217329217555, rel=1e-10)
        assert s7 / RABI == pytest.approx(0.08873972642383583, rel=1e-10)
        assert s0 < s3 < s7

    def test_scales_inverse_root_shots(self):
        a = analytic_sigma(HOT, 0.0, 50)
        b = analytic_sigma(HOT, 0.0, 200)
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(911)
        p_plus, p_minus = probe_probabilities(0.0, HOT)
        c_plus = rng.binomial(50, p_plus, size=2000)
        c_minus = rng.binomial(50, p_minus, size=2000)
        deltas = [estimate_from_counts(int(a), int(b), HOT).delta
                  for a, b in zip(c_plus, c_minus)]
        mc = float(np.std(deltas, ddof=1))
        assert mc == pytest.approx(analytic_sigma(HOT, 0.0, 50), rel=0.10)
