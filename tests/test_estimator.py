"""Two-point asymmetry estimator and its error propagation."""
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontrack import estimator, lineshape
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
from iontrack.lineshape import MotionalModel, PulseSpec, thermal_excitation

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

    @pytest.mark.parametrize("shots", [0, -1])
    def test_shots_per_side_at_least_one(self, shots):
        with pytest.raises(ValueError, match="shots_per_side must be at least 1"):
            TwoPointConfig(pulse=PULSE, motion=GROUND.motion, shots_per_side=shots)


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

    @pytest.mark.parametrize("cfg", [GROUND, HOT])
    def test_probe_probabilities_equal_two_scalar_calls(self, cfg):
        off = cfg.kappa * RABI
        for delta in (0.0, 0.0731 * RABI, -0.2 * RABI, 0.8 * RABI, 3.1 * RABI):
            assert probe_probabilities(delta, cfg) == (
                thermal_excitation(delta - off, PULSE, cfg.motion),
                thermal_excitation(delta + off, PULSE, cfg.motion))

    @pytest.mark.parametrize("cfg", [GROUND, HOT])
    def test_cached_window_edges_equal_g_forward(self, cfg):
        w = cfg.window_halfwidth
        assert estimator._window_edges(cfg.pulse, cfg.motion, cfg.kappa) == \
            (w, g_forward(-w, cfg), g_forward(w, cfg))

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
        assert analytic_sigma(cfg, 0.0) / RABI == \
            pytest.approx(expected, rel=1e-10)

    def test_larger_offset_is_noisier(self):
        s0 = analytic_sigma(GROUND, 0.0)
        s3 = analytic_sigma(GROUND, 0.3 * RABI)
        s7 = analytic_sigma(GROUND, 0.7 * RABI)
        assert s3 / RABI == pytest.approx(0.062017217329217555, rel=1e-10)
        assert s7 / RABI == pytest.approx(0.08873972642383583, rel=1e-10)
        assert s0 < s3 < s7

    def test_scales_inverse_root_shots(self):
        a = analytic_sigma(HOT, 0.0)
        b = analytic_sigma(replace(HOT, shots_per_side=200), 0.0)
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(911)
        p_plus, p_minus = probe_probabilities(0.0, HOT)
        c_plus = rng.binomial(50, p_plus, size=2000)
        c_minus = rng.binomial(50, p_minus, size=2000)
        deltas = [estimate_from_counts(int(a), int(b), HOT).delta
                  for a, b in zip(c_plus, c_minus)]
        mc = float(np.std(deltas, ddof=1))
        assert mc == pytest.approx(analytic_sigma(HOT, 0.0), rel=0.10)


def plain_estimate(counts_plus, counts_minus, cfg):
    """estimate_from_counts as a plain bisection that reuses nothing."""
    n = cfg.shots_per_side
    p_plus, p_minus = counts_plus / n, counts_minus / n
    g = (p_plus - p_minus) / (p_plus + p_minus)
    w = cfg.window_halfwidth
    g_lo, g_hi = g_forward(-w, cfg), g_forward(w, cfg)
    if g >= g_hi:
        delta, in_window = w, g <= g_hi
    elif g <= g_lo:
        delta, in_window = -w, g >= g_lo
    else:
        lo, hi = -w, w
        while hi - lo > estimator.INVERSION_TOLERANCE * cfg.pulse.rabi:
            mid = 0.5 * (lo + hi)
            if g_forward(mid, cfg) < g:
                lo = mid
            else:
                hi = mid
        delta, in_window = 0.5 * (lo + hi), True
    sigma_g = estimator._propagate_g_sigma(
        p_plus, p_minus, binomial_variance(p_plus, n), binomial_variance(p_minus, n))
    return EstimateResult(delta, sigma_g / abs(g_slope(delta, cfg)), g, in_window,
                          p_plus, p_minus)


COOL = TwoPointConfig(pulse=PULSE, motion=MotionalModel(nbar=5.0, eta=0.026))


class TestSharedInversions:
    """The estimates that the run loops keep per count pair: plain bisection."""

    def test_every_count_pair_equals_plain_bisection(self):
        pairs = [(a, b) for a in range(51) for b in range(51) if a or b]
        for a, b in pairs:
            assert astuple(estimate_from_counts(a, b, COOL)) == \
                astuple(plain_estimate(a, b, COOL))

    def test_random_pairs_on_the_hot_line_equal_plain_bisection(self):
        configs = (replace(HOT, shots_per_side=200),
                   replace(HOT, shots_per_side=200, kappa=0.75))
        rng = np.random.default_rng(6)
        pairs = [(int(a), int(b)) for a, b in rng.integers(60, 141, size=(300, 2))]
        for i, (a, b) in enumerate(pairs):
            cfg = configs[i % 2]
            assert astuple(estimate_from_counts(a, b, cfg)) == \
                astuple(plain_estimate(a, b, cfg))


class TestInversionWithoutSigma:
    """The delta of an estimate is g_invert of its count asymmetry alone."""

    @pytest.mark.parametrize("per_side", range(1, 7))
    def test_every_count_pair(self, per_side):
        cfg = replace(HOT, shots_per_side=per_side)
        clamped = set()
        for a in range(per_side + 1):
            for b in range(per_side + 1):
                if not (a or b):
                    continue
                p_plus, p_minus = a / per_side, b / per_side
                delta = g_invert((p_plus - p_minus) / (p_plus + p_minus), cfg)[0]
                assert delta == estimate_from_counts(a, b, cfg).delta, (a, b)
                if abs(delta) == cfg.window_halfwidth:
                    clamped.add(math.copysign(1.0, delta))
        assert clamped == {-1.0, 1.0}


def plain_invert(g, cfg, visited=None):
    """g_invert as a plain bisection on g_forward, appending each midpoint to visited."""
    w = cfg.window_halfwidth
    g_lo, g_hi = g_forward(-w, cfg), g_forward(w, cfg)
    if g >= g_hi:
        return w, g <= g_hi
    if g <= g_lo:
        return -w, g >= g_lo
    lo, hi = -w, w
    while hi - lo > estimator.INVERSION_TOLERANCE * cfg.pulse.rabi:
        mid = 0.5 * (lo + hi)
        if visited is not None:
            visited.append(mid)
        if g_forward(mid, cfg) < g:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


def tabulated_g(mid, cfg, table):
    """(g, P+ + P-) at mid with both probe probabilities read off the table's cubic."""
    off = cfg.kappa * cfg.pulse.rabi
    p_plus, p_minus = (lineshape._cubic_read(table.floats, abs(x) * table.scale)
                       for x in (mid - off, mid + off))
    return (p_plus - p_minus) / (p_plus + p_minus), p_plus + p_minus


def area_config(area, nbar, kappa):
    pulse = PulseSpec(RABI, area * math.pi / RABI)
    return TwoPointConfig(pulse=pulse, motion=MotionalModel(nbar=nbar, eta=0.026),
                          kappa=kappa)


class TestCertifiedDecisions:
    """g_invert decides bisection steps from the table only where that is exact."""

    @pytest.mark.parametrize("kappa", [0.6, 0.7, 0.8])
    @pytest.mark.parametrize("nbar", [0.0, 5.0, 80.0])
    @pytest.mark.parametrize("area", [0.5, 1.0, 3.0, 5.0])
    def test_equals_plain_bisection(self, area, nbar, kappa):
        cfg = area_config(area, nbar, kappa)
        table = lineshape._shot_table(cfg.pulse, cfg.motion)
        assert (table is None) == (area == 5.0)
        w = cfg.window_halfwidth
        edges = g_forward(-w, cfg), g_forward(w, cfg)
        rng = np.random.default_rng(round(100 * area + nbar + 10 * kappa))
        values = list(rng.uniform(1.05 * min(edges), 1.05 * max(edges), size=6))
        # g at real bisection midpoints, shallow and deep, and one ulp either side
        visited = []
        plain_invert(values[0], cfg, visited)
        for mid in visited[:3] + visited[-3:]:
            g_mid = g_forward(mid, cfg)
            values += [g_mid, math.nextafter(g_mid, 2.0), math.nextafter(g_mid, -2.0)]
            if table is not None:
                # between g and its tabulated value, and elsewhere inside
                # the cubic margin about g: the table must leave these
                # steps to g_forward
                g_table, total = tabulated_g(mid, cfg, table)
                values += [g_mid + f * (g_table - g_mid) for f in (0.02, 0.5, 0.98)]
                margin = 2.0 * table.cubic_bound / total + estimator.DECISION_SLACK
                values += [g_table + f * margin for f in (-0.98, -0.5, 0.5, 0.98)]
        for g in values:
            assert g_invert(g, cfg) == plain_invert(g, cfg), g

    def test_tables_too_short_for_the_cubic_use_the_exact_sum(self):
        # a 1.6e-3 rad pulse: one table interval, fewer than the cubic's 4
        cfg = area_config(5e-4, 5.0, 0.8)
        assert lineshape._shot_table(cfg.pulse, cfg.motion).grid.size == 2
        w = cfg.window_halfwidth
        for g in np.linspace(g_forward(-w, cfg), g_forward(w, cfg), 7)[1:-1]:
            assert g_invert(g, cfg) == plain_invert(g, cfg), g

    @pytest.mark.parametrize("area", [0.5, 1.0, 3.0])
    def test_table_off_by_its_rounding_allowance_still_decides_exactly(
            self, area, monkeypatch):
        # Each tabulated sum may be off by TABLE_ROUNDING_SLACK.  Shift the
        # table by 0.9 of that, up below the probe offset and down above
        # it, so that away from delta = 0 one probe reads high and the
        # other low and g~ moves by about 1.8 slack / S, a larger error
        # than the table itself makes.  g values between g and this g~
        # must still go to g_forward.
        cfg = area_config(area, 80.0, 0.8)
        table = lineshape._shot_table(cfg.pulse, cfg.motion)
        off = cfg.kappa * RABI
        shift = 0.9 * lineshape.TABLE_ROUNDING_SLACK * np.sign(off - table.grid)
        skewed = table._replace(floats=tuple((table.values + shift).tolist()))
        monkeypatch.setattr(estimator, "_shot_table", lambda *args: skewed)
        visited = []
        plain_invert(g_forward(0.37 * cfg.window_halfwidth, cfg), cfg, visited)
        tested = 0
        for mid in visited:
            if abs(mid) * table.scale < 4.0:      # the probes' nodes straddle the shift
                continue
            g_mid = g_forward(mid, cfg)
            gap = tabulated_g(mid, cfg, skewed)[0] - g_mid
            assert abs(gap) > 1.5 * lineshape.TABLE_ROUNDING_SLACK
            for f in (0.02, 0.5, 0.98):
                g = g_mid + f * gap
                assert g_invert(g, cfg) == plain_invert(g, cfg), g
            tested += 1
        assert tested >= 15

    def test_most_steps_are_decided_by_the_table(self, monkeypatch):
        # the criterion-5 configuration (nbar 80, kappa 0.8, 50 shots) at a
        # pi pulse and at 3 pi
        calls = [0]
        exact = estimator.g_forward

        def counted(*args):
            calls[0] += 1
            return exact(*args)

        for area in (1.0, 3.0):
            cfg = replace(HOT, pulse=PulseSpec(RABI, area * math.pi / RABI))
            rng = np.random.default_rng(5)
            p_plus, p_minus = probe_probabilities(0.0, cfg)
            pairs = list(zip(rng.binomial(50, p_plus, 300), rng.binomial(50, p_minus, 300)))
            estimator._window_edges(cfg.pulse, cfg.motion, cfg.kappa)
            calls[0] = 0
            monkeypatch.setattr(estimator, "g_forward", counted)
            for a, b in pairs:
                estimate_from_counts(int(a), int(b), cfg)
            monkeypatch.undo()
            # two of them are g_slope's central difference
            assert calls[0] / len(pairs) <= 2.2, area
