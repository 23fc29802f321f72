"""Two-point asymmetry estimator and its error propagation."""
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        assert plan_of(cfg)[:5] == (w, g_forward(-w, cfg), g_forward(w, cfg), cfg.kappa * RABI,
                                    estimator.INVERSION_TOLERANCE * RABI)

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

    def test_infinite_g_clamps_and_nan_is_rejected(self):
        w = HOT.window_halfwidth
        assert g_invert(math.inf, HOT) == (w, False)
        assert g_invert(-math.inf, HOT) == (-w, False)
        with pytest.raises(ValueError, match="NaN"):
            g_invert(math.nan, HOT)


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
    p_plus, p_minus = (
        lineshape._cubic_read(table.floats, abs(x) * table.scale - table.origin)
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
        table = lineshape._shot_table(cfg.pulse, cfg.motion, kappa)
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
        table = lineshape._shot_table(cfg.pulse, cfg.motion, cfg.kappa)
        assert (table.origin, table.grid.size) == (0, 2)
        w = cfg.window_halfwidth
        for g in np.linspace(g_forward(-w, cfg), g_forward(w, cfg), 7)[1:-1]:
            assert g_invert(g, cfg) == plain_invert(g, cfg), g

    @pytest.mark.parametrize("area", [0.5, 1.0, 3.0])
    def test_table_off_by_its_rounding_allowance_still_decides_exactly(
            self, area, monkeypatch, fresh_plans):
        # Each tabulated sum may be off by TABLE_ROUNDING_SLACK.  Shift the
        # table by 0.9 of that, up below the probe offset and down above
        # it, so that away from delta = 0 one probe reads high and the
        # other low and g~ moves by about 1.8 slack / S, a larger error
        # than the table itself makes.  g values between g and this g~
        # must still go to g_forward.
        cfg = area_config(area, 80.0, 0.8)
        table = lineshape._shot_table(cfg.pulse, cfg.motion, cfg.kappa)
        off = cfg.kappa * RABI
        shift = 0.9 * lineshape.TABLE_ROUNDING_SLACK * np.sign(off - table.grid)
        skewed = table._replace(floats=tuple((table.values + shift).tolist()))
        monkeypatch.setattr(estimator, "_shot_table", lambda *args: skewed)
        bands = spy_on_root_bands(monkeypatch)
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
        if area == 3.0:     # g falls inside the window: no certificate, no band
            assert plan_of(cfg)[-1] is None
            assert bands == []
        else:               # the replay ran on the skewed table
            assert bands and all(math.isfinite(lo) for lo, _ in bands)

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
            plan_of(cfg)
            calls[0] = 0
            monkeypatch.setattr(estimator, "g_forward", counted)
            for a, b in pairs:
                estimate_from_counts(int(a), int(b), cfg)
            monkeypatch.undo()
            # two of them are g_slope's central difference
            assert calls[0] / len(pairs) <= 2.2, area

    def test_replay_makes_few_table_reads(self, monkeypatch):
        # the criterion-5 configuration at a pi pulse: the band's two
        # certified ends and the steps inside it, where the bisection
        # alone makes about 38 reads per inversion
        reads = [0]
        exact = lineshape._cubic_read

        def counted(*args):
            reads[0] += 1
            return exact(*args)

        rng = np.random.default_rng(5)
        p_plus, p_minus = probe_probabilities(0.0, HOT)
        pairs = zip(rng.binomial(50, p_plus, 300), rng.binomial(50, p_minus, 300))
        g_values = [(a - b) / (a + b) for a, b in pairs]
        assert plan_of(HOT)[-1] is not None
        monkeypatch.setattr(estimator, "_cubic_read", counted)
        in_window = sum(g_invert(g, HOT)[1] for g in g_values)
        monkeypatch.undo()
        assert in_window == len(g_values)
        assert reads[0] / in_window <= 14


@pytest.fixture
def fresh_plans():
    """An empty _plan cache, so a patched table is planned anew, then cleared again."""
    estimator._plan.cache_clear()
    yield
    estimator._plan.cache_clear()


def plan_of(cfg):
    """g_invert's cached plan for cfg: (w, g(-w), g(w), off, tol, read, grid)."""
    return estimator._plan(cfg.pulse, cfg.motion, cfg.kappa)


def patch_grid(monkeypatch, cfg, grid):
    """Make g_invert at cfg's pulse, motion and kappa use grid as its certified grid."""
    plan = plan_of(cfg)[:-1] + (grid,)
    monkeypatch.setattr(estimator, "_plan", lambda *args: plan)


def spy_on_root_bands(monkeypatch):
    """The list that collects each (r - tol/4, r + tol/4) band g_invert finds."""
    bands = []
    exact = estimator._root_band

    def spy(*args):
        bands.append(exact(*args))
        return bands[-1]

    monkeypatch.setattr(estimator, "_root_band", spy)
    return bands


def count_pair_g_values(max_per_side):
    """Each distinct g of estimate_from_counts at 1 .. max_per_side shots per side."""
    return sorted({(a / n - b / n) / (a / n + b / n) for n in range(1, max_per_side + 1)
                   for a in range(n + 1) for b in range(n + 1) if a or b})


class TestReplay:
    """g_invert's replay from the table root makes the bisection's every decision."""

    @pytest.mark.parametrize("area, nbar, max_per_side", [
        (1.0, 0.0, 60), (1.0, 80.0, 60), (0.5, 80.0, 25), (3.0, 80.0, 25),
        (4.0, 80.0, 25)])
    def test_every_count_pair_equals_the_bisection_without_replay(
            self, area, nbar, max_per_side, monkeypatch):
        cfg = area_config(area, nbar, 0.8)
        g_values = count_pair_g_values(max_per_side)
        replayed = [g_invert(g, cfg) for g in g_values]
        patch_grid(monkeypatch, cfg, None)
        assert replayed == [g_invert(g, cfg) for g in g_values]

    def test_three_pi_is_not_certified_and_falls_back(self, monkeypatch):
        # g really falls inside the window here (nbar 80), so no certificate
        # exists, and every step is the certified bisection's
        cfg = area_config(3.0, 80.0, 0.8)
        assert plan_of(cfg)[-1] is None
        bands = spy_on_root_bands(monkeypatch)
        w = cfg.window_halfwidth
        for g in np.linspace(g_forward(-w, cfg), g_forward(w, cfg), 9)[1:-1]:
            assert g_invert(g, cfg) == plain_invert(g, cfg), g
        assert bands == []

    @pytest.mark.parametrize("shift", [-3.0, 3.0])
    def test_a_wrong_root_fails_its_certified_ends(self, shift, monkeypatch):
        # a root a few tolerances off puts one end of its band on the wrong
        # side of g; the band is then dropped and every step is the
        # bisection's
        cfg = replace(HOT, shots_per_side=20)
        w = cfg.window_halfwidth
        g_values = [g for g in count_pair_g_values(20) if abs(g_invert(g, cfg)[0]) < w]
        expected = [g_invert(g, cfg) for g in g_values]
        xs, gs = plan_of(cfg)[-1]
        tol = estimator.INVERSION_TOLERANCE * RABI
        patch_grid(monkeypatch, cfg, (tuple(x + shift * tol for x in xs), gs))
        bands = spy_on_root_bands(monkeypatch)
        assert [g_invert(g, cfg) for g in g_values] == expected
        assert len(bands) == len(g_values) > 100
        assert bands == [(-math.inf, math.inf)] * len(bands)

    @pytest.mark.parametrize("area", [0.5, 1.0, 4.0])
    def test_certified_windows_really_rise(self, area):
        cfg = area_config(area, 80.0, 0.8)
        xs, gs = plan_of(cfg)[-1]
        assert xs[0] == -cfg.window_halfwidth and xs[-1] == cfg.window_halfwidth
        exact = [g_forward(x, cfg) for x in xs[::37]]
        assert exact == sorted(exact)
        assert max(abs(a - b) for a, b in zip(exact, gs[::37])) < 1e-9

    @pytest.mark.parametrize("fraction, certified", [(0.5, False), (2.0, True)])
    def test_a_rise_within_the_curvature_term_is_not_certified(
            self, fraction, certified, monkeypatch, fresh_plans):
        # A table linear in |delta|, p = 1/2 + c (off - |delta|), which the
        # cubic reads exactly, gives S~ = 1 and g~ = 2 c x on the window:
        # g~ rises by 2 c s across every cell of width s.  Set that rise
        # to a fraction of the curvature term s_tau^2 (1/s_low + 2/s_low^2)
        # and far above the read errors e_j.  Within the term g may still
        # fall inside a cell, so no cell may be certified; above it, all are.
        table = lineshape._shot_table(HOT.pulse, HOT.motion, HOT.kappa)
        w, off = HOT.window_halfwidth, HOT.kappa * RABI
        step = 2.0 * w / math.ceil(2.0 * w * table.scale)
        s_tau = step * HOT.pulse.duration
        s_low = 1.0 - 2.0 * table.cubic_bound - s_tau
        curvature = s_tau ** 2 * (1.0 / s_low + 2.0 / s_low ** 2)
        c = fraction * curvature / (2.0 * step)
        linear = table._replace(floats=tuple((0.5 + c * (off - table.grid)).tolist()))
        monkeypatch.setattr(estimator, "_shot_table", lambda *args: linear)
        assert (plan_of(HOT)[-1] is not None) == certified

    @given(area=st.floats(0.3, 4.0), nbar=st.floats(0.0, 400.0), kappa=st.floats(0.1, 0.9),
           per_side=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
    @example(area=1.0, nbar=80.0, kappa=0.9999999, per_side=50, seed=0)
    @settings(max_examples=10, deadline=None)
    def test_every_read_is_inside_the_table(self, area, nbar, kappa, per_side, seed):
        # each cubic read of a plan and its inversions, at count pairs and
        # one ulp inside the window's edges (where the band about the root
        # reaches tol / 4 past the window), takes nodes i - 1 .. i + 2 of
        # the table, or mirrors node 1 at delta = 0; and the inversion is
        # the plain bisection's
        cfg = replace(area_config(area, nbar, kappa), shots_per_side=per_side)
        table = lineshape._shot_table(cfg.pulse, cfg.motion, kappa)
        w = cfg.window_halfwidth
        g_lo, g_hi = g_forward(-w, cfg), g_forward(w, cfg)
        rng = np.random.default_rng(seed)
        pairs = zip(rng.integers(0, per_side + 1, 8), rng.integers(1, per_side + 1, 8))
        g_values = [(a - b) / (a + b) for a, b in pairs] + [
            math.nextafter(g_lo, g_hi), math.nextafter(g_hi, g_lo)]
        reads, exact = [], lineshape._cubic_read

        def spy(floats, u):
            assert floats is table.floats
            reads.append(u)
            return exact(floats, u)

        estimator._plan.cache_clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimator, "_cubic_read", spy)
            inverted = [g_invert(g, cfg) for g in g_values]
        if plan_of(cfg)[-2] is not None:
            assert reads
        for u in reads:
            assert int(u) + 2 < len(table.floats)
            assert int(u) >= 1 or table.origin == 0, (u, table.origin)
        assert inverted == [plain_invert(g, cfg) for g in g_values]



class TestPlan:
    """g_invert takes all it derives from its configuration from one cache."""

    @pytest.mark.parametrize("g", [0.1, -0.3, math.inf])
    def test_a_warm_inversion_is_one_plan_hit(self, g):
        g_invert(g, HOT)
        before = estimator._plan.cache_info()
        g_invert(g, HOT)
        after = estimator._plan.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    def test_shots_per_side_share_one_plan(self, fresh_plans):
        # sensitivity cells differ only in their shots per side
        for shots in (20, 50, 200):
            g_invert(0.1, replace(HOT, shots_per_side=shots))
        info = estimator._plan.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)

    def test_the_plan_is_the_only_cache(self):
        cached = [name for name, value in vars(estimator).items()
                  if hasattr(value, "cache_info")
                  and value.__module__ == estimator.__name__]
        assert cached == ["_plan"]
        # each plan holds its table's floats: keep no more plans than tables
        assert estimator._plan.cache_parameters()["maxsize"] == \
            lineshape._shot_table.cache_parameters()["maxsize"]
