"""Thermally averaged Rabi excitation profiles and their widths."""
import decimal
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontrack import estimator, lineshape
from iontrack.atomphys import TrapEnvironment
from iontrack.config import default_config
from iontrack.lineshape import (
    LINEWIDTH_CALIBRATED_ETA,
    MIN_THERMAL_CUTOFF,
    MotionalModel,
    PulseSpec,
    compute_eta,
    excitation_profile,
    fwhm,
    thermal_excitation,
)

TWO_PI = 2.0 * math.pi
RABI = TWO_PI * 640.0
PI_PULSE = PulseSpec.pi_pulse(RABI)


def motion(nbar, eta=LINEWIDTH_CALIBRATED_ETA):
    return MotionalModel(nbar=nbar, eta=eta)


class TestPulseSpec:
    def test_pi_pulse_duration(self):
        assert PI_PULSE.duration == pytest.approx(math.pi / RABI, rel=1e-15)

    def test_invalid_pulse_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec(rabi=0.0, duration=1e-3)
        with pytest.raises(ValueError):
            PulseSpec(rabi=RABI, duration=0.0)


class TestMotionalModel:
    def test_cutoff_floor(self):
        assert motion(0.0).n_cutoff == MIN_THERMAL_CUTOFF
        assert motion(1.0).n_cutoff == MIN_THERMAL_CUTOFF

    def test_cutoff_scales_with_nbar(self):
        assert motion(80.0).n_cutoff == 800
        assert motion(100.0).n_cutoff == 1000

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MotionalModel(nbar=-1.0, eta=0.02)
        with pytest.raises(ValueError):
            MotionalModel(nbar=10.0, eta=1.0)

    @pytest.mark.parametrize("nbar,eta", [(math.nan, 0.02), (math.inf, 0.02),
                                          (10.0, math.nan), (10.0, math.inf),
                                          (1e308, 0.02), (1e9, 0.02),
                                          (math.nextafter(1e4, math.inf), 0.02)])
    def test_non_finite_and_overflowing_rejected(self, nbar, eta):
        # 10 * 1e308 overflows the cutoff computation; above nbar = 10^4
        # the cutoff passes MAX_THERMAL_CUTOFF
        with pytest.raises(ValueError):
            MotionalModel(nbar=nbar, eta=eta)


class TestThermalWeights:
    @pytest.mark.parametrize("nbar,min_mass", [(0.0, 1.0), (20.0, 0.999),
                                               (100.0, 0.999)])
    def test_weights_cover_distribution(self, nbar, min_mass):
        w = lineshape._motional_arrays(motion(nbar))[0]
        assert w.sum() <= 1.0 + 1e-12
        assert w.sum() >= min_mass

    def test_ground_state_all_in_n0(self):
        w = lineshape._motional_arrays(motion(0.0))[0]
        assert w[0] == 1.0 and np.all(w[1:] == 0.0)

    def test_mean_matches_nbar(self):
        w = lineshape._motional_arrays(motion(50.0))[0]
        n = np.arange(w.size)
        assert float(n @ w) / w.sum() == pytest.approx(50.0, rel=5e-3)


class TestExcitation:
    def test_resonant_pi_pulse_inverts(self):
        assert thermal_excitation(0.0, PI_PULSE, motion(0.0, eta=0.0)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_where_coupling_and_detuning_vanish(self):
        with np.errstate(all="raise"):
            p = lineshape._excitation(np.array([0.0, RABI ** 2]), 0.0, PI_PULSE.duration)
        assert p[0] == 0.0
        assert p[1] == pytest.approx(1.0, abs=1e-12)

    def test_probe_point_value(self):
        assert thermal_excitation(0.8 * RABI, PI_PULSE, motion(0.0)) == \
            pytest.approx(0.4987531196801067, rel=1e-12)

    @pytest.mark.parametrize("detuning", [math.nan, math.inf, -math.inf])
    def test_non_finite_detuning_rejected(self, detuning):
        with pytest.raises(ValueError, match="pulse detuning must be finite"):
            thermal_excitation(detuning, PI_PULSE, motion(0.0))

    def test_profile_matches_scalar(self):
        m = motion(20.0)
        detunings = np.array([-0.7, 0.0, 0.4, 1.3]) * RABI
        profile = excitation_profile(detunings, PI_PULSE, m)
        scalars = [thermal_excitation(d, PI_PULSE, m) for d in detunings]
        np.testing.assert_allclose(profile, scalars, rtol=1e-12)

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=120.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, frac, nbar):
        m = motion(nbar)
        plus = thermal_excitation(frac * RABI, PI_PULSE, m)
        minus = thermal_excitation(-frac * RABI, PI_PULSE, m)
        assert plus == pytest.approx(minus, rel=1e-10, abs=1e-12)
        assert 0.0 <= plus <= 1.0

    def test_thermal_averaging_lowers_peak(self):
        assert thermal_excitation(0.0, PI_PULSE, motion(100.0)) < \
            thermal_excitation(0.0, PI_PULSE, motion(0.0))


def _out_of_place_excitation(omega2, delta, duration):
    """The kernel as one expression: omega2 * (T^2 / (T^2 + 1)) / total2, masked,
    with T = tan(phase)."""
    total2 = omega2 + delta ** 2
    phase = np.sqrt(total2) * (0.5 * duration)
    with np.errstate(invalid="ignore", divide="ignore"):
        t2 = np.tan(phase) ** 2
        p = omega2 * (t2 / (t2 + 1.0)) / total2
    return np.where(total2 > 0.0, p, 0.0)


def _warnings_of(kernel, *args):
    """(result, messages of the warnings the kernel raised) under default errstate."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        out = kernel(*args)
    return out, [str(w.message) for w in caught]


class TestInPlaceKernel:
    """`_excitation` gives the out-of-place expression's bits and warnings."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_broadcast_grids(self, seed):
        rng = np.random.default_rng(seed)
        n, k = rng.integers(1, 60, size=2)
        omega2 = (RABI * rng.uniform(0.0, 2.0, (1, k))) ** 2
        delta = rng.uniform(-6.0, 6.0, (n, 1)) * RABI
        duration = rng.uniform(0.1, 6.0) * math.pi / RABI
        assert np.array_equal(lineshape._excitation(omega2, delta, duration),
                              _out_of_place_excitation(omega2, delta, duration),
                              equal_nan=True)
        scalar = float(delta[0, 0])
        assert np.array_equal(lineshape._excitation(omega2[0], scalar, duration),
                              _out_of_place_excitation(omega2[0], scalar, duration),
                              equal_nan=True)

    def test_zero_coupling_at_zero_detuning(self):
        # a zero or NaN total reads +0.0, bit for bit as the masked expression
        omega2 = np.array([[0.0, RABI ** 2, 0.0, 1e-300]])
        delta = np.array([[0.0], [0.0], [RABI], [-0.0], [np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = lineshape._excitation(omega2, delta, PI_PULSE.duration)
        reference = _out_of_place_excitation(omega2, delta, PI_PULSE.duration)
        assert p.tobytes() == reference.tobytes()
        assert p[0, 0] == 0.0 and p[3, 0] == 0.0 and p[3, 2] == 0.0
        assert p[4].tobytes() == np.zeros(4).tobytes()

    def test_profile_peak_below_one_point_three_grids(self):
        # the default lineshape table (401 x 1001): the p matrix, plus one
        # block's total2, 1 + T^2 and mask (TABLE_CHUNK_ELEMENTS elements,
        # 272 KB)
        detunings = np.linspace(-3.0, 3.0, 401) * RABI
        m = motion(100.0)
        excitation_profile(detunings[:1], PI_PULSE, m)      # fill the caches
        tracemalloc.start()
        try:
            excitation_profile(detunings, PI_PULSE, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * detunings.size * (m.n_cutoff + 1) * 8

    def test_overflowing_total_is_silent_nan(self):
        # total2 = inf: sin(inf) is NaN, and neither form warns about it
        omega2 = np.array([[RABI ** 2, 0.0, 1.7e308]])
        delta = np.array([[1e200], [-1e160], [0.0], [1e154]])
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            p = lineshape._excitation(omega2, delta, PI_PULSE.duration)
            reference = _out_of_place_excitation(omega2, delta, PI_PULSE.duration)
        assert np.array_equal(p, reference, equal_nan=True)
        assert np.isnan(p[0]).all() and np.isnan(p[3, 2])

    @pytest.mark.parametrize("omega2, delta, duration", [
        (np.array([RABI ** 2, 0.0]), np.float64(1e200), PI_PULSE.duration),
        (np.array([1.7e308]), np.float64(1e154), PI_PULSE.duration),
        (np.array([RABI ** 2]), np.array([[0.0], [1e300]]), 1e300),
        (np.array([RABI ** 2]), np.array([[0.0], [1e150]]), 1e300),
        (np.array([0.0, 1e-300]), np.float64(0.0), PI_PULSE.duration),
        (np.array([RABI ** 2]), np.array([[np.nan], [0.0]]), PI_PULSE.duration),
    ])
    def test_warns_where_the_expression_warns(self, omega2, delta, duration):
        p, messages = _warnings_of(lineshape._excitation, omega2, delta, duration)
        reference, expected = _warnings_of(_out_of_place_excitation, omega2, delta,
                                           duration)
        assert np.array_equal(p, reference, equal_nan=True)
        assert messages == expected


def _sin_cos_excitation(omega2, delta, duration):
    """(p_n, A_n) in the sin/cos form the kernel replaced, masked as the kernel is:
    an accuracy reference."""
    total2 = omega2 + delta ** 2
    x = np.sqrt(total2) * (0.5 * duration)
    s, c = np.sin(x), np.cos(x)
    with np.errstate(invalid="ignore"):
        p = omega2 * s ** 2 / total2
        a = 2.0 * omega2 * (s * (s - x * c)) / total2 / total2
    return np.where(total2 > 0.0, p, 0.0), np.where(total2 > 0.0, a, 0.0)


def _nearest_double(odd_halves_of_pi):
    """The double nearest (k + 1/2) pi, for an odd count of pi / 2, from 60 digits of pi."""
    with decimal.localcontext() as context:
        context.prec = 80
        pi = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        return float(odd_halves_of_pi * pi / 2)


def _tangent_case(x):
    """(p, A, sin/cos p, sin/cos A) of one Fock term at Omega_n = r = 1, delta = 0, phase x."""
    omega2, a = np.ones(1), np.empty(1)
    p = lineshape._excitation(omega2, 0.0, 2.0 * x, slope=a)
    p_ref, a_ref = _sin_cos_excitation(omega2, 0.0, 2.0 * x)
    return p[0], a[0], p_ref[0], a_ref[0]


class TestTangentKernel:
    """The kernel's one tangent against the sin/cos form it replaced.

    Over 400,000 random terms (Omega_n up to 2 Omega_0, |delta| up to
    6 Omega_0, areas 0.01 to 12 pi) the two forms' p_n differed by at most
    4.4e-16 and their A_n by at most 2.7e-16 tau^2 / 2; against 200-bit
    arithmetic on 4000 terms both erred alike.  The bounds checked are
    1e-14 on p_n and, on A_n, TestSlopeKernel's 1e-8 relative with a floor
    of 1e-10 of Bernstein's tau^2 / 2 on |A_n| (|p_n''| <= tau^2 / 2).
    """

    @given(omega=st.floats(0.0, 2.0), delta=st.floats(-6.0, 6.0),
           area=st.floats(0.01, 12 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sin_cos_form(self, omega, delta, area):
        omega2, d, duration = np.array([(omega * RABI) ** 2]), delta * RABI, area / RABI
        a = np.empty(1)
        p = lineshape._excitation(omega2, d, duration, slope=a)
        p_ref, a_ref = _sin_cos_excitation(omega2, d, duration)
        assert abs(p[0] - p_ref[0]) <= 1e-14
        np.testing.assert_allclose(a, a_ref, rtol=1e-8, atol=1e-10 * 0.5 * duration ** 2)

    @pytest.mark.parametrize("odd", [1, 3, 15, 2001, 2 ** 40 + 1])
    def test_phase_at_the_double_nearest_an_odd_multiple_of_half_pi(self, odd):
        # x lies within half an ulp of (k + 1/2) pi, so |tan x| >= 2 / ulp(x)
        # (1.6e16 at k = 0) and p = 1 - cos^2 x is within (ulp(x) / 2)^2 of 1
        x = _nearest_double(odd)
        p, a, p_ref, a_ref = _tangent_case(x)
        assert 1.99 / math.ulp(x) < abs(math.tan(x)) < 2.2e18
        assert 0.0 <= p <= 1.0 and abs(p - p_ref) <= 1e-14
        assert 1.0 - p <= (0.5 * math.ulp(x)) ** 2 + 1e-15
        assert a == pytest.approx(a_ref, rel=1e-8, abs=1e-10 * 0.5 * (2.0 * x) ** 2)

    @pytest.mark.parametrize("x", [1e-3, 1e-8, 1e-20, 1e-160, 5e-324])
    def test_phase_near_zero(self, x):
        # p = sin^2 x and A = 2 s (s - x c) -> 2 x^4 / 3 at r = 1.  Both forms
        # cancel alike in A (from x = 1e-8 on, tan x and sin x round to x and
        # A to 0), so A is checked against the series within the floor
        p, a, p_ref, a_ref = _tangent_case(x)
        assert p == pytest.approx(p_ref, rel=1e-14, abs=0.0)
        assert p == pytest.approx(x * x * (1.0 - x * x / 3.0), rel=1e-12, abs=0.0)
        floor = 1e-10 * 0.5 * (2.0 * x) ** 2
        assert a == pytest.approx(2.0 * x ** 4 / 3.0, rel=1e-6, abs=floor)
        assert a == pytest.approx(a_ref, rel=1e-8, abs=floor)

    def test_phase_underflowing_to_zero_is_zero_not_nan(self):
        # r^2 = 1e-300 > 0 while x = r tau / 2 rounds to 0: p = A = +0.0
        a = np.empty(1)
        p = lineshape._excitation(np.array([1e-300]), 0.0, 1e-200, slope=a)
        assert p.tobytes() == a.tobytes() == np.zeros(1).tobytes()

    def test_worst_case_argument(self):
        # no double lies closer to an odd multiple of pi / 2 than this one,
        # where tan x = -2.13e18: T and T^2 stay finite, and 0 <= p <= 1
        x = 6381956970095103 * 2.0 ** 797
        tangent = np.tan(np.float64(x))
        assert -2.2e18 < tangent < -2.1e18 and np.isfinite(tangent ** 2)
        p, a, p_ref, a_ref = _tangent_case(x)
        assert 0.0 <= p <= 1.0 and abs(p - p_ref) <= 1e-14
        assert math.isfinite(a) and a == pytest.approx(a_ref, rel=1e-8)


def _richardson(f, h):
    """f' at 0 from central differences at h and h/2: error O(h^4)."""
    def central(step):
        return (f(step) - f(-step)) / (2.0 * step)
    return (4.0 * central(0.5 * h) - central(h)) / 3.0


_AREAS = st.floats(0.3 * math.pi, 4 * math.pi)
_SLOPE_CASES = dict(nbar=st.floats(0.0, 400.0), eta=st.floats(0.0, 0.3),
                    seed=st.integers(0, 2 ** 32 - 1))


def _slope_case(area, nbar, eta, seed):
    """(pulse, motion, detunings) with delta = 0 and 20 points within 5 Omega_0."""
    detunings = np.concatenate(([0.0], np.random.default_rng(seed).uniform(-5, 5, 20)))
    return PulseSpec(RABI, area / RABI), motion(nbar, eta), detunings * RABI


class TestSlopeKernel:
    """The kernel's A gives dp/d delta = -delta G and, for a pi pulse,
    dp/d Omega_0 = delta^2 G / Omega_0, where G = sum w_n A_n.

    Each is checked against a Richardson difference to 1e-8 relative, with
    an absolute floor of 1e-10 of Bernstein's bound tau / 2 on |p'| for
    the points where p' crosses zero.
    """

    @given(area=_AREAS, **_SLOPE_CASES)
    @settings(max_examples=25, deadline=None)
    def test_detuning_slope(self, area, nbar, eta, seed):
        pulse, m, d = _slope_case(area, nbar, eta, seed)
        p, g = lineshape._thermal_sums(d, pulse, m, slope=True)
        reference = _richardson(lambda h: excitation_profile(d + h, pulse, m),
                                0.02 / pulse.duration)
        np.testing.assert_allclose(-d * g, reference, rtol=1e-8,
                                   atol=1e-10 * 0.5 * pulse.duration)

    @given(**_SLOPE_CASES)
    @settings(max_examples=25, deadline=None)
    def test_rabi_slope_of_a_pi_pulse(self, nbar, eta, seed):
        pulse, m, d = _slope_case(math.pi, nbar, eta, seed)
        _p, g = lineshape._thermal_sums(d, pulse, m, slope=True)
        reference = _richardson(
            lambda h: excitation_profile(d, PulseSpec.pi_pulse(RABI + h), m), 1e-3 * RABI)
        np.testing.assert_allclose(d ** 2 * g / RABI, reference, rtol=1e-8,
                                   atol=1e-10 * 0.5 * pulse.duration)

    @given(area=_AREAS, **_SLOPE_CASES)
    @settings(max_examples=10, deadline=None)
    def test_fit_pass_profile_is_excitation_profile(self, area, nbar, eta, seed):
        pulse, m, d = _slope_case(area, nbar, eta, seed)
        p, _g = lineshape._thermal_sums(d, pulse, m, slope=True)
        assert p.tobytes() == excitation_profile(d, pulse, m).tobytes()

    def test_slope_is_zero_where_p_is_and_finite_where_r4_overflows(self):
        # a zero or NaN r^2 gives +0.0 as for p; r^2 = 1e-300 and r^2 = 4e159
        # (1e79 Hz) are finite while r^4 under- or overflows, and A is finite
        omega2 = np.array([0.0, RABI ** 2, 0.0, 1e-300])
        delta = np.array([[0.0], [-0.0], [RABI], [TWO_PI * 1e79], [np.nan]])
        a = np.empty((5, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = lineshape._excitation(omega2, delta, PI_PULSE.duration, slope=a)
        assert p.tobytes() == lineshape._excitation(omega2, delta, PI_PULSE.duration).tobytes()
        assert np.all(np.isfinite(a))
        assert a[[0, 1], 0].tobytes() == np.zeros(2).tobytes()
        assert a[4].tobytes() == np.zeros(4).tobytes()
        assert a[0, 3] == 0.0 and a[1, 3] == 0.0
        assert np.all(np.abs(a[3]) < 1e-200)


def _one_pass_profile(d, pulse, m):
    """`excitation_profile` as one kernel pass over the whole grid."""
    return lineshape._excitation(lineshape._omega2(pulse.rabi, m)[None, :], d[:, None],
                                 pulse.duration) @ lineshape._motional_arrays(m)[0]


class TestBlockedProfile:
    """Blocking the kernel's rows leaves every bit of the profile."""

    @given(area=st.floats(0.2 * math.pi, 4 * math.pi),
           nbar=st.one_of(st.floats(0.0, 400.0), st.floats(1640.0, 2000.0)),
           eta=st.floats(0.0, 0.3), blocks=st.integers(1, 3),
           edge=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equals_one_pass(self, area, nbar, eta, blocks, edge, seed):
        # row counts k rows +- 1 straddle the block edges; from nbar 1640
        # one row (cutoff + 1 > TABLE_CHUNK_ELEMENTS) is more than a block
        pulse, m = PulseSpec(RABI, area / RABI), motion(nbar, eta)
        rows = max(1, lineshape.TABLE_CHUNK_ELEMENTS // (m.n_cutoff + 1))
        rng = np.random.default_rng(seed)
        d = rng.uniform(-5.0, 5.0, max(1, blocks * rows + edge)) * RABI
        d[rng.random(d.size) < 0.1] = 0.0
        assert excitation_profile(d, pulse, m).tobytes() == \
            _one_pass_profile(d, pulse, m).tobytes()


def _table_case(area, nbar, eta=LINEWIDTH_CALIBRATED_ETA):
    pulse = PulseSpec(RABI, area / RABI)
    return pulse, motion(nbar, eta)


def span_table(pulse, m, kappa):
    """The per-shot table the estimator's plan builds for kappa."""
    return estimator._plan(pulse, m, kappa).table


class TestShotTable:
    @pytest.mark.parametrize("area", [math.pi / 2, math.pi, 3 * math.pi, 4 * math.pi])
    @pytest.mark.parametrize("nbar", [0.0, 20.0, 80.0])
    def test_matches_exact_sum_on_dense_grid(self, area, nbar):
        # at kappa 0.3 the span starts at delta = 0, the table at node -1;
        # at kappa 0.8 it starts at 0.6 Omega_0 less the nodes the pitch
        # and the cubic add
        for kappa in (0.3, 0.8):
            self.check_span_table(area, nbar, kappa)

    @given(area=st.floats(0.3 * math.pi, 4 * math.pi), nbar=st.floats(0.0, 400.0),
           eta=st.floats(0.0, 0.3), kappa=st.floats(0.1, 0.95))
    @settings(max_examples=10, deadline=None)
    def test_matches_exact_sum_on_random_lines(self, area, nbar, eta, kappa):
        self.check_span_table(area, nbar, kappa, eta)

    @staticmethod
    def check_span_table(area, nbar, kappa, eta=LINEWIDTH_CALIBRATED_ETA):
        pulse, m = _table_case(area, nbar, eta)
        table = span_table(pulse, m, kappa)
        grid = table.grid
        # the span covers the estimator's probe points, |delta| in
        # [max(0, 2 kappa - 1), 1] Omega_0
        assert grid[0] <= max(0.0, 2.0 * kappa - 1.0) * RABI
        assert grid[-1] >= RABI
        # Bernstein: |p^(k)| <= tau^k / 2, with h tau = 2 area / intervals;
        # the area as the table takes it, which may differ from the argument
        # in its last bit
        area = pulse.rabi * pulse.duration
        h_tau = 2.0 * area / round(2.0 * RABI * table.scale)
        assert table.linear_bound == \
            h_tau ** 2 / 16.0 + 2.0 * lineshape.TABLE_ROUNDING_SLACK
        # every interval midpoint of the table (where linear interpolation
        # errs most), alternating in sign, then points past each end
        mid = 0.5 * (grid[:-1] + grid[1:])
        mid[1::2] *= -1.0
        beyond = np.linspace(1.01, 1.5, 9) * grid[-1]
        before = np.linspace(0.0, 0.99, 9) * grid[0] if grid[0] > 0.0 else np.array([])
        deltas = np.concatenate([mid, beyond, -beyond, before, -before])
        linear, bounds = lineshape._tabulated_excitation(deltas, table)
        exact = np.array([thermal_excitation(d, pulse, m) for d in mid])
        err = np.abs(linear[:mid.size] - exact)
        assert err.max() <= 5e-7
        assert err.max() <= table.linear_bound
        assert np.all(bounds[:mid.size] == table.linear_bound)
        # outside the span the bound sends every shot to the exact sum
        assert np.all(bounds[mid.size:] == np.inf)

        # the cubic read, at a random point of every interval it can read
        # (nodes i - 1 and i + 2 must exist), the first one included
        u = np.arange(1, grid.size - 2) + np.random.default_rng(grid.size).uniform(
            size=grid.size - 3)
        u[0] = 1.3
        cubic = np.array([lineshape._cubic_read(table.floats, x) for x in u])
        exact = np.array([thermal_excitation((x + table.origin) / table.scale, pulse, m)
                          for x in u])
        err = np.abs(cubic - exact)
        assert err.max() <= table.cubic_bound
        # the truncation bound alone holds, with 1e-13 for the sums' rounding
        assert err.max() <= 3.0 * h_tau ** 4 / 256.0 + 1e-13
        # and the read is exact at the nodes
        assert [lineshape._cubic_read(table.floats, float(i)) for i in range(1, 8)] == \
            list(table.floats[1:8])

    @given(area=st.floats(0.3 * math.pi, 4 * math.pi), nbar=st.floats(0.0, 400.0),
           eta=st.floats(0.0, 0.3), kappa=st.floats(0.1, 0.95),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_slope_read_within_its_bound(self, area, nbar, eta, kappa, seed):
        # _cubic_slope at a random point of 60 intervals it can read, the
        # first one included, against the kernel's dp/d|delta| = -|delta| G
        pulse, m = _table_case(area, nbar, eta)
        table = span_table(pulse, m, kappa)
        rng = np.random.default_rng(seed)
        u = rng.integers(1, table.grid.size - 2, 60) + rng.uniform(size=60)
        u[0] = 1.0 + rng.uniform()
        slopes = np.array([lineshape._cubic_slope(table.floats, x) for x in u]) * table.scale
        d = (u + table.origin) / table.scale
        _p, g = lineshape._thermal_sums(d, pulse, m, slope=True)
        err = np.abs(slopes + d * g)
        h_tau = pulse.duration / table.scale
        truncation = pulse.duration * (h_tau ** 3 / 24.0 + 3.0 * h_tau ** 4 / 1280.0)
        assert err.max() <= truncation + 7.0 / 3.0 * lineshape.TABLE_ROUNDING_SLACK * table.scale
        # the truncation bound alone holds, with 1e-13 for each node's rounding
        assert err.max() <= truncation + 7.0 / 3.0 * 1e-13 * table.scale

    def test_pitch_scales_with_inverse_duration(self):
        for area in (math.pi / 2, math.pi, 3 * math.pi):
            pulse, m = _table_case(area, 20.0)
            table = span_table(pulse, m, 0.8)
            pitch = 2.0 * RABI / round(2.0 * RABI * table.scale)
            assert pitch * pulse.duration == \
                pytest.approx(2.0 * math.pi / lineshape.TABLE_INTERVALS_PER_PI, rel=1e-12)
            # node k lies at origin + k pitches
            assert np.array_equal(
                table.grid, np.arange(table.origin, table.origin + table.grid.size) * pitch)
            # the estimator's copy: the same values as Python floats, 1 / pitch
            assert table.floats == tuple(table.values.tolist())
            assert table.scale == 1.0 / pitch
        # the default config: nodes 613 .. 1026 of the grid of 2048
        # intervals over [0, 2 Omega_0]; at kappa 0.3 from node -1 on
        pulse, m = _table_case(math.pi, 80.0)
        default, near = span_table(pulse, m, 0.8), span_table(pulse, m, 0.3)
        assert round(2.0 * RABI * default.scale) == 2048
        assert (default.origin, default.grid.size) == (613, 414)
        assert (near.origin, near.grid.size) == (-1, 1028)

    @pytest.mark.parametrize("kappa", [0.3, 0.8])
    def test_a_read_off_the_table_raises(self, kappa):
        # the cubic needs nodes i - 1 .. i + 2, i = int(u): below node 1
        # or past node len - 3 one of them is missing, at a table from
        # node -1 (kappa 0.3) as at one from node 613
        floats = span_table(*_table_case(math.pi, 80.0), kappa).floats
        last = len(floats) - 3
        assert lineshape._cubic_read(floats, 1.0) == floats[1]
        assert lineshape._cubic_read(floats, float(last)) == floats[last]
        for u in (0.999, 0.3, 0.0, -0.5, -1.0, -5.5, last + 1.0, last + 1.5, len(floats)):
            with pytest.raises(ValueError):
                lineshape._cubic_read(floats, u)

    def test_no_table_beyond_four_pi(self):
        pulse, m = _table_case(4 * math.pi, 20.0)
        table = span_table(pulse, m, 0.8)
        assert round(2.0 * RABI * table.scale) == lineshape.TABLE_MAX_INTERVALS
        assert table.origin + table.grid.size <= lineshape.TABLE_MAX_INTERVALS + 1
        pulse, m = _table_case(4.01 * math.pi, 20.0)
        assert lineshape._shot_table(pulse, m, 0.0, RABI) is None
        assert span_table(pulse, m, 0.8) is None
        _, bounds = lineshape._tabulated_excitation(np.array([0.1, -0.7]) * RABI, None)
        assert np.all(bounds == np.inf)

    @pytest.mark.parametrize("kappa", [0.3, 0.8, 0.95])
    def test_infinite_bound_outside_the_span(self, kappa):
        pulse, m = _table_case(math.pi, 80.0)
        table = span_table(pulse, m, kappa)
        lo, hi = float(table.grid[0]), float(table.grid[-1])
        # one ulp outside, at, and one ulp inside each end of the span
        inside = np.array([lo, math.nextafter(lo, hi), math.nextafter(hi, lo), hi])
        outside = np.array([math.nextafter(hi, math.inf)] +
                           ([math.nextafter(lo, 0.0)] if lo > 0.0 else []))
        _, bounds = lineshape._tabulated_excitation(
            np.concatenate([outside, -outside, inside, -inside]), table)
        assert np.all(bounds[:2 * outside.size] == np.inf)
        assert np.all(bounds[2 * outside.size:] == table.linear_bound)


class TestFwhm:
    def test_ground_state_width(self):
        assert fwhm(motion(0.0), PI_PULSE) / RABI == \
            pytest.approx(1.5973701477050786, rel=1e-6)

    def test_calibrated_endpoints(self):
        low = fwhm(motion(20.0), PI_PULSE) / RABI
        high = fwhm(motion(100.0), PI_PULSE) / RABI
        assert abs(low - 1.602) <= 0.01
        assert abs(high - 1.62) <= 0.01
        assert low < high

    def test_width_grows_with_nbar(self):
        widths = [fwhm(motion(nbar), PI_PULSE) for nbar in (0.0, 20.0, 100.0)]
        assert widths[0] < widths[1] < widths[2]

    def test_peak_not_at_center_rejected(self):
        two_pi_pulse = PulseSpec(RABI, 2.0 * math.pi / RABI)
        with pytest.raises(ValueError):
            fwhm(motion(0.0), two_pi_pulse)

    @pytest.mark.parametrize("area", [0.5 * math.pi, math.pi, 3.0 * math.pi,
                                      2.0 * math.pi])
    @pytest.mark.parametrize("nbar", [0.0, 20.0, 100.0])
    def test_equals_two_sided_scan(self, area, nbar):
        pulse, m = PulseSpec(RABI, area / RABI), motion(nbar)
        try:
            expected = _two_sided_fwhm(m, pulse)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                fwhm(m, pulse)
            assert str(raised.value) == str(exc)
        else:
            assert fwhm(m, pulse) == expected


def _two_sided_fwhm(m, pulse):
    """`fwhm` scanning and bisecting each side of the line in turn."""
    omega = pulse.rabi
    peak = float(excitation_profile(np.array([0.0]), pulse, m)[0])
    if peak <= 0.0:
        raise ValueError("no excitation at zero detuning; not a usable line")
    half = 0.5 * peak
    grid = np.arange(1, 101) * (0.05 * omega)
    widths = []
    for side in (+1.0, -1.0):
        values = excitation_profile(side * grid, pulse, m)
        if np.any(values > peak):
            raise ValueError("line peak is not at zero detuning")
        below = np.nonzero(values < half)[0]
        if below.size == 0:
            raise ValueError("no half-maximum crossing within 5 Rabi widths")
        k = below[0]
        lo = grid[k - 1] if k > 0 else 0.0
        hi = grid[k]
        while hi - lo > lineshape.FWHM_RESOLUTION * omega:
            mid = 0.5 * (lo + hi)
            if float(excitation_profile(np.array([side * mid]), pulse, m)[0]) < half:
                hi = mid
            else:
                lo = mid
        widths.append(0.5 * (lo + hi))
    return float(sum(widths))


class TestComputeEta:
    def test_trap_derived_value(self):
        eta = compute_eta(default_config().trap(), default_config().species())
        assert eta == pytest.approx(0.04093311432836127, rel=1e-10)

    def test_outside_lamb_dicke_rejected(self):
        env = default_config().trap()
        strong = TrapEnvironment(omega_z=env.omega_z, omega_r=env.omega_r,
                                 offset_field=env.offset_field,
                                 gradient=1e6 * env.gradient,
                                 voltage_to_field=env.voltage_to_field)
        with pytest.raises(ValueError):
            compute_eta(strong, default_config().species())
