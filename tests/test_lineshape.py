"""Thermally averaged Rabi excitation profiles and their widths."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontrack import lineshape
from iontrack.atomphys import IonSpecies, TrapEnvironment
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
        assert thermal_excitation(PI_PULSE, motion(0.0, eta=0.0)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zero_where_coupling_and_detuning_vanish(self):
        with np.errstate(all="raise"):
            p = lineshape._excitation(np.array([0.0, RABI ** 2]), 0.0, PI_PULSE.duration)
        assert p[0] == 0.0
        assert p[1] == pytest.approx(1.0, abs=1e-12)

    def test_probe_point_value(self):
        pulse = PulseSpec(RABI, PI_PULSE.duration, detuning=0.8 * RABI)
        assert thermal_excitation(pulse, motion(0.0)) == \
            pytest.approx(0.4987531196801067, rel=1e-12)

    def test_profile_matches_scalar(self):
        m = motion(20.0)
        detunings = np.array([-0.7, 0.0, 0.4, 1.3]) * RABI
        profile = excitation_profile(detunings, PI_PULSE, m)
        scalars = [thermal_excitation(
            PulseSpec(RABI, PI_PULSE.duration, d), m) for d in detunings]
        np.testing.assert_allclose(profile, scalars, rtol=1e-12)

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=0.0, max_value=120.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, frac, nbar):
        m = motion(nbar)
        plus = thermal_excitation(
            PulseSpec(RABI, PI_PULSE.duration, frac * RABI), m)
        minus = thermal_excitation(
            PulseSpec(RABI, PI_PULSE.duration, -frac * RABI), m)
        assert plus == pytest.approx(minus, rel=1e-10, abs=1e-12)
        assert 0.0 <= plus <= 1.0

    def test_thermal_averaging_lowers_peak(self):
        assert thermal_excitation(PI_PULSE, motion(100.0)) < \
            thermal_excitation(PI_PULSE, motion(0.0))


def _table_case(area, nbar):
    pulse = PulseSpec(RABI, area / RABI)
    return pulse, motion(nbar)


class TestShotTable:
    @pytest.mark.parametrize("area", [math.pi / 2, math.pi, 3 * math.pi])
    @pytest.mark.parametrize("nbar", [0.0, 20.0, 80.0])
    def test_matches_exact_sum_on_dense_grid(self, area, nbar):
        pulse, m = _table_case(area, nbar)
        grid, _, bound, _, _ = lineshape._shot_table(pulse.rabi, pulse.duration, m)
        # every interval midpoint of the table (where linear interpolation
        # errs most), alternating in sign, then points past the span
        mid = 0.5 * (grid[:-1] + grid[1:])
        mid[1::2] *= -1.0
        beyond = np.linspace(1.01, 1.5, 9) * grid[-1]
        deltas = np.concatenate([mid, beyond, -beyond])
        table, bounds = lineshape._tabulated_excitation(deltas, pulse, m)
        exact = np.array([thermal_excitation(PulseSpec(RABI, pulse.duration, d), m)
                          for d in mid])
        err = np.abs(table[:mid.size] - exact)
        assert err.max() <= 5e-7
        assert err.max() <= bound
        assert np.all(bounds[:mid.size] == bound)
        # past the span the bound sends every shot to the exact sum
        assert np.all(bounds[mid.size:] == np.inf)

    def test_pitch_scales_with_inverse_duration(self):
        for area in (math.pi / 2, math.pi, 3 * math.pi):
            pulse, m = _table_case(area, 20.0)
            grid, values, _, floats, scale = lineshape._shot_table(pulse.rabi,
                                                                   pulse.duration, m)
            assert grid[-1] == pytest.approx(2.0 * RABI, rel=1e-12)
            assert (grid[1] - grid[0]) * pulse.duration == \
                pytest.approx(2.0 * math.pi / lineshape.TABLE_INTERVALS_PER_PI, rel=1e-12)
            # the estimator's copy: the same values as Python floats, 1 / pitch
            assert floats == tuple(values.tolist())
            assert scale == 1.0 / float(grid[1])
        pulse, m = _table_case(math.pi, 80.0)
        assert lineshape._shot_table(pulse.rabi, pulse.duration, m)[0].size == 2049

    def test_no_table_beyond_four_pi(self):
        pulse, m = _table_case(4 * math.pi, 20.0)
        assert lineshape._shot_table(pulse.rabi, pulse.duration, m)[0].size == \
            lineshape.TABLE_MAX_INTERVALS + 1
        pulse, m = _table_case(4.01 * math.pi, 20.0)
        assert lineshape._shot_table(pulse.rabi, pulse.duration, m) is None
        _, bounds = lineshape._tabulated_excitation(np.array([0.1, -0.7]) * RABI,
                                                    pulse, m)
        assert np.all(bounds == np.inf)


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


class TestComputeEta:
    def test_trap_derived_value(self):
        eta = compute_eta(TrapEnvironment.default(), IonSpecies.ytterbium_171())
        assert eta == pytest.approx(0.04093311432836127, rel=1e-10)

    def test_outside_lamb_dicke_rejected(self):
        env = TrapEnvironment.default()
        strong = TrapEnvironment(omega_z=env.omega_z, omega_r=env.omega_r,
                                 offset_field=env.offset_field,
                                 gradient=1e6 * env.gradient,
                                 voltage_to_field=env.voltage_to_field)
        with pytest.raises(ValueError):
            compute_eta(strong, IonSpecies.ytterbium_171())
