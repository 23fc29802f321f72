"""Field-dependent transition frequency, gradients and ion chains."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iontrack.atomphys import (
    BREIT_RABI_VARIANTS,
    IonSpecies,
    TrapEnvironment,
    axial_stiffness,
    calibrate_gradient,
    equilibrium_positions,
    field_from_frequency,
    frequency_to_position_slope,
    length_scale,
    transition_frequency,
    transition_frequency_derivative,
)
from iontrack.analysis import position_statistics
from iontrack.simulator import Displacements

TWO_PI = 2.0 * math.pi
SPECIES = IonSpecies.ytterbium_171()
ENV = TrapEnvironment.default()


def shift_to_position(delta_nu):
    """The displacement (m) position_statistics gives one frequency offset (rad/s)."""
    points = Displacements(times=np.zeros(1), voltages=np.ones(1),
                           delta_nu=np.array([float(delta_nu)]), sigma_nu=np.ones(1))
    return float(position_statistics(points, ENV, SPECIES).displacements[0])

# Golden frequencies (Hz) frozen from an independent evaluation of the
# closed-form level energies before this module existed.
GOLDEN_HZ = {
    "standard": {
        0.0: 12642812118.471,
        10e-6: 12642952294.917650,
        100e-6: 12644214022.662624,
        442.09e-6: 12649012144.629988,
    },
    "single-cross": {
        0.0: 12642812118.471,
        10e-6: 12642882246.126663,
        100e-6: 12643513639.533848,
        442.09e-6: 12645917580.737516,
    },
}


class TestTransitionFrequency:
    @pytest.mark.parametrize("variant", BREIT_RABI_VARIANTS)
    @pytest.mark.parametrize("field", [0.0, 10e-6, 100e-6, 442.09e-6])
    def test_golden_values(self, variant, field):
        nu = transition_frequency(replace(SPECIES, variant=variant), field)
        assert nu / TWO_PI == pytest.approx(GOLDEN_HZ[variant][field], rel=1e-13)

    def test_zero_field_equals_splitting(self):
        nu = transition_frequency(SPECIES, 0.0)
        assert nu == pytest.approx(SPECIES.hyperfine_constant, rel=1e-15)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            transition_frequency(SPECIES, -1e-6)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'bogus'"):
            replace(SPECIES, variant="bogus")

    def test_default_slope_at_offset_field(self):
        d = transition_frequency_derivative(SPECIES, 442.09e-6)
        assert d / TWO_PI / 1e9 == pytest.approx(14.031216316035756, rel=1e-12)

    def test_single_cross_slope_is_half(self):
        d = transition_frequency_derivative(replace(SPECIES, variant="single-cross"),
                                            442.09e-6)
        assert d / TWO_PI / 1e9 == pytest.approx(7.036508397951132, rel=1e-12)

    @pytest.mark.parametrize("variant", BREIT_RABI_VARIANTS)
    def test_derivative_matches_finite_difference(self, variant):
        species = replace(SPECIES, variant=variant)
        b, h = 3e-4, 1e-9
        fd = (transition_frequency(species, b + h)
              - transition_frequency(species, b - h)) / (2 * h)
        d = transition_frequency_derivative(species, b)
        assert d == pytest.approx(fd, rel=1e-6)

    @given(st.floats(min_value=1e-7, max_value=5e-3))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_field(self, b):
        assert transition_frequency(SPECIES, 1.001 * b) > \
            transition_frequency(SPECIES, b)


class TestFieldInversion:
    @given(st.floats(min_value=0.0, max_value=2e-3))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, b):
        nu = transition_frequency(SPECIES, b)
        assert field_from_frequency(SPECIES, nu) == pytest.approx(b, abs=1e-15)

    def test_round_trip_single_cross(self):
        species = replace(SPECIES, variant="single-cross")
        nu = transition_frequency(species, 442.09e-6)
        b = field_from_frequency(species, nu)
        assert b == pytest.approx(442.09e-6, abs=1e-15)

    def test_below_zero_field_splitting_rejected(self):
        with pytest.raises(ValueError):
            field_from_frequency(SPECIES, TWO_PI * 12.0e9)


class TestPositionSlope:
    def test_design_point_slope_value(self):
        slope = frequency_to_position_slope(ENV, SPECIES)
        hz_per_nm = slope / TWO_PI / 1e9
        assert hz_per_nm == pytest.approx(267.5752951468019, rel=1e-12)
        assert abs(hz_per_nm / 266.0 - 1.0) < 0.01

    def test_shift_to_position_inverse_of_slope(self):
        slope = frequency_to_position_slope(ENV, SPECIES)
        dz = shift_to_position(TWO_PI * 266.0)
        assert dz == pytest.approx(TWO_PI * 266.0 / slope, rel=1e-15)

    @given(st.floats(min_value=-TWO_PI * 1e5, max_value=TWO_PI * 1e5))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, delta_nu):
        one = shift_to_position(delta_nu)
        two = shift_to_position(2.0 * delta_nu)
        assert two == pytest.approx(2.0 * one, rel=1e-12, abs=1e-30)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError, match="gradient"):
            TrapEnvironment(omega_z=ENV.omega_z, omega_r=ENV.omega_r,
                            offset_field=ENV.offset_field, gradient=0.0,
                            voltage_to_field=ENV.voltage_to_field)


class TestStiffness:
    def test_axial_stiffness_value(self):
        assert axial_stiffness(ENV, SPECIES) == pytest.approx(
            SPECIES.mass * ENV.omega_z ** 2, rel=1e-15)
        assert abs(axial_stiffness(ENV, SPECIES) / 1.3e-13 - 1.0) < 0.01


class TestChainEquilibria:
    def test_single_ion_at_origin(self):
        z = equilibrium_positions(1, ENV, SPECIES)
        assert z.shape == (1,) and z[0] == 0.0

    def test_two_ions_analytic(self):
        z = equilibrium_positions(2, ENV, SPECIES)
        u = z / length_scale(ENV, SPECIES)
        expected = 2.0 ** (-2.0 / 3.0)
        assert u[1] == pytest.approx(expected, rel=1e-10)
        assert u[0] == pytest.approx(-expected, rel=1e-10)

    def test_three_ions_analytic(self):
        z = equilibrium_positions(3, ENV, SPECIES)
        u = z / length_scale(ENV, SPECIES)
        expected = (5.0 / 4.0) ** (1.0 / 3.0)
        assert u[1] == pytest.approx(0.0, abs=1e-12)
        assert u[2] == pytest.approx(expected, rel=1e-10)
        assert u[0] == pytest.approx(-expected, rel=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_larger_chains_ordered_and_symmetric(self, n):
        z = equilibrium_positions(n, ENV, SPECIES)
        assert np.all(np.diff(z) > 0.0)
        np.testing.assert_allclose(z, -z[::-1], atol=1e-18)

    def test_out_of_range_counts_rejected(self):
        for n in (0, 33):
            with pytest.raises(ValueError):
                equilibrium_positions(n, ENV, SPECIES)


class TestGradientCalibration:
    def _frequencies(self, env, n):
        z = equilibrium_positions(n, env, SPECIES)
        return [transition_frequency(SPECIES, env.offset_field + env.gradient * zi)
                for zi in z]

    def _high_field_env(self):
        return TrapEnvironment(omega_z=ENV.omega_z, omega_r=ENV.omega_r,
                               offset_field=600e-6, gradient=ENV.gradient,
                               voltage_to_field=ENV.voltage_to_field)

    def test_recovers_known_gradient(self):
        env = self._high_field_env()
        cal = calibrate_gradient(self._frequencies(env, 8), env, SPECIES)
        assert cal.gradient == pytest.approx(19.07, rel=1e-9)
        assert cal.field_intercept == pytest.approx(600e-6, rel=1e-9)
        assert cal.monotone

    def test_two_ions_have_nan_stderr(self):
        env = self._high_field_env()
        cal = calibrate_gradient(self._frequencies(env, 2), env, SPECIES)
        assert math.isnan(cal.gradient_stderr)

    def test_non_monotone_flagged(self):
        env = self._high_field_env()
        nus = self._frequencies(env, 3)
        nus[0], nus[1] = nus[1], nus[0]
        cal = calibrate_gradient(nus, env, SPECIES)
        assert not cal.monotone

    def test_reversed_chain_is_negative_gradient(self):
        env = self._high_field_env()
        cal = calibrate_gradient(self._frequencies(env, 3)[::-1], env, SPECIES)
        assert cal.monotone
        assert cal.gradient == pytest.approx(-19.07, rel=1e-9)

    def test_single_frequency_rejected(self):
        with pytest.raises(ValueError):
            calibrate_gradient([TWO_PI * 12.65e9], ENV, SPECIES)
