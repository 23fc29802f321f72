"""Allan deviation, spectrum fitting, positions and force figures."""
import math

import numpy as np
import pytest
from scipy.optimize import least_squares, minimize

from iontrack import analysis
from iontrack.analysis import (
    FrequencySeries,
    allan_deviation,
    charge_detection_distance,
    fit_spectrum,
    force_report,
    position_statistics,
)
from iontrack.atomphys import IonSpecies, TrapEnvironment
from iontrack.estimator import TwoPointConfig, binomial_variance
from iontrack.lineshape import MotionalModel, PulseSpec, excitation_profile
from iontrack.simulator import (
    Displacements,
    DriftModel,
    ExperimentTimeline,
    run_tracking,
)

TWO_PI = 2.0 * math.pi
SPECIES = IonSpecies.ytterbium_171()
ENV = TrapEnvironment.default()
SLOPE = TWO_PI * 267.5752951468019 * 1e9  # rad/s per metre, frozen above


def series(values, dt=2.0):
    values = np.asarray(values, dtype=float)
    return FrequencySeries(times=np.arange(values.size) * dt, values=values)


class TestFrequencySeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencySeries(times=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            FrequencySeries(times=np.array([0.0, 1.0, 0.5]),
                            values=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            FrequencySeries(times=np.array([0.0, 1.0, 2.5]),
                            values=np.array([1.0, 2.0, 3.0]))

    def test_sample_period(self):
        assert series(np.zeros(5), dt=1.5).sample_period == pytest.approx(1.5)

    def test_from_record(self):
        cfg = TwoPointConfig(pulse=PulseSpec.pi_pulse(TWO_PI * 640.0),
                             motion=MotionalModel(nbar=80.0, eta=0.026))
        record = run_tracking(5, TWO_PI * 12.6e9, DriftModel(seed=2), cfg,
                              ExperimentTimeline())
        fs = FrequencySeries.from_record(record)
        np.testing.assert_array_equal(fs.values, record.nu_estimated)


class TestAllanDeviation:
    def test_constant_series_is_zero(self):
        result = allan_deviation(series(np.full(64, 123.0)), [2, 4, 8])
        assert np.all(result.adev == 0.0)
        assert result.drift_rate == 0.0

    def test_offset_invariance(self):
        # dyadic values so that adding the huge offset is float-exact:
        # any residual difference is then the estimator's own doing
        rng = np.random.default_rng(8)
        values = rng.integers(-8000, 8000, size=128) * 2.0 ** -10
        a = allan_deviation(series(values), [2, 4, 8, 16])
        b = allan_deviation(series(values + 5e9), [2, 4, 8, 16])
        np.testing.assert_allclose(a.adev, b.adev, rtol=1e-12)

    def test_linear_drift_closed_form(self):
        d = TWO_PI * 8.2
        values = 7.0 + d * np.arange(200) * 2.0
        result = allan_deviation(series(values), [2, 4, 8, 16, 32])
        np.testing.assert_allclose(result.adev, d * result.taus / math.sqrt(2.0),
                                   rtol=1e-12)
        assert result.drift_rate == pytest.approx(d, rel=1e-9)

    def test_white_noise_scaling_and_null_drift(self):
        rng = np.random.default_rng(17)
        sigma = 40.0
        result = allan_deviation(series(rng.normal(0.0, sigma, size=4096)),
                                 [2, 4, 8, 16, 32])
        expected = sigma / np.sqrt(result.taus / 2.0)
        np.testing.assert_allclose(result.adev, expected, rtol=0.12)
        # pure white noise: fitted drift does not dominate any tau
        assert result.drift_rate * result.taus.max() / math.sqrt(2.0) < \
            result.adev[-1] * 1.5

    def test_mixed_white_and_drift(self):
        rng = np.random.default_rng(99)
        d = TWO_PI * 8.2
        t = np.arange(256) * 2.0
        values = d * t + rng.normal(0.0, TWO_PI * 34.6, size=t.size)
        result = allan_deviation(series(values), [2, 4, 8, 16, 32, 64])
        assert result.drift_rate == pytest.approx(d, rel=0.15)

    def test_tau_snapping_drops_infeasible(self):
        result = allan_deviation(series(np.arange(16.0)), [2, 4, 1000])
        assert result.taus.max() <= 16.0

    def test_all_taus_infeasible_rejected(self):
        with pytest.raises(ValueError):
            allan_deviation(series(np.arange(6.0)), [1000.0])

    @pytest.mark.parametrize("tau", [-5.0, 0.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match=f"tau must be positive and finite, "
                                             f"got {tau!r}"):
            allan_deviation(series(np.arange(16.0)), [4.0, tau])


class TestFitSpectrum:
    MOTION = MotionalModel(nbar=80.0, eta=0.026)

    def _clean(self, rabi_hz, nbar, n=80):
        rabi = TWO_PI * rabi_hz
        pulse = PulseSpec.pi_pulse(rabi)
        motion = MotionalModel(nbar=nbar, eta=0.026)
        x = (np.arange(n) - (n - 1) / 2.0) * 0.06 * rabi
        y = 0.9 * excitation_profile(x - 0.013 * rabi, pulse, motion) + 0.05
        return x, y, rabi, motion

    @pytest.mark.parametrize("rabi_hz,nbar", [(1e3, 0.0), (1e3, 80.0),
                                              (25e3, 0.0), (25e3, 80.0)])
    def test_noise_free_recovery(self, rabi_hz, nbar):
        x, y, rabi, motion = self._clean(rabi_hz, nbar)
        fit = fit_spectrum(x, y, 10_000, motion)
        assert fit.center == pytest.approx(0.013 * rabi, rel=1e-6, abs=1e-6 * rabi)
        assert fit.rabi == pytest.approx(rabi, rel=1e-6)
        assert fit.amplitude == pytest.approx(0.9, rel=1e-6)
        assert fit.baseline == pytest.approx(0.05, abs=1e-6)

    def test_covariance_shape_and_chisq(self):
        x, y, _rabi, motion = self._clean(25e3, 80.0)
        fit = fit_spectrum(x, y, 100, motion)
        assert fit.covariance.shape == (4, 4)
        assert fit.reduced_chisq < 0.1  # noise-free data fits far below 1
        assert fit.n_points == 80

    def test_flat_data_rejected(self):
        x = np.linspace(-1.0, 1.0, 20)
        with pytest.raises(ValueError, match="degenerate"):
            fit_spectrum(x, np.full(20, 0.3), 100, self.MOTION)

    def test_too_few_points_rejected(self):
        x = np.linspace(-1.0, 1.0, 7)
        with pytest.raises(ValueError, match="eight"):
            fit_spectrum(x, np.linspace(0, 1, 7), 100, self.MOTION)

    def test_shots_array_accepted(self):
        x, y, _rabi, motion = self._clean(1e3, 0.0)
        shots = np.full(x.size, 200)
        fit = fit_spectrum(x, y, shots, motion)
        assert fit.amplitude == pytest.approx(0.9, rel=1e-5)


def _fit_without_reuse(x, y, shots, motion):
    """`fit_spectrum`'s solver calls with a fresh profile on every evaluation."""
    sigma = np.sqrt([binomial_variance(p, int(s)) for p, s in
                     zip(y, np.broadcast_to(shots, x.shape))])

    def residuals(params):
        center, rabi, amplitude, baseline = params
        pulse = PulseSpec.pi_pulse(rabi)
        return (amplitude * excitation_profile(x - center, pulse, motion)
                + baseline - y) / sigma

    span = float(x.max() - x.min())
    lower = [x.min() - span, 1e-9, -np.inf, -np.inf]
    upper = [x.max() + span, np.inf, np.inf, np.inf]
    p0 = np.clip(analysis._guess_from_data(x, y), lower, upper)
    fit = least_squares(residuals, p0, bounds=(lower, upper), xtol=1e-8, x_scale="jac")
    if not fit.success:
        simplex = minimize(lambda p: float(np.sum(residuals(p) ** 2)),
                           fit.x, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        fit = least_squares(residuals, np.clip(simplex.x, lower, upper),
                            bounds=(lower, upper), xtol=1e-8, x_scale="jac")
    return fit


class TestFitProfileReuse:
    """Reusing the profile across amplitude/baseline steps changes no bit."""

    MOTION = MotionalModel(nbar=80.0, eta=0.026)

    @staticmethod
    def _criterion_10_spectra(n):
        rabi = TWO_PI * 25e3
        x = (np.arange(80) - 39.5) * TWO_PI * 1.5e3
        p = excitation_profile(x, PulseSpec.pi_pulse(rabi), TestFitProfileReuse.MOTION)
        rng = np.random.default_rng(5150)
        return [(x, rng.binomial(100, p) / 100) for _ in range(n)]

    @staticmethod
    def _noise_spectrum():
        # eight noise points with no line in them: least squares stops
        # short and the simplex fallback runs
        rng = np.random.default_rng(94)
        n = int(rng.integers(8, 30))
        x = np.sort(rng.uniform(-3, 3, n)) * TWO_PI * 1e3
        y = rng.binomial(int(rng.integers(1, 20)), rng.uniform(0, 1, n)) / 20
        return x, y

    def _assert_equal_to_reference(self, x, y, shots):
        fit = fit_spectrum(x, y, shots, self.MOTION)
        reference = _fit_without_reuse(x, y, shots, self.MOTION)
        assert reference.success
        assert [fit.center, fit.rabi, fit.amplitude, fit.baseline] == list(reference.x)
        assert fit.reduced_chisq == float(2.0 * reference.cost / max(x.size - 4, 1))
        assert np.array_equal(fit.covariance, np.linalg.inv(reference.jac.T @ reference.jac))

    def test_criterion_10_spectra(self):
        for x, y in self._criterion_10_spectra(4):
            self._assert_equal_to_reference(x, y, 100)

    def test_simplex_fallback(self, monkeypatch):
        simplex_runs = []

        def counted(*args, **kwargs):
            simplex_runs.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(analysis, "minimize", counted)
        x, y = self._noise_spectrum()
        self._assert_equal_to_reference(x, y, 20)
        assert simplex_runs == [1]

    def test_no_two_consecutive_profiles_share_centre_and_rabi(self, monkeypatch):
        calls = []

        def recorded(detunings, pulse, motion):
            calls.append((np.array(detunings), pulse))
            return excitation_profile(detunings, pulse, motion)

        monkeypatch.setattr(analysis, "excitation_profile", recorded)
        spectra = [(x, y, 100) for x, y in self._criterion_10_spectra(2)]
        spectra.append((*self._noise_spectrum(), 20))
        for x, y, shots in spectra:
            calls.clear()
            fit_spectrum(x, y, shots, self.MOTION)
            assert len(calls) > 10
            for (d0, pulse0), (d1, pulse1) in zip(calls, calls[1:]):
                assert pulse0 != pulse1 or not np.array_equal(d0, d1)


class TestPositionStatistics:
    def _points(self, deltas_hz, sigmas_hz):
        n = len(deltas_hz)
        return Displacements(times=np.arange(float(n)), voltages=np.ones(n),
                             delta_nu=TWO_PI * np.array(deltas_hz, dtype=float),
                             sigma_nu=TWO_PI * np.array(sigmas_hz, dtype=float))

    def test_known_conversion(self):
        hz_per_nm = 267.5752951468019  # frozen gradient-chain slope
        stats = position_statistics(self._points([hz_per_nm], [hz_per_nm]),
                                    ENV, SPECIES)
        assert stats.displacements[0] == pytest.approx(1e-9, rel=1e-12)
        assert stats.mean_sigma == pytest.approx(1e-9, rel=1e-12)
        # the round published conversion (266 Hz per nm) is within 1%
        rough = position_statistics(self._points([266.0], [266.0]), ENV, SPECIES)
        assert rough.displacements[0] == pytest.approx(1e-9, rel=0.01)

    def test_mean_sigma_is_arithmetic_mean(self):
        stats = position_statistics(self._points([0.0, 0.0], [100.0, 300.0]),
                                    ENV, SPECIES)
        assert stats.mean_sigma == pytest.approx(
            TWO_PI * 200.0 / SLOPE, rel=1e-9)

    def test_linearity_in_frequency(self):
        one = position_statistics(self._points([50.0], [10.0]), ENV, SPECIES)
        three = position_statistics(self._points([150.0], [10.0]), ENV, SPECIES)
        assert three.displacements[0] == pytest.approx(
            3.0 * one.displacements[0], rel=1e-12)

    def test_record_input_centres_on_mean(self):
        cfg = TwoPointConfig(pulse=PulseSpec.pi_pulse(TWO_PI * 640.0),
                             motion=MotionalModel(nbar=80.0, eta=0.026))
        record = run_tracking(8, TWO_PI * 12.6e9, DriftModel(seed=5), cfg,
                              ExperimentTimeline())
        stats = position_statistics(record, ENV, SPECIES)
        assert stats.displacements.mean() == pytest.approx(0.0, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            position_statistics(self._points([], []), ENV, SPECIES)


class TestForceReport:
    def test_design_resolution_chain(self):
        report = force_report(0.12e-9, ENV, SPECIES, 2.0)
        assert report.stiffness == pytest.approx(1.3e-13, rel=0.05)
        assert report.sigma_force == pytest.approx(1.5e-23, rel=0.05)
        assert report.sensitivity == pytest.approx(2.2e-23, rel=0.05)

    def test_internal_consistency(self):
        report = force_report(3.3e-10, ENV, SPECIES, 7.0)
        assert report.sigma_force == pytest.approx(
            report.stiffness * report.sigma_z, rel=1e-15)
        assert report.sensitivity == pytest.approx(
            report.sigma_force * math.sqrt(7.0), rel=1e-15)

    def test_invalid_inputs_rejected(self):
        for sigma_z, duration in [(0.0, 2.0), (math.nan, 2.0), (math.inf, 2.0),
                                  (1e-10, 0.0), (1e-10, math.nan), (1e-10, math.inf)]:
            with pytest.raises(ValueError, match="must be positive and finite"):
                force_report(sigma_z, ENV, SPECIES, duration)


class TestChargeDetectionDistance:
    def test_reference_force_resolution(self):
        assert charge_detection_distance(1.5e-23) == \
            pytest.approx(3.9e-3, rel=0.02)

    def test_inverse_square_scaling(self):
        assert charge_detection_distance(4.0 * 1.5e-23) == \
            pytest.approx(0.5 * charge_detection_distance(1.5e-23), rel=1e-12)

    def test_one_metre_reference(self):
        from iontrack.atomphys import CODATA
        coulomb_at_1m = CODATA.elementary_charge ** 2 / (
            4.0 * math.pi * CODATA.vacuum_permittivity)
        assert charge_detection_distance(coulomb_at_1m) == \
            pytest.approx(1.0, rel=1e-12)

    def test_non_positive_rejected(self):
        for sigma_force in (0.0, -1e-23, math.nan, math.inf):
            with pytest.raises(ValueError, match="must be positive and finite"):
                charge_detection_distance(sigma_force)
