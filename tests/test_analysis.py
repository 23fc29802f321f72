"""Allan deviation, spectrum fitting, positions and force figures."""
import json
import math

import numpy as np
import pytest
from scipy.optimize import least_squares, lsq_linear

from iontrack import analysis, lineshape
from iontrack.analysis import (
    FrequencySeries,
    SpectrumFitError,
    allan_deviation,
    charge_detection_distance,
    fit_spectrum,
    force_report,
    position_statistics,
)
from iontrack.cli import main
from iontrack.config import default_config
from iontrack.estimator import TwoPointConfig, binomial_variance
from iontrack.lineshape import MotionalModel, PulseSpec, excitation_profile
from iontrack.simulator import (
    Displacements,
    DriftModel,
    ExperimentTimeline,
    run_tracking,
)

from test_goldens import SPECTRUM_CSV

TWO_PI = 2.0 * math.pi
SPECIES = default_config().species()
ENV = default_config().trap()
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

    def _drift_and_noise(self):
        rng = np.random.default_rng(5)
        values = TWO_PI * 8.2 * np.arange(128) * 2.0 + rng.normal(0.0, TWO_PI * 34.6, 128)
        return values, np.array([2.0, 4.0, 8.0, 16.0, 32.0])

    @pytest.mark.parametrize("k", [-500, -300, 300, 480])
    def test_scale_equivariance(self, k):
        # the fit is formed on adev / 2^e: scaling the data by 2^k moves no bit
        values, taus = self._drift_and_noise()
        base = allan_deviation(series(values), taus)
        scaled = allan_deviation(series(np.ldexp(values, k)), taus)
        assert base.drift_rate > 0.0 and base.white_level > 0.0
        assert scaled.white_level == math.ldexp(base.white_level, k)
        assert scaled.drift_rate == math.ldexp(base.drift_rate, k)
        assert scaled.fit_residual == base.fit_residual

    @pytest.mark.parametrize("j", [-300, -100, 100, 300])
    def test_time_unit_equivariance(self, j):
        # and on tau / 2^i, i even: a sample period 2^j times as long, j even,
        # scales a = adev sqrt(tau) by 2^(j/2) and d = sqrt(2) adev / tau by 2^-j
        values, taus = self._drift_and_noise()
        base = allan_deviation(series(values), taus)
        scaled = allan_deviation(series(values, dt=math.ldexp(2.0, j)), np.ldexp(taus, j))
        assert scaled.white_level == math.ldexp(base.white_level, j // 2)
        assert scaled.drift_rate == math.ldexp(base.drift_rate, -j)
        assert scaled.fit_residual == base.fit_residual

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


class TestFitProfileReuse:
    """Each lineshape evaluation of a fit is at a new (centre, Rabi)."""

    MOTION = MotionalModel(nbar=80.0, eta=0.026)

    @staticmethod
    def _criterion_10_spectra(n):
        rabi = TWO_PI * 25e3
        x = (np.arange(80) - 39.5) * TWO_PI * 1.5e3
        p = excitation_profile(x, PulseSpec.pi_pulse(rabi), TestFitProfileReuse.MOTION)
        rng = np.random.default_rng(5150)
        return [(x, rng.binomial(100, p) / 100) for _ in range(n)]

    @staticmethod
    def _noise_spectrum(seed=94):
        # a few noise points with no line in them: an ill-posed fit
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 30))
        x = np.sort(rng.uniform(-3, 3, n)) * TWO_PI * 1e3
        y = rng.binomial(int(rng.integers(1, 20)), rng.uniform(0, 1, n)) / 20
        return x, y

    def test_line_free_spectra_fit_or_fail_cleanly(self, tmp_path):
        # With no line the optimum is ill-posed, so only the contract is
        # pinned: finite parameters, or SpectrumFitError with its best ones.
        for seed in range(94, 114):
            x, y = self._noise_spectrum(seed)
            try:
                fit = fit_spectrum(x, y, 20, self.MOTION)
            except SpectrumFitError as exc:
                assert exc.best_params.shape == (4,)
            else:
                assert np.all(np.isfinite([fit.center, fit.rabi, fit.amplitude,
                                           fit.baseline, fit.reduced_chisq]))
                assert np.all(np.isfinite(fit.covariance))
        x, y = self._noise_spectrum()
        data = tmp_path / "noise.csv"
        data.write_text("detuning_hz,counts,shots\n" + "".join(
            f"{d!r},{round(p * 20)},20\n" for d, p in zip((x / TWO_PI).tolist(), y)), encoding="utf-8")
        self._fit_run_keeps_exit_contract(data, tmp_path / "out", x.size)

    @staticmethod
    def _fit_run_keeps_exit_contract(data, out, n_points):
        """Through main: exit 0 with strict JSON, or exit 2 with no files."""
        code = main(["fit-spectrum", str(data), "--out", str(out)])
        if code == 0:
            def no_constant(token):
                raise AssertionError(f"non-finite {token} in the summary")
            summary = (out / "fit_spectrum_summary.json").read_text(encoding="utf-8")
            assert json.loads(summary, parse_constant=no_constant)["fit"]["n_points"] == n_points
        else:
            assert code == 2
            assert not out.exists()

    def test_detuning_whose_r4_overflows(self, tmp_path, capsys):
        # 1e79 Hz: r^2 = Omega_n^2 + delta^2 is finite, r^4 is not
        rows = SPECTRUM_CSV.splitlines()
        rows[5] = "1e79," + rows[5].split(",", 1)[1]
        data = tmp_path / "far.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        self._fit_run_keeps_exit_contract(data, tmp_path / "out", 25)
        err = capsys.readouterr().err
        assert "Traceback" not in err and "warning" not in err
        # the kernel's slope sum there is finite, and vanishes
        p, g = lineshape._thermal_sums(np.array([TWO_PI * 1e79]),
                                       PulseSpec.pi_pulse(TWO_PI * 640.0), self.MOTION,
                                       slope=True)
        assert np.isfinite(p[0]) and np.isfinite(g[0]) and abs(g[0]) < 1e-200

    def test_a_far_detuning_leaves_the_starting_point(self, tmp_path):
        # the Rabi floor and the fallback width follow the median spacing
        # of the detunings, not their span: the golden spectrum with one row
        # moved to 1e79 Hz starts from the golden's guess, and fits
        rows = SPECTRUM_CSV.splitlines()
        golden = np.array([row.split(",") for row in rows[1:]], dtype=float)
        far = golden.copy()
        far[4, 0] = 1e79
        guesses = [analysis._guess_from_data(TWO_PI * t[:, 0], t[:, 1] / t[:, 2])
                   for t in (golden, far)]
        assert np.array_equal(*guesses)
        rows[5] = "1e79," + rows[5].split(",", 1)[1]
        data = tmp_path / "far.csv"
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["fit-spectrum", str(data), "--out", str(tmp_path / "out")]) == 0
        # one point above half the peak: the width is twice the spacing
        x, y = np.append(np.arange(9.0), 1e79), np.zeros(10)
        y[4] = 1.0
        assert analysis._guess_from_data(x, y)[1] == 2.0 / 1.6

    def test_no_two_consecutive_profiles_share_centre_and_rabi(self, monkeypatch):
        # one kernel pass per evaluation gives the profile and both Jacobian
        # columns, so no pass repeats a (centre, Rabi) and a fit takes few
        calls = []

        def recorded(detunings, pulse, motion, slope=False):
            assert slope
            calls.append((np.array(detunings).tobytes(), pulse))
            return lineshape._thermal_sums(detunings, pulse, motion, slope)

        monkeypatch.setattr(analysis, "_thermal_sums", recorded)
        spectra = [(x, y, 100, 8) for x, y in self._criterion_10_spectra(2)]
        spectra.append((*self._noise_spectrum(), 20, math.inf))
        for x, y, shots, most in spectra:
            calls.clear()
            fit_spectrum(x, y, shots, self.MOTION)
            assert len(set(calls)) == len(calls) <= most

    def test_fit_builds_at_most_one_rule(self):
        # each step's Rabi frequency is new, but each step is a pi pulse on
        # the fit's one motion: every step reads that motion's rule for
        # area pi, so the cached rules grow by one at most
        spectra = self._criterion_10_spectra(2) + [self._noise_spectrum()]
        motions = lineshape._motional_arrays.cache_info().currsize
        rules = lineshape._motional_arrays(self.MOTION).rules
        before = len(rules.built)
        for x, y in spectra:
            fit_spectrum(x, y, 20, self.MOTION)
        assert len(rules.built) <= before + 1
        assert lineshape._motional_arrays.cache_info().currsize <= motions + 1


def _scipy_allan(result):
    """scipy's bounded linear least squares on `allan_deviation`'s squared problem.

    adev^2 = A / tau + D tau^2 with A, D >= 0, each point weighted by
    1 / (2 adev sigma), where sigma = adev / sqrt(n_pairs) and both adev
    are floored at the smallest positive one.  Returns scipy's (A, D) and
    the cost 0.5 |r|^2 of the weighted residuals r.
    """
    tau, adev = result.taus, result.adev
    floored = np.where(adev > 0.0, adev, adev[adev > 0.0].min())
    weight = np.sqrt(result.n_pairs) / (2.0 * floored ** 2)
    design = np.column_stack((1.0 / tau, tau ** 2)) * weight[:, None]
    target = adev ** 2 * weight

    def cost(p):
        r = design @ p - target
        return 0.5 * float(r @ r)

    fit = lsq_linear(design, target, bounds=(0.0, np.inf), method="bvls")
    return fit.x, cost


def _scipy_spectrum(x, y, shots, motion):
    """scipy's four-parameter fit of a line, as the package made it."""
    sigma = np.sqrt([binomial_variance(p, int(s)) for p, s in
                     zip(y, np.broadcast_to(shots, x.shape))])
    last = {}

    def residuals(params):
        center, rabi, amplitude, baseline = params
        key = (float(center), float(rabi))
        if key not in last:
            last.clear()
            last[key] = excitation_profile(x - center, PulseSpec.pi_pulse(rabi), motion)
        return (amplitude * last[key] + baseline - y) / sigma

    span = float(x.max() - x.min())
    lower = [x.min() - span, 1e-9, -np.inf, -np.inf]
    upper = [x.max() + span, np.inf, np.inf, np.inf]
    p0 = np.clip(analysis._guess_from_data(x, y), lower, upper)
    fit = least_squares(residuals, p0, bounds=(lower, upper), xtol=1e-8, x_scale="jac")
    assert fit.success
    return fit, np.linalg.inv(fit.jac.T @ fit.jac), residuals


def _moves_cost(cost, p, i):
    """Whether moving p_i by 1e-7 of itself raises the cost by more than
    rounding can: the data resolve p_i to 1e-7."""
    c = cost(p)
    moved = p.copy()
    moved[i] *= 1.0 + 1e-7
    return cost(moved) - c > 1e-13 * c + 1e-28


class TestFitsMatchScipy:
    """The numpy fits reach scipy's optimum: cost no higher, same parameters."""

    MOTION = MotionalModel(nbar=80.0, eta=0.026)
    TAUS = (2.0, 4.0, 8.0, 16.0, 32.0)

    def _allan_inputs(self):
        rng = np.random.default_rng(2024)
        cfg = TwoPointConfig(pulse=PulseSpec.pi_pulse(TWO_PI * 640.0), motion=self.MOTION)
        for seed in range(6):       # criterion-5 track records
            record = run_tracking(128, TWO_PI * 12.6e9,
                                  DriftModel(linear_rate=TWO_PI * 8.2, seed=seed),
                                  cfg, ExperimentTimeline())
            yield FrequencySeries.from_record(record), self.TAUS
        t = np.arange(128) * 2.0
        for _ in range(44):         # their drift and white noise, synthesised
            yield series(TWO_PI * 8.2 * t + rng.normal(0.0, TWO_PI * 34.6, t.size)), self.TAUS
        for _ in range(10):
            rate = TWO_PI * rng.uniform(0.1, 20.0)
            yield series(7.0 + rate * np.arange(200) * 2.0), self.TAUS
            yield series(rng.normal(0.0, 40.0, 512)), self.TAUS
            yield series(np.full(64, rng.uniform(-1e3, 1e3))), (2.0, 4.0, 8.0)
            yield series(TWO_PI * 8.2 * t + rng.normal(0.0, 40.0, t.size) + 5e9), self.TAUS
            short = rng.normal(0.0, 40.0, 12) + rng.uniform(0.0, 20.0) * np.arange(12) * 2.0
            yield series(short), (2.0, 4.0)
            yield series(short), (2.0,)
        # adev is 0 at tau >= 4 s: the weights' floor
        yield series(np.tile([1.0, -1.0], 64)), (2.0, 4.0, 8.0)

    def test_allan_fit(self):
        n_inputs = n_compared = 0
        for data, taus in self._allan_inputs():
            n_inputs += 1
            result = allan_deviation(data, taus)
            if np.all(result.adev == 0.0):
                assert (result.drift_rate, result.white_level) == (0.0, 0.0)
                continue
            reference, cost = _scipy_allan(result)
            ours = np.array([result.white_level, result.drift_rate])
            assert np.all(ours >= 0.0) and np.all(np.isfinite(ours))
            squared = np.array([ours[0] ** 2, ours[1] ** 2 / 2.0])
            # rounding in the cost is relative to its scale, the cost at (0, 0)
            assert cost(squared) <= cost(reference) + 1e-15 * cost(np.zeros(2))
            if result.taus.size == 1:
                # one tau cannot separate the terms: it is read as white noise
                assert result.drift_rate == 0.0 and result.fit_residual == 0.0
                assert result.white_level == result.adev[0] * math.sqrt(result.taus[0])
                continue
            for i in range(2):
                if squared[i] > 0.0 and reference[i] > 0.0 and _moves_cost(cost, reference, i):
                    n_compared += 1
                    assert squared[i] == pytest.approx(reference[i], rel=1e-12)
        assert n_inputs >= 100 and n_compared >= 150

    def _spectra(self):
        rng = np.random.default_rng(2025)
        rabi = TWO_PI * 25e3
        x = (np.arange(80) - 39.5) * TWO_PI * 1.5e3
        line = excitation_profile(x, PulseSpec.pi_pulse(rabi), self.MOTION)
        golden = np.array([row.split(",") for row in SPECTRUM_CSV.split()[1:]], dtype=float)
        golden_x = TWO_PI * golden[:, 0]
        for _ in range(15):
            yield x, rng.binomial(100, line) / 100                      # criterion 10
            center = TWO_PI * rng.uniform(-3e3, 3e3)                     # line-fit
            shifted = excitation_profile(x - center, PulseSpec.pi_pulse(rabi), self.MOTION)
            yield x, rng.binomial(100, shifted) / 100
        yield golden_x, golden[:, 1] / golden[:, 2]
        pulse = PulseSpec.pi_pulse(TWO_PI * 640.0)
        for _ in range(70):                                              # its geometry
            center = TWO_PI * rng.uniform(-100.0, 100.0)
            p = excitation_profile(golden_x - center, pulse, self.MOTION)
            yield golden_x, rng.binomial(100, p) / 100

    def test_spectrum_fit(self):
        n_spectra = 0
        for x, y in self._spectra():
            n_spectra += 1
            fit = fit_spectrum(x, y, 100, self.MOTION)
            reference, covariance, residuals = _scipy_spectrum(x, y, 100, self.MOTION)
            r = residuals(np.array([fit.center, fit.rabi, fit.amplitude, fit.baseline]))
            assert 0.5 * float(r @ r) <= reference.cost * (1.0 + 1e-9)
            stderr = np.sqrt(np.diag(covariance))
            assert abs(fit.center - reference.x[0]) <= 1e-3 * stderr[0]
            np.testing.assert_allclose(np.sqrt(np.diag(fit.covariance)), stderr, rtol=1e-3)
        assert n_spectra >= 100


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
