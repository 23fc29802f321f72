"""Acceptance gate: eleven headline figures the package must reproduce.

Each test prints the measured number next to its target band so a plain
``pytest -v`` run shows one pass/fail line per criterion.
"""
import math
import time

import numpy as np
import pytest

from iontrack.analysis import (
    FrequencySeries,
    allan_deviation,
    fit_spectrum,
    force_report,
    position_statistics,
)
from iontrack.atomphys import (
    equilibrium_positions,
    field_from_frequency,
    frequency_to_position_slope,
    length_scale,
    transition_frequency,
)
from iontrack.config import default_config
from iontrack.estimator import (
    TwoPointConfig,
    analytic_sigma,
    estimate_from_counts,
    g_forward,
    g_invert,
    probe_probabilities,
)
from iontrack.lineshape import MotionalModel, PulseSpec, excitation_profile, fwhm
from iontrack.simulator import (
    DriftModel,
    ExperimentTimeline,
    VoltageSchedule,
    drift_correct,
    run_tracking,
    run_voltage_scan,
)

TWO_PI = 2.0 * math.pi
SPECIES = default_config().species()     # 171Yb+
ENV = default_config().trap()            # 442.09 uT offset, 19.07 T/m
RABI = TWO_PI * 640.0                    # tracking drive
MOTION = MotionalModel(nbar=80.0, eta=0.026)   # calibrated coupling
CFG = TwoPointConfig(pulse=PulseSpec.pi_pulse(RABI), motion=MOTION)
TIMELINE = ExperimentTimeline()
DRIFT_RATE = TWO_PI * 8.2                # rad/s per s
NU0 = transition_frequency(SPECIES, ENV.offset_field)


def test_criterion_01_frequency_position_slope():
    """d(nu)/dz at the working point matches 2pi x 266 Hz/nm within 1%."""
    slope = frequency_to_position_slope(ENV, SPECIES)
    hz_per_nm = slope / TWO_PI * 1e-9
    rel = abs(hz_per_nm - 266.0) / 266.0
    print(f"criterion 1: slope = {hz_per_nm:.4f} Hz/nm "
          f"(target 266, deviation {rel:.3%})")
    assert rel < 0.01, f"slope {hz_per_nm} Hz/nm is {rel:.3%} from 266"


def test_criterion_02_fwhm_endpoints():
    """Thermal broadening widens the line from 1.597 to 1.602/1.62 Rabi."""
    pulse = PulseSpec.pi_pulse(RABI)
    widths = {
        nbar: fwhm(MotionalModel(nbar=nbar, eta=0.026), pulse) / RABI
        for nbar in (0.0, 20.0, 100.0)
    }
    print(f"criterion 2: FWHM/Omega = {widths[0.0]:.4f} (nbar=0), "
          f"{widths[20.0]:.4f} (nbar=20, target 1.602 +/- 0.01), "
          f"{widths[100.0]:.4f} (nbar=100, target 1.62 +/- 0.01)")
    assert abs(widths[20.0] - 1.602) < 0.01, f"FWHM(20) = {widths[20.0]}"
    assert abs(widths[100.0] - 1.62) < 0.01, f"FWHM(100) = {widths[100.0]}"
    assert abs(widths[0.0] - 1.597) < 0.01, f"FWHM(0) = {widths[0.0]}"


def test_criterion_03_estimator_noise_floor():
    """50 shots/side on resonance resolve 5% of the linewidth."""
    n_seeds = 10_000
    rng = np.random.default_rng(20260814)
    p_plus, p_minus = probe_probabilities(0.0, CFG)
    c_plus = rng.binomial(CFG.shots_per_side, p_plus, size=n_seeds)
    c_minus = rng.binomial(CFG.shots_per_side, p_minus, size=n_seeds)
    estimates = np.array([
        estimate_from_counts(int(cp), int(cm), CFG).delta
        for cp, cm in zip(c_plus, c_minus)
    ])
    mc = float(estimates.std(ddof=1)) / RABI
    analytic = analytic_sigma(CFG, 0.0) / RABI
    ratio = mc / analytic
    print(f"criterion 3: std/Omega = {mc:.5f} (target 0.05 +/- 0.01), "
          f"MC/analytic = {ratio:.4f}")
    assert 0.04 < mc < 0.06, f"std/Omega = {mc}"
    assert abs(ratio - 1.0) < 0.10, f"MC/analytic = {ratio}"


def test_criterion_04_time_scaling():
    """sigma_nu(T) sqrt(T) is constant within 3% across T = 2, 8, 32 s."""
    # Monte-Carlo per duration; the inversion runs through a fine grid of
    # the forward map (pitch 1e-4 Omega, matching the bisection tolerance)
    # so forty thousand seeds per cell stay cheap.
    window = CFG.window_halfwidth
    grid = np.linspace(-window, window, 4001)
    g_grid = np.array([g_forward(d, CFG) for d in grid])
    p_plus, p_minus = probe_probabilities(0.0, CFG)
    products = []
    for i, duration in enumerate((2.0, 8.0, 32.0)):
        per_side = int(duration / TIMELINE.rep_period) // 2
        rng = np.random.default_rng(77 + i)
        c_plus = rng.binomial(per_side, p_plus, size=40_000)
        c_minus = rng.binomial(per_side, p_minus, size=40_000)
        g_hat = (c_plus - c_minus) / (c_plus + c_minus)
        estimates = np.interp(g_hat, g_grid, grid)
        sigma = float(estimates.std(ddof=1)) / RABI
        products.append(sigma * math.sqrt(duration))
    spread = (max(products) - min(products)) / np.mean(products)
    print(f"criterion 4: sigma*sqrt(T) = "
          f"{', '.join(f'{p:.5f}' for p in products)}; spread = {spread:.3%}")
    assert spread < 0.03, f"sigma sqrt(T) spread {spread:.3%} across T"


def test_criterion_05_drift_recovery():
    """The Allan fit recovers a 2pi x 8.2 Hz/s ramp within 15%."""
    taus = (2.0, 4.0, 8.0, 16.0, 32.0)
    # noise-free closed form first: adev(tau) = d tau / sqrt(2) exactly
    clean = FrequencySeries(
        times=np.arange(128) * 2.0,
        values=NU0 + DRIFT_RATE * np.arange(128) * 2.0)
    exact = allan_deviation(clean, taus)
    np.testing.assert_allclose(exact.adev,
                               DRIFT_RATE * exact.taus / math.sqrt(2.0),
                               rtol=1e-9)
    rates = []
    for seed in range(100):
        record = run_tracking(128, NU0, DriftModel(linear_rate=DRIFT_RATE,
                                                   seed=seed), CFG, TIMELINE)
        result = allan_deviation(FrequencySeries.from_record(record), taus)
        rates.append(result.drift_rate)
    rates = np.array(rates)
    mean_rel = abs(rates.mean() / DRIFT_RATE - 1.0)
    worst_rel = np.abs(rates / DRIFT_RATE - 1.0).max()
    print(f"criterion 5: mean recovered rate = "
          f"{rates.mean() / TWO_PI:.4f} Hz/s (target 8.2, off {mean_rel:.3%}), "
          f"worst seed off {worst_rel:.3%}")
    assert mean_rel < 0.15, f"mean drift recovery off by {mean_rel:.3%}"
    assert worst_rel < 0.15, f"worst-seed drift recovery off by {worst_rel:.3%}"


def test_criterion_06_endpoint_drift():
    """8.2 Hz/s over one 2 s measurement: 2pi x 16.4 Hz, i.e. 0.06 nm."""
    duration = TIMELINE.measurement_duration(CFG)
    accumulated = DRIFT_RATE * duration
    assert duration == pytest.approx(2.0, rel=1e-12)
    assert accumulated == pytest.approx(TWO_PI * 16.4, rel=1e-12)
    dz = accumulated / frequency_to_position_slope(ENV, SPECIES)
    rel = abs(dz - 0.06e-9) / 0.06e-9
    print(f"criterion 6: endpoint drift = {accumulated / TWO_PI:.2f} Hz "
          f"-> {dz * 1e9:.4f} nm (target 0.06, deviation {rel:.3%})")
    assert rel < 0.05, f"endpoint displacement {dz * 1e9} nm vs 0.06 nm"


def test_criterion_07_position_resolution_chain():
    """A full voltage-scan run resolves the position to 0.12 +/- 0.02 nm."""
    voltages = [1.0, -1.0, 2.0, -2.0, 3.0, -3.0] * 3
    schedule = VoltageSchedule.from_voltages(voltages, interleave_zero=True)
    record = run_voltage_scan(schedule, ENV, SPECIES,
                              DriftModel(linear_rate=DRIFT_RATE, seed=12345),
                              CFG, TIMELINE)
    stats = position_statistics(drift_correct(record), ENV, SPECIES)
    mean_nm = stats.mean_sigma * 1e9
    ratio = stats.mean_sigma / 0.0237     # of the 2.37 cm drive wavelength
    print(f"criterion 7: mean sigma_z = {mean_nm:.4f} nm "
          f"(target 0.12 +/- 0.02); sigma_z/2.37 cm = {ratio:.3e} "
          f"(one-significant-figure target 5e-9)")
    assert 0.10 < mean_nm < 0.14, f"mean sigma_z = {mean_nm} nm"
    assert 4.2e-9 < ratio < 5.9e-9, f"wavelength-relative ratio = {ratio}"


def test_criterion_08_force_chain():
    """Stiffness, force noise and sensitivity from the 0.12 nm resolution."""
    report = force_report(0.12e-9, ENV, SPECIES, 2.0)
    rel_k = abs(report.stiffness / 1.3e-13 - 1.0)
    rel_f = abs(report.sigma_force / 1.5e-23 - 1.0)
    rel_s = abs(report.sensitivity / 2.2e-23 - 1.0)
    print(f"criterion 8: k_z = {report.stiffness:.4e} N/m (off {rel_k:.3%}), "
          f"sigma_F = {report.sigma_force:.4e} N (off {rel_f:.3%}), "
          f"sensitivity = {report.sensitivity:.4e} N/rtHz (off {rel_s:.3%})")
    assert rel_k < 0.01, f"k_z = {report.stiffness} N/m"
    assert rel_f < 0.10, f"sigma_F = {report.sigma_force} N"
    assert rel_s < 0.10, f"sensitivity = {report.sensitivity} N/rtHz"


def test_criterion_09_narrow_line_projection():
    """A 2pi x 30 Hz drive projects to ~1.5 Hz, ~6 pm and ~3.2e-25 N/rtHz."""
    narrow = TwoPointConfig(pulse=PulseSpec.pi_pulse(TWO_PI * 30.0),
                            motion=MOTION)
    sigma_nu = analytic_sigma(narrow, 0.0)
    sigma_hz = sigma_nu / TWO_PI
    sigma_z = sigma_nu / frequency_to_position_slope(ENV, SPECIES)
    duration = TIMELINE.measurement_duration(narrow)
    sensitivity = 4e-14 * sigma_z * math.sqrt(duration)
    rel_nu = abs(sigma_hz / 1.5 - 1.0)
    rel_z = abs(sigma_z / 6e-12 - 1.0)
    rel_s = abs(sensitivity / 3.2e-25 - 1.0)
    print(f"criterion 9: sigma_nu = {sigma_hz:.4f} Hz (off {rel_nu:.3%}), "
          f"sigma_z = {sigma_z:.4e} m (off {rel_z:.3%}), "
          f"sensitivity = {sensitivity:.4e} N/rtHz (off {rel_s:.3%})")
    assert rel_nu < 0.10, f"sigma_nu = {sigma_hz} Hz"
    assert rel_z < 0.10, f"sigma_z = {sigma_z} m"
    assert rel_s < 0.10, f"sensitivity = {sensitivity} N/rtHz"


def test_criterion_10_spectrum_fit_scatter():
    """A synthetic 80-point scan pins the line centre to ~0.3 kHz."""
    started = time.monotonic()
    rabi = TWO_PI * 25e3
    pulse = PulseSpec.pi_pulse(rabi)
    motion = MotionalModel(nbar=80.0, eta=0.026)
    detuning = (np.arange(80) - 39.5) * TWO_PI * 1.5e3
    p = excitation_profile(detuning, pulse, motion)
    shots = 100
    rng = np.random.default_rng(5150)
    centers = []
    for _ in range(200):
        counts = rng.binomial(shots, p)
        fit = fit_spectrum(detuning, counts / shots, shots, motion)
        centers.append(fit.center)
    std_khz = float(np.std(centers, ddof=1)) / TWO_PI / 1e3
    elapsed = time.monotonic() - started
    print(f"criterion 10: centre scatter = {std_khz:.4f} kHz over 200 fits "
          f"(one-significant-figure target 0.3, asserted band 0.15-0.45); "
          f"runtime {elapsed:.1f} s")
    assert 0.15 < std_khz < 0.45, f"centre scatter {std_khz} kHz"
    assert elapsed < 300.0, f"runtime {elapsed:.1f} s exceeds five minutes"


def test_criterion_11_property_suite():
    """Inverse identities, symmetry/bounds, small chains, determinism."""
    # field <-> frequency round trips
    for b in (1e-6, 1e-4, 442.09e-6, 2e-3):
        nu = transition_frequency(SPECIES, b)
        assert field_from_frequency(SPECIES, nu) == pytest.approx(b, rel=1e-9)
    # two-point map round trips inside the capture window
    for frac in (-0.15, 0.05, 0.19):
        delta = frac * RABI
        back, ok = g_invert(g_forward(delta, CFG), CFG)
        assert ok and back == pytest.approx(delta, abs=1e-6 * RABI)
    # lineshape symmetry and bounds
    pulse = PulseSpec.pi_pulse(RABI)
    deltas = np.linspace(0.0, 3.0, 301) * RABI
    left = excitation_profile(-deltas, pulse, MOTION)
    right = excitation_profile(deltas, pulse, MOTION)
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)
    assert np.all(right >= 0.0) and np.all(right <= 1.0)
    # analytic equilibrium positions for one, two and three ions
    u = length_scale(ENV, SPECIES)
    np.testing.assert_allclose(equilibrium_positions(1, ENV, SPECIES), [0.0],
                               atol=1e-18)
    np.testing.assert_allclose(
        equilibrium_positions(2, ENV, SPECIES) / u,
        [-(2.0 ** (-2.0 / 3.0)), 2.0 ** (-2.0 / 3.0)], rtol=1e-9)
    np.testing.assert_allclose(
        equilibrium_positions(3, ENV, SPECIES) / u,
        [-((5.0 / 4.0) ** (1.0 / 3.0)), 0.0, (5.0 / 4.0) ** (1.0 / 3.0)],
        rtol=1e-9, atol=1e-15)
    # simulator determinism
    drift = DriftModel(linear_rate=DRIFT_RATE, random_walk=TWO_PI * 1.0,
                       seed=31)
    a = run_tracking(16, NU0, drift, CFG, TIMELINE)
    b = run_tracking(16, NU0, drift, CFG, TIMELINE)
    assert a.samples == b.samples
    print("criterion 11: inverse identities, lineshape symmetry/bounds, "
          "small-chain equilibria and determinism all hold")
