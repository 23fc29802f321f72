"""Shot-level stochastic simulation of the tracking experiment."""
import math
from dataclasses import replace

import numpy as np
import pytest

from iontrack import lineshape, simulator
from iontrack.atomphys import IonSpecies, TrapEnvironment, transition_frequency
from iontrack.estimator import TwoPointConfig, estimate_from_counts
from iontrack.lineshape import MotionalModel, PulseSpec, thermal_excitation
from iontrack.simulator import (
    LINE_FREQUENCY_HZ,
    DriftCorrectionError,
    DriftModel,
    ExperimentTimeline,
    SimulationState,
    TrackingRecord,
    TrackingSample,
    VoltageSchedule,
    VoltageStep,
    drift_correct,
    run_measurement,
    run_tracking,
    run_voltage_scan,
    voltage_displacement,
    voltage_frequency_shift,
)

TWO_PI = 2.0 * math.pi
SPECIES = IonSpecies.ytterbium_171()
ENV = TrapEnvironment.default()
RABI = TWO_PI * 640.0
CFG = TwoPointConfig(pulse=PulseSpec.pi_pulse(RABI),
                     motion=MotionalModel(nbar=80.0, eta=0.026))
TIMELINE = ExperimentTimeline()
NU0 = transition_frequency(SPECIES, ENV.offset_field)


class TestTimeline:
    def test_measurement_duration(self):
        assert TIMELINE.measurement_duration == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentTimeline(rep_period=0.0)
        with pytest.raises(ValueError):
            ExperimentTimeline(detection_error_bright=1.5)
        with pytest.raises(ValueError):
            ExperimentTimeline(shot_order="random")


class TestRunMeasurement:
    def test_advances_clock_exactly(self):
        state = SimulationState.start(NU0, DriftModel(seed=1))
        run_measurement(NU0, state, CFG, TIMELINE, DriftModel(seed=1))
        assert state.time == pytest.approx(2.0, rel=1e-12)

    def test_shots_per_side_mismatch_rejected(self):
        state = SimulationState.start(NU0, DriftModel(seed=1))
        other = ExperimentTimeline(shots_per_side=10)
        with pytest.raises(ValueError):
            run_measurement(NU0, state, CFG, other, DriftModel(seed=1))

    def test_centered_probe_estimates_near_zero(self):
        state = SimulationState.start(NU0, DriftModel(seed=3))
        result, true_mean = run_measurement(NU0, state, CFG, TIMELINE,
                                            DriftModel(seed=3))
        assert abs(result.delta) < 0.2 * RABI
        assert true_mean == pytest.approx(NU0, rel=1e-12)

    def test_all_dark_detector_yields_no_signal(self):
        # detection_error_bright = 1 flips every bright event to dark, so
        # both sides count zero and the estimate has nothing to invert.
        broken = ExperimentTimeline(detection_error_bright=1.0)
        state = SimulationState.start(NU0, DriftModel(seed=4))
        with pytest.raises(ValueError, match="no signal"):
            run_measurement(NU0, state, CFG, broken, DriftModel(seed=4))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = run_tracking(20, NU0, DriftModel(linear_rate=TWO_PI * 8.2, seed=9),
                         CFG, TIMELINE)
        b = run_tracking(20, NU0, DriftModel(linear_rate=TWO_PI * 8.2, seed=9),
                         CFG, TIMELINE)
        assert a.samples == b.samples
        assert a.lost_lock == b.lost_lock

    def test_different_seeds_differ(self):
        a = run_tracking(5, NU0, DriftModel(seed=1), CFG, TIMELINE)
        b = run_tracking(5, NU0, DriftModel(seed=2), CFG, TIMELINE)
        assert a.samples != b.samples

    def test_noise_terms_do_not_shift_rng_stream(self):
        # Every tick consumes the same draws whatever the drift model,
        # so the generator sits at the same point afterwards.
        streams = []
        for drift in (DriftModel(seed=5),
                      DriftModel(linear_rate=TWO_PI * 8.2, seed=5),
                      DriftModel(random_walk=TWO_PI * 2.0, seed=5)):
            state = SimulationState.start(NU0, drift)
            run_measurement(NU0, state, CFG, TIMELINE, drift)
            streams.append(state.rng.standard_normal())
        assert streams[0] == streams[1] == streams[2]

    def test_mains_term_aliases_out_when_synchronised(self):
        quiet = run_tracking(10, NU0, DriftModel(seed=6), CFG, TIMELINE)
        mains = run_tracking(10, NU0, DriftModel(line_amplitude=TWO_PI * 50.0,
                                                 seed=6), CFG, TIMELINE)
        np.testing.assert_allclose(mains.delta, quiet.delta, atol=1e-9)


def _per_shot_counts(nu0, state, cfg, timeline, drift):
    """Reference loop: one thermal_excitation call per shot, draws in
    tick order (flop uniform, detection uniform, drift Gaussian)."""
    n = timeline.shots_per_side
    sides = [+1] * n + [-1] * n if timeline.shot_order == "blocked" else [+1, -1] * n
    counts = {+1: 0, -1: 0}
    true_sum = 0.0
    dt = timeline.rep_period
    probe_offset = cfg.kappa * cfg.pulse.rabi
    for side in sides:
        tn = state.base_nu + drift.line_amplitude * math.sin(
            2.0 * math.pi * LINE_FREQUENCY_HZ * state.time)
        p = thermal_excitation(
            replace(cfg.pulse, detuning=tn - (nu0 + side * probe_offset)), cfg.motion)
        bright = state.rng.random() < p
        flip = state.rng.random()
        if (flip >= timeline.detection_error_bright if bright
                else flip < timeline.detection_error_dark):
            counts[side] += 1
        gauss = state.rng.standard_normal()
        state.base_nu += drift.linear_rate * dt + drift.random_walk * math.sqrt(dt) * gauss
        state.time += dt
        true_sum += tn
    return counts[+1], counts[-1], true_sum / (2.0 * n)


class TestBrightShots:
    @pytest.mark.parametrize("area", [math.pi, 3 * math.pi, 5 * math.pi])
    def test_decisions_equal_exact_comparison(self, area):
        # uniforms drawn at random and uniforms placed within rounding of
        # the exact p, on both sides of it, at detunings out to past the
        # table's span (5 pi has no table): every decision must be the
        # exact one, including those the table alone cannot make
        pulse = PulseSpec(RABI, area / RABI)
        motion = MotionalModel(nbar=80.0, eta=0.026)
        rng = np.random.default_rng(7)
        deltas = rng.uniform(-2.5, 2.5, 400) * RABI
        exact = np.array([thermal_excitation(PulseSpec(RABI, pulse.duration, d), motion)
                          for d in deltas])
        for uniforms in (rng.random(400), exact,
                         np.nextafter(exact, 0.0), np.nextafter(exact, 1.0),
                         exact + rng.uniform(-1e-6, 1e-6, 400)):
            bright = simulator._bright_shots(deltas, uniforms, pulse, motion)
            assert np.array_equal(bright, uniforms < exact)


class TestBatchedShots:
    NOISY = DriftModel(linear_rate=TWO_PI * 8.2, random_walk=TWO_PI * 4.0,
                       line_amplitude=TWO_PI * 3.0)

    @pytest.mark.parametrize("timeline", [
        TIMELINE,
        ExperimentTimeline(detection_error_bright=0.05, detection_error_dark=0.03,
                           shot_order="blocked"),
    ])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_shot_reference(self, timeline, seed):
        drift = replace(self.NOISY, seed=seed)
        ours = SimulationState.start(NU0, drift)
        ref = SimulationState.start(NU0, drift)
        for offset in (0.0, 0.05 * RABI, -0.15 * RABI):
            result, true_mean = run_measurement(NU0 + offset, ours, CFG, timeline, drift)
            c_plus, c_minus, ref_mean = _per_shot_counts(NU0 + offset, ref, CFG,
                                                         timeline, drift)
            assert result == estimate_from_counts(c_plus, c_minus, CFG)
            assert true_mean == ref_mean
            assert (ours.base_nu, ours.time) == (ref.base_nu, ref.time)
        assert ours.rng.random() == ref.rng.random()

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_tracking_same_with_table_and_exact_sum(self, seed, monkeypatch):
        drift = replace(self.NOISY, seed=seed)
        tabulated = run_tracking(12, NU0, drift, CFG, TIMELINE)
        monkeypatch.setattr(lineshape, "_shot_table", lambda *args: None)
        exact = run_tracking(12, NU0, drift, CFG, TIMELINE)
        assert tabulated.samples == exact.samples
        assert tabulated.lost_lock == exact.lost_lock


class TestTracking:
    def test_tracks_linear_drift(self):
        drift = DriftModel(linear_rate=TWO_PI * 8.2, seed=11)
        record = run_tracking(60, NU0, drift, CFG, TIMELINE)
        assert not record.lost_lock
        assert len(record) == 60
        residuals = record.nu_estimated - record.true_nu
        assert np.abs(residuals).mean() < 0.12 * RABI

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            run_tracking(0, NU0, DriftModel(seed=1), CFG, TIMELINE)

    def test_loses_lock_on_fast_drift(self):
        # 2pi x 500 Hz/s walks ~1 kHz per cycle, far beyond the
        # +/-128 Hz capture window: three clamps end the run early.
        drift = DriftModel(linear_rate=TWO_PI * 500.0, seed=13)
        record = run_tracking(50, NU0, drift, CFG, TIMELINE)
        assert record.lost_lock
        assert len(record) < 50
        assert not record.in_window[-3:].any()

    def test_never_raises_even_without_signal(self):
        # a drift so violent the probes soon see zero bright events on
        # both sides: the run must still end as a flagged record, with
        # the reference held and the sigma sentinel at the half-window
        drift = DriftModel(linear_rate=TWO_PI * 5000.0, seed=13)
        record = run_tracking(50, NU0, drift, CFG, TIMELINE)
        assert record.lost_lock
        dead = [s for s in record.samples
                if s.sigma_nu == CFG.window_halfwidth and not s.in_window]
        assert dead, "expected at least one zero-signal cycle"
        for s in dead:
            assert s.nu_estimated == s.nu0
        assert all(np.isfinite(record.sigma_nu))

    def test_blocked_shot_order_runs(self):
        blocked = ExperimentTimeline(shot_order="blocked")
        record = run_tracking(5, NU0, DriftModel(seed=14), CFG, blocked)
        assert len(record) == 5


class TestCsvRoundTrip:
    def test_file_round_trip_is_idempotent(self, tmp_path):
        # The file (ordinary Hz) is the canonical form: write -> read ->
        # write must reproduce it byte for byte.
        record = run_tracking(12, NU0, DriftModel(linear_rate=TWO_PI * 8.2,
                                                  seed=21), CFG, TIMELINE)
        first = tmp_path / "record.csv"
        second = tmp_path / "again.csv"
        record.write_csv(first)
        TrackingRecord.read_csv(first).write_csv(second)
        assert second.read_bytes() == first.read_bytes()

    def test_values_survive_within_rounding(self, tmp_path):
        record = run_tracking(12, NU0, DriftModel(linear_rate=TWO_PI * 8.2,
                                                  seed=21), CFG, TIMELINE)
        path = tmp_path / "record.csv"
        record.write_csv(path)
        back = TrackingRecord.read_csv(path)
        assert len(back.samples) == len(record.samples)
        # angular <-> ordinary frequency conversion costs at most one ulp
        for a, b in zip(back.samples, record.samples):
            assert a.timestamp == b.timestamp
            assert a.in_window == b.in_window
            assert a.applied_voltage == b.applied_voltage
            for name in ("nu0", "delta", "nu_estimated", "sigma_nu", "true_nu"):
                assert getattr(a, name) == pytest.approx(
                    getattr(b, name), rel=4e-16, abs=0.0)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            TrackingRecord.read_csv(path)


class TestVoltageScan:
    def test_displacement_scale(self):
        dz = voltage_displacement(1.0, ENV, SPECIES)
        assert dz == pytest.approx(1.0032231074071238e-9, rel=1e-10)
        assert voltage_displacement(-2.0, ENV, SPECIES) == \
            pytest.approx(-2.0 * dz, rel=1e-12)

    def test_frequency_shift_consistent(self):
        shift = voltage_frequency_shift(1.0, ENV, SPECIES)
        dz = voltage_displacement(1.0, ENV, SPECIES)
        assert shift / dz == pytest.approx(
            TWO_PI * 267.5752951468019 * 1e9, rel=1e-10)

    def test_zero_voltage_step_rejected(self):
        with pytest.raises(ValueError):
            VoltageStep(0.0)

    def test_schedule_interleaves_anchors(self):
        schedule = VoltageSchedule.from_voltages([1.0, -2.0])
        assert schedule.cycle_voltages() == [0.0, 1.0, 0.0, -2.0, 0.0]

    def test_schedule_without_anchors(self):
        schedule = VoltageSchedule.from_voltages([1.0, -2.0],
                                                 interleave_zero=False)
        assert schedule.cycle_voltages() == [1.0, -2.0]

    def test_scan_recovers_commanded_displacements(self):
        schedule = VoltageSchedule.from_voltages([1.0, -1.0, 2.0, -2.0] * 2)
        drift = DriftModel(linear_rate=TWO_PI * 8.2, seed=31)
        record = run_voltage_scan(schedule, ENV, SPECIES, drift, CFG, TIMELINE)
        points = drift_correct(record)
        assert len(points) == 8
        slope = TWO_PI * 267.5752951468019 * 1e9
        for p in points:
            expected = voltage_displacement(p.voltage, ENV, SPECIES)
            measured = p.delta_nu / slope
            assert measured == pytest.approx(expected, abs=4.0 * p.sigma_nu / slope)


class TestDriftCorrect:
    @staticmethod
    def _sample(t, nu, voltage):
        return TrackingSample(timestamp=t, nu0=nu, delta=0.0, nu_estimated=nu,
                              sigma_nu=1.0, true_nu=nu, in_window=True,
                              applied_voltage=voltage)

    def test_linear_drift_cancels_exactly(self):
        base, rate, jump = 1e9, 12.5, 777.0
        samples = [
            self._sample(0.0, base, 0.0),
            self._sample(2.0, base + rate * 2.0 + jump, 1.0),
            self._sample(4.0, base + rate * 4.0, 0.0),
        ]
        points = drift_correct(TrackingRecord(samples=samples))
        assert len(points) == 1
        assert points[0].delta_nu == pytest.approx(jump, rel=1e-12)
        assert points[0].sigma_nu == 1.0

    def test_no_targets_returns_empty(self):
        samples = [self._sample(0.0, 1.0, 0.0), self._sample(2.0, 1.0, 0.0)]
        assert drift_correct(TrackingRecord(samples=samples)) == []

    def test_unbracketed_target_rejected(self):
        samples = [
            self._sample(0.0, 1.0, 0.0),
            self._sample(2.0, 1.0, 0.0),
            self._sample(4.0, 1.0, 1.0),
        ]
        with pytest.raises(DriftCorrectionError):
            drift_correct(TrackingRecord(samples=samples))

    def test_too_few_anchors_rejected(self):
        samples = [self._sample(0.0, 1.0, 0.0), self._sample(2.0, 1.0, 1.0)]
        with pytest.raises(DriftCorrectionError):
            drift_correct(TrackingRecord(samples=samples))
