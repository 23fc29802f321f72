"""Shot-level stochastic simulation of the tracking experiment."""
import math
from dataclasses import replace

import numpy as np
import pytest

from iontrack import estimator, lineshape, simulator
from iontrack.cli import _table_text, main
from iontrack.atomphys import transition_frequency
from iontrack.config import default_config
from iontrack.estimator import NoSignalError, TwoPointConfig, estimate_from_counts
from iontrack.lineshape import MotionalModel, PulseSpec, thermal_excitation
from iontrack.simulator import (
    LINE_FREQUENCY_HZ,
    LOSS_OF_LOCK_STREAK,
    DriftCorrectionError,
    DriftModel,
    ExperimentTimeline,
    CSV_HEADER,
    TrackingRecord,
    VoltageSchedule,
    drift_correct,
    run_measurement,
    run_tracking,
    run_voltage_scan,
    voltage_displacement,
    voltage_frequency_shift,
)

TWO_PI = 2.0 * math.pi
SPECIES = default_config().species()
ENV = default_config().trap()
RABI = TWO_PI * 640.0
CFG = TwoPointConfig(pulse=PulseSpec.pi_pulse(RABI),
                     motion=MotionalModel(nbar=80.0, eta=0.026))
TIMELINE = ExperimentTimeline()
NU0 = transition_frequency(SPECIES, ENV.offset_field)


class TestTimeline:
    def test_measurement_duration(self):
        assert TIMELINE.measurement_duration(CFG) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentTimeline(rep_period=0.0)
        with pytest.raises(ValueError):
            ExperimentTimeline(detection_error_bright=1.5)
        with pytest.raises(ValueError):
            ExperimentTimeline(shot_order="random")


class TestRunMeasurement:
    @pytest.mark.parametrize("shots", [10, 50])
    def test_advances_clock_exactly(self, shots):
        cfg = replace(CFG, shots_per_side=shots)
        *_, time = run_measurement(NU0, np.random.default_rng(1), cfg, TIMELINE,
                                   DriftModel(seed=1), NU0, 0.0)
        assert time == pytest.approx(TIMELINE.measurement_duration(cfg), rel=1e-12)

    def test_centered_probe_estimates_near_zero(self):
        c_plus, c_minus, true_mean, _, _ = run_measurement(
            NU0, np.random.default_rng(3), CFG, TIMELINE, DriftModel(seed=3), NU0, 0.0)
        assert abs(estimate_from_counts(c_plus, c_minus, CFG).delta) < 0.2 * RABI
        assert true_mean == pytest.approx(NU0, rel=1e-12)

    def test_all_dark_detector_yields_no_signal(self):
        # detection_error_bright = 1 flips every bright event to dark, so
        # both sides count zero and the estimate has nothing to invert.
        broken = ExperimentTimeline(detection_error_bright=1.0)
        c_plus, c_minus, *_ = run_measurement(NU0, np.random.default_rng(4), CFG, broken,
                                              DriftModel(seed=4), NU0, 0.0)
        assert (c_plus, c_minus) == (0, 0)
        with pytest.raises(NoSignalError, match="no signal"):
            estimate_from_counts(c_plus, c_minus, CFG)


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
            rng = np.random.default_rng(drift.seed)
            run_measurement(NU0, rng, CFG, TIMELINE, drift, NU0, 0.0)
            streams.append(rng.standard_normal())
        assert streams[0] == streams[1] == streams[2]

    def test_mains_term_aliases_out_when_synchronised(self):
        quiet = run_tracking(10, NU0, DriftModel(seed=6), CFG, TIMELINE)
        mains = run_tracking(10, NU0, DriftModel(line_amplitude=TWO_PI * 50.0,
                                                 seed=6), CFG, TIMELINE)
        np.testing.assert_allclose(mains.delta, quiet.delta, atol=1e-9)


def _per_shot_counts(nu0, rng, cfg, timeline, drift, base_nu, time):
    """Reference loop: one thermal_excitation call per shot, draws in
    tick order (flop uniform, detection uniform, drift Gaussian)."""
    n = cfg.shots_per_side
    sides = [+1] * n + [-1] * n if timeline.shot_order == "blocked" else [+1, -1] * n
    counts = {+1: 0, -1: 0}
    true_sum = 0.0
    dt = timeline.rep_period
    probe_offset = cfg.kappa * cfg.pulse.rabi
    for side in sides:
        tn = base_nu + drift.line_amplitude * math.sin(
            2.0 * math.pi * LINE_FREQUENCY_HZ * time)
        p = thermal_excitation(tn - (nu0 + side * probe_offset), cfg.pulse, cfg.motion)
        bright = rng.random() < p
        flip = rng.random()
        if (flip >= timeline.detection_error_bright if bright
                else flip < timeline.detection_error_dark):
            counts[side] += 1
        gauss = rng.standard_normal()
        base_nu += drift.linear_rate * dt + drift.random_walk * math.sqrt(dt) * gauss
        time += dt
        true_sum += tn
    return counts[+1], counts[-1], true_sum / (2.0 * n), base_nu, time


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
        exact = np.array([thermal_excitation(d, pulse, motion) for d in deltas])
        for uniforms in (rng.random(400), exact,
                         np.nextafter(exact, 0.0), np.nextafter(exact, 1.0),
                         exact + rng.uniform(-1e-6, 1e-6, 400)):
            bright = simulator._bright_shots(deltas, uniforms, pulse, motion, 0.8)
            assert np.array_equal(bright, uniforms < exact)

    @pytest.mark.parametrize("kappa", [0.3, 0.8, 0.95])
    def test_decisions_at_the_span_edges(self, kappa):
        # shots at, and one ulp inside and outside, each end of the table's
        # span, and further out, on both sides of the line, with uniforms
        # at, next to and near the exact p: the table decides those inside
        # the span within its bound, the exact sum the rest
        pulse = PulseSpec.pi_pulse(RABI)
        motion = MotionalModel(nbar=80.0, eta=0.026)
        table = lineshape._shot_table(pulse, motion, kappa)
        lo, hi = float(table.grid[0]), float(table.grid[-1])
        inside = [lo, math.nextafter(lo, hi), math.nextafter(hi, lo), hi]
        outside = [math.nextafter(hi, math.inf), 1.1 * hi]
        if table.origin:        # the span starts above delta = 0
            outside += [math.nextafter(lo, 0.0), 0.9 * lo]
        edges = np.array(inside + outside)
        deltas = np.repeat(np.concatenate([edges, -edges]), 8)
        exact = np.array([thermal_excitation(d, pulse, motion) for d in deltas])
        _, bounds = lineshape._tabulated_excitation(deltas, pulse, motion, kappa)
        assert np.array_equal(np.isinf(bounds),
                              np.isin(np.abs(deltas), outside))
        rng = np.random.default_rng(round(100 * kappa))
        for uniforms in (rng.random(deltas.size), exact,
                         np.nextafter(exact, 0.0), np.nextafter(exact, 1.0),
                         exact + rng.uniform(-1e-6, 1e-6, deltas.size)):
            bright = simulator._bright_shots(deltas, uniforms, pulse, motion, kappa)
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
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ours = ref = (NU0, 0.0)
        for offset in (0.0, 0.05 * RABI, -0.15 * RABI):
            got = run_measurement(NU0 + offset, ours_rng, CFG, timeline, drift, *ours)
            want = _per_shot_counts(NU0 + offset, ref_rng, CFG, timeline, drift, *ref)
            # counts, true mean, and the base_nu and time the next one starts from
            assert got == want
            ours, ref = got[3:], want[3:]
        assert ours_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_tracking_same_with_table_and_exact_sum(self, seed, monkeypatch):
        drift = replace(self.NOISY, seed=seed)
        tabulated = run_tracking(12, NU0, drift, CFG, TIMELINE)
        monkeypatch.setattr(lineshape, "_shot_table", lambda *args: None)
        exact = run_tracking(12, NU0, drift, CFG, TIMELINE)
        assert tabulated.samples == exact.samples
        assert tabulated.lost_lock == exact.lost_lock


@pytest.fixture
def g_forward_calls(monkeypatch):
    """A one-item list counting estimator.g_forward calls."""
    calls = [0]
    g_forward = estimator.g_forward

    def counted(*args):
        calls[0] += 1
        return g_forward(*args)

    monkeypatch.setattr(estimator, "g_forward", counted)
    return calls


@pytest.fixture
def traced(monkeypatch):
    """Run a callable; return (its result, the count pairs measured, the pairs
    passed to estimate_from_counts, the g_invert calls)."""
    measured, estimated, inversions = [], [], [0]
    measure, estimate, invert = (simulator.run_measurement,
                                 simulator.estimate_from_counts, estimator.g_invert)

    def measuring(*args, **kwargs):
        counts = measure(*args, **kwargs)
        measured.append(counts[:2])
        return counts

    def estimating(counts_plus, counts_minus, cfg):
        estimated.append((counts_plus, counts_minus))
        return estimate(counts_plus, counts_minus, cfg)

    def inverting(*args):
        inversions[0] += 1
        return invert(*args)

    monkeypatch.setattr(simulator, "run_measurement", measuring)
    monkeypatch.setattr(simulator, "estimate_from_counts", estimating)
    monkeypatch.setattr(estimator, "g_invert", inverting)

    def run(fn):
        measured.clear()
        estimated.clear()
        inversions[0] = 0
        return fn(), list(measured), list(estimated), inversions[0]

    return run


class TestSharedInversions:
    """A run estimates each count pair once, up to simulator.ESTIMATE_CACHE_CAP pairs."""

    # ten shots per side, so that count pairs repeat within a run
    CFG = replace(CFG, shots_per_side=10)
    TIMELINE = ExperimentTimeline(detection_error_bright=0.05, detection_error_dark=0.03,
                                  shot_order="blocked")

    def runs(self, seed):
        drift = replace(TestBatchedShots.NOISY, seed=seed)
        scan = VoltageSchedule.from_voltages([1.0, -1.0, 2.0, -2.0] * 3)
        return (lambda: run_tracking(24, NU0, drift, self.CFG, self.TIMELINE),
                lambda: run_voltage_scan(scan, ENV, SPECIES, drift, self.CFG,
                                         self.TIMELINE, NU0))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_records_same_without_the_memo(self, seed, traced, monkeypatch):
        shared = [traced(run) for run in self.runs(seed)]
        monkeypatch.setattr(simulator, "ESTIMATE_CACHE_CAP", 0)
        plain = [traced(run) for run in self.runs(seed)]
        for (ours, measured, _, ours_inverted), (ref, _, _, ref_inverted) in \
                zip(shared, plain):
            assert ours.samples == ref.samples
            assert ours.lost_lock == ref.lost_lock
            # kept, each distinct signal pair is inverted once per run, not per cycle
            signal = [pair for pair in measured if any(pair)]
            assert len(set(signal)) < len(signal)
            assert (ours_inverted, ref_inverted) == (len(set(signal)), len(signal))

    def test_capped_memo_stops_growing_and_stays_exact(self, traced, monkeypatch):
        full = [traced(run)[0] for run in self.runs(1)]
        monkeypatch.setattr(simulator, "ESTIMATE_CACHE_CAP", 3)
        for run, ref in zip(self.runs(1), full):
            record, measured, estimated, _ = traced(run)
            assert record.samples == ref.samples
            # the first three distinct pairs are kept; every other pair is
            # estimated in each cycle that measures it
            kept = list(dict.fromkeys(measured))[:3]
            assert estimated == [pair for i, pair in enumerate(measured)
                                 if pair not in kept or measured.index(pair) == i]
            assert len(set(estimated)) < len(estimated)

    def test_no_signal_cycles_reach_the_estimator(self, traced):
        # an all-dark detector counts (0, 0) in every cycle: the estimator
        # raises NoSignalError each time, and the cycle keeps its truth
        broken = ExperimentTimeline(detection_error_bright=1.0)
        drift = DriftModel(linear_rate=TWO_PI * 8.2, seed=4)
        record, measured, estimated, inverted = traced(
            lambda: run_tracking(10, NU0, drift, CFG, broken))
        assert measured == estimated == [(0, 0)] * LOSS_OF_LOCK_STREAK
        assert inverted == 0
        assert record.lost_lock and not record.in_window.any()
        assert np.all(record.sigma_nu == CFG.window_halfwidth)
        # the truth does not depend on what was detected
        working = run_tracking(LOSS_OF_LOCK_STREAK, NU0, drift, CFG, TIMELINE)
        assert np.array_equal(record.true_nu, working.true_nu)

    def test_memo_lasts_one_run(self, g_forward_calls):
        drift = DriftModel(linear_rate=TWO_PI * 8.2, seed=7)
        # the inversion plan is cached for the process: fill that cache first
        estimator._plan(CFG.pulse, CFG.motion, CFG.kappa)
        per_run = []
        for _ in range(2):
            before = g_forward_calls[0]
            run_tracking(16, NU0, drift, CFG, TIMELINE)
            per_run.append(g_forward_calls[0] - before)
        assert per_run[0] == per_run[1]


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
        dead = (record.sigma_nu == CFG.window_halfwidth) & ~record.in_window
        assert dead.any(), "expected at least one zero-signal cycle"
        assert np.array_equal(record.nu_estimated[dead], record.nu0[dead])
        assert np.isfinite(record.sigma_nu).all()

    def test_blocked_shot_order_runs(self):
        blocked = ExperimentTimeline(shot_order="blocked")
        record = run_tracking(5, NU0, DriftModel(seed=14), CFG, blocked)
        assert len(record) == 5


class TestCsvRoundTrip:
    def test_file_round_trip_is_idempotent(self, tmp_path):
        # The file (ordinary Hz) is the canonical form: the CLI's record
        # read back and written again must reproduce it byte for byte.
        cfg = tmp_path / "run.ini"
        cfg.write_text("[tracking]\nn_cycles = 12\n")
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        first = tmp_path / "track_record.csv"
        again = TrackingRecord.read_csv(first)
        second = _table_text("again.csv", CSV_HEADER, again.rows())
        assert second.encode() == first.read_bytes()

    def test_values_survive_within_rounding(self, tmp_path):
        record = run_tracking(12, NU0, DriftModel(linear_rate=TWO_PI * 8.2,
                                                  seed=21), CFG, TIMELINE)
        path = tmp_path / "record.csv"
        path.write_text(_table_text("record.csv", CSV_HEADER, record.rows()), newline="")
        back = TrackingRecord.read_csv(path)
        assert len(back) == len(record)
        assert np.array_equal(back.times, record.times)
        assert np.array_equal(back.in_window, record.in_window)
        assert np.array_equal(back.applied_voltage, record.applied_voltage)
        # angular <-> ordinary frequency conversion costs at most one ulp
        for name in ("nu0", "delta", "nu_estimated", "sigma_nu", "true_nu"):
            np.testing.assert_allclose(getattr(back, name), getattr(record, name),
                                       rtol=4e-16, atol=0.0)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            TrackingRecord.read_csv(path)

    ROW = "0.0,1.0,0.5,1.5,0.1,1.4,1,0.0"

    @pytest.mark.parametrize("body, line", [
        ("", 1),
        (f"{ROW}\n0.0,1.0,0.5\n", 3),
        (f"{ROW},7.0\n", 2),
        ("\n", 2),
        (f"{ROW}\n{ROW.replace('0.5', 'x')}\n", 3),
        (f"{ROW.replace(',1,', ',1.0,')}\n", 2),
    ], ids=["empty-file", "short-row", "extra-column", "blank-row", "not-a-number",
            "in-window-not-int"])
    def test_malformed_file_names_the_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        header = ",".join(CSV_HEADER) + "\n" if body else ""
        path.write_text(header + body)
        with pytest.raises(ValueError, match=f"line {line}:"):
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
        with pytest.raises(ValueError, match="non-zero"):
            VoltageSchedule.from_voltages([1.0, 0.0])

    def test_schedule_interleaves_anchors(self):
        schedule = VoltageSchedule.from_voltages([1.0, -2.0])
        assert schedule.cycle_voltages() == [0.0, 1.0, 0.0, -2.0, 0.0]
        assert VoltageSchedule.from_voltages([]).cycle_voltages() == []

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
        for v, d, s in zip(points.voltages, points.delta_nu, points.sigma_nu):
            expected = voltage_displacement(v, ENV, SPECIES)
            assert d / slope == pytest.approx(expected, abs=4.0 * s / slope)


class TestDriftCorrect:
    @staticmethod
    def _record(*cycles):
        """Record of (time, estimated nu, voltage) cycles with sigma 1."""
        return TrackingRecord.from_rows([(t, nu, 0.0, nu, 1.0, nu, True, v)
                                         for t, nu, v in cycles])

    def test_linear_drift_cancels_exactly(self):
        base, rate, jump = 1e9, 12.5, 777.0
        points = drift_correct(self._record(
            (0.0, base, 0.0),
            (2.0, base + rate * 2.0 + jump, 1.0),
            (4.0, base + rate * 4.0, 0.0),
        ))
        assert len(points) == 1
        assert points.delta_nu[0] == pytest.approx(jump, rel=1e-12)
        assert points.sigma_nu[0] == 1.0
        assert (points.times[0], points.voltages[0]) == (2.0, 1.0)

    def test_matches_per_cycle_interpolation(self):
        # reference: each non-zero cycle interpolated on its own
        schedule = VoltageSchedule.from_voltages([1.0, -1.0, 2.0, -2.0])
        record = run_voltage_scan(schedule, ENV, SPECIES,
                                  DriftModel(linear_rate=TWO_PI * 8.2, seed=32),
                                  CFG, TIMELINE)
        anchor = record.applied_voltage == 0.0
        expected = [nu - float(np.interp(t, record.times[anchor],
                                         record.nu_estimated[anchor]))
                    for t, nu, v in zip(record.times, record.nu_estimated,
                                        record.applied_voltage) if v != 0.0]
        assert drift_correct(record).delta_nu.tolist() == expected

    def test_no_targets_returns_empty(self):
        assert len(drift_correct(self._record((0.0, 1.0, 0.0), (2.0, 1.0, 0.0)))) == 0

    def test_unbracketed_target_rejected(self):
        record = self._record((0.0, 1.0, 0.0), (2.0, 1.0, 0.0), (4.0, 1.0, 1.0))
        with pytest.raises(DriftCorrectionError, match=r"cycle at t=4\.0 s "):
            drift_correct(record)

    def test_too_few_anchors_rejected(self):
        record = self._record((0.0, 1.0, 0.0), (2.0, 1.0, 1.0))
        with pytest.raises(DriftCorrectionError, match="two zero-voltage anchors"):
            drift_correct(record)


class TestRecordColumns:
    def test_from_rows_rebuilds_samples(self):
        record = run_tracking(4, NU0, DriftModel(seed=41), CFG, TIMELINE)
        again = TrackingRecord.from_rows(record.samples, lost_lock=record.lost_lock)
        assert again.samples == record.samples
        assert again.in_window.dtype == bool

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            TrackingRecord(*([np.zeros(3)] * 7), np.zeros(2))
