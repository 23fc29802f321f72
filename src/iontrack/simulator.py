"""Stochastic shot-level simulation of the tracking experiment.

A drifting true resonance is probed with the two-point protocol, one
detection per repetition tick, and the running estimate of the
resonance is fed forward as the probe centre of the next measurement.
Commanded electrode-voltage steps displace the ion (and therefore the
resonance, through the gradient); interleaved zero-voltage cycles
anchor a linear drift correction.

All randomness flows through one numpy Generator seeded from the drift
model, so identical configurations and seeds give bit-identical
records.  Every repetition tick consumes the same number of draws
(one Gaussian for the drift increment, two uniforms for the detection)
regardless of which noise terms are enabled, so switching a term off
does not shift the rest of the stream.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .atomphys import CODATA, IonSpecies, PhysicalConstants, TrapEnvironment
from .atomphys import frequency_to_position_slope, transition_frequency
from .estimator import (EstimateResult, NoSignalError, TwoPointConfig,
                        estimate_from_counts)
from .lineshape import thermal_excitation

__all__ = [
    "LINE_FREQUENCY_HZ",
    "DriftModel",
    "ExperimentTimeline",
    "SimulationState",
    "TrackingSample",
    "TrackingRecord",
    "VoltageStep",
    "VoltageSchedule",
    "DisplacementPoint",
    "DriftCorrectionError",
    "run_measurement",
    "run_tracking",
    "voltage_displacement",
    "voltage_frequency_shift",
    "run_voltage_scan",
    "drift_correct",
]

LINE_FREQUENCY_HZ = 50.0
LOSS_OF_LOCK_STREAK = 3

CSV_HEADER = [
    "time_s",
    "nu0_hz",
    "delta_hz",
    "nu_estimated_hz",
    "sigma_nu_hz",
    "true_nu_hz",
    "in_window",
    "voltage_v",
]


@dataclass(frozen=True)
class DriftModel:
    """Slow evolution of the true resonance frequency.

    linear_rate is a deterministic ramp (rad/s per s), random_walk the
    strength of a Wiener term (rad/s per sqrt(s)), line_amplitude a
    residual mains sinusoid at 50 Hz (rad/s).  With the repetition
    period locked to the mains period the sinusoid aliases to a fixed
    offset, which is why synchronised experiments are insensitive to it.
    """

    linear_rate: float = 0.0
    random_walk: float = 0.0
    line_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.random_walk < 0.0 or self.line_amplitude < 0.0:
            raise ValueError("noise strengths must be non-negative")


@dataclass(frozen=True)
class ExperimentTimeline:
    """Repetition schedule and detection imperfections."""

    rep_period: float = 0.02       # s per shot (50 Hz line sync)
    shots_per_side: int = 50
    detection_error_bright: float = 0.0   # P(read dark | bright)
    detection_error_dark: float = 0.0     # P(read bright | dark)
    shot_order: str = "interleaved"       # or "blocked"

    def __post_init__(self) -> None:
        if self.rep_period <= 0.0:
            raise ValueError("rep_period must be positive")
        if self.shots_per_side < 0:
            raise ValueError("shots_per_side must be non-negative")
        for err in (self.detection_error_bright, self.detection_error_dark):
            if not 0.0 <= err <= 1.0:
                raise ValueError("detection errors must be probabilities")
        if self.shot_order not in ("interleaved", "blocked"):
            raise ValueError("shot_order must be 'interleaved' or 'blocked'")

    @property
    def measurement_duration(self) -> float:
        """Wall-clock time of one two-point measurement, s."""
        return 2.0 * self.shots_per_side * self.rep_period


@dataclass
class SimulationState:
    """Mutable truth carried between measurements."""

    base_nu: float          # drifting resonance without the line term, rad/s
    time: float
    rng: np.random.Generator

    @classmethod
    def start(cls, initial_nu: float, drift: DriftModel) -> "SimulationState":
        return cls(base_nu=float(initial_nu), time=0.0,
                   rng=np.random.default_rng(drift.seed))


def true_resonance(state: SimulationState, drift: DriftModel,
                   offset: float = 0.0) -> float:
    """Instantaneous true resonance frequency (rad/s)."""
    line = drift.line_amplitude * math.sin(
        2.0 * math.pi * LINE_FREQUENCY_HZ * state.time)
    return state.base_nu + line + offset


def _advance(state: SimulationState, drift: DriftModel, dt: float) -> None:
    gauss = state.rng.standard_normal()
    state.base_nu += drift.linear_rate * dt + drift.random_walk * math.sqrt(dt) * gauss
    state.time += dt


def _shot_sides(timeline: ExperimentTimeline) -> list[int]:
    n = timeline.shots_per_side
    if timeline.shot_order == "blocked":
        return [+1] * n + [-1] * n
    return [+1, -1] * n


def run_measurement(nu0: float, state: SimulationState, cfg: TwoPointConfig,
                    timeline: ExperimentTimeline, drift: DriftModel,
                    resonance_offset: float = 0.0) -> tuple[EstimateResult, float]:
    """One two-point measurement around nu0; advances the state in place.

    Returns the estimate and the shot-averaged true resonance over the
    measurement.  The state clock moves by exactly
    2 * shots_per_side * rep_period.
    """
    if timeline.shots_per_side != cfg.shots_per_side:
        raise ValueError("timeline and estimator disagree on shots_per_side")
    if cfg.shots_per_side < 1:
        raise ValueError("need at least one shot per side")
    probe_offset = cfg.kappa * cfg.pulse.rabi
    counts = {+1: 0, -1: 0}
    true_sum = 0.0
    for side in _shot_sides(timeline):
        tn = true_resonance(state, drift, resonance_offset)
        # Bernoulli flop, then the detection-error channel
        p = thermal_excitation(
            replace(cfg.pulse, detuning=tn - (nu0 + side * probe_offset)), cfg.motion)
        bright = state.rng.random() < p
        flip = state.rng.random()
        if (flip >= timeline.detection_error_bright if bright
                else flip < timeline.detection_error_dark):
            counts[side] += 1
        _advance(state, drift, timeline.rep_period)
        true_sum += tn
    true_mean = true_sum / (2.0 * cfg.shots_per_side)
    try:
        result = estimate_from_counts(counts[+1], counts[-1], cfg)
    except NoSignalError as exc:
        # the state has fully advanced; let callers that survive the
        # error (the tracking loop) still see the truth for this cycle
        exc.true_mean = true_mean
        raise
    return result, true_mean


@dataclass(frozen=True)
class TrackingSample:
    """One measurement cycle of a tracking run."""

    timestamp: float        # cycle start, s
    nu0: float              # probe centre used, rad/s
    delta: float            # estimated offset, rad/s
    nu_estimated: float     # nu0 + delta, rad/s
    sigma_nu: float         # standard error, rad/s
    true_nu: float          # shot-averaged truth, rad/s
    in_window: bool
    applied_voltage: float = 0.0


@dataclass
class TrackingRecord:
    """Time-ordered tracking samples plus a loss-of-lock flag."""

    samples: list[TrackingSample]
    lost_lock: bool = False

    def __len__(self) -> int:
        return len(self.samples)

    def _column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples])

    @property
    def times(self) -> np.ndarray:
        return self._column("timestamp")

    @property
    def nu0(self) -> np.ndarray:
        return self._column("nu0")

    @property
    def delta(self) -> np.ndarray:
        return self._column("delta")

    @property
    def nu_estimated(self) -> np.ndarray:
        return self._column("nu_estimated")

    @property
    def sigma_nu(self) -> np.ndarray:
        return self._column("sigma_nu")

    @property
    def true_nu(self) -> np.ndarray:
        return self._column("true_nu")

    @property
    def in_window(self) -> np.ndarray:
        return np.array([s.in_window for s in self.samples], dtype=bool)

    @property
    def applied_voltage(self) -> np.ndarray:
        return self._column("applied_voltage")

    def rows(self) -> list[list]:
        """One row per cycle under CSV_HEADER; frequencies in ordinary Hz."""
        tp = 2.0 * math.pi
        return [[s.timestamp, s.nu0 / tp, s.delta / tp, s.nu_estimated / tp,
                 s.sigma_nu / tp, s.true_nu / tp, int(s.in_window), s.applied_voltage]
                for s in self.samples]

    def write_csv(self, path) -> None:
        """CSV_HEADER, then rows() at full precision."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(self.rows())

    @classmethod
    def read_csv(cls, path) -> "TrackingRecord":
        """Inverse of write_csv.

        The file holds per-cycle rows; lost_lock is a property of the
        whole run, so it is not stored here (the CLI records it in
        track_summary.json) and the record read back has lost_lock=False.
        """
        tp = 2.0 * math.pi
        samples = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected header {header!r}")
            for row in reader:
                samples.append(TrackingSample(
                    timestamp=float(row[0]),
                    nu0=float(row[1]) * tp,
                    delta=float(row[2]) * tp,
                    nu_estimated=float(row[3]) * tp,
                    sigma_nu=float(row[4]) * tp,
                    true_nu=float(row[5]) * tp,
                    in_window=bool(int(row[6])),
                    applied_voltage=float(row[7]),
                ))
        return cls(samples=samples)


def _run_cycles(cycle_voltages, initial_nu0: float, drift: DriftModel,
                cfg: TwoPointConfig, timeline: ExperimentTimeline,
                shift_of_voltage) -> TrackingRecord:
    state = SimulationState.start(initial_nu0, drift)
    samples: list[TrackingSample] = []
    base_estimate = float(initial_nu0)
    streak = 0
    lost = False
    for voltage in cycle_voltages:
        shift = shift_of_voltage(voltage)
        nu0 = base_estimate + shift
        t_start = state.time
        try:
            result, true_mean = run_measurement(
                nu0, state, cfg, timeline, drift, resonance_offset=shift)
            delta, sigma, in_window = (result.delta, result.sigma_delta,
                                       result.in_window)
        except NoSignalError as exc:
            # zero bright events on both sides: the resonance is far out
            # of the window.  Hold the reference, flag the cycle, and
            # let the loss-of-lock streak terminate the run; the sigma
            # sentinel is the whole capture half-window.
            delta, sigma, in_window = 0.0, cfg.window_halfwidth, False
            true_mean = exc.true_mean
        samples.append(TrackingSample(
            timestamp=t_start,
            nu0=nu0,
            delta=delta,
            nu_estimated=nu0 + delta,
            sigma_nu=sigma,
            true_nu=true_mean,
            in_window=in_window,
            applied_voltage=voltage,
        ))
        base_estimate = nu0 + delta - shift
        streak = streak + 1 if not in_window else 0
        if streak >= LOSS_OF_LOCK_STREAK:
            lost = True
            break
    return TrackingRecord(samples=samples, lost_lock=lost)


def run_tracking(n_cycles: int, initial_nu0: float, drift: DriftModel,
                 cfg: TwoPointConfig, timeline: ExperimentTimeline) -> TrackingRecord:
    """Track the resonance for n_cycles, re-centring on each estimate.

    Terminates early with lost_lock=True after three consecutive
    out-of-window estimates.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be at least 1")
    return _run_cycles([0.0] * n_cycles, initial_nu0, drift, cfg, timeline,
                       lambda _v: 0.0)


@dataclass(frozen=True)
class VoltageStep:
    """One commanded voltage in a scan; voltage must be non-zero."""

    voltage: float
    interleave_zero: bool = True

    def __post_init__(self) -> None:
        if self.voltage == 0.0:
            raise ValueError("scan steps must have non-zero voltage; "
                             "zero cycles come from interleave_zero")


@dataclass(frozen=True)
class VoltageSchedule:
    """Ordered voltage steps, optionally bracketed by zero-voltage anchors."""

    steps: tuple[VoltageStep, ...]

    @classmethod
    def from_voltages(cls, voltages, interleave_zero: bool = True) -> "VoltageSchedule":
        return cls(tuple(VoltageStep(float(v), interleave_zero) for v in voltages))

    def cycle_voltages(self) -> list[float]:
        """Per-cycle applied voltage, with anchors where interleaving is on."""
        out: list[float] = []
        any_interleaved = False
        for step in self.steps:
            if step.interleave_zero:
                out.append(0.0)
                any_interleaved = True
            out.append(step.voltage)
        if any_interleaved:
            out.append(0.0)
        return out


def voltage_displacement(voltage: float, env: TrapEnvironment,
                         species: IonSpecies,
                         constants: PhysicalConstants = CODATA) -> float:
    """Static displacement (m) from a control-voltage offset.

    The voltage produces a residual field E = voltage_to_field * U at
    the ion; the ion re-equilibrates at z = e E / (m omega_z^2).
    """
    force = constants.elementary_charge * env.voltage_to_field * voltage
    return force / (species.mass * env.omega_z ** 2)


def voltage_frequency_shift(voltage: float, env: TrapEnvironment,
                            species: IonSpecies, *, variant: str = "standard",
                            constants: PhysicalConstants = CODATA) -> float:
    """Resonance shift (rad/s) caused by a control-voltage offset."""
    return voltage_displacement(voltage, env, species, constants) * \
        frequency_to_position_slope(env, species, variant=variant, constants=constants)


def run_voltage_scan(schedule: VoltageSchedule, env: TrapEnvironment,
                     species: IonSpecies, drift: DriftModel,
                     cfg: TwoPointConfig, timeline: ExperimentTimeline,
                     initial_nu0: float | None = None, *,
                     variant: str = "standard",
                     constants: PhysicalConstants = CODATA) -> TrackingRecord:
    """Track through a commanded voltage scan.

    The predicted voltage-induced shift is fed forward into the probe
    centre of each cycle (the commanded voltage is known to the
    experiment), so the estimator only has to absorb residual drift.
    """
    if initial_nu0 is None:
        initial_nu0 = transition_frequency(
            species, env.offset_field, variant=variant, constants=constants)
    return _run_cycles(
        schedule.cycle_voltages(), initial_nu0, drift, cfg, timeline,
        lambda v: voltage_frequency_shift(
            v, env, species, variant=variant, constants=constants),
    )


@dataclass(frozen=True)
class DisplacementPoint:
    """A drift-corrected frequency offset for one non-zero voltage cycle."""

    timestamp: float
    voltage: float
    delta_nu: float     # rad/s, relative to the interpolated zero-voltage baseline
    sigma_nu: float     # the point's own measurement error, rad/s


class DriftCorrectionError(ValueError):
    """A non-zero-voltage cycle is not bracketed by zero-voltage anchors."""


def drift_correct(record: TrackingRecord) -> list[DisplacementPoint]:
    """Remove slow drift from the non-zero-voltage cycles of a scan.

    Linearly interpolates the zero-voltage anchor estimates to the
    timestamp of each non-zero-voltage cycle and subtracts; linear
    drift cancels exactly.  Each corrected point keeps its own
    measurement sigma (the anchor-interpolation variance is not folded
    in; the per-measurement standard error is the quantity of record).
    """
    anchors = [s for s in record.samples if s.applied_voltage == 0.0]
    targets = [s for s in record.samples if s.applied_voltage != 0.0]
    if not targets:
        return []
    if len(anchors) < 2:
        raise DriftCorrectionError("need at least two zero-voltage anchors")
    anchor_t = np.array([a.timestamp for a in anchors])
    anchor_nu = np.array([a.nu_estimated for a in anchors])
    out = []
    for s in targets:
        if not (anchor_t[0] < s.timestamp < anchor_t[-1]):
            raise DriftCorrectionError(
                f"cycle at t={s.timestamp} s is not bracketed by zero-voltage anchors")
        baseline = float(np.interp(s.timestamp, anchor_t, anchor_nu))
        out.append(DisplacementPoint(
            timestamp=s.timestamp,
            voltage=s.applied_voltage,
            delta_nu=s.nu_estimated - baseline,
            sigma_nu=s.sigma_nu,
        ))
    return out
