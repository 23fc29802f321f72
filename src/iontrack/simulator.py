"""Stochastic shot-level simulation of the tracking experiment.

A drifting true resonance is probed with the two-point protocol, one
detection per repetition tick, and the running estimate of the
resonance is fed forward as the probe centre of the next measurement.
Commanded electrode-voltage steps displace the ion (and therefore the
resonance, through the gradient); interleaved zero-voltage cycles
anchor a linear drift correction.

All randomness flows through one numpy Generator seeded from the drift
model, so identical configurations and seeds give bit-identical
records.  The tracking loop holds it, the drifting resonance and the
clock, and passes them through `run_measurement` cycle by cycle.  Every repetition tick consumes the same number of draws
(two uniforms for the detection, then one Gaussian for the drift
increment) regardless of which noise terms are enabled, so switching a
term off does not shift the rest of the stream.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not in a run's first draw

from .atomphys import CODATA, IonSpecies, TrapEnvironment
from .atomphys import frequency_to_position_slope, transition_frequency
from .estimator import NoSignalError, TwoPointConfig, estimate_from_counts
from .lineshape import (MotionalModel, PulseSpec, _tabulated_excitation,
                        thermal_excitation)

__all__ = [
    "LINE_FREQUENCY_HZ",
    "DriftModel",
    "ExperimentTimeline",
    "TrackingRecord",
    "VoltageSchedule",
    "Displacements",
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
# A tracking run estimates each count pair once and keeps the estimate
# for the cycles that repeat it, up to this many pairs: a full dict
# holds at most about 17 MB (measured).
ESTIMATE_CACHE_CAP = 1 << 16
TWO_PI = 2.0 * math.pi


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
        if not all(map(math.isfinite, (self.linear_rate, self.random_walk,
                                       self.line_amplitude))):
            raise ValueError("drift rates and amplitudes must be finite")
        if self.random_walk < 0.0 or self.line_amplitude < 0.0:
            raise ValueError("noise strengths must be non-negative")


@dataclass(frozen=True)
class ExperimentTimeline:
    """Repetition schedule and detection imperfections of each shot."""

    rep_period: float = 0.02       # s per shot (50 Hz line sync)
    detection_error_bright: float = 0.0   # P(read dark | bright)
    detection_error_dark: float = 0.0     # P(read bright | dark)
    shot_order: str = "interleaved"       # or "blocked"

    def __post_init__(self) -> None:
        if not 0.0 < self.rep_period < math.inf:
            raise ValueError("rep_period must be positive and finite")
        for err in (self.detection_error_bright, self.detection_error_dark):
            if not 0.0 <= err <= 1.0:
                raise ValueError("detection errors must be probabilities")
        if self.shot_order not in ("interleaved", "blocked"):
            raise ValueError("shot_order must be 'interleaved' or 'blocked'")

    def measurement_duration(self, cfg: TwoPointConfig) -> float:
        """Wall-clock time of one measurement, 2 cfg.shots_per_side shots, s."""
        return 2.0 * cfg.shots_per_side * self.rep_period


def _shot_sides(timeline: ExperimentTimeline, cfg: TwoPointConfig) -> np.ndarray:
    if timeline.shot_order == "blocked":
        return np.repeat([+1, -1], cfg.shots_per_side)
    return np.tile([+1, -1], cfg.shots_per_side)


def _bright_shots(detunings: np.ndarray, uniforms: np.ndarray, pulse: PulseSpec,
                  motion: MotionalModel, kappa: float) -> np.ndarray:
    """uniforms < thermal_excitation at each detuning, shot by shot.

    The per-shot table of `lineshape` for kappa (linear interpolation of
    p(|delta|) at pitch 2 pi / (2048 duration) over the |delta| a
    two-point run at kappa reads, error at most 5.9e-7 at every pulse
    area) decides every shot whose uniform lies further than the error
    bound from the tabulated p.  The rest, every shot outside the span
    and every shot of a pulse too long to tabulate included, call
    `thermal_excitation`, so each decision is the one a per-shot call
    would make.
    """
    p, bound = _tabulated_excitation(detunings, pulse, motion, kappa)
    for i in np.flatnonzero(np.abs(uniforms - p) <= bound):
        p[i] = thermal_excitation(float(detunings[i]), pulse, motion)
    return uniforms < p


def run_measurement(nu0: float, rng: np.random.Generator, cfg: TwoPointConfig,
                    timeline: ExperimentTimeline, drift: DriftModel,
                    base_nu: float, time: float, resonance_offset: float = 0.0
                    ) -> tuple[int, int, float, float, float]:
    """One two-point measurement around nu0 from `time` (s), drawing from rng.

    base_nu is the drifting resonance without the line term and
    resonance_offset (rad/s).  Returns the bright counts on the + and -
    sides, the shot-averaged true resonance, and base_nu and time after
    2 * cfg.shots_per_side ticks of rep_period; turning the counts into an
    estimate is left to the caller.

    Each tick records the true resonance and draws, in this order, the
    flop uniform, the detection-error uniform and the drift Gaussian.
    The shots are then decided together by `_bright_shots`: bright when
    the flop uniform lies below the thermal excitation at the shot's
    detuning.
    """
    sides = _shot_sides(timeline, cfg)
    ticks = sides.size
    truth = np.empty(ticks)
    flop = np.empty(ticks)
    flip = np.empty(ticks)
    random, gauss = rng.random, rng.standard_normal
    dt = timeline.rep_period
    ramp = drift.linear_rate * dt
    kick = drift.random_walk * math.sqrt(dt)
    line_omega = 2.0 * math.pi * LINE_FREQUENCY_HZ
    true_sum = 0.0
    for i in range(ticks):
        tn = base_nu + drift.line_amplitude * math.sin(line_omega * time) + resonance_offset
        truth[i] = tn
        flop[i] = random()
        flip[i] = random()
        base_nu += ramp + kick * gauss()
        time += dt
        true_sum += tn
    # Bernoulli flop, then the detection-error channel
    bright = _bright_shots(truth - (nu0 + sides * (cfg.kappa * cfg.pulse.rabi)),
                           flop, cfg.pulse, cfg.motion, cfg.kappa)
    counted = np.where(bright, flip >= timeline.detection_error_bright,
                       flip < timeline.detection_error_dark)
    count_plus = int(np.count_nonzero(counted & (sides > 0)))
    count_minus = int(np.count_nonzero(counted & (sides < 0)))
    return count_plus, count_minus, true_sum / (2.0 * cfg.shots_per_side), base_nu, time


def _file_column(name: str, divisor: float | None):
    """A TrackingRecord column, filed under `name` as its value / divisor.

    A divisor of None marks the boolean column, filed as 0 or 1."""
    return field(metadata={"column": name, "divisor": divisor})


@dataclass(frozen=True, eq=False)
class TrackingRecord:
    """Per-cycle columns of a tracking run, plus a loss-of-lock flag.

    Times are s, frequencies rad/s and voltages V; each field declares
    its file column, from which CSV_HEADER, rows() and read_csv follow.
    """

    times: np.ndarray = _file_column("time_s", 1.0)                 # cycle start
    nu0: np.ndarray = _file_column("nu0_hz", TWO_PI)                # probe centre
    delta: np.ndarray = _file_column("delta_hz", TWO_PI)            # estimated offset
    nu_estimated: np.ndarray = _file_column("nu_estimated_hz", TWO_PI)
    sigma_nu: np.ndarray = _file_column("sigma_nu_hz", TWO_PI)      # standard error
    true_nu: np.ndarray = _file_column("true_nu_hz", TWO_PI)        # shot-averaged truth
    in_window: np.ndarray = _file_column("in_window", None)
    applied_voltage: np.ndarray = _file_column("voltage_v", 1.0)
    lost_lock: bool = False

    def __post_init__(self) -> None:
        for name, _column, divisor in _COLUMNS:
            values = np.array(getattr(self, name), dtype=float if divisor else bool)
            if values.shape != np.shape(self.times) or values.ndim != 1:
                raise ValueError("record columns must be 1-d and of one length")
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def from_rows(cls, rows, lost_lock: bool = False) -> "TrackingRecord":
        """Record from per-cycle rows in column order and the fields' units."""
        table = np.array(rows, dtype=float).reshape(len(rows), len(_COLUMNS))
        return cls(*table.T, lost_lock=lost_lock)

    @property
    def samples(self) -> list[tuple]:
        """Per-cycle tuples in column order: from_rows(record.samples) rebuilds it."""
        return list(zip(*(getattr(self, name).tolist() for name, _c, _d in _COLUMNS)))

    def rows(self) -> list[tuple]:
        """One row per cycle under CSV_HEADER, in the file's units."""
        columns = [getattr(self, name).astype(int) if divisor is None
                   else getattr(self, name) / divisor
                   for name, _column, divisor in _COLUMNS]
        return list(zip(*(c.tolist() for c in columns)))

    @classmethod
    def read_csv(cls, path) -> "TrackingRecord":
        """Record from a file of CSV_HEADER and rows(), such as track_record.csv.

        The file holds per-cycle rows; lost_lock is a property of the
        whole run, so it is not stored here (the CLI records it in
        track_summary.json) and the record read back has lost_lock=False.
        A missing header or a row of the wrong width or with a value that
        does not parse raises ValueError naming the line.
        """
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValueError(f"{path}: line 1: expected header "
                                 f"{','.join(CSV_HEADER)}, got {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(_COLUMNS):
                    raise ValueError(f"{path}: line {lineno}: expected "
                                     f"{len(_COLUMNS)} columns, got {len(row)}")
                try:
                    rows.append([int(cell) if divisor is None else float(cell) * divisor
                                 for cell, (_n, _c, divisor) in zip(row, _COLUMNS)])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        return cls.from_rows(rows)


# (field, file column, divisor) of each TrackingRecord column, in file order
_COLUMNS = tuple((f.name, f.metadata["column"], f.metadata["divisor"])
                 for f in fields(TrackingRecord) if f.metadata)
CSV_HEADER = [column for _name, column, _divisor in _COLUMNS]


def _run_cycles(cycle_voltages, initial_nu0: float, drift: DriftModel,
                cfg: TwoPointConfig, timeline: ExperimentTimeline,
                shift_of_voltage) -> TrackingRecord:
    """The tracking loop of run_tracking and run_voltage_scan.

    A count pair that repeats within the run is estimated once: the loop
    keeps each pair's estimate, for up to ESTIMATE_CACHE_CAP pairs.  The
    no-signal pair (0, 0) is not kept, so each such cycle reaches
    `estimate_from_counts`.
    """
    rng = np.random.default_rng(drift.seed)
    base_nu, time = float(initial_nu0), 0.0
    rows = []
    estimates: dict[tuple[int, int], tuple[float, float, bool]] = {}
    base_estimate = float(initial_nu0)
    streak = 0
    lost = False
    for voltage in cycle_voltages:
        shift = shift_of_voltage(voltage)
        nu0 = base_estimate + shift
        t_start = time
        count_plus, count_minus, true_mean, base_nu, time = run_measurement(
            nu0, rng, cfg, timeline, drift, base_nu, time, shift)
        estimate = estimates.get((count_plus, count_minus))
        if estimate is None:
            try:
                result = estimate_from_counts(count_plus, count_minus, cfg)
            except NoSignalError:
                # zero bright events on both sides: the resonance is far out
                # of the window.  Hold the reference, flag the cycle, and
                # let the loss-of-lock streak terminate the run; the sigma
                # sentinel is the whole capture half-window.
                estimate = 0.0, cfg.window_halfwidth, False
            else:
                estimate = result.delta, result.sigma_delta, result.in_window
                if len(estimates) < ESTIMATE_CACHE_CAP:
                    estimates[count_plus, count_minus] = estimate
        delta, sigma, in_window = estimate
        rows.append((t_start, nu0, delta, nu0 + delta, sigma, true_mean,
                     in_window, voltage))
        base_estimate = nu0 + delta - shift
        streak = streak + 1 if not in_window else 0
        if streak >= LOSS_OF_LOCK_STREAK:
            lost = True
            break
    return TrackingRecord.from_rows(rows, lost_lock=lost)


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
class VoltageSchedule:
    """Non-zero commanded voltages, optionally bracketed by zero-voltage anchors."""

    voltages: tuple[float, ...]
    interleave_zero: bool = True

    def __post_init__(self) -> None:
        for voltage in self.voltages:
            if not math.isfinite(voltage):
                raise ValueError("scan voltages must be finite")
            if voltage == 0.0:
                raise ValueError("scan steps must have non-zero voltage; "
                                 "zero cycles come from interleave_zero")

    @classmethod
    def from_voltages(cls, voltages, interleave_zero: bool = True) -> "VoltageSchedule":
        return cls(tuple(float(v) for v in voltages), interleave_zero)

    def cycle_voltages(self) -> list[float]:
        """Per-cycle applied voltage, with anchors where interleaving is on."""
        if not (self.interleave_zero and self.voltages):
            return list(self.voltages)
        return [u for v in self.voltages for u in (0.0, v)] + [0.0]


def voltage_displacement(voltage: float, env: TrapEnvironment,
                         species: IonSpecies) -> float:
    """Static displacement (m) from a control-voltage offset.

    The voltage produces a residual field E = voltage_to_field * U at
    the ion; the ion re-equilibrates at z = e E / (m omega_z^2).
    """
    force = CODATA.elementary_charge * env.voltage_to_field * voltage
    return force / (species.mass * env.omega_z ** 2)


def voltage_frequency_shift(voltage: float, env: TrapEnvironment,
                            species: IonSpecies) -> float:
    """Resonance shift (rad/s) caused by a control-voltage offset."""
    return voltage_displacement(voltage, env, species) * \
        frequency_to_position_slope(env, species)


def run_voltage_scan(schedule: VoltageSchedule, env: TrapEnvironment,
                     species: IonSpecies, drift: DriftModel,
                     cfg: TwoPointConfig, timeline: ExperimentTimeline,
                     initial_nu0: float | None = None) -> TrackingRecord:
    """Track through a commanded voltage scan.

    The predicted voltage-induced shift is fed forward into the probe
    centre of each cycle (the commanded voltage is known to the
    experiment), so the estimator only has to absorb residual drift.
    """
    if initial_nu0 is None:
        initial_nu0 = transition_frequency(species, env.offset_field)
    voltages = schedule.cycle_voltages()
    shifts = {v: voltage_frequency_shift(v, env, species) for v in voltages}
    for voltage, shift in shifts.items():
        if not math.isfinite(shift):
            raise ValueError(f"voltage_frequency_shift at {voltage!r} V is not "
                             f"finite ({shift!r})")
    return _run_cycles(voltages, initial_nu0, drift, cfg, timeline, shifts.__getitem__)


@dataclass(frozen=True, eq=False)
class Displacements:
    """Drift-corrected frequency offsets of a scan's non-zero-voltage cycles.

    delta_nu (rad/s) is relative to the zero-voltage baseline
    interpolated to each cycle's time; sigma_nu (rad/s) is the cycle's
    own measurement error.
    """

    times: np.ndarray       # s
    voltages: np.ndarray    # V
    delta_nu: np.ndarray
    sigma_nu: np.ndarray

    def __len__(self) -> int:
        return self.times.size


class DriftCorrectionError(ValueError):
    """A non-zero-voltage cycle is not bracketed by zero-voltage anchors."""


def drift_correct(record: TrackingRecord) -> Displacements:
    """Remove slow drift from the non-zero-voltage cycles of a scan.

    Linearly interpolates the zero-voltage anchor estimates to the
    timestamp of each non-zero-voltage cycle and subtracts; linear
    drift cancels exactly.  Each corrected point keeps its own
    measurement sigma (the anchor-interpolation variance is not folded
    in; the per-measurement standard error is the quantity of record).
    """
    anchor = record.applied_voltage == 0.0
    target = ~anchor
    times, anchor_t = record.times[target], record.times[anchor]
    if not times.size:
        return Displacements(times, times, times, times)
    if anchor_t.size < 2:
        raise DriftCorrectionError("need at least two zero-voltage anchors")
    loose = (times <= anchor_t[0]) | (times >= anchor_t[-1])
    if loose.any():
        raise DriftCorrectionError(
            f"cycle at t={float(times[loose][0])} s is not bracketed by "
            "zero-voltage anchors")
    baseline = np.interp(times, anchor_t, record.nu_estimated[anchor])
    return Displacements(times, record.applied_voltage[target],
                         record.nu_estimated[target] - baseline,
                         record.sigma_nu[target])
