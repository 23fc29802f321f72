"""Frequency-series and spectrum analysis, and force-sensing figures.

Overlapping Allan deviation of tracked frequencies with a white-noise
plus linear-drift model fit, weighted least-squares fitting of scanned
resonance lines, conversion of frequency records to positions, and the
force metrology chain (stiffness, force resolution, sensitivity,
single-charge detection range).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize

from .atomphys import (
    CODATA,
    IonSpecies,
    TrapEnvironment,
    axial_stiffness,
    frequency_to_position_slope,
)
from .estimator import binomial_variance
from .lineshape import MotionalModel, PulseSpec, excitation_profile
from .simulator import Displacements, TrackingRecord

__all__ = [
    "FrequencySeries",
    "AllanResult",
    "allan_deviation",
    "SpectrumFitError",
    "SpectrumFitResult",
    "fit_spectrum",
    "PositionStatistics",
    "position_statistics",
    "ForceReport",
    "force_report",
    "charge_detection_distance",
]


@dataclass(frozen=True)
class FrequencySeries:
    """Uniformly sampled frequency measurements."""

    times: np.ndarray       # s
    values: np.ndarray      # rad/s

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if t.size < 3:
            raise ValueError("need at least three samples")
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            raise ValueError("timestamps must be strictly increasing")
        if np.ptp(dt) > 0.01 * dt.mean():
            raise ValueError("sampling must be uniform to within 1%")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def sample_period(self) -> float:
        return float(np.diff(self.times).mean())

    @classmethod
    def from_record(cls, record: TrackingRecord) -> "FrequencySeries":
        return cls(times=record.times, values=record.nu_estimated)


@dataclass(frozen=True)
class AllanResult:
    """Overlapping Allan deviation and the drift-model fit."""

    taus: np.ndarray            # s (multiples of the sample period)
    adev: np.ndarray            # rad/s
    n_pairs: np.ndarray         # averaging windows per tau
    drift_rate: float           # fitted linear drift d, (rad/s)/s
    white_level: float          # fitted a in a / sqrt(tau), (rad/s) sqrt(s)
    fit_residual: float         # reduced chi-square of the model fit


def _overlapping_adev(values: np.ndarray, m: int) -> tuple[float, int]:
    """Overlapping two-sample deviation at averaging factor m."""
    n = values.size
    k = n - 2 * m + 1
    # centre first: second differences cancel a constant exactly, but only
    # if the cumulative sums do not swallow the fluctuations (values sit at
    # ~1e10 with fluctuations of ~1e2)
    values = values - values.mean()
    cum = np.concatenate(([0.0], np.cumsum(values)))
    window = cum[m:] - cum[:-m]              # sums of m consecutive samples
    diff = (window[m:] - window[:-m]) / m    # successive tau-averages
    avar = float(np.dot(diff, diff)) / (2.0 * k)
    return math.sqrt(avar), k


def _drift_model(tau: np.ndarray, white: float, drift: float) -> np.ndarray:
    return np.sqrt(white ** 2 / tau + (drift * tau) ** 2 / 2.0)


def allan_deviation(series: FrequencySeries, taus) -> AllanResult:
    """Overlapping Allan deviation at the requested tau values.

    Each tau must be positive and finite, and snaps to the nearest
    positive multiple of the sample period; taus with fewer than two
    averaging windows are dropped.
    The (tau, adev) points are then fitted with the quadrature model

        adev(tau) = sqrt((a tau^-1/2)^2 + (d tau / sqrt(2))^2)

    weighted by adev/sqrt(n_pairs), and the linear drift rate d is
    reported.  A pure linear drift gives adev = d tau / sqrt(2) exactly.
    """
    tau0 = series.sample_period
    requested = np.atleast_1d(np.asarray(taus, dtype=float))
    if requested.size == 0:
        raise ValueError("no tau values requested")
    for tau in requested:
        if not 0.0 < tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {float(tau)!r}")
    ms = sorted({max(int(round(t / tau0)), 1) for t in requested})
    rows = []
    for m in ms:
        if series.values.size - 2 * m + 1 >= 2:
            adev, k = _overlapping_adev(series.values, m)
            rows.append((m * tau0, adev, k))
    if not rows:
        raise ValueError("series too short for every requested tau")
    tau = np.array([r[0] for r in rows])
    adev = np.array([r[1] for r in rows])
    pairs = np.array([r[2] for r in rows])

    if np.all(adev == 0.0):
        return AllanResult(tau, adev, pairs, 0.0, 0.0, 0.0)

    sigma = np.where(adev > 0.0, adev, adev[adev > 0.0].min()) / np.sqrt(pairs)
    x0 = np.array([adev[0] * math.sqrt(tau[0]),
                   adev[-1] * math.sqrt(2.0) / tau[-1]])
    fit = least_squares(
        lambda p: (_drift_model(tau, p[0], p[1]) - adev) / sigma,
        x0, bounds=([0.0, 0.0], [np.inf, np.inf]), xtol=1e-12,
    )
    dof = max(tau.size - 2, 1)
    residual = 2.0 * fit.cost / dof
    return AllanResult(tau, adev, pairs, float(fit.x[1]), float(fit.x[0]),
                       float(residual))


class SpectrumFitError(RuntimeError):
    """Spectrum fit failed to converge; carries the best parameters."""

    def __init__(self, message: str, best_params: np.ndarray):
        super().__init__(message)
        self.best_params = best_params


@dataclass(frozen=True)
class SpectrumFitResult:
    """Fitted resonance line.  Parameters: centre, Rabi, amplitude, baseline."""

    center: float           # rad/s, same axis as the input detunings
    rabi: float             # rad/s
    amplitude: float
    baseline: float
    covariance: np.ndarray  # 4x4, parameter order as above
    reduced_chisq: float
    n_points: int


def _guess_from_data(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    baseline = float(y.min())
    amplitude = float(y.max() - y.min())
    center = float(x[int(np.argmax(y))])
    half = baseline + 0.5 * amplitude
    above = x[y >= half]
    width = float(above.max() - above.min()) if above.size >= 2 else \
        0.25 * float(x.max() - x.min())
    rabi = max(width / 1.6, 1e-6 * (x.max() - x.min() + 1.0))
    return np.array([center, rabi, amplitude, baseline])


def fit_spectrum(detuning, excitation, shots,
                 motion: MotionalModel) -> SpectrumFitResult:
    """Weighted least-squares fit of a scanned resonance line.

    The model is amplitude * P(delta - center; Omega) + baseline with
    the thermal lineshape P evaluated for a self-consistent pi pulse
    (duration pi/Omega) and the motional state held fixed.  Points are
    weighted by binomial standard errors from their shot counts, with
    the saturated-count variance floor.  Damped least squares, with a
    simplex fallback, converged at relative parameter change 1e-8.
    """
    x = np.asarray(detuning, dtype=float)
    y = np.asarray(excitation, dtype=float)
    n_shots = np.broadcast_to(np.asarray(shots, dtype=int), x.shape)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("detuning and excitation must be matching 1-d arrays")
    if x.size < 8:
        raise ValueError("need at least eight points across the line")
    if np.ptp(y) == 0.0:
        raise ValueError("degenerate data: excitation is flat, no line to fit")
    sigma = np.sqrt([binomial_variance(p, int(s)) for p, s in zip(y, n_shots)])
    # The last profile and its (centre, Rabi): a step that moves only
    # amplitude or baseline, as a Jacobian column does, reuses it.
    profile_key, profile = None, None

    def model(params: np.ndarray) -> np.ndarray:
        nonlocal profile_key, profile
        center, rabi, amplitude, baseline = params
        key = (float(center), float(rabi))
        if key != profile_key:
            profile_key = key
            profile = excitation_profile(x - center, PulseSpec.pi_pulse(rabi), motion)
        return amplitude * profile + baseline

    def residuals(params: np.ndarray) -> np.ndarray:
        return (model(params) - y) / sigma

    span = float(x.max() - x.min())
    lower = [x.min() - span, 1e-9, -np.inf, -np.inf]
    upper = [x.max() + span, np.inf, np.inf, np.inf]
    p0 = np.clip(_guess_from_data(x, y), lower, upper)

    fit = least_squares(residuals, p0, bounds=(lower, upper),
                        xtol=1e-8, x_scale="jac")
    if not fit.success:
        simplex = minimize(lambda p: float(np.sum(residuals(p) ** 2)),
                           fit.x, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
        fit = least_squares(residuals, np.clip(simplex.x, lower, upper),
                            bounds=(lower, upper), xtol=1e-8, x_scale="jac")
        if not fit.success:
            raise SpectrumFitError("spectrum fit did not converge", fit.x)

    jac = fit.jac
    try:
        covariance = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(jac.T @ jac)
    dof = max(x.size - 4, 1)
    reduced = float(2.0 * fit.cost / dof)
    center, rabi, amplitude, baseline = fit.x
    return SpectrumFitResult(
        center=float(center), rabi=float(rabi), amplitude=float(amplitude),
        baseline=float(baseline), covariance=covariance,
        reduced_chisq=reduced, n_points=int(x.size),
    )


@dataclass(frozen=True)
class PositionStatistics:
    """Frequency offsets converted to axial displacements."""

    displacements: np.ndarray   # m
    sigmas: np.ndarray          # m
    mean_sigma: float           # arithmetic mean of per-point sigmas, m


def position_statistics(points: Displacements | TrackingRecord,
                        env: TrapEnvironment, species: IonSpecies) -> PositionStatistics:
    """Convert frequency offsets and errors to positions via the gradient.

    Accepts either the drift-corrected displacements of a voltage scan,
    or a plain TrackingRecord (whose estimates are then referenced to
    their mean).  Both values and standard errors divide by the
    frequency/position slope, so the map is linear.
    """
    if not len(points):
        raise ValueError("no points to convert")
    if isinstance(points, TrackingRecord):
        delta_nu = points.nu_estimated - points.nu_estimated.mean()
    else:
        delta_nu = points.delta_nu
    sigma_nu = points.sigma_nu
    slope = frequency_to_position_slope(env, species)
    z = delta_nu / slope
    sigma_z = np.abs(sigma_nu / slope)
    return PositionStatistics(displacements=z, sigmas=sigma_z,
                              mean_sigma=float(sigma_z.mean()))


@dataclass(frozen=True)
class ForceReport:
    """Force metrology figures from a position resolution."""

    stiffness: float            # N/m
    sigma_z: float              # m
    sigma_force: float          # N
    measurement_time: float     # s
    sensitivity: float          # N/sqrt(Hz)


def force_report(sigma_z: float, env: TrapEnvironment, species: IonSpecies,
                 measurement_time: float) -> ForceReport:
    """Force resolution and sensitivity for a given position resolution.

    sigma_F = k_z sigma_z with k_z = m omega_z^2, and the sensitivity
    is sigma_F sqrt(T) for a measurement of duration T.
    """
    if not 0.0 < sigma_z < math.inf:
        raise ValueError("sigma_z must be positive and finite")
    if not 0.0 < measurement_time < math.inf:
        raise ValueError("measurement_time must be positive and finite")
    k = axial_stiffness(env, species)
    sigma_f = k * sigma_z
    return ForceReport(
        stiffness=k,
        sigma_z=sigma_z,
        sigma_force=sigma_f,
        measurement_time=measurement_time,
        sensitivity=sigma_f * math.sqrt(measurement_time),
    )


def charge_detection_distance(sigma_force: float) -> float:
    """Distance (m) at which one elementary charge exerts sigma_force.

    Inverts the bare Coulomb force: r = sqrt(e^2 / (4 pi eps0 sigma_F)).
    """
    if not 0.0 < sigma_force < math.inf:
        raise ValueError("sigma_force must be positive and finite")
    coulomb = CODATA.elementary_charge ** 2 / (
        4.0 * math.pi * CODATA.vacuum_permittivity)
    return math.sqrt(coulomb / sigma_force)
