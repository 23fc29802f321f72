"""Frequency-series and spectrum analysis, and force-sensing figures.

Overlapping Allan deviation of tracked frequencies with a white-noise
plus linear-drift model fit, weighted least-squares fitting of scanned
resonance lines, conversion of frequency records to positions, and the
force metrology chain (stiffness, force resolution, sensitivity,
single-charge detection range).

Both fits are small numpy solvers built on one damped Gauss-Newton
(Levenberg-Marquardt) loop, `_levenberg_marquardt`, which refuses any
step that would reach a parameter bound.  The Allan fit enumerates the
cases of its two bounds a >= 0, d >= 0 (each face in closed form, the
interior by the loop) and keeps the cheapest; the spectrum fit projects
out its two linear parameters (variable projection) and runs the loop
on centre and Rabi frequency alone, whose Jacobian columns come
analytically from the same lineshape-kernel pass as the model (no
forward differences).  Neither has a fallback solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomphys import (
    CODATA,
    IonSpecies,
    TrapEnvironment,
    axial_stiffness,
    frequency_to_position_slope,
)
from .estimator import binomial_variance
from .lineshape import MotionalModel, PulseSpec, _thermal_sums
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


# Steps the damped Gauss-Newton loop may try before it gives up.
LM_MAX_STEPS = 100


def _levenberg_marquardt(evaluate, p, inside, rtol):
    """Damped Gauss-Newton descent of the cost 0.5 |r|^2 from p.

    `evaluate(p)` gives the residuals r, the Jacobian J and an auxiliary
    value at p.  J may carry extra columns after the first len(p):
    parameters that are linear in the model and that `evaluate` solves
    for itself.  They are eliminated from each step and left undamped;
    the other diagonal entries are damped by Marquardt's scaling.  A step
    that lowers the cost is taken and the damping divided by ten.  A step
    that does not, or that would leave the open region `inside` where the
    parameters are strictly within their bounds, is refused and the
    damping multiplied by ten; so no residual is evaluated on or past a
    bound.

    The loop stops with status "converged" when the Gauss-Newton step
    from p would lower the cost by at most `rtol` times the cost, as the
    linearised model predicts it, or when a step moves no parameter in
    floating point; "singular" when a normal matrix cannot be solved;
    and "cap" after LM_MAX_STEPS steps tried.  Returns
    (p, r, J, aux, status), with r, J and aux at the returned p.
    """
    p = np.asarray(p, dtype=float)
    r, jac, aux = evaluate(p)
    cost = 0.5 * float(r @ r)
    n = p.size
    damping = 1e-3
    steps = 0
    while True:
        normal = jac.T @ jac
        gradient = jac.T @ r
        scaling = np.maximum(np.diag(normal)[:n], np.finfo(float).eps * normal.max())
        try:
            decrement = 0.5 * float(gradient @ np.linalg.solve(normal, gradient))
        except np.linalg.LinAlgError:
            return p, r, jac, aux, "singular"
        if decrement <= rtol * cost:
            return p, r, jac, aux, "converged"
        while True:
            if steps == LM_MAX_STEPS:
                return p, r, jac, aux, "cap"
            damped = normal.copy()
            damped[range(n), range(n)] += damping * scaling
            try:
                trial = p - np.linalg.solve(damped, gradient)[:n]
            except np.linalg.LinAlgError:
                return p, r, jac, aux, "singular"
            if np.all(trial == p):
                return p, r, jac, aux, "converged"
            steps += 1
            if inside(trial):
                trial_r, trial_jac, trial_aux = evaluate(trial)
                trial_cost = 0.5 * float(trial_r @ trial_r)
                if trial_cost < cost:
                    p, r, jac, aux, cost = trial, trial_r, trial_jac, trial_aux, trial_cost
                    damping *= 0.1
                    break
            damping *= 10.0


def _allan_fit(tau: np.ndarray, adev: np.ndarray,
               sigma: np.ndarray) -> tuple[float, float, float]:
    """(white, drift, cost) of the bounded drift-model fit; see allan_deviation."""
    if tau.size == 1:
        return float(adev[0] * math.sqrt(tau[0])), 0.0, 0.0

    def residuals(p):
        return (_drift_model(tau, p[0], p[1]) - adev) / sigma

    def evaluate(p):
        model = _drift_model(tau, p[0], p[1])
        jac = np.column_stack((p[0] / (tau * model), p[1] * tau ** 2 / (2.0 * model)))
        return (model - adev) / sigma, jac / sigma[:, None], None

    # On each face the model is linear in the free parameter.
    target = adev / sigma
    white_col = 1.0 / (np.sqrt(tau) * sigma)
    drift_col = tau / (math.sqrt(2.0) * sigma)
    white = max(float(white_col @ target / (white_col @ white_col)), 0.0)
    drift = max(float(drift_col @ target / (drift_col @ drift_col)), 0.0)
    candidates = [np.array([white, 0.0]), np.array([0.0, drift])]
    x0 = np.array([adev[0] * math.sqrt(tau[0]), adev[-1] * math.sqrt(2.0) / tau[-1]])
    x0 = np.where(x0 > 0.0, x0, [white, drift])     # a zero end takes its face's value
    if np.all(x0 > 0.0):
        interior, *_ = _levenberg_marquardt(
            evaluate, x0, inside=lambda p: bool(np.all(p > 0.0)), rtol=0.0)
        candidates.append(interior)
    costs = [0.5 * float(r @ r) for r in map(residuals, candidates)]
    best = int(np.argmin(costs))
    return float(candidates[best][0]), float(candidates[best][1]), costs[best]


def allan_deviation(series: FrequencySeries, taus) -> AllanResult:
    """Overlapping Allan deviation at the requested tau values.

    Each tau must be positive and finite, and snaps to the nearest
    positive multiple of the sample period; taus with fewer than two
    averaging windows are dropped.
    The (tau, adev) points are then fitted with the quadrature model

        adev(tau) = sqrt((a tau^-1/2)^2 + (d tau / sqrt(2))^2)

    weighted by adev/sqrt(n_pairs), with a >= 0 and d >= 0, and the
    linear drift rate d is reported.  A pure linear drift gives
    adev = d tau / sqrt(2) exactly.

    The fit takes the cheapest of three candidates (its KKT cases): the
    face d = 0 and the face a = 0, each a weighted linear fit in closed
    form, and an interior point from damped Gauss-Newton started at
    a = adev_0 sqrt(tau_0), d = sqrt(2) adev_last / tau_last, which
    refuses steps onto a bound (the faces cover that case) and runs
    until no step lowers the cost in floating point.  A single tau
    cannot separate a from d: it is read as white noise, d = 0 and
    a = adev sqrt(tau), a zero-cost fit.  The fit itself never raises;
    a deviation that overflows raises ValueError before it.
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

    if not np.all(np.isfinite(adev)):
        raise ValueError("Allan deviation overflows")
    if np.all(adev == 0.0):
        return AllanResult(tau, adev, pairs, 0.0, 0.0, 0.0)

    sigma = np.where(adev > 0.0, adev, adev[adev > 0.0].min()) / np.sqrt(pairs)
    white, drift, cost = _allan_fit(tau, adev, sigma)
    dof = max(tau.size - 2, 1)
    return AllanResult(tau, adev, pairs, drift, white, 2.0 * cost / dof)


class SpectrumFitError(RuntimeError):
    """Spectrum fit failed to converge, or its covariance is unusable; carries
    the best parameters."""

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
    # a far detuning widens the span, not the median gap between detunings
    gaps = np.sort(np.diff(np.sort(x)))
    gaps = gaps[gaps > 0.0]
    spacing = 0.5 * float(gaps[(gaps.size - 1) // 2] + gaps[gaps.size // 2])
    width = float(above.max() - above.min()) if above.size >= 2 else 2.0 * spacing
    rabi = max(width / 1.6, 1e-6 * (spacing + 1.0))
    return np.array([center, rabi, amplitude, baseline])


# The spectrum fit converges when a Gauss-Newton step would lower its
# cost by no more than this fraction.  A step predicted to gain
# 1e-10 of a cost near n/2 is about 1e-5 standard errors long.
SPECTRUM_RTOL = 1e-10


def fit_spectrum(detuning, excitation, shots,
                 motion: MotionalModel) -> SpectrumFitResult:
    """Weighted least-squares fit of a scanned resonance line.

    The model is amplitude * P(delta - center; Omega) + baseline with
    the thermal lineshape P evaluated for a self-consistent pi pulse
    (duration pi/Omega) and the motional state held fixed.  Points are
    weighted by binomial standard errors from their shot counts, with
    the saturated-count variance floor.

    Amplitude and baseline enter linearly, so each (centre, Rabi) has
    them by weighted linear least squares (variable projection), and
    damped Gauss-Newton runs on centre and Rabi alone from the data's
    peak and half-width.  Each evaluation is one pass of the lineshape
    kernel (`lineshape._thermal_sums`), which gives P and the weighted
    sum G with dP/d delta = -delta G, so the Jacobian columns are
    analytic: amplitude * delta * G for the centre and, since a pi pulse
    makes P a function of delta/Omega, amplitude * delta^2 * G / Omega
    for the Rabi frequency.  Centre is bounded to a span beyond the data
    on each side and Rabi to above 1e-9 rad/s; steps onto a bound are
    refused.  The fit converges when a Gauss-Newton step would lower the
    cost by at most SPECTRUM_RTOL of it.  There is no fallback: a fit
    that tries LM_MAX_STEPS steps, or whose normal matrix is singular,
    raises SpectrumFitError with the best parameters found.  The
    covariance is (J^T J)^-1 of the four-column Jacobian at the optimum
    (pseudo-inverse if singular); a negative or non-finite variance in it
    raises SpectrumFitError too, as the data then do not fix the line.
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
    span = float(x.max() - x.min())
    if span == 0.0:
        raise ValueError("degenerate data: every point has the same detuning")
    weight = 1.0 / np.sqrt([binomial_variance(p, int(s)) for p, s in zip(y, n_shots)])
    target = y * weight
    lower = np.array([x.min() - span, 1e-9])
    upper = np.array([x.max() + span, np.inf])

    def evaluate(p):
        delta = x - p[0]
        profile, slope = _thermal_sums(delta, PulseSpec.pi_pulse(p[1]), motion, slope=True)
        design = np.column_stack((profile, np.ones_like(x))) * weight[:, None]
        linear = np.linalg.lstsq(design, target, rcond=None)[0]
        centre = linear[0] * weight * delta * slope
        jac = np.column_stack((centre, centre * delta / p[1], design))
        return design @ linear - target, jac, linear

    # the data's peak and half-width lie strictly inside the bounds
    p, r, jac, linear, status = _levenberg_marquardt(
        evaluate, _guess_from_data(x, y)[:2],
        inside=lambda p: bool(np.all((lower < p) & (p < upper))),
        rtol=SPECTRUM_RTOL)
    if status != "converged":
        raise SpectrumFitError(f"spectrum fit did not converge ({status})",
                               np.concatenate((p, linear)))
    try:
        covariance = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(jac.T @ jac)
    if not np.all(np.diag(covariance) >= 0.0) or not np.all(np.isfinite(covariance)):
        raise SpectrumFitError("spectrum fit covariance is not finite, or has a negative variance",
                               np.concatenate((p, linear)))
    dof = max(x.size - 4, 1)
    center, rabi = p
    amplitude, baseline = linear
    return SpectrumFitResult(
        center=float(center), rabi=float(rabi), amplitude=float(amplitude),
        baseline=float(baseline), covariance=covariance,
        reduced_chisq=float(r @ r) / dof, n_points=int(x.size),
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
