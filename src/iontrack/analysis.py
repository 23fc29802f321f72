"""Frequency-series and spectrum analysis, and force-sensing figures.

Overlapping Allan deviation of tracked frequencies with a white-noise
plus linear-drift model fit, weighted least-squares fitting of scanned
resonance lines, conversion of frequency records to positions, and the
force metrology chain (stiffness, force resolution, sensitivity,
single-charge detection range).

The Allan fit is closed-form: its squared model is linear in two
non-negative parameters, solved as a 2x2 system or on one face of its
bounds, with no iteration.  The spectrum fit projects out its two
linear parameters (variable projection) and runs a damped Gauss-Newton
(Levenberg-Marquardt) loop, `_levenberg_marquardt`, on centre and Rabi
frequency alone; the loop refuses any step that would reach a bound, and
the Jacobian columns come analytically from the same lineshape-kernel
pass as the model (no forward differences).  Neither fit has a fallback
solver.
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

# The spectrum fit converges when a Gauss-Newton step would lower its
# cost by no more than this fraction.  A step predicted to gain
# 1e-10 of a cost near n/2 is about 1e-5 standard errors long.
SPECTRUM_RTOL = 1e-10


def _levenberg_marquardt(evaluate, p, inside):
    """Damped Gauss-Newton descent of the spectrum fit's cost 0.5 |r|^2 from p.

    `evaluate(p)` gives the residuals r, the Jacobian J and the linear
    parameters at p; J's columns after the first len(p) belong to those
    linear parameters, which are eliminated from each step and left
    undamped.  The other diagonal entries are damped by Marquardt's
    scaling.  A step that lowers the cost is taken and the damping
    divided by ten; one that does not, or that would leave the open
    region `inside`, is refused and the damping multiplied by ten.

    Status "converged" when the Gauss-Newton step would lower the cost by
    at most SPECTRUM_RTOL of it, as the linearised model predicts, or
    moves no parameter in floating point; "singular" when a normal matrix
    cannot be solved; "cap" after LM_MAX_STEPS steps tried.  Returns
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
        if decrement <= SPECTRUM_RTOL * cost:
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
               pairs: np.ndarray) -> tuple[float, float, float]:
    """(white, drift, chi-square in adev) of the drift-model fit; see allan_deviation."""
    if tau.size == 1:
        return float(adev[0] * math.sqrt(tau[0])), 0.0, 0.0
    # On adev / 2^k and tau / 2^j (j even) no square over- or underflows,
    # and (a, d) scale back exactly by 2^(k + j/2) and 2^(k - j).
    k = math.frexp(adev.max())[1]
    j = math.frexp(tau.max())[1] // 2 * 2
    y, u = np.ldexp(adev, -k), np.ldexp(tau, -j)
    floored = np.where(y > 0.0, y, y[y > 0.0].min())
    sigma = floored / np.sqrt(pairs)
    weight = 1.0 / (2.0 * floored * sigma)
    design = np.column_stack((1.0 / u, u ** 2)) * weight[:, None]
    gram = design.T @ design
    moment = design.T @ (y ** 2 * weight)
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2
    # Cramer's rule: the unconstrained solution is `solved` / det
    solved = np.array([gram[1, 1] * moment[0] - gram[0, 1] * moment[1],
                       gram[0, 0] * moment[1] - gram[0, 1] * moment[0]])
    if det > 0.0 and np.all(solved >= 0.0):
        params = solved / det
    else:   # row i: the optimum on the face where only part i is free
        faces = np.diag(np.maximum(moment, 0.0) / np.diag(gram))
        params = faces[np.argmax(faces @ moment)]   # the larger drop in cost
    white, drift = math.sqrt(params[0]), math.sqrt(2.0 * params[1])
    r = (_drift_model(u, white, drift) - y) / sigma
    return math.ldexp(white, k + j // 2), math.ldexp(drift, k - j), float(r @ r)


def allan_deviation(series: FrequencySeries, taus) -> AllanResult:
    """Overlapping Allan deviation at the requested tau values.

    Each tau must be positive and finite, and snaps to the nearest
    positive multiple of the sample period; taus with fewer than two
    averaging windows are dropped.
    The (tau, adev) points are then fitted with the quadrature model

        adev(tau) = sqrt((a tau^-1/2)^2 + (d tau / sqrt(2))^2)

    with a >= 0 and d >= 0, and the linear drift rate d is reported.  A
    pure linear drift gives adev = d tau / sqrt(2) exactly.

    The fit is closed-form, with no iteration: adev^2 = A / tau + D tau^2
    is linear in A = a^2 and D = d^2 / 2, fitted by least squares with
    each point weighted by 1 / (2 adev sigma), sigma = adev / sqrt(n_pairs)
    (both adev floored at the smallest positive one), the first-order
    image of weights 1 / sigma on adev.  With A, D >= 0 this convex
    problem's optimum is the unconstrained 2x2 solution when both parts
    are >= 0, and otherwise the cheaper face A = 0 or D = 0.  It is
    formed on adev / 2^k and tau / 2^j, powers of two from the largest
    adev and tau (j even), so no square over- or underflows and (a, d)
    scale exactly with the data and with its time unit.
    fit_residual is the reduced chi-square in adev at the fitted (a, d).
    A single tau cannot separate a from d: it is read as white noise,
    d = 0 and a = adev sqrt(tau), a zero-cost fit.  The fit itself never
    raises; a deviation that overflows raises ValueError before it.
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

    white, drift, chisq = _allan_fit(tau, adev, pairs)
    return AllanResult(tau, adev, pairs, drift, white, chisq / max(tau.size - 2, 1))


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
        inside=lambda p: bool(np.all((lower < p) & (p < upper))))
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
