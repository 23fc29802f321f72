"""Rabi excitation lineshape of the hyperfine transition.

A square probe pulse of duration tau drives the transition with bare
(carrier, ground-state) Rabi frequency Omega_0.  In the Lamb-Dicke
regime the carrier coupling in motional Fock state n is reduced by the
Laguerre-polynomial factor L_n(eta^2) (normalised to the n = 0
coupling), and a thermal state averages the Fock-state excitation
probabilities with geometric weights.

Detunings are angular (rad/s), durations are seconds.

The shot-by-shot simulator asks for the thermal excitation at a new
detuning on every shot.  For that path `_shot_table` tabulates p(|delta|)
once per (Omega_0, duration, motion): p is even in delta, the table
spans [0, 2 Omega_0] with pitch 2 pi / (2048 duration) (about
3.07e-3 / duration, 2049 points for a pi pulse), and linear
interpolation errs by at most pitch^2 / 8 * max|p''| with
|p''| <= (2/3) (duration/2)^4 sum_n w_n Omega_n^2 (at most 4.9e-7 for
a pi pulse).  `_tabulated_excitation` reads p and that bound off the
table, with an infinite bound beyond the span and for pulses too long
to tabulate (area above 4 pi), so that the simulator can fall back to
`thermal_excitation` for every shot the table cannot decide.  The
estimator's bisection reads the same table and bound for its probe
points (see `estimator`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .atomphys import CODATA, IonSpecies, TrapEnvironment, frequency_to_position_slope

__all__ = [
    "PulseSpec",
    "MotionalModel",
    "thermal_excitation",
    "excitation_profile",
    "fwhm",
    "compute_eta",
    "LINEWIDTH_CALIBRATED_ETA",
]

# The thermal average runs over n <= max(THERMAL_CUTOFF_FACTOR * nbar,
# MIN_THERMAL_CUTOFF).  The weights it leaves out sum to
# (nbar/(nbar+1))^(cutoff+1): at most 1.6e-4 (near nbar = 3), falling to
# e^-10 = 4.5e-5 at large nbar.
THERMAL_CUTOFF_FACTOR = 10
MIN_THERMAL_CUTOFF = 30
# Largest cutoff, so nbar <= 10^4, that a MotionalModel accepts.  At the
# cap the cached weights and couplings hold 3.8 MB and a scalar thermal
# sum peaks 2.3 MB above them (measured); a profile holds about 32 B per
# point and Fock term (127 MB for 401 points at cutoff 10^4), so a
# 401-point lineshape at the cap takes about 1.3 GB.
MAX_THERMAL_CUTOFF = 10 ** 5

# Per-shot table (see the module docstring).  Building a table of N
# points costs as much as 0.5 N to 1.7 N exact per-shot sums (measured
# at pulse areas pi, 4 pi and 8 pi with nbar 80, and pi and 4 pi with
# nbar 5000: Fock cutoffs 800 and 50,000).  Capped at 2^13 intervals
# (pulse area 4 pi), a table pays for itself within about 14,000 shots,
# about one default track run of 12,800; longer pulses use the exact
# sum for every shot.
TABLE_INTERVALS_PER_PI = 2048      # table intervals per pi of pulse area
TABLE_MAX_INTERVALS = 1 << 13
TABLE_CHUNK_ELEMENTS = 1 << 14     # rows x Fock terms per excitation_profile call
TABLE_ROUNDING_SLACK = 1e-10       # table and scalar sums differ by rounding only

# `fwhm` bisects each half-maximum crossing to this fraction of the bare
# Rabi frequency, far inside the 0.01 Omega_0 within which the widths
# must meet the reference linewidth endpoints.
FWHM_RESOLUTION = 1e-6

# Effective Lamb-Dicke parameter calibrated against the reference
# linewidth endpoints (FWHM 1.602 Omega_0 at nbar = 20, 1.62 Omega_0 at
# nbar = 100).  The trap-derived value from compute_eta (~0.041)
# overestimates that broadening; use this override when matching
# measured linewidths rather than trap geometry.
LINEWIDTH_CALIBRATED_ETA = 0.026


@dataclass(frozen=True)
class PulseSpec:
    """A single square interrogation pulse.

    rabi is the bare (n = 0) Rabi frequency Omega_0 in rad/s, duration
    is the pulse length in s, detuning is the probe offset from the
    transition in rad/s (positive means the probe is above resonance).
    """

    rabi: float
    duration: float
    detuning: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.rabi < math.inf:
            raise ValueError("Rabi frequency must be positive and finite")
        if not 0.0 < self.duration < math.inf:
            raise ValueError("pulse duration must be positive and finite")
        if not math.isfinite(self.detuning):
            raise ValueError("pulse detuning must be finite")

    @classmethod
    def pi_pulse(cls, rabi: float) -> "PulseSpec":
        """Pulse with duration pi/Omega_0: full transfer on resonance."""
        return cls(rabi=rabi, duration=math.pi / rabi)


@dataclass(frozen=True)
class MotionalModel:
    """Thermal motional state of the axial mode.

    nbar is the mean phonon number, eta the Lamb-Dicke parameter of the
    gradient-induced coupling.  The thermal average runs over
    n <= max(THERMAL_CUTOFF_FACTOR * nbar, MIN_THERMAL_CUTOFF), at most
    MAX_THERMAL_CUTOFF.
    """

    nbar: float
    eta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.nbar < math.inf:
            raise ValueError("nbar must be finite and non-negative")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must be in [0, 1)")
        if not math.isfinite(THERMAL_CUTOFF_FACTOR * self.nbar):
            raise ValueError(f"{THERMAL_CUTOFF_FACTOR} * nbar overflows")
        if self.nbar > MAX_THERMAL_CUTOFF / THERMAL_CUTOFF_FACTOR:
            raise ValueError(f"nbar = {self.nbar!r} needs a thermal cutoff above "
                             f"{MAX_THERMAL_CUTOFF} Fock states")

    @property
    def n_cutoff(self) -> int:
        return max(int(round(THERMAL_CUTOFF_FACTOR * self.nbar)), MIN_THERMAL_CUTOFF)


def _laguerre_sequence(n_max: int, x: float) -> np.ndarray:
    """L_0(x) .. L_n_max(x) by the stable three-term recurrence."""
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 - x
        for k in range(1, n_max):
            out[k + 1] = ((2.0 * k + 1.0 - x) * out[k] - k * out[k - 1]) / (k + 1.0)
    return out


@lru_cache(maxsize=128)
def _motional_arrays(motion: MotionalModel) -> tuple[np.ndarray, np.ndarray]:
    """(thermal weights, |L_n(eta^2)| coupling ratios) up to the cutoff."""
    n = np.arange(motion.n_cutoff + 1)
    q = motion.nbar / (motion.nbar + 1.0)
    weights = np.power(q, n) / (motion.nbar + 1.0)
    ratios = np.abs(_laguerre_sequence(motion.n_cutoff, motion.eta ** 2))
    weights.flags.writeable = False
    ratios.flags.writeable = False
    return weights, ratios


@lru_cache(maxsize=128)
def _omega2(rabi: float, motion: MotionalModel) -> np.ndarray:
    """Squared Fock-state Rabi frequencies (rabi * |L_n(eta^2)|)^2."""
    omega2 = (rabi * _motional_arrays(motion)[1]) ** 2
    omega2.flags.writeable = False
    return omega2


def _excitation(omega2, delta, duration):
    """sin^2 Rabi flop written as om^2/(om^2+d^2) * sin^2(sqrt(om^2+d^2) t/2).

    Regular at om = 0 and at delta = 0; broadcasts over numpy inputs.
    """
    total2 = omega2 + delta ** 2
    phase = np.sqrt(total2) * (0.5 * duration)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = omega2 * np.sin(phase) ** 2 / total2
    return np.where(total2 > 0.0, p, 0.0)


def thermal_excitation(pulse: PulseSpec, motion: MotionalModel) -> float:
    """Thermally averaged excitation probability after the pulse."""
    weights = _motional_arrays(motion)[0]
    p = _excitation(_omega2(pulse.rabi, motion), pulse.detuning, pulse.duration)
    return float(np.dot(weights, p))


def excitation_profile(detunings, pulse: PulseSpec, motion: MotionalModel) -> np.ndarray:
    """`thermal_excitation` vectorised over a detuning array (rad/s)."""
    d = np.asarray(detunings, dtype=float)
    weights = _motional_arrays(motion)[0]
    p = _excitation(_omega2(pulse.rabi, motion)[None, :], d.reshape(-1, 1), pulse.duration)
    return (p @ weights).reshape(d.shape)


@lru_cache(maxsize=16)
def _shot_table(rabi: float, duration: float, motion: MotionalModel):
    """(grid, p on the grid, interpolation error bound, p, 1 / pitch) over [0, 2 rabi].

    The second p is a tuple of Python floats for the estimator's
    bisection, which reads two entries a step: indexing the numpy array
    would box each one.  None above TABLE_MAX_INTERVALS intervals;
    callers then use the exact sum throughout.  The rows are evaluated
    TABLE_CHUNK_ELEMENTS Fock terms at a time.
    """
    area = rabi * duration
    intervals = max(1, round(area / math.pi * TABLE_INTERVALS_PER_PI))
    if intervals > TABLE_MAX_INTERVALS:
        return None
    pitch = 2.0 * rabi / intervals
    grid = np.arange(intervals + 1) * pitch
    pulse = PulseSpec(rabi=rabi, duration=duration)
    rows = max(1, TABLE_CHUNK_ELEMENTS // (motion.n_cutoff + 1))
    values = np.concatenate([excitation_profile(grid[i:i + rows], pulse, motion)
                             for i in range(0, grid.size, rows)])
    grid.flags.writeable = False
    values.flags.writeable = False
    # pitch^2 / 8 * max|p''| with |p''| <= (2/3) (duration/2)^4 sum_n w_n Omega_n^2,
    # written in the dimensionless pulse area so that it cannot overflow
    weights, ratios = _motional_arrays(motion)
    curvature = float(np.dot(weights, (0.5 * area * ratios) ** 2))
    bound = (area / intervals) ** 2 / 12.0 * curvature
    return grid, values, bound + TABLE_ROUNDING_SLACK, tuple(values.tolist()), 1.0 / pitch


def _tabulated_excitation(detunings: np.ndarray, pulse: PulseSpec,
                          motion: MotionalModel) -> tuple[np.ndarray, np.ndarray]:
    """(p, bound on |p - thermal_excitation|) at each detuning.

    p is interpolated in the per-shot table; the bound is infinite
    beyond the table's span and everywhere when no table is built, so
    a caller that recomputes every entry within its bound gets the
    exact thermal sum there.
    """
    table = _shot_table(pulse.rabi, pulse.duration, motion)
    if table is None:
        return np.zeros(detunings.shape), np.full(detunings.shape, np.inf)
    grid, values, bound = table[:3]
    magnitude = np.abs(detunings)
    return (np.interp(magnitude, grid, values),
            np.where(magnitude <= grid[-1], bound, np.inf))


def fwhm(motion: MotionalModel, pulse: PulseSpec) -> float:
    """Full width at half maximum of the thermal line, rad/s.

    Scans detuning about zero, checks the peak is at zero detuning, and
    bisects the half-maximum crossing on each side to FWHM_RESOLUTION
    times the bare Rabi frequency.
    """
    omega = pulse.rabi

    def profile(deltas):
        return excitation_profile(deltas, replace(pulse, detuning=0.0), motion)

    peak = float(profile(np.array([0.0]))[0])
    if peak <= 0.0:
        raise ValueError("no excitation at zero detuning; not a usable line")
    half = 0.5 * peak
    step = 0.05 * omega
    grid = np.arange(1, 101) * step          # out to 5 Omega_0
    widths = []
    for side in (+1.0, -1.0):
        values = profile(side * grid)
        if np.any(values > peak):
            raise ValueError("line peak is not at zero detuning")
        below = np.nonzero(values < half)[0]
        if below.size == 0:
            raise ValueError("no half-maximum crossing within 5 Rabi widths")
        k = below[0]
        lo = grid[k - 1] if k > 0 else 0.0
        hi = grid[k]
        while hi - lo > FWHM_RESOLUTION * omega:
            mid = 0.5 * (lo + hi)
            if float(profile(np.array([side * mid]))[0]) < half:
                hi = mid
            else:
                lo = mid
        widths.append(0.5 * (lo + hi))
    return float(sum(widths))


def compute_eta(env: TrapEnvironment, species: IonSpecies, *,
                variant: str = "standard") -> float:
    """Lamb-Dicke parameter of the gradient coupling to the axial mode.

    eta = (d nu/d z) * z0 / omega_z with the ground-state extent
    z0 = sqrt(hbar / (2 m omega_z)); the frequency/position slope is
    evaluated at the environment's offset field.
    """
    slope = frequency_to_position_slope(env, species, variant=variant)
    z0 = math.sqrt(CODATA.hbar / (2.0 * species.mass * env.omega_z))
    eta = abs(slope) * z0 / env.omega_z
    if eta >= 1.0:
        raise ValueError("computed eta >= 1: outside the Lamb-Dicke regime")
    return eta
