"""Rabi excitation lineshape of the hyperfine transition.

A square probe pulse of duration tau drives the transition with bare
(carrier, ground-state) Rabi frequency Omega_0.  In the Lamb-Dicke
regime the carrier coupling in motional Fock state n is reduced by the
Laguerre-polynomial factor L_n(eta^2) (normalised to the n = 0
coupling), and a thermal state averages the Fock-state excitation
probabilities with geometric weights.

Detunings are angular (rad/s) and passed beside the pulse, not in it;
durations are seconds.

Every Fock term comes from one kernel, `_excitation`: with
r^2 = Omega_n^2 + delta^2, x = r tau / 2, s = sin x and c = cos x it
gives p_n = Omega_n^2 s^2 / r^2 and, on request from the same pass,
A_n = 2 Omega_n^2 s (s - x c) / r^4, for which dp_n/d delta =
-delta A_n.  `excitation_profile` and the spectrum fit's pass
(`_thermal_sums`) run it over their detunings in blocks of rows that
hold at most TABLE_CHUNK_ELEMENTS elements (or one row), written in
place into one full matrix of p (and one of A), and take each thermal
sum as one matrix-vector product over all rows.  Blocking the
elementwise pass leaves every bit as one pass over the whole grid gives
it (splitting the product would not), and bounds the transient memory
to the matrices themselves.

The shot-by-shot simulator asks for the thermal excitation at a new
detuning on every shot, the estimator's bisection at each probe point.
For both, `_shot_table` tabulates p(|delta|) over the span of |delta|
the estimator's plan names (see `estimator`): p is even in delta, and
the table's nodes are those of a grid over [-h, 2 Omega_0] with pitch
h = 2 pi / (2048 tau) (about 3.07e-3 / tau, 2049 nodes from 0 for a pi
pulse) that cover the span and the cubic's neighbour nodes.  Node -1
holds p(-h), whose Fock terms are p(h)'s bit for bit: the kernel squares
delta.  Each node's p rounds like any thermal sum, within
TABLE_ROUNDING_SLACK, and every read's bound carries that slack, so no
node's last bits reach an output.

Its error bounds come from Bernstein's inequality for entire functions
of exponential type (Boas, Entire Functions, 1954, Thm 11.1.2): if f is
entire of exponential type s and |f| <= M on the real line, then
|f'| <= s M there.  Each Fock term

    p_n(delta) = Omega_n^2 (1 - cos(tau r)) / (2 r^2),
    r = sqrt(Omega_n^2 + delta^2),

is entire in delta (the cosine is even in r and the zero of r^2 is
removable), and |Im r| <= |Im delta| makes it of exponential type tau.
So is the thermal average p, whose weights sum to at most 1, and
p - 1/2 is bounded by 1/2 on the real line.  Applied k times,
|p^(k)| <= tau^k / 2 at every pulse area, nbar and eta.  With
h tau = 2 area / intervals, about 2 pi / 2048 at every tabulated area:

- linear interpolation errs by at most h^2 / 8 max|p''| = (h tau)^2 / 16,
  5.9e-7;
- the Lagrange cubic through nodes i-1 .. i+2, read at x_i + t h with
  0 <= t < 1, errs by at most max|(t+1) t (t-1) (t-2)| h^4 / 24 max|p''''|
  = 3 (h tau)^4 / 256, 1.0e-12 (the maximum 9/16 is at t = 1/2);
- that cubic's derivative errs from p' by at most
  2 h^3 / 24 max|p^(4)| + 9/16 h^4 / 120 max|p^(5)|
  = tau (h tau)^3 / 24 + 3 tau (h tau)^4 / 1280, 1.2e-9 tau: the cubic's
  error e = p[x_i-1, .., x_i+2, x] w(x), w(x) = (t+1) t (t-1) (t-2) h^4,
  has e' = p[x_i-1, .., x_i+2, x, x] w + p[x_i-1, .., x_i+2, x] w', the
  divided differences are p^(5) / 120 and p^(4) / 24 at points between
  the nodes, and |w'| <= 2 h^3 for 0 <= t < 1.

`_tabulated_excitation` reads p and the linear bound off the table, with
an infinite bound outside the span and for pulses too long to tabulate
(area above 4 pi), so that the simulator can fall back to
`thermal_excitation` for every shot the table cannot decide.  The
estimator's bisection reads its probe points with `_cubic_read` under
the cubic bound (see `estimator`), and its slope dg/d delta reads them
with `_cubic_slope` too.  A node's rounding reaches a slope read through
the derivatives of the cubic's weights, L_k'(t) / h with
sum |L_k'(t)| <= 7/3 (at t = 1/2), so a slope read is within
tau (h tau)^3 / 24 + 3 tau (h tau)^4 / 1280 + (7/3) TABLE_ROUNDING_SLACK / h,
about 7.7e-8 tau, of dp/d|delta|: the nodes' slack dominates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
# sum peaks 2.3 MB above them (measured).
MAX_THERMAL_CUTOFF = 10 ** 5
# Largest points x Fock terms (cutoff + 1) of a lineshape table or a
# spectrum fit.  A profile peaks at about 8 B per point and term (its p
# matrix; 32 MB for 401 points at cutoff 10^4), a fit's pass at about
# 16 B (p and A), so 2^24 elements peak near 134 MB, or 268 MB in a fit
# (measured with tracemalloc).
MAX_PROFILE_ELEMENTS = 1 << 24

# Per-shot table (see the module docstring).  Building a table of N
# points costs as much as 0.5 N to 1.7 N exact per-shot sums (measured
# at pulse areas pi, 4 pi and 8 pi with nbar 80, and pi and 4 pi with
# nbar 5000: Fock cutoffs 800 and 50,000).  Capped at 2^13 intervals
# (pulse area 4 pi), a table pays for itself within about 14,000 shots,
# about one default track run of 12,800; longer pulses use the exact
# sum for every shot.
TABLE_INTERVALS_PER_PI = 2048      # table intervals per pi of pulse area
TABLE_MAX_INTERVALS = 1 << 13
TABLE_CHUNK_ELEMENTS = 1 << 14     # rows x Fock terms per kernel block
# Each thermal sum, tabulated or scalar, is within TABLE_ROUNDING_SLACK
# of its exact value: a sum of n terms in [0, 1] with weights summing to
# at most 1 rounds by at most about n 2^-53, 1.1e-11 at MAX_THERMAL_CUTOFF.
# The reads' own rounding (node positions, read position, interpolation
# arithmetic) stays below 1e-14.
TABLE_ROUNDING_SLACK = 1e-10

# `fwhm` bisects each half-maximum crossing to this fraction of the bare
# Rabi frequency, far inside the 0.01 Omega_0 within which the widths
# must meet the reference linewidth endpoints.
FWHM_RESOLUTION = 1e-6

# `fwhm` scans detunings out to this many bare Rabi frequencies, in 100
# steps; `RunConfig.validate` checks that Omega^2 + delta^2 holds there.
FWHM_SCAN_RABI = 5.0

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
    is the pulse length in s.  The probe detuning is not part of the
    pulse: each lineshape function takes it as an argument.
    """

    rabi: float
    duration: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rabi < math.inf:
            raise ValueError("Rabi frequency must be positive and finite")
        if not 0.0 < self.duration < math.inf:
            raise ValueError("pulse duration must be positive and finite")

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
    """Squared Fock-state Rabi frequencies (rabi * |L_n(eta^2)|)^2, for the scalar sum."""
    omega2 = (rabi * _motional_arrays(motion)[1]) ** 2
    omega2.flags.writeable = False
    return omega2


def _excitation(omega2, delta, duration, out=None, slope=None):
    """sin^2 Rabi flop written as om^2/(om^2+d^2) * sin^2(sqrt(om^2+d^2) t/2).

    The one kernel of a Fock term: p_n = om^2 s^2 / r^2, where
    r^2 = om^2 + d^2, x = r t / 2 and s = sin x.  Regular at om = 0 and at
    delta = 0; broadcasts over numpy inputs.  In place: p is written into
    `out` (allocated if None), and no temporaries the size of the grid are
    made beyond total2 and one boolean mask.  The ufuncs and their order
    are those of omega2 * sin(phase)^2 / total2, and so are the bits; where
    total2 overflows, sin(inf) is NaN without a warning.  Where total2 is
    not positive (0, or NaN from a NaN detuning) p is +0.0.

    If `slope` is an array, the same pass also writes into it
    A_n = 2 om^2 s (s - x c) / r^4 with c = cos x, so that
    dp_n/d delta = -delta A_n for any pulse (one more mask, and p's bits
    are as without it).  A is +0.0 where p is, and is divided by r^2
    twice, since r^4 overflows where r^2 need not.
    """
    total2 = omega2 + delta ** 2
    p = np.sqrt(total2, out=out)
    p *= 0.5 * duration
    with np.errstate(invalid="ignore"):
        if slope is not None:
            np.multiply(np.cos(p, out=slope), p, out=slope)
        np.sin(p, out=p)
    positive = total2 > 0.0
    if slope is not None:
        np.subtract(p, slope, out=slope)
        slope *= p
        slope *= 2.0 * omega2
        np.divide(slope, total2, out=slope, where=positive)
        np.divide(slope, total2, out=slope, where=positive)
        np.copyto(slope, 0.0, where=~positive)
    np.square(p, out=p)
    p *= omega2
    np.divide(p, total2, out=p, where=positive)
    np.copyto(p, 0.0, where=np.logical_not(positive, out=positive))
    return p


def thermal_excitation(detuning: float, pulse: PulseSpec, motion: MotionalModel) -> float:
    """Thermal excitation probability after the pulse at a finite detuning (rad/s)."""
    if not math.isfinite(detuning):
        raise ValueError("pulse detuning must be finite")
    weights = _motional_arrays(motion)[0]
    p = _excitation(_omega2(pulse.rabi, motion), detuning, pulse.duration)
    return float(np.dot(weights, p))


def excitation_profile(detunings, pulse: PulseSpec, motion: MotionalModel) -> np.ndarray:
    """`thermal_excitation` vectorised over a detuning array (rad/s)."""
    d = np.asarray(detunings, dtype=float)
    return _thermal_sums(d, pulse, motion)[0].reshape(d.shape)


def _thermal_sums(detunings: np.ndarray, pulse: PulseSpec, motion: MotionalModel,
                  slope: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """(p, G) at each detuning of a 1-d array: p = sum w_n p_n, G = sum w_n A_n.

    G is None unless `slope`.  dp/d delta = -delta G for any pulse; for a
    pi pulse (duration pi/Omega_0) p depends on delta/Omega_0 alone, so
    dp/d Omega_0 = delta^2 G / Omega_0.  The kernel runs in blocks of
    TABLE_CHUNK_ELEMENTS // (cutoff + 1) rows (at least one), and each sum
    is one product over all rows (module docstring).
    """
    d = detunings.reshape(-1, 1)
    weights, ratios = _motional_arrays(motion)
    # formed afresh: each step of a fit has its own Rabi frequency
    omega2 = (pulse.rabi * ratios) ** 2
    rows = max(1, TABLE_CHUNK_ELEMENTS // omega2.size)
    p = np.empty((d.shape[0], omega2.size))
    a = np.empty_like(p) if slope else None
    for i in range(0, d.shape[0], rows):
        _excitation(omega2, d[i:i + rows], pulse.duration, out=p[i:i + rows],
                    slope=a[i:i + rows] if slope else None)
    return p @ weights, (a @ weights if slope else None)


class _ShotTable(NamedTuple):
    """The per-shot table of p(|delta|) over its span and its read bounds."""

    grid: np.ndarray      # delta at the nodes, rad/s (-pitch at node -1)
    values: np.ndarray    # p at the nodes
    floats: tuple         # the same p as Python floats, for scalar reads
    scale: float          # 1 / pitch
    origin: int           # grid[0] / pitch, -1 or more
    linear_bound: float   # on |linear read - thermal_excitation|
    cubic_bound: float    # on |_cubic_read - thermal_excitation|


def _shot_table(pulse: PulseSpec, motion: MotionalModel, lo: float, hi: float
                ) -> _ShotTable | None:
    """The per-shot table over |delta| in [lo, hi], or None above TABLE_MAX_INTERVALS.

    Without a table, callers use the exact sum throughout.  The table
    holds nodes floor(lo / h) - 1 .. floor(hi / h) + 2 of the grid of
    pitch h, the last at most 2 Omega_0: [lo, hi] and the cubic's
    neighbour nodes.  It is built in blocks of rows to bound its memory.
    `floats` serves the estimator's bisection, which reads four entries a
    probe point: indexing the numpy array would box each one.
    """
    area = pulse.rabi * pulse.duration
    intervals = max(1, round(area / math.pi * TABLE_INTERVALS_PER_PI))
    if intervals > TABLE_MAX_INTERVALS:
        return None
    pitch = 2.0 * pulse.rabi / intervals
    rows = max(1, TABLE_CHUNK_ELEMENTS // (motion.n_cutoff + 1))
    first = math.floor(lo / pitch) - 1
    last = min(intervals, math.floor(hi / pitch) + 2)
    grid = np.arange(first, last + 1) * pitch
    values = np.concatenate([excitation_profile(grid[i:i + rows], pulse, motion)
                             for i in range(0, grid.size, rows)])
    grid.flags.writeable = False
    values.flags.writeable = False
    # Bernstein's bounds (module docstring), written in the dimensionless
    # h tau so that they cannot overflow.  Rounding: a read weights the
    # table's sums by coefficients whose absolute values add up to 1
    # (linear) or 1 + t (1 - t) <= 1.25 (cubic), and the scalar sum it
    # stands for rounds by one slack more.
    h_tau = 2.0 * area / intervals
    return _ShotTable(grid, values, tuple(values.tolist()), 1.0 / pitch, first,
                      h_tau ** 2 / 16.0 + 2.0 * TABLE_ROUNDING_SLACK,
                      3.0 * h_tau ** 4 / 256.0 + 2.25 * TABLE_ROUNDING_SLACK)


def _cubic_read(floats: tuple, u: float) -> float:
    """p at u pitches by the Lagrange cubic through nodes i-1 .. i+2, i = int(u).

    u counts from floats[0].  A read whose four nodes are not all in the
    table raises ValueError.  Written as the linear read plus t (t - 1) / 6
    times the second differences at nodes i and i+1 weighted (2 - t, t + 1),
    t = u - i.
    """
    i = int(u)
    t = u - i
    a, b, c, d = floats[i - 1:i + 3] if i > 0 else ()
    return b + t * (c - b) + t * (t - 1.0) / 6.0 * (
        (2.0 - t) * (a - 2.0 * b + c) + (t + 1.0) * (b - 2.0 * c + d))


def _cubic_slope(floats: tuple, u: float) -> float:
    """dp/du at u pitches: the derivative of `_cubic_read`'s cubic there.

    It takes the same nodes i-1 .. i+2, i = int(u), and raises ValueError
    where `_cubic_read` does.  Per pitch: times the table's scale it is
    dp/d|delta|.
    """
    i = int(u)
    t = u - i
    a, b, c, d = floats[i - 1:i + 3] if i > 0 else ()
    second_i, second_next = a - 2.0 * b + c, b - 2.0 * c + d
    return c - b + ((2.0 * t - 1.0) * ((2.0 - t) * second_i + (t + 1.0) * second_next)
                    + t * (t - 1.0) * (second_next - second_i)) / 6.0


def _tabulated_excitation(detunings: np.ndarray, table: _ShotTable | None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """(p, bound on |p - thermal_excitation|) at each detuning.

    p is interpolated in the per-shot table; the bound is infinite outside
    its span and everywhere without a table, so a caller that recomputes
    every entry within its bound gets the exact thermal sum there.
    """
    if table is None:
        return np.zeros(detunings.shape), np.full(detunings.shape, np.inf)
    magnitude = np.abs(detunings)
    inside = (magnitude >= table.grid[0]) & (magnitude <= table.grid[-1])
    return (np.interp(magnitude, table.grid, table.values),
            np.where(inside, table.linear_bound, np.inf))


def fwhm(motion: MotionalModel, pulse: PulseSpec) -> float:
    """Full width at half maximum of the thermal line, rad/s.

    Scans positive detunings, checks the peak is at zero detuning, and
    bisects the half-maximum crossing to FWHM_RESOLUTION times the bare
    Rabi frequency.  One side suffices: p depends on delta only through
    delta ** 2, and (-x) ** 2 == x ** 2 bit for bit, so the negative
    side's scan and bisection would repeat these exactly, and the width
    is lo + hi, twice the crossing.
    """
    omega = pulse.rabi
    peak = float(excitation_profile(np.array([0.0]), pulse, motion)[0])
    if peak <= 0.0:
        raise ValueError("no excitation at zero detuning; not a usable line")
    half = 0.5 * peak
    step = FWHM_SCAN_RABI / 100 * omega
    grid = np.arange(1, 101) * step
    values = excitation_profile(grid, pulse, motion)
    if np.any(values > peak):
        raise ValueError("line peak is not at zero detuning")
    below = np.nonzero(values < half)[0]
    if below.size == 0:
        raise ValueError(f"no half-maximum crossing within {FWHM_SCAN_RABI:g} Rabi widths")
    k = below[0]
    lo = grid[k - 1] if k > 0 else 0.0
    hi = grid[k]
    while hi - lo > FWHM_RESOLUTION * omega:
        mid = 0.5 * (lo + hi)
        if float(excitation_profile(np.array([mid]), pulse, motion)[0]) < half:
            hi = mid
        else:
            lo = mid
    return float(lo + hi)


def compute_eta(env: TrapEnvironment, species: IonSpecies) -> float:
    """Lamb-Dicke parameter of the gradient coupling to the axial mode.

    eta = (d nu/d z) * z0 / omega_z with the ground-state extent
    z0 = sqrt(hbar / (2 m omega_z)); the frequency/position slope is
    evaluated at the environment's offset field.
    """
    slope = frequency_to_position_slope(env, species)
    z0 = math.sqrt(CODATA.hbar / (2.0 * species.mass * env.omega_z))
    eta = abs(slope) * z0 / env.omega_z
    if eta >= 1.0:
        raise ValueError("computed eta >= 1: outside the Lamb-Dicke regime")
    return eta
