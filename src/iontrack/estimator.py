"""Two-point resonance-frequency estimator.

The transition is probed alternately at nu0 +/- kappa*Omega_0, near the
half-maximum points of the line.  The normalised asymmetry

    g = (P+ - P-) / (P+ + P-)

is an odd, strictly increasing function of the true offset
delta = nu - nu0 inside the capture window |delta| <= (1-kappa)*Omega_0
and is inverted numerically to give the frequency estimate.  Binomial
counting noise is propagated through g and the local slope dg/ddelta.

Each bisection step of `g_invert` only asks whether g(mid) < g.  The
probe points |mid -+ kappa Omega_0| <= Omega_0 lie inside the span of
the per-shot table of `lineshape`, and `lineshape._cubic_read` gives
each P from the four nodes around it within the table's cubic bound
eps = 3 (h tau)^4 / 256 + 2.25 TABLE_ROUNDING_SLACK, about 2.3e-10 at
every pulse area (Bernstein's inequality, |P''''| <= tau^4 / 2; see
`lineshape`).  With e+- = P~+- - P+- and S = P+ + P-,

    g~ - g = 2 (e+ P- - e- P+) / (S~ S),   so   |g~ - g| <= 2 eps / S~,

and S~ > 2 eps makes S > 0.  A step is decided from g~ only when g~
clears g by more than that bound plus DECISION_SLACK for rounding; any
other step calls the exact `g_forward`, and so does every step of a
pulse too long to tabulate (above 4 pi) or of a table with fewer than
the 4 intervals the cubic's nodes need.  So every decision, and every
estimate, is the one the exact bisection makes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .lineshape import (MotionalModel, PulseSpec, _cubic_read, _shot_table,
                        thermal_excitation)

__all__ = [
    "TwoPointConfig",
    "EstimateResult",
    "NoSignalError",
    "probe_probabilities",
    "g_forward",
    "g_slope",
    "g_invert",
    "binomial_variance",
    "estimate_from_counts",
    "analytic_sigma",
]

INVERSION_TOLERANCE = 1e-6   # of Omega_0
SLOPE_STEP = 1e-3            # of Omega_0, central difference

DECISION_SLACK = 1e-12       # of g: rounding in g~ and g, a few 1e-16 each

@dataclass(frozen=True)
class TwoPointConfig:
    """Probe placement and statistics for the two-point protocol."""

    pulse: PulseSpec
    motion: MotionalModel
    kappa: float = 0.8
    shots_per_side: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must be in (0, 1)")
        if self.shots_per_side < 1:
            raise ValueError("shots_per_side must be at least 1")

    @property
    def window_halfwidth(self) -> float:
        """Capture half-window (1 - kappa) * Omega_0, rad/s."""
        return (1.0 - self.kappa) * self.pulse.rabi


def probe_probabilities(delta: float, cfg: TwoPointConfig) -> tuple[float, float]:
    """Noise-free excitation (P+, P-) at the two probe points, truth at delta."""
    off = cfg.kappa * cfg.pulse.rabi
    return (thermal_excitation(delta - off, cfg.pulse, cfg.motion),
            thermal_excitation(delta + off, cfg.pulse, cfg.motion))


def g_forward(delta: float, cfg: TwoPointConfig) -> float:
    """Noise-free asymmetry g(delta) for a true offset delta (rad/s)."""
    p_plus, p_minus = probe_probabilities(float(delta), cfg)
    total = p_plus + p_minus
    if total <= 0.0:
        raise ValueError("zero excitation at both probe points")
    return (p_plus - p_minus) / total


def g_slope(delta: float, cfg: TwoPointConfig) -> float:
    """dg/ddelta by central difference with step 1e-3 * Omega_0, 1/(rad/s)."""
    h = SLOPE_STEP * cfg.pulse.rabi
    return (g_forward(delta + h, cfg) - g_forward(delta - h, cfg)) / (2.0 * h)


@lru_cache(maxsize=64)
def _window_edges(pulse: PulseSpec, motion: MotionalModel,
                  kappa: float) -> tuple[float, float, float]:
    """(w, g(-w), g(w)) at the capture-window edges w = (1 - kappa) Omega_0."""
    cfg = TwoPointConfig(pulse=pulse, motion=motion, kappa=kappa)
    w = cfg.window_halfwidth
    return w, g_forward(-w, cfg), g_forward(w, cfg)


def _certified_below(mid: float, off: float, g_value: float,
                     floats: tuple, scale: float, eps: float) -> bool | None:
    """g(mid) < g_value decided from the table, or None if it cannot be.

    The probe points |mid -+ off| <= Omega_0 lie in the first half of
    the table's span [0, 2 Omega_0], so with at least 4 intervals the
    cubic's nodes exist.
    """
    p_plus = _cubic_read(floats, abs(mid - off) * scale)
    p_minus = _cubic_read(floats, abs(mid + off) * scale)
    total = p_plus + p_minus
    if total <= 2.0 * eps:
        return None
    gap = (p_plus - p_minus) / total - g_value
    margin = 2.0 * eps / total + DECISION_SLACK
    if gap < -margin:
        return True
    if gap > margin:
        return False
    return None


def g_invert(g_value: float, cfg: TwoPointConfig) -> tuple[float, bool]:
    """Invert g on the capture window by bisection.

    Returns (delta, in_window).  Values of g beyond the window edges
    clamp to the corresponding edge with in_window = False; clamping is
    a flagged result, not an error.  Resolution is 1e-6 * Omega_0.
    Each step is decided from the per-shot table's cubic read when the
    bound 2 eps / S~ certifies it and by `g_forward` otherwise (see the
    module docstring), so the result is the exact bisection's.
    """
    g_value = float(g_value)
    w, g_lo, g_hi = _window_edges(cfg.pulse, cfg.motion, cfg.kappa)
    if g_value >= g_hi:
        return w, g_value <= g_hi
    if g_value <= g_lo:
        return -w, g_value >= g_lo
    table = _shot_table(cfg.pulse, cfg.motion)
    if table is None or len(table.floats) < 5:    # the cubic needs 4 intervals
        read = None
    else:
        read = table.floats, table.scale, table.cubic_bound
    off = cfg.kappa * cfg.pulse.rabi
    lo, hi = -w, w
    tol = INVERSION_TOLERANCE * cfg.pulse.rabi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        below = None if read is None else _certified_below(mid, off, g_value, *read)
        if below is None:
            below = g_forward(mid, cfg) < g_value
        if below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


def binomial_variance(p_hat: float, shots: int) -> float:
    """Variance of a binomial proportion estimate.

    p_hat(1-p_hat)/shots, with the rule-of-three style surrogate
    1/(shots+2) replacing p_hat(1-p_hat) when every shot came out the
    same way (otherwise saturated counts would claim zero error).
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    prod = p_hat * (1.0 - p_hat)
    if prod == 0.0:
        prod = 1.0 / (shots + 2.0)
    return prod / shots


def _propagate_g_sigma(p_plus: float, p_minus: float,
                       var_plus: float, var_minus: float) -> float:
    total = p_plus + p_minus
    dg_dplus = 2.0 * p_minus / total ** 2
    dg_dminus = -2.0 * p_plus / total ** 2
    return math.sqrt((dg_dplus ** 2) * var_plus + (dg_dminus ** 2) * var_minus)


class NoSignalError(ValueError):
    """Both probe sides returned zero bright events: nothing to invert."""


@dataclass(frozen=True)
class EstimateResult:
    """One two-point frequency estimate."""

    delta: float          # estimated offset from nu0, rad/s
    sigma_delta: float    # propagated standard error, rad/s
    g_measured: float
    in_window: bool
    p_plus: float
    p_minus: float


def estimate_from_counts(counts_plus: int, counts_minus: int,
                         cfg: TwoPointConfig) -> EstimateResult:
    """Estimate the frequency offset from bright counts on each side."""
    n = cfg.shots_per_side
    for c in (counts_plus, counts_minus):
        if not 0 <= c <= n:
            raise ValueError("counts must be between 0 and shots_per_side")
    if counts_plus == 0 and counts_minus == 0:
        raise NoSignalError(
            "no bright events on either side: no signal to invert")
    p_plus = counts_plus / n
    p_minus = counts_minus / n
    g = (p_plus - p_minus) / (p_plus + p_minus)
    delta, in_window = g_invert(g, cfg)
    sigma_g = _propagate_g_sigma(
        p_plus, p_minus,
        binomial_variance(p_plus, n), binomial_variance(p_minus, n),
    )
    slope = g_slope(delta, cfg)
    sigma_delta = sigma_g / abs(slope)
    return EstimateResult(
        delta=delta,
        sigma_delta=sigma_delta,
        g_measured=g,
        in_window=in_window,
        p_plus=p_plus,
        p_minus=p_minus,
    )


def analytic_sigma(cfg: TwoPointConfig, delta: float) -> float:
    """Projection-noise standard error of the offset estimate, rad/s.

    Uses the noise-free probe probabilities at the true offset, exact
    binomial variances, and the local slope dg/ddelta.  Valid at any
    offset where the slope is non-zero, including outside the capture
    window (there it describes the locally linearised estimate).
    """
    p_plus, p_minus = probe_probabilities(float(delta), cfg)
    if p_plus + p_minus <= 0.0:
        raise ValueError("zero excitation at both probe points")
    sigma_g = _propagate_g_sigma(
        p_plus, p_minus,
        p_plus * (1.0 - p_plus) / cfg.shots_per_side,
        p_minus * (1.0 - p_minus) / cfg.shots_per_side,
    )
    return sigma_g / abs(g_slope(float(delta), cfg))

