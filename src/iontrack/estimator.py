"""Two-point resonance-frequency estimator.

The transition is probed alternately at nu0 +/- kappa*Omega_0, near the
half-maximum points of the line.  The normalised asymmetry

    g = (P+ - P-) / (P+ + P-)

is an odd, strictly increasing function of the true offset
delta = nu - nu0 inside the capture window |delta| <= (1-kappa)*Omega_0
and is inverted numerically to give the frequency estimate.  Binomial
counting noise is propagated through g and the local slope dg/ddelta.

Each bisection step of `g_invert` only asks whether g(mid) < g.  Each x
at which an inversion reads g~, the band ends r -+ tol / 4 below
included, lies within tol / 4 of the window, so its probe points
|x -+ kappa Omega_0| lie in [max(0, (2 kappa - 1) Omega_0 - tol / 4),
Omega_0 + tol / 4]: `_plan` tabulates p over that span, plus the
cubic's neighbour nodes, with `lineshape._shot_table`, and
`lineshape._cubic_read` gives each P from the four nodes around it (and
raises for a read off the table) within the table's cubic bound
eps = 3 (h tau)^4 / 256 + 2.25 TABLE_ROUNDING_SLACK, about 2.3e-10 at
every pulse area (Bernstein's inequality, |P''''| <= tau^4 / 2; see
`lineshape`).  With e+- = P~+- - P+- and S = P+ + P-,

    g~ - g = 2 (e+ P- - e- P+) / (S~ S),   so   |g~ - g| <= 2 eps / S~,

and S~ > 2 eps makes S > 0.  A step is decided from g~ only when g~
clears g by more than that bound plus DECISION_SLACK for rounding; any
other step calls the exact `g_forward`, and so does every step of a
pulse too long to tabulate (above 4 pi) or of a table with fewer than
the 5 nodes the cubic needs.  So every decision, and every estimate,
is the one the exact bisection makes.

Most steps need no read at all.  Once per (pulse, motion, kappa), `_plan`
derives all an inversion needs from them, builds the table and certifies
from it that g is strictly increasing on the whole window: a lower bound
on g' over each grid cell, from g~ at the cell's nodes and Bernstein's
bound on g''.  Each inversion then interpolates g~'s root r in the grid
cell that brackets g and keeps the band (r - D, r + D), D = tol / 4,
only if the certified decisions at its ends are "below" and "not below".
As g increases, every midpoint at or below r - D has g(mid) <= g(r - D),
below the target by more than DECISION_SLACK, so the exact bisection
goes up there too; likewise above r + D.  The bisection keeps its own
arithmetic and reads the table only for midpoints inside the band: about
5 cubic reads per inversion instead of 38.  Without a certificate (no
usable table, or g falling in the window, as at 3 pi and nbar 80) or
with an undecided end, the band is (-inf, inf) and every step runs as above.

The standard error divides the propagated sigma_g by |g'|, where
g' = dg/ddelta = 2 (a' b - a b') / S^2 with a = P+, b = P- and a', b'
their slopes in delta (`g_slope`).  Inside the window, with a table,
all four come from the plan's table: a~ and b~ within eps by
`_cubic_read`, a~' and b~' within eps' = tau (h tau)^3 / 24
+ 3 tau (h tau)^4 / 1280 + (7/3) TABLE_ROUNDING_SLACK / h, about
7.7e-8 tau, by `lineshape._cubic_slope` (see `lineshape`).  Then, with
S_lo = S~ - 2 eps > 0 and N~ = a~' b~ - a~ b~',

    |g~' - g'| <= 2 (eps' (S~ + 2 eps) + eps (|a~'| + |b~'|)) / S_lo^2
                  + 8 eps |N~| (S~ + eps) / (S~^2 S_lo^2),

about 1.5e-7 tau / S~ where S~ is not small, against |g'| <= tau / S;
over the default window the table's slope is within 3.4e-10 of g'.
`g_slope` takes g~' only where |g~'| exceeds that bound, as it does by
a factor of 3.5e6 or more over the default window.  Outside the window,
without a table, where S~ <= 2 eps and where |g~'| is within its bound
(where g is flat, as at delta = 0 when kappa -> 0), one exact kernel
pass (`lineshape._thermal_sums`) gives a, b and G at both probe points,
with dp/ddelta = -delta G.  The slope feeds sigma alone, never a
decision, so neither path moves an estimate.
"""
from __future__ import annotations

import bisect
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lineshape import (MotionalModel, PulseSpec, _cubic_read, _cubic_slope, _shot_table,
                        _ShotTable, _thermal_sums, thermal_excitation)

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
    """dg/ddelta at a true offset delta (rad/s), 1/(rad/s).

    g' = 2 (a' b - a b') / S^2 with a = P+, b = P- and S = a + b.  Inside
    the capture window the four come from the plan's table wherever the
    table's g~' exceeds the module docstring's bound on |g~' - g'|.
    Elsewhere (outside the window, without a table, where the table
    cannot prove S > 0, and where g~' may be rounding alone) they come
    from one exact kernel pass.
    """
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError("pulse detuning must be finite")
    w, _g_lo, _g_hi, off, _tol, table, _grid = _plan(cfg.pulse, cfg.motion, cfg.kappa)
    if table is not None and abs(delta) <= w:
        (a, slope_a), (b, slope_b) = (_table_probe(x, table) for x in (delta - off, delta + off))
        total, eps = a + b, table.cubic_bound
        low = total - 2.0 * eps
        if low > 0.0:
            numerator = slope_a * b - a * slope_b
            slope = 2.0 * numerator / total ** 2
            # the module docstring's bound on |slope - g'|, divided by low
            # twice: low ** 2 may underflow
            error = (2.0 * (table.slope_bound * (total + 2.0 * eps)
                            + eps * (abs(slope_a) + abs(slope_b))) / low / low
                     + 8.0 * eps * abs(numerator) * (total + eps) / total ** 2 / low / low)
            if abs(slope) > error:
                return slope
    p, sums = _thermal_sums(np.array([delta - off, delta + off]), cfg.pulse, cfg.motion,
                            slope=True)
    (a, b), (sum_a, sum_b) = p.tolist(), sums.tolist()
    if a + b <= 0.0:
        raise ValueError("zero excitation at both probe points")
    # dp/ddelta = -delta G at each probe point
    return 2.0 * ((delta + off) * sum_b * a - (delta - off) * sum_a * b) / (a + b) ** 2


def _table_probe(x: float, table: _ShotTable) -> tuple[float, float]:
    """(p, dp/ddelta) at detuning x from the table's cubic: p is even in x."""
    u = abs(x) * table.scale - table.origin
    slope = _cubic_slope(table.floats, u) * table.scale
    return _cubic_read(table.floats, u), (-slope if x < 0.0 else slope)


def _table_g(x: float, off: float, table: _ShotTable) -> tuple[float, float, float] | None:
    """(g~, e, S~) at x from the table's cubic reads, with |g~ - g(x)| <= e,
    or None where S~ <= 2 eps leaves S > 0 unproven."""
    p_plus = _cubic_read(table.floats, abs(x - off) * table.scale - table.origin)
    p_minus = _cubic_read(table.floats, abs(x + off) * table.scale - table.origin)
    total = p_plus + p_minus
    if total <= 2.0 * table.cubic_bound:
        return None
    return (p_plus - p_minus) / total, 2.0 * table.cubic_bound / total + DECISION_SLACK, total


def _certified_below(mid: float, off: float, g_value: float, table: _ShotTable) -> bool | None:
    """g(mid) < g_value decided from the table, or None if it cannot be."""
    table_g = _table_g(mid, off, table)
    if table_g is not None:
        gap, margin = table_g[0] - g_value, table_g[1]
        if gap < -margin:
            return True
        if gap > margin:
            return False
    return None


_Plan = namedtuple("_Plan", "w g_lo g_hi off tol table grid")


@lru_cache(maxsize=16)
def _plan(pulse: PulseSpec, motion: MotionalModel, kappa: float) -> _Plan:
    """(w, g(-w), g(w), off, tol, table, grid): what `g_invert` takes from its config.

    w = (1 - kappa) Omega_0 is the capture-window edge, off = kappa Omega_0
    the probe offset and tol the bisection's resolution.  g(-w) and g(w)
    are NaN when an edge has no excitation at both probe points, and
    `g_invert` raises.  table is the per-shot table over the span the
    inversion reads (module docstring), which the simulator takes from
    here too: this is the one cache that holds a table.  Its nodes lie
    at origin, origin + 1, ... pitches, origin >= -1, so a read at u
    pitches takes its floats at u - origin.  That is exact for origin >= 0
    (an integer <= u < 2^53); for origin -1 it rounds by at most half an
    ulp of u, about 5e-13 pitch or 1e-15 of p, inside the 1e-14 of read
    rounding `lineshape` allows.  A read off the table raises.  table is
    None without a table (pulse area above 4 pi) or with fewer than the
    5 nodes the cubic needs.

    grid is (x, g~) on a grid over [-w, w] where g is certified
    increasing, else None.  It has at least one node per table pitch.
    Cell j, of width s, has g~ at both nodes within e (`_table_g`) of g,
    and |S'| <= tau on it, so S >= min S~ - 2 eps - s tau there.  From
    a = p(x - off), b = p(x + off) >= 0 and |p^(k)| <= tau^k / 2,

        g'' = 2 (a'' b - a b'') / S^2 - 4 S' (a' b - a b') / S^3,
        |g''| <= tau^2 (1 / S + 2 / S^2),

    and the secant slope of g over the cell is g' somewhere in it, so
    g' > 0 on the cell when dg~ - e_j - e_j+1 > s^2 max|g''|.  grid is
    None without a table or when a cell fails that test (g may really
    fall there, as at 3 pi).
    """
    cfg = TwoPointConfig(pulse=pulse, motion=motion, kappa=kappa)
    w = cfg.window_halfwidth
    off = kappa * pulse.rabi
    tol = INVERSION_TOLERANCE * pulse.rabi
    try:
        plan = _Plan(w, g_forward(-w, cfg), g_forward(w, cfg), off, tol, None, None)
    except ValueError:      # the simulator still decides shots from the table
        plan = _Plan(w, math.nan, math.nan, off, tol, None, None)
    table = _shot_table(pulse, motion, max(0.0, off - w - 0.25 * tol), off + w + 0.25 * tol)
    if table is None or len(table.floats) < 5:
        return plan
    plan = plan._replace(table=table)
    cells = math.ceil(2.0 * w * table.scale)
    step = 2.0 * w / cells
    xs = tuple([-w + j * step for j in range(cells)] + [w])
    nodes = [_table_g(x, off, table) for x in xs]
    if None in nodes:
        return plan
    for j in range(cells):
        (g_a, e_a, total_a), (g_b, e_b, total_b) = nodes[j:j + 2]
        s_tau = (xs[j + 1] - xs[j]) * pulse.duration
        s_low = min(total_a, total_b) - 2.0 * table.cubic_bound - s_tau
        if s_low <= 0.0 or (g_b - g_a - e_a - e_b
                            <= s_tau ** 2 * (1.0 / s_low + 2.0 / s_low ** 2)):
            return plan
    return plan._replace(grid=(xs, tuple(node[0] for node in nodes)))


def _root_band(g_value: float, off: float, tol: float, grid: tuple,
               table: _ShotTable) -> tuple[float, float]:
    """(r - tol/4, r + tol/4) about g~'s root r, or (-inf, inf) unless
    g is certified below g_value at its low end and above at its high end.

    r interpolates linearly in the grid cell that brackets g_value, so it
    lies in the window, where g rises.  The interpolation alone lands
    within tol/4 of g's root: over about 30,000 count-pair inversions at
    pulse areas 0.3 pi to 4 pi and kappa 0.1 to 0.8, no band end failed.
    """
    xs, gs = grid
    k = bisect.bisect(gs, g_value)
    if 0 < k < len(gs):
        a, fa, fb = xs[k - 1], gs[k - 1] - g_value, gs[k] - g_value
        r = a - fa * (xs[k] - a) / (fb - fa)
        lo_band, hi_band = r - 0.25 * tol, r + 0.25 * tol
        if (_certified_below(lo_band, off, g_value, table) is True
                and _certified_below(hi_band, off, g_value, table) is False):
            return lo_band, hi_band
    return -math.inf, math.inf


def g_invert(g_value: float, cfg: TwoPointConfig) -> tuple[float, bool]:
    """Invert g on the capture window by bisection.

    Returns (delta, in_window).  Values of g beyond the window edges
    clamp to the corresponding edge with in_window = False; clamping is
    a flagged result, not an error.  A NaN g, and a window whose edges
    have g(-w) > g(w) (g falls across it, as at 2 pi and kappa 0.8),
    raise ValueError.
    Resolution is 1e-6 * Omega_0.  A step whose midpoint lies below the
    band about the table root (`_root_band`) goes up, one above it goes
    down; any other step is decided from the per-shot table's cubic
    read when the bound 2 eps / S~ certifies it and by `g_forward`
    otherwise (see the module docstring), so the result is the exact
    bisection's.
    """
    g_value = float(g_value)
    if math.isnan(g_value):
        raise ValueError("g is NaN")
    w, g_lo, g_hi, off, tol, table, grid = _plan(cfg.pulse, cfg.motion, cfg.kappa)
    if math.isnan(g_lo):
        raise ValueError("zero excitation at both probe points")
    if g_lo > g_hi:
        area = cfg.pulse.rabi * cfg.pulse.duration / math.pi
        raise ValueError(f"g falls across the capture window at kappa = {cfg.kappa!r} and "
                         f"pulse area {area:.6g} pi: g(-w) = {g_lo!r} > g(w) = {g_hi!r}")
    if g_value >= g_hi:
        return w, g_value <= g_hi
    if g_value <= g_lo:
        return -w, g_value >= g_lo
    lo_band, hi_band = -math.inf, math.inf
    if grid is not None:
        lo_band, hi_band = _root_band(g_value, off, tol, grid, table)
    lo, hi = -w, w
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo_band:
            below = True
        elif mid >= hi_band:
            below = False
        else:
            below = None if table is None else _certified_below(mid, off, g_value, table)
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


def _offset_sigma(sigma_g: float, delta: float, cfg: TwoPointConfig) -> float:
    """sigma_g / |dg/ddelta| at delta; a zero slope raises ZeroDivisionError naming delta."""
    slope = g_slope(delta, cfg)
    if slope == 0.0:
        raise ZeroDivisionError(f"dg/ddelta = 0 at the offset delta = {delta!r} rad/s: "
                                "the estimate's standard error is unbounded")
    return sigma_g / abs(slope)


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
    return EstimateResult(
        delta=delta,
        sigma_delta=_offset_sigma(sigma_g, delta, cfg),
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
    window (there it describes the locally linearised estimate); a zero
    slope raises ZeroDivisionError naming the offset.
    """
    p_plus, p_minus = probe_probabilities(float(delta), cfg)
    if p_plus + p_minus <= 0.0:
        raise ValueError("zero excitation at both probe points")
    sigma_g = _propagate_g_sigma(
        p_plus, p_minus,
        p_plus * (1.0 - p_plus) / cfg.shots_per_side,
        p_minus * (1.0 - p_minus) / cfg.shots_per_side,
    )
    return _offset_sigma(sigma_g, float(delta), cfg)

