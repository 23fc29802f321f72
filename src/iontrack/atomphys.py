"""Hyperfine Zeeman physics and ion-chain geometry.

Forward and inverse maps between magnetic field and the ground-state
hyperfine transition frequency of a single trapped ion (171Yb+ by
default), the frequency/position conversion through a static magnetic
field gradient, equilibrium positions of a small ion chain, and a
least-squares gradient calibration from per-ion frequencies.

All frequencies in this package are angular (rad/s) unless a name or
docstring says otherwise.  Fields are tesla, positions are metres.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "IonSpecies",
    "TrapEnvironment",
    "GradientCalibration",
    "EquilibriumConvergenceError",
    "BREIT_RABI_VARIANTS",
    "transition_frequency",
    "transition_frequency_derivative",
    "field_from_frequency",
    "frequency_to_position_slope",
    "axial_stiffness",
    "length_scale",
    "equilibrium_positions",
    "calibrate_gradient",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 fundamental constants (SI); every function reads `CODATA`."""

    planck_h: float = 6.62607015e-34          # J s (exact)
    bohr_magneton: float = 9.2740100783e-24    # J/T
    nuclear_magneton: float = 5.0507837461e-27  # J/T
    elementary_charge: float = 1.602176634e-19  # C (exact)
    vacuum_permittivity: float = 8.8541878128e-12  # F/m
    atomic_mass_unit: float = 1.66053906660e-27   # kg

    @property
    def hbar(self) -> float:
        return self.planck_h / (2.0 * math.pi)


CODATA = PhysicalConstants()

# Radical conventions for the field dependence of the transition, as the
# coefficient c of the xB cross term.  The "standard" stretch-state
# radical is 1 + 2xB + (xB)^2; "single-cross" keeps a single xB cross
# term, a form that appears in some references and whose low-field slope
# is half the standard one.
_CROSS_TERM = {"standard": 2.0, "single-cross": 1.0}
BREIT_RABI_VARIANTS = tuple(_CROSS_TERM)


@dataclass(frozen=True)
class IonSpecies:
    """Ion species parameters for the hyperfine clock-to-stretch transition.

    hyperfine_constant is the zero-field splitting as an angular
    frequency (rad/s).  g_electron and g_nucleus are dimensionless;
    the nuclear moment couples through the nuclear magneton.  variant
    names the Breit-Rabi radical convention, one of BREIT_RABI_VARIANTS,
    that every field/frequency map of this module applies.
    """

    label: str
    mass: float                 # kg
    hyperfine_constant: float   # rad/s
    g_electron: float
    g_nucleus: float
    variant: str = "standard"

    def __post_init__(self) -> None:
        if self.variant not in _CROSS_TERM:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not all(map(math.isfinite, (self.mass, self.hyperfine_constant,
                                       self.g_electron, self.g_nucleus))):
            raise ValueError("species parameters must be finite")
        if self.mass <= 0.0:
            raise ValueError("ion mass must be positive")
        if self.hyperfine_constant <= 0.0:
            raise ValueError("hyperfine constant must be positive")

    @classmethod
    def ytterbium_171(cls) -> "IonSpecies":
        """171Yb+ with the measured zero-field splitting near 12.64 GHz."""
        return cls(
            label="171Yb+",
            mass=170.936323 * CODATA.atomic_mass_unit,
            hyperfine_constant=2.0 * math.pi * 12_642_812_118.471,
            g_electron=2.0025,
            g_nucleus=0.9837,
        )


@dataclass(frozen=True)
class TrapEnvironment:
    """Trap frequencies, static field and gradient at the ion site.

    voltage_to_field converts a control-electrode voltage offset to the
    residual axial electric field it produces at the ion, in (V/m)/V.
    It is a pure geometry coefficient supplied by configuration.
    """

    omega_z: float              # axial secular frequency, rad/s
    omega_r: float              # radial secular frequency, rad/s
    offset_field: float         # static field at the working point, T
    gradient: float             # dB/dz along the trap axis, T/m
    voltage_to_field: float = 8.2e-4   # (V/m)/V

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.omega_z, self.omega_r, self.offset_field,
                                       self.gradient, self.voltage_to_field))):
            raise ValueError("trap parameters must be finite")
        if self.omega_z <= 0.0 or self.omega_r <= 0.0:
            raise ValueError("secular frequencies must be positive")
        if self.offset_field < 0.0:
            raise ValueError("offset field must be non-negative")
        if self.gradient == 0.0:
            raise ValueError("field gradient must be non-zero")

    @classmethod
    def default(cls) -> "TrapEnvironment":
        return cls(
            omega_z=2.0 * math.pi * 108_104.0,
            omega_r=2.0 * math.pi * 534_400.0,
            offset_field=442.09e-6,
            gradient=19.07,
        )


# Upper end of the field bracket that `field_from_frequency` searches.
# 171Yb+ reaches 14.2 GHz there, and any trap's working field is
# milliteslas, so a frequency past it is a bad input, not a strong field.
FIELD_BRACKET_MAX_T = 0.1

# Damped Newton reaches EQUILIBRIUM_GRAD_TOL in 3 to 7 iterations for
# every chain of 2 to 32 ions; the limit only stops a run that diverges.
EQUILIBRIUM_MAX_ITER = 100
# Scaled-gradient 2-norm at which a chain counts as in equilibrium; the
# scaled positions and forces are of order one, so this is a few orders
# of magnitude above rounding.
EQUILIBRIUM_GRAD_TOL = 1e-12


def _breit_rabi_terms(species: IonSpecies, field_t: float) -> tuple:
    """(B, c, A, x, xB, r1, r2) of `transition_frequency`'s formula, B >= 0.

    Shared with the derivative; B is the field as a float.
    """
    field_t = float(field_t)
    if field_t < 0.0:
        raise ValueError("field must be non-negative")
    c = _CROSS_TERM[species.variant]
    a_energy = CODATA.hbar * species.hyperfine_constant
    x = (species.g_electron * CODATA.bohr_magneton
         - species.g_nucleus * CODATA.nuclear_magneton) / a_energy
    xb = x * field_t
    r1 = math.sqrt(1.0 + c * xb + xb * xb)
    r2 = math.sqrt(1.0 + xb * xb)
    return field_t, c, a_energy, x, xb, r1, r2


def transition_frequency(species: IonSpecies, field_t: float) -> float:
    """Transition angular frequency (rad/s) at a static field (T).

    Evaluates

        E/hbar = [g_n uN B + (A/2) sqrt(1 + c xB + (xB)^2)
                           + (A/2) sqrt(1 + (xB)^2)] / hbar

    with A the zero-field splitting in energy units, the dimensionless
    field ratio x = (g_e uB - g_n uN)/A, and c = 2 or c = 1 as the
    species' `variant` field is "standard" or "single-cross".  At B = 0
    both radicals are 1 and the result is the zero-field splitting.
    """
    field_t, _c, a_energy, _x, _xb, r1, r2 = _breit_rabi_terms(species, field_t)
    energy = (species.g_nucleus * CODATA.nuclear_magneton * field_t
              + 0.5 * a_energy * (r1 + r2))
    return energy / CODATA.hbar


def transition_frequency_derivative(species: IonSpecies, field_t: float) -> float:
    """Analytic d(nu)/dB of `transition_frequency`, in (rad/s)/T."""
    _b, c, a_energy, x, xb, r1, r2 = _breit_rabi_terms(species, field_t)
    d_energy = (species.g_nucleus * CODATA.nuclear_magneton
                + 0.25 * a_energy * x * (c + 2.0 * xb) / r1
                + 0.5 * a_energy * x * xb / r2)
    return d_energy / CODATA.hbar


def field_from_frequency(species: IonSpecies, nu: float) -> float:
    """Invert `transition_frequency`: field (T) for a frequency (rad/s).

    The forward map is strictly increasing in B, so the root is bracketed
    on [0, FIELD_BRACKET_MAX_T] and found by bisection to a relative
    residual of 1e-12, then polished with one Newton step.
    """
    nu = float(nu)
    nu_zero = transition_frequency(species, 0.0)
    if nu < nu_zero:
        raise ValueError("frequency below the zero-field splitting")
    if nu == nu_zero:
        return 0.0
    lo, hi = 0.0, FIELD_BRACKET_MAX_T
    f_hi = transition_frequency(species, hi) - nu
    if f_hi < 0.0:
        raise ValueError(f"frequency above the field bracket: it needs more "
                         f"than {FIELD_BRACKET_MAX_T} T")
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = transition_frequency(species, mid) - nu
        if abs(f_mid) <= 1e-12 * nu or (hi - lo) <= 1e-18:
            break
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    b = mid
    slope = transition_frequency_derivative(species, b)
    b -= (transition_frequency(species, b) - nu) / slope
    return max(b, 0.0)


def frequency_to_position_slope(env: TrapEnvironment, species: IonSpecies) -> float:
    """d(nu)/dz at the working point, in (rad/s)/m.

    Chain rule through the static gradient: d(nu)/dz = d(nu)/dB * dB/dz,
    with the slope evaluated at the environment's offset field.
    """
    return transition_frequency_derivative(species, env.offset_field) * env.gradient


def axial_stiffness(
    env: TrapEnvironment,
    species: IonSpecies,
) -> float:
    """Axial restoring-force constant k = m * omega_z^2, in N/m."""
    return species.mass * env.omega_z ** 2


def length_scale(env: TrapEnvironment, species: IonSpecies) -> float:
    """Coulomb/harmonic length scale l = (e^2 / (4 pi eps0 m w_z^2))^(1/3)."""
    coulomb = CODATA.elementary_charge ** 2 / (4.0 * math.pi * CODATA.vacuum_permittivity)
    return (coulomb / (species.mass * env.omega_z ** 2)) ** (1.0 / 3.0)


class EquilibriumConvergenceError(RuntimeError):
    """Chain equilibrium did not converge; carries the last iterate (m)."""

    def __init__(self, message: str, last_positions: np.ndarray):
        super().__init__(message)
        self.last_positions = last_positions


def _chain_gradient(u: np.ndarray) -> np.ndarray:
    # dE/du_i in scaled units: harmonic pull plus pairwise Coulomb push.
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, np.inf)
    return u - np.sum(np.sign(diff) / diff ** 2, axis=1)


def _chain_hessian(u: np.ndarray) -> np.ndarray:
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, np.inf)
    off = -2.0 / np.abs(diff) ** 3
    h = off.copy()
    np.fill_diagonal(h, 1.0 - np.sum(off, axis=1))
    return h


def equilibrium_positions(n_ions: int, env: TrapEnvironment,
                          species: IonSpecies) -> np.ndarray:
    """Equilibrium positions (m, ascending) of n_ions in the axial well.

    Minimises sum(m w_z^2 z^2 / 2) + sum(e^2 / (4 pi eps0 |z_i - z_j|))
    by damped Newton iteration on the scaled force-balance equations,
    starting from a uniformly spaced chain.  Converged when the scaled
    gradient 2-norm drops below EQUILIBRIUM_GRAD_TOL.
    """
    if not 1 <= n_ions <= 32:
        raise ValueError("n_ions must be in 1..32")
    scale = length_scale(env, species)
    if n_ions == 1:
        return np.zeros(1)
    # Uniform start; 2.018/N^0.559 approximates the true minimum spacing.
    spacing = 2.018 / n_ions ** 0.559
    u = spacing * (np.arange(n_ions) - 0.5 * (n_ions - 1))
    g = _chain_gradient(u)
    for _ in range(EQUILIBRIUM_MAX_ITER):
        norm = np.linalg.norm(g)
        if norm < EQUILIBRIUM_GRAD_TOL:
            return u * scale
        step = np.linalg.solve(_chain_hessian(u), -g)
        lam = 1.0
        for _ in range(40):
            trial = u + lam * step
            if np.all(np.diff(trial) > 0.0):
                g_trial = _chain_gradient(trial)
                if np.linalg.norm(g_trial) < norm:
                    u, g = trial, g_trial
                    break
            lam *= 0.5
        else:
            break
    if np.linalg.norm(_chain_gradient(u)) < EQUILIBRIUM_GRAD_TOL:
        return u * scale
    raise EquilibriumConvergenceError(
        f"no equilibrium after {EQUILIBRIUM_MAX_ITER} Newton iterations", u * scale
    )


@dataclass(frozen=True)
class GradientCalibration:
    """Least-squares field gradient from per-ion transition frequencies."""

    gradient: float             # T/m
    gradient_stderr: float      # T/m; nan with only two ions (zero dof)
    field_intercept: float      # T at z = 0
    fields: np.ndarray = field(repr=False, default=None)
    positions: np.ndarray = field(repr=False, default=None)
    monotone: bool = True


def calibrate_gradient(frequencies, env: TrapEnvironment,
                       species: IonSpecies) -> GradientCalibration:
    """Fit B(z) = B0 + B' z through per-ion fields.

    Each transition frequency (rad/s, one per ion, ordered along the
    chain) is inverted to a field; fields are paired with the chain's
    equilibrium positions and fitted by ordinary least squares.  The
    slope standard error comes from the fit residuals; with exactly two
    ions there are no residual degrees of freedom and it is nan.
    Non-monotone fields along the chain set monotone=False.
    """
    nu = np.asarray(frequencies, dtype=float)
    if nu.ndim != 1 or nu.size < 2:
        raise ValueError("need at least two per-ion frequencies")
    n = nu.size
    fields = np.array([field_from_frequency(species, v) for v in nu])
    z = equilibrium_positions(n, env, species)
    dz = z - z.mean()
    szz = float(np.dot(dz, dz))
    slope = float(np.dot(dz, fields)) / szz
    intercept = float(fields.mean() - slope * z.mean())
    resid = fields - (intercept + slope * z)
    if n > 2:
        stderr = math.sqrt(float(np.dot(resid, resid)) / (n - 2) / szz)
    else:
        stderr = math.nan
    diffs = np.diff(fields)
    monotone = bool(np.all(diffs > 0.0) or np.all(diffs < 0.0))
    return GradientCalibration(
        gradient=slope,
        gradient_stderr=stderr,
        field_intercept=intercept,
        fields=fields,
        positions=z,
        monotone=monotone,
    )
