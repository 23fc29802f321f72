"""Declarative run configuration: sectioned key-value files.

One file describes one run completely — species, trap, pulse, motion,
estimator, timeline, drift, scan schedule and per-command settings.
Keys carry explicit units in their names, all frequencies are ordinary
Hz (the internal representation is angular), unknown sections or keys
are rejected, and `auto` values are resolved at load so that emitting
the loaded config is idempotent.
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace

from .atomphys import (CODATA, IonSpecies, TrapEnvironment, axial_stiffness, length_scale,
                       transition_frequency)
from .estimator import TwoPointConfig
from .lineshape import (FWHM_SCAN_RABI, LINEWIDTH_CALIBRATED_ETA, MAX_PROFILE_ELEMENTS,
                        MotionalModel, PulseSpec, compute_eta)
from .simulator import DriftModel, ExperimentTimeline, VoltageSchedule

__all__ = ["ConfigError", "RunConfig", "default_config", "loads", "load_config", "emit"]

TWO_PI = 2.0 * math.pi

# Upper bounds of the size keys, so that a run's memory stays bounded
# and a huge value fails as a config error, not a MemoryError.
# A tracking run holds about 0.7 KB per cycle (its rows, their columns
# and the table written out): 10^6 cycles peak near 0.7 GB.
MAX_CYCLES = 10 ** 6
# A sensitivity cell holds about 70 B per seed (two count arrays, the
# estimates as a list and as an array): 10^6 seeds hold about 70 MB.
MAX_SEEDS = 10 ** 6
# A tracking measurement holds about 72 B per shot (tracemalloc): 10^6
# shots per side, 2 x 10^6 shots, peak near 0.15 GB.
MAX_SHOTS_PER_SIDE = 10 ** 6
# A lineshape profile holds about 32 B per point and Fock term: 10^4
# points would take about 32 GB at nbar = 10^4 (cutoff 10^5), so
# validation also bounds points x (cutoff + 1) by MAX_PROFILE_ELEMENTS.
MAX_LINESHAPE_POINTS = 10 ** 4


class ConfigError(ValueError):
    """Malformed, unknown or inconsistent configuration input."""


def _key(section: str, default, key: str | None = None):
    """A RunConfig field read from `key` (default: the field name) in [section]."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one run.

    Each field is one file key, declared with `_key`: its section, and
    its key when that differs from the field name.  The annotation picks
    the parser.  Frequencies are ordinary Hz here and only become
    angular inside the builder methods.
    """

    species_label: str = _key("species", "171Yb+", "label")
    mass_u: float = _key("species", 170.936323)
    hyperfine_hz: float = _key("species", 12642812118.471)
    g_electron: float = _key("species", 2.0025)
    g_nucleus: float = _key("species", 0.9837)
    omega_z_hz: float = _key("trap", 108104.0)
    omega_r_hz: float = _key("trap", 534400.0)
    offset_field_t: float = _key("trap", 442.09e-6)
    gradient_t_per_m: float = _key("trap", 19.07)
    voltage_to_field: float = _key("trap", 8.2e-4)
    rabi_hz: float = _key("pulse", 640.0)
    duration_s: float | str = _key("pulse", "auto")          # auto -> pi pulse
    nbar: float = _key("motion", 80.0)
    eta: float | str = _key("motion", LINEWIDTH_CALIBRATED_ETA)
    kappa: float = _key("two_point", 0.8)
    shots_per_side: int = _key("two_point", 50)
    rep_period_s: float = _key("timeline", 0.02)
    detection_error_bright: float = _key("timeline", 0.0)
    detection_error_dark: float = _key("timeline", 0.0)
    shot_order: str = _key("timeline", "interleaved")
    linear_rate_hz_per_s: float = _key("drift", 8.2)
    random_walk_hz_per_rt_s: float = _key("drift", 0.0)
    line_amplitude_hz: float = _key("drift", 0.0)
    seed: int = _key("drift", 12345)
    n_cycles: int = _key("tracking", 128)
    initial_nu0_hz: float | str = _key("tracking", "auto")   # auto -> Breit-Rabi at offset field
    allan_taus_s: tuple[float, ...] = _key("tracking", (2.0, 4.0, 8.0, 16.0, 32.0))
    variant: str = _key("tracking", "standard")
    scan_enabled: bool = _key("voltage_scan", False, "enabled")
    scan_voltages_v: tuple[float, ...] = _key(
        "voltage_scan", (1.0, -1.0, 2.0, -2.0, 3.0, -3.0), "voltages_v")
    scan_interleave_zero: bool = _key("voltage_scan", True, "interleave_zero")
    lineshape_nbar_values: tuple[float, ...] = _key(
        "lineshape", (0.0, 20.0, 100.0), "nbar_values")
    lineshape_detuning_min_rabi: float = _key("lineshape", -2.0, "detuning_min_rabi")
    lineshape_detuning_max_rabi: float = _key("lineshape", 2.0, "detuning_max_rabi")
    lineshape_n_points: int = _key("lineshape", 401, "n_points")
    durations_s: tuple[float, ...] = _key("sensitivity", (2.0, 8.0, 32.0))
    offsets_rabi: tuple[float, ...] = _key("sensitivity", (0.0, 0.3, 0.7))
    n_seeds: int = _key("sensitivity", 200)

    # ---- builders for the typed module objects -------------------------
    def species(self) -> IonSpecies:
        return IonSpecies(
            label=self.species_label,
            mass=self.mass_u * CODATA.atomic_mass_unit,
            hyperfine_constant=TWO_PI * self.hyperfine_hz,
            g_electron=self.g_electron,
            g_nucleus=self.g_nucleus,
            variant=self.variant,
        )

    def trap(self) -> TrapEnvironment:
        env = TrapEnvironment(
            omega_z=TWO_PI * self.omega_z_hz,
            omega_r=TWO_PI * self.omega_r_hz,
            offset_field=self.offset_field_t,
            gradient=self.gradient_t_per_m,
            voltage_to_field=self.voltage_to_field,
        )
        # calibrate's chain length scale divides by the axial stiffness
        # m omega_z^2, and track's force sensitivity scales with it
        species = self.species()
        try:
            stiffness = axial_stiffness(env, species)
        except OverflowError:               # omega_z^2
            stiffness = math.inf
        if not 0.0 < stiffness < math.inf:
            raise ConfigError(f"[trap] omega_z_hz = {self.omega_z_hz!r}: the axial stiffness "
                              f"m omega_z^2 is {stiffness!r} N/m")
        if length_scale(env, species) == 0.0:
            raise ConfigError(f"[trap] omega_z_hz = {self.omega_z_hz!r}: the chain's length "
                              f"scale underflows to 0 at m omega_z^2 = {stiffness!r} N/m")
        return env

    def pulse(self) -> PulseSpec:
        if self.duration_s == "auto":
            raise ConfigError("duration_s must be resolved before use")
        return PulseSpec(rabi=TWO_PI * self.rabi_hz, duration=float(self.duration_s))

    def motion(self) -> MotionalModel:
        if self.eta == "auto":
            raise ConfigError("eta must be resolved before use")
        return MotionalModel(nbar=self.nbar, eta=float(self.eta))

    def two_point(self) -> TwoPointConfig:
        return TwoPointConfig(pulse=self.pulse(), motion=self.motion(),
                              kappa=self.kappa, shots_per_side=self.shots_per_side)

    def timeline(self) -> ExperimentTimeline:
        return ExperimentTimeline(
            rep_period=self.rep_period_s,
            detection_error_bright=self.detection_error_bright,
            detection_error_dark=self.detection_error_dark,
            shot_order=self.shot_order,
        )

    def drift(self) -> DriftModel:
        return DriftModel(
            linear_rate=TWO_PI * self.linear_rate_hz_per_s,
            random_walk=TWO_PI * self.random_walk_hz_per_rt_s,
            line_amplitude=TWO_PI * self.line_amplitude_hz,
            seed=self.seed,
        )

    def voltage_schedule(self) -> VoltageSchedule:
        return VoltageSchedule.from_voltages(self.scan_voltages_v,
                                             self.scan_interleave_zero)

    def initial_nu0(self) -> float:
        """Probe centre for the first tracking cycle, rad/s."""
        if self.initial_nu0_hz == "auto":
            raise ConfigError("initial_nu0_hz must be resolved before use")
        nu0 = TWO_PI * float(self.initial_nu0_hz)
        if not math.isfinite(nu0):
            raise ConfigError(f"initial_nu0_hz = {self.initial_nu0_hz!r} overflows "
                              "as an angular frequency")
        return nu0

    def echo(self) -> dict[str, dict[str, object]]:
        """section -> key -> value of every config key, as `emit` and the summaries give it."""
        return {section: {key: getattr(self, name) for key, (name, _parse) in keys.items()}
                for section, keys in _SCHEMA.items()}

    def resolved(self) -> "RunConfig":
        """Replace every `auto` with its computed value."""
        out = self
        if out.rabi_hz <= 0.0:
            raise ConfigError("rabi_hz must be positive")
        try:
            if out.duration_s == "auto":
                out = replace(out, duration_s=math.pi / (TWO_PI * out.rabi_hz))
            if out.eta == "auto":
                out = replace(out, eta=compute_eta(out.trap(), out.species()))
            if out.initial_nu0_hz == "auto":
                nu = transition_frequency(out.species(), out.offset_field_t)
                out = replace(out, initial_nu0_hz=nu / TWO_PI)
        except ConfigError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(str(exc)) from exc
        out.validate()
        return out

    def validate(self) -> None:
        """Construct every embedded object so its invariants run."""
        try:
            self.species()
            self.trap()
            self.two_point()
            self.timeline()
            self.drift()
            self.voltage_schedule()
            self.initial_nu0()
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name, low, high in (("n_cycles", 1, MAX_CYCLES),
                                ("n_seeds", 2, MAX_SEEDS),
                                ("shots_per_side", 1, MAX_SHOTS_PER_SIDE),
                                ("lineshape_n_points", 2, MAX_LINESHAPE_POINTS)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}")
            if getattr(self, name) > high:
                raise ConfigError(f"{name} must be at most {high}")
        if self.lineshape_detuning_min_rabi >= self.lineshape_detuning_max_rabi:
            raise ConfigError("empty lineshape detuning range")
        if any(v < 0.0 for v in self.offsets_rabi):
            raise ConfigError("offsets_rabi must be non-negative")
        rabi = TWO_PI * self.rabi_hz
        # _excitation's Omega_n^2 + delta^2, with Omega_n <= Omega_0, at the
        # range edges as cmd_lineshape forms them, at the reach of fwhm's
        # scan and at a sensitivity cell's farthest probe point
        edges = [(f"[lineshape] {key} = {fraction!r}", fraction) for key, fraction in (
            ("detuning_min_rabi", self.lineshape_detuning_min_rabi),
            ("detuning_max_rabi", self.lineshape_detuning_max_rabi))]
        edges.append((f"fwhm's scan to {FWHM_SCAN_RABI!r} Rabi widths", FWHM_SCAN_RABI))
        edges += [(f"[sensitivity] offsets_rabi = {offset!r}", offset + self.kappa)
                  for offset in self.offsets_rabi]
        for where, fraction in edges:
            detuning = fraction * rabi
            if math.isfinite(rabi * rabi + detuning * detuning):
                continue
            if self.rabi_hz > abs(fraction):
                raise ConfigError(f"[pulse] rabi_hz = {self.rabi_hz!r}: Omega^2 + "
                                  f"delta^2 overflows at {where}")
            raise ConfigError(f"{where}: the angular detuning overflows when squared")
        for name in ("allan_taus_s", "durations_s"):
            if any(v <= 0.0 for v in getattr(self, name)):
                raise ConfigError(f"{name} values must be positive")
        for duration in self.durations_s:   # a sensitivity cell's shots per side
            if duration / self.rep_period_s / 2.0 > MAX_SHOTS_PER_SIDE:
                raise ConfigError(f"[sensitivity] durations_s = {duration!r} at [timeline] "
                                  f"rep_period_s = {self.rep_period_s!r} gives more than "
                                  f"{MAX_SHOTS_PER_SIDE} shots per side")
        if not self.lineshape_nbar_values:
            raise ConfigError("lineshape_nbar_values must not be empty")
        for i, nbar in enumerate(self.lineshape_nbar_values):
            if nbar in self.lineshape_nbar_values[:i]:
                raise ConfigError(f"lineshape_nbar_values: {nbar!r} is repeated")
            try:
                terms = replace(self.motion(), nbar=nbar).n_cutoff + 1
            except ValueError as exc:
                raise ConfigError(f"lineshape_nbar_values: {exc}") from exc
            if self.lineshape_n_points * terms > MAX_PROFILE_ELEMENTS:
                raise ConfigError(f"lineshape_n_points x {terms} Fock terms at nbar = "
                                  f"{nbar!r} must be at most {MAX_PROFILE_ELEMENTS}")


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {text!r}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ConfigError("empty list")
    return tuple(_parse_float(p) for p in parts)


def _parse_auto_or_float(text: str) -> float | str:
    return "auto" if text.strip().lower() == "auto" else _parse_float(text)


# RunConfig annotation -> parser of the file text
_PARSERS = {
    "str": str.strip,
    "float": _parse_float,
    "int": _parse_int,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_float_list,
    "float | str": _parse_auto_or_float,
}


def _schema() -> dict[str, dict[str, tuple[str, object]]]:
    """section -> key -> (RunConfig field, parser), in field order."""
    schema: dict[str, dict[str, tuple[str, object]]] = {}
    for f in fields(RunConfig):
        key = f.metadata["key"] or f.name
        schema.setdefault(f.metadata["section"], {})[key] = (f.name, _PARSERS[f.type])
    return schema


_SCHEMA = _schema()


def default_config() -> RunConfig:
    """Compiled-in defaults, fully resolved."""
    return loads("")


def loads(text: str, seed: int | None = None) -> RunConfig:
    """Parse config text over the defaults; resolve and validate.

    Unknown sections or keys raise ConfigError.  `seed` overrides the
    [drift] seed after parsing (the --seed flag).
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    updates: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field_name, parse = _SCHEMA[section][key]
            try:
                updates[field_name] = parse(raw)
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    # numpy seeds only from non-negative integers
    for where, value in (("[drift] seed =", updates.get("seed")), ("--seed", seed)):
        if value is not None and value < 0:
            raise ConfigError(f"{where} {value}: the seed must be non-negative")
    cfg = replace(RunConfig(), **updates)
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    return cfg.resolved()


def load_config(path, seed: int | None = None) -> RunConfig:
    """Load a config file (or the defaults when path is None)."""
    if path is None:
        return loads("", seed=seed)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return loads(text, seed=seed)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(cfg: RunConfig) -> str:
    """Serialise a resolved config; loads(emit(cfg)) round-trips."""
    out = io.StringIO()
    for section, keys in cfg.echo().items():
        out.write(f"[{section}]\n")
        for key, value in keys.items():
            out.write(f"{key} = {_format_value(value)}\n")
        out.write("\n")
    return out.getvalue()
