"""INI configuration: parsing, resolution, validation, round-trips."""
import math
import re
from dataclasses import fields, replace

import pytest

from iontrack import config, lineshape
from iontrack.config import (ConfigError, RunConfig, default_config, emit,
                             load_config, loads)
from iontrack.simulator import DriftModel, VoltageSchedule

TWO_PI = 2.0 * math.pi


class TestDefaults:
    def test_defaults_resolve(self):
        cfg = default_config().resolved()
        assert cfg.eta == 0.026                      # calibrated, not auto
        assert cfg.duration_s == pytest.approx(0.00078125)  # pi / (2pi*640)
        assert cfg.initial_nu0_hz == pytest.approx(12649012144.629988,
                                                   rel=1e-13)
        assert cfg.linear_rate_hz_per_s == 8.2
        assert cfg.seed == 12345

    def test_auto_eta_from_trap(self):
        cfg = loads("[motion]\neta = auto\n").resolved()
        assert cfg.eta == pytest.approx(0.04093311432836127, rel=1e-10)

    def test_builders_produce_consistent_objects(self):
        cfg = default_config().resolved()
        assert cfg.pulse().rabi == pytest.approx(TWO_PI * 640.0)
        assert cfg.motion().nbar == 80.0
        assert cfg.two_point().window_halfwidth == pytest.approx(
            0.2 * TWO_PI * 640.0)
        assert cfg.timeline().rep_period == 0.02
        assert isinstance(cfg.drift(), DriftModel)
        assert cfg.drift().linear_rate == pytest.approx(TWO_PI * 8.2)
        assert isinstance(cfg.voltage_schedule(), VoltageSchedule)
        assert cfg.initial_nu0() == pytest.approx(TWO_PI * 12649012144.629988)

    def test_species_mass_in_kilograms(self):
        species = default_config().resolved().species()
        assert species.mass == pytest.approx(170.936323 * 1.66053906660e-27,
                                             rel=1e-9)


class TestLoads:
    def test_empty_text_gives_defaults(self):
        assert loads("") == default_config().resolved()

    def test_override_sections(self):
        cfg = loads("[pulse]\nrabi_hz = 30\n\n[tracking]\nn_cycles = 7\n")
        assert cfg.rabi_hz == 30.0
        assert cfg.n_cycles == 7
        assert cfg.duration_s == pytest.approx(math.pi / (TWO_PI * 30.0))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="laser"):
            loads("[laser]\npower = 3\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="colour"):
            loads("[pulse]\ncolour = blue\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            loads("[pulse]\nrabi_hz = fast\n")

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError, match="variant"):
            loads("[tracking]\nvariant = sideways\n")

    def test_negative_rabi_rejected(self):
        with pytest.raises(ConfigError):
            loads("[pulse]\nrabi_hz = -5\n")

    def test_zero_shots_rejected(self):
        with pytest.raises(ConfigError):
            loads("[two_point]\nshots_per_side = 0\n")

    def test_kappa_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            loads("[two_point]\nkappa = 1.5\n")

    @pytest.mark.parametrize("section, key, field, bound", [
        ("tracking", "n_cycles", "n_cycles", config.MAX_CYCLES),
        ("sensitivity", "n_seeds", "n_seeds", config.MAX_SEEDS),
        ("two_point", "shots_per_side", "shots_per_side", config.MAX_SHOTS_PER_SIDE),
        ("lineshape", "n_points", "lineshape_n_points", config.MAX_LINESHAPE_POINTS),
    ])
    def test_size_keys_bounded_above(self, section, key, field, bound):
        assert getattr(loads(f"[{section}]\n{key} = {bound}\n"), field) == bound
        with pytest.raises(ConfigError, match=f"{field} must be at most {bound}"):
            loads(f"[{section}]\n{key} = {bound + 1}\n")

    @pytest.mark.parametrize("section, key, value", [
        ("pulse", "rabi_hz", "nan"),
        ("trap", "gradient_t_per_m", "nan"),
        ("drift", "linear_rate_hz_per_s", "inf"),
        ("motion", "nbar", "inf"),
        ("motion", "eta", "-inf"),
        ("sensitivity", "durations_s", "2 nan 8"),
    ])
    def test_non_finite_rejected(self, section, key, value):
        with pytest.raises(ConfigError,
                           match=rf"\[{section}\] {key}: not a finite number"):
            loads(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("builder, name, value", [
        ("pulse", "rabi", math.nan),
        ("pulse", "duration", math.inf),
        ("trap", "gradient", math.nan),
        ("trap", "omega_z", math.inf),
        ("species", "mass", math.nan),
        ("drift", "linear_rate", math.nan),
        ("timeline", "rep_period", math.inf),
        ("voltage_schedule", "voltages", (1.0, math.nan)),
    ])
    def test_library_constructors_reject_non_finite(self, builder, name, value):
        # the library objects refuse what the parser refuses
        valid = getattr(default_config(), builder)()
        with pytest.raises(ValueError, match="finite"):
            replace(valid, **{name: value})

    @pytest.mark.parametrize("section, key", [("motion", "nbar"),
                                              ("lineshape", "nbar_values")])
    def test_thermal_cutoff_bounded(self, section, key):
        with pytest.raises(ConfigError, match="needs a thermal cutoff above"):
            loads(f"[{section}]\n{key} = 1e9\n")

    def test_profile_size_bounded(self):
        # points x Fock terms of every lineshape nbar: 100001 terms at nbar = 10^4
        fits = lineshape.MAX_PROFILE_ELEMENTS // 100001
        assert loads(f"[lineshape]\nn_points = {fits}\nnbar_values = 0 10000\n"
                     ).lineshape_n_points == fits
        for text in (f"[lineshape]\nn_points = {fits + 1}\nnbar_values = 0 10000\n",
                     "[lineshape]\nn_points = 10000\nnbar_values = 10000\n"):
            with pytest.raises(ConfigError, match="must be at most"):
                loads(text)

    @pytest.mark.parametrize("values", ["20 20.0", "0 5 -0", "1 2 3 2"])
    def test_repeated_nbar_rejected(self, values):
        with pytest.raises(ConfigError, match=r"lineshape_nbar_values: .* is repeated"):
            loads(f"[lineshape]\nnbar_values = {values}\n")

    def test_overflowing_detuning_range_rejected(self):
        # the angular detuning fraction x 2pi x 640 Hz must square to a float
        for key, value in (("detuning_min_rabi", -1e160), ("detuning_max_rabi", 1e160)):
            message = f"[lineshape] {key} = {value!r}: the angular detuning overflows"
            with pytest.raises(ConfigError, match="^" + re.escape(message)):
                loads(f"[lineshape]\n{key} = {value!r}\n")
        cfg = loads("[lineshape]\ndetuning_min_rabi = -1e150\ndetuning_max_rabi = 1e150\n")
        assert cfg.lineshape_detuning_max_rabi == 1e150

    def test_overflowing_sensitivity_offset_rejected(self):
        # a cell probes out to (offset + kappa) Omega_0, which must square
        # to a float: at 2pi x 640 Hz, 4e150 Rabi widths do not
        message = "[sensitivity] offsets_rabi = 4e+150: the angular detuning overflows"
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            loads("[sensitivity]\noffsets_rabi = 0 4e150\n")
        assert loads("[sensitivity]\noffsets_rabi = 0 3e150\n").offsets_rabi == (0.0, 3e150)

    @pytest.mark.parametrize("builder, name", [("pulse", "duration_s"), ("motion", "eta"),
                                               ("initial_nu0", "initial_nu0_hz")])
    def test_builders_reject_unresolved_auto(self, builder, name):
        unresolved = replace(default_config(), **{name: "auto"})
        with pytest.raises(ConfigError, match=f"^{name} must be resolved before use$"):
            getattr(unresolved, builder)()

    def test_negative_seed_rejected(self):
        for text, seed, where in (("[drift]\nseed = -1\n", None, "[drift] seed ="),
                                  ("", -1, "--seed"),
                                  ("[drift]\nseed = -3\n", 5, "[drift] seed =")):
            with pytest.raises(ConfigError, match="^" + re.escape(where) + " -"):
                loads(text, seed=seed)
        assert loads("", seed=0).seed == 0

    def test_seed_override(self):
        assert loads("", seed=777).seed == 777
        assert load_config(None, seed=777) == loads("", seed=777)
        assert loads("[drift]\nseed = 3\n", seed=777).seed == 777
        assert loads("[drift]\nseed = 3\n").seed == 3

    def test_single_cross_variant_accepted(self):
        cfg = loads("[tracking]\nvariant = single-cross\n")
        assert cfg.variant == "single-cross"
        assert cfg.species().variant == "single-cross"
        assert cfg.initial_nu0_hz == pytest.approx(12645917580.737516,
                                                   rel=1e-13)


class TestEmitRoundTrip:
    def test_round_trip_idempotent(self):
        text = "[pulse]\nrabi_hz = 925\n\n[motion]\nnbar = 12\neta = auto\n"
        once = emit(loads(text))
        assert emit(loads(once)) == once

    def test_default_round_trip_idempotent(self):
        once = emit(default_config().resolved())
        assert emit(loads(once)) == once

    def test_emit_is_deterministic(self):
        cfg = default_config().resolved()
        assert emit(cfg) == emit(cfg)

    def test_values_survive(self):
        cfg = loads("[trap]\noffset_field_t = 6e-4\n\n[sensitivity]\n"
                    "durations_s = 1, 3, 9\n")
        back = loads(emit(cfg))
        assert back.offset_field_t == 6e-4
        assert back.durations_s == (1.0, 3.0, 9.0)

    def test_every_key_survives(self):
        text = """
[species]
label = Yb-test
mass_u = 171.5
hyperfine_hz = 12642812000.0
g_electron = 2.002
g_nucleus = 0.98

[trap]
omega_z_hz = 110000
omega_r_hz = 540000
offset_field_t = 5e-4
gradient_t_per_m = 20.5
voltage_to_field = 9e-4

[pulse]
rabi_hz = 700
duration_s = 0.0007

[motion]
nbar = 60
eta = auto

[two_point]
kappa = 0.75
shots_per_side = 40

[timeline]
rep_period_s = 0.025
detection_error_bright = 0.01
detection_error_dark = 0.02
shot_order = blocked

[drift]
linear_rate_hz_per_s = 4.5
random_walk_hz_per_rt_s = 1.5
line_amplitude_hz = 2.5
seed = 7

[tracking]
n_cycles = 64
initial_nu0_hz = 12649000000.5
allan_taus_s = 1, 2, 4
variant = single-cross

[voltage_scan]
enabled = yes
voltages_v = 0.5 -0.5
interleave_zero = off

[lineshape]
nbar_values = 0 50
detuning_min_rabi = -3
detuning_max_rabi = 3
n_points = 201

[sensitivity]
durations_s = 1 4
offsets_rabi = 0 0.5
n_seeds = 50
"""
        cfg = loads(text)
        default = default_config()
        back = loads(emit(cfg))
        for f in fields(RunConfig):
            value, base = getattr(cfg, f.name), getattr(default, f.name)
            assert value != base and type(value) is type(base), f.name
            assert getattr(back, f.name) == value, f.name

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(emit(default_config().resolved()))
        assert load_config(path) == default_config().resolved()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")
