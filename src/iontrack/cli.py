"""Command-line front end.

Subcommands chain the library modules into complete runs: `lineshape`
(thermal resonance curves), `fit-spectrum` (line-centre fit of a
scanned spectrum file), `track` (drifting-resonance tracking or a
commanded voltage scan, with Allan/drift analysis and the force
report), `sensitivity` (Monte-Carlo noise-floor sweep over measurement
time and offset), and `calibrate` (field gradient from per-ion
frequencies).  Every run is deterministic given (config, seed); data
tables are CSV or JSON, and each command writes a JSON summary that
echoes the fully resolved config, the tool version and the seed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import (
    SpectrumFitError,
    FrequencySeries,
    allan_deviation,
    charge_detection_distance,
    fit_spectrum,
    force_report,
    position_statistics,
)
from .atomphys import EquilibriumConvergenceError, calibrate_gradient
from .config import _SCHEMA, ConfigError, RunConfig, load_config
from .estimator import (
    NoSignalError,
    analytic_sigma,
    estimate_from_counts,
    g_forward,
    g_slope,
    probe_probabilities,
)
from .lineshape import MotionalModel, excitation_profile, fwhm
from .simulator import CSV_HEADER, drift_correct, run_tracking, run_voltage_scan

__all__ = ["main"]

TWO_PI = 2.0 * math.pi


class UsageError(Exception):
    """Bad invocation, config or input file (exit code 1)."""


class NumericalError(Exception):
    """A computation failed to converge or is degenerate (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the codes
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="iontrack", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"iontrack {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="run configuration file (defaults compiled in)")
    common.add_argument("--seed", metavar="N", type=int, default=None,
                        help="override the configured random seed")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (created if missing)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="data-table format (summaries are always JSON)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("lineshape", parents=[common],
                   help="thermal resonance curves and their widths")
    p_fit = sub.add_parser("fit-spectrum", parents=[common],
                           help="fit a scanned line from a CSV file")
    p_fit.add_argument("input", help="CSV of detuning_hz,counts,shots rows")
    sub.add_parser("track", parents=[common],
                   help="simulate resonance tracking or a voltage scan")
    sub.add_parser("sensitivity", parents=[common],
                   help="Monte-Carlo noise floor vs time and offset")
    p_cal = sub.add_parser("calibrate", parents=[common],
                           help="field gradient from per-ion frequencies")
    p_cal.add_argument("input", help="text file, one frequency in Hz per line")
    return parser


# ---------------------------------------------------------------------------
# output helpers

def _config_echo(cfg: RunConfig) -> dict:
    echo: dict[str, dict] = {}
    for section, keys in _SCHEMA.items():
        echo[section] = {}
        for key, (field_name, _parse) in keys.items():
            value = getattr(cfg, field_name)
            echo[section][key] = list(value) if isinstance(value, tuple) else value
    return echo


def _summary_base(cfg: RunConfig) -> dict:
    return {"version": __version__, "seed": cfg.seed, "config": _config_echo(cfg)}


def _write_outputs(out_dir: str, fmt: str, command: str, tables: list[tuple],
                   summary: dict) -> None:
    """Write each (name, header, rows) table, then `<command>_summary.json`.

    The summary and the JSON tables must be strict JSON: a non-finite
    value is a numerical failure.  Every file is serialised before any
    is opened, so a run that fails, here or earlier, leaves no files.
    """
    files = [(f"{table}.{fmt}", _table_text(f"{table}.{fmt}", header, rows))
             for table, header, rows in tables]
    files.append((f"{command}_summary.json",
                  _strict_json(f"{command}_summary.json", summary)))
    for name, text in files:
        with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _strict_json(name: str, payload) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{name}: {exc}") from exc


def _table_text(name: str, header: list[str], rows: list[tuple | list]) -> str:
    """The file text of a table: CSV, or JSON when `name` ends in .json."""
    if name.endswith(".json"):
        return _strict_json(name, [dict(zip(header, row)) for row in rows])
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _nbar_label(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


# ---------------------------------------------------------------------------
# subcommands

def cmd_lineshape(cfg: RunConfig, out_dir: str, fmt: str) -> None:
    pulse = cfg.pulse()
    fractions = np.linspace(cfg.lineshape_detuning_min_rabi,
                            cfg.lineshape_detuning_max_rabi,
                            cfg.lineshape_n_points)
    detunings = fractions * pulse.rabi
    header = ["delta_over_rabi"]
    columns = [fractions]
    widths: dict[str, float] = {}
    for nbar in cfg.lineshape_nbar_values:
        motion = MotionalModel(nbar=nbar, eta=float(cfg.eta))
        label = _nbar_label(nbar)
        header.append(f"p_nbar_{label}")
        columns.append(excitation_profile(detunings, pulse, motion))
        try:
            widths[label] = fwhm(motion, pulse) / pulse.rabi
        except ValueError as exc:
            raise NumericalError(f"FWHM at nbar={label}: {exc}") from exc
    rows = [list(row) for row in zip(*columns)]
    summary = _summary_base(cfg)
    summary["fwhm_over_rabi"] = widths
    summary["table"] = f"lineshape.{fmt}"
    _write_outputs(out_dir, fmt, "lineshape", [("lineshape", header, rows)], summary)


_SPECTRUM_HEADER = ["detuning_hz", "counts", "shots"]


def _read_spectrum_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or [c.strip() for c in rows[0]] != _SPECTRUM_HEADER:
        raise UsageError(
            f"{path}: line 1: expected header {','.join(_SPECTRUM_HEADER)}")
    detuning, counts, shots = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise UsageError(f"{path}: line {lineno}: expected 3 columns, got {len(row)}")
        try:
            detuning.append(float(row[0]))
            counts.append(int(row[1]))
            shots.append(int(row[2]))
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: {exc}") from exc
        if shots[-1] < 1 or not 0 <= counts[-1] <= shots[-1]:
            raise UsageError(
                f"{path}: line {lineno}: counts must lie in [0, shots], shots >= 1")
    if not detuning:
        raise UsageError(f"{path}: no data rows")
    return (np.asarray(detuning), np.asarray(counts, dtype=int),
            np.asarray(shots, dtype=int))


def cmd_fit_spectrum(cfg: RunConfig, input_path: str, out_dir: str, fmt: str) -> None:
    detuning_hz, counts, shots = _read_spectrum_csv(input_path)
    excitation = counts / shots
    try:
        result = fit_spectrum(TWO_PI * detuning_hz, excitation, shots, cfg.motion())
    except (SpectrumFitError, ValueError) as exc:
        raise NumericalError(f"spectrum fit: {exc}") from exc
    stderr = np.sqrt(np.diag(result.covariance))
    params = {
        "center_hz": (result.center / TWO_PI, float(stderr[0]) / TWO_PI),
        "rabi_hz": (result.rabi / TWO_PI, float(stderr[1]) / TWO_PI),
        "amplitude": (result.amplitude, float(stderr[2])),
        "baseline": (result.baseline, float(stderr[3])),
    }
    rows = [[name, value, err] for name, (value, err) in params.items()]
    summary = _summary_base(cfg)
    summary["fit"] = {name: {"value": value, "stderr": err}
                      for name, (value, err) in params.items()}
    summary["fit"]["reduced_chisq"] = result.reduced_chisq
    summary["fit"]["n_points"] = result.n_points
    summary["input"] = os.path.basename(input_path)
    _write_outputs(out_dir, fmt, "fit_spectrum",
                   [("fit_spectrum", ["parameter", "value", "stderr"], rows)], summary)


def cmd_track(cfg: RunConfig, out_dir: str, fmt: str) -> None:
    species = cfg.species()
    env = cfg.trap()
    two_point = cfg.two_point()
    timeline = cfg.timeline()
    drift = cfg.drift()
    if cfg.scan_enabled and not cfg.scan_interleave_zero:
        raise UsageError("[voltage_scan] enabled needs interleave_zero: drift "
                         "correction needs zero-voltage anchors")
    try:
        if cfg.scan_enabled:
            record = run_voltage_scan(cfg.voltage_schedule(), env, species,
                                      drift, two_point, timeline,
                                      cfg.initial_nu0(), variant=cfg.variant)
        else:
            record = run_tracking(cfg.n_cycles, cfg.initial_nu0(), drift,
                                  two_point, timeline)
    except ValueError as exc:
        raise NumericalError(f"tracking: {exc}") from exc

    summary = _summary_base(cfg)
    summary["table"] = f"track_record.{fmt}"
    summary["n_cycles"] = len(record)
    summary["lost_lock"] = record.lost_lock

    allan: dict | None = None
    if len(record) >= 3:
        try:
            series = FrequencySeries.from_record(record)
            result = allan_deviation(series, cfg.allan_taus_s)
            allan = {
                "taus_s": [float(t) for t in result.taus],
                "adev_hz": [float(a) / TWO_PI for a in result.adev],
                "n_pairs": [int(k) for k in result.n_pairs],
                "drift_rate_hz_per_s": result.drift_rate / TWO_PI,
                "white_level_hz_rt_s": result.white_level / TWO_PI,
                "fit_residual": result.fit_residual,
            }
        except ValueError as exc:
            allan = {"error": str(exc)}
    summary["allan"] = allan

    points = None
    if cfg.scan_enabled:
        try:
            points = drift_correct(record)
        except ValueError as exc:
            raise NumericalError(f"drift correction: {exc}") from exc
    try:
        stats = position_statistics(record if points is None else points,
                                    env, species, variant=cfg.variant)
        force = force_report(stats.mean_sigma, env, species,
                             timeline.measurement_duration)
        distance = charge_detection_distance(force.sigma_force)
    except ValueError as exc:
        raise NumericalError(f"position and force: {exc}") from exc
    tables = [("track_record", CSV_HEADER, record.rows())]
    if points is not None:
        rows = np.column_stack([points.times, points.voltages,
                                points.delta_nu / TWO_PI, points.sigma_nu / TWO_PI,
                                stats.displacements, stats.sigmas]).tolist()
        tables.append(("track_displacements",
                       ["time_s", "voltage_v", "delta_nu_hz", "sigma_nu_hz",
                        "delta_z_m", "sigma_z_m"], rows))
        summary["n_displacement_points"] = len(points)

    summary["position"] = {"mean_sigma_z_m": stats.mean_sigma}
    summary["force"] = {
        "stiffness_n_per_m": force.stiffness,
        "sigma_force_n": force.sigma_force,
        "measurement_time_s": force.measurement_time,
        "sensitivity_n_per_rt_hz": force.sensitivity,
        "single_charge_distance_m": distance,
    }
    _write_outputs(out_dir, fmt, "track", tables, summary)


def _sensitivity_cell(cfg: RunConfig, duration: float, offset_rabi: float,
                      rng: np.random.Generator) -> tuple[float, float, int]:
    """(MC sigma/Omega, analytic sigma/Omega, shots per side) for one cell."""
    two_point = cfg.two_point()
    rabi = two_point.pulse.rabi
    per_side = int(duration / cfg.rep_period_s) // 2
    if per_side < 1:
        raise NumericalError(f"duration {duration} s gives no complete shot pair")
    cell_cfg = replace(two_point, shots_per_side=per_side)
    delta = offset_rabi * rabi
    p_plus, p_minus = probe_probabilities(delta, cell_cfg)
    c_plus = rng.binomial(per_side, p_plus, size=cfg.n_seeds)
    c_minus = rng.binomial(per_side, p_minus, size=cfg.n_seeds)
    if abs(delta) < cell_cfg.window_halfwidth:
        # each distinct count pair is estimated once, then read back per seed
        pairs, seed_pair = np.unique(np.column_stack([c_plus, c_minus]), axis=0,
                                     return_inverse=True)
        try:
            deltas = np.array([estimate_from_counts(int(cp), int(cm), cell_cfg).delta
                               for cp, cm in pairs])
        except NoSignalError as exc:
            raise NumericalError(f"sensitivity cell duration {duration} s, offset "
                                 f"{offset_rabi} Rabi: {exc}") from exc
        estimates = deltas[seed_pair]
    else:
        # Outside the capture window the inversion clamps, so the cell
        # reports the locally linearised estimator's spread instead.
        g_hat = (c_plus - c_minus) / (c_plus + c_minus)
        estimates = delta + (g_hat - g_forward(delta, cell_cfg)) / \
            g_slope(delta, cell_cfg)
    mc = float(estimates.std(ddof=1)) / rabi
    analytic = analytic_sigma(cell_cfg, delta, per_side) / rabi
    return mc, analytic, per_side


def cmd_sensitivity(cfg: RunConfig, out_dir: str, fmt: str) -> None:
    cells = [(t, d) for t in cfg.durations_s for d in cfg.offsets_rabi]
    children = np.random.SeedSequence(cfg.seed).spawn(len(cells))
    rows = []
    for (duration, offset), child in zip(cells, children):
        mc, analytic, per_side = _sensitivity_cell(
            cfg, duration, offset, np.random.default_rng(child))
        rows.append([duration, offset, per_side, mc, analytic])
    header = ["duration_s", "offset_rabi", "shots_per_side",
              "sigma_mc_over_rabi", "sigma_analytic_over_rabi"]
    summary = _summary_base(cfg)
    summary["n_seeds_per_cell"] = cfg.n_seeds
    summary["cells"] = [dict(zip(header, row)) for row in rows]
    _write_outputs(out_dir, fmt, "sensitivity", [("sensitivity", header, rows)], summary)


def _read_frequencies(path: str) -> list[float]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            values.append(float(text))
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: {exc}") from exc
    if len(values) < 2:
        raise UsageError(f"{path}: need at least two per-ion frequencies")
    return values


def cmd_calibrate(cfg: RunConfig, input_path: str, out_dir: str, fmt: str) -> None:
    frequencies_hz = _read_frequencies(input_path)
    try:
        result = calibrate_gradient(
            [TWO_PI * f for f in frequencies_hz], cfg.trap(), cfg.species(),
            variant=cfg.variant)
    except EquilibriumConvergenceError as exc:
        raise NumericalError(f"chain equilibrium: {exc}") from exc
    except ValueError as exc:
        raise NumericalError(f"gradient calibration: {exc}") from exc
    rows = [[i, float(z), float(b)] for i, (z, b) in
            enumerate(zip(result.positions, result.fields))]
    summary = _summary_base(cfg)
    summary["gradient"] = {
        "gradient_t_per_m": result.gradient,
        "gradient_stderr_t_per_m":
            None if math.isnan(result.gradient_stderr) else result.gradient_stderr,
        "field_intercept_t": result.field_intercept,
        "monotone": result.monotone,
        "n_ions": len(frequencies_hz),
    }
    _write_outputs(out_dir, fmt, "calibrate",
                   [("calibrate", ["ion_index", "position_m", "field_t"], rows)], summary)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"iontrack: error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(args.config, seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        if args.command == "lineshape":
            cmd_lineshape(cfg, args.out, args.format)
        elif args.command == "fit-spectrum":
            cmd_fit_spectrum(cfg, args.input, args.out, args.format)
        elif args.command == "track":
            cmd_track(cfg, args.out, args.format)
        elif args.command == "sensitivity":
            cmd_sensitivity(cfg, args.out, args.format)
        elif args.command == "calibrate":
            cmd_calibrate(cfg, args.input, args.out, args.format)
    except (UsageError, ConfigError, OSError) as exc:
        print(f"iontrack: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"iontrack: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:      # e.g. a float overflow deep in the physics
        print(f"iontrack: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
