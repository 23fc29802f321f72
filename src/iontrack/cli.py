"""Command-line front end.

Subcommands chain the library modules into complete runs: `lineshape`
(thermal resonance curves), `fit-spectrum` (line-centre fit of a
scanned spectrum file), `track` (drifting-resonance tracking or a
commanded voltage scan, with Allan/drift analysis and the force
report), `sensitivity` (Monte-Carlo noise-floor sweep over measurement
time and offset), and `calibrate` (field gradient from per-ion
frequencies).  Each command returns its tables and summary, and `main`
writes them.  Every run is deterministic given (config, seed); data
tables are CSV or JSON, and each run writes a JSON summary that echoes
the fully resolved config, the tool version and the seed.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
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
    analytic_sigma,
    g_forward,
    g_invert,
    g_slope,
    probe_probabilities,
)
from .lineshape import MAX_PROFILE_ELEMENTS, MotionalModel, excitation_profile, fwhm
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
                        help="output directory (created when the run succeeds)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="data-table format (summaries are always JSON)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, run, help_text, input_help in [
        ("lineshape", cmd_lineshape, "thermal resonance curves and their widths", None),
        ("fit-spectrum", cmd_fit_spectrum, "fit a scanned line from a CSV file",
         "CSV of detuning_hz,counts,shots rows"),
        ("track", cmd_track, "simulate resonance tracking or a voltage scan", None),
        ("sensitivity", cmd_sensitivity, "Monte-Carlo noise floor vs time and offset",
         None),
        ("calibrate", cmd_calibrate, "field gradient from per-ion frequencies",
         "text file, one frequency in Hz per line"),
    ]:
        command = sub.add_parser(name, parents=[common], help=help_text)
        command.set_defaults(run=run)
        if input_help:
            command.add_argument("input", help=input_help)
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


def _write_outputs(out_dir: str, fmt: str, command: str, tables: list[tuple],
                   summary: dict) -> None:
    """Write each (name, header, rows) table, then `<command>_summary.json`.

    The summary and the JSON tables must be strict JSON: a non-finite
    value is a numerical failure.  Every file is serialised before
    `out_dir` is created or any file opened, so a run that fails, here or
    earlier, leaves no files and no directory.
    """
    files = [(f"{table}.{fmt}", _table_text(f"{table}.{fmt}", header, rows))
             for table, header, rows in tables]
    files.append((f"{command}_summary.json",
                  _strict_json(f"{command}_summary.json", summary)))
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files:
        with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def _strict_json(name: str, payload) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{name}: {exc}") from exc


def _table_text(name: str, header: list[str], rows: list[tuple | list]) -> str:
    """The file text of a table: CSV, or JSON when `name` ends in .json.

    A non-finite float cell is a numerical failure in either format.
    """
    for row in rows:
        for column, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericalError(f"{name}: Out of range float values in "
                                     f"column {column!r}")
    if name.endswith(".json"):
        return _strict_json(name, [dict(zip(header, row)) for row in rows])
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _parse_hz(text: str) -> float:
    """A value in Hz from an input file; it and 2*pi times it must be finite."""
    value = float(text)
    if not math.isfinite(TWO_PI * value):
        raise ValueError(f"not finite as an angular frequency: {text.strip()!r}")
    return value


def _nbar_label(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


# ---------------------------------------------------------------------------
# subcommands

def cmd_lineshape(cfg: RunConfig, args: argparse.Namespace) -> tuple[list, dict]:
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
    summary = {"fwhm_over_rabi": widths, "table": f"lineshape.{args.format}"}
    return [("lineshape", header, rows)], summary


_SPECTRUM_HEADER = ["detuning_hz", "counts", "shots"]


def _read_spectrum_csv(path: str, motion: MotionalModel
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(detuning_hz, counts, shots) of a spectrum file to fit under `motion`."""
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
            detuning.append(_parse_hz(row[0]))
            counts.append(int(row[1]))
            shots.append(int(row[2]))
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: {exc}") from exc
        if shots[-1] < 1 or not 0 <= counts[-1] <= shots[-1]:
            raise UsageError(
                f"{path}: line {lineno}: counts must lie in [0, shots], shots >= 1")
    if not detuning:
        raise UsageError(f"{path}: no data rows")
    terms = motion.n_cutoff + 1
    if len(detuning) * terms > MAX_PROFILE_ELEMENTS:
        raise UsageError(f"{path}: data rows x Fock terms ({len(detuning)} x {terms}) "
                         f"must be at most {MAX_PROFILE_ELEMENTS}")
    return (np.asarray(detuning), np.asarray(counts, dtype=int),
            np.asarray(shots, dtype=int))


def cmd_fit_spectrum(cfg: RunConfig, args: argparse.Namespace) -> tuple[list, dict]:
    motion = cfg.motion()
    detuning_hz, counts, shots = _read_spectrum_csv(args.input, motion)
    excitation = counts / shots
    try:
        result = fit_spectrum(TWO_PI * detuning_hz, excitation, shots, motion)
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
    fit = {name: {"value": value, "stderr": err} for name, (value, err) in params.items()}
    fit["reduced_chisq"] = result.reduced_chisq
    fit["n_points"] = result.n_points
    summary = {"fit": fit, "input": os.path.basename(args.input)}
    return [("fit_spectrum", ["parameter", "value", "stderr"], rows)], summary


def cmd_track(cfg: RunConfig, args: argparse.Namespace) -> tuple[list, dict]:
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
            record = run_voltage_scan(cfg.voltage_schedule(), env, species, drift,
                                      two_point, timeline, cfg.initial_nu0())
        else:
            record = run_tracking(cfg.n_cycles, cfg.initial_nu0(), drift,
                                  two_point, timeline)
    except ValueError as exc:
        raise NumericalError(f"tracking: {exc}") from exc

    summary = {"table": f"track_record.{args.format}", "n_cycles": len(record),
               "lost_lock": record.lost_lock}

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
        stats = position_statistics(record if points is None else points, env, species)
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
    return tables, summary


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
    if not np.all(c_plus + c_minus):
        raise NumericalError(f"sensitivity cell duration {duration} s, offset "
                             f"{offset_rabi} Rabi: no bright events on either side: "
                             "no signal to invert")
    if abs(delta) < cell_cfg.window_halfwidth:
        # Each distinct count pair is inverted once, then read back per
        # seed.  g is estimate_from_counts' g, and the cell needs only its
        # delta, not the sigma that would cost two more exact g_forward calls.
        pairs, seed_pair = np.unique(np.column_stack([c_plus, c_minus]), axis=0,
                                     return_inverse=True)
        plus, minus = pairs.T / per_side
        g_values = (plus - minus) / (plus + minus)
        deltas = np.array([g_invert(g, cell_cfg)[0] for g in g_values.tolist()])
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


def cmd_sensitivity(cfg: RunConfig, args: argparse.Namespace) -> tuple[list, dict]:
    cells = [(t, d) for t in cfg.durations_s for d in cfg.offsets_rabi]
    children = np.random.SeedSequence(cfg.seed).spawn(len(cells))
    rows = []
    for (duration, offset), child in zip(cells, children):
        mc, analytic, per_side = _sensitivity_cell(
            cfg, duration, offset, np.random.default_rng(child))
        rows.append([duration, offset, per_side, mc, analytic])
    header = ["duration_s", "offset_rabi", "shots_per_side",
              "sigma_mc_over_rabi", "sigma_analytic_over_rabi"]
    summary = {"n_seeds_per_cell": cfg.n_seeds,
               "cells": [dict(zip(header, row)) for row in rows]}
    return [("sensitivity", header, rows)], summary


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
            values.append(_parse_hz(text))
        except ValueError as exc:
            raise UsageError(f"{path}: line {lineno}: {exc}") from exc
    if len(values) < 2:
        raise UsageError(f"{path}: need at least two per-ion frequencies")
    return values


def cmd_calibrate(cfg: RunConfig, args: argparse.Namespace) -> tuple[list, dict]:
    frequencies_hz = _read_frequencies(args.input)
    try:
        result = calibrate_gradient([TWO_PI * f for f in frequencies_hz],
                                    cfg.trap(), cfg.species())
    except EquilibriumConvergenceError as exc:
        raise NumericalError(f"chain equilibrium: {exc}") from exc
    except ValueError as exc:
        raise NumericalError(f"gradient calibration: {exc}") from exc
    rows = [[i, float(z), float(b)] for i, (z, b) in
            enumerate(zip(result.positions, result.fields))]
    summary = {"gradient": {
        "gradient_t_per_m": result.gradient,
        "gradient_stderr_t_per_m":
            None if math.isnan(result.gradient_stderr) else result.gradient_stderr,
        "field_intercept_t": result.field_intercept,
        "monotone": result.monotone,
        "n_ions": len(frequencies_hz),
    }}
    return [("calibrate", ["ion_index", "position_m", "field_t"], rows)], summary


# ---------------------------------------------------------------------------

def _report_warning(message, category, filename, lineno, file=None, line=None):
    """`warnings.showwarning` for a run: the message alone, as the CLI's own line."""
    print(f"iontrack: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"iontrack: error: {exc}", file=sys.stderr)
        return 1
    with warnings.catch_warnings():   # restores showwarning on exit
        warnings.showwarning = _report_warning
        try:
            cfg = load_config(args.config, seed=args.seed)
            tables, summary = args.run(cfg, args)
            summary.update(version=__version__, seed=cfg.seed, config=_config_echo(cfg))
            _write_outputs(args.out, args.format, args.command.replace("-", "_"),
                           tables, summary)
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
