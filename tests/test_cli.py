"""End-to-end command-line checks: outputs, formats, exit codes."""
import argparse
import csv
import json
import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from iontrack import atomphys, cli, estimator
from iontrack.cli import NumericalError, _write_outputs, main
from iontrack.config import load_config
from iontrack.lineshape import (MAX_PROFILE_ELEMENTS, MotionalModel, PulseSpec,
                                excitation_profile, fwhm)
from iontrack.simulator import TrackingRecord

TWO_PI = 2.0 * math.pi


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def tree_bytes(root):
    """Map of relative path -> file bytes for a whole directory."""
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            full = os.path.join(base, name)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


@pytest.fixture(scope="module")
def track_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("track")
    assert main(["track", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def sensitivity_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sens")
    assert main(["sensitivity", "--out", str(out)]) == 0
    return out


FIVE_POINT_INI = "[lineshape]\nn_points = 5\n"


@pytest.fixture
def overflowing_lineshape(monkeypatch):
    """cmd_lineshape's profiles as at a 1e153 Hz drive, which the loader rejects.

    At 2 Rabi of such a drive Omega^2 + delta^2 overflows in _excitation,
    so the edge detunings give nan cells after numpy's overflow warning.
    """
    exact = cli.excitation_profile

    def huge(detunings, pulse, motion):
        rabi = TWO_PI * 1e153
        return exact(detunings * (rabi / pulse.rabi), replace(pulse, rabi=rabi), motion)

    monkeypatch.setattr(cli, "excitation_profile", huge)


class TestLineshape:
    def test_summary_widths_match_library(self, tmp_path):
        assert main(["lineshape", "--out", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "lineshape_summary.json")
        pulse = PulseSpec.pi_pulse(TWO_PI * 640.0)
        for label, value in summary["fwhm_over_rabi"].items():
            motion = MotionalModel(nbar=float(label), eta=0.026)
            assert value == pytest.approx(fwhm(motion, pulse) / pulse.rabi,
                                          rel=1e-9)
        assert summary["version"]
        assert summary["seed"] == 12345
        assert summary["config"]["pulse"]["rabi_hz"] == 640.0

    def test_table_columns_and_values(self, tmp_path):
        assert main(["lineshape", "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "lineshape.csv")
        assert rows[0] == ["delta_over_rabi", "p_nbar_0", "p_nbar_20",
                           "p_nbar_100"]
        assert len(rows) - 1 == 401
        pulse = PulseSpec.pi_pulse(TWO_PI * 640.0)
        mid = rows[1 + 200]
        assert float(mid[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(mid[1]) == pytest.approx(
            float(excitation_profile(0.0, pulse, MotionalModel(0.0, 0.026))),
            rel=1e-12)

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["lineshape", "--out", str(a)]) == 0
        assert main(["lineshape", "--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_json_format(self, tmp_path):
        assert main(["lineshape", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        rows = read_json(tmp_path / "lineshape.json")
        assert len(rows) == 401
        assert set(rows[0]) == {"delta_over_rabi", "p_nbar_0", "p_nbar_20",
                                "p_nbar_100"}

    def test_command_returns_tables_and_writes_nothing(self, tmp_path, monkeypatch):
        ini = tmp_path / "five.ini"
        ini.write_text("[lineshape]\nn_points = 5\n")
        cfg = load_config(str(ini))
        ini.unlink()
        monkeypatch.chdir(tmp_path)     # the default --out
        tables, summary = cli.cmd_lineshape(cfg, argparse.Namespace(format="json"))
        assert os.listdir(tmp_path) == []
        [(name, header, rows)] = tables
        assert name == "lineshape"
        assert header == ["delta_over_rabi", "p_nbar_0", "p_nbar_20", "p_nbar_100"]
        assert [row[0] for row in rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert summary["table"] == "lineshape.json"
        assert set(summary) == {"fwhm_over_rabi", "table"}   # main adds the rest

    def test_empty_detuning_range_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[lineshape]\ndetuning_min_rabi = 1\n"
                       "detuning_max_rabi = -1\n")
        assert main(["lineshape", "--config", str(bad),
                     "--out", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_repeated_nbar_is_usage_error(self, tmp_path, capsys):
        # 20 and 20.0 share the column label p_nbar_20 and the width key "20"
        bad = tmp_path / "bad.ini"
        bad.write_text("[lineshape]\nnbar_values = 20 20.0\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["lineshape", "--config", str(bad), "--out", str(out)]) == 1
        assert "20.0 is repeated" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cells_are_numerical_failure(self, tmp_path, capsys, fmt,
                                                    overflowing_lineshape):
        cfg = tmp_path / "wide.ini"
        cfg.write_text(FIVE_POINT_INI)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["lineshape", "--config", str(cfg), "--out", str(out),
                         "--format", fmt]) == 2
        assert f"lineshape.{fmt}: Out of range float values in column 'p_nbar_0'" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflow_warning_is_one_cli_line(self, tmp_path, capsys, fmt,
                                              overflowing_lineshape):
        # numpy's overflow warning comes out as iontrack's line, without
        # the path and source line of the module that raised it
        cfg = tmp_path / "wide.ini"
        cfg.write_text(FIVE_POINT_INI)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert main(["lineshape", "--config", str(cfg), "--out", str(out),
                         "--format", fmt]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert "iontrack: warning: overflow encountered in add" in lines
        assert lines and all(line.startswith("iontrack:") for line in lines)
        assert not any("lineshape.py" in line for line in lines)
        assert not out.exists()

    @pytest.mark.parametrize("rabi_hz", ["1e+153", "2e+153"])
    def test_overflowing_rabi_frequency_is_usage_error(self, tmp_path, capsys, rabi_hz):
        # at the default +-2 Rabi edges, (2pi 1e153 Hz)^2 (1 + 2^2) overflows
        # in the sum and 2 (2pi 2e153 Hz) already when squared: both are
        # rejected at load, naming rabi_hz, before numpy can warn
        cfg = tmp_path / "fast.ini"
        cfg.write_text(f"[pulse]\nrabi_hz = {rabi_hz}\n[lineshape]\nn_points = 5\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            code = main(["lineshape", "--config", str(cfg), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            1, f"iontrack: error: [pulse] rabi_hz = {rabi_hz}: Omega^2 + delta^2 "
               "overflows at [lineshape] detuning_min_rabi = -2.0\n")
        assert not out.exists()

    def test_rabi_frequency_overflowing_in_the_fwhm_scan_is_usage_error(self, tmp_path,
                                                                        capsys):
        # 6e152 Hz holds at the +-2 range edges but not at fwhm's scan to
        # 5 Rabi widths: rejected at load, naming rabi_hz, before numpy warns
        cfg = tmp_path / "fast.ini"
        cfg.write_text("[pulse]\nrabi_hz = 6e152\n[lineshape]\nn_points = 5\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            code = main(["lineshape", "--config", str(cfg), "--out", str(out)])
        assert (code, capsys.readouterr().err) == (
            1, "iontrack: error: [pulse] rabi_hz = 6e+152: Omega^2 + delta^2 "
               "overflows at fwhm's scan to 5.0 Rabi widths\n")
        assert not out.exists()

    def test_overflowing_detuning_range_is_usage_error(self, tmp_path, capsys):
        # (1e160 x 2pi x 640 Hz)^2 overflows: rejected at load, naming the
        # key, before numpy can warn; 1e150 Rabi widths still run
        cfg = tmp_path / "wide.ini"
        out = tmp_path / "out"

        def run(bound):
            cfg.write_text(f"[lineshape]\ndetuning_min_rabi = -{bound}\n"
                           f"detuning_max_rabi = {bound}\nn_points = 5\n")
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                code = main(["lineshape", "--config", str(cfg), "--out", str(out)])
            return code, capsys.readouterr().err

        assert run("1e160") == (1, "iontrack: error: [lineshape] detuning_min_rabi = "
                                   "-1e+160: the angular detuning overflows when squared\n")
        assert not out.exists()
        assert run("1e150") == (0, "")
        assert sorted(os.listdir(out)) == ["lineshape.csv", "lineshape_summary.json"]


class TestFitSpectrum:
    def _write_spectrum(self, path, rabi_hz=640.0, shots=250, seed=424242):
        pulse = PulseSpec.pi_pulse(TWO_PI * rabi_hz)
        motion = MotionalModel(nbar=80.0, eta=0.026)
        detuning_hz = np.linspace(-1.3 * rabi_hz, 1.3 * rabi_hz, 61)
        p = excitation_profile(TWO_PI * detuning_hz, pulse, motion)
        rng = np.random.default_rng(seed)
        counts = rng.binomial(shots, p)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detuning_hz", "counts", "shots"])
            for d, c in zip(detuning_hz, counts):
                writer.writerow([repr(float(d)), int(c), shots])

    def test_round_trips_config_rabi_within_uncertainty(self, tmp_path):
        spectrum = tmp_path / "spectrum.csv"
        self._write_spectrum(spectrum)
        assert main(["fit-spectrum", str(spectrum), "--out", str(tmp_path)]) == 0
        fit = read_json(tmp_path / "fit_spectrum_summary.json")["fit"]
        rabi = fit["rabi_hz"]
        assert abs(rabi["value"] - 640.0) <= 3.0 * rabi["stderr"]
        assert fit["center_hz"]["value"] == pytest.approx(0.0, abs=10.0)
        assert 0.2 < fit["reduced_chisq"] < 3.0
        assert fit["n_points"] == 61

    def test_parameter_table_written(self, tmp_path):
        spectrum = tmp_path / "spectrum.csv"
        self._write_spectrum(spectrum)
        assert main(["fit-spectrum", str(spectrum), "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "fit_spectrum.csv")
        assert rows[0] == ["parameter", "value", "stderr"]
        assert [r[0] for r in rows[1:]] == ["center_hz", "rabi_hz",
                                            "amplitude", "baseline"]

    def test_malformed_row_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("detuning_hz,counts,shots\n0.0,5,100\nx,5,100\n")
        assert main(["fit-spectrum", str(bad), "--out", str(tmp_path)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_detuning_names_line(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"detuning_hz,counts,shots\n0.0,5,100\n{value},5,100\n")
        out = tmp_path / "out"
        assert main(["fit-spectrum", str(bad), "--out", str(out)]) == 1
        assert f"{bad}: line 3: not finite as an angular frequency: '{value}'" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_counts_beyond_shots_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("detuning_hz,counts,shots\n0.0,101,100\n")
        assert main(["fit-spectrum", str(bad), "--out", str(tmp_path)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_wrong_header_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("freq,counts,shots\n0.0,5,100\n")
        assert main(["fit-spectrum", str(bad), "--out", str(tmp_path)]) == 1
        assert "header" in capsys.readouterr().err

    def test_flat_spectrum_is_numerical_failure(self, tmp_path, capsys):
        bad = tmp_path / "flat.csv"
        lines = ["detuning_hz,counts,shots"]
        lines += [f"{d},30,100" for d in range(-10, 11)]
        bad.write_text("\n".join(lines) + "\n")
        assert main(["fit-spectrum", str(bad), "--out", str(tmp_path)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_rows_times_fock_terms_bounded(self, tmp_path, capsys):
        # at nbar = 10^4 every row costs 100001 Fock terms per model evaluation
        motion = MotionalModel(nbar=1e4, eta=0.026)
        fits = MAX_PROFILE_ELEMENTS // (motion.n_cutoff + 1)
        spectrum = tmp_path / "long.csv"
        spectrum.write_text("detuning_hz,counts,shots\n" + "0.0,5,100\n" * fits)
        assert cli._read_spectrum_csv(str(spectrum), motion)[0].size == fits
        spectrum.write_text("detuning_hz,counts,shots\n" + "0.0,5,100\n" * (fits + 1))
        cfg = tmp_path / "hot.ini"
        cfg.write_text("[motion]\nnbar = 10000\n")
        out = tmp_path / "out"
        assert main(["fit-spectrum", str(spectrum), "--config", str(cfg),
                     "--out", str(out)]) == 1
        assert "must be at most" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_rejected(self, tmp_path):
        assert main(["fit-spectrum", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 1


class TestTrack:
    def test_default_summary(self, track_dir):
        summary = read_json(track_dir / "track_summary.json")
        assert summary["n_cycles"] == 128
        assert summary["lost_lock"] is False
        drift = summary["allan"]["drift_rate_hz_per_s"]
        assert drift == pytest.approx(8.2, rel=0.15)
        assert summary["position"]["mean_sigma_z_m"] == pytest.approx(
            0.13e-9, rel=0.25)
        force = summary["force"]
        assert force["stiffness_n_per_m"] == pytest.approx(1.31e-13, rel=0.01)
        assert force["sensitivity_n_per_rt_hz"] > 0.0
        assert force["single_charge_distance_m"] > 1e-3

    def test_record_csv_parses_back(self, track_dir):
        record = TrackingRecord.read_csv(track_dir / "track_record.csv")
        assert len(record) == 128
        assert record.in_window.all()

    def test_same_seed_identical_bytes(self, track_dir, tmp_path):
        assert main(["track", "--out", str(tmp_path)]) == 0
        assert tree_bytes(tmp_path) == tree_bytes(track_dir)

    def test_seed_flag_changes_record(self, track_dir, tmp_path):
        assert main(["track", "--out", str(tmp_path), "--seed", "99"]) == 0
        summary = read_json(tmp_path / "track_summary.json")
        assert summary["seed"] == 99
        assert open(tmp_path / "track_record.csv", "rb").read() != \
            open(track_dir / "track_record.csv", "rb").read()

    def test_voltage_scan_outputs_displacements(self, tmp_path):
        cfg = tmp_path / "scan.ini"
        cfg.write_text("[voltage_scan]\nenabled = true\n")
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "track_summary.json")
        assert summary["n_displacement_points"] == 6
        rows = read_csv_rows(tmp_path / "track_displacements.csv")
        assert rows[0] == ["time_s", "voltage_v", "delta_nu_hz",
                           "sigma_nu_hz", "delta_z_m", "sigma_z_m"]
        assert len(rows) - 1 == 6
        voltages = [float(r[1]) for r in rows[1:]]
        assert voltages == [1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
        # displacements follow the voltage sign at ~1 nm/V scale
        for r in rows[1:]:
            v, dz = float(r[1]), float(r[4])
            assert dz == pytest.approx(v * 1.0032e-9, abs=0.8e-9)

    def test_scan_without_anchors_is_usage_error(self, tmp_path, capsys):
        # drift correction needs zero-voltage anchors: refuse before
        # simulating anything
        cfg = tmp_path / "scan.ini"
        cfg.write_text("[voltage_scan]\nenabled = true\ninterleave_zero = off\n")
        out = tmp_path / "out"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 1
        assert "interleave_zero" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ini", [
        "[voltage_scan]\nenabled = true\n",
        "[drift]\nlinear_rate_hz_per_s = 500\n\n[tracking]\nn_cycles = 24\n",
    ], ids=["voltage-scan", "lost-lock"])
    def test_json_tables_equal_csv_tables(self, tmp_path, ini):
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        for fmt in ("csv", "json"):
            assert main(["track", "--config", str(cfg), "--format", fmt,
                         "--out", str(tmp_path / fmt)]) == 0
        scan = "voltage_scan" in ini
        names = sorted(p.stem for p in (tmp_path / "csv").glob("track_*.csv"))
        assert names == (["track_displacements"] if scan else []) + ["track_record"]
        for name in names:
            header, *rows = read_csv_rows(tmp_path / "csv" / f"{name}.csv")
            table = read_json(tmp_path / "json" / f"{name}.json")
            assert [list(entry) for entry in table] == [sorted(header)] * len(rows)
            for row, entry in zip(rows, table):
                assert [float(cell) for cell in row] == [entry[k] for k in header]
        record = read_json(tmp_path / "json" / "track_record.json")
        flags = [entry["in_window"] for entry in record]
        assert all(type(flag) is int for flag in flags)
        assert set(flags) == ({1} if scan else {0, 1})

    def test_scan_losing_lock_writes_no_files(self, tmp_path, capsys):
        # a trap so soft that the voltage shift is infinite: the scan
        # fails before it simulates, naming the shift
        cfg = tmp_path / "soft.ini"
        cfg.write_text("[trap]\nomega_z_hz = 1e-150\n\n[voltage_scan]\nenabled = true\n")
        out = tmp_path / "out"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert "voltage_frequency_shift at 1.0 V is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_probe_centre_is_usage_error(self, tmp_path, capsys):
        # finite in Hz, infinite once multiplied by 2 pi
        cfg = tmp_path / "far.ini"
        cfg.write_text("[tracking]\ninitial_nu0_hz = 1e308\nn_cycles = 3\n")
        out = tmp_path / "out"
        assert main(["track", "--config", str(cfg), "--out", str(out),
                     "--format", "json"]) == 1
        assert "initial_nu0_hz = 1e+308 overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_truth_is_numerical_failure(self, tmp_path, capsys):
        # a finite drift rate and period whose product overflows: the true
        # resonance, and with it every shot's detuning, is infinite
        cfg = tmp_path / "runaway.ini"
        cfg.write_text("[drift]\nlinear_rate_hz_per_s = 1e307\n\n"
                       "[timeline]\nrep_period_s = 1e300\n\n[tracking]\nn_cycles = 3\n")
        out = tmp_path / "out"
        assert main(["track", "--config", str(cfg), "--out", str(out)]) == 2
        assert "tracking: pulse detuning must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_runaway_drift_loses_lock(self, tmp_path):
        cfg = tmp_path / "fast.ini"
        cfg.write_text("[drift]\nlinear_rate_hz_per_s = 500\n\n"
                       "[tracking]\nn_cycles = 24\n")
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "track_summary.json")
        assert summary["lost_lock"] is True
        # the record ends on the cycle that lost lock; no figure of merit
        # is drawn from clamped estimates and no-signal sentinels
        assert summary["lost_lock_cycle"] == summary["n_cycles"] - 1
        assert len(TrackingRecord.read_csv(tmp_path / "track_record.csv")) == \
            summary["n_cycles"]
        assert summary["allan"] is None
        assert summary["position"] is None and summary["force"] is None

    def test_underflowing_position_sigma_is_numerical_failure(self, tmp_path, capsys):
        # a finite, positive Rabi frequency so small that the position
        # sigma, and with it the force sigma, underflows to zero.  Every
        # cycle is out of the window, so two cycles: a third would lose
        # lock, and a run that loses lock reports no position or force
        cfg = tmp_path / "tiny.ini"
        cfg.write_text("[pulse]\nrabi_hz = 1e-300\n\n[tracking]\nn_cycles = 2\n")
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not (tmp_path / "track_summary.json").exists()

    def test_short_run_reports_no_allan(self, tmp_path):
        cfg = tmp_path / "short.ini"
        cfg.write_text("[tracking]\nn_cycles = 2\n")
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "track_summary.json")["allan"] is None


class TestSensitivity:
    def test_default_cells(self, sensitivity_dir):
        summary = read_json(sensitivity_dir / "sensitivity_summary.json")
        assert summary["n_seeds_per_cell"] == 200
        cells = {(c["duration_s"], c["offset_rabi"]): c
                 for c in summary["cells"]}
        assert len(cells) == 9
        # headline cell: two seconds on resonance resolves ~5% of the line
        assert cells[(2.0, 0.0)]["sigma_mc_over_rabi"] == pytest.approx(
            0.05, rel=0.2)
        assert cells[(2.0, 0.0)]["sigma_analytic_over_rabi"] == pytest.approx(
            0.054059942038054976, rel=1e-9)
        # detuned rows always degrade the resolution
        for t in (2.0, 8.0, 32.0):
            assert cells[(t, 0.7)]["sigma_mc_over_rabi"] > \
                cells[(t, 0.0)]["sigma_mc_over_rabi"]
            assert cells[(t, 0.7)]["sigma_analytic_over_rabi"] > \
                cells[(t, 0.0)]["sigma_analytic_over_rabi"]

    def test_flat_line_centre_takes_the_exact_slope(self, tmp_path, monkeypatch):
        # at kappa 1e-300 both probe points sit at the line centre, where the
        # table's cubic slope, 1.7e-13 s, is rounding within its bound and the
        # exact dg/ddelta is 4.87e-304 s: sigma is the exact pass's
        ini = tmp_path / "flat.ini"
        ini.write_text("[two_point]\nkappa = 1e-300\n\n"
                       "[sensitivity]\noffsets_rabi = 0\ndurations_s = 2 8\n")
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(ini), "--out", str(out)]) == 0
        cells = read_json(out / "sensitivity_summary.json")["cells"]
        two_point = load_config(str(ini)).two_point()
        plan = estimator._plan(two_point.pulse, two_point.motion, two_point.kappa)
        monkeypatch.setattr(estimator, "_plan", lambda *args: plan._replace(table=None))
        for cell in cells:
            cell_cfg = replace(two_point, shots_per_side=cell["shots_per_side"])
            exact = estimator.analytic_sigma(cell_cfg, 0.0) / two_point.pulse.rabi
            assert cell["sigma_analytic_over_rabi"] == pytest.approx(exact, rel=1e-12)
        assert cells[0]["sigma_analytic_over_rabi"] == pytest.approx(5.89e297, rel=1e-3)

    def test_overflowing_offset_is_usage_error(self, tmp_path, capsys):
        # a cell's farthest probe point, (4e150 + kappa) Rabi widths,
        # overflows when squared: rejected at load, naming the key
        cfg = tmp_path / "far.ini"
        cfg.write_text("[sensitivity]\noffsets_rabi = 0.0 4e150\nn_seeds = 4\n")
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("iontrack: error: [sensitivity] offsets_rabi = "
                                           "4e+150: the angular detuning overflows when squared\n")
        assert not out.exists()

    def test_table_matches_summary(self, sensitivity_dir):
        rows = read_csv_rows(sensitivity_dir / "sensitivity.csv")
        assert rows[0] == ["duration_s", "offset_rabi", "shots_per_side",
                           "sigma_mc_over_rabi", "sigma_analytic_over_rabi"]
        assert len(rows) - 1 == 9
        summary = read_json(sensitivity_dir / "sensitivity_summary.json")
        assert float(rows[1][3]) == summary["cells"][0]["sigma_mc_over_rabi"]

    def test_rows_scale_as_inverse_root_time(self, tmp_path):
        cfg = tmp_path / "many.ini"
        cfg.write_text("[sensitivity]\nn_seeds = 2000\n")
        assert main(["sensitivity", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        summary = read_json(tmp_path / "sensitivity_summary.json")
        by_offset = {}
        for cell in summary["cells"]:
            by_offset.setdefault(cell["offset_rabi"], []).append(
                (cell["duration_s"], cell["sigma_mc_over_rabi"]))
        for offset, pairs in by_offset.items():
            t = np.array([p[0] for p in sorted(pairs)])
            sig = np.array([p[1] for p in sorted(pairs)])
            x = 1.0 / np.sqrt(t)
            c = float(np.dot(x, sig) / np.dot(x, x))
            ss_res = float(np.sum((sig - c * x) ** 2))
            ss_tot = float(np.sum((sig - sig.mean()) ** 2))
            assert 1.0 - ss_res / ss_tot > 0.99, f"offset {offset}"

    def test_duration_below_one_shot_pair_is_numerical_failure(self, tmp_path,
                                                               capsys):
        cfg = tmp_path / "short.ini"
        cfg.write_text("[sensitivity]\ndurations_s = 0.01\n")
        assert main(["sensitivity", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "no complete shot pair" in capsys.readouterr().err

    @pytest.mark.parametrize("ini, duration, rep_period", [
        ("[sensitivity]\ndurations_s = 1e300\n", "1e+300", "0.02"),
        ("[timeline]\nrep_period_s = 1e-300\n", "2.0", "1e-300"),
    ], ids=["duration", "rep-period"])
    def test_too_many_shots_per_side_is_usage_error(self, tmp_path, capsys, ini,
                                                    duration, rep_period):
        # a cell's shots per side, duration / rep_period / 2, has the bound
        # of [two_point] shots_per_side: rejected at load, naming both keys
        cfg = tmp_path / "long.ini"
        cfg.write_text(ini)
        out = tmp_path / "out"
        assert main(["sensitivity", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"iontrack: error: [sensitivity] durations_s = {duration} at [timeline] "
            f"rep_period_s = {rep_period} gives more than 1000000 shots per side\n")
        assert not out.exists()

    def test_same_seed_identical_bytes(self, sensitivity_dir, tmp_path):
        assert main(["sensitivity", "--out", str(tmp_path)]) == 0
        assert tree_bytes(tmp_path) == tree_bytes(sensitivity_dir)

    def test_same_bytes_without_the_memo(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[sensitivity]\ndurations_s = 2.0 4.0\noffsets_rabi = 0.0 0.7\n"
                       "n_seeds = 60\n")
        # the count pairs each cell draws, and the g values it inverts
        draws, calls = [], []
        invert, default_rng = cli.g_invert, np.random.default_rng

        def recorded(g_value, cell_cfg):
            calls.append((g_value, cell_cfg.shots_per_side))
            return invert(g_value, cell_cfg)

        def recording_rng(seed):
            rng, cell = default_rng(seed), []
            draws.append(cell)

            class Recorded:
                def binomial(self, *args, **kwargs):
                    cell.append(rng.binomial(*args, **kwargs))
                    return cell[-1]
            return Recorded()

        def run(name):
            calls.clear()
            for fmt in ("csv", "json"):
                draws.clear()
                assert main(["sensitivity", "--config", str(cfg), "--format", fmt,
                             "--out", str(tmp_path / name / fmt)]) == 0
            return tree_bytes(tmp_path / name)

        monkeypatch.setattr(cli, "g_invert", recorded)
        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        shared = run("shared")
        # cells (2 s, 0), (2 s, 0.7), (4 s, 0), (4 s, 0.7): the offset-0
        # cells invert, 50 and 100 shots per side
        inverted = []
        for (c_plus, c_minus), per_side in zip(draws[::2], (50, 100)):
            plus, minus = c_plus / per_side, c_minus / per_side
            g_values = set(((plus - minus) / (plus + minus)).tolist())
            cell = [g for g, n in calls[:len(calls) // 2] if n == per_side]
            assert sorted(cell) == sorted(g_values)
            # every pair a = b gives g = 0: fewer inversions than pairs
            pairs = set(zip(c_plus.tolist(), c_minus.tolist()))
            assert sum(a == b for a, b in pairs) > 1
            assert len(cell) < len(pairs)
            inverted.append(len(cell))
        assert calls[:len(calls) // 2] == calls[len(calls) // 2:]
        assert len(calls) == 2 * sum(inverted)
        # the same bytes as inverting every seed's g on its own
        monkeypatch.setattr(np, "unique", lambda values, return_inverse:
                            (values, np.arange(values.size)))
        assert run("per_seed") == shared
        assert len(calls) == 2 * 2 * 60

    @pytest.mark.parametrize("offset", ["0.0", "0.7"])
    def test_no_signal_seed_is_numerical_failure(self, tmp_path, capsys, offset):
        # one shot per side: a seed that counts no bright event on either
        # side leaves nothing to invert, inside the capture window and in
        # the linearised estimate outside it
        cfg = tmp_path / "single.ini"
        cfg.write_text(f"[sensitivity]\ndurations_s = 0.04\noffsets_rabi = {offset}\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sensitivity", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"iontrack: numerical failure: sensitivity cell duration 0.04 s, offset {offset} "
            "Rabi: no bright events on either side: no signal to invert\n")
        assert not out.exists()


class TestCalibrate:
    CALIB_INI = "[trap]\noffset_field_t = 6e-4\n"

    def _write_frequencies(self, tmp_path, n_ions):
        from iontrack.atomphys import equilibrium_positions, transition_frequency
        from iontrack.config import loads
        run = loads(self.CALIB_INI)
        species, env = run.species(), run.trap()
        z = equilibrium_positions(n_ions, env, species)
        path = tmp_path / "freqs.txt"
        lines = ["# per-ion transition frequencies, ordinary Hz"]
        for zi in z:
            nu = transition_frequency(species, 6e-4 + 19.07 * zi)
            lines.append(repr(nu / TWO_PI))
        path.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "calib.ini"
        cfg.write_text(self.CALIB_INI)
        return path, cfg

    def test_recovers_gradient_from_eight_ions(self, tmp_path):
        freqs, cfg = self._write_frequencies(tmp_path, 8)
        assert main(["calibrate", str(freqs), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        grad = read_json(tmp_path / "calibrate_summary.json")["gradient"]
        assert grad["gradient_t_per_m"] == pytest.approx(19.07, rel=1e-6)
        assert grad["field_intercept_t"] == pytest.approx(6e-4, rel=1e-6)
        assert grad["monotone"] is True
        assert grad["n_ions"] == 8
        rows = read_csv_rows(tmp_path / "calibrate.csv")
        assert rows[0] == ["ion_index", "position_m", "field_t"]
        assert len(rows) - 1 == 8

    def test_two_ions_have_null_stderr(self, tmp_path):
        freqs, cfg = self._write_frequencies(tmp_path, 2)
        assert main(["calibrate", str(freqs), "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        grad = read_json(tmp_path / "calibrate_summary.json")["gradient"]
        assert grad["gradient_stderr_t_per_m"] is None
        assert grad["gradient_t_per_m"] == pytest.approx(19.07, rel=1e-6)

    def test_bad_line_is_named(self, tmp_path, capsys):
        path = tmp_path / "freqs.txt"
        path.write_text("12.65e9\n12.66e9\nnot-a-number\n")
        assert main(["calibrate", str(path), "--out", str(tmp_path)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_non_finite_frequency_names_line(self, tmp_path, capsys, value):
        path = tmp_path / "freqs.txt"
        path.write_text(f"12.65e9\n{value}  # ion 2\n12.66e9\n")
        out = tmp_path / "out"
        assert main(["calibrate", str(path), "--out", str(out)]) == 1
        assert f"{path}: line 2: not finite as an angular frequency: '{value}'" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_single_frequency_rejected(self, tmp_path, capsys):
        path = tmp_path / "freqs.txt"
        path.write_text("12.65e9\n")
        assert main(["calibrate", str(path), "--out", str(tmp_path)]) == 1
        assert "two" in capsys.readouterr().err

    @pytest.mark.parametrize("ini, message", [
        ("omega_z_hz = 1e-300\n", "omega_z_hz = 1e-300: the axial stiffness m omega_z^2 is "
                                   "0.0 N/m"),
        ("omega_z_hz = 5e-324\n", "omega_z_hz = 5e-324: the axial stiffness m omega_z^2 is "
                                   "0.0 N/m"),
        ("omega_z_hz = 1e300\n", "omega_z_hz = 1e+300: the axial stiffness m omega_z^2 is "
                                  "inf N/m"),
        ("omega_z_hz = 1e150\n\n[species]\nmass_u = 1e30\n",
         "omega_z_hz = 1e+150: the chain's length scale underflows to 0 at m omega_z^2 = "
         "6.55554547195847e+304 N/m"),
    ], ids=["1e-300", "5e-324", "1e300", "length-scale"])
    def test_stiffness_out_of_range_is_usage_error(self, tmp_path, capsys, ini, message):
        # the chain's length scale divides by m omega_z^2: rejected at load,
        # naming the key, where it used to end in ZeroDivisionError or
        # OverflowError as a numerical failure
        freqs, _cfg = self._write_frequencies(tmp_path, 3)
        cfg = tmp_path / "trap.ini"
        cfg.write_text(f"[trap]\n{ini}")
        out = tmp_path / "out"
        assert main(["calibrate", str(freqs), "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"iontrack: error: [trap] {message}\n"
        assert not out.exists()

    def test_unphysical_frequency_is_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "freqs.txt"
        path.write_text("12.0e9\n12.1e9\n")
        assert main(["calibrate", str(path), "--out", str(tmp_path)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_frequency_above_field_bracket_is_numerical_failure(self, tmp_path,
                                                                 capsys):
        # 14.3 GHz needs more than the 0.1 T the field inversion searches
        path = tmp_path / "freqs.txt"
        path.write_text("12.65e9\n14.3e9\n")
        out = tmp_path / "out"
        assert main(["calibrate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "above the field bracket" in err and "0.1 T" in err
        assert not out.exists()

    def test_unconverged_chain_is_numerical_failure(self, tmp_path, capsys,
                                                    monkeypatch):
        freqs, cfg = self._write_frequencies(tmp_path, 4)
        monkeypatch.setattr(atomphys, "EQUILIBRIUM_MAX_ITER", 0)
        out = tmp_path / "out"
        assert main(["calibrate", str(freqs), "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert "chain equilibrium" in capsys.readouterr().err
        assert not out.exists()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "iontrack" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["polish"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["track", "--out", str(tmp_path), "--louder"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["track", "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path)]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_summary_embeds_version_and_seed(self, track_dir):
        from iontrack import __version__
        summary = read_json(track_dir / "track_summary.json")
        assert summary["version"] == __version__
        assert summary["seed"] == 12345

    @pytest.mark.parametrize("section, key, value", [
        ("pulse", "rabi_hz", "nan"),
        ("trap", "gradient_t_per_m", "nan"),
        ("drift", "linear_rate_hz_per_s", "inf"),
        ("motion", "nbar", "inf"),
    ])
    def test_non_finite_config_is_usage_error(self, tmp_path, capsys,
                                              section, key, value):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "track_summary.json").exists()

    @pytest.mark.parametrize("command, section, key", [
        ("track", "motion", "nbar"),
        ("lineshape", "lineshape", "nbar_values"),
    ])
    def test_thermal_cutoff_above_its_cap_is_usage_error(self, tmp_path, capsys,
                                                         command, section, key):
        cfg = tmp_path / "hot.ini"
        cfg.write_text(f"[{section}]\n{key} = 1e9\n\n[tracking]\nn_cycles = 3\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "needs a thermal cutoff above 100000 Fock states" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_overflowing_thermal_cutoff_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "hot.ini"
        cfg.write_text("[motion]\nnbar = 1e308\n")
        assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "track_summary.json").exists()

    def test_non_finite_json_table_is_numerical_failure(self, tmp_path, capsys,
                                                         monkeypatch):
        with pytest.raises(NumericalError, match="track_record.json"):
            _write_outputs(str(tmp_path / "direct"), "json", "track",
                           [("track_record", ["value"], [[math.inf]])], {"value": 1.0})
        monkeypatch.setattr(cli, "excitation_profile",
                            lambda detunings, *args: np.full(len(detunings), math.nan))
        out = tmp_path / "out"
        assert main(["lineshape", "--out", str(out), "--format", "json"]) == 2
        assert "lineshape.json: Out of range float values" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_out_naming_a_file_is_io_error(self, tmp_path, capsys):
        # the command runs; creating the output directory then fails
        out = tmp_path / "taken"
        out.write_bytes(b"not a directory\n")
        assert main(["lineshape", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"iontrack: error: [Errno 17] File exists: '{out}'\n"
        assert out.read_bytes() == b"not a directory\n"
        assert os.listdir(tmp_path) == ["taken"]

    def test_non_finite_summary_is_numerical_failure(self, tmp_path):
        with pytest.raises(NumericalError, match="track_summary.json"):
            _write_outputs(str(tmp_path), "csv", "track",
                           [("track_record", ["value"], [[1.0]])],
                           {"value": float("nan")})
        assert tree_bytes(tmp_path) == {}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["track", "sensitivity"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command, source):
        # numpy seeds only from non-negative integers: rejected at load,
        # naming the flag or the key, before anything is written
        cfg = tmp_path / "seed.ini"
        cfg.write_text("[drift]\nseed = -1\n" if source == "config" else "")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert main(argv + (["--seed", "-1"] if source == "flag" else [])) == 1
        where = "--seed" if source == "flag" else "[drift] seed ="
        assert capsys.readouterr().err == \
            f"iontrack: error: {where} -1: the seed must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key", [
        ("track", "tracking", "n_cycles"),
        ("sensitivity", "sensitivity", "n_seeds"),
        ("lineshape", "lineshape", "n_points"),
        ("track", "two_point", "shots_per_side"),
    ])
    def test_huge_size_key_is_usage_error(self, tmp_path, capsys, command, section, key):
        cfg = tmp_path / "huge.ini"
        cfg.write_text(f"[{section}]\n{key} = 100000000000\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "must be at most" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "sensitivity"])
    def test_zero_slope_is_numerical_failure(self, tmp_path, capsys, command):
        # kappa = 1e-300 puts both probes on one point: dg/ddelta is 0, and
        # the estimate's sigma is unbounded
        cfg = tmp_path / "flat.ini"
        cfg.write_text("[two_point]\nkappa = 1e-300\n\n[tracking]\nn_cycles = 3\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("iontrack: numerical failure: ZeroDivisionError: "
                              "dg/ddelta = 0 at the offset delta = ")
        assert err.endswith(" rad/s: the estimate's standard error is unbounded\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["track", "sensitivity"])
    # g(+-w) in the message are thermal sums: they moved in their last
    # digits (from ...271 and ...575) when the Fock sum became a Gauss rule
    @pytest.mark.parametrize("duration, area, g_edge", [
        ("0.0015625", "2", "0.5700138309945274"),
        ("0.00390625", "5", "0.30776119911995603"),
    ], ids=["2pi", "5pi"])
    def test_falling_window_is_numerical_failure(self, tmp_path, capsys, command,
                                                 duration, area, g_edge):
        # at 2 pi and 5 pi, kappa 0.8, g falls from edge to edge of the
        # capture window: no offset in it can be inverted
        cfg = tmp_path / "falling.ini"
        cfg.write_text(f"[pulse]\nduration_s = {duration}\n\n[tracking]\nn_cycles = 8\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            f"g falls across the capture window at kappa = 0.8 and pulse area {area} pi: "
            f"g(-w) = {g_edge} > g(w) = -{g_edge}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, ini", [
        ("track", "[drift]\nlinear_rate_hz_per_s = 1e300\n\n[tracking]\nn_cycles = 3\n"),
        ("track", "[timeline]\nrep_period_s = 1e300\n\n[tracking]\nn_cycles = 3\n"),
    ], ids=["drift-rate", "rep-period"])
    def test_float_overflow_is_numerical_failure(self, tmp_path, capsys, command, ini):
        cfg = tmp_path / "huge.ini"
        cfg.write_text(ini)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "numerical failure: OverflowError" in capsys.readouterr().err
        assert not out.exists()
