"""Byte-level goldens: the SHA-256 of every file each CLI run writes.

Each case runs `cli.main` at a fixed seed on the default config or on a
small input the test writes, and compares the digest of every output
file with one recorded from an earlier tree.  A change that should
leave the outputs alone must keep these digests; a change that moves
them on purpose must say so and record the new ones.
"""
import hashlib
import math
import os

import pytest

from iontrack.cli import main
from iontrack.config import loads
from iontrack.estimator import _plan
from iontrack.lineshape import _motional_arrays
from iontrack.simulator import DriftModel, ExperimentTimeline

# A 25-point pi-pulse scan of the default line (640 Hz Rabi, nbar 80),
# 100 shots per point.
SPECTRUM_CSV = "detuning_hz,counts,shots\n" + "".join(
    f"{d},{c},100\n" for d, c in zip(
        range(-768, 769, 64),
        [19, 21, 32, 41, 45, 62, 72, 68, 81, 90, 96, 99, 99,
         99, 92, 93, 86, 73, 66, 62, 53, 40, 32, 20, 22]))

# Four ions in a 19.07 T/m gradient about 0.6 mT, ordinary Hz.
FREQUENCIES_TXT = """\
# per-ion transition frequencies, ordinary Hz
12646585035.570433
12649759462.60357
12652697279.702642
12655874766.942284
"""
CALIBRATE_INI = "[trap]\noffset_field_t = 6e-4\n"
SCAN_INI = "[voltage_scan]\nenabled = true\n"
# The Breit-Rabi variant reaches the voltage shifts, eta and the position
# slope of a scan, and the field inversion of a calibration.
SINGLE_CROSS = "[tracking]\nvariant = single-cross\n"

# Small runs on the paths the default config never reaches: 32 cycles,
# and 50 seeds over 2 s and 8 s per sensitivity cell.
SMALL_RUN = "[tracking]\nn_cycles = 32\n[sensitivity]\ndurations_s = 2 8\nn_seeds = 50\n"

# branch -> (config text over SMALL_RUN, the commands it runs, check on the
# loaded config and its estimator plan that the run reaches the branch)
BRANCHES = {
    # the table holds node -1, p(-h)
    "kappa-0.3": ("[two_point]\nkappa = 0.3\n", ("track", "sensitivity"),
                  lambda cfg, plan: plan.table.origin == -1 and plan.grid is not None),
    # g falls inside the window: a table, but no certified grid
    "three-pi": ("[pulse]\nduration_s = 0.00234375\n", ("track", "sensitivity"),
                 lambda cfg, plan: plan.table is not None and plan.grid is None),
    # no table: every shot and step is exact.  At kappa 0.8 g falls through
    # the line centre, and the default ramp loses lock at kappa 0.5.
    "five-pi": ("[pulse]\nduration_s = 0.00390625\n[two_point]\nkappa = 0.5\n"
                "[drift]\nlinear_rate_hz_per_s = 0\n", ("track", "sensitivity"),
                lambda cfg, plan: plan.table is None),
    "blocked-errors": ("[timeline]\nshot_order = blocked\ndetection_error_bright = 0.05\n"
                       "detection_error_dark = 0.02\n", ("track",),
                       lambda cfg, plan: cfg.timeline() == ExperimentTimeline(
                           0.02, 0.05, 0.02, "blocked")),
    "walk-line": ("[drift]\nrandom_walk_hz_per_rt_s = 2\nline_amplitude_hz = 5\n", ("track",),
                  lambda cfg, plan: cfg.drift() == DriftModel(
                      2 * math.pi * 8.2, 2 * math.pi * 2, 2 * math.pi * 5, 777)),
    # only the motional ground state is populated
    "nbar-0": ("[motion]\nnbar = 0\n", ("track", "sensitivity"),
               lambda cfg, plan: (_motional_arrays(cfg.motion())[0].tolist()
                                  == [1.0] + [0.0] * 30)),
}

# case -> (argv, inputs the test writes); "{name}" in argv is that input's path
CASES = {
    "lineshape-csv": (["lineshape", "--seed", "777"], {}),
    "lineshape-json": (["lineshape", "--seed", "777", "--format", "json"], {}),
    "track-csv": (["track", "--seed", "777"], {}),
    "track-json": (["track", "--seed", "777", "--format", "json"], {}),
    "sensitivity-csv": (["sensitivity", "--seed", "777"], {}),
    "sensitivity-json": (["sensitivity", "--seed", "777", "--format", "json"], {}),
    "voltage-scan": (["track", "--seed", "777", "--config", "{scan.ini}"],
                     {"scan.ini": SCAN_INI}),
    "fit-spectrum": (["fit-spectrum", "{spectrum.csv}", "--seed", "777"],
                     {"spectrum.csv": SPECTRUM_CSV}),
    "calibrate": (["calibrate", "{freqs.txt}", "--seed", "777",
                   "--config", "{calib.ini}"],
                  {"freqs.txt": FREQUENCIES_TXT, "calib.ini": CALIBRATE_INI}),
    "single-cross-scan": (["track", "--seed", "777", "--config", "{scan.ini}"],
                          {"scan.ini": SCAN_INI + "[motion]\neta = auto\n"
                           + SINGLE_CROSS}),
    "single-cross-calibrate": (["calibrate", "{freqs.txt}", "--seed", "777",
                                "--config", "{calib.ini}"],
                               {"freqs.txt": FREQUENCIES_TXT,
                                "calib.ini": CALIBRATE_INI + SINGLE_CROSS}),
}
CASES.update({f"{branch}-{command}": ([command, "--seed", "777", "--config", "{case.ini}"],
                                      {"case.ini": text + SMALL_RUN})
              for branch, (text, commands, _check) in BRANCHES.items() for command in commands})

# case -> {output file: SHA-256}
# The track summaries' Allan fields (drift rate, white level, fit
# residual) and both fit-spectrum files moved when the scipy fits were
# replaced by numpy solvers: each now stops at the optimum, where scipy
# stopped within its tolerances of it, and a drift rate on its bound is
# exactly 0.0.  The records, displacements and other commands are as before.
# Both fit-spectrum files moved again when the fit took its centre and Rabi
# Jacobian columns from the lineshape kernel in place of forward
# differences: the steps differ in their last bits, the centre moved by
# 2.4e-6 Hz (3.3e-7 of its standard error) and each standard error by at
# most 3.3e-6 of itself.  Every other case is unchanged.
# Every track and sensitivity case moved when dg/ddelta stopped being a
# central difference with step 1e-3 Omega_0 (an h^2 error) and became the
# table's cubic slope inside the window and one exact kernel pass outside
# it.  Only sigma-derived fields moved: each record's sigma_nu_hz, the
# displacements' sigma columns, the summaries' position and force fields,
# every analytic column, and the Monte-Carlo column of out-of-window cells.
# At a pi pulse they moved by at most 7.8e-7 of themselves, at kappa 0.3 by
# 1.3e-7, at 3 pi by 5.2e-5 and at 5 pi by 3.5e-5: the old step's error
# grows with the pulse area.  Every estimate, true_nu, in_window flag and
# in-window Monte-Carlo value is as before.
# The ten track summaries (track-csv, track-json, voltage-scan,
# single-cross-scan and the kappa-0.3, three-pi, five-pi, blocked-errors,
# walk-line and nbar-0 track cases) moved in their Allan fields alone
# (drift rate, white level, fit residual) when the Allan fit became the
# closed-form fit of adev^2 = A / tau + D tau^2, weighted by 1 / (2 adev
# sigma), in place of Gauss-Newton on adev weighted by 1 / sigma.  The two
# objectives agree to first order in the residual: the default run's drift
# rate moved 8.18758 -> 8.18708 Hz/s and its white level 50.570 -> 50.559
# Hz rt(s).  The scans' fits sit on the d = 0 face in both, but the model
# fits a stepped 13-cycle record badly at its three taus, so the
# second-order difference shows: the voltage-scan white level moved
# 208.77 -> 147.83 Hz rt(s) (reduced chi-square 12.0 -> 13.4) and the
# single-cross scan's 210.31 -> 164.44 (5.0 -> 6.1).  Every record,
# displacement file and other command's output is as before.
# Every case but calibrate and single-cross-calibrate moved when the
# lineshape kernel took sin^2 x as T^2 / (1 + T^2) from one T = tan x, and
# its slope term s (s - x c) as T (T - x) / (1 + T^2), in place of sin and
# cos.  Each Fock term moved in its last bits, so only these moved: 419 of
# the 1203 lineshape values, by at most 5.1e-16 of themselves (the widths
# did not move); each record's sigma_nu_hz (111 of the default run's 128
# rows, by at most 1.2e-13; 3.0e-13 at kappa 0.3), the displacements'
# sigma columns and the summaries' position and force fields; the analytic
# column, and the Monte-Carlo column of out-of-window cells, in the
# sensitivity runs (by at most 4.4e-16 at the default config, 2.1e-13 at
# kappa 0.3); and every fit-spectrum value and standard error, by at most
# 2.5e-14 of itself (centre 3.8572350350964077 -> 3.857235035096352 Hz,
# against a standard error of 7.08 Hz).  Every estimate, true_nu,
# in_window flag and in-window Monte-Carlo value is as before.
# Every case but calibrate, single-cross-calibrate, nbar-0-track and
# nbar-0-sensitivity moved when each thermal sum became a Gauss rule of a
# few nodes (7 at the default pi pulse and nbar 80) in place of its
# cutoff + 1 Fock terms: the rule is within 2^-53 of the Fock sum, and the
# two round differently.  At nbar 0 the rule is the single Fock term n = 0,
# bit for bit.  Only these moved: 708 of the 1203 lineshape values, by at
# most 3.8e-14 of themselves (the widths did not move); each record's
# sigma_nu_hz (128 of the default run's 128 rows, by at most 4.7e-13; 1.1e-12
# at kappa 0.3), the displacements' sigma columns and the summaries'
# position and force fields; the analytic column, and the Monte-Carlo
# column of out-of-window cells, in the sensitivity runs (by at most
# 1.1e-13 at the default config, 3.3e-13 at kappa 0.3); and every
# fit-spectrum value and standard error, by at most 5.5e-14 of itself.
# Every estimate, true_nu, in_window flag and in-window Monte-Carlo value
# is as before.
GOLDENS = {
    "blocked-errors-track": {
        "track_record.csv":
            "7d301b41a7886e06d4f0148f5f61d29983da547a9383c1e347c0d9ee960a6710",
        "track_summary.json":
            "12ba377adf0e3f131d6a9e4dc76a5f2083509fd481f46e91348959c0d9e9ac17",
    },
    "calibrate": {
        "calibrate.csv":
            "0f4cc2ef852c547a5eb8306e6015a4e8a34b4845a2cb9b2a5b033c540c7a5f35",
        "calibrate_summary.json":
            "c9cd8d781f5c4cfb4702863519a7160e0b05093f64347d45045eaf2b864a0ab9",
    },
    "fit-spectrum": {
        "fit_spectrum.csv":
            "f171e3b2a89b787d461309c8b188bad436fc46084addce06300ed67cf59f3f29",
        "fit_spectrum_summary.json":
            "675a982261e290d639dc6388858973ae18b6be7fece9d312a231d64972704885",
    },
    "five-pi-sensitivity": {
        "sensitivity.csv":
            "51cc368cd1c2ce1b2e9605e80f77a2f9b79f561a0f15cd822138138d7ffbd82a",
        "sensitivity_summary.json":
            "cb3e1ea3a3b25b576f8b302ccf0451b281053f01961dfc0dac9afd4eb9c87468",
    },
    "five-pi-track": {
        "track_record.csv":
            "85ffca9f978e8f8b6469018323473afa20eafe2fae275fc1d3460fc0ec3bc113",
        "track_summary.json":
            "7819c58996c66aa7f2067408485d254e0d6b3d1136281d212f03e1732b029cf0",
    },
    "kappa-0.3-sensitivity": {
        "sensitivity.csv":
            "569d5a7471dad86eea98bd47d55def637499f6200c346ecf4599f890fcf9a53d",
        "sensitivity_summary.json":
            "4a9b98341f09616e279fecd7786cee2fc479d5951439514c2676cd6066631bda",
    },
    "kappa-0.3-track": {
        "track_record.csv":
            "be47a998653fb1ed42b0e0c138de2a91fe73e5a1674acc92ecab06a60999ba94",
        "track_summary.json":
            "db2fc4393402cbac960d5f5c823840d25d8165f8567e7b945caacc3ca379d9ad",
    },
    "lineshape-csv": {
        "lineshape.csv":
            "a7971873dae63dd8ec2ccecff6820e16f34f0fe8b4d40c4cfb1e58abe5a9ed61",
        "lineshape_summary.json":
            "ffe83595631421fc5ff3f4d425a3215dd83063d22ec106b4457e488fc545dc65",
    },
    "lineshape-json": {
        "lineshape.json":
            "3a20b824ba09cb8a30847dd5b95fd23f2e379d4723bb90aacc951660eb8f2d2c",
        "lineshape_summary.json":
            "cd1636134cde9ecfecce9fbf8367bdeb3e0ac24c2f9b8544d0f861ac674e2ab2",
    },
    "nbar-0-sensitivity": {
        "sensitivity.csv":
            "7deab5bf4afdae0858d8cc78c4ab17b6414e359e7acfd4d222499d0759b66ac4",
        "sensitivity_summary.json":
            "ee5bcfc4d631c62c6b5fe79d9de06f062af0df4ea695aa2a6f54138bfbf7e7d3",
    },
    "nbar-0-track": {
        "track_record.csv":
            "24bd0d333663899ac40274c058584faa871d3db408c76441630586c8d484bf16",
        "track_summary.json":
            "9a23634175574a26ee2fa5408bb605f2aec0e324f1a7bbd8d112cc2d3b8c5573",
    },
    "sensitivity-csv": {
        "sensitivity.csv":
            "2f2340e31cae35f96e6d0048d49952e7fdd5a014822c3be3c891518d8af081c3",
        "sensitivity_summary.json":
            "eae25b4f8e4b6359d191b37f8d9c46edabe2e394c88678eeed74fe9884160e00",
    },
    "sensitivity-json": {
        "sensitivity.json":
            "f9417148c3911a88c86fb58546856b709be6092e52343cb307c74fdd1cc09ba8",
        "sensitivity_summary.json":
            "eae25b4f8e4b6359d191b37f8d9c46edabe2e394c88678eeed74fe9884160e00",
    },
    "single-cross-calibrate": {
        "calibrate.csv":
            "f1d47e5ce48db9f9f3cfb6d331cfeaa1c32a0a6a7f52f77dcf34e48ff18791f2",
        "calibrate_summary.json":
            "dba04db9b3e9566887978e54662ba52f233acd56a791246bd2fc2c9a64320ea7",
    },
    "single-cross-scan": {
        "track_displacements.csv":
            "89edaacc029da8af0a670c431b82ece2415e7b1a33e302cad0ca085ccc5c9238",
        "track_record.csv":
            "ca8763370580f2a02c6c03e6f3216228b40e859f2016bee2f8d47bbf3031e6bb",
        "track_summary.json":
            "fe7115ca1cbdf377f28745584afd4fe257c7de58a6823b81f8b549484080383c",
    },
    "three-pi-sensitivity": {
        "sensitivity.csv":
            "51227323356e3a4ee3d904738927a66059665d1306b976f560a36e00077bf7d3",
        "sensitivity_summary.json":
            "f71354941af64937c68a21d59646d8ae9f9b31c6177de552bb9fc8f0ae38bdf1",
    },
    "three-pi-track": {
        "track_record.csv":
            "c776e8a57e0edc3d0540af808da2b794b33a0130b700b809eef7cb8e102c4b6c",
        "track_summary.json":
            "ac3640a966edd1f8cc7a43765725a87d579c6d8ce423d6545267dae1f26cb249",
    },
    "track-csv": {
        "track_record.csv":
            "0ae5afc58084913aed467c3c2f11fef527714b22baad2459f7994b87ef69754c",
        "track_summary.json":
            "b3c653ad0a630d71b2d1c2b3e2979da35edb2e324dd3b6047f324b2021f0aa72",
    },
    "track-json": {
        "track_record.json":
            "1edc48670551040d62cd2595086158bf83b83182ab54ecf48504c8d1ec9ef314",
        "track_summary.json":
            "668288cb0d792d92f2590e70bec5200091f6aa3d448a9f0e6fe711cd8bd6be68",
    },
    "voltage-scan": {
        "track_displacements.csv":
            "e98c0dde506de841ece19b40689baecd3e8445cd8747151d239844cdd7576150",
        "track_record.csv":
            "8d787fe1532428abdec71070c4c27d8f0b669aa81e1c26b4b9bd4db762b91889",
        "track_summary.json":
            "85c7b82b15c124a56206d0e01950935b27a8ae0d04b6c41dabf668a2ba91d189",
    },
    "walk-line-track": {
        "track_record.csv":
            "2ef1ebf7aef46b2e957599f38c3d9888e36522ecfa559f8bf7522b0c9313642c",
        "track_summary.json":
            "2e0cf206ee6ab33194dc7ecf55fd9c32c44915fa58f5cbb557b42e4214362be7",
    },
}


def _digests(out_dir) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_goldens(case, tmp_path):
    argv, inputs = CASES[case]
    paths = {}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        paths["{" + name + "}"] = str(tmp_path / name)
    out = tmp_path / "out"
    assert main([paths.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 0
    assert _digests(out) == GOLDENS[case]


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_branch_cases_reach_their_branches(branch):
    text, _commands, check = BRANCHES[branch]
    cfg = loads(text + SMALL_RUN, seed=777)
    assert check(cfg, _plan(cfg.pulse(), cfg.motion(), cfg.kappa))
