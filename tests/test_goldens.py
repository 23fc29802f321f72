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
GOLDENS = {
    "blocked-errors-track": {
        "track_record.csv":
            "e701e4a2abd758b8f8aa2bfbcd0ef175f90d78b61cf93b6844e36443e234f0f3",
        "track_summary.json":
            "99115127488b1c226667e75675ac9b49c7f314cc81f9b2d9a10698995bf67f2e",
    },
    "calibrate": {
        "calibrate.csv":
            "0f4cc2ef852c547a5eb8306e6015a4e8a34b4845a2cb9b2a5b033c540c7a5f35",
        "calibrate_summary.json":
            "c9cd8d781f5c4cfb4702863519a7160e0b05093f64347d45045eaf2b864a0ab9",
    },
    "fit-spectrum": {
        "fit_spectrum.csv":
            "d68a042baa616553b1ae23a17d56676d0bf41ce499ec238801bb1ed9709334c0",
        "fit_spectrum_summary.json":
            "fb7e6a3c3d145dcecf18f9d50195514aea1b87b2f5c156b6348d58686b86abc6",
    },
    "five-pi-sensitivity": {
        "sensitivity.csv":
            "2fb70daab7ddbf44126e7fda1098436fb4966f2f91e97979550551a6c8931796",
        "sensitivity_summary.json":
            "66e2c4e53460e7ddf3c2a7780d73aae98bbc964ff297cbbc56bc6603a8491271",
    },
    "five-pi-track": {
        "track_record.csv":
            "a77be2ff2351bde4945e4b63d0eeeac13528b52510f0348c3d38c8c1a53dafea",
        "track_summary.json":
            "5463da0d0cfc3518384de97cc2c397760c5673199bb455d5105ff498b6637103",
    },
    "kappa-0.3-sensitivity": {
        "sensitivity.csv":
            "e18300d0ff78c8c018243e64670fda592616e124a759e09c0292639528b54a19",
        "sensitivity_summary.json":
            "9dccc95d9beb7a78c0d4a38339ba347d39a48ca0606debe79ba4e3ce014ae6fa",
    },
    "kappa-0.3-track": {
        "track_record.csv":
            "f053a355142311d88ad7e540cea55206d8cca716851c9e61cc790f52e9111c55",
        "track_summary.json":
            "9b1166e9528f122d29db90200cc6e85567470ed97e6295be6c5e707abb6f1607",
    },
    "lineshape-csv": {
        "lineshape.csv":
            "b17966192705f67db12186901038b2d30f0f5429773f0bfddb1a26b4e2477df9",
        "lineshape_summary.json":
            "ffe83595631421fc5ff3f4d425a3215dd83063d22ec106b4457e488fc545dc65",
    },
    "lineshape-json": {
        "lineshape.json":
            "0b370db23f8fa193a3c981a0edea404ec550d660658f2e9c515b37a1fe632852",
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
            "f0bf47298e3c6cced242f5317dc8c92147b563ead6b3d0d88f60e5cafdb26afa",
        "sensitivity_summary.json":
            "2b0b66b2bb334d2876585dcb36d28a392dd5d7c795b578f1a9aab34e6e0de772",
    },
    "sensitivity-json": {
        "sensitivity.json":
            "49d8b9e014e45514b7499238b0d054b623cca1321b965ef80d222f0c3f7f2666",
        "sensitivity_summary.json":
            "2b0b66b2bb334d2876585dcb36d28a392dd5d7c795b578f1a9aab34e6e0de772",
    },
    "single-cross-calibrate": {
        "calibrate.csv":
            "f1d47e5ce48db9f9f3cfb6d331cfeaa1c32a0a6a7f52f77dcf34e48ff18791f2",
        "calibrate_summary.json":
            "dba04db9b3e9566887978e54662ba52f233acd56a791246bd2fc2c9a64320ea7",
    },
    "single-cross-scan": {
        "track_displacements.csv":
            "029847cf61cd4b4a76d19dc71228dbb503091403f3b37dfe96cedaf6de5caa46",
        "track_record.csv":
            "084aa8c2775efb44bde618f5b2d73fe411bc1f51d830228743ae5154c9cc9ee1",
        "track_summary.json":
            "848159ecacd3df9f475ebe09ba61306a49f1e403b2c683097470a4ec5cf0cc52",
    },
    "three-pi-sensitivity": {
        "sensitivity.csv":
            "12d72b801b515e8ca1d6cb4a080a5c3812a9732074c74d7c8cf68599a9049f00",
        "sensitivity_summary.json":
            "68f8c92090061de98410cd3f00643aaf6152e47b246500006d584509a0259866",
    },
    "three-pi-track": {
        "track_record.csv":
            "5c96a6408fb18f0ca4ec61d94029f26aa60de6a3a2b4b85f4f4bb2a9424994a6",
        "track_summary.json":
            "5a6904844e92b2479bd03b2c7fb7e39e9a60fbef0ee08b3b1152105c02cb07de",
    },
    "track-csv": {
        "track_record.csv":
            "2ba7fa9988da5c8430e2c21c0df178116521aef305724d0eec0bd25d6211639a",
        "track_summary.json":
            "5eab39375e735b5e08e3f0b027779691a43693418bf8dbcf1003e90ce4200115",
    },
    "track-json": {
        "track_record.json":
            "3087de571e55bc0888f6a91cb1ebaa244fad6b32f994ff9cb5086cd4869651c3",
        "track_summary.json":
            "d5425a6a0e59f1f62122aeb33637fa56337ec0698ad03d7ccea656d4f25fc731",
    },
    "voltage-scan": {
        "track_displacements.csv":
            "436004bc68a9a557ddcedcc301f0a57b074e3544e3f95fd315174a01ffb0cc52",
        "track_record.csv":
            "78e7450721a66e74ee7059228f1449d6cdd43c4913f39ee3e036ce6e5f50d7b8",
        "track_summary.json":
            "5bc206458752ce3090cb1c9feea2e8acca68afefc48bc0c03fc9705a275ffbe3",
    },
    "walk-line-track": {
        "track_record.csv":
            "6d0ba42fa9a1938d9c3121028a0a135fed850f92d91d1eefbf9781a9e3f69f77",
        "track_summary.json":
            "9a731e5ac544d87c502b9d5ebc0de55bc98c0ea1297a82a0a943b90588116ace",
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
