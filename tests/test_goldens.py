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
GOLDENS = {
    "blocked-errors-track": {
        "track_record.csv":
            "25dbb87768e9bd9fcadf78dc2c9660a068fc6c94374742d0253b5f23820ae1b4",
        "track_summary.json":
            "23a8680431af3bc925fc5c427ef68e561c2fa6cf301466a354db4695a8d28e78",
    },
    "calibrate": {
        "calibrate.csv":
            "0f4cc2ef852c547a5eb8306e6015a4e8a34b4845a2cb9b2a5b033c540c7a5f35",
        "calibrate_summary.json":
            "c9cd8d781f5c4cfb4702863519a7160e0b05093f64347d45045eaf2b864a0ab9",
    },
    "fit-spectrum": {
        "fit_spectrum.csv":
            "ccf43a8018a570038d05238e16b73d705a37d81c2df7f782960a2c68baccb674",
        "fit_spectrum_summary.json":
            "fe9af44f49e323f2c5cb93e22b08b84bb5f1de109052379218c63768ab355bd5",
    },
    "five-pi-sensitivity": {
        "sensitivity.csv":
            "3439d4f1785574abcba98504ef0806e170117fc865877babba741e720dad7ac7",
        "sensitivity_summary.json":
            "55f9715b5ede1f5bd7fa385fcdc4ad99130ff26afde2ee8434c97adbfe7b8f4c",
    },
    "five-pi-track": {
        "track_record.csv":
            "e43bd2d822d8dd00da7fb519740f8aafe200f242858ae84b776db094ab261f2e",
        "track_summary.json":
            "15d7806504cd8b4427baa0f81dfe9f044f00ef9cf1854cebf50e687cc6ca28e5",
    },
    "kappa-0.3-sensitivity": {
        "sensitivity.csv":
            "617771f97b5784d457170ca54686aaaf82d39d46fc64ad572cdee43bdaf91691",
        "sensitivity_summary.json":
            "11d5c13ae256eecf02344ba15b91572585c987934850089683711de3ac832582",
    },
    "kappa-0.3-track": {
        "track_record.csv":
            "b55b58cc3adc744afb0cd9f7bc1fce5a88079276e6d1c3ea04558646c8038181",
        "track_summary.json":
            "5b2cd74670efbf16885537366051f380a6e36f5e3bfef25837fa0870982ed0a5",
    },
    "lineshape-csv": {
        "lineshape.csv":
            "591b24b9772dada2c1f49a40292978ec330d6b532a14193ed02a7bec1533f4a9",
        "lineshape_summary.json":
            "ffe83595631421fc5ff3f4d425a3215dd83063d22ec106b4457e488fc545dc65",
    },
    "lineshape-json": {
        "lineshape.json":
            "f012861ecf44f5999d2070244ba0debf5ff1d5efba84981e085d8a4beb8c41be",
        "lineshape_summary.json":
            "cd1636134cde9ecfecce9fbf8367bdeb3e0ac24c2f9b8544d0f861ac674e2ab2",
    },
    "nbar-0-sensitivity": {
        "sensitivity.csv":
            "6153ae9c7a0118aa066eb89d42c99457e3514622fb96b2599731d33b266ba6f8",
        "sensitivity_summary.json":
            "eff6cca857cb22d7060fa38003c86ae559644e435d87954b3bb8cdebf594f269",
    },
    "nbar-0-track": {
        "track_record.csv":
            "077b733db76e982c3a5f834a07d96990e4eabfd53901aa6b931fbf55ce3416aa",
        "track_summary.json":
            "394437d53a096bea22e71be7146dd0969e08e8d5a546366aa3309272dfa40be5",
    },
    "sensitivity-csv": {
        "sensitivity.csv":
            "e87e5f5c470b05cf311ed168b487da21d055386186f3516aacde58e03923bc16",
        "sensitivity_summary.json":
            "c0f8142e10bb5d0edce91e7e7edd794a6b8faa8292671ce1087dba3ca263c26b",
    },
    "sensitivity-json": {
        "sensitivity.json":
            "c20c34309b3d2308ba1c7531fb563257dc2e573e3a5b027fdbe34c0a63d404cd",
        "sensitivity_summary.json":
            "c0f8142e10bb5d0edce91e7e7edd794a6b8faa8292671ce1087dba3ca263c26b",
    },
    "single-cross-calibrate": {
        "calibrate.csv":
            "f1d47e5ce48db9f9f3cfb6d331cfeaa1c32a0a6a7f52f77dcf34e48ff18791f2",
        "calibrate_summary.json":
            "dba04db9b3e9566887978e54662ba52f233acd56a791246bd2fc2c9a64320ea7",
    },
    "single-cross-scan": {
        "track_displacements.csv":
            "a0f5ff538aa91be01a5e4ac43d52437229f50ab91b9518e0bd70b06586f1d3ed",
        "track_record.csv":
            "6983a055af14a41ade81ae4b7ee8850516cea5b721c03fd6446523dfdd0abf39",
        "track_summary.json":
            "7d581c80b5732fb01eac842641932e6a133a6b474541516666c0e7cc620b6235",
    },
    "three-pi-sensitivity": {
        "sensitivity.csv":
            "99ecd5f248a03a6a609706709203f1ce928cff61410a015dfa12066dc59f4dd6",
        "sensitivity_summary.json":
            "b75c87b6e9025d210fc0f74f5d6dddb09f03dadef88535a0633d5c073e1e2de7",
    },
    "three-pi-track": {
        "track_record.csv":
            "cf17e95a95b15e49bf061a7c56aa198e29ea14c8a16c514c6d639319c686e00b",
        "track_summary.json":
            "fec6e5835731f069d3d0daf40be0fad5cace808ac3725a42381cb86f0a763d4a",
    },
    "track-csv": {
        "track_record.csv":
            "afce121404ec87ac603dc41894a8b4453a43bde2a6389011f9c29696b0224ff6",
        "track_summary.json":
            "6ec4f5f998a571b41e5bb4fd6efd4674c0c1640a374c5bb81f64afcd40df1fa9",
    },
    "track-json": {
        "track_record.json":
            "c4714dff4daefbd2edc86864be79dff749f38b33d8bfcd5240754a13de855a9a",
        "track_summary.json":
            "2f61e9e9d3049588e68149a8be2f35c12b27bcd3b9619e3655af0fc6c0eb3326",
    },
    "voltage-scan": {
        "track_displacements.csv":
            "2320322849f27954f8e046ee716678145e4bdcd42ae74bb719c392bd2440ba92",
        "track_record.csv":
            "47e4bf91dd4e60a8c74a9959b2146bda17b4f9b94746ea88317f43af8d3eab92",
        "track_summary.json":
            "b5eb16f6862564853f71e2d90747caaf06472861525344667c3389da552d3643",
    },
    "walk-line-track": {
        "track_record.csv":
            "491bd4db7403d7b4049e91c2afd3cbeddbd614eeb488170a8f675a210ab45169",
        "track_summary.json":
            "bcb4cef4946629d8e3833b6f33ed6a49fb38277d3e2c531ad75b3e60bae27c4f",
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
