"""Byte-level goldens: the SHA-256 of every file each CLI run writes.

Each case runs `cli.main` at a fixed seed on the default config or on a
small input the test writes, and compares the digest of every output
file with one recorded from an earlier tree.  A change that should
leave the outputs alone must keep these digests; a change that moves
them on purpose must say so and record the new ones.
"""
import hashlib
import os

import pytest

from iontrack.cli import main

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
GOLDENS = {
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
    "sensitivity-csv": {
        "sensitivity.csv":
            "d7d0c3ca77181c55504f2a46f9573318848d4a11079d40c70cad2cf3deb2b1b3",
        "sensitivity_summary.json":
            "e66818ee0186b59a0c8e8b949688d659625333597ecdd5c3c513e4d77a54d302",
    },
    "sensitivity-json": {
        "sensitivity.json":
            "1e476fc90ec54b201619bfcb4fd0b50b8c39f372b19a4686c0a1930d74815137",
        "sensitivity_summary.json":
            "e66818ee0186b59a0c8e8b949688d659625333597ecdd5c3c513e4d77a54d302",
    },
    "single-cross-calibrate": {
        "calibrate.csv":
            "f1d47e5ce48db9f9f3cfb6d331cfeaa1c32a0a6a7f52f77dcf34e48ff18791f2",
        "calibrate_summary.json":
            "dba04db9b3e9566887978e54662ba52f233acd56a791246bd2fc2c9a64320ea7",
    },
    "single-cross-scan": {
        "track_displacements.csv":
            "37fe08ffec5c1904a6c69dc8e900aac55ff72ad41f313d73aebeef2f513d9b80",
        "track_record.csv":
            "6254315491aa00709063d369a16a562edd6b0269b645bf48369d7808905ac745",
        "track_summary.json":
            "796fcb0df28337cb4434cd69e0d7520d66f870c316a5248e68b06a6cf74743f2",
    },
    "track-csv": {
        "track_record.csv":
            "bd887c1bf059be112bf4c7c09b22b36895080751bbe9563d25320f3bd7fb4e23",
        "track_summary.json":
            "92e28281f7bb7364edbd8b317b8df79d35ace59549b7c5c3ab160d94092af5b1",
    },
    "track-json": {
        "track_record.json":
            "9c376dd46c6619606b921d62c73985cdc6ce82b64d5f05c50505941301e9ef7e",
        "track_summary.json":
            "2be6e3be8d1757a162303f130e21a8d239e2be15075ed2947afc4245366e8133",
    },
    "voltage-scan": {
        "track_displacements.csv":
            "39a9456de068272e4c7c16e3053261f7d9c7c788473fc0ba56ad33a3d0075870",
        "track_record.csv":
            "9e02af845bf33857117c6439f251b1bc958cc27a92d26fda2b49566967987024",
        "track_summary.json":
            "ffd7075d60692471ee5bc8b2ca3863ab29029c19740a369be34c1644312d1885",
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
