"""Seeded inputs for the benchmark workloads.

`InputGenerator(workload, seed, work_dir).job(i)` writes whatever files
job i needs (INI configs, spectrum CSVs, per-ion frequency files) into
`work_dir` and returns the `iontrack` argument list together with the
reference values its output is checked against.  Job i depends only on
(workload, seed, i), so the same seed gives byte-identical inputs.

The physics that produces the inputs (Breit-Rabi frequency, ion-chain
equilibrium, thermal Rabi lineshape) is written out here rather than
imported from `iontrack`: the inputs must not change when the program
under test changes, and a check against the program's own numbers
would only test that the program agrees with itself.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("track-drift", "sensitivity-sweep", "line-fit")

TWO_PI = 2.0 * math.pi

# CODATA-2018 constants and 171Yb+ parameters, SI.
PLANCK_H = 6.62607015e-34
HBAR = PLANCK_H / TWO_PI
BOHR_MAGNETON = 9.2740100783e-24
NUCLEAR_MAGNETON = 5.0507837461e-27
ELEMENTARY_CHARGE = 1.602176634e-19
VACUUM_PERMITTIVITY = 8.8541878128e-12
ATOMIC_MASS_UNIT = 1.66053906660e-27
YB_MASS_U = 170.936323
YB_HYPERFINE_HZ = 12642812118.471
G_ELECTRON = 2.0025
G_NUCLEUS = 0.9837

# Acceptance criterion 5: tracking a 2pi x 8.2 Hz/s ramp.
TRACK_INI = """\
[pulse]
rabi_hz = 640.0
[motion]
nbar = 80.0
eta = 0.026
[two_point]
kappa = 0.8
shots_per_side = 50
[drift]
linear_rate_hz_per_s = 8.2
[tracking]
n_cycles = 128
allan_taus_s = 2.0 4.0 8.0 16.0 32.0
"""
DRIFT_RATE_HZ_PER_S = 8.2

# Offset 0 lies inside the capture window (1 - kappa = 0.2 Rabi) and is
# inverted by bisection; 0.3 and 0.7 lie outside and take the
# linearised branch.
SENSITIVITY_INI = """\
[pulse]
rabi_hz = 640.0
[motion]
nbar = 80.0
eta = 0.026
[two_point]
kappa = 0.8
[timeline]
rep_period_s = 0.02
[sensitivity]
durations_s = 2.0 8.0
offsets_rabi = 0.0 0.3 0.7
n_seeds = 200
"""
KAPPA = 0.8
REP_PERIOD_S = 0.02

# Acceptance criterion 10: an 80-point scan, 1.5 kHz pitch, 100 shots
# per point, of a 25 kHz pi-pulse line at nbar = 80, eta = 0.026.
FIT_INI = """\
[motion]
nbar = 80.0
eta = 0.026
"""
FIT_RABI_HZ = 25e3
FIT_PITCH_HZ = 1.5e3
FIT_POINTS = 80
FIT_SHOTS = 100
FIT_NBAR = 80.0
FIT_ETA = 0.026
FIT_CENTER_SPAN_HZ = 3e3

LINESHAPE_INI = """\
[pulse]
rabi_hz = {rabi_hz!r}
[motion]
eta = 0.026
[lineshape]
nbar_values = 0.0 20.0 100.0
"""

# A stiffer axial trap than the default (108 kHz) so that chains of up
# to eight ions keep every ion at positive field under 19.07 T/m.
CALIBRATE_INI = """\
[trap]
omega_z_hz = 200000.0
offset_field_t = 0.00044209
gradient_t_per_m = 19.07
"""
CAL_OMEGA_Z_HZ = 200000.0
CAL_OFFSET_FIELD_T = 442.09e-6
CAL_GRADIENT_T_PER_M = 19.07
CAL_CHAIN_SIZES = tuple(range(2, 9))


# ---------------------------------------------------------------------------
# reference physics

def breit_rabi_hz(field_t: float) -> float:
    """Clock transition frequency of 171Yb+ at a static field, Hz."""
    a_energy = HBAR * TWO_PI * YB_HYPERFINE_HZ
    x = (G_ELECTRON * BOHR_MAGNETON - G_NUCLEUS * NUCLEAR_MAGNETON) / a_energy
    xb = x * field_t
    energy = (G_NUCLEUS * NUCLEAR_MAGNETON * field_t
              + 0.5 * a_energy * (math.sqrt(1.0 + 2.0 * xb + xb * xb)
                                  + math.sqrt(1.0 + xb * xb)))
    return energy / PLANCK_H


def chain_positions(n_ions: int, omega_z_hz: float) -> np.ndarray:
    """Equilibrium positions (m, ascending) of n 171Yb+ ions in a harmonic well."""
    mass = YB_MASS_U * ATOMIC_MASS_UNIT
    coulomb = ELEMENTARY_CHARGE ** 2 / (4.0 * math.pi * VACUUM_PERMITTIVITY)
    scale = (coulomb / (mass * (TWO_PI * omega_z_hz) ** 2)) ** (1.0 / 3.0)
    u = np.linspace(-1.0, 1.0, n_ions) * 0.5 * n_ions
    for _ in range(100):
        diff = u[:, None] - u[None, :]
        np.fill_diagonal(diff, np.inf)
        force = u - np.sum(np.sign(diff) / diff ** 2, axis=1)
        hess = -2.0 / np.abs(diff) ** 3
        np.fill_diagonal(hess, 1.0 - hess.sum(axis=1))
        step = np.linalg.solve(hess, -force)
        u = u + step
        if np.max(np.abs(step)) < 1e-15:
            break
    return u * scale


def thermal_line(detuning: np.ndarray, rabi: float, nbar: float, eta: float) -> np.ndarray:
    """Thermally averaged pi-pulse excitation at angular detunings (rad/s)."""
    n_max = max(int(round(10 * nbar)), 30)
    x = eta * eta
    lag = np.empty(n_max + 1)
    lag[0], lag[1] = 1.0, 1.0 - x
    for k in range(1, n_max):
        lag[k + 1] = ((2.0 * k + 1.0 - x) * lag[k] - k * lag[k - 1]) / (k + 1.0)
    weights = (nbar / (nbar + 1.0)) ** np.arange(n_max + 1) / (nbar + 1.0)
    omega2 = (rabi * lag) ** 2
    total2 = omega2[None, :] + detuning[:, None] ** 2
    flop = omega2 * np.sin(np.sqrt(total2) * (0.5 * math.pi / rabi)) ** 2 / total2
    return flop @ weights


# ---------------------------------------------------------------------------
# jobs

@dataclass(frozen=True)
class Job:
    """One `iontrack` invocation and what its output must satisfy."""

    index: int
    command: str                 # iontrack subcommand
    argv: tuple[str, ...]        # arguments for iontrack.cli.main
    config: str                  # config file the job loads
    out_dir: str
    expect: dict                 # reference values for perfbench.checks


class InputGenerator:
    """Writes the inputs of one workload's jobs into `work_dir`."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = int(seed)
        self.work_dir = work_dir
        self._fixed: dict[str, str] = {}

    def job(self, index: int) -> Job:
        rng = np.random.default_rng([self.seed, index])
        if self.workload == "track-drift":
            return self._track(index, rng)
        if self.workload == "sensitivity-sweep":
            return self._sensitivity(index, rng)
        return self._line_fit[index % len(self._line_fit)](index, rng)

    def first_job(self, k: int) -> Job:
        """The k-th job of the workload's first kind: fresh interpreters run
        these, so that the first job of each one has new inputs of one kind."""
        return self.job(k * (len(self._line_fit) if self.workload == "line-fit" else 1))

    @property
    def _line_fit(self):
        # a fixed rotation of the three subcommands
        return (self._fit, self._lineshape, self._calibrate)

    def _path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def _write(self, name: str, text: str) -> str:
        path = self._path(name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return path

    def _fixed_config(self, name: str, text: str) -> str:
        if name not in self._fixed:
            self._fixed[name] = self._write(name, text)
        return self._fixed[name]

    def _job(self, index, command, config, expect, inputs=(), seed=None) -> Job:
        out = self._path(f"out-{command}")
        argv = [command, *inputs, "--config", config, "--out", out]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return Job(index, command, tuple(argv), config, out, expect)

    def _track(self, index, rng) -> Job:
        config = self._fixed_config("track.ini", TRACK_INI)
        return self._job(index, "track", config,
                         {"drift_rate_hz_per_s": DRIFT_RATE_HZ_PER_S, "n_cycles": 128},
                         seed=int(rng.integers(2 ** 31)))

    def _sensitivity(self, index, rng) -> Job:
        config = self._fixed_config("sensitivity.ini", SENSITIVITY_INI)
        return self._job(index, "sensitivity", config,
                         {"window_rabi": 1.0 - KAPPA, "rep_period_s": REP_PERIOD_S,
                          "n_cells": 6},
                         seed=int(rng.integers(2 ** 31)))

    def _fit(self, index, rng) -> Job:
        config = self._fixed_config("fit.ini", FIT_INI)
        center_hz = float(rng.uniform(-FIT_CENTER_SPAN_HZ, FIT_CENTER_SPAN_HZ))
        detuning_hz = (np.arange(FIT_POINTS) - 0.5 * (FIT_POINTS - 1)) * FIT_PITCH_HZ
        p = thermal_line(TWO_PI * (detuning_hz - center_hz), TWO_PI * FIT_RABI_HZ,
                         FIT_NBAR, FIT_ETA)
        counts = rng.binomial(FIT_SHOTS, np.clip(p, 0.0, 1.0))
        rows = "".join(f"{d!r},{int(c)},{FIT_SHOTS}\n"
                       for d, c in zip(detuning_hz.tolist(), counts))
        data = self._write(f"spectrum-{index}.csv", "detuning_hz,counts,shots\n" + rows)
        return self._job(index, "fit-spectrum", config, {"center_hz": center_hz},
                         inputs=(data,))

    def _lineshape(self, index, rng) -> Job:
        rabi_hz = round(float(rng.uniform(200.0, 2000.0)), 3)
        config = self._write(f"lineshape-{index}.ini",
                             LINESHAPE_INI.format(rabi_hz=rabi_hz))
        return self._job(index, "lineshape", config,
                         {"fwhm_over_rabi": {"0": 1.597, "20": 1.602, "100": 1.62}})

    def _calibrate(self, index, rng) -> Job:
        config = self._fixed_config("calibrate.ini", CALIBRATE_INI)
        n_ions = int(rng.choice(CAL_CHAIN_SIZES))
        fields = CAL_OFFSET_FIELD_T + CAL_GRADIENT_T_PER_M * chain_positions(
            n_ions, CAL_OMEGA_Z_HZ)
        if fields.min() <= 0.0:
            raise ValueError(f"{n_ions}-ion chain reaches non-positive field")
        text = "".join(f"{breit_rabi_hz(float(b))!r}\n" for b in fields)
        data = self._write(f"frequencies-{index}.txt", text)
        return self._job(index, "calibrate", config,
                         {"gradient_t_per_m": CAL_GRADIENT_T_PER_M, "n_ions": n_ions},
                         inputs=(data,))
