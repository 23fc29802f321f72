"""Correctness checks on the jobs of a run.

`check(job, exit_code)` checks one job's output: it returns (None, the
parsed summary) when the job passed and (reason, None) when it failed.  A job
fails on a non-zero exit code, a summary that a strict JSON parser
rejects (bare NaN or Infinity tokens included), or a result outside its
reference band.  `check_run` then makes the checks that need every job
of the run: the number of lost locks and the pooled sensitivity cells.

Statistical bands are Z_BAND standard errors wide, the standard error
coming from the sample count behind the value, so that a correct program
fails a check with probability about 2e-9 whatever the seed.

A lost lock is an outcome of the simulated experiment, not an error:
at the criterion-5 setup the program loses lock on about 0.9% of drift
seeds.  A track job that lost lock passes when it ran at least
the three-cycle loss-of-lock streak and stopped early; the drift band
applies to jobs that kept the lock.  A run fails every lost-lock job
when their number exceeds `lost_lock_limit`.
"""
from __future__ import annotations

import json
import math
import os

from .inputs import Job

Z_BAND = 6.0
DRIFT_BAND = 0.15            # acceptance criterion 5
NOISE_FLOOR_RABI = (0.04, 0.06)   # criterion 3: 2 s on resonance
FWHM_BAND = 0.01             # criterion 2
GRADIENT_RTOL = 1e-6
# Criterion 5 lost lock on 13 of 1500 drift seeds (0.87%); the rate is the
# upper 99% confidence bound of that count.
LOST_LOCK_RATE = 0.016
# The analytic sigma linearises the estimator; at 50 shots per side the
# MC sigma lies 2.7% above it at 2 s and 0.3% at 8 s (60 jobs measured).
ANALYTIC_RTOL = 0.03
LOSS_OF_LOCK_STREAK = 3

_SUMMARY = {
    "track": "track_summary.json",
    "sensitivity": "sensitivity_summary.json",
    "fit-spectrum": "fit_spectrum_summary.json",
    "lineshape": "lineshape_summary.json",
    "calibrate": "calibrate_summary.json",
}


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in JSON")


def read_summary(path: str) -> dict:
    """Parse a JSON summary, rejecting NaN and Infinity tokens."""
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def check(job: Job, exit_code: int | str) -> tuple[str | None, dict | None]:
    """(None, summary) when the job passed, (reason, None) when it failed.
    A string exit code says why the job ended without one."""
    if isinstance(exit_code, str):
        return exit_code, None
    if exit_code != 0:
        return f"exit code {exit_code}", None
    try:
        summary = read_summary(os.path.join(job.out_dir, _SUMMARY[job.command]))
        failure = _CHECKS[job.command](summary, job.expect)
        return failure, None if failure else summary
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable summary: {exc!r}", None


def lost_lock(job: Job, summary: dict | None) -> bool:
    """Whether a track job's summary reports a lost lock."""
    return job.command == "track" and bool(summary and summary.get("lost_lock"))


def lost_lock_limit(n_jobs: int) -> float:
    """Most lost-lock jobs out of n_jobs that a correct program produces:
    Z_BAND standard deviations above a LOST_LOCK_RATE binomial mean."""
    mean = n_jobs * LOST_LOCK_RATE
    return mean + Z_BAND * math.sqrt(mean * (1.0 - LOST_LOCK_RATE))


def check_run(results: list[tuple[Job, dict | None]]) -> list[tuple[int, str]]:
    """Checks over the (job, summary) pairs of a run, summary None for a job
    that failed its own check; returns (position, reason) for every job
    that a failed run-level check fails."""
    failures: list[tuple[int, str]] = []
    track = [i for i, (job, _) in enumerate(results) if job.command == "track"]
    lost = [i for i in track if lost_lock(*results[i])]
    if len(lost) > lost_lock_limit(len(track)):
        reason = f"lost lock in {len(lost)} of {len(track)} jobs"
        failures += [(i, reason) for i in lost]
    sens = [i for i, (job, _) in enumerate(results) if job.command == "sensitivity"]
    reason = _pooled_sensitivity([results[i] for i in sens])
    if reason:
        failures += [(i, reason) for i in sens]
    return failures


def _pooled_sensitivity(results: list[tuple[Job, dict | None]]) -> str | None:
    """MC/analytic over every in-window cell of the run, and the 2 s
    on-resonance noise floor over every job, against bands from the
    pooled draw counts."""
    ratios, floors, draws = [], [], 0
    for job, summary in results:
        if summary is None:
            continue
        for cell in summary["cells"]:
            mc, analytic = cell["sigma_mc_over_rabi"], cell["sigma_analytic_over_rabi"]
            if cell["offset_rabi"] < job.expect["window_rabi"]:
                ratios.append(mc / analytic)
                draws += summary["n_seeds_per_cell"]
            if cell["duration_s"] == 2.0 and cell["offset_rabi"] == 0.0:
                floors.append(mc)
    if ratios:
        ratio = math.fsum(ratios) / len(ratios)
        tol = ANALYTIC_RTOL + Z_BAND / math.sqrt(2.0 * (draws - 1))
        if _outside(ratio, 1.0, tol):
            return (f"mean MC/analytic {ratio:.4f} over {len(ratios)} in-window "
                    f"cells, band +/- {tol:.3f}")
    if floors:
        floor = math.fsum(floors) / len(floors)
        if not NOISE_FLOOR_RABI[0] <= floor <= NOISE_FLOOR_RABI[1]:
            return (f"mean noise floor {floor:.4f} Rabi over {len(floors)} jobs "
                    f"outside {NOISE_FLOOR_RABI}")
    return None


def _outside(value: float, target: float, tol: float) -> bool:
    return not (math.isfinite(value) and abs(value - target) <= tol)


def _check_track(summary: dict, expect: dict) -> str | None:
    if summary["lost_lock"]:
        if not LOSS_OF_LOCK_STREAK <= summary["n_cycles"] < expect["n_cycles"]:
            return f"lost lock after {summary['n_cycles']} cycles"
        return None
    if summary["n_cycles"] != expect["n_cycles"]:
        return f"{summary['n_cycles']} cycles, expected {expect['n_cycles']}"
    rate = summary["allan"]["drift_rate_hz_per_s"]
    target = expect["drift_rate_hz_per_s"]
    if _outside(rate, target, DRIFT_BAND * target):
        return f"drift rate {rate} Hz/s outside {target} +/- {DRIFT_BAND:.0%}"
    return None


def _check_sensitivity(summary: dict, expect: dict) -> str | None:
    n = summary["n_seeds_per_cell"]
    cells = summary["cells"]
    if len(cells) != expect["n_cells"]:
        return f"{len(cells)} cells, expected {expect['n_cells']}"
    # relative standard error of a sample standard deviation from n draws
    tol = Z_BAND / math.sqrt(2.0 * (n - 1))
    for cell in cells:
        mc, analytic = cell["sigma_mc_over_rabi"], cell["sigma_analytic_over_rabi"]
        per_side = int(cell["duration_s"] / expect["rep_period_s"]) // 2
        where = f"cell T={cell['duration_s']} s, offset={cell['offset_rabi']}"
        if cell["shots_per_side"] != per_side:
            return f"{where}: {cell['shots_per_side']} shots per side, expected {per_side}"
        if not (math.isfinite(mc) and math.isfinite(analytic) and analytic > 0.0):
            return f"{where}: non-finite or zero sigma"
        if cell["offset_rabi"] < expect["window_rabi"] and _outside(mc / analytic, 1.0, tol):
            return f"{where}: MC/analytic = {mc / analytic:.4f}, band +/- {tol:.3f}"
        if cell["duration_s"] == 2.0 and cell["offset_rabi"] == 0.0:
            # criterion 3 holds the floor to 0.04-0.06 at 10k draws; n draws
            # widen the band by the sampling error of a standard deviation.
            # `check_run` holds the run's mean floor to the unwidened band.
            lo, hi = NOISE_FLOOR_RABI[0] * (1.0 - tol), NOISE_FLOOR_RABI[1] * (1.0 + tol)
            if not lo <= mc <= hi:
                return f"{where}: noise floor {mc:.4f} Rabi outside [{lo:.4f}, {hi:.4f}]"
    return None


def _check_fit(summary: dict, expect: dict) -> str | None:
    center = summary["fit"]["center_hz"]
    value, stderr = center["value"], center["stderr"]
    if not (math.isfinite(stderr) and stderr > 0.0):
        return f"centre standard error {stderr}"
    if _outside(value, expect["center_hz"], Z_BAND * stderr):
        return (f"centre {value} Hz is {abs(value - expect['center_hz']) / stderr:.1f} "
                f"standard errors from {expect['center_hz']} Hz")
    return None


def _check_lineshape(summary: dict, expect: dict) -> str | None:
    widths = summary["fwhm_over_rabi"]
    for label, target in expect["fwhm_over_rabi"].items():
        if _outside(widths[label], target, FWHM_BAND):
            return f"FWHM/Rabi at nbar={label} is {widths[label]}, expected {target}"
    return None


def _check_calibrate(summary: dict, expect: dict) -> str | None:
    gradient = summary["gradient"]
    target = expect["gradient_t_per_m"]
    if gradient["n_ions"] != expect["n_ions"]:
        return f"{gradient['n_ions']} ions, expected {expect['n_ions']}"
    if _outside(gradient["gradient_t_per_m"], target, GRADIENT_RTOL * target):
        return f"gradient {gradient['gradient_t_per_m']} T/m, expected {target}"
    return None


_CHECKS = {
    "track": _check_track,
    "sensitivity": _check_sensitivity,
    "fit-spectrum": _check_fit,
    "lineshape": _check_lineshape,
    "calibrate": _check_calibrate,
}
