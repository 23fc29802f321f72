"""Workload loop, set-up probes and metric reduction.

Each workload is a closed loop with one client: one `iontrack` job runs
at a time, in process, through `iontrack.cli.main`, on inputs written by
`perfbench.inputs` from the seed.  Every job's output is checked by
`perfbench.checks`, and every job counts in `attempted`.  Every timing
is scaled to the nominal host speed (`perfbench.host`).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import checks
from .host import reference_seconds, scale
from .inputs import WORKLOADS, InputGenerator, Job
from .tracing import MODULES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PROBE = os.path.join(ROOT, "perfbench", "probe.py")

PROBE_SHARE = 0.25  # of the run spent in fresh interpreters (setup_s, first_job_s)
MIN_PROBES = 5
MIN_JOBS = 3        # jobs per loop even when the time is up
SUBPROCESS_TIMEOUT_S = 150


@dataclass
class JobRun:
    job: Job
    seconds: float          # wall time at nominal host speed
    scale: float            # factor applied to the wall time
    ref: float              # reference timing after the job
    bytes_written: int
    failure: str | None
    summary: dict | None    # of a job that passed its check

    @property
    def lost_lock(self) -> bool:
        return checks.lost_lock(self.job, self.summary)


@dataclass
class Probe:
    """A job run in a fresh interpreter; times at nominal host speed."""
    job: Job
    setup_s: float
    first_job_s: float
    failure: str | None
    summary: dict | None

    @property
    def lost_lock(self) -> bool:
        return checks.lost_lock(self.job, self.summary)


def _output_bytes(out_dir: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def _report(job: Job, failure: str | None) -> None:
    if failure:
        print(f"perfbench: job {job.index} ({' '.join(job.argv)}) failed: {failure}",
              file=sys.stderr)


def run_job(cli, job: Job, ref_before: float) -> JobRun:
    """Run one job in this process; time it, then check its output."""
    shutil.rmtree(job.out_dir, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    try:
        exit_code = cli.main(list(job.argv))
    except Exception as exc:    # a traceback out of main() is a failed job
        exit_code = f"uncaught {exc!r}"
    wall = time.perf_counter() - t0
    ref_after = reference_seconds()
    failure, summary = checks.check(job, exit_code)
    _report(job, failure)
    factor = scale(ref_before, ref_after)
    return JobRun(job, wall * factor, factor, ref_after, _output_bytes(job.out_dir),
                  failure, summary)


def job_loop(cli, gen: InputGenerator, first: int, begin: float, end: float,
             tracer: Tracer | None = None, probes: list | None = None) -> list[JobRun]:
    """Warm jobs from index `first` until `end`.  With a `probes` list, also
    fresh-interpreter probes of `gen.first_job(k)`, interleaved with the warm jobs so
    that they meet the same host conditions and take PROBE_SHARE of the
    time since `begin`."""
    runs: list[JobRun] = []
    ref = reference_seconds()
    probe_s = 0.0
    while len(runs) < MIN_JOBS or time.monotonic() < end:
        if probes is not None and probe_s <= PROBE_SHARE * (time.monotonic() - begin):
            t0 = time.monotonic()
            probes.append(probe(gen.first_job(len(probes))))
            probe_s += time.monotonic() - t0
            ref = reference_seconds()
            continue
        if tracer is not None:
            tracer.job_id = len(runs)
        runs.append(run_job(cli, gen.job(first + len(runs)), ref))
        ref = runs[-1].ref
    while probes is not None and len(probes) < MIN_PROBES:
        probes.append(probe(gen.first_job(len(probes))))
    return runs


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def probe(job: Job) -> Probe:
    """Set-up and first-job time of `job` in a fresh interpreter.  A probe
    that fails before its job ends reports its whole wall time as both."""
    shutil.rmtree(job.out_dir, ignore_errors=True)
    ref_before = reference_seconds()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, PROBE, SRC, job.config, json.dumps(list(job.argv))],
            capture_output=True, text=True, env=_child_env(), cwd=ROOT,
            timeout=SUBPROCESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        failure = f"fresh interpreter timed out after {SUBPROCESS_TIMEOUT_S} s"
    else:
        if proc.returncode == 0:
            s = json.loads(proc.stdout.strip().splitlines()[-1])
            failure, summary = checks.check(job, s["exit_code"])
            _report(job, failure)
            return Probe(job, (s["setup_end"] - t0) * scale(ref_before, s["ref_mid"]),
                         (s["job_end"] - s["job_start"]) * scale(s["ref_mid"], s["ref_end"]),
                         failure, summary)
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        failure = f"fresh interpreter exited with code {proc.returncode}: {last}"
    _report(job, failure)
    wall = (time.monotonic() - t0) * scale(ref_before, reference_seconds())
    return Probe(job, wall, wall, failure, None)


_IMPORTTIME = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)")


def import_times() -> dict[str, float]:
    """Cumulative import seconds of `iontrack` and of all `scipy` modules,
    from `python -X importtime -c "import iontrack.cli"`."""
    ref_before = reference_seconds()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import iontrack.cli"],
        capture_output=True, text=True, env=_child_env(), cwd=ROOT,
        timeout=SUBPROCESS_TIMEOUT_S, check=True)
    factor = scale(ref_before, reference_seconds())
    # Lines come in post-order with indentation by depth; walk them in
    # reverse so each module's enclosing imports are on the stack.
    totals = {"iontrack": 0, "scipy": 0}
    stack: list[tuple[int, str]] = []
    for line in reversed(proc.stderr.splitlines()):
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return {f"import.{k}.cum_s": v * 1e-6 * factor for k, v in totals.items()}


# ---------------------------------------------------------------------------
# metric reduction

def _kept_lock(runs: list) -> list:
    """The runs whose job kept its lock.  A lost lock ends a track job
    early, so those jobs are left out of the timings; if every job lost
    lock the run fails, and all are kept so that the timings exist."""
    return [r for r in runs if not r.lost_lock] or runs


def end_to_end(probes: list[Probe], warm: list[JobRun], attempted: int,
               failed: int) -> dict:
    seconds = [r.seconds for r in _kept_lock(warm)]
    return {
        "setup_s": (statistics.median(p.setup_s for p in probes), "s"),
        "first_job_s": (statistics.median(p.first_job_s for p in _kept_lock(probes)),
                        "s"),
        "jobs_per_s": (len(seconds) / sum(seconds), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(seconds), "ms"),
        "job_p90_ms": (1e3 * statistics.quantiles(seconds, n=10,
                                                  method="inclusive")[8], "ms"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(tracer: Tracer, traced: list[JobRun], untraced: list[JobRun],
              cache_hit_ratio: float, imports: dict) -> dict:
    """Per-layer metrics from the spans of the traced jobs in `traced`.

    Times and counts are per traced job; times are self times unless
    the name says otherwise.
    """
    spans = tracer.arrays()
    factor = np.array([r.scale for r in traced])[spans["job"]]
    name = spans["name"]
    self_s = spans["self"] * factor
    dur = spans["dur"] * factor
    count = spans["count"]
    n_jobs = len(traced)

    def mask(target):
        return name == tracer.names.index(target)

    def calls(target):
        return float(np.count_nonzero(mask(target)))

    def self_time(target):
        return float(self_s[mask(target)].sum())

    def ratio(a, b):
        return float(a) / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for target in ("lineshape.thermal_excitation", "lineshape.excitation_profile",
                   "estimator.estimate_from_counts", "simulator.run_measurement",
                   "analysis.fit_spectrum", "atomphys.field_from_frequency"):
        m[f"{target}.calls"] = (calls(target) / n_jobs, "count")
    for target in ("cli.main", "config.load_config", "lineshape.thermal_excitation",
                   "lineshape.excitation_profile", "lineshape.fwhm",
                   "estimator.estimate_from_counts", "estimator.g_invert",
                   "simulator.run_measurement", "analysis.allan_deviation",
                   "analysis.fit_spectrum", "atomphys.calibrate_gradient",
                   "atomphys.equilibrium_positions"):
        m[f"{target}.self_s"] = (self_time(target) / n_jobs, "s")

    te = "lineshape.thermal_excitation"
    m[f"{te}.us_per_call"] = (1e6 * ratio(self_time(te), calls(te)), "us")
    ep = mask("lineshape.excitation_profile")
    m["lineshape.excitation_profile.points"] = (count[ep].sum() / n_jobs, "count")
    m["lineshape.motional_cache.hit_ratio"] = (cache_hit_ratio, "ratio")

    est = mask("estimator.estimate_from_counts")
    n_est = calls("estimator.estimate_from_counts")
    in_est = tracer.under(spans, "estimator.estimate_from_counts")
    m["estimator.g_forward.per_estimate"] = (
        ratio(np.count_nonzero(mask("estimator.g_forward") & in_est), n_est), "count")
    m["estimator.clamp_frac"] = (ratio(count[est].sum(), n_est), "ratio")
    m["estimator.no_signal.count"] = (spans["raised"][est].sum() / n_jobs, "count")

    rm = mask("simulator.run_measurement")
    shots = float(count[rm].sum())
    m["simulator.shots"] = (shots / n_jobs, "count")
    m["simulator.us_per_shot"] = (1e6 * ratio(dur[rm].sum(), shots), "us")
    m["simulator.lost_lock.count"] = (
        count[mask("simulator.run_tracking")].sum() / n_jobs, "count")

    in_fit = tracer.under(spans, "analysis.fit_spectrum")
    m["analysis.fit_spectrum.model_evals_per_fit"] = (
        ratio(np.count_nonzero(ep & in_fit), calls("analysis.fit_spectrum")), "count")
    m["analysis.fit_spectrum.fallbacks"] = (calls("analysis.minimize") / n_jobs, "count")

    m.update((k, (v, "s")) for k, v in imports.items())
    m["cli.bytes_written"] = (statistics.fmean(r.bytes_written for r in traced), "B")

    module_of = np.array([MODULES.index(t.split(".")[0]) for t in tracer.names])
    by_module = np.bincount(module_of[name], weights=self_s, minlength=len(MODULES))
    for module, total in zip(MODULES, by_module):
        m[f"module.{module}.self_s"] = (float(total) / n_jobs, "s")
    job_s = sum(r.seconds for r in traced)
    m["trace.job_s"] = (job_s / n_jobs, "s")
    m["trace.unattributed_frac"] = (1.0 - float(by_module.sum()) / job_s, "ratio")
    m["trace.overhead_frac"] = (
        statistics.fmean(r.seconds for r in _kept_lock(traced))
        / statistics.fmean(r.seconds for r in _kept_lock(untraced)) - 1.0, "ratio")
    return m


def _cache_counts() -> tuple[int, int]:
    cached = getattr(sys.modules.get("iontrack.lineshape"), "_motional_arrays", None)
    if not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = _parse(argv)
    # The reference kernel must time the core the jobs run on; set-up
    # probes inherit the mask.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        result, notes = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in notes:
        print(line)
    for key, (value, unit) in result["metrics"].items():
        print(f"{key:48s} {value:14.6g} {unit}")
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def measure(args, work: str) -> tuple[dict, list[str]]:
    gen = InputGenerator(args.workload, args.seed, work)
    begin = time.monotonic()
    import iontrack.cli as cli

    warmup = run_job(cli, gen.job(0), reference_seconds())
    probes: list[Probe] = []
    half = begin + 0.5 * args.seconds
    untraced = job_loop(cli, gen, 1, begin, half if args.trace else begin + args.seconds,
                        probes=None if args.trace else probes)
    traced: list[JobRun] = []
    if args.trace:
        hits0, misses0 = _cache_counts()
        tracer = Tracer()
        with tracer:
            traced = job_loop(cli, gen, 1 + len(untraced), half, begin + args.seconds,
                              tracer)
        hits, misses = (a - b for a, b in zip(_cache_counts(), (hits0, misses0)))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))

    jobs = [warmup, *untraced, *traced]
    runs = [*jobs, *probes]
    for i, reason in checks.check_run([(r.job, r.summary) for r in runs]):
        runs[i].failure = reason
        _report(runs[i].job, reason)
    attempted, failed = len(runs), sum(r.failure is not None for r in runs)
    timed = _kept_lock(untraced)
    notes = [f"workload {args.workload}, seed {args.seed}: {attempted} jobs, "
             f"{failed} failed, {len(timed)} warm jobs timed"]
    if args.trace:
        notes.append(f"{len(traced)} jobs traced; spans in {OUT}")
        metrics = per_layer(tracer, traced, untraced, hits / max(hits + misses, 1),
                            import_times())
        metrics["failed_frac"] = (failed / attempted, "ratio")
        metrics["host.ref_ms"] = (1e3 * statistics.median(r.ref for r in jobs), "ms")
    else:
        metrics = end_to_end(probes, untraced, attempted, failed)
        beyond = sum(r.seconds > metrics["job_p90_ms"][0] / 1e3 for r in timed)
        notes.append(f"job_p90_ms: {beyond} of {len(timed)} warm jobs lie beyond it; "
                     f"setup_s, first_job_s: medians of {len(probes)} fresh interpreters")
    return ({"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}, notes)
