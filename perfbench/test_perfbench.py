"""Tests of the benchmark itself: inputs, checks and tracer.

    python3 -m pytest perfbench
"""
import dataclasses
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import iontrack.cli  # noqa: E402
from iontrack.config import load_config  # noqa: E402

from perfbench import bench, checks  # noqa: E402
from perfbench.inputs import WORKLOADS, InputGenerator, Job  # noqa: E402
from perfbench.tracing import MODULES, Tracer  # noqa: E402

N_JOBS = 6


def _tree(root):
    out = {}
    for base, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _generate(workload, seed, work_dir):
    os.makedirs(work_dir)
    gen = InputGenerator(workload, seed, str(work_dir))
    return [gen.job(i) for i in range(N_JOBS)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    _generate(workload, 7, tmp_path / "a")
    _generate(workload, 7, tmp_path / "b")
    _generate(workload, 8, tmp_path / "c")
    a, b, c = (_tree(tmp_path / d) for d in "abc")
    assert a and a == b
    if workload == "line-fit":      # the seed moves centres, widths and chains
        assert a != c


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_config_validates(tmp_path, workload):
    jobs = _generate(workload, 3, tmp_path / "in")
    configs = [p for p in _tree(tmp_path / "in") if p.endswith(".ini")]
    assert configs
    for name in configs:
        load_config(str(tmp_path / "in" / name))
    assert {job.config for job in jobs} <= {str(tmp_path / "in" / n) for n in configs}


def test_line_fit_jobs_pass_their_checks_on_this_program(tmp_path):
    for job in _generate("line-fit", 5, tmp_path / "in"):
        failure, summary = checks.check(job, iontrack.cli.main(list(job.argv)))
        assert failure is None and summary


def _track_run(n_jobs, n_lost):
    job = Job(0, "track", (), "", "", {})
    return [(job, {"lost_lock": i < n_lost}) for i in range(n_jobs)]


@pytest.mark.parametrize("n_jobs", [20, 30, 40, 60])
def test_a_fifth_of_jobs_losing_lock_fails_them(n_jobs):
    n_lost = n_jobs // 5
    failures = checks.check_run(_track_run(n_jobs, n_lost))
    assert sorted(i for i, _ in failures) == list(range(n_lost))


def test_the_measured_lost_lock_rate_passes():
    assert checks.check_run(_track_run(30, 1)) == []


def _sensitivity_run(mc_over_analytic, analytic, n_jobs=20):
    job = Job(0, "sensitivity", (), "", "", {"window_rabi": 0.2})
    cells = [{"duration_s": t, "offset_rabi": off,
              "sigma_mc_over_rabi": analytic * (mc_over_analytic if off < 0.2 else 1.0),
              "sigma_analytic_over_rabi": analytic}
             for t in (2.0, 8.0) for off in (0.0, 0.3, 0.7)]
    return [(job, {"n_seeds_per_cell": 200, "cells": cells})] * n_jobs


@pytest.mark.parametrize("mc_over_analytic, analytic, fails", [
    (1.0, 0.054, False),
    (1.03, 0.054, False),   # the analytic sigma's own bias at 2 s
    (1.2, 0.045, True),     # within each job's +/-0.30 band, not the run's
    (0.85, 0.054, True),
    (1.0, 0.064, True),     # noise floor inside the 200-draw band only
])
def test_pooled_sensitivity_check(mc_over_analytic, analytic, fails):
    failures = checks.check_run(_sensitivity_run(mc_over_analytic, analytic))
    assert len(failures) == (20 if fails else 0)


def test_a_fresh_interpreter_that_fails_is_a_failed_job(tmp_path):
    job = _generate("line-fit", 5, tmp_path / "in")[1]
    probe = bench.probe(dataclasses.replace(job, config=str(tmp_path / "missing.ini")))
    assert probe.failure.startswith("fresh interpreter exited with code")
    assert probe.setup_s > 0.0 and probe.summary is None


def test_strict_parser_rejects_nan(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text('{"x": NaN}\n')
    with pytest.raises(ValueError):
        checks.read_summary(str(path))


def _bindings():
    return {(name, key): value
            for name, module in sys.modules.items()
            if name == "iontrack" or name.startswith("iontrack.")
            for key, value in vars(module).items()}


def test_tracer_restores_every_module_attribute():
    before = _bindings()
    tracer = Tracer({**Tracer().targets, "lineshape.no_such_function": None})
    with tracer:
        during = _bindings()
        assert during.keys() == before.keys()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("iontrack.estimator", "thermal_excitation") in changed
        assert ("iontrack.simulator", "thermal_excitation") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_partition_the_traced_job(tmp_path):
    job = _generate("line-fit", 5, tmp_path / "in")[2]      # a calibrate job
    tracer = Tracer()
    with tracer:
        tracer.job_id = 0
        assert iontrack.cli.main(list(job.argv)) == 0
    spans = tracer.arrays()
    root = spans["parent"] < 0
    assert root.sum() == 1
    assert spans["self"].min() >= 0.0
    assert spans["self"].sum() == pytest.approx(spans["dur"][root].sum(), rel=1e-9)
    names = {tracer.names[i].split(".")[0] for i in spans["name"]}
    assert {"cli", "config", "atomphys"} <= names <= set(MODULES)
