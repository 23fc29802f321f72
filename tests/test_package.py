"""The top-level package re-exports each module's public names,
loads nothing beyond numpy, keeps few caches and shares few private names."""
import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import iontrack
from iontrack import analysis, atomphys, config, estimator, lineshape, simulator

from test_goldens import CALIBRATE_INI, FREQUENCIES_TXT, SCAN_INI, SPECTRUM_CSV


def test_all_is_the_module_lists():
    expected = ["__version__"]
    for module in (atomphys, lineshape, estimator, simulator, analysis, config):
        expected += module.__all__
    assert iontrack.__all__ == expected
    assert len(set(iontrack.__all__)) == len(iontrack.__all__)


def test_every_export_resolves():
    for name in iontrack.__all__:
        assert getattr(iontrack, name) is not None, name


# an identifier, or an attribute of one, that starts with an underscore
PRIVATE_NAME = re.compile(r"\b_\w*")


def _public_callables():
    """(name, function) of every exported function and of the constructor
    and public methods and properties of every exported class."""
    for name in iontrack.__all__:
        obj = getattr(iontrack, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_public_signature_names_a_private_type():
    checked = 0
    for name, fn in _public_callables():
        signature = inspect.signature(fn)
        for annotation in [p.annotation for p in signature.parameters.values()] + \
                [signature.return_annotation]:
            if annotation is not inspect.Signature.empty:
                assert not PRIVATE_NAME.search(str(annotation)), (name, annotation)
                checked += 1
    assert checked > 100


def test_only_the_field_owners_take_a_variant():
    # The Breit-Rabi variant is a field of IonSpecies, set from the
    # [tracking] key of RunConfig; no function takes it as an argument.
    takers = {name for name, fn in _public_callables()
              if "variant" in inspect.signature(fn).parameters}
    assert takers == {"IonSpecies.__init__", "RunConfig.__init__"}


def test_only_the_run_configs_take_a_shot_count():
    # The shots per side are a field of TwoPointConfig, set from the
    # [two_point] key of RunConfig; the timeline and analytic_sigma read it
    # from the TwoPointConfig they are given.
    takers = {name for name, fn in _public_callables()
              if "shots_per_side" in inspect.signature(fn).parameters}
    assert takers == {"TwoPointConfig.__init__", "RunConfig.__init__"}


def test_the_only_caches_are_the_plan_and_the_kernels():
    # The estimator's plan owns the per-shot table, which the simulator
    # reads from it; lineshape caches only the per-motion arrays, which
    # hold that motion's thermal rules.  Every other function of the
    # package computes afresh.
    modules = [iontrack] + [importlib.import_module(f"iontrack.{info.name}")
                            for info in pkgutil.iter_modules(iontrack.__path__)]
    cached = {f"{module.__name__}.{name}" for module in modules
              for name, value in vars(module).items()
              if hasattr(value, "cache_info") and value.__module__ == module.__name__}
    assert cached == {"iontrack.estimator._plan", "iontrack.lineshape._motional_arrays"}


def test_the_only_cross_module_private_imports():
    # A private name that one module imports from another couples the two:
    # the lineshape kernel's pass serves the spectrum fit and the
    # estimator's slope, the table and its reads serve the estimator's plan
    # and slope, and the plan's table serves the simulator.  A new coupling
    # must be added here.
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {f"{path.stem} <- {node.module}.{alias.name}" for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__")}
    assert imported == {
        "analysis <- lineshape._thermal_sums",
        "estimator <- lineshape._cubic_read",
        "estimator <- lineshape._cubic_slope",
        "estimator <- lineshape._shot_table",
        "estimator <- lineshape._ShotTable",
        "estimator <- lineshape._thermal_sums",
        "simulator <- estimator._plan",
        "simulator <- lineshape._tabulated_excitation",
    }


ALL_CAPS = re.compile(r"_?[A-Z][A-Z0-9_]*")


def test_the_module_constants():
    # Each module's own ALL_CAPS names, bound at its top level: a tunable
    # constant added or dropped must be added here or taken out.
    declared = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            declared.setdefault(path.stem, set()).update(
                name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name) and ALL_CAPS.fullmatch(name.id))
    assert declared == {
        "__init__": set(),
        "analysis": {"LM_MAX_STEPS", "SPECTRUM_RTOL"},
        "atomphys": {"CODATA", "_CROSS_TERM", "BREIT_RABI_VARIANTS", "FIELD_BRACKET_MAX_T",
                     "EQUILIBRIUM_MAX_ITER", "EQUILIBRIUM_GRAD_TOL"},
        "cli": {"TWO_PI", "_SPECTRUM_HEADER"},
        "config": {"TWO_PI", "MAX_CYCLES", "MAX_SEEDS", "MAX_SHOTS_PER_SIDE",
                   "MAX_LINESHAPE_POINTS", "_PARSERS", "_SCHEMA"},
        "estimator": {"INVERSION_TOLERANCE", "DECISION_SLACK"},
        # RULE_MAX_NODES caps the thermal rule's build, whose cost grows as
        # K^2 N with the nodes K the pulse area needs
        "lineshape": {"THERMAL_CUTOFF_FACTOR", "MIN_THERMAL_CUTOFF", "MAX_THERMAL_CUTOFF",
                      "MAX_PROFILE_ELEMENTS", "RULE_MAX_NODES", "TABLE_INTERVALS_PER_PI", "TABLE_MAX_INTERVALS",
                      "TABLE_CHUNK_ELEMENTS", "TABLE_ROUNDING_SLACK", "FWHM_RESOLUTION",
                      "FWHM_SCAN_RABI", "LINEWIDTH_CALIBRATED_ETA"},
        "simulator": {"LINE_FREQUENCY_HZ", "LOSS_OF_LOCK_STREAK", "TWO_PI", "_COLUMNS",
                      "CSV_HEADER"},
    }


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    drift, position = capsys.readouterr().out.splitlines()
    assert drift.startswith("drift: ") and position.startswith("sigma_z = ")


PACKAGE = Path(iontrack.__file__).resolve().parent


def test_no_source_file_names_scipy():
    sources = [path for path in PACKAGE.rglob("*")
               if path.is_file() and "__pycache__" not in path.parts]
    assert sources
    for path in sources:
        assert "scipy" not in path.read_text(encoding="utf-8"), path


def test_no_command_loads_scipy(tmp_path):
    # each command, and a voltage scan, on small inputs in a fresh interpreter;
    # nor numpy.ma, which takes about 12 ms to import and which np.median,
    # np.percentile and a plain np.unique load on their first call
    inputs = {
        "lineshape.ini": "[lineshape]\nn_points = 21\n",
        "track.ini": "[tracking]\nn_cycles = 32\n",
        "sensitivity.ini": "[sensitivity]\ndurations_s = 2.0\noffsets_rabi = 0.0 0.3\n"
                           "n_seeds = 4\n",
        "spectrum.csv": SPECTRUM_CSV,
        "freqs.txt": FREQUENCIES_TXT,
        "calib.ini": CALIBRATE_INI,
        "scan.ini": SCAN_INI,
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    runs = [["lineshape", "--config", "lineshape.ini"],
            ["track", "--config", "track.ini"],
            ["sensitivity", "--config", "sensitivity.ini"],
            ["fit-spectrum", "spectrum.csv"],
            ["calibrate", "freqs.txt", "--config", "calib.ini"],
            ["track", "--config", "scan.ini"]]
    runs = [argv + ["--out", f"out{i}"] for i, argv in enumerate(runs)]
    script = (
        "import sys\n"
        "import iontrack\n"
        "assert 'scipy' not in sys.modules, 'import iontrack'\n"
        "from iontrack.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'scipy' not in sys.modules and 'numpy.ma' not in sys.modules, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path / "out5")) == [
        "track_displacements.csv", "track_record.csv", "track_summary.json"]
