"""Outside-in tracing of the `iontrack` modules.

`Tracer.install()` replaces each traced function, in every `iontrack`
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent span, job id) and, for some targets, a count taken
from the call's arguments or result.  Callers inside the package look
these names up in their module globals at call time, so the wrappers
see every call without any change to the program.  `remove()` puts every
original object back.

A target whose attribute no longer exists is skipped and its metrics
read zero, so the trace keeps working when later versions of the
program restructure their calls.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "config", "lineshape", "estimator", "simulator", "analysis",
           "atomphys")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# target -> counter(args, kwargs, result) giving the span's count, or None
TARGETS = {
    "cli.main": None,
    "config.load_config": None,
    "lineshape.thermal_excitation": None,
    "lineshape.excitation_profile": lambda a, k, r: int(np.size(_arg(a, k, 0, "detunings"))),
    "lineshape.fwhm": None,
    "estimator.estimate_from_counts": lambda a, k, r: int(not r.in_window),
    "estimator.g_invert": None,
    "estimator.g_forward": None,
    "estimator.analytic_sigma": None,
    "simulator.run_tracking": lambda a, k, r: int(r.lost_lock),
    "simulator.run_measurement": lambda a, k, r: 2 * _arg(a, k, 2, "cfg").shots_per_side,
    "analysis.allan_deviation": None,
    "analysis.fit_spectrum": None,
    "analysis.minimize": None,
    "analysis.position_statistics": None,
    "analysis.force_report": None,
    "atomphys.calibrate_gradient": None,
    "atomphys.field_from_frequency": None,
    "atomphys.equilibrium_positions": None,
}


class Tracer:
    """Span recorder; spans live in flat arrays until `arrays` or `write`."""

    def __init__(self, targets=TARGETS):
        self.targets = dict(targets)
        self.names = list(self.targets)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.name = array("q")
        self.count = array("q")
        self.raised = array("b")
        self.current = -1
        self.job_id = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "iontrack" or n.startswith("iontrack.")]
        for idx, target in enumerate(self.names):
            module_name, attr = target.split(".")
            module = sys.modules.get(f"iontrack.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(idx, original, self.targets[target])
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, idx: int, fn, counter):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.parent.append(tracer.current)
            tracer.job.append(tracer.job_id)
            tracer.name.append(idx)
            tracer.count.append(0)
            tracer.raised.append(0)
            outer = tracer.current
            tracer.current = i
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[i] = 1
                raise
            finally:
                tracer.end[i] = clock()
                tracer.start[i] = t0
                tracer.current = outer
            if counter is not None:
                try:
                    tracer.count[i] = counter(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass    # a changed signature or result counts zero
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- results -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with duration and self time."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": parent,
            "job": np.frombuffer(self.job, dtype=np.int64),
            "dur": dur,
            "self": dur - child,
            "count": np.frombuffer(self.count, dtype=np.int64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def under(self, spans: dict, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span named `ancestor` above them."""
        target = self.names.index(ancestor)
        parent = spans["parent"]
        name = spans["name"]
        mask = np.zeros(parent.size, dtype=bool)
        node = parent.copy()
        while np.any(node >= 0):
            live = node >= 0
            mask[live] |= name[node[live]] == target
            node[live] = parent[node[live]]
        return mask

    def write(self, path: str) -> None:
        """Spans as gzip CSV: name, start_s, end_s, parent, job."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.job[i]}\n")
