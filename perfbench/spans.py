"""In-memory span tracer for the traced run.

The tracer wraps public functions of feederlimits by patching module
attributes (every module of the package that holds the same function
object), so nothing under src/ changes. A function that a later version no
longer has is recorded as absent and its metrics read 0.

Spans live in flat arrays while the run lasts and are written out once at
the end. Each span has a name, start and end (perf_counter seconds), the
span that caused it, an outcome code and, for the feeder solver, the
iteration count.
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from time import perf_counter

OK, STALLED, DIVERGED, CAPPED, FAILED = range(5)
OUTCOMES = ("ok", "stalled", "diverged", "capped", "failed")

_ITERATIONS = re.compile(r"(\d+) iterations")


def solver_outcome(exc: BaseException):
    """(outcome, iterations) of a ConvergenceError from solve_feeder."""
    text = str(exc)
    match = _ITERATIONS.search(text)
    iterations = int(match.group(1)) if match else -1
    if "stalled" in text:
        return STALLED, iterations
    if "diverged" in text:
        return DIVERGED, iterations
    if "did not converge" in text:
        return CAPPED, iterations
    return FAILED, iterations


# (span name, module holding the function, attribute)
TARGETS = (
    ("feeder.thevenin_impedance", "feederlimits.feeder", "thevenin_impedance"),
    ("feeder.two_bus_equivalent", "feederlimits.feeder", "two_bus_equivalent"),
    ("feeder.solve_feeder", "feederlimits.feeder", "solve_feeder"),
    ("sweep.run_sweep", "feederlimits.sweep", "run_sweep"),
    ("sweep.best_reactive_point", "feederlimits.sweep", "best_reactive_point"),
    ("sweep.frontier_curves", "feederlimits.sweep", "frontier_curves"),
    ("limits.binding_limit", "feederlimits.limits", "binding_limit"),
    ("limits.marginal_limit", "feederlimits.limits", "marginal_limit"),
    ("limits.thermal_limit", "feederlimits.limits", "thermal_limit"),
    ("twobus.solve", "feederlimits.twobus", "solve"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self.iterations = array("l")
        self._stack = [-1]
        self._patches = []
        self.absent: list[str] = []
        self.children: list[dict] = []  # timings reported by child processes

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.outcome.append(OK)
        self.iterations.append(-1)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name):
        """Context manager recording one span around a benchmark step."""
        return _Span(self, self._id(name))

    def _wrap(self, fn, nid, solver):
        open_, close = self._open, self._close
        outcome, iterations = self.outcome, self.iterations

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(idx)
                if solver:
                    outcome[idx], iterations[idx] = solver_outcome(exc)
                else:
                    outcome[idx] = FAILED
                raise
            close(idx)
            if solver:
                iterations[idx] = result.iterations
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every target in every loaded feederlimits module."""
        self.absent = []
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "feederlimits" or k.startswith("feederlimits."))]
        for name, home, attr in TARGETS:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            traced = self._wrap(fn, self._id(name), name == "feeder.solve_feeder")
            for module in modules:
                if getattr(module, attr, None) is fn:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, fn))

    def remove(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches = []

    def write(self, path):
        """Write every span as one JSON array per line, children last."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "name", "start_s", "end_s",
                                             "outcome", "iterations"],
                                 "absent": self.absent}) + "\n")
            for k in range(len(self.start)):
                fh.write(json.dumps([k, self.parent[k], self.names[self.name[k]],
                                     self.start[k], self.end[k],
                                     OUTCOMES[self.outcome[k]], self.iterations[k]]) + "\n")
            for child in self.children:
                fh.write(json.dumps(child) + "\n")


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer, nid):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def import_times(stderr: str) -> dict:
    """Cumulative import times in ms from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[1]) / 1000.0
    return out
