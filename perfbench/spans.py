"""Spans around calls into hjblab's layers, recorded from outside the package.

A :class:`Tracer` wraps each traced function and rebinds the wrapper
under every name that refers to the function in any loaded ``hjblab``
module: the defining module (for ``module.func`` calls and calls from
inside that module) and each module that imported the name (for
example ``apply_H`` in ``grid``, ``cauchy``, ``ergodic`` and the package
``__init__``).  Every call made through such a name opens one span
(name, start, end, parent).  ``expr.evaluate`` is only ever called from
other modules; its recursion runs in the untraced ``_eval``, so each
count is the number of coefficient evaluations requested.

Spans are kept in flat arrays while the job runs and written once at the
end.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _count_nodes(counters, args, kwargs, grid):
    counters["grid.nodes"] += grid.n


def _count_sweeps(counters, args, kwargs, result):
    counters["cauchy.howard_sweeps"] += result[1]


def _count_iterations(counters, args, kwargs, pair):
    counters["ergodic.iterations"] += pair.iterations


def _count_flat_steps(counters, args, kwargs, result):
    counters["analysis.flat_steps"] += len(result[0].times) - 1


def _count_bytes(counters, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counters["iotools.bytes_written"] += len(text.encode())


# (module, function, hook run on each return)
TRACED = (
    ("expr", "evaluate", None),
    ("geometry", "distance", None),
    ("problem", "assemble_problem", None),
    ("problem", "validate_assumptions", None),
    ("grid", "build_grid", _count_nodes),
    ("grid", "control_values", None),
    ("grid", "apply_H", None),
    ("grid", "cfl_dt", None),
    ("cauchy", "step_explicit", None),
    ("cauchy", "step_implicit_policy", None),
    ("cauchy", "howard_solve", _count_sweeps),
    ("ergodic", "solve_ergodic_rvi", _count_iterations),
    ("ergodic", "solve_ergodic_longtime", _count_iterations),
    ("barriers", "_scan_delta", None),
    ("barriers", "eval_F_radial", None),
    ("analysis", "holder_fit", None),
    ("analysis", "boundary_envelope_check", None),
    ("analysis", "run_until_flat", _count_flat_steps),
    ("iotools", "write_json", None),
    ("iotools", "write_field_csv", None),
    ("iotools", "curves_csv", None),
    ("iotools", "atomic_write_text", _count_bytes),
)

ERGODIC_SOLVERS = ("ergodic.solve_ergodic_rvi", "ergodic.solve_ergodic_longtime")
IOTOOLS = ("iotools.write_json", "iotools.write_field_csv", "iotools.curves_csv",
           "iotools.atomic_write_text")

# per-layer metric -> unit; every one is reported on every workload
PER_LAYER = {
    "import.hjblab_s": "s",
    "expr.evaluate_calls": "count",
    "expr.evaluate_s": "s",
    "geometry.distance_calls": "count",
    "geometry.distance_s": "s",
    "problem.assemble_s": "s",
    "problem.validate_calls": "count",
    "problem.validate_s": "s",
    "grid.build_calls": "count",
    "grid.nodes": "count",
    "grid.build_s": "s",
    "grid.build_us_per_node": "us/node",
    "grid.control_values_calls": "count",
    "grid.control_values_s": "s",
    "grid.apply_H_calls": "count",
    "grid.apply_H_s": "s",
    "grid.cfl_dt_calls": "count",
    "grid.cfl_dt_s": "s",
    "cauchy.explicit_steps": "count",
    "cauchy.explicit_s": "s",
    "cauchy.implicit_steps": "count",
    "cauchy.howard_sweeps": "count",
    "cauchy.sweeps_per_step": "sweeps/step",
    "cauchy.howard_s": "s",
    "ergodic.calls": "count",
    "ergodic.iterations": "count",
    "ergodic.solve_s": "s",
    "barriers.scan_calls": "count",
    "barriers.scan_s": "s",
    "barriers.eval_F_calls": "count",
    "barriers.eval_F_s": "s",
    "analysis.holder_s": "s",
    "analysis.envelope_s": "s",
    "analysis.flat_steps": "count",
    "analysis.flat_s": "s",
    "iotools.files_written": "count",
    "iotools.bytes_written": "bytes",
    "iotools.write_s": "s",
    "trace.overhead_s": "s",
}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    duration = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - children


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, on_return=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "hjblab" or n.startswith("hjblab.")]
        for module_name, func_name, on_return in TRACED:
            original = getattr(importlib.import_module(f"hjblab.{module_name}"), func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, on_return)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        a = self.arrays()
        own = self_times(a["parent"], a["start"], a["end"])
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        selfs = np.bincount(a["name_id"], weights=own, minlength=k)
        return (
            {name: int(calls[i]) for i, name in enumerate(self.names)},
            {name: float(selfs[i]) for i, name in enumerate(self.names)},
        )

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except import.hjblab_s and trace.overhead_s."""
        calls, selfs = self.totals()

        def n(name):
            return calls.get(name, 0)

        def s(*names):
            return sum(selfs.get(name, 0.0) for name in names)

        nodes = self.counters["grid.nodes"]
        steps = n("cauchy.howard_solve")
        return {
            "expr.evaluate_calls": n("expr.evaluate"),
            "expr.evaluate_s": s("expr.evaluate"),
            "geometry.distance_calls": n("geometry.distance"),
            "geometry.distance_s": s("geometry.distance"),
            "problem.assemble_s": s("problem.assemble_problem"),
            "problem.validate_calls": n("problem.validate_assumptions"),
            "problem.validate_s": s("problem.validate_assumptions"),
            "grid.build_calls": n("grid.build_grid"),
            "grid.nodes": nodes,
            "grid.build_s": s("grid.build_grid"),
            "grid.build_us_per_node": 1e6 * s("grid.build_grid") / nodes if nodes else 0.0,
            "grid.control_values_calls": n("grid.control_values"),
            "grid.control_values_s": s("grid.control_values"),
            "grid.apply_H_calls": n("grid.apply_H"),
            "grid.apply_H_s": s("grid.apply_H"),
            "grid.cfl_dt_calls": n("grid.cfl_dt"),
            "grid.cfl_dt_s": s("grid.cfl_dt"),
            "cauchy.explicit_steps": n("cauchy.step_explicit"),
            "cauchy.explicit_s": s("cauchy.step_explicit"),
            "cauchy.implicit_steps": n("cauchy.step_implicit_policy"),
            "cauchy.howard_sweeps": self.counters["cauchy.howard_sweeps"],
            "cauchy.sweeps_per_step": self.counters["cauchy.howard_sweeps"] / steps if steps else 0.0,
            "cauchy.howard_s": s("cauchy.howard_solve"),
            "ergodic.calls": sum(n(name) for name in ERGODIC_SOLVERS),
            "ergodic.iterations": self.counters["ergodic.iterations"],
            "ergodic.solve_s": s(*ERGODIC_SOLVERS),
            "barriers.scan_calls": n("barriers._scan_delta"),
            "barriers.scan_s": s("barriers._scan_delta"),
            "barriers.eval_F_calls": n("barriers.eval_F_radial"),
            "barriers.eval_F_s": s("barriers.eval_F_radial"),
            "analysis.holder_s": s("analysis.holder_fit"),
            "analysis.envelope_s": s("analysis.boundary_envelope_check"),
            "analysis.flat_steps": self.counters["analysis.flat_steps"],
            "analysis.flat_s": s("analysis.run_until_flat"),
            "iotools.files_written": n("iotools.atomic_write_text"),
            "iotools.bytes_written": self.counters["iotools.bytes_written"],
            "iotools.write_s": s(*IOTOOLS),
        }
