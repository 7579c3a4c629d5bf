"""Span tracing of the program's layers from outside the program.

Tracer.install replaces the layer functions named in LAYERS, in the
namespaces that call them, by wrappers that record one span per call:
name, start, end and parent span.  Spans are kept in flat arrays and
written out once, when the run ends.  A layer's self time is its span's
time minus the time its child spans cover.  A function that the program
no longer has is skipped, so its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from collections import Counter

import numpy as np


def _heat_steps(result, problem, *args, **kwargs):
    return {"heat.run_heat.steps": problem.mesh.N}


def _wave_steps(result, problem, *args, **kwargs):
    return {"wave.run_wave.steps": problem.mesh.N}


def _reference_steps(result, problem, path, n_ref):
    return {"wave.reference_wave_solution.steps": n_ref}


def _path_work(result, *args, **kwargs):
    return {
        "noise.sample_path.normals": result.increments.size,
        "noise.sample_path.bytes": result.increments.nbytes + result.cumulative.nbytes,
    }


def _block_normals(result, block, *args, **kwargs):
    n_paths, nodes, m = block.shape
    return {"validation.kernels.normals": n_paths * (nodes - 1) * m}


def _heat_scheme(problem, path, scheme="mcn"):
    return f"heat.run_heat.{scheme}"


# (module, attribute, span name or function of the call's arguments,
#  work counters taking the call's result and arguments)
LAYERS = [
    ("mcnspde.heat", "solve_tridiagonal", "grid.solve_tridiagonal", None),
    ("mcnspde.wave", "solve_tridiagonal", "grid.solve_tridiagonal", None),
    ("mcnspde.heat", "apply_operator", "grid.apply_operator", None),
    ("mcnspde.wave", "apply_operator", "grid.apply_operator", None),
    ("mcnspde.noise", "apply_operator", "grid.apply_operator", None),
    ("mcnspde.harness", "sample_path", "noise.sample_path", _path_work),
    ("mcnspde.heat", "heat_correction", "noise.forcing", None),
    ("mcnspde.wave", "wave_correction_displacement", "noise.forcing", None),
    ("mcnspde.wave", "wave_correction_velocity", "noise.forcing", None),
    ("mcnspde.harness", "run_heat", _heat_scheme, _heat_steps),
    ("mcnspde.harness", "exact_heat_solution", "heat.exact_heat_solution", None),
    ("mcnspde.harness", "run_wave", "wave.run_wave", _wave_steps),
    ("mcnspde.harness", "reference_wave_solution", "wave.reference_wave_solution", _reference_steps),
    ("mcnspde.harness", "rms_and_standard_error", "harness.reduce", None),
    ("mcnspde.harness", "fit_rate", "harness.reduce", None),
    ("mcnspde.validation", "heat_defect_block", "validation.kernels", _block_normals),
    ("mcnspde.validation", "wave_current_defect_block", "validation.kernels", _block_normals),
]

# Per-layer metric -> (unit, kind, source), read from one round's spans and
# counts.  Kinds: "busy" sums the time of spans named source, "self" sums
# their time less that of their child spans, "calls" counts them, and
# "count" reads the work counter named source.
METRICS = {
    "grid.solve_tridiagonal.busy_s": ("s", "busy", "grid.solve_tridiagonal"),
    "grid.solve_tridiagonal.calls": ("count", "calls", "grid.solve_tridiagonal"),
    "grid.apply_operator.busy_s": ("s", "busy", "grid.apply_operator"),
    "grid.apply_operator.calls": ("count", "calls", "grid.apply_operator"),
    "noise.sample_path.busy_s": ("s", "busy", "noise.sample_path"),
    "noise.sample_path.calls": ("count", "calls", "noise.sample_path"),
    "noise.sample_path.normals": ("count", "count", "noise.sample_path.normals"),
    "noise.sample_path.bytes": ("bytes", "count", "noise.sample_path.bytes"),
    "noise.forcing.busy_s": ("s", "busy", "noise.forcing"),
    "noise.forcing.calls": ("count", "calls", "noise.forcing"),
    "heat.run_heat.mcn.self_s": ("s", "self", "heat.run_heat.mcn"),
    "heat.run_heat.em.self_s": ("s", "self", "heat.run_heat.em"),
    "heat.run_heat.steps": ("count", "count", "heat.run_heat.steps"),
    "heat.exact_heat_solution.busy_s": ("s", "busy", "heat.exact_heat_solution"),
    "heat.exact_heat_solution.calls": ("count", "calls", "heat.exact_heat_solution"),
    "wave.run_wave.self_s": ("s", "self", "wave.run_wave"),
    "wave.run_wave.steps": ("count", "count", "wave.run_wave.steps"),
    "wave.reference_wave_solution.busy_s": ("s", "busy", "wave.reference_wave_solution"),
    "wave.reference_wave_solution.steps": ("count", "count", "wave.reference_wave_solution.steps"),
    "harness.run_study_tables.self_s": ("s", "self", "harness.run_study_tables"),
    "harness.reduce.busy_s": ("s", "busy", "harness.reduce"),
    "validation.validate_statistics.self_s": ("s", "self", "validation.validate_statistics"),
    "validation.kernels.busy_s": ("s", "busy", "validation.kernels"),
    "validation.kernels.calls": ("count", "calls", "validation.kernels"),
    "validation.kernels.normals": ("count", "count", "validation.kernels.normals"),
}


class Tracer:
    """In-memory span store with one work counter per round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.rounds: list[tuple[int, int, Counter]] = []  # (first span, end span, counts)
        self.counts = Counter()

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def round(self, body):
        """Run one workload round under a root span; its counts are kept apart."""
        first = len(self.name)
        self.counts = Counter()
        result = self.call("round", body)
        self.rounds.append((first, len(self.name), self.counts))
        return result

    def _wrap(self, fn, name, work):
        tracer = self
        fixed_id = self._id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else tracer._id(name(*args, **kwargs))
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if work is not None:
                tracer.counts.update(work(result, *args, **kwargs))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function that the program still has."""
        for module_name, attr, name, work in LAYERS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                continue
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, name, work))

    def round_metrics(self) -> list[dict[str, float]]:
        """Every per-layer metric, one dict per round."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=name.size
        )
        self_time = duration - child_time
        out = []
        for first, stop, counts in self.rounds:
            names = name[first:stop]
            values = {}
            for metric, (_, kind, source) in METRICS.items():
                if kind == "count":
                    values[metric] = counts.get(source, 0)
                    continue
                mask = names == self._name_ids.get(source, -1)
                if kind == "calls":
                    values[metric] = int(mask.sum())
                elif kind == "busy":
                    values[metric] = float(duration[first:stop][mask].sum())
                else:
                    values[metric] = float(self_time[first:stop][mask].sum())
            out.append(values)
        return out

    def save(self, path) -> None:
        """Write every span to path as a .npz of flat arrays."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            round_first=np.array([r[0] for r in self.rounds], dtype=np.int64),
        )


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, dict]:
    """Median over rounds of each per-layer metric, with its unit."""
    return {
        metric: {"value": statistics.median(r[metric] for r in rounds), "unit": unit}
        for metric, (unit, _, _) in METRICS.items()
    }
