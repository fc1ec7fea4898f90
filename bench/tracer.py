"""Span tracer for the benchmark's traced run.

Wrappers are installed at the module bindings that the package's callers
resolve (for example ``isekf.scenario.dt_isekf_step``, which is what
``simulate`` calls), so no source under ``src/isekf`` changes.  Every
wrapped call records one span (name, start, end, parent) in flat arrays
kept in memory; the arrays are written once, at the end of the run.
Each traced set-up or op is one session: install, record, restore every
original binding.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from isekf import filters, harness, saturation, scenario, stability, svgplot
from isekf.errors import NumericalFailure


def _csv_bytes(tracer, args, result):
    tracer.counters["harness.csv_bytes"] += os.path.getsize(args[1])


def _svg_bytes(tracer, args, result):
    tracer.counters["harness.svg_bytes"] += sum(os.path.getsize(p) for p in result)


def _clip_counts(tracer, args, result):
    # a channel is clipped when the saturated value differs from the input
    tracer.counters["saturation.clipped"] += int(np.count_nonzero(result != np.asarray(args[0])))
    tracer.counters["saturation.channels"] += int(np.size(result))


def _bound_check(tracer, args, result):
    tracer.counters["stability.bound_samples"] += result.samples
    tracer.counters["stability.max_ratio"] = max(tracer.counters["stability.max_ratio"],
                                                 result.max_ratio)


# (owner, attribute, span name, hook run on the return value)
BINDINGS = [
    (harness, "parse_config", "harness.parse_config", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "export_csv", "harness.export_csv", _csv_bytes),
    (harness, "render_plots", "harness.render_plots", _svg_bytes),
    (svgplot.LineChart, "render", "svgplot.LineChart.render", None),
    (harness, "simulate", "scenario.simulate", None),
    (scenario, "measure", "scenario.measure", None),
    (scenario, "robot_step", "scenario.robot_step", None),
    (scenario, "dt_isekf_step", "filters.dt_isekf_step", None),
    (scenario, "ekf_step", "filters.ekf_step", None),
    (scenario, "sigma_gate_step", "filters.sigma_gate_step", None),
    (filters, "dt_predict", "filters.dt_predict", None),
    (filters, "dt_update", "filters.dt_update", None),
    (filters.NonlinearModel, "A_at", "filters.jacobian", None),
    (filters.NonlinearModel, "C_at", "filters.jacobian", None),
    (filters, "saturate_innovation", "saturation.saturate_innovation", None),
    (saturation, "saturate_vector", "saturation.saturate_vector", _clip_counts),
    (stability, "saturate_vector", "saturation.saturate_vector", _clip_counts),
    (filters, "bound_step_dt", "saturation.bound_step_dt", None),
    (stability, "bound_step_dt", "saturation.bound_step_dt", None),
    (filters, "bound_rhs_ct", "saturation.bound_rhs_ct", None),
    (stability, "bound_rhs_ct", "saturation.bound_rhs_ct", None),
    (stability, "certify", "stability.certify", None),
    (stability, "solve_dare", "stability.solve_dare", None),
    (stability, "bound_trajectory_check", "stability.bound_trajectory_check", _bound_check),
]

# step functions whose NumericalFailure simulate() absorbs as a filter failure
_STEP_SPANS = {"filters.dt_isekf_step", "filters.ekf_step", "filters.sigma_gate_step"}

# per-layer metrics over spans: (span, statistic), reported as "<span>.<statistic>".
# The statistic is the time per call over every call (ms, us), the self time
# per call (self_ms, self_us) or the number of calls per traced op (calls).
SPAN_METRICS = [
    ("harness.parse_config", "ms"),
    ("harness.run_experiment", "self_ms"),
    ("harness.export_csv", "ms"),
    ("harness.render_plots", "self_ms"),
    ("svgplot.LineChart.render", "ms"),
    ("scenario.simulate", "self_ms"),
    ("scenario.measure", "us"),
    ("scenario.robot_step", "us"),
    ("filters.dt_isekf_step", "us"),
    ("filters.dt_isekf_step", "calls"),
    ("filters.ekf_step", "us"),
    ("filters.ekf_step", "calls"),
    ("filters.sigma_gate_step", "us"),
    ("filters.sigma_gate_step", "calls"),
    ("filters.dt_predict", "us"),
    ("filters.dt_update", "self_us"),
    ("filters.jacobian", "us"),
    ("saturation.saturate_innovation", "us"),
    ("saturation.saturate_innovation", "calls"),
    ("saturation.saturate_vector", "us"),
    ("saturation.saturate_vector", "calls"),
    ("saturation.bound_step_dt", "us"),
    ("saturation.bound_step_dt", "calls"),
    ("saturation.bound_rhs_ct", "us"),
    ("saturation.bound_rhs_ct", "calls"),
    ("stability.certify", "ms"),
    ("stability.solve_dare", "ms"),
    ("stability.bound_trajectory_check", "self_ms"),
]
_UNIT = {"ms": "ms", "self_ms": "ms", "us": "us", "self_us": "us", "calls": "count"}

# per-layer metrics read from counters: (name, unit); per traced op unless noted
COUNTER_METRICS = [
    ("harness.csv_bytes", "bytes"),
    ("harness.svg_bytes", "bytes"),
    ("filters.failed_steps", "count"),
    ("saturation.states_built", "count"),
    ("saturation.clip_fraction", "ratio"),       # clipped channels / channels
    ("stability.bound_samples", "count"),
    ("stability.max_ratio", "ratio"),            # largest ||e|| / envelope seen
]

_SCALE = {"ms": 1e3, "self_ms": 1e3, "us": 1e6, "self_us": 1e6}


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []
        self.op_roots: list[int] = []       # indices of the op spans
        self.counters: dict[str, float] = {}
        self.reset_counters()

    def reset_counters(self) -> None:
        self.counters = {"harness.csv_bytes": 0, "harness.svg_bytes": 0,
                         "filters.failed_steps": 0, "saturation.states_built": 0,
                         "saturation.clipped": 0, "saturation.channels": 0,
                         "stability.bound_samples": 0, "stability.max_ratio": 0.0}

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def session(self, name: str):
        """Install the wrappers and record one root span ("setup" or "op")
        around the block; every binding is restored afterwards."""
        self._install()
        try:
            idx = self._open(name)
            t0 = perf_counter()
            try:
                yield
            finally:
                self._close(idx, t0, perf_counter())
                if name == "op":
                    self.op_roots.append(idx)
        finally:
            self._restore()

    def _wrap(self, fn, name: str, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NumericalFailure:
                if name in _STEP_SPANS:
                    tracer.counters["filters.failed_steps"] += 1
                raise
            finally:
                tracer._close(idx, t0, perf_counter())
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _count_states(self, init):
        def wrapper(*args, **kwargs):
            self.counters["saturation.states_built"] += 1
            return init(*args, **kwargs)

        return wrapper

    def _install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in BINDINGS:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, hook))
        init = saturation.SaturationState.__init__
        self._saved.append((saturation.SaturationState, "__init__", init))
        saturation.SaturationState.__init__ = self._count_states(init)

    def _restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self) -> dict:
        """Per-layer metrics over the recorded spans; zero for a layer
        that was never called."""
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        # spans after an op span's index, up to the next root, belong to that op
        roots = np.flatnonzero(~has_parent)
        owner = roots[np.searchsorted(roots, np.arange(len(dur)), side="right") - 1]
        in_op = np.isin(owner, np.asarray(self.op_roots, dtype=owner.dtype))
        n_ops = max(len(self.op_roots), 1)

        out = {}
        for span, stat in SPAN_METRICS:
            ident = self._ids.get(span)
            sel = nid == ident if ident is not None else np.zeros(len(dur), dtype=bool)
            calls = int(sel.sum())
            if stat == "calls":
                value = float(np.count_nonzero(sel & in_op)) / n_ops
            elif calls == 0:
                value = 0.0
            else:
                times = self_time if stat.startswith("self") else dur
                value = float(times[sel].sum()) / calls * _SCALE[stat]
            out[f"{span}.{stat}"] = {"value": value, "unit": _UNIT[stat]}
        c = self.counters
        for metric, unit in COUNTER_METRICS:
            if metric == "saturation.clip_fraction":
                value = c["saturation.clipped"] / c["saturation.channels"] \
                    if c["saturation.channels"] else 0.0
            elif metric == "stability.max_ratio":
                value = float(c[metric])
            else:
                value = float(c[metric]) / n_ops
            out[metric] = {"value": value, "unit": unit}
        return out
