"""Experiment front-end: YAML configs, metric reports, CSV/SVG export and
the command-line interface (subcommands: run, certify, sweep).

Config grammar (YAML; unknown keys are rejected, see also README.md)::

    scenario:
      horizon: 700            # steps; trace has horizon+1 rows
      T: 0.1                  # sampling period, seconds
      seed: 1                 # nonnegative integer
      process_std: [..3..]    # per-state process noise std, per step
      meas_std: [..3..]       # GPS x, GPS y, compass noise std
      initial_truth: [..3..]
      initial_guess_offset: [..3..]
      input: {eta: 1.0, delta_amp: 0.1, delta_freq: 0.02}
      outliers: paper | none | [{k_lo, k_hi, kind, value|scale}, ...]
      d_routing: 3 x m matrix (rows: measurement channels)
    filters:
      is-ekf: {P0: diag list, lambda1/lambda2/gamma1/gamma2/sigma0/epsilon0: lists}
      ekf: {P0: diag list}
      lsigma-ekf: {P0: diag list, ell: 3.0}
    output:
      dir: out
      csv: trace.csv
      plots: true
      metrics: metrics.txt

The ``certify`` subcommand reads a ``system``/``certificate``/``bounds``
config instead (see certify_from_config).  Both grammars are read by
_section and _read: a section that is not a mapping, or a value of the
wrong type, is a ConfigurationError that names it (``scenario.horizon:
must be a whole number, got 2.5``).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import yaml

from . import stability
from .errors import (
    ConfigurationError,
    InputDomainError,
    IsekfError,
    UndefinedMetricError,
)
from .saturation import BoundParams
from .scenario import (
    FilterSpec,
    InputProfile,
    OutlierSchedule,
    OutlierSegment,
    RobotState,
    ScenarioConfig,
    SimulationTrace,
    check_seed,
    paper_schedule,
    simulate,
    simulate_seeds,
    wrapped_error,
)
from .svgplot import LineChart

STATE_NAMES = ("px", "py", "theta")

# position error above which a filter is reported divergent (meters)
DIVERGENCE_THRESHOLD = 10.0

DEFAULT_BOUND = {
    "lambda1": [0.5, 0.5, 0.1],
    "lambda2": [0.1, 0.1, 0.1],
    "gamma1": [100.0, 100.0, 0.005],
    "gamma2": [9.0, 9.0, 9.0],
    "sigma0": [25.0, 25.0, 0.25],
    "epsilon0": [1.0, 1.0, 1.0],
}
DEFAULT_P0_DIAG = [0.1, 0.1, 5.0e-5]

# seeds per simulate_seeds call in a sweep: one call for the usual sweeps,
# and memory bounded (about 0.15 MB per seed held) for long ones
SWEEP_BATCH = 64


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    csv: str = "trace.csv"
    plots: bool = True
    metrics: str = "metrics.txt"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    seed: int
    output: OutputConfig = field(default_factory=OutputConfig)


def _section(data: dict, key, allowed, where: str) -> dict:
    """The mapping data[key] (data itself for key None; {} when absent or
    null) after checking that every key of it is in allowed; where names it
    in the errors."""
    value = data if key is None else data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where} must be a mapping, got {type(value).__name__}")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {sorted(unknown, key=str)}")
    return value


def _read(section: dict, key: str, where: str, kind, default=...):
    """section[key] converted by kind, or default (unconverted) when the
    key is absent; a required key has no default.  A value kind cannot
    convert is a ConfigurationError naming <where>.<key>."""
    if key not in section:
        if default is ...:
            raise ConfigurationError(f"{where}.{key} is required")
        return default
    try:
        return kind(section[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{where}.{key}: {exc}") from exc


# Value kinds of _read.  A number is never a YAML boolean, but may be a
# numeric string: PyYAML reads 5e-3, with no dot, as a string.

def _real(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _floats(value) -> np.ndarray:
    """A float array of a number or of (nested) lists of numbers."""
    if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
        raise ValueError(f"must hold numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _whole(value) -> int:
    """An integer, or a float with a whole value (700.0); not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != int(value):
        raise ValueError(f"must be a whole number, got {value!r}")
    return int(value)


def _text(value) -> str:
    """A string; YAML's null, numbers and dates are not read as their str."""
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _vec3(value) -> np.ndarray:
    arr = _floats(value)
    if arr.shape != (3,):
        raise ValueError("must be a list of 3 numbers")
    return arr


def _matrix(value) -> np.ndarray:
    return np.atleast_2d(_floats(value))


def _diagonal_or_matrix(value) -> np.ndarray:
    """diag(value) of a list, else value as a matrix."""
    arr = _floats(value)
    return np.diag(arr) if arr.ndim == 1 else np.atleast_2d(arr)


# scenario keys read by a kind alone; the dataclass defaults are the paper's
_SCENARIO_KINDS = {
    "horizon": _whole, "T": _real, "process_std": _vec3, "meas_std": _vec3,
    "filter_process_std": _vec3, "filter_meas_std": _vec3, "initial_guess_offset": _vec3,
    "initial_truth": lambda value: RobotState(*_vec3(value)),
}
# (kind, default) of each outlier segment key
_SEGMENT_KINDS = {"k_lo": (_whole, ...), "k_hi": (_whole, ...), "kind": (_text, "constant"),
                  "value": (_floats, None), "scale": (_floats, None)}
_OUTPUT_KINDS = {"dir": _text, "csv": _text, "plots": _flag, "metrics": _text}
# the keys of each filter section besides P0; only the gate takes ell
_FILTER_KEYS = {"is-ekf": tuple(DEFAULT_BOUND), "ekf": (), "lsigma-ekf": ("ell",)}


def _build(where: str, cls, *args, **kw):
    """cls(*args, **kw); a ConfigurationError or InputDomainError it raises
    comes out as a ConfigurationError prefixed with where."""
    try:
        return cls(*args, **kw)
    except (ConfigurationError, InputDomainError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _parse_schedule(sc: dict) -> Optional[OutlierSchedule]:
    """The paper schedule, no schedule, or an explicit segment list; the
    routing matrix defaults to the paper's."""
    spec = sc.get("outliers")
    if spec == "none":
        return None
    paper = paper_schedule()
    D = _read(sc, "d_routing", "scenario", _matrix, paper.D)
    if spec is None or spec == "paper":
        segs = paper.segments
    elif isinstance(spec, list):
        segs = []
        for i, raw in enumerate(spec):
            where = f"scenario.outliers[{i}]"
            seg = _section(raw, None, _SEGMENT_KINDS, where)
            segs.append(_build(where, OutlierSegment, **{
                key: _read(seg, key, where, kind, default)
                for key, (kind, default) in _SEGMENT_KINDS.items()}))
    else:
        raise ConfigurationError("scenario.outliers must be 'paper', 'none' or a list")
    return _build("scenario", OutlierSchedule, segments=segs, D=D)


def _parse_filters(data: dict) -> list[FilterSpec]:
    section = _section(data, "filters", _FILTER_KEYS, "filters")
    specs = []
    for kind in _FILTER_KEYS:
        if kind not in section:
            continue
        where = f"filters.{kind}"
        sub = _section(section, kind, {"P0", *_FILTER_KEYS[kind]}, where)
        kw = {"P0": np.diag(_read(sub, "P0", where, _vec3, DEFAULT_P0_DIAG))}
        if kind == "is-ekf":
            kw["bound_params"] = _build(where, BoundParams, mode="dt", **{
                name: _read(sub, name, where, _vec3, default)
                for name, default in DEFAULT_BOUND.items()})
        elif "ell" in sub:
            kw["ell"] = _read(sub, "ell", where, _real)
        specs.append(_build(where, FilterSpec, kind, **kw))
    return specs


def load_yaml(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's parser where PyYAML was built with it; same resolver
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" (line {mark.line + 1})" if mark is not None else ""
        raise ConfigurationError(f"config parse error in {path}{at}: {exc}")
    if not isinstance(data, dict):
        raise ConfigurationError(f"config root of {path} must be a mapping")
    return data


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate an experiment config; defaults are applied for
    missing values and unknown keys are rejected."""
    data = _section(load_yaml(path), None, {"scenario", "filters", "output"}, "config")
    sc = _section(data, "scenario", {*_SCENARIO_KINDS, "seed", "input", "outliers", "d_routing"},
                  "scenario")
    inp = _section(sc, "input", {"eta", "delta_amp", "delta_freq"}, "scenario.input")
    # only the keys present are passed: the dataclass defaults are the paper's
    kw = {key: _read(sc, key, "scenario", kind) for key, kind in _SCENARIO_KINDS.items()
          if key in sc}
    kw["input_profile"] = _build("scenario.input", InputProfile,
                                 **{key: _read(inp, key, "scenario.input", _real) for key in inp})
    if "outliers" in sc or "d_routing" in sc:
        kw["schedule"] = _parse_schedule(sc)
    kw["filters"] = _parse_filters(data)
    scenario = _build("scenario", ScenarioConfig, **kw)
    seed = _read(sc, "seed", "scenario", check_seed, 1)
    out = _section(data, "output", _OUTPUT_KINDS, "output")
    output = OutputConfig(**{key: _read(out, key, "output", _OUTPUT_KINDS[key]) for key in out})
    return ExperimentConfig(scenario=scenario, seed=seed, output=output)


# ---------------------------------------------------------------------------
# Metrics

@dataclass(eq=False)
class SeedScores:
    """Scores of one filter over a batch of seeds; row i is seed i."""

    rmse_full: np.ndarray       # (S, 3)
    rmse_windows: dict          # (k_lo, k_hi) -> (S, 3), windows with a step in 0..N
    max_abs: np.ndarray         # (S, 3)
    diverged: np.ndarray        # (S,) bool


def score_seeds(estimates: np.ndarray, truth: np.ndarray, failed_at: Sequence,
                windows: Sequence = ()) -> SeedScores:
    """Per-seed scores of one filter over a batch of S seeds: per-state
    RMSE over the full horizon and over each (k_lo, k_hi] window, max
    |err|, and divergence (failed_at[i] is not None, or a position error
    above DIVERGENCE_THRESHOLD).

    estimates and truth are stacked steps first, (N+1, S, 3), column i
    holding seed i.  The error is wrapped once, before squaring.  A window
    keeps only its steps in 0..N and is left out when it has none.  Each
    mean adds over the outermost axis of a C-contiguous stack, in step
    order, as the mean of one seed's (N+1, 3) rows does: row i of every
    score has the bits of seed i scored alone, and each add covers all
    seeds at once."""
    err = wrapped_error(estimates, truth)
    sq = err**2
    N = err.shape[0] - 1

    def window_rmse(lo, hi):
        first, last = max(lo + 1, 0), min(hi, N)
        return np.sqrt(sq[first:last + 1].mean(axis=0)) if first <= last else None

    rmse_windows = {}
    for lo, hi in windows:
        value = window_rmse(lo, hi)
        if value is not None:
            rmse_windows[(lo, hi)] = value
    failed = np.array([step is not None for step in failed_at])
    return SeedScores(
        rmse_full=window_rmse(-1, N),
        rmse_windows=rmse_windows,
        max_abs=np.abs(err).max(axis=0),
        diverged=failed | (np.hypot(err[..., 0], err[..., 1]).max(axis=0) > DIVERGENCE_THRESHOLD),
    )


def rmse(trace: SimulationTrace, label: str, window=None) -> np.ndarray:
    """Per-state RMSE of a filter over a step window: score_seeds on the
    one trace.

    window is None (full horizon) or a (lo, hi] pair of step indices; the
    steps outside 0..horizon are left out, and a window with none of them
    is an UndefinedMetricError.  Heading errors are wrapped before
    squaring."""
    if label not in trace.estimates:
        raise UndefinedMetricError(f"filter {label!r} not present in trace")
    windows = () if window is None else (tuple(window),)
    scores = score_seeds(trace.estimates[label][:, None], trace.truth[:, None],
                         [trace.failed_at[label]], windows)
    if window is None:
        return scores.rmse_full[0]
    if windows[0] not in scores.rmse_windows:
        raise UndefinedMetricError(f"empty metric window for {label!r}")
    return scores.rmse_windows[windows[0]][0]


@dataclass(eq=False)
class FilterMetrics:
    rmse_full: np.ndarray
    rmse_windows: dict          # (k_lo, k_hi] -> per-state rmse
    max_abs: np.ndarray
    diverged: bool
    failed_at: Optional[int]
    failure: Optional[str]      # the failure's message, when failed_at is a step
    step_seconds: float


@dataclass
class MetricsReport:
    per_filter: dict            # label -> FilterMetrics
    windows: list               # [(k_lo, k_hi)]

    def text(self) -> str:
        lines = []
        for label, fm in self.per_filter.items():
            lines.append(f"[{label}]")
            lines.append("  rmse full      = " + np.array2string(fm.rmse_full, precision=6))
            for (lo, hi), v in fm.rmse_windows.items():
                lines.append(f"  rmse ({lo},{hi}] = " + np.array2string(v, precision=6))
            lines.append("  max |err|      = " + np.array2string(fm.max_abs, precision=6))
            lines.append(f"  diverged       = {fm.diverged} (failed_at={fm.failed_at})")
            if fm.failure is not None:
                lines.append(f"  failure        = {fm.failure}")
            lines.append(f"  wall clock     = {fm.step_seconds * 1e6:.2f} us/step")
        return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig):
    """Simulate the configured scenario and compute the metric report."""
    trace = simulate(cfg.scenario, cfg.seed)
    return trace, metrics_report(trace)


def metrics_report(trace: SimulationTrace) -> MetricsReport:
    """Per-filter RMSE (full horizon and per outlier window), max errors,
    divergence and wall clock of one simulated trace: score_seeds on a
    batch of one seed.  The windows are the schedule's that start before
    the horizon; one with no step in 0..horizon has no RMSE line."""
    windows = [w for w in trace.schedule.active_ranges() if w[0] < trace.horizon]
    per_filter = {}
    for label in trace.labels():
        scores = score_seeds(trace.estimates[label][:, None], trace.truth[:, None],
                             [trace.failed_at[label]], windows)
        per_filter[label] = FilterMetrics(
            rmse_full=scores.rmse_full[0],
            rmse_windows={w: v[0] for w, v in scores.rmse_windows.items()},
            max_abs=scores.max_abs[0],
            diverged=bool(scores.diverged[0]),
            failed_at=trace.failed_at[label],
            failure=trace.failure[label],
            step_seconds=trace.step_seconds[label],
        )
    return MetricsReport(per_filter=per_filter, windows=windows)


# ---------------------------------------------------------------------------
# Export

def export_csv(trace: SimulationTrace, path: str) -> None:
    """One row per step: k, t, truth(3), d(m), y(3), then per filter the
    estimate (3) and, for saturated filters, the per-channel clip level
    sqrt(sigma) (3).  Full float precision (round-trip repr)."""
    m = trace.d.shape[1]
    header = ["k", "t"]
    header += [f"truth_{s}" for s in STATE_NAMES]
    header += [f"d_{i + 1}" for i in range(m)]
    header += [f"y_{s}" for s in STATE_NAMES]
    columns = [trace.t[:, None], trace.truth, trace.d, trace.y]
    for label in trace.labels():
        safe = label.replace("-", "_")
        header += [f"{safe}_{s}" for s in STATE_NAMES]
        columns.append(trace.estimates[label])
        if label in trace.sqrt_sigma:
            header += [f"{safe}_sig_{s}" for s in STATE_NAMES]
            columns.append(trace.sqrt_sigma[label])
    # one %-format per row over Python floats: %r is repr, so the text is
    # repr(float(v)) of each value, without a call per value
    row = "%d" + ",%r" * (len(header) - 1) + "\n"
    rows = zip(trace.k.tolist(), np.column_stack(columns).tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines([row % (k, *v) for k, v in rows])


def render_plots(trace: SimulationTrace, outdir: str) -> list[str]:
    """Measurement, per-state estimate and x-y trajectory charts (7 SVGs),
    outlier windows shaded."""
    if len(trace.k) == 0:
        raise ConfigurationError("cannot plot an empty trace")
    os.makedirs(outdir, exist_ok=True)
    spans = [(lo * trace.T, hi * trace.T) for lo, hi in trace.schedule.active_ranges()]
    files = []
    units = ("m", "m", "rad")
    for j, name in enumerate(STATE_NAMES):
        chart = LineChart(f"measured {name}", "time (s)", f"{name} ({units[j]})")
        for lo, hi in spans:
            chart.add_shade(lo, hi)
        chart.add_series("measurement", trace.t, trace.y[:, j], color="#7f7f7f")
        chart.add_series("truth", trace.t, trace.truth[:, j], color="#000000")
        path = os.path.join(outdir, f"measurement_{name}.svg")
        chart.write(path)
        files.append(path)
    for j, name in enumerate(STATE_NAMES):
        chart = LineChart(f"estimated {name}", "time (s)", f"{name} ({units[j]})")
        for lo, hi in spans:
            chart.add_shade(lo, hi)
        chart.add_series("truth", trace.t, trace.truth[:, j], color="#000000")
        for label in trace.labels():
            chart.add_series(label, trace.t, trace.estimates[label][:, j])
        path = os.path.join(outdir, f"state_{name}.svg")
        chart.write(path)
        files.append(path)
    chart = LineChart("trajectory", "x (m)", "y (m)")
    chart.add_series("truth", trace.truth[:, 0], trace.truth[:, 1], color="#000000")
    for label in trace.labels():
        chart.add_series(label, trace.estimates[label][:, 0], trace.estimates[label][:, 1])
    path = os.path.join(outdir, "trajectory.svg")
    chart.write(path)
    files.append(path)
    return files


# ---------------------------------------------------------------------------
# certify config

def certify_from_config(path: str):
    """Build the linear system, candidate and bound parameters from a
    certify config and run the certification."""
    data = _section(load_yaml(path), None, {"system", "certificate", "bounds"}, "config")
    sysc = _section(data, "system", {"mode", "A", "C", "Q", "R", "D"}, "system")
    system = _build("system", stability.LinearSystem, mode=_read(sysc, "mode", "system", _text),
                    **{key: _read(sysc, key, "system", _matrix)
                       for key in ("A", "C", "Q", "R", "D")})
    mode = system.mode
    bc = _section(data, "bounds", {*DEFAULT_BOUND, "mu", "variant"}, "bounds")
    params = _build("bounds", BoundParams, mode="ct" if mode == "continuous" else "dt",
                    **{name: _read(bc, name, "bounds", _floats) for name in DEFAULT_BOUND})
    cc = _section(data, "certificate", {"W", "U", "alpha", "P0"}, "certificate")
    if cc.get("P0") == "fixed_point":
        P0 = stability.solve_care(system) if mode == "continuous" else stability.solve_dare(system)
    else:
        P0 = _read(cc, "P0", "certificate", _matrix)
    cand = _build("certificate", stability.CertificateCandidate,
                  W=_read(cc, "W", "certificate", _diagonal_or_matrix),
                  U=_read(cc, "U", "certificate", _matrix),
                  alpha=_read(cc, "alpha", "certificate", _real, 0.0),
                  Gamma2=np.diag(params.gamma2), P0=P0)
    return stability.certify(system, cand, params, _read(bc, "mu", "bounds", _real, 0.0),
                             variant=_read(bc, "variant", "bounds", _text, "theorem"))


# ---------------------------------------------------------------------------
# CLI

def _write_outputs(trace, text: str, out: OutputConfig):
    """Write the trace CSV, the plots and the metrics text; returns the
    paths written."""
    os.makedirs(out.dir, exist_ok=True)
    csv_path = os.path.join(out.dir, out.csv)
    export_csv(trace, csv_path)
    written = [csv_path]
    if out.plots:
        written += render_plots(trace, out.dir)
    metrics_path = os.path.join(out.dir, out.metrics)
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    written.append(metrics_path)
    return written


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    specs = cfg.scenario.filters
    if args.filters is not None:
        keep = set(args.filters.split(","))
        unknown = keep - {s.kind for s in specs}
        if unknown:
            raise ConfigurationError(f"--filters names not in config: {sorted(unknown)}")
        specs = [s for s in specs if s.kind in keep]
    if args.ell is not None:
        if not args.ell > 0.0:  # also rejects nan, and with no gated filter configured
            raise ConfigurationError(f"--ell must be positive, got {args.ell}")
        specs = [replace(s, ell=args.ell) if s.kind == "lsigma-ekf" else s for s in specs]
    if specs is not cfg.scenario.filters:
        cfg = replace(cfg, scenario=replace(cfg.scenario, filters=specs))
    out = cfg.output if args.out is None else replace(cfg.output, dir=args.out)
    cfg = replace(cfg, seed=cfg.seed if args.seed is None else args.seed, output=out)
    trace, report = run_experiment(cfg)
    text = report.text()
    files = _write_outputs(trace, text, cfg.output)
    print(text, end="")
    print("wrote: " + ", ".join(files))
    return 0


def cmd_certify(args) -> int:
    cert = certify_from_config(args.config)
    print(cert.report_text())
    return 0


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    if args.seeds < 1:
        raise ConfigurationError(f"--seeds must be at least 1, got {args.seeds}")
    agg = {spec.label: [] for spec in cfg.scenario.filters}
    for first in range(1, args.seeds + 1, SWEEP_BATCH):
        seeds = range(first, min(first + SWEEP_BATCH, args.seeds + 1))
        traces = simulate_seeds(cfg.scenario, seeds)
        if args.out is not None:
            for seed, trace in zip(seeds, traces):
                outdir = os.path.join(args.out, f"seed{seed}")
                os.makedirs(outdir, exist_ok=True)
                export_csv(trace, os.path.join(outdir, cfg.output.csv))
        truth = np.stack([trace.truth for trace in traces], axis=1)
        for label, batches in agg.items():
            estimates = np.stack([trace.estimates[label] for trace in traces], axis=1)
            batches.append(score_seeds(estimates, truth,
                                       [trace.failed_at[label] for trace in traces]))
    print(f"aggregate over seeds 1..{args.seeds}:")
    for label, batches in agg.items():
        stack = np.concatenate([b.rmse_full for b in batches])
        n_div = sum(int(np.count_nonzero(b.diverged)) for b in batches)
        print(f"  {label:12s} rmse mean=" + np.array2string(stack.mean(axis=0), precision=6)
              + " max=" + np.array2string(stack.max(axis=0), precision=6)
              + f" divergent={n_div}/{len(stack)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isekf",
        description="Saturated-innovation EKF experiments and certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config_arg(p):
        p.add_argument("config_pos", nargs="?", default=None, metavar="config",
                       help="config path (YAML)")
        p.add_argument("--config", dest="config_opt", default=None,
                       help="config path (alternative to the positional form)")

    p_run = sub.add_parser("run", help="run a scenario config, write CSV/SVG/metrics")
    add_config_arg(p_run)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--filters", default=None, help="comma list of filters to run")
    p_run.add_argument("--ell", type=float, default=None, help="gate width override")
    p_run.set_defaults(func=cmd_run)
    p_cert = sub.add_parser("certify", help="evaluate a stability certificate config")
    add_config_arg(p_cert)
    p_cert.set_defaults(func=cmd_certify)
    p_sweep = sub.add_parser("sweep", help="run a batch of seeds and aggregate metrics")
    add_config_arg(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=20, help="run seeds 1..N")
    p_sweep.add_argument("--out", default=None, help="per-seed output root")
    p_sweep.set_defaults(func=cmd_sweep)
    return ap


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    level = os.environ.get("ISEKF_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    args.config = args.config_pos if args.config_pos is not None else args.config_opt
    if args.config is None:
        parser.print_usage(sys.stderr)
        print("error: a config path is required", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout pipe fails here, not in the flush at exit
    except IsekfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the Python docs' recipe: devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
