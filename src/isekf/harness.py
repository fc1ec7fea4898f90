"""Experiment front-end: YAML configs, metric reports, CSV/SVG export and
the command-line interface (subcommands: run, certify, sweep).

Config grammar (YAML, unknown keys rejected)::

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
      d_routing: p x m matrix (rows: measurement channels)
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
config instead (see cmd_certify).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, field
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


@dataclass
class OutputConfig:
    dir: str = "out"
    csv: str = "trace.csv"
    plots: bool = True
    metrics: str = "metrics.txt"


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    seed: int
    output: OutputConfig = field(default_factory=OutputConfig)


def _require_keys(section: dict, allowed, where: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _vec(value, where: str, length: int = 3) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (length,):
        raise ConfigurationError(f"{where} must be a list of {length} numbers")
    return arr


def _parse_schedule(spec, routing, where: str) -> Optional[OutlierSchedule]:
    """The paper schedule, no schedule, or an explicit segment list; the
    routing matrix defaults to the paper's."""
    if spec == "none":
        return None
    paper = paper_schedule()
    D = paper.D if routing is None else np.asarray(routing, dtype=float)
    if spec is None or spec == "paper":
        return OutlierSchedule(segments=paper.segments, D=D)
    if not isinstance(spec, list):
        raise ConfigurationError(f"{where}.outliers must be 'paper', 'none' or a list")
    segs = []
    for i, raw in enumerate(spec):
        _require_keys(raw, {"k_lo", "k_hi", "kind", "value", "scale"}, f"{where}.outliers[{i}]")
        try:
            segs.append(OutlierSegment(
                k_lo=int(raw["k_lo"]), k_hi=int(raw["k_hi"]), kind=raw.get("kind", "constant"),
                value=raw.get("value"), scale=raw.get("scale"),
            ))
        except (KeyError, ConfigurationError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}.outliers[{i}]: {exc}") from exc
    return OutlierSchedule(segments=segs, D=D)


def _parse_filters(section: dict) -> list[FilterSpec]:
    _require_keys(section, {"is-ekf", "ekf", "lsigma-ekf"}, "filters")
    specs = []
    for kind in ("is-ekf", "ekf", "lsigma-ekf"):
        if kind not in section:
            continue
        sub = section[kind] or {}
        where = f"filters.{kind}"
        allowed = {"P0", "ell"} | set(DEFAULT_BOUND) if kind == "is-ekf" else {"P0", "ell"}
        _require_keys(sub, allowed, where)
        try:
            kw = {"P0": np.diag(_vec(sub.get("P0", DEFAULT_P0_DIAG), "P0"))}
            if kind == "is-ekf":
                bound = {name: _vec(sub.get(name, default), name)
                         for name, default in DEFAULT_BOUND.items()}
                kw["bound_params"] = BoundParams(mode="dt", **bound)
            elif kind == "lsigma-ekf" and "ell" in sub:
                kw["ell"] = float(sub["ell"])
            specs.append(FilterSpec(kind, **kw))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{where}: {exc}") from exc
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
    data = load_yaml(path)
    _require_keys(data, {"scenario", "filters", "output"}, "config")
    sc = data.get("scenario", {}) or {}
    _require_keys(sc, {"horizon", "T", "seed", "process_std", "meas_std",
                       "filter_process_std", "filter_meas_std", "initial_truth",
                       "initial_guess_offset", "input", "outliers", "d_routing"}, "scenario")

    inp = sc.get("input", {}) or {}
    _require_keys(inp, {"eta", "delta_amp", "delta_freq"}, "scenario.input")
    # only the keys present are passed: the dataclass defaults are the paper's
    kw = {"input_profile": InputProfile(**{k: float(v) for k, v in inp.items()})}
    if "horizon" in sc:
        kw["horizon"] = int(sc["horizon"])
    if "T" in sc:
        kw["T"] = float(sc["T"])
    for key in ("process_std", "meas_std", "filter_process_std", "filter_meas_std",
                "initial_guess_offset"):
        if key in sc:
            kw[key] = _vec(sc[key], f"scenario.{key}")
    if "initial_truth" in sc:
        kw["initial_truth"] = RobotState(*_vec(sc["initial_truth"], "scenario.initial_truth"))
    if "outliers" in sc or "d_routing" in sc:
        kw["schedule"] = _parse_schedule(sc.get("outliers"), sc.get("d_routing"), "scenario")
    kw["filters"] = _parse_filters(data.get("filters", {}) or {})
    try:
        scenario = ScenarioConfig(**kw)
        seed = check_seed(sc.get("seed", 1))
    except (InputDomainError, ConfigurationError) as exc:
        raise ConfigurationError(f"scenario: {exc}") from exc

    out = data.get("output", {}) or {}
    _require_keys(out, {"dir", "csv", "plots", "metrics"}, "output")
    convert = {"dir": str, "csv": str, "plots": bool, "metrics": str}
    output = OutputConfig(**{key: convert[key](value) for key, value in out.items()})
    return ExperimentConfig(scenario=scenario, seed=seed, output=output)


# ---------------------------------------------------------------------------
# Metrics

def rmse(trace: SimulationTrace, label: str, window=None) -> np.ndarray:
    """Per-state RMSE of a filter over a step window.

    window is None (full horizon), a (lo, hi] pair of step indices, or an
    explicit index array.  Heading errors are wrapped before squaring."""
    if label not in trace.estimates:
        raise UndefinedMetricError(f"filter {label!r} not present in trace")
    if window is None:
        idx = np.arange(len(trace.k))
    elif isinstance(window, tuple):
        lo, hi = window
        idx = np.arange(lo + 1, hi + 1)
    else:
        idx = np.asarray(window, dtype=int)
    idx = idx[(idx >= 0) & (idx < len(trace.k))]
    if idx.size == 0:
        raise UndefinedMetricError(f"empty metric window for {label!r}")
    err = trace.error(label)[idx]
    return np.sqrt((err**2).mean(axis=0))


@dataclass
class FilterMetrics:
    rmse_full: np.ndarray
    rmse_windows: dict          # (k_lo, k_hi] -> per-state rmse
    max_abs: np.ndarray
    diverged: bool
    failed_at: Optional[int]
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
            lines.append(f"  wall clock     = {fm.step_seconds * 1e6:.2f} us/step")
        return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig):
    """Simulate the configured scenario and compute the metric report."""
    trace = simulate(cfg.scenario, cfg.seed)
    return trace, metrics_report(trace)


def metrics_report(trace: SimulationTrace) -> MetricsReport:
    """Per-filter RMSE (full horizon and per outlier window), max errors,
    divergence and wall clock of one simulated trace."""
    windows = [w for w in trace.schedule.active_ranges() if w[0] < trace.horizon]
    per_filter = {}
    for label in trace.labels():
        err = trace.error(label)
        pos_err = np.hypot(err[:, 0], err[:, 1])
        win_rmse = {}
        for lo, hi in windows:
            try:
                win_rmse[(lo, hi)] = rmse(trace, label, (lo, hi))
            except UndefinedMetricError:
                continue
        per_filter[label] = FilterMetrics(
            rmse_full=rmse(trace, label),
            rmse_windows=win_rmse,
            max_abs=np.abs(err).max(axis=0),
            diverged=bool(trace.failed_at[label] is not None
                          or pos_err.max() > DIVERGENCE_THRESHOLD),
            failed_at=trace.failed_at[label],
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

def _parse_matrix(section, key, where, default=None):
    if key not in section:
        if default is None:
            raise ConfigurationError(f"{where}.{key} is required")
        return np.atleast_2d(np.asarray(default, dtype=float))
    return np.atleast_2d(np.asarray(section[key], dtype=float))


def certify_from_config(path: str):
    """Build the linear system, candidate and bound parameters from a
    certify config and run the certification."""
    data = load_yaml(path)
    _require_keys(data, {"system", "certificate", "bounds"}, "config")
    sysc = data.get("system", {}) or {}
    _require_keys(sysc, {"mode", "A", "C", "Q", "R", "D"}, "system")
    mode = sysc.get("mode")
    if mode not in ("continuous", "discrete"):
        raise ConfigurationError("system.mode must be 'continuous' or 'discrete'")
    system = stability.LinearSystem(
        A=_parse_matrix(sysc, "A", "system"),
        C=_parse_matrix(sysc, "C", "system"),
        Q=_parse_matrix(sysc, "Q", "system"),
        R=_parse_matrix(sysc, "R", "system"),
        D=_parse_matrix(sysc, "D", "system"),
        mode=mode,
    )
    bc = data.get("bounds", {}) or {}
    _require_keys(bc, {"lambda1", "lambda2", "gamma1", "gamma2", "sigma0", "epsilon0",
                       "mu", "variant"}, "bounds")
    try:
        params = BoundParams(
            lambda1=bc["lambda1"], lambda2=bc["lambda2"],
            gamma1=bc["gamma1"], gamma2=bc["gamma2"],
            sigma0=bc["sigma0"], epsilon0=bc["epsilon0"],
            mode="ct" if mode == "continuous" else "dt",
        )
    except KeyError as exc:
        raise ConfigurationError(f"bounds.{exc.args[0]} is required")
    cc = data.get("certificate", {}) or {}
    _require_keys(cc, {"W", "U", "alpha", "P0"}, "certificate")
    if "P0" in cc and cc["P0"] == "fixed_point":
        P0 = stability.solve_care(system) if mode == "continuous" else stability.solve_dare(system)
    else:
        P0 = _parse_matrix(cc, "P0", "certificate")
    cand = stability.CertificateCandidate(
        W=np.diag(np.atleast_1d(np.asarray(cc.get("W"), dtype=float)))
        if np.asarray(cc.get("W")).ndim == 1 else _parse_matrix(cc, "W", "certificate"),
        U=_parse_matrix(cc, "U", "certificate"),
        alpha=float(cc.get("alpha", 0.0)),
        Gamma2=np.diag(params.gamma2),
        P0=P0,
    )
    mu = float(bc.get("mu", 0.0))
    variant = bc.get("variant", "theorem")
    return stability.certify(system, cand, params, mu, variant=variant)


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
    if args.seed is not None:
        cfg = ExperimentConfig(scenario=cfg.scenario, seed=args.seed, output=cfg.output)
    if args.out is not None:
        cfg.output.dir = args.out
    if args.filters is not None:
        keep = set(args.filters.split(","))
        kept = [s for s in cfg.scenario.filters if s.kind in keep]
        unknown = keep - {s.kind for s in cfg.scenario.filters}
        if unknown:
            raise ConfigurationError(f"--filters names not in config: {sorted(unknown)}")
        cfg.scenario.filters = kept
    if args.ell is not None:
        if not args.ell > 0.0:  # also rejects nan
            raise ConfigurationError(f"--ell must be positive, got {args.ell}")
        for s in cfg.scenario.filters:
            if s.kind == "lsigma-ekf":
                s.ell = args.ell
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
    agg = {}
    for first in range(1, args.seeds + 1, SWEEP_BATCH):
        seeds = range(first, min(first + SWEEP_BATCH, args.seeds + 1))
        for seed, trace in zip(seeds, simulate_seeds(cfg.scenario, seeds)):
            if args.out is not None:
                outdir = os.path.join(args.out, f"seed{seed}")
                os.makedirs(outdir, exist_ok=True)
                export_csv(trace, os.path.join(outdir, cfg.output.csv))
            for label, fm in metrics_report(trace).per_filter.items():
                agg.setdefault(label, []).append((fm.rmse_full, fm.diverged))
    print(f"aggregate over seeds 1..{args.seeds}:")
    for label, rows in agg.items():
        stack = np.stack([r[0] for r in rows])
        n_div = sum(1 for r in rows if r[1])
        print(f"  {label:12s} rmse mean=" + np.array2string(stack.mean(axis=0), precision=6)
              + " max=" + np.array2string(stack.max(axis=0), precision=6)
              + f" divergent={n_div}/{len(rows)}")
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
        return args.func(args)
    except IsekfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
