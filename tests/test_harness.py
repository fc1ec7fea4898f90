import dataclasses
import importlib.metadata
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from conftest import benchmark_config
from isekf import harness, stability, svgplot
from isekf.errors import (
    CertificationFailure,
    ConfigurationError,
    InputDomainError,
    UndefinedMetricError,
)
from isekf.harness import (
    OutputConfig,
    cli_main,
    export_csv,
    parse_config,
    render_plots,
    rmse,
    run_experiment,
)
from isekf.scenario import (
    OutlierSchedule,
    OutlierSegment,
    paper_schedule,
    robot_model,
    simulate,
    simulate_seeds,
)

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAPER_CFG = os.path.join(PKG_ROOT, "paper.cfg")
LINEAR_CFG = os.path.join(PKG_ROOT, "linear.cfg")


def write_cfg(tmp_path, data, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    assert_yaml_parity(str(path))
    return str(path)


def assert_yaml_parity(path):
    """load_yaml (libyaml's parser) reads path as PyYAML's pure-Python
    SafeLoader does; repr, not ==, because .nan never equals itself."""
    with open(path, encoding="utf-8") as fh:
        reference = yaml.load(fh, Loader=yaml.SafeLoader)
    assert repr(harness.load_yaml(path)) == repr(reference)


def minimal_cfg_dict(**scenario_extra):
    scenario = {"horizon": 40, "seed": 3}
    scenario.update(scenario_extra)
    return {
        "scenario": scenario,
        "filters": {"is-ekf": {}, "ekf": {}, "lsigma-ekf": {}},
        "output": {"dir": "out", "plots": False},
    }


# ---------------------------------------------------------------------------
# config parsing

def test_parse_bundled_benchmark_config():
    cfg = parse_config(PAPER_CFG)
    assert cfg.scenario.horizon == 700
    assert cfg.scenario.T == pytest.approx(0.1)
    assert cfg.seed == 1
    kinds = [s.kind for s in cfg.scenario.filters]
    assert kinds == ["is-ekf", "ekf", "lsigma-ekf"]
    bp = cfg.scenario.filters[0].bound_params
    np.testing.assert_allclose(bp.lambda1, [0.5, 0.5, 0.1])
    np.testing.assert_allclose(bp.lambda2, [0.1, 0.1, 0.1])
    np.testing.assert_allclose(bp.gamma1, [100.0, 100.0, 5.0e-3])
    np.testing.assert_allclose(bp.gamma2, [9.0, 9.0, 9.0])
    ranges = cfg.scenario.schedule.active_ranges()
    assert ranges == [(150, 200), (350, 400), (450, 500), (550, 600)]


def test_missing_gamma2_defaults(tmp_path):
    data = minimal_cfg_dict()
    data["filters"]["is-ekf"] = {"lambda1": [0.5, 0.5, 0.1]}
    cfg = parse_config(write_cfg(tmp_path, data))
    bp = cfg.scenario.filters[0].bound_params
    np.testing.assert_allclose(bp.gamma2, [9.0, 9.0, 9.0])


def test_invalid_lambda_rejected(tmp_path):
    data = minimal_cfg_dict()
    data["filters"]["is-ekf"] = {"lambda1": [1.5, 0.5, 0.1]}
    with pytest.raises(ConfigurationError, match="is-ekf"):
        parse_config(write_cfg(tmp_path, data))


def test_unknown_keys_rejected(tmp_path):
    data = minimal_cfg_dict()
    data["scenario"]["typo_key"] = 1
    with pytest.raises(ConfigurationError, match="typo_key"):
        parse_config(write_cfg(tmp_path, data))
    data = minimal_cfg_dict()
    data["extra_section"] = {}
    with pytest.raises(ConfigurationError, match="extra_section"):
        parse_config(write_cfg(tmp_path, data))


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("scenario:\n  horizon: 10\n filters: [unbalanced\n")
    with pytest.raises(ConfigurationError, match="line"):
        parse_config(str(path))


def test_yaml_loaders_agree_on_the_bundled_configs():
    for path in (PAPER_CFG, LINEAR_CFG):
        assert_yaml_parity(path)


@pytest.mark.parametrize("text", [
    "scenario:\n  horizon: -5\n",
    "scenario: {T: .1, seed: 0x1f, meas_std: [5e-1, .inf, -.nan]}\nfilters: {ekf: ~}\n",
    "output: {dir: 2026-10-18, plots: yes, csv: '1e3', metrics: !!str 12}\n",
], ids=["negative-horizon", "numbers", "scalars"])
def test_yaml_loaders_agree(tmp_path, text):
    path = tmp_path / "text.cfg"
    path.write_text(text)
    assert_yaml_parity(str(path))


def test_yaml_loaders_report_the_same_error_line(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("scenario:\n  horizon: 10\n filters: [unbalanced\n")
    with pytest.raises(yaml.YAMLError) as ref:
        with open(path, encoding="utf-8") as fh:
            yaml.load(fh, Loader=yaml.SafeLoader)
    with pytest.raises(ConfigurationError, match=rf"\(line {ref.value.problem_mark.line + 1}\)"):
        harness.load_yaml(str(path))


def test_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        parse_config("/nonexistent/nowhere.cfg")


def test_explicit_outlier_list(tmp_path):
    data = minimal_cfg_dict(outliers=[
        {"k_lo": 5, "k_hi": 10, "kind": "constant", "value": [1.0, 2.0]},
        {"k_lo": 20, "k_hi": 25, "kind": "uniform", "scale": [[3.0, 0.0], [0.0, 1.0]]},
    ])
    cfg = parse_config(write_cfg(tmp_path, data))
    assert cfg.scenario.schedule.active_ranges() == [(5, 10), (20, 25)]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, scenario, filters", [
    ("T", {"T": 0}, None),
    ("T", {"T": NAN}, None),
    ("meas_std", {"meas_std": [NAN, 0.5, 0.008]}, None),
    ("process_std", {"process_std": [0.005, -0.005, 0.0005]}, None),
    ("filter_meas_std", {"filter_meas_std": [0.5, INF, 0.008]}, None),
    ("filter_process_std", {"filter_process_std": [NAN, 0.005, 0.0005]}, None),
    ("value", {"outliers": [{"k_lo": 5, "k_hi": 10, "kind": "constant", "value": [INF, 0.0]}]},
     None),
    ("scale", {"outliers": [{"k_lo": 5, "k_hi": 10, "kind": "uniform",
                             "scale": [[NAN, 0.0], [0.0, 1.0]]}]}, None),
    ("P0", {}, {"is-ekf": {"P0": [NAN, 0.1, 5.0e-5]}}),
    ("P0", {}, {"ekf": {"P0": [-1.0, 0.1, 5.0e-5]}}),
    ("P0", {}, {"ekf": {"P0": [1e308, -1e300, 5.0e-5]}}),
    ("seed", {"seed": -1}, None),
    ("seed", {"seed": "one"}, None),
    ("D", {"d_routing": [[1.0, 0.0], [0.0, 1.0]]}, None),
    ("value", {"d_routing": [[1.0], [0.0], [0.0]]}, None),
    ("D", {"d_routing": [[NAN, 0.0], [0.0, 0.0], [0.0, 1.0]]}, None),
    ("value", {"outliers": [{"k_lo": 5, "k_hi": 10, "kind": "constant",
                             "value": [1.0, 2.0, 3.0]}]}, None),
    ("scale", {"outliers": [{"k_lo": 5, "k_hi": 10, "kind": "uniform",
                             "scale": [[1.0, 0.0, 0.0]]}]}, None),
    ("ell", {}, {"ekf": {"ell": 0.001}}),
    ("ell", {}, {"is-ekf": {"ell": 3.0}}),
    ("gamma2", {}, {"is-ekf": {"gamma2": [INF, 1.0, 1.0]}}),
    ("gamma1", {}, {"is-ekf": {"gamma1": [100.0, INF, 0.005]}}),
    ("sigma0", {}, {"is-ekf": {"sigma0": [INF, 25.0, 0.25]}}),
    ("epsilon0", {}, {"is-ekf": {"epsilon0": [1.0, 1.0, INF]}}),
    ("eta", {"input": {"eta": NAN}}, None),
    ("delta_freq", {"input": {"delta_freq": INF}}, None),
], ids=["T-zero", "T-nan", "meas_std-nan", "process_std-negative", "filter_meas_std-inf",
        "filter_process_std-nan", "value-inf", "scale-nan", "P0-nan", "P0-not-psd",
        "P0-not-psd-near-float-limit", "seed-negative", "seed-not-integer",
        "d_routing-2-rows", "d_routing-1-column-under-the-paper-schedule", "d_routing-nan",
        "value-of-length-3", "scale-1x3", "ell-under-ekf", "ell-under-is-ekf", "gamma2-inf",
        "gamma1-inf", "sigma0-inf", "epsilon0-inf", "eta-nan", "delta_freq-inf"])
def test_bad_scenario_values_rejected_at_parse(tmp_path, key, scenario, filters):
    data = minimal_cfg_dict(**scenario)
    if filters is not None:
        data["filters"] = filters
    path = write_cfg(tmp_path, data)
    with pytest.raises(ConfigurationError, match=rf"\b{key}\b"):
        parse_config(path)
    assert cli_main(["run", path, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("command, section, key, value, message", [
    ("certify", "system", "A", "abc", "system.A: could not convert string to float: 'abc'\n"),
    ("certify", "system", "A", [[1.0], [1.0, 2.0]], "system.A: "),
    ("certify", "certificate", "alpha", "x",
     "certificate.alpha: could not convert string to float: 'x'\n"),
    ("certify", "bounds", "mu", None, "bounds.mu: "),
    ("certify", "bounds", "lambda1", "q", "bounds.lambda1: could not convert string to float: 'q'\n"),
    ("certify", "bounds", "epsilon0", [float("inf")], "bounds: epsilon0 must be finite, got [inf]\n"),
    ("certify", "system", None, [1, 2], "system must be a mapping, got list\n"),
    ("run", "scenario", "horizon", "abc", "scenario.horizon: must be a whole number, got 'abc'\n"),
    ("run", "scenario", "input", {"eta": "abc"},
     "scenario.input.eta: could not convert string to float: 'abc'\n"),
    ("run", "scenario", "input", {"eta": float("nan")},
     "scenario.input: eta must be finite, got nan\n"),
    ("run", "scenario", "input", {"delta_freq": float("inf")},
     "scenario.input: delta_freq must be finite, got inf\n"),
    ("run", "scenario", None, 5, "scenario must be a mapping, got int\n"),
    ("run", "scenario", "outliers", [5], "scenario.outliers[0] must be a mapping, got int\n"),
    ("run", "scenario", "horizon", 2.5, "scenario.horizon: must be a whole number, got 2.5\n"),
    ("run", "scenario", "outliers", [{"k_lo": 5.7, "k_hi": 10, "value": [1.0, 2.0]}],
     "scenario.outliers[0].k_lo: must be a whole number, got 5.7\n"),
    ("run", "output", "plots", "false", "output.plots: must be true or false, got 'false'\n"),
    ("run", "output", "csv", None, "output.csv: must be a string, got None\n"),
    ("run", "output", "dir", 5, "output.dir: must be a string, got 5\n"),
    ("run", "output", "metrics", ["m.txt"], "output.metrics: must be a string, got ['m.txt']\n"),
], ids=["A-string", "A-ragged", "alpha-string", "mu-null", "lambda1-string", "epsilon0-inf",
        "system-list",
        "horizon-string", "eta-string", "eta-nan", "delta_freq-inf", "scenario-int",
        "outliers-int",
        "horizon-fraction", "k_lo-fraction", "plots-string", "csv-null", "dir-int",
        "metrics-list"])
def test_a_value_of_the_wrong_type_is_a_named_error(tmp_path, capsys, command, section, key,
                                                     value, message):
    data = harness.load_yaml(LINEAR_CFG if command == "certify" else PAPER_CFG)
    if key is None:
        data[section] = value
    else:
        data[section][key] = value
    out = tmp_path / "out"
    argv = [command, write_cfg(tmp_path, data)] + (["--out", str(out)] if command == "run" else [])
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + message) and captured.err.count("\n") == 1
    assert captured.out == "" and not out.exists()


def test_a_non_finite_bound_parameter_is_named_by_its_key(tmp_path, capsys):
    data = harness.load_yaml(PAPER_CFG)
    data["filters"]["is-ekf"]["gamma2"] = [float("inf"), 1.0, 1.0]
    out = tmp_path / "out"
    assert cli_main(["run", write_cfg(tmp_path, data), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: filters.is-ekf: gamma2 must be finite, got [inf, 1.0, 1.0]\n"
    assert captured.out == "" and not out.exists()


def test_numeric_strings_are_read_as_numbers(tmp_path):
    # PyYAML reads an exponent with no dot (5e-3) as a string
    cfg = _parse_paper_text(tmp_path, "T: 0.1", "T: 5e-2")
    assert cfg.scenario.T == 0.05
    data = minimal_cfg_dict(meas_std=["5e-1", 0.5, "8e-3"])
    assert parse_config(write_cfg(tmp_path, data)).scenario.meas_std.tolist() == [0.5, 0.5, 0.008]


def test_whole_number_floats_are_read_as_integers(tmp_path):
    data = minimal_cfg_dict(horizon=40.0, outliers=[
        {"k_lo": 5.0, "k_hi": 10, "kind": "constant", "value": [1.0, 2.0]}])
    cfg = parse_config(write_cfg(tmp_path, data))
    assert type(cfg.scenario.horizon) is int and cfg.scenario.horizon == 40
    seg = cfg.scenario.schedule.segments[0]
    assert type(seg.k_lo) is int and (seg.k_lo, seg.k_hi) == (5, 10)
    assert cfg.output.plots is False  # minimal_cfg_dict's YAML false


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-1"],
    ["sweep", "--seeds", "0"],
    ["sweep", "--seeds", "-3"],
], ids=["run-seed-negative", "sweep-seeds-zero", "sweep-seeds-negative"])
def test_bad_seed_flags_rejected(tmp_path, capsys, argv):
    path = write_cfg(tmp_path, minimal_cfg_dict())
    assert cli_main([argv[0], path, *argv[1:], "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert "seed" in captured.err and captured.out == ""


def _assert_same(a, b, where="cfg"):
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=where)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    else:
        assert a == b, where


def test_paper_cfg_equals_the_defaults():
    cfg = parse_config(PAPER_CFG)
    _assert_same(cfg.scenario, benchmark_config())
    assert cfg.seed == 1
    assert cfg.output == OutputConfig()


# ---------------------------------------------------------------------------
# metrics

def test_rmse_zero_error():
    tr = simulate(benchmark_config(horizon=30, schedule=None), 1)
    tr.estimates["ekf"][:] = tr.truth
    np.testing.assert_allclose(rmse(tr, "ekf"), np.zeros(3), atol=0)


def test_rmse_constant_offset():
    tr = simulate(benchmark_config(horizon=30, schedule=None), 1)
    tr.estimates["ekf"][:] = tr.truth + np.array([2.0, 0.0, 0.0])
    out = rmse(tr, "ekf")
    assert out[0] == pytest.approx(2.0)
    assert out[1] == 0.0 and out[2] == 0.0


def test_rmse_window_selects_exact_steps():
    tr = simulate(benchmark_config(horizon=700, schedule=None), 1)
    est = tr.truth.copy()
    est[451:501, 0] += 3.0          # exactly the steps in (450, 500]
    tr.estimates["ekf"][:] = est
    in_window = rmse(tr, "ekf", (450, 500))
    assert in_window[0] == pytest.approx(3.0)
    outside = rmse(tr, "ekf", (500, 550))
    assert outside[0] == 0.0


def test_rmse_wraps_heading_error():
    tr = simulate(benchmark_config(horizon=10, schedule=None), 1)
    est = tr.truth.copy()
    est[:, 2] += 2.0 * np.pi        # same heading modulo wrap
    tr.estimates["ekf"][:] = est
    assert rmse(tr, "ekf")[2] == pytest.approx(0.0, abs=1e-12)


def test_rmse_empty_window():
    tr = simulate(benchmark_config(horizon=10, schedule=None), 1)
    with pytest.raises(UndefinedMetricError):
        rmse(tr, "ekf", (10, 10))
    with pytest.raises(UndefinedMetricError):
        rmse(tr, "no-such-filter")


def test_metrics_window_combination():
    tr, report = run_experiment(parse_config(PAPER_CFG))
    # partition the horizon and recombine the squared means
    edges = [(-1, 150), (150, 200), (200, 450), (450, 500), (500, 700)]
    for label in tr.labels():
        total = np.zeros(3)
        count = 0
        for lo, hi in edges:
            n = hi - lo
            total += n * rmse(tr, label, (lo, hi))**2
            count += n
        combined = total / count
        full = rmse(tr, label)**2
        np.testing.assert_allclose(combined, full, rtol=1e-12, atol=1e-15)


# windows that start before step 0, end past the horizon, or lie wholly
# past it or before step 0, besides the paper's four
SCORED_WINDOWS = [(150, 200), (350, 400), (450, 500), (550, 600),
                  (-20, 30), (140, 900), (800, 900), (-50, -10)]


def _oracle_error(est, truth):
    err = est - truth
    err[:, 2] = np.pi - np.mod(np.pi - err[:, 2], 2.0 * np.pi)
    return err


def _oracle_rmse(err, lo, hi):
    """The per-trace window RMSE that score_seeds replaced; None for a
    window with no step in the trace."""
    idx = np.arange(lo + 1, hi + 1)
    idx = idx[(idx >= 0) & (idx < len(err))]
    return np.sqrt((err[idx]**2).mean(axis=0)) if idx.size else None


def _bits(a):
    return np.asarray(a).tobytes()


@pytest.mark.parametrize("horizon", [700, 520, 160])
def test_score_seeds_rows_equal_the_per_trace_scores_bit_for_bit(horizon):
    seeds = [1, 7, 1001, 3, 4]
    traces = simulate_seeds(benchmark_config(horizon=horizon), seeds)
    truth = np.stack([tr.truth for tr in traces], axis=1)
    for label in traces[0].labels():
        scores = harness.score_seeds(np.stack([tr.estimates[label] for tr in traces], axis=1),
                                     truth, [tr.failed_at[label] for tr in traces],
                                     SCORED_WINDOWS)
        for i, tr in enumerate(traces):
            where = f"{label} seed {seeds[i]}"
            err = _oracle_error(tr.estimates[label], tr.truth)
            fm = harness.metrics_report(tr).per_filter[label]
            full = _oracle_rmse(err, -1, horizon)
            assert _bits(scores.rmse_full[i]) == _bits(fm.rmse_full) == _bits(full), where
            assert _bits(rmse(tr, label)) == _bits(full), where
            for w in SCORED_WINDOWS:
                want = _oracle_rmse(err, *w)
                if want is None:
                    assert w not in scores.rmse_windows, (where, w)
                    with pytest.raises(UndefinedMetricError):
                        rmse(tr, label, w)
                else:
                    assert _bits(scores.rmse_windows[w][i]) == _bits(want), (where, w)
                    assert _bits(rmse(tr, label, w)) == _bits(want), (where, w)
            # the report scores the schedule's windows that start before the horizon
            assert list(fm.rmse_windows) == [w for w in SCORED_WINDOWS[:4] if w[0] < horizon]
            for w, value in fm.rmse_windows.items():
                assert _bits(value) == _bits(_oracle_rmse(err, *w)), (where, w)
            max_abs = np.abs(err).max(axis=0)
            assert _bits(scores.max_abs[i]) == _bits(fm.max_abs) == _bits(max_abs), where
            diverged = bool(tr.failed_at[label] is not None
                            or np.hypot(err[:, 0], err[:, 1]).max() > harness.DIVERGENCE_THRESHOLD)
            assert scores.diverged[i] == fm.diverged == diverged, where


def test_score_seeds_counts_a_failed_lane_as_divergent():
    zero = np.zeros((11, 3, 3))
    scores = harness.score_seeds(zero, zero, [None, 4, None])
    assert scores.diverged.tolist() == [False, True, False]
    assert _bits(scores.rmse_full) == _bits(np.zeros((3, 3)))


def test_run_experiment_report_contents():
    tr, report = run_experiment(parse_config(PAPER_CFG))
    assert set(report.per_filter) == {"is-ekf", "ekf", "lsigma-ekf"}
    assert report.windows == [(150, 200), (350, 400), (450, 500), (550, 600)]
    assert report.per_filter["ekf"].diverged
    assert not report.per_filter["is-ekf"].diverged
    for fm in report.per_filter.values():
        assert fm.step_seconds > 0.0
    text = report.text()
    assert "rmse full" in text and "us/step" in text


def test_benchmark_rmse_ordering():
    _, report = run_experiment(parse_config(PAPER_CFG))
    pos = {lbl: np.hypot(*fm.rmse_full[:2]) for lbl, fm in report.per_filter.items()}
    assert pos["is-ekf"] < pos["lsigma-ekf"] < pos["ekf"]


def test_no_outlier_nominal_run_filters_agree():
    # benign conditions: no outliers, no initial offset, heading bound gain
    # tuned so the clip level sits above the nominal innovation scale; the
    # three filters then track within a few percent of each other
    from isekf.saturation import BoundParams
    from isekf.scenario import FilterSpec
    from conftest import robot_filter_p0
    bp = BoundParams(lambda1=[0.5, 0.5, 0.5], lambda2=[0.1, 0.1, 0.1],
                     gamma1=[100.0, 100.0, 50.0], gamma2=[9.0, 9.0, 9.0],
                     sigma0=[25.0, 25.0, 25.0], epsilon0=[1.0, 1.0, 1.0], mode="dt")
    P0 = robot_filter_p0()
    cfg = benchmark_config(
        schedule=None,
        initial_guess_offset=np.zeros(3),
        filters=[FilterSpec("is-ekf", P0=P0, bound_params=bp),
                 FilterSpec("ekf", P0=P0),
                 FilterSpec("lsigma-ekf", P0=P0, ell=3.0)],
    )
    tr = simulate(cfg, 4)
    rp = {lbl: np.sqrt((np.hypot(tr.error(lbl)[:, 0], tr.error(lbl)[:, 1])**2).mean())
          for lbl in tr.labels()}
    lo, hi = min(rp.values()), max(rp.values())
    assert hi <= 1.05 * lo, rp


def test_run_experiment_horizon_zero(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, minimal_cfg_dict(horizon=0)))
    tr, report = run_experiment(cfg)
    assert tr.horizon == 0
    assert report.windows == []


# ---------------------------------------------------------------------------
# export

def test_csv_row_count_and_determinism(tmp_path):
    cfg = parse_config(PAPER_CFG)
    trace, _ = run_experiment(cfg)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    export_csv(trace, str(p1))
    export_csv(trace, str(p2))
    lines = p1.read_text().splitlines()
    assert len(lines) == 702
    header = lines[0].split(",")
    assert header[:2] == ["k", "t"]
    assert "is_ekf_sig_theta" in header
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_empty_trace(tmp_path, monkeypatch):
    trace = simulate(benchmark_config(horizon=4), 1)
    # truncate to an empty trace
    import dataclasses
    empty = dataclasses.replace(
        trace, k=trace.k[:0], t=trace.t[:0], truth=trace.truth[:0], u=trace.u[:0],
        d=trace.d[:0], y=trace.y[:0],
        estimates={k: v[:0] for k, v in trace.estimates.items()},
        sqrt_sigma={k: v[:0] for k, v in trace.sqrt_sigma.items()})
    path = tmp_path / "empty.csv"
    export_csv(empty, str(path))
    assert len(path.read_text().splitlines()) == 1
    assert_export_matches_oracle(empty, tmp_path, monkeypatch, plots=False)


def test_render_plots_files_and_shading(tmp_path):
    trace, _ = run_experiment(parse_config(PAPER_CFG))
    files = render_plots(trace, str(tmp_path))
    assert len(files) == 7
    names = {os.path.basename(f) for f in files}
    assert names == {"measurement_px.svg", "measurement_py.svg", "measurement_theta.svg",
                     "state_px.svg", "state_py.svg", "state_theta.svg", "trajectory.svg"}
    svg = open(files[0]).read()
    # four shaded stage windows
    assert svg.count('fill-opacity="0.6"') == 4
    # deterministic re-render
    files2 = render_plots(trace, str(tmp_path / "again"))
    assert open(files[0], "rb").read() == open(files2[0], "rb").read()


def test_plot_shades_match_schedule_seconds(tmp_path):
    trace, _ = run_experiment(parse_config(PAPER_CFG))
    files = render_plots(trace, str(tmp_path))
    svg = open(files[0]).read()
    # x-pixel mapping of the chart: recover shade positions and compare
    # against the stage boundaries converted to seconds
    import re
    shades = re.findall(r'<rect x="([0-9.]+)" y="36" width="([0-9.]+)" height="\d+" '
                        r'fill="#d0d0d0"', svg)
    assert len(shades) == 4
    t = trace.t
    x0, x1 = t.min(), t.max()
    mx = 0.05 * (x1 - x0)
    lo_ax, hi_ax = x0 - mx, x1 + mx
    pw = 820 - 70 - 20
    for (x_str, w_str), (k_lo, k_hi) in zip(shades, trace.schedule.active_ranges()):
        t_lo, t_hi = k_lo * trace.T, k_hi * trace.T
        expect_x = 70 + (t_lo - lo_ax) / (hi_ax - lo_ax) * pw
        expect_w = (t_hi - t_lo) / (hi_ax - lo_ax) * pw
        assert float(x_str) == pytest.approx(expect_x, abs=0.01)
        assert float(w_str) == pytest.approx(expect_w, abs=0.01)


# ---------------------------------------------------------------------------
# CLI

def test_cli_run(tmp_path, capsys):
    out = tmp_path / "runout"
    code = cli_main(["run", PAPER_CFG, "--seed", "2", "--out", str(out)])
    assert code == 0
    assert (out / "trace.csv").exists()
    assert (out / "trajectory.svg").exists()
    assert (out / "metrics.txt").exists()
    assert "rmse full" in capsys.readouterr().out


def test_cli_run_prints_the_metrics_it_writes(tmp_path, capsys, monkeypatch):
    # the report is formatted once, for metrics.txt and stdout alike
    calls = []
    text = harness.MetricsReport.text

    def counted(self):
        calls.append(self)
        return text(self)

    monkeypatch.setattr(harness.MetricsReport, "text", counted)
    out = tmp_path / "runout"
    assert cli_main(["run", PAPER_CFG, "--seed", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert len(calls) == 1
    assert printed.startswith((out / "metrics.txt").read_text())
    assert printed.count("\n") == (out / "metrics.txt").read_text().count("\n") + 1


def test_cli_run_filter_subset(tmp_path):
    out = tmp_path / "sub"
    code = cli_main(["run", PAPER_CFG, "--seed", "2", "--out", str(out),
                     "--filters", "ekf", "--ell", "2.5"])
    assert code == 0
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert "ekf_px" in header and "is_ekf_px" not in header


@pytest.mark.parametrize("ell", ["-1", "0", "nan"])
def test_cli_run_rejects_an_ell_that_is_not_positive(tmp_path, capsys, ell):
    out = tmp_path / "gated"
    code = cli_main(["run", PAPER_CFG, "--seed", "2", "--out", str(out),
                     "--filters", "lsigma-ekf", "--ell", ell])
    assert code == 1
    assert "--ell must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_rejects_a_bad_ell_without_a_gated_filter(tmp_path, capsys):
    out = tmp_path / "plain"
    code = cli_main(["run", PAPER_CFG, "--out", str(out), "--filters", "ekf", "--ell", "0"])
    assert code == 1
    assert "--ell must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_rejects_filters_not_in_the_config(tmp_path, capsys):
    out = tmp_path / "unknown"
    assert cli_main(["run", PAPER_CFG, "--out", str(out), "--filters", "ekf,ukf"]) == 1
    assert "--filters names not in config: ['ukf']" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_builds_its_overrides_as_new_objects(tmp_path, monkeypatch):
    parsed = parse_config(PAPER_CFG)
    filters = parsed.scenario.filters
    seen = []
    monkeypatch.setattr(harness, "parse_config", lambda path: parsed)
    monkeypatch.setattr(harness, "run_experiment",
                        lambda cfg: seen.append(cfg) or run_experiment(cfg))
    out = str(tmp_path / "over")
    assert cli_main(["run", PAPER_CFG, "--seed", "5", "--out", out]) == 0
    assert cli_main(["run", PAPER_CFG, "--filters", "ekf,lsigma-ekf", "--ell", "2.5",
                     "--out", out]) == 0
    plain, gated = seen
    # --seed and --out alone leave the scenario as parsed
    assert (plain.seed, plain.output.dir, gated.seed) == (5, out, 1)
    assert plain.scenario is parsed.scenario
    assert [(s.label, s.ell) for s in gated.scenario.filters] == [
        ("ekf", 3.0), ("lsigma-ekf", 2.5)]
    assert gated.scenario.filters[0] is filters[1]
    # the parsed objects are unchanged
    assert parsed.output.dir == "out" and parsed.scenario.filters is filters
    assert [s.ell for s in filters] == [3.0, 3.0, 3.0]


def _checked_objects():
    """One instance of each frozen class whose constructor checks its fields."""
    cfg = parse_config(PAPER_CFG)
    return [cfg, cfg.output, cfg.scenario, cfg.scenario.filters[0],
            robot_model(cfg.scenario.T, cfg.scenario.Q, cfg.scenario.R),
            stability.LinearSystem(A=[[-1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]],
                                   mode="continuous"),
            stability.CertificateCandidate(W=[[1.0]], U=[[1.0]], alpha=0.1, Gamma2=[[1.0]],
                                           P0=[[0.01]]),
            cfg.scenario.input_profile, harness.certify_from_config(LINEAR_CFG)]


@pytest.mark.parametrize("cls", ["ExperimentConfig", "OutputConfig", "ScenarioConfig",
                                 "FilterSpec", "NonlinearModel", "LinearSystem",
                                 "CertificateCandidate", "InputProfile", "StabilityCertificate"])
def test_every_field_of_a_checked_object_is_read_only(cls):
    (obj,) = [obj for obj in _checked_objects() if type(obj).__name__ == cls]
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


def test_an_object_holding_arrays_equals_only_itself():
    # eq=False: the generated == compared the arrays, whose truth value is
    # ambiguous, and the generated hash of a frozen one raised TypeError
    cfg = parse_config(PAPER_CFG).scenario
    assert cfg == cfg and not cfg == dataclasses.replace(cfg)
    params = cfg.filters[0].bound_params
    assert hash(params) == hash(params) and params in {params}
    assert dataclasses.replace(params) != params


def test_cli_certify(capsys):
    code = cli_main(["certify", LINEAR_CFG])
    assert code == 0
    out = capsys.readouterr().out
    assert "asymptotic bound" in out
    assert "checkpoint min eigenvalues" in out


def test_cli_certify_flag_form(capsys):
    assert cli_main(["certify", "--config", LINEAR_CFG]) == 0


LINEAR_CERTIFICATE = """\
certificate mode=discrete variant=theorem (trajectory-sampled)
alpha = 0.2   mu = 0.5   rho = 0.018394
c1 = 2.26636   c3 = 0.882782
asymptotic bound = 1.82025
P_inf =
[[1.13278222]]
W diag = [0.3]
U =
[[2.]]
Gamma2 diag = [0.2]
checkpoint min eigenvalues:
  at 0: 9.729e-02
  at 1: 9.729e-02
"""


def test_a_changed_system_is_tested_for_regularity_again():
    sys_ = stability.LinearSystem(A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]],
                                  mode="discrete")
    stability.assert_regular(sys_)
    with pytest.raises(ValueError, match="read-only"):
        sys_.C[0, 0] = 0.0
    sys_ = dataclasses.replace(sys_, A=[[2.0]], C=[[0.0]])
    with pytest.raises(CertificationFailure, match="not detectable"):
        stability.assert_regular(sys_)


def _isekf_env() -> dict:
    """The environment of a fresh interpreter that imports this isekf."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _run_python(code: str) -> str:
    """stdout of code run by a fresh interpreter that imports this isekf."""
    done = subprocess.run([sys.executable, "-c", code], env=_isekf_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("argv", [["certify", LINEAR_CFG], ["sweep", PAPER_CFG, "--seeds", "2"]],
                         ids=["certify", "sweep"])
def test_a_closed_stdout_ends_the_cli_quietly(tmp_path, argv):
    # the pipe's reader is gone before the command writes, as after
    # `| head -1` but without the race of head's exit: the write or the
    # flush fails with EPIPE, and the command ends with code 1 and no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "isekf.harness", *argv], env=_isekf_env(),
                              cwd=tmp_path, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_run_and_discrete_certify_load_no_scipy(tmp_path):
    out = _run_python(f"""
import sys
import isekf.harness
from isekf.harness import cli_main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert scipy_modules() == [], scipy_modules()
assert cli_main(["run", {PAPER_CFG!r}, "--out", {str(tmp_path / "out")!r}]) == 0
assert cli_main(["certify", {LINEAR_CFG!r}]) == 0
assert scipy_modules() == [], scipy_modules()
""")
    assert out.endswith(LINEAR_CERTIFICATE)


def _distribution(name: str) -> str:
    """A distribution name in its normalized form (PEP 503)."""
    return re.sub(r"[-_.]+", "-", name).lower()


def test_commands_load_only_the_declared_runtime_dependencies(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(PKG_ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {_distribution(re.match(r"[A-Za-z0-9._-]+", dep).group())
                for dep in project["dependencies"]}
    ct_cfg = _criterion_5_cfg(tmp_path, [[0.01]], "ct.cfg")
    # the top-level modules that importing isekf and the four commands load
    loaded = json.loads(_run_python(f"""
import contextlib, io, json, sys
before = set(sys.modules)
from isekf.harness import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_main(["run", {PAPER_CFG!r}, "--out", {str(tmp_path / "out")!r}]) == 0
    assert cli_main(["sweep", {PAPER_CFG!r}, "--seeds", "2"]) == 0
    assert cli_main(["certify", {LINEAR_CFG!r}]) == 0
    assert cli_main(["certify", {ct_cfg!r}]) == 0
print(json.dumps(sorted({{m.partition(".")[0] for m in set(sys.modules) - before}})))
"""))
    assert {"isekf", "numpy", "yaml"} <= set(loaded)
    # third party is what an installed distribution provides; the standard
    # library and synthetic modules (the runtime module of Cython
    # extensions) belong to none
    owners = importlib.metadata.packages_distributions()
    undeclared = {module: sorted(owners[module]) for module in loaded
                  if module != "isekf" and module in owners
                  and not {_distribution(d) for d in owners[module]} & declared}
    assert undeclared == {}, f"loaded outside {sorted(declared)}: {undeclared}"


CONTINUOUS_CERTIFICATE = """\
certificate mode=continuous variant=theorem (trajectory-sampled)
alpha = 0.5   mu = 0.3   rho = 0.0367879
c1 = 3   c3 = 2.41421
asymptotic bound = 0.504134
P_inf =
[[0.41421356]]
W diag = [1.]
U =
[[2.]]
Gamma2 diag = [1.]
checkpoint min eigenvalues:
  at 0: 9.998e-01
  at 0.207107: 9.292e-01
  at 0.414214: 7.934e-01
  at 0.62132: 6.608e-01
  at 0.828427: 5.635e-01
  at 1.03553: 5.017e-01
  at 1.24264: 4.651e-01
  at 1.65685: 4.321e-01
  at 2.48528: 4.184e-01
  at 2.48528: 4.169e-01
"""


# the same observer certified from its Riccati fixed point (P0: fixed_point,
# solved by solve_care): the sweep is the fixed point twice
FIXED_POINT_CERTIFICATE = CONTINUOUS_CERTIFICATE.split("  at 0:")[0] + """\
  at 0: 4.169e-01
  at 0: 4.169e-01
"""


def _criterion_5_cfg(tmp_path, P0, name):
    """The scalar observer of acceptance criterion 5, certified from P0."""
    return write_cfg(tmp_path, {
        "system": {"mode": "continuous", "A": [[-1.0]], "C": [[1.0]], "Q": [[1.0]],
                   "R": [[1.0]], "D": [[1.0]]},
        "certificate": {"W": [1.0], "U": [[2.0]], "alpha": 0.5, "P0": P0},
        "bounds": {"lambda1": [-1.0], "lambda2": [-1.0], "gamma1": [0.1], "gamma2": [1.0],
                   "sigma0": [0.5], "epsilon0": [0.5], "mu": 0.3, "variant": "theorem"},
    }, name=name)


def test_continuous_certify_loads_no_scipy(tmp_path):
    # the Riccati flow from P0 = 0.01 (the Pade expm, then the Newton-Kleinman
    # refinement of its fixed point), and solve_care for P0: fixed_point
    flow_cfg = _criterion_5_cfg(tmp_path, [[0.01]], "flow.cfg")
    fixed_cfg = _criterion_5_cfg(tmp_path, "fixed_point", "fixed.cfg")
    out = _run_python(f"""
import sys
from isekf.harness import cli_main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert cli_main(["certify", {flow_cfg!r}]) == 0
print("--")
assert cli_main(["certify", {fixed_cfg!r}]) == 0
assert scipy_modules() == [], scipy_modules()
""")
    flow_out, fixed_out = out.split("--\n")
    assert flow_out == CONTINUOUS_CERTIFICATE
    assert fixed_out == FIXED_POINT_CERTIFICATE


@pytest.mark.parametrize("section, key, value", [
    ("system", "A", [[float("nan")]]),
    ("system", "R", [[float("inf")]]),
    ("certificate", "U", [[float("nan")]]),
], ids=["nan-A", "inf-R", "nan-U"])
def test_cli_certify_rejects_non_finite_matrices(tmp_path, capsys, section, key, value):
    data = harness.load_yaml(LINEAR_CFG)
    data[section][key] = value
    assert cli_main(["certify", write_cfg(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {section}: {key} must be finite\n"


@pytest.mark.parametrize("edits, message", [
    ({"certificate": {"U": [[2.0, 0.0], [0.0, 2.0]]}},
     "U must be 1x1 for this system, got (2, 2)"),
    ({"certificate": {"W": [0.3, 0.3]}}, "W must be 1x1 for this system, got (2, 2)"),
    ({"certificate": {"P0": [[1.0, 0.0]]}}, "certificate: P0 must be square, got shape (1, 2)"),
    ({"certificate": {"P0": [[1.0, 0.0], [0.0, 1.0]]}},
     "P0 must be 1x1 for this system, got (2, 2)"),
    ({"bounds": {"mu": float("inf")}}, "mu must be finite and nonnegative"),
    ({"system": {"A": [[0.5, 0.0], [0.0, 0.5]], "C": [[1.0, 0.0]],
                 "Q": [[1.0, 0.5], [0.0, 1.0]]}}, "system: Q must be symmetric"),
    ({"bounds": {"lambda1": [1.5]}}, "bounds: dt mode requires 0 < lambda1 < 1 per channel"),
], ids=["U-2x2", "W-2", "P0-1x2", "P0-2x2", "mu-inf", "asymmetric-Q", "lambda1-out-of-range"])
def test_cli_certify_names_a_bad_input(tmp_path, capsys, edits, message):
    data = harness.load_yaml(LINEAR_CFG)
    for section, values in edits.items():
        data[section].update(values)
    assert cli_main(["certify", write_cfg(tmp_path, data)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_missing_config_path():
    assert cli_main(["run"]) == 2


def test_cli_unknown_subcommand():
    assert cli_main(["frobnicate"]) == 2


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario:\n  horizon: -5\n")
    assert cli_main(["run", str(bad)]) == 1


def test_cli_sweep(tmp_path, capsys):
    code = cli_main(["sweep", PAPER_CFG, "--seeds", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "aggregate over seeds 1..2" in out
    assert "is-ekf" in out


def test_sweep_stdout_does_not_depend_on_the_batch_size(capsys, monkeypatch):
    # one batch of 5 seeds, then batches of 2, 2 and 1, each scored in one pass
    assert cli_main(["sweep", PAPER_CFG, "--seeds", "5"]) == 0
    one_batch = capsys.readouterr().out
    monkeypatch.setattr(harness, "SWEEP_BATCH", 2)
    assert cli_main(["sweep", PAPER_CFG, "--seeds", "5"]) == 0
    assert capsys.readouterr().out == one_batch
    assert "divergent=5/5" in one_batch


def test_cli_sweep_out_writes_the_run_csv(tmp_path, capsys, monkeypatch):
    # sweep simulates its seeds in batches, here of 2 (seeds 1-2, then 3);
    # each seed's trace.csv must be the one `run` writes for that seed alone
    monkeypatch.setattr(harness, "SWEEP_BATCH", 2)
    assert cli_main(["sweep", PAPER_CFG, "--seeds", "3", "--out", str(tmp_path / "sweep")]) == 0
    for seed in (1, 2, 3):
        out = tmp_path / f"run{seed}"
        assert cli_main(["run", PAPER_CFG, "--seed", str(seed), "--out", str(out)]) == 0
        swept = (tmp_path / "sweep" / f"seed{seed}" / "trace.csv").read_bytes()
        assert swept == (out / "trace.csv").read_bytes(), f"seed {seed}"


# ---------------------------------------------------------------------------
# export against the per-element formatters it replaced: byte for byte

def _oracle_csv(trace, path):
    """export_csv with one repr(float(v)) per value."""
    header = ["k", "t"] + [f"truth_{s}" for s in harness.STATE_NAMES]
    header += [f"d_{i + 1}" for i in range(trace.d.shape[1])]
    header += [f"y_{s}" for s in harness.STATE_NAMES]
    for label in trace.labels():
        safe = label.replace("-", "_")
        header += [f"{safe}_{s}" for s in harness.STATE_NAMES]
        if label in trace.sqrt_sigma:
            header += [f"{safe}_sig_{s}" for s in harness.STATE_NAMES]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(trace.k)):
            row = [str(int(trace.k[i])), repr(float(trace.t[i]))]
            row += [repr(float(v)) for v in trace.truth[i]]
            row += [repr(float(v)) for v in trace.d[i]]
            row += [repr(float(v)) for v in trace.y[i]]
            for label in trace.labels():
                row += [repr(float(v)) for v in trace.estimates[label][i]]
                if label in trace.sqrt_sigma:
                    row += [repr(float(v)) for v in trace.sqrt_sigma[label][i]]
            fh.write(",".join(row) + "\n")


def _oracle_points(chart, xs, ys):
    """Polyline points with px/py and _fmt applied to one scalar at a time."""
    x0, x1, y0, y1 = chart._limits()
    pw = svgplot.WIDTH - svgplot.MARGIN_L - svgplot.MARGIN_R
    ph = svgplot.HEIGHT - svgplot.MARGIN_T - svgplot.MARGIN_B

    def px(x):
        return svgplot.MARGIN_L + (x - x0) / (x1 - x0) * pw

    def py(y):
        return svgplot.MARGIN_T + (y1 - y) / (y1 - y0) * ph

    return " ".join(f"{svgplot._fmt(px(a))},{svgplot._fmt(py(b))}" for a, b in zip(xs, ys))


_RENDER = svgplot.LineChart.render


def _oracle_render(chart):
    """LineChart.render with each polyline's points made by _oracle_points."""
    points = iter([_oracle_points(chart, xs, ys) for _, _, xs, ys in chart.series])
    lines = _RENDER(chart).split("\n")
    head = '<polyline points="'
    for i, line in enumerate(lines):
        if line.startswith(head):
            lines[i] = head + next(points) + line[line.index('" fill="none"'):]
    assert next(points, None) is None
    return "\n".join(lines)


def assert_export_matches_oracle(trace, tmp_path, monkeypatch, plots=True):
    new, old = tmp_path / "new", tmp_path / "oracle"
    new.mkdir(parents=True)
    old.mkdir()
    export_csv(trace, str(new / "trace.csv"))
    _oracle_csv(trace, str(old / "trace.csv"))
    if plots:
        render_plots(trace, str(new))
        with monkeypatch.context() as m:
            m.setattr(svgplot.LineChart, "render", _oracle_render)
            render_plots(trace, str(old))
    names = sorted(os.listdir(old))
    assert names == sorted(os.listdir(new)) and len(names) == (8 if plots else 1)
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


@pytest.fixture(scope="module")
def paper_traces():
    scenario = parse_config(PAPER_CFG).scenario
    return dict(zip([1, 7, 1001], simulate_seeds(scenario, [1, 7, 1001])))


@pytest.mark.parametrize("seed", [1, 7, 1001])
def test_export_matches_the_per_element_oracle_on_paper_cfg(paper_traces, seed, tmp_path,
                                                              monkeypatch):
    assert_export_matches_oracle(paper_traces[seed], tmp_path, monkeypatch)


def test_export_matches_the_per_element_oracle_with_ekf_only(tmp_path, monkeypatch):
    # no saturated filter: no _sig_ columns
    scenario = parse_config(PAPER_CFG).scenario
    scenario = dataclasses.replace(scenario,
                                   filters=[s for s in scenario.filters if s.kind == "ekf"])
    trace = simulate(scenario, 2)
    assert "ekf" in trace.estimates and not trace.sqrt_sigma
    assert_export_matches_oracle(trace, tmp_path, monkeypatch)


def test_export_matches_the_per_element_oracle_with_a_failed_filter(tmp_path, monkeypatch):
    huge = OutlierSegment(50, 60, "constant", value=[1e200, 1e200])
    cfg = benchmark_config(horizon=80, schedule=OutlierSchedule((huge,), D=paper_schedule().D))
    trace = simulate(cfg, 1)
    assert trace.failed_at["is-ekf"] == 51
    assert_export_matches_oracle(trace, tmp_path, monkeypatch)


SPECIAL = [-0.0, 1e-300, 1e16, float("nan"), float("inf")]


def test_export_matches_the_per_element_oracle_on_special_values(tmp_path, monkeypatch):
    trace = simulate(benchmark_config(horizon=4), 1)
    trace.estimates["ekf"][:, 0] = SPECIAL
    trace.sqrt_sigma["is-ekf"][:, 2] = SPECIAL[::-1]
    assert_export_matches_oracle(trace, tmp_path / "csv", monkeypatch, plots=False)
    # a chart cannot scale an axis to nan or inf; the finite ones plot
    trace.estimates["ekf"][:, 0] = [-0.0, 1e-300, 1e16, -1e16, 5e-324]
    assert_export_matches_oracle(trace, tmp_path / "svg", monkeypatch)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_series_is_named_in_the_error(bad):
    chart = svgplot.LineChart("state px", "t [s]", "px [m]")
    chart.add_series("truth", [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    with pytest.raises(InputDomainError, match="chart 'state px': series 'ekf' is not finite"):
        chart.add_series("ekf", [0.0, 1.0, 2.0], [0.0, bad, 1.0])
    with pytest.raises(InputDomainError, match="series 'ekf'"):
        chart.add_series("ekf", [0.0, bad, 2.0], [0.0, 1.0, 1.0])
    assert chart.render().count("<polyline") == 1


def test_polyline_points_match_fmt_on_special_values():
    X = np.array(SPECIAL + [-float("inf"), 123456.5, -1e-5])
    Y = X[::-1].copy()
    expected = " ".join(f"{svgplot._fmt(a)},{svgplot._fmt(b)}" for a, b in zip(X, Y))
    assert svgplot._points(X, Y) == expected
    assert svgplot._points(X[:0], Y[:0]) == ""


# ---------------------------------------------------------------------------
# entry rejections that no run reaches, each with its type and message

def _certify_without_A(tmp_path):
    data = harness.load_yaml(LINEAR_CFG)
    del data["system"]["A"]
    return harness.certify_from_config(write_cfg(tmp_path, data))


def _parse_with(tmp_path, section, key, value):
    data = minimal_cfg_dict()
    data[section][key] = value
    return parse_config(write_cfg(tmp_path, data))


def _certify_with(tmp_path, section, key, value):
    data = harness.load_yaml(LINEAR_CFG)
    data[section][key] = value
    return harness.certify_from_config(write_cfg(tmp_path, data))


def _parse_paper_text(tmp_path, old, new):
    """parse_config of paper.cfg's text with old replaced by new."""
    with open(PAPER_CFG, encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    path = tmp_path / "edited.cfg"
    path.write_text(text.replace(old, new))
    return parse_config(str(path))


def _parse_list_root(tmp_path):
    path = tmp_path / "list.cfg"
    path.write_text("- scenario\n- filters\n")
    return parse_config(str(path))


def _plot_empty_trace(tmp_path):
    trace = simulate(benchmark_config(horizon=5), 1)
    return render_plots(dataclasses.replace(trace, k=trace.k[:0]), str(tmp_path / "plots"))


@pytest.mark.parametrize("call, error, message", [
    (_certify_without_A, ConfigurationError, "system.A is required"),
    (lambda tmp_path: _parse_with(tmp_path, "filters", "ekf", {"P0": [1.0, 2.0]}),
     ConfigurationError, "filters.ekf.P0: must be a list of 3 numbers"),
    (lambda tmp_path: _parse_with(tmp_path, "scenario", "outliers", 5), ConfigurationError,
     "scenario.outliers must be 'paper', 'none' or a list"),
    (_parse_list_root, ConfigurationError, "config root of {path} must be a mapping"),
    (_plot_empty_trace, ConfigurationError, "cannot plot an empty trace"),
    (lambda tmp_path: svgplot.LineChart("empty", "x", "y").render(), ValueError,
     "chart has no series"),
    # a YAML boolean where a number is read
    (lambda tmp_path: _parse_with(tmp_path, "scenario", "T", True), ConfigurationError,
     "scenario.T: must be a number, got True"),
    (lambda tmp_path: _parse_with(tmp_path, "scenario", "meas_std", [True, True, 0.008]),
     ConfigurationError, "scenario.meas_std: must hold numbers, got [True, True, 0.008]"),
    (lambda tmp_path: _parse_paper_text(tmp_path, "ell: 3.0", "ell: yes"), ConfigurationError,
     "filters.lsigma-ekf.ell: must be a number, got True"),
    (lambda tmp_path: _certify_with(tmp_path, "certificate", "alpha", True), ConfigurationError,
     "certificate.alpha: must be a number, got True"),
    (lambda tmp_path: _certify_with(tmp_path, "system", "A", [[False]]), ConfigurationError,
     "system.A: must hold numbers, got [[False]]"),
], ids=["required-key", "P0-length", "outliers-int", "list-root", "empty-trace", "no-series",
        "T-bool", "meas_std-bool", "ell-yes", "alpha-bool", "A-bool"])
def test_an_entry_rejection_names_its_cause(tmp_path, call, error, message):
    message = message.format(path=tmp_path / "list.cfg")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)
