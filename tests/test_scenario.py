import dataclasses
import logging
import math
import os
import re
import warnings

import numpy as np
import pytest

from conftest import benchmark_config, paper_bound_params, robot_filter_p0
from isekf import filters
from isekf.errors import ConfigurationError, NumericalFailure
from isekf.filters import FilterState, dt_isekf_step, ekf_step, sigma_gate_step
from isekf.harness import DEFAULT_BOUND, metrics_report, parse_config
from isekf.saturation import BoundParams
from isekf.scenario import (
    FilterSpec,
    InputProfile,
    OutlierSchedule,
    OutlierSegment,
    RobotInput,
    RobotState,
    ScenarioConfig,
    measure,
    outlier_at,
    paper_schedule,
    robot_model,
    robot_step,
    simulate,
    simulate_seeds,
)

PAPER_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "paper.cfg")


def test_robot_step_straight():
    out = robot_step(RobotState(0.0, 0.0, 0.0), RobotInput(1.0, 0.0), 0.1)
    assert (out.p_x, out.p_y, out.theta) == pytest.approx((0.1, 0.0, 0.0))


def test_robot_step_sideways():
    out = robot_step(RobotState(0.0, 0.0, math.pi / 2), RobotInput(2.0, 0.0), 0.1)
    assert out.p_y == pytest.approx(0.2)
    assert out.p_x == pytest.approx(0.0, abs=1e-15)


def test_robot_step_wrap_boundary():
    out = robot_step(RobotState(0.0, 0.0, 0.0), RobotInput(0.0, math.pi / 0.1), 0.1)
    assert out.theta == pytest.approx(math.pi)


def test_robot_step_requires_positive_period():
    with pytest.raises(ConfigurationError):
        robot_step(RobotState(0.0, 0.0, 0.0), RobotInput(1.0, 0.0), 0.0)


def test_outlier_schedule_stages(rng):
    sched = paper_schedule()
    np.testing.assert_array_equal(outlier_at(sched, 100, rng), [0.0, 0.0])
    np.testing.assert_array_equal(outlier_at(sched, 175, rng), [5.0, 1.0])
    np.testing.assert_array_equal(outlier_at(sched, 475, rng), [100.0, 50.0])
    # boundaries are half-open (k_lo, k_hi]
    np.testing.assert_array_equal(outlier_at(sched, 150, rng), [0.0, 0.0])
    assert np.any(outlier_at(sched, 151, rng) != 0.0) or True  # constant stage
    np.testing.assert_array_equal(outlier_at(sched, 151, rng), [5.0, 1.0])
    np.testing.assert_array_equal(outlier_at(sched, 200, rng), [5.0, 1.0])
    np.testing.assert_array_equal(outlier_at(sched, 201, rng), [0.0, 0.0])


def test_outlier_random_stages_use_rng():
    sched = paper_schedule()
    rng = np.random.default_rng(7)
    d1 = outlier_at(sched, 375, rng)
    d2 = outlier_at(sched, 375, rng)
    assert np.all(d1 >= 0.0) and np.all(d1 <= 2.0)
    assert not np.array_equal(d1, d2)
    rng2 = np.random.default_rng(7)
    np.testing.assert_array_equal(d1, outlier_at(sched, 375, rng2))


def test_overlapping_segments_rejected():
    with pytest.raises(ConfigurationError):
        OutlierSchedule(
            segments=(OutlierSegment(0, 10, "constant", value=[1.0, 0.0]),
                      OutlierSegment(5, 15, "constant", value=[1.0, 0.0])),
            D=np.zeros((3, 2)),
        )


def test_measure_noise_free_identity(rng):
    sched = OutlierSchedule(segments=(), D=np.zeros((3, 2)))
    s = RobotState(1.0, -2.0, 0.3)
    y = measure(s, sched, 10, np.zeros((3, 3)), rng)
    np.testing.assert_array_equal(y, s.as_array())


def test_measure_stage3_routing(rng):
    sched = paper_schedule()
    s = RobotState(1.0, 2.0, 0.25)
    y = measure(s, sched, 475, np.zeros((3, 3)), rng)
    assert y[0] == pytest.approx(101.0)
    assert y[1] == pytest.approx(2.0)
    assert y[2] == pytest.approx(50.25)


def test_measure_deterministic():
    sched = paper_schedule()
    s = RobotState(0.0, 0.0, 0.0)
    R = np.diag([0.25, 0.25, 1e-4])
    a = measure(s, sched, 3, R, np.random.default_rng(5))
    b = measure(s, sched, 3, R, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_measure_noise_covariance(rng):
    sched = OutlierSchedule(segments=(), D=np.zeros((3, 2)))
    R = np.diag([0.25, 0.16, 4e-4])
    s = RobotState(0.0, 0.0, 0.0)
    draws = np.array([measure(s, sched, k, R, rng) for k in range(100000)])
    cov = np.cov(draws.T)
    assert np.linalg.norm(cov - R) <= 0.05 * np.linalg.norm(R)


def test_simulate_deterministic():
    cfg = benchmark_config()
    tr1 = simulate(cfg, 1)
    tr2 = simulate(benchmark_config(), 1)
    np.testing.assert_array_equal(tr1.truth, tr2.truth)
    np.testing.assert_array_equal(tr1.y, tr2.y)
    for lbl in tr1.labels():
        np.testing.assert_array_equal(tr1.estimates[lbl], tr2.estimates[lbl])


def test_simulate_different_seeds_differ():
    tr1 = simulate(benchmark_config(), 1)
    tr2 = simulate(benchmark_config(), 2)
    assert not np.array_equal(tr1.y, tr2.y)


def test_outlier_bookkeeping_count():
    tr = simulate(benchmark_config(), 3)
    active = np.any(tr.d != 0.0, axis=1)
    assert active.sum() == 200
    expected = np.zeros(len(tr.k), dtype=bool)
    for lo, hi in tr.schedule.active_ranges():
        expected[lo + 1:hi + 1] = True
    np.testing.assert_array_equal(active, expected)


def test_simulate_zero_noise_perfect_guess_gives_zero_error():
    bp = paper_bound_params()
    cfg = ScenarioConfig(
        horizon=120,
        process_std=np.zeros(3),
        meas_std=np.zeros(3),
        filter_meas_std=np.array([0.5, 0.5, 0.008]),
        filter_process_std=np.array([0.005, 0.005, 0.0005]),
        schedule=None,
        initial_guess_offset=np.zeros(3),
        filters=[FilterSpec("is-ekf", P0=robot_filter_p0(), bound_params=bp)],
    )
    tr = simulate(cfg, 11)
    # noiseless world, exact model, perfect start: the innovation is zero
    # at every step and the estimate reproduces the truth exactly
    assert np.abs(tr.error("is-ekf")).max() < 1e-13


def test_simulate_row_count_and_time_axis():
    cfg = benchmark_config(horizon=50)
    tr = simulate(cfg, 1)
    assert len(tr.k) == 51
    assert tr.t[-1] == pytest.approx(5.0)


def test_simulate_horizon_zero():
    tr = simulate(benchmark_config(horizon=0), 1)
    assert len(tr.k) == 1
    assert tr.horizon == 0


def test_ekf_fails_where_saturated_filter_holds():
    tr = simulate(benchmark_config(), 5)
    e_ekf = tr.error("ekf")
    e_is = tr.error("is-ekf")
    stage3 = np.arange(451, 501)
    assert np.abs(e_ekf[stage3, 0]).max() > 10.0
    assert np.abs(e_is[stage3, 0]).max() < 1.0


def test_duplicate_filter_labels_rejected():
    P0 = robot_filter_p0()
    with pytest.raises(ConfigurationError):
        cfg = benchmark_config(filters=[FilterSpec("ekf", P0=P0, label="same"),
                                        FilterSpec("lsigma-ekf", P0=P0, label="same")])
        simulate(cfg, 1)


def test_sqrt_sigma_recorded_only_for_saturated_filters():
    tr = simulate(benchmark_config(horizon=20), 1)
    assert "is-ekf" in tr.sqrt_sigma
    assert "ekf" not in tr.sqrt_sigma
    assert np.all(tr.sqrt_sigma["is-ekf"][0] == np.sqrt([25.0, 25.0, 0.25]))


def test_filter_failure_is_contained_and_logged(caplog):
    # a finite outlier whose square overflows is-ekf's bound recursion
    huge = OutlierSegment(50, 60, "constant", value=[1e200, 1e200])
    cfg = benchmark_config(horizon=80, schedule=OutlierSchedule((huge,), D=paper_schedule().D))
    with caplog.at_level(logging.WARNING, logger="isekf"), np.errstate(over="ignore"):
        tr = simulate(cfg, 1)
    assert tr.failed_at == {"is-ekf": 51, "ekf": None, "lsigma-ekf": None}
    np.testing.assert_array_equal(tr.estimates["is-ekf"][51:], tr.estimates["is-ekf"][50:-1])
    assert np.all(np.isfinite(tr.estimates["lsigma-ekf"]))
    warnings = [r for r in caplog.records if r.name == "isekf" and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "is-ekf" in message and "step 51" in message and "overflow" in message


def test_non_finite_innovation_covariance_fails_only_that_filter(caplog):
    # a valid P0 whose symmetrized prediction overflows: S is not finite
    P0 = robot_filter_p0()
    with caplog.at_level(logging.WARNING, logger="isekf"), np.errstate(all="ignore"):
        cfg = benchmark_config(horizon=80, filters=[
            FilterSpec("is-ekf", P0=P0, bound_params=paper_bound_params()),
            FilterSpec("ekf", P0=np.diag([1e308, 1e308, 5e-5])),
            FilterSpec("lsigma-ekf", P0=P0, ell=3.0),
        ])
        tr = simulate(cfg, 1)
    assert tr.failed_at == {"is-ekf": None, "ekf": 1, "lsigma-ekf": None}
    assert np.all(np.isfinite(tr.estimates["is-ekf"]))
    assert np.all(np.isfinite(tr.estimates["lsigma-ekf"]))
    warnings = [r for r in caplog.records if r.name == "isekf" and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "ekf" in warnings[0].getMessage() and "step 1" in warnings[0].getMessage()


# the public FilterState step of each filter kind: step(model, spec, state, y, u)
PUBLIC_STEPS = {
    "is-ekf": lambda model, spec, st, y, u: dt_isekf_step(model, st, y, spec.bound_params, u=u),
    "ekf": lambda model, spec, st, y, u: ekf_step(model, st, y, u=u),
    "lsigma-ekf": lambda model, spec, st, y, u: sigma_gate_step(model, st, y, ell=spec.ell, u=u),
}


def _replay(cfg, tr):
    """Every filter of cfg replayed through its public step on the trace's
    measurements and inputs: (estimates, sqrt_sigma, failed_at, reasons),
    reasons holding each failed filter's NumericalFailure message."""
    model = robot_model(cfg.T, cfg.Q_filter, cfg.R_filter)
    estimates, sqrt_sigma, failed_at, reasons = {}, {}, {}, {}
    for spec in cfg.filters:
        sat = spec.bound_params.initial_state() if spec.kind == "is-ekf" else None
        st = FilterState(tr.truth[0] + cfg.initial_guess_offset, spec.P0, sat=sat)
        est, sig, failed = [st.x_hat], [], None
        for k in range(1, tr.horizon + 1):
            if failed is None:
                try:
                    st = PUBLIC_STEPS[spec.kind](model, spec, st, tr.y[k], tr.u[k - 1])
                except NumericalFailure as exc:
                    failed = k
                    reasons[spec.label] = str(exc)
            est.append(st.x_hat)
            if sat is not None:
                sig.append(np.sqrt(st.sat.sigma))
        estimates[spec.label] = np.array(est)
        if sat is not None:
            sqrt_sigma[spec.label] = np.vstack([np.sqrt(sat.sigma)] + sig)
        failed_at[spec.label] = failed
    return estimates, sqrt_sigma, failed_at, reasons


def _overflow_config():
    huge = OutlierSegment(50, 60, "constant", value=[1e200, 1e200])
    return benchmark_config(horizon=80, schedule=OutlierSchedule((huge,), D=paper_schedule().D))


def _underflow_config():
    # a persistent 1e100 outlier drives epsilon so high that sigma decays
    # geometrically; lambda1 = 0.01 underflows it to 0 at step 164
    huge = OutlierSegment(0, 200, "constant", value=[1e100, 0.0])
    P0 = robot_filter_p0()
    fast_decay = BoundParams(mode="dt", **{**DEFAULT_BOUND, "lambda1": [0.01] * 3})
    return benchmark_config(horizon=200, schedule=OutlierSchedule((huge,), D=paper_schedule().D),
                            filters=[FilterSpec("is-ekf", P0=P0, bound_params=fast_decay),
                                     FilterSpec("ekf", P0=P0),
                                     FilterSpec("lsigma-ekf", P0=P0, ell=3.0)])


def _two_saturated_config(horizon=200):
    # lanes that fail at different steps under the persistent 1e100 outlier:
    # is-ekf-fast underflows at step 164, is-ekf-slow at 193, and the ekf's
    # overflowing P0 fails it at step 1; lsigma-ekf runs through
    huge = OutlierSegment(0, 200, "constant", value=[1e100, 0.0])
    P0 = robot_filter_p0()

    def decay(lambda1):
        return BoundParams(mode="dt", **{**DEFAULT_BOUND, "lambda1": [lambda1] * 3})

    return benchmark_config(
        horizon=horizon, schedule=OutlierSchedule((huge,), D=paper_schedule().D),
        filters=[FilterSpec("is-ekf", P0=P0, bound_params=decay(0.01), label="is-ekf-fast"),
                 FilterSpec("is-ekf", P0=P0, bound_params=decay(0.02), label="is-ekf-slow"),
                 FilterSpec("ekf", P0=np.diag([1e308, 1e308, 5e-5])),
                 FilterSpec("lsigma-ekf", P0=P0, ell=3.0)])


def test_clip_level_underflow_fails_only_that_filter(caplog):
    with caplog.at_level(logging.WARNING, logger="isekf"):
        tr = simulate(_underflow_config(), 1)
    assert tr.failed_at == {"is-ekf": 164, "ekf": None, "lsigma-ekf": None}
    # the failed filter holds its last estimate and clip level
    assert np.all(tr.estimates["is-ekf"][164:] == tr.estimates["is-ekf"][163])
    assert np.all(tr.sqrt_sigma["is-ekf"][164:] == tr.sqrt_sigma["is-ekf"][163])
    assert tr.sqrt_sigma["is-ekf"][163, 0] > 0.0
    warnings = [r for r in caplog.records if r.name == "isekf" and r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "is-ekf" in warnings[0].getMessage() and "underflowed" in warnings[0].getMessage()


def test_a_measurement_that_overflows_is_rejected_without_a_warning():
    # D d = 2e308 overflows: simulate names it next to the truth check,
    # before any filter steps on it
    huge = OutlierSegment(5, 10, "constant", value=[1e308, 0.0])
    cfg = benchmark_config(horizon=20,
                           schedule=OutlierSchedule((huge,), D=2.0 * paper_schedule().D))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="^measurement must be finite$"):
            simulate(cfg, 1)


def test_a_truth_that_overflows_is_rejected_without_a_warning():
    # eta T = 1e307 per step overflows the position sum within 20 steps
    cfg = benchmark_config(horizon=20, input_profile=InputProfile(eta=1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="^robot state must be finite$"):
            simulate(cfg, 1)


@pytest.mark.parametrize("make_cfg, seed", [
    (lambda: parse_config(PAPER_CFG).scenario, 1),
    (lambda: parse_config(PAPER_CFG).scenario, 7),
    (_overflow_config, 1),
    (_underflow_config, 1),
    (_two_saturated_config, 1),
], ids=["paper-seed-1", "paper-seed-7", "overflow", "underflow", "two-saturated"])
def test_simulate_matches_the_public_steps_bit_for_bit(make_cfg, seed):
    # simulate steps raw arrays through the core; the FilterState steps are
    # the reference path it must reproduce exactly
    cfg = make_cfg()
    with np.errstate(over="ignore"):
        tr = simulate(cfg, seed)
        estimates, sqrt_sigma, failed_at, _ = _replay(cfg, tr)
    assert tr.failed_at == failed_at
    assert tr.estimates.keys() == estimates.keys()
    for label in estimates:
        np.testing.assert_array_equal(tr.estimates[label], estimates[label])
    assert tr.sqrt_sigma.keys() == sqrt_sigma.keys()
    for label in sqrt_sigma:
        np.testing.assert_array_equal(tr.sqrt_sigma[label], sqrt_sigma[label])


def test_a_bound_state_near_the_float_limit_runs_on_paper_cfg():
    # sigma0 = epsilon0 = 1e308: the first bound step gives 9e307 in both
    # layers, finite although their sum is not, so is-ekf must not fail
    near_limit = BoundParams(mode="dt", lambda1=[0.9] * 3, lambda2=[0.9] * 3, gamma1=[0.1] * 3,
                             gamma2=[0.1] * 3, sigma0=[1e308] * 3, epsilon0=[1e308] * 3)
    cfg = parse_config(PAPER_CFG).scenario
    cfg = dataclasses.replace(cfg, filters=[
        dataclasses.replace(spec, bound_params=near_limit) if spec.kind == "is-ekf" else spec
        for spec in cfg.filters])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = simulate(cfg, 1)
        estimates, sqrt_sigma, failed_at, _ = _replay(cfg, tr)
    assert tr.failed_at == failed_at == {"is-ekf": None, "ekf": None, "lsigma-ekf": None}
    for label in estimates:
        np.testing.assert_array_equal(tr.estimates[label], estimates[label])
    np.testing.assert_array_equal(tr.sqrt_sigma["is-ekf"], sqrt_sigma["is-ekf"])
    assert tr.sqrt_sigma["is-ekf"][1, 0] == math.sqrt(9e307)


def test_failures_raise_no_floating_point_warnings(caplog):
    # simulate and the public steps report each failure as its error alone:
    # with warnings turned into errors, the failures and their messages are
    # those of the two-saturated replay
    cfg = _two_saturated_config()
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="isekf"):
        warnings.simplefilter("error")
        tr = simulate(cfg, 1)
        _, _, failed_at, reasons = _replay(cfg, tr)
    expected = {"is-ekf-fast": (164, "clip level sigma underflowed to 0"),
                "is-ekf-slow": (193, "clip level sigma underflowed to 0"),
                "ekf": (1, "innovation covariance not finite")}
    assert tr.failed_at == failed_at == {**{lbl: k for lbl, (k, _) in expected.items()},
                                         "lsigma-ekf": None}
    assert reasons == {lbl: msg for lbl, (_, msg) in expected.items()}
    logged = sorted(r.getMessage() for r in caplog.records
                    if r.name == "isekf" and r.levelno == logging.WARNING)
    assert logged == sorted(f"filter {lbl} (seed 1) failed at step {k}: {msg}"
                            for lbl, (k, msg) in expected.items())


def test_dead_lane_with_an_indefinite_innovation_covariance_is_reported_once(caplog, monkeypatch):
    # P0 passes the PSD test within its tolerance, but its heading variance
    # is more negative than R's: S stays finite and not positive definite on
    # the held state, so the dead lane must leave the stack: its S factored
    # again would be reported again and push the live lanes off the stacked
    # solve
    P0 = robot_filter_p0()
    bad = FilterSpec("ekf", P0=np.diag([1e6, 1e6, -9e-5]), label="ekf-indefinite")
    cfg = benchmark_config(horizon=30, filters=[
        FilterSpec("is-ekf", P0=P0, bound_params=paper_bound_params()), bad,
        FilterSpec("lsigma-ekf", P0=P0, ell=3.0)])
    solves = []

    def counted(M, B, what):
        if what == "innovation covariance":
            solves.append(M.shape)
        return spd_solve(M, B, what)

    spd_solve = filters._spd_solve
    monkeypatch.setattr(filters, "_spd_solve", counted)
    with caplog.at_level(logging.WARNING, logger="isekf"):
        tr = simulate(cfg, 1)
    monkeypatch.undo()
    assert tr.failed_at == {"is-ekf": None, "ekf-indefinite": 1, "lsigma-ekf": None}
    assert np.all(tr.estimates["ekf-indefinite"] == tr.estimates["ekf-indefinite"][0])
    logged = [r.getMessage() for r in caplog.records
                if r.name == "isekf" and r.levelno == logging.WARNING]
    assert logged == ["filter ekf-indefinite (seed 1) failed at step 1: "
                      "innovation covariance not factorizable (cond ~ 3.883e+10)"]
    # one stacked solve per step: in step 1 the 3-lane stack fails and each
    # lane is solved alone; from step 2 on the stack holds the 2 live lanes
    assert solves == [(3, 3, 3)] + [(3, 3)] * 3 + [(2, 3, 3)] * 29
    # the surviving lanes replay the public steps bit for bit after it dies
    estimates, sqrt_sigma, failed_at, reasons = _replay(cfg, tr)
    assert failed_at == tr.failed_at
    assert logged == [f"filter ekf-indefinite (seed 1) failed at step 1: {reasons['ekf-indefinite']}"]
    for label in ("is-ekf", "lsigma-ekf"):
        np.testing.assert_array_equal(tr.estimates[label], estimates[label])
    np.testing.assert_array_equal(tr.sqrt_sigma["is-ekf"], sqrt_sigma["is-ekf"])


def _indefinite_config():
    # the ekf lane's S is finite and not positive definite at step 1
    P0 = robot_filter_p0()
    return benchmark_config(horizon=30, filters=[
        FilterSpec("is-ekf", P0=P0, bound_params=paper_bound_params()),
        FilterSpec("ekf", P0=np.diag([1e6, 1e6, -9e-5]), label="ekf-indefinite"),
        FilterSpec("lsigma-ekf", P0=P0, ell=3.0)])


@pytest.mark.parametrize("make_cfg, expected", [
    (_two_saturated_config, {"is-ekf-fast": "clip level sigma underflowed to 0",
                             "is-ekf-slow": "clip level sigma underflowed to 0",
                             "ekf": "innovation covariance not finite", "lsigma-ekf": None}),
    (_indefinite_config, {"is-ekf": None, "lsigma-ekf": None, "ekf-indefinite":
                          "innovation covariance not factorizable (cond ~ 3.883e+10)"}),
], ids=["two-saturated", "dead-lane"])
def test_a_failed_filters_reason_is_recorded_in_the_trace_and_the_metrics(make_cfg, expected):
    cfg = make_cfg()
    with np.errstate(all="ignore"):
        tr = simulate(cfg, 1)
        _, _, _, reasons = _replay(cfg, tr)
    assert tr.failure == expected
    assert {lbl: msg for lbl, msg in expected.items() if msg is not None} == reasons
    text = metrics_report(tr).text()
    for label, msg in expected.items():
        block = text.split(f"[{label}]\n")[1].split("\n[")[0]
        assert ("  failure        = " in block) == (msg is not None)
        if msg is not None:
            assert f"(failed_at={tr.failed_at[label]})\n  failure        = {msg}\n" in block


@pytest.mark.parametrize("horizon", [200, 0])
def test_simulate_seeds_equals_simulate_lane_for_lane(horizon):
    # every (filter, seed) pair is one lane of the batch; a seed's trace must
    # not depend on the other seeds, nor a lane on the lanes that fail
    cfg = _two_saturated_config(horizon)
    seeds = [3, 1, 2]
    with np.errstate(all="ignore"):
        batch = simulate_seeds(cfg, seeds)
        singles = [simulate(cfg, seed) for seed in seeds]
    assert len(batch) == len(seeds)
    for tr, ref in zip(batch, singles):
        for name in ("k", "t", "truth", "u", "d", "y"):
            np.testing.assert_array_equal(getattr(tr, name), getattr(ref, name), err_msg=name)
        for name in ("estimates", "sqrt_sigma"):
            got, want = getattr(tr, name), getattr(ref, name)
            assert got.keys() == want.keys()
            for label in want:
                np.testing.assert_array_equal(got[label], want[label], err_msg=f"{name} {label}")
        assert tr.failed_at == ref.failed_at
    if horizon:
        assert batch[0].failed_at == {"is-ekf-fast": 164, "is-ekf-slow": 193, "ekf": 1,
                                      "lsigma-ekf": None}


def _spinning_config():
    # |T delta| reaches 4 rad per step: the heading wraps at +-pi over and over
    return dataclasses.replace(parse_config(PAPER_CFG).scenario,
                               input_profile=InputProfile(delta_amp=40.0))


@pytest.mark.parametrize("make_cfg, seeds, wraps", [
    (lambda: parse_config(PAPER_CFG).scenario, [1, 7], False),
    (_spinning_config, [1, 7, 1001], True),
], ids=["paper", "spinning"])
def test_world_matches_the_per_step_reference(make_cfg, seeds, wraps):
    # simulate draws each child stream in one call, runs the heading on Python
    # floats and sums the positions in bulk; robot_step, outlier_at and
    # measure, step by step on the same streams, are the reference
    cfg = make_cfg()
    for seed, tr in zip(seeds, simulate_seeds(cfg, seeds)):
        rng_proc, rng_meas, rng_outl = (np.random.default_rng(s)
                                        for s in np.random.SeedSequence(seed).spawn(3))
        state, truth, d, y = cfg.initial_truth, [], [], []
        for k in range(cfg.horizon + 1):
            if k:
                w = cfg.process_std * rng_proc.standard_normal(3)
                step = robot_step(state, cfg.input_profile(k - 1), cfg.T)
                state = RobotState.from_array(step.as_array() + w)
            truth.append(state.as_array())
            d.append(outlier_at(cfg.schedule, k, rng_outl))
            y.append(measure(state, cfg.schedule, k, cfg.R, rng_meas, d=d[-1]))
        np.testing.assert_array_equal(tr.truth, truth)
        np.testing.assert_array_equal(tr.d, d)
        np.testing.assert_array_equal(tr.y, y)
        np.testing.assert_array_equal(
            tr.u, [cfg.input_profile(k).as_array() for k in range(cfg.horizon + 1)])
        assert (np.abs(np.diff(tr.truth[:, 2])).max() > math.pi) == wraps


def test_an_input_profile_that_is_not_an_input_profile_is_rejected():
    with pytest.raises(ConfigurationError,
                       match="^input_profile must be an InputProfile, got function$"):
        benchmark_config(horizon=5, input_profile=lambda k: InputProfile()(k))


def test_an_input_profile_assigned_after_the_checks_is_refused():
    # the parsed config is frozen: a value that skipped the constructor
    # used to fail deep in simulate with an AttributeError
    cfg = parse_config(PAPER_CFG).scenario
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.input_profile = lambda k: None


_BOUND_ARRAYS = ("lambda1", "lambda2", "gamma1", "gamma2", "sigma0", "epsilon0", "lam", "gam")


def _config_arrays(cfg):
    """(name, array) of each array a scenario config stores."""
    for name in ("process_std", "meas_std", "filter_process_std", "filter_meas_std",
                 "initial_guess_offset"):
        yield name, getattr(cfg, name)
    yield "schedule.D", cfg.schedule.D
    for i, seg in enumerate(cfg.schedule.segments):
        yield f"segments[{i}]", seg.value if seg.kind == "constant" else seg.scale
    for spec in cfg.filters:
        yield f"{spec.label}.P0", spec.P0
        if spec.bound_params is not None:
            for name in _BOUND_ARRAYS:
                yield f"{spec.label}.{name}", getattr(spec.bound_params, name)


def test_the_arrays_of_a_parsed_config_are_read_only():
    # an in-place edit used to skip every check: a negative P0 then failed
    # the filter at step 1 of simulate
    cfg = dataclasses.replace(parse_config(PAPER_CFG).scenario,
                              filter_process_std=np.ones(3), filter_meas_std=np.ones(3))
    with pytest.raises(ValueError, match="read-only"):
        cfg.filters[0].P0[:] = -np.eye(3)
    arrays = dict(_config_arrays(cfg))
    assert len(arrays) == 6 + 4 + 3 + len(_BOUND_ARRAYS)
    for name, arr in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    assert simulate(cfg, 1).failed_at["is-ekf"] is None


def test_a_config_copies_the_callers_arrays_and_leaves_them_writable():
    P0, D = robot_filter_p0(), paper_schedule().D.copy()
    value, scale, std = np.array([5.0, 1.0]), 2.0 * np.eye(2), np.array([0.5, 0.5, 0.008])
    offset = np.array([1.0, 1.0, 0.1])
    vectors = {name: np.array(value) for name, value in DEFAULT_BOUND.items()}
    cfg = benchmark_config(
        meas_std=std, initial_guess_offset=offset,
        schedule=OutlierSchedule([OutlierSegment(1, 2, "constant", value=value),
                                  OutlierSegment(3, 4, "uniform", scale=scale)], D=D),
        filters=[FilterSpec("is-ekf", P0, bound_params=BoundParams(**vectors))])
    mine = {"is-ekf.P0": P0, "schedule.D": D, "segments[0]": value, "segments[1]": scale,
            "meas_std": std, "initial_guess_offset": offset,
            **{f"is-ekf.{name}": vec for name, vec in vectors.items()}}
    stored = dict(_config_arrays(cfg))
    for name, arr in mine.items():
        assert arr.flags.writeable, name
        assert not np.shares_memory(arr, stored[name]), name


def _two_channel_params():
    return BoundParams(mode="dt", **{name: value[:2] for name, value in DEFAULT_BOUND.items()})


def _ct_params():
    return BoundParams(mode="ct", lambda1=-0.5, lambda2=-0.1, gamma1=1.0, gamma2=9.0,
                       sigma0=1.0, epsilon0=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda P0: benchmark_config(filters=[FilterSpec("ekf", P0=P0, label="same"),
                                          FilterSpec("lsigma-ekf", P0=P0, label="same")]),
     "filter labels must be unique"),
    (lambda P0: benchmark_config(filters=[FilterSpec("ekf", P0=np.eye(2))]),
     "filter ekf: P0 must be 3x3"),
    (lambda P0: FilterSpec("is-ekf", P0=P0, bound_params=_ct_params()),
     "FilterSpec.bound_params: is-ekf needs dt-mode parameters, got mode 'ct'"),
    (lambda P0: benchmark_config(filters=[FilterSpec("is-ekf", P0=P0,
                                                     bound_params=_two_channel_params())]),
     "ScenarioConfig.filters: is-ekf bound_params has 2 channels, the measurement has 3"),
    # unchecked, these built and then failed simulate with a raw TypeError
    (lambda P0: dataclasses.replace(benchmark_config(), horizon=10.5),
     r"ScenarioConfig.horizon must be an integer, got 10\.5"),
    (lambda P0: dataclasses.replace(benchmark_config(), horizon=True),
     "ScenarioConfig.horizon must be an integer, got True"),
    (lambda P0: OutlierSegment(1.5, 5, "constant", value=[1, 1]),
     r"OutlierSegment.k_lo must be an integer, got 1\.5"),
    (lambda P0: OutlierSegment(1, True, "constant", value=[1, 1]),
     "OutlierSegment.k_hi must be an integer, got True"),
    # unchecked, a nan input failed the robot at step 1, and an inf one
    # warned in numpy first
    (lambda P0: InputProfile(eta=math.nan), "eta must be finite, got nan"),
    (lambda P0: InputProfile(delta_freq=math.inf), "delta_freq must be finite, got inf"),
], ids=["duplicate-labels", "2x2-P0", "ct-mode", "2-channels", "horizon-float", "horizon-bool",
        "k_lo-float", "k_hi-bool", "eta-nan", "delta_freq-inf"])
def test_a_scenario_is_checked_once_when_it_is_built(build, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        build(robot_filter_p0())


@pytest.mark.parametrize("offset", [[np.nan, 0.0, 0.0], [1.0, 1.0]], ids=["nan", "2-vector"])
def test_a_bad_initial_guess_offset_is_rejected_when_the_scenario_is_built(offset):
    # unchecked, a non-finite offset would fail every filter at step 1 and
    # a 2-vector would raise numpy's broadcast error in simulate
    with pytest.raises(ConfigurationError, match="^ScenarioConfig.initial_guess_offset must be "
                                                 r"a finite 3-vector, got \["):
        dataclasses.replace(benchmark_config(), initial_guess_offset=offset)


@pytest.mark.parametrize("seeds", [[], [-1], [1, 2.0], [True]],
                         ids=["empty", "negative", "float", "bool"])
def test_simulate_seeds_rejects_bad_seeds(seeds):
    with pytest.raises(ConfigurationError, match="seed"):
        simulate_seeds(benchmark_config(horizon=5), seeds)


def test_simulate_rejects_a_p0_of_the_wrong_size():
    with pytest.raises(ConfigurationError, match="P0 must be 3x3"):
        cfg = benchmark_config(horizon=5, filters=[FilterSpec("ekf", P0=np.eye(2))])
        simulate(cfg, 1)


# ---------------------------------------------------------------------------
# entry rejections that no run reaches, each with its message

@pytest.mark.parametrize("call, message", [
    (lambda: RobotState(math.nan, 0.0, 0.0), "robot state must be finite"),
    (lambda: OutlierSegment(5, 10, "spike", value=[1.0]), "unknown segment kind 'spike'"),
    (lambda: OutlierSegment(10, 10, "constant", value=[1.0]), "segment range must be non-empty"),
    (lambda: OutlierSegment(5, 10, "constant"), "constant segment requires a value"),
    (lambda: OutlierSegment(5, 10, "uniform"), "uniform segment requires a scale matrix"),
    (lambda: FilterSpec("ukf", P0=robot_filter_p0()), "unknown filter kind 'ukf'"),
    (lambda: FilterSpec("is-ekf", P0=robot_filter_p0()), "is-ekf requires bound parameters"),
    (lambda: FilterSpec("lsigma-ekf", P0=robot_filter_p0(), ell=0.0),
     "lsigma-ekf requires ell > 0"),
], ids=["state-not-finite", "segment-kind", "segment-empty", "constant-without-value",
        "uniform-without-scale", "filter-kind", "is-ekf-without-bounds", "ell-zero"])
def test_an_entry_rejection_names_its_cause(call, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        call()
