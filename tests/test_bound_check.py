"""bound_trajectory_check against the one-pass joint-vector form it
replaced, the certificate's envelope against the scalar formula it
replaced, the memo of the covariance pass, and the entry checks."""

import dataclasses
import functools
import importlib.util
import itertools
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isekf import filters, stability
from isekf.errors import ConfigurationError, InputDomainError, NumericalFailure, PropertyFailure
from isekf.filters import (_SAT_FLOOR, FilterState, NonlinearModel, _joint_views, _rk4,
                           _symmetrize, ct_isekf_integrate)
from isekf.saturation import BoundParams, SaturationState, _clip
from isekf.stability import (
    BoundCheckReport,
    CertificateCandidate,
    LinearSystem,
    _dare_step,
    _spd_inverse,
    _stationary,
    bound_trajectory_check,
    certify,
    solve_dare,
    sweep_candidates,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _oracle_bound(cert, t, V0):
    """The envelope at one time or step, as the scalar formula that
    StabilityCertificate.envelope replaced."""
    f = cert.c1 * cert.mu**2 + cert.rho
    if cert.mode == "continuous":
        decay = math.exp(-cert.alpha * float(t))
    else:
        decay = (1.0 - cert.alpha) ** int(t)
    level = decay * V0 + (1.0 - decay) * f / cert.alpha
    idx = np.searchsorted(cert._c2_times, t, side="right") - 1
    lmax = float(cert._c2_lmax[min(max(idx, 0), len(cert._c2_lmax) - 1)])
    c2 = 1.0 / lmax if lmax > 0.0 else math.inf
    return math.sqrt(max(level, 0.0) / c2)


def _oracle_bound_map(sigma, eps, innov, params):
    """The two-layer bound map written out per layer:
    lambda1*sigma + gamma1*eps*exp(-eps) (eps clamped to [0, 1e12] first)
    and lambda2*eps + gamma2*innov^2."""
    clamped = np.minimum(np.maximum(eps, 0.0), 1e12)
    return (params.lambda1 * sigma + params.gamma1 * (clamped * np.exp(-clamped)),
            params.lambda2 * eps + params.gamma2 * innov**2)


def _oracle_check(sys, cand, cert, d_signal, horizon, e0=None, dt=1e-3):
    """bound_trajectory_check as one pass: the discrete covariance recursion
    interleaved with the error steps, and RK4 on the stacked
    (e, P, sigma, eps) vector in continuous time."""
    params = cert.params
    e = np.zeros(sys.n) if e0 is None else np.asarray(e0, dtype=float)
    A, C, D = sys.A, sys.C, sys.D
    V0 = cert.initial_v(e)
    max_ratio = 0.0
    d_limit = cert.mu + (1e-12 if sys.mode == "discrete" else 1e-9)

    def disturbance(where):
        d = np.asarray(d_signal(where), dtype=float).reshape(-1)
        norm_d = math.sqrt(d.dot(d))
        if not norm_d <= d_limit:
            what = "is not finite" if not np.isfinite(norm_d) else "exceeds mu"
            raise InputDomainError(f"||d|| {what} at {where:.6g}")
        return d

    def check(where, e_vec):
        nonlocal max_ratio
        bound = _oracle_bound(cert, where, V0)
        norm_e = float(np.linalg.norm(e_vec))
        if not norm_e <= bound + 1e-9:
            raise PropertyFailure(
                f"certified bound violated at {where:.6g}: ||e|| = {norm_e:.6g} > {bound:.6g}",
                at=where,
            )
        if bound > 0.0:
            max_ratio = max(max_ratio, norm_e / bound)

    if sys.mode == "discrete":
        P = _symmetrize(cand.P0)
        sigma, eps = params.sigma0, params.epsilon0
        n_steps = int(horizon)
        for k in range(n_steps + 1):
            d = disturbance(k)
            check(k, e)
            if P is not None:
                P_next, _, K = _dare_step(sys, P)
                P = None if _stationary(P, np.linalg.norm(P_next - P)) else P_next
            innov = C.dot(e) - D.dot(d)
            e = A.dot(e) - A.dot(K.dot(_clip(innov, np.sqrt(sigma))))
            sigma, eps = _oracle_bound_map(sigma, eps, innov, params)
            if not (np.isfinite(e).all() and np.isfinite(sigma).all() and np.isfinite(eps).all()):
                raise NumericalFailure(f"error system non-finite after step {k}", context=e)
        return BoundCheckReport(max_ratio=max_ratio, horizon=float(n_steps), samples=n_steps + 1,
                                final_error_norm=float(np.linalg.norm(e)))

    CtRinv, Q = C.T @ _spd_inverse(sys.R, "R"), sys.Q
    n, p = sys.n, sys.p

    def rhs(z, t):
        e_vec, P_mat, sat = _joint_views(z, n)
        d = disturbance(t)
        sat = np.maximum(sat, _SAT_FLOOR)
        sig, eps = sat[:p], sat[p:]
        K = P_mat.dot(CtRinv)
        innov = C.dot(e_vec) - D.dot(d)
        e_dot = A.dot(e_vec) - K.dot(_clip(innov, np.sqrt(sig)))
        AP = A.dot(P_mat)
        P_dot = _symmetrize(AP + AP.T + Q - K.dot(C).dot(P_mat))
        return np.concatenate((e_dot, P_dot) + _oracle_bound_map(sig, eps, innov, params),
                              axis=None)

    z = np.concatenate((e, _symmetrize(cand.P0), params.sigma0, params.epsilon0), axis=None)
    n_steps = int(round(float(horizon) / dt))
    for i in range(n_steps + 1):
        t = i * dt
        check(t, z[:n])
        if i == n_steps:
            break
        z_next = _rk4(rhs, z, t, dt)
        if not np.isfinite(z_next).all():
            raise NumericalFailure(f"integration step rejected at t={t + dt:.6g}", context=z[:n])
        z = z_next
        _, P_mat, sat = _joint_views(z, n)
        sat[...] = np.maximum(sat, _SAT_FLOOR)
        P_mat[...] = _symmetrize(P_mat)
    return BoundCheckReport(max_ratio=max_ratio, horizon=float(horizon), samples=n_steps + 1,
                            final_error_norm=float(np.linalg.norm(z[:n])))


def _outcome(check, sys, cand, cert, d_signal, *args, **kwargs):
    """The report, or the failure's type, message and step, and the times
    at which the disturbance was asked for."""
    calls = []

    def recorded(where):
        calls.append(where)
        return d_signal(where)

    try:
        result = check(sys, cand, cert, recorded, *args, **kwargs)
    except (InputDomainError, NumericalFailure, PropertyFailure) as exc:
        result = type(exc), str(exc), getattr(exc, "at", None)
    return result, calls


def _distinct(times):
    """times with each consecutive repeat dropped."""
    return [t for i, t in enumerate(times) if i == 0 or t != times[i - 1]]


def _stage_times(steps, dt):
    """The times at which RK4 asks for its input over steps steps of dt, in
    stage order (t, twice t + dt/2, t + dt), each consecutive repeat dropped:
    the reads of both continuous integrators."""
    half = 0.5 * dt
    return _distinct([t for i in range(steps) for t in (i * dt, i * dt + half, i * dt + half,
                                                       i * dt + dt)])


def assert_matches_oracle(*args, **kwargs):
    # the oracle asks for the disturbance at every RK4 stage, the check once
    # per distinct stage time
    new = _outcome(bound_trajectory_check, *args, **kwargs)
    result, calls = _outcome(_oracle_check, *args, **kwargs)
    assert new == (result, _distinct(calls))
    return new[0]


# the two certified observers of acceptance criterion 5

def _dt_observer():
    sys = LinearSystem(A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]], mode="discrete")
    params = BoundParams(lambda1=[0.1], lambda2=[0.1], gamma1=[0.05], gamma2=[0.2],
                         sigma0=[0.5], epsilon0=[0.5], mode="dt")
    cand = CertificateCandidate(W=[[0.3]], U=[[2.0]], alpha=0.2, Gamma2=[[0.2]],
                                P0=solve_dare(sys))
    return sys, cand, certify(sys, cand, params, mu=0.5)


def _ct_observer():
    sys = LinearSystem(A=[[-1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]],
                       mode="continuous")
    params = BoundParams(lambda1=[-1.0], lambda2=[-1.0], gamma1=[0.1], gamma2=[1.0],
                         sigma0=[0.5], epsilon0=[0.5], mode="ct")
    cand = CertificateCandidate(W=[[1.0]], U=[[2.0]], alpha=0.5, Gamma2=[[1.0]],
                                P0=[[0.01]])
    return sys, cand, certify(sys, cand, params, mu=0.3)


@pytest.fixture(scope="module")
def dt_observer():
    return _dt_observer()


@pytest.fixture(scope="module")
def ct_observer():
    return _ct_observer()


@functools.lru_cache(maxsize=None)
def _certificates():
    """Certificates of both modes: the two observers; the continuous one
    from P0 = 0, whose envelope starts at c2 = inf; and a discrete one on
    a recorded trajectory that rises from lambda_max = 0 over seven steps."""
    (_, _, dt_cert), (ct_sys, ct_cand, ct_cert) = _dt_observer(), _ct_observer()
    zero_start = certify(ct_sys, dataclasses.replace(ct_cand, P0=np.zeros((1, 1))),
                         ct_cert.params, mu=ct_cert.mu)
    rising = dataclasses.replace(dt_cert, alpha=0.35, _c2_times=np.arange(8.0),
                                 _c2_lmax=np.array([0.0, 0.4, 0.7, 0.9, 1.0, 1.1, 1.13, 1.13]))
    return dt_cert, rising, ct_cert, zero_start


@st.composite
def _envelope_case(draw):
    """A certificate and samples before, inside and after its recorded
    trajectory: integer steps and float times in both modes, and the
    recorded times themselves."""
    cert = draw(st.sampled_from(_certificates()))
    end = float(cert._c2_times[-1])
    sample = st.one_of(st.integers(-3, int(end) + 20), st.floats(-1.0, end + 20.0),
                       st.sampled_from(cert._c2_times.tolist()))
    return cert, draw(st.lists(sample, max_size=40))


@settings(deadline=None, max_examples=200)
@given(case=_envelope_case(), V0=st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
def test_the_envelope_is_the_scalar_formula_bit_for_bit(case, V0):
    cert, times = case
    expected = [_oracle_bound(cert, t, V0).hex() for t in times]
    assert [b.hex() for b in cert.envelope(times, V0)] == expected
    assert [cert.transient_bound(t, V0).hex() for t in times] == expected


def _held(hold, width=0.05):
    last = len(hold) - 1
    return lambda t: np.array([hold[min(int(t / width), last)]])


def test_the_bench_reference_draws_match_the_oracle():
    # the bound-dt and bound-ct ops of bench/workloads.py at seed 1, op 0,
    # whose outputs the bench checks against its recorded values
    workloads = _bench_workloads()
    dt_draw, ct_draw = workloads.BoundDT(ROOT, None, 1), workloads.BoundCT(ROOT, None, 1)
    for w in (dt_draw, ct_draw):
        w.setup()
    d = dt_draw.prepare(0, "")
    rep = assert_matches_oracle(dt_draw.sys, dt_draw.cand, dt_draw.cert,
                                lambda k: np.array([d[k]]), horizon=2000, e0=np.array([0.3]))
    dt_draw.check(0, dt_draw.output(d, rep))
    hold = ct_draw.prepare(0, "")
    rep = assert_matches_oracle(ct_draw.sys, ct_draw.cand, ct_draw.cert, _held(hold),
                                horizon=4.0, e0=np.array([0.05]), dt=1e-3)
    ct_draw.check(0, ct_draw.output(hold, rep))


def test_discrete_draws_match_the_oracle(dt_observer):
    sys, cand, cert = dt_observer
    rng = np.random.default_rng(21)
    # from cand.P0 = P_inf the gain freezes at once; from P0 = 1, under the
    # certificate sweep_candidates finds there, the recursion runs for ten
    # steps before it does
    moving_cert = sweep_candidates(sys, cert.params, cert.mu, cert.alpha, P0=[[1.0]])
    moving = CertificateCandidate(W=moving_cert.W, U=moving_cert.U, alpha=moving_cert.alpha,
                                  Gamma2=moving_cert.Gamma2, P0=moving_cert.P0)
    for i in range(24):
        d = rng.uniform(-cert.mu, cert.mu, 401)
        e0 = rng.uniform(-0.3, 0.3, 1)
        rep = assert_matches_oracle(sys, *((moving, moving_cert) if i % 2 else (cand, cert)),
                                    lambda k: np.array([d[k]]), horizon=400, e0=e0)
        assert isinstance(rep, BoundCheckReport)


def test_continuous_draws_match_the_oracle(ct_observer):
    sys, cand, cert = ct_observer
    rng = np.random.default_rng(22)
    for _ in range(20):
        hold = rng.uniform(-cert.mu, cert.mu, 8)
        rep = assert_matches_oracle(sys, cand, cert, _held(hold), horizon=0.4,
                                    e0=rng.uniform(-0.05, 0.05, 1), dt=1e-3)
        assert isinstance(rep, BoundCheckReport)


def _larger_observer(mode, rng):
    """An n = 3, p = 2 observer with a non-diagonal R, drawn from rng, and
    a scalar certificate with a huge bound state, whose envelope keeps a
    check from failing; the certificate takes the candidate's W, U, alpha,
    Gamma2 and P0, which the check binds."""
    A = rng.standard_normal((3, 3)) / 3.0 - (np.eye(3) if mode == "continuous" else 0.0)
    L = rng.standard_normal((3, 3))
    sys = LinearSystem(A=A, C=rng.standard_normal((2, 3)), Q=L @ L.T + 0.1 * np.eye(3),
                       R=[[1.0, 0.2], [0.2, 0.5]], D=rng.standard_normal((2, 1)), mode=mode)
    ct = mode == "continuous"
    params = BoundParams(lambda1=[-1.0] * 2 if ct else [0.1] * 2,
                         lambda2=[-1.0] * 2 if ct else [0.1] * 2,
                         gamma1=[0.1] * 2, gamma2=[1.0] * 2,
                         sigma0=[1e6] * 2, epsilon0=[0.5] * 2, mode="ct" if ct else "dt")
    cand = CertificateCandidate(W=np.eye(2), U=[[2.0]], alpha=0.1, Gamma2=np.eye(2),
                                P0=0.5 * np.eye(3))
    cert = dataclasses.replace((_ct_observer() if ct else _dt_observer())[2], params=params,
                               W=cand.W, U=cand.U, alpha=cand.alpha, Gamma2=cand.Gamma2,
                               P0=cand.P0)
    return sys, cand, cert


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_larger_systems_match_the_oracle(mode):
    # n = 3, p = 2: the stacked gains and the (n, p) products against the
    # joint vector's
    rng = np.random.default_rng(23)
    sys, cand, cert = _larger_observer(mode, rng)
    ct = mode == "continuous"
    for _ in range(3):
        d = rng.uniform(-cert.mu, cert.mu, 301)
        if ct:
            rep = assert_matches_oracle(sys, cand, cert, _held(d), horizon=0.3,
                                        e0=rng.uniform(-0.1, 0.1, 3), dt=1e-3)
        else:
            rep = assert_matches_oracle(sys, cand, cert, lambda k: np.array([d[k]]),
                                        horizon=300, e0=rng.uniform(-0.1, 0.1, 3))
        assert isinstance(rep, BoundCheckReport)


def _observer_model(sys):
    """sys as the continuous-time filter's model, its maps making the bound
    check's products A.dot(x) and C.dot(x)."""
    A, C = sys.A, sys.C
    return NonlinearModel(f=lambda x, u=None: A.dot(x), h=lambda x: C.dot(x), Q=sys.Q, R=sys.R,
                          n=sys.n, p=sys.p, jac_f=lambda x, u=None: A, jac_h=lambda x: C)


def _ct_filter_run(sys, cand, params, d_signal, horizon, e0, dt=1e-3):
    """The last state of a continuous-time filter run on the plant sys at
    rest (x = 0), measured as y(t) = D d(t), from x_hat = e0, P = cand.P0
    and params' bound state: x_hat is then the bound check's error."""
    D = sys.D
    st = FilterState(np.asarray(e0, dtype=float), cand.P0,
                     sat=SaturationState(params.sigma0, params.epsilon0))
    return ct_isekf_integrate(_observer_model(sys), st, lambda t: D.dot(d_signal(t)), dt,
                              horizon, params)[-1]


def test_the_ct_filter_takes_the_covariance_pass_gains_bit_for_bit(monkeypatch):
    # n = 2 with a non-diagonal R: every continuous-time gain is
    # P (C^T R^-1), so the filter's Riccati integration is the bound check's
    sys = LinearSystem(A=[[-1.0, 0.5], [0.2, -2.0]], C=[[1.0, 0.0], [0.3, 1.0]],
                       Q=[[1.0, 0.2], [0.2, 0.5]], R=[[1.0, 0.4], [0.4, 0.7]],
                       D=[[1.0], [0.5]], mode="continuous")
    cand = CertificateCandidate(W=np.eye(2), U=[[2.0]], alpha=0.1, Gamma2=np.eye(2),
                                P0=[[0.5, 0.1], [0.1, 0.3]])
    params = BoundParams(lambda1=[-1.0] * 2, lambda2=[-1.0] * 2, gamma1=[0.1] * 2,
                         gamma2=[1.0] * 2, sigma0=[0.5] * 2, epsilon0=[0.5] * 2, mode="ct")
    steps = 200
    expected = stability._covariance_pass(sys, cand, 1e-3, steps).gains
    gains, real = [], filters._saturated_rhs

    def recording(drift, K, *rest):
        gains.append(K.copy())
        return real(drift, K, *rest)

    monkeypatch.setattr(filters, "_saturated_rhs", recording)
    _ct_filter_run(sys, cand, params, lambda t: np.array([math.sin(t)]), steps * 1e-3,
                   np.array([0.1, -0.2]))
    assert np.stack(gains).tobytes() == expected.tobytes()


def _bench_ct_observer():
    """The bound-ct op of bench/workloads.py at seed 1, op 0, and its
    recorded final error norm."""
    workloads = _bench_workloads()
    ct_draw = workloads.BoundCT(ROOT, None, 1)
    ct_draw.setup()
    hold = ct_draw.prepare(0, "")
    return (ct_draw.sys, ct_draw.cand, ct_draw.cert, _held(hold), 4.0, np.array([0.05]),
            workloads.BOUND_CT_FINAL)


def _larger_ct_observer():
    rng = np.random.default_rng(29)
    sys, cand, cert = _larger_observer("continuous", rng)
    d = rng.uniform(-cert.mu, cert.mu, 6)
    return sys, cand, cert, _held(d), 0.3, rng.uniform(-0.1, 0.1, 3), None


@pytest.mark.parametrize("observer", [_bench_ct_observer, _larger_ct_observer],
                         ids=["bench-scalar", "n3-p2"])
def test_the_ct_filter_on_a_plant_at_rest_is_the_continuous_bound_check(observer):
    sys, cand, cert, d_signal, horizon, e0, recorded = observer()
    rep = bound_trajectory_check(sys, cand, cert, d_signal, horizon, e0=e0, dt=1e-3)
    end = _ct_filter_run(sys, cand, cert.params, d_signal, horizon, e0)
    assert float(np.linalg.norm(end.x_hat)) == rep.final_error_norm
    if recorded is not None:  # within the bench's own tolerance
        assert rep.final_error_norm == pytest.approx(recorded, rel=1e-9, abs=0.0)


@settings(deadline=None, max_examples=40)
@given(dt=st.floats(1e-4, 0.05), steps=st.integers(1, 40))
def test_both_integrators_read_each_distinct_stage_time_once(ct_observer, dt, steps):
    # a dt at which some step's t_i + dt is not the next step's (i + 1) dt,
    # so that the next step reads its input again
    assume(any(i * dt + dt != (i + 1) * dt for i in range(1, steps)))
    sys, cand, cert = ct_observer
    reads = {"bound check": [], "filter": []}

    def reading(calls):
        return lambda t: calls.append(t) or np.zeros(1)

    bound_trajectory_check(sys, cand, cert, reading(reads["bound check"]), steps * dt,
                           e0=np.zeros(1), dt=dt)
    _ct_filter_run(sys, cand, cert.params, reading(reads["filter"]), steps * dt, np.zeros(1), dt)
    for calls in reads.values():
        assert calls == _stage_times(steps, dt)
        assert len(set(calls)) == len(calls) < 4 * steps
        # ascending, but for a step's (i + 1) dt that rounds just below the
        # last step's t_i + dt
        assert all(b > a or math.isclose(a, b, rel_tol=1e-15)
                   for a, b in itertools.pairwise(calls))


def test_a_strided_initial_error_matches_the_oracle():
    # n = 5: BLAS sums a strided vector's dot product in another order
    # than a contiguous one's, and np.linalg.norm takes a contiguous copy
    rng = np.random.default_rng(25)
    L = rng.standard_normal((5, 5))
    sys = LinearSystem(A=rng.standard_normal((5, 5)) / 5.0, C=rng.standard_normal((1, 5)),
                       Q=L @ L.T + 0.1 * np.eye(5), R=[[1.0]], D=[[1.0]], mode="discrete")
    _, cand, cert = _dt_observer()
    cand = dataclasses.replace(cand, P0=0.5 * np.eye(5))
    cert = dataclasses.replace(cert, P0=cand.P0)
    for _ in range(5):
        d = rng.uniform(-cert.mu, cert.mu, 31)
        e0 = rng.uniform(-0.1, 0.1, 10)[::2]
        assert not e0.flags.c_contiguous
        rep = assert_matches_oracle(sys, cand, cert, lambda k: np.array([d[k]]), horizon=30,
                                    e0=e0)
        assert isinstance(rep, BoundCheckReport)


# failures: the same exception, message and step as the oracle

def test_a_disturbance_above_mu_at_an_rk4_stage_fails_as_the_oracle(ct_observer):
    sys, cand, cert = ct_observer

    def d_signal(t):
        # above mu only at the midpoint stages of the steps after t = 0.1
        midpoint = abs(t / 1e-3 % 1.0 - 0.5) < 1e-6
        return np.array([0.5 if t > 0.1 and midpoint else 0.1])

    outcome = assert_matches_oracle(sys, cand, cert, d_signal, horizon=0.3,
                                    e0=np.array([0.05]), dt=1e-3)
    assert outcome[:2] == (InputDomainError, "||d|| exceeds mu at 0.1005")


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_an_envelope_violation_fails_as_the_oracle(mode, dt_observer, ct_observer):
    # the certified observer's candidate and certificate on an unstable plant
    if mode == "discrete":
        _, cand, cert = dt_observer
        sys = LinearSystem(A=[[1.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]], mode=mode)
        kwargs = dict(horizon=200, e0=np.array([0.3]))
    else:
        _, cand, cert = ct_observer
        sys = LinearSystem(A=[[5.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]], mode=mode)
        kwargs = dict(horizon=2.0, e0=np.array([0.05]), dt=1e-3)
    outcome = assert_matches_oracle(sys, cand, cert, lambda s: np.array([cert.mu]), **kwargs)
    assert outcome[0] is PropertyFailure and outcome[2] > 0


def _failing_covariance(mode, observer):
    """The observer's certificate on a plant and start whose covariance
    recursion fails after a few steps; e = 0 and d = 0 keep the error
    system at rest."""
    _, cand, cert = observer
    cand = dataclasses.replace(cand)
    if mode == "discrete":
        # a failing recursion needs P0 < 0, which the candidate's constructor
        # rejects, so it is written past the frozen field: S = P + R turns
        # negative at step 4
        sys = LinearSystem(A=[[1.0]], C=[[1.0]], Q=[[0.1]], R=[[1.0]], D=[[1.0]], mode=mode)
        object.__setattr__(cand, "P0", np.array([[-0.3]]))
        # the bound check takes only the certified P0
        return sys, cand, dataclasses.replace(cert, P0=cand.P0), dict(horizon=50, e0=np.zeros(1))
    # no output and a fast unstable mode: P grows until it overflows
    sys = LinearSystem(A=[[1e4]], C=[[0.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]], mode=mode)
    return sys, cand, cert, dict(horizon=0.2, e0=np.zeros(1), dt=1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_a_covariance_failure_fails_as_the_oracle_and_again_from_the_memo(
        mode, dt_observer, ct_observer):
    sys, cand, cert, kwargs = _failing_covariance(
        mode, dt_observer if mode == "discrete" else ct_observer)
    stability._covariance_pass.cache_clear()
    first = _outcome(bound_trajectory_check, sys, cand, cert, lambda s: np.zeros(1), **kwargs)
    result, calls = _outcome(_oracle_check, sys, cand, cert, lambda s: np.zeros(1), **kwargs)
    assert first == (result, _distinct(calls))
    assert first[0][0] is NumericalFailure
    # raised at a later step than the first, after that step's
    # disturbance and envelope checks
    if mode == "discrete":
        assert "not factorizable" in first[0][1] and first[1] == [0, 1, 2, 3, 4]
    else:
        assert first[0][1].startswith("integration step rejected at t=")
        # every stage time of the steps up to the failed one, read once
        steps = round(float(first[0][1].rpartition("=")[2]) / kwargs["dt"])
        assert steps > 1 and first[1] == _stage_times(steps, kwargs["dt"])
    # a second draw fails at the same step: the continuous one on the
    # failing pass served from the memo, the discrete one stepping its
    # recursion again
    assert _outcome(bound_trajectory_check, sys, cand, cert, lambda s: np.zeros(1),
                    **kwargs) == first
    info = stability._covariance_pass.cache_info()
    assert (info.misses, info.hits) == ((0, 0) if mode == "discrete" else (1, 1))


def test_a_recorded_covariance_failure_is_raised_while_the_error_stays_finite(
        ct_observer, monkeypatch):
    # the continuous error pass raises at the failed step of the pass
    # itself, not only when a non-finite gain makes e non-finite
    sys, cand, cert = ct_observer
    real = stability._covariance_pass

    def failing_at_step_2(*args):
        return real(*args)._replace(failed_at=2)

    monkeypatch.setattr(stability, "_covariance_pass", failing_at_step_2)
    (kind, message, _), calls = _outcome(bound_trajectory_check, sys, cand, cert,
                                         lambda t: np.zeros(1), horizon=0.01,
                                         e0=np.array([0.05]), dt=1e-3)
    assert (kind, message) == (NumericalFailure, "integration step rejected at t=0.003")
    # the twelve stages of steps 0-2 at seven distinct times
    assert calls == _stage_times(3, 1e-3) == [0.0, 0.0005, 0.001, 0.0015, 0.002, 0.0025, 0.003]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("A, e0", [(1e300, 1e10), (0.5, 1e200)], ids=["e", "bound-state"])
def test_a_non_finite_error_system_fails_as_the_oracle(dt_observer, A, e0):
    # the step's innovation is read from e before the step: on the fast
    # plant only e_1 = A e0 overflows, and on the certified one only
    # eps_1 = lambda2 eps + gamma2 innov^2 does
    _, cand, cert = dt_observer
    sys = LinearSystem(A=[[A]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]], mode="discrete")
    outcome = assert_matches_oracle(sys, cand, cert, lambda k: np.zeros(1), horizon=5,
                                    e0=np.array([e0]))
    assert outcome[:2] == (NumericalFailure, "error system non-finite after step 0")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_epsilon_that_overflows_at_an_rk4_stage_fails_as_the_oracle(ct_observer):
    # innov^2 = 1e320 overflows: k1's eps rate is inf, so stage 2 starts at
    # eps = inf, where the unclamped shaping term inf * exp(-inf) is NaN and
    # the oracle's clamped one is 0; the step is rejected either way
    sys, cand, cert = ct_observer
    outcome = assert_matches_oracle(sys, cand, cert, lambda t: np.zeros(1), horizon=0.01,
                                    e0=np.array([1e160]), dt=1e-3)
    assert outcome == (NumericalFailure, "integration step rejected at t=0.001", None)


@pytest.mark.parametrize("case", ["e", "bound-state", "rk4-epsilon", "dt-covariance",
                                  "ct-covariance"])
def test_a_failing_bound_check_raises_without_a_warning(case, dt_observer, ct_observer):
    # the cases above with the oracle left out: each failure is the entry's
    # error alone, under warnings as errors (its one context is per call)
    if case in ("e", "bound-state"):
        _, cand, cert = dt_observer
        A, e0 = (1e300, 1e10) if case == "e" else (0.5, 1e200)
        sys = LinearSystem(A=[[A]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]], mode="discrete")
        kwargs, message = dict(horizon=5, e0=np.array([e0])), "error system non-finite"
    elif case == "rk4-epsilon":
        sys, cand, cert = ct_observer
        kwargs = dict(horizon=0.01, e0=np.array([1e160]), dt=1e-3)
        message = "integration step rejected"
    else:
        mode = "discrete" if case == "dt-covariance" else "continuous"
        sys, cand, cert, kwargs = _failing_covariance(
            mode, dt_observer if mode == "discrete" else ct_observer)
        message = "innovation covariance not" if mode == "discrete" else "integration step"
    stability._covariance_pass.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match=f"^{message}"):
            bound_trajectory_check(sys, cand, cert, lambda s: np.zeros(1), **kwargs)


# the memo of the covariance pass

def _draw(sys, cand, cert, seed, check=bound_trajectory_check):
    hold = np.random.default_rng(seed).uniform(-cert.mu, cert.mu, 4)
    return check(sys, cand, cert, _held(hold), horizon=0.2, e0=np.array([0.05]), dt=1e-3)


def test_a_second_draw_on_the_same_observer_reuses_the_covariance_pass(ct_observer):
    sys, cand, cert = ct_observer
    stability._covariance_pass.cache_clear()
    _draw(sys, cand, cert, 1)
    _draw(sys, cand, cert, 2)
    info = stability._covariance_pass.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_an_edited_system_or_start_gets_a_fresh_covariance_pass():
    # the arrays of a LinearSystem and a CertificateCandidate are read-only:
    # an edit builds the object again, and the memo is keyed on the objects
    sys, cand, cert = _ct_observer()
    for arr in (sys.A, cand.P0):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = -2.0
    stability._covariance_pass.cache_clear()
    before = _draw(sys, cand, cert, 1)
    edited_sys = dataclasses.replace(sys, A=[[-2.0]])
    edited = _draw(edited_sys, cand, cert, 1)
    assert stability._covariance_pass.cache_info().misses == 2
    assert edited != before
    assert edited == _draw(edited_sys, cand, cert, 1, _oracle_check)
    edited_cand = dataclasses.replace(cand, P0=np.array([[0.02]]))
    _draw(edited_sys, edited_cand, certify(edited_sys, edited_cand, cert.params, cert.mu), 1)
    assert stability._covariance_pass.cache_info().misses == 3
    # a rebuilt observer computes its own pass, with the same bits; the
    # objects first drawn on are still served from the memo
    rebuilt = dataclasses.replace(sys, A=[[-1.0]]), dataclasses.replace(cand, P0=[[0.01]])
    assert _draw(*rebuilt, cert, 1) == before
    assert _draw(sys, cand, cert, 1) == before
    info = stability._covariance_pass.cache_info()
    assert (info.misses, info.hits) == (4, 1)


def test_the_cached_gains_are_read_only(ct_observer):
    sys, cand, _ = ct_observer
    cov = stability._covariance_pass(sys, cand, 1e-3, 10)
    assert cov.gains.size and not cov.gains.flags.writeable
    with pytest.raises(ValueError):
        cov.gains[0, 0, 0] = 1.0


def test_a_singular_start_takes_only_a_zero_initial_error():
    # certify skips a singular P0, which has no V0 = e0' P0^-1 e0 for e0 != 0;
    # at P0 = 0 the envelope starts at 0
    sys = LinearSystem(A=np.diag([-1.0, -2.0]), C=[[1.0, 1.0]], Q=np.eye(2), R=[[1.0]],
                       D=[[1.0]], mode="continuous")
    params = BoundParams(lambda1=[-1.0], lambda2=[-1.0], gamma1=[0.1], gamma2=[1.0],
                         sigma0=[0.5], epsilon0=[0.5], mode="ct")
    cand = CertificateCandidate(W=[[1.0]], U=[[2.0]], alpha=0.5, Gamma2=[[1.0]],
                                P0=np.zeros((2, 2)))
    cert = certify(sys, cand, params, mu=0.3)
    read = []

    def d_signal(t):
        read.append(t)
        return np.zeros(1)

    with pytest.raises(InputDomainError, match="P0 is singular"):
        bound_trajectory_check(sys, cand, cert, d_signal, horizon=0.1, e0=np.array([0.1, 0.0]))
    assert read == []
    rep = bound_trajectory_check(sys, cand, cert, d_signal, horizon=0.1)
    assert rep.samples == 101 and rep.final_error_norm == 0.0


def test_a_singular_discrete_start_is_skipped_as_a_continuous_one(dt_observer):
    # eps_cov is taken over the swept filtered covariances only: the
    # singular one at P0 = 0, which has no inverse, is skipped with the start
    sys, cand, cert = dt_observer
    zero = dataclasses.replace(cand, P0=np.zeros((1, 1)))
    cert0 = certify(sys, zero, cert.params, mu=cert.mu)
    assert [where for where, _ in cert0.checkpoints] == [1, 2, 3, 4, 5, 6, 8, 10, 11]
    assert cert0.c1 == pytest.approx(2.2906, abs=1e-4)
    d = np.random.default_rng(23).uniform(-cert.mu, cert.mu, 2001)
    rep = assert_matches_oracle(sys, zero, cert0, lambda k: np.array([d[k]]), horizon=2000)
    assert rep.samples == 2001 and 0.0 < rep.max_ratio < 1.0
    swept = sweep_candidates(sys, cert.params, cert.mu, cert.alpha, P0=[[0.0]])
    assert [where for where, _ in swept.checkpoints] == [1, 2, 3, 4, 5, 6, 8, 10, 11]


# the horizon and dt, checked at entry

@pytest.mark.parametrize("mode, kwargs, message", [
    ("discrete", dict(horizon=-5), "finite and nonnegative, got -5"),
    ("discrete", dict(horizon=2.7), "whole number of steps, got 2.7"),
    ("discrete", dict(horizon=math.nan), "finite and nonnegative, got nan"),
    ("discrete", dict(horizon=math.inf), "finite and nonnegative, got inf"),
    ("discrete", dict(horizon="ten"), "must be a number, got 'ten'"),
    ("discrete", dict(horizon="2"), "must be a number, got '2'"),
    ("continuous", dict(horizon=-0.5), "finite and nonnegative, got -0.5"),
    ("continuous", dict(horizon=math.nan), "finite and nonnegative, got nan"),
    ("continuous", dict(horizon=math.inf), "finite and nonnegative, got inf"),
    ("continuous", dict(horizon=1.0, dt=math.inf), "dt must be positive and finite, got inf"),
    ("continuous", dict(horizon=1.0, dt=math.nan), "dt must be positive and finite, got nan"),
    ("continuous", dict(horizon=1.0, dt=0.0), "dt must be positive and finite, got 0.0"),
    ("continuous", dict(horizon=1.0, dt=-1e-3), "dt must be positive and finite, got -0.001"),
    ("continuous", dict(horizon=1e308, dt=1e-3), "horizon / dt overflows"),
], ids=["dt-negative", "dt-fraction", "dt-nan", "dt-inf", "dt-string", "dt-numeric-string",
        "ct-negative", "ct-nan", "ct-inf", "ct-dt-inf", "ct-dt-nan", "ct-dt-zero",
        "ct-dt-negative", "ct-steps-overflow"])
def test_a_bad_horizon_or_dt_is_rejected_at_entry(mode, kwargs, message, dt_observer,
                                                  ct_observer):
    sys, cand, cert = dt_observer if mode == "discrete" else ct_observer
    read = []

    def d_signal(where):
        read.append(where)
        return np.zeros(1)

    with pytest.raises(ConfigurationError, match=re.escape(message)):
        bound_trajectory_check(sys, cand, cert, d_signal, e0=np.array([0.05]), **kwargs)
    assert read == []


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("e0", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_initial_error_is_rejected_at_entry(mode, e0, dt_observer, ct_observer):
    # before, nan failed the envelope check at step 0 and inf the error
    # system after it
    sys, cand, cert = dt_observer if mode == "discrete" else ct_observer
    read = []

    def d_signal(where):
        read.append(where)
        return np.zeros(1)

    with pytest.raises(InputDomainError, match=re.escape(f"e0 must be finite, got [{e0}]")):
        bound_trajectory_check(sys, cand, cert, d_signal, horizon=5 if mode == "discrete" else 0.01,
                               e0=np.array([e0]))
    assert read == []


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
@pytest.mark.parametrize("length", [0, 2])
def test_a_disturbance_of_the_wrong_length_is_rejected_by_name(mode, length, dt_observer,
                                                               ct_observer):
    # before, numpy's "shapes not aligned" ValueError came out of the step
    sys, cand, cert = dt_observer if mode == "discrete" else ct_observer
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"d_signal gave {length} values at 0, not m = 1")):
        bound_trajectory_check(sys, cand, cert, lambda where: np.zeros(length),
                               horizon=5 if mode == "discrete" else 0.01, e0=np.array([0.05]))


def test_a_whole_number_float_horizon_is_taken_as_its_steps(dt_observer):
    sys, cand, cert = dt_observer
    d = np.random.default_rng(24).uniform(-cert.mu, cert.mu, 51)
    reports = [bound_trajectory_check(sys, cand, cert, lambda k: np.array([d[k]]),
                                      horizon=h, e0=np.array([0.3])) for h in (50, 50.0)]
    assert reports[0] == reports[1] and reports[0].samples == 51
