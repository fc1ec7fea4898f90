"""Property-based checks (hypothesis) of the algebraic invariants shared by
the filters and the bound checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from conftest import linear_model
from isekf import stability
from isekf.filters import (
    _SAT_FLOOR,
    FilterState,
    _innovation_gain,
    _rk4,
    _spd_solve,
    ct_isekf_integrate,
    ekf_step,
    sigma_gate_step,
)
from isekf.saturation import (
    BoundParams,
    SaturationState,
    saturate,
    saturate_innovation,
    saturate_vector,
)
from isekf.scenario import robot_model

finite = st.floats(allow_nan=False, allow_infinity=False)
channels = st.integers(1, 6)


@given(channels.flatmap(lambda p: st.tuples(
    st.lists(finite, min_size=p, max_size=p),
    st.lists(st.floats(0.0, 1e300), min_size=p, max_size=p),
    st.lists(st.floats(1e-300, 1e300), min_size=p, max_size=p),
)))
def test_vector_clips_equal_the_scalar_spec(case):
    r, bounds, sigma = case
    assert saturate_vector(np.array(r), np.array(bounds)).tolist() == \
        [saturate(ri, bi) for ri, bi in zip(r, bounds)]
    sat = SaturationState(sigma, np.ones(len(sigma)))
    assert saturate_innovation(np.array(r), sat).tolist() == \
        [saturate(ri, math.sqrt(si)) for ri, si in zip(r, sigma)]


coefficients = st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4)


@given(coefficients, coefficients, st.floats(-5.0, 5.0), st.floats(1e-3, 1.0))
def test_rk4_step_is_exact_for_a_cubic_in_t(a, b, t, dt):
    def cubic(c, s):
        return c[0] + c[1] * s + c[2] * s**2 + c[3] * s**3

    def integral(c, s):
        return c[0] * s + c[1] * s**2 / 2 + c[2] * s**3 / 3 + c[3] * s**4 / 4

    def rhs(z, s):
        return np.concatenate((cubic(a, s) * np.ones(2), cubic(b, s) * np.ones(4)))

    y0 = (np.array([1.0, -2.0]), np.eye(2))
    z1 = _rk4(rhs, np.concatenate(y0, axis=None), t, dt)
    y1 = (z1[:2], z1[2:].reshape(2, 2))
    for c, v0, v1 in zip((a, b), y0, y1):
        exact = v0 + (integral(c, t + dt) - integral(c, t))
        scale = 1.0 + sum(abs(ci) * 6.0**(i + 1) for i, ci in enumerate(c))
        np.testing.assert_allclose(v1, exact, rtol=0.0, atol=1e-12 * scale)


# decay rates and a step with |lambda| * dt up to 4, dt at most 1/2: past 2
# the RK4 stages of the faster channel undershoot zero, and near 1/2 it
# decays far below _SAT_FLOOR over 60 steps.  The cap on dt keeps RK4 on
# the covariance itself stable (at dt = 4 it diverges on both paths).
decay = st.floats(-200.0, -1.0)
step_factor = st.floats(0.01, 4.0)


def _step(lam1, lam2, factor):
    return min(factor / max(-lam1, -lam2), 0.5)


def _ct_params(lam1, lam2):
    return BoundParams(lambda1=[lam1], lambda2=[lam2], gamma1=[0.1], gamma2=[1.0],
                       sigma0=[0.5], epsilon0=[0.5], mode="ct")


@settings(deadline=None, max_examples=30)
@given(decay, decay, step_factor)
def test_ct_filter_keeps_sigma_and_eps_above_the_floor(lam1, lam2, factor):
    dt = _step(lam1, lam2, factor)
    model = linear_model([[-0.4]], [[1.0]], [[0.02]], [[0.5]])
    st0 = FilterState(np.zeros(1), np.array([[0.2]]), sat=SaturationState([0.5], [0.5]))
    traj = ct_isekf_integrate(model, st0, lambda t: np.zeros(1), dt, 60 * dt,
                              _ct_params(lam1, lam2))
    for fs in traj[1:]:
        assert fs.sat.sigma[0] >= _SAT_FLOOR and fs.sat.epsilon[0] >= _SAT_FLOOR


@pytest.fixture(scope="module")
def ct_certificate():
    sys = stability.LinearSystem(A=[[-1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]],
                                 mode="continuous")
    cand = stability.CertificateCandidate(W=[[1.0]], U=[[2.0]], alpha=0.5, Gamma2=[[1.0]],
                                          P0=[[0.01]])
    cert = stability.certify(sys, cand, _ct_params(-1.0, -1.0), mu=0.3)
    return sys, cand, cert


@settings(deadline=None, max_examples=30)
@given(decay, decay, step_factor)
def test_ct_bound_check_keeps_sigma_and_eps_above_the_floor(ct_certificate, lam1, lam2, factor):
    sys, cand, cert = ct_certificate
    # zero error and disturbance: the envelope holds trivially while the
    # bound state decays under the drawn rates
    cert = dataclasses.replace(cert, params=_ct_params(lam1, lam2))
    dt = _step(lam1, lam2, factor)
    steps = []
    step = stability._floored_rk4_step

    def recording_step(*args):
        steps.append(step(*args))
        return steps[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_floored_rk4_step", recording_step)
        stability.bound_trajectory_check(sys, cand, cert, lambda t: np.zeros(1),
                                         horizon=60 * dt, e0=np.zeros(1), dt=dt)
    assert len(steps) == 60
    for _, sigma, eps in steps:
        assert sigma >= _SAT_FLOOR and eps >= _SAT_FLOOR


@settings(deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=3),
       st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
       st.floats(1e-4, 10.0), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0))
def test_wide_gate_equals_the_plain_ekf_bit_for_bit(x, y, p_scale, eta, delta):
    model = robot_model(0.1, np.diag([1e-4, 1e-4, 1e-6]), np.diag([0.25, 0.25, 1e-4]))
    state = FilterState(np.array(x), p_scale * np.eye(3))
    u = np.array([eta, delta])
    gated = sigma_gate_step(model, state, np.array(y), ell=1e12, u=u)
    plain = ekf_step(model, state, np.array(y), u=u)
    assert np.array_equal(gated.x_hat, plain.x_hat)
    assert np.array_equal(gated.P, plain.P)


def _matrix(rows, cols):
    return st.lists(st.floats(-10.0, 10.0), min_size=rows * cols, max_size=rows * cols).map(
        lambda v: np.array(v).reshape(rows, cols))


def _spd(n):
    # L L^T plus a ridge: symmetric positive definite
    return _matrix(n, n).map(lambda L: L @ L.T + 0.1 * np.eye(n))


@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda dims: st.tuples(_spd(dims[0]), _matrix(dims[1], dims[0]), _spd(dims[1]))))
def test_innovation_gain_equals_scipy_cholesky_bit_for_bit(case):
    P, C, R = case
    M = C @ P @ C.T + R
    S_ref = 0.5 * (M + M.T)
    K_ref = cho_solve(cho_factor(S_ref), C @ P).T
    K, S = _innovation_gain(P, C, R)
    assert np.array_equal(S, S_ref)
    assert np.array_equal(K, K_ref)
    # the solve on its own, as ct_isekf_derivative uses it with R
    assert np.array_equal(_spd_solve(R, C, "R"), cho_solve(cho_factor(R), C))
