"""Property-based checks (hypothesis) of the algebraic invariants shared by
the filters and the bound checks."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.linalg import cho_factor, cho_solve, expm
from scipy.linalg.lapack import dpotrf, dpotrs

from conftest import linear_model
from isekf import stability
from isekf.errors import CertificationFailure, NumericalFailure
from isekf.filters import (
    _SAT_FLOOR,
    FilterState,
    NonlinearModel,
    _filter_step,
    _Lanes,
    _matvec,
    _innovation_gain,
    _rk4,
    _spd_inverse,
    _spd_solve,
    _wrap_float,
    ct_isekf_integrate,
    ekf_step,
    sigma_gate_step,
    wrap_angle,
)
from isekf.saturation import (
    BoundParams,
    SaturationState,
    _all_finite,
    _bound_map_core,
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


# bound states from 1e-12 to 1e12 with the edges of shaping_term's clamp;
# epsilon also at the least subnormal, across exp's underflow edge
# (exp(-eps) is subnormal from 708 and 0 from 746) and past the clamp up to
# 1.7e308, where the unclamped map must still give the clamped bits;
# innovations up to
# 1e150 in magnitude (squares up to 1e300)
bound_states = st.one_of(st.sampled_from([0.0, 1e12]), st.floats(1e-12, 1e12))
epsilons = st.one_of(bound_states, st.just(5e-324), st.floats(708.0, 746.0),
                     st.floats(1e12, 1.7e308, exclude_min=True))
innovations = st.one_of(st.sampled_from([0.0, 1e150, -1e150]), st.floats(-1e150, 1e150))


def _bound_map_case(shape):
    """sigma, eps, innov, lambda1, lambda2, gamma1, gamma2 of one shape."""
    lambdas, gammas = st.floats(-10.0, 10.0), st.floats(1e-3, 1e3)
    return st.tuples(*(arrays(float, shape, elements=elements) for elements in (
        bound_states, epsilons, innovations, lambdas, lambdas, gammas, gammas)))


# a state (p,) or a stack of them (L, p), p and L from 1 to 4
@given(st.tuples(st.sampled_from([(), (1,), (2,), (3,), (4,)]), st.integers(1, 4)).flatmap(
    lambda stack_p: _bound_map_case(stack_p[0] + (stack_p[1],))))
def test_the_stacked_bound_map_is_the_two_layer_formula_bit_for_bit(case):
    # one multiply-add on [sigma; eps] against each layer written out
    sigma, eps, innov, lambda1, lambda2, gamma1, gamma2 = case
    # |lambda2| * eps may overflow to inf on both sides
    with np.errstate(over="ignore"):
        clamped = np.minimum(np.maximum(eps, 0.0), 1e12)
        expected = np.concatenate((lambda1 * sigma + gamma1 * (clamped * np.exp(-clamped)),
                                   lambda2 * eps + gamma2 * innov**2), axis=-1)
        out = _bound_map_core(np.concatenate((sigma, eps), axis=-1), innov,
                              np.concatenate((lambda1, lambda2), axis=-1),
                              np.concatenate((gamma1, gamma2), axis=-1))
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


# entries at and past the edges of the finite floats
edge_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308,
                               5e-324]) | st.floats()


@given(st.one_of(
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
           elements=edge_floats),
    # (L, n, n) stacks, as the lanes' covariances
    st.tuples(st.integers(1, 60), st.integers(1, 3)).flatmap(
        lambda s: arrays(np.float64, (s[0], s[1], s[1]), elements=edge_floats)),
))
def test_the_finiteness_screen_equals_the_all_reduction(a):
    assert _all_finite(a) == bool(np.isfinite(a).all())


# odd multiples of pi up to 1e6, where wrap_angle's mod lands on its branch
# points, shifted by a few ulps or by up to 1e-12
odd_pi = st.integers(-159155, 159154).map(lambda j: (2 * j + 1) * math.pi)
angles = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.tau, -math.tau]),
    st.tuples(odd_pi, st.integers(-4, 4)).map(lambda c: c[0] + c[1] * math.ulp(c[0])),
    st.tuples(odd_pi, st.floats(-1e-12, 1e-12)).map(sum),
)


@given(angles)
def test_the_float_wrap_equals_wrap_angle_bit_for_bit(theta):
    # the heading recursion of simulate wraps Python floats with _wrap_float
    wrapped = _wrap_float(theta)
    assert type(wrapped) is float
    assert wrapped.hex() == float(wrap_angle(theta)).hex()


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


def _spd_stack(n, k):
    # a stack of 1-64 SPD n x n matrices and a matching stack of n x k right-hand sides
    return st.integers(1, 64).flatmap(lambda L: st.tuples(
        arrays(np.float64, (L, n, n), elements=st.floats(-10.0, 10.0)).map(
            lambda F: F @ F.swapaxes(-1, -2) + 0.1 * np.eye(n)),
        arrays(np.float64, (L, n, k), elements=st.floats(-10.0, 10.0))))


stacks = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda d: _spd_stack(*d))


@given(stacks)
def test_numpy_cholesky_factor_equals_lapack_potrf_bit_for_bit(case):
    M, _ = case
    U = np.linalg.cholesky(M, upper=True)
    for Ml, Ul in zip(M, U):
        c, info = dpotrf(Ml, lower=0, clean=1)
        assert info == 0
        assert np.array_equal(Ul, c)


@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda dims: st.tuples(_spd(dims[0]), _matrix(dims[1], dims[0]), _spd(dims[1]))))
def test_innovation_gain_agrees_with_scipy_cho_solve(case):
    def agree(X, X_ref, M):
        # 1e-12 relative up to cond(M) = 1e3; beyond, two stable solves
        # differ by O(cond(M) eps), so the tolerance grows with cond(M)
        tol = 1e-12 * max(1.0, np.linalg.cond(M) / 1e3)
        return np.abs(X - X_ref).max() <= tol * np.abs(X_ref).max()

    P, C, R = case
    M = C @ P @ C.T + R
    S_ref = 0.5 * (M + M.T)
    K, S, P_filt = _innovation_gain(P, C, R)
    assert np.array_equal(S, S_ref)
    F = P - K.dot(S).dot(K.T)
    assert np.array_equal(P_filt, 0.5 * (F + F.T))
    assert agree(K, cho_solve(cho_factor(S_ref), C @ P).T, S)
    # the solve on its own, as _spd_inverse uses it on R
    assert agree(_spd_solve(R, C, "R"), cho_solve(cho_factor(R), C), R)


@settings(deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda dims: st.tuples(_matrix(dims[0], dims[0]).map(lambda L: L @ L.T),
                           _matrix(dims[1], dims[0]), _spd(dims[1]))))
def test_the_continuous_gain_agrees_with_the_gain_solved_against_r(case):
    # every continuous-time gain is P (C^T R^-1), with the observer's one
    # R^-1; the gain the continuous-time filter solved against R at each
    # stage is the reference.  Two stable forms differ by O(cond(R) eps)
    # of the componentwise scale |P| |C^T| |R^-1|, and by a subnormal's
    # rounding below the smallest normal float
    P, C, R = case
    Rinv = _spd_inverse(R, "R")
    K = P.dot(C.T.dot(Rinv))
    K_ref = _spd_solve(R, C @ P, "R").T
    scale = (np.abs(P) @ np.abs(C.T) @ np.abs(Rinv)).max()
    tol = 1e-12 * max(1.0, np.linalg.cond(R) / 1e3)
    assert np.abs(K - K_ref).max() <= tol * scale + np.finfo(float).tiny


@given(_spd_stack(1, 4))
def test_scalar_spd_solve_equals_lapack_potrs_bit_for_bit(case):
    M, B = case
    for Ml, Bl in zip(M, B):
        c, _ = dpotrf(Ml, lower=0, clean=0)
        assert np.array_equal(_spd_solve(Ml, Bl, "M"), dpotrs(c, Bl, lower=0)[0])


@given(stacks)
def test_stacked_spd_solve_equals_the_2d_solve_slice_by_slice(case):
    M, B = case
    X = _spd_solve(M, B, "M")
    # _Lanes reads the stacked gain as X^T: C-contiguous, as each 2-D gain is
    assert X.swapaxes(-1, -2).flags.c_contiguous
    for Ml, Bl, Xl in zip(M, B, X):
        ref = _spd_solve(Ml, Bl, "M")
        assert np.array_equal(Xl, ref)
        assert ref.flags.f_contiguous and Xl.flags.f_contiguous
        assert Xl.strides == ref.strides


@settings(deadline=None, max_examples=60)
@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda dims: st.tuples(_matrix(dims[0], dims[0]), _matrix(dims[1], dims[0]),
                           _spd(dims[0]), _spd(dims[1]))))
# nearly nilpotent h M at the long steps (||h M||_1 up to 1.7e6), where an
# s chosen from ||h M||_1 lost 6.8e-6 relative over 19 squarings
@example((np.array([[2.0**-24]]), np.array([[2.0**-24]]), np.array([[4.1]]),
          np.array([[1.1]])))
def test_pade_expm_agrees_with_scipy_on_the_flow_hamiltonians(case):
    # every argument the Riccati flow from P0 = 0 hands _expm: h M at its
    # first step h and at each doubled h, for the Hamiltonian
    # M = [[-A^T, C^T R^-1 C], [Q, A]] of a regular system (the flow of
    # any other runs to its step cap)
    A, C, Q, R = case
    sys_ = stability.LinearSystem(A=A, C=C, Q=Q, R=R, D=np.zeros((C.shape[0], 1)),
                                  mode="continuous")
    assume(stability.is_stabilizable(sys_) and stability.is_detectable(sys_))
    with mock.patch.object(stability, "_expm", wraps=stability._expm) as spy:
        try:
            stability._care_flow(sys_, np.zeros_like(A))
        except CertificationFailure:
            # on a nearly undetectable system (||P|| >= 1e5) the stopping test
            # can lie below the residual's rounding floor, or a slow closed-loop
            # mode outlast the step cap; the exponentials taken are still checked
            pass
    assert spy.call_count >= 1
    for (hM,), _ in spy.call_args_list:
        E, E_ref = stability._expm(hM), expm(hM)
        # the forward error of a backward-stable exponential: a small multiple
        # of eps ||h M|| relative (at most 474 eps ||h M||_1 on 3,000 random
        # Hamiltonians with n, p <= 4 and entries up to 10)
        tol = 1e4 * np.finfo(float).eps * max(1.0, np.linalg.norm(hM, 1))
        assert np.linalg.norm(E - E_ref) <= tol * np.linalg.norm(E_ref)


# lanes of a stacked linear model (A = 2 I, C >= 2 entrywise) that start in
# a state where a step fails a check of _filter_step, from the model's
# parameters; a lane is saturated when its entry of `saturated` is true
def _lane_start(kind, n, p, x, P, y):
    """(x0, P0, y, bound params or None for the lane's own choice) of a lane kind."""
    tiny = BoundParams(mode="dt", lambda1=[0.01] * p, lambda2=[0.5] * p, gamma1=[0.1] * p,
                       gamma2=[0.1] * p, sigma0=[5e-324] * p, epsilon0=[5e-324] * p)
    return {
        "normal": (x, P, y, None),
        "f-overflow": (np.full(n, 1e308), P, y, None),              # 2e308
        "h-overflow": (np.full(n, 5e307), P, y, None),              # f finite, C x not
        "S-not-finite": (x, 1e308 * np.eye(n), y, None),            # A P A^T = 4e308
        "S-indefinite": (x, -1e3 * np.eye(n), y, None),
        "bound-overflow": (x, P, np.full(p, 1e200), "sat"),        # innov^2 overflows
        "sigma-underflow": (x, P, y, tiny),
    }[kind]


_LANE_KINDS = ["normal", "f-overflow", "h-overflow", "S-not-finite", "S-indefinite",
               "bound-overflow", "sigma-underflow"]


@settings(deadline=None, max_examples=60)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(lambda d: st.tuples(
    st.just(d),
    arrays(float, (d[1], d[0]), elements=st.floats(2.0, 10.0)),
    _spd(d[0]).map(lambda Q: 0.01 * Q), _spd(d[1]),
    st.lists(st.tuples(st.sampled_from(_LANE_KINDS), st.booleans(),
                       st.sampled_from([np.inf, 3.0]),
                       arrays(float, d[0], elements=st.floats(-10.0, 10.0)), _spd(d[0])),
             min_size=1, max_size=6),
    arrays(float, (3, 6, d[1]), elements=st.floats(-10.0, 10.0)))))
def test_the_lanes_equal_the_serial_core_failures_included(case):
    (n, p), C, Q, R, lanes, ys = case
    A = 2.0 * np.eye(n)
    model = NonlinearModel(f=lambda x, u=None: _matvec(A, x), h=lambda x: _matvec(C, x),
                           Q=Q, R=R, n=n, p=p, jac_f=lambda x, u=None: A, jac_h=lambda x: C)
    default = BoundParams(mode="dt", lambda1=[0.5] * p, lambda2=[0.5] * p, gamma1=[1.0] * p,
                          gamma2=[1.0] * p, sigma0=[4.0] * p, epsilon0=[1.0] * p)
    starts, params, ells = [], [], []
    for kind, saturated, ell, x, P in lanes:
        x0, P0, y_kind, bp = _lane_start(kind, n, p, x, P, None)
        starts.append((x0, P0, y_kind))
        params.append(bp if isinstance(bp, BoundParams)
                      else default if saturated or bp == "sat" else None)
        ells.append(ell)
    L = len(lanes)
    stack = _Lanes(model, [s[0] for s in starts], [s[1] for s in starts], ells, params)
    # the serial reference: lane l through _filter_step until it raises
    ref = [[s[0], s[1], None if bp is None else np.concatenate((bp.sigma0, bp.epsilon0)), None]
           for s, bp in zip(starts, params)]
    for k, y_step in enumerate(ys[:, :L], start=1):
        y = np.array([s[2] if s[2] is not None else y_step[l] for l, s in enumerate(starts)])
        failures = stack.step(y, None)
        for l, (bp, ell) in enumerate(zip(params, ells)):
            if ref[l][3] is not None:
                continue
            try:
                ref[l][:3] = _filter_step(model, ref[l][0], ref[l][1], y[l], None, ref[l][2],
                                          bp, ell)
            except NumericalFailure as exc:
                ref[l][3] = (k, type(exc), str(exc))
                assert l in failures
                assert (type(failures[l]), str(failures[l])) == ref[l][3][1:], l
            else:
                assert l not in failures
    for l, (x, P, sat, failed) in enumerate(ref):
        assert np.array_equal(stack.x[l], x) and np.array_equal(stack.P[l], P), l
        assert stack.live[l] == (failed is None)
        if sat is not None:
            row = stack.sat_rows.tolist().index(l)
            assert np.array_equal(stack.sat[row], sat)
