import math
import warnings

import numpy as np
import pytest

from conftest import linear_model, paper_bound_params, robot_filter_p0
from isekf.errors import ConfigurationError, InputDomainError, NumericalFailure
from isekf.filters import (
    FilterState,
    NonlinearModel,
    check_covariance,
    ct_isekf_derivative,
    ct_isekf_integrate,
    dt_isekf_step,
    dt_predict,
    dt_update,
    ekf_step,
    jacobian_fd,
    sigma_gate_step,
    wrap_angle,
)
from isekf.saturation import BoundParams, SaturationState
from isekf.scenario import RobotInput, robot_model
from isekf.stability import LinearSystem, is_psd, solve_dare


def scalar_state(x, P, sigma=None, eps=1.0):
    sat = None if sigma is None else SaturationState([sigma], [eps])
    return FilterState(np.array([float(x)]), np.array([[float(P)]]), sat=sat)


def big_sigma_params(p=1):
    # decay parked near 1 so a 1e30 bound stays astronomically large
    return BoundParams(lambda1=[0.999] * p, lambda2=[0.999] * p,
                       gamma1=[1e-9] * p, gamma2=[1e-9] * p,
                       sigma0=[1e30] * p, epsilon0=[1.0] * p, mode="dt")


# ---------------------------------------------------------------------------
# jacobian_fd

def test_jacobian_fd_linear_exact(rng):
    M = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    np.testing.assert_allclose(jacobian_fd(lambda z: M @ z, x), M, atol=1e-8)


def test_jacobian_fd_sin():
    jac = jacobian_fd(lambda z: np.array([math.sin(z[0])]), np.array([0.0]))
    assert jac[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_jacobian_fd_robot_heading_column():
    model = robot_model(0.1, np.eye(3) * 1e-4, np.eye(3) * 0.01)
    u = np.array([1.0, 0.0])
    jac = jacobian_fd(lambda z: model.f(z, u), np.zeros(3))
    assert jac[0, 2] == pytest.approx(0.0, abs=1e-9)   # -eta T sin(0)
    assert jac[1, 2] == pytest.approx(0.1, abs=1e-9)   # eta T cos(0)


def test_jacobian_fd_nonfinite():
    with pytest.raises(NumericalFailure):
        jacobian_fd(lambda z: np.array([1.0 / z[0]]), np.array([0.0]), h_rel=1.0)


# ---------------------------------------------------------------------------
# discrete-time steps

def test_dt_predict_identity():
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    out = dt_predict(m, scalar_state(3.0, 1.0))
    assert out.x_hat[0] == 3.0 and out.P[0, 0] == 1.0


def test_dt_predict_scalar_arithmetic():
    m = linear_model([[2.0]], [[1.0]], [[1.0]], [[1.0]])
    out = dt_predict(m, scalar_state(1.0, 1.0))
    assert out.x_hat[0] == pytest.approx(2.0)
    assert out.P[0, 0] == pytest.approx(5.0)   # 2*1*2 + 1


def test_dt_predict_robot():
    model = robot_model(0.1, np.eye(3) * 1e-6, np.eye(3) * 0.01)
    st = FilterState(np.zeros(3), np.eye(3))
    out = dt_predict(model, st, u=np.array([1.0, 0.0]))
    np.testing.assert_allclose(out.x_hat, [0.1, 0.0, 0.0], atol=1e-15)


def test_dt_predict_nonfinite_state_map():
    m = NonlinearModel(f=lambda x, u=None: np.array([float("inf")]),
                       h=lambda x: x, Q=[[0.0]], R=[[1.0]], n=1, p=1,
                       jac_f=lambda x, u=None: np.eye(1), jac_h=lambda x: np.eye(1))
    with pytest.raises(NumericalFailure):
        dt_predict(m, scalar_state(0.0, 1.0))


def test_dt_update_scalar_saturated():
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    p = BoundParams(lambda1=[0.5], lambda2=[0.5], gamma1=[1.0], gamma2=[1.0],
                    sigma0=[1.0], epsilon0=[1.0], mode="dt")
    out = dt_update(m, scalar_state(0.0, 1.0, sigma=1.0), np.array([3.0]), p)
    assert out.x_hat[0] == pytest.approx(0.5)   # K=0.5, clipped innovation 1
    assert out.P[0, 0] == pytest.approx(0.5)


def test_dt_update_zero_innovation():
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    p = big_sigma_params()
    out = dt_update(m, scalar_state(2.0, 1.0, sigma=1e30), np.array([2.0]), p)
    assert out.x_hat[0] == 2.0
    assert out.P[0, 0] == pytest.approx(0.5)


def test_dt_update_huge_bound_equals_ekf(rng):
    m = linear_model([[0.9]], [[1.0]], [[0.1]], [[0.2]])
    p = big_sigma_params()
    for _ in range(20):
        x = rng.standard_normal()
        y = np.array([rng.standard_normal() * 3.0])
        sat_out = dt_update(m, scalar_state(x, 1.0, sigma=1e30), y, p)
        ekf_out = dt_update(m, scalar_state(x, 1.0), y)
        assert abs(sat_out.x_hat[0] - ekf_out.x_hat[0]) <= 1e-12 * (1 + abs(ekf_out.x_hat[0]))


def test_dt_update_requires_params_for_saturated_state():
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    with pytest.raises(ConfigurationError):
        dt_update(m, scalar_state(0.0, 1.0, sigma=1.0), np.array([1.0]))


def test_innovation_covariance_failure_reports_conditioning():
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    st = FilterState(np.array([0.0]), np.array([[-2.0]]))  # S = -1: not PD
    with pytest.raises(NumericalFailure):
        dt_update(m, st, np.array([1.0]))


def test_non_finite_innovation_covariance_is_a_numerical_failure():
    # P and R are finite, but S = C P C^T + R overflows
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1e308]])
    st = FilterState(np.array([0.0]), np.array([[1e308]]))
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure, match="not finite"):
        dt_update(m, st, np.array([1.0]))


def test_a_non_finite_estimate_is_a_numerical_failure():
    # S and the gain are finite, but y - h(x) overflows to -inf
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    with pytest.raises(NumericalFailure, match="^update produced non-finite estimate$") as info:
        dt_update(m, scalar_state(1.5e308, 1.0), np.array([-1.5e308]))
    assert info.value.context.tolist() == [1.5e308]


def test_clip_level_underflow_is_a_numerical_failure():
    # the step whose bound recursion underflows sigma to 0 fails; it never
    # hands on a state that the entry check would then reject
    m = linear_model([[1.0]], [[1.0]], [[0.01]], [[1.0]])
    p = BoundParams(lambda1=[0.01], lambda2=[0.5], gamma1=[1.0], gamma2=[1.0],
                    sigma0=[1.0], epsilon0=[1e12], mode="dt")
    with pytest.raises(NumericalFailure, match="underflowed"):
        dt_isekf_step(m, scalar_state(0.0, 1.0, sigma=5e-324, eps=1e12), np.array([0.0]), p)
    with pytest.raises(InputDomainError, match="sigma must be strictly positive"):
        dt_isekf_step(m, scalar_state(0.0, 1.0, sigma=0.0, eps=1e12), np.array([0.0]), p)


def test_dt_isekf_step_matches_ekf_without_clipping(rng):
    m = linear_model([[0.95]], [[1.0]], [[0.05]], [[0.5]])
    p = big_sigma_params()
    st_sat = scalar_state(0.3, 1.0, sigma=1e30)
    st_ekf = scalar_state(0.3, 1.0)
    for _ in range(100):
        y = np.array([rng.standard_normal()])
        st_sat = dt_isekf_step(m, st_sat, y, p)
        st_ekf = ekf_step(m, st_ekf, y)
        assert abs(st_sat.x_hat[0] - st_ekf.x_hat[0]) <= 1e-12 * (1 + abs(st_ekf.x_hat[0]))
        assert abs(st_sat.P[0, 0] - st_ekf.P[0, 0]) <= 1e-12 * (1 + st_ekf.P[0, 0])


def test_dt_isekf_step_correction_bounded_under_outlier():
    m = linear_model([[1.0]], [[1.0]], [[0.01]], [[1.0]])
    p = BoundParams(lambda1=[0.5], lambda2=[0.1], gamma1=[1.0], gamma2=[1.0],
                    sigma0=[4.0], epsilon0=[1.0], mode="dt")
    st = scalar_state(0.0, 1.0, sigma=4.0)
    for _ in range(60):
        pred = dt_predict(m, st)
        K = pred.P[0, 0] / (pred.P[0, 0] + 1.0)
        bound = K * math.sqrt(pred.sat.sigma[0])
        new = dt_update(m, pred, np.array([st.x_hat[0] + 100.0]), p)
        assert abs(new.x_hat[0] - pred.x_hat[0]) <= bound + 1e-12
        st = new


def test_dt_isekf_step_fuzz_finite(rng):
    m = linear_model([[1.0]], [[1.0]], [[0.01]], [[1.0]])
    p = BoundParams(lambda1=[0.5], lambda2=[0.1], gamma1=[1.0], gamma2=[1.0],
                    sigma0=[1.0], epsilon0=[1.0], mode="dt")
    st = scalar_state(0.0, 1.0, sigma=1.0)
    ys = rng.standard_normal(10000) * 50.0
    for y in ys:
        st = dt_isekf_step(m, st, np.array([y]), p)
        assert np.isfinite(st.x_hat[0]) and np.isfinite(st.P[0, 0])
        assert st.sat.sigma[0] > 0 and st.sat.epsilon[0] > 0


def test_ekf_step_gain_converges_to_dare(rng):
    A, C, Q, R = 0.9, 1.0, 0.3, 0.5
    sys = LinearSystem(A=[[A]], C=[[C]], Q=[[Q]], R=[[R]], D=[[0.0]], mode="discrete")
    P_inf = solve_dare(sys)[0, 0]
    K_star = P_inf * C / (C * P_inf * C + R)
    m = linear_model([[A]], [[C]], [[Q]], [[R]])
    st = scalar_state(0.0, 2.0)
    for _ in range(200):
        pred = dt_predict(m, st)
        st = dt_update(m, pred, np.array([rng.standard_normal()]))
    K_now = pred.P[0, 0] * C / (C * pred.P[0, 0] * C + R)
    assert abs(K_now - K_star) < 1e-10


def test_ekf_noise_free_error_vanishes():
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    st = scalar_state(1.0, 1.0)
    truth = 0.0
    for _ in range(5000):
        st = ekf_step(m, st, np.array([truth]))
    assert abs(st.x_hat[0] - truth) < 1e-3


def test_sigma_gate_examples(rng):
    # gate inactive: identical to the plain step
    m = linear_model([[0.9]], [[1.0]], [[0.1]], [[1.0]])
    st = scalar_state(0.0, 1.0)
    y = np.array([0.2])
    out_gate = sigma_gate_step(m, st, y, ell=3.0)
    out_ekf = ekf_step(m, st, y)
    np.testing.assert_array_equal(out_gate.x_hat, out_ekf.x_hat)

    # S = 4 (P=3 pred has A P A = 2.43 + 0.1... build directly): use A=1,Q=0,P=3,R=1
    m2 = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    st2 = scalar_state(0.0, 3.0)
    out = sigma_gate_step(m2, st2, np.array([7.0]), ell=3.0)   # |7| > 3*2
    assert out.x_hat[0] == 0.0
    out = sigma_gate_step(m2, st2, np.array([5.9]), ell=3.0)   # 5.9 < 6 passes
    assert out.x_hat[0] == pytest.approx(0.75 * 5.9)


def test_sigma_gate_requires_positive_ell():
    m = linear_model([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    with pytest.raises(ConfigurationError):
        sigma_gate_step(m, scalar_state(0.0, 1.0), np.array([0.0]), ell=0.0)


def test_covariance_recursion_shared_across_filters(rng):
    # on a linear model the P recursion is data-independent and identical
    # for all three filters
    m = linear_model([[0.9, 0.1], [0.0, 0.8]], [[1.0, 0.0]], 0.1 * np.eye(2), [[0.4]])
    p = big_sigma_params()
    sat0 = SaturationState([1e30], [1.0])
    st_is = FilterState(np.zeros(2), np.eye(2), sat=sat0)
    st_ek = FilterState(np.zeros(2), np.eye(2))
    st_gt = FilterState(np.zeros(2), np.eye(2))
    for _ in range(50):
        y = np.array([rng.standard_normal() * 10])
        st_is = dt_isekf_step(m, st_is, y, p)
        st_ek = ekf_step(m, st_ek, y)
        st_gt = sigma_gate_step(m, st_gt, y, ell=3.0)
        np.testing.assert_allclose(st_is.P, st_ek.P, rtol=0, atol=1e-14)
        np.testing.assert_allclose(st_gt.P, st_ek.P, rtol=0, atol=1e-14)


def test_robot_covariance_stays_symmetric_psd(rng):
    model = robot_model(0.1, np.diag([1e-4, 1e-4, 1e-6]), np.diag([0.25, 0.25, 1e-4]))
    p = paper_bound_params()
    st = FilterState(np.zeros(3), robot_filter_p0(), sat=p.initial_state())
    for k in range(10000):
        u = np.array([1.0, 0.1 * math.sin(0.02 * k)])
        y = st.x_hat + rng.standard_normal(3) * np.array([2.0, 2.0, 0.3])
        st = dt_isekf_step(model, st, y, p, u=u)
        if k % 200 == 0:
            check_covariance(st.P)
    check_covariance(st.P)


@pytest.mark.parametrize("Q, R, name", [([[np.nan]], [[1.0]], "Q"), ([[1.0]], [[np.inf]], "R")])
def test_model_rejects_non_finite_noise_covariances(Q, R, name):
    # LAPACK potrf factors an inf R without an error
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite$"):
        linear_model([[1.0]], [[1.0]], Q, R)


def test_psd_checks_hold_near_the_float_limit():
    # a tolerance scaled by the norm overflows to -inf here and accepts any
    # eigenvalue; the eigenvalue -1e300 is far outside 1e-9 * 1e308
    M = np.diag([1e308, -1e300])
    with pytest.raises(NumericalFailure, match="not PSD"):
        check_covariance(M)
    assert check_covariance(np.diag([1e308, 0.0])) == 0.0
    with pytest.raises(ConfigurationError, match="Q must be positive semidefinite"):
        linear_model(np.eye(2), np.eye(2), M, np.eye(2))
    with pytest.raises(ConfigurationError, match="Q must be positive semidefinite"):
        LinearSystem(A=np.eye(2), C=np.eye(2), Q=M, R=np.eye(2), D=np.zeros((2, 1)),
                     mode="discrete")
    # finite entries whose Frobenius norm overflows to inf: a scale taken
    # from that norm accepts the eigenvalue -1e199
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_psd(np.diag([1e200, -1e199]))


# ---------------------------------------------------------------------------
# continuous time

def ct_params(**kw):
    base = dict(lambda1=[-1.0], lambda2=[-1.0], gamma1=[1e-12], gamma2=[1.0],
                sigma0=[1e30], epsilon0=[1.0], mode="ct")
    base.update(kw)
    return BoundParams(**base)


def test_ct_derivative_zero_innovation():
    m = linear_model([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    st = scalar_state(2.0, 1.0, sigma=1.0)
    x_dot, P_dot, s_dot, e_dot = ct_isekf_derivative(m, st, np.array([2.0]), ct_params())
    assert x_dot[0] == pytest.approx(1.0)   # f(x) = 0.5*2


def test_ct_derivative_riccati_stationary():
    m = linear_model([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    st = scalar_state(0.0, 1.0, sigma=1.0)
    _, P_dot, _, _ = ct_isekf_derivative(m, st, np.array([0.0]), ct_params())
    assert P_dot[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_ct_derivative_gain():
    m = linear_model([[0.0]], [[1.0]], [[1.0]], [[4.0]])
    st = scalar_state(0.0, 2.0, sigma=1.0)
    x_dot, _, _, _ = ct_isekf_derivative(m, st, np.array([1.0]), ct_params())
    assert x_dot[0] == pytest.approx(0.5 * 1.0)   # K = P C / R = 0.5


def test_a_non_finite_derivative_is_a_numerical_failure():
    # f, h, the gain and x_dot are finite, but A P overflows in P_dot
    m = linear_model([[1e200]], [[1.0]], [[1.0]], [[1.0]])
    st = scalar_state(0.0, 1e200, sigma=1.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalFailure, match="^derivative evaluation non-finite$") as info:
        ct_isekf_derivative(m, st, np.array([0.0]), ct_params())
    assert info.value.context.tolist() == [0.0]


def test_ct_integrate_equilibrium():
    m = NonlinearModel(f=lambda x, u=None: np.zeros(1), h=lambda x: x.copy(),
                       Q=[[0.0]], R=[[1.0]], n=1, p=1,
                       jac_f=lambda x, u=None: np.zeros((1, 1)), jac_h=lambda x: np.eye(1))
    st = scalar_state(1.5, 0.0, sigma=1.0)
    traj = ct_isekf_integrate(m, st, lambda t: np.array([1.5]), 0.01, 1.0, ct_params())
    assert traj[-1].x_hat[0] == pytest.approx(1.5, abs=1e-12)


def test_ct_integrate_matches_closed_form_riccati():
    # a = 0, q = r = 1, P(0) = 0: P(t) = tanh(t)
    m = linear_model([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    st = scalar_state(0.0, 0.0, sigma=1e30)
    traj = ct_isekf_integrate(m, st, lambda t: np.array([0.0]), 1e-3, 5.0, ct_params())
    for fs in traj[::500]:
        assert abs(fs.P[0, 0] - math.tanh(fs.t)) < 1e-6


def _clipping_setup():
    a, c, q, r = -0.4, 1.0, 0.02, 0.5
    m = linear_model([[a]], [[c]], [[q]], [[r]])
    params = BoundParams(lambda1=[-0.8], lambda2=[-1.5], gamma1=[0.6], gamma2=[0.9],
                         sigma0=[0.04], epsilon0=[0.3], mode="ct")
    st = FilterState(np.array([0.0]), np.array([[0.2]]),
                     sat=SaturationState([0.04], [0.3]))

    def y_of(t):
        d = 3.0 if 0.8 <= t < 1.2 else 0.0
        return np.array([math.exp(a * t) + d])

    return m, params, st, y_of


def test_ct_integrate_endpoint_is_pinned():
    # the clipping run's endpoint, bit for bit, over the shared
    # continuous-time core
    m, params, st, y_of = _clipping_setup()
    end = ct_isekf_integrate(m, st, y_of, 1e-3, 2.0, params)[-1]
    assert (end.x_hat[0], end.P[0, 0], end.sat.sigma[0], end.sat.epsilon[0]) == (
        0.07498306904812015, 0.04580058039062151, 0.1590725871955267, 1.2025211404060772)


def _ct_failure_case(case):
    """(params, y_of) of the clipping setup, broken as case says."""
    _, params, _, y_of = _clipping_setup()
    if case == "dt-mode params":
        params = BoundParams(lambda1=[0.5], lambda2=[0.5], gamma1=[0.6], gamma2=[0.9],
                             sigma0=[0.04], epsilon0=[0.3], mode="dt")
    elif case == "channel mismatch":
        params = BoundParams(lambda1=[-0.8, -0.8], lambda2=[-1.5, -1.5], gamma1=[0.6],
                             gamma2=[0.9], sigma0=[0.04], epsilon0=[0.3], mode="ct")
    elif case == "nan sample":
        return params, lambda t: np.array([math.nan]) if t >= 0.05 else y_of(t)
    elif case == "bound map overflow":
        return params, lambda t: np.array([1e200])
    elif case == "y of length 2":
        return params, lambda t: np.repeat(y_of(t), 2)
    elif case == "y shaped (1, 1)":
        return params, lambda t: y_of(t).reshape(1, 1)
    return params, y_of


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case, error", [
    ("dt-mode params", ConfigurationError),
    ("channel mismatch", ConfigurationError),
    ("nan sample", InputDomainError),
    ("bound map overflow", NumericalFailure),
    ("y of length 2", ConfigurationError),
    ("y shaped (1, 1)", ConfigurationError),
])
@pytest.mark.parametrize("entry", ["derivative", "integrate"])
def test_ct_entry_points_raise_named_errors(entry, case, error):
    m, _, st, _ = _clipping_setup()
    params, y_of = _ct_failure_case(case)
    with pytest.raises(error):
        if entry == "derivative":
            ct_isekf_derivative(m, st, y_of(0.1), params)
        else:
            ct_isekf_integrate(m, st, y_of, 1e-2, 0.2, params)


_DT_STEPS = {
    "dt_update": lambda m, st, y, params, u: dt_update(m, st, y),
    "dt_isekf_step": lambda m, st, y, params, u: dt_isekf_step(m, st, y, params, u),
    "ekf_step": lambda m, st, y, params, u: ekf_step(m, st, y, u),
    "sigma_gate_step": lambda m, st, y, params, u: sigma_gate_step(m, st, y, 3.0, u),
}


@pytest.mark.parametrize("y, error", [
    (np.array([math.nan, 0.0, 0.0]), InputDomainError),
    (np.zeros(2), ConfigurationError),
    (np.zeros((3, 1)), ConfigurationError),
], ids=["nan", "length-2", "shaped-(3, 1)"])
@pytest.mark.parametrize("step", list(_DT_STEPS))
def test_dt_entry_points_raise_named_errors(step, y, error):
    # every discrete step that takes a measurement checks it at entry, named
    # after the step
    m = robot_model(0.1, np.eye(3) * 1e-4, np.eye(3) * 0.01)
    params = paper_bound_params()
    sat = params.initial_state() if step == "dt_isekf_step" else None
    st = FilterState(np.zeros(3), robot_filter_p0(), sat=sat)
    with pytest.raises(error, match=step):
        _DT_STEPS[step](m, st, y, params, np.array([1.0, 0.0]))


def test_ct_entry_points_take_a_scalar_measurement_of_one_channel():
    # a scalar broadcasts against h(x) to the one channel, as a (1,) array
    m, params, st, y_of = _clipping_setup()
    for a, b in zip(ct_isekf_derivative(m, st, y_of(0.9)[0], params),
                    ct_isekf_derivative(m, st, y_of(0.9), params)):
        assert a.shape == b.shape and (a == b).all()
    ends = [ct_isekf_integrate(m, st, y, 1e-2, 0.2, params)[-1]
            for y in (lambda t: y_of(t)[0], y_of)]
    assert ends[0].x_hat == ends[1].x_hat and ends[0].sat.sigma == ends[1].sat.sigma


def test_ct_integrate_self_convergence():
    # halving dt at least halves the terminal difference vs a dt/10 reference
    m, params, st, y_of = _clipping_setup()
    T = 2.0
    fine = ct_isekf_integrate(m, st, y_of, 2e-3, T, params)[-1]
    coarse = ct_isekf_integrate(m, st, y_of, 2e-2, T, params)[-1]
    half = ct_isekf_integrate(m, st, y_of, 1e-2, T, params)[-1]
    d_coarse = abs(coarse.x_hat[0] - fine.x_hat[0]) + abs(coarse.P[0, 0] - fine.P[0, 0])
    d_half = abs(half.x_hat[0] - fine.x_hat[0]) + abs(half.P[0, 0] - fine.P[0, 0])
    assert d_half <= 0.55 * d_coarse


def test_dt_euler_converges_to_ct_trajectory():
    # a DT filter from Euler discretization approaches the CT trajectory
    # at first order in the step size
    m, params, st0, y_of = _clipping_setup()
    a, c, q, r = -0.4, 1.0, 0.02, 0.5
    T = 2.0
    ref = ct_isekf_integrate(m, st0, y_of, 2.5e-4, T, params)[-1]

    def dt_run(delta):
        n_steps = int(round(T / delta))
        md = linear_model([[1.0 + delta * a]], [[c]], [[q * delta]], [[r / delta]])
        pd = BoundParams(lambda1=[1.0 - delta * 0.8], lambda2=[1.0 - delta * 1.5],
                         gamma1=[delta * 0.6], gamma2=[delta * 0.9],
                         sigma0=[0.04], epsilon0=[0.3], mode="dt")
        st = FilterState(np.array([0.0]), np.array([[0.2]]),
                         sat=SaturationState([0.04], [0.3]))
        for k in range(n_steps):
            st = dt_isekf_step(md, st, y_of(k * delta), pd)
        return st

    d3 = abs(dt_run(1e-3).x_hat[0] - ref.x_hat[0])
    d4 = abs(dt_run(1e-4).x_hat[0] - ref.x_hat[0])
    assert d4 < d3                                   # converging
    assert math.log10(d3 / d4) >= 0.9                # observed order >= ~1


def test_missing_jacobians_fall_back_to_finite_differences():
    T = 0.1
    analytic = robot_model(T, np.eye(3) * 1e-4, np.eye(3) * 0.01)
    fd = NonlinearModel(f=analytic.f, h=analytic.h, Q=analytic.Q, R=analytic.R,
                        n=3, p=3, angle_channels=(2,))
    st_a = FilterState(np.array([0.1, -0.2, 0.4]), 0.05 * np.eye(3))
    st_f = FilterState(np.array([0.1, -0.2, 0.4]), 0.05 * np.eye(3))
    u = np.array([1.0, 0.3])
    y = np.array([0.15, -0.1, 0.5])
    out_a = ekf_step(analytic, st_a, y, u=u)
    out_f = ekf_step(fd, st_f, y, u=u)
    np.testing.assert_allclose(out_f.x_hat, out_a.x_hat, atol=1e-8)
    np.testing.assert_allclose(out_f.P, out_a.P, atol=1e-8)


def test_wrap_angle_convention():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)


def test_angle_channel_wrap_in_update():
    # a 2 pi jump in the heading measurement is not an outlier
    model = robot_model(0.1, np.eye(3) * 1e-4, np.eye(3) * 1e-4)
    st = FilterState(np.array([0.0, 0.0, math.pi - 0.05]), np.eye(3) * 0.01)
    y = np.array([0.0, 0.0, -math.pi + 0.05])   # truth crossed the seam
    pred = dt_predict(model, st, u=np.array([0.0, 0.0]))
    innov = model.innovation(pred.x_hat, y)
    assert abs(innov[2]) < 0.2
