"""Saturated- and standard-EKF recursions over a shared nonlinear model.

Model maps take the state and an optional control input.  Discrete-time
steps are pure: each returns a new FilterState.  Linearization points
follow the recursion exactly: the state Jacobian is evaluated at the
filtered estimate, the measurement Jacobian at the predicted estimate
(continuous time: both at the current estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import ConfigurationError, NumericalFailure
from .saturation import (
    BoundParams,
    SaturationState,
    bound_rhs_ct,
    bound_step_dt,
    saturate_innovation,
)

# Positivity floor for sigma/epsilon during continuous-time integration.
_SAT_FLOOR = 1.0e-12


def wrap_angle(theta):
    """Wrap angle(s) into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


def jacobian_fd(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h_rel: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of fun at x.

    Per-coordinate step h_rel * max(1, |x_i|).  Exact for affine maps up
    to rounding."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        f0 = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise NumericalFailure("jacobian_fd: map evaluated to non-finite values", context=x)
    jac = np.empty((f0.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        step = h_rel * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        fp = np.asarray(fun(xp), dtype=float)
        fm = np.asarray(fun(xm), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise NumericalFailure("jacobian_fd: map evaluated to non-finite values", context=x)
        jac[:, i] = (fp - fm) / (2.0 * step)
    return jac


@dataclass
class NonlinearModel:
    """System description used by every filter.

    f(x, u) is the state map (dt: next state; ct: drift), h(x) the
    measurement map.  jac_f(x, u) and jac_h(x) may be omitted, in which
    case central differences are used.  Q is the process-noise covariance
    (symmetric PSD), R the measurement-noise covariance (symmetric PD).
    angle_channels lists measurement channels whose innovations are
    wrapped into (-pi, pi] before any further use.
    """

    f: Callable
    h: Callable
    Q: np.ndarray
    R: np.ndarray
    n: int
    p: int
    jac_f: Optional[Callable] = None
    jac_h: Optional[Callable] = None
    angle_channels: Sequence[int] = field(default_factory=tuple)

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.R = np.asarray(self.R, dtype=float)
        if self.Q.shape != (self.n, self.n):
            raise ConfigurationError(f"Q must be {self.n}x{self.n}, got {self.Q.shape}")
        if self.R.shape != (self.p, self.p):
            raise ConfigurationError(f"R must be {self.p}x{self.p}, got {self.R.shape}")
        if not np.allclose(self.Q, self.Q.T, atol=1e-12 * (1.0 + abs(self.Q).max())):
            raise ConfigurationError("Q must be symmetric")
        if not np.allclose(self.R, self.R.T, atol=1e-12 * (1.0 + abs(self.R).max())):
            raise ConfigurationError("R must be symmetric")
        if np.linalg.eigvalsh(self.Q).min() < -1e-10 * (1.0 + np.linalg.norm(self.Q)):
            raise ConfigurationError("Q must be positive semidefinite")
        try:
            cho_factor(self.R)
        except LinAlgError as exc:
            raise ConfigurationError("R must be positive definite") from exc
        self.angle_channels = tuple(int(i) for i in self.angle_channels)

    def f_at(self, x: np.ndarray, u=None) -> np.ndarray:
        out = np.asarray(self.f(x, u), dtype=float)
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("state map produced non-finite values", context=x)
        return out

    def h_at(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.h(x), dtype=float)
        if not np.all(np.isfinite(out)):
            raise NumericalFailure("measurement map produced non-finite values", context=x)
        return out

    def A_at(self, x: np.ndarray, u=None) -> np.ndarray:
        if self.jac_f is not None:
            return np.asarray(self.jac_f(x, u), dtype=float)
        return jacobian_fd(lambda z: self.f(z, u), x)

    def C_at(self, x: np.ndarray) -> np.ndarray:
        if self.jac_h is not None:
            return np.asarray(self.jac_h(x), dtype=float)
        return jacobian_fd(self.h, x)

    def innovation(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Raw innovation y - h(x), with angle channels wrapped."""
        innov = np.asarray(y, dtype=float) - self.h_at(x)
        for i in self.angle_channels:
            innov[i] = wrap_angle(innov[i])
        return innov


@dataclass(frozen=True)
class FilterState:
    """Estimate x_hat with covariance-like matrix P; saturated variants
    additionally carry the SaturationState.  k counts discrete steps,
    t is the continuous time."""

    x_hat: np.ndarray
    P: np.ndarray
    sat: Optional[SaturationState] = None
    k: int = 0
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, dtype=float))
        object.__setattr__(self, "P", np.asarray(self.P, dtype=float))


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def check_covariance(P: np.ndarray, tol_scale: float = 1e-9) -> float:
    """Assert P is symmetric PSD up to tol_scale*(1+||P||); returns the
    minimum eigenvalue."""
    if not np.allclose(P, P.T, atol=1e-9 * (1.0 + abs(P).max())):
        raise NumericalFailure("covariance lost symmetry", context=P)
    min_eig = float(np.linalg.eigvalsh(_symmetrize(P)).min())
    if min_eig < -tol_scale * (1.0 + np.linalg.norm(P)):
        raise NumericalFailure(f"covariance not PSD, min eigenvalue {min_eig:.3e}", context=P)
    return min_eig


def _innovation_gain(P: np.ndarray, C: np.ndarray, R: np.ndarray):
    """Gain K = P C^T S^{-1} and S = C P C^T + R via an SPD factorization."""
    S = _symmetrize(C @ P @ C.T + R)
    try:
        cf = cho_factor(S)
    except LinAlgError as exc:
        raise NumericalFailure(
            f"innovation covariance not factorizable (cond ~ {np.linalg.cond(S):.3e})",
            context=S,
        ) from exc
    K = cho_solve(cf, C @ P).T
    return K, S


def dt_predict(model: NonlinearModel, st: FilterState, u=None) -> FilterState:
    """Time update: x = f(x, u), P = A P A^T + Q with A at the filtered
    estimate.  The saturation state is unchanged."""
    A = model.A_at(st.x_hat, u)
    x_pred = model.f_at(st.x_hat, u)
    P_pred = _symmetrize(A @ st.P @ A.T + model.Q)
    return replace(st, x_hat=x_pred, P=P_pred, k=st.k + 1)


def _update(model: NonlinearModel, st: FilterState, y: np.ndarray, shape: Callable):
    """The measurement update every discrete-time filter shares.

    The estimate is corrected with shape(innov, S), the innovation policy
    applied to the raw innovation; the covariance update is
    P - K (C P C^T + R) K^T, then symmetrization.  Returns
    (x_new, P_new, raw innovation)."""
    C = model.C_at(st.x_hat)
    K, S = _innovation_gain(st.P, C, model.R)
    innov = model.innovation(st.x_hat, y)
    x_new = st.x_hat + K @ shape(innov, S)
    if not np.all(np.isfinite(x_new)):
        raise NumericalFailure("update produced non-finite estimate", context=st.x_hat)
    return x_new, _symmetrize(st.P - K @ S @ K.T), innov


def dt_update(
    model: NonlinearModel,
    st: FilterState,
    y: np.ndarray,
    params: Optional[BoundParams] = None,
) -> FilterState:
    """Measurement update on a predicted state.

    With a saturation state present, the estimate correction uses the
    clipped innovation while the bound recursion advances on the raw
    innovation.  Covariance update: P - K (C P C^T + R) K^T, then
    symmetrization.
    """
    if st.sat is None:
        x_new, P_new, _ = _update(model, st, y, lambda innov, S: innov)
        return replace(st, x_hat=x_new, P=P_new)
    if params is None:
        raise ConfigurationError("dt_update: BoundParams required for a saturated state")
    x_new, P_new, innov = _update(model, st, y, lambda innov, S: saturate_innovation(innov, st.sat))
    return replace(st, x_hat=x_new, P=P_new, sat=bound_step_dt(st.sat, innov, params))


def dt_isekf_step(
    model: NonlinearModel,
    st: FilterState,
    y: np.ndarray,
    params: BoundParams,
    u=None,
) -> FilterState:
    """One full saturated-EKF cycle: predict, correct with the clipped
    innovation, advance the bound recursion."""
    if st.sat is None:
        raise ConfigurationError("dt_isekf_step requires a state with a SaturationState")
    return dt_update(model, dt_predict(model, st, u), y, params)


def ekf_step(model: NonlinearModel, st: FilterState, y: np.ndarray, u=None) -> FilterState:
    """Standard EKF cycle (no innovation clipping)."""
    pred = dt_predict(model, replace(st, sat=None), u)
    return dt_update(model, pred, y)


def sigma_gate_step(
    model: NonlinearModel,
    st: FilterState,
    y: np.ndarray,
    ell: float = 3.0,
    u=None,
) -> FilterState:
    """EKF with per-channel innovation gating.

    Channel i of the innovation is zeroed when |innov_i| exceeds
    ell*sqrt(S_ii) with S = C P C^T + R; the update then proceeds as
    usual with the gated innovation."""
    if not ell > 0.0:
        raise ConfigurationError(f"ell must be positive, got {ell}")
    pred = dt_predict(model, replace(st, sat=None), u)

    def gate(innov, S):
        return np.where(np.abs(innov) > ell * np.sqrt(np.diag(S)), 0.0, innov)

    x_new, P_new, _ = _update(model, pred, y, gate)
    return replace(pred, x_hat=x_new, P=P_new)


def ct_isekf_derivative(
    model: NonlinearModel,
    st: FilterState,
    y: np.ndarray,
    params: BoundParams,
):
    """Right-hand side of the coupled continuous-time system.

    Returns (x_dot, P_dot, sigma_dot, eps_dot) with
    x_dot = f(x) + K sat(y - h(x)), K = P C^T R^{-1},
    P_dot = A P + P A^T + Q - K R K^T (returned symmetric)."""
    if st.sat is None:
        raise ConfigurationError("ct_isekf_derivative requires a SaturationState")
    A = model.A_at(st.x_hat)
    C = model.C_at(st.x_hat)
    try:
        cf = cho_factor(model.R)
    except LinAlgError as exc:
        raise NumericalFailure("R not factorizable", context=model.R) from exc
    K = cho_solve(cf, C @ st.P).T
    innov_raw = model.innovation(st.x_hat, y)
    innov_sat = saturate_innovation(innov_raw, st.sat)
    x_dot = model.f_at(st.x_hat) + K @ innov_sat
    P_dot = _symmetrize(A @ st.P + st.P @ A.T + model.Q - K @ model.R @ K.T)
    sigma_dot, eps_dot = bound_rhs_ct(st.sat, innov_raw, params)
    if not (np.all(np.isfinite(x_dot)) and np.all(np.isfinite(P_dot))):
        raise NumericalFailure("derivative evaluation non-finite", context=st.x_hat)
    return x_dot, P_dot, sigma_dot, eps_dot


def rk4_step(rhs: Callable, y: tuple, t: float, dt: float) -> tuple:
    """One classical RK4 step for a state held as a tuple of arrays;
    rhs(y, t) returns the derivatives as a tuple of the same shapes."""
    half = 0.5 * dt
    k1 = rhs(y, t)
    k2 = rhs(tuple(v + half * k for v, k in zip(y, k1)), t + half)
    k3 = rhs(tuple(v + half * k for v, k in zip(y, k2)), t + half)
    k4 = rhs(tuple(v + dt * k for v, k in zip(y, k3)), t + dt)
    return tuple(v + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for v, a, b, c, d in zip(y, k1, k2, k3, k4))


def _joint_rk4_step(rhs: Callable, y: tuple, t: float, dt: float) -> tuple:
    """RK4 step of a joint (estimate or error, P, sigma, epsilon) state:
    P is re-symmetrized and sigma/epsilon floored at _SAT_FLOOR."""
    x, P, sigma, epsilon = rk4_step(rhs, y, t, dt)
    return (x, _symmetrize(P), np.maximum(sigma, _SAT_FLOOR),
            np.maximum(epsilon, _SAT_FLOOR))


def ct_isekf_integrate(
    model: NonlinearModel,
    st: FilterState,
    y_provider: Callable[[float], np.ndarray],
    dt: float,
    horizon: float,
    params: BoundParams,
) -> list[FilterState]:
    """Integrate the coupled (x, P, sigma, eps) system with classical RK4.

    y_provider(t) is queried at the RK4 stage times; holding the value
    constant between samples is acceptable.  P is re-symmetrized and
    sigma/eps floored at 1e-12 after every step.  Returns the trajectory
    including the initial state."""
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if st.sat is None:
        raise ConfigurationError("ct_isekf_integrate requires a SaturationState")

    def rhs(joint, t: float):
        x_hat, P, sigma, epsilon = joint
        state = FilterState(x_hat=x_hat, P=P, sat=SaturationState(sigma, epsilon))
        return ct_isekf_derivative(model, state, np.asarray(y_provider(t), dtype=float), params)

    n_steps = int(round(horizon / dt))
    out = [replace(st, t=0.0)]
    joint = (st.x_hat, st.P, st.sat.sigma, st.sat.epsilon)
    for i in range(n_steps):
        t = i * dt
        joint = _joint_rk4_step(rhs, joint, t, dt)
        x_new, P_new, s_new, e_new = joint
        if not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(P_new))):
            raise NumericalFailure(f"integration step rejected at t={t + dt:.6g}",
                                   context=out[-1].x_hat)
        out.append(FilterState(x_hat=x_new, P=P_new, sat=SaturationState(s_new, e_new),
                               t=(i + 1) * dt))
    return out
