"""Saturated- and standard-EKF recursions over a shared nonlinear model.

Model maps take the state and an optional control input.  Discrete-time
steps are pure: each returns a new FilterState.  They check their inputs
once and run one array-level core (_predict, _correct, _sat_step) that
takes one filter or a stack: _filter_step runs it on one filter, _Lanes
on every filter of every seed of scenario.simulate at once.
Linearization points follow the recursion exactly: the state Jacobian is
evaluated at the filtered estimate, the measurement Jacobian at the
predicted estimate (continuous time: both at the current estimate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InputDomainError, NumericalFailure
from .saturation import (
    BoundParams,
    SaturationState,
    _all_finite,
    _bound_map_core,
    _bound_step,
    _clip,
    _read_only,
)
# The checked public forms of the cores above; bench/tracer.py wraps them
# under these names.
from .saturation import bound_rhs_ct, bound_step_dt, saturate_innovation  # noqa: F401

# Positivity floor for sigma/epsilon in every continuous-time RK4 stage and
# step.  A float64 0-d array: numpy converts a Python float operand on every
# call.
_SAT_FLOOR = np.array(1.0e-12)


def wrap_angle(theta):
    """Wrap angle(s) into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), 2.0 * np.pi)


def _wrap_float(theta: float) -> float:
    """wrap_angle of one Python float, with its bits: Python's float % and
    numpy's mod make the same fmod and sign correction, at a fraction of a
    numpy call's cost."""
    return math.pi - (math.pi - theta) % math.tau  # tau = 2 pi exactly


def jacobian_fd(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h_rel: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of fun at x.

    Per-coordinate step h_rel * max(1, |x_i|).  Exact for affine maps up
    to rounding."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        f0 = np.asarray(fun(x), dtype=float)
    if not _all_finite(f0):
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
        if not (_all_finite(fp) and _all_finite(fm)):
            raise NumericalFailure("jacobian_fd: map evaluated to non-finite values", context=x)
        jac[:, i] = (fp - fm) / (2.0 * step)
    return jac


def _require_finite(obj, names) -> None:
    """ConfigurationError naming the first of obj's matrices that holds a
    nan or inf entry."""
    for name in names:
        if not _all_finite(getattr(obj, name)):
            raise ConfigurationError(f"{name} must be finite")


def _require_symmetric(obj, names) -> None:
    """ConfigurationError naming the first of obj's matrices that is not
    square, or not symmetric up to 1e-12 * (1 + max |M_ij|)."""
    for name in names:
        M = getattr(obj, name)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ConfigurationError(f"{name} must be square, got shape {M.shape}")
        if not np.allclose(M, M.T, atol=1e-12 * (1.0 + abs(M).max())):
            raise ConfigurationError(f"{name} must be symmetric")


def _require_noise_covariances(obj) -> None:
    """ConfigurationError unless Q is symmetric PSD and R symmetric PD; sets obj.Rinv = R^-1."""
    _require_symmetric(obj, ("Q", "R"))
    if not _is_psd(obj.Q, 1e-10)[1]:
        raise ConfigurationError("Q must be positive semidefinite")
    try:
        object.__setattr__(obj, "Rinv", _read_only(_spd_inverse(obj.R, "R")))
    except NumericalFailure as exc:
        raise ConfigurationError("R must be positive definite") from exc


@dataclass(frozen=True, eq=False)
class NonlinearModel:
    """System description used by every filter.

    f(x, u) is the state map (dt: next state; ct: drift), h(x) the
    measurement map.  jac_f(x, u) and jac_h(x) may be omitted, in which
    case central differences are used.  Q is the process-noise covariance
    (symmetric PSD), R the measurement-noise covariance (symmetric PD),
    both stored as read-only copies; so is Rinv = R^-1, derived from R.
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
        object.__setattr__(self, "Q", _read_only(self.Q))
        object.__setattr__(self, "R", _read_only(self.R))
        if self.Q.shape != (self.n, self.n):
            raise ConfigurationError(f"Q must be {self.n}x{self.n}, got {self.Q.shape}")
        if self.R.shape != (self.p, self.p):
            raise ConfigurationError(f"R must be {self.p}x{self.p}, got {self.R.shape}")
        _require_finite(self, ("Q", "R"))
        _require_noise_covariances(self)
        object.__setattr__(self, "angle_channels", tuple(int(i) for i in self.angle_channels))

    def f_at(self, x: np.ndarray, u=None) -> np.ndarray:
        out = np.asarray(self.f(x, u), dtype=float)
        if not _all_finite(out):
            raise NumericalFailure("state map produced non-finite values", context=x)
        return out

    def h_at(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.h(x), dtype=float)
        if not _all_finite(out):
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
        return self.wrap_channels(np.asarray(y, dtype=float) - self.h_at(x))

    def wrap_channels(self, innov: np.ndarray) -> np.ndarray:
        """Wrap the angle channels of an innovation, or of a stack of them
        (channels last), in place; returns it."""
        for i in self.angle_channels:
            innov[..., i] = wrap_angle(innov[..., i])
        return innov


@dataclass(frozen=True, eq=False)
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
    """0.5 (P + P^T) of a matrix or of a stack of them (last two axes)."""
    return 0.5 * (P + P.swapaxes(-1, -2))


def _is_psd(M: np.ndarray, tol_scale: float):
    """(min eigenvalue, passed) of the PSD test on the symmetric part of M:
    the minimum eigenvalue is at least -tol_scale * (1 + max |M_ij|).  The
    scale cannot overflow for a finite M, and a non-finite eigenvalue
    fails.  A negative tol_scale asks for positive definiteness with that
    margin."""
    # halves first: M + M^T overflows for entries near the float limit
    min_eig = float(np.linalg.eigvalsh(0.5 * M + 0.5 * M.T).min())
    return min_eig, min_eig >= -tol_scale * (1.0 + abs(M).max())


def check_covariance(P: np.ndarray) -> float:
    """Assert P is symmetric PSD up to 1e-9*(1+max|P_ij|); returns the
    minimum eigenvalue."""
    if not np.allclose(P, P.T, atol=1e-9 * (1.0 + abs(P).max())):
        raise NumericalFailure("covariance lost symmetry", context=P)
    min_eig, psd = _is_psd(P, 1e-9)
    if not psd:
        raise NumericalFailure(f"covariance not PSD, min eigenvalue {min_eig:.3e}", context=P)
    return min_eig


def _spd_solve(M: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """M^{-1} B for a finite SPD M, or for stacks of M and B (last two axes):
    U^{-1} (U^{-T} B), U numpy's upper Cholesky factor (LAPACK potrf's bits).
    A stack gets the 2-D solve's bits slice by slice and potrs's layout: a
    Fortran-order X, so the gain X^T is C-contiguous.  Raises NumericalFailure
    when M is not positive definite."""
    try:
        U = np.linalg.cholesky(M, upper=True)
    except np.linalg.LinAlgError:
        raise NumericalFailure(f"{what} not factorizable (cond ~ {np.max(np.linalg.cond(M)):.3e})",
                               context=M) from None
    Ui = np.linalg.inv(U)
    X = np.matmul(Ui, np.matmul(Ui.swapaxes(-1, -2), B))
    return np.ascontiguousarray(X.swapaxes(-1, -2)).swapaxes(-1, -2)


def _spd_inverse(M: np.ndarray, what: str) -> np.ndarray:
    """Inverse of the symmetric part of a finite SPD matrix by _spd_solve, or NumericalFailure."""
    if not _all_finite(M):  # the Cholesky factor of nan or inf comes back without an error
        raise NumericalFailure(f"{what} not finite", context=M)
    # halves first, as in _is_psd: M + M^T overflows for entries near the float limit
    return _spd_solve(0.5 * M + 0.5 * M.T, np.eye(M.shape[0]), what)


def _innovation_gain(P: np.ndarray, C: np.ndarray, R: np.ndarray):
    """Gain K = P C^T S^{-1} via an SPD factorization, S = C P C^T + R, and
    the one filtered covariance P - K S K^T, symmetrized: (K, S, P_filt), of
    one filter or of a stack.

    Raises NumericalFailure when S is not finite or not positive definite."""
    CP = np.matmul(C, P)
    S = _symmetrize(np.matmul(CP, C.swapaxes(-1, -2)) + R)
    if not _all_finite(S):
        raise NumericalFailure("innovation covariance not finite", context=S)
    K = _spd_solve(S, CP, "innovation covariance").swapaxes(-1, -2)
    return K, S, _symmetrize(P - np.matmul(np.matmul(K, S), K.swapaxes(-1, -2)))


def _gated(innov, S, ell):
    """Zero channel i where |innov_i| > ell * sqrt(S_ii); innov and S may
    be stacks (channels last), ell a matching column of gate widths."""
    return np.where(np.abs(innov) > ell * np.sqrt(S.diagonal(0, -2, -1)), 0.0, innov)


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for a vector or a stack of vectors (and matrices); the BLAS call
    and so the bits are those of M.dot(v) on each."""
    return np.matmul(M, v[..., None])[..., 0]


def _predict(model: NonlinearModel, x: np.ndarray, P: np.ndarray, u):
    """Predict core: x = f(x, u), P = A P A^T + Q with A at x.  As
    _correct, it leaves floating-point warnings to its caller."""
    A = model.A_at(x, u)
    return model.f_at(x, u), _symmetrize(np.matmul(np.matmul(A, P), A.swapaxes(-1, -2)) + model.Q)


def _correct(model: NonlinearModel, x: np.ndarray, P: np.ndarray, y: np.ndarray, bound, ell):
    """Correct core that every discrete-time filter shares: (x, P, innov),
    the estimate corrected with _gated(_clip(innov, bound), S, ell), the
    filtered covariance and the raw innovation, which drives the bound map.
    A saturated filter clips at bound = sqrt(sigma), the gated EKF gates at
    ell; the policy a filter lacks is +inf, which leaves the innovation
    unchanged bit for bit."""
    C = model.C_at(x)
    K, S, P_new = _innovation_gain(P, C, model.R)
    innov = model.innovation(x, y)
    x_new = x + _matvec(K, _gated(_clip(innov, bound), S, ell))
    if not _all_finite(x_new):
        raise NumericalFailure("update produced non-finite estimate", context=x)
    return x_new, P_new, innov


def _sat_step(sat: np.ndarray, innov: np.ndarray, lam, gam) -> np.ndarray:
    """The discrete bound map on sat = [sigma; epsilon]: _bound_step, then
    a clip level that underflowed to 0 is a NumericalFailure, so no step
    hands on a state that the entry checks reject.  As _predict and
    _correct, it leaves floating-point warnings to its caller."""
    sat = _bound_step(sat, innov, lam, gam, "bound_step_dt")
    sigma = sat[..., :innov.shape[-1]]
    if np.count_nonzero(sigma > 0.0) != sigma.size:
        raise NumericalFailure("clip level sigma underflowed to 0", context=sigma)
    return sat


def _filter_step(model: NonlinearModel, x: np.ndarray, P: np.ndarray, y: np.ndarray, u,
                 sat=None, params: Optional[BoundParams] = None, ell: float = np.inf):
    """One predict + correct cycle of one filter on raw arrays, sat =
    [sigma; epsilon] or None; returns (x, P, sat).  The core of the public
    steps and of the lanes' re-run, and the lanes' reference.  It checks
    only what can fail per step (non-finite f, h, S or estimate, S not
    positive definite, bound-map overflow, sigma underflow: all
    NumericalFailure); the caller checks the inputs (_check_saturated).
    The whole step runs in one floating-point context."""
    with np.errstate(all="ignore"):
        x, P = _predict(model, x, P, u)
        bound = np.inf if sat is None else np.sqrt(sat[:model.p])
        x, P, innov = _correct(model, x, P, y, bound, ell)
        return x, P, None if sat is None else _sat_step(sat, innov, params.lam, params.gam)


class _Lanes:
    """Discrete-time filters stepped side by side along a lane axis.

    Lane l is one filter: estimate x[l], covariance P[l] and an innovation
    policy of a clip level and a gate width.  A saturated lane clips to
    bound[l] = sqrt(sigma) and advances its row of sat = [sigma; epsilon]
    through the bound map; a gated lane zeroes the channels beyond
    ell[l] * sqrt(S_ii).
    The policy a lane lacks is +inf, which leaves the innovation unchanged
    bit for bit, so a plain EKF lane has both at +inf.

    step runs _filter_step's core (_predict, _correct, _sat_step) once on
    the stack of live lanes, with _filter_step's bits lane by lane, in its
    caller's one floating-point context (simulate_seeds').  When
    that call raises (the core's NumericalFailure, or the stacked solve's
    LinAlgError), every live lane is re-run through _filter_step.  A lane
    whose re-run raises NumericalFailure leaves the stack and holds its
    last state; it never changes another lane.  The model maps must accept
    a stack of states (robot_model's do).
    """

    def __init__(self, model: NonlinearModel, x: np.ndarray, P: np.ndarray,
                 ell: np.ndarray, params: Sequence[Optional[BoundParams]]):
        """x (L, n) and P (L, n, n) start the lanes; ell (L,) holds the gate
        widths and params the bound parameters of each saturated lane (None
        elsewhere), checked by the caller (simulate_seeds: ScenarioConfig)."""
        self.model = model
        self.x = np.array(x, dtype=float)
        self.P = np.array(P, dtype=float)
        self.ell = np.array(ell, dtype=float)[:, None]
        self.params = list(params)
        self.live = np.ones(len(self.x), dtype=bool)
        self.sat_rows = np.array([l for l, bp in enumerate(params) if bp is not None], dtype=int)
        sat = [bp for bp in params if bp is not None]
        p = model.p
        # one row per saturated lane: stacked coefficients and [sigma; epsilon]
        self.lam = np.array([bp.lam for bp in sat]).reshape(-1, 2 * p)
        self.gam = np.array([bp.gam for bp in sat]).reshape(-1, 2 * p)
        self.sat = np.array([np.concatenate((bp.sigma0, bp.epsilon0))
                             for bp in sat]).reshape(-1, 2 * p)
        self.bound = np.full((len(self.x), p), np.inf)
        self.bound[self.sat_rows] = np.sqrt(self.sat[:, :p])
        self._restack()

    def _restack(self) -> None:
        """The live lanes' stack: their lanes and rows of sat (None while all
        live), its saturated lanes' places and lanes, gate widths and lam, gam."""
        on, sat_on = np.flatnonzero(self.live), np.flatnonzero(self.live[self.sat_rows])
        sat_lanes = self.sat_rows[sat_on]
        self.stack = ((None, None) if on.size == self.live.size else (on, sat_on)) + (
            on.searchsorted(sat_lanes), sat_lanes, self.ell[on], self.lam[sat_on], self.gam[sat_on])

    def step(self, y: np.ndarray, u) -> dict:
        """One predict + correct of every live lane on its measurement y[l]
        (the input u is shared).  Returns {lane: NumericalFailure} for the
        lanes that failed in this step, each _filter_step's own error; any
        other error propagates, as from the public steps."""
        on, sat_on, rows, sat_lanes, ell, lam, gam = self.stack
        if on is None:  # every lane lives: the stack is the lanes' own arrays, rebound below
            x, P, sat, bound, y_on = self.x, self.P, self.sat, self.bound, y
        else:
            x, P, sat, bound, y_on = self.x[on], self.P[on], self.sat[sat_on], self.bound[on], y[on]
        try:
            x, P = _predict(self.model, x, P, u)
            x, P, innov = _correct(self.model, x, P, y_on, bound, ell)
            sat = _sat_step(sat, innov[rows], lam, gam)
        except (NumericalFailure, np.linalg.LinAlgError):
            return self._rerun(y, u)
        if on is None:
            self.x, self.P, self.sat = x, P, sat
        else:
            self.x[on], self.P[on], self.sat[sat_on] = x, P, sat
        self.bound[sat_lanes] = np.sqrt(sat[:, :self.model.p])
        return {}

    def _rerun(self, y: np.ndarray, u) -> dict:
        """step through _filter_step, lane by lane; a lane whose re-run
        raises NumericalFailure leaves the stack with its state as it was."""
        failures = {}
        for l in np.flatnonzero(self.live).tolist():
            bp, r = self.params[l], self.sat_rows.searchsorted(l)  # sat_rows is sorted
            try:
                x, P, sat = _filter_step(self.model, self.x[l], self.P[l], y[l], u,
                                         None if bp is None else self.sat[r], bp, self.ell[l, 0])
            except NumericalFailure as exc:
                failures[l] = exc
                continue
            self.x[l], self.P[l] = x, P
            if sat is not None:
                self.sat[r], self.bound[l] = sat, np.sqrt(sat[:self.model.p])
        if failures:
            self.live[list(failures)] = False
            self._restack()
        return failures


def _check_saturated(model: NonlinearModel, sat: Optional[SaturationState],
                     params: Optional[BoundParams], caller: str, y=None, mode: str = "dt") -> None:
    """Entry checks of a saturated filter whose bound parameters must be of
    the given mode ("dt" or "ct"), and of its measurement y when given."""
    if sat is None:
        raise ConfigurationError(f"{caller} requires a SaturationState")
    if params is None:
        raise ConfigurationError(f"{caller}: BoundParams required for a saturated state")
    if params.mode != mode:
        raise ConfigurationError(f"{caller} requires {mode}-mode parameters")
    if not params.p == sat.p == model.p:
        raise ConfigurationError(f"{caller}: channel count mismatch")
    if not (sat.sigma > 0.0).all():
        raise InputDomainError(f"{caller}: sigma must be strictly positive")
    if y is not None:
        _check_measurement(y, model.p, caller)


def _check_estimate(model: NonlinearModel, st: FilterState, caller: str) -> None:
    """ConfigurationError unless st.x_hat has shape (n,) and st.P (n, n)."""
    n = model.n
    if st.x_hat.shape != (n,) or st.P.shape != (n, n):
        raise ConfigurationError(f"{caller}: estimate of shape {st.x_hat.shape} with P of "
                                 f"shape {st.P.shape}, not ({n},) and ({n}, {n})")


def _check_measurement(y, p: int, caller: str) -> None:
    """A measurement broadcasts to p channels (shape (p,), (1,) or ()) and is finite."""
    if np.ndim(y) > 1 or np.size(y) not in (1, p):
        raise ConfigurationError(f"{caller}: measurement of shape {np.shape(y)}, not ({p},)")
    if not _all_finite(y):
        raise InputDomainError(f"{caller}: non-finite measurement")


def dt_predict(model: NonlinearModel, st: FilterState, u=None) -> FilterState:
    """Time update: x = f(x, u), P = A P A^T + Q with A at the filtered
    estimate.  The saturation state is unchanged."""
    _check_estimate(model, st, "dt_predict")
    with np.errstate(all="ignore"):
        x, P = _predict(model, st.x_hat, st.P, u)
    return replace(st, x_hat=x, P=P, k=st.k + 1)


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
    _check_estimate(model, st, "dt_update")
    if st.sat is None:
        _check_measurement(y, model.p, "dt_update")
        bound, sat = np.inf, None
    else:
        _check_saturated(model, st.sat, params, "dt_update", y)
        bound, sat = st.sat.bounds(), np.concatenate((st.sat.sigma, st.sat.epsilon))
    with np.errstate(all="ignore"):
        x, P, innov = _correct(model, st.x_hat, st.P, y, bound, np.inf)
        if sat is not None:
            sat = _sat_step(sat, innov, params.lam, params.gam)
    return replace(st, x_hat=x, P=P,
                   sat=None if sat is None else SaturationState(sat[:model.p], sat[model.p:]))


def dt_isekf_step(
    model: NonlinearModel,
    st: FilterState,
    y: np.ndarray,
    params: BoundParams,
    u=None,
) -> FilterState:
    """One full saturated-EKF cycle: predict, correct with the clipped
    innovation, advance the bound recursion."""
    _check_estimate(model, st, "dt_isekf_step")
    _check_saturated(model, st.sat, params, "dt_isekf_step", y)
    x, P, sat = _filter_step(model, st.x_hat, st.P, y, u,
                             np.concatenate((st.sat.sigma, st.sat.epsilon)), params)
    return replace(st, x_hat=x, P=P, sat=SaturationState(sat[:model.p], sat[model.p:]),
                   k=st.k + 1)


def ekf_step(model: NonlinearModel, st: FilterState, y: np.ndarray, u=None) -> FilterState:
    """Standard EKF cycle (no innovation clipping)."""
    _check_estimate(model, st, "ekf_step")
    _check_measurement(y, model.p, "ekf_step")
    x, P, _ = _filter_step(model, st.x_hat, st.P, y, u)
    return replace(st, x_hat=x, P=P, sat=None, k=st.k + 1)


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
    _check_estimate(model, st, "sigma_gate_step")
    _check_measurement(y, model.p, "sigma_gate_step")
    x, P, _ = _filter_step(model, st.x_hat, st.P, y, u, ell=ell)
    return replace(st, x_hat=x, P=P, sat=None, k=st.k + 1)


def _saturated_rhs(drift: np.ndarray, K: np.ndarray, innov: np.ndarray, sat: np.ndarray,
                   params: BoundParams) -> np.ndarray:
    """Unchecked saturated observer shared by the CT filter and the bound
    check: [x_dot; sat_dot], x_dot = drift + K clip(innov, sqrt(sigma)) and
    sat_dot the bound map on innov, with sat = [sigma; epsilon] (p each)
    floored at _SAT_FLOOR first."""
    sat = np.maximum(sat, _SAT_FLOOR)
    x_dot = drift + K.dot(_clip(innov, np.sqrt(sat[:len(innov)])))
    return np.concatenate((x_dot, _bound_map_core(sat, innov, params.lam, params.gam)))


def _riccati_rhs(A: np.ndarray, Q: np.ndarray, C: np.ndarray, K: np.ndarray,
                 P: np.ndarray) -> np.ndarray:
    """The Riccati right-hand side A P + P A^T + Q - K C P, symmetrized, for
    the gain K = P C^T R^{-1} and an exactly symmetric P: P A^T = (A P)^T."""
    # ndarray.dot: on tiny operands it dispatches in about half the time of @
    AP = A.dot(P)
    return _symmetrize(AP + AP.T + Q - K.dot(C).dot(P))


def _ct_rhs(model: NonlinearModel, x: np.ndarray, P: np.ndarray, sat: np.ndarray,
            y: np.ndarray, params: BoundParams) -> np.ndarray:
    """ct_isekf_derivative on raw arrays (sat = [sigma; epsilon], P symmetric),
    checking only the model maps: _saturated_rhs with K = P C^T R^{-1}, the
    gain of the continuous bound check's covariance pass, and P_dot.  Returns
    the joint [x_dot; vec(P_dot); sat_dot] (see _joint_views)."""
    A, C = model.A_at(x), model.C_at(x)
    K = P.dot(C.T.dot(model.Rinv))
    out = _saturated_rhs(model.f_at(x), K, model.innovation(x, y), sat, params)
    return np.concatenate((out[:x.size], _riccati_rhs(A, model.Q, C, K, P), out[x.size:]), None)


def ct_isekf_derivative(
    model: NonlinearModel,
    st: FilterState,
    y: np.ndarray,
    params: BoundParams,
):
    """Right-hand side of the coupled continuous-time system.

    Returns (x_dot, P_dot, sigma_dot, eps_dot) with
    x_dot = f(x) + K sat(y - h(x)), K = P C^T R^{-1},
    P_dot = A P + P A^T + Q - K C P at sym(P) (returned symmetric).  The
    checked form of _ct_rhs; a non-finite result raises NumericalFailure,
    without a floating-point warning."""
    _check_estimate(model, st, "ct_isekf_derivative")
    _check_saturated(model, st.sat, params, "ct_isekf_derivative", y, mode="ct")
    sat = np.concatenate((st.sat.sigma, st.sat.epsilon))
    with np.errstate(all="ignore"):
        out = _ct_rhs(model, st.x_hat, _symmetrize(st.P), sat, np.asarray(y, dtype=float), params)
    if not _all_finite(out):
        raise NumericalFailure("derivative evaluation non-finite", context=st.x_hat)
    x_dot, P_dot, sat_dot = _joint_views(out, len(st.x_hat))
    return x_dot, P_dot, sat_dot[:model.p], sat_dot[model.p:]


def _rk4(f: Callable, z: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step of dz/dt = f(z, t) for a flat vector z."""
    half = 0.5 * dt
    k1 = f(z, t)
    k2 = f(z + half * k1, t + half)
    k3 = f(z + half * k2, t + half)
    k4 = f(z + dt * k3, t + dt)
    return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _floored_rk4_step(rhs: Callable, z: np.ndarray, t: float, dt: float, n: int, p: int,
                      rejected: bool = False) -> np.ndarray:
    """RK4 step of z = [x (n); ...; sigma (p); epsilon (p)], then sigma, epsilon
    floored at _SAT_FLOOR.  A non-finite or rejected step raises NumericalFailure."""
    z_next = _rk4(rhs, z, t, dt)
    if rejected or not _all_finite(z_next):
        raise NumericalFailure(f"integration step rejected at t={t + dt:.6g}", context=z[:n])
    sat = z_next[-2 * p:]
    np.maximum(sat, _SAT_FLOOR, out=sat)
    return z_next


def _read_once_per_time(read: Callable[[float], np.ndarray]) -> Callable[[float], np.ndarray]:
    """read(t) memoized on the last time asked for, compared as a float.

    RK4 asks for its input at t, twice at t + dt/2 and at t + dt, which is
    often the next step's t: through this memo, read runs once per distinct
    stage time, in stage order.  A repeated time gets the same array back,
    which the caller must not edit in place; a read that raises stores
    nothing."""
    last_t, last = math.nan, None  # nan equals no time

    def memo(t: float):
        nonlocal last_t, last
        if t != last_t:
            last = read(t)
            last_t = t
        return last
    return memo


def _step_count(mode: str, horizon, dt) -> int:
    """The steps of a run over horizon: a whole-number horizon >= 0 in
    discrete time, round(horizon / dt) for a finite horizon >= 0 and a
    finite dt > 0 in continuous time (dt is not read in discrete time).
    The rule of both continuous integrators and of the discrete bound
    check.  Raises ConfigurationError."""
    try:
        h = float(horizon + 0.0)  # a number: float() would also parse a string
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"horizon must be a number, got {horizon!r}") from None
    if not 0.0 <= h < math.inf:
        raise ConfigurationError(f"horizon must be finite and nonnegative, got {horizon!r}")
    if mode == "discrete":
        if h != int(h):
            raise ConfigurationError(f"a discrete horizon must be a whole number of steps, "
                                     f"got {horizon!r}")
        return int(h)
    if not 0.0 < dt < math.inf:
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    steps = h / dt
    if not steps < math.inf:
        raise ConfigurationError(f"horizon / dt overflows: {horizon!r} / {dt!r}")
    return int(round(steps))


def _joint_views(z: np.ndarray, n: int):
    """Views (x, P, sat) of a joint vector stacked as [x; vec(P); sigma; epsilon],
    x of length n and sat = [sigma; epsilon]."""
    m = n + n * n
    return z[:n], z[n:m].reshape(n, n), z[m:]


def ct_isekf_integrate(
    model: NonlinearModel,
    st: FilterState,
    y_provider: Callable[[float], np.ndarray],
    dt: float,
    horizon: float,
    params: BoundParams,
) -> list[FilterState]:
    """Integrate the coupled (x, P, sigma, eps) system with classical RK4.

    Inputs are checked at entry, horizon and dt by the continuous bound
    check's rule (_step_count: round(horizon / dt) steps, a finite horizon
    >= 0 and a finite dt > 0).  y_provider is asked once per distinct RK4
    stage time, in stage order (_read_once_per_time: a stage at the time of
    the one before reuses its sample), and each sample is checked as it is
    read; it may be held between samples.  Stages run the unchecked core
    _ct_rhs on the flat [x; vec(P); sigma; eps].  Floor policy: sigma/eps
    floored at 1e-12 in every stage and after every step; P is symmetrized
    at entry and after every step.  The steps run in one floating-point
    context: a failure is its error alone, without a warning.  Returns the
    trajectory including st."""
    steps = _step_count("continuous", horizon, dt)
    _check_estimate(model, st, "ct_isekf_integrate")
    _check_saturated(model, st.sat, params, "ct_isekf_integrate", mode="ct")
    n, p = st.x_hat.shape[0], st.sat.p

    @_read_once_per_time
    def measurement(t: float):
        y = np.asarray(y_provider(t), dtype=float)
        _check_measurement(y, p, f"ct_isekf_integrate at t={t:.6g}")
        return y

    def stage(z, t: float):
        return _ct_rhs(model, *_joint_views(z, n), measurement(t), params)

    out = [replace(st, t=0.0)]
    z = np.concatenate((st.x_hat, _symmetrize(st.P), st.sat.sigma, st.sat.epsilon), axis=None)
    with np.errstate(all="ignore"):
        for i in range(steps):
            z = _floored_rk4_step(stage, z, i * dt, dt, n, p)
            x, P, sat = _joint_views(z, n)
            P[...] = _symmetrize(P)
            out.append(FilterState(x_hat=x, P=P, sat=SaturationState(sat[:p], sat[p:]),
                                   t=(i + 1) * dt))
    return out
