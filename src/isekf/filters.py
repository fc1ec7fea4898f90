"""Saturated- and standard-EKF recursions over a shared nonlinear model.

Model maps take the state and an optional control input.  Discrete-time
steps are pure: each returns a new FilterState.  They check their inputs
once and run one array-level core, _filter_step.  _Lanes runs the same
arithmetic on a stack of filters at once; scenario.simulate steps every
filter of every seed through it.  Linearization points
follow the recursion exactly: the state Jacobian is evaluated at the
filtered estimate, the measurement Jacobian at the predicted estimate
(continuous time: both at the current estimate).
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
    _bound_map,
    _bound_map_core,
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
    the one filtered covariance P - K S K^T, symmetrized: (K, S, P_filt).

    Raises NumericalFailure when S is not finite or not positive definite."""
    CP = C.dot(P)
    S = _symmetrize(CP.dot(C.T) + R)
    if not _all_finite(S):
        raise NumericalFailure("innovation covariance not finite", context=S)
    K = _spd_solve(S, CP, "innovation covariance").T
    return K, S, _symmetrize(P - K.dot(S).dot(K.T))


def _gated(innov, S, ell):
    """Zero channel i where |innov_i| > ell * sqrt(S_ii); innov and S may
    be stacks (channels last), ell a matching column of gate widths."""
    return np.where(np.abs(innov) > ell * np.sqrt(np.diagonal(S, axis1=-2, axis2=-1)),
                    0.0, innov)


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for a vector or a stack of vectors (and matrices); the BLAS call
    and so the bits are those of M.dot(v) on each."""
    return np.matmul(M, v[..., None])[..., 0]


def _predict(model: NonlinearModel, x: np.ndarray, P: np.ndarray, u):
    """Predict core: x = f(x, u), P = A P A^T + Q with A at x; under the
    floating-point policy of _update."""
    with np.errstate(all="ignore"):
        A = model.A_at(x, u)
        return model.f_at(x, u), _symmetrize(A.dot(P).dot(A.T) + model.Q)


def _update(model: NonlinearModel, x: np.ndarray, P: np.ndarray, y: np.ndarray,
            sat: Optional[SaturationState] = None, params: Optional[BoundParams] = None,
            ell: float = np.inf):
    """Update core that every discrete-time filter shares.

    The innovation policy is data, as in _Lanes: the estimate is corrected
    with _gated(_clip(innov, bound), S, ell), where the clip level bound is
    sqrt(sigma) of a saturated filter's sat and the gate width ell that of
    the gated EKF; the policy a filter lacks is +inf, which leaves the
    innovation unchanged bit for bit.  The covariance update is
    P - K (C P C^T + R) K^T, then symmetrization.  sat advances through the
    bound map on the raw innovation; a clip level that underflows to 0 is a
    NumericalFailure, so no step hands on a state that the entry checks
    reject.  Returns (x, P, sat).

    As in _Lanes.step, floating-point warnings are off: a failure is
    reported as its error alone, on both paths."""
    with np.errstate(all="ignore"):
        C = model.C_at(x)
        K, S, P_new = _innovation_gain(P, C, model.R)
        innov = model.innovation(x, y)
        bound = np.inf if sat is None else np.sqrt(sat.sigma)
        x_new = x + K.dot(_gated(_clip(innov, bound), S, ell))
        if not _all_finite(x_new):
            raise NumericalFailure("update produced non-finite estimate", context=x)
        if sat is not None:
            sat = SaturationState(*_bound_map(sat, innov, params, "dt"))
            if not (sat.sigma > 0.0).all():
                raise NumericalFailure("clip level sigma underflowed to 0", context=sat.sigma)
    return x_new, P_new, sat


def _filter_step(model: NonlinearModel, x: np.ndarray, P: np.ndarray, y: np.ndarray, u,
                 sat=None, params: Optional[BoundParams] = None, ell: float = np.inf):
    """One predict + update cycle on raw arrays; returns (x, P, sat).

    The core behind every discrete-time step.  It checks only what can go
    wrong per step (non-finite f, h, S or estimate, S not positive
    definite, bound-map overflow, sigma underflow: all NumericalFailure);
    the inputs are checked once by the caller (see _check_saturated).
    _Lanes.step is its stacked form and gives its bits lane by lane; it
    re-runs through this core each lane that may have failed.  The public
    steps over this core are the reference simulate is tested against."""
    x, P = _predict(model, x, P, u)
    return _update(model, x, P, y, sat, params, ell)


class _Lanes:
    """Discrete-time filters stepped side by side along a lane axis.

    Lane l is one filter: estimate x[l], covariance P[l] and an innovation
    policy of a clip level and a gate width.  A saturated lane clips to
    bound[l] = sqrt(sigma) and advances its row of sat = [sigma; epsilon]
    through the bound map; a gated lane zeroes the channels beyond
    ell[l] * sqrt(S_ii).
    The policy a lane lacks is +inf, which leaves the innovation unchanged
    bit for bit, so a plain EKF lane has both at +inf.

    step runs the arithmetic of _filter_step on every lane at once, with
    the same bits lane by lane: stacked matmul makes the BLAS calls that
    ndarray.dot makes, and one stacked _spd_solve factors every lane's S.
    It makes none of _filter_step's checks.  Screens flag each live lane
    that may have failed one (every live lane when the stacked solve
    fails), and a flagged lane is re-run from its held state through
    _filter_step itself, which gives the stacked bits or raises.  A lane
    whose re-run raises NumericalFailure is dead from then on: it holds its
    last estimate, covariance and bound state, and it never changes another
    lane.  The model maps must accept a stack of states (robot_model's do).
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
        self.all_live = True  # live.all(), kept so that no step before a failure reads the mask
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

    def step(self, y: np.ndarray, u) -> dict:
        """One predict + update of every live lane on its measurement y[l]
        (the input u is shared).  Returns {lane: NumericalFailure} for the
        lanes that failed in this step, each _filter_step's own error; any
        other error of a re-run propagates, as from the public steps."""
        model, rows = self.model, self.sat_rows
        # dead lanes compute on their held state and are discarded; a failure
        # is reported as its error alone, not as a floating-point warning
        with np.errstate(all="ignore"):
            # _predict
            A = model.A_at(self.x, u)
            x = np.asarray(model.f(self.x, u), dtype=float)
            P = _symmetrize(np.matmul(np.matmul(A, self.P), A.swapaxes(-1, -2)) + model.Q)
            # _update, with _innovation_gain stacked
            C = model.C_at(x)
            CP = np.matmul(C, P)
            S = _symmetrize(np.matmul(CP, C.swapaxes(-1, -2)) + model.R)
            if not self.all_live:  # a dead lane's S must not fail the stack
                S = np.where(self.live[:, None, None], S, np.eye(model.p))
            try:
                K = _spd_solve(S, CP, "innovation covariance").swapaxes(-1, -2)
            except (NumericalFailure, np.linalg.LinAlgError):  # every live lane is re-run
                # (the message's cond() of a stack that holds a non-finite S raises)
                x_new, P_new, sat = self.x.copy(), self.P.copy(), self.sat.copy()
                suspects = np.flatnonzero(self.live).tolist()
            else:
                hx = np.asarray(model.h(x), dtype=float)
                innov = model.wrap_channels(y - hx)
                x_new = x + _matvec(K, _gated(_clip(innov, self.bound), S, self.ell))
                P_new = _symmetrize(P - np.matmul(np.matmul(K, S), K.swapaxes(-1, -2)))
                sat = _bound_map_core(self.sat, innov[rows], self.lam, self.gam)
                sigma, suspects = sat[:, :model.p], []
                if not (_all_finite(S) and _all_finite(hx) and _all_finite(x_new)
                        and _all_finite(sat) and np.count_nonzero(sigma > 0.0) == sigma.size):
                    # the screens lane by lane; a non-finite f(x) shows in x + K v
                    ok = (np.isfinite(S).all(axis=(1, 2)) & np.isfinite(hx).all(axis=1)
                          & np.isfinite(x_new).all(axis=1))
                    ok[rows] &= np.isfinite(sat).all(axis=1) & (sigma > 0.0).all(axis=1)
                    suspects = np.flatnonzero(self.live & ~ok).tolist()
            failures = {}
            for l in suspects:  # through _filter_step from the held state
                bp, r = self.params[l], rows.searchsorted(l)  # rows is sorted
                held = None if bp is None else SaturationState(*np.split(self.sat[r], 2))
                try:
                    x_new[l], P_new[l], out = _filter_step(model, self.x[l], self.P[l], y[l], u,
                                                           held, bp, self.ell[l, 0])
                except NumericalFailure as exc:
                    failures[l] = exc
                    continue
                if out is not None:
                    sat[r] = np.concatenate((out.sigma, out.epsilon))

        if failures or not self.all_live:
            # a dead lane holds its last state
            live = self.live.copy()
            live[list(failures)] = False
            x_new = np.where(live[:, None], x_new, self.x)
            P_new = np.where(live[:, None, None], P_new, self.P)
            sat = np.where(live[rows][:, None], sat, self.sat)
            self.live, self.all_live = live, False
        self.x, self.P, self.sat = x_new, P_new, sat
        self.bound[rows] = np.sqrt(sat[:, :model.p])
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
        x, P, _ = _update(model, st.x_hat, st.P, y)
        return replace(st, x_hat=x, P=P)
    _check_saturated(model, st.sat, params, "dt_update", y)
    x, P, sat = _update(model, st.x_hat, st.P, y, st.sat, params)
    return replace(st, x_hat=x, P=P, sat=sat)


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
    x, P, sat = _filter_step(model, st.x_hat, st.P, y, u, st.sat, params)
    return replace(st, x_hat=x, P=P, sat=sat, k=st.k + 1)


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
    checked form of _ct_rhs; a non-finite result raises NumericalFailure."""
    _check_estimate(model, st, "ct_isekf_derivative")
    _check_saturated(model, st.sat, params, "ct_isekf_derivative", y, mode="ct")
    sat = np.concatenate((st.sat.sigma, st.sat.epsilon))
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

    Inputs are checked at entry, then each y_provider(t) sample as it is read
    at the RK4 stage times (it may be held between samples).  Stages run the
    unchecked core _ct_rhs on the flat [x; vec(P); sigma; eps].  Floor policy:
    sigma/eps floored at 1e-12 in every stage and after every step; P is
    symmetrized at entry and after every step.  Returns the trajectory including st."""
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    _check_estimate(model, st, "ct_isekf_integrate")
    _check_saturated(model, st.sat, params, "ct_isekf_integrate", mode="ct")
    n, p = st.x_hat.shape[0], st.sat.p

    def stage(z, t: float):
        y = np.asarray(y_provider(t), dtype=float)
        _check_measurement(y, p, f"ct_isekf_integrate at t={t:.6g}")
        return _ct_rhs(model, *_joint_views(z, n), y, params)

    out = [replace(st, t=0.0)]
    z = np.concatenate((st.x_hat, _symmetrize(st.P), st.sat.sigma, st.sat.epsilon), axis=None)
    for i in range(int(round(horizon / dt))):
        z = _floored_rk4_step(stage, z, i * dt, dt, n, p)
        x, P, sat = _joint_views(z, n)
        P[...] = _symmetrize(P)
        out.append(FilterState(x_hat=x, P=P, sat=SaturationState(sat[:p], sat[p:]),
                               t=(i + 1) * dt))
    return out
