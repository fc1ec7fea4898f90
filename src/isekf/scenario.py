"""Mobile-robot localization scenario: unicycle truth model, GPS/compass
measurements corrupted by a staged outlier disturbance, and a seeded
lock-step simulation of the configured filters.

The disturbance enters two measurement channels (the x coordinate and
the heading) through a routing matrix the filters never see.  The staged
schedule mixes small/large and constant/random outliers so gating- and
saturation-based rejection can be compared on all four regimes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NumericalFailure
from .filters import (
    NonlinearModel,
    _check_saturated,
    _clip_to_bound,
    _filter_step,
    _gate,
    _raw,
    wrap_angle,
)
# The public FilterState steps over _filter_step; bench/tracer.py wraps
# them under these names.
from .filters import dt_isekf_step, ekf_step, sigma_gate_step  # noqa: F401
from .saturation import BoundParams

log = logging.getLogger("isekf")


@dataclass(frozen=True)
class RobotState:
    """Planar pose: position in meters, heading in radians, wrapped to
    (-pi, pi]."""

    p_x: float
    p_y: float
    theta: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.p_x, self.p_y, self.theta])):
            raise ConfigurationError("robot state must be finite")
        object.__setattr__(self, "theta", float(wrap_angle(self.theta)))

    def as_array(self) -> np.ndarray:
        return np.array([self.p_x, self.p_y, self.theta])

    @classmethod
    def from_array(cls, arr) -> "RobotState":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


@dataclass(frozen=True)
class RobotInput:
    """Speed (m/s) and steering rate (rad/s), read from onboard meters."""

    eta: float
    delta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.eta, self.delta])


@dataclass(frozen=True)
class InputProfile:
    """Constant speed with a slow steering sweep, a smooth curved path:
    input k is (eta, delta_amp * sin(delta_freq * k))."""

    eta: float = 1.0
    delta_amp: float = 0.1
    delta_freq: float = 0.02

    def __call__(self, k: int) -> RobotInput:
        return RobotInput(self.eta, self.delta_amp * np.sin(self.delta_freq * k))


def robot_step(s: RobotState, u: RobotInput, T: float) -> RobotState:
    """Exact unicycle step over one sampling period of T seconds."""
    if not T > 0.0:
        raise ConfigurationError(f"T must be positive, got {T}")
    return RobotState(
        s.p_x + u.eta * T * np.cos(s.theta),
        s.p_y + u.eta * T * np.sin(s.theta),
        s.theta + T * u.delta,
    )


def robot_model(T: float, Q: np.ndarray, R: np.ndarray) -> NonlinearModel:
    """Filter-facing unicycle model with analytic Jacobians.

    The control input is (eta, delta); the measurement is the full pose,
    heading channel wrapped."""

    def f(x, u):
        eta, delta = u
        return np.array([
            x[0] + eta * T * np.cos(x[2]),
            x[1] + eta * T * np.sin(x[2]),
            wrap_angle(x[2] + T * delta),
        ])

    def jac_f(x, u):
        eta, _ = u
        return np.array([
            [1.0, 0.0, -eta * T * np.sin(x[2])],
            [0.0, 1.0, eta * T * np.cos(x[2])],
            [0.0, 0.0, 1.0],
        ])

    def h(x):
        return np.asarray(x, dtype=float).copy()

    def jac_h(x):
        return np.eye(3)

    return NonlinearModel(f=f, h=h, Q=Q, R=R, n=3, p=3,
                          jac_f=jac_f, jac_h=jac_h, angle_channels=(2,))


@dataclass(frozen=True)
class OutlierSegment:
    """One schedule stage over the half-open step range (k_lo, k_hi].

    kind "constant" applies `value` verbatim; kind "uniform" draws a
    fresh componentwise-uniform vector each step and applies scale @ zeta.
    """

    k_lo: int
    k_hi: int
    kind: str
    value: Optional[np.ndarray] = None
    scale: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("constant", "uniform"):
            raise ConfigurationError(f"unknown segment kind {self.kind!r}")
        if self.k_lo >= self.k_hi:
            raise ConfigurationError("segment range must be non-empty")
        if self.kind == "constant":
            if self.value is None:
                raise ConfigurationError("constant segment requires a value")
            object.__setattr__(self, "value", np.asarray(self.value, dtype=float))
            if not np.all(np.isfinite(self.value)):
                raise ConfigurationError("value must be finite")
        else:
            if self.scale is None:
                raise ConfigurationError("uniform segment requires a scale matrix")
            object.__setattr__(self, "scale", np.atleast_2d(np.asarray(self.scale, dtype=float)))
            if not np.all(np.isfinite(self.scale)):
                raise ConfigurationError("scale must be finite")

    def contains(self, k: int) -> bool:
        return self.k_lo < k <= self.k_hi


@dataclass(frozen=True)
class OutlierSchedule:
    """Non-overlapping stages plus the channel-routing matrix D (p x m).
    Outside every stage the disturbance is zero."""

    segments: Sequence[OutlierSegment]
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "D", np.atleast_2d(np.asarray(self.D, dtype=float)))
        spans = sorted((s.k_lo, s.k_hi) for s in self.segments)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            if lo < hi:
                raise ConfigurationError("outlier segments overlap")

    @property
    def m(self) -> int:
        return self.D.shape[1]

    def active_ranges(self):
        return [(s.k_lo, s.k_hi) for s in self.segments]


def paper_schedule() -> OutlierSchedule:
    """The four-stage benchmark schedule: small constant, small random,
    large constant, large random; disturbance routed to the x-position
    and heading channels."""
    D = np.zeros((3, 2))
    D[0, 0] = 1.0
    D[2, 1] = 1.0
    return OutlierSchedule(
        segments=(
            OutlierSegment(150, 200, "constant", value=[5.0, 1.0]),
            OutlierSegment(350, 400, "uniform", scale=2.0 * np.eye(2)),
            OutlierSegment(450, 500, "constant", value=[100.0, 50.0]),
            OutlierSegment(550, 600, "uniform", scale=np.diag([100.0, 50.0])),
        ),
        D=D,
    )


def outlier_at(sched: OutlierSchedule, k: int, rng: np.random.Generator) -> np.ndarray:
    """Disturbance at step k; uniform stages draw zeta ~ U[0,1]^m fresh
    each step."""
    for seg in sched.segments:
        if seg.contains(k):
            if seg.kind == "constant":
                return seg.value.copy()
            zeta = rng.uniform(0.0, 1.0, size=sched.m)
            return seg.scale @ zeta
    return np.zeros(sched.m)


def measure(
    s: RobotState,
    sched: OutlierSchedule,
    k: int,
    R: np.ndarray,
    rng: np.random.Generator,
    d: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pose measurement y = state + D d + v, v ~ N(0, R).  Pass d to
    reuse an already-drawn disturbance; otherwise it is drawn here."""
    if d is None:
        d = outlier_at(sched, k, rng)
    return _measure(s.as_array(), sched.D, d, _noise_factor(R), rng)


def _measure(x: np.ndarray, D: np.ndarray, d: np.ndarray, L: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """The measurement equation y = x + D d + L v, v ~ N(0, I), with L a
    factor of R (see _noise_factor); measure and simulate share it."""
    return x + D @ d + L @ rng.standard_normal(L.shape[0])


def _noise_factor(R: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of the noise covariance R (L L^T = R); zero
    for a zero R.  Noise with covariance R is L @ standard_normal."""
    R = np.asarray(R, dtype=float)
    return np.linalg.cholesky(R) if np.any(R) else np.zeros_like(R)


@dataclass
class FilterSpec:
    """One filter to run: kind is "is-ekf", "ekf" or "lsigma-ekf"."""

    kind: str
    P0: np.ndarray
    bound_params: Optional[BoundParams] = None
    ell: float = 3.0
    label: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("is-ekf", "ekf", "lsigma-ekf"):
            raise ConfigurationError(f"unknown filter kind {self.kind!r}")
        if self.kind == "is-ekf" and self.bound_params is None:
            raise ConfigurationError("is-ekf requires bound parameters")
        if self.kind == "lsigma-ekf" and not self.ell > 0.0:
            raise ConfigurationError("lsigma-ekf requires ell > 0")
        P0 = self.P0 = np.atleast_2d(np.asarray(self.P0, dtype=float))
        if P0.ndim != 2 or P0.shape[0] != P0.shape[1] or not np.all(np.isfinite(P0)):
            raise ConfigurationError("P0 must be a finite square matrix")
        if not np.allclose(P0, P0.T, atol=1e-12 * (1.0 + abs(P0).max())):
            raise ConfigurationError("P0 must be symmetric")
        if np.linalg.eigvalsh(P0).min() < -1e-10 * (1.0 + np.linalg.norm(P0)):
            raise ConfigurationError("P0 must be positive semidefinite")
        if self.label is None:
            self.label = self.kind


@dataclass
class ScenarioConfig:
    """Everything the simulation needs apart from the seed."""

    horizon: int = 700
    T: float = 0.1
    process_std: np.ndarray = field(default_factory=lambda: np.array([0.005, 0.005, 0.0005]))
    meas_std: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5, 0.008]))
    # noise levels the filters assume; default: the true ones
    filter_process_std: Optional[np.ndarray] = None
    filter_meas_std: Optional[np.ndarray] = None
    schedule: Optional[OutlierSchedule] = field(default_factory=paper_schedule)
    initial_truth: RobotState = field(default_factory=lambda: RobotState(0.0, 0.0, 0.0))
    initial_guess_offset: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0, 0.1]))
    input_profile: Callable[[int], RobotInput] = field(default_factory=InputProfile)
    filters: Sequence[FilterSpec] = field(default_factory=tuple)

    def __post_init__(self):
        if self.horizon < 0:
            raise ConfigurationError("horizon must be nonnegative")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ConfigurationError(f"T must be finite and positive, got {self.T}")
        for name in ("process_std", "meas_std", "filter_process_std", "filter_meas_std"):
            std = getattr(self, name)
            if std is None:
                continue
            std = np.asarray(std, dtype=float)
            if not (np.all(np.isfinite(std)) and np.all(std >= 0.0)):
                raise ConfigurationError(f"{name} must be finite and nonnegative")
            setattr(self, name, std)
        if self.schedule is None:
            self.schedule = OutlierSchedule(segments=(), D=np.zeros((3, 2)))

    @property
    def Q(self) -> np.ndarray:
        return np.diag(self.process_std**2)

    @property
    def R(self) -> np.ndarray:
        return np.diag(self.meas_std**2)

    @property
    def Q_filter(self) -> np.ndarray:
        std = self.process_std if self.filter_process_std is None else self.filter_process_std
        return np.diag(std**2)

    @property
    def R_filter(self) -> np.ndarray:
        std = self.meas_std if self.filter_meas_std is None else self.filter_meas_std
        return np.diag(std**2)


@dataclass
class SimulationTrace:
    """Time-indexed record of one run; one row per step, k = 0..horizon."""

    k: np.ndarray
    t: np.ndarray
    truth: np.ndarray                      # (N+1, 3)
    u: np.ndarray                          # (N+1, 2); row k drives step k -> k+1
    d: np.ndarray                          # (N+1, m)
    y: np.ndarray                          # (N+1, 3)
    estimates: dict                        # label -> (N+1, 3)
    sqrt_sigma: dict                       # label -> (N+1, 3), saturated filters only
    failed_at: dict                        # label -> step of first numerical failure, or None
    step_seconds: dict                     # label -> mean wall clock per step
    schedule: OutlierSchedule
    T: float

    @property
    def horizon(self) -> int:
        return len(self.k) - 1

    def labels(self):
        return list(self.estimates.keys())

    def error(self, label: str) -> np.ndarray:
        """Estimate-minus-truth per step, heading component wrapped."""
        err = self.estimates[label] - self.truth
        err[:, 2] = wrap_angle(err[:, 2])
        return err


def simulate(cfg: ScenarioConfig, seed: int) -> SimulationTrace:
    """Run truth, measurements and every configured filter in lock step.

    Deterministic for a fixed (cfg, seed): the process, measurement and
    outlier draws come from three independent child streams of the seed.
    A filter that raises NumericalFailure keeps its last estimate, is
    reported in failed_at and logged at WARNING on the "isekf" logger;
    the run continues for the others.
    """
    labels = [spec.label for spec in cfg.filters]
    if len(set(labels)) != len(labels):
        raise ConfigurationError("filter labels must be unique")

    ss = np.random.SeedSequence(seed)
    rng_proc, rng_meas, rng_outl = (np.random.default_rng(s) for s in ss.spawn(3))

    N = cfg.horizon
    model = robot_model(cfg.T, cfg.Q_filter, cfg.R_filter)
    sched = cfg.schedule
    m = sched.m

    k_arr = np.arange(N + 1)
    t_arr = k_arr * cfg.T
    truth = np.zeros((N + 1, 3))
    u_arr = np.zeros((N + 1, 2))
    d_arr = np.zeros((N + 1, m))
    y_arr = np.zeros((N + 1, 3))

    estimates = {lbl: np.zeros((N + 1, 3)) for lbl in labels}
    sqrt_sigma = {spec.label: np.zeros((N + 1, 3)) for spec in cfg.filters if spec.kind == "is-ekf"}
    failed_at = {lbl: None for lbl in labels}
    elapsed = {lbl: 0.0 for lbl in labels}

    L = _noise_factor(cfg.R)

    def observe(k: int) -> None:
        # measure() on truth[k], with R factored once per run
        d_arr[k] = outlier_at(sched, k, rng_outl)
        y_arr[k] = _measure(truth[k], sched.D, d_arr[k], L, rng_meas)

    # initial row
    state_true = cfg.initial_truth
    u_in = cfg.input_profile(0)
    truth[0] = state_true.as_array()
    u_arr[0] = u_in.as_array()
    observe(0)

    # each filter runs on raw arrays through the one step core; its inputs
    # are checked here, once: [label, shape, params, x, P, sat]
    runs = []
    x0 = truth[0] + cfg.initial_guess_offset
    for spec in cfg.filters:
        sat, params, shape = None, None, _raw
        if spec.kind == "is-ekf":
            params = spec.bound_params
            init = params.initial_state()
            _check_saturated(model, init, params, "simulate")
            sat, shape = (init.sigma, init.epsilon), _clip_to_bound
            sqrt_sigma[spec.label][0] = np.sqrt(init.sigma)
        elif spec.kind == "lsigma-ekf":
            shape = _gate(spec.ell)
        runs.append([spec.label, shape, params, x0.copy(), spec.P0.copy(), sat])
        estimates[spec.label][0] = x0

    for k in range(1, N + 1):
        u_prev, u_in = u_in, cfg.input_profile(k)
        u_arr[k] = u_in.as_array()
        w = cfg.process_std * rng_proc.standard_normal(3)
        nxt = robot_step(state_true, u_prev, cfg.T).as_array() + w
        state_true = RobotState.from_array(nxt)
        truth[k] = state_true.as_array()

        observe(k)
        y, u = y_arr[k], u_arr[k - 1]

        for run in runs:
            lbl, shape, params, x, P, sat = run
            if failed_at[lbl] is None:
                t0 = time.perf_counter()
                try:
                    x, P, sat = _filter_step(model, x, P, y, u, shape, sat, params)
                except NumericalFailure as exc:
                    failed_at[lbl] = k
                    log.warning("filter %s failed at step %d: %s", lbl, k, exc)
                finally:
                    elapsed[lbl] += time.perf_counter() - t0
            if failed_at[lbl] is None:
                run[3:] = x, P, sat
                estimates[lbl][k] = x
                if sat is not None:
                    sqrt_sigma[lbl][k] = np.sqrt(sat[0])
            else:
                # a failed filter keeps its last estimate
                estimates[lbl][k] = estimates[lbl][k - 1]
                if sat is not None:
                    sqrt_sigma[lbl][k] = sqrt_sigma[lbl][k - 1]

    step_seconds = {lbl: (elapsed[lbl] / N if N else 0.0) for lbl in labels}
    return SimulationTrace(
        k=k_arr, t=t_arr, truth=truth, u=u_arr, d=d_arr, y=y_arr,
        estimates=estimates, sqrt_sigma=sqrt_sigma, failed_at=failed_at,
        step_seconds=step_seconds, schedule=sched, T=cfg.T,
    )
