"""Mobile-robot localization scenario: unicycle truth model, GPS/compass
measurements corrupted by a staged outlier disturbance, and a seeded
lock-step simulation of the configured filters over a batch of seeds.

The disturbance enters two measurement channels (the x coordinate and
the heading) through a routing matrix the filters never see.  The staged
schedule mixes small/large and constant/random outliers so gating- and
saturation-based rejection can be compared on all four regimes.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .filters import (NonlinearModel, _is_psd, _Lanes, _matvec, _require_finite,
                      _require_symmetric, _wrap_float, wrap_angle)
# The public FilterState steps over _filter_step; bench/tracer.py wraps
# them under these names.
from .filters import dt_isekf_step, ekf_step, sigma_gate_step  # noqa: F401
from .saturation import BoundParams, _all_finite, _read_only

log = logging.getLogger("isekf")


@dataclass(frozen=True)
class RobotState:
    """Planar pose: position in meters, heading in radians, wrapped to
    (-pi, pi]."""

    p_x: float
    p_y: float
    theta: float

    def __post_init__(self):
        if not _all_finite([self.p_x, self.p_y, self.theta]):
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
    input k is (eta, delta_amp * sin(delta_freq * k)).  Every field must
    be finite."""

    eta: float = 1.0
    delta_amp: float = 0.1
    delta_freq: float = 0.02

    def __post_init__(self):
        for name in ("eta", "delta_amp", "delta_freq"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")

    def __call__(self, k: int) -> RobotInput:
        return RobotInput(self.eta, self.delta_amp * np.sin(self.delta_freq * k))

    def rows(self, horizon: int) -> np.ndarray:
        """Inputs 0..horizon as (horizon + 1, 2) rows, equal bit for bit to
        self(k).as_array() for each k."""
        k = np.arange(horizon + 1)
        return np.column_stack((np.full(horizon + 1, self.eta),
                                self.delta_amp * np.sin(self.delta_freq * k)))


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
    heading channel wrapped.  The maps take one state (3,) or a stack of
    them (L, 3), with one input for all."""

    def f(x, u):
        eta, delta = u
        theta = x[..., 2]
        out = np.empty(np.shape(x))
        out[..., 0] = x[..., 0] + eta * T * np.cos(theta)
        out[..., 1] = x[..., 1] + eta * T * np.sin(theta)
        out[..., 2] = wrap_angle(theta + T * delta)
        return out

    def jac_f(x, u):
        eta, _ = u
        theta = x[..., 2]
        J = np.zeros(np.shape(x)[:-1] + (3, 3))
        J[..., 0, 0] = J[..., 1, 1] = J[..., 2, 2] = 1.0
        J[..., 0, 2] = -eta * T * np.sin(theta)
        J[..., 1, 2] = eta * T * np.cos(theta)
        return J

    def h(x):
        return np.asarray(x, dtype=float).copy()

    eye = np.eye(3)
    eye.flags.writeable = False

    def jac_h(x):
        return eye

    return NonlinearModel(f=f, h=h, Q=Q, R=R, n=3, p=3,
                          jac_f=jac_f, jac_h=jac_h, angle_channels=(2,))


def _require_integer(obj, names) -> None:
    """ConfigurationError naming the first of obj's fields that is not an
    integer (a bool is not one)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigurationError(f"{type(obj).__name__}.{name} must be an integer, "
                                     f"got {value!r}")


@dataclass(frozen=True, eq=False)
class OutlierSegment:
    """One schedule stage over the half-open step range (k_lo, k_hi].

    kind "constant" applies `value` verbatim; kind "uniform" draws a
    fresh componentwise-uniform vector each step and applies scale @ zeta.
    value and scale are stored as read-only copies.
    """

    k_lo: int
    k_hi: int
    kind: str
    value: Optional[np.ndarray] = None
    scale: Optional[np.ndarray] = None

    def __post_init__(self):
        _require_integer(self, ("k_lo", "k_hi"))
        if self.kind not in ("constant", "uniform"):
            raise ConfigurationError(f"unknown segment kind {self.kind!r}")
        if self.k_lo >= self.k_hi:
            raise ConfigurationError("segment range must be non-empty")
        if self.kind == "constant":
            if self.value is None:
                raise ConfigurationError("constant segment requires a value")
            object.__setattr__(self, "value", _read_only(np.atleast_1d(self.value)))
            if not _all_finite(self.value):
                raise ConfigurationError("value must be finite")
        else:
            if self.scale is None:
                raise ConfigurationError("uniform segment requires a scale matrix")
            object.__setattr__(self, "scale", _read_only(np.atleast_2d(self.scale)))
            if not _all_finite(self.scale):
                raise ConfigurationError("scale must be finite")

    def contains(self, k: int) -> bool:
        return self.k_lo < k <= self.k_hi


@dataclass(frozen=True, eq=False)
class OutlierSchedule:
    """Non-overlapping stages plus the channel-routing matrix D (p x m),
    stored as a read-only copy.  Outside every stage the disturbance is
    zero."""

    segments: Sequence[OutlierSegment]
    D: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "D", _read_only(np.atleast_2d(self.D)))
        if not _all_finite(self.D):
            raise ConfigurationError("D must be finite")
        m = self.m
        for seg in self.segments:
            name, want = ("value", (m,)) if seg.kind == "constant" else ("scale", (m, m))
            got = getattr(seg, name).shape
            if got != want:
                raise ConfigurationError(f"segment {name} must have shape {want}, got {got}")
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


def _disturbances(sched: OutlierSchedule, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """The disturbance of steps 0..horizon as rows, equal bit for bit to
    calling outlier_at for k = 0, 1, ..., horizon on the same stream: the
    uniform stages draw their zetas in one call, in ascending k."""
    d = np.zeros((horizon + 1, sched.m))
    for seg in sorted(sched.segments, key=lambda seg: seg.k_lo):
        lo, hi = max(seg.k_lo + 1, 0), min(seg.k_hi, horizon)
        if lo > hi:
            continue
        if seg.kind == "constant":
            d[lo:hi + 1] = seg.value
        else:
            d[lo:hi + 1] = _matvec(seg.scale, rng.uniform(0.0, 1.0, size=(hi - lo + 1, sched.m)))
    return d


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
    L = _noise_factor(R)
    return _measure(s.as_array(), sched.D, d, L, rng.standard_normal(L.shape[0]))


def _measure(x: np.ndarray, D: np.ndarray, d: np.ndarray, L: np.ndarray,
             v: np.ndarray) -> np.ndarray:
    """The measurement equation y = x + D d + L v on one step's rows or on
    stacks of them, with v ~ N(0, I) and L a factor of R (see
    _noise_factor); measure and simulate share it."""
    return x + _matvec(D, d) + _matvec(L, v)


def _noise_factor(R: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of the noise covariance R (L L^T = R); zero
    for a zero R.  Noise with covariance R is L @ standard_normal."""
    R = np.asarray(R, dtype=float)
    return np.linalg.cholesky(R) if np.any(R) else np.zeros_like(R)


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """One filter to run: kind is "is-ekf" (dt-mode bound_params), "ekf" or "lsigma-ekf".
    P0 is stored as a read-only copy."""

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
        if self.kind == "is-ekf" and self.bound_params.mode != "dt":
            raise ConfigurationError("FilterSpec.bound_params: is-ekf needs dt-mode parameters, "
                                     f"got mode {self.bound_params.mode!r}")
        if self.kind == "lsigma-ekf" and not self.ell > 0.0:
            raise ConfigurationError("lsigma-ekf requires ell > 0")
        object.__setattr__(self, "P0", _read_only(np.atleast_2d(self.P0)))
        _require_finite(self, ("P0",))
        _require_symmetric(self, ("P0",))
        if not _is_psd(self.P0, 1e-10)[1]:
            raise ConfigurationError("P0 must be positive semidefinite")
        if self.label is None:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything the simulation needs apart from the seed.  The std
    vectors and the initial guess offset are stored as read-only copies."""

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
    input_profile: InputProfile = field(default_factory=InputProfile)
    filters: Sequence[FilterSpec] = field(default_factory=tuple)

    def __post_init__(self):
        _require_integer(self, ("horizon",))
        if self.horizon < 0:
            raise ConfigurationError("horizon must be nonnegative")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ConfigurationError(f"T must be finite and positive, got {self.T}")
        if not isinstance(self.input_profile, InputProfile):
            raise ConfigurationError(f"input_profile must be an InputProfile, "
                                     f"got {type(self.input_profile).__name__}")
        for name in ("process_std", "meas_std", "filter_process_std", "filter_meas_std"):
            std = getattr(self, name)
            if std is None:
                continue
            std = _read_only(std)
            if not (_all_finite(std) and np.all(std >= 0.0)):
                raise ConfigurationError(f"{name} must be finite and nonnegative")
            object.__setattr__(self, name, std)
        offset = _read_only(self.initial_guess_offset)
        if offset.shape != (3,) or not _all_finite(offset):
            raise ConfigurationError("ScenarioConfig.initial_guess_offset must be a finite "
                                     f"3-vector, got {offset.tolist()}")
        object.__setattr__(self, "initial_guess_offset", offset)
        if self.schedule is None:
            object.__setattr__(self, "schedule", OutlierSchedule(segments=(), D=np.zeros((3, 2))))
        if self.schedule.D.ndim != 2 or len(self.schedule.D) != 3:
            raise ConfigurationError("D must have 3 rows, one per measurement channel, got "
                                     f"shape {self.schedule.D.shape}")
        object.__setattr__(self, "filters", tuple(self.filters))
        if len({spec.label for spec in self.filters}) != len(self.filters):
            raise ConfigurationError("filter labels must be unique")
        for spec in self.filters:
            if spec.P0.shape != (3, 3):
                raise ConfigurationError(f"filter {spec.label}: P0 must be 3x3")
            if spec.kind == "is-ekf" and spec.bound_params.p != 3:
                raise ConfigurationError(
                    f"ScenarioConfig.filters: {spec.label} bound_params has "
                    f"{spec.bound_params.p} channels, the measurement has 3")

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


@dataclass(eq=False)
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
    failure: dict                          # label -> that failure's message, or None
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
        return wrapped_error(self.estimates[label], self.truth)


def wrapped_error(estimates: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """estimates - truth with the heading (channel 2 of the last axis)
    wrapped to (-pi, pi]: the rows of one trace, (N+1, 3), or any stack of
    such rows."""
    err = estimates - truth
    err[..., 2] = wrap_angle(err[..., 2])
    return err


def check_seed(seed) -> int:
    """A seed as an int; ConfigurationError unless it is a nonnegative
    integer (what numpy's SeedSequence accepts)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def simulate(cfg: ScenarioConfig, seed: int) -> SimulationTrace:
    """Run truth, measurements and every configured filter in lock step
    for one seed: simulate_seeds(cfg, [seed])[0]."""
    return simulate_seeds(cfg, [seed])[0]


def simulate_seeds(cfg: ScenarioConfig, seeds: Sequence[int]) -> list[SimulationTrace]:
    """simulate for each seed, all seeds at once; one trace per seed.

    Deterministic for a fixed (cfg, seed), whatever the other seeds: the
    process, measurement and outlier draws come from three independent
    child streams of the seed.  The truth and the measurements of every
    seed are generated first.  Then every (filter, seed) pair is a lane of
    one filters._Lanes, and all lanes advance together, one step at a
    time.  A filter that raises NumericalFailure keeps its last estimate,
    is reported in failed_at (its message in failure) and logged at
    WARNING on the "isekf" logger; the run continues for the other lanes.
    step_seconds is the filter
    phase's wall clock per lane-step, the same for every filter.
    """
    seeds = [check_seed(s) for s in seeds]
    if not seeds:
        raise ConfigurationError("seeds must not be empty")

    N, n_seeds = cfg.horizon, len(seeds)
    model = robot_model(cfg.T, cfg.Q_filter, cfg.R_filter)
    # lane j * n_seeds + i runs filter j on seed i
    params = [spec.bound_params if spec.kind == "is-ekf" else None
              for spec in cfg.filters for _ in seeds]

    sched = cfg.schedule
    k_arr = np.arange(N + 1)
    u = cfg.input_profile.rows(N)
    with np.errstate(all="ignore"):  # one context: the truth draw and every step
        truth, d, y = _truth_and_measurements(cfg, seeds, u)
        lanes = _Lanes(
            model,
            np.tile(truth[0, 0] + cfg.initial_guess_offset, (len(params), 1)),
            np.repeat([spec.P0 for spec in cfg.filters], n_seeds,
                      axis=0).reshape(-1, model.n, model.n),
            np.repeat([spec.ell if spec.kind == "lsigma-ekf" else np.inf for spec in cfg.filters],
                      n_seeds),
            params,
        )
        seed_of = np.tile(np.arange(n_seeds), len(cfg.filters))
        y_lanes = y[seed_of]
        estimates = np.empty((len(params), N + 1, 3))
        # each saturated lane's sigma, square-rooted after the loop: the clip
        # level lanes.bound holds is sqrt(sigma), held lanes included
        sqrt_sigma = np.empty((len(lanes.sat_rows), N + 1, 3))
        estimates[:, 0] = lanes.x
        sqrt_sigma[:, 0] = lanes.sat[:, :3]
        failed_at, failure = [None] * len(params), [None] * len(params)

        # the inputs as Python floats (exact), so the model maps do float arithmetic
        u_rows = u.tolist()
        t0 = time.perf_counter()
        for k in range(1, N + 1):
            for lane, exc in lanes.step(y_lanes[:, k], u_rows[k - 1]).items():
                failed_at[lane], failure[lane] = k, str(exc)
                log.warning("filter %s (seed %d) failed at step %d: %s",
                            cfg.filters[lane // n_seeds].label, seeds[seed_of[lane]], k, exc)
            estimates[:, k] = lanes.x
            sqrt_sigma[:, k] = lanes.sat[:, :3]
        np.sqrt(sqrt_sigma, out=sqrt_sigma)
    lane_steps = N * len(params)
    per_step = (time.perf_counter() - t0) / lane_steps if lane_steps else 0.0

    slot = {lane: s for s, lane in enumerate(lanes.sat_rows.tolist())}
    traces = []
    for i in range(n_seeds):
        lane = {spec.label: j * n_seeds + i for j, spec in enumerate(cfg.filters)}
        traces.append(SimulationTrace(
            k=k_arr, t=k_arr * cfg.T, truth=truth[i], u=u, d=d[i], y=y[i],
            estimates={lbl: estimates[l] for lbl, l in lane.items()},
            sqrt_sigma={lbl: sqrt_sigma[slot[l]] for lbl, l in lane.items() if l in slot},
            failed_at={lbl: failed_at[l] for lbl, l in lane.items()},
            failure={lbl: failure[l] for lbl, l in lane.items()},
            step_seconds=dict.fromkeys(lane, per_step),
            schedule=sched, T=cfg.T,
        ))
    return traces


def _truth_and_measurements(cfg: ScenarioConfig, seeds: list, u: np.ndarray):
    """Truth, disturbance and measurement of every seed, each (seeds, N+1, .).

    Each seed's three child streams are drawn in one call each, which gives
    the bits of the per-step draws.  The truth has the bits of robot_step
    followed by RobotState.from_array, without a numpy call per step.  The
    heading theta_k = wrap(wrap(theta_{k-1} + T delta_{k-1}) + w_k) is the
    one true recursion; it runs per seed on Python floats (_wrap_float).
    Each position coordinate is then a running sum,
    p_k = (p_{k-1} + eta T cos(theta_{k-1})) + w_k (sin for p_y), and one
    np.add.accumulate over [p_0, c_1, w_1, c_2, w_2, ...] adds it left to
    right for all steps.  A truth or measurement that overflows is reported
    as its ConfigurationError alone: the caller's floating-point context
    (simulate_seeds') keeps its warning quiet."""
    N, T, sched = cfg.horizon, cfg.T, cfg.schedule
    n_seeds = len(seeds)
    truth = np.empty((n_seeds, N + 1, 3))
    d = np.empty((n_seeds, N + 1, sched.m))
    w = np.empty((n_seeds, N, 3))
    v = np.empty((n_seeds, N + 1, 3))
    for i, seed in enumerate(seeds):
        rng_proc, rng_meas, rng_outl = (np.random.default_rng(s)
                                        for s in np.random.SeedSequence(seed).spawn(3))
        w[i] = cfg.process_std * rng_proc.standard_normal((N, 3))
        v[i] = rng_meas.standard_normal((N + 1, 3))
        d[i] = _disturbances(sched, N, rng_outl)
    start = cfg.initial_truth
    turn = (T * u[:N, 1]).tolist()
    for i, noise in enumerate(w[:, :, 2].tolist()):
        theta = start.theta
        heading = [theta]
        for turn_k, w_k in zip(turn, noise):
            theta = _wrap_float(_wrap_float(theta + turn_k) + w_k)
            heading.append(theta)
        truth[i, :, 2] = heading
    advance = u[:N, 0] * T
    terms = np.empty((n_seeds, 2 * N + 1))
    for axis, p0, trig in ((0, start.p_x, np.cos), (1, start.p_y, np.sin)):
        terms[:, 0] = p0
        terms[:, 1::2] = advance * trig(truth[:, :N, 2])
        terms[:, 2::2] = w[:, :, axis]
        truth[:, :, axis] = np.add.accumulate(terms, axis=1)[:, ::2]
    if not _all_finite(truth):
        raise ConfigurationError("robot state must be finite")
    y = _measure(truth, sched.D, d, _noise_factor(cfg.R), v)
    if not _all_finite(y):
        raise ConfigurationError("measurement must be finite")
    return truth, d, y
