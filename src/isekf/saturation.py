"""Saturation primitives and the adaptive double-layer bound dynamics.

The innovation of each measurement channel i is clipped to the range
[-sqrt(sigma_i), +sqrt(sigma_i)].  The bound itself evolves through a
two-layer recursion: epsilon_i tracks the squared innovation energy and
sigma_i responds to epsilon_i through the shaping term eps*exp(-eps),
so the clip level shrinks rapidly while outliers persist and relaxes
back once the innovation normalizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputDomainError, NumericalFailure

def _all_finite(a) -> bool:
    """Whether every entry of a is finite (True for an empty array): the
    package's one finiteness screen.  Two C calls, where ndarray.all()
    goes through numpy's Python-level reduction wrapper."""
    ok = np.isfinite(a)
    return np.count_nonzero(ok) == ok.size


def _read_only(a) -> np.ndarray:
    """A read-only float copy of a, for the array fields of a frozen
    config: an in-place edit of the field raises ValueError, and the
    caller's own array stays writable."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def _as_channel_vector(value, p: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(p, float(arr[0]))
    if arr.shape != (p,):
        raise ConfigurationError(f"{name} must be a scalar or length-{p} vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class SaturationState:
    """Per-channel bound state: sigma (clip level squared) and epsilon
    (innovation-energy tracker), both finite, stored as read-only copies.
    An epsilon whose sign bit is set (negative, or -0.0) is an
    InputDomainError: epsilon >= +0 is the domain on which _bound_map_core
    needs no clamp, and every map step keeps it there."""

    sigma: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        sigma = _read_only(np.atleast_1d(self.sigma))
        epsilon = _read_only(np.atleast_1d(self.epsilon))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "epsilon", epsilon)
        if sigma.shape != epsilon.shape:
            raise ConfigurationError(
                f"sigma and epsilon must have equal length, got {sigma.shape} vs {epsilon.shape}"
            )
        if not (_all_finite(sigma) and _all_finite(epsilon)):
            raise InputDomainError("sigma and epsilon must be finite")
        if np.count_nonzero(np.signbit(epsilon)):
            raise InputDomainError(f"epsilon must be >= +0, got {epsilon.tolist()}")

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def bounds(self) -> np.ndarray:
        """Per-channel clip levels sqrt(sigma)."""
        return np.sqrt(self.sigma)


@dataclass(frozen=True, eq=False)
class BoundParams:
    """Coefficients of the bound dynamics, one value per channel.

    mode "dt": 0 < lambda1, lambda2 < 1.  mode "ct": lambda1, lambda2 < 0.
    gamma1, gamma2 > 0 in both modes.  sigma0, epsilon0 > 0 seed the state.
    Every entry is finite.  lam = [lambda1; lambda2] and gam = [gamma1;
    gamma2] are the stacked coefficients that _bound_map_core reads.  All
    eight arrays are read-only copies of the values passed.
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    sigma0: np.ndarray
    epsilon0: np.ndarray
    mode: str = "dt"

    def __post_init__(self):
        if self.mode not in ("dt", "ct"):
            raise ConfigurationError(f"mode must be 'dt' or 'ct', got {self.mode!r}")
        p = np.atleast_1d(np.asarray(self.lambda1, dtype=float)).shape[0]
        for name in ("lambda1", "lambda2", "gamma1", "gamma2", "sigma0", "epsilon0"):
            vec = _as_channel_vector(getattr(self, name), p, name)
            if not _all_finite(vec):
                raise InputDomainError(f"{name} must be finite, got {vec.tolist()}")
            object.__setattr__(self, name, _read_only(vec))
        if self.mode == "dt":
            if not (np.all(self.lambda1 > 0.0) and np.all(self.lambda1 < 1.0)):
                raise InputDomainError("dt mode requires 0 < lambda1 < 1 per channel")
            if not (np.all(self.lambda2 > 0.0) and np.all(self.lambda2 < 1.0)):
                raise InputDomainError("dt mode requires 0 < lambda2 < 1 per channel")
        else:
            if not (np.all(self.lambda1 < 0.0) and np.all(self.lambda2 < 0.0)):
                raise InputDomainError("ct mode requires lambda1 < 0 and lambda2 < 0 per channel")
        if not (np.all(self.gamma1 > 0.0) and np.all(self.gamma2 > 0.0)):
            raise InputDomainError("gamma1 and gamma2 must be strictly positive")
        if not (np.all(self.sigma0 > 0.0) and np.all(self.epsilon0 > 0.0)):
            raise InputDomainError("sigma0 and epsilon0 must be strictly positive")
        object.__setattr__(self, "lam", _read_only(np.concatenate((self.lambda1, self.lambda2))))
        object.__setattr__(self, "gam", _read_only(np.concatenate((self.gamma1, self.gamma2))))

    @property
    def p(self) -> int:
        return self.lambda1.shape[0]

    def initial_state(self) -> SaturationState:
        return SaturationState(self.sigma0, self.epsilon0)


def _shaping(eps: np.ndarray) -> np.ndarray:
    """Unchecked core of shaping_term: eps * exp(-eps) for eps >= +0.  There
    it gives the clamped form's bits: above 1e12 exp(-eps) is already 0."""
    return eps * np.exp(-eps)


def shaping_term(epsilon: np.ndarray) -> np.ndarray:
    """eps * exp(-eps) with eps clamped to [0, 1e12] first.

    The term never exceeds 1/e (maximum at eps = 1)."""
    return _shaping(np.minimum(np.maximum(epsilon, 0.0), 1.0e12))


def saturate(r: float, bound: float) -> float:
    """Clip r to [-bound, +bound].

    Idempotent, odd in r, and non-expansive.  Raises InputDomainError for
    non-finite r or negative bound."""
    r = float(r)
    bound = float(bound)
    if not math.isfinite(r):
        raise InputDomainError(f"saturate: r must be finite, got {r}")
    if not (bound >= 0.0):
        raise InputDomainError(f"saturate: bound must be >= 0, got {bound}")
    return max(-bound, min(bound, r))


def _clip(r: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Unchecked core of saturate_vector: r finite, bounds >= 0, equal shapes."""
    return np.minimum(np.maximum(r, -bounds), bounds)


def saturate_vector(r: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Element-wise saturate with per-channel bounds; as saturate, a
    non-finite r or a bound that is not >= 0 (NaN too) is an
    InputDomainError."""
    r = np.asarray(r, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if r.shape != bounds.shape:
        raise ConfigurationError(f"vector/bounds length mismatch: {r.shape} vs {bounds.shape}")
    if not _all_finite(r):
        raise InputDomainError("saturate_vector: non-finite input")
    if not np.all(bounds >= 0.0):
        raise InputDomainError("saturate_vector: bounds must be >= 0")
    return _clip(r, bounds)


def saturate_innovation(innov: np.ndarray, sat: SaturationState) -> np.ndarray:
    """Clip innovation channel i to [-sqrt(sigma_i), +sqrt(sigma_i)]:
    saturate_vector, which checks the innovation, at the bounds of a
    strictly positive sigma."""
    if np.any(sat.sigma <= 0.0):
        raise InputDomainError("saturate_innovation: sigma must be strictly positive")
    return saturate_vector(innov, sat.bounds())


def _bound_map_core(sat: np.ndarray, innov: np.ndarray, lam: np.ndarray, gam: np.ndarray):
    """The two-layer bound map shared by the discrete recursion and the
    continuous-time right-hand side, unchecked: one multiply-add on the
    stacked state sat = [sigma; eps] (last axis 2p), lam = [lambda1;
    lambda2] and gam = [gamma1; gamma2], that is

        lambda1*sigma + gamma1*eps*exp(-eps)
        lambda2*eps   + gamma2*innov^2

    eps is taken as given, not clamped: SaturationState admits only
    eps >= +0, which the discrete map keeps and the continuous stages
    floor at filters._SAT_FLOOR."""
    p = innov.shape[-1]
    return lam * sat + gam * np.concatenate((_shaping(sat[..., p:]), innov * innov), -1)


def _bound_step(sat: np.ndarray, innov: np.ndarray, lam, gam, name: str) -> np.ndarray:
    """_bound_map_core with its overflow check: raises NumericalFailure when
    the result is not finite (an innovation so large that its square
    overflows), InputDomainError when the innovation itself is not; the
    error alone, without a floating-point warning."""
    with np.errstate(all="ignore"):
        sat = _bound_map_core(sat, innov, lam, gam)
    if not _all_finite(sat):
        if not _all_finite(innov):
            raise InputDomainError(f"{name}: non-finite innovation")
        raise NumericalFailure(f"{name}: bound map overflowed", context=innov)
    return sat


def _bound_map(sat: SaturationState, innov: np.ndarray, params: BoundParams, mode: str):
    """_bound_step behind the mode and channel-count checks; returns views
    (sigma, epsilon) of its stacked result."""
    name = "bound_step_dt" if mode == "dt" else "bound_rhs_ct"
    if params.mode != mode:
        raise ConfigurationError(f"{name} requires {mode}-mode parameters")
    innov = np.asarray(innov, dtype=float)
    if innov.shape != sat.sigma.shape or params.p != sat.p:
        raise ConfigurationError(f"{name}: channel count mismatch")
    out = _bound_step(np.concatenate((sat.sigma, sat.epsilon)), innov, params.lam, params.gam, name)
    return out[:sat.p], out[sat.p:]


def bound_step_dt(sat: SaturationState, innov: np.ndarray, params: BoundParams) -> SaturationState:
    """One step of the discrete-time bound recursion.

    sigma' = lambda1*sigma + gamma1*eps*exp(-eps)
    eps'   = lambda2*eps   + gamma2*innov^2

    Driven by the raw (unsaturated) innovation.  With valid dt-mode
    parameters and a positive state, positivity is preserved."""
    return SaturationState(*_bound_map(sat, innov, params, "dt"))


def bound_rhs_ct(sat: SaturationState, innov: np.ndarray, params: BoundParams):
    """Right-hand side of the continuous-time bound dynamics.

    d(sigma)/dt = lambda1*sigma + gamma1*eps*exp(-eps)
    d(eps)/dt   = lambda2*eps   + gamma2*innov^2

    Returns (sigma_dot, eps_dot).  Pure function of its inputs."""
    return _bound_map(sat, innov, params, "ct")
