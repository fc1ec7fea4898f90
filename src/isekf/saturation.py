"""Saturation primitives and the adaptive double-layer bound dynamics.

The innovation of each measurement channel i is clipped to the range
[-sqrt(sigma_i), +sqrt(sigma_i)].  The bound itself evolves through a
two-layer recursion: epsilon_i tracks the squared innovation energy and
sigma_i responds to epsilon_i through the shaping term eps*exp(-eps),
so the clip level shrinks rapidly while outliers persist and relaxes
back once the innovation normalizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputDomainError, NumericalFailure

# Clamp range for epsilon before evaluating exp(-epsilon).  Outside this
# range the shaping term is below 1e-300, i.e. numerically zero anyway.
_EPS_CLAMP = 1.0e12


def _as_channel_vector(value, p: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        arr = np.full(p, float(arr[0]))
    if arr.shape != (p,):
        raise ConfigurationError(f"{name} must be a scalar or length-{p} vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SaturationState:
    """Per-channel bound state: sigma (clip level squared) and epsilon
    (innovation-energy tracker), both strictly positive at init."""

    sigma: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self):
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        epsilon = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "epsilon", epsilon)
        if sigma.shape != epsilon.shape:
            raise ConfigurationError(
                f"sigma and epsilon must have equal length, got {sigma.shape} vs {epsilon.shape}"
            )
        if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(epsilon))):
            raise InputDomainError("sigma and epsilon must be finite")

    @property
    def p(self) -> int:
        return self.sigma.shape[0]

    def require_positive(self) -> None:
        if not (np.all(self.sigma > 0.0) and np.all(self.epsilon > 0.0)):
            raise InputDomainError("sigma and epsilon must be strictly positive")

    def bounds(self) -> np.ndarray:
        """Per-channel clip levels sqrt(sigma)."""
        return np.sqrt(self.sigma)


@dataclass(frozen=True)
class BoundParams:
    """Coefficients of the bound dynamics, one value per channel.

    mode "dt": 0 < lambda1, lambda2 < 1.  mode "ct": lambda1, lambda2 < 0.
    gamma1, gamma2 > 0 in both modes.  sigma0, epsilon0 > 0 seed the state.
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
            object.__setattr__(self, name, _as_channel_vector(getattr(self, name), p, name))
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

    @property
    def p(self) -> int:
        return self.lambda1.shape[0]

    def initial_state(self) -> SaturationState:
        return SaturationState(self.sigma0.copy(), self.epsilon0.copy())


def shaping_term(epsilon: np.ndarray) -> np.ndarray:
    """eps * exp(-eps) with eps clamped to [0, 1e12] first.

    The term never exceeds 1/e (maximum at eps = 1)."""
    eps = np.minimum(np.maximum(epsilon, 0.0), _EPS_CLAMP)
    return eps * np.exp(-eps)


def saturate(r: float, bound: float) -> float:
    """Clip r to [-bound, +bound].

    Idempotent, odd in r, and non-expansive.  Raises InputDomainError for
    non-finite r or negative bound."""
    r = float(r)
    bound = float(bound)
    if not np.isfinite(r):
        raise InputDomainError(f"saturate: r must be finite, got {r}")
    if not (bound >= 0.0):
        raise InputDomainError(f"saturate: bound must be >= 0, got {bound}")
    return max(-bound, min(bound, r))


def _clip(r: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Unchecked core of saturate_vector: r finite, bounds >= 0, equal shapes."""
    return np.minimum(np.maximum(r, -bounds), bounds)


def saturate_vector(r: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Element-wise saturate with per-channel bounds."""
    r = np.asarray(r, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if r.shape != bounds.shape:
        raise ConfigurationError(f"vector/bounds length mismatch: {r.shape} vs {bounds.shape}")
    if not np.all(np.isfinite(r)):
        raise InputDomainError("saturate_vector: non-finite input")
    if np.any(bounds < 0.0):
        raise InputDomainError("saturate_vector: negative bound")
    return _clip(r, bounds)


def saturate_innovation(innov: np.ndarray, sat: SaturationState) -> np.ndarray:
    """Clip innovation channel i to [-sqrt(sigma_i), +sqrt(sigma_i)]."""
    innov = np.asarray(innov, dtype=float)
    if innov.shape != sat.sigma.shape:
        raise ConfigurationError(
            f"innovation length {innov.shape} does not match channel count {sat.sigma.shape}"
        )
    if np.any(sat.sigma <= 0.0):
        raise InputDomainError("saturate_innovation: sigma must be strictly positive")
    return saturate_vector(innov, sat.bounds())


def _bound_map_core(sigma: np.ndarray, epsilon: np.ndarray, innov: np.ndarray,
                    params: BoundParams):
    """The two-layer bound map shared by the discrete recursion and the
    continuous-time right-hand side, unchecked:

        lambda1*sigma + gamma1*eps*exp(-eps)
        lambda2*eps   + gamma2*innov^2"""
    return (params.lambda1 * sigma + params.gamma1 * shaping_term(epsilon),
            params.lambda2 * epsilon + params.gamma2 * innov**2)


def _bound_step(sigma: np.ndarray, epsilon: np.ndarray, innov: np.ndarray,
                params: BoundParams, name: str):
    """_bound_map_core with its overflow check: raises NumericalFailure when
    the result is not finite (an innovation so large that its square
    overflows), InputDomainError when the innovation itself is not."""
    sigma_out, eps_out = _bound_map_core(sigma, epsilon, innov, params)
    # one check covers both outputs: the sum is finite iff neither overflowed
    # (short of both exceeding half the float range)
    if not np.isfinite(sigma_out + eps_out).all():
        if not np.isfinite(innov).all():
            raise InputDomainError(f"{name}: non-finite innovation")
        raise NumericalFailure(f"{name}: bound map overflowed", context=innov)
    return sigma_out, eps_out


def _bound_map(sat: SaturationState, innov: np.ndarray, params: BoundParams, mode: str):
    """_bound_step behind the mode and channel-count checks."""
    name = "bound_step_dt" if mode == "dt" else "bound_rhs_ct"
    if params.mode != mode:
        raise ConfigurationError(f"{name} requires {mode}-mode parameters")
    innov = np.asarray(innov, dtype=float)
    if innov.shape != sat.sigma.shape or params.p != sat.p:
        raise ConfigurationError(f"{name}: channel count mismatch")
    return _bound_step(sat.sigma, sat.epsilon, innov, params, name)


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
