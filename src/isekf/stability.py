"""Stability certificates for the saturated observer on linear systems.

Builds the certificate matrices (one per time-domain family), solves the
continuous/discrete algebraic Riccati equations by following the filter
recursion from a given start, sweeps positive-semidefiniteness along the
resulting covariance trajectory, and evaluates the closed-form transient
and asymptotic error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_continuous_are

from .errors import (
    CertificationFailure,
    ConfigurationError,
    InputDomainError,
    NumericalFailure,
    PropertyFailure,
)
from .filters import (
    _SAT_FLOOR,
    _innovation_gain,
    _is_psd,
    _joint_rk4_step,
    _joint_views,
    _symmetrize,
)
from .saturation import BoundParams, _bound_map_core, _clip
# The checked public forms of the cores above; bench/tracer.py wraps them
# under these names.
from .saturation import bound_rhs_ct, bound_step_dt, saturate_vector  # noqa: F401

_HAUTUS_TOL = 1e-8


def _spd_inverse(M: np.ndarray, what: str) -> np.ndarray:
    try:
        cf = cho_factor(_symmetrize(M))
    except LinAlgError as exc:
        raise NumericalFailure(f"{what} is singular or not positive definite", context=M) from exc
    return cho_solve(cf, np.eye(M.shape[0]))


def sqrtm_psd(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    w, V = np.linalg.eigh(_symmetrize(M))
    w = np.clip(w, 0.0, None)
    return V @ np.diag(np.sqrt(w)) @ V.T


@dataclass
class LinearSystem:
    """Linear observer plant x' = A x, y = C x + D d.

    mode is "continuous" or "discrete".  Q >= 0 and R > 0 play the same
    role as in the filter; D maps the disturbance into the measurement.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    D: np.ndarray
    mode: str

    def __post_init__(self):
        for name in ("A", "C", "Q", "R", "D"):
            setattr(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ConfigurationError("A must be square")
        p = self.C.shape[0]
        if self.C.shape != (p, n):
            raise ConfigurationError(f"C must be p x {n}")
        if self.Q.shape != (n, n) or self.R.shape != (p, p):
            raise ConfigurationError("Q/R dimensions inconsistent with A/C")
        if self.D.shape[0] != p:
            raise ConfigurationError("D must have p rows")
        if self.mode not in ("continuous", "discrete"):
            raise ConfigurationError(f"mode must be 'continuous' or 'discrete', got {self.mode!r}")
        if not _is_psd(self.Q, 1e-10)[1]:
            raise ConfigurationError("Q must be positive semidefinite")
        try:
            cho_factor(_symmetrize(self.R))
        except LinAlgError as exc:
            raise ConfigurationError("R must be positive definite") from exc

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def m(self) -> int:
        return self.D.shape[1]


def _hautus_ok(A: np.ndarray, B: np.ndarray, mode: str, tol: float) -> bool:
    """Hautus test: rank [lam*I - A, B] = n at every eigenvalue lam of A
    that is not already converging (Re >= 0 in continuous mode, |lam| >= 1
    in discrete mode)."""
    n = A.shape[0]
    scale = 1.0 + np.linalg.norm(A) + np.linalg.norm(B)
    for lam in np.linalg.eigvals(A):
        unstable = lam.real >= -tol * scale if mode == "continuous" else abs(lam) >= 1.0 - tol
        if not unstable:
            continue
        pencil = np.hstack([lam * np.eye(n) - A, B.astype(complex)])
        if np.linalg.svd(pencil, compute_uv=False)[-1] <= tol * scale:
            return False
    return True


def is_stabilizable(sys: LinearSystem, tol: float = _HAUTUS_TOL) -> bool:
    return _hautus_ok(sys.A, sqrtm_psd(sys.Q), sys.mode, tol)


def is_detectable(sys: LinearSystem, tol: float = _HAUTUS_TOL) -> bool:
    return _hautus_ok(sys.A.T, sys.C.T, sys.mode, tol)


def assert_regular(sys: LinearSystem) -> None:
    """Raise unless (A, Q^(1/2)) is stabilizable and (A, C) detectable."""
    if not is_stabilizable(sys):
        raise CertificationFailure("(A, Q^(1/2)) is not stabilizable")
    if not is_detectable(sys):
        raise CertificationFailure("(A, C) is not detectable")


# ---------------------------------------------------------------------------
# Riccati solvers

def _care_rhs(sys: LinearSystem, Sbar: np.ndarray, P: np.ndarray) -> np.ndarray:
    return _symmetrize(sys.A @ P + P @ sys.A.T + sys.Q - P @ Sbar @ P)


def _care_flow(sys: LinearSystem, P0: np.ndarray, max_iter: int = 20000):
    """Follow the Riccati flow dP/dt = A P + P A^T + Q - P C^T R^(-1) C P
    from P0 and record the trajectory, handing over to solve_care once the
    flow is near its fixed point.

    Each step propagates the flow exactly over a horizon h through the
    associated linear system d/dt [X; Y] = [[-A', S], [Q, A]] [X; Y] with
    P = Y X^(-1): P <- (Phi21 + Phi22 P)(Phi11 + Phi12 P)^(-1) where
    Phi = expm(h M).  h is doubled periodically so slow closed-loop modes
    converge in a bounded number of steps.  Returns (P_inf, samples) with
    samples a list of (t, P) including the start."""
    from scipy.linalg import expm

    n = sys.n
    Rinv = _spd_inverse(sys.R, "R")
    Sbar = _symmetrize(sys.C.T @ Rinv @ sys.C)
    M = np.block([[-sys.A.T, Sbar], [sys.Q, sys.A]])
    P = _symmetrize(np.asarray(P0, dtype=float))
    samples = [(0.0, P.copy())]

    def stationary(P_mat, nd_val):
        return nd_val <= 1e-12 * (1.0 + np.linalg.norm(P_mat))

    nd = np.linalg.norm(_care_rhs(sys, Sbar, P))
    if stationary(P, nd):
        return P, samples

    # Step cap keeps expm and the flow-step solve well conditioned; the
    # growth rate is the largest real part among the Hamiltonian modes.
    max_re = max(1e-6, float(np.linalg.eigvals(M).real.max()))
    h_max = 4.5 / max_re
    h = min(0.5 / (1.0 + np.linalg.norm(M, 2)), h_max)
    Phi = expm(h * M)
    t = 0.0
    steps_at_h = 0
    for _ in range(max_iter):
        X = Phi[:n, :n] + Phi[:n, n:] @ P
        Y = Phi[n:, :n] + Phi[n:, n:] @ P
        try:
            P_new = _symmetrize(np.linalg.solve(X.T, Y.T).T)
        except np.linalg.LinAlgError:
            P_new = np.full_like(P, np.nan)
        if not np.all(np.isfinite(P_new)):
            # step too aggressive; halve and retry
            h *= 0.5
            Phi = expm(h * M)
            steps_at_h = 0
            continue
        P = P_new
        t += h
        steps_at_h += 1
        samples.append((t, P.copy()))
        nd = np.linalg.norm(_care_rhs(sys, Sbar, P))
        if stationary(P, nd):
            return P, samples
        if nd <= 1e-3 * (1.0 + np.linalg.norm(P)):
            # close to the fixed point: the Schur solution meets the
            # stationarity contract past the flow steps' rounding floor
            return solve_care(sys), samples
        if steps_at_h >= 8 and h < h_max:
            h = min(2.0 * h, h_max)
            Phi = expm(h * M)
            steps_at_h = 0
    raise CertificationFailure("continuous Riccati flow did not reach stationarity")


def solve_care(sys: LinearSystem) -> np.ndarray:
    """Stabilizing solution of A P + P A^T + Q - P C^T R^(-1) C P = 0 by
    the Schur method (Arnold & Laub, Proc. IEEE 1984).  The returned
    matrix satisfies the residual contract
    ||residual||_F <= 1e-10 * (1 + ||P||_F)."""
    if sys.mode != "continuous":
        raise ConfigurationError("solve_care requires a continuous-mode system")
    assert_regular(sys)
    return _symmetrize(solve_continuous_are(sys.A.T, sys.C.T, sys.Q, sys.R))


def _dare_step(sys: LinearSystem, P: np.ndarray):
    """One prediction-form Riccati recursion step; returns
    (P_next, P_filt, K)."""
    K, S = _innovation_gain(P, sys.C, sys.R)
    P_filt = _symmetrize(P - K @ S @ K.T)
    P_next = _symmetrize(sys.A @ P_filt @ sys.A.T + sys.Q)
    return P_next, P_filt, K


def _dare_stationary(P: np.ndarray, P_next: np.ndarray) -> bool:
    """The discrete recursion's stopping test on successive iterates."""
    return np.linalg.norm(P_next - P) <= 1e-12 * (1.0 + np.linalg.norm(P))


def _dare_flow(sys: LinearSystem, P0: np.ndarray, record: bool = False,
               max_iter: int = 1000000):
    """Iterate the prediction-form recursion until successive iterates are
    stationary.  Returns (P_inf, preds, filts, gains)."""
    P = _symmetrize(np.asarray(P0, dtype=float))
    preds, filts, gains = [], [], []
    for _ in range(max_iter):
        P_next, P_filt, K = _dare_step(sys, P)
        if record:
            preds.append(P.copy())
            filts.append(P_filt.copy())
            gains.append(K.copy())
        if not np.all(np.isfinite(P_next)):
            raise CertificationFailure("discrete Riccati recursion diverged")
        if _dare_stationary(P, P_next):
            return _symmetrize(P_next), preds, filts, gains
        P = P_next
    raise CertificationFailure("discrete Riccati recursion did not converge")


def solve_dare(sys: LinearSystem) -> np.ndarray:
    """Fixed point of P = A P A^T + Q - A P C^T (C P C^T + R)^(-1) C P A^T,
    from P0 = 0.  Residual contract as solve_care."""
    if sys.mode != "discrete":
        raise ConfigurationError("solve_dare requires a discrete-mode system")
    assert_regular(sys)
    P, _, _, _ = _dare_flow(sys, np.zeros((sys.n, sys.n)))
    return P


def care_residual(sys: LinearSystem, P: np.ndarray) -> float:
    Rinv = _spd_inverse(sys.R, "R")
    return float(np.linalg.norm(sys.A @ P + P @ sys.A.T + sys.Q - P @ sys.C.T @ Rinv @ sys.C @ P))


def dare_residual(sys: LinearSystem, P: np.ndarray) -> float:
    S = sys.C @ P @ sys.C.T + sys.R
    G = np.linalg.solve(S, sys.C @ P @ sys.A.T)
    return float(np.linalg.norm(sys.A @ P @ sys.A.T + sys.Q - sys.A @ P @ sys.C.T @ G - P))


# ---------------------------------------------------------------------------
# Certificate matrices

@dataclass
class CertificateCandidate:
    """Free parameters of a certificate attempt: W (diagonal PD), U (PD),
    alpha > 0, Gamma2 (diagonal PD, must match the running bound gains),
    and the covariance start P0 >= 0."""

    W: np.ndarray
    U: np.ndarray
    alpha: float
    Gamma2: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        self.W = np.atleast_2d(np.asarray(self.W, dtype=float))
        self.U = np.atleast_2d(np.asarray(self.U, dtype=float))
        self.Gamma2 = np.atleast_2d(np.asarray(self.Gamma2, dtype=float))
        self.P0 = np.atleast_2d(np.asarray(self.P0, dtype=float))
        for name, M in (("W", self.W), ("Gamma2", self.Gamma2)):
            if np.any(np.abs(M - np.diag(np.diag(M))) > 1e-12 * (1.0 + abs(M).max())):
                raise ConfigurationError(f"{name} must be diagonal")
            if np.any(np.diag(M) <= 0.0):
                raise ConfigurationError(f"{name} must have strictly positive diagonal")
        if np.linalg.eigvalsh(_symmetrize(self.U)).min() <= 0.0:
            raise ConfigurationError("U must be positive definite")
        if not self.alpha > 0.0:
            raise ConfigurationError("alpha must be positive")
        lmin = np.linalg.eigvalsh(_symmetrize(self.P0)).min()
        if lmin < -1e-12 * (1.0 + np.linalg.norm(self.P0)):
            raise ConfigurationError("P0 must be positive semidefinite")


def build_S(sys: LinearSystem, cand: CertificateCandidate, P_t: np.ndarray) -> np.ndarray:
    """Continuous-time certificate matrix, size (n+p+m) square:

        [ M - a*P^-1      -C'(R^-1+W)      C'(G2-R^-1)D ]
        [     *               2W               W D      ]
        [     *                *                U       ]

    with M = P^-1 Q P^-1 + C'(R^-1 - G2)C."""
    n, p, m = sys.n, sys.p, sys.m
    Pinv = _spd_inverse(P_t, "P_t")
    Rinv = _spd_inverse(sys.R, "R")
    M = Pinv @ sys.Q @ Pinv + sys.C.T @ (Rinv - cand.Gamma2) @ sys.C
    S = np.zeros((n + p + m, n + p + m))
    S[:n, :n] = M - cand.alpha * Pinv
    S[:n, n:n + p] = -sys.C.T @ (Rinv + cand.W)
    S[:n, n + p:] = sys.C.T @ (cand.Gamma2 - Rinv) @ sys.D
    S[n:n + p, n:n + p] = 2.0 * cand.W
    S[n:n + p, n + p:] = cand.W @ sys.D
    S[n + p:, n + p:] = cand.U
    S[n:n + p, :n] = S[:n, n:n + p].T
    S[n + p:, :n] = S[:n, n + p:].T
    S[n + p:, n:n + p] = S[n:n + p, n + p:].T
    return _symmetrize(S)


def build_Z(
    sys: LinearSystem,
    cand: CertificateCandidate,
    P_pred: np.ndarray,
    P_filt: np.ndarray,
    eps_cov: Optional[float] = None,
):
    """Discrete-time certificate matrix and the disturbance block T6.

    eps_cov is the scalar with P_filt^-1 <= eps_cov*I; when omitted it is
    taken from the supplied P_filt alone (with a 1% margin).  Requires
    invertible A and positive definite Q."""
    if sys.mode != "discrete":
        raise ConfigurationError("build_Z requires a discrete-mode system")
    n, p, m = sys.n, sys.p, sys.m
    if np.linalg.matrix_rank(sys.A, tol=1e-12 * (1.0 + np.linalg.norm(sys.A))) < n:
        raise CertificationFailure("discrete certification requires invertible A")
    try:
        Q_cf = cho_factor(_symmetrize(sys.Q))
    except LinAlgError as exc:
        raise CertificationFailure("discrete certification requires invertible Q") from exc
    Qinv = cho_solve(Q_cf, np.eye(n))
    Rinv = _spd_inverse(sys.R, "R")
    Pf_inv = _spd_inverse(P_filt, "P_filt")
    if eps_cov is None:
        eps_cov = 1.01 * float(np.linalg.eigvalsh(Pf_inv).max())
    Qbar = _spd_inverse(eps_cov * np.eye(n) + sys.A.T @ Qinv @ sys.A, "Qbar inverse")
    CR = sys.C.T @ Rinv                       # n x p
    CRC = _symmetrize(CR @ sys.C)                    # n x n
    Pdiff = P_filt - Qbar
    G = _symmetrize(Rinv @ sys.C @ Pdiff @ sys.C.T @ Rinv)   # p x p

    T1 = _symmetrize(CRC + Pf_inv @ Qbar @ Pf_inv - Pf_inv @ Qbar @ CRC - CRC @ Qbar @ Pf_inv
              - CRC @ Pdiff @ CRC - sys.C.T @ cand.Gamma2 @ sys.C)
    T2 = -CR + Pf_inv @ Qbar @ CR + CRC @ Pdiff @ CR
    T3 = (T2 + sys.C.T @ cand.Gamma2) @ sys.D
    T4 = -G
    T5 = -G @ sys.D
    T6 = _symmetrize(sys.D.T @ (G + cand.Gamma2) @ sys.D)

    Pp_inv = _spd_inverse(P_pred, "P_pred")
    Z = np.zeros((n + p + m, n + p + m))
    Z[:n, :n] = T1 - cand.alpha * Pp_inv
    Z[:n, n:n + p] = T2 - sys.C.T @ cand.W
    Z[:n, n + p:] = T3
    Z[n:n + p, n:n + p] = T4 + 2.0 * cand.W
    Z[n:n + p, n + p:] = T5 + cand.W @ sys.D
    Z[n + p:, n + p:] = cand.U
    Z[n:n + p, :n] = Z[:n, n:n + p].T
    Z[n + p:, :n] = Z[:n, n + p:].T
    Z[n + p:, n:n + p] = Z[n:n + p, n + p:].T
    return _symmetrize(Z), T6


@dataclass(frozen=True)
class PsdReport:
    ok: bool
    min_eig: float

    def __bool__(self) -> bool:
        return self.ok


def is_psd(M: np.ndarray, tol: float = 1e-9) -> PsdReport:
    """True iff lambda_min(M) >= -tol*(1 + ||M||), after symmetrization."""
    M = _symmetrize(np.asarray(M, dtype=float))
    try:
        min_eig = float(np.linalg.eigvalsh(M).min())
    except LinAlgError as exc:
        raise NumericalFailure("eigenvalue computation failed", context=M) from exc
    return PsdReport(bool(min_eig >= -tol * (1.0 + np.linalg.norm(M))), min_eig)


# ---------------------------------------------------------------------------
# Certification

@dataclass
class StabilityCertificate:
    """Outcome of a successful certification sweep.

    transient_bound(t, V0) evaluates the closed-form envelope with the
    pointwise covariance floor; asymptotic_bound is its limit.  The
    certificate is trajectory-sampled: positive semidefiniteness was
    checked at the recorded checkpoints plus the fixed point, not proven
    on the continuum.
    """

    mode: str
    variant: str
    P_inf: np.ndarray
    W: np.ndarray
    U: np.ndarray
    alpha: float
    Gamma2: np.ndarray
    c1: float
    c3: float
    rho: float
    mu: float
    params: BoundParams
    P0: np.ndarray
    asymptotic_bound: float
    checkpoints: list = field(default_factory=list)  # (time-or-step, min_eig)
    _c2_times: np.ndarray = None
    _c2_lmax: np.ndarray = None
    trajectory_sampled: bool = True

    def c2_at(self, t) -> float:
        """Pointwise c2 = lambda_min(P^-1) = 1/lambda_max(P) along the
        certification trajectory (fixed point beyond it)."""
        idx = np.searchsorted(self._c2_times, t, side="right") - 1
        if idx < 0:
            idx = 0
        if idx >= len(self._c2_lmax):
            idx = len(self._c2_lmax) - 1
        return 1.0 / float(self._c2_lmax[idx])

    def initial_v(self, e0: np.ndarray) -> float:
        """Lyapunov level at the start: e0' P0^-1 e0 + sum(sigma0) + sum(eps0)."""
        e0 = np.asarray(e0, dtype=float)
        v = float(np.sum(self.params.sigma0) + np.sum(self.params.epsilon0))
        if np.any(e0 != 0.0):
            v += float(e0 @ np.linalg.solve(self.P0, e0))
        return v

    def forcing(self) -> float:
        return self.c1 * self.mu**2 + self.rho

    def transient_bound(self, t, V0: float) -> float:
        """Envelope on ||e|| at continuous time t (or step k)."""
        f = self.forcing()
        if self.mode == "continuous":
            decay = math.exp(-self.alpha * float(t))
        else:
            decay = (1.0 - self.alpha) ** int(t)
        level = decay * V0 + (1.0 - decay) * f / self.alpha
        return math.sqrt(max(level, 0.0) / self.c2_at(t))

    def report_text(self) -> str:
        lines = [
            f"certificate mode={self.mode} variant={self.variant} (trajectory-sampled)",
            f"alpha = {self.alpha:.6g}   mu = {self.mu:.6g}   rho = {self.rho:.6g}",
            f"c1 = {self.c1:.6g}   c3 = {self.c3:.6g}",
            f"asymptotic bound = {self.asymptotic_bound:.6g}",
            "P_inf =",
            np.array2string(self.P_inf, precision=8),
            "W diag = " + np.array2string(np.diag(self.W), precision=6),
            "U =",
            np.array2string(self.U, precision=6),
            "Gamma2 diag = " + np.array2string(np.diag(self.Gamma2), precision=6),
            "checkpoint min eigenvalues:",
        ]
        for where, me in self.checkpoints:
            lines.append(f"  at {where:.6g}: {me:.3e}")
        return "\n".join(lines)


def _check_bound_params(sys: LinearSystem, params: BoundParams) -> None:
    """The bound dynamics must match the system's time domain and channels."""
    expected_mode = "ct" if sys.mode == "continuous" else "dt"
    if params.mode != expected_mode:
        raise ConfigurationError(
            f"bound parameters are {params.mode}-mode but the system is {sys.mode}"
        )
    if params.p != sys.p:
        raise ConfigurationError("bound parameters channel count != p")


def _alpha_ceiling(params: BoundParams, mode: str, variant: str) -> float:
    lam = np.concatenate([params.lambda1, params.lambda2 + (params.gamma1 if variant == "corollary" else 0.0)])
    if mode == "continuous":
        return float(-lam.max())
    return float(1.0 - lam.max())


def certify(
    sys: LinearSystem,
    cand: CertificateCandidate,
    params: BoundParams,
    mu: float,
    variant: str = "theorem",
    checkpoints: int = 50,
    psd_tol: float = 1e-9,
) -> StabilityCertificate:
    """Attempt a bounded-error certificate.

    Validates the alpha ceiling for the chosen variant ("theorem" keeps
    the rho term; "corollary" drops it under the stricter ceiling using
    lambda2 + gamma1), then checks the certificate matrix for positive
    semidefiniteness at geometrically spaced checkpoints of the Riccati
    trajectory from P0 plus the fixed point.  Raises CertificationFailure
    naming the first violated condition."""
    if variant not in ("theorem", "corollary"):
        raise ConfigurationError(f"unknown variant {variant!r}")
    if not mu >= 0.0:
        raise InputDomainError("mu must be nonnegative")
    _check_bound_params(sys, params)
    if not np.allclose(np.diag(cand.Gamma2), params.gamma2, rtol=1e-12, atol=0.0):
        raise CertificationFailure(
            "Gamma2 of the candidate must equal diag(gamma2) of the running bound dynamics"
        )

    ceiling = _alpha_ceiling(params, sys.mode, variant)
    if ceiling <= 0.0 or cand.alpha > ceiling + 1e-12:
        raise CertificationFailure(
            f"alpha condition violated: need 0 < alpha <= {ceiling:.6g} "
            f"({variant} variant), got {cand.alpha:.6g}"
        )

    assert_regular(sys)
    rho = 0.0 if variant == "corollary" else float(np.sum(params.gamma1)) / math.e

    if sys.mode == "continuous":
        P_inf, samples = _care_flow(sys, cand.P0)
        times = np.array([t for t, _ in samples])
        mats = [P for _, P in samples]
    else:
        P_inf, preds, filts, gains = _dare_flow(sys, cand.P0, record=True)
        times = np.arange(len(preds), dtype=float)
        mats = preds

    # geometric checkpoint selection over the recorded trajectory + fixed point
    n_rec = len(mats)
    if n_rec > 1:
        idx = np.unique(np.round(np.geomspace(1, n_rec - 1, min(checkpoints, n_rec - 1))).astype(int))
        idx = np.concatenate([[0], idx])
    else:
        idx = np.array([0])

    eps_cov = None
    if sys.mode == "discrete":
        filts_all = filts + [_dare_step(sys, P_inf)[1]]
        eps_cov = 1.01 * max(float(np.linalg.eigvalsh(_spd_inverse(Pf, "P_filt")).max())
                             for Pf in filts_all)

    lmin_p0 = float(np.linalg.eigvalsh(_symmetrize(cand.P0)).min())
    report = []
    checks = []
    for i in idx:
        if i == 0 and lmin_p0 <= 1e-12 * (1.0 + np.linalg.norm(cand.P0)):
            continue  # singular start has no P^-1; the sweep begins at the first iterate
        checks.append((float(times[i]), mats[i], filts[i] if sys.mode == "discrete" else None))
    if sys.mode == "discrete":
        checks.append((float(times[-1]) + 1.0 if n_rec else 0.0, P_inf, _dare_step(sys, P_inf)[1]))
    else:
        checks.append((float(times[-1]) if n_rec else 0.0, P_inf, None))

    t6_top = -np.inf
    for where, P_pred, P_filt in checks:
        if sys.mode == "continuous":
            Mat = build_S(sys, cand, P_pred)
        else:
            Mat, T6 = build_Z(sys, cand, P_pred, P_filt, eps_cov=eps_cov)
            t6_top = max(t6_top, float(np.linalg.eigvalsh(_symmetrize(T6 + cand.U)).max()))
        rep = is_psd(Mat, tol=psd_tol)
        report.append((where, rep.min_eig))
        if not rep.ok:
            raise CertificationFailure(
                f"certificate matrix not PSD at checkpoint {where:.6g} "
                f"(min eigenvalue {rep.min_eig:.3e})"
            )

    if sys.mode == "continuous":
        c1 = float(np.linalg.eigvalsh(_symmetrize(cand.U + sys.D.T @ cand.Gamma2 @ sys.D)).max())
    else:
        c1 = t6_top
    c3 = 1.0 / float(np.linalg.eigvalsh(_symmetrize(P_inf)).max())

    lmax_traj = np.array([float(np.linalg.eigvalsh(P).max()) for P in mats] + [float(np.linalg.eigvalsh(P_inf).max())])
    times_traj = np.concatenate([times, [times[-1] + (1.0 if sys.mode == "discrete" else 0.0)]]) if n_rec else np.array([0.0])
    forcing = c1 * mu**2 + rho
    asym = math.sqrt(forcing / (cand.alpha * c3))

    return StabilityCertificate(
        mode=sys.mode,
        variant=variant,
        P_inf=P_inf,
        W=cand.W,
        U=cand.U,
        alpha=cand.alpha,
        Gamma2=cand.Gamma2,
        c1=c1,
        c3=c3,
        rho=rho,
        mu=float(mu),
        params=params,
        P0=cand.P0,
        asymptotic_bound=asym,
        checkpoints=report,
        _c2_times=times_traj,
        _c2_lmax=lmax_traj,
    )


def sweep_candidates(
    sys: LinearSystem,
    params: BoundParams,
    mu: float,
    alpha: float,
    P0: np.ndarray,
    U_scale_grid=None,
    W_scale_grid=None,
    variant: str = "theorem",
) -> StabilityCertificate:
    """Try W = w*I, U = u*I over log grids; return the first certificate
    that succeeds.  This is a convenience search, not an optimization."""
    if W_scale_grid is None:
        W_scale_grid = np.logspace(-3, 3, 13)
    if U_scale_grid is None:
        U_scale_grid = np.logspace(-3, 3, 13)
    Gamma2 = np.diag(params.gamma2)
    last_error = None
    for w in W_scale_grid:
        for u in U_scale_grid:
            cand = CertificateCandidate(
                W=w * np.eye(sys.p), U=u * np.eye(sys.m), alpha=alpha, Gamma2=Gamma2, P0=P0
            )
            try:
                return certify(sys, cand, params, mu, variant=variant)
            except CertificationFailure as exc:
                last_error = exc
    raise CertificationFailure(f"no certificate found on the (W, U) grid; last failure: {last_error}")


# ---------------------------------------------------------------------------
# Bound verification and proof identities

@dataclass(frozen=True)
class BoundCheckReport:
    max_ratio: float
    horizon: float
    samples: int
    final_error_norm: float


def bound_trajectory_check(
    sys: LinearSystem,
    cand: CertificateCandidate,
    cert: StabilityCertificate,
    d_signal: Callable,
    horizon,
    e0: Optional[np.ndarray] = None,
    dt: float = 1e-3,
) -> BoundCheckReport:
    """Simulate the saturated-observer error system and assert the
    certified envelope pointwise.

    d_signal(k) (discrete) or d_signal(t) (continuous) must be finite with
    ||d|| <= mu; otherwise InputDomainError.  The bound parameters, e0 and
    dt are checked once at entry; the steps then run on the unchecked
    clip and bound-map cores, and a non-finite stepped state raises
    NumericalFailure.  The discrete covariance recursion starts at
    cand.P0; once it is stationary (the test solve_dare stops on) its gain
    is frozen.  The continuous system (e, P, sigma, eps) is integrated
    with RK4 as one stacked vector, sigma and eps floored at 1e-12 in
    every stage and after every step.  Raises PropertyFailure at the
    first violation of ||e|| <= transient_bound + 1e-9."""
    params = cert.params
    _check_bound_params(sys, params)
    e = np.zeros(sys.n) if e0 is None else np.asarray(e0, dtype=float)
    if e.shape != (sys.n,):
        raise ConfigurationError(f"e0 must have length {sys.n}, got shape {e.shape}")
    if sys.mode == "continuous" and not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    A, C, D = sys.A, sys.C, sys.D
    V0 = cert.initial_v(e)
    max_ratio = 0.0
    tol = 1e-9
    # ||d|| <= mu up to rounding in discrete time, up to 1e-9 at RK4 stages
    d_limit = cert.mu + (1e-12 if sys.mode == "discrete" else 1e-9)

    def disturbance(where):
        d = np.asarray(d_signal(where), dtype=float).reshape(-1)
        norm_d = math.sqrt(d.dot(d))
        if not norm_d <= d_limit:  # also rejects NaN
            what = "is not finite" if not np.isfinite(norm_d) else "exceeds mu"
            raise InputDomainError(f"||d|| {what} at {where:.6g}")
        return d

    def check(where, e_vec):
        nonlocal max_ratio
        bound = cert.transient_bound(where, V0)
        norm_e = float(np.linalg.norm(e_vec))
        if not norm_e <= bound + tol:
            raise PropertyFailure(
                f"certified bound violated at {where:.6g}: ||e|| = {norm_e:.6g} > {bound:.6g}",
                at=where,
            )
        if bound > 0.0:
            max_ratio = max(max_ratio, norm_e / bound)

    if sys.mode == "discrete":
        P = _symmetrize(cand.P0)
        sigma, eps = params.sigma0, params.epsilon0
        n_steps = int(horizon)
        for k in range(n_steps + 1):
            d = disturbance(k)
            check(k, e)
            if P is not None:
                P_next, _, K = _dare_step(sys, P)
                P = None if _dare_stationary(P, P_next) else P_next
            innov = C.dot(e) - D.dot(d)
            e = A.dot(e) - A.dot(K.dot(_clip(innov, np.sqrt(sigma))))
            sigma, eps = _bound_map_core(sigma, eps, innov, params)
            if not (np.isfinite(e).all() and np.isfinite(sigma).all() and np.isfinite(eps).all()):
                raise NumericalFailure(f"error system non-finite after step {k}", context=e)
        return BoundCheckReport(max_ratio=max_ratio, horizon=float(n_steps), samples=n_steps + 1,
                                final_error_norm=float(np.linalg.norm(e)))

    # continuous time: RK4 on the coupled (e, P, sigma, eps) system
    Rinv = _spd_inverse(sys.R, "R")
    CtRinv, Q = C.T @ Rinv, sys.Q
    n, p = sys.n, sys.p

    # ndarray.dot rather than @: the operands are tiny, and dot dispatches
    # in about half the time
    def rhs(z, t):
        e_vec, P_mat, sat = _joint_views(z, n)
        d = disturbance(t)
        sat = np.maximum(sat, _SAT_FLOOR)
        sig, eps = sat[:p], sat[p:]
        K = P_mat.dot(CtRinv)
        innov = C.dot(e_vec) - D.dot(d)
        e_dot = A.dot(e_vec) - K.dot(_clip(innov, np.sqrt(sig)))
        AP = A.dot(P_mat)  # P_mat is exactly symmetric: P A^T = (A P)^T
        P_dot = _symmetrize(AP + AP.T + Q - K.dot(C).dot(P_mat))
        return np.concatenate((e_dot, P_dot) + _bound_map_core(sig, eps, innov, params),
                              axis=None)

    joint = (e, _symmetrize(cand.P0), params.sigma0, params.epsilon0)
    n_steps = int(round(float(horizon) / dt))
    for i in range(n_steps + 1):
        t = i * dt
        check(t, joint[0])
        if i == n_steps:
            break
        joint = _joint_rk4_step(rhs, joint, t, dt)
    return BoundCheckReport(max_ratio=max_ratio, horizon=float(horizon), samples=n_steps + 1,
                            final_error_norm=float(np.linalg.norm(joint[0])))


def gain_identity_residuals(C: np.ndarray, R: np.ndarray, P_pred: np.ndarray):
    """Residuals of the three filtered-covariance/gain identities:
    Pf^-1 = Pp^-1 + C'R^-1 C;  Pf^-1 K = C'R^-1;  K'Pf^-1 K = R^-1 C Pf C' R^-1."""
    S = _symmetrize(C @ P_pred @ C.T + R)
    K = np.linalg.solve(S, C @ P_pred).T
    P_filt = _symmetrize(P_pred - K @ S @ K.T)
    Rinv = _spd_inverse(R, "R")
    Pf_inv = _spd_inverse(P_filt, "P_filt")
    Pp_inv = _spd_inverse(P_pred, "P_pred")
    r1 = float(np.linalg.norm(Pf_inv - (Pp_inv + C.T @ Rinv @ C)))
    r2 = float(np.linalg.norm(Pf_inv @ K - C.T @ Rinv))
    r3 = float(np.linalg.norm(K.T @ Pf_inv @ K - Rinv @ C @ P_filt @ C.T @ Rinv))
    return r1, r2, r3


def qbar_chain_residual(A: np.ndarray, Q: np.ndarray, P: np.ndarray) -> float:
    """Residual of the matrix-inversion-lemma chain
    A^-T [P^-1 - P^-1 (P^-1 + A'Q^-1 A)^-1 P^-1] A^-1 = (A P A' + Q)^-1."""
    Pinv = _spd_inverse(P, "P")
    Qinv = _spd_inverse(Q, "Q")
    Ainv = np.linalg.inv(A)
    inner = Pinv - Pinv @ np.linalg.solve(Pinv + A.T @ Qinv @ A, Pinv)
    lhs = Ainv.T @ inner @ Ainv
    rhs = _spd_inverse(A @ P @ A.T + Q, "A P A' + Q")
    return float(np.linalg.norm(lhs - rhs))
