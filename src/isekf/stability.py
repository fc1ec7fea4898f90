"""Stability certificates for the saturated observer on linear systems.

Builds the certificate matrices (one per time-domain family), solves the
continuous/discrete algebraic Riccati equations by following the filter
recursion from a given start, sweeps positive-semidefiniteness along the
resulting covariance trajectory, and evaluates the closed-form transient
and asymptotic error bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    CertificationFailure,
    ConfigurationError,
    InputDomainError,
    NumericalFailure,
    PropertyFailure,
)
from .filters import (_floored_rk4_step, _innovation_gain, _is_psd, _require_finite,
                      _require_noise_covariances, _require_symmetric, _riccati_rhs, _rk4,
                      _saturated_rhs, _spd_solve, _symmetrize)
from .saturation import BoundParams, _all_finite, _bound_map_core, _clip, _read_only
# The checked public forms of the cores above; bench/tracer.py wraps them
# under these names.
from .saturation import bound_rhs_ct, bound_step_dt, saturate_vector  # noqa: F401

_HAUTUS_TOL = 1e-8
# Checkpoints of the certification sweep, and its PSD tolerance
_CHECKPOINTS = 50
_PSD_TOL = 1e-9
# Step caps of the continuous and discrete Riccati flows
_CARE_MAX_ITER = 20000
_DARE_MAX_ITER = 1000000
# Step cap of the Newton-Kleinman refinement of the continuous fixed point
_NEWTON_MAX_ITER = 60
# Samples per envelope evaluation of a bound check
_ENVELOPE_BLOCK = 256


def _spd_inverse(M: np.ndarray, what: str) -> np.ndarray:
    """Inverse of the symmetric part of an SPD matrix through _spd_solve.
    The finiteness check comes first: the Cholesky factor of a matrix
    holding nan or inf comes back without an error.  Raises NumericalFailure."""
    if not _all_finite(M):
        raise NumericalFailure(f"{what} not finite", context=M)
    # halves first, as in _is_psd: M + M^T overflows for entries near the float limit
    return _spd_solve(0.5 * M + 0.5 * M.T, np.eye(M.shape[0]), what)


def sqrtm_psd(M: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    w, V = np.linalg.eigh(_symmetrize(M))
    w = np.clip(w, 0.0, None)
    return V @ np.diag(np.sqrt(w)) @ V.T


@dataclass(frozen=True)
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
            M = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, M)
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
        _require_finite(self, ("A", "C", "Q", "R", "D"))
        _require_noise_covariances(self)

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


def is_stabilizable(sys: LinearSystem) -> bool:
    return _hautus_ok(sys.A, sqrtm_psd(sys.Q), sys.mode, _HAUTUS_TOL)


def is_detectable(sys: LinearSystem) -> bool:
    return _hautus_ok(sys.A.T, sys.C.T, sys.mode, _HAUTUS_TOL)


def assert_regular(sys: LinearSystem) -> None:
    """Raise unless (A, Q^(1/2)) is stabilizable and (A, C) detectable."""
    if not is_stabilizable(sys):
        raise CertificationFailure("(A, Q^(1/2)) is not stabilizable")
    if not is_detectable(sys):
        raise CertificationFailure("(A, C) is not detectable")


# ---------------------------------------------------------------------------
# Riccati solvers

def _stationary(P: np.ndarray, step_norm: float) -> bool:
    """The one stopping test of the Riccati flows: a step (the norm of the
    continuous right-hand side, or of P_next - P) within 1e-12 (1 + ||P||).
    An overflowed norm of P (entries above about 1.3e154) never passes it."""
    scale = 1.0 + np.linalg.norm(P)
    return math.isfinite(scale) and step_norm <= 1e-12 * scale


# Degree-13 Pade coefficients b_0 .. b_13 (Higham, SIAM J. Matrix Anal.
# Appl. 2005); the bound on eta_5 = min(max(d_6, d_8), max(d_8, d_10)),
# d_k = ||M^k||_1^(1/k), up to which the approximant is accurate to double
# precision, and 1 / |c_27|, c_27 the leading coefficient of its
# backward-error series (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 2009)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_PADE13_THETA = 4.25
_PADE13_C27_RECIP = 1.1325077560602111e35


def _pade13_squarings(M: np.ndarray) -> int:
    """The number of squarings s of _expm (Al-Mohy and Higham 2009): from
    eta_5, not ||M||_1, which is far larger on a nearly nilpotent M and
    would cost accuracy in each extra squaring; then s grows by the
    backward-error term of |M / 2^s|^27 (formed as ((B^3)^3)^3).  Powers
    that overflow are bounded by ||M||_1^k in exact arithmetic, which
    stands in for them."""
    abs_m = np.abs(M)
    norm = float(abs_m.sum(axis=0).max())
    with np.errstate(over="ignore", invalid="ignore"):
        M2 = M @ M
        M4 = M2 @ M2
        M8 = M4 @ M4
        norms = np.abs(np.stack((M4 @ M2, M8, M8 @ M2))).sum(axis=1).max(axis=1).tolist()
        # min(norm, d) is norm for a d that overflowed to inf or nan
        d6, d8, d10 = (min(norm, d ** (1.0 / k)) for d, k in zip(norms, (6, 8, 10)))
        eta = min(max(d6, d8), max(d8, d10))
        s = max(0, math.ceil(math.log2(eta / _PADE13_THETA))) if eta > 0.0 else 0
        B = abs_m / 2.0**s
        B3 = B @ B @ B
        B9 = B3 @ B3 @ B3
        norm27 = float((B9 @ B9 @ B9).sum(axis=0).max())
    if norm27 == 0.0:
        return s
    norm_b = norm / 2.0**s
    log_norm27 = math.log2(norm27) if math.isfinite(norm27) else 27.0 * math.log2(norm_b)
    # ell = ceil(log2(alpha / u) / 26), u = 2^-53, alpha = |c_27| ||B^27||_1 / ||B||_1
    ell = math.ceil((log_norm27 - math.log2(norm_b * _PADE13_C27_RECIP) + 53.0) / 26.0)
    return s + max(0, ell)


def _expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade
    approximant: M / 2^s with s from _pade13_squarings, one solve
    (V - U) R = V + U gives the approximant, and s squarings undo the
    scaling."""
    s = _pade13_squarings(M)
    A = M / 2.0**s
    b = _PADE13
    ident = np.eye(M.shape[0])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def _care_newton(sys: LinearSystem, P: np.ndarray, CtRinv: np.ndarray) -> np.ndarray:
    """Newton-Kleinman refinement of the CARE fixed point from a
    stabilizing P (Kleinman, IEEE TAC 1968): with the closed loop
    A_k = A - P C^T R^-1 C, the Lyapunov equation
    A_k X + X A_k^T = -(Q + P C^T R^-1 C P) gives the next iterate X,
    symmetrized, solved as one n^2 x n^2 Kronecker system: O(n^6), fine
    for the small n of this package.

    As _dare_flow returns P_next, this returns the X of the first P that
    _stationary passes on either measure of a step: ||X - P||, or the
    norm of the continuous right-hand side at P (the flow's own test).
    The second is needed where the Lyapunov operator is ill-conditioned
    (cond ~ 1e6): there successive iterates keep differing by rounding at
    1e-11 (1 + ||P||) while the right-hand side is at its floor.  Where
    neither test passes in _NEWTON_MAX_ITER steps (rounding can stall the
    iterates short of both), it returns the iterate of smallest
    care_residual if that meets solve_care's contract
    care_residual <= 1e-10 (1 + ||P||).  Raises CertificationFailure when a
    closed loop is not Hurwitz (the start was not stabilizing), when the
    Lyapunov operator is singular, or when no iterate meets the contract."""
    n = sys.n
    ident = np.eye(n)
    iterates = []
    for _ in range(_NEWTON_MAX_ITER):
        K = P @ CtRinv
        A_k = sys.A - K @ sys.C
        if not np.linalg.eigvals(A_k).real.max() < 0.0:
            raise CertificationFailure(
                "Newton-Kleinman step from a P whose closed loop A - P C^T R^-1 C "
                "is not Hurwitz")
        lyapunov = np.kron(A_k, ident) + np.kron(ident, A_k)
        try:
            X = np.linalg.solve(lyapunov, -(sys.Q + K @ sys.C @ P).ravel())
        except np.linalg.LinAlgError:
            raise CertificationFailure("singular Lyapunov operator in the Newton-Kleinman "
                                       "refinement of the continuous Riccati fixed point") from None
        X = _symmetrize(X.reshape(n, n))
        if (_stationary(P, np.linalg.norm(X - P))
                or _stationary(P, np.linalg.norm(_riccati_rhs(sys.A, sys.Q, sys.C, K, P)))):
            return X
        iterates.append(X)
        P = X
    residuals = np.nan_to_num([care_residual(sys, X) for X in iterates], nan=np.inf)
    best = int(np.argmin(residuals))
    if residuals[best] <= 1e-10 * (1.0 + np.linalg.norm(iterates[best])):
        return iterates[best]
    raise CertificationFailure("Newton-Kleinman refinement of the continuous Riccati "
                               "fixed point did not converge")


def _care_flow(sys: LinearSystem, P0: np.ndarray):
    """Follow the Riccati flow dP/dt = A P + P A^T + Q - P C^T R^(-1) C P
    from P0 and record the trajectory, refining the fixed point by
    Newton-Kleinman (_care_newton) once the flow is near it.

    Each step propagates the flow exactly over a horizon h through the
    associated linear system d/dt [X; Y] = [[-A', S], [Q, A]] [X; Y] with
    P = Y X^(-1): P <- (Phi21 + Phi22 P)(Phi11 + Phi12 P)^(-1) where
    Phi = _expm(h M).  h is doubled periodically so slow closed-loop modes
    converge in a bounded number of steps.  The hand-over happens at the
    first recorded P whose right-hand side is within 1e-3 (1 + ||P||) and
    whose closed loop A - P C^T R^-1 C is Hurwitz.  Returns (P_inf,
    samples) with samples a list of (t, P) including the start."""
    n = sys.n
    CtRinv = sys.C.T @ _spd_inverse(sys.R, "R")
    M = np.block([[-sys.A.T, _symmetrize(CtRinv @ sys.C)], [sys.Q, sys.A]])
    P = _symmetrize(np.asarray(P0, dtype=float))
    samples = [(0.0, P.copy())]
    nd = np.linalg.norm(_riccati_rhs(sys.A, sys.Q, sys.C, P @ CtRinv, P))
    if _stationary(P, nd):
        return P, samples

    # Step cap keeps _expm and the flow-step solve well conditioned; the
    # growth rate is the largest real part among the Hamiltonian modes.
    max_re = max(1e-6, float(np.linalg.eigvals(M).real.max()))
    h_max = 4.5 / max_re
    h = min(0.5 / (1.0 + np.linalg.norm(M, 2)), h_max)
    Phi = _expm(h * M)
    t = 0.0
    steps_at_h = 0
    for _ in range(_CARE_MAX_ITER):
        X = Phi[:n, :n] + Phi[:n, n:] @ P
        Y = Phi[n:, :n] + Phi[n:, n:] @ P
        try:
            P_new = _symmetrize(np.linalg.solve(X.T, Y.T).T)
        except np.linalg.LinAlgError:
            P_new = np.full_like(P, np.nan)
        if not _all_finite(P_new):
            # step too aggressive; halve and retry
            h *= 0.5
            Phi = _expm(h * M)
            steps_at_h = 0
            continue
        P = P_new
        t += h
        steps_at_h += 1
        samples.append((t, P.copy()))
        nd = np.linalg.norm(_riccati_rhs(sys.A, sys.Q, sys.C, P @ CtRinv, P))
        if _stationary(P, nd):
            return P, samples
        if (nd <= 1e-3 * (1.0 + np.linalg.norm(P))
                and np.linalg.eigvals(sys.A - P @ CtRinv @ sys.C).real.max() < 0.0):
            # close to the fixed point: Newton's quadratic convergence meets
            # the stationarity contract past the flow steps' rounding floor
            return _care_newton(sys, P, CtRinv), samples
        if steps_at_h >= 8 and h < h_max:
            h = min(2.0 * h, h_max)
            Phi = _expm(h * M)
            steps_at_h = 0
    raise CertificationFailure("continuous Riccati flow did not reach stationarity")


def solve_care(sys: LinearSystem) -> np.ndarray:
    """Stabilizing solution of A P + P A^T + Q - P C^T R^(-1) C P = 0: the
    fixed point of the Riccati flow from P0 = 0 (_care_flow, refined by
    Newton-Kleinman), as solve_dare follows its recursion.  The returned
    matrix satisfies the residual contract
    ||residual||_F <= 1e-10 * (1 + ||P||_F)."""
    if sys.mode != "continuous":
        raise ConfigurationError("solve_care requires a continuous-mode system")
    assert_regular(sys)
    return _care_flow(sys, np.zeros((sys.n, sys.n)))[0]


def _dare_step(sys: LinearSystem, P: np.ndarray):
    """One prediction-form Riccati recursion step; returns
    (P_next, P_filt, K)."""
    K, _, P_filt = _innovation_gain(P, sys.C, sys.R)
    P_next = _symmetrize(sys.A @ P_filt @ sys.A.T + sys.Q)
    return P_next, P_filt, K


def _dare_flow(sys: LinearSystem, P0: np.ndarray, record: bool = False):
    """Iterate the prediction-form recursion until successive iterates are
    stationary.  Returns (P_inf, preds, filts)."""
    P = _symmetrize(np.asarray(P0, dtype=float))
    preds, filts = [], []
    for _ in range(_DARE_MAX_ITER):
        P_next, P_filt, _ = _dare_step(sys, P)
        if record:
            preds.append(P.copy())
            filts.append(P_filt.copy())
        if not math.isfinite(np.linalg.norm(P_next)):  # an overflowed norm too
            raise CertificationFailure("discrete Riccati recursion diverged")
        if _stationary(P, np.linalg.norm(P_next - P)):
            return P_next, preds, filts
        P = P_next
    raise CertificationFailure("discrete Riccati recursion did not converge")


def solve_dare(sys: LinearSystem) -> np.ndarray:
    """Fixed point of P = A P A^T + Q - A P C^T (C P C^T + R)^(-1) C P A^T,
    from P0 = 0.  Residual contract as solve_care."""
    if sys.mode != "discrete":
        raise ConfigurationError("solve_dare requires a discrete-mode system")
    assert_regular(sys)
    P, _, _ = _dare_flow(sys, np.zeros((sys.n, sys.n)))
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

@dataclass(frozen=True)
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
        for name in ("W", "U", "Gamma2", "P0"):
            M = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, M)
        _require_finite(self, ("W", "U", "Gamma2", "P0"))
        _require_symmetric(self, ("U", "P0"))
        for name, M in (("W", self.W), ("Gamma2", self.Gamma2)):
            if np.any(np.abs(M - np.diag(np.diag(M))) > 1e-12 * (1.0 + abs(M).max())):
                raise ConfigurationError(f"{name} must be diagonal")
            if np.any(np.diag(M) <= 0.0):
                raise ConfigurationError(f"{name} must have strictly positive diagonal")
        if not _is_psd(self.U, 0.0)[0] > 0.0:
            raise ConfigurationError("U must be positive definite")
        if not self.alpha > 0.0:
            raise ConfigurationError("alpha must be positive")
        if not _is_psd(self.P0, 1e-12)[1]:
            raise ConfigurationError("P0 must be positive semidefinite")


def _sym_blocks(B11, B12, B13, B22, B23, B33) -> np.ndarray:
    """The symmetric 3x3 block matrix with upper blocks B_ij, symmetrized."""
    return _symmetrize(np.block([[B11, B12, B13], [B12.T, B22, B23], [B13.T, B23.T, B33]]))


def build_S(sys: LinearSystem, cand: CertificateCandidate, P_t: np.ndarray) -> np.ndarray:
    """Continuous-time certificate matrix, size (n+p+m) square:

        [ M - a*P^-1      -C'(R^-1+W)      C'(G2-R^-1)D ]
        [     *               2W               W D      ]
        [     *                *                U       ]

    with M = P^-1 Q P^-1 + C'(R^-1 - G2)C."""
    Pinv = _spd_inverse(P_t, "P_t")
    Rinv = _spd_inverse(sys.R, "R")
    M = Pinv @ sys.Q @ Pinv + sys.C.T @ (Rinv - cand.Gamma2) @ sys.C
    return _sym_blocks(M - cand.alpha * Pinv, -sys.C.T @ (Rinv + cand.W),
                       sys.C.T @ (cand.Gamma2 - Rinv) @ sys.D,
                       2.0 * cand.W, cand.W @ sys.D, cand.U)


def _discrete_q_inverse(sys: LinearSystem) -> np.ndarray:
    """Q^-1; CertificationFailure unless A and Q are invertible."""
    if np.linalg.matrix_rank(sys.A, tol=1e-12 * (1.0 + np.linalg.norm(sys.A))) < sys.n:
        raise CertificationFailure("discrete certification requires invertible A")
    try:
        return _spd_inverse(sys.Q, "Q")
    except NumericalFailure as exc:
        raise CertificationFailure("discrete certification requires invertible Q") from exc


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
    n = sys.n
    Qinv = _discrete_q_inverse(sys)
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
    return _sym_blocks(T1 - cand.alpha * Pp_inv, T2 - sys.C.T @ cand.W, T3,
                       T4 + 2.0 * cand.W, T5 + cand.W @ sys.D, cand.U), T6


@dataclass(frozen=True)
class PsdReport:
    ok: bool
    min_eig: float

    def __bool__(self) -> bool:
        return self.ok


def is_psd(M: np.ndarray, tol: float = 1e-9) -> PsdReport:
    """True iff lambda_min(M) >= -tol*(1 + max|M_ij|), after
    symmetrization: the public form of filters._is_psd."""
    M = np.asarray(M, dtype=float)
    try:
        min_eig, ok = _is_psd(M, tol)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("eigenvalue computation failed", context=M) from exc
    return PsdReport(bool(ok), min_eig)


# ---------------------------------------------------------------------------
# Certification

@dataclass
class StabilityCertificate:
    """Outcome of a successful certification sweep.

    envelope(times, V0) evaluates the closed-form envelope with the
    pointwise covariance floor at a sequence of samples, transient_bound(t,
    V0) at one; asymptotic_bound is its limit.  The
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

    def initial_v(self, e0: np.ndarray) -> float:
        """Lyapunov level at the start: e0' P0^-1 e0 + sum(sigma0) + sum(eps0).
        A nonzero e0 on a singular P0 (the start certify skips) is an
        InputDomainError."""
        e0 = np.asarray(e0, dtype=float)
        v = float(np.sum(self.params.sigma0) + np.sum(self.params.epsilon0))
        if np.any(e0 != 0.0):
            if not _is_psd(self.P0, -1e-12)[1]:
                raise InputDomainError("P0 is singular: the initial error e0 must be zero")
            v += float(e0 @ np.linalg.solve(self.P0, e0))
        return v

    def forcing(self) -> float:
        return self.c1 * self.mu**2 + self.rho

    def envelope(self, times, V0: float) -> list[float]:
        """Envelope on ||e|| at each of a sequence of continuous times or steps:
        sqrt(level / c2) with level = decay V0 + (1 - decay) forcing / alpha
        and the pointwise c2 = 1 / lambda_max(P) along the certification
        trajectory (the fixed point beyond it; inf at P = 0).  The decay is
        math.exp (or a float power) per sample, whose bits np.exp does not
        always have; the rest is elementwise."""
        if self.mode == "continuous":
            decay = np.array([math.exp(-self.alpha * float(t)) for t in times])
        else:
            decay = np.array([(1.0 - self.alpha) ** int(t) for t in times])
        idx = np.searchsorted(self._c2_times, times, side="right") - 1
        lmax = self._c2_lmax[np.clip(idx, 0, len(self._c2_lmax) - 1)]
        with np.errstate(all="ignore"):  # as quiet as Python's float arithmetic
            level = decay * V0 + (1.0 - decay) * self.forcing() / self.alpha
            c2 = np.where(lmax > 0.0, 1.0 / lmax, math.inf)
            # max(level, 0.0) as Python takes it, keeping nan and -0.0
            return np.sqrt(np.where(0.0 > level, 0.0, level) / c2).tolist()

    def transient_bound(self, t, V0: float) -> float:
        """Envelope on ||e|| at continuous time t (or step k)."""
        return self.envelope([t], V0)[0]

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


def _check_against_system(sys: LinearSystem, cand: CertificateCandidate,
                          params: BoundParams) -> None:
    """The bound dynamics must match the system's time domain and channels,
    and the candidate's W and Gamma2 be p x p, U m x m and P0 n x n."""
    expected_mode = "ct" if sys.mode == "continuous" else "dt"
    if params.mode != expected_mode:
        raise ConfigurationError(
            f"bound parameters are {params.mode}-mode but the system is {sys.mode}"
        )
    if params.p != sys.p:
        raise ConfigurationError("bound parameters channel count != p")
    for name, k in (("W", sys.p), ("Gamma2", sys.p), ("U", sys.m), ("P0", sys.n)):
        shape = getattr(cand, name).shape
        if shape != (k, k):
            raise ConfigurationError(f"{name} must be {k}x{k} for this system, got {shape}")


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
    if not 0.0 <= mu < math.inf:
        raise InputDomainError("mu must be finite and nonnegative")
    _check_against_system(sys, cand, params)
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
    # a singular start has no P^-1; the sweep then begins at the first iterate
    start = 0 if _is_psd(cand.P0, -1e-12)[1] else 1

    # the recorded trajectory with the fixed point as its last sample, the
    # certificate matrix at sample i, and c1
    if sys.mode == "continuous":
        P_inf, samples = _care_flow(sys, cand.P0)
        times = np.array([t for t, _ in samples] + [samples[-1][0]])
        mats = [P for _, P in samples] + [P_inf]
        c1 = float(np.linalg.eigvalsh(_symmetrize(cand.U + sys.D.T @ cand.Gamma2 @ sys.D)).max())

        def certificate(i):
            return build_S(sys, cand, mats[i])
    else:
        _discrete_q_inverse(sys)  # build_Z's requirements, before eps_cov inverts P_filt
        P_inf, mats, filts = _dare_flow(sys, cand.P0, record=True)
        times = np.arange(len(mats) + 1, dtype=float)
        mats.append(P_inf)
        filts.append(_dare_step(sys, P_inf)[1])
        eps_cov = 1.01 * max(float(np.linalg.eigvalsh(_spd_inverse(Pf, "P_filt")).max())
                             for Pf in filts[start:])
        c1 = -math.inf

        def certificate(i):
            nonlocal c1
            Z, T6 = build_Z(sys, cand, mats[i], filts[i], eps_cov=eps_cov)
            c1 = max(c1, float(np.linalg.eigvalsh(_symmetrize(T6 + cand.U)).max()))
            return Z

    # geometric checkpoints over the recorded samples (both flows record at
    # least the start), then the fixed point
    last = len(mats) - 1
    idx = [0]
    if last > 1:
        idx += np.unique(np.round(np.geomspace(1, last - 1, min(_CHECKPOINTS, last - 1)))
                         .astype(int)).tolist()

    report = []
    for i in idx[start:] + [last]:
        rep = is_psd(certificate(i), tol=_PSD_TOL)
        report.append((float(times[i]), rep.min_eig))
        if not rep.ok:
            raise CertificationFailure(
                f"certificate matrix not PSD at checkpoint {times[i]:.6g} "
                f"(min eigenvalue {rep.min_eig:.3e})"
            )

    lmax_traj = np.array([float(np.linalg.eigvalsh(P).max()) for P in mats])
    c3 = 1.0 / float(lmax_traj[-1])
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
        _c2_times=times,
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


class _CovariancePass(NamedTuple):
    """The disturbance-free part of a bound check.  gains is read-only:
    discrete (k, n, p), the last gain frozen for every later step;
    continuous (4 * steps, n, p), one gain per RK4 stage.  failed_at is
    the step whose covariance update failed, or None; failure holds a
    discrete failure's NumericalFailure arguments."""

    gains: np.ndarray
    failed_at: Optional[int]
    failure: Optional[tuple]


def _covariance_pass(sys: LinearSystem, P0: np.ndarray, dt: Optional[float],
                     steps: int) -> _CovariancePass:
    """The covariance recursion of a bound check from P0 over steps steps
    (dt None in discrete mode): in discrete time the Riccati recursion
    until it is stationary (the test solve_dare stops on), in continuous
    time RK4 on P.  Memoized by value, since arrays of the frozen system and
    candidate can still be edited in place: the key holds their bytes."""
    mats = tuple((M.dtype.str, M.shape, M.tobytes())
                 for M in map(np.asarray, (sys.A, sys.C, sys.Q, sys.R, P0)))
    return _covariance_pass_of(sys.mode, dt, steps, mats)


@functools.lru_cache(maxsize=8)
def _covariance_pass_of(mode: str, dt: Optional[float], steps: int, mats: tuple):
    """_covariance_pass on the arrays its key holds."""
    plant = SimpleNamespace(**{
        name: np.frombuffer(data, dtype=dtype).reshape(shape)
        for name, (dtype, shape, data) in zip(("A", "C", "Q", "R", "P0"), mats)})
    P = _symmetrize(plant.P0)
    if mode == "discrete":
        gains = []
        for k in range(steps):
            try:
                P_next, _, K = _dare_step(plant, P)
            except NumericalFailure as exc:
                return _CovariancePass(_read_only(gains), k,
                                       (str(exc), _read_only(exc.context)))
            gains.append(K)
            if _stationary(P, np.linalg.norm(P_next - P)):
                break
            P = P_next
        return _CovariancePass(_read_only(gains), None, None)

    CtRinv = plant.C.T @ _spd_inverse(plant.R, "R")
    gains = np.empty((4 * steps,) + CtRinv.shape)
    slots = iter(gains)

    def rhs(P_mat, t):
        # exactly symmetric, as _riccati_rhs needs: P is symmetrized every step
        K = P_mat.dot(CtRinv)
        next(slots)[...] = K
        return _riccati_rhs(plant.A, plant.Q, plant.C, K, P_mat)

    for i in range(steps):
        P = _rk4(rhs, P, i * dt, dt)
        if not _all_finite(P):
            return _CovariancePass(_read_only(gains[:4 * (i + 1)]), i, None)
        P = _symmetrize(P)
    return _CovariancePass(_read_only(gains), None, None)


def _step_count(mode: str, horizon, dt) -> int:
    """The steps of a bound check: a whole-number horizon >= 0 in discrete
    time, round(horizon / dt) for a finite horizon >= 0 and a finite dt > 0
    in continuous time (dt is not read in discrete time).  Raises
    ConfigurationError."""
    try:
        h = float(horizon)
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


def _envelope_blocks(cert: StabilityCertificate, samples: int, dt: Optional[float],
                     V0: float):
    """cert.envelope at the steps 0 .. samples - 1 (at the times i * dt in
    continuous time), evaluated _ENVELOPE_BLOCK samples at a time: a list
    of every sample would raise the peak memory of a long check."""
    for start in range(0, samples, _ENVELOPE_BLOCK):
        steps = range(start, min(start + _ENVELOPE_BLOCK, samples))
        yield from cert.envelope(steps if dt is None else [i * dt for i in steps], V0)


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
    ||d|| <= mu; otherwise InputDomainError.  The bound parameters, the
    candidate's shapes, e0, horizon and dt (_step_count) are checked once at
    entry, where a nonzero e0 on a singular P0 is
    an InputDomainError (see initial_v).  The covariance pass
    (_covariance_pass: P and the gain, from cand.P0, which do not depend
    on the disturbance)
    is shared by every draw on one observer; the error pass then steps
    (e, sat), sat = [sigma; eps], on the unchecked clip and bound-map cores, in
    continuous time with the continuous-time filter's saturated core and
    floored RK4 step (sigma and eps floored at 1e-12 in every stage and
    after every step).  A non-finite stepped state, or a failed
    covariance step, raises NumericalFailure at its step.  The envelope
    is evaluated once per sample and call, in blocks (_envelope_blocks); raises
    PropertyFailure at the first violation of ||e|| <= envelope + 1e-9.

    The discrete check steps once past the horizon: it reads d(N) and
    reports final_error_norm = ||e_(N+1)||, a state the envelope is never
    checked at, where the continuous check stops at t = N dt.  The bench's
    recorded bound-dt final norm (bench/workloads.py) depends on this."""
    params = cert.params
    _check_against_system(sys, cand, params)
    # C order: a strided e0 would take another summation order in e.dot(e)
    e = np.zeros(sys.n) if e0 is None else np.asarray(e0, dtype=float, order="C")
    if e.shape != (sys.n,):
        raise ConfigurationError(f"e0 must have length {sys.n}, got shape {e.shape}")
    n_steps = _step_count(sys.mode, horizon, dt)
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
            what = "is not finite" if not math.isfinite(norm_d) else "exceeds mu"
            raise InputDomainError(f"||d|| {what} at {where:.6g}")
        return d

    def check(where, bound, e_vec):
        nonlocal max_ratio
        norm_e = math.sqrt(e_vec.dot(e_vec))  # np.linalg.norm's arithmetic on a vector
        if not norm_e <= bound + tol:
            raise PropertyFailure(
                f"certified bound violated at {where:.6g}: ||e|| = {norm_e:.6g} > {bound:.6g}",
                at=where,
            )
        if bound > 0.0:
            max_ratio = max(max_ratio, norm_e / bound)

    p = sys.p
    sat = np.concatenate((params.sigma0, params.epsilon0))
    if sys.mode == "discrete":
        lam, gam = params.lam, params.gam
        cov = _covariance_pass(sys, cand.P0, None, n_steps + 1)
        gains = list(cov.gains)
        last = len(gains) - 1
        for k, bound in enumerate(_envelope_blocks(cert, n_steps + 1, None, V0)):
            d = disturbance(k)
            check(k, bound, e)
            if k == cov.failed_at:
                raise NumericalFailure(*cov.failure)
            K = gains[min(k, last)]
            innov = C.dot(e) - D.dot(d)
            e = A.dot(e) - A.dot(K.dot(_clip(innov, np.sqrt(sat[:p]))))
            sat = _bound_map_core(sat, innov, lam, gam)
            if not (_all_finite(e) and _all_finite(sat)):
                raise NumericalFailure(f"error system non-finite after step {k}", context=e)
        return BoundCheckReport(max_ratio=max_ratio, horizon=float(n_steps), samples=n_steps + 1,
                                final_error_norm=float(np.linalg.norm(e)))

    # continuous time: RK4 on (e, sat), reading each stage's gain
    n = sys.n
    cov = _covariance_pass(sys, cand.P0, dt, n_steps)
    stage_gains = iter(cov.gains)

    # e' = A e - K sat(C e - D d), written as A e + K sat(D d - C e): the
    # clip is odd and negation is exact, so both forms give the same bits
    def rhs(z, t):
        d = disturbance(t)
        e_vec = z[:n]
        return _saturated_rhs(A.dot(e_vec), next(stage_gains), D.dot(d) - C.dot(e_vec), z[n:],
                              params)

    z = np.concatenate((e, sat))
    for i, bound in enumerate(_envelope_blocks(cert, n_steps + 1, dt, V0)):
        t = i * dt
        check(t, bound, z[:n])
        if i == n_steps:
            break
        z = _floored_rk4_step(rhs, z, t, dt, n, p, i == cov.failed_at)
    return BoundCheckReport(max_ratio=max_ratio, horizon=float(horizon), samples=n_steps + 1,
                            final_error_norm=float(np.linalg.norm(z[:n])))


def gain_identity_residuals(C: np.ndarray, R: np.ndarray, P_pred: np.ndarray):
    """Residuals of the three filtered-covariance/gain identities:
    Pf^-1 = Pp^-1 + C'R^-1 C;  Pf^-1 K = C'R^-1;  K'Pf^-1 K = R^-1 C Pf C' R^-1."""
    K, _, P_filt = _innovation_gain(P_pred, C, R)
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
