import math

import numpy as np
import pytest

from conftest import random_system
from isekf import stability
from isekf.errors import (CertificationFailure, ConfigurationError, InputDomainError,
                          NumericalFailure)
from isekf.saturation import BoundParams
from isekf.stability import (
    CertificateCandidate,
    LinearSystem,
    _dare_flow,
    _dare_stationary,
    bound_trajectory_check,
    build_S,
    build_Z,
    care_residual,
    certify,
    dare_residual,
    gain_identity_residuals,
    is_detectable,
    is_psd,
    is_stabilizable,
    qbar_chain_residual,
    solve_care,
    solve_dare,
    sweep_candidates,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def scalar_sys(a, c, q, r, d=1.0, mode="discrete"):
    return LinearSystem(A=[[a]], C=[[c]], Q=[[q]], R=[[r]], D=[[d]], mode=mode)


def ct_cert_setup():
    sys = scalar_sys(-1.0, 1.0, 1.0, 1.0, d=1.0, mode="continuous")
    params = BoundParams(lambda1=[-1.0], lambda2=[-1.0], gamma1=[0.1], gamma2=[1.0],
                         sigma0=[0.5], epsilon0=[0.5], mode="ct")
    cand = CertificateCandidate(W=[[1.0]], U=[[2.0]], alpha=0.5, Gamma2=[[1.0]],
                                P0=[[0.01]])
    return sys, cand, params


def dt_cert_setup():
    sys = scalar_sys(0.5, 1.0, 1.0, 1.0, d=1.0, mode="discrete")
    P_inf = solve_dare(sys)
    params = BoundParams(lambda1=[0.1], lambda2=[0.1], gamma1=[0.05], gamma2=[0.2],
                         sigma0=[0.5], epsilon0=[0.5], mode="dt")
    cand = CertificateCandidate(W=[[0.3]], U=[[2.0]], alpha=0.2, Gamma2=[[0.2]],
                                P0=P_inf)
    return sys, cand, params


# ---------------------------------------------------------------------------
# Riccati solvers

def test_care_scalar():
    P = solve_care(scalar_sys(0.0, 1.0, 1.0, 1.0, mode="continuous"))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_care_zero_q_stable():
    sys = LinearSystem(A=-np.eye(2), C=np.eye(2), Q=np.zeros((2, 2)), R=np.eye(2),
                       D=np.zeros((2, 1)), mode="continuous")
    assert np.abs(solve_care(sys)).max() == 0.0


def test_care_undetectable_rejected():
    # unstable unobservable mode: Hautus detectability fails
    sys = scalar_sys(1.0, 0.0, 1.0, 1.0, mode="continuous")
    with pytest.raises(CertificationFailure, match="detectable"):
        solve_care(sys)


def test_care_stable_unobserved_mode_is_fine():
    # C = 0 with a stable A is detectable; the flow solves the Lyapunov case
    sys = scalar_sys(-1.0, 0.0, 1.0, 1.0, mode="continuous")
    assert solve_care(sys)[0, 0] == pytest.approx(0.5, abs=1e-10)


def test_dare_scalar_identity():
    P = solve_dare(scalar_sys(0.0, 1.0, 1.0, 1.0))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_dare_golden_ratio():
    P = solve_dare(scalar_sys(1.0, 1.0, 1.0, 1.0))
    assert abs(P[0, 0] - PHI) < 1e-10


def test_dare_zero_q_stable():
    P = solve_dare(scalar_sys(0.5, 1.0, 0.0, 1.0))
    assert P[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_random_residual_contracts(rng):
    for _ in range(10):
        cs = random_system(rng, "continuous")
        P = solve_care(cs)
        assert care_residual(cs, P) <= 1e-10 * (1.0 + np.linalg.norm(P))
        ds = random_system(rng, "discrete")
        Pd = solve_dare(ds)
        assert dare_residual(ds, Pd) <= 1e-10 * (1.0 + np.linalg.norm(Pd))


def test_mode_guards():
    with pytest.raises(ConfigurationError):
        solve_care(scalar_sys(0.0, 1.0, 1.0, 1.0, mode="discrete"))
    with pytest.raises(ConfigurationError):
        solve_dare(scalar_sys(0.0, 1.0, 1.0, 1.0, mode="continuous"))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["A", "C", "Q", "R", "D", "W", "U", "Gamma2", "P0"])
def test_non_finite_matrices_rejected_at_construction(name, value):
    system = dict(A=[[-1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]], mode="continuous")
    candidate = dict(W=[[1.0]], U=[[2.0]], alpha=0.5, Gamma2=[[1.0]], P0=[[0.01]])
    kind, kw = (LinearSystem, system) if name in system else (CertificateCandidate, candidate)
    kw[name] = [[value]]
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite$"):
        kind(**kw)


@pytest.mark.parametrize("M, message", [
    ([[np.inf]], "^M not finite$"),
    ([[np.nan]], "^M not finite$"),
    ([[1.0, 0.0], [0.0, -1.0]], r"^M not factorizable \(cond ~"),
], ids=["inf", "nan", "indefinite"])
def test_spd_inverse_names_its_failure(M, message):
    # potrf returns info 0 on nan and inf input, so finiteness is checked first
    with pytest.raises(NumericalFailure, match=message):
        stability._spd_inverse(np.array(M), "M")


def test_monotone_dare_iterates_from_zero(rng):
    for _ in range(20):
        sys = random_system(rng, "discrete")
        _, preds, _, _ = _dare_flow(sys, np.zeros((sys.n, sys.n)), record=True)
        for Pa, Pb in zip(preds, preds[1:]):
            assert np.linalg.eigvalsh(Pb - Pa).min() >= -1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowed_norm_is_never_stationary():
    # entries above about 1.3e154 overflow the Frobenius norm of P
    assert not _dare_stationary(np.array([[1e160]]), np.array([[1e170]]))
    # unobserved and unstable: P quadruples from 1e155 until it overflows
    with pytest.raises(CertificationFailure, match="diverged"):
        _dare_flow(scalar_sys(2.0, 0.0, 1.0, 1.0), np.array([[1e155]]))
    # unobserved and neutral: P is stationary to the last bit but its norm
    # has overflowed, which fails at the first step, not after max_iter
    with pytest.raises(CertificationFailure, match="diverged"):
        _dare_flow(scalar_sys(1.0, 0.0, 1.0, 1.0), np.array([[1e160]]), record=True)
    # P jumps from 1.13 to 1.13e200, then to inf, whose gain step fails
    cov = stability._covariance_pass(scalar_sys(1e100, 0.0, 1.0, 1.0), np.array([[1.13]]),
                                     None, 50)
    assert cov.failed_at == 2
    assert cov.failure[0] == "innovation covariance not finite"


# ---------------------------------------------------------------------------
# certificate matrices

def test_build_S_gamma2_matches_rinv_zeroes_block():
    sys = LinearSystem(A=np.zeros((2, 2)), C=np.eye(2), Q=np.eye(2), R=2.0 * np.eye(2),
                       D=np.ones((2, 1)), mode="continuous")
    cand = CertificateCandidate(W=np.eye(2), U=[[1.0]], alpha=0.1,
                                Gamma2=0.5 * np.eye(2), P0=np.eye(2))
    S = build_S(sys, cand, np.eye(2))
    np.testing.assert_allclose(S[:2, 4:], 0.0, atol=1e-15)


def test_build_S_dimensions():
    n, p, m = 3, 2, 2
    sys = LinearSystem(A=np.zeros((n, n)), C=np.ones((p, n)), Q=np.eye(n),
                       R=np.eye(p), D=np.ones((p, m)), mode="continuous")
    cand = CertificateCandidate(W=np.eye(p), U=np.eye(m), alpha=0.1,
                                Gamma2=np.eye(p), P0=np.eye(n))
    S = build_S(sys, cand, np.eye(n))
    assert S.shape == (7, 7)
    np.testing.assert_allclose(S, S.T, atol=0)


def test_build_S_scalar_hand_assembly():
    a, c, q, r, d = 0.0, 1.0, 1.0, 1.0, 2.0
    w, u, alpha, g, P = 0.7, 1.3, 0.4, 0.6, 1.0
    sys = scalar_sys(a, c, q, r, d=d, mode="continuous")
    cand = CertificateCandidate(W=[[w]], U=[[u]], alpha=alpha, Gamma2=[[g]], P0=[[P]])
    S = build_S(sys, cand, np.array([[P]]))
    M = q / P**2 + (1.0 / r - g)
    expected = np.array([
        [M - alpha / P, -(1.0 / r + w), (g - 1.0 / r) * d],
        [-(1.0 / r + w), 2.0 * w, w * d],
        [(g - 1.0 / r) * d, w * d, u],
    ])
    np.testing.assert_allclose(S, expected, atol=1e-14)


def test_build_Z_zero_D_kills_disturbance_blocks():
    sys = LinearSystem(A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[0.0]],
                       mode="discrete")
    cand = CertificateCandidate(W=[[0.3]], U=[[1.0]], alpha=0.1, Gamma2=[[0.2]],
                                P0=[[1.0]])
    Z, T6 = build_Z(sys, cand, np.array([[1.0]]), np.array([[0.5]]))
    assert T6[0, 0] == 0.0
    assert Z[0, 2] == 0.0       # T3
    assert Z[1, 2] == 0.0       # T5 + W D


def test_build_Z_scalar_hand_assembly():
    a, c, q, r, d = 0.5, 1.0, 1.0, 1.0, 1.0
    w, u, alpha, g = 0.3, 2.0, 0.2, 0.2
    P_pred, P_filt, eps = 1.1, 0.52, 2.1
    sys = scalar_sys(a, c, q, r, d=d)
    cand = CertificateCandidate(W=[[w]], U=[[u]], alpha=alpha, Gamma2=[[g]],
                                P0=[[P_pred]])
    Z, T6 = build_Z(sys, cand, np.array([[P_pred]]), np.array([[P_filt]]), eps_cov=eps)
    qbar = 1.0 / (eps + a * a / q)
    pf_inv = 1.0 / P_filt
    diff = P_filt - qbar
    T1 = 1.0 / r + pf_inv * qbar * pf_inv - 2.0 * pf_inv * qbar / r - diff / r**2 - g
    T2 = -1.0 / r + pf_inv * qbar / r + diff / r**2
    T3 = (T2 + g) * d
    T4 = -diff / r**2
    T5 = T4 * d
    T6_expected = d * (diff / r**2 + g) * d
    expected = np.array([
        [T1 - alpha / P_pred, T2 - w, T3],
        [T2 - w, T4 + 2.0 * w, T5 + w * d],
        [T3, T5 + w * d, u],
    ])
    np.testing.assert_allclose(Z, expected, atol=1e-13)
    assert T6[0, 0] == pytest.approx(T6_expected, rel=1e-13)


def test_build_Z_dimensions():
    n, p, m = 3, 3, 2
    sys = LinearSystem(A=np.eye(n) * 0.5, C=np.eye(p), Q=np.eye(n), R=np.eye(p),
                       D=np.ones((p, m)), mode="discrete")
    cand = CertificateCandidate(W=np.eye(p), U=np.eye(m), alpha=0.1,
                                Gamma2=np.eye(p), P0=np.eye(n))
    Z, _ = build_Z(sys, cand, np.eye(n), 0.5 * np.eye(n))
    assert Z.shape == (8, 8)


def test_build_Z_rejects_singular_A_or_Q():
    cand = CertificateCandidate(W=[[0.3]], U=[[1.0]], alpha=0.1, Gamma2=[[0.2]],
                                P0=[[1.0]])
    sys_a = scalar_sys(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(CertificationFailure, match="invertible A"):
        build_Z(sys_a, cand, np.array([[1.0]]), np.array([[0.5]]))
    sys_q = scalar_sys(0.5, 1.0, 0.0, 1.0)
    with pytest.raises(CertificationFailure, match="invertible Q"):
        build_Z(sys_q, cand, np.array([[1.0]]), np.array([[0.5]]))


def test_is_psd_examples(rng):
    rep = is_psd(np.eye(3))
    assert rep and rep.min_eig == pytest.approx(1.0)
    assert not is_psd(np.diag([1.0, -0.5]))
    v = rng.standard_normal(4)
    rep = is_psd(np.outer(v, v))
    assert rep and abs(rep.min_eig) < 1e-12 * (1 + v @ v)


# ---------------------------------------------------------------------------
# certification

def test_certify_ct_scalar():
    sys, cand, params = ct_cert_setup()
    cert = certify(sys, cand, params, mu=0.3)
    assert cert.c1 == pytest.approx(3.0)            # max eig(U + D' G2 D) = 2 + 1
    assert cert.c3 == pytest.approx(1.0 / (math.sqrt(2.0) - 1.0), rel=1e-8)
    assert cert.rho == pytest.approx(0.1 / math.e, rel=1e-12)
    expected = math.sqrt((3.0 * 0.09 + 0.1 / math.e) / (0.5 * cert.c3))
    assert cert.asymptotic_bound == pytest.approx(expected, rel=1e-6)


def test_certify_dt_scalar_and_corollary():
    sys, cand, params = dt_cert_setup()
    cert = certify(sys, cand, params, mu=0.5)
    assert cert.rho == pytest.approx(0.05 / math.e, rel=1e-12)
    cert2 = certify(sys, cand, params, mu=0.5, variant="corollary")
    assert cert2.rho == 0.0
    assert cert2.asymptotic_bound == pytest.approx(
        math.sqrt(cert2.c1 / (cand.alpha * cert2.c3)) * 0.5, rel=1e-12)


def test_certify_mu_zero_corollary_gives_zero_asymptote():
    sys, cand, params = dt_cert_setup()
    cert = certify(sys, cand, params, mu=0.0, variant="corollary")
    assert cert.asymptotic_bound == 0.0


def test_certify_rho_value_for_benchmark_gains():
    sys, cand, params = ct_cert_setup()
    params_rho = BoundParams(lambda1=[-1.0], lambda2=[-1.0], gamma1=[200.005],
                             gamma2=[1.0], sigma0=[0.5], epsilon0=[0.5], mode="ct")
    cert = certify(sys, cand, params_rho, mu=0.3)
    assert cert.rho == pytest.approx(200.005 / math.e, rel=1e-12)
    assert cert.rho == pytest.approx(73.5774, abs=1e-3)


def test_certify_alpha_ceiling_violation_named():
    sys, cand, params = ct_cert_setup()
    bad = CertificateCandidate(W=cand.W, U=cand.U, alpha=1.5, Gamma2=cand.Gamma2,
                               P0=cand.P0)
    with pytest.raises(CertificationFailure, match="alpha"):
        certify(sys, bad, params, mu=0.3)


def test_certify_gamma2_must_match_bound_gains():
    sys, cand, params = ct_cert_setup()
    bad = CertificateCandidate(W=cand.W, U=cand.U, alpha=cand.alpha,
                               Gamma2=[[2.0]], P0=cand.P0)
    with pytest.raises(CertificationFailure, match="Gamma2"):
        certify(sys, bad, params, mu=0.3)


def test_certify_mode_mismatch():
    sys, cand, _ = ct_cert_setup()
    dt_params = BoundParams(lambda1=[0.5], lambda2=[0.5], gamma1=[1.0], gamma2=[1.0],
                            sigma0=[1.0], epsilon0=[1.0], mode="dt")
    with pytest.raises(ConfigurationError):
        certify(sys, cand, dt_params, mu=0.1)


def test_certify_non_psd_candidate_rejected():
    sys, cand, params = ct_cert_setup()
    # gamma2 = 3 makes M strongly negative at the fixed point
    params3 = BoundParams(lambda1=[-1.0], lambda2=[-1.0], gamma1=[0.1], gamma2=[8.0],
                          sigma0=[0.5], epsilon0=[0.5], mode="ct")
    cand3 = CertificateCandidate(W=cand.W, U=cand.U, alpha=cand.alpha,
                                 Gamma2=[[8.0]], P0=cand.P0)
    with pytest.raises(CertificationFailure, match="not PSD"):
        certify(sys, cand3, params3, mu=0.3)


def test_sweep_candidates_finds_certificate():
    sys, _, params = ct_cert_setup()
    cert = sweep_candidates(sys, params, mu=0.3, alpha=0.5, P0=np.array([[0.01]]),
                            W_scale_grid=np.logspace(-1, 1, 5),
                            U_scale_grid=np.logspace(-1, 1, 5))
    assert cert.asymptotic_bound > 0.0


def test_asymptotic_bound_monotonicity():
    sys, cand, params = dt_cert_setup()
    bounds = [certify(sys, cand, params, mu=mu).asymptotic_bound
              for mu in (0.0, 0.2, 0.5, 1.0)]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    rhos = []
    for g1 in (0.01, 0.05, 0.2):
        p = BoundParams(lambda1=[0.1], lambda2=[0.1], gamma1=[g1], gamma2=[0.2],
                        sigma0=[0.5], epsilon0=[0.5], mode="dt")
        rhos.append(certify(sys, cand, p, mu=0.5).asymptotic_bound)
    assert all(b2 >= b1 for b1, b2 in zip(rhos, rhos[1:]))


# ---------------------------------------------------------------------------
# bound verification

def test_bound_check_zero_disturbance_zero_start():
    sys, cand, params = dt_cert_setup()
    cert = certify(sys, cand, params, mu=0.5)
    rep = bound_trajectory_check(sys, cand, cert, lambda k: np.zeros(1), horizon=200)
    assert rep.max_ratio < 1.0   # e stays at zero; bound positive from sigma0


def test_bound_check_constant_disturbance_at_mu():
    sys, cand, params = dt_cert_setup()
    cert = certify(sys, cand, params, mu=0.5)
    rep = bound_trajectory_check(sys, cand, cert, lambda k: np.array([0.5]),
                                 horizon=1500, e0=np.array([0.3]))
    assert rep.max_ratio <= 1.0


def test_bound_check_rejects_oversized_disturbance():
    sys, cand, params = dt_cert_setup()
    cert = certify(sys, cand, params, mu=0.5)
    with pytest.raises(InputDomainError):
        bound_trajectory_check(sys, cand, cert, lambda k: np.array([0.8]), horizon=10)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_bound_check_rejects_a_nan_disturbance(mode):
    # finite until one step, then NaN: a norm test written as ||d|| > mu
    # would let it through, since every comparison with NaN is false
    if mode == "discrete":
        sys, cand, params = dt_cert_setup()
        mu, dt, bad = 0.5, 1.0, 7
    else:
        sys, cand, params = ct_cert_setup()
        mu, dt, bad = 0.3, 1e-2, 0.07
    cert = certify(sys, cand, params, mu=mu)
    with pytest.raises(InputDomainError):
        bound_trajectory_check(sys, cand, cert,
                               lambda s: np.array([math.nan if s >= bad else 0.1]),
                               horizon=20 * dt, e0=np.array([0.05]), dt=dt)


def test_bound_check_corollary_decay_to_zero():
    sys, cand, params = dt_cert_setup()
    cert = certify(sys, cand, params, mu=0.5, variant="corollary")
    rep = bound_trajectory_check(sys, cand, cert,
                                 lambda k: np.array([0.5 * 0.99**k]),
                                 horizon=2000, e0=np.array([0.3]))
    assert rep.final_error_norm < 1e-6


def test_bound_check_ct():
    sys, cand, params = ct_cert_setup()
    cert = certify(sys, cand, params, mu=0.3)
    rep = bound_trajectory_check(sys, cand, cert,
                                 lambda t: np.array([0.3 * math.sin(0.7 * t)]),
                                 horizon=4.0, e0=np.array([0.05]), dt=1e-3)
    assert rep.max_ratio <= 1.0


# ---------------------------------------------------------------------------
# proof identities

def random_spd(rng, n, lo=0.3, hi=3.0):
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return V @ np.diag(rng.uniform(lo, hi, n)) @ V.T


def test_gain_identities(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, n + 1))
        P = random_spd(rng, n)
        R = random_spd(rng, p)
        C = rng.standard_normal((p, n))
        r1, r2, r3 = gain_identity_residuals(C, R, P)
        assert max(r1, r2, r3) < 1e-10


def test_qbar_chain_identity(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        P = random_spd(rng, n)
        Q = random_spd(rng, n)
        A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        assert qbar_chain_residual(A, Q, P) < 1e-10


def test_hautus_classification():
    assert not is_detectable(scalar_sys(1.0, 0.0, 1.0, 1.0, mode="continuous"))
    assert is_detectable(scalar_sys(-1.0, 0.0, 1.0, 1.0, mode="continuous"))
    assert not is_detectable(scalar_sys(1.1, 0.0, 1.0, 1.0))
    assert is_detectable(scalar_sys(0.9, 0.0, 1.0, 1.0))
    # Q = 0 with an unstable mode is not stabilizable
    assert not is_stabilizable(scalar_sys(1.0, 1.0, 0.0, 1.0, mode="continuous"))
    assert is_stabilizable(scalar_sys(-1.0, 1.0, 0.0, 1.0, mode="continuous"))
