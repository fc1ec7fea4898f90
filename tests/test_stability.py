import dataclasses
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest

from conftest import random_system
from isekf import stability
from isekf.errors import (CertificationFailure, ConfigurationError, InputDomainError,
                          NumericalFailure)
from isekf.filters import NonlinearModel, _spd_inverse
from isekf.saturation import BoundParams
from isekf.scenario import FilterSpec
from isekf.stability import (
    CertificateCandidate,
    LinearSystem,
    StabilityCertificate,
    _care_flow,
    _dare_flow,
    _stationary,
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


def start_at(p0):
    """A scalar candidate whose covariance start is [[p0]]."""
    return CertificateCandidate(W=[[1.0]], U=[[1.0]], alpha=0.1, Gamma2=[[1.0]], P0=[[p0]])


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
# construction

# the array fields of each type that stores them read-only
_ARRAY_FIELDS = {
    LinearSystem: {"A", "C", "Q", "R", "D"},
    CertificateCandidate: {"W", "U", "Gamma2", "P0"},
    NonlinearModel: {"Q", "R"},
    StabilityCertificate: {"P_inf", "W", "U", "Gamma2", "P0", "_c2_times", "_c2_lmax"},
}


def test_the_linear_observer_copies_the_callers_arrays_and_holds_them_read_only():
    # an in-place edit used to skip every constructor check: after
    # sys.R[0, 0] = -1, certify failed with "innovation covariance not
    # factorizable" where the constructor names R
    A, C, Q, R, D, W, U, Gamma2, P0, P_inf = (
        np.array([[v]]) for v in (-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.01, 0.5))
    sys_ = LinearSystem(A=A, C=C, Q=Q, R=R, D=D, mode="continuous")
    cand = CertificateCandidate(W=W, U=U, alpha=0.5, Gamma2=Gamma2, P0=P0)
    model = NonlinearModel(f=lambda x, u: x, h=lambda x: x, Q=Q, R=R, n=1, p=1)
    cert = certify(sys_, cand, ct_cert_setup()[2], mu=0.3)
    built = [(sys_, dict(A=A, C=C, Q=Q, R=R, D=D)),
             (cand, dict(W=W, U=U, Gamma2=Gamma2, P0=P0)),
             (model, dict(Q=Q, R=R)),
             (dataclasses.replace(cert, P_inf=P_inf), dict(P_inf=P_inf))]
    for obj, mine in built:
        stored = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                  if isinstance(getattr(obj, f.name), np.ndarray)}
        assert set(stored) == _ARRAY_FIELDS[type(obj)]
        for arr in stored.values():
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        for name, arr in mine.items():
            assert arr.flags.writeable, name
            assert not np.shares_memory(arr, stored[name]), name
    assert isinstance(cert.checkpoints, tuple)


def test_a_linear_system_and_a_candidate_equal_only_themselves():
    # the generated == compared arrays and raised for any matrix larger
    # than 1x1; the bound check's covariance memo hashes the objects
    sys_ = scalar_sys(0.5, 1.0, 1.0, 1.0)
    cand = start_at(1.0)
    assert sys_ == sys_ and sys_ != dataclasses.replace(sys_)
    assert cand == cand and cand != dataclasses.replace(cand)
    assert len({sys_, cand, dataclasses.replace(sys_), dataclasses.replace(cand)}) == 4


def test_an_observer_holds_one_read_only_r_inverse_that_replace_computes_again():
    # R^-1 is derived once, in the constructor, with the bits of a per-call
    # _spd_inverse; it is not a field, so replace derives it from the new R
    R = np.array([[2.0, 0.3], [0.3, 1.0]])
    sys_ = LinearSystem(A=np.eye(2), C=np.eye(2), Q=np.eye(2), R=R, D=np.ones((2, 1)),
                        mode="discrete")
    model = NonlinearModel(f=lambda x, u: x, h=lambda x: x, Q=np.eye(2), R=R, n=2, p=2)
    for obj in (sys_, model):
        assert obj.Rinv.tobytes() == _spd_inverse(R, "R").tobytes()
        with pytest.raises(ValueError, match="read-only"):
            obj.Rinv[0, 0] = 0.0
        assert "Rinv" not in {f.name for f in dataclasses.fields(obj)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.Rinv = np.eye(2)
        rebuilt = dataclasses.replace(obj, R=4.0 * R)
        assert rebuilt.Rinv.tobytes() == _spd_inverse(4.0 * R, "R").tobytes()
        np.testing.assert_allclose(rebuilt.Rinv, np.linalg.inv(4.0 * R), rtol=1e-14)
        assert not rebuilt.Rinv.flags.writeable


# ---------------------------------------------------------------------------
# Riccati solvers

def test_care_scalar():
    P = solve_care(scalar_sys(0.0, 1.0, 1.0, 1.0, mode="continuous"))
    assert P[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_the_flow_samples_follow_the_closed_form_where_the_norm_overstates_the_scaling():
    # a slow scalar flow: dP/dt = q + 2 a P - s P^2 (s = c^2 / r) from P = 0
    # is q tanh(beta t) / (beta - a tanh(beta t)), beta = sqrt(a^2 + q s).
    # Its Hamiltonian h M is nearly nilpotent at the long steps, where an s
    # chosen from ||h M||_1 alone (theta_13 = 5.37, Higham 2005) would be 14
    a = c = 1e-6
    ct_sys = scalar_sys(a, c, 1.0, 1.0, mode="continuous")
    with mock.patch.object(stability, "_expm", wraps=stability._expm) as spy:
        _, samples = _care_flow(ct_sys, np.zeros((1, 1)))
    norm_based = max(math.ceil(math.log2(np.linalg.norm(hM, 1) / 5.371920351148152))
                     for (hM,), _ in spy.call_args_list)
    assert norm_based >= 10
    beta = math.hypot(a, c)
    for t, P in samples[1:]:
        th = math.tanh(beta * t)
        assert P[0, 0] == pytest.approx(th / (beta - a * th), rel=1e-12), t


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


def test_solve_care_agrees_with_the_schur_solver(rng):
    from scipy.linalg import solve_continuous_are  # the reference, at test time only
    eps = np.finfo(float).eps
    for _ in range(30):
        cs = random_system(rng, "continuous")
        P = solve_care(cs)
        P_ref = solve_continuous_are(cs.A.T, cs.C.T, cs.Q, cs.R)
        for X in (P, P_ref):
            assert care_residual(cs, X) <= 1e-10 * (1.0 + np.linalg.norm(X))
        # two stable solvers differ by O(kappa eps) relative, kappa the condition
        # number of the closed-loop Lyapunov operator at the solution; the gap
        # was at most 23 kappa eps on 999 of 1,000 random systems (the other,
        # with ||P|| = 2.5e8, fails solve_care's stopping test, and the Schur
        # solution its residual contract)
        A_cl = cs.A - P_ref @ cs.C.T @ np.linalg.solve(cs.R, cs.C)
        ident = np.eye(cs.n)
        kappa = np.linalg.cond(np.kron(A_cl, ident) + np.kron(ident, A_cl))
        assert np.linalg.norm(P - P_ref) <= 1e3 * kappa * eps * np.linalg.norm(P_ref)


def test_newton_from_a_start_with_an_unstable_closed_loop_is_a_named_failure():
    # A = C = Q = R = 1: from P = 0 the closed loop A - P C^T R^-1 C = 1 is
    # unstable, and Newton would converge to the anti-stabilizing 1 - sqrt(2)
    sys_ = scalar_sys(1.0, 1.0, 1.0, 1.0, mode="continuous")
    with pytest.raises(CertificationFailure, match="not Hurwitz"):
        stability._care_newton(sys_, np.zeros((1, 1)), np.eye(1))
    # with Q = 1e-8 the flow's right-hand side at P = 0 is already within
    # its hand-over threshold of 1e-3 (1 + ||P||); the flow steps on until the
    # closed loop is stable, and reaches the stabilizing 1 + sqrt(1 + 1e-8)
    with pytest.raises(ValueError, match="read-only"):
        sys_.Q[0, 0] = 1e-8
    sys_ = dataclasses.replace(sys_, Q=[[1e-8]])
    assert solve_care(sys_)[0, 0] == pytest.approx(1.0 + math.sqrt(1.0 + 1e-8), rel=1e-14)


def _seed11_system(draw):
    """Draw `draw` of a generator of regular random continuous systems: n
    and p in 1..4, entries uniform in +-10 with 40% replaced by 0, +-1, 0.5
    or 1e-3, Q = F F^T + 0.1 I and R = G G^T + 0.1 I; None for a draw that
    fails the Hautus tests."""
    rng = np.random.default_rng((11, draw))
    n, p = (int(v) for v in rng.integers(1, 5, size=2))
    special = np.array([0.0, 1.0, -1.0, 0.5, 1e-3])

    def entries(rows, cols):
        M = rng.uniform(-10.0, 10.0, (rows, cols))
        mask = rng.random((rows, cols)) < 0.4
        M[mask] = special[rng.integers(0, len(special), size=int(mask.sum()))]
        return M

    A, C, F, G = entries(n, n), entries(p, n), entries(n, n), entries(p, p)
    sys_ = LinearSystem(A=A, C=C, Q=F @ F.T + 0.1 * np.eye(n), R=G @ G.T + 0.1 * np.eye(p),
                        D=np.zeros((p, 1)), mode="continuous")
    return sys_ if is_stabilizable(sys_) and is_detectable(sys_) else None


# Draws on which Newton-Kleinman stalled at its former cap of 20 steps.  Of
# the first 50,521 draws (50,290 regular), 38 stalled there and 8 in the
# flow; with the cap at 60 and the best-iterate fallback, 37 of the 38 meet
# the contract (the other, draw 49253, gets no closer than 4.1e-10 (1 + ||P||),
# and scipy's Schur solver 1.8e-8).  1114 passes the stopping test within 60
# steps; the best iterate of 993 (||P|| = 3.4e8) meets the contract; 20335
# (||P|| = 9.8e9) needs both.
@pytest.mark.parametrize("draw", [993, 1114, 20335])
def test_solve_care_meets_its_contract_where_newton_used_to_stall(draw):
    sys_ = _seed11_system(draw)
    P = solve_care(sys_)
    assert care_residual(sys_, P) <= 1e-10 * (1.0 + np.linalg.norm(P))
    gain = P @ sys_.C.T @ np.linalg.solve(sys_.R, sys_.C)
    assert np.linalg.eigvals(sys_.A - gain).real.max() < 0.0  # the stabilizing solution


def test_newton_without_an_iterate_that_meets_the_contract_is_a_named_failure(monkeypatch):
    monkeypatch.setattr(stability, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(CertificationFailure, match="Newton-Kleinman .* did not converge"):
        solve_care(_seed11_system(1114))


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


ASYMMETRIC = [[1.0, 0.5], [0.0, 1.0]]


@pytest.mark.parametrize("kind, name", [
    ("NonlinearModel", "Q"), ("NonlinearModel", "R"), ("FilterSpec", "P0"),
    ("LinearSystem", "Q"), ("LinearSystem", "R"),
    ("CertificateCandidate", "U"), ("CertificateCandidate", "P0"),
])
def test_asymmetric_matrices_rejected_at_construction(kind, name):
    eye = np.eye(2)
    builders = {
        "NonlinearModel": (NonlinearModel, dict(f=lambda x, u: x, h=lambda x: x, Q=eye, R=eye,
                                                n=2, p=2)),
        "FilterSpec": (FilterSpec, dict(kind="ekf", P0=eye)),
        "LinearSystem": (LinearSystem, dict(A=-eye, C=eye, Q=eye, R=eye, D=eye,
                                            mode="continuous")),
        "CertificateCandidate": (CertificateCandidate, dict(W=eye, U=eye, alpha=0.5,
                                                            Gamma2=eye, P0=eye)),
    }
    build, kw = builders[kind]
    build(**kw)
    kw[name] = ASYMMETRIC
    with pytest.raises(ConfigurationError, match=f"^{name} must be symmetric$"):
        build(**kw)


@pytest.mark.parametrize("entry", ["certify", "bound_trajectory_check"])
@pytest.mark.parametrize("name", ["W", "Gamma2", "U", "P0"])
def test_candidate_shapes_are_checked_against_the_system(entry, name):
    sys, cand, params = ct_cert_setup()
    fields = dict(W=cand.W, U=cand.U, alpha=cand.alpha, Gamma2=cand.Gamma2, P0=cand.P0)
    fields[name] = np.eye(2)
    bad = CertificateCandidate(**fields)
    message = rf"^{name} must be 1x1 for this system, got \(2, 2\)$"
    with pytest.raises(ConfigurationError, match=message):
        if entry == "certify":
            certify(sys, bad, params, mu=0.3)
        else:
            cert = certify(sys, cand, params, mu=0.3)
            bound_trajectory_check(sys, bad, cert, lambda t: np.zeros(1), horizon=0.01)


@pytest.mark.parametrize("mu", [np.inf, np.nan, -0.1])
def test_certify_rejects_a_mu_that_is_not_finite_and_nonnegative(mu):
    sys, cand, params = ct_cert_setup()
    with pytest.raises(InputDomainError, match="^mu must be finite and nonnegative$"):
        certify(sys, cand, params, mu=mu)


@pytest.mark.parametrize("M, message", [
    ([[np.inf]], "^M not finite$"),
    ([[np.nan]], "^M not finite$"),
    ([[1.0, 0.0], [0.0, -1.0]], r"^M not factorizable \(cond ~"),
], ids=["inf", "nan", "indefinite"])
def test_spd_inverse_names_its_failure(M, message):
    # potrf returns info 0 on nan and inf input, so finiteness is checked first
    with pytest.raises(NumericalFailure, match=message):
        stability._spd_inverse(np.array(M), "M")


def test_spd_inverse_holds_near_the_float_limit():
    # the symmetric part is taken in halves: M + M^T would overflow to inf
    # (a RuntimeWarning, which pytest turns into an error) and invert to 0
    assert stability._spd_inverse(np.array([[1e308]]), "R").tolist() == [[1e-308]]
    assert stability._spd_inverse(np.diag([1e308, 4.0]), "R").tolist() == [[1e-308, 0.0],
                                                                            [0.0, 0.25]]


def test_monotone_dare_iterates_from_zero(rng):
    for _ in range(20):
        sys = random_system(rng, "discrete")
        preds = [P for P, *_ in _dare_flow(sys, np.zeros((sys.n, sys.n)))]
        for Pa, Pb in zip(preds, preds[1:]):
            assert np.linalg.eigvalsh(Pb - Pa).min() >= -1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowed_norm_is_never_stationary():
    # entries above about 1.3e154 overflow the Frobenius norm of P
    P, P_next = np.array([[1e160]]), np.array([[1e170]])
    assert not _stationary(P, np.linalg.norm(P_next - P))
    assert not _stationary(P, 0.0)
    # the continuous flow from an overflowed start, whose first rhs norm and
    # tolerance are both inf, runs on to the fixed point sqrt(2) - 1
    ct_sys = scalar_sys(-1.0, 1.0, 1.0, 1.0, mode="continuous")
    for p0 in (1e155, 1e200):
        P_inf, samples = _care_flow(ct_sys, np.array([[p0]]))
        assert len(samples) == 13
        assert P_inf[0, 0] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
        assert care_residual(ct_sys, P_inf) <= 1e-10
    # unobserved and unstable: P quadruples from 1e155 until it overflows
    with pytest.raises(CertificationFailure, match="diverged"):
        list(_dare_flow(scalar_sys(2.0, 0.0, 1.0, 1.0), np.array([[1e155]])))
    # unobserved and neutral: P is stationary to the last bit but its norm
    # has overflowed, which fails at the first step, not after max_iter
    with pytest.raises(CertificationFailure, match="diverged"):
        list(_dare_flow(scalar_sys(1.0, 0.0, 1.0, 1.0), np.array([[1e160]])))
    # P jumps from 1.13 to 1.13e200, then to inf, whose gain step fails
    steps = stability._dare_steps(scalar_sys(1e100, 0.0, 1.0, 1.0), np.array([[1.13]]))
    first_two = [P[0, 0] for P, *_ in itertools.islice(steps, 2)]
    assert first_two == pytest.approx([1.13, 1.13e200], rel=1e-12)
    with pytest.raises(NumericalFailure, match="^innovation covariance not finite$"):
        next(steps)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_continuous_covariance_pass_stops_at_its_first_non_finite_step():
    # unobserved and fast: each RK4 step multiplies P by about 8,200 until
    # it overflows at step 77; the pass keeps the gains of its stages so far
    sys = scalar_sys(1e4, 0.0, 1.0, 1.0, mode="continuous")
    cov = stability._covariance_pass(sys, start_at(1.0), 1e-3, 200)
    assert (cov.failed_at, len(cov.gains)) == (77, 4 * 78)


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


@pytest.mark.parametrize("P0", [0.0, 1.0], ids=["singular-start", "regular-start"])
def test_a_singular_q_fails_certification_from_every_start(P0):
    # from P0 = 0 the recursion under Q = 0 is stationary at once, with a zero
    # filtered covariance; A and Q are checked before eps_cov inverts it
    sys, cand, params = dt_cert_setup()
    sys_q = scalar_sys(0.5, 1.0, 0.0, 1.0)
    cand = CertificateCandidate(W=cand.W, U=cand.U, alpha=cand.alpha, Gamma2=cand.Gamma2,
                                P0=[[P0]])
    with pytest.raises(CertificationFailure, match="^discrete certification requires invertible Q$"):
        certify(sys_q, cand, params, mu=0.5)
    with pytest.raises(CertificationFailure, match=r"^no certificate found on the \(W, U\) grid; "
                                                   r"last failure: .*invertible Q$"):
        sweep_candidates(sys_q, params, mu=0.5, alpha=0.2, P0=np.array([[P0]]))


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


def test_the_asymptotic_bound_follows_a_replaced_certificate():
    # the bound is derived from the fields, so a certificate built again
    # with another alpha or mu reports its own envelope's limit
    sys, cand, params = dt_cert_setup()
    cert = certify(sys, cand, params, mu=0.5)
    assert cert.asymptotic_bound == pytest.approx(1.8202, abs=1e-4)
    faster = dataclasses.replace(cert, alpha=0.35)
    assert faster.asymptotic_bound == pytest.approx(1.3760, abs=1e-4)
    for c in (cert, faster, dataclasses.replace(cert, mu=0.2)):
        assert c.asymptotic_bound == pytest.approx(c.transient_bound(10**4, 0.0), rel=1e-12)


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


# ---------------------------------------------------------------------------
# entry rejections that no run reaches, each with its type and message

def _system(**changes):
    kw = dict(A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]], mode="discrete")
    kw.update(changes)
    return LinearSystem(**kw)


def _candidate(**changes):
    kw = dict(W=[[1.0]], U=[[1.0]], alpha=0.1, Gamma2=[[1.0]], P0=[[1.0]])
    kw.update(changes)
    return CertificateCandidate(**kw)


def _certify_dt(params=None, variant="theorem"):
    sys, cand, dt_params = dt_cert_setup()
    return certify(sys, cand, params or dt_params, mu=0.5, variant=variant)


def _two_channel_dt_params():
    return BoundParams(lambda1=[0.1] * 2, lambda2=[0.1] * 2, gamma1=[0.05] * 2,
                       gamma2=[0.2] * 2, sigma0=[0.5] * 2, epsilon0=[0.5] * 2, mode="dt")


def _check_from(e0, P0=None):
    # the candidate's P0 replaced after certification when P0 is given
    sys, cand, params = dt_cert_setup()
    cert = certify(sys, cand, params, mu=0.5)
    if P0 is not None:
        cand = dataclasses.replace(cand, P0=P0)
    return bound_trajectory_check(sys, cand, cert, lambda k: np.zeros(1), horizon=5, e0=e0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: _system(A=[[1.0, 0.0]]), ConfigurationError, "A must be square"),
    (lambda: _system(C=[[1.0, 1.0]]), ConfigurationError, "C must be p x 1"),
    (lambda: _system(Q=np.eye(2)), ConfigurationError, "Q/R dimensions inconsistent with A/C"),
    (lambda: _system(D=[[1.0], [1.0]]), ConfigurationError, "D must have p rows"),
    (lambda: _system(mode="hybrid"), ConfigurationError,
     "mode must be 'continuous' or 'discrete', got 'hybrid'"),
    (lambda: stability.assert_regular(_system(A=[[2.0]], Q=[[0.0]])), CertificationFailure,
     "(A, Q^(1/2)) is not stabilizable"),
    (lambda: _candidate(W=[[1.0, 0.5], [0.5, 1.0]]), ConfigurationError, "W must be diagonal"),
    (lambda: _candidate(Gamma2=[[-1.0]]), ConfigurationError,
     "Gamma2 must have strictly positive diagonal"),
    (lambda: _candidate(U=[[-1.0]]), ConfigurationError, "U must be positive definite"),
    (lambda: _candidate(alpha=0.0), ConfigurationError, "alpha must be positive"),
    (lambda: _candidate(P0=[[-1.0]]), ConfigurationError, "P0 must be positive semidefinite"),
    (lambda: build_Z(_system(mode="continuous"), _candidate(), np.eye(1), np.eye(1)),
     ConfigurationError, "build_Z requires a discrete-mode system"),
    (lambda: _certify_dt(params=_two_channel_dt_params()), ConfigurationError,
     "bound parameters channel count != p"),
    (lambda: _certify_dt(variant="lemma"), ConfigurationError, "unknown variant 'lemma'"),
    (lambda: _check_from(np.zeros(2)), ConfigurationError, "e0 must have length 1, got shape (2,)"),
    (lambda: _check_from(None, P0=[[50.0]]), ConfigurationError,
     "candidate P0 [[50.0]] != certified [[1.1327822185372831]]"),
], ids=["A-not-square", "C-shape", "Q-shape", "D-rows", "mode", "not-stabilizable",
        "W-not-diagonal", "Gamma2-not-positive", "U-not-pd", "alpha-zero", "P0-not-psd",
        "build_Z-continuous", "params-channel-count", "variant", "e0-length",
        "P0-not-certified"])
def test_an_entry_rejection_names_its_cause(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
