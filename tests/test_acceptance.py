"""Acceptance suite: one test per release criterion, each printing a
PASS line with its runtime when it holds (run with -s to see them)."""

import math
import os
import time

import numpy as np
import pytest

from conftest import benchmark_config, paper_bound_params, random_system, robot_filter_p0
from isekf.filters import FilterState, dt_isekf_step, ekf_step
from isekf.harness import cli_main, parse_config
from isekf.saturation import BoundParams, SaturationState, saturate
from isekf.scenario import FilterSpec, robot_model, simulate
from isekf.stability import (
    CertificateCandidate,
    LinearSystem,
    _dare_flow,
    bound_trajectory_check,
    care_residual,
    certify,
    dare_residual,
    gain_identity_residuals,
    qbar_chain_residual,
    solve_care,
    solve_dare,
)

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAPER_CFG = os.path.join(PKG_ROOT, "paper.cfg")


class Budget:
    """Asserts the wall-clock budget and prints the criterion verdict."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
            print(f"[{status}] {self.name} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name}: runtime budget exceeded"
        else:
            print(f"[FAIL] {self.name} ({elapsed:.2f}s)")
        return False


def test_criterion_1_saturation_algebra():
    rng = np.random.default_rng(2024)
    with Budget("criterion 1: saturation algebra (10^4 random pairs, exact)", 1.0):
        r = rng.uniform(-1e3, 1e3, 10000)
        r2 = rng.uniform(-1e3, 1e3, 10000)
        b = rng.uniform(0.0, 5e2, 10000)
        for i in range(10000):
            s = saturate(r[i], b[i])
            assert saturate(s, b[i]) == s                       # idempotent
            assert saturate(-r[i], b[i]) == -s                  # odd
            assert abs(s - saturate(r2[i], b[i])) <= abs(r[i] - r2[i])  # non-expansive


def test_criterion_2_kf_equivalence():
    # robot scenario, outliers disabled, sigma0 = 1e30; the bound decay is
    # parked near one so the clip level stays astronomically large over
    # the whole horizon and the saturated filter must match the EKF
    with Budget("criterion 2: saturated filter == EKF at sigma0=1e30 (1e-12 rel)", 1.0):
        parked = BoundParams(lambda1=[0.9999] * 3, lambda2=[0.9999] * 3,
                             gamma1=[1e-9] * 3, gamma2=[1e-9] * 3,
                             sigma0=[1e30] * 3, epsilon0=[1.0] * 3, mode="dt")
        P0 = robot_filter_p0()
        cfg = benchmark_config(
            schedule=None,
            filters=[FilterSpec("is-ekf", P0=P0, bound_params=parked),
                     FilterSpec("ekf", P0=P0)],
        )
        tr = simulate(cfg, 1)
        a = tr.estimates["is-ekf"]
        b = tr.estimates["ekf"]
        assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))


def test_criterion_3_riccati_oracles():
    with Budget("criterion 3: Riccati oracles (golden ratio + 50 random systems)", 5.0):
        ds = LinearSystem(A=[[1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[0.0]],
                          mode="discrete")
        P = solve_dare(ds)[0, 0]
        assert abs(P - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-10
        rng = np.random.default_rng(99)
        for _ in range(50):
            cs = random_system(rng, "continuous")
            Pc = solve_care(cs)
            assert care_residual(cs, Pc) <= 1e-10 * (1.0 + np.linalg.norm(Pc))
            dsys = random_system(rng, "discrete")
            Pd = solve_dare(dsys)
            assert dare_residual(dsys, Pd) <= 1e-10 * (1.0 + np.linalg.norm(Pd))


def test_criterion_4_proof_identities():
    with Budget("criterion 4: gain/covariance identities on 100 random instances", 5.0):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            p = int(rng.integers(1, n + 1))
            V = np.linalg.qr(rng.standard_normal((n, n)))[0]
            P = V @ np.diag(rng.uniform(0.3, 3.0, n)) @ V.T
            Vq = np.linalg.qr(rng.standard_normal((n, n)))[0]
            Q = Vq @ np.diag(rng.uniform(0.3, 3.0, n)) @ Vq.T
            Vr = np.linalg.qr(rng.standard_normal((p, p)))[0]
            R = Vr @ np.diag(rng.uniform(0.3, 3.0, p)) @ Vr.T
            C = rng.standard_normal((p, n))
            A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            assert max(gain_identity_residuals(C, R, P)) < 1e-10
            assert qbar_chain_residual(A, Q, P) < 1e-10


def _dt_certified():
    sys = LinearSystem(A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]],
                       mode="discrete")
    P_inf = solve_dare(sys)
    params = BoundParams(lambda1=[0.1], lambda2=[0.1], gamma1=[0.05], gamma2=[0.2],
                         sigma0=[0.5], epsilon0=[0.5], mode="dt")
    cand = CertificateCandidate(W=[[0.3]], U=[[2.0]], alpha=0.2, Gamma2=[[0.2]],
                                P0=P_inf)
    return sys, cand, params


def _ct_certified():
    sys = LinearSystem(A=[[-1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], D=[[1.0]],
                       mode="continuous")
    params = BoundParams(lambda1=[-1.0], lambda2=[-1.0], gamma1=[0.1], gamma2=[1.0],
                         sigma0=[0.5], epsilon0=[0.5], mode="ct")
    cand = CertificateCandidate(W=[[1.0]], U=[[2.0]], alpha=0.5, Gamma2=[[1.0]],
                                P0=[[0.01]])
    return sys, cand, params


def test_criterion_5_theorem_bound_containment():
    with Budget("criterion 5: certified transient bounds contain the error", 30.0):
        mu = 0.5
        sys, cand, params = _dt_certified()
        cert = certify(sys, cand, params, mu=mu)
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = rng.uniform(-mu, mu, 2001)
            rep = bound_trajectory_check(sys, cand, cert,
                                         lambda k: np.array([d[k]]),
                                         horizon=2000, e0=np.array([0.3]))
            assert rep.max_ratio <= 1.0 + 1e-9
        # continuous-time analogue via RK4 at dt = 1e-3
        mu_ct = 0.3
        sys_c, cand_c, params_c = _ct_certified()
        cert_c = certify(sys_c, cand_c, params_c, mu=mu_ct)
        for i in range(20):
            hold = rng.uniform(-mu_ct, mu_ct, 80)
            rep = bound_trajectory_check(
                sys_c, cand_c, cert_c,
                lambda t: np.array([hold[min(int(t / 0.05), 79)]]),
                horizon=4.0, e0=np.array([0.05]), dt=1e-3)
            assert rep.max_ratio <= 1.0 + 1e-9


def test_criterion_6_corollary_decay():
    with Budget("criterion 6: vanishing disturbance gives vanishing error", 5.0):
        sys, cand, params = _dt_certified()
        cert = certify(sys, cand, params, mu=0.5, variant="corollary")
        rep = bound_trajectory_check(sys, cand, cert,
                                     lambda k: np.array([0.5 * 0.99**k]),
                                     horizon=2000, e0=np.array([0.3]))
        assert rep.final_error_norm < 1e-6


def test_criterion_7_benchmark_reproduction():
    # regression floors pinned from the first certified run:
    #   min over seeds 1..20 of the EKF/saturated max-position-error ratio
    #   in stages 3-4 was 35.1; of the gated/saturated full-horizon position
    #   RMSE ratio 1.63; of the gated/saturated stage-1 heading RMSE ratio
    #   7.48; max saturated position RMSE 0.569.
    with Budget("criterion 7: benchmark orderings over seeds 1..20", 10.0):
        cfg = parse_config(PAPER_CFG)
        for seed in range(1, 21):
            tr = simulate(cfg.scenario, seed)
            err = {lbl: tr.error(lbl) for lbl in tr.labels()}
            pos = {lbl: np.hypot(e[:, 0], e[:, 1]) for lbl, e in err.items()}
            w34 = np.concatenate([np.arange(451, 501), np.arange(551, 601)])
            # (a) the plain EKF fails at least 10x harder on large outliers
            ratio_a = pos["ekf"][w34].max() / pos["is-ekf"][w34].max()
            assert ratio_a > 10.0, f"seed {seed}: stage-3/4 ratio {ratio_a:.1f}"
            assert ratio_a > 15.0                      # pinned regression floor
            # (b) full-horizon position accuracy beats the gated baseline
            rmse_pos = {lbl: math.sqrt((p**2).mean()) for lbl, p in pos.items()}
            assert rmse_pos["is-ekf"] < rmse_pos["lsigma-ekf"], f"seed {seed}"
            assert rmse_pos["lsigma-ekf"] / rmse_pos["is-ekf"] > 1.3
            assert rmse_pos["is-ekf"] < 0.8            # pinned regression ceiling
            # (c) small-outlier stage: heading beats the gated baseline
            w1 = np.arange(151, 201)
            th = {lbl: math.sqrt((e[w1, 2]**2).mean()) for lbl, e in err.items()}
            assert th["is-ekf"] < th["lsigma-ekf"], f"seed {seed}"
            assert th["lsigma-ekf"] / th["is-ekf"] > 3.0
            # the saturated filter is never flagged divergent
            assert pos["is-ekf"].max() < 10.0
            assert tr.failed_at["is-ekf"] is None


def test_criterion_8_determinism(tmp_path):
    with Budget("criterion 8: byte-identical CSV and SVG outputs", 30.0):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert cli_main(["run", PAPER_CFG, "--seed", "7", "--out", str(out1)]) == 0
        assert cli_main(["run", PAPER_CFG, "--seed", "7", "--out", str(out2)]) == 0
        names = ["trace.csv", "measurement_px.svg", "measurement_py.svg",
                 "measurement_theta.svg", "state_px.svg", "state_py.svg",
                 "state_theta.svg", "trajectory.svg"]
        for name in names:
            b1 = (out1 / name).read_bytes()
            b2 = (out2 / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"


def test_criterion_9_monotone_riccati():
    with Budget("criterion 9: Riccati recursion monotone from zero", 30.0):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sys = random_system(rng, "discrete")
            preds = [P for P, *_ in _dare_flow(sys, np.zeros((sys.n, sys.n)))]
            for Pa, Pb in zip(preds, preds[1:]):
                assert np.linalg.eigvalsh(Pb - Pa).min() >= -1e-12
