"""Digest of the deterministic outputs of the isekf package on the import path.

    PYTHONPATH=src python scripts/output_digest.py > digest.txt

prints one line per artifact:

- the sha256 of trace.csv, of the 7 SVGs and of metrics.txt (without its
  wall-clock lines) of `isekf run paper.cfg --seed S` for S in 1, 7, 1001;
- the sha256 of trace.csv of `isekf run` at those seeds on paper.cfg with
  delta_amp 40, written to a temporary file: a heading that turns up to
  4 rad a step and wraps at +-pi, which paper.cfg's never does;
- the failed_at of each filter and the sha256 of trace.csv and of
  metrics.txt (without its wall-clock line) of a run at seed 1 whose
  filters fail at steps 1, 164 and 193 (failing_lanes_scenario), which no
  paper.cfg run does: a failed filter's re-run and held state;
- the stdout of `isekf sweep paper.cfg --seeds 20` (one batch), of
  `isekf sweep paper.cfg --seeds 70` (two batches, 64 + 6 seeds) and of
  `isekf certify linear.cfg`, line by line;
- max_ratio, samples and final_error_norm (floats in hex) of draws 0-2 of
  the bench's bound-dt and bound-ct workloads at seed 1, and of bound-dt's
  draw 0 on its system from P0 = 1 (the certificate sweep_candidates finds
  there), whose Riccati recursion moves for some steps before its gain
  freezes, where every bound-dt draw starts at the fixed point;
- for the certificates of those two workloads at their V0, the sha256 of
  the hex of transient_bound at every sample of an op (2,001 steps,
  4,001 times);
- c1, c3, rho and the asymptotic bound (hex) of four certificates, with the
  sha256 of their checkpoints (hex) and of the bytes of the recorded
  trajectory's times and lambda_max: linear.cfg at its fixed point, its
  system from P0 = 1 (sweep_candidates at alpha 0.2), and the bound-ct
  observer from P0 = 0.01 and from the singular P0 = 0;
- the endpoint (hex) of a 3-state, 2-channel ct_isekf_integrate run with a
  clipped outlier;
- for each n and p from 1 to 4, the sha256 of the bytes of solve_dare and
  of gain_identity_residuals at its fixed point on DARE_DRAWS seeded random
  discrete systems of n states and p channels;
- for each p from 1 to 4, the sha256 of the bytes of BOUND_MAP_STEPS
  iterated bound_step_dt steps and of bound_rhs_ct at BOUND_MAP_STEPS
  states, on seeded random coefficients, states and innovations that span
  decades: the bound map at states the runs above never visit;
- for each p from 1 to 4, the sha256 of one bound_step_dt step and of
  bound_rhs_ct from each of BOUND_MAP_STEPS states whose epsilon lies at
  the edges of exp(-eps): 0, 5e-324, [700, 750] (where exp underflows) and
  [1e12, 1.7e308], with the coefficients and innovations of the line
  above; a rate that overflows is hashed as its error message.

The configs and bench/workloads.py are read from this checkout (the latter
loaded by path, read only); the package is whatever `import isekf` finds, so
`PYTHONPATH=<other checkout>/src python scripts/output_digest.py` digests
another checkout's code on the same inputs, and two digests can be diffed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import itertools
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np
import yaml

from isekf.errors import NumericalFailure
from isekf.filters import FilterState, NonlinearModel, ct_isekf_integrate
from isekf.harness import (DEFAULT_BOUND, DEFAULT_P0_DIAG, ExperimentConfig, cli_main,
                           export_csv, run_experiment)
from isekf.scenario import (FilterSpec, OutlierSchedule, OutlierSegment, ScenarioConfig,
                            paper_schedule)
from isekf.stability import (CertificateCandidate, LinearSystem, bound_trajectory_check, certify,
                             gain_identity_residuals, solve_dare, sweep_candidates)
from isekf.saturation import BoundParams, SaturationState, bound_rhs_ct, bound_step_dt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAPER_CFG = os.path.join(ROOT, "paper.cfg")
LINEAR_CFG = os.path.join(ROOT, "linear.cfg")
RUN_SEEDS = (1, 7, 1001)
SPIN_DELTA_AMP = 40.0
DRAWS = 3
# random discrete Riccati systems: DARE_DRAWS of each shape, from DARE_SEED
DARE_DIMS = tuple(itertools.product(range(1, 5), repeat=2))
DARE_DRAWS = 20
DARE_SEED = 18
# random bound maps: BOUND_MAP_STEPS steps and states per channel count, from BOUND_MAP_SEED
BOUND_MAP_CHANNELS = tuple(range(1, 5))
BOUND_MAP_STEPS = 200
BOUND_MAP_SEED = 19
# bound-map states at the edges of exp(-eps), from BOUND_EDGE_SEED
BOUND_EDGE_SEED = 20


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"isekf {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def _sha256(path: str, drop: Optional[str] = None) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if drop is not None:
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if drop.encode() not in line)
    return hashlib.sha256(data).hexdigest()


def run_lines() -> list[str]:
    lines = []
    for seed in RUN_SEEDS:
        with tempfile.TemporaryDirectory() as out:
            _cli_stdout(["run", PAPER_CFG, "--seed", str(seed), "--out", out])
            for name in sorted(os.listdir(out)):
                drop = "wall clock" if name == "metrics.txt" else None
                lines.append(f"run seed={seed} {name} {_sha256(os.path.join(out, name), drop)}")
    return lines


def write_spinning_cfg(directory: str) -> str:
    """paper.cfg with delta_amp SPIN_DELTA_AMP, as a file in directory."""
    with open(PAPER_CFG, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["scenario"]["input"]["delta_amp"] = SPIN_DELTA_AMP
    path = os.path.join(directory, "spinning.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    return path


def spinning_lines() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_spinning_cfg(tmp)
        for seed in RUN_SEEDS:
            out = os.path.join(tmp, f"seed-{seed}")
            _cli_stdout(["run", cfg, "--seed", str(seed), "--out", out])
            lines.append(f"run spinning seed={seed} trace.csv "
                         f"{_sha256(os.path.join(out, 'trace.csv'))}")
    return lines


def failing_lanes_scenario() -> ScenarioConfig:
    """paper.cfg's scenario for 200 steps under a 1e100 outlier on the x
    channel at every step, with four filters: two is-ekf whose lambda1 of
    0.01 and 0.02 underflow their clip levels at steps 164 and 193, an ekf
    whose P0 of 1e308 overflows S at step 1, and an lsigma-ekf that runs
    through."""
    P0 = np.diag(DEFAULT_P0_DIAG)

    def decay(lambda1):
        return BoundParams(mode="dt", **{**DEFAULT_BOUND, "lambda1": [lambda1] * 3})

    huge = OutlierSegment(0, 200, "constant", value=[1e100, 0.0])
    return ScenarioConfig(
        horizon=200, schedule=OutlierSchedule((huge,), D=paper_schedule().D),
        filters=[FilterSpec("is-ekf", P0=P0, bound_params=decay(0.01), label="is-ekf-fast"),
                 FilterSpec("is-ekf", P0=P0, bound_params=decay(0.02), label="is-ekf-slow"),
                 FilterSpec("ekf", P0=np.diag([1e308, 1e308, 5e-5])),
                 FilterSpec("lsigma-ekf", P0=P0, ell=3.0)])


def failing_lanes_lines() -> list[str]:
    trace, report = run_experiment(ExperimentConfig(failing_lanes_scenario(), seed=1))
    failed = " ".join(f"{label}={k}" for label, k in trace.failed_at.items())
    with tempfile.TemporaryDirectory() as out:
        csv, metrics = os.path.join(out, "trace.csv"), os.path.join(out, "metrics.txt")
        export_csv(trace, csv)
        with open(metrics, "w", encoding="utf-8") as fh:
            fh.write(report.text())
        return [f"failing lanes seed=1 failed_at {failed}",
                f"failing lanes seed=1 trace.csv {_sha256(csv)}",
                f"failing lanes seed=1 metrics.txt {_sha256(metrics, 'wall clock')}"]


def _stdout_lines(argv, label: str) -> list[str]:
    return [f"{label} | {line}" for line in _cli_stdout(argv).splitlines()]


SWEEP_SEEDS = (20, 70)


def sweep_lines() -> list[str]:
    return [line for seeds in SWEEP_SEEDS
            for line in _stdout_lines(["sweep", PAPER_CFG, "--seeds", str(seeds)],
                                      f"sweep paper.cfg --seeds {seeds}")]


def certify_lines() -> list[str]:
    return _stdout_lines(["certify", LINEAR_CFG], "certify linear.cfg")


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report_fields(rep) -> str:
    return (f"max_ratio={rep.max_ratio.hex()} samples={rep.samples} "
            f"final_error_norm={rep.final_error_norm.hex()}")


def bound_lines() -> list[str]:
    workloads = _bench_workloads()
    lines = []
    for name in ("bound-dt", "bound-ct"):
        wl = workloads.WORKLOADS[name](ROOT, None, workloads.DEFAULT_SEED)
        wl.setup()
        for i in range(DRAWS):
            lines.append(f"{name} draw {i} {_report_fields(wl.run(wl.prepare(i, 'digest')))}")
    return lines


# the initial error of each bound workload's op (see their run methods)
BOUND_E0 = {"bound-dt": 0.3, "bound-ct": 0.05}


def _swept_from_one(dt_wl):
    """The certificate of the bound-dt system from P0 = 1 that
    sweep_candidates finds at the bound-dt certificate's alpha."""
    dt = dt_wl.cert
    return sweep_candidates(dt_wl.sys, dt.params, dt.mu, dt.alpha, P0=[[1.0]])


def moving_bound_lines() -> list[str]:
    workloads = _bench_workloads()
    wl = workloads.WORKLOADS["bound-dt"](ROOT, None, workloads.DEFAULT_SEED)
    wl.setup()
    cert = _swept_from_one(wl)
    cand = CertificateCandidate(W=cert.W, U=cert.U, alpha=cert.alpha, Gamma2=cert.Gamma2,
                                P0=cert.P0)
    d = wl.prepare(0, "digest")
    rep = bound_trajectory_check(wl.sys, cand, cert, lambda k: np.array([d[k]]),
                                 horizon=wl.steps_per_op, e0=np.array([BOUND_E0["bound-dt"]]))
    return [f"bound-dt P0=1 draw 0 {_report_fields(rep)}"]


def envelope_inputs():
    """(name, certificate, V0, samples) of each bound workload's op."""
    workloads = _bench_workloads()
    for name, e0 in BOUND_E0.items():
        wl = workloads.WORKLOADS[name](ROOT, None, workloads.DEFAULT_SEED)
        wl.setup()
        steps = range(wl.steps_per_op + 1)
        samples = list(steps) if wl.cert.mode == "discrete" else [i * wl.dt for i in steps]
        yield name, wl.cert, wl.cert.initial_v(np.array([e0])), samples


def hex_sha256(values) -> str:
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()


def envelope_lines() -> list[str]:
    # the public scalar call, which every checkout has
    return [f"{name} envelope V0={V0.hex()} samples={len(samples)} "
            f"sha256={hex_sha256(cert.transient_bound(t, V0) for t in samples)}"
            for name, cert, V0, samples in envelope_inputs()]


def certificates():
    """(label, certificate) of the four certificates of certificate_lines."""
    workloads = _bench_workloads()
    dt_wl, ct_wl = (workloads.WORKLOADS[name](ROOT, None, workloads.DEFAULT_SEED)
                    for name in ("bound-dt", "bound-ct"))
    dt_wl.setup()
    ct_wl.setup()
    dt, ct = dt_wl.cert, ct_wl.cert
    yield "linear.cfg P0=fixed_point", dt
    yield "linear.cfg P0=1", _swept_from_one(dt_wl)
    yield "bound-ct P0=0.01", ct
    yield "bound-ct P0=0", certify(ct_wl.sys, dataclasses.replace(ct_wl.cand, P0=[[0.0]]),
                                   ct.params, ct.mu)


def _bytes_sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def certificate_lines() -> list[str]:
    return [f"certificate {label} c1={cert.c1.hex()} c3={cert.c3.hex()} "
            f"rho={cert.rho.hex()} asymptotic_bound={cert.asymptotic_bound.hex()} "
            f"checkpoints={len(cert.checkpoints)} "
            f"sha256={hex_sha256(v for point in cert.checkpoints for v in point)} "
            f"c2_times={_bytes_sha256(cert._c2_times)} c2_lmax={_bytes_sha256(cert._c2_lmax)}"
            for label, cert in certificates()]


def ct_endpoint_lines() -> list[str]:
    A = np.array([[-0.5, 0.2, 0.0], [0.0, -0.3, 0.1], [0.1, 0.0, -0.4]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    model = NonlinearModel(
        f=lambda x, u: A @ x, h=lambda x: C @ x,
        Q=[[0.02, 0.005, 0.0], [0.005, 0.03, 0.0], [0.0, 0.0, 0.01]], R=np.diag([0.5, 0.3]),
        n=3, p=2, jac_f=lambda x, u: A, jac_h=lambda x: C)
    params = BoundParams(lambda1=[-0.8, -0.8], lambda2=[-1.5, -1.5], gamma1=[0.6, 0.6],
                         gamma2=[0.9, 0.9], sigma0=[0.04, 0.04], epsilon0=[0.3, 0.3],
                         mode="ct")
    st = FilterState(np.zeros(3), np.diag([0.2, 0.1, 0.3]),
                     sat=SaturationState([0.04, 0.04], [0.3, 0.3]))

    def y_of(t):
        outlier = 3.0 if 0.8 <= t < 1.2 else 0.0
        return np.array([math.exp(-0.5 * t) + outlier, 0.5 * math.exp(-0.3 * t)])

    end = ct_isekf_integrate(model, st, y_of, 1e-3, 2.0, params)[-1]
    return [f"ct_isekf_integrate 3-state {name}=[{' '.join(float(v).hex() for v in vals)}]"
            for name, vals in (("x", end.x_hat), ("P", end.P.ravel()),
                               ("sigma", end.sat.sigma), ("epsilon", end.sat.epsilon))]


def dare_systems():
    """The discrete systems of dare_lines, DARE_DRAWS per (n, p) of
    DARE_DIMS in order: A uniform in +-1 scaled to a spectral radius uniform
    in [0.2, 1.5], C uniform in +-1, Q = F F^T + 0.1 I and R = G G^T + 0.1 I
    with F and G uniform in +-1, D = I.  Q > 0 makes each stabilizable."""
    rng = np.random.default_rng(DARE_SEED)
    for n, p in DARE_DIMS:
        for _ in range(DARE_DRAWS):
            A = rng.uniform(-1.0, 1.0, (n, n))
            A *= rng.uniform(0.2, 1.5) / np.abs(np.linalg.eigvals(A)).max()
            C = rng.uniform(-1.0, 1.0, (p, n))
            F = rng.uniform(-1.0, 1.0, (n, n))
            G = rng.uniform(-1.0, 1.0, (p, p))
            yield LinearSystem(A=A, C=C, Q=F @ F.T + 0.1 * np.eye(n), R=G @ G.T + 0.1 * np.eye(p),
                               D=np.eye(p), mode="discrete")


def dare_lines() -> list[str]:
    lines = []
    for (n, p), group in itertools.groupby(dare_systems(), key=lambda s: (s.n, s.p)):
        fixed, residuals = hashlib.sha256(), hashlib.sha256()
        for system in group:
            P = solve_dare(system)
            fixed.update(P.tobytes())
            residuals.update(np.array(gain_identity_residuals(system.C, system.R, P)).tobytes())
        lines.append(f"solve_dare n={n} p={p} draws={DARE_DRAWS} sha256={fixed.hexdigest()} "
                     f"gain_identity_residuals sha256={residuals.hexdigest()}")
    return lines


def _decades(rng, lo: float, hi: float, size) -> np.ndarray:
    """10**u with u uniform in [lo, hi]: values spread evenly over decades."""
    return 10.0 ** rng.uniform(lo, hi, size)


def bound_map_inputs():
    """(p, dt params, ct params, states, innovations) of bound_map_lines for
    each p of BOUND_MAP_CHANNELS: lambdas uniform in [0.01, 0.99] (negated
    in ct mode, in [-100, -0.01]), gammas in [1e-3, 1e3], sigma0, epsilon0
    and BOUND_MAP_STEPS states (sigma, eps) in [1e-12, 1e12], and
    BOUND_MAP_STEPS innovations of random sign with magnitudes in
    [1e-6, 1e6], all spread over decades."""
    rng = np.random.default_rng(BOUND_MAP_SEED)
    for p in BOUND_MAP_CHANNELS:
        lam_dt = rng.uniform(0.01, 0.99, (2, p))
        lam_ct = -_decades(rng, -2.0, 2.0, (2, p))
        gam = _decades(rng, -3.0, 3.0, (2, p))
        start = _decades(rng, -12.0, 12.0, (2, p))
        dt, ct = (BoundParams(*lam, *gam, *start, mode=mode)
                  for lam, mode in ((lam_dt, "dt"), (lam_ct, "ct")))
        states = _decades(rng, -12.0, 12.0, (BOUND_MAP_STEPS, 2, p))
        innovs = rng.choice([-1.0, 1.0], (BOUND_MAP_STEPS, p)) * _decades(
            rng, -6.0, 6.0, (BOUND_MAP_STEPS, p))
        yield p, dt, ct, states, innovs


def bound_map_lines() -> list[str]:
    lines = []
    for p, dt, ct, states, innovs in bound_map_inputs():
        stepped, rates = hashlib.sha256(), hashlib.sha256()
        sat = dt.initial_state()
        for (sigma, eps), innov in zip(states, innovs, strict=True):
            sat = bound_step_dt(sat, innov, dt)
            stepped.update(sat.sigma.tobytes() + sat.epsilon.tobytes())
            for rate in bound_rhs_ct(SaturationState(sigma, eps), innov, ct):
                rates.update(rate.tobytes())
        lines.append(f"bound map p={p} steps={BOUND_MAP_STEPS} "
                     f"bound_step_dt sha256={stepped.hexdigest()} "
                     f"bound_rhs_ct sha256={rates.hexdigest()}")
    return lines


def bound_edge_inputs():
    """(p, dt params, ct params, states, innovations) of bound_edge_lines:
    those of bound_map_inputs, with BOUND_MAP_STEPS states whose sigma is
    spread over the decades of [1e-12, 1e12] and whose epsilon is, a
    quarter each, 0, 5e-324, uniform in [700, 750] and spread over the
    decades of [1e12, 1.7e308]."""
    rng = np.random.default_rng(BOUND_EDGE_SEED)
    quarter = BOUND_MAP_STEPS // 4
    for p, dt, ct, _, innovs in bound_map_inputs():
        eps = np.concatenate((np.zeros((quarter, p)), np.full((quarter, p), 5e-324),
                              rng.uniform(700.0, 750.0, (quarter, p)),
                              _decades(rng, 12.0, math.log10(1.7e308), (quarter, p))))
        sigma = _decades(rng, -12.0, 12.0, (BOUND_MAP_STEPS, p))
        yield p, dt, ct, np.stack((sigma, eps), axis=1), innovs


def bound_edge_lines() -> list[str]:
    lines = []
    for p, dt, ct, states, innovs in bound_edge_inputs():
        stepped, rates = hashlib.sha256(), hashlib.sha256()
        for (sigma, eps), innov in zip(states, innovs, strict=True):
            sat = SaturationState(sigma, eps)
            out = bound_step_dt(sat, innov, dt)
            stepped.update(out.sigma.tobytes() + out.epsilon.tobytes())
            try:
                for rate in bound_rhs_ct(sat, innov, ct):
                    rates.update(rate.tobytes())
            except NumericalFailure as exc:  # |lambda2| eps past the float limit
                rates.update(str(exc).encode())
        lines.append(f"bound map edges p={p} states={BOUND_MAP_STEPS} "
                     f"bound_step_dt sha256={stepped.hexdigest()} "
                     f"bound_rhs_ct sha256={rates.hexdigest()}")
    return lines


SECTIONS = (run_lines, spinning_lines, failing_lanes_lines, sweep_lines, certify_lines,
            bound_lines, moving_bound_lines, envelope_lines, certificate_lines, ct_endpoint_lines,
            dare_lines, bound_map_lines, bound_edge_lines)


def main() -> int:
    for section in SECTIONS:
        for line in section():
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
