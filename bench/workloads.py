"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, runs one op
through the package's public entry points, and checks the op's output.
The protocol is:

    setup()              work done once before the first op (config parse,
                         certification); timed as set-up
    prepare(i, tag)      untimed: build the inputs of op i
    run(inputs)          timed: the op itself
    output(inputs, res)  untimed: the op's output in a comparable form
    check(i, out)        untimed: raise CheckFailed if the output is wrong

Reference values below were recorded at the commit that introduced the
benchmark; they are checked only on DEFAULT_SEED.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil

import numpy as np

from isekf import harness, stability
from isekf.saturation import BoundParams

DEFAULT_SEED = 1
REL_TOL = 1e-9
RATIO_TOL = 1e-9

SVG_NAMES = ["measurement_px.svg", "measurement_py.svg", "measurement_theta.svg",
             "state_px.svg", "state_py.svg", "state_theta.svg", "trajectory.svg"]
STATES = ("px", "py", "theta")

# robot-run, DEFAULT_SEED, op 0: full-horizon per-state RMSE of each filter
ROBOT_RUN_RMSE = {
    "is_ekf": [0.4438588873903524, 0.2385550861609294, 0.0341444735538007],
    "ekf": [16.0176463685642, 1.103117397416638, 0.3280495536404475],
    "lsigma_ekf": [0.6026386891953287, 0.7882252116462622, 0.09220881473694685],
}
# robot-sweep: stdout of `isekf sweep paper.cfg --seeds 20` (seeds fixed by the CLI)
ROBOT_SWEEP_STDOUT = (
    "aggregate over seeds 1..20:\n"
    "  is-ekf       rmse mean=[0.431773 0.174785 0.031586] max=[0.55434  0.233945 0.034846]"
    " divergent=0/20\n"
    "  ekf          rmse mean=[15.560485  1.297846  0.364259] max=[16.4313    1.768227  0.453967]"
    " divergent=20/20\n"
    "  lsigma-ekf   rmse mean=[0.639071 0.867393 0.098299] max=[0.901232 1.219064 0.115242]"
    " divergent=0/20\n"
)
# bound-dt / bound-ct, DEFAULT_SEED, op 0: final error norm
BOUND_DT_FINAL = 0.008098007664772656
BOUND_CT_FINAL = 0.013094943282563918


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(value: float, ref: float, what: str) -> None:
    _require(abs(value - ref) <= REL_TOL * abs(ref), f"{what}: {value!r} != recorded {ref!r}")


def _wrap_angle(theta):
    return np.pi - np.mod(np.pi - theta, 2.0 * np.pi)


class _Robot:
    """Shared set-up of the two robot workloads: paper.cfg through the CLI."""

    checkpoints = 0

    def __init__(self, root: str, workdir: str, seed: int):
        self.cfg_path = os.path.join(root, "paper.cfg")
        self.workdir = workdir
        self.seed = seed

    def setup(self) -> None:
        cfg = harness.parse_config(self.cfg_path)
        self.horizon = cfg.scenario.horizon
        self.steps_per_seed = cfg.scenario.horizon * len(cfg.scenario.filters)


class RobotRun(_Robot):
    """`isekf run paper.cfg --seed s --out dir`, one scenario seed per op."""

    name = "robot-run"

    def setup(self) -> None:
        super().setup()
        self.steps_per_op = self.steps_per_seed

    def prepare(self, i: int, tag: str):
        outdir = os.path.join(self.workdir, tag)
        shutil.rmtree(outdir, ignore_errors=True)
        return 1000 * self.seed + i, outdir

    def run(self, inputs):
        seed, outdir = inputs
        with contextlib.redirect_stdout(io.StringIO()):
            return harness.cli_main(["run", self.cfg_path, "--seed", str(seed), "--out", outdir])

    def output(self, inputs, rc):
        outdir = inputs[1]
        files = {}
        for name in ["trace.csv", "metrics.txt"] + SVG_NAMES:
            path = os.path.join(outdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        if "metrics.txt" in files:  # wall-clock lines differ from run to run
            files["metrics.txt"] = b"".join(line for line in files["metrics.txt"].splitlines(True)
                                            if b"wall clock" not in line)
        return rc, files

    def check(self, i: int, out) -> None:
        rc, files = out
        _require(rc == 0, f"exit code {rc}")
        missing = {"trace.csv", "metrics.txt", *SVG_NAMES} - set(files)
        _require(not missing, f"missing outputs {sorted(missing)}")
        lines = files["trace.csv"].decode().splitlines()
        _require(len(lines) == self.horizon + 2, f"trace.csv has {len(lines) - 1} rows")
        header = lines[0].split(",")
        data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        col = {name: j for j, name in enumerate(header)}
        truth = data[:, [col[f"truth_{s}"] for s in STATES]]
        _require(np.all(np.isfinite(data[:, [col[f"is_ekf_{s}"] for s in STATES]])),
                 "is-ekf estimate not finite")
        sections = re.split(r"^\[(.+)\]$", files["metrics.txt"].decode(), flags=re.M)
        report = dict(zip(sections[1::2], sections[2::2]))
        _require("(failed_at=None)" in report.get("is-ekf", ""), "is-ekf failed")
        if self.seed == DEFAULT_SEED and i == 0:
            for label, ref in ROBOT_RUN_RMSE.items():
                err = data[:, [col[f"{label}_{s}"] for s in STATES]] - truth
                err[:, 2] = _wrap_angle(err[:, 2])
                rmse = np.sqrt((err**2).mean(axis=0))
                for s, v, r in zip(STATES, rmse, ref):
                    _close(float(v), r, f"{label} rmse {s}")


class RobotSweep(_Robot):
    """`isekf sweep paper.cfg --seeds 20`; the CLI fixes the scenario
    seeds to 1..20, so the workload seed does not change the inputs."""

    name = "robot-sweep"
    seeds = 20

    def setup(self) -> None:
        super().setup()
        self.steps_per_op = self.seeds * self.steps_per_seed

    def prepare(self, i: int, tag: str):
        return None

    def run(self, inputs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = harness.cli_main(["sweep", self.cfg_path, "--seeds", str(self.seeds)])
        return rc, buf.getvalue()

    def output(self, inputs, result):
        return result

    def check(self, i: int, out) -> None:
        rc, text = out
        _require(rc == 0, f"exit code {rc}")
        _require(text == ROBOT_SWEEP_STDOUT, f"sweep aggregate differs from recorded:\n{text}")


class _Bound:
    """One bound_trajectory_check draw per op against a certified observer."""

    def output(self, inputs, rep):
        return rep.max_ratio, rep.samples, rep.final_error_norm

    def check(self, i: int, out) -> None:
        max_ratio, samples, final = out
        _require(max_ratio <= 1.0 + RATIO_TOL, f"max_ratio {max_ratio!r} above 1")
        _require(samples == self.steps_per_op + 1, f"{samples} samples")
        if self.seed == DEFAULT_SEED and i == 0:
            _close(final, self.reference_final, "final_error_norm")


class BoundDT(_Bound):
    """linear.cfg (the discrete system of acceptance criterion 5):
    2000 recursion steps, disturbance uniform in [-mu, mu], e0 = 0.3."""

    name = "bound-dt"
    steps_per_op = 2000
    reference_final = BOUND_DT_FINAL

    def __init__(self, root: str, workdir: str, seed: int):
        self.cfg_path = os.path.join(root, "linear.cfg")
        self.seed = seed

    def setup(self) -> None:
        cert = harness.certify_from_config(self.cfg_path)
        sysc = harness.load_yaml(self.cfg_path)["system"]
        self.sys = stability.LinearSystem(**sysc)
        self.cand = stability.CertificateCandidate(W=cert.W, U=cert.U, alpha=cert.alpha,
                                                   Gamma2=cert.Gamma2, P0=cert.P0)
        self.cert = cert
        self.checkpoints = len(cert.checkpoints)

    def prepare(self, i: int, tag: str):
        rng = np.random.default_rng([self.seed, i])
        return rng.uniform(-self.cert.mu, self.cert.mu, self.steps_per_op + 1)

    def run(self, d):
        return stability.bound_trajectory_check(
            self.sys, self.cand, self.cert, lambda k: np.array([d[k]]),
            horizon=self.steps_per_op, e0=np.array([0.3]))


class BoundCT(_Bound):
    """The continuous scalar observer of acceptance criterion 5 (A = -1,
    P0 = 0.01, mu = 0.3): RK4 at dt = 1e-3 over 4.0 s, disturbance held
    constant for each 0.05 s."""

    name = "bound-ct"
    dt = 1e-3
    horizon = 4.0
    hold = 0.05
    steps_per_op = 4000
    reference_final = BOUND_CT_FINAL

    def __init__(self, root: str, workdir: str, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.sys = stability.LinearSystem(A=[[-1.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]],
                                          D=[[1.0]], mode="continuous")
        params = BoundParams(lambda1=[-1.0], lambda2=[-1.0], gamma1=[0.1], gamma2=[1.0],
                             sigma0=[0.5], epsilon0=[0.5], mode="ct")
        self.cand = stability.CertificateCandidate(W=[[1.0]], U=[[2.0]], alpha=0.5,
                                                   Gamma2=[[1.0]], P0=[[0.01]])
        self.cert = stability.certify(self.sys, self.cand, params, mu=0.3)
        self.checkpoints = len(self.cert.checkpoints)

    def prepare(self, i: int, tag: str):
        rng = np.random.default_rng([self.seed, i])
        return rng.uniform(-self.cert.mu, self.cert.mu, int(round(self.horizon / self.hold)))

    def run(self, hold):
        last = len(hold) - 1
        return stability.bound_trajectory_check(
            self.sys, self.cand, self.cert,
            lambda t: np.array([hold[min(int(t / self.hold), last)]]),
            horizon=self.horizon, e0=np.array([0.05]), dt=self.dt)


WORKLOADS = {w.name: w for w in (RobotRun, RobotSweep, BoundDT, BoundCT)}
