"""scripts/output_digest.py, the digest of the package's deterministic
outputs that a change is compared against its parent with."""

import hashlib
import importlib.util
import os

import numpy as np
import pytest

from isekf import stability
from isekf.harness import SWEEP_BATCH, cli_main, parse_config
from isekf.scenario import simulate
from test_scenario import _two_saturated_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _output_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", os.path.join(ROOT, "scripts", "output_digest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_certify_section_is_the_certify_stdout(capsys):
    lines = _output_digest().certify_lines()
    assert cli_main(["certify", os.path.join(ROOT, "linear.cfg")]) == 0
    stdout = capsys.readouterr().out
    assert lines == [f"certify linear.cfg | {line}" for line in stdout.splitlines()]
    assert len(lines) > 10


# the stdout of a sweep that runs as two batches (64 + 6 seeds), as the
# per-seed scoring printed it
SWEEP_70 = """\
aggregate over seeds 1..70:
  is-ekf       rmse mean=[0.429807 0.175525 0.032078] max=[0.55434  0.233945 0.036218] divergent=0/70
  ekf          rmse mean=[15.69909   1.209676  0.352974] max=[16.474408  1.885947  0.476958] divergent=70/70
  lsigma-ekf   rmse mean=[0.634837 0.827358 0.096325] max=[0.901232 1.290081 0.115242] divergent=0/70
"""


def test_the_sweep_section_digests_a_one_batch_and_a_two_batch_sweep():
    digest = _output_digest()
    assert digest.SWEEP_SEEDS[0] <= SWEEP_BATCH < digest.SWEEP_SEEDS[1] <= 2 * SWEEP_BATCH
    lines = digest.sweep_lines()
    assert [line.split(" | ")[0] for line in lines] == [
        f"sweep paper.cfg --seeds {seeds}" for seeds in digest.SWEEP_SEEDS for _ in range(4)]
    assert lines[4:] == [f"sweep paper.cfg --seeds 70 | {line}"
                         for line in SWEEP_70.splitlines()]


def test_the_moving_bound_section_draws_where_the_discrete_gain_moves():
    # every bound-dt draw starts at the fixed point, where the recursion is
    # stationary at its first step; from P0 = 1 it moves for some steps
    digest = _output_digest()
    workloads = digest._bench_workloads()
    wl = workloads.WORKLOADS["bound-dt"](ROOT, None, workloads.DEFAULT_SEED)
    wl.setup()
    cert = digest._swept_from_one(wl)
    assert cert.P0.tolist() == [[1.0]]
    assert len(list(stability._dare_steps(wl.sys, wl.cert.P0))) == 1
    gains = [K[0, 0] for _, _, K, _ in stability._dare_steps(wl.sys, cert.P0)]
    assert len(gains) > 5 and len(set(gains)) > 5
    (line,) = digest.moving_bound_lines()
    assert line.startswith("bound-dt P0=1 draw 0 max_ratio=0x")
    assert " samples=2001 final_error_norm=0x" in line


def test_the_envelope_section_digests_the_envelope_at_every_sample():
    # the section calls transient_bound per sample; the certificate's
    # envelope over all samples at once must give the same digest
    digest = _output_digest()
    lines = digest.envelope_lines()
    inputs = list(digest.envelope_inputs())
    assert [name for name, *_ in inputs] == ["bound-dt", "bound-ct"]
    assert [len(samples) for *_, samples in inputs] == [2001, 4001]
    for line, (name, cert, V0, samples) in zip(lines, inputs, strict=True):
        assert line == (f"{name} envelope V0={V0.hex()} samples={len(samples)} "
                        f"sha256={digest.hex_sha256(cert.envelope(samples, V0))}")


def test_the_certificate_section_digests_four_certificates():
    digest = _output_digest()
    certs = list(digest.certificates())
    assert [label for label, _ in certs] == ["linear.cfg P0=fixed_point", "linear.cfg P0=1",
                                             "bound-ct P0=0.01", "bound-ct P0=0"]
    assert [len(cert.checkpoints) for _, cert in certs] == [2, 9, 10, 9]
    swept = certs[1][1]
    assert (swept.W[0, 0], swept.U[0, 0], swept.alpha) == pytest.approx((0.1, 10**-0.5, 0.2))
    # the singular start is skipped: the sweep begins at the first sample
    assert certs[3][1].checkpoints[0][0] == certs[3][1]._c2_times[1] > 0.0
    lines = digest.certificate_lines()
    for line, (label, cert) in zip(lines, certs, strict=True):
        points = [v for point in cert.checkpoints for v in point]
        assert line.startswith(f"certificate {label} c1={cert.c1.hex()} c3={cert.c3.hex()} ")
        assert f" sha256={digest.hex_sha256(points)} " in line
        assert line.endswith(
            f" c2_times={hashlib.sha256(cert._c2_times.tobytes()).hexdigest()}"
            f" c2_lmax={hashlib.sha256(cert._c2_lmax.tobytes()).hexdigest()}")


def test_the_spinning_section_runs_a_heading_that_wraps(tmp_path):
    cfg = parse_config(_output_digest().write_spinning_cfg(str(tmp_path)))
    assert cfg.scenario.input_profile.delta_amp == 40.0
    heading = simulate(cfg.scenario, cfg.seed).truth[:, 2]
    assert np.abs(np.diff(heading)).max() > np.pi


def test_the_failing_lanes_section_runs_filters_that_fail_at_three_steps():
    # the two-saturated scenario of the scenario tests: paper.cfg runs fail no filter
    digest = _output_digest()
    tr = simulate(digest.failing_lanes_scenario(), 1)
    assert tr.failed_at == {"is-ekf-fast": 164, "is-ekf-slow": 193, "ekf": 1, "lsigma-ekf": None}
    with np.errstate(all="ignore"):
        ref = simulate(_two_saturated_config(), 1)
    for name in ("estimates", "sqrt_sigma", "failure"):
        got, want = getattr(tr, name), getattr(ref, name)
        assert got.keys() == want.keys()
        for label in want:
            np.testing.assert_array_equal(got[label], want[label], err_msg=f"{name} {label}")
    lines = digest.failing_lanes_lines()
    assert lines[0] == ("failing lanes seed=1 failed_at is-ekf-fast=164 is-ekf-slow=193 ekf=1 "
                        "lsigma-ekf=None")
    assert [line.rsplit(" ", 1)[0] for line in lines[1:]] == [
        "failing lanes seed=1 trace.csv", "failing lanes seed=1 metrics.txt"]


def test_the_dare_section_digests_every_shape_up_to_four_states_and_channels():
    digest = _output_digest()
    systems = list(digest.dare_systems())
    assert len(systems) == 320
    shapes = [(s.n, s.p) for s in systems]
    assert shapes == [(n, p) for n in range(1, 5) for p in range(1, 5) for _ in range(20)]
    assert all(s.mode == "discrete" and s.D.shape == (s.p, s.p) for s in systems)
    # the inputs are seeded: a second pass draws the same systems
    again = next(digest.dare_systems())
    assert all(np.array_equal(getattr(again, k), getattr(systems[0], k)) for k in "ACQRD")
    lines = digest.dare_lines()
    assert [line.split(" sha256=")[0] for line in lines] == [
        f"solve_dare n={n} p={p} draws=20" for n in range(1, 5) for p in range(1, 5)]


def test_the_bound_map_section_digests_seeded_maps_of_one_to_four_channels():
    digest = _output_digest()
    inputs = list(digest.bound_map_inputs())
    assert [p for p, *_ in inputs] == [1, 2, 3, 4]
    for p, dt, ct, states, innovs in inputs:
        assert (dt.mode, ct.mode, dt.p, ct.p) == ("dt", "ct", p, p)
        assert states.shape == (200, 2, p) and innovs.shape == (200, p)
        # the states and innovations span decades
        assert states.min() < 1e-9 and states.max() > 1e9
        assert np.abs(innovs).min() < 1e-3 and np.abs(innovs).max() > 1e3
    # the inputs are seeded: a second pass draws the same maps
    again = next(digest.bound_map_inputs())
    assert np.array_equal(again[1].lambda1, inputs[0][1].lambda1)
    assert np.array_equal(again[2].gamma2, inputs[0][2].gamma2)
    assert all(np.array_equal(a, b) for a, b in zip(again[3:], inputs[0][3:], strict=True))
    lines = digest.bound_map_lines()
    assert [line.split(" bound_step_dt sha256=")[0] for line in lines] == [
        f"bound map p={p} steps=200" for p in range(1, 5)]
    assert lines == digest.bound_map_lines()


def test_the_bound_edge_section_digests_states_at_the_edges_of_exp():
    # the states where the shaping term's old clamp on [0, 1e12] was active
    # or where exp(-eps) underflows
    digest = _output_digest()
    inputs = list(digest.bound_edge_inputs())
    assert [p for p, *_ in inputs] == [1, 2, 3, 4]
    for (p, dt, ct, states, innovs), (_, dt_map, ct_map, _, innovs_map) in zip(
            inputs, digest.bound_map_inputs(), strict=True):
        assert np.array_equal(dt.lam, dt_map.lam) and np.array_equal(ct.gam, ct_map.gam)
        assert np.array_equal(innovs, innovs_map)
        assert states.shape == (200, 2, p)
        sigma, eps = states[:, 0], states[:, 1]
        assert sigma.min() >= 1e-12 and sigma.max() <= 1e12
        assert (eps[:50] == 0.0).all() and not np.signbit(eps).any()
        assert (eps[50:100] == 5e-324).all()
        assert eps[100:150].min() >= 700.0 and eps[100:150].max() <= 750.0
        assert eps[150:].min() >= 1e12 and 1e300 < eps[150:].max() <= 1.7e308
    lines = digest.bound_edge_lines()
    assert [line.split(" bound_step_dt sha256=")[0] for line in lines] == [
        f"bound map edges p={p} states=200" for p in range(1, 5)]
    assert lines == digest.bound_edge_lines()
