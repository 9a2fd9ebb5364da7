"""Tests of the benchmark's own checks, reference values and tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench

Every check must pass on the package's real output and reject a
perturbed copy of it; a check that accepts a perturbation is vacuous.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bergersphere import cli, cutprofile, diameter, roots  # noqa: E402
from bergersphere.geodesic import GeodesicState, ShorterPath, UnitQuaternion  # noqa: E402
from bergersphere.model import BergerMetric, Momentum  # noqa: E402

from perfbench import reference as R  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.speed import NOMINAL_S, WINDOW, SpeedProbe  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    DiameterSweep,
    GeodesicOracles,
    ProfileCli,
    ProfileOp,
    check_diameter,
    check_geodesic,
    check_profile,
    parse_profile,
)


# ---------------------------------------------------------------- reference

def test_reference_diameter_spot_values():
    assert R.diameter(1.0, 2.0) == (R.TWO_PI, 0.0)
    assert R.diameter(2.0, 1.0) == (R.TWO_PI, 1.0)
    d, x = R.diameter(3.0, 1.0)
    assert d == pytest.approx(3.0 * math.pi / math.sqrt(2.0), rel=1e-15)
    assert x == 0.5


def test_reference_roots_spot_values():
    # at pbar3 = 1 the cut equation is sin((1 + eta)*tau) = 0
    for eta in (0.5, 3.0, 200.0):
        assert R.tau3(eta, 1.0) == pytest.approx(math.pi / (1.0 + eta), rel=1e-14)
    # at pbar3 = 1/eta (eta >= 1) the first root is pi/2
    assert R.tau3(4.0, 0.25) == pytest.approx(0.5 * math.pi, rel=1e-14)
    assert R.tau_conj(2.0, 1.0) == math.pi
    assert R.tau3(2.0, 0.0) == R.tau_conj(2.0, 0.0)


def test_reference_flow_round_calibration_and_conservation():
    # the round metric reaches -identity at t = 2*pi*sqrt(I)
    q, _ = R.flow(2.0, 2.0, [0.6 * math.sqrt(2.0), 0.0, 0.8 * math.sqrt(2.0)], R.TWO_PI * math.sqrt(2.0))
    assert R.quaternion_distance(q, [-1.0, 0.0, 0.0, 0.0]) < 1e-14
    i1, i3, s = 4.0, 1.0, 0.3
    norm = R.momentum_norm(i1, i3, s)
    p0 = np.array([norm * math.sqrt(1 - s * s), 0.0, norm * s])
    q, p = R.flow(i1, i3, p0, 3.7)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-15
    assert R.hamiltonian(i1, i3, p) == pytest.approx(0.5, abs=1e-15)
    assert p[2] == p0[2]


# ---------------------------------------------------------------- diameter-sweep

@pytest.mark.parametrize("i1,i3", [(0.3, 1.0), (1.5, 1.0), (7.0, 2.0)])
def test_diameter_check_accepts_and_rejects(i1, i3):
    report = diameter.diameter_report(BergerMetric(i1, i3))
    assert check_diameter(i1, i3, report) == []
    for field in ("closed_form", "numeric"):
        off = dataclasses.replace(report, **{field: getattr(report, field) * (1.0 + 1e-6)})
        assert check_diameter(i1, i3, off), field
    moved = dataclasses.replace(report, maximizer_pbar3=report.maximizer_pbar3 + 1e-3)
    assert check_diameter(i1, i3, moved)


# ---------------------------------------------------------------- profile-cli

def _profile(tmp_path, i1, i3, n, fmt):
    path = tmp_path / f"p.{fmt}"
    assert cli.main(["--i1", repr(i1), "--i3", repr(i3), "profile", "-n", str(n),
                     "--format", fmt, "-o", str(path)]) == 0
    return parse_profile(path.read_text(), fmt, i1, i3)


def _second_root(eta, s):
    # first sign change of the cut function after its first root
    t1 = R.tau3(eta, s)
    grid = np.linspace(t1 * (1.0 + 1e-6), 2.0 * math.pi, 200001)
    vals = R.cut_function(eta, s, grid)
    k = int(np.argmax(vals >= 0.0))
    return R._bisect(lambda x: -float(R.cut_function(eta, s, x)), float(grid[k - 1]), float(grid[k]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("i1,i3", [(0.4, 1.0), (1.7, 1.0), (30.0, 0.5)])
def test_profile_check_accepts_real_output(tmp_path, fmt, i1, i3):
    assert check_profile(i1, i3, 41, _profile(tmp_path, i1, i3, 41, fmt)) == []


def test_profile_check_rejects_second_root(tmp_path):
    i1, i3 = 30.0, 0.5
    cols = _profile(tmp_path, i1, i3, 41, "csv")
    eta, k = i1 / i3 - 1.0, 30
    second = _second_root(eta, cols["pbar3"][k])
    assert abs(float(R.cut_function(eta, cols["pbar3"][k], second))) < 1e-12
    cols["tau3"][k] = second
    problems = check_profile(i1, i3, 41, cols)
    assert any("changes sign before" in p for p in problems), problems


@pytest.mark.parametrize("column,k,factor", [
    ("tau3", 30, 1.0 + 1e-9),      # no longer a root
    ("tau_conj", 12, 1.0 + 1e-9),  # no longer a root
    ("t_cut", 7, 1.0 + 1e-9),      # inconsistent with its columns and not even
    ("dt_cut", 35, -1.0),          # wrong sign
])
def test_profile_check_rejects_perturbed_cell(tmp_path, column, k, factor):
    cols = _profile(tmp_path, 30.0, 0.5, 41, "json")
    cols[column][k] *= factor
    assert check_profile(30.0, 0.5, 41, cols)


def test_profile_check_rejects_cut_time_above_diameter(tmp_path):
    cols = _profile(tmp_path, 0.4, 1.0, 41, "csv")
    cols["t_cut"] *= 1.0 + 1e-9
    assert any("exceeds the diameter" in p for p in check_profile(0.4, 1.0, 41, cols))


def test_profile_check_rejects_bytes_that_differ_between_renderings(tmp_path):
    workload = ProfileCli(tmp_path)
    op = ProfileOp(slot=0, i1=3.0, i3=1.0, n=21, fmt="csv")
    for _ in range(2):
        assert workload.check(op, workload.run(op)) == []
    path = workload.run(op)
    path.write_text(path.read_text().replace("\n", "\r\n"))
    assert any("bytes differ" in p for p in workload.check(op, path))


# ---------------------------------------------------------------- geodesic-oracles

@pytest.fixture(scope="module")
def geodesic_run():
    op = GeodesicOracles.make(3)[0]
    return op, GeodesicOracles(Path(".")).run(op)


def test_geodesic_check_accepts_real_output(geodesic_run):
    op, out = geodesic_run
    assert check_geodesic(op, *out) == []


def test_geodesic_check_rejects_shorter_path_missing_target(geodesic_run):
    op, (t_conj, early, late, state) = geodesic_run
    slow = ShorterPath(momentum=late.momentum, arrival_time=late.arrival_time + 1e-3)
    assert any("misses the target" in p for p in check_geodesic(op, t_conj, early, slow, state))
    p = late.momentum
    turned = ShorterPath(Momentum(p.p2, -p.p1, p.p3), late.arrival_time)
    assert any("misses the target" in p for p in check_geodesic(op, t_conj, early, turned, state))


def test_geodesic_check_rejects_wrong_oracles(geodesic_run):
    op, (t_conj, early, late, state) = geodesic_run
    assert check_geodesic(op, t_conj * (1.0 + 2e-3), early, late, state)
    assert check_geodesic(op, t_conj, late, late, state)
    assert check_geodesic(op, t_conj, early, None, state)
    q = state.q
    c, s = math.cos(1e-7), math.sin(1e-7)
    nudged = GeodesicState(UnitQuaternion(c * q.w - s * q.x, c * q.x + s * q.w, q.y, q.z),
                           state.p, state.t)
    assert check_geodesic(op, t_conj, early, late, nudged)
    p = state.p
    drifted = GeodesicState(state.q, Momentum(p.p1 * (1 + 1e-6), p.p2, p.p3), state.t)
    assert check_geodesic(op, t_conj, early, late, drifted)


# ---------------------------------------------------------------- workloads

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_seed(name):
    make = WORKLOADS[name].make
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_diameter_round_make_up():
    ops = DiameterSweep.make(5)
    ratios = [op.i1 / op.i3 for op in ops]
    assert len(ops) == 40
    assert sum(r <= 1.0 for r in ratios) == 10
    assert [op for op in ops if op.i1 / op.i3 >= 2e3] == list(DiameterSweep.FAILING)
    assert all(1e-3 <= r <= 1e3 for r in ratios if r < 2e3)


def test_geodesic_round_make_up():
    ops = GeodesicOracles.make(5)
    etas = [op.metric.i1 / op.metric.i3 - 1.0 for op in ops]
    assert len(ops) == 40
    assert all(0.2 <= e <= 1e3 * (1 + 1e-12) for e in etas)
    assert all(op.pbar3 >= 0.25 for op, e in zip(ops, etas) if e > 10.0)


def test_failing_slice_fails_with_the_named_fault():
    for op in DiameterSweep.FAILING:
        with pytest.raises(ValueError, match=r"tau must lie in \(0, pi\], got 0.0"):
            DiameterSweep(Path(".")).run(op)


# ---------------------------------------------------------------- tracer and runner

def test_tracer_counts_and_restores():
    original = roots.tau3
    tracer = Tracer()
    with tracer.installed():
        assert cutprofile.tau3 is not original
        with tracer.operation():
            cutprofile.sample_profile(BergerMetric(3.0, 1.0), 5)
    assert roots.tau3 is original and cutprofile.tau3 is original
    m = tracer.metrics()
    # 4 tau3 calls per row (t_cut, the column, t_cut_derivative and
    # tau3_derivative), 2 at pbar3 = 0, which has no derivative; 3 distinct |pbar3|
    assert m["roots.tau3.calls"][0] == 18
    assert m["roots.tau3.unique_share"][0] == pytest.approx(3 / 18)
    assert m["cutprofile.t_cut.calls"][0] == 5
    assert 0.0 < m["roots.self_share"][0] < 1.0
    assert m["diameter.diameter_numeric.ms"][0] == 0.0


def test_failed_operation_is_left_out_of_the_figures():
    tracer = Tracer()
    with tracer.installed():
        with pytest.raises(ValueError):
            with tracer.operation():
                diameter.diameter_report(BergerMetric(5.0e3, 1.0))
    assert tracer.ops_done == 0
    assert tracer.metrics()["cutprofile.t_cut.calls"][0] == 0.0


def test_speed_scale_is_the_nominal_time_over_the_nearby_mean():
    probe = SpeedProbe()
    probe.wall = [0.010] * (WINDOW + 1) + [0.020] * (3 * WINDOW)
    probe.cpu = [0.005] * len(probe.wall)
    assert probe.scale(0) == NOMINAL_S / 0.010
    assert probe.scale(len(probe.wall) - 1) == NOMINAL_S / 0.020
    assert probe.scale(0, cpu=True) == NOMINAL_S / 0.005
    # samples alternating between two speeds give their average, not one of them
    probe.wall = [0.004, 0.008] * (WINDOW + 1)
    near = probe.wall[:2 * WINDOW + 1]
    assert probe.scale(WINDOW) == pytest.approx(NOMINAL_S * len(near) / sum(near), rel=1e-12)
    assert 0.004 < NOMINAL_S / probe.scale(WINDOW) < 0.008
    k = probe.sample()
    assert k == len(probe.wall) - 1 and probe.wall[k] > 0.0 and probe.cpu[k] > 0.0


def test_run_refuses_to_start_without_the_package_source(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SRC", tmp_path)
    assert bench.main(["--workload", "diameter-sweep", "--seconds", "1"]) == 2


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.NAMES) == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(Tracer().metrics())
    units = {k: u for k, (_, u) in Tracer().metrics().items()}
    assert all(units[m["name"]] == m["unit"] for m in spec["per_layer"])
