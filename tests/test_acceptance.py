"""Acceptance gate: ten numbered criteria, one test each.

Every test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) stating the measured quantity next to its pinned tolerance, and the
timed criteria assert their runtime budgets.  The sweeps are seeded, so
reruns are bit-reproducible.
"""

import math
import time

import numpy as np
import pytest

from bergersphere.cutprofile import t_cut, t_cut_derivative
from bergersphere.diameter import diameter_closed_form, diameter_numeric
from bergersphere.geodesic import (
    conjugate_time_numeric,
    exp_map,
    initial_momentum,
    shorter_path_search,
)
from bergersphere.model import BergerMetric, momentum_norm
from bergersphere.roots import tau3, tau3_derivative, tau_conj

TWO_PI = 2.0 * math.pi


def _report(number: int, label: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:2d}] {status}  {label}: {detail}")


def _sweep_metrics(count: int = 300) -> "list[BergerMetric]":
    rng = np.random.default_rng(20260814)
    ratios = 10.0 ** rng.uniform(-3.0, 3.0, size=count)
    scales = 10.0 ** rng.uniform(-1.0, 1.0, size=count)
    return [BergerMetric(float(r * s), float(s)) for r, s in zip(ratios, scales)]


def test_criterion_01_closed_form_spot_values():
    cases = [(1.0, 1.0, TWO_PI), (1.0, 2.0, TWO_PI), (2.0, 1.0, TWO_PI),
             (3.0, 1.0, 3.0 * math.pi / math.sqrt(2.0))]
    worst = max(abs(diameter_closed_form(BergerMetric(i1, i3)) - want)
                for i1, i3, want in cases)
    passed = worst <= 1e-12
    _report(1, "closed-form diameter values", passed,
            f"max abs deviation {worst:.3e} (tol 1e-12)")
    assert passed


def test_criterion_02_oracle_agreement_sweep():
    start = time.perf_counter()
    worst = 0.0
    for m in _sweep_metrics():
        closed = diameter_closed_form(m)
        numeric, _ = diameter_numeric(m)
        worst = max(worst, abs(numeric - closed) / closed)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-8 and elapsed < 10.0
    _report(2, "numeric vs closed form, 300 metrics", passed,
            f"max rel gap {worst:.3e} (tol 1e-8), {elapsed:.2f}s (budget 10s)")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_03_branch_boundary_continuity():
    worst = 0.0
    for i3 in (0.1, 1.0, 10.0):
        for i1 in (i3, 2.0 * i3):
            mid = diameter_closed_form(BergerMetric(i1, i3))
            for sgn in (-1.0, 1.0):
                shifted = diameter_closed_form(BergerMetric(i1 * (1.0 + sgn * 1e-9), i3))
                worst = max(worst, abs(shifted - mid))
    passed = worst < 1e-6
    _report(3, "continuity at branch boundaries", passed,
            f"max jump {worst:.3e} (tol 1e-6)")
    assert passed


def test_criterion_04_diameter_bounds_sweep():
    violations = 0
    for m in _sweep_metrics():
        d = diameter_closed_form(m)
        if not math.pi * math.sqrt(m.i1) <= d <= TWO_PI * math.sqrt(m.i1):
            violations += 1
    passed = violations == 0
    _report(4, "pi*sqrt(i1) <= diameter <= 2*pi*sqrt(i1)", passed,
            f"{violations} violations over 300 metrics (exact inequalities)")
    assert passed


def test_criterion_05_tau3_spot_values():
    worst = max(
        abs(tau3(1.0, 1.0) - math.pi / 2),
        abs(tau3(0.5, 1.0) - 2.0 * math.pi / 3),
        max(abs(tau3(eta, 1.0 / eta) - math.pi / 2) for eta in (1.5, 2.0, 5.0, 20.0)),
    )
    passed = worst <= 1e-11
    _report(5, "tau3 spot values", passed, f"max abs deviation {worst:.3e} (tol 1e-11)")
    assert passed


def test_criterion_06_tau3_structural_properties():
    start = time.perf_counter()
    etas = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
    pbs = [(k + 1) / 400 for k in range(400)]
    worst_even = 0.0
    worst_residual = 0.0
    monotone = separated = ranged = True
    for eta in etas:
        prev = tau3(eta, 0.0)
        for pb in pbs:
            t3 = tau3(eta, pb)
            worst_even = max(worst_even, abs(t3 - tau3(eta, -pb)))
            monotone = monotone and t3 < prev
            prev = t3
            tc = tau_conj(eta, pb)
            separated = separated and t3 < tc
            ranged = ranged and math.pi / 2 < tc <= math.pi
            w = eta * pb
            worst_residual = max(worst_residual, abs(
                math.cos(t3) * math.sin(w * t3) + pb * math.sin(t3) * math.cos(w * t3)))
    elapsed = time.perf_counter() - start
    passed = (worst_even <= 1e-11 and worst_residual < 1e-11
              and monotone and separated and ranged and elapsed < 5.0)
    _report(6, "tau3/tau_conj structure on 6x400 grids", passed,
            f"evenness {worst_even:.2e}, residual {worst_residual:.2e} (tol 1e-11), "
            f"monotone={monotone}, separated={separated}, range={ranged}, "
            f"{elapsed:.2f}s (budget 5s)")
    assert worst_even <= 1e-11 and worst_residual < 1e-11
    assert monotone and separated and ranged
    assert elapsed < 5.0


def test_criterion_07_derivative_formulas():
    h = 1e-6
    worst_tau3 = 0.0
    for eta in (0.5, 1.0, 2.0, 5.0):
        for k in range(40):
            pb = 0.06 + (0.99 - 0.06) * k / 39
            fd = (tau3(eta, pb + h) - tau3(eta, pb - h)) / (2.0 * h)
            worst_tau3 = max(worst_tau3, abs(tau3_derivative(eta, pb) - fd) / abs(fd))

    worst_tcut = 0.0
    signs_ok = True
    for eta in (2.0, 5.0):
        m = BergerMetric(1.0 + eta, 1.0)
        split = 1.0 / eta
        for k in range(40):
            pb = 0.06 + (0.99 - 0.06) * k / 39
            d = t_cut_derivative(m, pb)
            if abs(pb - split) > 0.05:
                fd = (t_cut(m, pb + h) - t_cut(m, pb - h)) / (2.0 * h)
                worst_tcut = max(worst_tcut, abs(d - fd) / abs(fd))
                signs_ok = signs_ok and ((d > 0.0) if pb < split else (d < 0.0))
        signs_ok = signs_ok and t_cut_derivative(m, 1.0) < 0.0
    passed = worst_tau3 < 1e-5 and worst_tcut < 1e-5 and signs_ok
    _report(7, "derivative formulas vs finite differences", passed,
            f"tau3 rel dev {worst_tau3:.3e}, t_cut rel dev {worst_tcut:.3e} (tol 1e-5), "
            f"sign pattern ok={signs_ok}")
    assert passed


def test_criterion_08_round_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in (0.5, 1.0, 4.0):
        m = BergerMetric(i, i)
        t = TWO_PI * math.sqrt(i)
        for _ in range(20):
            p0 = initial_momentum(m, rng.uniform(-1.0, 1.0), rng.uniform(0.0, TWO_PI))
            q = exp_map(m, p0, t, t / 4000.0)
            worst = max(worst, abs(q.w + 1.0), abs(q.x), abs(q.y), abs(q.z))
    elapsed = time.perf_counter() - start
    passed = worst < 1e-7 and elapsed < 5.0
    _report(8, "round metrics reach -identity at 2*pi*sqrt(I)", passed,
            f"max deviation {worst:.3e} (tol 1e-7), {elapsed:.2f}s (budget 5s)")
    assert worst < 1e-7
    assert elapsed < 5.0


def test_criterion_09_conjugate_time_agreement():
    start = time.perf_counter()
    worst = 0.0
    for eta in (0.5, 1.0, 2.0, 5.0):
        m = BergerMetric(1.0, 1.0 / (1.0 + eta))
        for pb in (0.0, 0.3, 0.6, 0.9):
            norm = momentum_norm(m, pb)
            expected = 2.0 * m.i1 * tau_conj(eta, pb) / norm
            horizon = 1.02 * 2.0 * m.i1 * math.pi / norm
            got = conjugate_time_numeric(m, pb, horizon)
            worst = max(worst, abs(got - expected) / expected)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-3 and elapsed < 60.0
    _report(9, "numeric conjugate times on the 16-point grid", passed,
            f"max rel deviation {worst:.3e} (tol 1e-3), {elapsed:.2f}s (budget 60s)")
    assert worst < 1e-3
    assert elapsed < 60.0


def test_criterion_10_cut_time_sandwich():
    start = time.perf_counter()
    failures = []
    for eta in (0.5, 1.0, 2.0, 5.0):
        m = BergerMetric(1.0 + eta, 1.0)
        for pb in (0.3, 0.6, 0.9):
            tc = t_cut(m, pb)
            p0 = initial_momentum(m, pb, 0.0)
            early = shorter_path_search(m, p0, 0.9 * tc)
            late = shorter_path_search(m, p0, 1.1 * tc)
            ok = (early is None and late is not None
                  and late.arrival_time < 1.1 * tc - 1e-4)
            if not ok:
                failures.append((eta, pb, early, None if late is None else late.arrival_time))
    elapsed = time.perf_counter() - start
    passed = not failures and elapsed < 120.0
    _report(10, "shorter-path sandwich around t_cut, 12 configs", passed,
            f"{len(failures)} failing configs, {elapsed:.2f}s (budget 120s)")
    assert not failures, failures
    assert elapsed < 120.0
