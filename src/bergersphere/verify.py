"""Named self-check suites behind the ``verify`` CLI command.

The quick level exercises the algebraic machinery: root properties on
fixed shape-parameter grids plus profile and diameter invariants for the
requested metric.  The full level adds the geodesic oracles, which
integrate the flow and are therefore slower.  Every check reports a
stable kebab-case name so failures can be cited precisely.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cutprofile import _arc_length, t_cut, t_cut_derivative
from .diameter import diameter_closed_form, diameter_report
from .geodesic import (
    conjugate_time_numeric,
    conservation_drift,
    endpoint_state,
    exp_map,
    initial_momentum,
    shorter_path_search,
)
from .model import BergerMetric, classify_regime, momentum_norm
from .roots import tau3, tau3_derivative, tau_conj

__all__ = ["CheckResult", "run_checks", "QUICK_CHECKS", "FULL_CHECKS"]

_ETA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
_PB_GRID = tuple((k + 1) / 40 for k in range(40))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _metric_with_positive_eta(m: BergerMetric) -> BergerMetric:
    # geodesic and root checks need eta > 0; fall back to a fixed prolate one
    return m if m.eta() > 0.0 else BergerMetric(2.0, 1.0)


def _scaled(m: BergerMetric, factors: "tuple[float, ...]"):
    # (c, BergerMetric(c*i1, c*i3)) for each c that keeps both eigenvalues finite and normal
    for c in factors:
        i1, i3 = c * m.i1, c * m.i3
        if sys.float_info.min <= min(i1, i3) and max(i1, i3) < math.inf:
            yield c, BergerMetric(i1, i3)


def _check_eta_scale_invariance(m: BergerMetric) -> CheckResult:
    worst = 0.0
    for _, scaled in _scaled(m, (1e-3, 0.5, 2.0, 7.3, 1e3)):
        worst = max(worst, abs(scaled.eta() - m.eta()))
    return CheckResult("eta-scale-invariance", worst <= 1e-12 * (1.0 + abs(m.eta())),
                       f"max shift {worst:.3e}")


def _check_momentum_norm_bracket(m: BergerMetric) -> CheckResult:
    lo = math.sqrt(min(m.i1, m.i3)) * (1.0 - 1e-12)
    hi = math.sqrt(max(m.i1, m.i3)) * (1.0 + 1e-12)
    bad = [pb for pb in (-1.0, -0.6, -0.2, 0.0, 0.3, 0.8, 1.0)
           if not lo <= momentum_norm(m, pb) <= hi]
    return CheckResult("momentum-norm-bracket", not bad, f"{len(bad)} points outside")


def _check_regime_scale_invariance(m: BergerMetric) -> CheckResult:
    base = classify_regime(m)
    bad = [c for c, scaled in _scaled(m, (1e-3, 0.5, 2.0, 1e3))
           if classify_regime(scaled) is not base]
    return CheckResult("regime-scale-invariance", not bad, f"regime {base.value}")


def _check_tau3_evenness(m: BergerMetric) -> CheckResult:
    worst = 0.0
    for eta in _ETA_GRID:
        for pb in (0.2, 0.55, 0.9, 1.0):
            worst = max(worst, abs(tau3(eta, pb) - tau3(eta, -pb)))
    return CheckResult("tau3-evenness", worst <= 1e-11, f"max asymmetry {worst:.3e}")


def _check_tau3_monotone(m: BergerMetric) -> CheckResult:
    for eta in _ETA_GRID:
        prev = tau3(eta, 0.0)
        for pb in _PB_GRID:
            cur = tau3(eta, pb)
            if not cur < prev:
                return CheckResult("tau3-monotone-decreasing", False,
                                   f"not decreasing at eta={eta}, pbar3={pb}")
            prev = cur
    return CheckResult("tau3-monotone-decreasing", True,
                       f"{len(_ETA_GRID)}x{len(_PB_GRID)} grid strict")


def _check_tau3_below_tau_conj(m: BergerMetric) -> CheckResult:
    margin = math.inf
    for eta in _ETA_GRID:
        for pb in _PB_GRID:
            margin = min(margin, tau_conj(eta, pb) - tau3(eta, pb))
    return CheckResult("tau3-below-tau-conj", margin > 0.0, f"min margin {margin:.3e}")


def _check_tau_conj_range(m: BergerMetric) -> CheckResult:
    for eta in _ETA_GRID:
        for pb in (0.0,) + _PB_GRID:
            v = tau_conj(eta, pb)
            if not 0.5 * math.pi < v <= math.pi:
                return CheckResult("tau-conj-range", False, f"out of range at eta={eta}, pbar3={pb}")
        if tau_conj(eta, 1.0) != math.pi:
            return CheckResult("tau-conj-range", False, f"pbar3=1 not pi at eta={eta}")
    return CheckResult("tau-conj-range", True, "(pi/2, pi] on all grids, pi at the pole")


def _check_tau3_residual(m: BergerMetric) -> CheckResult:
    worst = 0.0
    for eta in _ETA_GRID:
        for pb in _PB_GRID:
            t = tau3(eta, pb)
            w = eta * pb
            res = abs(math.cos(t) * math.sin(w * t) + pb * math.sin(t) * math.cos(w * t))
            worst = max(worst, res)
    return CheckResult("tau3-equation-residual", worst < 1e-11, f"max residual {worst:.3e}")


def _check_tau3_derivative_fd(m: BergerMetric) -> CheckResult:
    h = 1e-6
    worst = 0.0
    for eta in (0.5, 2.0, 5.0):
        for pb in (0.3, 0.7):
            fd = (tau3(eta, pb + h) - tau3(eta, pb - h)) / (2.0 * h)
            cf = tau3_derivative(eta, pb)
            worst = max(worst, abs(cf - fd) / abs(fd))
    return CheckResult("tau3-derivative-fd", worst < 1e-4, f"max rel dev {worst:.3e}")


def _check_tcut_evenness(m: BergerMetric) -> CheckResult:
    scale = 2.0 * math.pi * math.sqrt(m.i1)
    worst = max(abs(t_cut(m, pb) - t_cut(m, -pb)) for pb in (0.25, 0.5, 0.75, 1.0))
    return CheckResult("tcut-evenness", worst <= 1e-11 * scale, f"max asymmetry {worst:.3e}")


def _check_tcut_branch_continuity(m: BergerMetric) -> CheckResult:
    eps = 1e-9
    worst = 0.0
    for pb in (0.0, 0.3, 0.6, 0.9, 1.0):
        below = t_cut(BergerMetric(1.0 - eps, 1.0), pb)
        above = t_cut(BergerMetric(1.0 + eps, 1.0), pb)
        worst = max(worst, abs(above - below))
    return CheckResult("tcut-branch-continuity", worst < 1e-6,
                       f"max jump {worst:.3e} across eta=0")


def _check_tcut_derivative_sign(m: BergerMetric) -> CheckResult:
    mm = _metric_with_positive_eta(m)
    eta = mm.eta()
    split = min(1.0, 1.0 / eta)
    for pb in _PB_GRID:
        d = t_cut_derivative(mm, pb)
        want_positive = pb < split - 1e-9
        if want_positive and d <= 0.0:
            return CheckResult("tcut-derivative-sign", False, f"not rising at pbar3={pb}")
        if pb > split + 1e-9 and d >= 0.0:
            return CheckResult("tcut-derivative-sign", False, f"not falling at pbar3={pb}")
    return CheckResult("tcut-derivative-sign", True,
                       f"rises below {split:.4g}, falls above (eta={eta:.4g})")


def _check_tcut_below_conjugate(m: BergerMetric) -> CheckResult:
    mm = _metric_with_positive_eta(m)
    eta = mm.eta()
    margin = min(_arc_length(mm, eta, pb, tau_conj(eta, pb)) - t_cut(mm, pb)
                 for pb in _PB_GRID)
    return CheckResult("tcut-below-conjugate-time", margin > 0.0, f"min margin {margin:.3e}")


def _check_diameter_agreement(m: BergerMetric) -> CheckResult:
    rep = diameter_report(m)
    ok = rep.abs_gap <= 1e-8 * rep.closed_form
    return CheckResult("diameter-oracle-agreement", ok,
                       f"gap {rep.abs_gap:.3e} vs closed {rep.closed_form:.12g}")


def _check_diameter_bounds(m: BergerMetric) -> CheckResult:
    d = diameter_closed_form(m)
    lo = math.pi * math.sqrt(m.i1)
    hi = 2.0 * math.pi * math.sqrt(m.i1)
    return CheckResult("diameter-bounds", lo <= d <= hi,
                       f"{lo:.6g} <= {d:.6g} <= {hi:.6g}")


def _check_diameter_scale_covariance(m: BergerMetric) -> CheckResult:
    base = diameter_closed_form(m)
    worst = 0.0
    for c, scaled_metric in _scaled(m, (0.25, 4.0, 100.0)):
        scaled = diameter_closed_form(scaled_metric)
        worst = max(worst, abs(scaled - math.sqrt(c) * base) / scaled)
    return CheckResult("diameter-scale-covariance", worst <= 1e-12, f"max rel dev {worst:.3e}")


def _check_diameter_boundary_continuity(m: BergerMetric) -> CheckResult:
    worst = 0.0
    for i3 in (0.1, 1.0, 10.0):
        for boundary in (i3, 2.0 * i3):
            mid = diameter_closed_form(BergerMetric(boundary, i3))
            for sgn in (-1.0, 1.0):
                d = diameter_closed_form(BergerMetric(boundary * (1.0 + sgn * 1e-9), i3))
                worst = max(worst, abs(d - mid))
    return CheckResult("diameter-boundary-continuity", worst < 1e-6, f"max jump {worst:.3e}")


def _check_round_calibration(m: BergerMetric) -> CheckResult:
    worst = 0.0
    for i in (1.0, math.sqrt(m.i1) * math.sqrt(m.i3)):
        metric = BergerMetric(i, i)
        t = 2.0 * math.pi * math.sqrt(i)
        for pb, phi in ((0.0, 0.4), (0.7, 2.1), (1.0, 0.0)):
            q = exp_map(metric, initial_momentum(metric, pb, phi), t, t / 4000.0)
            worst = max(worst, abs(q.w + 1.0), abs(q.x), abs(q.y), abs(q.z))
    return CheckResult("geodesic-round-calibration", worst < 1e-7,
                       f"max deviation from -identity {worst:.3e}")


def _check_conservation(m: BergerMetric) -> CheckResult:
    p0 = initial_momentum(m, 0.6, 0.8)
    t = 3.0 * t_cut(m, 0.6)
    state = endpoint_state(m, p0, t, t / 1e4)
    drift = max(conservation_drift(m, p0, state.p).values())
    return CheckResult("geodesic-conservation", drift < 1e-9, f"max rel drift {drift:.3e}")


def _check_conjugate_agreement(m: BergerMetric) -> CheckResult:
    mm = _metric_with_positive_eta(m)
    eta = mm.eta()
    worst = 0.0
    for pb in (0.0, 0.5):
        expected = _arc_length(mm, eta, pb, tau_conj(eta, pb))
        got = conjugate_time_numeric(mm, pb, 1.02 * _arc_length(mm, eta, pb, math.pi))
        worst = max(worst, abs(got - expected) / expected)
    return CheckResult("geodesic-conjugate-agreement", worst < 1e-3, f"max rel dev {worst:.3e}")


def _check_cut_sandwich(m: BergerMetric) -> CheckResult:
    mm = _metric_with_positive_eta(m)
    pb = 0.6
    tc = t_cut(mm, pb)
    p0 = initial_momentum(mm, pb, 0.0)
    early = shorter_path_search(mm, p0, 0.9 * tc, attempts=10)
    late = shorter_path_search(mm, p0, 1.1 * tc, attempts=10)
    ok = early is None and late is not None and late.arrival_time < 1.1 * tc - 1e-4
    detail = (
        f"0.9*t_cut: {'empty' if early is None else 'hit'}; "
        f"1.1*t_cut: {'empty' if late is None else f'arrival {late.arrival_time:.6g}'}"
    )
    return CheckResult("geodesic-cut-sandwich", ok, detail)


QUICK_CHECKS = (
    _check_eta_scale_invariance,
    _check_momentum_norm_bracket,
    _check_regime_scale_invariance,
    _check_tau3_evenness,
    _check_tau3_monotone,
    _check_tau3_below_tau_conj,
    _check_tau_conj_range,
    _check_tau3_residual,
    _check_tau3_derivative_fd,
    _check_tcut_evenness,
    _check_tcut_branch_continuity,
    _check_tcut_derivative_sign,
    _check_tcut_below_conjugate,
    _check_diameter_agreement,
    _check_diameter_bounds,
    _check_diameter_scale_covariance,
    _check_diameter_boundary_continuity,
)

FULL_CHECKS = QUICK_CHECKS + (
    _check_round_calibration,
    _check_conservation,
    _check_conjugate_agreement,
    _check_cut_sandwich,
)


def run_checks(m: BergerMetric, level: str = "quick") -> "list[CheckResult]":
    """Run the named suite for ``m``; level is ``quick`` or ``full``."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    return [check(m) for check in checks]
