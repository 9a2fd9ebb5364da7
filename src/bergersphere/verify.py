"""Named self-check suites behind the ``verify`` CLI command.

The quick level exercises the algebraic machinery: root properties on
fixed shape-parameter grids plus profile and diameter invariants for the
requested metric.  The full level adds the geodesic oracles, which
integrate the flow and are therefore slower.  Every check reports a
stable kebab-case name so failures can be cited precisely.

Checks that read one grid share one pass over it and return a tuple of
results, which ``run_checks`` flattens in place: the five root checks
solve ``tau3`` and ``tau_conj`` once per point of the fixed grid, and the
two ``tcut-*`` checks read one pass over ``pbar3``.  Each still reports
its own first failure.  Two checks run on a copy of the metric with both
eigenvalues scaled by one power of two, which keeps ``i1/i3`` to the bit
while ``i3`` stays normal.  Times and slopes scale with ``sqrt(i1)``: the
sign of ``t_cut'`` is read with ``i1`` near ``2**1000``, as at small
scales it can round to zero (``i1 = 1, i3 = 1e-300``), and the conjugate
times with ``i1`` in [1, 2), where the search horizon stays finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cutprofile import _arc_length, t_cut, t_cut_derivative
from .diameter import _GAP_BUDGET, diameter_closed_form, diameter_report
from .errors import DomainError
from .geodesic import (
    _SEARCH_MARGIN,
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


def _check_root_grid(m: BergerMetric) -> "tuple[CheckResult, ...]":
    # each check reports its first failure in eta-major order with pbar3 rising;
    # tau-conj-range checks the pole after each eta's row
    asymmetry = residual = 0.0
    margin = math.inf
    order_fault = range_fault = ""
    for eta in _ETA_GRID:
        prev, tc = tau3(eta, 0.0), tau_conj(eta, 0.0)
        if not (range_fault or 0.5 * math.pi < tc <= math.pi):
            range_fault = f"out of range at eta={eta}, pbar3=0.0"
        for pb in _PB_GRID:
            t, tc = tau3(eta, pb), tau_conj(eta, pb)
            if pb in (0.2, 0.55, 0.9, 1.0):
                asymmetry = max(asymmetry, abs(t - tau3(eta, -pb)))
            if not (order_fault or t < prev):
                order_fault = f"not decreasing at eta={eta}, pbar3={pb}"
            prev = t
            margin = min(margin, tc - t)
            if not (range_fault or 0.5 * math.pi < tc <= math.pi):
                range_fault = f"out of range at eta={eta}, pbar3={pb}"
            w = eta * pb
            res = abs(math.cos(t) * math.sin(w * t) + pb * math.sin(t) * math.cos(w * t))
            residual = max(residual, res)
        if not (range_fault or tc == math.pi):  # the last pbar3 of the grid is 1.0
            range_fault = f"pbar3=1 not pi at eta={eta}"
    return (
        CheckResult("tau3-evenness", asymmetry <= 1e-11, f"max asymmetry {asymmetry:.3e}"),
        CheckResult("tau3-monotone-decreasing", not order_fault,
                    order_fault or f"{len(_ETA_GRID)}x{len(_PB_GRID)} grid strict"),
        CheckResult("tau3-below-tau-conj", margin > 0.0, f"min margin {margin:.3e}"),
        CheckResult("tau-conj-range", not range_fault,
                    range_fault or "(pi/2, pi] on all grids, pi at the pole"),
        CheckResult("tau3-equation-residual", residual < 1e-11, f"max residual {residual:.3e}"),
    )


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


def _check_tcut_grid(m: BergerMetric) -> "tuple[CheckResult, CheckResult]":
    # the closed forms of both checks need eta > 0; for eta <= 0 they fall back to a
    # fixed prolate metric, and their details name it
    mm, on = (m, "") if m.eta() > 0.0 else (BergerMetric(1.0, 0.5), " on stand-in i1=1, i3=0.5")
    eta = mm.eta()
    split = min(1.0, 1.0 / eta)
    k = 1000 - math.frexp(mm.i1)[1]
    big = BergerMetric(math.ldexp(mm.i1, k), math.ldexp(mm.i3, k))
    sign_fault, gaps = "", []
    for pb in _PB_GRID:
        d = t_cut_derivative(big, pb)
        if not sign_fault and pb < split - 1e-9 and d <= 0.0:
            sign_fault = f"not rising at pbar3={pb}{on}"
        elif not sign_fault and pb > split + 1e-9 and d >= 0.0:
            sign_fault = f"not falling at pbar3={pb}{on}"
        gaps.append(_arc_length(mm, pb, tau_conj(eta, pb)) - t_cut(mm, pb))
    margin = min(gaps)
    return (
        CheckResult("tcut-derivative-sign", not sign_fault,
                    sign_fault or f"rises below {split:.4g}, falls above (eta={eta:.4g}){on}"),
        CheckResult("tcut-below-conjugate-time", margin > 0.0, f"min margin {margin:.3e}{on}"),
    )


def _check_diameter_agreement(m: BergerMetric) -> CheckResult:
    rep = diameter_report(m)
    ok = rep.abs_gap <= _GAP_BUDGET * rep.closed_form
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
    # on the copy with i1 in [1, 2) (module docstring); for eta <= 0 the first
    # conjugate time is t_pi, where tau = pi
    eta = m.eta()
    k = 1 - math.frexp(m.i1)[1]
    mm = BergerMetric(math.ldexp(m.i1, k), math.ldexp(m.i3, k))
    worst = 0.0
    for pb in (0.0, 0.5):
        expected = _arc_length(mm, pb, tau_conj(eta, pb) if eta > 0.0 else math.pi)
        got = conjugate_time_numeric(mm, pb, 1.02 * _arc_length(mm, pb, math.pi))
        worst = max(worst, abs(got - expected) / expected)
    return CheckResult("geodesic-conjugate-agreement", worst < 1e-12, f"max rel dev {worst:.3e}")


def _check_cut_sandwich(m: BergerMetric) -> CheckResult:
    pb = 0.6
    tc = t_cut(m, pb)
    p0 = initial_momentum(m, pb, 0.0)
    early = shorter_path_search(m, p0, 0.9 * tc)
    late = shorter_path_search(m, p0, 1.1 * tc)
    # the search's own relative margin: an absolute one exceeds t_cut where i1 is tiny
    ok = early is None and late is not None and late.arrival_time < 1.1 * tc * (1.0 - _SEARCH_MARGIN)
    detail = (
        f"0.9*t_cut: {'empty' if early is None else 'hit'}; "
        f"1.1*t_cut: {'empty' if late is None else f'arrival {late.arrival_time:.6g}'}"
    )
    return CheckResult("geodesic-cut-sandwich", ok, detail)


QUICK_CHECKS = (
    _check_eta_scale_invariance,
    _check_momentum_norm_bracket,
    _check_regime_scale_invariance,
    _check_root_grid,
    _check_tau3_derivative_fd,
    _check_tcut_evenness,
    _check_tcut_branch_continuity,
    _check_tcut_grid,
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
        raise DomainError(f"level must be 'quick' or 'full', got {level!r}")
    results = []
    for check in QUICK_CHECKS if level == "quick" else FULL_CHECKS:
        result = check(m)  # a check over a shared grid returns a tuple of results
        results.extend(result if isinstance(result, tuple) else (result,))
    return results
