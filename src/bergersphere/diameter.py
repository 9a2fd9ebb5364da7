"""Diameter of a Berger sphere, closed form and numerical cross-check.

The diameter is the maximum of the cut profile over axis fractions in
[0, 1] (the profile is even).  The maximum sits at one of three places
depending on the regime, which yields the closed form

    ROUND_DOMINATED (i1 <= i3):  2*pi*sqrt(i1)                at pbar3 = 0
    MIDDLE (i3 < i1 <= 2*i3):    2*pi*sqrt(i3)                at pbar3 = 1
    PROLATE (2*i3 < i1):         pi*sqrt(i1)/sqrt(1 - i3/i1)  at pbar3 = i3/(i1-i3)

The expression is continuous across both regime boundaries and satisfies
``pi*sqrt(i1) <= diameter <= 2*pi*sqrt(i1)``.

``diameter_numeric`` ignores the branch analysis and maximizes the cut
profile directly: a grid scan over [0, 1], then bisection on the sign of
the closed-form derivative inside the best cell, which holds the
maximizer (the profile is even and unimodal).  Values, flat to rounding
there, place it only to about ``sqrt(eps)``; the sign changes cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# t_cut is not called here; perfbench/tracing.py wraps it
from .cutprofile import _arc_length, _dt_cut, _warm_roots, t_cut  # noqa: F401
from .model import BergerMetric, Regime, classify_regime
from .serialize import json_text

__all__ = [
    "diameter_closed_form",
    "diameter_numeric",
    "diameter_report",
    "DiameterReport",
]

_GRID_N = 513         # profile samples on [0, 1] in the numeric maximization
_REFINE_TOL = 1e-12   # width of the bisected cell, relative to its upper end


def diameter_closed_form(m: BergerMetric) -> float:
    """Exact diameter of ``m`` from the three-regime closed form."""
    regime = classify_regime(m)
    if regime is Regime.ROUND_DOMINATED:
        return 2.0 * math.pi * math.sqrt(m.i1)
    if regime is Regime.MIDDLE:
        return 2.0 * math.pi * math.sqrt(m.i3)
    return math.pi * math.sqrt(m.i1) / math.sqrt(1.0 - m.i3 / m.i1)


def diameter_numeric(m: BergerMetric) -> "tuple[float, float]":
    """Maximize the cut profile on [0, 1] numerically.

    Returns ``(value, maximizer)``.  A grid of 513 points locates the
    best cell, and bisection on the sign of ``t_cut_derivative`` narrows
    it to 1e-12 of its upper end (to 1e-24 below 1e-12, as the maximizer
    ``1/eta`` can be tiny); its midpoint, never the derivative's undefined
    ``pbar3 = 0``, is the refined point.  Each value is ``t_cut(m, x)``,
    with its ``tau3`` solve warm-started from the previous root: Newton
    starts at the secant prediction through the two most recent roots,
    inside the same bracket.  When the refined point does not beat the
    best grid point the grid point wins, so flat profiles (the round
    case) and boundary maxima report their maximizer exactly; exact ties
    are broken toward the smaller axis fraction.  For ``eta <= 0`` the
    profile falls from 0 or is flat, and the grid point is returned.
    """
    eta, tau, _ = _warm_roots(m)

    def f(x: float) -> float:
        return _arc_length(m, x, tau(x))

    best_i = 0
    best_x = 0.0
    best_v = f(0.0)
    for k in range(1, _GRID_N):
        x = k / (_GRID_N - 1)
        v = _arc_length(m, x, tau(x))  # f(x), one call less in the hot loop
        if v > best_v:
            best_i, best_x, best_v = k, x, v
    if eta <= 0.0:
        return best_v, best_x

    lo = (best_i - 1) / (_GRID_N - 1) if best_i > 0 else 0.0
    hi = (best_i + 1) / (_GRID_N - 1) if best_i < _GRID_N - 1 else 1.0
    while hi - lo > _REFINE_TOL * max(hi, _REFINE_TOL):
        mid = 0.5 * (lo + hi)
        if _dt_cut(m, eta, mid, tau(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    xg = 0.5 * (lo + hi)
    vg = f(xg)
    if vg > best_v or (vg == best_v and xg < best_x):
        return vg, xg
    return best_v, best_x


@dataclass(frozen=True)
class DiameterReport:
    """Closed form next to the independent numerical maximization."""

    metric: BergerMetric
    regime: Regime
    closed_form: float
    numeric: float
    maximizer_pbar3: float
    abs_gap: float

    def to_json(self) -> str:
        payload = {
            "i1": self.metric.i1,
            "i3": self.metric.i3,
            "eta": self.metric.eta(),
            "regime": self.regime.value,
            "closed_form": self.closed_form,
            "numeric": self.numeric,
            "maximizer_pbar3": self.maximizer_pbar3,
            "abs_gap": self.abs_gap,
        }
        return json_text(payload)


def diameter_report(m: BergerMetric) -> DiameterReport:
    """Compute both diameter routes and package the comparison."""
    closed = diameter_closed_form(m)
    numeric, maximizer = diameter_numeric(m)
    return DiameterReport(
        metric=m,
        regime=classify_regime(m),
        closed_form=closed,
        numeric=numeric,
        maximizer_pbar3=maximizer,
        abs_gap=abs(closed - numeric),
    )
