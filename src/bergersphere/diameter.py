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
profile directly: a grid scan over [0, 1] followed by golden-section
refinement inside the best cell.  The profile is even and unimodal on
[0, 1], so the refined cell always contains the true maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# t_cut is not called here; perfbench/tracing.py wraps it
from .cutprofile import _arc_length, _warm_roots, t_cut  # noqa: F401
from .model import BergerMetric, Regime, classify_regime
from .serialize import json_text

__all__ = [
    "diameter_closed_form",
    "diameter_numeric",
    "diameter_report",
    "DiameterReport",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
_GRID_N = 513         # profile samples on [0, 1] in the numeric maximization
_REFINE_TOL = 1e-12   # width of the golden-section refinement


def diameter_closed_form(m: BergerMetric) -> float:
    """Exact diameter of ``m`` from the three-regime closed form."""
    regime = classify_regime(m)
    if regime is Regime.ROUND_DOMINATED:
        return 2.0 * math.pi * math.sqrt(m.i1)
    if regime is Regime.MIDDLE:
        return 2.0 * math.pi * math.sqrt(m.i3)
    return math.pi * math.sqrt(m.i1) / math.sqrt(1.0 - m.i3 / m.i1)


def _golden_max(f, a: float, b: float, tol: float) -> float:
    """Abscissa of the maximum of a unimodal ``f`` on [a, b], to width tol."""
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    n = math.ceil(math.log(tol / h) / math.log(_INV_PHI))
    for _ in range(n):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return 0.5 * (a + b)


def diameter_numeric(m: BergerMetric) -> "tuple[float, float]":
    """Maximize the cut profile on [0, 1] numerically.

    Returns ``(value, maximizer)``.  A grid of 513 points locates the
    best cell and golden-section search refines it to width 1e-12.  Each
    value is ``t_cut(m, x)``, with its ``tau3`` solve warm-started from
    the previous root: Newton starts at the secant prediction through
    the two most recent roots, inside the same bracket.  When
    the refined point does not beat the best grid point the grid point
    wins, so flat profiles (the round case) and boundary maxima report
    their maximizer exactly; exact ties are broken toward the smaller
    axis fraction.
    """
    eta, tau, _ = _warm_roots(m)

    def f(x: float) -> float:
        return _arc_length(m, eta, x, tau(x))

    best_i = 0
    best_x = 0.0
    best_v = f(0.0)
    for k in range(1, _GRID_N):
        x = k / (_GRID_N - 1)
        v = _arc_length(m, eta, x, tau(x))  # f(x), one call less in the hot loop
        if v > best_v:
            best_i, best_x, best_v = k, x, v

    lo = (best_i - 1) / (_GRID_N - 1) if best_i > 0 else 0.0
    hi = (best_i + 1) / (_GRID_N - 1) if best_i < _GRID_N - 1 else 1.0
    xg = _golden_max(f, lo, hi, _REFINE_TOL)
    vg = f(xg)
    if vg > best_v:
        return vg, xg
    if vg == best_v and xg < best_x:
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
