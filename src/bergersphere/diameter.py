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
profile directly.  For ``eta > 0`` the profile's closed-form derivative
is positive on ``(0, min(1, 1/eta))`` and negative after it, so bisection
on its sign over [0, 1] finds the maximizer; values, flat to rounding
there, would place it only to about ``sqrt(eps)``, while the sign changes
cleanly.  For ``eta <= 0`` the profile does not rise from ``pbar3 = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

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

    Returns ``(value, maximizer)``.  For ``eta > 0`` the profile's
    closed-form derivative ``t_cut_derivative`` is positive on
    ``(0, min(1, 1/eta))`` and negative after it, so bisection on its sign
    over all of [0, 1] narrows onto the maximizer, to 1e-12 of the cell's
    upper end (to 1e-24 below 1e-12, as the maximizer ``1/eta`` can be
    tiny); the cell's midpoint, never the derivative's undefined
    ``pbar3 = 0``, is the refined point.  Each value is ``t_cut(m, x)``,
    with its ``tau3`` solve warm-started from the previous roots: Newton
    starts at the quadratic prediction through the three most recent
    roots, inside the same bracket.  The best of ``pbar3 = 0``, the
    refined point and ``pbar3 = 1`` is returned, so boundary maxima report
    their maximizer exactly; exact ties are broken toward the smaller axis
    fraction.  For ``eta <= 0`` the profile ``2*pi*sqrt(i1)*sqrt(1 + eta*x^2)``
    has a derivative of the sign of ``eta*x``, never positive, and its
    maximum is at 0.
    """
    eta, tau, _ = _warm_roots(m)

    def f(x: float) -> float:
        return _arc_length(m, x, tau(x))

    v0 = f(0.0)
    if eta <= 0.0:
        return v0, 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > _REFINE_TOL * max(hi, _REFINE_TOL):
        mid = 0.5 * (lo + hi)
        if _dt_cut(m, eta, mid, tau(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    xg = 0.5 * (lo + hi)
    # in increasing x, so max keeps the smallest of tied maximizers
    return max((v0, 0.0), (f(xg), xg), (f(1.0), 1.0), key=itemgetter(0))


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
