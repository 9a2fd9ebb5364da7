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
is positive on ``(0, min(1, 1/eta))`` and negative after it, so the
maximizer is where that derivative changes sign, found by halving [0, 1]
to an octave and refining there by the Illinois method; values, flat to
rounding there, would place it only to about ``sqrt(eps)``, while the
sign changes cleanly.  For ``eta <= 0`` the profile does not rise from
``pbar3 = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

# t_cut is not called here; perfbench/tracing.py wraps it
from .cutprofile import _arc_length, _dt_cut, _warm_roots, t_cut  # noqa: F401
from .geodesic import _bracketed_root
from .model import BergerMetric, Regime, classify_regime
from .serialize import json_text

__all__ = [
    "diameter_closed_form",
    "diameter_numeric",
    "diameter_report",
    "DiameterReport",
]

_REFINE_TOL = 1e-24   # no cell [0, hi] at or below this is halved; its midpoint is the maximizer
_GAP_BUDGET = 1e-8    # a relative closed-form vs numeric gap above this is a disagreement


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
    ``(0, min(1, 1/eta))`` and negative after it.  One ``tau3`` solve at
    ``pbar3 = 1`` gives both the end value and the derivative there; where
    that derivative is positive (``eta <= 1``) nothing in (0, 1] changes
    sign and the pole is the candidate.  Otherwise [0, hi] is halved from
    ``hi = 1`` until the derivative at ``hi/2`` is positive, and the sign
    change in that octave ``[hi/2, hi]`` is refined by the Illinois method
    (``geodesic._bracketed_root``) to a zero or to adjacent floats.  The
    halving comes first because the derivative near 0 is orders of
    magnitude above its value at 1, where regula falsi crawls.  A maximizer
    ``1/eta`` below 1e-24 is the midpoint of the last halved cell, never the
    derivative's undefined ``pbar3 = 0``.  Each root is solved by
    ``_warm_roots``: Newton starts at the quadratic prediction through the
    three most recent roots, inside the same bracket.  The best of
    ``pbar3 = 0``, the refined point and ``pbar3 = 1`` is returned, so
    boundary maxima report their maximizer exactly; exact ties are broken
    toward the smaller axis fraction.  For ``eta <= 0`` the profile
    ``2*pi*sqrt(i1)*sqrt(1 + eta*x^2)`` has a derivative of the sign of
    ``eta*x``, never positive, and its maximum is at 0.
    """
    eta, tau, _ = _warm_roots(m)
    v0 = _arc_length(m, 0.0, tau(0.0))
    if eta <= 0.0:
        return v0, 0.0
    t1 = tau(1.0)
    g1 = _dt_cut(m, eta, 1.0, t1)
    ends = (v0, 0.0), (_arc_length(m, 1.0, t1), 1.0)
    if g1 > 0.0:
        return max(ends, key=itemgetter(0))

    def g(x: float) -> float:
        return _dt_cut(m, eta, x, tau(x))

    hi, ghi = 1.0, g1  # the derivative is not positive on [hi, 1]
    while hi > _REFINE_TOL:
        lo = 0.5 * hi
        glo = g(lo)
        if glo > 0.0:
            xg = _bracketed_root(g, lo, hi, glo, ghi)
            break
        hi, ghi = lo, glo
    else:
        xg = 0.5 * hi
    # in increasing x, so max keeps the smallest of tied maximizers
    return max(ends[0], (_arc_length(m, xg, tau(xg)), xg), ends[1], key=itemgetter(0))


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
