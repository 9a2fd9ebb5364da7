"""Transcendental equations behind cut and conjugate times.

Along a unit-speed geodesic with momentum ``p`` the natural clock is the
reparametrized time ``tau = t*|p|/(2*i1)``.  For ``eta > 0`` two equations
in ``tau`` control the geometry, with ``w = eta*pbar3``:

* cut equation:        ``cos(tau)*sin(tau*w) + pbar3*sin(tau)*cos(tau*w) = 0``
* conjugate equation:  ``tan(tau) = -tau * eta*(1 - pbar3^2)/(1 + eta*pbar3^2)``

``tau3(eta, pbar3)`` is the first positive root of the cut equation and
``tau_conj(eta, pbar3)`` the first positive root of the conjugate
equation.  Both equations are even in ``pbar3``, so an overall sign
convention for the axis fraction does not change any root; the solvers
work with ``abs(pbar3)``.  At ``pbar3 = 0`` the cut equation degenerates
to the zero function and ``tau3`` is defined by its limit, which equals
``tau_conj(eta, 0)``.

The conjugate equation is solved in the singularity-free form
``sin(tau) + c*tau*cos(tau) = 0`` on the bracket [pi/2, pi], where it has
exactly one root; ``c = 0`` (pbar3 = +-1) gives exactly pi.

The cut equation is solved by bisection in an analytic bracket.  For
``pbar3 > 0`` it is

* ``(pi/2, pi)``          when ``w < 1``,
* ``(pi/(2w), pi/2]``     when ``1 <= w < 2``,
* ``(pi/(2w), pi/w]``     when ``w >= 2``.

On ``(0, a]``, with ``a`` the left end, the factors ``cos(tau)``,
``sin(w*tau)``, ``sin(tau)`` and ``cos(w*tau)`` are all nonnegative, so
the cut function is positive there; it is negative at the right end and
changes sign once in between, so the bisected root is the first one.
The function is bisected divided by ``pbar3``, which keeps it from
underflowing for subnormal ``pbar3`` and makes it tend to the conjugate
function of ``pbar3 = 0``, as ``tau3`` itself does.  The bisection
tolerance is relative to the root's scale, since roots reach about
``pi/eta`` (1e-8 at ``eta = 1e8``).

Every root lies in (0, pi] by construction of its bracket and is
returned as a plain float.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DomainError, SingularDenominator
from .model import _pbar3, _real

__all__ = [
    "tau3",
    "tau_conj",
    "tau3_derivative",
    "BISECT_TOL",
]

BISECT_TOL = 1e-13
_DENOM_TINY = 1e-14
_SMALL_ARG = 1e-8  # below it sin(u)/u rounds to 1


def _bisect(f: Callable[[float], float], a: float, b: float, fa: float, tol: float) -> float:
    # fa carries the sign of f at the left end; the bracket is assumed valid.
    while b - a > tol:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def _tau3_value(eta: float, s: float) -> float:
    # s = |pbar3| > 0; the bracket and the scaling are the module docstring's
    w = eta * s
    if w < 1.0:
        a, b = 0.5 * math.pi, math.pi
    elif w < 2.0:
        a, b = 0.5 * math.pi / w, 0.5 * math.pi
    else:
        a, b = 0.5 * math.pi / w, math.pi / w

    def g(x: float) -> float:
        u = w * x
        # sin(u)/s = eta*x*sin(u)/u
        sin_over_s = eta * x if u < _SMALL_ARG else math.sin(u) / s
        return math.cos(x) * sin_over_s + math.sin(x) * math.cos(u)

    return _bisect(g, a, b, 1.0, BISECT_TOL * min(1.0, b))


def tau3(eta: float, pbar3: float) -> float:
    """First positive root of the cut equation; even in ``pbar3``.

    Requires ``eta > 0``.  Decreases strictly from ``tau_conj(eta, 0)``
    at ``pbar3 = 0`` (its defining limit value) to ``pi/(1 + eta)`` at
    ``pbar3 = +-1``, and equals ``pi/2`` at ``pbar3 = 1/eta`` when
    ``eta >= 1``.
    """
    eta = _real("eta", eta, finite=True, positive=True)
    s = abs(_pbar3(pbar3))
    if s == 0.0:
        return tau_conj(eta, 0.0)
    return _tau3_value(eta, s)


def tau_conj(eta: float, pbar3: float) -> float:
    """First positive root of the conjugate equation, in (pi/2, pi].

    Requires ``eta > 0``.  Solves ``sin(tau) + c*tau*cos(tau) = 0`` with
    ``c = eta*(1 - pbar3^2)/(1 + eta*pbar3^2)`` on [pi/2, pi], where the
    left side is strictly decreasing; returns exactly pi when ``c == 0``.
    """
    eta = _real("eta", eta, finite=True, positive=True)
    pbar3 = _pbar3(pbar3)
    c = eta * (1.0 - pbar3 * pbar3) / (1.0 + eta * pbar3 * pbar3)
    if c == 0.0:
        return math.pi
    def g(x: float) -> float:
        return math.sin(x) + c * x * math.cos(x)
    b = math.pi
    gb = g(b)
    if gb >= 0.0:
        # c so small that the root is within one ulp of pi
        return math.pi
    return _bisect(g, 0.5 * math.pi, b, 1.0, BISECT_TOL)


def tau3_derivative(eta: float, pbar3: float) -> float:
    """Derivative of ``tau3`` with respect to ``pbar3``, for ``pbar3 != 0``.

    Implicit differentiation of the cut equation gives the quotient

        -(t*eta*ct*cw + st*cw - t*eta*pbar3*st*sw)
        / (-(1 + eta*pbar3^2)*st*sw + pbar3*(1 + eta)*ct*cw)

    evaluated at ``t = tau3(eta, pbar3)``, with ``ct = cos(t)``,
    ``st = sin(t)``, ``cw = cos(t*eta*pbar3)``, ``sw = sin(t*eta*pbar3)``.
    The function is odd in ``pbar3`` and tends to 0 as ``pbar3 -> 0``,
    where the quotient degenerates and this routine is undefined.  Raises
    SingularDenominator when the denominator falls below 1e-14 in
    absolute value.
    """
    eta = _real("eta", eta, finite=True, positive=True)
    pbar3 = _pbar3(pbar3)
    if pbar3 == 0.0:
        raise DomainError("tau3_derivative is undefined at pbar3 = 0")
    return _tau3_slope(eta, pbar3, tau3(eta, pbar3))


def _tau3_slope(eta: float, pbar3: float, t: float) -> float:
    # tau3_derivative at the root t = tau3(eta, pbar3) already solved
    ct, st = math.cos(t), math.sin(t)
    cw, sw = math.cos(t * eta * pbar3), math.sin(t * eta * pbar3)
    num = t * eta * ct * cw + st * cw - t * eta * pbar3 * st * sw
    den = -(1.0 + eta * pbar3 * pbar3) * st * sw + pbar3 * (1.0 + eta) * ct * cw
    if abs(den) < _DENOM_TINY:
        raise SingularDenominator(
            f"denominator {den!r} below {_DENOM_TINY} at eta={eta}, pbar3={pbar3}"
        )
    return -num / den
