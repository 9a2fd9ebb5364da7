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

Both roots are found by one safeguarded Newton iteration (rtsafe, Press
et al., *Numerical Recipes*, section 9.4) inside an analytic bracket
``[a, b]``: the function is positive at ``a``, negative at ``b`` and
changes sign exactly once in between, so the root there is the first
positive root.

* Start.  The iteration starts at the midpoint, or at a given start
  point when that lies strictly inside the bracket (a NaN or infinite
  one never does).  The diameter maximization passes the secant
  prediction from the previous roots of its profile scan.
* Bracket invariant.  After each evaluation the end with the same sign
  as the value moves to the evaluated point, so the bracket only
  shrinks and always holds the root, wherever the iteration started.
* Step.  It takes the Newton step when that lands strictly inside the
  bracket and is no longer than ``(b - a)/2**k`` at the k-th evaluation,
  the step plain bisection would take there; otherwise it bisects the
  current bracket.  This is the Numerical Recipes rule (bisect when
  Newton does not at least halve the step) held to bisection's schedule.
  The iterate never leaves the bracket, so the result is the bracketed
  root: the first one.
* Termination.  It stops when a step is at most the tolerance ``tol``.
  With ``B = ceil(log2((b - a)/tol))``, the evaluation count of plain
  bisection, every Newton step after the B-th evaluation is within
  ``tol``, and so is the B-th bisection.  A start point other than the
  midpoint does not halve the bracket and can cost one evaluation more,
  so there are at most ``2*B + 1`` evaluations.  On 20 000 log-uniform
  draws of ``eta`` in [1e-6, 1e8] and ``pbar3`` down to 1e-300 a
  midpoint start made about 6 on average and at most 13, against about
  44 for bisection.  On 400 diameter maximizations with ``i1/i3`` up to
  1e5 (168 539 solves), a start at the secant through the two previous
  roots made 2.68 on average and at most 16, against 5.35 from the
  midpoint.

The conjugate equation is solved in the singularity-free form
``sin(tau) + c*tau*cos(tau) = 0``, whose derivative in ``tau`` is
``(1 + c)*cos(tau) - c*tau*sin(tau)``, on the bracket [pi/2, pi]; the
left side is 1 at pi/2 and strictly decreasing there, so it has exactly
one root; ``c = 0`` (pbar3 = +-1) gives exactly pi.

The cut equation is solved in an analytic bracket.  For ``pbar3 > 0`` it
is

* ``(pi/2, pi)``          when ``w < 1``,
* ``(pi/(2w), pi/2]``     when ``1 <= w < 2``,
* ``(pi/(2w), pi/w]``     when ``w >= 2``.

On ``(0, a]``, with ``a`` the left end, the factors ``cos(tau)``,
``sin(w*tau)``, ``sin(tau)`` and ``cos(w*tau)`` are all nonnegative, so
the cut function is positive there; it is negative at the right end and
changes sign once in between, so the bracketed root is the first one.
The function is solved divided by ``pbar3``, which keeps it from
underflowing for subnormal ``pbar3`` and makes it tend to the conjugate
function of ``pbar3 = 0``, as ``tau3`` itself does.  With
``so = sin(w*tau)/pbar3`` its derivative in ``tau`` is
``cos(tau)*(eta*cos(w*tau) + cos(w*tau)) - sin(tau)*so*(1 + w*pbar3)``;
below ``w*tau = 1e-8``, where ``sin(u)/u`` rounds to 1, ``so`` is
``eta*tau`` and its derivative ``eta``.  The tolerance ``BISECT_TOL`` is
relative to the root's scale, since roots reach about ``pi/eta`` (1e-8 at
``eta = 1e8``).

Every root lies in (0, pi] by construction of its bracket and is
returned as a plain float.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

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


def _newton(fg: Callable[[float], tuple[float, float]], a: float, b: float, tol: float,
            start: float = math.nan) -> float:
    # Safeguarded Newton on [a, b]: fg(x) gives the function, positive at a and
    # negative at b, and its derivative; the module docstring states the rules.
    x = start if a < start < b else 0.5 * (a + b)
    allow = b - a  # halved before each step: the step bisection would take
    while True:
        f, df = fg(x)
        if f == 0.0:
            return x
        if f > 0.0:
            a = x
        else:
            b = x
        allow *= 0.5
        # x - f/df strictly inside (a, b), tested without dividing by df,
        # and the step within the allowance
        if ((x - b) * df - f) * ((x - a) * df - f) < 0.0 and abs(f) <= allow * abs(df):
            dx = f / df
            x -= dx
        else:
            dx = 0.5 * (b - a)
            x = a + dx
        if abs(dx) <= tol:
            return x


def _tau3_value(eta: float, s: float, start: Optional[float] = None) -> float:
    # s = |pbar3| > 0; the bracket, scaling and derivative are the module docstring's.
    # start, when given, is where Newton begins if it lies inside the bracket;
    # without it the call is _newton(fg, a, b, tol), the signature tests wrap.
    w = eta * s
    if w < 1.0:
        a, b = 0.5 * math.pi, math.pi
    elif w < 2.0:
        a, b = 0.5 * math.pi / w, 0.5 * math.pi
    else:
        a, b = 0.5 * math.pi / w, math.pi / w

    def fg(x: float) -> tuple[float, float]:
        u = w * x
        cu = math.cos(u)
        if u < _SMALL_ARG:
            so, dso = eta * x, eta  # sin(u)/s = eta*x*sin(u)/u
        else:
            so, dso = math.sin(u) / s, eta * cu
        cx, sx = math.cos(x), math.sin(x)
        return cx * so + sx * cu, cx * (dso + cu) - sx * so * (1.0 + w * s)

    tol = BISECT_TOL * min(1.0, b)
    if start is None:
        return _newton(fg, a, b, tol)
    return _newton(fg, a, b, tol, start)


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
    ``c = eta*(1 - pbar3^2)/(1 + eta*pbar3^2)`` by safeguarded Newton on
    [pi/2, pi], where the left side is 1 at pi/2 and strictly decreasing,
    so the one root there is the first positive root; the iterate never
    leaves the shrinking bracket and takes at most twice the evaluations
    of bisection (see the module docstring).  Returns exactly pi when
    ``c == 0``, or when ``c`` is so small that the root is within one ulp
    of pi.
    """
    eta = _real("eta", eta, finite=True, positive=True)
    pbar3 = _pbar3(pbar3)
    c = eta * (1.0 - pbar3 * pbar3) / (1.0 + eta * pbar3 * pbar3)
    if c == 0.0:
        return math.pi

    def fg(x: float) -> tuple[float, float]:
        cx, sx = math.cos(x), math.sin(x)
        return sx + c * x * cx, (1.0 + c) * cx - c * x * sx

    if fg(math.pi)[0] >= 0.0:
        return math.pi
    return _newton(fg, 0.5 * math.pi, math.pi, BISECT_TOL)


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
    t = tau3(eta, pbar3)
    ct, st = math.cos(t), math.sin(t)
    cw, sw = math.cos(t * eta * pbar3), math.sin(t * eta * pbar3)
    num = t * eta * ct * cw + st * cw - t * eta * pbar3 * st * sw
    den = -(1.0 + eta * pbar3 * pbar3) * st * sw + pbar3 * (1.0 + eta) * ct * cw
    if abs(den) < _DENOM_TINY:
        raise SingularDenominator(
            f"denominator {den!r} below {_DENOM_TINY} at eta={eta}, pbar3={pbar3}"
        )
    return -num / den
