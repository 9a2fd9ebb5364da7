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
  one never does).  The walks along the profile, diameter scan and
  sampled rows, pass the secant through the two previous roots.
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
  midpoint.  On 60 profiles with ``eta`` log-uniform in [1e-2, 1e4] and
  201 to 1201 rows (25 200 solves per root) it made 2.62 per ``tau3``
  and 2.90 per ``tau_conj`` solve, against 5.57 and 5.32.

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

from .errors import DomainError
from .model import _pbar3, _real

__all__ = [
    "tau3",
    "tau_conj",
    "tau3_derivative",
    "BISECT_TOL",
]

BISECT_TOL = 1e-13
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


def _tau_conj_value(eta: float, pbar3: float, start: Optional[float] = None) -> float:
    # tau_conj for a checked eta > 0 and pbar3; start as for _tau3_value.  c*pi <= sin(pi)
    # is fg(pi)[0] >= 0, as cos(pi) is -1: c == 0, or the root within an ulp of pi.
    c = eta * (1.0 - pbar3 * pbar3) / (1.0 + eta * pbar3 * pbar3)
    if c * math.pi <= math.sin(math.pi):
        return math.pi

    def fg(x: float) -> tuple[float, float]:
        cx, sx = math.cos(x), math.sin(x)
        return sx + c * x * cx, (1.0 + c) * cx - c * x * sx

    if start is None:
        return _newton(fg, 0.5 * math.pi, math.pi, BISECT_TOL)
    return _newton(fg, 0.5 * math.pi, math.pi, BISECT_TOL, start)


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
    return _tau_conj_value(_real("eta", eta, finite=True, positive=True), _pbar3(pbar3))


def _slopes(eta: float, s: float, t: float) -> tuple[float, float]:
    # tau3'(s) and q*tau3'(s) + u, which is t_cut'(s)*sqrt(q)/(2*sqrt(i1)), at the
    # root t = tau3(eta, s), s > 0, in the forms of tau3_derivative, with
    # mu = (1 + eta)/(q*(eta*t)^2) and d = B/(eta*t)^2
    w = eta * s
    u = w * t
    q = 1.0 + w * s
    cw = math.cos(u)
    if w < 2.0:
        sinc = math.sin(u) / u if u >= _SMALL_ARG else 1.0
        v = u * u  # below u = 0.5 the direct g loses 3*eps/u^2; its series to u^12
        g = (math.sin(u) - u * cw) / (u * v) if u >= 0.5 else 1 / 3 + v * (-1 / 30 + v * (
            1 / 840 + v * (-1 / 45360 + v * (1 / 3991680 + v * (-1 / 518918400 + v / 93405312000)))))
        mu = (1.0 + eta) / (q * ((eta * t) * (eta * t)))
        d = sinc * sinc + cw * cw * mu
        return u * (g * cw - sinc * sinc) / (q * d), u * cw * (g + cw * mu) / d
    ct, st, sw = math.cos(t), math.sin(t), math.sin(u)
    d = s * ((1.0 + eta) / q) * ct * cw - st * sw
    num = t * eta * ct * cw + st * cw - u * st * sw
    c = eta * (1.0 - s * s) / q
    return -num / (q * d), -cw * (st + c * t * ct) / d


def tau3_derivative(eta: float, pbar3: float) -> float:
    """Derivative of ``tau3`` with respect to ``pbar3``, for ``pbar3 != 0``.

    Implicit differentiation of the cut equation at ``t = tau3(eta, s)``,
    ``s = |pbar3|``, divides two O(s) differences of O(1) terms.  Below
    ``w = eta*s = 2`` the cut equation at the root takes ``s`` out:

        -eta^3*t^3*s*(sinc(u)^2 - g(u)*cos(u)) / (q*B),   u = w*t,
        q = 1 + eta*s^2,  g(u) = (sin(u) - u*cos(u))/u^3,
        B = (1 + eta)*cos(u)^2/q + eta^2*t^2*sinc(u)^2 > 0,

    which does not cancel down to subnormal ``s``.  From ``w = 2`` on the
    root nears ``u = pi``, where ``sin(u)`` has lost its digits, and the
    direct quotient, which does not cancel there, is used.  Odd in
    ``pbar3``, negative for ``pbar3 > 0`` and undefined at ``pbar3 = 0``.
    """
    eta = _real("eta", eta, finite=True, positive=True)
    pbar3 = _pbar3(pbar3)
    if pbar3 == 0.0:
        raise DomainError("tau3_derivative is undefined at pbar3 = 0")
    s = abs(pbar3)
    d = _slopes(eta, s, _tau3_value(eta, s))[0]
    return d if pbar3 > 0.0 else -d
