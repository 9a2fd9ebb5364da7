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
to the zero function and ``tau3`` is its limit ``tau_conj(eta, 0)``, the
root of the equation divided by ``pbar3`` (below), with no case of its own.

Both roots are found by one safeguarded Newton iteration (rtsafe, Press
et al., *Numerical Recipes*, section 9.4) inside an analytic bracket
``[a, b]``: the function is positive at ``a``, negative at ``b`` and
changes sign exactly once in between, so the root there is the first
positive root.  One loop, ``_newton``, holds the safeguard once, with the
conjugate function and both forms of the cut function below written out
in it on scalar locals: a solve builds no closure and an evaluation calls
no Python function.

* Start.  The iteration starts at a given start point held in the
  bracket (an infinite one at an end).  A NaN start is a cold one: the
  midpoint, except for the conjugate root and the cut root below
  ``w = 1``, which lies in ``(pi/2, tau_conj(eta, 0)]``, the conjugate
  root of ``c = eta``.  Those start at ``pi/2 + (pi/2)/(1 + c*pi^2/4)``,
  with ``c = eta`` for the cut root, which has the conjugate root's
  asymptotes at both ends of ``c``: ``pi`` as ``c -> 0`` and
  ``pi/2 + 2/(pi*c)`` for large ``c``.  The cut root from ``w = 2`` on
  has its own start, below.
  The profile's sampled rows and the diameter's maximization pass the
  quadratic through the three previous roots.  A start never moves the
  bracket, so it changes the cost of a solve, not which root it finds.
* Bracket invariant.  After each evaluation the end with the same sign
  as the value moves to the evaluated point, so the bracket only
  shrinks and always holds the root, wherever the iteration started.
* Step.  It takes the Newton step when that is no longer than
  ``(b - a)/2**k`` at the k-th evaluation, the step plain bisection would
  take there, with its target held in the bracket; otherwise it bisects
  the current bracket.  This is the Numerical Recipes rule (bisect when
  Newton does not at least halve the step) held to bisection's schedule.
  Newton steps are taken only where the function falls, as it does
  across the root: where it rises toward a zero outside the bracket (the
  cut function just past ``pi`` at ``pbar3`` near 1), the target lies
  outside, and a step held at the end would stop the solve there.
  The iterate never leaves the bracket, so the result is the bracketed
  root: the first one.
* Termination.  It stops when a step is at most the tolerance ``tol``,
  at Newton's target held in the bracket, after a bisection step too: a
  root within rounding of an end, where every target falls outside, is
  that end, as ``pi/2`` is for the cut root at ``pbar3 = 1/eta``.  On
  2 000 draws with ``eta`` log-uniform in [1e-6, 1e15], and ``pbar3``
  uniform in [0, 1] or log-uniform in [1e-8, 1], ``tau_conj`` and ``tau3``
  below ``w = 2`` were within 0.79 ulp of a 60-digit bisection, and
  ``tau3`` from ``w = 2`` on within 1.65 ulp.  With
  ``B = ceil(log2((b - a)/tol))``, the evaluation count of plain
  bisection, every Newton step after the B-th evaluation is within
  ``tol``, and so is the B-th bisection.  A start point other than the
  midpoint does not halve the bracket and can cost one evaluation more,
  so there are at most ``2*B + 1`` evaluations.  On 20 000 draws with
  ``eta`` log-uniform in [1e-6, 1e8] and ``pbar3`` log-uniform in
  [1e-300, 1], nearly all below ``w = 1``, a cold ``tau3`` solve made 2.2
  evaluations on average and at most 9 (6.1 and 9 from the midpoint),
  and a cold ``tau_conj`` solve 2.2 and at most 4, against about 44 for
  bisection.  With ``c`` log-uniform in [1e-6, 1e15] a cold conjugate
  solve made 1.8 on average and at most 4, against 6.1 and 9 from the
  midpoint.  On 400 diameter maximizations with ``i1/i3`` log-uniform in
  [1e-3, 1e5] (4 827 solves), a start at the quadratic through the three
  previous roots made 2.26 on average and at most 11.
  On 60 profiles with ``eta`` log-uniform in [1e-2, 1e4] and 201 to 1201
  rows (about 19 300 solves of each root) it made 2.08 per ``tau3`` and
  2.18 per ``tau_conj`` solve, and at most 7 and 4.

The conjugate equation is solved in the singularity-free form
``sin(tau) + c*tau*cos(tau) = 0``, whose derivative in ``tau`` is
``(1 + c)*cos(tau) - c*tau*sin(tau)``, on the bracket [pi/2, pi]; the
left side is 1 at pi/2 and strictly decreasing there, so it has exactly
one root; ``c = 0`` (pbar3 = +-1) gives exactly pi, by the end rule.  The root
``pi/2 + 2/(pi*c) + ...`` rounds to ``pi/2`` from ``c`` about 1.3e16 on and is
returned unsolved from ``c = 2**54`` on, so ``c*tau`` stays finite; so is
the cut root for ``w < 1``, in ``(pi/2, tau_conj(eta, 0)]``, from ``eta = 2**54``.

The cut equation is solved in an analytic bracket.  For ``pbar3 > 0`` it
is

* ``(pi/2, pi)``          when ``w < 1``,
* ``(pi/(2w), pi/2]``     when ``1 <= w < 2``,
* ``(pi/(2w), pi/w]``     when ``w >= 2``, solved in ``y = pi - w*tau`` (below).

On ``(0, a]``, with ``a`` the left end, the factors ``cos(tau)``,
``sin(w*tau)``, ``sin(tau)`` and ``cos(w*tau)`` are all nonnegative, so
the cut function is positive there; it is negative at the right end and
changes sign once in between, so the bracketed root is the first one.
Below ``w = 2`` the function is solved divided by ``pbar3``, which
keeps it from underflowing for subnormal ``pbar3`` and at ``pbar3 = 0``
is the conjugate function of ``c = eta``, to the bit, on its bracket.  With
``so = sin(w*tau)/pbar3`` its derivative in ``tau`` is
``cos(tau)*(eta*cos(w*tau) + cos(w*tau)) - sin(tau)*so*(1 + w*pbar3)``;
below ``w*tau = 1e-8``, where ``sin(u)/u`` rounds to 1, ``so`` is
``eta*tau`` and its derivative ``eta``.

From ``w = 2`` on the root lies within a relative ``O(1/eta)`` of
``pi/w``, and in ``tau`` the difference, which holds the root's digits,
rounds away.  So the equation is solved for ``y = pi - w*tau``, which is
about ``pi/eta`` there, on the same bracket, [0, pi/2] in ``y``, and the
root returned is ``(pi - y)/w``.  With ``x = (pi - y)/w`` it reads
``tan(y) = pbar3*tan(x)``, solved as

    ``g(y) = pbar3*cos(y)*sin(x) - sin(y)*cos(x) = 0``,

minus the cut function.  Its derivative
``-(sin(y)*sin(x)*(pbar3 + 1/w) + cos(y)*cos(x)*(1 + 1/eta))`` is
negative on (0, pi/2), so ``g`` falls from ``pbar3*sin(pi/w) > 0`` at 0
to ``-cos(pi/(2w)) < 0`` at pi/2.  The tolerance ``BISECT_TOL*min(w, pi)``
is ``BISECT_TOL*min(1, pi/w)`` in ``tau``, relative to the root's scale.

A given start is kept, mapped to ``y``, when it lies in [0, U] with
``U = pi*pbar3*w/(w^2 - 4)``.  By the Becker-Stark inequality
``tan(z) < pi^2*z/(pi^2 - 4*z^2)`` on (0, pi/2), ``U`` is above
``pbar3*tan(pi/w)`` and so above the root; it is ``pi/eta`` times
``w^2/(w^2 - 4)``.  From a start further right, Newton crawls toward a
root near 0.  Otherwise Newton starts at ``h``, the positive root of the
quadratic ``(T/w)*y^2 + (1 + 1/eta)*y - pbar3*T = 0``, ``T = tan(pi/w)``,
which the equation becomes with ``tan(y) ~ y`` and ``tan(y/w) ~ y/w``.
As ``tan`` grows faster than its argument, ``h`` is an upper bound for
the root up to rounding, at most about ``h^3/3`` above it.  From the
left, Newton's first step is about the distance to the root, which the
halving rule allows for a root below pi/4 with pi/2 as the bracket's
end; at the root's bound ``atan(pbar3*tan(pi/w))``, within ``O(1/eta)``
of the root, an end would make each such step a bisection.  On
20 000 draws with ``eta`` log-uniform in [2, 1.6e308] and ``w``
log-uniform in [2, eta] a cold solve made 1.02 evaluations on average
and at most 5; on 300 such draws the root was within 1.33 ulp of a
50-digit reference.

Every root lies in (0, pi] by construction of its bracket and is
returned as a plain float.
"""

from __future__ import annotations

import math

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
_HUGE = 2.0 ** 54  # from it on, tau_conj(c, 0) rounds to pi/2


_CONJ, _CUT, _CUT_Y = 0, 1, 2  # the forms _newton solves


def _newton(form: int, p: float, q: float, a: float, b: float, tol: float,
            start: float) -> float:
    # Safeguarded Newton on [a, b] for one of the module docstring's three functions,
    # each positive at a and negative at b, written out below with its derivative:
    #   _CONJ   the conjugate function in tau, c = p;
    #   _CUT    the cut function over pbar3 in tau, eta = p and s = q;
    #   _CUT_Y  g(y), s = p and w = q.
    # The module docstring states the rules.
    cos, sin, pi = math.cos, math.sin, math.pi
    if form == _CUT:
        w = p * q
        m = 1.0 + w * q
    elif form == _CUT_Y:
        r = 1.0 / q
        k1, k2 = p + r, 1.0 + p * r  # p/q is 1/eta
    else:
        c1 = 1.0 + p
    x = start if a <= start <= b else a if start < a else b if start > b else 0.5 * (a + b)
    allow = b - a  # halved before each step: the step bisection would take
    while True:
        if form == _CUT:
            u = w * x
            cu = cos(u)
            if u < _SMALL_ARG:  # sin(u)/s = eta*x*sin(u)/u
                so, dso = p * x, p
            else:
                so, dso = sin(u) / q, p * cu
            cx, sx = cos(x), sin(x)
            f, df = cx * so + sx * cu, cx * (dso + cu) - sx * so * m
        elif form == _CUT_Y:  # x is y, and v is tau = (pi - y)/w
            v = (pi - x) * r
            cy, sy = cos(x), sin(x)
            cv, sv = cos(v), sin(v)
            f, df = p * cy * sv - sy * cv, -(sy * sv * k1 + cy * cv * k2)
        else:
            cx, sx = cos(x), sin(x)
            f, df = sx + p * x * cx, c1 * cx - p * x * sx
        if f == 0.0:
            return x
        if f > 0.0:
            a = x
        else:
            b = x
        allow *= 0.5
        if abs(f) <= allow * -df:  # Newton where f falls, its target held in [a, b]
            dx = f / df
            x -= dx
            if not a <= x <= b:
                x = a if x < a else b
            if abs(dx) <= tol:
                return x
        else:
            dx = 0.5 * (b - a)
            if dx <= tol:
                # Newton's target held in [a, b], not the midpoint (see Termination)
                return min(max(x - f / df, a), b) if df else a + dx
            x = a + dx


def _tau3_value(eta: float, s: float, start: float = math.nan) -> float:
    # s = |pbar3| >= 0; the bracket, scaling and derivative are the module docstring's.
    # start is where Newton begins, held in the bracket, NaN meaning a cold start (the
    # module docstring's Start); from w = 2 on it is kept only below a bound on the
    # root, as the module docstring says.
    w = eta * s
    if w < 1.0:
        if eta >= _HUGE:  # the root lies in (pi/2, tau_conj(eta, 0)], which rounds to pi/2
            return 0.5 * math.pi
        if start != start:  # tau_conj(eta, 0)'s cold start, at the root's upper end
            start = _conj_start(eta)
        return _newton(_CUT, eta, s, 0.5 * math.pi, math.pi, BISECT_TOL, start)
    if w < 2.0:
        return _newton(_CUT, eta, s, 0.5 * math.pi / w, 0.5 * math.pi, BISECT_TOL, start)
    # in y = pi - w*tau
    r = 1.0 / w
    k2 = 1.0 + s * r  # s/w is 1/eta
    y = math.pi - w * start
    if not (0.0 <= y and y * (w - 4.0 * r) <= math.pi * s):  # y in [0, U]
        t = math.tan(math.pi * r)
        y = 2.0 * s * t / (k2 + math.sqrt(k2 * k2 + 4.0 * s * t * t * r))
    tol = BISECT_TOL * (w if w < math.pi else math.pi)
    return (math.pi - _newton(_CUT_Y, s, w, 0.0, 0.5 * math.pi, tol, y)) / w


def tau3(eta: float, pbar3: float) -> float:
    """First positive root of the cut equation; even in ``pbar3``.

    Requires ``eta > 0``.  Decreases strictly from ``tau_conj(eta, 0)``
    at ``pbar3 = 0`` (its limit, the root of the equation divided by
    ``pbar3`` there) to ``pi/(1 + eta)`` at ``pbar3 = +-1``, and equals
    ``pi/2`` at ``pbar3 = 1/eta`` when ``eta >= 1``.
    """
    eta = _real("eta", eta, positive=True)
    return _tau3_value(eta, abs(_pbar3(pbar3)))


def _conj_start(c: float) -> float:
    # the cold start of the conjugate root: pi/2 + (pi/2)/(1 + c*pi^2/4), which has the
    # root's asymptotes pi at c = 0 and pi/2 + 2/(pi*c) for large c
    return 0.5 * math.pi + 0.5 * math.pi / (1.0 + c * (0.25 * math.pi * math.pi))


def _tau_conj_value(eta: float, pbar3: float, start: float = math.nan) -> float:
    # tau_conj for a checked eta > 0 and pbar3; start as for _tau3_value
    c = eta * (1.0 - pbar3 * pbar3) / (1.0 + eta * pbar3 * pbar3)
    if c >= _HUGE:  # the root pi/2 + 2/(pi*c) + ... rounds to pi/2
        return 0.5 * math.pi
    if start != start:
        start = _conj_start(c)
    return _newton(_CONJ, c, 0.0, 0.5 * math.pi, math.pi, BISECT_TOL, start)


def tau_conj(eta: float, pbar3: float) -> float:
    """First positive root of the conjugate equation, in (pi/2, pi].

    Requires ``eta > 0``.  Solves ``sin(tau) + c*tau*cos(tau) = 0`` with
    ``c = eta*(1 - pbar3^2)/(1 + eta*pbar3^2)`` by safeguarded Newton on
    [pi/2, pi], where the left side is 1 at pi/2 and strictly decreasing,
    so the one root there is the first positive root; the iterate never
    leaves the shrinking bracket and takes at most twice the evaluations
    of bisection (see the module docstring).  Returns exactly pi when
    ``c == 0`` or the root is within rounding of pi, by the solver's end
    rule, and ``pi/2``, the root rounded, without a solve from ``c = 2**54`` on.
    """
    return _tau_conj_value(_real("eta", eta, positive=True), _pbar3(pbar3))


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
    eta = _real("eta", eta, positive=True)
    pbar3 = _pbar3(pbar3)
    if pbar3 == 0.0:
        raise DomainError("tau3_derivative is undefined at pbar3 = 0")
    s = abs(pbar3)
    d = _slopes(eta, s, _tau3_value(eta, s))[0]
    return d if pbar3 > 0.0 else -d
