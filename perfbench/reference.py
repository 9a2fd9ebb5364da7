"""The benchmark's own mathematics, written apart from the package.

Every check in the benchmark compares the package's output with a value
computed here, or with a property the mathematics requires.  Nothing in
this module imports ``bergersphere``: the closed form, the cut and
conjugate functions, the conjugate-time bisection and the free
symmetric-top flow are derived again from the equations in PAPER.md and
the package's module docstrings.

Conventions: a metric has eigenvalues ``(i1, i1, i3)``, ``eta = i1/i3 - 1``,
a unit-speed momentum with axis fraction ``s`` has Euclidean norm
``sqrt(i1/(1 + eta*s^2))``, and the reparametrized time is
``tau = t*|p|/(2*i1)``.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def diameter(i1: float, i3: float) -> "tuple[float, float]":
    """Three-regime diameter and the axis fraction where the profile peaks."""
    if i1 <= i3:
        return TWO_PI * math.sqrt(i1), 0.0
    if i1 <= 2.0 * i3:
        return TWO_PI * math.sqrt(i3), 1.0
    return math.pi * i1 / math.sqrt(i1 - i3), i3 / (i1 - i3)


def regime(i1: float, i3: float) -> str:
    if i1 <= i3:
        return "ROUND_DOMINATED"
    if i1 <= 2.0 * i3:
        return "MIDDLE"
    return "PROLATE"


def momentum_norm(i1: float, i3: float, s: float) -> float:
    return math.sqrt(i1 / (1.0 + (i1 / i3 - 1.0) * s * s))


def cut_time(i1: float, i3: float, tau, s):
    """``t = 2*i1*tau/|p|``; numpy-broadcasting in ``tau`` and ``s``."""
    eta = i1 / i3 - 1.0
    return 2.0 * math.sqrt(i1) * tau * np.sqrt(1.0 + eta * s * s)


def cut_function(eta: float, s, tau):
    """``cos(tau)*sin(eta*s*tau) + s*sin(tau)*cos(eta*s*tau)``, broadcasting."""
    w = eta * s
    return np.cos(tau) * np.sin(w * tau) + s * np.sin(tau) * np.cos(w * tau)


def conjugate_coefficient(eta: float, s):
    return eta * (1.0 - s * s) / (1.0 + eta * s * s)


def conjugate_function(eta: float, s, tau):
    """``sin(tau) + c*tau*cos(tau)``, whose first root past pi/2 is ``tau_conj``."""
    c = conjugate_coefficient(eta, s)
    return np.sin(tau) + c * tau * np.cos(tau)


def _bisect(f, lo: float, hi: float) -> float:
    # f(lo) > 0 >= f(hi); halve until the bracket stops shrinking
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def tau_conj(eta: float, s: float) -> float:
    """First root in (pi/2, pi] of the conjugate function, for ``eta > 0``."""
    c = float(conjugate_coefficient(eta, s))
    f = lambda x: math.sin(x) + c * x * math.cos(x)  # noqa: E731
    if f(math.pi) >= 0.0:
        return math.pi
    return _bisect(f, 0.5 * math.pi, math.pi)


def tau3(eta: float, s: float) -> float:
    """First positive root of the cut function, for ``eta > 0``.

    Scans (0, pi] at a step of at most a sixteenth of the half-period
    ``pi/(eta*s)`` of the fast factor, then bisects the first cell whose
    right end is not positive.  At ``s = 0`` the cut function vanishes
    identically and the root is its limit ``tau_conj(eta, 0)``.
    """
    s = abs(s)
    if s == 0.0:
        return tau_conj(eta, 0.0)
    n = max(1024, int(math.ceil(16.0 * eta * s)))
    grid = np.linspace(0.0, math.pi, n + 1)[1:]
    vals = cut_function(eta, s, grid)
    k = int(np.argmax(vals <= 0.0))
    if vals[k] > 0.0:
        raise ArithmeticError(f"no root of the cut function on (0, pi] at eta={eta}, s={s}")
    lo = 0.0 if k == 0 else float(grid[k - 1])
    return _bisect(lambda x: float(cut_function(eta, s, x)), lo, float(grid[k]))


def _qmul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _qexp(v) -> np.ndarray:
    # exp of the pure quaternion v, as a unit quaternion
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate(([math.cos(n)], math.sin(n) / n * v))


def flow(i1: float, i3: float, p0, t: float) -> "tuple[np.ndarray, np.ndarray]":
    """Exact endpoint ``(q, p)`` of the geodesic from the identity.

    The geodesic equations ``dp/dt = p x Omega`` and ``dq/dt = q*Omega/2``
    with ``Omega = (p1/i1, p2/i1, p3/i3)`` are those of a free symmetric
    top.  ``p3`` is constant and the body momentum turns about ``e3`` at the
    rate ``b = (1/i3 - 1/i1)*p3``, so ``Omega = p/i1 + b*e3``.  In the frame
    turning with it the angular velocity is the constant ``p0/i1``, which
    gives ``q(t) = exp(t*p0/(2*i1)) * exp(t*b*e3/2)``.
    """
    p0 = np.asarray(p0, dtype=float)
    b = (1.0 / i3 - 1.0 / i1) * p0[2]
    q = _qmul(_qexp(t * p0 / (2.0 * i1)), _qexp([0.0, 0.0, 0.5 * b * t]))
    c, s = math.cos(b * t), math.sin(b * t)
    p = np.array([c * p0[0] + s * p0[1], c * p0[1] - s * p0[0], p0[2]])
    return q, p


def hamiltonian(i1: float, i3: float, p) -> float:
    return 0.5 * ((p[0] * p[0] + p[1] * p[1]) / i1 + p[2] * p[2] / i3)


def quaternion_distance(a, b) -> float:
    """Largest componentwise gap between two unit quaternions."""
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))
