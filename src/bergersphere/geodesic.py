"""Numerical geodesic flow on SU(2), independent of the closed forms.

The geodesic equations split into the momentum equation (free rigid body
in the body frame) and the reconstruction of the group element as a unit
quaternion:

    dp/dt = p x Omega,        Omega = (p1/i1, p2/i1, p3/i3)
    dq/dt = (1/2) * q * Omega_hat

where ``Omega_hat`` is the body angular velocity as a pure quaternion.
The factor 1/2 and the ordering of the quaternion product are pinned by
the round-case calibration: for ``i1 = i3 = I`` the flow must reach
``-identity`` at ``t = 2*pi*sqrt(I)``.

The module solves this system two ways:

* ``exp_map`` and ``endpoint_state`` integrate the joint system with
  fixed-step classical RK4, taking each step for ``i1 = i2`` as one
  quaternion product (see ``_rk4``) and renormalizing the quaternion; the
  drift in the conserved quantities is this reference integrator's error
  estimate.
* ``conjugate_time_numeric`` and ``shorter_path_search`` use the exact
  flow.  With ``i1 = i2`` the system is the free symmetric top, whose
  solution is a product of two one-parameter subgroups (see ``_flow``);
  a test checks it against the integrator.  The conjugate oracle
  differentiates the flow in closed form; a test checks the determinant
  against central differences of ``_flow``, and with it that ``sin(a)``
  is an exact factor of the determinant.

The oracles built on the flow:

* ``exp_map``: endpoint of the geodesic with a given unit-speed momentum;
* ``conjugate_time_numeric``: first vanishing of the determinant of the
  differential of the endpoint map, assembled from the endpoint velocity
  and the flow's exact derivatives in two level-set directions.  The
  determinant is ``sin(a)*D`` with ``a = t*|p0|/(2*i1)``: the first
  conjugate time is the first zero of ``D``, found by a scan for a sign
  change and a bracketed root finder, or else ``t_pi``, where ``a = pi``
  and every geodesic of the family meets.  It agrees with the conjugate
  equation's root within 1e-12 relative at every scale;
* ``shorter_path_search``: the shortest geodesic reaching a given
  endpoint strictly earlier, from a bracketed scan of the endpoint map's
  preimages, which are the zeros of one phase along one curve per branch.

The RK4 loop and the conjugate determinant are written out on scalar
locals for speed; tests pin them, bit for bit, to compact forms.

Nothing here calls ``tau3``, ``tau_conj`` or ``t_cut``: both routes use
only the geodesic equations, never the cut or conjugate root equations,
so agreement with the transcendental root solvers is meaningful evidence
for both.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, NoConjugatePoint, NormalizationError
from .model import BergerMetric, Momentum, _pbar3, _real, momentum_norm

__all__ = [
    "UnitQuaternion",
    "GeodesicState",
    "ShorterPath",
    "initial_momentum",
    "exp_map",
    "endpoint_state",
    "conservation_drift",
    "conjugate_time_numeric",
    "shorter_path_search",
]

_H_LEVEL_TOL = 1e-10     # admissible deviation of H(p0) from 1/2
_H_DRIFT_TOL = 1e-6      # relative drift of H that aborts an integration
_CONJ_GRID_N = 400       # sign-scan resolution for the determinant
_SEARCH_MARGIN = 1e-4    # required arrival-time advantage, relative to t
_CELL_PHASE = 0.25       # bound on each phase term per cell of the preimage scan


@dataclass(frozen=True)
class UnitQuaternion:
    """Group element of SU(2) as a unit quaternion ``w + xi + yj + zk``."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if not math.isfinite(n) or abs(n - 1.0) > 1e-9:
            raise ValueError(f"quaternion norm {n!r} is not 1 within 1e-9")


@dataclass(frozen=True)
class GeodesicState:
    """Integration snapshot: group element, momentum, and elapsed time."""

    q: UnitQuaternion
    p: Momentum
    t: float


@dataclass(frozen=True)
class ShorterPath:
    """A geodesic reaching the target strictly earlier than the reference."""

    momentum: Momentum
    arrival_time: float


def _identity_step(c1s: float, w3: float, b: float, h: float, k: float) -> tuple:
    """Increments ``(D, du)`` of ``_rk4``'s textbook step from ``q = 1``, ``u = (k, 0)``."""
    stages, (kw, kx, ky, kz), g1, g2 = [], (0.0, 0.0, 0.0, 0.0), 0.0, 0.0
    for c in (0.0, 0.5 * h, 0.5 * h, h):
        s1, s2 = k + c * g1, c * g2; w1, w2 = c1s * s1, c1s * s2
        # the stage at q = 1 + c*K is (1 + c*K)*W, taken as W + c*(K*W): nothing rounds at 1
        kw, kx, ky, kz = (c * -(kx * w1 + ky * w2 + kz * w3),
                          w1 + c * (kw * w1 + ky * w3 - kz * w2),
                          w2 + c * (kw * w2 + kz * w1 - kx * w3),
                          w3 + c * (kw * w3 + kx * w2 - ky * w1))
        g1, g2 = b * s2, -b * s1
        stages.append((kw, kx, ky, kz, g1, g2))
    return tuple(h / 6.0 * (a + 2.0 * (b2 + c3) + d) for a, b2, c3, d in zip(*stages))


def _rk4(y: tuple, a1: float, a3: float, h: float, n: int) -> tuple:
    """n fixed classical RK4 steps of the joint flow, renormalizing q each step.

    ``y = (qw, qx, qy, qz, p1, p2, p3)``, ``a1 = 1/i1``, ``a3 = 1/i3``.  For
    ``i1 = i2`` and ``u = (p1, p2)/|p0|``, ``dq = q*(0, c1s*u1, c1s*u2, w3)``
    and ``du = (b*u2, -b*u1)`` with ``c1s = a1*|p0|/2``, ``w3 = a3*p3/2`` and
    ``b = (a3 - a1)*p3``; ``p3`` is constant.  Each stage of ``dq`` is ``q``
    times a quaternion, so a textbook step maps ``q`` to ``q + q*D(u)``, with
    ``D`` its q-increment from ``q = 1``.  RK4 commutes with the field's
    rotations about ``e3``, so in ``m = |u|^2`` the step has ``D0, Dz``
    quadratic, ``(Dx, Dy) = alpha*u + beta*(e3 x u)`` with ``alpha, beta``
    linear, and ``du = r0*u + r1*(e3 x u)``.  The coefficients come from the
    textbook step at ``u = 0, e1, 2*e1`` (``_identity_step``), never from
    the exact flow.
    """
    qw, qx, qy, qz, p1, p2, p3 = y
    s = math.hypot(p1, p2, p3)
    u1 = p1 / s; u2 = p2 / s
    at0, at1, at2 = (_identity_step(0.5 * a1 * s, 0.5 * a3 * p3, (a3 - a1) * p3, h, k)
                     for k in (0.0, 1.0, 2.0))
    # D0, Dz through their values at m = 0, 1, 4; alpha, beta through m = 1, 4
    r0, r1 = at1[4:]; e0, z0 = at0[0], at0[3]
    e2 = (at2[0] - e0 - 4.0 * (at1[0] - e0)) / 12.0; e1 = at1[0] - e0 - e2
    z2 = (at2[3] - z0 - 4.0 * (at1[3] - z0)) / 12.0; z1 = at1[3] - z0 - z2
    al1 = (0.5 * at2[1] - at1[1]) / 3.0; al0 = at1[1] - al1
    be1 = (0.5 * at2[2] - at1[2]) / 3.0; be0 = at1[2] - be1
    for _ in range(n):
        m = u1 * u1 + u2 * u2
        d0 = e0 + m * (e1 + m * e2); dz = z0 + m * (z1 + m * z2)
        al = al0 + m * al1; be = be0 + m * be1
        dx = al * u1 - be * u2; dy = al * u2 + be * u1
        # q + q*D, then u + r0*u + r1*(e3 x u); hypot cannot overflow, so divergence gives NaN
        qw, qx, qy, qz = (qw + (qw * d0 - qx * dx - qy * dy - qz * dz),
                          qx + (qw * dx + qx * d0 + qy * dz - qz * dy),
                          qy + (qw * dy - qx * dz + qy * d0 + qz * dx),
                          qz + (qw * dz + qx * dy - qy * dx + qz * d0))
        u1, u2 = u1 + (r0 * u1 - r1 * u2), u2 + (r0 * u2 + r1 * u1)
        r = 1.0 / math.hypot(qw, qx, qy, qz)
        qw = qw * r; qx = qx * r; qy = qy * r; qz = qz * r
    return (qw, qx, qy, qz, u1 * s, u2 * s, p3)


def _flow(m: BergerMetric, p0, t: float) -> tuple:
    """Exact state at time ``t`` of the geodesic from the identity with momentum ``p0``.

    With ``i1 = i2`` the flow is the free symmetric top.  Writing
    ``b = (1/i3 - 1/i1)*p3``, the body momentum turns about ``e3`` by the
    angle ``-b*t`` and ``q(t) = exp(t*p0/(2*i1)) * exp(t*b*e3/2)``, where
    ``exp(v) = (cos|v|, sin|v|*v/|v|)``.  ``a = t*|p0|/(2*i1)`` and ``t*b/2 = a*eta*p3/|p0|``
    are formed in units of ``sqrt(i1)``, so no scale overflows.  Returns
    ``(qw, qx, qy, qz, p1, p2, p3)``.
    """
    p1, p2, p3 = p0
    n = math.hypot(p1, p2, p3)
    a = t / (2.0 * math.sqrt(m.i1)) * (n / math.sqrt(m.i1))
    half = a * m.eta() * (p3 / n)
    ca, f = math.cos(a), math.sin(a) / n  # exp(t*p0/(2*i1)) = (ca, f*p0)
    cb, sb = math.cos(half), math.sin(half)  # exp(t*b*e3/2) = (cb, sb*e3)
    c, s = math.cos(2.0 * half), math.sin(2.0 * half)
    return (
        ca * cb - f * p3 * sb,
        f * (p1 * cb + p2 * sb),
        f * (p2 * cb - p1 * sb),
        ca * sb + f * p3 * cb,
        c * p1 + s * p2,
        c * p2 - s * p1,
        p3,
    )


def _hamiltonian(i1: float, i3: float, p1: float, p2: float, p3: float) -> float:
    return 0.5 * ((p1 * p1 + p2 * p2) / i1 + p3 * p3 / i3)


def initial_momentum(m: BergerMetric, pbar3: float, phi: float) -> Momentum:
    """Unit-speed momentum with axis fraction ``pbar3`` and equatorial angle ``phi``."""
    phi = _real("phi", phi, finite=True)
    pbar3 = _pbar3(pbar3)
    norm = momentum_norm(m, pbar3)
    s = math.sqrt(max(0.0, 1.0 - pbar3 * pbar3))
    return Momentum(
        p1=norm * s * math.cos(phi),
        p2=norm * s * math.sin(phi),
        p3=norm * pbar3,
    )


def _check_level(m: BergerMetric, p0: Momentum) -> None:
    h = _hamiltonian(m.i1, m.i3, p0.p1, p0.p2, p0.p3)
    if abs(h - 0.5) > _H_LEVEL_TOL:
        raise DomainError(f"momentum is not on the unit-speed level: H={h!r}")


def exp_map(m: BergerMetric, p0: Momentum, t: float, step: float) -> UnitQuaternion:
    """Endpoint of the geodesic from the identity with momentum ``p0``.

    ``step`` is the requested integrator step; it must not exceed
    ``t/1000`` so that accuracy claims hold uniformly.  The actual step
    divides ``t`` exactly.
    """
    return endpoint_state(m, p0, t, step).q


def endpoint_state(m: BergerMetric, p0: Momentum, t: float, step: float) -> GeodesicState:
    """Like ``exp_map`` but also returns the transported momentum.

    The momentum drift relative to the conserved quantities
    (``conservation_drift``) is the integrator's error estimate.
    """
    t = _real("t", t, finite=True)
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t!r}")
    _check_level(m, p0)
    if t == 0.0:
        return GeodesicState(q=UnitQuaternion(1.0, 0.0, 0.0, 0.0), p=p0, t=0.0)
    step = _real("step", step, positive=True)
    if step > t / 1000.0:
        raise ValueError(f"step {step!r} exceeds t/1000 = {t / 1000.0!r}")
    n = math.ceil(t / step)
    y = _rk4((1.0, 0.0, 0.0, 0.0, p0.p1, p0.p2, p0.p3), 1.0 / m.i1, 1.0 / m.i3, t / n, n)
    h_end = _hamiltonian(m.i1, m.i3, y[4], y[5], y[6])
    # a diverged run gives NaN, in q alone where p is conserved exactly
    if not abs(h_end - 0.5) <= _H_DRIFT_TOL * 0.5 or math.isnan(y[0] + y[1] + y[2] + y[3]):
        raise NormalizationError(
            f"Hamiltonian drifted to {h_end!r}, q to {y[:4]!r} over t={t!r} with {n} steps"
        )
    return GeodesicState(
        q=UnitQuaternion(y[0], y[1], y[2], y[3]),
        p=Momentum(y[4], y[5], y[6]),
        t=float(t),
    )


def conservation_drift(m: BergerMetric, p0: Momentum, p: Momentum) -> "dict[str, float]":
    """Relative drifts of energy, momentum norm and axis momentum from ``p0`` to ``p``.

    The energy is compared with the unit-speed level 1/2, the other two
    relative to ``|p0|``.
    """
    norm0 = p0.norm()
    return {
        "hamiltonian_rel": abs(_hamiltonian(m.i1, m.i3, p.p1, p.p2, p.p3) - 0.5) / 0.5,
        "momentum_norm_rel": abs(p.norm() - norm0) / norm0,
        "axis_momentum_rel": abs(p.p3 - p0.p3) / norm0,
    }


# Dot products are written out left to right, so the rounding is the same on
# every Python version (``sum`` of floats is compensated since 3.12).
def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _conjugate_determinant(m: BergerMetric, pbar3: float) -> "tuple[Callable, float]":
    """``(D, t_pi)`` along the geodesic with ``pbar3``: ``D = det/sin(a)``, and ``a = pi`` at ``t_pi``.

    ``_flow`` at ``phi = 0`` is ``q(t) = exp(a*e) * exp(a*eta*pbar3*e3)``,
    with ``e = p0/|p0| = (sqrt(1 - pbar3^2), 0, pbar3)`` and
    ``a = t*|p0|/(2*i1) = t*rate``.  Its left-trivialized derivative along
    a momentum direction ``v``, times ``|p0|``, is (up to the rotation
    ``exp(-a*eta*pbar3*e3)``, which leaves the triple product unchanged)

        c(v) = a*((e.v)*e + eta*v3*e3)
               + sin(a)*(cos(a)*(v - (e.v)*e) - sin(a)*(e x v)).

    ``u`` is the direction of both ``omega`` and ``grad H`` at ``p0``, and
    ``v1, v2`` span the level set's tangent plane with ``v1 x v2 = s*u``, so
    ``det(t) = u . (c(v1) x c(v2))`` is the determinant of the columns
    ``omega``, ``c(v1)``, ``c(v2)`` up to a positive factor that does not
    depend on ``t``.  The turn of ``phi``, ``v1 = e2``, has ``e.v1 = 0`` and
    no ``e3`` part, so ``c(v1) = sin(a)*(sin(a)*pbar3, cos(a), -sin(a)*e0)``
    and ``det = sin(a)*D``: ``D`` is the triple product with that last
    factor as its column.  ``sin(a)`` vanishes first at ``t_pi = pi/rate``,
    where every ``phi`` meets, as ``exp(pi*e) = -1``.  The power of two
    ``s``, 1 below ``eta = 2**1000``, keeps ``a*eta*v3`` finite up to the
    float maximum; it scales ``c(v2)`` exactly.  Times are in units of
    ``sqrt(i1)`` through ``rate``, so the columns are the same at every
    scale.  ``D`` is left as a triple product and its zeros to the scan,
    so the oracle never uses the conjugate equation.
    """
    eta = m.eta()
    e0 = math.sqrt(max(0.0, 1.0 - pbar3 * pbar3))
    e = (e0, 0.0, pbar3)
    rate = 0.5 / (math.sqrt(m.i1) * math.sqrt(1.0 + eta * pbar3 * pbar3))
    n = math.hypot(e0, (1.0 + eta) * pbar3)
    u0, u1, u2 = e0 / n, 0.0, (1.0 + eta) * pbar3 / n
    s = math.ldexp(1.0, min(0, 1000 - math.frexp(eta)[1]))
    v = (-u2 * s, 0.0, u0 * s)
    ev = _dot(e, v)
    along = (ev * e[0], ev * e[1], ev * e[2] + eta * v[2])
    across = (v[0] - ev * e[0], v[1] - ev * e[1], v[2] - ev * e[2])
    # the parts of c(v2) multiplied by a, sin*cos and sin^2
    (g0, h0, k0), (g1, h1, k1), (g2, h2, k2) = zip(along, across, _cross(e, v))

    def det(t: float) -> float:
        # _dot(u, _cross(x, y)) on scalar locals, the zero u1 term kept; x1 = cos(a)
        a = t * rate
        ca, sa = math.cos(a), math.sin(a)
        x0, x2 = sa * pbar3, -sa * e0
        y0 = a * g0 + sa * (ca * h0 - sa * k0)
        y1 = a * g1 + sa * (ca * h1 - sa * k1)
        y2 = a * g2 + sa * (ca * h2 - sa * k2)
        return u0 * (ca * y2 - x2 * y1) + u1 * (x2 * y0 - x0 * y2) + u2 * (x0 * y1 - ca * y0)

    return det, math.pi / rate


def conjugate_time_numeric(m: BergerMetric, pbar3: float, t_max: float) -> float:
    """First conjugate time along the geodesic with axis fraction ``pbar3``.

    Differentiates the exact flow in closed form: the determinant of the
    endpoint map's differential, assembled from the endpoint velocity and
    the derivatives in two level-set directions, is ``sin(a)*D(t)``
    (``_conjugate_determinant``).  ``sin(a)`` first vanishes at ``t_pi``,
    where all geodesics of the family meet, so the first conjugate time is
    the first zero of ``D`` before ``t_pi``, or else ``t_pi``.  ``D`` is
    scanned for a sign change on 400 cells of ``(0, min(t_max, t_pi)]``,
    evaluated at their midpoints and at the end: ``D(0) = 0``, as every
    geodesic starts at a degenerate point of the exponential map.  The
    scan stops at the first sign change, which ``_bracketed_root`` refines
    to a few ulps; over metrics from subnormal to the float maximum and
    ``eta`` from 1e-9 to 1e300, the time agrees with the conjugate
    equation's root to within 1e-12 relative.  Defined for ``eta > 0``;
    raises NoConjugatePoint when ``D`` keeps its sign up to ``t_max < t_pi``.
    """
    eta = m.eta()
    if eta <= 0.0:
        raise DomainError(f"conjugate times require eta > 0, got eta={eta!r}")
    t_max = _real("t_max", t_max, finite=True, positive=True)
    det_at, t_pi = _conjugate_determinant(m, _pbar3(pbar3))
    end = min(t_max, t_pi)
    dt = end / _CONJ_GRID_N
    t0 = d0 = None
    for k in range(_CONJ_GRID_N + 1):
        t1 = min(end, (k + 0.5) * dt)  # the last point is the end itself
        d1 = det_at(t1)
        if d1 == 0.0:
            return t1
        if k and (d1 > 0.0) != (d0 > 0.0):
            return _bracketed_root(det_at, t0, t1, d0, d1, lambda x0, x1: x0 + 0.5 * (x1 - x0))
        t0, d0 = t1, d1
    if t_pi <= t_max:
        return t_pi
    raise NoConjugatePoint(f"determinant kept its sign on (0, {t_max}]")


def _bracketed_root(f: Callable[[float], float], x0: float, x1: float, f0: float, f1: float,
                    middle: Callable[[float, float], float]) -> float:
    """Zero of ``f`` between ``x0`` and ``x1``, where ``f0 = f(x0)`` and ``f1 = f(x1)`` differ in sign.

    Secant steps through the bracket's ends, and ``middle(x0, x1)`` after two that replace
    the same end.  Stops at a zero or at a point on an end; returns the end with smaller ``|f|``.
    """
    (xn, fn), (xp, fp) = ((x0, f0), (x1, f1)) if f0 < 0.0 else ((x1, f1), (x0, f0))
    last, bisect = None, False
    for _ in range(200):
        x = middle(xn, xp) if bisect else xp - (xp - xn) * (fp / (fp - fn))
        if not (xn < x < xp or xp < x < xn):
            break
        fx = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            xp, fp = x, fx
        else:
            xn, fn = x, fx
        bisect, last = not bisect and (fx > 0.0) == last, fx > 0.0
    return xp if abs(fp) < abs(fn) else xn


def shorter_path_search(m: BergerMetric, p0: Momentum, t: float) -> Optional[ShorterPath]:
    """The shortest geodesic that reaches ``exp_map(m, p0, t)`` before ``t*(1 - 1e-4)``, or None.

    By ``_flow``, the geodesic with axis fraction ``s``, angle ``phi`` and
    ``a = t*|p|/(2*i1)`` ends at ``Z = qw + i*qz = exp(i*a*eta*s)*(cos a + i*s*sin a)``
    and ``qx + i*qy = sqrt(1 - s^2)*sin a*exp(i*(phi - a*eta*s))`` after
    ``t = 2*sqrt(i1)*a*sqrt(1 + eta*s^2)``, so ``phi`` follows from ``(s, a)``.
    With ``rho = |Z|`` and ``sigma = sqrt(1 - rho^2)`` of the target, the
    ``(s, a)`` with ``k*pi < a < (k + 1)*pi`` form a closed curve, charted
    by ``chi = arg(cos a + i*s*sin a)`` on the sheets ``a = k*pi + alpha``
    and ``(k + 1)*pi - alpha``, where ``cos(alpha) = rho*cos(chi)``,
    ``s*sin(alpha) = rho*sin(chi)`` and ``|chi| <= pi/2``.  A preimage is a
    crossing of ``2*pi*j`` by the unwrapped phase ``G`` of ``z(s, a)/Z``, refined by a
    safeguarded secant.  The cut equation is the ``qz = 0`` case, never solved as such.

    Grid bound: ``dG = +-(1 + eta*s^2)*dchi + eta*a*ds``, ``s`` rising in
    ``chi``; a sheet is cut at points uniform in ``chi`` and in ``s`` so that
    each term moves at most 1/4 radian per cell, and two preimages share a
    cell only where ``G`` turns back within 1/2 radian of a level.  For
    ``eta > 0``, arriving before the limit bounds ``|s|`` through the
    sheet's least ``a`` and ``a >= sin(alpha) = sigma/sqrt(1 - s^2)``.  The
    limit falls to each arrival found; the branches end at the first that
    cannot beat it.  ``sigma`` is raised to the least normal float, which takes in targets
    on the ``e3`` subgroup (reached by the axis geodesics and at ``a = k*pi``) with an
    endpoint error below 1e-307.  Times are in units of ``sqrt(i1)`` and the margin is
    relative, so no scale differs.
    """
    t = _real("t", t, finite=True, positive=True)
    _check_level(m, p0)
    eta, r1, pi = m.eta(), math.sqrt(m.i1), math.pi
    qw, qx, qy, qz = _flow(m, (p0.p1, p0.p2, p0.p3), t)[:4]
    # |Z| can round past 1 on the e3 subgroup, which would put s = 1 off the chart
    rho, theta, omega = min(1.0, math.hypot(qw, qz)), math.atan2(qz, qw), math.atan2(qy, qx)
    sigma = max(math.hypot(qx, qy), sys.float_info.min)
    limit = t / (2.0 * r1) * (1.0 - _SEARCH_MARGIN)  # in units of 2*sqrt(i1), as arrivals are
    least = math.sqrt(1.0 + min(eta, 0.0))  # least sqrt(1 + eta*s^2)
    alpha0 = math.atan2(sigma, rho)  # least alpha, at chi = 0
    best = None

    def chart(chi: float, base: float, sign: float) -> tuple:
        # (a, s, sqrt(1 - s^2), G) at chi on the sheet a = base + sign*alpha
        sc = rho * math.sin(chi)
        d = math.hypot(sc, sigma)
        a, s = base + sign * math.atan2(d, rho * math.cos(chi)), sc / d
        return a, s, sigma / d, a * eta * s + base + sign * chi - theta

    def chi_at_s(s: float) -> float:  # rho*sin(chi) = sigma*s/sqrt(1 - s^2)
        return math.atan2(sigma * s, math.sqrt(max(0.0, rho - abs(s))) * math.sqrt(rho + abs(s)))

    k = 0
    while (k * pi + alpha0) * least < limit:
        for base, sign in ((k * pi, 1.0), ((k + 1) * pi, -1.0)):
            a_lo = k * pi + (alpha0 if sign > 0.0 else 0.5 * pi)
            if a_lo * least >= limit:
                continue
            r, q = limit / a_lo, sigma / limit
            s_hi = 1.0 if eta <= 0.0 else math.sqrt(min((r - 1.0) * (r + 1.0) / eta,
                                                        max(0.0, 1.0 - q * q) / (1.0 + eta * q * q)))
            c = chi_at_s(min(1.0, s_hi))
            # on [-c, c], s^2 is largest at the ends and a at an end or at 0
            (a_c, s_c), a_0 = chart(c, base, sign)[:2], chart(0.0, base, sign)[0]
            w_chi, w_s = 1.0 + max(eta, 0.0) * s_c * s_c, abs(eta) * max(a_c, a_0)
            n_chi = math.ceil(w_chi * 2.0 * c / _CELL_PHASE)
            n_s = math.ceil(w_s * 2.0 * s_c / _CELL_PHASE)
            chis = sorted([c * (2.0 * i / n_chi - 1.0) for i in range(n_chi + 1)]
                          + [chi_at_s(s_c * (2.0 * j / n_s - 1.0)) for j in range(1, n_s)])
            gs = [chart(x, base, sign)[3] for x in chis]

            def middle(x0: float, x1: float) -> float:
                # halves the larger of the bracket's two phase terms
                u0, u1 = chart(x0, base, sign)[1], chart(x1, base, sign)[1]
                if w_chi * abs(x1 - x0) >= w_s * abs(u1 - u0):
                    return 0.5 * (x0 + x1)
                return chi_at_s(0.5 * (u0 + u1))

            for x0, x1, g0, g1 in zip(chis, chis[1:], gs, gs[1:]):
                for j in range(math.ceil(min(g0, g1) / (2.0 * pi)),
                               math.floor(max(g0, g1) / (2.0 * pi)) + 1):
                    level = 2.0 * pi * j
                    x = x0 if g0 == level else _bracketed_root(
                        lambda x: chart(x, base, sign)[3] - level, x0, x1,
                        g0 - level, g1 - level, middle)
                    a, s, cs, _ = chart(x, base, sign)
                    arrival = a * math.sqrt(1.0 + eta * s * s)
                    if arrival < limit:
                        limit, best = arrival, (a, s, cs, k)
        k += 1
    if best is None:
        return None
    # initial_momentum's arithmetic, with sqrt(1 - s^2) from the chart where 1 - s*s cancels
    a, s, cs, k = best
    phi, norm = omega + a * eta * s + k * pi, r1 / math.sqrt(1.0 + eta * s * s)
    momentum = Momentum(norm * cs * math.cos(phi), norm * cs * math.sin(phi), norm * s)
    return ShorterPath(momentum=momentum, arrival_time=2.0 * r1 * limit)
