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
  a test checks it against the integrator.  Both oracles differentiate
  the flow in closed form where they can; tests check the derivatives
  against central differences of ``_flow``.

The oracles built on the flow:

* ``exp_map``: endpoint of the geodesic with a given unit-speed momentum;
* ``conjugate_time_numeric``: first vanishing of the determinant of the
  differential of the endpoint map, assembled from the endpoint velocity
  and the flow's exact derivatives in two level-set directions, found by
  a numerical scan;
* ``shorter_path_search``: damped least-squares shooting that looks for a
  geodesic reaching a given endpoint strictly earlier.

The RK4 loop, the conjugate determinant and the shooting loop (residual,
Jacobian, normal equations and their Cramer solve) are written out on
scalar locals for speed; tests pin them, bit for bit, to compact forms.

Nothing here calls ``tau3``, ``tau_conj`` or ``t_cut``: both routes use
only the geodesic equations, never the cut or conjugate root equations,
so agreement with the transcendental root solvers is meaningful evidence
for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError, NoConjugatePoint, NormalizationError
from .model import BergerMetric, Momentum, _integer, _pbar3, _real, momentum_norm

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
_SHOOT_MARGIN = 1e-4     # required arrival-time advantage
_SHOOT_RESIDUAL = 1e-7   # endpoint mismatch accepted as a hit


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
    ``exp(v) = (cos|v|, sin|v|*v/|v|)``.  Returns
    ``(qw, qx, qy, qz, p1, p2, p3)``.
    """
    p1, p2, p3 = p0
    b = (1.0 / m.i3 - 1.0 / m.i1) * p3
    n = math.sqrt(p1 * p1 + p2 * p2 + p3 * p3)
    a = t * n / (2.0 * m.i1)
    ca, f = math.cos(a), math.sin(a) / n  # exp(t*p0/(2*i1)) = (ca, f*p0)
    cb, sb = math.cos(0.5 * b * t), math.sin(0.5 * b * t)  # exp(t*b*e3/2) = (cb, sb*e3)
    c, s = math.cos(b * t), math.sin(b * t)
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


def _conjugate_determinant(m: BergerMetric, pbar3: float) -> Callable[[float], float]:
    """``det(t)`` of the endpoint map's differential along the geodesic with ``pbar3``.

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
    depend on ``t``.  The power of two ``s``, 1 below ``eta = 2**1000``,
    keeps ``a*eta*v3`` finite up to the float maximum; it scales ``c(v2)``
    exactly.  Times are in units of ``sqrt(i1)`` through ``rate``, so the
    columns are the same at every scale.  The determinant is left as a
    triple product and its zeros to the scan, so the oracle never uses
    the conjugate equation.
    """
    eta = m.eta()
    e = (math.sqrt(max(0.0, 1.0 - pbar3 * pbar3)), 0.0, pbar3)
    rate = 0.5 / (math.sqrt(m.i1) * math.sqrt(1.0 + eta * pbar3 * pbar3))
    n = math.hypot(e[0], (1.0 + eta) * pbar3)
    u0, u1, u2 = e[0] / n, 0.0, (1.0 + eta) * pbar3 / n
    cols = []  # per direction: the parts of c(v) multiplied by a, sin*cos and sin^2
    s = math.ldexp(1.0, min(0, 1000 - math.frexp(eta)[1]))
    for v in ((0.0, 1.0, 0.0), (-u2 * s, 0.0, u0 * s)):
        ev = _dot(e, v)
        along = (ev * e[0], ev * e[1], ev * e[2] + eta * v[2])
        across = (v[0] - ev * e[0], v[1] - ev * e[1], v[2] - ev * e[2])
        cols.append(tuple(zip(along, across, _cross(e, v))))
    ((g0, h0, k0), (g1, h1, k1), (g2, h2, k2)), ((G0, H0, K0), (G1, H1, K1), (G2, H2, K2)) = cols

    def det(t: float) -> float:
        # _dot(u, _cross(c1, c2)) on scalar locals, the zero u1 term kept
        a = t * rate
        ca, sa = math.cos(a), math.sin(a)
        x0 = a * g0 + sa * (ca * h0 - sa * k0)
        x1 = a * g1 + sa * (ca * h1 - sa * k1)
        x2 = a * g2 + sa * (ca * h2 - sa * k2)
        y0 = a * G0 + sa * (ca * H0 - sa * K0)
        y1 = a * G1 + sa * (ca * H1 - sa * K1)
        y2 = a * G2 + sa * (ca * H2 - sa * K2)
        return u0 * (x1 * y2 - x2 * y1) + u1 * (x2 * y0 - x0 * y2) + u2 * (x0 * y1 - x1 * y0)

    return det


def conjugate_time_numeric(m: BergerMetric, pbar3: float, t_max: float) -> float:
    """First conjugate time along the geodesic with axis fraction ``pbar3``.

    Differentiates the exact flow in closed form: the determinant of the
    endpoint map's differential, assembled from the endpoint velocity and
    the derivatives in two level-set directions (``_conjugate_determinant``),
    is scanned for its first vanishing on a 400-point time grid.  The grid
    is offset by half a step because ``det(0) = 0``: every geodesic starts
    at a degenerate point of the exponential map.  The scan evaluates each
    grid determinant when it reaches it and stops at the first crossing or
    accepted tangency, so the grid past the event is never computed.  A
    sign change is refined by bisection; a deep tangency of ``|det|`` (an
    even-order zero, which the axis geodesics produce because their
    conjugate points have multiplicity two) is refined by golden-section
    minimization.  Two simple zeros in one grid cell also show as a dip
    without a sign change; when the accepted tangency has the other sign
    just before it, the earlier zero is found by bisection.  Defined for
    ``eta > 0``; raises NoConjugatePoint when the determinant neither
    crosses nor touches zero up to ``t_max``.
    """
    eta = m.eta()
    if eta <= 0.0:
        raise DomainError(f"conjugate times require eta > 0, got eta={eta!r}")
    t_max = _real("t_max", t_max, finite=True, positive=True)
    det_at = _conjugate_determinant(m, _pbar3(pbar3))

    dt = t_max / _CONJ_GRID_N
    times = [(k + 0.5) * dt for k in range(_CONJ_GRID_N)]
    dets = [det_at(times[0])]  # filled as the scan reaches each time
    tol = 1e-6 * t_max

    def refine_crossing(k: int, hi: float) -> float:
        # det changes sign on [times[k - 1], hi]
        fa_sign = dets[k - 1] > 0.0
        lo = times[k - 1]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = det_at(mid)
            if fm == 0.0:
                return mid
            if (fm > 0.0) == fa_sign:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def refine_tangency(j: int) -> "Optional[float]":
        # |det| has a strict local minimum at grid index j without a sign
        # change, the signature of an even-order zero (symmetric geodesics
        # carry conjugate points of multiplicity two).  Minimize |det| in
        # the surrounding cells; accept when the dip is orders of
        # magnitude below the shoulders, reject shallow benign minima.
        lo, hi = times[j - 1], times[j + 1]
        inv = 0.5 * (math.sqrt(5.0) - 1.0)
        x1 = hi - inv * (hi - lo)
        x2 = lo + inv * (hi - lo)
        g1 = abs(det_at(x1))
        g2 = abs(det_at(x2))
        while hi - lo > tol:
            if g1 <= g2:
                hi, x2, g2 = x2, x1, g1
                x1 = hi - inv * (hi - lo)
                g1 = abs(det_at(x1))
            else:
                lo, x1, g1 = x1, x2, g2
                x2 = lo + inv * (hi - lo)
                g2 = abs(det_at(x2))
        t_star = 0.5 * (lo + hi)
        shoulder = max(abs(dets[j - 1]), abs(dets[j + 1]))
        if abs(det_at(t_star)) <= 1e-4 * shoulder:
            return t_star
        return None

    for k in range(1, _CONJ_GRID_N):
        dets.append(det_at(times[k]))
        if dets[k] == 0.0:
            return times[k]
        if (dets[k] > 0.0) != (dets[k - 1] > 0.0):
            return refine_crossing(k, times[k])
        if k >= 2 and abs(dets[k - 1]) < abs(dets[k - 2]) and abs(dets[k - 1]) < abs(dets[k]):
            t_star = refine_tangency(k - 1)
            if t_star is not None:
                # the dip may hold two simple zeros, and the minimization the later one
                if (det_at(t_star - tol) > 0.0) != (dets[k - 2] > 0.0):
                    return refine_crossing(k - 1, t_star - tol)
                return t_star
    raise NoConjugatePoint(f"determinant kept its sign on (0, {t_max}]")


def _r2_seed(k: int) -> "tuple[float, float]":
    # R2 low-discrepancy sequence over the (pbar3, phi) rectangle
    g = 1.324717957244746
    u = (0.5 + (k + 1) / g) % 1.0
    v = (0.5 + (k + 1) / (g * g)) % 1.0
    return 2.0 * u - 1.0, 2.0 * math.pi * v


def shorter_path_search(
    m: BergerMetric, p0: Momentum, t: float, attempts: int = 12
) -> Optional[ShorterPath]:
    """Look for a geodesic that reaches ``exp_map(m, p0, t)`` strictly earlier.

    Runs damped least-squares shooting on the endpoint mismatch over
    ``(pbar3, phi, arrival_time)`` from ``attempts`` deterministic
    low-discrepancy starts, each with the arrival time initialized at
    ``0.95*t``.  A solve counts when the endpoint matches to 1e-7 and the
    arrival undercuts ``t`` by more than 1e-4.  Returns the hit with the
    smallest arrival time (ties broken by seed order), or None.  Before
    the cut time of ``p0`` the search comes up empty; past it, it finds
    the competing geodesic.

    The Jacobian's ``phi`` column is ``e3 x q``, because rotating the
    momentum about ``e3`` conjugates the flow, and its arrival column is
    ``dq/dt = q*Omega/2``; only the ``pbar3`` column, singular at
    ``|pbar3| = 1``, is a one-sided difference.

    A trial step can leave the floats at extreme scales, as at
    ``BergerMetric(1.7e308, 1e308)``.  A trial point with a NaN
    coordinate has a NaN cost, which never compares below the current
    cost, so the step is rejected and the damping grows like any other
    step that does not improve.
    """
    attempts = _integer("attempts", attempts, 10)
    t = _real("t", t, finite=True, positive=True)
    _check_level(m, p0)

    tw, tx, ty, tz = _flow(m, (p0.p1, p0.p2, p0.p3), t)[:4]
    t_lo, t_hi = 0.02 * t, 1.2 * t
    i1, i3, eta = m.i1, m.i3, m.eta()

    def flow_at(pbar3: float, phi: float, arrival: float) -> tuple:
        # initial_momentum's arithmetic without its validation: pbar3 is
        # clamped to [-1, 1], and a NaN entry only makes the row NaN
        norm = math.sqrt(i1 / (1.0 + eta * pbar3 * pbar3))
        eq = norm * math.sqrt(max(0.0, 1.0 - pbar3 * pbar3))
        return _flow(m, (eq * math.cos(phi), eq * math.sin(phi), norm * pbar3), arrival)

    # A point is clamped by min(hi, max(lo, v)) written as comparisons, so a
    # NaN maps to lo; the current point is clamped, so only moved coordinates are.
    best: Optional[ShorterPath] = None
    for k in range(attempts):
        pbar3, phi = _r2_seed(k)
        arrival = 0.95 * t
        qw, qx, qy, qz, p1, p2, p3 = flow_at(pbar3, phi, arrival)
        r0 = qw - tw; r1 = qx - tx; r2 = qy - ty; r3 = qz - tz
        cost = r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3
        lam = 1e-3
        for _ in range(30):
            if math.sqrt(cost) < _SHOOT_RESIDUAL:
                break
            # the 4x3 Jacobian at the current row; j10 = j13 = 0
            d = -1e-6 if pbar3 + 1e-6 > 1.0 else 1e-6
            v = pbar3 + d
            v = v if v > -1.0 else -1.0
            e0, e1, e2, e3 = flow_at(v if v < 1.0 else 1.0, phi, arrival)[:4]
            j00 = (e0 - qw) / d; j01 = (e1 - qx) / d; j02 = (e2 - qy) / d; j03 = (e3 - qz) / d
            j11 = -qy; j12 = qx
            o1 = 0.5 * p1 / i1; o2 = 0.5 * p2 / i1; o3 = 0.5 * p3 / i3
            j20 = -(qx * o1 + qy * o2 + qz * o3); j21 = qw * o1 + qy * o3 - qz * o2
            j22 = qw * o2 + qz * o1 - qx * o3; j23 = qw * o3 + qx * o2 - qy * o1
            # J^T J (symmetric: u_k*v_k == v_k*u_k exactly) and g = -J^T r;
            # "+ 0.0" turns an off-diagonal -0.0 into 0.0, as adding the
            # damping's zero entries did in the matrix form
            a00 = j00 * j00 + j01 * j01 + j02 * j02 + j03 * j03
            a11 = j11 * j11 + j12 * j12
            a22 = j20 * j20 + j21 * j21 + j22 * j22 + j23 * j23
            a01 = (j01 * j11 + j02 * j12) + 0.0
            a02 = (j00 * j20 + j01 * j21 + j02 * j22 + j03 * j23) + 0.0
            a12 = (j11 * j21 + j12 * j22) + 0.0
            g0 = -(j00 * r0 + j01 * r1 + j02 * r2 + j03 * r3)
            g1 = -(j11 * r1 + j12 * r2)
            g2 = -(j20 * r0 + j21 * r1 + j22 * r2 + j23 * r3)
            accepted = False
            for _ in range(8):
                # Cramer's rule for (J^T J + lam*I) delta = g with columns
                # c0 = (b0, a01, a02), c1 = (a01, b1, a12), c2 = (a02, a12, b2);
                # the minors are _cross(c1, c2), _cross(c2, c0), _cross(c0, c1)
                b0 = a00 + lam; b1 = a11 + lam; b2 = a22 + lam
                m00 = b1 * b2 - a12 * a12; m01 = a12 * a02 - a01 * b2; m02 = a01 * a12 - b1 * a02
                m10 = a12 * a02 - b2 * a01; m11 = b2 * b0 - a02 * a02; m12 = a02 * a01 - a12 * b0
                m20 = a01 * a12 - a02 * b1; m21 = a02 * a01 - b0 * a12; m22 = b0 * b1 - a01 * a01
                det = b0 * m00 + a01 * m01 + a02 * m02
                if det == 0.0:
                    lam *= 4.0
                    continue
                pb_try = pbar3 + (g0 * m00 + g1 * m01 + g2 * m02) / det
                pb_try = pb_try if pb_try > -1.0 else -1.0
                pb_try = pb_try if pb_try < 1.0 else 1.0
                phi_try = phi + (g0 * m10 + g1 * m11 + g2 * m12) / det
                t_try = arrival + (g0 * m20 + g1 * m21 + g2 * m22) / det
                t_try = t_try if t_try > t_lo else t_lo
                t_try = t_try if t_try < t_hi else t_hi
                row = flow_at(pb_try, phi_try, t_try)
                e0 = row[0] - tw; e1 = row[1] - tx; e2 = row[2] - ty; e3 = row[3] - tz
                cost_try = e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3
                if cost_try < cost:
                    pbar3, phi, arrival = pb_try, phi_try, t_try
                    qw, qx, qy, qz, p1, p2, p3 = row
                    r0, r1, r2, r3, cost = e0, e1, e2, e3, cost_try
                    lam = max(lam * 0.3, 1e-12)
                    accepted = True
                    break
                lam *= 4.0
            if not accepted or lam > 1e10:
                break
        if math.sqrt(cost) < _SHOOT_RESIDUAL and arrival < t - _SHOOT_MARGIN:
            if best is None or arrival < best.arrival_time:
                best = ShorterPath(
                    momentum=initial_momentum(m, pbar3, phi),
                    arrival_time=arrival,
                )
    return best
