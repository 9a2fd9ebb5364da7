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
  fixed-step classical RK4 in units of ``sqrt(i1)``.  For ``i1 = i2`` a
  block of steps composes exactly from the textbook step into polynomials
  in ``m = |p1 + i*p2|^2/|p|^2``, taken as one quaternion product and one
  renormalization.  ``m`` moves only by rounding and by RK4's slow
  shrinking of the turning ``p``, so the blocks of 1, 2, 4, ... steps are
  kept as quadratic jets at a centre, each doubled from the one before, and
  a run takes one block per set bit of its step count (see ``_rk4``).  The
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
  determinant is ``sin(a)*D`` with ``a = t*|p0|/(2*i1)``.  ``D`` is
  positive up to ``a = pi/2`` and changes sign at most once on
  ``(0, pi)``, and for ``eta <= 0`` not at all (proved at
  ``_conjugate_determinant``), so the first conjugate time is the zero of
  ``D`` that one Illinois solve finds on ``[pi/4, pi)`` in ``a``, or else
  ``t_pi``, where ``a = pi`` and every geodesic of the family meets.  For
  ``eta > 0`` it agrees with the conjugate equation's root within 1e-12
  relative at every scale, and for ``eta <= 0`` it is ``t_pi``;
* ``shorter_path_search``: the shortest geodesic reaching a given
  endpoint strictly earlier, from the endpoint map's earliest preimage
  (``_shortest_preimage``): a level crossing of one phase, refined by the
  Illinois method on a piece where the phase and the arrival are monotone,
  or on the ``e3`` subgroup, where that chart is singular, a closed form.

The RK4 block loop and the conjugate determinant are written out on
scalar locals for speed; tests pin them, bit for bit, to compact forms.

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
from .model import BergerMetric, Momentum, _pbar3, _real, _shape, momentum_norm

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
_H_DRIFT_TOL = 1e-6      # relative drift of H or |p|, or predicted error of q, that aborts an integration
_SEARCH_MARGIN = 1e-4    # required arrival-time advantage, relative to t
_WINDOW = 2.0 ** -20     # reach of _rk4's quadratics about their centre, relative, times L*theta_eq
_SHRINK = 2.0 ** -30     # the most a block of more than 8 steps may shrink |u|^2 by, relative


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
            raise DomainError(f"quaternion norm {n!r} is not 1 within 1e-9")


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


def _double(p0: complex, p1: complex, p2: complex, g0: complex, g1: complex, g2: complex,
            r: complex, mc: float) -> tuple:
    """Jets at ``mc`` of ``_rk4``'s ``(P, G)`` for the block with jets ``(p*, g*)`` and ``r`` taken twice.

    A jet is ``(c(mc), c'(mc), c''(mc)/2)``.  Block ``a`` then block ``b`` is
    ``q*(1 + E_a(u))*(1 + E_b(lam*u))`` with ``lam = 1 + r``.  With ``mu = |lam|^2``,
    ``P_b'(m) = P_b(mu*m)`` and ``H(m) = G_b(mu*m)*lam``, the product is
    ``P = P_a + P_b' + P_a*P_b' - m*G_a*conj(H)`` and
    ``G = G_a + (1 + P_a)*H + G_a*conj(P_b')``.  ``mu*m = mc + d + mu*(m - mc)``
    with ``d = (mu - 1)*mc``, so ``P_b'`` is the jet moved to ``mc + d`` and
    scaled by ``mu`` and ``mu^2``; products drop their terms past ``(m - mc)^2``.
    """
    lam = 1.0 + r
    e = r.real * (2.0 + r.real) + r.imag * r.imag  # mu - 1, without cancelling
    mu = 1.0 + e
    mu2, d = mu * mu, e * mc
    t = p1 + d * p2
    s0, s1, s2 = p0 + d * t, (t + d * p2) * mu, p2 * mu2
    t = g1 + d * g2
    h0, h1, h2 = (g0 + d * t) * lam, (t + d * g2) * mu * lam, g2 * mu2 * lam
    c0, c1, c2 = h0.conjugate(), h1.conjugate(), h2.conjugate()
    k0, k1, k2 = g0 * c0, g0 * c1 + g1 * c0, g0 * c2 + g1 * c1 + g2 * c0  # G_a*conj(H)
    c0, c1, c2 = s0.conjugate(), s1.conjugate(), s2.conjugate()
    a = 1.0 + p0
    return (p0 + s0 + p0 * s0 - mc * k0,
            p1 + s1 + (p0 * s1 + p1 * s0) - (mc * k1 + k0),
            p2 + s2 + (p0 * s2 + p1 * s1 + p2 * s0) - (mc * k2 + k1),
            g0 + a * h0 + g0 * c0,
            g1 + (a * h1 + p1 * h0) + (g0 * c1 + g1 * c0),
            g2 + (a * h2 + p1 * h1 + p2 * h0) + (g0 * c2 + g1 * c1 + g2 * c0))


def _ladder(c: tuple, rs: list, top: int, mc: float) -> list:
    """Jets at ``mc`` of the blocks of ``1, 2, ..., 2**top`` steps; ``c`` holds the step's ``P`` and ``G``."""
    c0, c1, c2, d0, d1 = c
    t = c1 + mc * c2  # the step's polynomials moved to mc by synthetic division
    jets = [(c0 + mc * t, t + mc * c2, c2, d0 + mc * d1, d1, 0j)]
    for r in rs[:top]:
        jets.append(_double(*jets[-1], r, mc))
    return jets


def _rk4(y: tuple, a1: float, a3: float, h: float, n: int) -> tuple:
    """n fixed classical RK4 steps of the joint flow, taken in about log2(n) exactly composed blocks.

    ``y = (qw, qx, qy, qz, p1, p2, p3)``, ``a1 = 1/i1``, ``a3 = 1/i3``.  For
    ``i1 = i2`` and ``u = (p1, p2)/|p0|``, ``dq = q*(0, c1s*u1, c1s*u2, w3)``
    and ``du = (b*u2, -b*u1)`` with ``c1s = a1*|p0|/2``, ``w3 = a3*p3/2`` and
    ``b = (a3 - a1)*p3``; ``p3`` is constant.  Each stage of ``dq`` is ``q``
    times a quaternion, so a textbook step maps ``q`` to ``q + q*D(u)``, with
    ``D`` its q-increment from ``q = 1``.  Write quaternions as ``alpha + beta*i``
    with ``alpha = w + z*k`` and ``beta = x + y*k`` complex in ``k``, and ``u``
    as ``u1 + u2*k``.  RK4 commutes with the field's rotations about ``e3``, so
    with ``m = |u|^2`` a step is ``q <- q*(1 + E)``, ``E = P(m) + (G(m)*u)*i``,
    and ``u <- (1 + R)*u``: ``P`` is quadratic, ``G`` linear and ``R`` constant.
    Their coefficients come from the textbook step at ``u = 0, e1, 2*e1``
    (``_identity_step``), never from the exact flow.

    Ladder.  ``L`` steps have the same shape, with ``P`` of degree ``2L``, ``G``
    of degree ``2L - 1`` and ``R_2L = 2*R_L + R_L^2``.  ``m`` is constant along
    the exact flow and moves here only by rounding and by RK4's modulus error
    for the turn of ``u``: a block shrinks it by the known factor
    ``mu = |1 + R_L|^2``, about ``1 - L*(b*h)^6/72``.  So the blocks of 1, 2,
    4, ... steps are kept only as jets ``(c(m_c), c'(m_c), c''(m_c)/2)`` at a
    centre ``m_c``: the step's from its coefficients, each next one by
    ``_double``, exact but for the terms past ``(m - m_c)^2``.  The ladder
    goes past 8 steps only while a block shrinks ``m`` by at most
    ``_SHRINK = 2**-30``, and up to the top bit of ``n``.  A run takes its
    largest block ``n // L`` times, then one block per set bit of the rest,
    largest first, each as one evaluation of the jets at ``dm = m - m_c``,
    one quaternion product and one renormalization, as the norm is
    multiplicative: 2000 steps that barely shrink ``m`` take 10 doublings and
    6 blocks.

    Window.  ``m`` enters a step only through the turn of ``q``'s
    equatorial part, ``theta_eq = h*a1*|p0|*sqrt(m)``.  A block of ``L``
    steps evaluates its jets only where ``|dm| <= w*m_c``, with
    ``w = min(1, _WINDOW/(L*theta_eq))``, ``_WINDOW = 2**-20`` and
    ``theta_eq`` taken at the ``m`` that placed the centre.  Elsewhere, a NaN
    ``m`` too, so that divergence stays NaN, the ladder is rebuilt at a new
    centre, placed ahead along the drift: at the midpoint of ``m`` and
    ``m*mu^k``, with ``k`` the blocks of this size still to come after this
    one, or as far down as puts ``m`` at the window's top.  Where ``p`` turns
    fast about a mostly axial momentum, ``theta_eq`` is small and one centre
    holds the run: at ``BergerMetric(1001, 1)``, ``pbar3 = 0.9``, 2000 steps
    of up to 0.2 rad take one, where a window of ``2**-18`` centred on ``m``
    takes 250.

    Bound.  A block drops ``m_c^3*P3*(dm/m_c)^3`` and smaller terms, with
    ``P3`` the third Taylor coefficient of ``P`` at ``m_c``, and the same of
    ``G*u``.  Continued to complex ``m = m_c*(1 + z)``, each of the block's
    ``L`` step factors moves from its value at ``z = 0``, a near-unit
    quaternion, by ``O(theta_eq*|z|)``; so the block stays bounded on
    ``|z| = 1/(L*theta_eq)``, and by Cauchy's estimate
    ``|m_c^k*P_k| <= C_k*(L*theta_eq)^k``.  Measured with jets of order 6
    over 4 500 draws (steps of up to 0.2 rad, ``eta`` from -0.95 to 1e8,
    ``pbar3`` up to 1e-12 from the axis, ``L`` up to 2048): ``C_3 <= 3.0e-3``
    (2.99e-3 at most, on the equator, from ``L = 64`` on), ``C_4 <= 2e-4``
    and ``C_5 <= 1e-5``.  As ``L*theta_eq*|dm|/m_c <= 2**-20``, a block
    drops at most ``3.0e-3*2**-60 = 2.6e-21``; the terms at the window's
    edge, summed to order 6 over 2 000 more draws with ``eta`` up to 1e300,
    reached 2.58e-21.  A doubling moves its jets by ``d = (mu - 1)*m_c``
    and drops ``3*P3*d*dm^2`` and smaller: past 8 steps ``|d| <= 2**-30*m_c``,
    below ``2e-24*L*theta_eq``, and up to 8 steps of 0.2 rad
    ``|d| <= 3.6e-6*m_c`` with ``C_3 <= 1.1e-5`` at 4 steps, below 1e-22.
    Against the same ladder with jets of order 6 (in the tests) ``p`` is the
    same to the bit and ``q`` was too in 1 800 runs (steps from 1e-4 to 0.2
    rad, up to 63 centres); against the textbook step, one turn in 1000 to
    2000 steps over ``i1`` from 1e-300 to 1e300 agrees within 6.0e-15 and 32
    turns in 2000 steps within 1.7e-13.
    """
    qw, qx, qy, qz, p1, p2, p3 = y
    s = math.hypot(p1, p2, p3)
    u1 = p1 / s; u2 = p2 / s
    at0, at1, at2 = (_identity_step(0.5 * a1 * s, 0.5 * a3 * p3, (a3 - a1) * p3, h, k)
                     for k in (0.0, 1.0, 2.0))
    # P = D0 + Dz*k through its values at m = 0, 1, 4; G = alpha + beta*k through m = 1, 4
    v0, v1, v2 = (complex(a[0], a[3]) for a in (at0, at1, at2))
    f1, f2 = complex(at1[1], at1[2]), complex(at2[1], at2[2])
    c2, c1 = (v2 - v0 - 4.0 * (v1 - v0)) / 12.0, (0.5 * f2 - f1) / 3.0
    step, r = (v0, v1 - v0 - c2, c2, f1 - c1, c1), complex(*at1[4:])
    rs, mus = [], []  # R and |1 + R|^2 of the blocks of 1, 2, 4, ... steps
    while True:
        e = r.real * (2.0 + r.real) + r.imag * r.imag  # |1 + R|^2 - 1, without cancelling
        if len(rs) > 3 and not abs(e) <= _SHRINK:  # past 8 steps, only while m barely shrinks
            break
        rs.append(r); mus.append(1.0 + e)
        if 1 << len(rs) > n:
            break
        r = r + r + r * r
    top = len(rs) - 1
    eq = h * a1 * s  # the turn of q's equatorial part in one step, over |u|
    mc = teq = math.nan  # no centre yet: the first block takes one
    jets = None
    for j, count in ((top, n >> top), *((j, 1) for j in range(top - 1, -1, -1) if n >> j & 1)):
        r0, r1, mu = rs[j].real, rs[j].imag, mus[j]
        w = _WINDOW / max(_WINDOW, teq * (1 << j))
        win = w * mc
        if jets:  # the centre's ladder holds this block too
            (e0, z0), (e1, z1), (e2, z2), (g0, k0), (g1, k1), (g2, k2) = (
                (c.real, c.imag) for c in jets[j])
        for i in range(count, 0, -1):
            m = u1 * u1 + u2 * u2
            dm = m - mc
            if not abs(dm) <= win:  # also where m is NaN, so a divergent run stays NaN
                teq = eq * math.sqrt(m)
                w = _WINDOW / max(_WINDOW, teq * (1 << j))
                # ahead along the drift: the midpoint of m and the m of the last of the i blocks
                # left that the window can hold, as m shrinks by mu a block
                nu = max((1.0 - w) / (1.0 + w), mu ** (i - 1)) if mu < 1.0 else 1.0
                mc = m * (0.5 + 0.5 * nu)
                win, dm, jets = w * mc, m - mc, _ladder(step, rs, j, mc)
                (e0, z0), (e1, z1), (e2, z2), (g0, k0), (g1, k1), (g2, k2) = (
                    (c.real, c.imag) for c in jets[j])
            d0 = e0 + dm * (e1 + dm * e2)
            dz = z0 + dm * (z1 + dm * z2)
            al = g0 + dm * (g1 + dm * g2)
            be = k0 + dm * (k1 + dm * k2)
            dx = al * u1 - be * u2; dy = al * u2 + be * u1
            # q + q*E, then u + R*u; hypot cannot overflow, so divergence gives NaN
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
    are formed in units of ``sqrt(i1)``, so no scale overflows.  ``qw + i*qz = exp(i*a*eta*s)*
    (cos a + i*s*sin a)``, ``s = p3/|p0|``, is formed for ``s >= 0`` as ``exp(i*a*((1 - s) +
    (i1/i3)*s))*(cos^2 a + s*sin^2 a - i*(1 - s)*sin a*cos a)``, which does not cancel on the axis
    as ``eta -> -1``, and conjugated for ``s < 0``.  Returns ``(qw, qx, qy, qz, p1, p2, p3)``.
    """
    p1, p2, p3 = p0
    n = math.hypot(p1, p2, p3)
    a = t / (2.0 * math.sqrt(m.i1)) * (n / math.sqrt(m.i1))
    half = a * (m.eta() * (p3 / n))
    ca, sa, u = math.cos(a), math.sin(a), abs(p3) / n
    f = sa / n  # exp(t*p0/(2*i1)) = (ca, f*p0)
    cb, sb = math.cos(half), math.sin(half)  # exp(t*b*e3/2) = (cb, sb*e3)
    c, s = math.cos(2.0 * half), math.sin(2.0 * half)
    w, v, ph = ca * ca + u * (sa * sa), (u - 1.0) * (sa * ca), a * ((1.0 - u) + m.i1 / m.i3 * u)
    cp, sp = math.cos(ph), math.sin(ph)
    qz = sp * w + cp * v
    return (
        cp * w - sp * v,
        f * (p1 * cb + p2 * sb),
        f * (p2 * cb - p1 * sb),
        -qz if p3 < 0.0 else qz,
        c * p1 + s * p2,
        c * p2 - s * p1,
        p3,
    )


def _hamiltonian(a3: float, p1: float, p2: float, p3: float) -> float:
    # H in units of sqrt(i1): momenta p/sqrt(i1), a1 = 1 and a3 = i1/i3
    return 0.5 * (p1 * p1 + p2 * p2 + a3 * p3 * p3)


def _energy(m: BergerMetric, p: Momentum) -> float:
    """``H(p)``, formed in units of ``sqrt(i1)`` so that no scale underflows or overflows."""
    r1 = math.sqrt(m.i1)
    return _hamiltonian(m.i1 / m.i3, p.p1 / r1, p.p2 / r1, p.p3 / r1)


def initial_momentum(m: BergerMetric, pbar3: float, phi: float) -> Momentum:
    """Unit-speed momentum with axis fraction ``pbar3`` and equatorial angle ``phi``."""
    phi = _real("phi", phi)
    pbar3 = _pbar3(pbar3)
    norm = momentum_norm(m, pbar3)
    s = math.sqrt((1.0 - pbar3) * (1.0 + pbar3))  # 1 - pbar3^2 cancels as pbar3 -> 1
    return Momentum(
        p1=norm * s * math.cos(phi),
        p2=norm * s * math.sin(phi),
        p3=norm * pbar3,
    )


def _check_level(m: BergerMetric, p0: Momentum) -> None:
    h = _energy(m, p0)
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
    (``conservation_drift``) is the integrator's error estimate.  RK4 turns
    ``p`` about ``e3`` with a factor of modulus about ``1 - (b*h)^6/144`` a
    step, so over ``n`` steps the equatorial energy drifts by about
    ``n*(b*h)^6/72`` of itself, and ``|p|`` by about ``n*(b*h)^6/144`` times
    the equatorial share ``1 - pbar3^2`` of ``|p|^2``.  A run raises
    NormalizationError where either drift passes ``_H_DRIFT_TOL = 1e-6``,
    relative.  One whose energy is mostly equatorial raises where ``p``
    turns by more than about ``(72e-6/n)^(1/6)`` rad a step: 0.057 rad at
    2000 steps, 0.064 at 1000.  One whose energy is mostly axial but whose
    ``|p|`` is not, where the energy check alone is blind, raises at about
    ``(144e-6/(n*(1 - pbar3^2)))^(1/6)``: 0.085 rad at 2000 steps for
    ``BergerMetric(1001, 1)`` and ``pbar3 = 0.9``.  Neither drift shows
    RK4's error in ``q``'s own turn, about ``n*(|Omega|*h/2)^5/120`` with
    ``|Omega|*h`` the body rotation per step; a run raises where that
    passes ``_H_DRIFT_TOL`` too, where ``q`` turns by more than
    ``2*(120e-6/n)^(1/5)`` rad a step: 0.072 rad at 2000 steps.  On the
    round metric ``p`` does not turn, and a run to ``t = 1000`` in 2000
    steps, 0.5 rad a step, would leave ``q`` 1.3e-2 off.  The error names
    the fastest rotation per step.
    """
    t = _real("t", t)
    if t < 0.0:
        raise DomainError(f"t must be nonnegative, got {t!r}")
    _check_level(m, p0)
    # at t = 0 no step is taken, so a step of 0 (the CLI's default t/2000) is valid there
    step = _real("step", step, positive=t > 0.0)
    if step < 0.0:
        raise DomainError(f"step must be nonnegative, got {step!r}")
    if t == 0.0:
        return GeodesicState(q=UnitQuaternion(1.0, 0.0, 0.0, 0.0), p=p0, t=0.0)
    if step > t / 1000.0:
        raise DomainError(f"step {step!r} exceeds t/1000 = {t / 1000.0!r}")
    n = math.ceil(t / step)
    # in units of sqrt(i1): momenta and times over sqrt(i1), a1 = 1 and a3 = i1/i3
    r1, a3 = math.sqrt(m.i1), m.i1 / m.i3
    p1, p2, p3, h = p0.p1 / r1, p0.p2 / r1, p0.p3 / r1, t / r1 / n
    y = _rk4((1.0, 0.0, 0.0, 0.0, p1, p2, p3), 1.0, a3, h, n)
    h_end = _hamiltonian(a3, y[4], y[5], y[6])
    norm0 = math.hypot(p1, p2, p3)
    norm_rel = abs(math.hypot(y[4], y[5], y[6]) - norm0) / norm0
    # a step turns q at the body rate |Omega| and p about e3 at b = (a3 - 1)*p3; RK4's
    # error in q's turn, n*(|Omega|*h/2)^5/120, passes the tolerance where |Omega|*h
    # passes q_cap
    q_turn = math.hypot(p1, p2, a3 * p3) * h
    q_cap = 2.0 * (120.0 * _H_DRIFT_TOL / n) ** 0.2
    # a diverged run gives NaN, in q alone where p is conserved exactly
    if (not (abs(h_end - 0.5) <= _H_DRIFT_TOL * 0.5 and norm_rel <= _H_DRIFT_TOL
             and q_turn <= q_cap) or math.isnan(y[0] + y[1] + y[2] + y[3])):
        turn = max(q_turn, abs((a3 - 1.0) * p3) * h)
        raise NormalizationError(
            f"Hamiltonian drifted to {h_end!r}, |p| by {norm_rel:.3g} of itself, q to {y[:4]!r} "
            f"over t={t!r} with {n} steps, q turning {q_turn:.3g} rad a step against a cap of "
            f"{q_cap:.3g}, the fastest rotation {turn:.3g} rad per step"
        )
    return GeodesicState(
        q=UnitQuaternion(y[0], y[1], y[2], y[3]),
        p=Momentum(y[4] * r1, y[5] * r1, p0.p3),
        t=float(t),
    )


def conservation_drift(m: BergerMetric, p0: Momentum, p: Momentum) -> "dict[str, float]":
    """Relative drifts of energy, momentum norm and axis momentum from ``p0`` to ``p``.

    The energy is compared with the unit-speed level 1/2, the other two
    relative to ``|p0|``.
    """
    norm0 = p0.norm()
    return {
        "hamiltonian_rel": abs(_energy(m, p) - 0.5) / 0.5,
        "momentum_norm_rel": abs(p.norm() - norm0) / norm0,
        "axis_momentum_rel": abs(p.p3 - p0.p3) / norm0,
    }


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
    scale; its ``sqrt(1 + eta*pbar3^2)`` is ``_shape``'s, which does not
    cancel near the axis as ``eta -> -1``.

    Sign of ``D``.  Let ``w = (-pbar3, 0, e0)``, the unit vector across
    ``e`` in its plane with ``e3``, and ``B = 1 + eta*pbar3^2``.  The proof
    uses only ``e0^2 + pbar3^2 = 1``, ``u = (e0, 0, (1 + eta)*pbar3)/n``
    and ``v = s*(-u2, 0, u0)``, which is orthogonal to ``u``.  Then
    ``e.v = -(s/n)*eta*pbar3*e0``, so ``g = (s/n)*eta*e0^2*w``,
    ``h = (s/n)*B*w`` and ``e x v = -(s/n)*B*e2``; and ``c(v1)/sin(a) =
    -sin(a)*w + cos(a)*e2``.  As ``e2 x w = e`` and ``u.e = B/n``, the
    terms gather to

        D = kappa*(B*sin(a) + c*a*cos(a)),  kappa = s*B/n^2 > 0,  c = eta*e0^2,

    and ``B + c = 1 + eta``.  Four facts follow.  (i) For ``eta > 0``,
    ``c >= 0``, so ``D >= kappa*B*sin(a) > 0`` on ``(0, pi/2]``.  (ii) For
    ``eta > 0`` and ``|pbar3| < 1``, ``c > 0`` and ``D' = kappa*((1 +
    eta)*cos(a) - c*a*sin(a)) < 0`` on ``[pi/2, pi)``, where
    ``cos(a) <= 0 < sin(a)``; with ``D(pi) = -kappa*c*pi < 0``, ``D`` has
    exactly one zero on ``(0, pi)``, past ``pi/2``.  (iii) On the axis
    ``c = 0`` and ``D = kappa*(1 + eta)*sin(a) > 0`` on ``(0, pi)``.
    (iv) For ``eta <= 0``, ``c <= 0`` and ``B >= 1 + eta > 0``.  On
    ``(0, pi/2]``, ``a*cos(a) <= sin(a)`` gives ``D >= kappa*(B + c)*sin(a)
    = kappa*(1 + eta)*sin(a) > 0``; on ``[pi/2, pi)``, ``c*a*cos(a) >= 0``
    gives ``D >= kappa*B*sin(a) > 0``.  So ``D`` has no zero on
    ``(0, pi)`` and the first conjugate time is ``t_pi``.  The gathered form
    is the conjugate equation, but the code never evaluates it: ``D`` is
    the triple product of the flow's columns, a test checks it against
    differences of ``_flow``, and the proof only tells the oracle where to
    bracket its one zero.  The zero itself is refined on the triple
    product, and ``tau_conj`` solves the equation apart from it, so their
    agreement still checks this derivation end to end.
    """
    eta = m.eta()
    e0 = math.sqrt(max(0.0, 1.0 - pbar3 * pbar3))
    rate = 0.5 / (math.sqrt(m.i1) * _shape(m.i1 / m.i3, pbar3))
    n = math.hypot(e0, (1.0 + eta) * pbar3)
    u0, u2 = e0 / n, (1.0 + eta) * pbar3 / n
    s = math.ldexp(1.0, min(0, 1000 - math.frexp(eta)[1]))
    v0, v2 = -u2 * s, u0 * s  # v1 = 0, as e1 = 0
    ev = e0 * v0 + pbar3 * v2
    # c(v2) = a*g + sin*cos*h - sin^2*k: g and h lie in the plane of e and v, k = e x v on e2
    g0, g2 = ev * e0, ev * pbar3 + eta * v2
    h0, h2 = v0 - ev * e0, v2 - ev * pbar3
    k1 = pbar3 * v0 - e0 * v2

    def det(t: float) -> float:
        # u . (x x y) on scalar locals; u1, g1, h1, k0 and k2 are 0
        a = t * rate
        ca, sa = math.cos(a), math.sin(a)
        x0, x2 = sa * pbar3, -sa * e0
        y0 = a * g0 + sa * (ca * h0)
        y1 = sa * (-sa * k1)
        y2 = a * g2 + sa * (ca * h2)
        return u0 * (ca * y2 - x2 * y1) + u2 * (x0 * y1 - ca * y0)

    return det, math.pi / rate


def conjugate_time_numeric(m: BergerMetric, pbar3: float, t_max: float) -> float:
    """First conjugate time along the geodesic with axis fraction ``pbar3``.

    Differentiates the exact flow in closed form: the determinant of the
    endpoint map's differential, assembled from the endpoint velocity and
    the derivatives in two level-set directions, is ``sin(a)*D(t)``
    (``_conjugate_determinant``).  ``sin(a)`` first vanishes at ``t_pi``,
    where all geodesics of the family meet, so the first conjugate time is
    the first zero of ``D`` before ``t_pi``, or else ``t_pi``.  For
    ``eta > 0``, ``D`` is positive on ``(0, t_pi/2]`` and, off the axis,
    falls through its one zero on ``(t_pi/2, t_pi)``; on the axis, and for
    every ``pbar3`` when ``eta <= 0``, it has none.  So with
    ``end = min(t_max, t_pi)``, a ``D(end) < 0`` brackets that zero on
    ``[t_pi/4, end]``, and ``_bracketed_root`` refines it to within one
    float.  The bracket starts at ``a = pi/4``, not ``pi/2``: at huge
    ``eta``, ``D(t_pi/2)`` is ``kappa*B`` plus ``c*a*cos(a)`` with ``cos``
    of a rounded ``pi/2``, which can round to ``D <= 0``.  Otherwise no zero
    lies before ``end``: a ``D`` that is 0 there has underflowed, and on the
    axis ``D``'s sign at ``t_pi`` is only that of ``sin(a)`` rounded near
    ``pi``.  Where ``eta`` is within a few rounding errors of 0, off the
    axis too, that rounding can bracket a zero, which then lies within
    rounding of ``t_pi``.  Over metrics from subnormal to the float maximum
    and ``eta`` from 1e-9 to 1e308, the time agrees with the conjugate
    equation's root to within 1e-12 relative, and for ``eta <= 0`` it is
    ``t_pi``.  Raises NoConjugatePoint when no zero lies before
    ``t_max < t_pi``.
    """
    t_max = _real("t_max", t_max, positive=True)
    pbar3 = _pbar3(pbar3)
    det_at, t_pi = _conjugate_determinant(m, pbar3)
    # t_pi may overflow where the conjugate time does not; a is at most pi/4 at lo all the same
    lo, end = 0.25 * min(t_pi, sys.float_info.max), min(t_max, t_pi)
    if end > lo and abs(pbar3) < 1.0:
        d_end = det_at(end)
        if d_end < 0.0:
            return _bracketed_root(det_at, lo, end, det_at(lo), d_end)
    if t_pi <= t_max:
        return t_pi
    raise NoConjugatePoint(f"determinant kept its sign on (0, {t_max}]")


def _bracketed_root(f: Callable[[float], float], x0: float, x1: float, f0: float, f1: float) -> float:
    """Zero of ``f`` between ``x0`` and ``x1``, where ``f0 = f(x0)`` and ``f1 = f(x1)`` differ in sign.

    The Illinois method (Dowell & Jarratt, BIT 11, 1971): regula falsi through the two ends,
    taken from the end with the smaller value, where the step keeps its relative precision,
    with the value stored at an end halved when a step keeps that end as the previous step
    did.  A step that rounds onto the kept end is the midpoint instead, and one that rounds
    onto the newest end, a step below its resolution, is one float toward the kept end.
    Every step lies strictly between the ends, so each takes at least one float out of the
    bracket and the solve terminates: at an exact zero (also one passed in for ``f0`` or
    ``f1``), or with the ends adjacent floats, where the newest end is returned.
    """
    (a, fa), (b, fb) = (x0, f0), (x1, f1)  # a is the end the previous step kept
    if fa == 0.0:
        return a
    while fb != 0.0 and math.nextafter(b, a) != a:
        x = a + (b - a) * (fa / (fa - fb)) if abs(fa) < abs(fb) else b - (b - a) * (fb / (fb - fa))
        if x == b:
            x = math.nextafter(b, a)
        elif not (a < x < b or b < x < a):
            x = a + 0.5 * (b - a)
        fx = f(x)
        if (fx < 0.0) == (fb < 0.0):
            fa *= 0.5
        else:
            a, fa = b, fb
        b, fb = x, fx
    return b


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
    crossing of ``2*pi*j`` by the unwrapped phase ``G`` of ``z(s, a)/Z``, refined by the
    Illinois method (``_bracketed_root``) to within one float of ``chi``.  The cut equation
    is the ``qz = 0`` case, never solved as such.

    Monotone pieces: on the sheet ``a = base + sign*alpha``, ``dalpha = s*dchi``, so with
    ``d = sin(alpha)`` the slope ``G' = sign*(1 + eta*s^2) + eta*a*s'``, where
    ``s' = rho*cos(chi)*sigma^2/d^3 >= 0``, is even in ``chi`` and has the sign of ``sign``
    where ``eta*sign >= 0``.  Otherwise it is monotone in ``|chi|`` on ``[0, pi/2]``.  For
    ``eta > 0`` on the upper sheet (``sign = -1``) both terms fall.  For ``eta < 0`` on the
    lower one, ``s^2 + a*s' = 1 + sigma^2*(a*cos(alpha) - d)/d^3`` has the
    ``alpha``-derivative ``(3x - a*(1 + 3x^2))/d^2 <= 0``, ``x = cot(alpha)``, as
    ``a >= alpha`` and ``beta*(2 + cos(beta)) >= 3*sin(beta)`` for ``beta = 2*alpha`` in
    ``[0, pi]``: the difference is 0 at 0 and has the derivative
    ``4*sin(u)*(sin(u) - u*cos(u)) >= 0``, ``u = beta/2``.  So ``G`` is monotone on
    ``[-c, -chi_t]``, ``[-chi_t, 0]``, ``[0, chi_t]`` and ``[chi_t, c]``, with ``chi_t`` the
    zero of ``d*G'`` on ``(0, c]``, or ``c``.

    Arrival lemma: on each piece the arrival ``T = a*sqrt(1 + eta*s^2)`` rises with ``G``
    where ``chi >= 0`` and falls with it where ``chi <= 0``.  Proof: ``a' = sign*s``, so
    ``T' = s*(sign*(1 + eta*s^2) + eta*a*s')/sqrt(1 + eta*s^2) = s*G'/sqrt(1 + eta*s^2)``,
    and ``s`` has the sign of ``chi``.  So a piece's shortest preimage is at its least level
    ``2*pi*ceil(min(g0, g1)/(2*pi))``, or its greatest ``2*pi*floor(max(g0, g1)/(2*pi))``
    where ``chi <= 0``, and that level alone is refined.

    Branch bound: ``s^2 <= rho^2/(rho^2 + sigma^2)`` on the whole curve (the chart's ``s``
    at ``chi = pi/2``) and ``a >= k*pi + alpha(0)`` on branch ``k``, so its arrivals are at
    least that times ``sqrt(1 + eta*s^2)`` at that bound.  For ``eta < 0`` the factor stays
    at least ``sigma/sqrt(rho^2 + sigma^2)`` as ``eta -> -1``, so the number of branches
    stays bounded where ``sigma`` is.  For ``eta > 0``, arriving before the limit bounds ``|s|``
    through the sheet's least ``a`` and ``a >= sin(alpha) = sigma/sqrt(1 - s^2)``.  The limit
    falls to each arrival found; the branches end at the first that cannot beat it.
    ``1 + eta*s^2`` is formed as ``(1 - s^2) + (i1/i3)*s^2``, which does not cancel for
    ``i1 << i3``, and ``eta*s`` before ``a*eta*s``, which does not overflow where ``a*eta``
    would.  Times are in units of ``sqrt(i1)`` and the margin is relative, so no scale differs.

    The ``e3`` subgroup (``sigma`` zero or subnormal), where the chart's ``s`` jumps from -1 to 1
    at ``chi = 0``, takes its preimages in closed form: the axis geodesics, arriving at
    ``((+-theta) mod 2*pi)/sqrt(i1/i3)`` (a residue of 0 counts as ``2*pi``), and the ``s`` with
    ``k*pi*(1 + eta*s) = theta + 2*pi*j`` at ``a = k*pi``, which for ``eta >= 0`` never arrive first.
    For ``eta < 0`` the arrival falls with ``|s|``: the ``j`` nearest an end wins, at ``1 - |s| =
    delta/(k*pi*(1 - i1/i3))``, ``delta = (+-theta - k*pi*i1/i3) mod 2*pi``, formed so as ``s``
    rounds to 1.  At fixed ``P = delta + A*i1/i3``, ``A = k*pi``, the squared arrival
    ``A^2 - (A - P)^2/(1 - i1/i3)`` rises with ``A`` and is ``P^2`` at ``A = P``, so the loop over
    ``k`` ends where ``(k - 1)*pi`` reaches the least arrival.
    """
    t = _real("t", t, positive=True)
    _check_level(m, p0)
    r1, ratio = math.sqrt(m.i1), m.i1 / m.i3
    qw, qx, qy, qz = _flow(m, (p0.p1, p0.p2, p0.p3), t)[:4]
    # |Z| can round past 1 near the e3 subgroup, which would put s = 1 off the chart
    best = _shortest_preimage(m, min(1.0, math.hypot(qw, qz)), math.atan2(qz, qw), math.hypot(qx, qy),
                              t / (2.0 * r1) * (1.0 - _SEARCH_MARGIN))  # in units of 2*sqrt(i1)
    if best is None:
        return None
    # initial_momentum's arithmetic, with sqrt(1 - s^2) from the chart where 1 - s*s cancels
    a, s, cs, k = best
    phi, norm = math.atan2(qy, qx) + a * (m.eta() * s) + k * math.pi, r1 / _shape(ratio, s, cs)
    momentum = Momentum(norm * cs * math.cos(phi), norm * cs * math.sin(phi), norm * s)
    return ShorterPath(momentum=momentum, arrival_time=2.0 * r1 * (a * _shape(ratio, s, cs)))


def _shortest_preimage(m: BergerMetric, rho: float, theta: float, sigma: float,
                       limit: float) -> Optional[tuple]:
    """``(a, s, sqrt(1 - s^2), k)`` of the earliest preimage of ``rho*exp(i*theta)`` before
    ``limit``, or None, by ``shorter_path_search``'s method.  ``sigma = sqrt(1 - rho^2)``, and
    arrivals and ``limit`` are in units of ``2*sqrt(i1)``."""
    eta, ratio, pi = m.eta(), m.i1 / m.i3, math.pi
    best = None
    if sigma < 2.0 ** -1022:  # zero or subnormal: on the e3 subgroup
        for sign in (1.0, -1.0):  # the axis geodesics, a*i1/i3 = +-theta (mod 2*pi)
            a = ((sign * theta) % (2.0 * pi) or 2.0 * pi) / ratio
            if a * math.sqrt(ratio) < limit:
                limit, best = a * math.sqrt(ratio), (a, sign, 0.0, 0)
        k = 1
        while eta < 0.0 and (k - 1) * pi < limit:
            # the j nearest an end s = sign, where x = 1 - |s| is least, <= 1 but for rounding
            delta, sign = min(((sgn * theta - k * pi * ratio) % (2.0 * pi), sgn) for sgn in (1.0, -1.0))
            x = delta / (k * pi * -eta)
            if x <= 2.0:
                a, s, cs = k * pi, sign * (1.0 - x), math.sqrt(x * (2.0 - x))
                if a * _shape(ratio, s, cs) < limit:
                    limit, best = a * _shape(ratio, s, cs), (a, s, cs, k)
            k += 1
        return best
    # least sqrt(1 + eta*s^2), as s^2 <= rho^2/(rho^2 + sigma^2) on every branch's curve
    h = math.hypot(rho, sigma)
    least = min(1.0, _shape(ratio, rho / h, sigma / h))
    alpha0 = math.atan2(sigma, rho)  # least alpha, at chi = 0

    def chart(chi: float, base: float, sign: float) -> tuple:
        # (a, s, sqrt(1 - s^2), G) at chi on the sheet a = base + sign*alpha
        sc = rho * math.sin(chi)
        d = math.hypot(sc, sigma)
        a, s = base + sign * math.atan2(d, rho * math.cos(chi)), sc / d
        return a, s, sigma / d, a * (eta * s) + base + sign * chi - theta

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

            def turn(x: float) -> float:  # d*G': the sign of G', finite at chi = 0
                a, s, cs, _ = chart(x, base, sign)
                return (sign * (1.0 + eta * s * s) * (sigma / cs)
                        + a * (eta * rho * math.cos(x) * cs * cs))
            f0, f1 = turn(0.0), turn(c)  # G' is even and changes sign at most once on (0, c]
            chi_t = _bracketed_root(turn, 0.0, c, f0, f1) if (f0 < 0.0) != (f1 < 0.0) else c
            ends = [(x, chart(x, base, sign)[3]) for x in sorted({-c, -chi_t, 0.0, chi_t, c})]
            for (x0, g0), (x1, g1) in zip(ends, ends[1:]):  # G and the arrival are monotone
                lo, hi = math.ceil(min(g0, g1) / (2.0 * pi)), math.floor(max(g0, g1) / (2.0 * pi))
                level = 2.0 * pi * (lo if x0 >= 0.0 else hi)  # the piece's earliest arrival
                if lo <= hi:
                    x = _bracketed_root(lambda x: chart(x, base, sign)[3] - level, x0, x1,
                                        g0 - level, g1 - level)
                    a, s, cs, _ = chart(x, base, sign)
                    arrival = a * _shape(ratio, s, cs)
                    if arrival < limit:
                        limit, best = arrival, (a, s, cs, k)
        k += 1
    return best
