import ast
import inspect
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bergersphere import geodesic
from bergersphere.errors import DomainError, NoConjugatePoint, NormalizationError
from bergersphere.geodesic import (
    GeodesicState,
    UnitQuaternion,
    _flow,
    _identity_step,
    _rk4,
    conjugate_time_numeric,
    endpoint_state,
    exp_map,
    initial_momentum,
    shorter_path_search,
)
from bergersphere.cutprofile import _arc_length, t_cut
from bergersphere.model import BergerMetric, Momentum, _shape, momentum_norm
from bergersphere.roots import tau_conj

ROUND = BergerMetric(1.0, 1.0)
ETA_ONE = BergerMetric(1.0, 0.5)


def quaternion_distance(q: UnitQuaternion, w, x, y, z) -> float:
    return max(abs(q.w - w), abs(q.x - x), abs(q.y - y), abs(q.z - z))


def _q_times_vector_reference(q, v):
    # the quaternion product q * (0, v)
    qw, qx, qy, qz = q[:4]
    return (
        -(qx * v[0] + qy * v[1] + qz * v[2]),
        qw * v[0] + qy * v[2] - qz * v[1],
        qw * v[1] + qz * v[0] - qx * v[2],
        qw * v[2] + qx * v[1] - qy * v[0],
    )


def _rhs_reference(a1, a3, y):
    # the right-hand side for i1 = i2, where dp3/dt = 0 and the momentum turns
    # about e3; the 1/2 of dq = q*Omega/2 is folded into Omega
    p1, p2, p3 = y[4:]
    b = (a3 - a1) * p3
    return (*_q_times_vector_reference(y, (p1 * (0.5 * a1), p2 * (0.5 * a1), 0.5 * a3 * p3)),
            b * p2, -b * p1, 0.0)


def _rk4_textbook(y, a1, a3, h, n):
    # the textbook form of the integrator, one list per stage; the kernel,
    # which takes each step as one quaternion product, must agree with it
    for _ in range(n):
        k1 = _rhs_reference(a1, a3, y)
        k2 = _rhs_reference(a1, a3, [u + 0.5 * h * k for u, k in zip(y, k1)])
        k3 = _rhs_reference(a1, a3, [u + 0.5 * h * k for u, k in zip(y, k2)])
        k4 = _rhs_reference(a1, a3, [u + h * k for u, k in zip(y, k3)])
        y = [u + h / 6.0 * (a + 2.0 * (b + c) + d) for u, a, b, c, d in zip(y, k1, k2, k3, k4)]
        r = 1.0 / math.hypot(*y[:4])
        y = (y[0] * r, y[1] * r, y[2] * r, y[3] * r, y[4], y[5], y[6])
    return y


def _q_times_reference(a, b):
    # the quaternion product a*b
    return (a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
            a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
            a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
            a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0])


def _horner_reference(c, m):
    acc = c[-1]
    for x in reversed(c[:-1]):
        acc = x + m * acc
    return acc


def _taylor_reference(c, d, order):
    # the coefficients of 1, x, ..., x^order in c(d + x), by repeated synthetic division by
    # (x - d): the remainder is the value and the quotient's coefficients are the partial
    # values of Horner's scheme
    out = []
    for _ in range(order + 1):
        partial = [c[-1]]
        for x in reversed(c[:-1]):
            partial.append(x + d * partial[-1])
        out.append(partial[-1])
        c = partial[-2::-1] or [0j]
    return out


def _jet_product(a, b):
    # the product of two jets of the same order, truncated there, each coefficient summed
    # in ascending powers of a
    out = []
    for k in range(len(a)):
        acc = a[0] * b[k]
        for i in range(1, k + 1):
            acc += a[i] * b[k - i]
        out.append(acc)
    return out


def _double_reference(pa, ga, r, mc):
    # the jets at mc of the block (pa, ga, r) taken twice, by the composition rule of
    # _double's docstring; jets are lists of complex Taylor coefficients about mc
    lam = 1.0 + r
    e = r.real * (2.0 + r.real) + r.imag * r.imag  # mu - 1
    mu, d = 1.0 + e, e * mc

    def at_mu_m(c):  # the jet of c(mu*m) = c(mc + d + mu*(m - mc))
        out, w = [], 1.0
        for i, x in enumerate(_taylor_reference(c, d, len(c) - 1)):
            if i:
                w *= mu
            out.append(x * w if i else x)
        return out

    pb, h = at_mu_m(pa), [x * lam for x in at_mu_m(ga)]
    gh = _jet_product(ga, [x.conjugate() for x in h])
    m_gh = [mc * gh[0]] + [mc * x + y for x, y in zip(gh[1:], gh)]  # m*G_a*conj(H)
    p = [w + x + y - z for w, x, y, z in zip(pa, pb, _jet_product(pa, pb), m_gh)]
    g = [x + y + z for x, y, z in zip(ga, _jet_product([1.0 + pa[0]] + pa[1:], h),
                                      _jet_product(ga, [x.conjugate() for x in pb]))]
    return p, g


def _step_reference(y, a1, a3, h):
    # |p0|, and the step's P and G, as coefficients in ascending powers of m, and R
    s = math.hypot(*y[4:])
    at = [_identity_step(0.5 * a1 * s, 0.5 * a3 * y[6], (a3 - a1) * y[6], h, k)
          for k in (0.0, 1.0, 2.0)]

    def quadratic(i):  # through the values at m = 0, 1, 4
        c2 = (at[2][i] - at[0][i] - 4.0 * (at[1][i] - at[0][i])) / 12.0
        return at[0][i], at[1][i] - at[0][i] - c2, c2

    def line(i):  # through the values at m = 1, 4; the sample at m = 4 is u = 2*e1
        c1 = (0.5 * at[2][i] - at[1][i]) / 3.0
        return at[1][i] - c1, c1

    return (s, [complex(*c) for c in zip(quadratic(0), quadratic(3))],
            [complex(*c) for c in zip(line(1), line(2))], complex(*at[1][4:]))


def _shrink_reference(r):
    # 1 - |1 + r|^2, by which a block shrinks |u|^2, relative
    return -(r.real * (2.0 + r.real) + r.imag * r.imag)


def _rk4_ladder(y, a1, a3, h, n, order):
    # the kernel's ladder with jets of the given order, lists for q and u and one list of the
    # blocks taken: R of the blocks of 1, 2, 4, ... steps, doubled past 8 only while a block
    # shrinks |u|^2 by at most 2**-30; the largest block n // L times, then one block per
    # set bit of n mod L, largest first.  Each block evaluates its jets at dm = m - centre.
    # The centre is taken afresh where |dm| exceeds the window w*centre, w = 2**-20/(L*teq)
    # up to 1, with teq = h*a1*|p0|*sqrt(m) at the m that took the centre; it is placed
    # ahead along the drift: at the midpoint of m and the predicted m of the last block of
    # the same size that the window can hold
    s, p, g, r = _step_reference(y, a1, a3, h)
    rs = [r]
    while 2 ** len(rs) <= n:
        r = rs[-1] + rs[-1] + rs[-1] * rs[-1]
        if len(rs) > 3 and not abs(_shrink_reference(r)) <= 2.0 ** -30:
            break
        rs.append(r)
    top = len(rs) - 1
    blocks = [top] * (n >> top) + [j for j in range(top - 1, -1, -1) if n >> j & 1]
    q, u = list(y[:4]), [y[4] / s, y[5] / s]
    teq = None

    def window(j):
        return 2.0 ** -20 / max(2.0 ** -20, teq * 2 ** j)

    centre = jets = None
    for i, j in enumerate(blocks):
        r = rs[j]
        mu = 1.0 - _shrink_reference(r)
        m = u[0] * u[0] + u[1] * u[1]
        if centre is None or not abs(m - centre) <= window(j) * centre:
            teq = h * a1 * s * math.sqrt(m)
            w = window(j)
            nu = max((1.0 - w) / (1.0 + w), mu ** (blocks[i:].count(j) - 1)) if mu < 1.0 else 1.0
            centre = m * (0.5 + 0.5 * nu)
            jets = [(_taylor_reference(p, centre, order), _taylor_reference(g, centre, order))]
            for rr in rs[:j]:
                jets.append(_double_reference(*jets[-1], rr, centre))
        dm = m - centre
        pv, gv = (complex(_horner_reference([c.real for c in jet], dm),
                          _horner_reference([c.imag for c in jet], dm)) for jet in jets[j])
        al, be = gv.real, gv.imag
        d = (pv.real, al * u[0] - be * u[1], al * u[1] + be * u[0], pv.imag)
        q = [a + b for a, b in zip(q, _q_times_reference(q, d))]
        u = [a + b for a, b in zip(u, (r.real * u[0] - r.imag * u[1], r.real * u[1] + r.imag * u[0]))]
        norm = 1.0 / math.hypot(*q)
        q = [a * norm for a in q]
    return (*q, u[0] * s, u[1] * s, y[6])


def _rk4_compact(y, a1, a3, h, n):
    # the compact form of the kernel: quadratic jets; the written-out loop must reproduce it
    # bit for bit
    return _rk4_ladder(y, a1, a3, h, n, 2)


def _rk4_order_six(y, a1, a3, h, n):
    # the same ladder and centres with jets of order 6, the reference for the terms the
    # kernel's quadratics drop, in its evaluations and in its doublings' moved jets
    return _rk4_ladder(y, a1, a3, h, n, 6)


def _turning_args(m, p0, n, angle):
    # _rk4's arguments for n steps that each turn q or p by at most `angle` radians: the
    # rotation rates are |Omega| for q and |b| for p
    a1, a3 = 1.0 / m.i1, 1.0 / m.i3
    rate = max(math.hypot(p0.p1 * a1, p0.p2 * a1, p0.p3 * a3), abs((a3 - a1) * p0.p3))
    return (1.0, 0.0, 0.0, 0.0, p0.p1, p0.p2, p0.p3), a1, a3, angle / rate, n


# 2003 steps in which q turns by 0.15 rad and p by 0.107: RK4 shrinks |u|^2 by 1.6e-7 a
# block of 8, so the ladder stops at 8 steps; the equatorial turn is 0.047 rad a step, so a
# window of 2.5e-6 either side of a centre placed ahead holds about 30 blocks, and the
# kernel takes 9 centres for the 250 blocks and the blocks of 2 and 1 steps left
_RECENTRING_METRIC = BergerMetric(2.0, 0.5)
_RECENTRING = (_RECENTRING_METRIC, initial_momentum(_RECENTRING_METRIC, 0.6, 0.7), 2003, 0.15)
# p turns fast about a mostly axial momentum: the equatorial turn is 1e-4 rad a step at
# most, and one centre holds each run, where a window of 2**-18 centred on m takes up to 250
_FAST_TURN = BergerMetric(1001.0, 1.0)


def _count_calls(monkeypatch, name) -> list:
    # wraps geodesic.<name>, which the kernel calls by its global name: one entry per call,
    # its last argument (the centre of _ladder and _double)
    calls = []
    fn = getattr(geodesic, name)

    def counted(*args):
        calls.append(args[-1])
        return fn(*args)
    monkeypatch.setattr(geodesic, name, counted)
    return calls


def _rel_log_reference(base, other):
    # log(base^-1 * other) in rotation-vector coordinates, for unit quaternions
    bw, bx, by, bz = base[0], -base[1], -base[2], -base[3]
    ow, ox, oy, oz = other[:4]
    w = bw * ow - bx * ox - by * oy - bz * oz
    v = np.array([bw * ox + bx * ow + by * oz - bz * oy,
                  bw * oy - bx * oz + by * ow + bz * ox,
                  bw * oz + bx * oy - by * ox + bz * ow])
    vn = np.linalg.norm(v)
    return v if vn < 1e-300 else 2.0 * math.atan2(vn, w) / vn * v


# Dot products are written out left to right, so the rounding is the same on
# every Python version (``sum`` of floats is compensated since 3.12).
def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _conjugate_determinant_reference(m, pbar3):
    # the compact form of _conjugate_determinant, one list per column, with
    # c(e2)/sin(a) as the first; the scalar D must reproduce it bit for bit
    eta = m.eta()
    e = (math.sqrt(max(0.0, 1.0 - pbar3 * pbar3)), 0.0, pbar3)
    rate = 0.5 / (math.sqrt(m.i1) * _shape(m.i1 / m.i3, pbar3))
    n = math.hypot(e[0], (1.0 + eta) * pbar3)
    u = (e[0] / n, 0.0, (1.0 + eta) * pbar3 / n)
    s = math.ldexp(1.0, min(0, 1000 - math.frexp(eta)[1]))
    v = (-u[2] * s, 0.0, u[0] * s)
    ev = _dot(e, v)
    along = (ev * e[0], ev * e[1], ev * e[2] + eta * v[2])
    across = (v[0] - ev * e[0], v[1] - ev * e[1], v[2] - ev * e[2])
    column = tuple(zip(along, across, _cross(e, v)))

    def det(t):
        a = t * rate
        ca, sa = math.cos(a), math.sin(a)
        c1 = [sa * pbar3, ca, -sa * e[0]]
        c2 = [a * g + sa * (ca * h - sa * k) for g, h, k in column]
        return _dot(u, _cross(c1, c2))

    return det, math.pi / rate


def _determinant_by_differences(m, pbar3, delta=1e-6):
    # the determinant from _flow alone: the base geodesic and four momenta
    # perturbed by +-delta along two directions tangent to {H = 1/2}, pulled
    # back onto the level set; central differences of their group logs
    # relative to the base endpoint give the two level-set columns
    p0 = initial_momentum(m, pbar3, 0.0)
    base = np.array([p0.p1, p0.p2, p0.p3])
    grad = base / np.array([m.i1, m.i1, m.i3])
    grad /= np.linalg.norm(grad)
    seed = np.zeros(3)
    seed[np.argmin(np.abs(grad))] = 1.0
    v1 = np.cross(grad, seed)
    v1 /= np.linalg.norm(v1)
    family = []
    for v in (v1, np.cross(grad, v1)):
        for sign in (1.0, -1.0):
            p = base + sign * delta * v
            family.append(p / math.sqrt(p[0] ** 2 / m.i1 + p[1] ** 2 / m.i1 + p[2] ** 2 / m.i3))

    def det(t):
        row = _flow(m, tuple(base), t)
        omega = np.array([row[4] / m.i1, row[5] / m.i1, row[6] / m.i3])
        l0, l1, l2, l3 = (_rel_log_reference(row, _flow(m, tuple(p), t)) for p in family)
        return float(np.dot(omega, np.cross(l0 - l1, l2 - l3))) / (2.0 * delta) ** 2

    return det


# (i1, i3) at which the conjugate agreement check once failed: differences with
# an absolute step at extreme scales (the first six) and at huge eta (the next
# two), and the zero of D within t_pi/400 of a = pi, where the unreduced
# det = sin(a)*D had two zeros in the last cell of a 400-cell grid (the last).
# At each of them the bracketed solve on D agrees with tau_conj within 1e-12.
_HARD_METRICS = [(1e-150, 1e-151), (1e200, 1e199), (1e-300, 1e-301), (1.7e308, 1e308),
                 (2e-323, 1e-323), (1e-310, 1e-311), (1e100, 1.0), (1e300, 1.0),
                 (1.0016710069985971, 1.0)]


def _conjugate_deviation(m, pbar3):
    # relative deviation of the oracle from the conjugate equation's root,
    # on the horizon of verify's geodesic-conjugate-agreement
    eta = m.eta()
    expected = _arc_length(m, pbar3, tau_conj(eta, pbar3))
    got = conjugate_time_numeric(m, pbar3, 1.02 * _arc_length(m, pbar3, math.pi))
    return abs(got - expected) / expected


def _conjugate_time_by_scan(m, pbar3, t_max, n=400):
    # the oracle's former search, kept as a reference: D sampled at the midpoints of n cells
    # of (0, min(t_max, t_pi)] and at the end, the first negative sample bracketed from the
    # one before and refined by _bracketed_root; else t_pi, or None past the horizon
    det, t_pi = geodesic._conjugate_determinant(m, pbar3)
    end = min(t_max, t_pi)
    dt = end / n
    t0 = d0 = None
    for k in range(n + 1):
        t1 = min(end, (k + 0.5) * dt)
        d1 = det(t1)
        if d1 < 0.0:
            return geodesic._bracketed_root(det, t0, t1, d0, d1)
        t0, d0 = t1, d1
    return t_pi if t_pi <= t_max else None


def _wide_conjugate_draws(seed, count):
    # (metric, pbar3): log-uniform eta from 1e-9 to 1e308 and i3 from subnormal to where
    # i1 = (1 + eta)*i3 reaches 1e308, with pbar3's edge values among the uniform ones;
    # draws whose eta rounds to 0 at a subnormal i3 are skipped
    rng = np.random.default_rng(seed)
    edges = [1.0, -1.0, 0.0, 1e-310, 1.0 - 1e-12, -(1.0 - 2.0 ** -53)]
    draws = []
    while len(draws) < count:
        eta = 10.0 ** rng.uniform(-9.0, 308.0)
        i3 = 10.0 ** rng.uniform(-323.0, 308.0 - math.log10(1.0 + eta))
        m = BergerMetric((1.0 + eta) * i3, i3)
        k = len(draws) % 10
        pb = edges[k] if k < len(edges) else float(rng.uniform(-1.0, 1.0))
        if m.eta() > 0.0:
            draws.append((m, pb))
    return draws


def _endpoint_gap(m, p0, t, hit):
    # largest component gap between the target exp_map(m, p0, t) and the hit's endpoint
    target = _flow(m, (p0.p1, p0.p2, p0.p3), t)[:4]
    p = hit.momentum
    reached = _flow(m, (p.p1, p.p2, p.p3), hit.arrival_time)[:4]
    return max(abs(a - b) for a, b in zip(target, reached))


def _count_evaluations(monkeypatch) -> list:
    # wraps geodesic._bracketed_root: one entry per refinement, its count of evaluations
    evals = []
    refine = geodesic._bracketed_root

    def counted(f, *args):
        evals.append(0)

        def g(x):
            evals[-1] += 1
            return f(x)
        return refine(g, *args)
    monkeypatch.setattr(geodesic, "_bracketed_root", counted)
    return evals


def _e3_arrivals(ratio, theta, k_max):
    # arrivals, in units of 2*sqrt(i1), of the preimages of exp(i*theta): on the axis
    # geodesics in their first two turns, and at a = k*pi for k <= k_max, with every j
    # such that k*pi*(1 + eta*s) = theta + 2*pi*j for some |s| <= 1
    eta = ratio - 1.0
    arrivals = [((sgn * theta) % (2.0 * math.pi) + turn) / math.sqrt(ratio)
                for sgn in (1.0, -1.0) for turn in (0.0, 2.0 * math.pi)]
    for k in range(1, k_max + 1):
        lo, hi = k * math.pi * (1.0 - abs(eta)), k * math.pi * (1.0 + abs(eta))
        j = np.arange(math.ceil((lo - theta) / (2.0 * math.pi)), math.floor((hi - theta) / (2.0 * math.pi)) + 1)
        s = ((theta + 2.0 * math.pi * j) / (k * math.pi) - 1.0) / eta
        s = s[np.abs(s) <= 1.0]
        arrivals.extend(k * math.pi * np.sqrt((1.0 - s * s) + ratio * s * s))
    return arrivals


def _shortest_preimage_by_scan(m, p0, t, n=4001):
    # arrival of the shortest preimage of the target before t*(1 - 1e-4) that a fine
    # scan finds, or None.  It charts each branch by s = |Z|*sin(psi) and
    # a = atan2(sigma, |Z|*cos(psi)) + k*pi over all psi, with no pruning, compares
    # z(s, a) with the target's Z = qw + i*qz as complex numbers, and bisects each
    # sign change of their phase difference; it can miss preimages but finds none
    # that do not exist
    eta = m.eta()
    qw, qx, qy, qz = _flow(m, (p0.p1, p0.p2, p0.p3), t)[:4]
    target, sigma = complex(qw, qz), math.hypot(qx, qy)
    rho = abs(target)
    limit = t / (2.0 * math.sqrt(m.i1)) * (1.0 - 1e-4)

    def phase(psi, k):
        s = rho * np.sin(psi)
        a = np.arctan2(sigma, rho * np.cos(psi)) + k * math.pi
        z = np.exp(1j * a * eta * s) * (np.cos(a) + 1j * s * np.sin(a))
        return np.angle(z / target), a, s

    psi = np.linspace(-math.pi, math.pi, n)
    best, k = limit, 0
    while k * math.pi * math.sqrt(1.0 + min(eta, 0.0)) < best:
        d = phase(psi, k)[0]
        cells = np.nonzero((np.sign(d[:-1]) != np.sign(d[1:])) & (np.abs(d[1:] - d[:-1]) < 1.0))[0]
        lo, hi, d_lo = psi[cells], psi[cells + 1], d[cells]
        for _ in range(45):
            mid = 0.5 * (lo + hi)
            d_mid = phase(mid, k)[0]
            same = np.sign(d_mid) == np.sign(d_lo)
            lo, d_lo, hi = np.where(same, mid, lo), np.where(same, d_mid, d_lo), np.where(same, hi, mid)
        d, a, s = phase(lo, k)
        arrivals = (a * np.sqrt(1.0 + eta * s * s))[np.abs(d) < 1e-9]
        best = min([best, *arrivals])
        k += 1
    return None if best == limit else 2.0 * math.sqrt(m.i1) * best


class TestUnitQuaternion:
    def test_rejects_non_unit(self):
        with pytest.raises(DomainError,
                           match=r"quaternion norm 1\.4142135623730951 is not 1 within 1e-9"):
            UnitQuaternion(1.0, 1.0, 0.0, 0.0)


class TestInitialMomentum:
    @pytest.mark.parametrize("i1,i3,pb,phi", [
        (1.0, 1.0, 0.0, 0.0), (2.0, 1.0, 0.7, 1.3), (1.0, 3.0, -1.0, 2.0),
    ])
    def test_on_level_set(self, i1, i3, pb, phi):
        m = BergerMetric(i1, i3)
        p = initial_momentum(m, pb, phi)
        h = 0.5 * ((p.p1**2 + p.p2**2) / i1 + p.p3**2 / i3)
        assert h == pytest.approx(0.5, abs=1e-14)
        assert p.norm() == pytest.approx(momentum_norm(m, pb), abs=1e-14)

    def test_on_level_near_the_axis(self):
        # 1 - pbar3^2 cancels as pbar3 -> 1, and where i1/i3 is small the
        # equatorial part then puts H off the level by up to 2.5e-10
        rng = np.random.default_rng(26)
        for _ in range(2000):
            m = BergerMetric(10.0 ** rng.uniform(-16.0, 0.0), 1.0)
            pb = (1.0 - 10.0 ** rng.uniform(-16.0, -1.0)) * rng.choice([-1.0, 1.0])
            p0 = initial_momentum(m, pb, rng.uniform(0.0, 2.0 * math.pi))
            geodesic._check_level(m, p0)
            assert abs(geodesic._energy(m, p0) - 0.5) <= 1e-15, (m, pb)

    def test_axis_fraction_recovered(self):
        p = initial_momentum(BergerMetric(2.0, 1.0), 0.6, 0.9)
        assert p.reduced() == pytest.approx(0.6, abs=1e-14)

    def test_rejects_non_finite_phi(self):
        with pytest.raises(ValueError):
            initial_momentum(ROUND, 0.5, math.nan)


class TestExpMap:
    def test_zero_time_is_identity(self):
        q = exp_map(ROUND, Momentum(0.0, 0.0, 1.0), 0.0, 1.0)
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_round_antipode_on_axis(self):
        t = 2.0 * math.pi
        q = exp_map(ROUND, Momentum(0.0, 0.0, 1.0), t, t / 2000.0)
        assert quaternion_distance(q, -1.0, 0.0, 0.0, 0.0) < 1e-8

    @pytest.mark.parametrize("i", [0.5, 1.0, 4.0])
    def test_round_antipode_any_direction(self, i):
        m = BergerMetric(i, i)
        t = 2.0 * math.pi * math.sqrt(i)
        q = exp_map(m, initial_momentum(m, 0.4, 1.1), t, t / 2000.0)
        assert quaternion_distance(q, -1.0, 0.0, 0.0, 0.0) < 1e-7

    def test_conservation_along_flow(self):
        m = BergerMetric(1.0, 2.0)
        pb = 1.0
        p0 = initial_momentum(m, pb, 0.0)
        t = 3.0 * t_cut(m, pb)
        state = endpoint_state(m, p0, t, t / 1e4)
        h = 0.5 * ((state.p.p1**2 + state.p.p2**2) / m.i1 + state.p.p3**2 / m.i3)
        assert abs(h - 0.5) < 1e-9 * 0.5
        assert abs(state.p.norm() - p0.norm()) < 1e-9 * p0.norm()
        assert abs(state.p.p3 - p0.p3) < 1e-9 * p0.norm()

    def test_fourth_order_convergence(self):
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(10):
            m = BergerMetric(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
            p0 = initial_momentum(m, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
            t = rng.uniform(6.0, 12.0)
            qs = [exp_map(m, p0, t, t / n) for n in (1000, 2000, 8000)]
            coarse = np.array([qs[0].w, qs[0].x, qs[0].y, qs[0].z])
            half = np.array([qs[1].w, qs[1].x, qs[1].y, qs[1].z])
            ref = np.array([qs[2].w, qs[2].x, qs[2].y, qs[2].z])
            e_coarse = np.linalg.norm(coarse - ref)
            e_half = np.linalg.norm(half - ref)
            if e_half > 1e-13:  # above the roundoff floor the ratio is clean
                ratios.append(e_coarse / e_half)
        assert len(ratios) >= 5
        for r in ratios:
            assert 10.0 < r < 30.0

    def test_exact_flow_matches_integrator(self):
        # the closed-form symmetric-top flow behind the conjugate and
        # shooting oracles solves the same ODE as the reference integrator
        rng = np.random.default_rng(11)
        for _ in range(4):
            m = BergerMetric(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0))
            for pb in (-1.0, 0.0, 1.0, rng.uniform(-1.0, 1.0)):
                p0 = initial_momentum(m, pb, rng.uniform(0.0, 2.0 * math.pi))
                t = rng.uniform(6.0, 12.0)
                state = endpoint_state(m, p0, t, t / 8000.0)
                exact = _flow(m, (p0.p1, p0.p2, p0.p3), t)
                q = np.array([state.q.w, state.q.x, state.q.y, state.q.z])
                p = np.array([state.p.p1, state.p.p2, state.p.p3])
                assert np.abs(exact[:4] - q).max() < 1e-9
                assert np.abs(exact[4:] - p).max() < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        i1=st.floats(-320.0, 300.0).map(lambda e: 10.0 ** e),
        eta=st.floats(-0.9, 4.0),
        pb=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
        phi=st.floats(0.0, 2.0 * math.pi),
        turns=st.floats(0.1, 2.0),
    )
    # subnormal metrics, where i1/(1 + eta*pbar3^2) and p^2/i1 lose their digits
    @example(i1=2e-323, eta=1.0, pb=0.6, phi=0.8, turns=1.0)
    @example(i1=5e-324, eta=0.0, pb=0.6, phi=0.8, turns=1.0)
    def test_integrator_matches_the_exact_flow_at_every_scale(self, i1, eta, pb, phi, turns):
        # the integrator works in units of sqrt(i1), so test_exact_flow_matches_integrator's
        # bound holds at every scale, with momenta relative to |p0|
        m = BergerMetric(i1, i1 / (1.0 + eta))
        p0 = initial_momentum(m, pb, phi)
        t = turns * 2.0 * math.pi * math.sqrt(i1)
        state = endpoint_state(m, p0, t, t / 8000.0)
        exact = _flow(m, (p0.p1, p0.p2, p0.p3), t)
        q = (state.q.w, state.q.x, state.q.y, state.q.z)
        assert max(abs(a - b) for a, b in zip(exact[:4], q)) < 1e-9
        p = (state.p.p1, state.p.p2, state.p.p3)
        assert max(abs(a - b) for a, b in zip(exact[4:], p)) < 1e-9 * p0.norm()

    # sin(t*|p3|/(2*i3)) at t = 2.2*pi*i1, which is 1.1*t_cut on the axis, to 50 digits
    @pytest.mark.parametrize("ratio,want", [(1e-8, 3.455751918948772e-08),
                                            (1e-12, 3.4557519189487727e-12),
                                            (1e-16, 3.455751918948773e-16),
                                            (2.0 ** -53, 3.8366553478094954e-16)])
    @pytest.mark.parametrize("pb", [-1.0, 1.0])
    def test_axis_phase_of_a_very_oblate_metric(self, ratio, want, pb):
        # on the axis qz = sin(a*(1 + eta)), where a*eta cancels against a as eta -> -1
        # unless the phase is formed as a*((1 - s) + (i1/i3)*s)
        m = BergerMetric(ratio, 1.0)
        p0 = initial_momentum(m, pb, 0.0)
        qz = _flow(m, (p0.p1, p0.p2, p0.p3), 2.2 * math.pi * ratio)[3]
        assert abs(qz - pb * want) <= 4 * math.ulp(want)

    @pytest.mark.parametrize("eta_range", [(-0.9, -0.1), (0.0, 0.0), (0.05, 1.0), (5.0, 49.0)])
    def test_rk4_kernel_keeps_the_bits_of_the_compact_form(self, eta_range):
        rng = np.random.default_rng(17)
        i3 = float(rng.uniform(0.5, 3.0))
        m = BergerMetric((1.0 + float(rng.uniform(*eta_range))) * i3, i3)
        for pb in (-1.0, 0.0, 1.0, float(rng.uniform(-1.0, 1.0))):
            p0 = initial_momentum(m, pb, float(rng.uniform(0.0, 2.0 * math.pi)))
            y = (1.0, 0.0, 0.0, 0.0, p0.p1, p0.p2, p0.p3)
            for n in (1, 7, 8, 9, 15, 16, 17, 40, 1024, 2000, 2003):
                h = float(rng.uniform(6.0, 12.0)) / n
                args = (1.0 / m.i1, 1.0 / m.i3, h, n)
                assert _rk4(y, *args) == _rk4_compact(y, *args)

    def test_rk4_kernel_keeps_the_bits_of_the_compact_form_as_it_recentres(self, monkeypatch):
        centres = _count_calls(monkeypatch, "_ladder")
        args = _turning_args(*_RECENTRING)
        assert _rk4(*args) == _rk4_compact(*args)
        assert len(centres) == 9

    @pytest.mark.parametrize("angle", [0.05, 0.1, 0.15, 0.2])
    def test_one_centre_where_p_turns_fast_about_the_axis(self, angle, monkeypatch):
        centres = _count_calls(monkeypatch, "_ladder")
        args = _turning_args(_FAST_TURN, initial_momentum(_FAST_TURN, 0.9, 0.4), 2000, angle)
        assert _rk4(*args) == _rk4_compact(*args)
        assert len(centres) == 1

    def test_one_ladder_of_ten_doublings_per_run(self, monkeypatch):
        # a benchmark-like run of 2000 steps: 10 doublings give the block of 1024 steps, all
        # at one centre, and the run takes the blocks of 1024, 512, 256, 128, 64 and 16
        doublings = _count_calls(monkeypatch, "_double")
        m = BergerMetric(2.0, 1.0)
        p0 = initial_momentum(m, 0.6, 0.3)
        t = 1.3 * t_cut(m, 0.6)
        endpoint_state(m, p0, t, t / 2000.0)
        assert len(doublings) <= 10
        assert len(set(doublings)) == 1

    @pytest.mark.parametrize("n", range(1, 41))
    def test_rk4_kernel_agrees_with_the_textbook_step_for_every_short_run(self, n):
        # every bit pattern of n up to 40: the blocks of one set bit each, and for n >= 16 the
        # ladder past 8 steps where a block barely shrinks |u|^2 (0.01 rad) and the largest
        # block repeated where it does (0.2 rad)
        for eta, pb, angle in ((-0.5, 0.3, 0.01), (0.5, 0.6, 0.2), (3.0, 0.9, 0.1), (1e3, 0.9, 0.2)):
            m = BergerMetric(2.0, 2.0 / (1.0 + eta))
            p0 = initial_momentum(m, pb, 0.7)
            got, want = self._kernel_and_textbook(m, p0, n, angle)
            assert not any(abs(a - b) > 1e-12 for a, b in zip(got[:4], want[:4]))
            assert not any(abs(a - b) > 1e-12 * p0.norm() for a, b in zip(got[4:], want[4:]))

    @staticmethod
    def _kernel_and_textbook(m, p0, n, angle):
        args = _turning_args(m, p0, n, angle)
        return _rk4(*args), _rk4_textbook(*args)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1000, 1001, 1003, 1007, 2000]),
        i1=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
        eta=st.one_of(st.floats(-0.95, 1.0, exclude_min=True),
                      st.floats(0.0, 8.0).map(lambda e: 10.0 ** e)),
        pb=st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 1e-310]), st.floats(-1.0, 1.0)),
        phi=st.floats(0.0, 2.0 * math.pi),
        turns=st.floats(0.05, 1.0),
    )
    # a sample at |(p1, p2)| with a fallback of 1 overflows on the axis here
    @example(n=1000, i1=1e-300, eta=0.0, pb=1.0, phi=0.0, turns=1.0)
    def test_rk4_kernel_agrees_with_the_textbook_step(self, n, i1, eta, pb, phi, turns):
        # admissible steps (n >= 1000) over at most one turn of the fastest
        # rotation; over more turns a p that turns by under 1e-9 per step
        # drifts by up to n/2 ulps in either form, and q turns that into more
        # than 1e-12 (see the long-run test)
        m = BergerMetric(i1, i1 / (1.0 + eta))
        p0 = initial_momentum(m, pb, phi)
        got, want = self._kernel_and_textbook(m, p0, n, turns * 2.0 * math.pi / n)
        assert all(math.isnan(b) for a, b in zip(got, want) if math.isnan(a))
        # where the textbook form is NaN the difference is too, and passes
        assert not any(abs(a - b) > 1e-12 for a, b in zip(got[:4], want[:4]))
        assert not any(abs(a - b) > 1e-12 * p0.norm() for a, b in zip(got[4:], want[4:]))

    @pytest.mark.parametrize("eta,pb", [(-0.5, 0.3), (0.5, 0.3), (0.5, 0.6), (3.0, 0.3)])
    def test_rk4_kernel_keeps_the_textbook_roundoff_over_long_runs(self, eta, pb):
        # 2000 steps of 0.1 rad, about 32 turns; an update of p as (1 + r0)*p + ...
        # rather than p + (r0*p + ...) drifts |p| by one rounding of 1 + r0 a
        # step, and q turns that into 1.9e-12 to 2.7e-12 here (the kernel: 1.3e-13)
        m = BergerMetric(2.0, 2.0 / (1.0 + eta))
        got, want = self._kernel_and_textbook(m, initial_momentum(m, pb, 0.7), 2000, 0.1)
        assert max(abs(a - b) for a, b in zip(got[:4], want[:4])) < 1e-12

    # the quadratic jets against the same ladder with jets of order 6, which keeps the terms
    # the kernel drops up to (m - centre)^6: p is the same to the bit, as only q's update
    # changes, and q within 1e-14.  Measured over 900 draws of the textbook test's domain,
    # 900 with steps from 1e-4 to 0.2 rad (up to 63 centres) and the long runs, q was the
    # same to the bit too
    @staticmethod
    def _assert_within_the_full_degree_bound(args):
        got, want = _rk4(*args), _rk4_order_six(*args)
        assert [math.isnan(a) for a in got] == [math.isnan(b) for b in want]
        assert not any(abs(a - b) > 1e-14 for a, b in zip(got[:4], want[:4]))
        assert [a for a in got[4:] if a == a] == [b for b in want[4:] if b == b]

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1000, 1001, 1003, 1007, 2000]),
        i1=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
        eta=st.one_of(st.floats(-0.95, 1.0, exclude_min=True),
                      st.floats(0.0, 8.0).map(lambda e: 10.0 ** e)),
        pb=st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 1e-310]), st.floats(-1.0, 1.0)),
        phi=st.floats(0.0, 2.0 * math.pi),
        turns=st.floats(0.05, 1.0),
    )
    @example(n=1000, i1=1e-300, eta=0.0, pb=1.0, phi=0.0, turns=1.0)
    def test_rk4_kernel_is_near_the_full_degree_form(self, n, i1, eta, pb, phi, turns):
        m = BergerMetric(i1, i1 / (1.0 + eta))
        p0 = initial_momentum(m, pb, phi)
        self._assert_within_the_full_degree_bound(_turning_args(m, p0, n, turns * 2.0 * math.pi / n))

    @pytest.mark.parametrize("eta,pb", [(-0.5, 0.3), (0.5, 0.3), (0.5, 0.6), (3.0, 0.3)])
    def test_rk4_kernel_is_near_the_full_degree_form_over_long_runs(self, eta, pb):
        m = BergerMetric(2.0, 2.0 / (1.0 + eta))
        self._assert_within_the_full_degree_bound(_turning_args(m, initial_momentum(m, pb, 0.7), 2000, 0.1))

    def test_rk4_kernel_is_near_the_full_degree_form_as_it_recentres(self, monkeypatch):
        centres = _count_calls(monkeypatch, "_ladder")
        self._assert_within_the_full_degree_bound(_turning_args(*_RECENTRING))
        assert len(centres) == 9

    @pytest.mark.parametrize("i1,pb,t,turn", [
        # the energy is nearly all equatorial, and in 2000 steps p turns by 0.0559 and
        # 0.0581 rad a step, either side of the cap (72e-6/2000)^(1/6) = 0.057
        (1e-12, 0.999999999, 5e-9, None), (1e-12, 0.999999999, 5.2e-9, "0.0581"),
        # 2.3e-4 of the energy is equatorial but 0.19 of |p|^2: at 0.0879 rad a step p
        # is past |p|'s cap (144e-6/(2000*0.19))^(1/6) = 0.085; at 0.2 rad a step the
        # energy drifts by only 4.1e-7 of itself, |p| by 1.7e-4
        (1001.0, 0.9, 176.0, "0.0879"), (1001.0, 0.9, 400.0, "0.2"),
        # no drift shows q's phase error n*(|Omega|*h/2)^5/120, capped at 1e-6: q turns by
        # 0.05 and 0.083 rad a step, either side of the cap 2*(120e-6/2000)^(1/5) = 0.072,
        # with q predicted 1.6e-7 and 2.0e-6 off
        (1001.0, 0.9, 100.0, None), (1001.0, 0.9, 166.0, "0.083"),
        # on the round metric p does not turn and q turns by t/2000 rad a step: 0.07 and
        # 0.074 rad, q 8.8e-7 and 1.2e-6 off; at 0.5 rad a step q is 1.3e-2 off
        (1.0, 0.0, 140.0, None), (1.0, 0.5, 140.0, None), (1.0, 0.0, 148.0, "0.074"),
        (1.0, 0.5, 148.0, "0.074"), (1.0, 0.0, 1000.0, "0.5"),
    ])
    def test_drift_check_caps_the_turn_per_step(self, i1, pb, t, turn):
        m = BergerMetric(i1, 1.0)
        p0 = initial_momentum(m, pb, 0.4)
        if turn:
            with pytest.raises(NormalizationError, match=f"{turn} rad per step"):
                endpoint_state(m, p0, t, t / 2000.0)
        else:
            assert endpoint_state(m, p0, t, t / 2000.0).t == t

    def test_diverged_run_is_a_normalization_error(self):
        # RK4 at step 50 diverges to NaN; a NaN energy must fail the drift
        # test rather than reach UnitQuaternion's validation
        m = BergerMetric(3.0, 1.0)
        t = 1e5
        with pytest.raises(NormalizationError):
            endpoint_state(m, initial_momentum(m, 0.5, 0.0), t, t / 2000.0)

    @pytest.mark.parametrize("pb", [-1.0, 0.0, 1.0])
    def test_diverged_quaternion_is_a_normalization_error(self, pb):
        # these momenta are conserved exactly, so only q shows the divergence;
        # it must not reach UnitQuaternion's validation as invalid input
        m = BergerMetric(2.0, 1.0)
        t = 1e300
        with pytest.raises(NormalizationError):
            endpoint_state(m, initial_momentum(m, pb, 0.7), t, t / 1000.0)

    def test_rejects_momentum_off_level(self):
        with pytest.raises(DomainError):
            exp_map(ROUND, Momentum(0.0, 0.0, 2.0), 1.0, 1e-4)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            exp_map(ROUND, Momentum(0.0, 0.0, 1.0), -1.0, 1e-4)

    @pytest.mark.parametrize("step", [-1.0, math.nan, math.inf])
    def test_rejects_an_invalid_step_at_zero_time(self, step):
        with pytest.raises(DomainError, match="step"):
            endpoint_state(ROUND, Momentum(0.0, 0.0, 1.0), 0.0, step)

    def test_zero_step_only_at_zero_time(self):
        p0 = Momentum(0.0, 0.0, 1.0)
        assert endpoint_state(ROUND, p0, 0.0, 0.0).q == UnitQuaternion(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError, match="step"):
            endpoint_state(ROUND, p0, 1.0, 0.0)

    def test_rejects_coarse_step(self):
        with pytest.raises(DomainError, match=r"step 0\.002 exceeds t/1000 = 0\.001"):
            exp_map(ROUND, Momentum(0.0, 0.0, 1.0), 1.0, 0.002)

    def test_state_carries_time_and_momentum(self):
        state = endpoint_state(ROUND, Momentum(0.0, 0.0, 1.0), 1.0, 1e-3)
        assert isinstance(state, GeodesicState)
        assert state.t == 1.0
        assert state.p.norm() == pytest.approx(1.0, abs=1e-12)


class TestConjugateTime:
    def test_matches_closed_form_at_zero(self):
        expect = 2.0 * tau_conj(1.0, 0.0)  # |p| = 1 at pbar3 = 0
        got = conjugate_time_numeric(ETA_ONE, 0.0, 6.0)
        assert got == pytest.approx(expect, rel=1e-3)

    def test_matches_closed_form_interior(self):
        pb = 0.6
        norm = momentum_norm(ETA_ONE, pb)
        expect = 2.0 * ETA_ONE.i1 * tau_conj(1.0, pb) / norm
        got = conjugate_time_numeric(ETA_ONE, pb, 1.02 * 2.0 * math.pi / norm)
        assert got == pytest.approx(expect, rel=1e-3)

    def test_axis_geodesic_beyond_horizon(self):
        with pytest.raises(NoConjugatePoint):
            conjugate_time_numeric(ETA_ONE, 1.0, 6.0)

    def test_axis_geodesic_within_horizon(self):
        got = conjugate_time_numeric(ETA_ONE, 1.0, 9.0)
        assert got == pytest.approx(2.0 * math.pi * math.sqrt(2.0), rel=1e-3)

    def test_scan_stops_at_the_first_event(self, monkeypatch):
        # one bracketed solve: D at both ends of [t_pi/4, t_pi], then the Illinois steps, at
        # most 15 evaluations in all (13 here; 15 over 20 000 draws with eta from 1e-9 to
        # 1e308 and i3 from subnormal to the float maximum), the same at every eta and scale
        calls = []
        factory = geodesic._conjugate_determinant

        def counted_factory(*args):
            det, t_pi = factory(*args)

            def counted(t):
                calls.append(t)
                return det(t)
            return counted, t_pi

        monkeypatch.setattr(geodesic, "_conjugate_determinant", counted_factory)
        norm = momentum_norm(ETA_ONE, 0.5)
        got = conjugate_time_numeric(ETA_ONE, 0.5, 1.02 * 2.0 * math.pi * ETA_ONE.i1 / norm)
        assert got == pytest.approx(_arc_length(ETA_ONE, 0.5, tau_conj(1.0, 0.5)), rel=1e-12)
        assert 0 < len(calls) <= 15
        for i1, i3 in [(1.000000001, 1.0), (2.0, 1.0), (1e-300, 1e-301), (1e-310, 1e-311),
                       (1e200, 1e199), (1e21, 1.0), (1e100, 1.0), (1.0, 1e-300), (1.7e308, 1.0)]:
            m = BergerMetric(i1, i3)
            for pb in (0.0, 0.5, -0.9, 1.0 - 1e-12, 1e-310):
                calls.clear()
                t_max = min(1.02 * _arc_length(m, pb, math.pi), sys.float_info.max)
                try:
                    conjugate_time_numeric(m, pb, t_max)
                except NoConjugatePoint:  # at (1.7e308, 1) the time passes the float maximum
                    assert i1 == 1.7e308
                assert 0 < len(calls) <= 15, (m, pb)

    def test_one_solve_agrees_with_the_scan_over_wide_draws(self):
        # D is positive at t_pi/4 and changes sign at most once before t_pi, so the one
        # bracketed solve lands on the zero that the 400-cell scan found first
        worst = 0.0
        for m, pb in _wide_conjugate_draws(34, 2000):
            det, t_pi = geodesic._conjugate_determinant(m, pb)
            assert det(0.25 * min(t_pi, sys.float_info.max)) > 0.0, (m, pb)
            t_max = min(1.02 * t_pi, sys.float_info.max)
            want = _conjugate_time_by_scan(m, pb, t_max)
            if want is None:
                with pytest.raises(NoConjugatePoint):
                    conjugate_time_numeric(m, pb, t_max)
                continue
            worst = max(worst, abs(conjugate_time_numeric(m, pb, t_max) - want) / want)
        assert worst <= 1e-15

    def test_bracket_starts_below_a_half_turn(self):
        # c = eta = 1e21 times a*cos(a) at a rounded pi/2, about 1e-16, outweighs B = 1, so
        # D(t_pi/2) rounds below 0: a bracket from t_pi/2 would hold no sign change
        m = BergerMetric(1e21, 1.0)
        det, t_pi = geodesic._conjugate_determinant(m, 0.0)
        assert det(0.5 * t_pi) <= 0.0 < det(0.25 * t_pi)
        assert _conjugate_deviation(m, 0.0) < 1e-12

    @pytest.mark.parametrize("i1,i3", [(2.0, 1.0), (3.125, 1.0), (1e-300, 1e-301), (1.7e308, 1e308)])
    @pytest.mark.parametrize("pb", [1.0, -1.0])
    def test_axis_geodesic_meets_its_family_at_t_pi(self, i1, i3, pb):
        # D = kappa*(1 + eta)*sin(a) on the axis: no zero before t_pi, where at (3.125, 1)
        # sin(a) rounds to -3.2e-16
        m = BergerMetric(i1, i3)
        det, t_pi = geodesic._conjugate_determinant(m, pb)
        assert (det(t_pi) < 0.0) == (i1 == 3.125)
        assert conjugate_time_numeric(m, pb, 1.02 * t_pi) == t_pi

    def test_t_pi_past_the_float_maximum(self):
        # t_pi overflows but the conjugate time, 1.09e308, does not: the bracket starts at a
        # quarter of the float maximum, where a is below pi/4
        m, pb, t_max = BergerMetric(1.7e308, 1.0), 0.2, sys.float_info.max
        assert geodesic._conjugate_determinant(m, pb)[1] == math.inf
        got = conjugate_time_numeric(m, pb, t_max)
        assert got == _conjugate_time_by_scan(m, pb, t_max)
        assert got == pytest.approx(_arc_length(m, pb, tau_conj(m.eta(), pb)), rel=1e-12)

    def test_conjugate_point_in_the_last_half_cell(self):
        # the time lies at 0.999 of the horizon, which ends the bracket before t_pi
        expect = _arc_length(ETA_ONE, 0.5, tau_conj(1.0, 0.5))
        got = conjugate_time_numeric(ETA_ONE, 0.5, 4.9544721468990565 / 0.999)
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("pb", [0.0, 0.5, 0.9])
    def test_long_horizon_scans_only_up_to_a_pi(self, pb):
        # a horizon of a thousand times t_pi holds many zeros of D; the bracket ends at t_pi
        m = BergerMetric(3.0, 1.0)
        eta = m.eta()
        horizon = 1000.0 * 1.02 * _arc_length(m, pb, math.pi)
        got = conjugate_time_numeric(m, pb, horizon)
        assert got == pytest.approx(_arc_length(m, pb, tau_conj(eta, pb)), rel=1e-12)

    def test_agreement_to_the_last_digits(self):
        # log-uniform eta and scale, pbar3 with its edge values; the horizon
        # reaches past t_pi, as in verify's geodesic-conjugate-agreement
        rng = np.random.default_rng(23)
        edges = [1.0, -1.0, 0.0, 1e-310, 1.0 - 1e-12]
        worst = 0.0
        for i in range(300):
            eta = 10.0 ** rng.uniform(-9.0, 300.0)
            # i3 from subnormal to where i1 = (1 + eta)*i3 reaches 1e308
            i3 = 10.0 ** rng.uniform(-323.0, 308.0 - math.log10(1.0 + eta))
            m = BergerMetric((1.0 + eta) * i3, i3)
            pb = edges[i % 10] if i % 10 < len(edges) else float(rng.uniform(-1.0, 1.0))
            worst = max(worst, _conjugate_deviation(m, pb))
        assert worst <= 1e-12

    @pytest.mark.parametrize("eta", [0.05, 0.5, 1.0, 5.0, 49.0])
    @pytest.mark.parametrize("pb", [-1.0, 0.0, 0.3, 1.0])
    def test_closed_form_is_a_constant_multiple_of_differences(self, eta, pb):
        # differences of _flow approximate the same determinant up to a positive
        # factor |omega|*(2/|p0|)^2 that does not depend on t, which makes sin(a)
        # an exact factor of det
        m = BergerMetric(1.3 * (1.0 + eta), 1.3)
        reduced, t_pi = geodesic._conjugate_determinant(m, pb)
        by_differences = _determinant_by_differences(m, pb)
        horizon = 2.0 * math.sqrt(m.i1) * 2.0 * math.pi * math.sqrt(1.0 + eta * pb * pb)
        times = [horizon * (k + 0.5) / 97 for k in range(97)]
        dets = [math.sin(math.pi * t / t_pi) * reduced(t) for t in times]
        big = max(abs(d) for d in dets)
        # away from the zeros of det, where the quotient is ill-conditioned
        ratios = [by_differences(t) / d for t, d in zip(times, dets) if abs(d) > 1e-2 * big]
        assert len(ratios) > 50
        assert min(ratios) > 0.0
        assert max(ratios) / min(ratios) - 1.0 < 1e-6

    @pytest.mark.parametrize("i1,i3", [(2.0, 1.0), (1.0, 0.5), (1.0, 2.0), (1.7e308, 1.0),
                                       *_HARD_METRICS])
    def test_scalar_determinant_keeps_the_bits_of_the_compact_form(self, i1, i3):
        m = BergerMetric(i1, i3)
        rng = np.random.default_rng(19)
        for pb in (-1.0, 0.0, 1e-310, 1.0, *rng.uniform(-1.0, 1.0, 4)):
            got, got_t_pi = geodesic._conjugate_determinant(m, float(pb))
            want, want_t_pi = _conjugate_determinant_reference(m, float(pb))
            assert got_t_pi == want_t_pi
            for t in rng.uniform(0.0, 20.0, 50) * math.sqrt(i1):
                assert got(t).hex() == want(t).hex()

    @pytest.mark.parametrize("i1,i3,pb", [
        (1.0016710069985971, 1.0, 0.0),
        (1.1508008516160818, 1.0, 0.9968260965283151),
    ])
    def test_two_zeros_in_one_cell(self, i1, i3, pb):
        # D's zero lies within t_pi/400 of sin(a)'s at a = pi, so det = sin(a)*D has two
        # zeros close together; the bracket on D sees one sign change
        assert _conjugate_deviation(BergerMetric(i1, i3), pb) < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(mantissa=st.floats(1.0, 2.0, exclude_max=True), exponent=st.integers(-1074, 1019))
    def test_agreement_at_every_scale(self, mantissa, exponent):
        # i1 = 10*i3 with i3 log-uniform over the positive floats, subnormals included
        i3 = math.ldexp(mantissa, exponent)
        m = BergerMetric(10.0 * i3, i3)
        for pb in (0.0, 0.5):
            assert _conjugate_deviation(m, pb) < 1e-3, (m, pb)

    @pytest.mark.parametrize("i1,i3", _HARD_METRICS)
    def test_agreement_at_hard_metrics(self, i1, i3):
        for pb in (0.0, 0.5):
            assert _conjugate_deviation(BergerMetric(i1, i3), pb) < 1e-3, pb

    def test_agreement_near_the_float_maximum(self):
        # past eta = 5e307 the term a*eta*v3 of the determinant overflows
        # unless its column is scaled; pbar3 = 0.5 is left out because its
        # conjugate time is itself past the float maximum at this metric
        assert _conjugate_deviation(BergerMetric(1.7e308, 1.0), 0.0) < 1e-3

    def test_oblate_conjugate_time_is_t_pi(self):
        # for eta <= 0, D > 0 on (0, t_pi) (case (iv) at _conjugate_determinant): the first
        # conjugate time is t_pi, down to i1/i3 just above 2**-54 and at every scale, and a
        # horizon short of t_pi holds no conjugate point
        rng = np.random.default_rng(36)
        edges = [0.0, 1.0, -1.0, 1.0 - 1e-12, -(1.0 - 1e-12), 1e-300]
        worst = 0.0
        for i in range(1200):
            # every 50th draw is eta = 0; the ratio's floor keeps a subnormal i1 above 2**-54*i3
            ratio = 1.0 if i % 50 == 0 else math.exp(rng.uniform(math.log(2.0 ** -54 * 1.001), 0.0))
            i3 = 10.0 ** rng.uniform(-300.0, 300.0)
            m = BergerMetric(ratio * i3, i3)
            pb = edges[i % 10] if i % 10 < len(edges) else float(rng.uniform(-1.0, 1.0))
            t_pi = _arc_length(m, pb, math.pi)
            got = conjugate_time_numeric(m, pb, 1.02 * t_pi)
            worst = max(worst, abs(got - t_pi) / t_pi)
            with pytest.raises(NoConjugatePoint):
                conjugate_time_numeric(m, pb, t_pi * rng.uniform(0.01, 0.999))
        assert worst <= 1e-14

    @pytest.mark.parametrize("i1", [1e-12, 3e-16])
    def test_t_pi_does_not_cancel_on_the_axis(self, i1):
        # sqrt(1 + eta*pbar3^2) cancels as eta -> -1 on the axis, 5.4e-2 relative at
        # i1/i3 = 3e-16; _shape's (1 - pbar3^2) + (i1/i3)*pbar3^2 does not
        m = BergerMetric(i1, 1.0)
        t_pi = geodesic._conjugate_determinant(m, 1.0)[1]
        assert t_pi == pytest.approx(_arc_length(m, 1.0, math.pi), rel=1e-15, abs=0.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            conjugate_time_numeric(ETA_ONE, 0.5, 0.0)

    def test_rejects_infinite_horizon(self):
        with pytest.raises(DomainError, match="t_max must be finite"):
            conjugate_time_numeric(ETA_ONE, 0.5, math.inf)

    @pytest.mark.parametrize("i1,t_max", [(1e300, 1e-150), (2.0, 1e-322)])
    def test_underflowed_determinant_is_no_conjugate_point(self, i1, t_max):
        # D > 0 before the first conjugate time; here it underflows to 0 on the scan
        with pytest.raises(NoConjugatePoint):
            conjugate_time_numeric(BergerMetric(i1, 1.0), 0.5, t_max)


class TestBracketedRoot:
    def test_secant_step_does_not_overflow(self):
        # |f(x1)|*(x1 - x0) passes the float maximum, f(x1)/(f(x1) - f(x0)) does not
        def f(x):
            return 1e290 * (x - 1.0)
        assert geodesic._bracketed_root(f, 0.0, 1e10, -1e290, f(1e10)) == 1.0

    def test_step_onto_an_end_does_not_end_the_solve(self):
        # the first regula falsi step rounds onto 0, where f is -1e-20 and not 0
        root = geodesic._bracketed_root(lambda x: 2.0 * x - 1e-20, 0.0, math.pi / 2, -1e-20, math.pi)
        assert root == 5e-21


class TestShorterPathSearch:
    def test_past_cut_finds_shorter_arrival(self):
        m = BergerMetric(3.0, 1.0)
        pb = 0.9
        tc = t_cut(m, pb)
        p0 = initial_momentum(m, pb, 0.0)
        hit = shorter_path_search(m, p0, 1.05 * tc)
        assert hit is not None
        assert hit.arrival_time <= tc + 1e-3

    def test_well_before_cut_finds_nothing(self):
        m = BergerMetric(3.0, 1.0)
        pb = 0.9
        p0 = initial_momentum(m, pb, 0.0)
        assert shorter_path_search(m, p0, 0.5 * t_cut(m, pb)) is None

    @pytest.mark.parametrize("i1,i3,pb", [(2.0, 1.0, 1.0), (1.0, 1.0, 1.0), (0.5, 1.0, 1.0),
                                          (2e-300, 1e-300, 1.0), (2e300, 1e300, 1.0),
                                          (1.0, 1.0, 0.5), (0.5, 1.0, 0.5)])
    @pytest.mark.parametrize("factor", [1e-20, 1e-150])
    def test_nothing_shorter_near_the_identity(self, i1, i3, pb, factor):
        # the target is near the identity; a refinement that stopped on a bracket end
        # returned a path there that missed it by the target's whole distance
        m = BergerMetric(i1, i3)
        assert shorter_path_search(m, initial_momentum(m, pb, 0.3), factor * t_cut(m, pb)) is None

    @pytest.mark.parametrize("i1,factor", [(2.0, 1e-295), (2.0, 1e-200), (1e4, 1e-100)])
    def test_few_evaluations_near_the_identity(self, i1, factor, monkeypatch):
        # an axis target lies on the e3 subgroup, where the chart's s jumps from -1 to 1 at
        # chi = 0: a refinement of that jump would take up to 981 evaluations, as steps from the
        # end with the larger value round onto the other end, so such targets take the closed form
        evals = _count_evaluations(monkeypatch)
        m = BergerMetric(i1, 1.0)
        assert shorter_path_search(m, initial_momentum(m, 1.0, 0.3), factor * t_cut(m, 1.0)) is None
        assert max(evals, default=0) <= 16

    def test_round_wrap_recovers_direct_arc(self):
        t = 3.0 * math.pi
        hit = shorter_path_search(ROUND, Momentum(0.0, 0.0, 1.0), t)
        assert hit is not None
        assert hit.arrival_time == pytest.approx(math.pi, abs=1e-3)
        assert hit.momentum.reduced() == pytest.approx(-1.0, abs=1e-6)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            shorter_path_search(ROUND, Momentum(0.0, 0.0, 1.0), 0.0)

    def test_rejects_infinite_time(self):
        with pytest.raises(DomainError, match="t must be finite"):
            shorter_path_search(ROUND, Momentum(0.0, 0.0, 1.0), math.inf)

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_sandwich_near_the_float_maximum(self, factor):
        # every time and momentum here is near the float maximum, where t*|p0|
        # overflows; the flow and the search work in units of sqrt(i1)
        m = BergerMetric(1.7e308, 1e308)
        t = factor * t_cut(m, 0.6)
        p0 = initial_momentum(m, 0.6, 0.0)
        hit = shorter_path_search(m, p0, t)
        if factor < 1.0:
            assert hit is None
        else:
            assert hit is not None and hit.arrival_time < t * (1.0 - 1e-4)
            assert _endpoint_gap(m, p0, t, hit) < 1e-12

    @pytest.mark.parametrize("i1", [1e200, 1e308, 1.7e308, sys.float_info.max])
    @pytest.mark.parametrize("pb", [0.0, 1e-310])
    def test_equatorial_sandwich_near_the_float_maximum(self, i1, pb):
        # a*eta overflows here, while eta*pbar3 and eta*s, formed first, do not; the
        # equator the other way round arrives at 0.9*t_cut
        m = BergerMetric(i1, 1.0)
        p0 = initial_momentum(m, pb, 0.3)
        tc = t_cut(m, pb)
        assert shorter_path_search(m, p0, 0.9 * tc) is None
        hit = shorter_path_search(m, p0, 1.1 * tc)
        assert hit.arrival_time == pytest.approx(0.9 * tc, rel=1e-12, abs=0.0)
        assert _endpoint_gap(m, p0, 1.1 * tc, hit) < 1e-12

    @pytest.mark.parametrize("i1,pb,want", [(1.0 + 1e9, 0.0, 89411.2946133495),
                                            (1e-4, 0.3, 0.05398099703862631)])
    def test_one_refinement_per_monotone_piece(self, i1, pb, want, monkeypatch):
        # the arrival moves with the phase on each piece, so only one level per piece is
        # refined; refining every level between a piece's ends would take 9 996 and 7 153 calls
        calls = []
        refine = geodesic._bracketed_root
        monkeypatch.setattr(geodesic, "_bracketed_root",
                            lambda *args: calls.append(args) or refine(*args))
        m = BergerMetric(i1, 1.0)
        hit = shorter_path_search(m, initial_momentum(m, pb, 0.3), 1.1 * t_cut(m, pb))
        assert len(calls) <= 16
        assert hit.arrival_time == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_axis_geodesic_of_a_very_oblate_metric(self):
        # 1 + eta*pbar3^2 would cancel at i1/i3 = 1e-8 and put the momentum off the unit-speed level
        m = BergerMetric(1e-8, 1.0)
        p0 = initial_momentum(m, 1.0, 0.3)
        t = 1.1 * t_cut(m, 1.0)
        hit = shorter_path_search(m, p0, t)
        assert hit is not None and _endpoint_gap(m, p0, t, hit) < 1e-12

    def test_benchmark_like_draws_hit_only_past_the_cut(self):
        # eta log-uniform in [0.2, 1e3], pbar3 uniform in [0, 1]
        rng = np.random.default_rng(41)
        for _ in range(20):
            eta = float(np.exp(rng.uniform(math.log(0.2), math.log(1e3))))
            pb = float(rng.uniform(0.0, 1.0))
            i3 = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            m = BergerMetric((1.0 + eta) * i3, i3)
            p0 = initial_momentum(m, pb, float(rng.uniform(0.0, 2.0 * math.pi)))
            tc = t_cut(m, pb)
            assert shorter_path_search(m, p0, 0.9 * tc) is None, (m, pb)
            hit = shorter_path_search(m, p0, 1.1 * tc)
            assert hit is not None, (m, pb)
            assert _endpoint_gap(m, p0, 1.1 * tc, hit) < 1e-12, (m, pb)

    @pytest.mark.parametrize("phi", [0.738, 1.0, 5.752])
    def test_near_equatorial_geodesic_of_a_prolate_metric(self, phi):
        # the competing geodesic lies far from p0 in (pbar3, phi) here
        m = BergerMetric(41.0, 1.0)
        p0 = initial_momentum(m, 0.05, phi)
        t = 1.1 * t_cut(m, 0.05)
        hit = shorter_path_search(m, p0, t)
        assert hit is not None and hit.arrival_time < t * (1.0 - 1e-4)
        assert _endpoint_gap(m, p0, t, hit) < 1e-12

    def test_large_eta_probe_grid(self):
        # eta*pbar3 between 1 and 10 at eta >= 20: no miss past the cut, no hit before it
        rng = np.random.default_rng(2026)
        failures = []
        for eta in (20.0, 30.0, 41.0, 60.0, 100.0):
            m = BergerMetric(1.0 + eta, 1.0)
            for _ in range(30):
                pb = float(rng.uniform(1.0 / eta, 10.0 / eta))
                p0 = initial_momentum(m, pb, float(rng.uniform(0.0, 2.0 * math.pi)))
                tc = t_cut(m, pb)
                late = shorter_path_search(m, p0, 1.1 * tc)
                if (shorter_path_search(m, p0, 0.9 * tc) is not None or late is None
                        or _endpoint_gap(m, p0, 1.1 * tc, late) >= 1e-12):
                    failures.append((eta, pb))
        assert failures == []

    @pytest.mark.parametrize("eta", [0.0, 3.0, 40.0])
    @pytest.mark.parametrize("pb", [-1.0, 1.0])
    @pytest.mark.parametrize("factor", [1.3, 2.2])
    def test_target_on_the_axis_subgroup(self, eta, pb, factor):
        # an axis geodesic ends on the e3 subgroup, Z = exp(i*theta) and sigma = 0;
        # there the preimages are the axis geodesics, a*(1 + eta) = +-theta
        # (mod 2*pi), and every s with a = k*pi and k*pi*(1 + eta*s) = theta (mod 2*pi)
        m = BergerMetric(1.3 * (1.0 + eta), 1.3)
        p0 = initial_momentum(m, pb, 0.4)
        t = factor * t_cut(m, pb)
        qw, _, _, qz = _flow(m, (p0.p1, p0.p2, p0.p3), t)[:4]
        theta = math.atan2(qz, qw)
        limit = t / (2.0 * math.sqrt(m.i1)) * (1.0 - 1e-4)
        arrivals = [(sgn * theta) % (2.0 * math.pi) / math.sqrt(1.0 + eta) for sgn in (1.0, -1.0)]
        k = 1
        while eta > 0.0 and k * math.pi < limit:
            d = (theta - k * math.pi + math.pi) % (2.0 * math.pi) - math.pi
            if abs(d) <= k * math.pi * eta:
                arrivals.append(math.hypot(k * math.pi, d / math.sqrt(eta)))
            k += 1
        shortest = min(a for a in arrivals if 0.0 < a < limit)
        hit = shorter_path_search(m, p0, t)
        assert hit.arrival_time == pytest.approx(2.0 * math.sqrt(m.i1) * shortest, rel=1e-12)
        assert _endpoint_gap(m, p0, t, hit) < 1e-12

    def test_axis_geodesics_hit_only_past_the_cut(self):
        # |Z| of these targets rounds past 1 in about one case in twenty
        rng = np.random.default_rng(0)
        for _ in range(200):
            eta, pb = float(rng.uniform(-0.9, 5.0)), float(rng.choice([-1.0, 1.0]))
            factor = float(rng.choice([rng.uniform(0.5, 0.99), rng.uniform(1.01, 3.0)]))
            m = BergerMetric(1.0 + eta, 1.0)
            hit = shorter_path_search(m, initial_momentum(m, pb, 0.0), factor * t_cut(m, pb))
            assert (hit is None) == (factor < 1.0), (eta, pb, factor)

    @pytest.mark.parametrize("ratio", [1e-8, 1e-12, 1e-15, 3e-16, 2.0 ** -53])
    @pytest.mark.parametrize("pb", [-1.0, 1.0])
    def test_axis_search_of_a_very_oblate_metric(self, ratio, pb):
        # the axis geodesic ends at the phase 1.1*pi*r, r = i1/i3, and the shortest preimage is
        # at a = pi with 1 - |s| = 0.1*r/(1 - r); the phase cancelled in the target and in s
        m = BergerMetric(ratio, 1.0)
        p0 = initial_momentum(m, pb, 0.3)
        t = 1.1 * t_cut(m, pb)
        hit = shorter_path_search(m, p0, t)
        want = math.sqrt(1.2 - 0.01 * ratio / (1.0 - ratio)) / 1.1
        assert hit.arrival_time / t == pytest.approx(want, rel=1e-10, abs=0.0)
        assert _endpoint_gap(m, p0, t, hit) < 1e-12

    def test_no_refinement_on_the_e3_subgroup(self, monkeypatch):
        # a scan of the singular chart would take 974 evaluations for this target
        evals = _count_evaluations(monkeypatch)
        m = BergerMetric(1e-6, 1.0)
        p0 = initial_momentum(m, 1.0, 0.3)
        t = 1.1 * t_cut(m, 1.0)
        _, qx, qy, _ = _flow(m, (p0.p1, p0.p2, p0.p3), t)[:4]
        assert math.hypot(qx, qy) == 0.0
        assert shorter_path_search(m, p0, t) is not None
        # a subnormal sigma is the e3 subgroup to within the least normal float
        assert (geodesic._shortest_preimage(m, 1.0, 0.3, 5e-324, math.pi)
                == geodesic._shortest_preimage(m, 1.0, 0.3, 0.0, math.pi))
        assert evals == []

    @pytest.mark.parametrize("ratio", [1e-6, 0.5, 3.0])
    @pytest.mark.parametrize("theta", [0.3, 2.0, -1.0])
    def test_target_on_the_e3_subgroup_given_directly(self, ratio, theta):
        # against every k whose preimages can arrive before pi, k*pi*min(1, sqrt(r)) < pi
        m = BergerMetric(ratio, 1.0)
        a, s, cs, _ = geodesic._shortest_preimage(m, 1.0, theta, 0.0, math.pi)
        k_max = math.ceil(1.0 / min(1.0, math.sqrt(ratio))) - 1
        want = min(_e3_arrivals(ratio, theta, k_max))
        assert a * _shape(ratio, s, cs) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("ratio", [1e-6, 0.0012047714325857438, 0.5, 2.0, 3.0])
    @pytest.mark.parametrize("theta", [0.0, math.pi])
    def test_identity_and_its_antipode_given_directly(self, ratio, theta):
        # the identity's preimage of arrival 0 is no path, so its residue counts as 2*pi; at
        # Z = -1, 1 - |s| of the preimage s = 0 at a = pi can round past 1
        m = BergerMetric(ratio, 1.0)
        a, s, cs, _ = geodesic._shortest_preimage(m, 1.0, theta, 0.0, 7.0)
        k_max = math.ceil(7.0 / math.pi / min(1.0, math.sqrt(ratio))) - 1
        want = min(x for x in _e3_arrivals(ratio, theta, k_max) if x > 0.0)
        assert a * _shape(ratio, s, cs) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("theta", [0.3, 2.0, -1.0])
    def test_target_on_the_e3_subgroup_of_the_most_oblate_metric(self, theta):
        # every k with k*pi*sqrt(r) < pi would be about 1e8 of them: the routine stops by its
        # bound, and its preimage beats those of the first 1000 and reaches exp(i*theta)
        ratio = 2.0 ** -53
        m = BergerMetric(ratio, 1.0)
        start = time.perf_counter()
        a, s, cs, _ = geodesic._shortest_preimage(m, 1.0, theta, 0.0, math.pi)
        assert time.perf_counter() - start < 1.0
        arrival = a * _shape(ratio, s, cs)
        assert arrival <= min(_e3_arrivals(ratio, theta, 1000)) * (1.0 + 1e-13)
        norm = math.sqrt(m.i1) / _shape(ratio, s, cs)
        q = _flow(m, (norm * cs, 0.0, norm * s), 2.0 * math.sqrt(m.i1) * arrival)[:4]
        assert max(abs(q[0] - math.cos(theta)), abs(q[1]), abs(q[2]), abs(q[3] - math.sin(theta))) < 1e-12

    @pytest.mark.parametrize("eta", [-0.5, 0.0, 3.0])
    def test_target_with_no_axial_part(self, eta):
        # an equatorial geodesic at a = 3*pi/2 ends at Z = cos(3*pi/2) = -1.8e-16,
        # as near Z = 0 as a float target gets; the preimages of Z = 0 are s = 0
        # and a = pi/2 + k*pi, so the shortest arrives at a third of t
        m = BergerMetric(1.3 * (1.0 + eta), 1.3)
        p0 = initial_momentum(m, 0.0, 0.4)
        t = 3.0 * math.pi * math.sqrt(m.i1)
        hit = shorter_path_search(m, p0, t)
        assert hit.arrival_time == pytest.approx(t / 3.0, rel=1e-12)
        assert hit.momentum.reduced() == pytest.approx(0.0, abs=1e-12)
        assert _endpoint_gap(m, p0, t, hit) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        i3=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
        eta=st.one_of(st.floats(-0.999, 1.0), st.floats(0.0, 3.0).map(lambda e: 10.0 ** e)),
        pb=st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 1.0 - 1e-12]), st.floats(-1.0, 1.0)),
        phi=st.floats(0.0, 2.0 * math.pi),
        factor=st.floats(0.5, 2.5),
    )
    # two preimages close together where the phase turns back: a scan on cells of
    # bounded phase found a longer path, or none
    @example(i3=1.0, eta=0.078125, pb=0.0, phi=0.0, factor=1.125)
    @example(i3=2.0297711659054023e+165, eta=0.07517554004657445, pb=0.0,
             phi=0.9592823560906804, factor=1.0067305208111244)
    @example(i3=6.385108631829912e-10, eta=0.06271423914417294, pb=0.0,
             phi=1.666183198523374, factor=1.1135303750894225)
    def test_shortest_preimage_at_every_scale(self, i3, eta, pb, phi, factor):
        m = BergerMetric((1.0 + eta) * i3, i3)
        p0 = initial_momentum(m, pb, phi)
        t = factor * t_cut(m, pb)
        hit = shorter_path_search(m, p0, t)
        scanned = _shortest_preimage_by_scan(m, p0, t)
        if hit is not None:
            assert hit.arrival_time < t * (1.0 - 1e-4)
            assert _endpoint_gap(m, p0, t, hit) < 1e-12
        if scanned is not None:
            # to 1e-7 of t: a target at the identity has arrivals of rounding size
            assert hit is not None and hit.arrival_time <= scanned + 1e-7 * t


def test_geodesic_imports_only_errors_and_model():
    # the oracles use the geodesic equations alone, never the root, cut or diameter modules
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(geodesic))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.update([node.module.split(".")[0]] if node.module else
                            [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bergersphere":
            imported.update([node.module.split(".")[1]] if "." in node.module else
                            [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[1] for alias in node.names
                            if alias.name.startswith("bergersphere."))
    assert imported == {"errors", "model"}
