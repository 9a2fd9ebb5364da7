import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bergersphere.cutprofile as cutprofile_module
import bergersphere.roots as roots_module
from bergersphere.cutprofile import sample_profile
from bergersphere.diameter import diameter_numeric
from bergersphere.errors import DomainError
from bergersphere.model import BergerMetric
from bergersphere.roots import BISECT_TOL, tau3, tau3_derivative, tau_conj

# spot values frozen from a 40-digit bisection oracle
TAU_CONJ_1_0 = 2.02875783811043422357697112473490345673
TAU_CONJ_HALF_HALF = 2.455643862879440304037105346314124354
TAU3_1_TINY = 2.028757833559380532526140452   # eta=1, pbar3=1e-4
TAU3_1_HALF = 1.910633236249018556327714205   # eta=1, pbar3=0.5

# tau3 at w = eta*pbar3 >= 2, frozen from a 60-digit mpmath bisection in y = pi - w*tau,
# returned as (pi - y)/w: near pi/w the tau form loses y's digits, the y form does not.
# (10, 0.05) is left out, as w = 0.5 there.
TAU3_LARGE_W = {
    (10.0, 0.5): 5.6671037803107486168e-1,
    (10.0, 0.9): 3.1715054734639996114e-1,
    (1e3, 0.05): 6.2769001711336892065e-2,
    (1e3, 0.5): 6.2769083370150770757e-3,
    (1e3, 0.9): 3.4871713299730216091e-3,
    (1e8, 0.05): 6.2831852443477336847e-7,
    (1e8, 0.5): 6.2831852443477340334e-8,
    (1e8, 0.9): 3.4906584690820743769e-8,
    (1e15, 0.05): 6.283185307179579845e-14,
    (1e15, 0.5): 6.2831853071795801937e-15,
    (1e15, 0.9): 3.4906585039886555771e-15,
    (1e17, 0.05): 6.2831853071795860653e-16,
    (1e17, 0.5): 6.2831853071795864141e-17,
    (1e17, 0.9): 3.4906585039886590328e-17,
    (1e100, 0.05): 6.2831853071795860282e-99,
    (1e100, 0.5): 6.283185307179586377e-100,
    (1e100, 0.9): 3.4906585039886590122e-100,
    (1e300, 0.05): 6.2831853071795857982e-299,
    (1e300, 0.5): 6.283185307179586147e-300,
    (1e300, 0.9): 3.4906585039886588845e-300,
    (1.7e308, 0.05): 3.6959913571644625613e-307,
    (1.7e308, 0.5): 3.6959913571644627665e-308,
    (1.7e308, 0.9): 2.0533285317580348196e-308,  # subnormal
}

ETA_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 20.0)
WIDE_ETA_GRID = tuple(10.0 ** (k / 2) for k in range(-6, 17))   # 1e-3 .. 1e8

eta_strategy = st.floats(min_value=0.05, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


class TestTau3:
    def test_pole_values(self):
        # at pbar3 = 1 the equation collapses to sin((1+eta)*tau)
        assert tau3(1.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-11)
        assert tau3(0.5, 1.0) == pytest.approx(2.0 * math.pi / 3, abs=1e-11)

    @pytest.mark.parametrize("eta", [1.5, 2.0, 3.0, 5.0, 20.0])
    def test_critical_point_value(self, eta):
        assert tau3(eta, 1.0 / eta) == pytest.approx(math.pi / 2, abs=1e-11)

    def test_zero_is_the_conjugate_root_to_the_bit(self):
        # at pbar3 = 0 the cut equation divided by pbar3 is the conjugate equation, c = eta,
        # on both sides of 2**54, from where both roots round to pi/2 unsolved
        assert tau3(1.0, 0.0) == pytest.approx(TAU_CONJ_1_0, abs=1e-11)
        big = 2.0 ** 54
        grid = np.geomspace(2.0 ** -52, 1.7e308, 2000).tolist()
        for eta in grid + [1.0, math.nextafter(big, 0.0), big, math.nextafter(big, math.inf)]:
            assert tau3(eta, 0.0) == tau3(eta, -0.0) == tau_conj(eta, 0.0), eta

    def test_zero_solves_as_the_conjugate_root(self):
        # the same Newton evaluations, at the same points, as tau_conj(eta, 0): the
        # stand-in records where cos is taken, at tau and, in the cut function, at w*tau = 0
        for eta, evaluations in ((3.0, 3), (2.0 ** -52, None), (1e8, None)):
            points = {}
            for name, solve in (("tau3", tau3), ("tau_conj", tau_conj)):
                stand_in = _RecordingMath()
                with mock.patch.object(roots_module, "math", stand_in):
                    solve(eta, 0.0)
                points[name] = [x for x in stand_in.cos_args if x != 0.0]
            assert points["tau3"] == points["tau_conj"], eta
            assert evaluations is None or len(points["tau3"]) == evaluations

    def test_small_pbar3_limit(self):
        assert tau3(1.0, 1e-4) == pytest.approx(TAU3_1_TINY, abs=1e-11)
        for eta in ETA_GRID:
            assert abs(tau3(eta, 1e-4) - tau_conj(eta, 0.0)) < 1e-3

    def test_frozen_interior_value(self):
        assert tau3(1.0, 0.5) == pytest.approx(TAU3_1_HALF, abs=1e-11)

    def test_accepts_numpy_scalars(self):
        assert tau3(np.int64(2), np.float32(0.5)) == tau3(2.0, 0.5)
        with pytest.raises(DomainError):
            tau3(True, 0.5)

    @pytest.mark.parametrize("eta", [0.0, -0.5, -1.0])
    def test_rejects_nonpositive_eta(self, eta):
        with pytest.raises(DomainError):
            tau3(eta, 0.5)

    @given(eta=eta_strategy, pb=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_evenness(self, eta, pb):
        assert tau3(eta, pb) == tau3(eta, -pb)

    @pytest.mark.parametrize("eta", ETA_GRID)
    def test_strictly_decreasing(self, eta):
        grid = [k / 200 for k in range(201)]
        values = [tau3(eta, pb) for pb in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("eta", ETA_GRID)
    def test_residual_of_defining_equation(self, eta):
        for k in range(1, 101):
            pb = k / 100
            t = tau3(eta, pb)
            res = math.cos(t) * math.sin(t * eta * pb) + pb * math.sin(t) * math.cos(t * eta * pb)
            assert abs(res) < 1e-11

    @pytest.mark.parametrize("eta", WIDE_ETA_GRID)
    def test_first_root_over_wide_eta(self, eta):
        # includes w = eta*pbar3 at the bracket boundaries 1 and 2
        grid = [1e-300, 1e-9, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        grid += [w / eta for w in (1.0, 2.0) if w / eta <= 1.0]
        for pb in grid:
            t = tau3(eta, pb)
            w = eta * pb
            res = math.cos(t) * math.sin(t * w) + pb * math.sin(t) * math.cos(t * w)
            assert abs(res) < 1e-11, (eta, pb, t, res)
            x = t * np.arange(1, 256) / 256
            before = np.cos(x) * np.sin(w * x) + pb * np.sin(x) * np.cos(w * x)
            assert (before > 0.0).all(), (eta, pb, t)

    @pytest.mark.parametrize("eta", [0.5, 2.0, 1e4, 1e8])
    def test_continuous_down_to_subnormal_pbar3(self, eta):
        limit = tau_conj(eta, 0.0)
        for pb in (5e-324, 1e-310, 1e-100):
            assert tau3(eta, pb) == pytest.approx(limit, abs=1e-12)

    def test_result_in_tau_range(self):
        for eta in ETA_GRID:
            for pb in (0.0, 0.3, 1.0):
                assert 0.0 < tau3(eta, pb) <= math.pi

    # w = eta*pbar3 just above 1, where the profile peaks: the root is within
    # rounding of the bracket end pi/2; a 60-digit bisection rounds it to pi/2
    @pytest.mark.parametrize("eta,pb", [
        (7486.581479349252, 0.00013357231237761752),
        (1000.0, 0.0010000000000000104),
        (1e8, 1.000000000000008e-08),
    ])
    def test_root_within_rounding_of_the_bracket_end(self, eta, pb):
        assert abs(tau3(eta, pb) - math.pi / 2) <= math.ulp(math.pi / 2)

    @pytest.mark.parametrize("eta,pb", sorted(TAU3_LARGE_W))
    def test_large_w_to_a_few_ulp(self, eta, pb):
        want = TAU3_LARGE_W[eta, pb]
        assert abs(tau3(eta, pb) - want) <= 4.0 * math.ulp(want)

    def test_pole_root_is_pi_over_one_plus_eta(self):
        # at pbar3 = 1 the cut equation is sin((1 + eta)*tau) = 0, and y = pi - eta*tau is tau
        for eta in np.geomspace(2.0, 1.7e308, 2000).tolist():
            want = math.pi / (1.0 + eta)
            assert abs(tau3(eta, 1.0) - want) <= math.ulp(want), eta

    @pytest.mark.parametrize("start", [math.nan, 1.5, 1.6, 3.0, math.inf])
    def test_huge_eta_below_w_one(self, start):
        # a solve would overflow eta*x; the root lies in (pi/2, tau_conj(eta, 0)],
        # which rounds to pi/2
        assert tau3(1.7e308, 1e-310) == math.pi / 2
        assert roots_module._tau3_value(1.7e308, 1e-310, start) == math.pi / 2
        assert roots_module._tau_conj_value(1.7e308, 1e-310, start) == math.pi / 2


class TestTauConj:
    def test_frozen_values(self):
        assert tau_conj(1.0, 0.0) == pytest.approx(TAU_CONJ_1_0, abs=1e-11)
        assert tau_conj(0.5, 0.5) == pytest.approx(TAU_CONJ_HALF_HALF, abs=1e-11)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_exactly_pi_at_pole(self, eta):
        # c = 0 at pbar3 = +-1; the branch is exact, not a bisection result
        assert tau_conj(eta, 1.0) == math.pi
        assert tau_conj(eta, -1.0) == math.pi

    @pytest.mark.parametrize("eta", [2.0 ** -52, 1e-16, 0.1])
    @pytest.mark.parametrize("pb", [1.0, -1.0, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)])
    def test_pi_within_rounding_of_the_pole(self, eta, pb):
        # c = 0 at the pole, and c about eta*2**-52/(1 + eta) next to it: the root is pi
        # to rounding, which Newton's end rule returns exactly
        assert tau_conj(eta, pb) == math.pi

    @pytest.mark.parametrize("eta", [2.0 ** -52, 0.5, 3.0, 1e300])
    @pytest.mark.parametrize("pb", [1.0, -1.0])
    def test_cold_pole_solve_within_the_bound(self, eta, pb):
        counts = []
        with mock.patch.object(roots_module, "_newton", _counting_newton(counts)):
            assert tau_conj(eta, pb) == math.pi
        [(n, bound)] = counts
        assert n <= 2 * bound + 1

    @given(eta=eta_strategy, pb=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=60)
    def test_range(self, eta, pb):
        v = tau_conj(eta, pb)
        assert math.pi / 2 < v <= math.pi

    @pytest.mark.parametrize("eta", ETA_GRID)
    def test_separation_from_tau3(self, eta):
        for k in range(1, 101):
            pb = k / 100
            assert tau3(eta, pb) < tau_conj(eta, pb)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(DomainError):
            tau_conj(-0.2, 0.5)

    def test_root_near_the_float_maximum(self):
        # c*tau overflows unless the equation is scaled; the root is pi/2 + 1/(c*pi/2),
        # which rounds to pi/2
        assert tau_conj(1.7e308, 0.0) == math.pi / 2


class TestTau3Derivative:
    def test_value_at_both_poles(self):
        # at (eta=1, pbar3=1): numerator -pi/2, denominator -2
        assert tau3_derivative(1.0, 1.0) == pytest.approx(-math.pi / 4, abs=1e-11)
        assert tau3_derivative(1.0, -1.0) == pytest.approx(math.pi / 4, abs=1e-11)

    def test_odd_symmetry(self):
        assert tau3_derivative(2.0, -0.5) == pytest.approx(-tau3_derivative(2.0, 0.5))

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 5.0])
    def test_matches_finite_differences(self, eta):
        h = 1e-6
        for k in range(5, 100, 7):
            pb = k / 100
            fd = (tau3(eta, pb + h) - tau3(eta, pb - h)) / (2.0 * h)
            assert tau3_derivative(eta, pb) == pytest.approx(fd, rel=1e-5)

    def test_values_near_zero(self):
        # central differences of tau3 in mpmath at 60 digits
        assert tau3_derivative(1.0, 1e-9) == pytest.approx(-9.1021073638035675e-10, rel=1e-12, abs=0.0)
        assert tau3_derivative(2.0, 1e-12) == pytest.approx(-2.0033542550709653e-12, rel=1e-12, abs=0.0)

    def test_rejects_zero_pbar3(self):
        with pytest.raises(DomainError):
            tau3_derivative(1.0, 0.0)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(DomainError):
            tau3_derivative(0.0, 0.5)

    def test_negative_on_interior(self):
        for eta in ETA_GRID:
            for pb in (0.1, 0.5, 0.9):
                assert tau3_derivative(eta, pb) < 0.0


def _bisect_to_the_last_float(f, lo, hi):
    # f(lo) > 0 >= f(hi); halve until the midpoint is no longer inside
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _cut_over_pbar3(eta, s, x):
    # the cut function divided by s, which keeps its sign
    w = eta * s
    return np.cos(x) * np.sin(w * x) / s + np.sin(x) * np.cos(w * x)


def _stress_cases():
    rng = np.random.default_rng(20261018)
    etas = 10.0 ** rng.uniform(-6.0, 8.0, 2000)
    pbs = 10.0 ** rng.uniform(-300.0, 0.0, 2000)
    pbs[1::3] = 10.0 ** rng.uniform(-6.0, 0.0, len(pbs[1::3]))
    cases = [(float(e), float(p)) for e, p in zip(etas, pbs)]
    # w = eta*pbar3 on and next to the bracket edges 1 and 2
    for eta in (1.0, 2.0, 3.0, 1e3, 1e8):
        for w in (1.0, 2.0):
            pb = w / eta
            cases += [(eta, v) for v in (math.nextafter(pb, 0.0), pb, math.nextafter(pb, 2.0))
                      if v <= 1.0]
    return cases


class TestNewtonAgainstBisection:
    """Both solvers agree with plain bisection, and tau3 is the first root."""

    def test_agrees_with_bisection_and_finds_the_first_root(self, monkeypatch):
        counts = []  # (evaluations, evaluations of plain bisection) per solve
        monkeypatch.setattr(roots_module, "_newton", _counting_newton(counts))
        for eta, pb in _stress_cases():
            t = tau3(eta, pb)
            w = eta * pb
            if w < 1.0:
                lo, hi = 0.5 * math.pi, math.pi
            else:
                lo, hi = 0.5 * math.pi / w, min(0.5 * math.pi, math.pi / w)
            want = _bisect_to_the_last_float(lambda x: _cut_over_pbar3(eta, pb, x), lo, hi)
            assert t == pytest.approx(want, rel=1e-12, abs=0.0), (eta, pb)
            before = _cut_over_pbar3(eta, pb, t * np.arange(1, 64) / 64)
            assert (before > 0.0).all(), (eta, pb, t)

            c = eta * (1.0 - pb * pb) / (1.0 + eta * pb * pb)
            conj = _bisect_to_the_last_float(
                lambda x: math.sin(x) + c * x * math.cos(x), 0.5 * math.pi, math.pi)
            assert tau_conj(eta, pb) == pytest.approx(conj, rel=1e-12, abs=0.0), (eta, pb)
        # the documented bound, and the derivatives doing their work
        assert all(n <= 2 * bound for n, bound in counts)
        assert sum(n for n, _ in counts) / len(counts) < 10.0


class _RecordingMath:
    """``math`` as the root kernel sees it, with each argument of ``cos`` recorded.

    An evaluation takes ``cos`` once in the conjugate function and twice in
    either form of the cut function.
    """

    def __init__(self):
        self.cos_args = []

    def __getattr__(self, name):
        return getattr(math, name)

    def cos(self, x):
        self.cos_args.append(x)
        return math.cos(x)


def _counting_newton(counts):
    # _newton that appends [evaluations, evaluations of plain bisection] per solve,
    # its evaluations counted by the cos they take
    newton = roots_module._newton

    def counted(form, p, q, a, b, tol, *start):
        stand_in = _RecordingMath()
        with mock.patch.object(roots_module, "math", stand_in):
            root = newton(form, p, q, a, b, tol, *start)
        n, rest = divmod(len(stand_in.cos_args), 1 if form == roots_module._CONJ else 2)
        assert rest == 0
        counts.append([n, max(1, math.ceil(math.log2(max(1.0, (b - a) / tol))))])
        return root
    return counted


def _reference_newton(fg, a, b, tol, start=math.nan):
    # the safeguarded loop over a closure, fg(x) giving the function and its
    # derivative; the written-out kernel must return its bits
    x = start if a <= start <= b else a if start < a else b if start > b else 0.5 * (a + b)
    allow = b - a
    while True:
        f, df = fg(x)
        if f == 0.0:
            return x
        if f > 0.0:
            a = x
        else:
            b = x
        allow *= 0.5
        if abs(f) <= allow * -df:
            dx = f / df
            x -= dx
            if not a <= x <= b:
                x = a if x < a else b
            if abs(dx) <= tol:
                return x
        else:
            dx = 0.5 * (b - a)
            if dx <= tol:
                return min(max(x - f / df, a), b) if df else a + dx
            x = a + dx


def _reference_cold_start(c):
    return 0.5 * math.pi + 0.5 * math.pi / (1.0 + c * (0.25 * math.pi * math.pi))


def _reference_tau3(eta, s, start=math.nan):
    w = eta * s
    if w < 1.0:
        if eta >= 2.0 ** 54:
            return 0.5 * math.pi
        a, b = 0.5 * math.pi, math.pi
        if s == 0.0 and start != start:
            start = _reference_cold_start(eta)
    elif w < 2.0:
        a, b = 0.5 * math.pi / w, 0.5 * math.pi
    else:
        r = 1.0 / w
        k1, k2 = s + r, 1.0 + s * r
        y = math.pi - w * start
        if not (0.0 <= y and y * (w - 4.0 * r) <= math.pi * s):
            t = math.tan(math.pi * r)
            y = 2.0 * s * t / (k2 + math.sqrt(k2 * k2 + 4.0 * s * t * t * r))

        def fy(y):
            x = (math.pi - y) * r
            cy, sy, cx, sx = math.cos(y), math.sin(y), math.cos(x), math.sin(x)
            return s * cy * sx - sy * cx, -(sy * sx * k1 + cy * cx * k2)

        tol = BISECT_TOL * (w if w < math.pi else math.pi)
        return (math.pi - _reference_newton(fy, 0.0, 0.5 * math.pi, tol, y)) / w

    def fg(x):
        u = w * x
        cu = math.cos(u)
        if u < 1e-8:
            so, dso = eta * x, eta
        else:
            so, dso = math.sin(u) / s, eta * cu
        cx, sx = math.cos(x), math.sin(x)
        return cx * so + sx * cu, cx * (dso + cu) - sx * so * (1.0 + w * s)

    return _reference_newton(fg, a, b, BISECT_TOL, start)


def _reference_tau_conj(eta, pbar3, start=math.nan):
    c = eta * (1.0 - pbar3 * pbar3) / (1.0 + eta * pbar3 * pbar3)
    if c >= 2.0 ** 54:
        return 0.5 * math.pi
    if start != start:
        start = _reference_cold_start(c)

    def fg(x):
        cx, sx = math.cos(x), math.sin(x)
        return sx + c * x * cx, (1.0 + c) * cx - c * x * sx

    return _reference_newton(fg, 0.5 * math.pi, math.pi, BISECT_TOL, start)


class TestKernelAgainstClosures:
    """The written-out kernel returns the bits of one loop over closures."""

    @pytest.mark.parametrize("eta", np.geomspace(2.0 ** -52, 1.7e308, 40).tolist() + [
        0.5, 1.0, 3.0, 1e3, math.nextafter(2.0 ** 54, 0.0), 2.0 ** 54])
    def test_same_bits_as_the_closures(self, eta):
        pbs = [0.0, 5e-324, 1e-310, 1e-100, 1e-9, 1e-4, 0.1, 0.5, 0.9, math.nextafter(1.0, 0.0), 1.0]
        # w = eta*pbar3 within an ulp of the bracket edges 1 and 2
        for w in (1.0, 2.0):
            pb = w / eta
            pbs += [v for v in (math.nextafter(pb, 0.0), pb, math.nextafter(pb, 2.0)) if v <= 1.0]
        for pb in pbs:
            for value, reference in ((roots_module._tau3_value, _reference_tau3),
                                     (roots_module._tau_conj_value, _reference_tau_conj)):
                cold = reference(eta, pb)
                assert value(eta, pb) == cold, (value.__name__, eta, pb)
                # warm starts on either side of the root, and starts NaN, infinite and
                # outside every bracket
                for start in (cold * (1.0 + 1e-9), cold * (1.0 - 1e-3), math.nan, math.inf,
                              -math.inf, -1.0, 0.0, 1.0, 2.0, 3.5, 1e300):
                    want = reference(eta, pb, start)
                    assert value(eta, pb, start) == want, (value.__name__, eta, pb, start)

    def test_same_bits_on_random_draws(self):
        # a changed rounding in the written-out functions moves about one root in a
        # thousand by an ulp, so the draws are many
        rng = np.random.default_rng(20261021)
        n = 8000
        etas = 10.0 ** rng.uniform(-6.0, 9.0, n)
        etas[::4] = 2.0 ** rng.uniform(-52.0, 1023.9, len(etas[::4]))
        pbs = rng.uniform(0.0, 1.0, n)
        pbs[1::3] = 10.0 ** rng.uniform(-320.0, 0.0, len(pbs[1::3]))
        pbs[2::3] = 2.0 / etas[2::3] * rng.uniform(0.25, 1.5, len(pbs[2::3]))  # w from 0.5 to 3
        for eta, pb, r in zip(etas.tolist(), np.minimum(pbs, 1.0).tolist(), rng.uniform(0.0, 3.5, n).tolist()):
            for value, reference in ((roots_module._tau3_value, _reference_tau3),
                                     (roots_module._tau_conj_value, _reference_tau_conj)):
                for start in (math.nan, r):
                    assert value(eta, pb, start) == reference(eta, pb, start), (value.__name__, eta, pb, start)


def _tau3_bracket(eta, s):
    w = eta * s
    if w < 1.0:
        return 0.5 * math.pi, math.pi
    return 0.5 * math.pi / w, min(0.5 * math.pi, math.pi / w)


class TestWarmStart:
    """A start point moves where Newton begins, never which root it finds."""

    # r places the start at a + r*(b - a): 0 and 1 are the bracket's ends
    @given(log_eta=st.floats(-6.0, 8.0), log_pb=st.floats(-300.0, 0.0),
           r=st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)))
    @settings(max_examples=300, deadline=None)
    @example(log_eta=0.5, log_pb=-0.5, r=0.5)
    @example(log_eta=0.5, log_pb=-0.5, r=0.0)
    @example(log_eta=0.5, log_pb=-0.5, r=1.0)
    @example(log_eta=3.0, log_pb=-2.0, r=0.0)
    @example(log_eta=3.0, log_pb=-2.0, r=1.0)
    @example(log_eta=0.5, log_pb=-0.5, r=-0.5)
    @example(log_eta=0.5, log_pb=-0.5, r=1.5)
    @example(log_eta=8.0, log_pb=-4.0, r=-1e300)
    @example(log_eta=0.5, log_pb=-0.5, r=math.nan)
    @example(log_eta=0.5, log_pb=-0.5, r=math.inf)
    @example(log_eta=0.5, log_pb=-0.5, r=-math.inf)
    # f rises toward a second zero just past b = pi, so Newton there would aim out of the bracket
    @example(log_eta=0.0, log_pb=-2.220446049250313e-16, r=1.0)
    def test_any_start_gives_the_cold_root(self, log_eta, log_pb, r):
        eta, s = 10.0 ** log_eta, 10.0 ** log_pb
        a, b = _tau3_bracket(eta, s)
        start = a if r == 0.0 else b if r == 1.0 else a + r * (b - a)
        cold = tau3(eta, s)
        counts = []
        with mock.patch.object(roots_module, "_newton", _counting_newton(counts)):
            warm = roots_module._tau3_value(eta, s, start)
        assert abs(warm - cold) <= 2.0 * BISECT_TOL * min(1.0, b), (eta, s, start)
        [(n, bound)] = counts
        assert n <= 2 * bound + 1, (eta, s, start)

    # measured 2/3, 2/8, 2/5, 14/32, 28/61, 43/58, 67/76 and 82/82
    # solves/evaluations.  For eta <= 1 the derivative is positive at the pole, so
    # the call solves only tau_conj(eta, 0) and tau3 at pbar3 = 1.  Above it, the
    # halving to an octave takes about log2(eta) solves and the Illinois
    # refinement a few more.  Most of them are at w = eta*pbar3 >= 2, where a cold
    # solve in y = pi - w*tau takes 1 to 5 evaluations, and 1 from eta = 1e15 on.
    @pytest.mark.parametrize("eta,solves,evaluations", [
        (1e-9, 2, 4), (0.5, 2, 9), (1.0, 2, 6), (3.0, 15, 33), (1e3, 30, 66), (1e8, 45, 63),
        (1e15, 70, 81), (1e300, 85, 86)])
    def test_diameter_evaluations_per_call(self, eta, solves, evaluations, monkeypatch):
        counts = []
        monkeypatch.setattr(roots_module, "_newton", _counting_newton(counts))
        diameter_numeric(BergerMetric(1.0 + eta, 1.0))
        assert len(counts) <= solves
        assert sum(n for n, _ in counts) <= evaluations
        assert all(n <= 2 * bound + 1 for n, bound in counts)

    @pytest.mark.parametrize("eta", [2.5, 3.0, 10.0, 1e3, 1e8, 1e15, 1e17, 1e100, 1e300, 1.7e308])
    def test_cold_evaluations_from_w_two(self, eta):
        # near w = 2 with a small pbar3 the root y nears sqrt(2*pbar3), far from pi/eta
        grid = [w / eta for w in (2.0, math.nextafter(2.0, 3.0), 2.0000001, 2.1, 3.0, 10.0, 1e3)]
        grid += [0.05, 0.5, 0.9, 1.0]
        counts = []
        with mock.patch.object(roots_module, "_newton", _counting_newton(counts)):
            for pb in grid:
                if eta * pb >= 2.0 and pb <= 1.0:
                    tau3(eta, pb)
        assert len(counts) >= 5
        assert max(n for n, _ in counts) <= 6, counts

    @pytest.mark.parametrize("i1", [1e308, 1e3 + 1.0])
    def test_warm_profile_roots_are_the_cold_ones(self, i1):
        m = BergerMetric(i1, 1.0)
        for pb, root, *_ in sample_profile(m, 201).half:
            want = tau3(m.eta(), pb)
            assert abs(root - want) <= 4.0 * math.ulp(want), pb

    @pytest.mark.parametrize("eta", [0.5, 3.0, 1e3, 1e8])
    def test_profile_evaluations_per_solve(self, eta, monkeypatch):
        # the same bound for each of the profile's two roots, counted apart
        counts = []
        monkeypatch.setattr(roots_module, "_newton", _counting_newton(counts))
        per_root = {}
        for name in ("_tau3_value", "_tau_conj_value"):
            def solve(*args, value=getattr(cutprofile_module, name),
                      mine=per_root.setdefault(name, [])):
                before = len(counts)
                root = value(*args)
                mine.extend(counts[before:])
                return root
            monkeypatch.setattr(cutprofile_module, name, solve)
        sample_profile(BergerMetric(1.0 + eta, 1.0), 1201)
        for name, mine in per_root.items():
            assert len(mine) > 500, name
            assert sum(n for n, _ in mine) / len(mine) <= 2.5, name
            assert all(n <= 2 * bound + 1 for n, bound in mine), name
