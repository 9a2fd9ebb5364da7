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

    def test_zero_delegates_to_tau_conj(self):
        assert tau3(1.0, 0.0) == tau_conj(1.0, 0.0)
        assert tau3(1.0, 0.0) == pytest.approx(TAU_CONJ_1_0, abs=1e-11)

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


class TestTauConj:
    def test_frozen_values(self):
        assert tau_conj(1.0, 0.0) == pytest.approx(TAU_CONJ_1_0, abs=1e-11)
        assert tau_conj(0.5, 0.5) == pytest.approx(TAU_CONJ_HALF_HALF, abs=1e-11)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 2.0])
    def test_exactly_pi_at_pole(self, eta):
        # c = 0 at pbar3 = +-1; the branch is exact, not a bisection result
        assert tau_conj(eta, 1.0) == math.pi
        assert tau_conj(eta, -1.0) == math.pi

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
        import bergersphere.roots as roots_module
        counts = []  # (evaluations, evaluations of plain bisection) per solve

        def counted(fg, a, b, tol):
            def evaluate(x):
                counts[-1][0] += 1
                return fg(x)
            counts.append([0, max(1, math.ceil(math.log2(max(1.0, (b - a) / tol))))])
            return newton(evaluate, a, b, tol)

        newton = roots_module._newton
        monkeypatch.setattr(roots_module, "_newton", counted)
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


def _counting_newton(counts):
    # _newton that appends [evaluations, evaluations of plain bisection] per solve
    newton = roots_module._newton

    def counted(fg, a, b, tol, *start):
        def evaluate(x):
            counts[-1][0] += 1
            return fg(x)
        counts.append([0, max(1, math.ceil(math.log2(max(1.0, (b - a) / tol))))])
        return newton(evaluate, a, b, tol, *start)
    return counted


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

    @pytest.mark.parametrize("eta", [0.5, 3.0, 1e3, 1e8])
    def test_diameter_scan_evaluations_per_solve(self, eta, monkeypatch):
        # a start from the midpoint takes about 5.3 on average
        counts = []
        monkeypatch.setattr(roots_module, "_newton", _counting_newton(counts))
        diameter_numeric(BergerMetric(1.0 + eta, 1.0))
        assert len(counts) > 500
        assert sum(n for n, _ in counts) / len(counts) <= 3.5
        assert all(n <= 2 * bound + 1 for n, bound in counts)

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
            assert sum(n for n, _ in mine) / len(mine) <= 3.5, name
            assert all(n <= 2 * bound + 1 for n, bound in mine), name
