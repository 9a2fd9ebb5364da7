import math
import random

import pytest

from bergersphere import verify
from bergersphere.cutprofile import _arc_length, t_cut
from bergersphere.errors import DomainError
from bergersphere.model import BergerMetric
from bergersphere.roots import tau3, tau_conj
from bergersphere.verify import CheckResult, run_checks

QUICK_NAMES = [
    "eta-scale-invariance", "momentum-norm-bracket", "regime-scale-invariance",
    "tau3-evenness", "tau3-monotone-decreasing", "tau3-below-tau-conj", "tau-conj-range",
    "tau3-equation-residual", "tau3-derivative-fd", "tcut-evenness", "tcut-branch-continuity",
    "tcut-derivative-sign", "tcut-below-conjugate-time", "diameter-oracle-agreement",
    "diameter-bounds", "diameter-scale-covariance", "diameter-boundary-continuity",
]
FULL_NAMES = QUICK_NAMES + [
    "geodesic-round-calibration", "geodesic-conservation", "geodesic-conjugate-agreement",
    "geodesic-cut-sandwich",
]


def _counted(calls, name, f):
    def wrapped(*args):
        calls[name] += 1
        return f(*args)
    return wrapped


class TestRunChecks:
    @pytest.mark.parametrize("i1,i3", [(3.0, 1.0), (1.0, 2.0), (1.0, 1.0)])
    def test_quick_all_pass(self, i1, i3):
        results = run_checks(BergerMetric(i1, i3), "quick")
        assert len(results) >= 8
        failing = [r.name for r in results if not r.passed]
        assert failing == []

    def test_full_all_pass(self):
        results = run_checks(BergerMetric(2.0, 1.0), "full")
        failing = [r.name for r in results if not r.passed]
        assert failing == []

    @pytest.mark.parametrize("i1,i3", [(2.0, 1.0), (1.0, 2.0)])
    @pytest.mark.parametrize("level,names", [("quick", QUICK_NAMES), ("full", FULL_NAMES)])
    def test_names_in_order(self, i1, i3, level, names):
        # a check over a shared grid returns several results, flattened in place
        assert [r.name for r in run_checks(BergerMetric(i1, i3), level)] == names

    def test_cut_sandwich_on_the_requested_metric(self):
        # an oblate metric's own sandwich, not that of a prolate stand-in
        m = BergerMetric(1e-8, 1.0)
        detail = {r.name: r for r in run_checks(m, "full")}["geodesic-cut-sandwich"].detail
        assert float(detail.split("arrival ")[1]) < 1.1 * t_cut(m, 0.6)

    @pytest.mark.parametrize("i1,i3,stand_in", [
        (1.0, 2.0, dict.fromkeys(["tcut-derivative-sign", "tcut-below-conjugate-time"],
                                 " on stand-in i1=1, i3=0.5")),
        (3.0, 1.0, {}),
    ])
    def test_details_name_the_stand_in_metric(self, i1, i3, stand_in):
        # for eta <= 0 the two tcut-* checks run on a prolate stand-in, and say so; the
        # conjugate check runs on the metric itself, where the first conjugate time is t_pi
        details = {r.name: r.detail for r in run_checks(BergerMetric(i1, i3), "full")}
        named = {name: detail[detail.index(" on stand-in"):]
                 for name, detail in details.items() if "stand-in" in detail}
        assert named == stand_in

    def test_names_are_unique_and_stable(self):
        results = run_checks(BergerMetric(1.5, 1.0), "quick")
        names = [r.name for r in results]
        assert len(set(names)) == len(names)
        assert "diameter-oracle-agreement" in names
        assert "tau3-monotone-decreasing" in names

    def test_results_carry_detail(self):
        for r in run_checks(BergerMetric(1.0, 1.0), "quick"):
            assert isinstance(r, CheckResult)
            assert r.detail

    def test_rejects_unknown_level(self):
        with pytest.raises(DomainError, match="level must be 'quick' or 'full', got 'paranoid'"):
            run_checks(BergerMetric(1.0, 1.0), "paranoid")

    def test_one_solve_per_root_grid_point(self, monkeypatch):
        # the five root-grid checks share one pass: 6 etas x (40 + 1 at pbar3 = 0) tau_conj
        # solves, and as many tau3 solves plus 4 mirrored ones per eta for evenness
        calls = {"tau3": 0, "tau_conj": 0}
        monkeypatch.setattr(verify, "tau3", _counted(calls, "tau3", tau3))
        monkeypatch.setattr(verify, "tau_conj", _counted(calls, "tau_conj", tau_conj))
        verify._check_root_grid(BergerMetric(2.0, 1.0))
        assert calls == {"tau3": 270, "tau_conj": 246}

    def test_one_pass_over_the_tcut_grid(self, monkeypatch):
        calls = dict.fromkeys(["t_cut", "t_cut_derivative", "tau_conj"], 0)
        for name in calls:
            monkeypatch.setattr(verify, name, _counted(calls, name, getattr(verify, name)))
        verify._check_tcut_grid(BergerMetric(2.0, 1.0))
        assert calls == dict.fromkeys(calls, len(verify._PB_GRID))


class TestExtremeScales:
    @pytest.mark.parametrize("i1,i3", [(1e200, 1e199), (1e-300, 1e-301)])
    def test_round_calibration(self, i1, i3):
        results = {r.name: r for r in run_checks(BergerMetric(i1, i3), "full")}
        assert results["geodesic-round-calibration"].passed

    def test_quick_near_float_max(self):
        failing = [r.name for r in run_checks(BergerMetric(1.7e308, 1e308)) if not r.passed]
        assert failing == []


def _by_name(results, name):
    return next(r for r in results if r.name == name)


class TestFailureDetails:
    # each check's failing return, forced by a stand-in for the function it checks
    @pytest.mark.parametrize("stub,value,name,detail", [
        ("tau3", lambda eta, pb: 2.0,
         "tau3-monotone-decreasing", "not decreasing at eta=0.1, pbar3=0.025"),
        ("tau3", lambda eta, pb: 1.0 + pb, "tau3-evenness", "max asymmetry 2.000e+00"),
        ("tau3", lambda eta, pb: 4.0, "tau3-below-tau-conj", "min margin -2.398e+00"),
        ("tau3", lambda eta, pb: 1.0, "tau3-equation-residual", "max residual 9.975e-01"),
        ("tau_conj", lambda eta, pb: 0.5 * math.pi,
         "tau-conj-range", "out of range at eta=0.1, pbar3=0.0"),
        ("tau_conj", lambda eta, pb: math.nextafter(math.pi, 0.0),
         "tau-conj-range", "pbar3=1 not pi at eta=0.1"),
    ])
    def test_root_checks(self, monkeypatch, stub, value, name, detail):
        monkeypatch.setattr(verify, stub, value)
        result = _by_name(verify._check_root_grid(BergerMetric(3.0, 1.0)), name)
        assert (result.passed, result.detail) == (False, detail)

    def test_out_of_range_after_the_pole(self, monkeypatch):
        # a row's own points are checked before its pole, and the first eta's row first
        monkeypatch.setattr(verify, "tau_conj",
                            lambda eta, pb: 0.0 if eta == 0.5 else math.nextafter(math.pi, 0.0))
        result = _by_name(verify._check_root_grid(BergerMetric(3.0, 1.0)), "tau-conj-range")
        assert result.detail == "pbar3=1 not pi at eta=0.1"

    @pytest.mark.parametrize("i1,i3,slope,detail", [
        (3.0, 1.0, -1.0, "not rising at pbar3=0.025"),
        (1.0, 2.0, -1.0, "not rising at pbar3=0.025 on stand-in i1=1, i3=0.5"),
        (3.0, 1.0, 1.0, "not falling at pbar3=0.525"),
    ])
    def test_tcut_derivative_sign(self, monkeypatch, i1, i3, slope, detail):
        monkeypatch.setattr(verify, "t_cut_derivative", lambda m, pb: slope)
        result = _by_name(verify._check_tcut_grid(BergerMetric(i1, i3)), "tcut-derivative-sign")
        assert (result.passed, result.detail) == (False, detail)

    @pytest.mark.parametrize("i1,i3,detail", [
        (3.0, 1.0, "min margin 0.000e+00"),
        (1.0, 2.0, "min margin 0.000e+00 on stand-in i1=1, i3=0.5"),
    ])
    def test_tcut_below_conjugate_time(self, monkeypatch, i1, i3, detail):
        # a cut time that meets the conjugate time is not below it
        monkeypatch.setattr(verify, "t_cut", lambda m, pb: _arc_length(m, pb, tau_conj(m.eta(), pb)))
        result = _by_name(verify._check_tcut_grid(BergerMetric(i1, i3)), "tcut-below-conjugate-time")
        assert (result.passed, result.detail) == (False, detail)

    @pytest.mark.parametrize("rel,passed", [(5e-13, True), (2e-12, False)])
    def test_conjugate_agreement_bound(self, monkeypatch, rel, passed):
        # the oracle's stated accuracy, 1e-12 relative, is the bound
        monkeypatch.setattr(verify, "conjugate_time_numeric", lambda m, pb, t_max: (
            (1.0 + rel) * _arc_length(m, pb, tau_conj(m.eta(), pb))))
        result = verify._check_conjugate_agreement(BergerMetric(2.0, 1.0))
        assert result.passed is passed


class TestDerivativeUnderflow:
    @pytest.mark.parametrize("i1,i3", [(1.0, 1e-300), (1.0540955231305517e-26, 1.442252927001178e-257)])
    def test_sign_on_the_scaled_copy(self, i1, i3):
        # t_cut' is about -4e-445 at (1, 1e-300), pbar3 = 0.025: it rounds to -0.0 at this
        # scale, so the check reads the sign at the same eta with i1 near 2**1000
        results = run_checks(BergerMetric(i1, i3), "quick")
        assert [r.name for r in results if not r.passed] == []


class TestConjugateAgreement:
    @pytest.mark.parametrize("i1,i3", [(2.0, 1.0), (1.0, 2.0), (1.0016710069985971, 1.0),
                                       (1.0 + 1e-9, 1.0), (1e300, 1.0), (1.7e308, 1e308),
                                       (1.0, 1.0), (1e-8, 1.0), (1e-12, 1.0), (3e-16, 1.0)])
    def test_within_the_stated_accuracy(self, i1, i3):
        # 3.9e-16 at worst over 500 random metrics, against a bound of 1e-12; for eta <= 0
        # the check runs on the metric itself and expects t_pi
        worst = float(verify._check_conjugate_agreement(BergerMetric(i1, i3)).detail.split()[3])
        assert worst < 1e-14

    @pytest.mark.parametrize("i1,i3", [(3e-16, 1.0), (1e-12, 1.0), (2.0, 1.0)])
    def test_checks_the_named_ratio(self, monkeypatch, i1, i3):
        # the check runs at i1 = 1 on the ratio of the metric it names; eta = i1/i3 - 1
        # keeps few of its digits near -1, so i3 = 1/(1 + eta) would be 11 % off at
        # (3e-16, 1) and 2.2e-5 off at (1e-12, 1)
        ratios = []
        oracle = verify.conjugate_time_numeric
        monkeypatch.setattr(verify, "conjugate_time_numeric",
                            lambda mm, *args: ratios.append(mm.i1 / mm.i3) or oracle(mm, *args))
        assert verify._check_conjugate_agreement(BergerMetric(i1, i3)).passed
        assert ratios == [i1 / i3] * 2

    def test_checks_the_named_ratio_to_the_bit(self, monkeypatch):
        # both eigenvalues are scaled by one power of two; i3 = m.i3/m.i1 at i1 = 1 would
        # miss the ratio by an ulp where 1/(m.i3/m.i1) != m.i1/m.i3
        ratios = []
        oracle = verify.conjugate_time_numeric
        monkeypatch.setattr(verify, "conjugate_time_numeric",
                            lambda mm, *args: ratios.append(mm.i1 / mm.i3) or oracle(mm, *args))
        rng = random.Random(38)
        inexact = 0
        for _ in range(1000):
            i3 = 10.0 ** rng.uniform(-300.0, 0.0)
            m = BergerMetric(i3 * 10.0 ** rng.uniform(-16.0, 300.0), i3)
            ratio = m.i1 / m.i3
            inexact += 1.0 / (m.i3 / m.i1) != ratio
            ratios.clear()
            assert verify._check_conjugate_agreement(m).passed, m
            assert ratios == [ratio] * 2, m
        assert inexact > 0
