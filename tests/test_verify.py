import math

import pytest

from bergersphere import verify
from bergersphere.cutprofile import t_cut
from bergersphere.model import BergerMetric
from bergersphere.verify import FULL_CHECKS, QUICK_CHECKS, CheckResult, run_checks


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
        assert len(results) == len(FULL_CHECKS) > len(QUICK_CHECKS)

    def test_cut_sandwich_on_the_requested_metric(self):
        # an oblate metric's own sandwich, not that of a prolate stand-in
        m = BergerMetric(1e-8, 1.0)
        detail = {r.name: r for r in run_checks(m, "full")}["geodesic-cut-sandwich"].detail
        assert float(detail.split("arrival ")[1]) < 1.1 * t_cut(m, 0.6)

    @pytest.mark.parametrize("i1,i3,stand_in", [
        (1.0, 2.0, dict.fromkeys(["tcut-derivative-sign", "tcut-below-conjugate-time",
                                  "geodesic-conjugate-agreement"], " on stand-in i1=1, i3=0.5")),
        (3.0, 1.0, {}),
    ])
    def test_details_name_the_stand_in_metric(self, i1, i3, stand_in):
        # for eta <= 0 three checks run on a prolate stand-in, and say so
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
        with pytest.raises(ValueError):
            run_checks(BergerMetric(1.0, 1.0), "paranoid")


class TestExtremeScales:
    @pytest.mark.parametrize("i1,i3", [(1e200, 1e199), (1e-300, 1e-301)])
    def test_round_calibration(self, i1, i3):
        results = {r.name: r for r in run_checks(BergerMetric(i1, i3), "full")}
        assert results["geodesic-round-calibration"].passed

    def test_quick_near_float_max(self):
        failing = [r.name for r in run_checks(BergerMetric(1.7e308, 1e308)) if not r.passed]
        assert failing == []


class TestFailureDetails:
    # each check's failing return, forced by a stand-in for the function it checks
    @pytest.mark.parametrize("stub,value,check,want", [
        ("tau3", lambda eta, pb: 2.0, verify._check_tau3_monotone,
         ("tau3-monotone-decreasing", "not decreasing at eta=0.1, pbar3=0.025")),
        ("tau_conj", lambda eta, pb: 0.5 * math.pi, verify._check_tau_conj_range,
         ("tau-conj-range", "out of range at eta=0.1, pbar3=0.0")),
        ("tau_conj", lambda eta, pb: math.nextafter(math.pi, 0.0), verify._check_tau_conj_range,
         ("tau-conj-range", "pbar3=1 not pi at eta=0.1")),
    ])
    def test_root_checks(self, monkeypatch, stub, value, check, want):
        monkeypatch.setattr(verify, stub, value)
        result = check(BergerMetric(3.0, 1.0))
        assert (result.name, result.passed, result.detail) == (want[0], False, want[1])

    @pytest.mark.parametrize("i1,i3,slope,detail", [
        (3.0, 1.0, -1.0, "not rising at pbar3=0.025"),
        (1.0, 2.0, -1.0, "not rising at pbar3=0.025 on stand-in i1=1, i3=0.5"),
        (3.0, 1.0, 1.0, "not falling at pbar3=0.525"),
    ])
    def test_tcut_derivative_sign(self, monkeypatch, i1, i3, slope, detail):
        monkeypatch.setattr(verify, "t_cut_derivative", lambda m, pb: slope)
        result = verify._check_tcut_derivative_sign(BergerMetric(i1, i3))
        assert (result.name, result.passed, result.detail) == ("tcut-derivative-sign", False, detail)
