import pytest

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
