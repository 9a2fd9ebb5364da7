import json
import math

import pytest

from bergersphere.diameter import (
    diameter_closed_form,
    diameter_numeric,
    diameter_report,
)
from bergersphere.model import BergerMetric, Regime

TWO_PI = 2.0 * math.pi


class TestClosedForm:
    @pytest.mark.parametrize("i1,i3,want", [
        (1.0, 2.0, TWO_PI),
        (1.0, 1.0, TWO_PI),
        (2.0, 1.0, TWO_PI),
        (3.0, 1.0, 3.0 * math.pi / math.sqrt(2.0)),
    ])
    def test_known_values(self, i1, i3, want):
        assert diameter_closed_form(BergerMetric(i1, i3)) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("i3", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("boundary_ratio", [1.0, 2.0])
    def test_continuity_at_branch_boundaries(self, i3, boundary_ratio):
        i1 = boundary_ratio * i3
        mid = diameter_closed_form(BergerMetric(i1, i3))
        for sgn in (-1.0, 1.0):
            shifted = diameter_closed_form(BergerMetric(i1 * (1.0 + sgn * 1e-9), i3))
            assert abs(shifted - mid) < 1e-6

    @pytest.mark.parametrize("c", [0.25, 4.0, 100.0])
    def test_scaling_law(self, c):
        base = diameter_closed_form(BergerMetric(1.7, 1.0))
        scaled = diameter_closed_form(BergerMetric(1.7 * c, c))
        assert scaled == pytest.approx(math.sqrt(c) * base, rel=1e-12)

    def test_bounds(self):
        for i1, i3 in ((0.3, 1.0), (1.0, 1.0), (5.0, 1.0), (100.0, 1.0)):
            d = diameter_closed_form(BergerMetric(i1, i3))
            assert math.pi * math.sqrt(i1) <= d <= TWO_PI * math.sqrt(i1)


class TestNumeric:
    def test_flat_profile_tie_breaks_to_zero(self):
        value, maximizer = diameter_numeric(BergerMetric(1.0, 2.0))
        assert value == pytest.approx(TWO_PI, abs=1e-9)
        assert maximizer == 0.0

    def test_prolate_interior_maximizer(self):
        value, maximizer = diameter_numeric(BergerMetric(3.0, 1.0))
        assert value == pytest.approx(3.0 * math.pi / math.sqrt(2.0), abs=1e-9)
        assert maximizer == pytest.approx(0.5, abs=1e-6)

    def test_middle_boundary_maximizer(self):
        value, maximizer = diameter_numeric(BergerMetric(1.5, 1.0))
        assert value == pytest.approx(TWO_PI, abs=1e-9)
        assert maximizer == pytest.approx(1.0, abs=1e-6)


class TestReport:
    def test_round_agreement(self):
        report = diameter_report(BergerMetric(1.0, 1.0))
        assert report.abs_gap < 1e-9
        assert report.abs_gap == abs(report.closed_form - report.numeric)

    def test_strongly_prolate_maximizer(self):
        report = diameter_report(BergerMetric(10.0, 1.0))
        assert report.regime is Regime.PROLATE
        assert report.maximizer_pbar3 == pytest.approx(1.0 / 9.0, abs=1e-6)

    def test_round_dominated_closed_form(self):
        report = diameter_report(BergerMetric(1.0, 100.0))
        assert report.regime is Regime.ROUND_DOMINATED
        assert report.closed_form == pytest.approx(TWO_PI, abs=1e-12)

    def test_json_keys(self):
        parsed = json.loads(diameter_report(BergerMetric(3.0, 1.0)).to_json())
        assert list(parsed) == ["i1", "i3", "eta", "regime", "closed_form",
                                "numeric", "maximizer_pbar3", "abs_gap"]
        assert parsed["regime"] == "PROLATE"
        assert parsed["abs_gap"] <= 1e-8 * parsed["closed_form"]
