import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergersphere.cutprofile import (
    CSV_HEADER,
    _arc_length,
    _dt_cut,
    CutProfile,
    ProfileRow,
    sample_profile,
    t_cut,
    t_cut_derivative,
    tau_cut,
)
from bergersphere.errors import DomainError
from bergersphere.model import BergerMetric
from bergersphere.roots import tau3, tau3_derivative, tau_conj
from bergersphere.serialize import fmt17, json_text
from bergersphere.verify import _PB_GRID


class TestTauCut:
    @pytest.mark.parametrize("eta,pb", [(-0.5, 0.3), (0.0, 0.9), (-0.99, 0.0)])
    def test_pi_branch(self, eta, pb):
        assert tau_cut(eta, pb) == math.pi

    def test_tau3_branch(self):
        assert tau_cut(1.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-11)

    def test_rejects_eta_at_or_below_minus_one(self):
        with pytest.raises(DomainError):
            tau_cut(-1.0, 0.5)

    def test_validates_pbar3_on_constant_branch(self):
        with pytest.raises(ValueError):
            tau_cut(-0.5, 1.5)


class TestTCut:
    def test_examples(self):
        assert t_cut(BergerMetric(1, 2), 0.0) == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert t_cut(BergerMetric(1, 2), 1.0) == pytest.approx(2.0 * math.pi * math.sqrt(0.5),
                                                               abs=1e-12)
        assert t_cut(BergerMetric(2, 1), 1.0) == pytest.approx(2.0 * math.pi, abs=1e-10)
        # at the interior maximum the cut time equals the prolate diameter
        assert t_cut(BergerMetric(3, 1), 0.5) == pytest.approx(math.pi * math.sqrt(3.0) *
                                                               math.sqrt(1.5), abs=1e-10)

    @pytest.mark.parametrize("i1,i3", [(0.5, 1.0), (2.0, 1.0), (3.0, 1.0)])
    def test_evenness(self, i1, i3):
        m = BergerMetric(i1, i3)
        for pb in (0.2, 0.5, 0.8, 1.0):
            assert t_cut(m, pb) == t_cut(m, -pb)

    def test_pole_value_for_positive_eta(self):
        # t_cut(+-1) = 2*pi*sqrt(i3) whenever eta > 0
        for i1, i3 in ((1.5, 1.0), (3.0, 1.0), (10.0, 1.0)):
            assert t_cut(BergerMetric(i1, i3), 1.0) == pytest.approx(
                2.0 * math.pi * math.sqrt(i3), abs=1e-9)

    def test_minimum_at_zero_for_positive_eta(self):
        m = BergerMetric(3.0, 1.0)
        center = t_cut(m, 0.0)
        for k in range(1, 11):
            assert center <= t_cut(m, 0.01 * k)

    def test_branch_continuity_in_eta(self):
        for k in range(50):
            pb = -1.0 + 2.0 * k / 49
            below = t_cut(BergerMetric(1.0, 1.0 / (1.0 - 1e-6)), pb)
            above = t_cut(BergerMetric(1.0, 1.0 / (1.0 + 1e-6)), pb)
            assert abs(above - below) < 1e-3


class TestTCutDerivative:
    def test_sign_pattern_eta_above_one(self):
        m = BergerMetric(3.0, 1.0)  # eta = 2
        assert t_cut_derivative(m, 0.1) > 0.0
        assert t_cut_derivative(m, 0.4) > 0.0
        assert t_cut_derivative(m, 0.6) < 0.0
        assert t_cut_derivative(m, 0.9) < 0.0
        assert t_cut_derivative(m, 1.0) < 0.0

    def test_positive_up_to_pole_for_small_eta(self):
        m = BergerMetric(1.5, 1.0)  # eta = 0.5
        for pb in (0.1, 0.5, 0.9):
            assert t_cut_derivative(m, pb) > 0.0

    def test_matches_finite_differences(self):
        m = BergerMetric(2.0, 1.0)
        h = 1e-6
        fd = (t_cut(m, 0.5 + h) - t_cut(m, 0.5 - h)) / (2.0 * h)
        assert t_cut_derivative(m, 0.5) == pytest.approx(fd, rel=1e-5)

    def test_odd(self):
        m = BergerMetric(3.0, 1.0)
        assert t_cut_derivative(m, -0.3) == pytest.approx(-t_cut_derivative(m, 0.3))

    @pytest.mark.parametrize("eta", [1e8, 1e50, 1e150, 1e308])
    def test_sign_at_huge_eta(self, eta):
        # the maximum sits at 1/eta, below the whole grid, so the profile falls there;
        # the two terms of the direct derivative cancel to noise at these scales
        m = BergerMetric(1.0 + eta, 1.0)
        for pb in _PB_GRID:
            assert t_cut_derivative(m, pb) < 0.0, (eta, pb)

    # central differences of t_cut in mpmath at 60 digits
    @pytest.mark.parametrize("i1,pb,want", [
        (2.0, 1e-10, 3.1637289628395873e-10),
        (2.0, 1e-6, 3.1637289628331083e-06),
        (30.0, 1e-10, 1.7330735532447964e-08),
        (1.5, 1e-10, 1.932157933642176e-10),
    ])
    def test_values_near_zero(self, i1, pb, want):
        assert t_cut_derivative(BergerMetric(i1, 1.0), pb) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("i1,i3", [(2.0, 1.0), (30.0, 1.0), (1.5, 1.0), (2e200, 1e200)])
    @given(log_s=st.floats(-300.0, -8.0))
    @settings(max_examples=100, deadline=None)
    def test_linear_near_zero(self, i1, i3, log_s):
        # t_cut is even and smooth, so t_cut' = a*s + O(s^3) with (eta*s)^2 < 1e-12 here
        m = BergerMetric(i1, i3)
        s = 10.0 ** log_s
        slope = t_cut_derivative(m, 1e-150) / 1e-150
        assert t_cut_derivative(m, s) / s == pytest.approx(slope, rel=1e-12, abs=0.0)

    def test_finite_and_signed_at_tiny_pbar3(self):
        # a 13 x 13 grid of metrics from 5e-324 to 1.7e308; an underflow may give a
        # zero, but one of the right sign
        lo, hi = math.log(5e-324), math.log(1.7e308)
        scales = [5e-324] + [math.exp(lo + (hi - lo) * k / 12) for k in range(1, 12)] + [1.7e308]
        checked = 0
        for i1 in scales:
            for i3 in scales:
                m = BergerMetric(i1, i3)
                try:
                    eta = m.eta()
                except DomainError:
                    continue  # i1/i3 overflows
                if eta <= 0.0:
                    continue
                for pb in (5e-324, 1e-300, 1e-15, -1e-15, -1e-300, -5e-324):
                    d3, dt = tau3_derivative(eta, pb), t_cut_derivative(m, pb)
                    sign = math.copysign(1.0, pb)
                    assert math.isfinite(d3) and math.copysign(1.0, d3) == -sign, (i1, i3, pb, d3)
                    rising = eta * abs(pb) < 1.0  # below the maximum at 1/eta
                    assert math.isfinite(dt) and math.copysign(1.0, dt) == (
                        sign if rising else -sign), (i1, i3, pb, dt)
                    checked += 1
        assert checked == 300  # 50 metrics with eta > 0

    def test_rejects_zero_and_nonpositive_eta(self):
        with pytest.raises(DomainError):
            t_cut_derivative(BergerMetric(3.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            t_cut_derivative(BergerMetric(1.0, 2.0), 0.5)


class TestSampleProfile:
    def test_round_case_flat(self):
        profile = sample_profile(BergerMetric(1.0, 1.0), 5)
        assert [r.pbar3 for r in profile.rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        for r in profile.rows:
            assert r.t_cut == pytest.approx(2.0 * math.pi, abs=1e-12)
            assert r.tau3 is None and r.tau_conj is None and r.dt_cut is None

    def test_prolate_max_row_at_inverse_eta(self):
        profile = sample_profile(BergerMetric(3.0, 1.0), 201)
        best = max(profile.rows, key=lambda r: r.t_cut)
        assert abs(best.pbar3) == pytest.approx(0.5, abs=0.01)

    def test_middle_max_row_at_pole(self):
        profile = sample_profile(BergerMetric(2.0, 1.0), 201)
        best = max(profile.rows, key=lambda r: r.t_cut)
        assert abs(best.pbar3) == 1.0

    def test_positive_eta_columns(self):
        profile = sample_profile(BergerMetric(2.0, 1.0), 5)
        for r in profile.rows:
            assert r.tau3 is not None and r.tau_conj is not None
            assert (r.dt_cut is None) == (r.pbar3 == 0.0)

    @pytest.mark.parametrize("i1,i3", [(3.0, 1.0), (1.3, 1.0), (2.0e3, 0.5)])
    def test_rows_match_public_functions(self, i1, i3):
        m = BergerMetric(i1, i3)
        eta = m.eta()
        for r in sample_profile(m, 41).rows:
            assert r.tau3 == pytest.approx(tau3(eta, r.pbar3), rel=1e-15, abs=0.0)
            assert r.t_cut == pytest.approx(t_cut(m, r.pbar3), rel=1e-15, abs=0.0)
            if r.pbar3 != 0.0:
                assert r.dt_cut == pytest.approx(t_cut_derivative(m, r.pbar3), rel=1e-15, abs=0.0)

    def test_one_tau3_solve_per_row(self, monkeypatch):
        # counted at the warm stepper's solve; the pbar3 = 0 row takes tau_conj(eta, 0)
        import bergersphere.cutprofile as cutprofile_module
        calls = []
        value = cutprofile_module._tau3_value

        def counted(eta, pb, start):
            calls.append(pb)
            return value(eta, pb, start)

        monkeypatch.setattr(cutprofile_module, "_tau3_value", counted)
        # one solve per distinct |pbar3| > 0: the negative rows are mirrored
        sample_profile(BergerMetric(3.0, 1.0), 21)
        assert len(calls) == 10
        assert all(pb > 0.0 for pb in calls)
        calls.clear()
        sample_profile(BergerMetric(3.0, 1.0), 20)
        assert len(calls) == 10

    @pytest.mark.parametrize("n", [21, 20, 3, 4])
    @pytest.mark.parametrize("i1,i3", [(3.0, 1.0), (1.3, 1.0), (2.0e3, 0.5), (30.0, 1.0),
                                       (1.0, 1.0), (1.0, 2.0)])
    def test_negative_rows_mirror_positive_rows(self, i1, i3, n):
        def bits(v):
            return None if v is None else v.hex()

        m = BergerMetric(i1, i3)
        eta = m.eta()
        rows = sample_profile(m, n).rows
        for r, q in zip(rows, reversed(rows)):
            assert r.pbar3 == -q.pbar3
            assert (bits(r.tau3), bits(r.tau_conj), bits(r.t_cut)) == (
                bits(q.tau3), bits(q.tau_conj), bits(q.t_cut))
            assert bits(r.dt_cut) == bits(None if q.dt_cut is None else -q.dt_cut)
        # a mirrored row holds the bits of the cut time and its derivative at the
        # row's own tau3, and roots within a few ulp of the cold public solves
        for r in rows:
            tau = r.tau3 if eta > 0.0 else math.pi
            assert bits(r.t_cut) == bits(_arc_length(m, eta, r.pbar3, tau))
            if eta > 0.0:
                assert abs(r.tau3 - tau3(eta, r.pbar3)) <= 4 * math.ulp(r.tau3)
                assert abs(r.tau_conj - tau_conj(eta, r.pbar3)) <= 4 * math.ulp(r.tau_conj)
                if r.pbar3 != 0.0:
                    assert bits(r.dt_cut) == bits(_dt_cut(m, eta, r.pbar3, tau))

    def test_grid_is_exact(self):
        profile = sample_profile(BergerMetric(1.0, 2.0), 9)
        assert profile.rows[0].pbar3 == -1.0
        assert profile.rows[4].pbar3 == 0.0
        assert profile.rows[-1].pbar3 == 1.0

    @pytest.mark.parametrize("n", [2, 1, 0, -3, 2.5, 5.0, True])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            sample_profile(BergerMetric(1.0, 1.0), n)

    def test_accepts_numpy_integer_n(self):
        m = BergerMetric(3.0, 1.0)
        assert sample_profile(m, np.int64(5)) == sample_profile(m, 5)


class TestCutProfileSerialization:
    def test_csv_header_and_shape(self):
        text = sample_profile(BergerMetric(3.0, 1.0), 11).to_csv()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 12
        assert all(line.count(",") == 4 for line in lines)

    def test_csv_empty_cells_for_absent_columns(self):
        text = sample_profile(BergerMetric(1.0, 2.0), 3).to_csv()
        row = text.splitlines()[1].split(",")
        assert row[1] == "" and row[2] == "" and row[4] == ""
        assert row[3] != ""

    def test_csv_deterministic(self):
        m = BergerMetric(1.7, 1.0)
        assert sample_profile(m, 21).to_csv() == sample_profile(m, 21).to_csv()

    def test_json_shape(self):
        parsed = json.loads(sample_profile(BergerMetric(2.0, 1.0), 3).to_json())
        assert parsed["metric"] == {"i1": 2.0, "i3": 1.0, "eta": 1.0}
        assert len(parsed["rows"]) == 3
        assert set(parsed["rows"][0]) == {"pbar3", "tau3", "tau_conj", "t_cut", "dt_cut"}
        assert parsed["rows"][1]["dt_cut"] is None  # the pbar3 = 0 row

    def test_rows_validated(self):
        m = BergerMetric(1.0, 1.0)
        good = ProfileRow(-1.0, None, None, 2.0 * math.pi, None)
        with pytest.raises(ValueError):
            CutProfile(metric=m, rows=(good,))  # does not cover [-1, 1]
        with pytest.raises(ValueError):
            CutProfile(metric=m, rows=(good, ProfileRow(1.0, None, None, 100.0, None)))


def _reference_csv(profile):
    # the CSV writer as it was before row templates: one fmt17 call per cell
    def cell(v):
        return "" if v is None else fmt17(v)
    lines = [CSV_HEADER]
    for r in profile.rows:
        lines.append(",".join(
            (fmt17(r.pbar3), cell(r.tau3), cell(r.tau_conj), fmt17(r.t_cut), cell(r.dt_cut))
        ))
    return "\n".join(lines) + "\n"


def _reference_json(profile):
    # the JSON writer as it was before row templates: json_text of a dict of lists
    m = profile.metric
    return json_text({
        "metric": {"i1": m.i1, "i3": m.i3, "eta": m.eta()},
        "rows": [
            {"pbar3": r.pbar3, "tau3": r.tau3, "tau_conj": r.tau_conj,
             "t_cut": r.t_cut, "dt_cut": r.dt_cut}
            for r in profile.rows
        ],
    })


def _assert_same_text(got, want):
    # == on the whole text; a failure names the first line that differs, since
    # pytest's own diff of two 1201-row tables takes minutes
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"texts differ, first at line {i}: {g[i:i + 1]!r} != {w[i:i + 1]!r}")


class TestTableBytes:
    @pytest.mark.parametrize("n", [3, 4, 20, 21, 1201])
    @pytest.mark.parametrize("i1,i3", [(1.0, 2.0), (1.0, 1.0), (3.0, 1.0), (2e3, 0.5),
                                       (1e308, 1.0), (5e-324, 5e-324)])
    def test_same_bytes_as_reference_writers(self, i1, i3, n):
        profile = sample_profile(BergerMetric(i1, i3), n)
        _assert_same_text(profile.to_csv(), _reference_csv(profile))
        _assert_same_text(profile.to_json(), _reference_json(profile))

    def test_hand_built_rows_of_mixed_types(self):
        # numpy floats, ints, a signed zero and every root cell absent somewhere
        rows = (
            ProfileRow(-1, np.float64(1.25), 2, np.float64(6.0), np.float64(-0.0)),
            ProfileRow(np.float64(-0.5), None, np.float64(3.5), 5, None),
            ProfileRow(0.0, 3, None, np.float64(0.1), 7),
            ProfileRow(np.float64(1.0), None, None, 1, np.float64(-2.5e-310)),
        )
        profile = CutProfile(metric=BergerMetric(1, 1), rows=rows)
        _assert_same_text(profile.to_csv(), _reference_csv(profile))
        _assert_same_text(profile.to_json(), _reference_json(profile))


class TestNonFiniteCellsRefused:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("cell", ["tau3", "tau_conj", "dt_cut"])
    def test_refused_at_construction(self, cell, value):
        profile = sample_profile(BergerMetric(3.0, 1.0), 5)
        rows = list(profile.rows)
        rows[1] = dataclasses.replace(rows[1], **{cell: value})
        with pytest.raises(ValueError, match="not finite"):
            CutProfile(metric=profile.metric, rows=rows)
