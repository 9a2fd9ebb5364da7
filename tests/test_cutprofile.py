import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergersphere import cutprofile, model, roots
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


_PROLATE, _OBLATE = BergerMetric(3.0, 1.0), BergerMetric(1.0, 2.0)


class TestEachArgumentCheckedOnce:
    @pytest.mark.parametrize("call,checked", [
        (lambda: t_cut(_PROLATE, 0.5), ["pbar3"]),
        (lambda: t_cut(_OBLATE, 0.5), ["pbar3"]),
        (lambda: t_cut_derivative(_PROLATE, 0.5), ["pbar3"]),
        (lambda: tau_cut(2.0, 0.5), ["eta", "pbar3"]),
        (lambda: tau_cut(-0.5, 0.5), ["eta", "pbar3"]),
        (lambda: tau3(2.0, 0.5), ["eta", "pbar3"]),
    ])
    def test_one_real_check_per_argument(self, monkeypatch, call, checked):
        # the metric is built beforehand, so every _real call counted is one of the call's
        # own arguments, checked at the public boundary and not again further down
        names = []
        real = model._real

        def counted(name, *args, **kwargs):
            names.append(name)
            return real(name, *args, **kwargs)
        for module in (model, roots, cutprofile):
            monkeypatch.setattr(module, "_real", counted)
        call()
        assert names == checked


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

    def test_pole_value_of_a_very_oblate_metric(self):
        # 2*pi*sqrt(i1)*sqrt(i1/i3): 1 + eta would cancel to 1.1e-5 relative here
        want = 2.0 * math.pi * 1e-12
        assert t_cut(BergerMetric(1e-12, 1.0), 1.0) == pytest.approx(want, rel=1e-14, abs=0.0)

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

    # diameter_numeric finds where this sign changes in [0, 1]: positive below
    # min(1, 1/eta) and negative above (an underflow may give -0.0 there), at
    # dyadic points down to 2**-80 and odd multiples of 1/1024, for eta
    # log-uniform in [1e-9, 1e300] and, so that eta <= 1 is drawn, in [1e-9, 1e2]
    @pytest.mark.parametrize("i3", [1e-300, 1.0, 1e8])
    def test_sign_changes_once_at_one_over_eta(self, i3):
        pbs = [2.0 ** -k for k in range(81)] + [(2 * j + 1) / 1024 for j in range(512)]
        rng = np.random.default_rng(7)
        for log_eta in np.concatenate([rng.uniform(-9.0, 300.0, 6), rng.uniform(-9.0, 2.0, 3)]):
            m = BergerMetric(i3 * (1.0 + 10.0 ** log_eta), i3)
            eta = m.eta()
            for pb in pbs:
                if eta * pb < 1.0 - 1e-6:
                    assert t_cut_derivative(m, pb) > 0.0, (m, pb)
                elif eta * pb > 1.0 + 1e-6:
                    assert math.copysign(1.0, t_cut_derivative(m, pb)) < 0.0, (m, pb)

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

    @pytest.mark.parametrize("i1,i3,pb", [
        (1.7e308, 1.0, 1e-300),  # about -4.8e446
        (9.338962942911058e+282, 6.19925911164445e-11, 5.456490311965382e-243),
    ])
    def test_rejects_a_derivative_beyond_the_float_maximum(self, i1, i3, pb):
        m = BergerMetric(i1, i3)
        for sign in (1.0, -1.0):
            with pytest.raises(DomainError, match="float maximum"):
                t_cut_derivative(m, sign * pb)
        # the closed form overflows with its sign, which is all the diameter's bisection reads
        assert _dt_cut(m, m.eta(), pb, tau3(m.eta(), pb)) == -math.inf


# eta < 0, eta = 0, 0 < eta <= 1 (middle) and eta > 1 (prolate): fixed and drawn
# ratios at unit scale, and fixed ones at the least subnormal and near the float maximum
_rng = np.random.default_rng(26)
_MIRROR_METRICS = [
    (3.0, 1.0), (1.3, 1.0), (2.0e3, 0.5), (30.0, 1.0), (1.0, 1.0), (1.0, 2.0),
    (float(_rng.uniform(0.01, 1.0)), 1.0), (float(_rng.uniform(1.0, 2.0)), 1.0),
    (float(10.0 ** _rng.uniform(0.31, 8.0)), 1.0),
    (5e-324, 1e-323), (5e-324, 5e-324), (1.5e-323, 1e-323), (3.5e-323, 5e-324),
    (1e308, 1.7e308), (1e308, 1e308), (1.5e308, 1e308), (1.7e308, 2e307),
]


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

    # at (1e308, 1) the tau3 roots lie within rounding of their brackets' ends
    @pytest.mark.parametrize("i1,i3", [(3.0, 1.0), (1.3, 1.0), (2.0e3, 0.5), (1e308, 1.0)])
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

    @pytest.mark.parametrize("n", [3, 4, 5, 20, 21, 1201])
    @pytest.mark.parametrize("i1,i3", _MIRROR_METRICS)
    def test_negative_rows_mirror_positive_rows(self, i1, i3, n):
        def bits(v):
            return None if v is None else v.hex()

        m = BergerMetric(i1, i3)
        eta = m.eta()
        profile = sample_profile(m, n)
        rows = profile.rows
        # the stored half is the rows with pbar3 >= 0 of the exact grid
        assert rows[n // 2:] == tuple(ProfileRow(*r) for r in profile.half)
        assert [r.pbar3 for r in rows] == [(2 * k - (n - 1)) / (n - 1) for k in range(n)]
        # row k < n-1-k is row n-1-k with pbar3 and dt_cut negated and the same even cells
        for r, q in zip(rows[:n // 2], reversed(rows)):
            assert (bits(r.pbar3), bits(r.dt_cut)) == (
                bits(-q.pbar3), bits(None if q.dt_cut is None else -q.dt_cut))
            assert (bits(r.tau3), bits(r.tau_conj), bits(r.t_cut)) == (
                bits(q.tau3), bits(q.tau_conj), bits(q.t_cut))
        # a mirrored row holds the bits of the cut time and its derivative at the
        # row's own tau3, and roots within a few ulp of the cold public solves
        for r in rows:
            tau = r.tau3 if eta > 0.0 else math.pi
            assert bits(r.t_cut) == bits(_arc_length(m, r.pbar3, tau))
            if eta > 0.0:
                assert abs(r.tau3 - tau3(eta, r.pbar3)) <= 4 * math.ulp(r.tau3)
                assert abs(r.tau_conj - tau_conj(eta, r.pbar3)) <= 4 * math.ulp(r.tau_conj)
                if r.pbar3 != 0.0:
                    assert bits(r.dt_cut) == bits(_dt_cut(m, eta, r.pbar3, tau))
            else:
                assert r.tau3 is None and r.tau_conj is None and r.dt_cut is None

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
        # numpy floats, signed zeros and the absent cells of both shapes of half
        solved = CutProfile(metric=BergerMetric(2, 1), half=(
            (np.float64(0.0), np.float64(1.25), 2.0, np.float64(6.0), None),
            (0.25, 3.0, np.float64(3.5), 5.0, np.float64(-0.0)),
            (np.float64(0.5), 1.0, 1.0, np.float64(0.1), 0.0),
            (1.0, 2.0, 2.0, 1.0, np.float64(-2.5e-310)),
        ))
        flat = CutProfile(metric=BergerMetric(1, 1), half=(
            (np.float64(1 / 3), None, None, 6.0, None),
            (1.0, None, None, np.float64(0.5), None),
        ))
        for profile in (solved, flat):
            _assert_same_text(profile.to_csv(), _reference_csv(profile))
            _assert_same_text(profile.to_json(), _reference_json(profile))

    @pytest.mark.parametrize("n", [1200, 1201])
    def test_csv_rows_mirror_in_the_text(self, n):
        # row k and row n-1-k of the CSV differ only by the signs of pbar3 and dt_cut,
        # for odd n, with its unmirrored row at 0, and for even n
        def neg(cell):
            return cell[1:] if cell.startswith("-") else "-" + cell

        text = sample_profile(BergerMetric(2.0, 1.0), n).to_csv()
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len(rows) == n
        assert all(q == [neg(r[0]), *r[1:4], neg(r[4])]
                   for r, q in zip(rows, reversed(rows)) if r[0] != "0")


def _changed(half, k, **cells):
    # the half with the named cells of its row k replaced
    half = list(half)
    row = dict(zip(CSV_HEADER.split(","), half[k]))
    row.update(cells)
    half[k] = tuple(row.values())
    return half


class TestHalf:
    """The profile stores the rows with pbar3 >= 0, checked once at construction."""

    @pytest.mark.parametrize("n", [20, 21])
    def test_zero_derivatives_flip_their_sign(self, n):
        # the mirror of a dt_cut of 0.0 is -0.0 and the other way round
        profile = sample_profile(BergerMetric(3.0, 1.0), n)
        half = _changed(_changed(profile.half, 2, dt_cut=0.0), 3, dt_cut=-0.0)
        profile = CutProfile(metric=profile.metric, half=half)
        _assert_same_text(profile.to_csv(), _reference_csv(profile))
        _assert_same_text(profile.to_json(), _reference_json(profile))

    @pytest.mark.parametrize("grid", [(), (0.5,), (-0.5, 0.5, 1.0),
                                      (0.0, 0.75, 0.5, 1.0), (0.0, 0.5, 0.5, 1.0), (0.0, 1.0, 1.0)])
    def test_grid_rises_strictly_to_one(self, grid):
        half = tuple((pb, None, None, 2.0 * math.pi, None) for pb in grid)
        with pytest.raises(DomainError, match="cells|increase strictly"):
            CutProfile(metric=BergerMetric(1.0, 1.0), half=half)

    def test_the_least_grid(self):
        # the half (1,) is the profile of the two rows -1 and 1
        rows = CutProfile(metric=BergerMetric(1.0, 1.0), half=((1.0, None, None, 6.0, None),)).rows
        assert rows == (ProfileRow(-1.0, None, None, 6.0, None), ProfileRow(1.0, None, None, 6.0, None))

    @pytest.mark.parametrize("t", [0.0, -0.0, -1.0, 2.0 * math.pi * math.sqrt(3.0) * (1.0 + 1e-9), 1e300])
    def test_cut_time_in_range(self, t):
        profile = sample_profile(BergerMetric(3.0, 1.0), 5)
        with pytest.raises(DomainError, match="outside"):
            CutProfile(metric=profile.metric, half=_changed(profile.half, 1, t_cut=t))

    @pytest.mark.parametrize("i1,k,cells,message", [
        (3.0, 1, {"tau3": None}, "None is not a finite float"),
        (3.0, 2, {"tau_conj": None}, "None is not a finite float"),
        (3.0, 1, {"dt_cut": None}, "None is not a finite float"),
        (3.0, 0, {"dt_cut": 0.0}, "None where undefined"),
        (1.0, 1, {"tau3": 1.0}, "None where undefined"),
        (0.5, 0, {"dt_cut": 0.0}, "None where undefined"),
    ])
    def test_root_cells_absent_exactly_where_undefined(self, i1, k, cells, message):
        profile = sample_profile(BergerMetric(i1, 1.0), 5)
        with pytest.raises(DomainError, match=message):
            CutProfile(metric=profile.metric, half=_changed(profile.half, k, **cells))

    @pytest.mark.parametrize("cell,value", [("pbar3", 1), ("tau3", 2), ("t_cut", 3),
                                            ("dt_cut", 0), ("dt_cut", np.float32(-1.5))])
    def test_cells_are_floats(self, cell, value):
        # the mirror of an int 0 would be written -0
        profile = sample_profile(BergerMetric(3.0, 1.0), 5)
        with pytest.raises(DomainError, match="not a finite float"):
            CutProfile(metric=profile.metric, half=_changed(profile.half, 2, **{cell: value}))

    def test_rows_of_the_wrong_length(self):
        profile = sample_profile(BergerMetric(3.0, 1.0), 5)
        half = list(profile.half)
        half[1] = half[1][:4]
        with pytest.raises(DomainError, match="cells"):
            CutProfile(metric=profile.metric, half=half)


class TestNonFiniteCellsRefused:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    @pytest.mark.parametrize("cell", ["tau3", "tau_conj", "dt_cut", "t_cut", "pbar3"])
    def test_refused_at_construction(self, cell, value):
        profile = sample_profile(BergerMetric(3.0, 1.0), 5)
        with pytest.raises(DomainError, match="not a finite float"):
            CutProfile(metric=profile.metric, half=_changed(profile.half, 1, **{cell: value}))
