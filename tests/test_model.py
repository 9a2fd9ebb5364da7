import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from bergersphere.errors import DomainError
from bergersphere.model import (
    BergerMetric,
    Momentum,
    Regime,
    _integer,
    classify_regime,
    momentum_norm,
)

finite_positive = st.floats(min_value=1e-6, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


class TestBergerMetric:
    def test_eta_examples(self):
        assert BergerMetric(1.0, 1.0).eta() == 0.0
        assert BergerMetric(2.0, 1.0).eta() == 1.0
        assert BergerMetric(1.0, 2.0).eta() == -0.5

    @pytest.mark.parametrize("i1,i3", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                       (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf),
                                       (10**400, 1.0)])
    def test_rejects_bad_eigenvalues(self, i1, i3):
        with pytest.raises(ValueError):
            BergerMetric(i1, i3)

    def test_eta_above_minus_one(self):
        assert BergerMetric(1e-6, 1e6).eta() > -1.0

    @given(i1=finite_positive, i3=finite_positive,
           c=st.floats(min_value=1e-3, max_value=1e3))
    def test_eta_scale_invariant(self, i1, i3, c):
        m = BergerMetric(i1, i3)
        scaled = BergerMetric(c * i1, c * i3)
        assert scaled.eta() == pytest.approx(m.eta(), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("make", [np.int64, np.float32, np.float64])
    def test_accepts_numpy_scalars(self, make):
        m = BergerMetric(make(3), make(1))
        assert (m.i1, m.i3) == (3.0, 1.0)
        assert type(m.i1) is float and type(m.i3) is float
        assert Momentum(make(3), make(0), make(4)).norm() == 5.0

    @pytest.mark.parametrize("v", [True, False, np.bool_(True), "3", None])
    def test_rejects_non_real_and_bool(self, v):
        with pytest.raises(DomainError, match="real number"):
            BergerMetric(v, 1.0)

    @pytest.mark.parametrize("i1,i3", [(1e300, 1e-300), (1.0, 1e17)])
    def test_eta_names_the_ratio_limit(self, i1, i3):
        # each eigenvalue is fine; i1/i3 overflows, or i1/i3 - 1 rounds to -1
        m = BergerMetric(i1, i3)
        with pytest.raises(DomainError, match=r"i1/i3"):
            m.eta()


class TestInteger:
    @pytest.mark.parametrize("v", [3, np.int64(3), np.int32(7)])
    def test_accepts_python_and_numpy_integers(self, v):
        got = _integer("k", v, 3)
        assert got == v and type(got) is int

    @pytest.mark.parametrize("v", [True, np.bool_(True), 5.0, np.float64(5.0), "5", None])
    def test_rejects_bool_and_non_integers(self, v):
        with pytest.raises(DomainError, match="k must be an integer >= 0"):
            _integer("k", v, 0)

    def test_rejects_below_minimum(self):
        with pytest.raises(DomainError, match="k must be an integer >= 3"):
            _integer("k", np.int64(2), 3)


class TestMomentum:
    def test_norm_and_reduced(self):
        p = Momentum(3.0, 0.0, 4.0)
        assert p.norm() == pytest.approx(5.0)
        assert p.reduced() == pytest.approx(0.8)

    def test_reduced_rejects_zero(self):
        with pytest.raises(DomainError, match="the zero momentum has no axis fraction"):
            Momentum(0.0, 0.0, 0.0).reduced()

    def test_reduced_clamps_rounding(self):
        # p3/|p| can land a few ulp past 1; reduced() must still validate
        p = Momentum(0.0, 0.0, 0.1 + 0.2)
        assert abs(p.reduced()) <= 1.0

    def test_norm_does_not_overflow(self):
        assert Momentum(1e200, 0.0, 1e200).norm() == pytest.approx(math.sqrt(2.0) * 1e200)

    def test_reduced_of_a_tiny_covector(self):
        # squaring 1e-200 underflows to 0, but the covector is not zero
        assert Momentum(0.0, 0.0, 1e-200).reduced() == 1.0
        assert Momentum(-3e-200, 0.0, 4e-200).reduced() == pytest.approx(0.8)

    def test_reduced_when_the_norm_overflows(self):
        # norm() is inf here, and p3/inf would give 0.0
        assert Momentum(1.7e308, 1.7e308, 1.7e308).reduced() == pytest.approx(
            1.0 / math.sqrt(3.0), rel=1e-15)
        assert Momentum(0.0, -1.7e308, -1.7e308).reduced() == pytest.approx(
            -math.sqrt(0.5), rel=1e-15)

    def test_reduced_of_a_subnormal_covector(self):
        # hypot(5e-324, 0, 5e-324) rounds to 5e-324, which would give 1.0
        assert Momentum(5e-324, 0.0, 5e-324).reduced() == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_reduced_keeps_the_bits_of_ordinary_covectors(self):
        rng = np.random.default_rng(6)
        signs = rng.choice((-1.0, 1.0), (2000, 3))
        for row in signs * 10.0 ** rng.uniform(-150.0, 150.0, (2000, 3)):
            p1, p2, p3 = (float(v) for v in row)
            want = min(1.0, max(-1.0, p3 / math.hypot(p1, p2, p3)))
            assert Momentum(p1, p2, p3).reduced().hex() == want.hex()


class TestMomentumNorm:
    def test_examples(self):
        assert momentum_norm(BergerMetric(1, 1), 0.7) == pytest.approx(1.0)
        assert momentum_norm(BergerMetric(2, 1), 1.0) == pytest.approx(1.0)
        assert momentum_norm(BergerMetric(1, 2), 1.0) == pytest.approx(math.sqrt(2.0))

    def test_axis_of_a_very_oblate_metric(self):
        # sqrt(i3) on the axis; 1 + eta*pbar3^2 would cancel to 2.5e-9 relative here
        assert momentum_norm(BergerMetric(1e-8, 1.0), 1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("pb,message", [(math.nan, "pbar3 must be finite"),
                                            (-math.inf, "pbar3 must be finite"),
                                            (1.5, r"pbar3 must lie in \[-1, 1\]")])
    def test_names_the_pbar3_limit(self, pb, message):
        with pytest.raises(DomainError, match=message):
            momentum_norm(BergerMetric(2.0, 1.0), pb)

    @given(i1=finite_positive, i3=finite_positive,
           pb=st.floats(min_value=-1.0, max_value=1.0))
    def test_bracket(self, i1, i3, pb):
        m = BergerMetric(i1, i3)
        # |p| runs from sqrt(i1) at pbar3 = 0 to sqrt(i3) at pbar3 = +-1
        lo, hi = math.sqrt(min(i1, i3)), math.sqrt(max(i1, i3))
        v = momentum_norm(m, pb)
        assert lo * (1.0 - 1e-12) <= v <= hi * (1.0 + 1e-12)


class TestRegime:
    @pytest.mark.parametrize("i1,i3,want", [
        (1.0, 2.0, Regime.ROUND_DOMINATED),
        (1.0, 1.0, Regime.ROUND_DOMINATED),   # first branch closed at i1 = i3
        (1.5, 1.0, Regime.MIDDLE),
        (2.0, 1.0, Regime.MIDDLE),            # second branch closed at i1 = 2*i3
        (3.0, 1.0, Regime.PROLATE),
    ])
    def test_classification(self, i1, i3, want):
        assert classify_regime(BergerMetric(i1, i3)) is want

    @given(i1=finite_positive, i3=finite_positive,
           c=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariant(self, i1, i3, c):
        ratio = i1 / i3
        # a ratio within an ulp of a branch boundary can flip under rescaling
        assume(abs(ratio - 1.0) > 1e-9 and abs(ratio - 2.0) > 1e-9)
        m = BergerMetric(i1, i3)
        scaled = BergerMetric(c * i1, c * i3)
        assert classify_regime(scaled) is classify_regime(m)
