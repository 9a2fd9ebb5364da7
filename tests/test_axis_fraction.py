"""Every public function that takes an axis fraction ``pbar3`` checks it alike."""

import math

import numpy as np
import pytest

from bergersphere import (
    BergerMetric,
    conjugate_time_numeric,
    initial_momentum,
    momentum_norm,
    t_cut,
    t_cut_derivative,
    tau3,
    tau3_derivative,
    tau_conj,
    tau_cut,
)
from bergersphere.errors import DomainError

PROLATE = BergerMetric(2.0, 1.0)  # eta = 1

# each call leaves the axis fraction as its one free argument
TAKES_PBAR3 = {
    "tau3": lambda pb: tau3(1.0, pb),
    "tau_conj": lambda pb: tau_conj(1.0, pb),
    "tau3_derivative": lambda pb: tau3_derivative(1.0, pb),
    "tau_cut[eta>0]": lambda pb: tau_cut(1.0, pb),
    "tau_cut[eta<=0]": lambda pb: tau_cut(-0.5, pb),
    "t_cut": lambda pb: t_cut(PROLATE, pb),
    "t_cut_derivative": lambda pb: t_cut_derivative(PROLATE, pb),
    "momentum_norm": lambda pb: momentum_norm(PROLATE, pb),
    "initial_momentum": lambda pb: initial_momentum(PROLATE, pb, 0.3),
    "conjugate_time_numeric": lambda pb: conjugate_time_numeric(PROLATE, pb, 9.0),
}
ROOTS = ("tau3", "tau_conj", "tau_cut[eta>0]", "tau_cut[eta<=0]")


@pytest.mark.parametrize("bad", [1.5, math.nan, True, -1.0000001, 2.0])
@pytest.mark.parametrize("name", sorted(TAKES_PBAR3))
def test_rejects_bad_axis_fraction(name, bad):
    with pytest.raises(DomainError, match="pbar3"):
        TAKES_PBAR3[name](bad)


@pytest.mark.parametrize("name", sorted(TAKES_PBAR3))
def test_accepts_numpy_float(name):
    assert TAKES_PBAR3[name](np.float32(0.5)) == TAKES_PBAR3[name](0.5)


@pytest.mark.parametrize("pb", [-1.0, 0.0, 0.5, np.float32(0.5), 1.0, -0.5])
@pytest.mark.parametrize("name", ROOTS)
def test_roots_are_plain_floats(name, pb):
    assert type(TAKES_PBAR3[name](pb)) is float
