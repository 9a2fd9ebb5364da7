"""Axisymmetric left-invariant metrics on SU(2) and momentum bookkeeping.

A metric here is a left-invariant Riemannian metric on SU(2) whose
eigenvalues in a fixed orthonormal frame of the Lie algebra are
``(i1, i1, i3)``: the two equatorial directions share the eigenvalue
``i1`` and the axis direction carries ``i3``.  These are the Berger
spheres.  The shape parameter

    eta = i1/i3 - 1

measures the deviation from the bi-invariant round case ``eta = 0``;
metrics with ``eta < 0`` are dominated by the round behaviour, while
``eta > 0`` stretches the axis relative to the equator.

Geodesics from the identity are parametrized by an initial momentum
covector ``p`` normalized to unit speed, i.e. to Hamiltonian level

    H(p) = (p1^2/i1 + p2^2/i1 + p3^2/i3) / 2 = 1/2.

Because the two equatorial eigenvalues coincide, every cut and conjugate
quantity depends on ``p`` only through the axis fraction
``pbar3 = p3/|p|``, and on that level set the Euclidean norm of the
momentum is ``|p| = sqrt(i1/(1 + eta*pbar3^2))``.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "BergerMetric",
    "Momentum",
    "Regime",
    "momentum_norm",
    "classify_regime",
]


def _real(name: str, v: object, *, positive: bool = False) -> float:
    """``v`` as a finite float, checked to be a real number other than a bool.

    Accepts Python and numpy integers and floats.  Raises DomainError
    naming ``name`` when ``v`` is not real or not finite, or not positive
    where that is asked for.
    """
    # Fast paths: the numbers.Real check costs about 4x a type check, so
    # floats skip it and float subclasses (np.float64) stop at ``float``.
    if type(v) is not float:
        if isinstance(v, bool) or not isinstance(v, (float, numbers.Real)):
            raise DomainError(f"{name} must be a real number, got {v!r}")
        try:
            v = float(v)
        except OverflowError:
            raise DomainError(f"{name} is too large for a float, got {v!r}") from None
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v!r}")
    if positive and not v > 0.0:
        raise DomainError(f"{name} must be positive, got {v!r}")
    return v


def _pbar3(v: object) -> float:
    """``v`` as an axis fraction: a real number in [-1, 1]."""
    v = _real("pbar3", v)
    if not abs(v) <= 1.0:
        raise DomainError(f"pbar3 must lie in [-1, 1], got {v!r}")
    return v


def _integer(name: str, v: object, minimum: int) -> int:
    """``v`` as an int: a Python or numpy integer, not a bool, >= ``minimum``."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return int(v)


class Regime(enum.Enum):
    """Diameter regime of a metric, split by the ratio i1/i3."""

    ROUND_DOMINATED = "ROUND_DOMINATED"  # i1 <= i3
    MIDDLE = "MIDDLE"                    # i3 < i1 <= 2*i3
    PROLATE = "PROLATE"                  # 2*i3 < i1


@dataclass(frozen=True)
class BergerMetric:
    """Metric eigenvalues ``(i1, i1, i3)``; both must be finite and positive."""

    i1: float
    i3: float

    def __post_init__(self) -> None:
        for name in ("i1", "i3"):
            v = _real(name, getattr(self, name), positive=True)
            object.__setattr__(self, name, v)

    def eta(self) -> float:
        """Shape parameter ``i1/i3 - 1``, finite and greater than -1.

        Raises DomainError when double precision cannot hold it: when
        ``i1/i3`` overflows, or lies at or below ``2**-54`` so that
        ``i1/i3 - 1`` rounds to -1.
        """
        eta = self.i1 / self.i3 - 1.0
        if not -1.0 < eta < math.inf:
            raise DomainError(
                f"eta = i1/i3 - 1 needs 2**-54 < i1/i3 <= {sys.float_info.max!r} "
                f"in double precision, got i1={self.i1!r}, i3={self.i3!r}"
            )
        return eta


@dataclass(frozen=True)
class Momentum:
    """Momentum covector ``(p1, p2, p3)`` in the frame of the metric."""

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))

    def norm(self) -> float:
        """Euclidean norm ``sqrt(p1^2 + p2^2 + p3^2)``, without overflow or underflow."""
        return math.hypot(self.p1, self.p2, self.p3)

    def reduced(self) -> float:
        """Axis fraction ``pbar3 = p3/|p|``, in [-1, 1].  Undefined for the zero covector.

        The components are first scaled by the power of two that puts the
        largest in [2**1019, 2**1020), so the norm is neither subnormal nor
        infinite.  ``hypot`` scales by the largest component internally, so
        wherever ``norm()`` is finite and normal the result has the bits of
        ``p3/norm()``.
        """
        big = max(abs(self.p1), abs(self.p2), abs(self.p3))
        k = math.frexp(big)[1] - 1020
        p1, p2, p3 = (math.ldexp(v, -k) for v in (self.p1, self.p2, self.p3))
        n = math.hypot(p1, p2, p3)
        if n == 0.0:
            raise DomainError("the zero momentum has no axis fraction")
        # roundoff can push the quotient a few ulp past 1
        return _pbar3(min(1.0, max(-1.0, p3 / n)))


def momentum_norm(m: BergerMetric, pbar3: float) -> float:
    """Norm ``|p| = sqrt(i1/(1 + eta*pbar3^2))`` on the unit-speed level set.

    The denominator is bounded below by ``min(1, i1/i3) > 0``, so the
    expression is well defined for every admissible metric and axis
    fraction.  It is formed as ``sqrt(i1)/sqrt(1 + eta*pbar3^2)``: the
    quotient ``i1/(1 + eta*pbar3^2)`` can fall below the least normal
    float and lose its digits.  The denominator is taken as
    ``sqrt((1 - pbar3^2) + (i1/i3)*pbar3^2)``, as ``1 + eta*pbar3^2``
    cancels for ``i1 << i3``; ``eta`` is still checked, for the limit it
    names.
    """
    pbar3 = _pbar3(pbar3)
    m.eta()
    return math.sqrt(m.i1) / _shape(m.i1 / m.i3, pbar3)


def _shape(ratio: float, s: float, cs: float | None = None) -> float:
    # sqrt(1 + eta*s^2) for ratio = i1/i3, as sqrt((1 - s^2) + ratio*s^2): the sum of
    # two non-negative terms, which does not cancel for i1 << i3 as 1 + eta*s^2 does.
    # cs, where given, is sqrt(1 - s^2) formed without cancelling as s -> 1.
    c2 = (1.0 - s) * (1.0 + s) if cs is None else cs * cs
    return math.sqrt(c2 + ratio * s * s)


def classify_regime(m: BergerMetric) -> Regime:
    """Diameter regime of ``m``; boundaries belong to the slower-growing branch.

    ``i1 == i3`` classifies as ROUND_DOMINATED and ``i1 == 2*i3`` as
    MIDDLE, which matches the continuity of the closed-form diameter
    across both boundaries.
    """
    if m.i1 <= m.i3:
        return Regime.ROUND_DOMINATED
    if m.i1 <= 2.0 * m.i3:
        return Regime.MIDDLE
    return Regime.PROLATE
