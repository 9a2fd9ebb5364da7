"""Cut time as a function of the axis fraction of the momentum.

The cut time of the geodesic with axis fraction ``pbar3`` is

    t_cut(pbar3) = 2*i1*tau_cut(pbar3) / |p|
                 = 2*sqrt(i1) * tau_cut(pbar3) * sqrt(1 + eta*pbar3^2)

where ``tau_cut = pi`` for ``eta <= 0`` and ``tau_cut = tau3`` for
``eta > 0``.  Sampling ``t_cut`` over a grid of axis fractions gives the
cut profile whose maximum is the diameter of the metric.

For ``eta > 0`` the derivative of ``t_cut`` in ``pbar3`` is available in
closed form.  It vanishes at ``pbar3 = 0`` (an even minimum) and, when
``eta > 1``, at the interior maximum ``pbar3 = 1/eta``; for
``0 < eta <= 1`` the profile increases all the way to ``pbar3 = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .model import BergerMetric, _integer, _pbar3, _real, momentum_norm
# tau3_derivative is not called here; perfbench/tracing.py wraps it under this name
from .roots import _tau3_slope, tau3, tau3_derivative, tau_conj  # noqa: F401
from .serialize import fmt17, json_text

__all__ = [
    "tau_cut",
    "t_cut",
    "t_cut_derivative",
    "ProfileRow",
    "CutProfile",
    "sample_profile",
    "CSV_HEADER",
]

CSV_HEADER = "pbar3,tau3,tau_conj,t_cut,dt_cut"


def tau_cut(eta: float, pbar3: float) -> float:
    """Reparametrized cut time: pi for ``eta <= 0``, ``tau3`` for ``eta > 0``."""
    eta = _real("eta", eta, finite=True)
    if eta <= -1.0:
        raise DomainError(f"eta must be greater than -1, got {eta!r}")
    if eta <= 0.0:
        _pbar3(pbar3)  # validate even though the value is constant
        return math.pi
    return tau3(eta, pbar3)


def t_cut(m: BergerMetric, pbar3: float) -> float:
    """Cut time ``2*i1*tau_cut/|p|`` of the geodesic with axis fraction ``pbar3``."""
    return 2.0 * m.i1 * tau_cut(m.eta(), pbar3) / momentum_norm(m, pbar3)


def t_cut_derivative(m: BergerMetric, pbar3: float) -> float:
    """Closed-form derivative of ``t_cut`` in ``pbar3``, for ``eta > 0``.

    Differentiating ``2*sqrt(i1)*tau3*sqrt(1 + eta*pbar3^2)`` gives

        2*sqrt(i1) * (tau3'*sqrt(1 + eta*pbar3^2)
                      + tau3*eta*pbar3/sqrt(1 + eta*pbar3^2)).

    Odd in ``pbar3`` and undefined at ``pbar3 = 0``, like ``tau3'``.
    For ``eta > 1`` it is positive on (0, 1/eta) and negative on
    (1/eta, 1]; for ``0 < eta <= 1`` it is positive on (0, 1).
    """
    eta = m.eta()
    if eta <= 0.0:
        raise DomainError(f"t_cut_derivative requires eta > 0, got eta={eta!r}")
    pbar3 = _pbar3(pbar3)
    if pbar3 == 0.0:
        raise DomainError("t_cut_derivative is undefined at pbar3 = 0")
    return _dt_cut(m, eta, pbar3, tau3(eta, pbar3))


def _dt_cut(m: BergerMetric, eta: float, pbar3: float, t3: float) -> float:
    # t_cut_derivative at the root t3 = tau3(eta, pbar3) already solved
    root = math.sqrt(1.0 + eta * pbar3 * pbar3)
    return 2.0 * math.sqrt(m.i1) * (_tau3_slope(eta, pbar3, t3) * root + t3 * eta * pbar3 / root)


@dataclass(frozen=True)
class ProfileRow:
    """One sampled axis fraction.  Root columns are None when undefined."""

    pbar3: float
    tau3: Optional[float]
    tau_conj: Optional[float]
    t_cut: float
    dt_cut: Optional[float]


@dataclass(frozen=True)
class CutProfile:
    """Sampled cut profile of one metric over [-1, 1].

    Rows are strictly increasing in ``pbar3`` and cover both endpoints.
    Every cut time is positive and at most ``2*pi*sqrt(i1)``, the value
    of the flat round profile with the same ``i1``.
    """

    metric: BergerMetric
    rows: tuple

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) < 2:
            raise ValueError("a profile needs at least two rows")
        if rows[0].pbar3 != -1.0 or rows[-1].pbar3 != 1.0:
            raise ValueError("profile rows must cover [-1, 1]")
        upper = 2.0 * math.pi * math.sqrt(self.metric.i1) * (1.0 + 1e-12)
        prev = None
        for row in rows:
            if prev is not None and not row.pbar3 > prev:
                raise ValueError("profile rows must be strictly increasing in pbar3")
            prev = row.pbar3
            if not 0.0 < row.t_cut <= upper:
                raise ValueError(f"cut time {row.t_cut!r} outside (0, 2*pi*sqrt(i1)]")

    def to_csv(self) -> str:
        """CSV text with header ``pbar3,tau3,tau_conj,t_cut,dt_cut``."""
        def cell(v: Optional[float]) -> str:
            return "" if v is None else fmt17(v)
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(
                (fmt17(r.pbar3), cell(r.tau3), cell(r.tau_conj), fmt17(r.t_cut), cell(r.dt_cut))
            ))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON text with the metric header and one object per row."""
        payload = {
            "metric": {"i1": self.metric.i1, "i3": self.metric.i3, "eta": self.metric.eta()},
            "rows": [
                {
                    "pbar3": r.pbar3,
                    "tau3": r.tau3,
                    "tau_conj": r.tau_conj,
                    "t_cut": r.t_cut,
                    "dt_cut": r.dt_cut,
                }
                for r in self.rows
            ],
        }
        return json_text(payload)


def sample_profile(m: BergerMetric, n: int = 201) -> CutProfile:
    """Sample the cut profile on ``n`` equispaced axis fractions in [-1, 1].

    For ``eta > 0`` every row carries ``tau3`` and ``tau_conj`` (at
    ``pbar3 = 0`` the cut column holds its defining limit value) and the
    derivative column everywhere except ``pbar3 = 0``.  For ``eta <= 0``
    the cut time is the elementary branch and the root columns are empty.
    The grid is generated as ``(2k - (n-1))/(n-1)`` so that the endpoints
    and, for odd ``n``, the midpoint 0 are exact, and so that it is exactly
    antisymmetric: row ``n-1-k`` holds ``-pbar3`` of row ``k``.

    Only the rows with ``pbar3 >= 0`` are solved; each negative row
    mirrors its positive twin.  ``tau3``, ``tau_conj`` and ``t_cut`` are
    even and copied, ``dt_cut`` is odd and negated.  Each is even or odd
    term by term in floating point, so the mirrored floats are the ones
    solving the row would give.
    """
    n = _integer("n", n, 3)
    eta = m.eta()
    half = []  # the rows with pbar3 >= 0, in increasing order
    for k in range(n // 2, n):
        pbar3 = (2 * k - (n - 1)) / (n - 1)
        if eta > 0.0:
            t3 = tau3(eta, pbar3)  # the row's one root solve
            row = ProfileRow(
                pbar3=pbar3,
                tau3=t3,
                tau_conj=tau_conj(eta, pbar3),
                t_cut=2.0 * m.i1 * t3 / momentum_norm(m, pbar3),
                dt_cut=None if pbar3 == 0.0 else _dt_cut(m, eta, pbar3, t3),
            )
        else:
            row = ProfileRow(pbar3=pbar3, tau3=None, tau_conj=None,
                             t_cut=t_cut(m, pbar3), dt_cut=None)
        half.append(row)
    mirrored = [
        ProfileRow(pbar3=-r.pbar3, tau3=r.tau3, tau_conj=r.tau_conj, t_cut=r.t_cut,
                   dt_cut=None if r.dt_cut is None else -r.dt_cut)
        for r in reversed(half) if r.pbar3 > 0.0
    ]
    return CutProfile(metric=m, rows=tuple(mirrored + half))
