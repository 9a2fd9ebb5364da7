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
from operator import attrgetter
from typing import Callable, Optional

from .errors import DomainError
# not called here; perfbench/tracing.py wraps momentum_norm, tau_conj, tau3_derivative, json_text
from .model import BergerMetric, _integer, _pbar3, _real, _shape, momentum_norm  # noqa: F401
from .roots import _slopes, _tau3_value, _tau_conj_value, tau3, tau3_derivative, tau_conj  # noqa: F401
from .serialize import fmt17, json_text  # noqa: F401

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

_CELLS = tuple(CSV_HEADER.split(","))
_JSON_ROW = "    {{\n" + ",\n".join(f'      "{c}": {{}}' for c in _CELLS) + "\n    }}"


def tau_cut(eta: float, pbar3: float) -> float:
    """Reparametrized cut time: pi for ``eta <= 0``, ``tau3`` for ``eta > 0``."""
    eta = _real("eta", eta, finite=True)
    if eta <= -1.0:
        raise DomainError(f"eta must be greater than -1, got {eta!r}")
    if eta <= 0.0:
        _pbar3(pbar3)  # validate even though the value is constant
        return math.pi
    return tau3(eta, pbar3)


def _arc_length(m: BergerMetric, pbar3: float, tau: float) -> float:
    # 2*i1*tau/|p| as sqrt(i1) times a shape factor, which stays normal at every scale
    return 2.0 * math.sqrt(m.i1) * (tau * _shape(m.i1 / m.i3, pbar3))


def t_cut(m: BergerMetric, pbar3: float) -> float:
    """Cut time ``2*sqrt(i1)*tau_cut*sqrt(1 + eta*pbar3^2)`` at axis fraction ``pbar3``."""
    eta, pbar3 = m.eta(), _pbar3(pbar3)
    return _arc_length(m, pbar3, tau_cut(eta, pbar3))


def t_cut_derivative(m: BergerMetric, pbar3: float) -> float:
    """Closed-form derivative of ``t_cut`` in ``pbar3``, for ``eta > 0``.

    Differentiating ``2*sqrt(i1)*tau3*sqrt(1 + eta*pbar3^2)`` gives

        2*sqrt(i1) * (tau3'*sqrt(1 + eta*pbar3^2)
                      + tau3*eta*pbar3/sqrt(1 + eta*pbar3^2)).

    It is evaluated in equal forms without that sum, which cancels at huge
    ``eta``, and without cancelling as ``pbar3 -> 0`` (``tau3_derivative``).
    Odd in ``pbar3`` and undefined at ``pbar3 = 0``, like ``tau3'``.  For
    ``eta > 1`` it is positive on (0, 1/eta) and negative on (1/eta, 1];
    for ``0 < eta <= 1`` it is positive on (0, 1).  Raises ``DomainError``
    beyond the float maximum (huge ``i1`` and ``eta``, tiny ``pbar3``).
    """
    eta = m.eta()
    if eta <= 0.0:
        raise DomainError(f"t_cut_derivative requires eta > 0, got eta={eta!r}")
    pbar3 = _pbar3(pbar3)
    if pbar3 == 0.0:
        raise DomainError("t_cut_derivative is undefined at pbar3 = 0")
    d = _dt_cut(m, eta, pbar3, tau3(eta, pbar3))
    if math.isinf(d):
        raise DomainError(f"t_cut_derivative at pbar3={pbar3!r} is beyond the float maximum")
    return d


def _dt_cut(m: BergerMetric, eta: float, pbar3: float, t3: float) -> float:
    # t_cut_derivative at the root t3 = tau3(eta, pbar3) already solved; odd.  The
    # factors are ordered so that no partial product overflows or underflows.
    d = _slopes(eta, abs(pbar3), t3)[1]
    return 2.0 * (math.sqrt(m.i1) / math.sqrt(1.0 + eta * pbar3 * pbar3)) * (d if pbar3 > 0.0 else -d)


def _warm_roots(m: BergerMetric) -> tuple:
    # eta, then tau3(eta, .) and tau_conj(eta, .), unchecked, on pbar3 = x in [0, 1];
    # pi when eta <= 0.  Each solve starts at the quadratic through the three most
    # recent (x, root) pairs of its root at distinct x, in Newton's divided
    # differences; (0, tau_conj(eta, 0)) is the first pair for both, and with fewer
    # pairs the prediction is the constant or the secant.  The bracket still moves
    # only by evaluated signs, and a start that is not finite is an end or the
    # midpoint, so every root is the first one, whatever order the caller takes x
    # in; small steps only make it cheaper.
    eta = m.eta()
    if eta <= 0.0:
        return (eta,) + (lambda x: math.pi,) * 2
    tau0 = _tau_conj_value(eta, 0.0)

    def quadratic(value: Callable[..., float]) -> Callable[[float], float]:
        # the most recent pair (x2, t2), the one before at x1, and the divided
        # differences d1 through the last two pairs and d2 through the last three
        x1, x2, t2, d1, d2 = 0.0, 0.0, tau0, 0.0, 0.0

        def root(x: float) -> float:
            nonlocal x1, x2, t2, d1, d2
            tau = value(eta, x, t2 + (x - x2) * (d1 + d2 * (x - x1))) if x != 0.0 else tau0
            if x != x2:
                e1 = (tau - t2) / (x - x2)
                d2 = (e1 - d1) / (x - x1) if x1 != x2 and x != x1 else 0.0
                x1, x2, d1 = x2, x, e1
            t2 = tau
            return tau
        return root

    return eta, quadratic(_tau3_value), quadratic(_tau_conj_value)


@dataclass(frozen=True)
class ProfileRow:
    """One sampled axis fraction.  Root columns are None when undefined."""

    pbar3: float
    tau3: Optional[float]
    tau_conj: Optional[float]
    t_cut: float
    dt_cut: Optional[float]


def _mirrors(q: ProfileRow, r: ProfileRow) -> bool:
    # q holds r's even cells, the same objects, and r's pbar3 and dt_cut negated
    # and nonzero (pbar3 is, in two distinct rows of a strictly increasing profile)
    d, e = q.dt_cut, r.dt_cut
    return (q.tau3 is r.tau3 and q.tau_conj is r.tau_conj and q.t_cut is r.t_cut
            and q.pbar3 == -r.pbar3
            and (d is None and e is None or d is not None and e is not None and e != 0.0 and d == -e))


@dataclass(frozen=True)
class CutProfile:
    """Sampled cut profile of one metric over [-1, 1].

    Rows are strictly increasing in ``pbar3`` and cover both endpoints.
    Every cut time is positive and at most ``2*pi*sqrt(i1)``, the value
    of the flat round profile with the same ``i1``.  Row ``n-1-k`` mirrors
    row ``k`` when it holds the same ``tau3``, ``tau_conj`` and ``t_cut``
    objects and ``pbar3`` and ``dt_cut`` negated and nonzero (or both
    ``dt_cut`` None), as ``sample_profile`` makes it; the writers render it
    from row ``k``'s text and every other row cell by cell, to the same bytes.
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
        prev, isfinite = None, math.isfinite
        for row in rows:
            if prev is not None and not row.pbar3 > prev:
                raise ValueError("profile rows must be strictly increasing in pbar3")
            prev = row.pbar3
            if not 0.0 < row.t_cut <= upper:
                raise ValueError(f"cut time {row.t_cut!r} outside (0, 2*pi*sqrt(i1)]")
            for v in (row.tau3, row.tau_conj, row.dt_cut):
                if v is not None and not isfinite(v):
                    raise ValueError(f"profile cell {v!r} is not finite")

    def _table(self, row: str, absent: str, sep: str) -> str:
        # The rows joined by sep, each through the %-template of its shape (which
        # root cells are None) made from row's {} slots.  '%.17g' % x is fmt17(x)
        # for every finite float, and __post_init__ has refused the others.
        # Row n-1-k that mirrors row k > n-1-k is row k's text with the signs of
        # its first cell, pbar3, and its last, dt_cut, flipped: '%.17g' % -x is
        # '-' + '%.17g' % x for x > 0.
        lead, *_, last, _ = row.format(*"\0" * len(_CELLS)).split("\0")
        shapes: dict = {}

        def text(r: ProfileRow) -> str:
            key = (r.tau3 is None, r.tau_conj is None, r.dt_cut is None)
            if key not in shapes:
                present = [c for c in _CELLS if getattr(r, c) is not None]
                slots = ("%.17g" if c in present else absent for c in _CELLS)
                shapes[key] = (row.format(*slots), attrgetter(*present))
            template, cells = shapes[key]
            return template % cells(r)

        rows = self.rows
        n = len(rows)
        out = [""] * n
        for k in range(n // 2, n):
            r, q = rows[k], rows[n - 1 - k]
            out[k] = s = text(r)
            if q is r:
                continue
            if not _mirrors(q, r):
                out[n - 1 - k] = text(q)
                continue
            s = lead + "-" + s[len(lead):]
            if r.dt_cut is not None:
                i = s.rindex(last) + len(last)  # where dt_cut's text starts
                s = s[:i] + (s[i + 1:] if s[i] == "-" else "-" + s[i:])
            out[n - 1 - k] = s
        return sep.join(out)

    def to_csv(self) -> str:
        """CSV text with header ``pbar3,tau3,tau_conj,t_cut,dt_cut``, absent cells empty.

        Cells are written as ``fmt17`` writes them; non-finite ones are refused
        at construction.
        """
        return CSV_HEADER + "\n" + self._table("{},{},{},{},{}", "", "\n") + "\n"

    def to_json(self) -> str:
        """JSON text with the metric header and one object per row.

        The bytes of ``json_text`` on the dict of the metric and the list of
        row dicts; non-finite cells are refused at construction.
        """
        m = self.metric
        head = '{\n  "metric": {\n    "i1": %s,\n    "i3": %s,\n    "eta": %s\n  },\n  "rows": [\n'
        return (head % (fmt17(m.i1), fmt17(m.i3), fmt17(m.eta()))
                + self._table(_JSON_ROW, "null", ",\n") + "\n  ]\n}\n")


def sample_profile(m: BergerMetric, n: int = 201) -> CutProfile:
    """Sample the cut profile on ``n`` equispaced axis fractions in [-1, 1].

    For ``eta > 0`` every row carries ``tau3`` and ``tau_conj`` (at
    ``pbar3 = 0`` the cut column holds its defining limit value) and the
    derivative column everywhere except ``pbar3 = 0``.  For ``eta <= 0``
    the cut time is the elementary branch and the root columns are empty.
    The grid is generated as ``(2k - (n-1))/(n-1)`` so that the endpoints
    and, for odd ``n``, the midpoint 0 are exact, and so that it is exactly
    antisymmetric: row ``n-1-k`` holds ``-pbar3`` of row ``k``.

    Only the rows with ``pbar3 >= 0`` are solved, in increasing order, each
    root warm-started from the rows before; each negative row mirrors its
    positive twin: ``tau3``, ``tau_conj`` and ``t_cut`` are even and copied,
    ``dt_cut`` is odd and negated.  The roots are those of ``tau3`` and
    ``tau_conj`` to a few ulp, and the other cells are computed from them.
    """
    n = _integer("n", n, 3)
    eta, tau3_at, tau_conj_at = _warm_roots(m)
    solve = eta > 0.0  # else tau = pi and the root columns stay empty
    half = []  # the rows with pbar3 >= 0, in increasing order
    for k in range(n // 2, n):
        pbar3 = (2 * k - (n - 1)) / (n - 1)
        tau = tau3_at(pbar3)  # the row's one tau3 solve
        half.append(ProfileRow(
            pbar3=pbar3,
            tau3=tau if solve else None,
            tau_conj=tau_conj_at(pbar3) if solve else None,
            t_cut=_arc_length(m, pbar3, tau),
            dt_cut=_dt_cut(m, eta, pbar3, tau) if solve and pbar3 != 0.0 else None,
        ))
    mirrored = [
        ProfileRow(pbar3=-r.pbar3, tau3=r.tau3, tau_conj=r.tau_conj, t_cut=r.t_cut,
                   dt_cut=None if r.dt_cut is None else -r.dt_cut)
        for r in reversed(half) if r.pbar3 > 0.0
    ]
    return CutProfile(metric=m, rows=tuple(mirrored + half))
