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
from functools import cached_property
from itertools import repeat
from operator import lt
from typing import Callable, Optional

from .errors import DomainError
# not called here; perfbench/tracing.py wraps momentum_norm, tau3, tau_conj, tau3_derivative, json_text
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
    eta = _real("eta", eta)
    if eta <= -1.0:
        raise DomainError(f"eta must be greater than -1, got {eta!r}")
    pbar3 = _pbar3(pbar3)
    return _tau3_value(eta, abs(pbar3)) if eta > 0.0 else math.pi


def _arc_length(m: BergerMetric, pbar3: float, tau: float) -> float:
    # 2*i1*tau/|p| as sqrt(i1) times a shape factor, which stays normal at every scale
    return 2.0 * math.sqrt(m.i1) * (tau * _shape(m.i1 / m.i3, pbar3))


def t_cut(m: BergerMetric, pbar3: float) -> float:
    """Cut time ``2*sqrt(i1)*tau_cut*sqrt(1 + eta*pbar3^2)`` at axis fraction ``pbar3``."""
    eta, pbar3 = m.eta(), _pbar3(pbar3)
    return _arc_length(m, pbar3, _tau3_value(eta, abs(pbar3)) if eta > 0.0 else math.pi)


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
    d = _dt_cut(m, eta, pbar3, _tau3_value(eta, abs(pbar3)))
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


@dataclass(frozen=True)
class CutProfile:
    """Sampled cut profile of one metric over [-1, 1], stored as its solved half.

    ``half`` holds the rows with ``pbar3 >= 0`` as tuples ``(pbar3, tau3,
    tau_conj, t_cut, dt_cut)``, strictly increasing in ``pbar3`` and ending
    at 1.  Every cell is a finite float except the root cells that are
    undefined, which are None: all of them for ``eta <= 0``, and ``dt_cut``
    at ``pbar3 = 0``.  Every cut time is positive and at most
    ``2*pi*sqrt(i1)``, the value of the flat round profile with the same
    ``i1``.  The profile is even: the row with ``-pbar3`` mirrors each row
    with ``pbar3 > 0``, with the same ``tau3``, ``tau_conj`` and ``t_cut``
    and ``dt_cut`` negated.  ``rows`` is the whole grid, and the writers
    render each half row once and its mirror from that text.
    """

    metric: BergerMetric
    half: tuple

    def __post_init__(self) -> None:
        half = tuple(map(tuple, self.half))
        object.__setattr__(self, "half", half)
        if set(map(len, half)) != {len(_CELLS)}:
            raise DomainError(f"a profile needs rows, each of the cells {CSV_HEADER}")
        pbar3, tau3, tau_conj, t_cut, dt_cut = zip(*half)
        zero = int(pbar3[0] == 0.0)  # the row at 0 has no derivative and no mirror
        if self.metric.eta() > 0.0:
            cells, absent = tau3 + tau_conj + dt_cut[zero:], dt_cut[:zero]
        else:
            cells, absent = (), tau3 + tau_conj + dt_cut
        if absent.count(None) != len(absent):
            raise DomainError("root cells must be None where undefined: "
                              "all for eta <= 0, and dt_cut at pbar3 = 0")
        cells += pbar3 + t_cut
        if not (all(map(isinstance, cells, repeat(float))) and all(map(math.isfinite, cells))):
            bad = next(v for v in cells if not isinstance(v, float) or not math.isfinite(v))
            raise DomainError(f"profile cell {bad!r} is not a finite float")
        if not (0.0 <= pbar3[0] and pbar3[-1] == 1.0 and all(map(lt, pbar3, pbar3[1:]))):
            raise DomainError("the half grid must increase strictly from pbar3 >= 0 to 1")
        upper = 2.0 * math.pi * math.sqrt(self.metric.i1) * (1.0 + 1e-12)
        if not (0.0 < min(t_cut) and max(t_cut) <= upper):
            bad = next(t for t in t_cut if not 0.0 < t <= upper)
            raise DomainError(f"cut time {bad!r} outside (0, 2*pi*sqrt(i1)]")

    @cached_property
    def rows(self) -> tuple:
        """The whole grid over [-1, 1] as ``ProfileRow``s: the mirrored rows, then the half."""
        half = self.half
        mirrored = [ProfileRow(-p, t3, tc, t, None if d is None else -d)
                    for p, t3, tc, t, d in reversed(half[int(half[0][0] == 0.0):])]
        return tuple(mirrored) + tuple(ProfileRow(*r) for r in half)

    def _table(self, row: str, absent: str, sep: str) -> str:
        # The rows joined by sep.  Each half row is written once through a
        # %-template made from row's {} slots; '%.17g' % x is fmt17(x) for every
        # finite float, and __post_init__ has refused the rest.  Its mirror is that
        # text with the signs of its first cell, pbar3 > 0, and its last, dt_cut,
        # flipped: '%.17g' % -x is '-' + '%.17g' % x for x >= +0.0, and the other
        # way round for x <= -0.0.
        lead, *_, last, _ = row.format(*"\0" * len(_CELLS)).split("\0")
        half = self.half
        zero = int(half[0][0] == 0.0)
        if self.metric.eta() > 0.0:
            template = row.format(*["%.17g"] * 5)
            texts = [template % r for r in half[zero:]]
            mirrored = []
            for s in reversed(texts):
                i = s.rindex(last) + len(last)  # where dt_cut's text starts
                mirrored.append(lead + "-" + s[len(lead):i] + (s[i + 1:] if s[i] == "-" else "-" + s[i:]))
            if zero:
                texts.insert(0, row.format(*["%.17g"] * 4, absent) % half[0][:4])
        else:
            template = row.format("%.17g", absent, absent, "%.17g", absent)
            texts = [template % (r[0], r[3]) for r in half]
            mirrored = [lead + "-" + s[len(lead):] for s in reversed(texts[zero:])]
        return sep.join(mirrored + texts)

    def to_csv(self) -> str:
        """CSV text with header ``pbar3,tau3,tau_conj,t_cut,dt_cut``, absent cells empty.

        Cells are written as ``fmt17`` writes them, one line per row of ``rows``.
        """
        return CSV_HEADER + "\n" + self._table("{},{},{},{},{}", "", "\n") + "\n"

    def to_json(self) -> str:
        """JSON text with the metric header and one object per row.

        The bytes of ``json_text`` on the dict of the metric and the list of
        the dicts of ``rows``.
        """
        m = self.metric
        head = '{\n  "metric": {\n    "i1": %s,\n    "i3": %s,\n    "eta": %s\n  },\n  "rows": [\n'
        return (head % (fmt17(m.i1), fmt17(m.i3), fmt17(m.eta()))
                + self._table(_JSON_ROW, "null", ",\n") + "\n  ]\n}\n")


def sample_profile(m: BergerMetric, n: int = 201) -> CutProfile:
    """Sample the cut profile on ``n`` equispaced axis fractions in [-1, 1].

    For ``eta > 0`` every row carries ``tau3`` and ``tau_conj`` (at
    ``pbar3 = 0`` the cut column holds the limit ``tau_conj(eta, 0)``) and the
    derivative column everywhere except ``pbar3 = 0``.  For ``eta <= 0``
    the cut time is the elementary branch and the root columns are empty.
    The grid is generated as ``(2k - (n-1))/(n-1)`` so that the endpoints
    and, for odd ``n``, the midpoint 0 are exact, and so that it is exactly
    antisymmetric: row ``n-1-k`` holds ``-pbar3`` of row ``k``.

    Only the rows with ``pbar3 >= 0`` are solved, in increasing order, each
    root warm-started from the rows before, and the profile stores just
    that half: ``tau3``, ``tau_conj`` and ``t_cut`` are even in ``pbar3``
    and ``dt_cut`` is odd, so ``rows`` and the writers mirror it.  The roots
    are those of ``tau3`` and ``tau_conj`` to a few ulp, and the other cells
    are computed from them.
    """
    n = _integer("n", n, 3)
    eta, tau3_at, tau_conj_at = _warm_roots(m)
    half = []
    for k in range(n // 2, n):
        pbar3 = (2 * k - (n - 1)) / (n - 1)
        tau = tau3_at(pbar3)  # the row's one tau3 solve; pi for eta <= 0
        if eta > 0.0:
            half.append((pbar3, tau, tau_conj_at(pbar3), _arc_length(m, pbar3, tau),
                         _dt_cut(m, eta, pbar3, tau) if pbar3 != 0.0 else None))
        else:
            half.append((pbar3, None, None, _arc_length(m, pbar3, tau), None))
    return CutProfile(metric=m, half=half)
