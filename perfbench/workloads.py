"""The three workloads: their seeded inputs, one timed operation, its checks.

A workload makes one round of operations from a seed.  The benchmark
repeats the round, so every run attempts whole rounds of the same
operations.  Draws are stratified: each of the ``k`` values of a
parameter in a round comes from its own ``1/k`` slice of the range, in a
seeded order, so two seeds give rounds of nearly the same cost.

``run`` is the timed call into the package.  ``check`` returns a list of
problems (empty when the output is right); it compares against values
computed in ``reference`` or against properties the mathematics requires,
never against stored output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bergersphere import cli, diameter, geodesic
from bergersphere.model import BergerMetric, Momentum

from . import reference as R

ROOT_TOL = 1e-11       # scaled residual of the cut and conjugate equations
REL_TOL = 1e-12        # quantities recomputed from columns or closed forms
NUMERIC_TOL = 1e-8     # numerical maximization against the closed form
MAXIMIZER_TOL = 1e-5   # axis fraction of the maximum
CONJ_TOL = 1e-3        # numerical conjugate time against the bisection
HIT_TOL = 1e-6         # endpoint of a shorter path against the target
RK4_TOL = 1e-8         # reference integrator against the exact flow
CONSERVED_TOL = 1e-10  # energy, momentum norm and axis momentum along RK4
SHOOT_MARGIN = 1e-4    # a shorter path must arrive earlier by more than this


def _strata(rng, k: int, lo: float, hi: float, log: bool = False) -> np.ndarray:
    """``k`` draws in [lo, hi], one from each of ``k`` equal slices, shuffled."""
    u = (np.arange(k) + rng.random(k)) / k
    rng.shuffle(u)
    return lo * (hi / lo) ** u if log else lo + (hi - lo) * u


# --------------------------------------------------------------------------
# diameter-sweep

@dataclass(frozen=True)
class DiameterOp:
    i1: float
    i3: float


class DiameterSweep:
    """``diameter_report(BergerMetric(i1, i3))`` on seeded metrics.

    A round holds 10 metrics with ``i1/i3`` log-uniform in [1e-3, 1] (no
    root solve, about a tenth of the cost), 28 with ``i1/i3`` log-uniform
    in [1, 1e3], scales log-uniform in [0.1, 10], and two fixed metrics
    with ``i1/i3`` of 5e3 and 1e5.  The fixed two fail today:
    ``roots._tau3_value`` bisects a cell that starts at ``tau = 0`` once
    ``eta*pbar3`` passes about 2e3, and ``Tau(0.0)`` raises ValueError.
    """

    FAILING = (DiameterOp(5.0e3, 1.0), DiameterOp(2.0e4, 0.2))

    def __init__(self, workdir: Path) -> None:
        pass

    @classmethod
    def make(cls, seed: int) -> list:
        rng = np.random.default_rng(seed)
        ratios = np.concatenate((_strata(rng, 10, 1e-3, 1.0, log=True),
                                 _strata(rng, 28, 1.0, 1e3, log=True)))
        scales = _strata(rng, 38, 0.1, 10.0, log=True)
        ops = [DiameterOp(float(r * s), float(s)) for r, s in zip(ratios, scales)]
        ops = [ops[k] for k in rng.permutation(len(ops))]
        return ops[:19] + [cls.FAILING[0]] + ops[19:] + [cls.FAILING[1]]

    def run(self, op: DiameterOp):
        return diameter.diameter_report(BergerMetric(op.i1, op.i3))

    def check(self, op: DiameterOp, report) -> list:
        return check_diameter(op.i1, op.i3, report)


def check_diameter(i1: float, i3: float, report) -> list:
    problems = []
    d, x = R.diameter(i1, i3)
    if (report.metric.i1, report.metric.i3) != (i1, i3):
        problems.append(f"report is for {report.metric}, not ({i1}, {i3})")
    if report.regime.value != R.regime(i1, i3):
        problems.append(f"regime {report.regime.value}, expected {R.regime(i1, i3)}")
    if not abs(report.closed_form - d) <= REL_TOL * d:
        problems.append(f"closed form {report.closed_form!r}, expected {d!r}")
    if not abs(report.numeric - d) <= NUMERIC_TOL * d:
        problems.append(f"numeric {report.numeric!r} off the closed form {d!r}")
    lo, hi = math.pi * math.sqrt(i1), R.TWO_PI * math.sqrt(i1)
    for label, v in (("closed form", report.closed_form), ("numeric", report.numeric)):
        if not lo * (1.0 - REL_TOL) <= v <= hi * (1.0 + REL_TOL):
            problems.append(f"{label} {v!r} outside [pi*sqrt(i1), 2*pi*sqrt(i1)]")
    if not abs(report.maximizer_pbar3 - x) <= MAXIMIZER_TOL:
        problems.append(f"maximizer {report.maximizer_pbar3!r}, expected {x!r}")
    if report.abs_gap != abs(report.closed_form - report.numeric):
        problems.append(f"abs_gap {report.abs_gap!r} is not |closed - numeric|")
    return problems


# --------------------------------------------------------------------------
# profile-cli

@dataclass(frozen=True)
class ProfileOp:
    slot: int
    i1: float
    i3: float
    n: int
    fmt: str


class ProfileCli:
    """In-process ``bergersphere ... profile -n N --format F -o FILE``.

    A round holds 6 metrics with ``i1/i3`` log-uniform in [1e-3, 1]
    (serialization-bound) and 14 with ``i1/i3`` log-uniform in [1, 1e3]
    (root-bound), scales log-uniform in [0.1, 10], ``N`` in [1001, 1201],
    and CSV and JSON in turn.  Every run makes at least two rounds; each
    output after the first must repeat the first one's bytes.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.digests: dict = {}

    @classmethod
    def make(cls, seed: int) -> list:
        rng = np.random.default_rng(seed)
        ratios = np.concatenate((_strata(rng, 6, 1e-3, 1.0, log=True),
                                 _strata(rng, 14, 1.0, 1e3, log=True)))
        ns = np.concatenate((_strata(rng, 6, 1001, 1202), _strata(rng, 14, 1001, 1202)))
        scales = _strata(rng, 20, 0.1, 10.0, log=True)
        order = rng.permutation(20)
        return [
            ProfileOp(slot, float(ratios[k] * scales[k]), float(scales[k]), int(ns[k]),
                      ("csv", "json")[slot % 2])
            for slot, k in enumerate(order)
        ]

    def _argv(self, op: ProfileOp, path: Path) -> list:
        return ["--i1", repr(op.i1), "--i3", repr(op.i3), "profile", "-n", str(op.n),
                "--format", op.fmt, "-o", str(path)]

    def run(self, op: ProfileOp) -> Path:
        path = self.workdir / f"profile{op.slot}.{op.fmt}"
        code = cli.main(self._argv(op, path))
        if code != 0:
            raise RuntimeError(f"bergersphere profile exited with {code}")
        return path

    def check(self, op: ProfileOp, path: Path) -> list:
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if self.digests.setdefault(op.slot, digest) != digest:
            problems.append("output bytes differ between two runs of the same command")
        try:
            cols = parse_profile(data.decode("ascii"), op.fmt, op.i1, op.i3)
        except ValueError as exc:
            return problems + [f"unreadable {op.fmt} output: {exc}"]
        return problems + check_profile(op.i1, op.i3, op.n, cols)


COLUMNS = ("pbar3", "tau3", "tau_conj", "t_cut", "dt_cut")


def _cell(v) -> float:
    if v is None or v == "":
        return math.nan
    return float(v)


def parse_profile(text: str, fmt: str, i1: float, i3: float) -> dict:
    """Columns of a CSV or JSON profile as float arrays, empty cells as nan."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != COLUMNS:
            raise ValueError(f"header {rows[:1]!r}")
        body = rows[1:]
        if any(len(r) != len(COLUMNS) for r in body):
            raise ValueError("a row does not have five cells")
        return {c: np.array([_cell(r[j]) for r in body]) for j, c in enumerate(COLUMNS)}
    doc = json.loads(text)
    if (doc["metric"]["i1"], doc["metric"]["i3"]) != (i1, i3):
        raise ValueError(f"metric {doc['metric']!r}")
    return {c: np.array([_cell(r[c]) for r in doc["rows"]]) for c in COLUMNS}


def _first_root_problems(eta: float, s: np.ndarray, t3: np.ndarray) -> list:
    # the cut function is positive on (0, tau3) when tau3 is its first root;
    # sample each row at least eight times per half-period of sin(eta*s*tau)
    problems = []
    for a in range(0, len(s), 256):
        ss, tt = s[a:a + 256, None], t3[a:a + 256, None]
        m = min(8192, 64 + int(math.ceil(8.0 * float(np.max(eta * ss * tt)) / math.pi)))
        u = np.arange(1, m) / m
        vals = R.cut_function(eta, ss, tt * u)
        bad = np.flatnonzero(~np.all(vals > 0.0, axis=1))
        if bad.size:
            k = a + int(bad[0])
            problems.append(f"cut function changes sign before tau3={t3[k]!r} at pbar3={s[k]!r}")
    return problems


def check_profile(i1: float, i3: float, n: int, cols: dict) -> list:
    problems = []
    pbar3, t3, tc, tcut, dt = (cols[c] for c in COLUMNS)
    grid = np.array([(2 * k - (n - 1)) / (n - 1) for k in range(n)])
    if len(pbar3) != n or not np.array_equal(pbar3, grid):
        return [f"pbar3 column is not the {n}-point grid on [-1, 1]"]
    eta = i1 / i3 - 1.0
    s = np.abs(pbar3)
    d, _ = R.diameter(i1, i3)

    def rel_gap(a, b):
        return float(np.max(np.abs(a - b) / np.abs(b)))

    if not np.all(np.isfinite(tcut)):
        return ["t_cut is missing or not finite"]
    if not np.max(tcut) <= d * (1.0 + REL_TOL):
        problems.append(f"largest cut time {np.max(tcut)!r} exceeds the diameter {d!r}")
    if not rel_gap(tcut, tcut[::-1]) <= REL_TOL:
        problems.append("t_cut is not even in pbar3")
    if eta <= 0.0:
        if not (np.all(np.isnan(t3)) and np.all(np.isnan(tc)) and np.all(np.isnan(dt))):
            problems.append("root columns are filled for eta <= 0")
        if not rel_gap(tcut, R.cut_time(i1, i3, math.pi, pbar3)) <= REL_TOL:
            problems.append("t_cut differs from 2*pi*sqrt(i1)*sqrt(1 + eta*pbar3^2)")
        return problems

    zero = s == 0.0
    if not (np.all(np.isfinite(t3)) and np.all(np.isfinite(tc))):
        return problems + ["tau3 or tau_conj is missing or not finite"]
    if not np.array_equal(np.isnan(dt), zero):
        return problems + ["dt_cut is not empty exactly at pbar3 = 0"]
    if not rel_gap(tcut, R.cut_time(i1, i3, t3, pbar3)) <= REL_TOL:
        problems.append("t_cut differs from 2*sqrt(i1)*tau3*sqrt(1 + eta*pbar3^2)")

    # tau3: a root of the cut equation and the first one.  The cut function's
    # slope is at most 2*(1 + eta*|pbar3|), so dividing by 1 + eta*|pbar3|
    # makes the residual bound the root error the same way at every eta.
    nz = ~zero
    res = np.abs(R.cut_function(eta, s[nz], t3[nz])) / (1.0 + eta * s[nz])
    if res.size and not np.max(res) < ROOT_TOL:
        k = int(np.argmax(res))
        problems.append(f"cut residual {res[k]!r} at pbar3={s[nz][k]!r}")
    problems += _first_root_problems(eta, s[nz], t3[nz])

    # tau_conj: a root of sin + c*tau*cos in (pi/2, pi], after tau3
    c = R.conjugate_coefficient(eta, s)
    res = np.abs(R.conjugate_function(eta, s, tc)) / (1.0 + c)
    if not np.max(res) < ROOT_TOL:
        problems.append(f"conjugate residual {np.max(res)!r}")
    if not (np.all(tc > 0.5 * math.pi) and np.all(tc <= math.pi)):
        problems.append("tau_conj outside (pi/2, pi]")
    if not np.all(t3[nz] < tc[nz]):
        problems.append("tau3 is not below tau_conj")
    if np.any(zero) and not rel_gap(t3[zero], tc[zero]) <= REL_TOL:
        problems.append("tau3 at pbar3 = 0 is not its limit tau_conj(eta, 0)")

    # dt_cut: odd; for eta > 1 rising up to pbar3 = 1/eta and falling after,
    # for eta <= 1 rising on (0, 1); its sign is left open next to a zero
    expected = np.where(s * eta < 1.0, 1.0, -1.0) * np.sign(pbar3)
    settled = nz & (np.abs(s * eta - 1.0) > 1e-6) & (s < 1.0 if eta <= 1.0 else True)
    if not np.all(np.sign(dt[settled]) == expected[settled]):
        problems.append("dt_cut has the wrong sign pattern")
    return problems


# --------------------------------------------------------------------------
# geodesic-oracles

@dataclass(frozen=True)
class GeodesicOp:
    metric: BergerMetric
    pbar3: float
    p0: Momentum
    t_cut: float
    horizon: float


class GeodesicOracles:
    """Conjugate time, two shorter-path searches and one RK4 endpoint.

    A round holds 40 draws: ``eta`` log-uniform in [0.2, 1e3], ``pbar3``
    uniform in [0, 1] (in [0.25, 1] when ``eta > 10``), ``phi`` uniform in
    [0, 2*pi), and scales log-uniform in [0.5, 2].  The cut time each
    operation needs is solved here, before timing, with the benchmark's own
    root finder.

    ``pbar3`` stays above 0.25 for ``eta > 10`` because there
    ``shorter_path_search`` misses the shorter path past the cut time for
    some equatorial angles when ``eta*pbar3`` is about 1 to 10 (23 of 468
    probes with ``eta >= 20``); an operation that fails on some seeds only
    cannot be counted the same way in every run.
    """

    def __init__(self, workdir: Path) -> None:
        pass

    @classmethod
    def make(cls, seed: int) -> list:
        rng = np.random.default_rng(seed)
        k = 40
        etas = _strata(rng, k, 0.2, 1e3, log=True)
        pbar3s = _strata(rng, k, 0.0, 1.0)
        phis = rng.uniform(0.0, 2.0 * math.pi, k)
        scales = _strata(rng, k, 0.5, 2.0, log=True)
        ops = []
        for eta, u, phi, scale in zip(etas, pbar3s, phis, scales):
            eta, phi, i3 = float(eta), float(phi), float(scale)
            s = float(u) if eta <= 10.0 else 0.25 + 0.75 * float(u)
            i1 = (1.0 + eta) * i3
            norm = R.momentum_norm(i1, i3, s)
            eq = norm * math.sqrt(1.0 - s * s)
            ops.append(GeodesicOp(
                metric=BergerMetric(i1, i3),
                pbar3=s,
                p0=Momentum(eq * math.cos(phi), eq * math.sin(phi), norm * s),
                t_cut=float(R.cut_time(i1, i3, R.tau3(eta, s), s)),
                horizon=1.02 * 2.0 * i1 * math.pi / norm,
            ))
        return ops

    def run(self, op: GeodesicOp):
        m, tc = op.metric, op.t_cut
        return (
            geodesic.conjugate_time_numeric(m, op.pbar3, op.horizon),
            geodesic.shorter_path_search(m, op.p0, 0.9 * tc),
            geodesic.shorter_path_search(m, op.p0, 1.1 * tc),
            geodesic.endpoint_state(m, op.p0, tc, tc / 2000.0),
        )

    def check(self, op: GeodesicOp, out) -> list:
        return check_geodesic(op, *out)


def _vec(p) -> np.ndarray:
    return np.array([p.p1, p.p2, p.p3])


def _quat(q) -> np.ndarray:
    return np.array([q.w, q.x, q.y, q.z])


def check_geodesic(op: GeodesicOp, t_conj, early, late, state) -> list:
    problems = []
    i1, i3, s = op.metric.i1, op.metric.i3, op.pbar3
    eta = i1 / i3 - 1.0
    norm = R.momentum_norm(i1, i3, s)
    p0 = _vec(op.p0)

    expected = 2.0 * i1 * R.tau_conj(eta, s) / norm
    if not abs(t_conj - expected) <= CONJ_TOL * expected:
        problems.append(f"conjugate time {t_conj!r}, bisection gives {expected!r}")

    if early is not None:
        problems.append(f"shorter path before the cut time: {early}")
    target = 1.1 * op.t_cut
    if late is None:
        problems.append("no shorter path past the cut time")
    else:
        if not late.arrival_time < target - SHOOT_MARGIN:
            problems.append(f"arrival {late.arrival_time!r} not before {target - SHOOT_MARGIN!r}")
        p = _vec(late.momentum)
        if not abs(R.hamiltonian(i1, i3, p) - 0.5) <= CONSERVED_TOL:
            problems.append("shorter path momentum is not unit speed")
        gap = R.quaternion_distance(R.flow(i1, i3, p, late.arrival_time)[0],
                                    R.flow(i1, i3, p0, target)[0])
        if not gap <= HIT_TOL:
            problems.append(f"shorter path misses the target by {gap!r}")

    q, p = R.flow(i1, i3, p0, op.t_cut)
    pe = _vec(state.p)
    if state.t != op.t_cut:
        problems.append(f"endpoint state at t={state.t!r}, not {op.t_cut!r}")
    if not R.quaternion_distance(_quat(state.q), q) <= RK4_TOL:
        problems.append("RK4 endpoint differs from the exact flow")
    if not float(np.max(np.abs(pe - p))) <= RK4_TOL * norm:
        problems.append("RK4 momentum differs from the exact flow")
    if not (abs(R.hamiltonian(i1, i3, pe) - 0.5) <= CONSERVED_TOL
            and abs(float(np.linalg.norm(pe)) - norm) <= CONSERVED_TOL * norm
            and abs(pe[2] - p0[2]) <= CONSERVED_TOL * norm):
        problems.append("RK4 breaks a conserved quantity")
    return problems


WORKLOADS = {
    "diameter-sweep": DiameterSweep,
    "profile-cli": ProfileCli,
    "geodesic-oracles": GeodesicOracles,
}
