"""Command-line interface.

Exit codes: 0 success, 1 invalid input or usage, 2 oracle disagreement
or numerical failure, 3 failed verification checks.  All output is
deterministic; rerunning a command byte-reproduces it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional

from .cutprofile import sample_profile
from .diameter import _GAP_BUDGET, diameter_report
from .errors import NormalizationError
from .geodesic import conservation_drift, endpoint_state, initial_momentum
from .model import BergerMetric
from .serialize import fmt17, json_text
from .verify import run_checks

__all__ = ["build_parser", "main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    # usage problems land in the same exit code as semantic validation
    def error(self, message: str) -> "None":
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bergersphere",
        description=(
            "Exact diameters, cut times, and geodesics for left-invariant "
            "Berger metrics on SU(2)."
        ),
    )
    parser.add_argument("--i1", type=float, required=True, metavar="I1",
                        help="metric eigenvalue of the two equatorial directions")
    parser.add_argument("--i3", type=float, required=True, metavar="I3",
                        help="metric eigenvalue of the axis direction")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_diam = sub.add_parser("diameter", help="closed-form diameter with numeric cross-check")
    p_diam.add_argument("-o", "--output", help="write JSON here instead of stdout")

    p_prof = sub.add_parser("profile", help="tabulate the cut-time profile over pbar3")
    p_prof.add_argument("-n", type=int, default=201, help="number of grid rows (default 201)")
    p_prof.add_argument("--format", choices=("csv", "json"), default="json")
    p_prof.add_argument("-o", "--output", help="write the table here instead of stdout")

    p_exp = sub.add_parser("exp", help="integrate one geodesic and print its endpoint")
    p_exp.add_argument("--pbar3", type=float, required=True,
                       help="axis fraction of the initial momentum, in [-1, 1]")
    p_exp.add_argument("--phi", type=float, default=0.0,
                       help="equatorial angle of the initial momentum (default 0)")
    p_exp.add_argument("--t", type=float, required=True, help="integration time, >= 0")
    p_exp.add_argument("--step", type=float, default=None,
                       help="integrator step (default t/2000, at most t/1000); a run fails "
                            "(exit 2) where an error estimate passes 1e-6, n = t/step: where "
                            "p turns by more than about (72e-6/n)^(1/6) rad a step, 0.057 rad "
                            "at 2000 steps ((144e-6/(n*(1 - pbar3^2)))^(1/6) where the energy "
                            "is mostly axial), or q by more than 2*(120e-6/n)^(1/5) rad a "
                            "step, 0.072 rad at 2000 steps")
    p_exp.add_argument("-o", "--output", help="write JSON here instead of stdout")

    p_ver = sub.add_parser("verify", help="run the named self-check suite")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # the one parser main uses, built on its first call; parse_args keeps no
    # state in it from one call to the next
    return build_parser()


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output).write_text(text, encoding="utf-8")
        except OSError as exc:  # an unwritable path is invalid input: exit 1
            raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from None


def _cmd_diameter(metric: BergerMetric, args: argparse.Namespace) -> int:
    report = diameter_report(metric)
    _emit(report.to_json(), args.output)
    if report.abs_gap > _GAP_BUDGET * report.closed_form:
        print(
            f"error: numeric maximization disagrees with the closed form "
            f"(gap {fmt17(report.abs_gap)})",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_profile(metric: BergerMetric, args: argparse.Namespace) -> int:
    profile = sample_profile(metric, args.n)
    if args.format == "csv":
        _emit(profile.to_csv(), args.output)
    else:
        _emit(profile.to_json(), args.output)
    return 0


def _cmd_exp(metric: BergerMetric, args: argparse.Namespace) -> int:
    step = args.t / 2000.0 if args.step is None else args.step
    p0 = initial_momentum(metric, args.pbar3, args.phi)
    state = endpoint_state(metric, p0, args.t, step)
    payload = {
        "i1": metric.i1,
        "i3": metric.i3,
        "pbar3": args.pbar3,
        "phi": args.phi,
        "t": args.t,
        "step": step,
        "endpoint": {"w": state.q.w, "x": state.q.x, "y": state.q.y, "z": state.q.z},
        "drift": conservation_drift(metric, p0, state.p),
    }
    _emit(json_text(payload), args.output)
    return 0


def _cmd_verify(metric: BergerMetric, args: argparse.Namespace) -> int:
    results = run_checks(metric, args.level)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    if passed != len(results):
        failing = ", ".join(r.name for r in results if not r.passed)
        print(f"error: failing checks: {failing}", file=sys.stderr)
        return 3
    return 0


def main(argv: "Optional[list[str]]" = None) -> int:
    args = _parser().parse_args(argv)
    try:
        metric = BergerMetric(args.i1, args.i3)
        if args.command == "diameter":
            return _cmd_diameter(metric, args)
        if args.command == "profile":
            return _cmd_profile(metric, args)
        if args.command == "exp":
            return _cmd_exp(metric, args)
        return _cmd_verify(metric, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NormalizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
