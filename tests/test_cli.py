import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergersphere
from bergersphere import cli
from bergersphere.cli import build_parser, main
from bergersphere.geodesic import _flow, initial_momentum
from bergersphere.model import BergerMetric
from bergersphere.verify import CheckResult


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDiameterCommand:
    def test_prolate_json(self, capsys):
        code, out, err = run(capsys, ["--i1", "3", "--i3", "1", "diameter"])
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "PROLATE"
        assert payload["closed_form"] == pytest.approx(3.0 * math.pi / math.sqrt(2.0))
        assert payload["abs_gap"] <= 1e-6 * payload["closed_form"]

    def test_round_value(self, capsys):
        code, out, _ = run(capsys, ["--i1", "1", "--i3", "1", "diameter"])
        assert code == 0
        assert json.loads(out)["closed_form"] == pytest.approx(2.0 * math.pi)

    def test_invalid_eigenvalue_exits_one(self, capsys):
        code, out, err = run(capsys, ["--i1", "0", "--i3", "1", "diameter"])
        assert code == 1
        assert "error" in err

    def test_strongly_prolate_metric(self, capsys):
        code, out, err = run(capsys, ["--i1", "1e4", "--i3", "1", "diameter"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["closed_form"] == pytest.approx(math.pi * 1e4 / math.sqrt(9999.0))
        assert payload["abs_gap"] <= 1e-8 * payload["closed_form"]

    def test_overflowing_ratio_exits_one_and_names_it(self, capsys):
        code, out, err = run(capsys, ["--i1", "1e300", "--i3", "1e-300", "diameter"])
        assert code == 1
        assert out == ""
        assert "i1/i3" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ["--i1", "2.7", "--i3", "1.1", "diameter"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, ["--i1", "1", "--i3", "1", "diameter", "-o", str(path)])
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["regime"] == "ROUND_DOMINATED"

    def test_gap_beyond_budget_exits_two(self, capsys, monkeypatch):
        import bergersphere.cli as cli_module
        real = cli_module.diameter_report

        def skewed(metric):
            report = real(metric)
            return type(report)(metric=report.metric, regime=report.regime,
                                closed_form=report.closed_form,
                                numeric=report.closed_form * 1.01,
                                maximizer_pbar3=report.maximizer_pbar3,
                                abs_gap=report.closed_form * 0.01)

        monkeypatch.setattr(cli_module, "diameter_report", skewed)
        code, out, err = run(capsys, ["--i1", "1", "--i3", "1", "diameter"])
        assert code == 2
        assert "disagrees" in err

    def test_one_gap_budget_for_diameter_and_verify(self, capsys, monkeypatch):
        # a relative gap of 1e-7 is above the one budget, 1e-8: the diameter command
        # and verify's diameter-oracle-agreement check both reject it
        import bergersphere.diameter as diameter_module
        real = diameter_module.diameter_numeric

        def skewed(m):
            value, maximizer = real(m)
            return value * (1.0 - 1e-7), maximizer

        monkeypatch.setattr(diameter_module, "diameter_numeric", skewed)
        code, out, err = run(capsys, ["--i1", "3", "--i3", "1", "diameter"])
        assert code == 2
        payload = json.loads(out)
        assert payload["abs_gap"] == pytest.approx(1e-7 * payload["closed_form"], rel=1e-6)
        code, out, err = run(capsys, ["--i1", "3", "--i3", "1", "verify"])
        assert code == 3
        assert "FAIL  diameter-oracle-agreement" in out
        assert err == "error: failing checks: diameter-oracle-agreement\n"


class TestProfileCommand:
    def test_csv_shape_and_maximum(self, capsys):
        code, out, _ = run(capsys, ["--i1", "3", "--i3", "1", "profile",
                                    "-n", "201", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "pbar3,tau3,tau_conj,t_cut,dt_cut"
        assert len(lines) == 202
        rows = [line.split(",") for line in lines[1:]]
        best = max(rows, key=lambda r: float(r[3]))
        assert abs(float(best[0])) == pytest.approx(0.5, abs=0.01)

    def test_oblate_tau_columns_empty(self, capsys):
        code, out, _ = run(capsys, ["--i1", "1", "--i3", "2", "profile",
                                    "-n", "5", "--format", "csv"])
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[1] == "" and cells[2] == "" and cells[4] == ""

    def test_round_profile_constant(self, capsys):
        code, out, _ = run(capsys, ["--i1", "1", "--i3", "1", "profile", "-n", "3"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["t_cut"] for r in rows] == pytest.approx([2.0 * math.pi] * 3)

    def test_bad_row_count_exits_one(self, capsys):
        code, _, err = run(capsys, ["--i1", "1", "--i3", "1", "profile", "-n", "1"])
        assert code == 1
        assert "error" in err


class TestExpCommand:
    def test_round_antipode(self, capsys):
        code, out, _ = run(capsys, ["--i1", "1", "--i3", "1", "exp", "--pbar3", "1",
                                    "--phi", "0", "--t", "6.283185307"])
        assert code == 0
        payload = json.loads(out)
        assert payload["endpoint"]["w"] == pytest.approx(-1.0, abs=1e-6)
        assert payload["drift"]["hamiltonian_rel"] < 1e-9

    def test_zero_time_identity(self, capsys):
        code, out, _ = run(capsys, ["--i1", "2", "--i3", "1", "exp",
                                    "--pbar3", "0.3", "--t", "0"])
        assert code == 0
        assert json.loads(out)["endpoint"] == {"w": 1.0, "x": 0.0, "y": 0.0, "z": 0.0}

    def test_zero_time_keeps_its_bytes(self, capsys):
        code, out, _ = run(capsys, ["--i1", "2", "--i3", "1", "exp", "--pbar3", "0.5", "--t", "0"])
        assert code == 0
        assert out == ('{\n  "i1": 2,\n  "i3": 1,\n  "pbar3": 0.5,\n  "phi": 0,\n  "t": 0,\n'
                       '  "step": 0,\n  "endpoint": {\n    "w": 1,\n    "x": 0,\n    "y": 0,\n'
                       '    "z": 0\n  },\n  "drift": {\n    "hamiltonian_rel": 2.2204460492503131e-16,\n'
                       '    "momentum_norm_rel": 0,\n    "axis_momentum_rel": 0\n  }\n}\n')

    @pytest.mark.parametrize("step", ["-1", "nan"])
    def test_invalid_step_at_zero_time_exits_one(self, capsys, step):
        # no step is taken at t = 0, but the step is still checked
        code, out, err = run(capsys, ["--i1", "2", "--i3", "1", "exp",
                                      "--pbar3", "0.5", "--t", "0", "--step", step])
        assert code == 1
        assert out == ""
        assert "error: step must be" in err

    def test_out_of_range_axis_fraction_exits_one(self, capsys):
        code, _, err = run(capsys, ["--i1", "1", "--i3", "1", "exp",
                                    "--pbar3", "2", "--t", "1"])
        assert code == 1
        assert "error" in err

    def test_step_above_the_bound_exits_one(self, capsys):
        # the step is not capped: one larger than t/1000 is invalid input
        code, _, err = run(capsys, ["--i1", "2", "--i3", "1", "exp",
                                    "--pbar3", "0.5", "--t", "2", "--step", "0.01"])
        assert code == 1
        assert "t/1000" in err

    def test_diverged_integration_exits_two(self, capsys):
        # the integrator diverges to NaN: a numerical failure, not invalid input
        code, _, err = run(capsys, ["--i1", "3", "--i3", "1", "exp",
                                    "--pbar3", "0.5", "--t", "1e5"])
        assert code == 2
        assert "quaternion" not in err

    def test_diverged_integration_names_the_rotation_per_step(self, capsys):
        # p turns about e3 at about 990 rad per unit time, in 2000 steps of 0.5
        code, _, err = run(capsys, ["--i1", "1e-6", "--i3", "1", "exp",
                                    "--pbar3", "0.99999999", "--t", "1"])
        assert code == 2
        assert "the fastest rotation 495 rad per step" in err

    def test_near_axis_momentum_of_an_oblate_metric(self, capsys):
        # the momentum is on the unit-speed level, and 2000 steps resolve its turn
        code, out, _ = run(capsys, ["--i1", "1e-12", "--i3", "1", "exp",
                                    "--pbar3", "0.999999999", "--t", "1e-9"])
        assert code == 0
        assert json.loads(out)["drift"]["hamiltonian_rel"] < 1e-9

    def test_turn_under_the_drift_cap_follows_the_exact_flow(self, capsys):
        # p turns by 0.05 rad a step, under the drift check's cap of 0.057 rad at 2000 steps:
        # the run passes, with its endpoint within 1e-9 of the exact flow
        code, out, err = run(capsys, ["--i1", "1e-12", "--i3", "1", "exp",
                                      "--pbar3", "0.999999999", "--t", "4.5e-9"])
        assert code == 0, err
        e = json.loads(out)["endpoint"]
        m = BergerMetric(1e-12, 1.0)
        p = initial_momentum(m, 0.999999999, 0.0)
        q = _flow(m, (p.p1, p.p2, p.p3), 4.5e-9)[:4]
        assert max(abs(a - b) for a, b in zip(q, (e["w"], e["x"], e["y"], e["z"]))) <= 1e-9


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["--i1", "3", "--i3", "1", "verify", "--level", "quick"])
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(line.startswith("PASS") for line in lines) >= 8
        assert lines[-1].endswith("checks passed")

    def test_oblate_quick_suite_passes(self, capsys):
        code, _, _ = run(capsys, ["--i1", "1", "--i3", "2", "verify"])
        assert code == 0

    def test_failure_exits_three_and_names_check(self, capsys, monkeypatch):
        import bergersphere.cli as cli_module

        def rigged(metric, level):
            return [CheckResult("always-green", True, "ok"),
                    CheckResult("rigged-red", False, "forced failure")]

        monkeypatch.setattr(cli_module, "run_checks", rigged)
        code, out, err = run(capsys, ["--i1", "1", "--i3", "1", "verify"])
        assert code == 3
        assert "FAIL" in out
        assert "rigged-red" in err


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", [
        ["profile", "-n", "3"],
        ["profile", "-n", "3", "--format", "csv"],
        ["diameter"],
        ["exp", "--pbar3", "0.5", "--t", "1"],
    ])
    def test_missing_directory_exits_one(self, capsys, tmp_path, command):
        path = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, ["--i1", "2", "--i3", "1", *command, "-o", str(path)])
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith(f"error: cannot write {path}: ")
        assert not path.exists()


class TestExtremeScales:
    def test_huge_i1_diameter(self, capsys):
        code, out, err = run(capsys, ["--i1", "1e308", "--i3", "1", "diameter"])
        assert code == 0, err
        assert '"closed_form": 3.141592653589793e+154' in out

    def test_huge_i1_profile(self, capsys):
        code, _, err = run(capsys, ["--i1", "1e308", "--i3", "1", "profile",
                                    "-n", "5", "--format", "csv"])
        assert code == 0, err

    def test_huge_eta_quick_verify(self, capsys):
        code, out, err = run(capsys, ["--i1", "1e150", "--i3", "1", "verify"])
        assert code == 0, out + err

    def test_subnormal_diameter(self, capsys):
        code, _, err = run(capsys, ["--i1", "5e-324", "--i3", "5e-324", "diameter"])
        assert code == 0, err

    @pytest.mark.parametrize("i1,i3", [("1e200", "1e199"), ("1.7e308", "1e308"),
                                       ("1.7e308", "1"), ("1e-150", "1e-151"),
                                       ("1e-300", "1e-301"), ("1e-310", "1e-311"),
                                       ("2e-323", "1e-323"), ("5e-324", "5e-324")])
    def test_full_verify_passes_at_extreme_scales(self, capsys, i1, i3):
        # the geodesic oracles and the integrator work in units of sqrt(i1), and
        # the sandwich's margin is relative, so every check passes where lengths
        # and momenta are near the float maximum or subnormal
        code, out, err = run(capsys, ["--i1", i1, "--i3", i3, "verify", "--level", "full"])
        assert code == 0, out + err

    def test_full_verify_with_two_conjugate_zeros_in_one_grid_cell(self, capsys):
        # near the round metric tau_conj and tau = pi fall in one cell of the
        # conjugate scan; the oracle must report the first of the two zeros
        code, out, err = run(capsys, ["--i1", "1.0016710069985971", "--i3", "1",
                                      "verify", "--level", "full"])
        assert code == 0, out + err


class TestParsing:
    def test_missing_metric_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["diameter"])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--i1", "1", "--i3", "1", "squash"])
        assert exc.value.code == 1

    def test_parser_help_lists_subcommands(self):
        text = build_parser().format_help()
        for name in ("diameter", "profile", "exp", "verify"):
            assert name in text

    def test_one_parser_serves_every_call(self, capsys, tmp_path):
        # main keeps one parser; a run of commands through it, a usage error
        # among them, writes what each command writes through a new parser
        metric = ["--i1", "2", "--i3", "1"]
        csv = ["profile", "-n", "21", "--format", "csv", "-o", str(tmp_path / "p.csv")]
        sequence = [csv, ["profile", "-n", "21", "--format", "xml"], ["profile", "-n", "21"],
                    ["diameter"], ["exp", "--pbar3", "0.5", "--t", "2"], ["verify"], csv]

        def outputs(argv):
            try:
                code = main(metric + argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            return code, out, (tmp_path / "p.csv").read_text() if argv is csv else None

        want = []
        for argv in sequence:
            cli._parser.cache_clear()
            want.append(outputs(argv))
        cli._parser.cache_clear()
        got = [outputs(argv) for argv in sequence]
        assert cli._parser.cache_info().misses == 1
        assert got == want
        assert [code for code, _, _ in got] == [0, 1, 0, 0, 0, 0, 0]
        # the default format is JSON after a CSV call, and to stdout after an -o
        assert json.loads(got[2][1])["metric"] == {"i1": 2.0, "i3": 1.0, "eta": 1.0}
        assert got[0][2].startswith("pbar3,")

    def test_build_parser_is_a_fresh_factory(self):
        assert build_parser() is not build_parser()
        assert build_parser() is not cli._parser()


# A child interpreter in which every import of numpy raises ImportError.
_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import bergersphere
from bergersphere import cli
for argv in (["diameter"], ["profile", "-n", "5"], ["exp", "--pbar3", "0.5", "--t", "2"],
             ["verify", "--level", "full"]):
    code = cli.main(["--i1", "2", "--i3", "1", *argv])
    if code != 0:
        sys.exit(f"{argv} exited {code}")
"""


def test_runs_without_numpy():
    src = str(Path(bergersphere.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
