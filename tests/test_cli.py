import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergersphere
from bergersphere.cli import build_parser, main
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

    def test_out_of_range_axis_fraction_exits_one(self, capsys):
        code, _, err = run(capsys, ["--i1", "1", "--i3", "1", "exp",
                                    "--pbar3", "2", "--t", "1"])
        assert code == 1
        assert "error" in err


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


class TestExtremeScales:
    def test_huge_i1_diameter(self, capsys):
        code, out, err = run(capsys, ["--i1", "1e308", "--i3", "1", "diameter"])
        assert code == 0, err
        assert '"closed_form": 3.141592653589793e+154' in out

    def test_huge_i1_profile(self, capsys):
        code, _, err = run(capsys, ["--i1", "1e308", "--i3", "1", "profile",
                                    "-n", "5", "--format", "csv"])
        assert code == 0, err

    def test_subnormal_diameter(self, capsys):
        code, _, err = run(capsys, ["--i1", "5e-324", "--i3", "5e-324", "diameter"])
        assert code == 0, err


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
