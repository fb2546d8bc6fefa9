from __future__ import annotations

import numpy as np
import pytest

from effectprob.cli import main, parse_summary_line, summary_machine_line
from effectprob.draws import validate
from effectprob.io import write_dataset, write_draws
from effectprob.regress import Dataset, simulate_experiment
from effectprob.summary import PosteriorSummary


def run(*argv: str, capsys) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith("summary ")]


class TestSimulate:
    def test_figure1_preset_shape(self, tmp_path, capsys):
        out = tmp_path / "draws.csv"
        code, _, _ = run("simulate", "--preset", "figure1", "--seed", "1", "--out", str(out), capsys=capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "chain,iter,theta"
        assert len(lines) == 10_001

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--preset", "figure1", "--seed", "5", "--out", str(a), capsys=capsys)[0] == 0
        assert run("simulate", "--preset", "figure1", "--seed", "5", "--out", str(b), capsys=capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dataset_mode_row_count(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code, _, _ = run("simulate", "--n", "996", "--seed", "2", "--out", str(out), capsys=capsys)
        assert code == 0
        assert len(out.read_text().splitlines()) == 997

    def test_dataset_mode_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--n", "50", "--seed", "3", "--out", str(a), capsys=capsys)
        run("simulate", "--n", "50", "--seed", "3", "--out", str(b), capsys=capsys)
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def _dataset(self, tmp_path) -> str:
        data = simulate_experiment(60, 5.0, 1.0, 2.0, seed=8)
        path = tmp_path / "data.csv"
        write_dataset(data, path)
        return str(path)

    def test_fit_writes_draws_and_prints_summary(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        out = tmp_path / "draws.csv"
        code, stdout, _ = run(
            "fit", data, "--chains", "2", "--iters", "400", "--warmup", "100",
            "--seed", "4", "--out", str(out), capsys=capsys,
        )
        assert code == 0
        assert out.exists()
        assert "N = 60" in stdout
        assert "beta1" in stdout
        assert "rhat=" in stdout
        parsed = dict(parse_summary_line(line) for line in machine_lines(stdout))
        assert set(parsed) == {"beta0", "beta1", "sigma"}

    def test_fit_deterministic_bytes(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["fit", data, "--chains", "2", "--iters", "300", "--warmup", "50", "--seed", "4"]
        run(*argv, "--out", str(a), capsys=capsys)
        run(*argv, "--out", str(b), capsys=capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_zero_chains(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        code, _, stderr = run(
            "fit", data, "--chains", "0", "--out", str(tmp_path / "x.csv"), capsys=capsys
        )
        assert code == 2
        assert "error: InvalidArgument" in stderr

    def test_overflowing_outcome_exits_2(self, tmp_path, capsys):
        # Squared deviations of 1e200-scale outcomes overflow a double.
        data = simulate_experiment(1000, 0.0, 0.0, 1.0, seed=7)
        path = tmp_path / "huge.csv"
        write_dataset(Dataset(data.outcome * 1e200, data.treatment), path)
        code, stdout, stderr = run("fit", str(path), "--out", str(tmp_path / "x.csv"), capsys=capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: NonFiniteData: ")
        assert "Traceback" not in stderr

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, stderr = run(
            "fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.csv"), capsys=capsys
        )
        assert code == 2
        assert "error:" in stderr


class TestSummarize:
    def test_machine_line_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "draws.csv"
        write_draws(validate({"theta": rng.normal(1.0, 1.0, size=(1, 10_000))}), path)
        code, stdout, _ = run("summarize", str(path), capsys=capsys)
        assert code == 0
        name, summary = parse_summary_line(machine_lines(stdout)[0])
        assert name == "theta"
        assert summary.mean == pytest.approx(1.0, abs=0.04)
        assert summary.ci_low == pytest.approx(-0.96, abs=0.08)
        assert summary.ci_high == pytest.approx(2.96, abs=0.08)
        assert summary.p_greater_zero == pytest.approx(0.8413, abs=0.011)
        assert summary.p_less_zero == pytest.approx(0.1587, abs=0.011)

    def test_unknown_param_exits_2(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        write_draws(validate({"a": [[1.0, 2.0, 3.0, 4.0]]}), path)
        code, _, stderr = run("summarize", str(path), "--param", "beta9", capsys=capsys)
        assert code == 2
        assert "error: UnknownParameter" in stderr

    def test_bad_level_exits_2(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        write_draws(validate({"a": [[1.0, 2.0, 3.0, 4.0]]}), path)
        code, _, stderr = run("summarize", str(path), "--level", "1.5", capsys=capsys)
        assert code == 2
        assert "error: InvalidLevel" in stderr

    def test_param_required_when_ambiguous(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        write_draws(validate({"a": [[1.0, 2.0]], "b": [[3.0, 4.0]]}), path)
        code, _, stderr = run("summarize", str(path), capsys=capsys)
        assert code == 2
        assert "--param is required" in stderr


class TestPlots:
    def _draws(self, tmp_path) -> str:
        rng = np.random.default_rng(2)
        path = tmp_path / "draws.csv"
        write_draws(validate({"theta": rng.normal(0.5, 1.0, size=(1, 2_000))}), path)
        return str(path)

    def test_ccdf_writes_svg_and_prints_tail_probabilities(self, tmp_path, capsys):
        draws = self._draws(tmp_path)
        out = tmp_path / "c.svg"
        code, stdout, _ = run("ccdf", draws, "--out", str(out), capsys=capsys)
        assert code == 0
        assert out.read_text().startswith("<?xml")
        assert "P(theta>0) = " in stdout
        assert "P(theta<0) = " in stdout
        above = float(stdout.splitlines()[0].split(" = ")[1])
        below = float(stdout.splitlines()[1].split(" = ")[1])
        assert above + below == pytest.approx(1.0, abs=1e-12)

    def test_ccdf_rejects_one_point(self, tmp_path, capsys):
        code, _, stderr = run(
            "ccdf", self._draws(tmp_path), "--points", "1",
            "--out", str(tmp_path / "c.svg"), capsys=capsys,
        )
        assert code == 2
        assert "error: InvalidArgument" in stderr

    def test_density_writes_svg(self, tmp_path, capsys):
        out = tmp_path / "d.svg"
        code, _, _ = run("density", self._draws(tmp_path), "--out", str(out), capsys=capsys)
        assert code == 0
        assert "<polyline" in out.read_text()


class TestDiagnose:
    def test_healthy_chains_exit_0(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "draws.csv"
        write_draws(validate({"a": rng.standard_normal((4, 500))}), path)
        code, stdout, _ = run("diagnose", str(path), capsys=capsys)
        assert code == 0
        assert "rhat=" in stdout and "ess=" in stdout

    def test_shifted_chains_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        chains = rng.standard_normal((2, 500))
        chains[1] += 5.0
        path = tmp_path / "draws.csv"
        write_draws(validate({"a": chains}), path)
        code, _, stderr = run("diagnose", str(path), capsys=capsys)
        assert code == 1
        assert "warning" in stderr

    def test_single_chain_still_reports(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = tmp_path / "draws.csv"
        write_draws(validate({"a": rng.standard_normal((1, 500))}), path)
        code, stdout, _ = run("diagnose", str(path), capsys=capsys)
        assert code == 0
        assert "rhat=" in stdout


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_machine_line_format_stable(self):
        s = PosteriorSummary(
            mean=0.125, ci_low=-1.5, ci_high=2.25, level=0.95,
            p_greater_zero=0.75, p_less_zero=0.25,
        )
        name, back = parse_summary_line(summary_machine_line("x", s))
        assert name == "x"
        assert back == s


class TestEndToEnd:
    def test_pipeline_byte_reproducible(self, tmp_path, capsys):
        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            data = base / "data.csv"
            draws = base / "draws.csv"
            svg = base / "curve.svg"
            run("simulate", "--n", "40", "--beta0", "1.0", "--beta1", "0.5",
                "--sd", "1.0", "--seed", "7", "--out", str(data), capsys=capsys)
            run("fit", str(data), "--chains", "2", "--iters", "300", "--warmup", "50",
                "--seed", "7", "--out", str(draws), capsys=capsys)
            code, stdout, _ = run("summarize", str(draws), "--param", "beta1", capsys=capsys)
            assert code == 0
            run("ccdf", str(draws), "--param", "beta1", "--out", str(svg), capsys=capsys)
            outputs.append(
                (data.read_bytes(), draws.read_bytes(), svg.read_bytes(), machine_lines(stdout))
            )
        assert outputs[0] == outputs[1]
