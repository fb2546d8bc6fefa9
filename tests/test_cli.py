from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import effectprob
from effectprob import cli
from effectprob.cli import build_parser, main, parse_summary_line, summary_machine_line
from effectprob.diagnostics import ess, split_rhat
from effectprob.draws import Draws, view
from effectprob.errors import EffectProbError
from effectprob.io import read_draws, write_dataset, write_draws
from effectprob.regress import Dataset, ModelSpec, PriorSpec, simulate_experiment
from effectprob.render import render_ccdf, render_density
from effectprob.summary import PosteriorSummary, ccdf, kde

from conftest import cache_file, parameter_names


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

    def test_overflowing_outcome_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            "simulate", "--beta0", "1e308", "--beta1", "1e308", "--out", str(out), capsys=capsys
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: NonFiniteData: ")
        assert stderr.count("\n") == 1

    def test_figure1_preset_refuses_dataset_flags(self, tmp_path, capsys):
        # Unchecked, the preset ignored them and wrote its 10,000 draws.
        out = tmp_path / "draws.csv"
        code, stdout, stderr = run(
            "simulate", "--preset", "figure1", "--n", "5", "--beta1", "9", "--out", str(out),
            capsys=capsys,
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            "error: InvalidArgument: --preset figure1 takes no dataset flags, got --n, --beta1\n"
        )
        assert not out.exists()

    def test_dataset_flags_left_out_are_the_defaults(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--seed", "4", "--out", str(a), capsys=capsys)[0] == 0
        argv = ["--n", "996", "--beta0", "52", "--beta1", "-2.49", "--sd", "24"]
        assert run("simulate", *argv, "--seed", "4", "--out", str(b), capsys=capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dataset_mode_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--n", "50", "--seed", "3", "--out", str(a), capsys=capsys)
        run("simulate", "--n", "50", "--seed", "3", "--out", str(b), capsys=capsys)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1"],
        ["simulate", "--preset", "figure1", "--seed", "-1"],
        ["fit", "DATA", "--seed", "-1"],
    ],
    ids=["dataset", "figure1", "fit"],
)
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    data = tmp_path / "data.csv"
    write_dataset(simulate_experiment(60, 5.0, 1.0, 2.0, seed=8), data)
    argv = [str(data) if arg == "DATA" else arg for arg in argv]
    code, stdout, stderr = run(*argv, "--out", str(tmp_path / "out.csv"), capsys=capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == "error: InvalidArgument: seed: must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["simulate", "--n", "1000000000000000"], "MemoryError: Unable to allocate "),
        (["fit", "DATA", "--iters", "1000000000000000"], "MemoryError: Unable to allocate "),
        (["simulate", "--n", str(2**63)], "InvalidArgument: "),
        (["fit", "DATA", "--iters", "400000000000000000"], "InvalidArgument: "),
        (["fit", "DATA", "--chains", "100000000000000000000"], "InvalidArgument: "),
    ],
    ids=["simulate", "fit", "simulate-past-address-space", "fit-iters-past-address-space",
         "fit-chains-past-address-space"],
)
def test_allocation_that_cannot_be_made_exits_2(tmp_path, capsys, argv, error):
    # numpy refuses 10**15 units or iterations (petabytes) at once, with a
    # private MemoryError subclass that escaped as a traceback. Sizes past
    # the address space it refused with a ValueError ("Maximum allowed
    # dimension exceeded", "array is too big"): exit 1 and a traceback.
    data, out = tmp_path / "data.csv", tmp_path / "out.csv"
    write_dataset(simulate_experiment(60, 5.0, 1.0, 2.0, seed=8), data)
    argv = [str(data) if arg == "DATA" else arg for arg in argv]
    code, stdout, stderr = run(*argv, "--out", str(out), capsys=capsys)
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: " + error)
    assert stderr.count("\n") == 1
    assert not out.exists()


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

    def test_renamed_dataset_with_a_text_column_fits_the_same(self, tmp_path, capsys):
        # The same units under other column names, beside a text column,
        # which sends the read down the line walk instead of the typed parse.
        plain, renamed = tmp_path / "plain.csv", tmp_path / "renamed.csv"
        assert run("simulate", "--n", "60", "--seed", "8", "--out", str(plain), capsys=capsys)[0] == 0
        rows = plain.read_text().splitlines()[1:]
        renamed.write_text("id,score,arm\n" + "".join(f"unit {i},{row}\n" for i, row in enumerate(rows)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["--iters", "400", "--warmup", "100"]
        code_a, stdout_a, _ = run("fit", str(plain), *argv, "--out", str(a), capsys=capsys)
        code_b, stdout_b, _ = run(
            "fit", str(renamed), "--outcome", "score", "--treatment", "arm", *argv,
            "--out", str(b), capsys=capsys,
        )
        assert (code_a, code_b) == (0, 0)
        assert stdout_b == stdout_a
        assert b.read_bytes() == a.read_bytes()

    def test_rejects_zero_chains(self, tmp_path, capsys):
        data = self._dataset(tmp_path)
        code, _, stderr = run(
            "fit", data, "--chains", "0", "--out", str(tmp_path / "x.csv"), capsys=capsys
        )
        assert code == 2
        assert "error: InvalidArgument" in stderr

    @pytest.mark.parametrize(
        "prior",
        [
            ["--sigma-rate", "inf"],
            ["--beta0-mean", "nan"],
            ["--beta0-sd", "1e-200"],
            ["--sigma-rate", "1e160"],
            ["--sigma-rate", "1e-320"],
            # A prior mean beyond its sd's reach: (mean - estimate) / sd^2 overflows.
            ["--beta1-mean", "1.8e68", "--beta1-sd", "1e-120"],
            # Prior means whose residual sum overflows: the sampler cannot
            # hold such a posterior in doubles.
            ["--beta0-mean", "1.7976931348623157e308", "--beta0-sd", "243"],
        ],
    )
    def test_unusable_prior_exits_2_before_fitting(self, tmp_path, capsys, prior):
        # Refused before any iteration runs. Unchecked, the first loops
        # forever drawing a start sigma of 0, the next three divide by zero,
        # the next two fail only after the whole fit, and the last exited 0
        # with beta0 draws near 1e303 and R-hats above 1e15.
        data = simulate_experiment(50, 52.0, -2.49, 24.0, seed=3)
        path = tmp_path / "data.csv"
        write_dataset(data, path)
        out = tmp_path / "x.csv"
        code, stdout, stderr = run("fit", str(path), *prior, "--out", str(out), capsys=capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: InvalidArgument: ")
        assert stderr.count("\n") == 1
        assert not out.exists()

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

    def test_vanishing_spread_exits_2(self, tmp_path, capsys):
        data = simulate_experiment(1000, 0.0, 0.0, 1.0, seed=7)
        path = tmp_path / "tiny.csv"
        write_dataset(Dataset(data.outcome * 1e-156, data.treatment), path)
        code, stdout, stderr = run("fit", str(path), "--out", str(tmp_path / "x.csv"), capsys=capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: DegenerateDesign: ")
        assert stderr.count("\n") == 1

    def test_constant_arms_exit_2_before_fitting(self, tmp_path, capsys):
        # Every outcome is one value, whose control mean fsum / 6 rounds.
        path = tmp_path / "constant.csv"
        write_dataset(Dataset([3002399751580331.0] * 7, [0] * 6 + [1]), path)
        out = tmp_path / "x.csv"
        code, stdout, stderr = run("fit", str(path), "--out", str(out), capsys=capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: DegenerateDesign: ")
        assert stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("warmup", ["97", "99"])
    def test_too_few_kept_iterations_exit_2_before_fitting(self, tmp_path, capsys, warmup):
        # Checked before the data file is read, so a missing file is not
        # reported instead; unchecked, every iteration ran before exit 2.
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            "fit", str(tmp_path / "nope.csv"), "--iters", "100", "--warmup", warmup,
            "--out", str(out), capsys=capsys,
        )
        assert code == 2
        assert stdout == ""
        assert stderr == (
            "error: InvalidArgument: warmup: need warmup >= 0 and at least 4 iterations after it, "
            f"got warmup={warmup}, iterations=100\n"
        )
        assert not out.exists()

    def test_constant_parameter_prints_nan_rhat(self, tmp_path, capsys):
        # The arm means differ by exactly 1.0, and a prior of sd 1e-140 at
        # 1.0 holds every beta1 draw there: its R-hat is undefined.
        data = tmp_path / "data.csv"
        outcome, treatment = [1.0, 2.0, 3.0, 4.0, 2.5, 3.5, 4.5, 3.5], [0, 0, 0, 0, 1, 1, 1, 1]
        write_dataset(Dataset(outcome, treatment), data)
        draws = tmp_path / "draws.csv"
        code, stdout, stderr = run(
            "fit", str(data), "--iters", "400", "--warmup", "100", "--beta1-mean", "1",
            "--beta1-sd", "1e-140", "--out", str(draws), capsys=capsys,
        )
        assert (code, stderr) == (0, "")
        rows = [line for line in stdout.splitlines(keepends=True) if " rhat=" in line]
        assert len(rows) == 3 and rows[1] == "beta1    rhat=nan  ess=1.0\n"
        # diagnose on the file prints the same rows and warns of it.
        code, stdout, stderr = run("diagnose", str(draws), capsys=capsys)
        assert stdout == "".join(rows)
        assert (code, stderr) == (
            1, "warning: undefined rhat for beta1: every split half is constant\n"
        )

    def test_summaries_are_what_summarize_prints_on_the_file(self, tmp_path, capsys):
        draws = tmp_path / "draws.csv"
        code, stdout, _ = run(
            "fit", self._dataset(tmp_path), "--chains", "2", "--iters", "400", "--warmup", "100",
            "--out", str(draws), capsys=capsys,
        )
        assert code == 0
        lines = stdout.splitlines(keepends=True)
        for name in ("beta0", "beta1", "sigma"):
            rows = [
                line for line in lines
                if line.startswith((f"{name:<8s} mean ", f"summary param={name} "))
            ]
            code, summarized, _ = run("summarize", str(draws), "--param", name, capsys=capsys)
            assert code == 0 and len(rows) == 2
            assert summarized == "".join(rows)

    def test_overflowing_outcome_cell_names_its_line(self, tmp_path, capsys):
        # As a draws file names the chain and iteration of the same fault.
        data, draws = tmp_path / "data.csv", tmp_path / "draws.csv"
        data.write_text("outcome,treatment\n1.5,0\n2.5,1\n1e999,0\n3.5,1\n")
        code, stdout, stderr = run("fit", str(data), "--out", str(draws), capsys=capsys)
        assert (code, stdout) == (2, "")
        assert stderr == "error: NonFiniteData: line 4, column 'outcome': overflows to inf\n"
        assert not draws.exists()

    def test_one_column_as_outcome_and_treatment_exits_2(self, tmp_path, capsys):
        # Unchecked, the fit ran and blamed a constant outcome within each arm.
        draws = tmp_path / "draws.csv"
        code, stdout, stderr = run(
            "fit", self._dataset(tmp_path), "--outcome", "treatment", "--treatment", "treatment",
            "--out", str(draws), capsys=capsys,
        )
        assert (code, stdout) == (2, "")
        assert stderr == (
            "error: InvalidArgument: outcome and treatment are the same column, 'treatment'\n"
        )
        assert not draws.exists()

    def test_header_only_dataset_exits_2(self, tmp_path, capsys):
        data, draws = tmp_path / "data.csv", tmp_path / "draws.csv"
        data.write_text("outcome,treatment\n")
        code, stdout, stderr = run("fit", str(data), "--out", str(draws), capsys=capsys)
        assert (code, stdout) == (2, "")
        assert stderr == "error: InvalidArgument: outcome: need at least 3 units, got 0\n"
        assert not draws.exists()

    def test_missing_data_file(self, tmp_path, capsys):
        code, _, stderr = run(
            "fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.csv"), capsys=capsys
        )
        assert code == 2
        assert "error:" in stderr

    def test_level_is_not_a_fit_option(self, tmp_path, capsys):
        # fit reports at 0.95; summarize --level gives any other level.
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            "fit", self._dataset(tmp_path), "--level", "0.9", "--out", str(out), capsys=capsys
        )
        assert (code, stdout) == (2, "")
        assert "unrecognized arguments: --level 0.9" in stderr
        assert not out.exists()

    def test_defaults_are_the_library_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["fit", "data.csv", "--out", "o"])
        assert {f.name: getattr(args, f.name) for f in fields(PriorSpec)} == asdict(PriorSpec())
        spec = ModelSpec()
        assert (args.chains, args.iters, args.warmup, args.seed) == (
            spec.chains, spec.iterations, spec.warmup, spec.seed,
        )
        subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
        flags = [s for a in subparsers.choices["fit"]._actions for s in a.option_strings]
        for f in fields(PriorSpec):
            assert flags.count("--" + f.name.replace("_", "-")) == 1


class TestSummarize:
    def test_machine_line_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "draws.csv"
        write_draws(Draws(("theta",), [rng.normal(1.0, 1.0, size=(1, 10_000))]), path)
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
        write_draws(Draws(("a",), [[[1.0, 2.0, 3.0, 4.0]]]), path)
        code, _, stderr = run("summarize", str(path), "--param", "beta9", capsys=capsys)
        assert code == 2
        assert "error: UnknownParameter" in stderr

    def test_empty_param_is_named_by_its_repr(self, tmp_path, capsys):
        # The message was empty: "error: UnknownParameter: ".
        path = tmp_path / "draws.csv"
        write_draws(Draws(("a",), [[[1.0, 2.0, 3.0, 4.0]]]), path)
        code, stdout, stderr = run("summarize", str(path), "--param", "", capsys=capsys)
        assert (code, stdout, stderr) == (2, "", "error: UnknownParameter: ''\n")

    def test_bad_level_exits_2(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        write_draws(Draws(("a",), [[[1.0, 2.0, 3.0, 4.0]]]), path)
        code, _, stderr = run("summarize", str(path), "--level", "1.5", capsys=capsys)
        assert code == 2
        assert "error: InvalidLevel" in stderr

    @pytest.mark.parametrize(
        ("level", "label"),
        [("0.95", "95"), ("0.9", "90"), ("0.99", "99"), ("0.999", "99.9"),
         ("0.9999999", "99.99999"), ("0.999999999999", "99.9999999999")],
    )
    def test_human_line_names_the_level_unrounded(self, tmp_path, capsys, level, label):
        # %g rounded the last two levels' labels to "100% CI".
        path = tmp_path / "draws.csv"
        write_draws(Draws(("a",), [[[1.0, 2.0, 3.0, 4.0]]]), path)
        code, stdout, _ = run("summarize", str(path), "--level", level, capsys=capsys)
        human, machine = stdout.splitlines()
        assert code == 0
        assert f"   {label}% CI [" in human
        assert parse_summary_line(machine)[1].level == float(level)

    def test_param_required_when_ambiguous(self, tmp_path, capsys):
        path = tmp_path / "draws.csv"
        write_draws(Draws(("a", "b"), [[[1.0, 2.0]], [[3.0, 4.0]]]), path)
        code, _, stderr = run("summarize", str(path), capsys=capsys)
        assert code == 2
        assert "--param is required" in stderr

    def test_constant_draws_have_their_value_as_mean(self, tmp_path, capsys):
        # numpy's pairwise sum once printed mean=0.29999999999999993.
        path = tmp_path / "draws.csv"
        write_draws(Draws(("a",), np.full((1, 4, 100), 0.3)), path)
        code, stdout, _ = run("summarize", str(path), capsys=capsys)
        assert code == 0
        assert " mean=0.3 " in machine_lines(stdout)[0]


class TestPlots:
    def _draws(self, tmp_path) -> str:
        rng = np.random.default_rng(2)
        path = tmp_path / "draws.csv"
        write_draws(Draws(("theta",), [rng.normal(0.5, 1.0, size=(1, 2_000))]), path)
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

    @pytest.mark.parametrize("command", ["ccdf", "density"])
    def test_grid_size_is_not_an_option(self, tmp_path, capsys, command):
        out = tmp_path / "c.svg"
        code, stdout, stderr = run(
            command, self._draws(tmp_path), "--points", "64", "--out", str(out), capsys=capsys
        )
        assert (code, stdout) == (2, "")
        assert "unrecognized arguments: --points 64" in stderr
        assert not out.exists()

    def test_density_writes_svg(self, tmp_path, capsys):
        out = tmp_path / "d.svg"
        code, _, _ = run("density", self._draws(tmp_path), "--out", str(out), capsys=capsys)
        assert code == 0
        assert "<polyline" in out.read_text()

    def test_density_of_constant_draws_exits_2_without_a_file(self, tmp_path, capsys):
        # It once wrote an SVG with bandwidth 1.5e-17 and exited 0.
        path, out = tmp_path / "draws.csv", tmp_path / "d.svg"
        write_draws(Draws(("a",), np.full((1, 4, 100), 0.3)), path)
        code, stdout, stderr = run("density", str(path), "--out", str(out), capsys=capsys)
        assert (code, stdout) == (2, "")
        assert stderr == (
            "error: DegenerateDraws: a: every draw is 0.3; a density needs draws that differ\n"
        )
        assert not out.exists()

    def test_density_whose_normalisation_overflows_exits_2_without_a_file(self, tmp_path, capsys):
        # 40 draws of 0 and one of 1e308: n h sqrt(2 pi) overflows, and it
        # once wrote a density of zeros and exited 0.
        path, out = tmp_path / "draws.csv", tmp_path / "d.svg"
        write_draws(Draws(("a",), [[[0.0] * 40 + [1e308]]]), path)
        code, stdout, stderr = run("density", str(path), "--out", str(out), capsys=capsys)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: DegenerateDraws: ")
        assert stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ccdf", "density"])
    def test_empty_x_label_keeps_the_default(self, tmp_path, capsys, command):
        draws = self._draws(tmp_path)
        default, empty = tmp_path / "default.svg", tmp_path / "empty.svg"
        assert run(command, draws, "--out", str(default), capsys=capsys)[0] == 0
        assert run(command, draws, "--x-label", "", "--out", str(empty), capsys=capsys)[0] == 0
        assert empty.read_bytes() == default.read_bytes()
        assert ">Effect size</text>" in default.read_text()

    @pytest.mark.parametrize("command", ["ccdf", "density"])
    @pytest.mark.parametrize(
        "label", ["a\x01b", "\x0c", "\ufffe", "\udcff"], ids=["x01", "x0c", "ufffe", "not-utf8"]
    )
    def test_label_xml_forbids_exits_2_without_a_file(self, tmp_path, capsys, command, label):
        # "\udcff" is how Python decodes the argv byte 0xff. The controls
        # and U+FFFE once made an SVG that XML parsers reject; 0xff once
        # ended in a UnicodeEncodeError traceback and an empty file.
        out = tmp_path / "x.svg"
        code, stdout, stderr = run(
            command, self._draws(tmp_path), "--x-label", label, "--out", str(out), capsys=capsys
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: InvalidArgument: ")
        assert stderr.count("\n") == 1
        assert not out.exists()


class TestDiagnose:
    def test_healthy_chains_exit_0(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "draws.csv"
        write_draws(Draws(("a",), [rng.standard_normal((4, 500))]), path)
        code, stdout, _ = run("diagnose", str(path), capsys=capsys)
        assert code == 0
        assert "rhat=" in stdout and "ess=" in stdout

    def test_shifted_chains_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        chains = rng.standard_normal((2, 500))
        chains[1] += 5.0
        path = tmp_path / "draws.csv"
        write_draws(Draws(("a",), [chains]), path)
        code, _, stderr = run("diagnose", str(path), capsys=capsys)
        assert code == 1
        assert "warning" in stderr

    def test_single_chain_still_reports(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = tmp_path / "draws.csv"
        write_draws(Draws(("a",), [rng.standard_normal((1, 500))]), path)
        code, stdout, _ = run("diagnose", str(path), capsys=capsys)
        assert code == 0
        assert "rhat=" in stdout

    @pytest.mark.parametrize("fault", [None, "shifted", "constant"])
    def test_wide_file_prints_one_row_per_parameter_in_header_order(self, tmp_path, capsys, fault):
        # 3,000 parameters of 2 chains x 4 iterations, in an unsorted header.
        # Each chain reads (a, b, a, b), so every split half is (a, b) and
        # R-hat is sqrt(1 / 2), unless one parameter is made faulty.
        p = 3_000
        rng = np.random.default_rng(6)
        names = tuple(f"q{i}" for i in rng.permutation(p))
        values = np.tile(rng.standard_normal((p, 1, 2)), (1, 2, 2))
        if fault == "shifted":
            values[1234, 1] += 10.0
        elif fault == "constant":
            values[1234] = 7.0
        path = tmp_path / "wide.csv"
        write_draws(Draws(names, values), path)
        code, stdout, stderr = run("diagnose", str(path), capsys=capsys)

        draws = read_draws(path)
        rows = [(name, split_rhat(view(draws, name)), ess(view(draws, name))) for name in names]
        assert stdout.splitlines() == [
            f"{name:<8s} rhat={rhat:.4f}  ess={n_eff:.1f}" for name, rhat, n_eff in rows
        ]
        worst = max(rhat for _, rhat, _ in rows)
        warning = {
            None: "",
            "shifted": f"max rhat {worst:.4f} exceeds {cli.RHAT_WARN}",
            "constant": f"undefined rhat for {names[1234]}: every split half is constant",
        }[fault]
        assert (code, stderr) == ((1, f"warning: {warning}\n") if fault else (0, ""))


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_main_parses_with_the_parser_built_at_import(self, tmp_path, capsys, monkeypatch):
        def refuse():
            raise AssertionError("build_parser called after import")

        monkeypatch.setattr(cli, "build_parser", refuse)
        path = tmp_path / "theta.csv"
        assert run("simulate", "--preset", "figure1", "--out", str(path), capsys=capsys)[0] == 0
        assert run("diagnose", str(path), capsys=capsys)[0] == 0

    def test_plots_call_the_curve_and_renderer_bound_at_run_time(self, tmp_path, capsys, monkeypatch):
        # A tracer replaces these module attributes after import; a plot
        # command must call the replacements.
        calls = []
        for name in ("ccdf", "kde", "render_ccdf", "render_density"):
            def record(*args, _name=name, _func=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _func(*args, **kwargs)

            monkeypatch.setattr(cli, name, record)
        path = tmp_path / "draws.csv"
        write_draws(Draws(("theta",), [np.random.default_rng(6).normal(size=(1, 500))]), path)
        assert run("ccdf", str(path), "--out", str(tmp_path / "c.svg"), capsys=capsys)[0] == 0
        assert run("density", str(path), "--out", str(tmp_path / "d.svg"), capsys=capsys)[0] == 0
        assert calls == ["ccdf", "render_ccdf", "kde", "render_density"]

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

    @settings(max_examples=200, deadline=None)
    @given(
        name=parameter_names(),
        numbers=st.lists(st.floats(allow_nan=False), min_size=6, max_size=6),
    )
    @example(name="treatment effect", numbers=[0.95, 0.125, -1.5, 2.25, 0.75, 0.25])
    @example(name=" p=1 level=2 ", numbers=[0.95, 0.125, -1.5, 2.25, 0.75, 0.25])
    def test_machine_line_round_trips_any_writable_name(self, tmp_path_factory, name, numbers):
        # Every name Draws accepts; one with a space once made
        # parse_summary_line raise ValueError from dict().
        path = tmp_path_factory.mktemp("names") / "draws.csv"
        write_draws(Draws((name,), [[[0.0, 1.0]]]), path)
        level, mean, ci_low, ci_high, above, below = numbers
        s = PosteriorSummary(mean, ci_low, ci_high, level, above, below)
        assert parse_summary_line(summary_machine_line(name, s)) == (name, s)

    def test_parse_rejects_a_line_that_is_not_a_summary(self):
        with pytest.raises(ValueError, match="not a summary line"):
            parse_summary_line("beta1    rhat=1.0001  ess=3000.0")

    @pytest.mark.parametrize(
        "name, tokens",
        [
            ("b", "level=0.95 mean=1.0 mean=1.0 ci_high=2.0 p_greater_zero=0.5 p_less_zero=0.5"),
            ("b c", "level=0.95 mean=1.0 ci_low=0.0 ci_high=2.0 p_greater_zero=0.5"),
            ("b", "level=0.95 mean=1.0 ci_low=0.0 ci_high=2.0 p_greater_zero=0.5 p_below=0.5"),
            ("b", "level=0.95 mean=1.0 ci_low=0.0 ci_high=2.0 p_greater_zero=0.5 p_less_zero"),
        ],
        ids=["repeated", "missing", "unknown", "no-equals"],
    )
    def test_parse_rejects_tokens_that_are_not_the_summary_fields(self, name, tokens):
        # These raised KeyError, or ValueError from dict(). A name with a
        # space gives the line without p_less_zero the full token count.
        with pytest.raises(ValueError, match="not a summary line"):
            parse_summary_line(f"summary param={name} {tokens}")


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


MAX = 1.7976931348623157e308
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = st.sampled_from([1e300, -1e300, MAX, -5e-324, 0.0, 1e-300])


@st.composite
def draw_matrices(draw) -> np.ndarray:
    """(chains, iterations) draws: ordinary, constant, outlying or extreme."""
    shape = (draw(st.integers(1, 3)), draw(st.sampled_from([2, 3, 4, 5, 8, 33])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "constant", "outlier", "huge", "mixed"]))
    if kind == "constant":
        return np.full(shape, draw(FINITE))
    if kind == "huge":  # +-1e300, where squares and sums overflow
        return rng.choice([-1e300, 1e300], size=shape) * rng.uniform(0.5, 1.0, size=shape)
    if kind == "mixed":
        return draw(arrays(np.float64, shape, elements=st.one_of(FINITE, EXTREMES)))
    values = rng.normal(size=shape)
    if kind == "outlier":
        where = draw(st.integers(0, values.size - 1))
        values.flat[where] = draw(st.sampled_from([1e6, -1e12, 1e150]))
    return values


class TestFuzz:
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        params=st.lists(draw_matrices(), min_size=1, max_size=2),
        command=st.sampled_from(["summarize", "ccdf", "density", "diagnose"]),
        select=st.booleans(),
    )
    # Inputs that once escaped as other exceptions, never returned, or
    # gave a wrong figure: R-hat's fsum overflowing, tick steps that round
    # to 0 (one raises, the other loops forever), a tick loop whose bound
    # overflows, a density grid past the largest double, a curve whose x
    # span overflows (every vertex at the left edge), tiny distinct draws
    # whose sd underflowed in the density estimate, a span of the
    # largest double, over which numpy's linspace warned, and draws whose
    # squared distance to a density grid point overflowed.
    @example(params=[np.array([[0.0, MAX, 0.0, MAX], [0.0, MAX, MAX, MAX]])], command="diagnose",
             select=False)
    @example(params=[np.array([[0.0, 5e-324, 0.0, 0.0]])], command="ccdf", select=False)
    @example(params=[np.array([[0.0, 2.5e-323, 0.0, 0.0]])], command="ccdf", select=False)
    @example(params=[np.array([[1.0, 1.797693134362316e308]])], command="ccdf", select=False)
    @example(params=[np.array([[-MAX, MAX, 0.0, 1.0]])], command="density", select=False)
    @example(params=[np.array([[-1.7e308, 1.7e308, 1.0, 2.0]])], command="ccdf", select=False)
    @example(params=[np.array([[1e-300, 2e-300, 3e-300, 5e-324]])], command="density", select=False)
    @example(params=[np.array([[0.0, MAX]])], command="ccdf", select=False)
    @example(params=[np.array([[0.0, MAX]])], command="density", select=False)
    @example(params=[np.array([[-1e300, 0.0, 1e300], [1.0, 1.0, 1.0]])], command="density",
             select=False)
    def test_any_draws_file_exits_cleanly(self, tmp_path, capsys, params, command, select):
        # Every failure must be an EffectProbError, which main reports as
        # one error line and exit code 2; anything else propagates here.
        shape = params[0].shape
        named = {f"p{i}": m for i, m in enumerate(params) if m.shape == shape}
        path = tmp_path / "fuzz.csv"
        write_draws(Draws(tuple(named), list(named.values())), path)
        argv = [command, str(path)]
        if select and command != "diagnose":
            argv += ["--param", "p0"]
        if command in ("ccdf", "density"):
            argv += ["--out", str(tmp_path / "fuzz.svg")]
        code, _, stderr = run(*argv, capsys=capsys)
        assert code in (0, 1, 2)
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        params=st.lists(draw_matrices(), min_size=1, max_size=2),
        command=st.sampled_from(["summarize", "ccdf", "density"]),
        level=st.sampled_from([0.5, 0.95]),
    )
    # Outputs that were once wrong: an interval below every draw, because
    # scaled draws far below the largest one rounded to 0, and a density
    # of zeros, because its normalisation overflowed. numpy's mean of 15
    # draws of 0.1 is 0.10000000000000003, above every draw.
    @example(params=[np.full((3, 5), 0.1)], command="summarize", level=0.95)
    @example(params=[np.array([[5e-324] * 40 + [1e308]])], command="summarize",
             level=0.95)
    @example(params=[np.array([[1e-300, 2e-300, 1e-300, 2e-300], [1e300, 3e-300, 4e-300, 3e-300]])],
             command="summarize", level=0.5)
    @example(params=[np.array([[0.0] * 40 + [1e308]])], command="density", level=0.95)
    @example(params=[np.array([[5e-324] * 40 + [1e308]])], command="density",
             level=0.95)
    # Bins capped 3.8 bandwidths wide put each draw's weight on a grid
    # point 3h or more away: 0.0143 where the direct sum is 7.4e-4.
    @example(params=[np.array([[1e6, -0.522748441, -0.413063543],
                               [-2.44146738, 1.79970738, 1.14416587]])],
             command="density", level=0.5)
    def test_printed_numbers_match_an_oracle(self, tmp_path, capsys, params, command, level):
        # Every exit-0 output is checked against numpy on the draws read
        # back from the file; an exit 2 must be the library refusing them.
        shape = params[0].shape
        named = {f"p{i}": m for i, m in enumerate(params) if m.shape == shape}
        path = tmp_path / "fuzz.csv"
        write_draws(Draws(tuple(named), list(named.values())), path)
        argv = [command, str(path), "--param", "p0"]
        if command == "summarize":
            argv += ["--level", repr(level)]
        else:
            argv += ["--out", str(tmp_path / "fuzz.svg")]
        code, stdout, stderr = run(*argv, capsys=capsys)
        v = view(read_draws(path), "p0")
        pooled, n = v.pooled, v.pooled.size
        if code == 2:
            assert command != "summarize", stderr
            curve, render = (ccdf, render_ccdf) if command == "ccdf" else (kde, render_density)
            with pytest.raises(EffectProbError):
                render(curve(v))
            return
        assert code == 0

        if command == "summarize":
            _, s = parse_summary_line(machine_lines(stdout)[0])
            low, high = pooled.min(), pooled.max()
            assert low <= s.ci_low <= s.ci_high <= high
            assert low <= s.mean <= high
            with np.errstate(over="ignore", invalid="ignore"):
                quantiles = np.quantile(pooled, [(1 - level) / 2, 1 - (1 - level) / 2])
            for bound, quantile in zip((s.ci_low, s.ci_high), quantiles):
                assert bound == quantile or not np.isfinite(quantile)
            greater, less = s.p_greater_zero, s.p_less_zero
        else:
            printed = dict(line.split(" = ") for line in stdout.splitlines())
            greater, less = float(printed["P(p0>0)"]), float(printed["P(p0<0)"])
        assert greater == np.count_nonzero(pooled > 0) / n
        assert less == np.count_nonzero(pooled < 0) / n

        if command == "ccdf":
            curve = ccdf(v)
            for thresholds in (curve.positive_thresholds, curve.negative_thresholds):
                assert (np.diff(thresholds) >= 0).all()
            assert (np.diff(curve.positive_probabilities) <= 0).all()
            assert (np.diff(curve.negative_probabilities) >= 0).all()
        if command == "density":
            est = kde(v)
            with np.errstate(over="ignore"):
                z = (est.grid[:, None] - pooled) / est.bandwidth
                direct = np.exp(-0.5 * z * z).sum(axis=1)
            direct /= n * est.bandwidth * np.sqrt(2.0 * np.pi)
            assert np.abs(est.density - direct).max() <= 2e-3 * direct.max()

    # Files that once escaped as a UnicodeDecodeError traceback: a draws
    # file, and a dataset whose ignored column holds the bad byte.
    @pytest.mark.parametrize(
        "command, content",
        [
            ("summarize", b"chain,iter,a\n1,1,1.0\n1,2,\xff\n"),
            ("fit", b"outcome,treatment,note\n1.5,0,a\n2.5,1,\xff\n3.5,1,b\n"),
        ],
    )
    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        argv = [command, str(path)]
        if command == "fit":
            argv += ["--out", str(tmp_path / "draws.csv")]
        code, _, stderr = run(*argv, capsys=capsys)
        assert (code, stderr) == (2, "error: ParseError: line 3: invalid UTF-8 byte 0xff\n")

    def test_curve_over_overflowing_span_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        write_draws(Draws(("a",), [[[-1.7e308, 1.7e308, 1.0, 2.0]]]), path)
        code, _, stderr = run("ccdf", str(path), "--out", str(tmp_path / "wide.svg"), capsys=capsys)
        assert code == 2
        assert stderr.startswith("error: DegenerateDraws: ") and stderr.count("\n") == 1


class TestConsoleCommands:
    """The commands of CI's "Console script" step, each in a fresh
    interpreter through ``python -m effectprob.cli``. Only that CI step
    runs the installed ``[project.scripts]`` entry point; this test runs
    its command list wherever the tier-1 tests run."""

    WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

    @classmethod
    def step(cls) -> list[str]:
        lines = cls.WORKFLOW.read_text(encoding="utf-8").splitlines()
        start = lines.index("      - name: Console script")
        assert lines[start + 1] == "        run: |"
        body = []
        for line in lines[start + 2 :]:
            if not line.startswith(" " * 10):
                break
            body.append(line.strip())
        return body

    def test_every_command_exits_as_the_step_expects(self, tmp_path):
        src = Path(effectprob.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}

        def console(args: str) -> subprocess.CompletedProcess:
            argv = shlex.split(args.replace("$RUNNER_TEMP", str(tmp_path)))
            return subprocess.run(
                [sys.executable, "-m", "effectprob.cli", *argv], cwd=tmp_path, env=env,
                capture_output=True, text=True, timeout=120,
            )

        refused, ran = None, 0
        for line in self.step():
            if match := re.fullmatch(r"effectprob (.+)", line):
                result = console(match[1])
                assert (result.returncode, result.stderr) == (0, ""), line
            elif match := re.fullmatch(r"code=0; effectprob (.+) \|\| code=\$\?", line):
                refused = console(match[1])
            elif match := re.fullmatch(r'test "\$code" -eq (\d+)', line):
                assert refused.returncode == int(match[1]), (line, refused.stderr)
            elif match := re.fullmatch(r"test (! -e|-f) (.+)", line):
                path = Path(shlex.split(match[2].replace("$RUNNER_TEMP", str(tmp_path)))[0])
                assert path.is_file() if match[1] == "-f" else not path.exists(), line
            else:
                pytest.fail(f"a line of the Console script step this test cannot run: {line!r}")
            ran += 1
        # 9 commands, 4 refusals with their exit-code checks, 4 file checks.
        assert ran == 21


def _console(directory, *argv: str) -> bytes:
    """The stdout of ``python -m effectprob.cli *argv`` run in a fresh
    interpreter in ``directory``, which must exit 0 with empty stderr."""
    src = Path(effectprob.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "effectprob.cli", *argv], cwd=directory,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, b""), argv
    return result.stdout


def test_summarize_in_fresh_interpreters_reads_the_cache_the_first_saved(tmp_path):
    # Each command is its own process: fit saves the cache of the file it
    # writes; summarize loads it without rewriting it, and prints what a
    # parse prints once the cache is deleted.
    _console(tmp_path, "simulate", "--n", "60", "--seed", "8", "--out", "d.csv")
    _console(tmp_path, "fit", "d.csv", "--iters", "400", "--warmup", "100", "--out", "dr.csv")
    cache = cache_file(tmp_path / "dr.csv")
    saved = cache.stat()
    first = _console(tmp_path, "summarize", "dr.csv", "--param", "beta1")
    after = cache.stat()
    assert (after.st_ino, after.st_mtime_ns) == (saved.st_ino, saved.st_mtime_ns)
    cache.unlink()
    assert _console(tmp_path, "summarize", "dr.csv", "--param", "beta1") == first


def test_fit_in_a_fresh_interpreter_writes_only_its_out_file(tmp_path):
    # fit reads its dataset once and leaves no cache file beside it; it
    # saves the cache of the draws file it writes.
    _console(tmp_path, "simulate", "--n", "60", "--seed", "8", "--out", "d.csv")
    _console(tmp_path, "fit", "d.csv", "--iters", "400", "--warmup", "100", "--out", "dr.csv")
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == [".dr.csv.effectprob", "d.csv", "dr.csv"]
