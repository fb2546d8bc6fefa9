from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    assert stderr == "error: InvalidArgument: seed must be >= 0, got -1\n"


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

    def test_vanishing_spread_exits_2(self, tmp_path, capsys):
        data = simulate_experiment(1000, 0.0, 0.0, 1.0, seed=7)
        path = tmp_path / "tiny.csv"
        write_dataset(Dataset(data.outcome * 1e-156, data.treatment), path)
        code, stdout, stderr = run("fit", str(path), "--out", str(tmp_path / "x.csv"), capsys=capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: DegenerateDesign: ")
        assert stderr.count("\n") == 1

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
        points=st.sampled_from([2, 16, 512]),
    )
    # Inputs that once escaped as other exceptions, never returned, or
    # gave a wrong figure: R-hat's fsum overflowing, tick steps that round
    # to 0 (one raises, the other loops forever), a tick loop whose bound
    # overflows, a density grid past the largest double, a curve whose x
    # span overflows (every vertex at the left edge), and tiny distinct
    # draws whose sd underflowed in the density estimate.
    @example(params=[np.array([[0.0, MAX, 0.0, MAX], [0.0, MAX, MAX, MAX]])], command="diagnose",
             select=False, points=512)
    @example(params=[np.array([[0.0, 5e-324, 0.0, 0.0]])], command="ccdf", select=False, points=512)
    @example(params=[np.array([[0.0, 2.5e-323, 0.0, 0.0]])], command="ccdf", select=False,
             points=512)
    @example(params=[np.array([[1.0, 1.797693134362316e308]])], command="ccdf", select=False,
             points=512)
    @example(params=[np.array([[-MAX, MAX, 0.0, 1.0]])], command="density", select=False,
             points=512)
    @example(params=[np.array([[-1.7e308, 1.7e308, 1.0, 2.0]])], command="ccdf", select=False,
             points=512)
    @example(params=[np.array([[1e-300, 2e-300, 3e-300, 5e-324]])], command="density", select=False,
             points=512)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_any_draws_file_exits_cleanly(self, tmp_path, capsys, params, command, select, points):
        # Every failure must be an EffectProbError, which main reports as
        # one error line and exit code 2; anything else propagates here.
        shape = params[0].shape
        named = {f"p{i}": m for i, m in enumerate(params) if m.shape == shape}
        path = tmp_path / "fuzz.csv"
        write_draws(validate(named), path)
        argv = [command, str(path)]
        if select and command != "diagnose":
            argv += ["--param", "p0"]
        if command in ("ccdf", "density"):
            argv += ["--points", str(points), "--out", str(tmp_path / "fuzz.svg")]
        code, _, stderr = run(*argv, capsys=capsys)
        assert code in (0, 1, 2)
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1

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
        write_draws(validate({"a": [[-1.7e308, 1.7e308, 1.0, 2.0]]}), path)
        code, _, stderr = run("ccdf", str(path), "--out", str(tmp_path / "wide.svg"), capsys=capsys)
        assert code == 2
        assert stderr.startswith("error: DegenerateDraws: ") and stderr.count("\n") == 1
