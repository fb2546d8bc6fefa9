from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from effectprob.draws import Draws
from effectprob.errors import (
    InvalidArgument,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    ParseError,
    RaggedChains,
)
from effectprob.io import read_dataset, read_draws, write_dataset, write_draws
from effectprob.regress import Dataset, ModelSpec, fit, simulate_experiment


def random_finite_doubles(rng: np.random.Generator, n: int) -> np.ndarray:
    """Doubles drawn from raw bit patterns, filtered to finite values."""
    values = np.empty(n)
    filled = 0
    while filled < n:
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        candidates = bits.view(np.float64)
        good = candidates[np.isfinite(candidates)]
        take = min(len(good), n - filled)
        values[filled : filled + take] = good[:take]
        filled += take
    return values


class TestDrawsRoundTrip:
    def test_small_file_shape(self, tmp_path):
        path = tmp_path / "d.csv"
        write_draws(Draws(("a", "b"), [[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], np.zeros((2, 3))]), path)
        d = read_draws(path)
        assert d.parameter_names == ("a", "b")
        assert d.values.shape == (2, 2, 3)

    def test_values_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        values = random_finite_doubles(rng, 10_000).reshape(2, 5_000)
        path = tmp_path / "d.csv"
        write_draws(Draws(("x",), [values]), path)
        back = read_draws(path)
        assert back.values.tobytes() == values.reshape(1, 2, 5_000).tobytes()

    def test_seventeen_digit_print_parse(self):
        rng = np.random.default_rng(18)
        for x in random_finite_doubles(rng, 2_000):
            assert float(format(x, ".17g")) == x or (np.isnan(x) and np.isnan(float(format(x, ".17g"))))

    def test_header_order_matches_fit_parameters(self, tmp_path):
        data = simulate_experiment(20, 1.0, 0.5, 1.0, seed=0)
        result = fit(data, ModelSpec(chains=1, iterations=20, warmup=4, seed=0))
        path = tmp_path / "fit.csv"
        write_draws(result.draws, path)
        assert path.read_text().splitlines()[0] == "chain,iter,beta0,beta1,sigma"


class TestDrawsParser:
    def _write(self, tmp_path, text: str):
        path = tmp_path / "in.csv"
        path.write_text(text)
        return path

    def test_missing_iteration_named(self, tmp_path):
        path = self._write(tmp_path, "chain,iter,a\n1,1,0.5\n1,3,0.7\n")
        with pytest.raises(ParseError, match="expected iter 2, found 3"):
            read_draws(path)

    def test_noncontiguous_chain_block(self, tmp_path):
        path = self._write(tmp_path, "chain,iter,a\n1,1,0.5\n2,1,0.7\n1,2,0.9\n2,2,1.0\n")
        with pytest.raises(ParseError, match="not contiguous"):
            read_draws(path)

    def test_bad_header(self, tmp_path):
        path = self._write(tmp_path, "iter,chain,a\n1,1,0.5\n")
        with pytest.raises(ParseError):
            read_draws(path)

    def test_headers_without_parameters(self, tmp_path):
        path = self._write(tmp_path, "chain,iter\n1,1\n")
        with pytest.raises(ParseError):
            read_draws(path)

    def test_field_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, "chain,iter,a\n1,1,0.5,9\n")
        with pytest.raises(ParseError, match="line 2"):
            read_draws(path)

    def test_ragged_chains_delegated(self, tmp_path):
        path = self._write(tmp_path, "chain,iter,a\n1,1,0.5\n1,2,0.6\n2,1,0.7\n")
        with pytest.raises(RaggedChains):
            read_draws(path)

    def test_ragged_chains_whose_rows_divide_evenly(self, tmp_path):
        # Six rows over two chains would be three each, but they are 2 + 4.
        rows = ["1,1,0.1", "1,2,0.2", "2,1,0.3", "2,2,0.4", "2,3,0.5", "2,4,0.6"]
        path = self._write(tmp_path, "chain,iter,a,b\n" + "".join(r + ",1\n" for r in rows))
        with pytest.raises(RaggedChains, match=r"^parameter 'a': chains have unequal lengths$"):
            read_draws(path)

    def test_parse_error_after_ragged_chains_wins(self, tmp_path):
        rows = ["1,1,0.1", "1,2,0.2", "2,1,0.3", "2,2,0.4", "2,3,0.5", "2,4,x"]
        path = self._write(tmp_path, "chain,iter,a\n" + "".join(r + "\n" for r in rows))
        with pytest.raises(ParseError, match=r"^line 7, column a: not a decimal number: 'x'$"):
            read_draws(path)

    def test_last_label_that_overflows_is_a_parse_error(self, tmp_path):
        path = self._write(tmp_path, "chain,iter,a\n1,1,0.5\n1,2,0.6\n1" + "0" * 400 + ",1,0.7\n")
        with pytest.raises(ParseError, match=r"^line 4: expected chain 2, found 10+$"):
            read_draws(path)

    def test_nan_text_rejected(self, tmp_path):
        path = self._write(tmp_path, "chain,iter,a\n1,1,nan\n1,2,0.5\n")
        with pytest.raises(ParseError):
            read_draws(path)

    def test_fuzzed_single_field_corruption(self, tmp_path):
        rng = np.random.default_rng(19)
        d = Draws(("a", "b"), [rng.normal(size=(2, 5)), rng.normal(size=(2, 5))])
        path = tmp_path / "good.csv"
        write_draws(d, path)
        good = path.read_text()
        lines = good.splitlines()
        for trial in range(60):
            row = int(rng.integers(1, len(lines)))
            fields = lines[row].split(",")
            col = int(rng.integers(0, len(fields)))
            corrupted = rng.choice(["x", "1.2.3", "--4", "0x1f", "1e", ""])
            mutated = lines.copy()
            fields[col] = str(corrupted)
            mutated[row] = ",".join(fields)
            bad = tmp_path / f"bad{trial}.csv"
            bad.write_text("\n".join(mutated) + "\n")
            with pytest.raises(ParseError):
                read_draws(bad)

    def test_underscored_number_not_coerced(self, tmp_path):
        # float("1_0") would silently parse; the grammar must reject it.
        path = self._write(tmp_path, "chain,iter,a\n1,1,1_0\n1,2,0.5\n")
        with pytest.raises(ParseError):
            read_draws(path)

    def test_overflowing_literal_surfaces_nonfinite(self, tmp_path):
        path = self._write(tmp_path, "chain,iter,a\n1,1,1e999\n1,2,0.5\n")
        with pytest.raises(NonFiniteValue):
            read_draws(path)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        data = simulate_experiment(25, 3.0, -1.0, 2.0, seed=4)
        path = tmp_path / "data.csv"
        write_dataset(data, path)
        back = read_dataset(path)
        assert np.array_equal(back.outcome, data.outcome)
        assert np.array_equal(back.treatment, data.treatment)

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("outcome,treatment\n1.5,0\n2.5,1\n3.5,0\n")
        data = read_dataset(path)
        assert data.n == 3
        assert data.treatment.tolist() == [0, 1, 0]

    def test_nonbinary_treatment(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("outcome,treatment\n1.5,0\n2.5,2\n3.5,0\n")
        with pytest.raises(NonBinaryTreatment, match="line 3"):
            read_dataset(path)

    def test_na_outcome_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("outcome,treatment\n1.5,0\nNA,1\n3.5,0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_dataset(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("outcome,arm\n1.5,0\n")
        with pytest.raises(MissingColumn):
            read_dataset(path, "outcome", "treatment")

    def test_named_columns_located_anywhere(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,score,arm\n1,1.5,0\n2,2.5,1\n3,3.5,1\n")
        data = read_dataset(path, "score", "arm")
        assert data.outcome.tolist() == [1.5, 2.5, 3.5]
        assert data.treatment.tolist() == [0, 1, 1]


class TestWriterNames:
    """A writer refuses a header name its reader would not read back,
    before it opens the file."""

    BAD = ["a,b", "x\ny", "x\ry", "\udcff"]  # comma, line ends, a surrogate (not UTF-8)

    @pytest.mark.parametrize("name", BAD)
    def test_write_draws_refuses(self, tmp_path, name):
        path = tmp_path / "d.csv"
        with pytest.raises(InvalidArgument, match="^column name "):
            write_draws(Draws(("ok", name), [[[1.0, 2.0]], [[3.0, 4.0]]]), path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "outcome, treatment", [*((name, "treatment") for name in BAD), ("outcome", BAD[0]), ("x", "x")]
    )
    def test_write_dataset_refuses(self, tmp_path, outcome, treatment):
        path = tmp_path / "d.csv"
        with pytest.raises(InvalidArgument):
            write_dataset(simulate_experiment(5, 1.0, 1.0, 1.0, seed=0), path, outcome, treatment)
        assert not path.exists()

    def test_names_the_readers_take_round_trip(self, tmp_path):
        # Non-ASCII text, a Unicode line break that is not a line end, and
        # a parameter named like an index column.
        path = tmp_path / "d.csv"
        names = ("café", "a\u2028b", "chain")
        write_draws(Draws(names, [[[1.0, 2.0]]] * len(names)), path)
        assert read_draws(path).parameter_names == names
        data = simulate_experiment(5, 1.0, 1.0, 1.0, seed=0)
        write_dataset(data, path, "日本", "\x85")
        assert np.array_equal(read_dataset(path, "日本", "\x85").outcome, data.outcome)


class TestAllocationPeaks:
    """A read holds a few copies of its file at most, a write one block of
    rows rather than the whole text."""

    @staticmethod
    def peak_bytes(call) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def sample(kind: str):
        if kind == "draws":
            rng = np.random.default_rng(21)
            draws = Draws(("a", "b"), [rng.normal(size=(4, 10_000)), rng.normal(size=(4, 10_000))])
            return draws, write_draws, read_draws
        return simulate_experiment(100_000, 5.0, 1.0, 2.0, seed=21), write_dataset, read_dataset

    @pytest.mark.parametrize("kind", ["draws", "dataset"])
    def test_write_peak_is_at_most_twice_the_file(self, tmp_path, kind):
        value, write, _ = self.sample(kind)
        path = tmp_path / "file.csv"
        peak = self.peak_bytes(lambda: write(value, path))
        assert peak <= 2 * path.stat().st_size

    @pytest.mark.parametrize("kind", ["draws", "dataset"])
    def test_read_peak_is_at_most_four_times_the_file(self, tmp_path, kind):
        value, write, read = self.sample(kind)
        path = tmp_path / "file.csv"
        write(value, path)
        assert self.peak_bytes(lambda: read(path)) <= 4 * path.stat().st_size

    def test_draws_read_peak_is_at_most_two_and_a_half_times_the_file(self, tmp_path):
        # The file's bytes, loadtxt's records and the Draws copy.
        value, write, read = self.sample("draws")
        path = tmp_path / "file.csv"
        write(value, path)
        assert self.peak_bytes(lambda: read(path)) <= 2.5 * path.stat().st_size

    def test_walked_dataset_read_peak_is_at_most_eight_times_the_file(self, tmp_path):
        # A text column sends the read to the line walk: the bytes, the
        # decoded body, its lines and one Python float per value.
        value, write, read = self.sample("dataset")
        path = tmp_path / "file.csv"
        write(value, path)
        header, *body = path.read_text().splitlines()
        noted = [f"note,{header}"] + [f"r{row},{line}" for row, line in enumerate(body, 1)]
        path.write_text("\n".join(noted) + "\n")
        assert self.peak_bytes(lambda: read(path)) <= 8 * path.stat().st_size
        assert read(path).outcome.tobytes() == value.outcome.tobytes()
