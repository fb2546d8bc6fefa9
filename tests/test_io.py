from __future__ import annotations

import os
import signal
import threading

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

from conftest import peak_bytes


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

    def test_body_of_blank_lines_warns_nothing(self, tmp_path):
        # The parser finds no records in it; the walk names the first line.
        path = self._write(tmp_path, "chain,iter,a\n\n\n")
        with pytest.raises(ParseError, match=r"^line 2: expected 3 fields, found 1$"):
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

    def test_one_column_as_outcome_and_treatment_is_refused_unread(self, tmp_path):
        # The file does not exist: the names are checked before it is read.
        with pytest.raises(
            InvalidArgument, match=r"^outcome and treatment are the same column, 'treatment'$"
        ):
            read_dataset(tmp_path / "missing.csv", "treatment", "treatment")

    def test_body_of_blank_lines_warns_nothing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("outcome,treatment\n\n")
        with pytest.raises(ParseError, match=r"^line 2: expected 2 fields, found 1$"):
            read_dataset(path)

    @pytest.mark.parametrize(
        "content",
        [
            b"outcome,treatment",
            b"outcome,treatment\n",
            b"outcome,treatment\r\n",
            b"\xef\xbb\xbfoutcome,treatment\n",
            b"outcome,treatment,note\n",
        ],
    )
    def test_header_only_has_no_units(self, tmp_path, content):
        path = tmp_path / "d.csv"
        path.write_bytes(content)
        with pytest.raises(InvalidArgument, match=r"^need at least 3 units, got 0$"):
            read_dataset(path)


BOM = b"\xef\xbb\xbf"


def write_fit_draws(path) -> None:
    data = simulate_experiment(20, 1.0, 0.5, 1.0, seed=0)
    write_draws(fit(data, ModelSpec(chains=2, iterations=20, warmup=4, seed=0)).draws, path)


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is dropped, as
    spreadsheets write one; anywhere else it is an ordinary character."""

    def test_draws_read_the_same(self, tmp_path):
        path = tmp_path / "d.csv"
        write_fit_draws(path)
        plain = read_draws(path)
        path.write_bytes(BOM + path.read_bytes())
        marked = read_draws(path)
        assert marked.parameter_names == plain.parameter_names
        assert marked.values.tobytes() == plain.values.tobytes()

    @pytest.mark.parametrize(
        "text", ["outcome,treatment\n1.5,0\n-2,1\n3,1\n", "treatment,outcome\n0,1.5\n1,-2\n1,3\n"]
    )
    def test_datasets_read_the_same(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        plain = read_dataset(path)
        path.write_bytes(BOM + text.encode("utf-8"))
        marked = read_dataset(path)
        assert marked.outcome.tobytes() == plain.outcome.tobytes()
        assert marked.treatment.tobytes() == plain.treatment.tobytes()

    def test_a_second_mark_is_part_of_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(BOM + BOM + b"chain,iter,a\n1,1,0.5\n1,2,0.6\n")
        with pytest.raises(ParseError, match=r"got '\\ufeffchain','iter'$"):
            read_draws(path)
        path.write_bytes(BOM + b"outcome,\xef\xbb\xbftreatment\n1.5,0\n")
        with pytest.raises(MissingColumn, match="treatment"):
            read_dataset(path)

    def test_a_mark_in_the_body_is_a_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"chain,iter,a\n" + BOM + b"1,1,0.5\n1,2,0.6\n")
        with pytest.raises(ParseError, match="^line 2, column chain: expected a positive integer"):
            read_draws(path)
        path.write_bytes(b"outcome,treatment\n1.5,0\n2.5," + BOM + b"1\n")
        with pytest.raises(ParseError, match="^line 3, column treatment: not a decimal number"):
            read_dataset(path)

    def test_a_mark_alone_is_an_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(BOM)
        with pytest.raises(ParseError, match="^empty file$"):
            read_draws(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestNamedPipe:
    """Each reader opens its file once, so a pipe reads like a file. A
    second open would wait for a writer that never comes; the alarm turns
    that wait into a failure."""

    def _through_pipe(self, tmp_path, file, read):
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(file.read_bytes(),))
        writer.start()

        def second_open(signum, frame):
            raise TimeoutError("the reader opened the pipe again")

        previous = signal.signal(signal.SIGALRM, second_open)
        signal.alarm(10)
        try:
            got = read(pipe)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            writer.join(10)
        assert not writer.is_alive()
        return got

    def test_read_draws(self, tmp_path):
        file = tmp_path / "d.csv"
        write_fit_draws(file)
        got, want = self._through_pipe(tmp_path, file, read_draws), read_draws(file)
        assert got.parameter_names == want.parameter_names
        assert got.values.tobytes() == want.values.tobytes()

    def test_read_dataset(self, tmp_path):
        file = tmp_path / "d.csv"
        write_dataset(simulate_experiment(50, 3.0, -1.0, 2.0, seed=4), file)
        got, want = self._through_pipe(tmp_path, file, read_dataset), read_dataset(file)
        assert got.outcome.tobytes() == want.outcome.tobytes()
        assert got.treatment.tobytes() == want.treatment.tobytes()


class TestWriterNames:
    """The draws writer refuses a header name its reader would not read
    back, before it opens the file."""

    BAD = ["a,b", "x\ny", "x\ry", "\udcff"]  # comma, line ends, a surrogate (not UTF-8)

    @pytest.mark.parametrize("name", BAD)
    def test_write_draws_refuses(self, tmp_path, name):
        path = tmp_path / "d.csv"
        with pytest.raises(InvalidArgument, match="^column name "):
            write_draws(Draws(("ok", name), [[[1.0, 2.0]], [[3.0, 4.0]]]), path)
        assert not path.exists()

    def test_names_the_readers_take_round_trip(self, tmp_path):
        # Non-ASCII text, a Unicode line break that is not a line end, and
        # a parameter named like an index column.
        path = tmp_path / "d.csv"
        names = ("café", "a\u2028b", "chain")
        write_draws(Draws(names, [[[1.0, 2.0]]] * len(names)), path)
        assert read_draws(path).parameter_names == names
        path.write_bytes("日本,\x85\n1.5,0\n-2,1\n0.25,1\n".encode("utf-8"))
        data = read_dataset(path, "日本", "\x85")
        assert (data.outcome.tolist(), data.treatment.tolist()) == ([1.5, -2.0, 0.25], [0, 1, 1])


class TestAllocationPeaks:
    """A read holds a few copies of its file at most, a write one block of
    rows rather than the whole text."""

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
        peak = peak_bytes(lambda: write(value, path))
        assert peak <= 2 * path.stat().st_size

    @pytest.mark.parametrize("kind", ["draws", "dataset"])
    def test_read_peak_is_at_most_four_times_the_file(self, tmp_path, kind):
        value, write, read = self.sample(kind)
        path = tmp_path / "file.csv"
        write(value, path)
        assert peak_bytes(lambda: read(path)) <= 4 * path.stat().st_size

    def test_draws_read_peak_is_at_most_two_and_a_half_times_the_file(self, tmp_path):
        # The file's bytes, loadtxt's records and the Draws copy.
        value, write, read = self.sample("draws")
        path = tmp_path / "file.csv"
        write(value, path)
        assert peak_bytes(lambda: read(path)) <= 2.5 * path.stat().st_size

    def test_simulate_peak_is_at_most_40_bytes_per_unit(self):
        # The int8 treatment, the outcome built in one buffer, and the
        # Dataset's own copies of both.
        n = 200_000
        assert peak_bytes(lambda: simulate_experiment(n, 52.0, -2.49, 24.0, seed=1)) <= 40 * n

    def test_walked_dataset_read_peak_is_at_most_eight_times_the_file(self, tmp_path):
        # A text column sends the read to the line walk: the bytes, the
        # decoded body, its lines and one Python float per value.
        value, write, read = self.sample("dataset")
        path = tmp_path / "file.csv"
        write(value, path)
        header, *body = path.read_text().splitlines()
        noted = [f"note,{header}"] + [f"r{row},{line}" for row, line in enumerate(body, 1)]
        path.write_text("\n".join(noted) + "\n")
        assert peak_bytes(lambda: read(path)) <= 8 * path.stat().st_size
        assert read(path).outcome.tobytes() == value.outcome.tobytes()
