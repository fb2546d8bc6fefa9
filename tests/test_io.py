from __future__ import annotations

import ast
import hashlib
import inspect
import math
import os
import re
import signal
import threading
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest

import effectprob.io
from effectprob.draws import Draws
from effectprob.errors import (
    DuplicateParameter,
    EffectProbError,
    InvalidArgument,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    ParseError,
    RaggedChains,
)
from effectprob.io import read_dataset, read_draws, write_dataset, write_draws
from effectprob.regress import Dataset, ModelSpec, fit, simulate_experiment

from conftest import cache_file, peak_bytes


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
        with pytest.raises(InvalidArgument, match=r"^outcome: need at least 3 units, got 0$"):
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


class Waited(Exception):
    """Raised from a test's alarm while a read or write waits on a pipe.
    Not an OSError such as TimeoutError, which a reader may take as an
    ordinary outcome, as the parse cache takes it for a miss."""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestNamedPipe:
    """Each reader opens its file once, so a pipe reads like a file, and
    no reader or writer saves a cache file beside it. A second open would
    wait for a writer that never comes; the alarm turns that wait into a
    failure."""

    def _through_pipe(self, tmp_path, file, read):
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(file.read_bytes(),))
        writer.start()

        def second_open(signum, frame):
            raise Waited("the reader opened the pipe again")

        previous = signal.signal(signal.SIGALRM, second_open)
        signal.alarm(10)
        try:
            got = read(pipe)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            writer.join(10)
        assert not writer.is_alive()
        assert not list(tmp_path.glob(".pipe.csv.effectprob*"))  # a pipe gets no cache file
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

    def test_write_draws(self, tmp_path):
        # The draws writer saves no cache file for a pipe either.
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        file = tmp_path / "d.csv"
        write_fit_draws(file)
        draws = read_draws(file)

        def waited(signum, frame):
            raise Waited("the write waited on the pipe")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(10)
        try:
            write_draws(draws, pipe)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            reader.join(10)
        assert not reader.is_alive()
        assert received == [file.read_bytes()]
        assert not list(tmp_path.glob(".pipe.csv.effectprob*"))


class TestWriterNames:
    """Every name :class:`Draws` holds is one its reader reads back
    (tests/test_draws.py tests the names it refuses)."""

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


def add_text_column(path) -> None:
    """Put a first column ``note`` of text (``r<row>``) in the dataset
    file ``path``, which sends its read to the line walk."""
    header, *body = path.read_text().splitlines()
    noted = [f"note,{header}"] + [f"r{row},{line}" for row, line in enumerate(body, 1)]
    path.write_text("\n".join(noted) + "\n")


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

    def written(self, tmp_path, kind: str, cache: str):
        """A written file, with no cache file for a miss or the one the
        draws writer saves for a hit, and its reader."""
        value, write, read = self.sample(kind)
        path = tmp_path / "file.csv"
        write(value, path)
        if cache == "hit":
            assert cache_file(path).is_file()
        else:
            cache_file(path).unlink(missing_ok=True)
        return path, read

    @pytest.mark.parametrize(
        ("kind", "cache"), [("draws", "miss"), ("draws", "hit"), ("dataset", "miss")]
    )
    def test_read_peak_is_at_most_four_times_the_file(self, tmp_path, kind, cache):
        path, read = self.written(tmp_path, kind, cache)
        assert peak_bytes(lambda: read(path)) <= 4 * path.stat().st_size

    @pytest.mark.parametrize("cache", ["miss", "hit"])
    def test_draws_read_peak_is_at_most_two_and_a_half_times_the_file(self, tmp_path, cache):
        # The file's bytes, loadtxt's or the cache file's records and the Draws copy.
        path, read = self.written(tmp_path, "draws", cache)
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
        add_text_column(path)
        assert peak_bytes(lambda: read(path)) <= 8 * path.stat().st_size
        assert read(path).outcome.tobytes() == value.outcome.tobytes()


def outcome(read, path) -> tuple:
    """What ``read(path)`` gives, in a form ``==`` compares bit for bit."""
    try:
        got = read(path)
    except EffectProbError as exc:
        return type(exc), str(exc)
    if isinstance(got, Draws):
        return got.parameter_names, got.values.shape, got.values.tobytes()
    return got.outcome.tobytes(), got.treatment.tobytes()


def npy(table: np.ndarray, shape: tuple | None = None) -> bytes:
    """``table`` in the ``.npy`` format, in its memory order, its header claiming ``shape``."""
    out = BytesIO()
    header = np.lib.format.header_data_from_array_1_0(table)
    np.lib.format.write_array_header_1_0(out, {**header, "shape": shape or table.shape})
    out.write(table.tobytes("A"))
    return out.getvalue()


def refuse_large_empty(monkeypatch) -> None:
    """Make ``np.empty`` fail any request over 1 GiB, so that a read asked
    to allocate what a cache file's header claims fails instead of trying."""
    empty = np.empty

    def guarded(shape, dtype=float, *args, **kwargs):
        size = math.prod(np.atleast_1d(shape).tolist()) * np.dtype(dtype).itemsize
        assert size <= 2**30, f"np.empty asked for {size} bytes"
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "empty", guarded)


class _MakesDirectory:
    """Unpickling one makes the directory ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


class TestParseCache:
    """A cache file that is stale, cut short, forged, unreadable or not a
    regular file of this user's, or a save that fails, gives exactly what
    a read gives with no cache file, and prints nothing."""

    FILES = {"draws": (write_fit_draws, read_draws)}

    @pytest.fixture(params=list(FILES))
    def csv(self, request, tmp_path):
        """The file, its reader, the cache file a parse saves for it, its
        values, and what a read gives with no cache file."""
        write, read = self.FILES[request.param]
        path = tmp_path / "f.csv"
        write(path)
        want = outcome(read, path)
        genuine = cache_file(path).read_bytes()
        cache_file(path).unlink()
        values = np.lib.format.read_array(BytesIO(genuine[32:]))
        return path, read, genuine, values, want

    @staticmethod
    def forged(genuine: bytes, values: np.ndarray) -> bytes:
        """A cache file of the same CSV whose first value is one more."""
        values = values.copy()
        values[0, 0, 0] += 1.0
        return genuine[:32] + npy(values)

    @staticmethod
    def read_as_without(path, read, want, capfd) -> None:
        assert outcome(read, path) == want
        assert capfd.readouterr() == ("", "")
        assert not list(path.parent.glob(".f.csv.effectprob.*"))

    def test_a_forged_regular_file_of_this_user_is_trusted(self, csv):
        # The control for the forgeries below: only their placing stops them.
        path, read, genuine, values, want = csv
        cache_file(path).write_bytes(self.forged(genuine, values))
        assert outcome(read, path) != want

    def test_stale(self, csv, capfd):
        # One digit of the CSV changes, at the same size and times.
        path, read, genuine, _, _ = csv
        data = bytearray(path.read_bytes())
        at = re.search(rb"\n[^\n]*?([0-9])[0-9]", data)
        data[at.start(1)] = ord(str((int(chr(data[at.start(1)])) + 1) % 10))
        times = path.stat()
        path.write_bytes(data)
        os.utime(path, ns=(times.st_atime_ns, times.st_mtime_ns))
        assert path.stat().st_size == times.st_size
        want = outcome(read, path)
        cache_file(path).write_bytes(genuine)
        self.read_as_without(path, read, want, capfd)

    def test_cut_at_every_byte(self, csv, capfd):
        path, read, genuine, _, want = csv
        for size in range(len(genuine)):
            cache_file(path).write_bytes(genuine[:size])
            assert outcome(read, path) == want, size
        self.read_as_without(path, read, want, capfd)

    @pytest.mark.parametrize(
        "shape", ["one iteration more", "one parameter more", "flat", "2**60 chains"]
    )
    def test_header_that_claims_another_shape(self, csv, capfd, monkeypatch, shape):
        # The payload is the CSV's values; every claim is refused before
        # an array of the claimed shape is allocated.
        path, read, genuine, values, want = csv
        p, m, k = values.shape
        claim = {
            "one iteration more": (p, m, k + 1),
            "one parameter more": (p + 1, m, k),
            "flat": (p * m * k,),
            "2**60 chains": (p, 2**60, k),
        }[shape]
        cache_file(path).write_bytes(genuine[:32] + npy(values, claim))
        refuse_large_empty(monkeypatch)
        self.read_as_without(path, read, want, capfd)

    @pytest.mark.parametrize("part", ["one chain fewer", "one iteration fewer", "no rows"])
    def test_other_row_count_than_the_file_has_lines(self, csv, capfd, part):
        # Header and payload agree, but the array has fewer rows than the
        # file has body lines.
        path, read, genuine, values, want = csv
        values = {
            "one chain fewer": values[:, :-1],
            "one iteration fewer": values[:, :, :-1],
            "no rows": values[:, :0],
        }[part]
        cache_file(path).write_bytes(genuine[:32] + npy(values))
        self.read_as_without(path, read, want, capfd)

    def test_saved_by_another_parser(self, csv, capfd, monkeypatch):
        # A forgery whose digest was right for the parser that saved it.
        path, read, genuine, values, want = csv
        cache_file(path).write_bytes(self.forged(genuine, values))
        monkeypatch.setattr(effectprob.io, "_CACHE_KEY", b"effectprob parse cache 0\n")
        self.read_as_without(path, read, want, capfd)

    def test_other_record_type_of_the_same_size(self, csv, capfd):
        # The same values big-endian: read as native doubles, every value would differ.
        path, read, genuine, values, want = csv
        cache_file(path).write_bytes(genuine[:32] + npy(values.astype(">f8")))
        self.read_as_without(path, read, want, capfd)

    def test_fortran_order_of_the_same_shape(self, csv, capfd):
        # The same values in Fortran order: read in C order, they would be shuffled.
        path, read, genuine, values, want = csv
        cache_file(path).write_bytes(genuine[:32] + npy(np.asfortranarray(values)))
        self.read_as_without(path, read, want, capfd)

    @pytest.mark.parametrize("payload", ["object", "pickled"])
    def test_object_payload_is_never_unpickled(self, csv, capfd, payload):
        path, read, genuine, _, want = csv
        trap = path.parent / "unpickled"
        values = [{"a": 1}] if payload == "object" else [_MakesDirectory(trap)]
        out = BytesIO()
        np.lib.format.write_array(out, np.array(values, dtype=object), allow_pickle=True)
        cache_file(path).write_bytes(genuine[:32] + out.getvalue())
        self.read_as_without(path, read, want, capfd)
        assert not trap.exists()

    def test_symlink_to_a_forgery(self, csv, capfd):
        path, read, genuine, values, want = csv
        forgery = path.parent / "forgery"
        forgery.write_bytes(self.forged(genuine, values))
        cache_file(path).symlink_to(forgery)
        self.read_as_without(path, read, want, capfd)
        assert forgery.read_bytes() == self.forged(genuine, values)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe(self, csv, capfd):
        # With no writer, a pipe opened to read waits for one; the alarm
        # turns that wait into a failure.
        path, read, _, _, want = csv
        os.mkfifo(cache_file(path))

        def waited(signum, frame):
            raise Waited("the read waited on the pipe")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(10)
        try:
            self.read_as_without(path, read, want, capfd)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_directory(self, csv, capfd):
        path, read, _, _, want = csv
        cache_file(path).mkdir()
        self.read_as_without(path, read, want, capfd)
        assert cache_file(path).is_dir()

    @pytest.mark.skipif(getattr(os, "geteuid", lambda: -1)() != 0, reason="needs root to chown")
    def test_forgery_of_another_user(self, csv, capfd):
        path, read, genuine, values, want = csv
        cache_file(path).write_bytes(self.forged(genuine, values))
        os.chown(cache_file(path), 1, 1)
        self.read_as_without(path, read, want, capfd)

    def test_temporary_file_left_by_a_killed_save_of_this_pid(self, csv, capfd):
        path, read, genuine, _, want = csv
        cache_file(path).with_name(f".f.csv.effectprob.{os.getpid()}").write_bytes(b"cut")
        self.read_as_without(path, read, want, capfd)
        assert cache_file(path).read_bytes() == genuine

    def test_replace_that_fails(self, csv, capfd, monkeypatch):
        path, read, _, _, want = csv

        def refuse(source, target):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(effectprob.io.os, "replace", refuse)
        self.read_as_without(path, read, want, capfd)
        assert not cache_file(path).exists()


@pytest.mark.parametrize("block", [1, 7, effectprob.io._COUNT_BLOCK])
def test_a_hit_counts_the_line_ends_bytes_count_does(monkeypatch, block):
    # Lines of every length 0..20, counted from every offset, in blocks
    # of one byte, of a few, and of the size a hit uses.
    monkeypatch.setattr(effectprob.io, "_COUNT_BLOCK", block)
    data = b"".join(b"1" * n + b"\n" for n in range(21)) + b"2"
    for start in range(len(data) + 1):
        assert effectprob.io._line_ends(data, start) == data.count(b"\n", start), start


class TestWriterCache:
    """Whatever sits at the cache file's name, or if the save fails, the
    draws writer writes the CSV and leaves no temporary file."""

    @pytest.fixture
    def draws(self, tmp_path):
        """Draws, and the CSV and cache file bytes a write of them gives."""
        path = tmp_path / "plain" / "f.csv"
        path.parent.mkdir()
        write_fit_draws(path)
        return read_draws(path), path.read_bytes(), cache_file(path).read_bytes()

    @staticmethod
    def write_as_without(path, draws) -> None:
        values, csv, _ = draws
        write_draws(values, path)
        assert path.read_bytes() == csv
        assert not list(path.parent.glob(".f.csv.effectprob.*"))
        assert read_draws(path).values.tobytes() == values.values.tobytes()

    def test_symlink(self, tmp_path, draws):
        # The save replaces the link, never the file it points to.
        path, target = tmp_path / "f.csv", tmp_path / "target"
        target.write_bytes(b"left alone")
        cache_file(path).symlink_to(target)
        self.write_as_without(path, draws)
        assert target.read_bytes() == b"left alone"
        assert not cache_file(path).is_symlink()
        assert cache_file(path).read_bytes() == draws[2]

    def test_directory(self, tmp_path, draws):
        path = tmp_path / "f.csv"
        cache_file(path).mkdir()
        self.write_as_without(path, draws)
        assert cache_file(path).is_dir()

    def test_replace_that_fails(self, tmp_path, draws, monkeypatch):
        path = tmp_path / "f.csv"

        def refuse(source, target):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(effectprob.io.os, "replace", refuse)
        self.write_as_without(path, draws)
        assert not cache_file(path).exists()


def listing(directory) -> dict:
    """Each entry of ``directory`` by name, with its type, size, times
    and, for a regular file, its bytes."""
    entries = {}
    for entry in sorted(directory.iterdir()):
        st = entry.lstat()
        content = entry.read_bytes() if entry.is_file() and not entry.is_symlink() else None
        entries[entry.name] = (st.st_mode, st.st_size, st.st_mtime_ns, st.st_ino, content)
    return entries


def wait_alarm(signum, frame):
    raise Waited("the read waited on the pipe")


class TestRefusedDrawsSaveNoCache:
    """A draws file that a read refuses gets no cache file: the read raises
    what it raises with none and leaves whatever sits at the cache file's
    name as it is, so every later read parses and refuses the file again."""

    REFUSED = {
        "ragged chains": (
            b"chain,iter,a\n1,1,0.55\n1,2,0.6\n2,1,0.7\n",
            RaggedChains, "parameter 'a': chains have unequal lengths",
        ),
        "ragged chains whose rows divide evenly": (
            b"chain,iter,a\n1,1,0.1\n1,2,0.2\n2,1,0.3\n2,2,0.4\n2,3,0.5\n2,4,0.6\n",
            RaggedChains, "parameter 'a': chains have unequal lengths",
        ),
        "skipped chain label": (
            b"chain,iter,a\n1,1,0.1\n1,2,0.2\n3,1,0.3\n3,2,0.4\n",
            ParseError, "line 4: expected chain 2, found 3",
        ),
        "signed index": (
            b"chain,iter,a\n1,1,0.1\n1,+2,0.2\n",
            ParseError, "line 3, column iter: expected a positive integer, got '+2'",
        ),
        "overflowing cell": (
            b"chain,iter,a\n1,1,1e999\n1,2,0.5\n",
            NonFiniteValue, "parameter 'a', chain 1, iteration 1",
        ),
        "duplicate name": (
            b"chain,iter,a,a\n1,1,0.1,0.2\n1,2,0.3,0.4\n", DuplicateParameter, "'a'",
        ),
        "blank line": (
            b"chain,iter,a\n1,1,0.5\n\n1,2,0.6\n",
            ParseError, "line 3: expected 3 fields, found 1",
        ),
    }

    @staticmethod
    def place(cache: Path, at_name: str) -> None:
        """Put ``at_name`` at the cache file's name, or beside it."""
        if at_name == "symlink":
            (cache.parent / "target").write_bytes(b"left alone")
            cache.symlink_to(cache.parent / "target")
        elif at_name == "pipe":
            os.mkfifo(cache)
        elif at_name == "directory":
            cache.mkdir()
        elif at_name == "killed save's file":
            cache.with_name(f"{cache.name}.{os.getpid()}").write_bytes(b"cut")

    @pytest.mark.parametrize(
        "at_name", ["nothing", "symlink", "pipe", "directory", "killed save's file"]
    )
    @pytest.mark.parametrize("file", list(REFUSED))
    def test_read_raises_and_leaves_all_as_it_is(self, tmp_path, capfd, file, at_name):
        if at_name == "pipe" and not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        text, error, message = self.REFUSED[file]
        path = tmp_path / "f.csv"
        path.write_bytes(text)
        self.place(cache_file(path), at_name)
        before = listing(tmp_path)
        previous = signal.signal(signal.SIGALRM, wait_alarm)
        signal.alarm(10)
        try:
            for _ in range(2):
                assert outcome(read_draws, path) == (error, message)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert capfd.readouterr() == ("", "")
        assert listing(tmp_path) == before


def test_a_sparse_cache_file_claiming_2_38_rows_is_never_allocated(tmp_path, capfd, monkeypatch):
    # The writer's cache file of a 4-row CSV, its header claiming 2**36
    # times its rows and the file extended to the size that claims: a
    # sparse file of a few blocks on disk.
    path = tmp_path / "f.csv"
    write_draws(Draws(("a",), [[[0.5, 0.25], [0.75, 1.0]]]), path)
    want = outcome(read_draws, path)
    genuine = BytesIO(cache_file(path).read_bytes())
    digest = genuine.read(32)
    np.lib.format.read_magic(genuine)
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(genuine)
    claim = (*shape[:-1], shape[-1] << 36)
    header = BytesIO()
    np.lib.format.write_array_header_1_0(
        header,
        {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": fortran_order,
         "shape": claim},
    )
    cache_file(path).write_bytes(digest + header.getvalue())
    size = 32 + len(header.getvalue()) + dtype.itemsize * math.prod(claim)
    try:
        os.truncate(cache_file(path), size)
    except OSError:
        pytest.skip("the filesystem refuses a sparse file of this size")
    refuse_large_empty(monkeypatch)
    assert outcome(read_draws, path) == want
    assert capfd.readouterr() == ("", "")


class TestDatasetReadsNoCache:
    """A dataset read neither looks for, loads nor saves a cache file:
    whatever sits at the cache file's name beside it, the read gives the
    CSV's values, prints nothing and leaves the directory as it was."""

    @pytest.fixture(params=["typed parse", "line walk"])
    def dataset(self, request, tmp_path):
        """The file, what a read of it gives, the digest a draws read would
        key its cache file by, and its columns as a ``(columns, 1, rows)``
        array of draws whose first outcome is one more."""
        path = tmp_path / "f.csv"
        data = simulate_experiment(50, 3.0, -1.0, 2.0, seed=4)
        write_dataset(data, path)
        cells = np.column_stack([data.outcome, data.treatment])
        if request.param == "line walk":
            add_text_column(path)
            cells = np.column_stack([np.zeros(len(cells)), cells])
        table = cells.T[:, None, :].copy()
        table[-2, 0, 0] += 1.0  # the first outcome
        digest = hashlib.sha256(effectprob.io._CACHE_KEY + path.read_bytes()).digest()
        return path, (data.outcome.tobytes(), data.treatment.tobytes()), digest, table

    @staticmethod
    def read_leaving_all_as_it_is(path, want, capfd) -> None:
        before = listing(path.parent)
        assert outcome(read_dataset, path) == want
        assert capfd.readouterr() == ("", "")
        assert listing(path.parent) == before

    def test_a_forgery_a_draws_read_would_trust_is_ignored(self, dataset, capfd):
        path, want, digest, table = dataset
        cache_file(path).write_bytes(digest + npy(table))
        # The control: the cache loader takes the forgery for this file's values.
        loaded = effectprob.io._load(cache_file(path), digest, len(table), table.shape[2])
        assert loaded.tobytes() == table.tobytes()
        self.read_leaving_all_as_it_is(path, want, capfd)

    def test_no_cache_file_is_left(self, dataset, capfd):
        path, want, _, _ = dataset
        self.read_leaving_all_as_it_is(path, want, capfd)
        assert sorted(entry.name for entry in path.parent.iterdir()) == ["f.csv"]

    def test_the_cache_code_is_never_called(self, dataset, monkeypatch):
        path, want, _, _ = dataset

        def called(*args, **kwargs):
            raise AssertionError("a dataset read reached the parse cache")

        for name in ("_cache", "_line_ends", "_load", "_save"):
            monkeypatch.setattr(effectprob.io, name, called)
        assert outcome(read_dataset, path) == want

    FORGERIES = {
        "cut short": lambda digest, table, trap: (digest + npy(table))[: 32 + 40],
        "2**60 rows": lambda digest, table, trap: digest + npy(table, (len(table), 2**60, 1)),
        "flat": lambda digest, table, trap: digest + npy(table, (table.size,)),
        "no rows": lambda digest, table, trap: digest + npy(table[:, :, :0]),
        "big-endian": lambda digest, table, trap: digest + npy(table.astype(">f8")),
        "pickled": lambda digest, table, trap: digest + pickled(_MakesDirectory(trap)),
    }

    @pytest.mark.parametrize("forgery", list(FORGERIES))
    def test_a_forgery_of_any_form_is_left_as_it_is(self, dataset, capfd, forgery):
        path, want, digest, table = dataset
        trap = path.parent / "unpickled"
        cache_file(path).write_bytes(self.FORGERIES[forgery](digest, table, trap))
        self.read_leaving_all_as_it_is(path, want, capfd)
        assert not trap.exists()

    def test_symlink_to_a_forgery(self, dataset, capfd):
        path, want, digest, table = dataset
        (path.parent / "forgery").write_bytes(digest + npy(table))
        cache_file(path).symlink_to(path.parent / "forgery")
        self.read_leaving_all_as_it_is(path, want, capfd)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe(self, dataset, capfd):
        # With no writer, a pipe opened to read waits for one; the alarm
        # turns that wait into a failure.
        path, want, _, _ = dataset
        os.mkfifo(cache_file(path))

        def waited(signum, frame):
            raise Waited("the read waited on the pipe")

        previous = signal.signal(signal.SIGALRM, waited)
        signal.alarm(10)
        try:
            self.read_leaving_all_as_it_is(path, want, capfd)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_directory(self, dataset, capfd):
        path, want, _, _ = dataset
        cache_file(path).mkdir()
        self.read_leaving_all_as_it_is(path, want, capfd)

    def test_temporary_file_left_by_a_killed_save_of_this_pid(self, dataset, capfd):
        path, want, _, _ = dataset
        cache_file(path).with_name(f".f.csv.effectprob.{os.getpid()}").write_bytes(b"cut")
        self.read_leaving_all_as_it_is(path, want, capfd)


def pickled(value) -> bytes:
    """A one-element object array holding ``value``, in the ``.npy`` format."""
    out = BytesIO()
    np.lib.format.write_array(out, np.array([value], dtype=object), allow_pickle=True)
    return out.getvalue()


def _first_parser_call_keywords(source_file: str, function: str) -> set[str]:
    """The keyword names of the first ``_load_from_filelike(...)`` call in
    ``function`` of ``source_file``."""
    tree = ast.parse(Path(source_file).read_text(encoding="utf-8"))
    body = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    call = next(
        node for node in ast.walk(body)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load_from_filelike"
    )
    return {keyword.arg for keyword in call.keywords}


def test_typed_parse_passes_the_keywords_numpys_own_reader_passes():
    # io calls numpy's private loadtxt parser as numpy's _read does, but
    # leaves imaginary_unit at its default. A numpy release that renames,
    # adds or drops one of these keywords fails here, naming it.
    from numpy.lib import _npyio_impl

    numpy_keywords = _first_parser_call_keywords(inspect.getsourcefile(_npyio_impl), "_read")
    io_keywords = _first_parser_call_keywords(inspect.getsourcefile(effectprob.io), "_typed_table")
    expected = numpy_keywords - {"imaginary_unit"}
    assert io_keywords == expected, (
        f"only numpy's _read passes {sorted(expected - io_keywords)}; "
        f"only io passes {sorted(io_keywords - expected)}"
    )
