"""Property tests of the CSV readers and writers against two oracles.

The per-line oracles read a file one line and one cell at a time with
Python's ``float()``, exactly as the grammar in ``effectprob.io`` is
documented. The line-regex oracles are the readers as they once were,
one regular expression per body line. The production readers parse a
body of numbers at once and walk any other body line by line; they must
agree with the oracles on every input: the same values, or the same
error class with the same message.
"""

from __future__ import annotations

import re
from io import BytesIO, StringIO
from typing import NoReturn

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effectprob import io
from effectprob.draws import Draws
from effectprob.errors import (
    EffectProbError,
    MissingColumn,
    NonBinaryTreatment,
    ParseError,
    RaggedChains,
)
from effectprob.io import read_dataset, read_draws, write_dataset, write_draws
from effectprob.regress import Dataset, ModelSpec, fit, simulate_experiment

NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
INDEX = re.compile(r"[0-9]+")

PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# --- per-line oracles ----------------------------------------------------------


def _oracle_decode(line: bytes, n: int) -> str:
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"line {n}: invalid UTF-8 byte {line[exc.start]:#04x}") from None


def _oracle_lines(data: bytes) -> tuple[list[str], list[bytes]]:
    """The header's fields and the body's lines, not yet decoded."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines:
        raise ParseError("empty file")
    return _oracle_decode(lines[0], 1).split(","), lines[1:]


def _oracle_rows(lines: list[bytes], fields: int) -> list[tuple[int, list[str]]]:
    """Decode every body line, then split each and check its field count."""
    text = [_oracle_decode(line, n) for n, line in enumerate(lines, start=2)]
    rows = [(n, line.split(",")) for n, line in enumerate(text, start=2)]
    for n, parts in rows:
        if len(parts) != fields:
            raise ParseError(f"line {n}: expected {fields} fields, found {len(parts)}")
    return rows


def _oracle_number(token: str, line: int, column: str) -> float:
    if not NUMBER.fullmatch(token):
        raise ParseError(f"line {line}, column {column}: not a decimal number: {token!r}")
    return float(token)


def _oracle_index(token: str, line: int, column: str) -> int:
    if not INDEX.fullmatch(token) or int(token) < 1:
        raise ParseError(f"line {line}, column {column}: expected a positive integer, got {token!r}")
    return int(token)


def oracle_read_draws(data: bytes) -> Draws:
    header, lines = _oracle_lines(data)
    if len(header) < 3:
        raise ParseError(f"header must be chain,iter,<param,...>, got {header!r}")
    if header[0] != "chain" or header[1] != "iter":
        raise ParseError(f"header must start with 'chain,iter', got {header[0]!r},{header[1]!r}")
    names = header[2:]
    if not lines:
        raise ParseError("no draw rows after the header")
    blocks: list[list[list[float]]] = []
    for n, parts in _oracle_rows(lines, len(header)):
        chain = _oracle_index(parts[0], n, "chain")
        iteration = _oracle_index(parts[1], n, "iter")
        if chain != len(blocks):
            if chain < len(blocks):
                raise ParseError(f"line {n}: chain {chain} rows are not contiguous")
            if chain != len(blocks) + 1:
                raise ParseError(f"line {n}: expected chain {len(blocks) + 1}, found {chain}")
            blocks.append([])
        if iteration != len(blocks[-1]) + 1:
            raise ParseError(
                f"line {n}: chain {chain}: expected iter {len(blocks[-1]) + 1}, found {iteration}"
            )
        blocks[-1].append([_oracle_number(t, n, name) for t, name in zip(parts[2:], names)])
    if len({len(block) for block in blocks}) > 1:
        raise RaggedChains(f"parameter {names[0]!r}: chains have unequal lengths")
    return Draws(names, np.array(blocks).transpose(2, 0, 1))


def oracle_read_dataset(data: bytes, outcome: str = "outcome", treatment: str = "treatment") -> Dataset:
    header, lines = _oracle_lines(data)
    for column in (outcome, treatment):
        if header.count(column) == 0:
            raise MissingColumn(column)
        if header.count(column) > 1:
            raise ParseError(f"column {column!r} appears more than once in the header")
    y, d = header.index(outcome), header.index(treatment)
    outcomes, treatments = [], []
    for n, parts in _oracle_rows(lines, len(header)):
        outcomes.append(_oracle_number(parts[y], n, outcome))
        value = _oracle_number(parts[d], n, treatment)
        if value not in (0.0, 1.0):
            raise NonBinaryTreatment(f"line {n}: treatment must be 0 or 1, got {parts[d]!r}")
        treatments.append(int(value))
    return Dataset(outcome=outcomes, treatment=treatments)


# --- line-regex oracles --------------------------------------------------------
# The readers once decoded the whole file, matched every body line against
# one regular expression joined from per-column cell patterns, and parsed a
# matching body with numpy's loadtxt. Rebuilt here, they are a second oracle
# for the language the readers accept and for the values they return. A
# file they reject must be rejected by the per-line oracle too, whose error
# is then the expected one.

INDEX_CELL, NUMBER_CELL, TEXT_CELL = INDEX.pattern, NUMBER.pattern, r"[^,\n]*"


def _line_regex_table(lines: list[bytes], cells: list[str], usecols=None) -> np.ndarray | None:
    body = "".join(_oracle_decode(line, n) + "\n" for n, line in enumerate(lines, start=2))
    line = re.compile("^" + ",".join(cells) + "$", re.MULTILINE)
    if line.subn("", body)[1] != len(lines):
        return None
    return np.loadtxt(StringIO(body), delimiter=",", comments=None, ndmin=2, usecols=usecols)


def _chain_blocks(table: np.ndarray) -> list[slice] | None:
    """Each chain's rows, if chains run 1..m in order with iterations from 1."""
    starts: list[int] = []
    for row, (chain, iteration) in enumerate(table[:, :2].tolist()):
        if not starts or chain != len(starts):
            starts.append(row)
        if chain != len(starts) or iteration != row - starts[-1] + 1:
            return None
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(table)])]


def _rejected(oracle, data: bytes) -> NoReturn:
    oracle(data)
    raise AssertionError("the per-line oracle accepts a file the line regex rejects")


def line_regex_read_draws(data: bytes) -> Draws:
    header, lines = _oracle_lines(data)
    if len(header) >= 3 and header[:2] == ["chain", "iter"] and lines:
        names = header[2:]
        table = _line_regex_table(lines, [INDEX_CELL] * 2 + [NUMBER_CELL] * len(names))
        blocks = None if table is None else _chain_blocks(table)
        if blocks is not None and len({b.stop - b.start for b in blocks}) == 1:
            return Draws(names, table[:, 2:].T.reshape(len(names), len(blocks), -1))
    _rejected(oracle_read_draws, data)


def line_regex_read_dataset(data: bytes) -> Dataset:
    header, lines = _oracle_lines(data)
    if header.count("outcome") == 1 and header.count("treatment") == 1:
        y, d = header.index("outcome"), header.index("treatment")
        if not lines:
            return Dataset(outcome=[], treatment=[])
        cells = [NUMBER_CELL if i in (y, d) else TEXT_CELL for i in range(len(header))]
        table = _line_regex_table(lines, cells, (y, d))
        if table is not None and np.isin(table[:, 1], (0.0, 1.0)).all():
            return Dataset(outcome=table[:, 0], treatment=table[:, 1])
    _rejected(oracle_read_dataset, data)


def oracle_write_draws(d: Draws) -> str:
    lines = ["chain,iter," + ",".join(d.parameter_names)]
    _, chains, iterations = d.values.shape
    for c in range(chains):
        for i in range(iterations):
            cells = [str(c + 1), str(i + 1)] + [format(x, ".17g") for x in d.values[:, c, i]]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def oracle_write_dataset(data: Dataset) -> str:
    rows = [f"{format(y, '.17g')},{t}" for y, t in zip(data.outcome, data.treatment)]
    return "\n".join(["outcome,treatment", *rows]) + "\n"


# --- helpers -------------------------------------------------------------------


def _outcome(read, path):
    try:
        return read(path)
    except EffectProbError as exc:
        return type(exc), str(exc)


def _same_draws(a: Draws, b: Draws) -> bool:
    return a.parameter_names == b.parameter_names and (
        a.values.shape == b.values.shape and a.values.tobytes() == b.values.tobytes()
    )


def _same_dataset(a: Dataset, b: Dataset) -> bool:
    return a.outcome.tobytes() == b.outcome.tobytes() and (
        a.treatment.dtype == b.treatment.dtype and a.treatment.tobytes() == b.treatment.tobytes()
    )


def _same_outcome(got, want) -> bool:
    """The same values, or the same error class with the same message."""
    if isinstance(want, Draws):
        return isinstance(got, Draws) and _same_draws(got, want)
    if isinstance(want, Dataset):
        return isinstance(got, Dataset) and _same_dataset(got, want)
    return got == want


def _agree(path, content: str | bytes, read, oracle) -> None:
    path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    got = _outcome(read, path)
    want = _outcome(lambda p: oracle(p.read_bytes()), path)
    assert _same_outcome(got, want), (got, want)


def assert_draws_agree(path, content: str | bytes, oracle=oracle_read_draws) -> None:
    _agree(path, content, read_draws, oracle)


def assert_dataset_agree(path, content: str | bytes, oracle=oracle_read_dataset) -> None:
    _agree(path, content, read_dataset, oracle)


@pytest.fixture
def path(tmp_path):
    return tmp_path / "file.csv"


finite = st.floats(allow_nan=False, allow_infinity=False)
extremes = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 0.1, 1.0 / 3.0]
)
values = st.one_of(finite, extremes)
names = st.text(
    st.characters(blacklist_characters=",\n\r", blacklist_categories=("Cs",)), min_size=1, max_size=4
)


@st.composite
def draw_sets(draw) -> Draws:
    shape = (
        draw(st.integers(1, 3)),  # parameters
        draw(st.integers(1, 3)),  # chains
        draw(st.integers(2, 5)),  # iterations
    )
    params = draw(st.lists(names, min_size=shape[0], max_size=shape[0], unique=True))
    matrix = draw(arrays(np.float64, shape, elements=values))
    return Draws(params, matrix)


@st.composite
def datasets(draw) -> Dataset:
    n = draw(st.integers(3, 8))
    outcome = draw(arrays(np.float64, n, elements=values))
    treatment = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    return Dataset(outcome=outcome, treatment=treatment)


# Replacement cells: malformed numbers, out-of-grammar spellings that
# float() or int() would accept, structure breakers, and valid numbers.
CORRUPTIONS = [
    "x", "", "1.2.3", "--4", "0x1f", "1e", "nan", "inf", "1_0", " 1", "1 ", "\u0663",
    "1\x0c2", "1\u20282", "0", "00", "01", "2", "7", "1,2", "1e999", "-1e999", "1.0",
    "-0", ".5", "5.", "+3", "1E+05",
]
bad_cells = st.one_of(
    st.sampled_from(CORRUPTIONS),
    st.text(alphabet="0123456789+-.eE,x \x0c", max_size=6),
)


def corrupt(text: str, data) -> str:
    """Replace one cell of a body line (never the header) with a bad token."""
    lines = text.split("\n")
    row = data.draw(st.integers(1, len(lines) - 2), label="row")
    cells = lines[row].split(",")
    cells[data.draw(st.integers(0, len(cells) - 1), label="column")] = data.draw(bad_cells)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


# --- draws ---------------------------------------------------------------------


# The smallest valid shape (1 chain, 2 iterations) holding the extremes.
SMALLEST = Draws(
    ("lo", "hi"), [[[5e-324, -1.7976931348623157e308]], [[-0.0, 1.7976931348623157e308]]]
)


class TestDrawsProperties:
    @PROPERTY
    @given(d=draw_sets())
    @example(d=SMALLEST)
    def test_write_then_read_is_bit_exact(self, path, d):
        write_draws(d, path)
        assert _same_draws(read_draws(path), d)

    @PROPERTY
    @given(d=draw_sets())
    @example(d=SMALLEST)
    def test_read_then_write_reproduces_the_bytes(self, path, d):
        text = oracle_write_draws(d)
        path.write_bytes(text.encode("utf-8"))
        back = read_draws(path)
        write_draws(back, path)
        assert path.read_bytes() == text.encode("utf-8")

    @PROPERTY
    @given(d=draw_sets(), data=st.data())
    def test_single_cell_corruption_matches_oracle(self, path, d, data):
        assert_draws_agree(path, corrupt(oracle_write_draws(d), data))

    @PROPERTY
    @given(d=draw_sets())
    def test_no_final_newline_and_crlf_load(self, path, d):
        text = oracle_write_draws(d)
        for variant in (text[:-1], text.replace("\n", "\r\n"), text.replace("\n", "\r")):
            path.write_bytes(variant.encode("utf-8"))
            assert _same_draws(read_draws(path), d)


def every_single_cell_corruption(text: str):
    lines = text.split("\n")
    for row in range(1, len(lines) - 1):
        cells = lines[row].split(",")
        for column in range(len(cells)):
            for token in CORRUPTIONS:
                mutated = cells.copy()
                mutated[column] = token
                yield "\n".join(lines[:row] + [",".join(mutated)] + lines[row + 1 :])


SMALL_DRAWS = Draws(("a", "b"), [[[0.5, -1.25], [3.0, 1e-300]], [[-0.0, 2.0], [7.0, 0.1]]])
SMALL_DATASET = Dataset(outcome=[1.5, -2.0, 0.1], treatment=[0, 1, 1])


def test_every_single_cell_corruption_of_a_small_file_matches_oracle(path):
    for text in every_single_cell_corruption(oracle_write_draws(SMALL_DRAWS)):
        assert_draws_agree(path, text)
    for text in every_single_cell_corruption(oracle_write_dataset(SMALL_DATASET)):
        assert_dataset_agree(path, text)


def with_note_column(text: str) -> str:
    """The same file with a text column ``note`` in front of every line
    (the empty string after a final newline stays empty)."""
    header, *body = text.split("\n")
    noted = [f"r{row},{line}" if line else line for row, line in enumerate(body, start=1)]
    return "\n".join(["note," + header, *noted])


def _one_more_field(message: str) -> str:
    return re.sub(
        r"expected (\d+) fields, found (\d+)",
        lambda m: f"expected {int(m[1]) + 1} fields, found {int(m[2]) + 1}",
        message,
    )


def test_both_dataset_read_paths_agree(path):
    # A file of numbers only takes the typed parse; with a text column in
    # front (cells r1, r2, ...) it takes the line walk. Each file must give
    # the same dataset both ways, or the same error: same class, same
    # message, its field counts one apart.
    data = Dataset(outcome=[1.5, -2.0, 0.1], treatment=[0, 1, 1])
    spelled = "outcome,treatment\n1.5,1.0\n2.5,-0\n3.5,1e0\n"
    for text in [spelled, *every_single_cell_corruption(oracle_write_dataset(data))]:
        path.write_bytes(text.encode("utf-8"))
        typed = _outcome(read_dataset, path)
        path.write_bytes(with_note_column(text).encode("utf-8"))
        walked = _outcome(read_dataset, path)
        if isinstance(typed, Dataset):
            assert isinstance(walked, Dataset) and _same_dataset(walked, typed), text
        else:
            assert walked == (typed[0], _one_more_field(typed[1])), text
    path.write_bytes(spelled.encode("utf-8"))
    assert read_dataset(path).treatment.tolist() == [1, 0, 1]


class TestWriterBlocks:
    """Writers format 4,096 rows per block: files that end one row short
    of a block, on it, one row past it and five rows into a third block
    are the oracle's bytes, as is the smallest file each writer takes."""

    @pytest.mark.parametrize(
        "chains, iterations",
        [(1, 2), (3, 1365), (2, 2048), (17, 241), (7, 1171)],  # 2; 4,095; 4,096; 4,097; 8,197 rows
    )
    def test_write_draws(self, path, chains, iterations):
        rng = np.random.default_rng(iterations)
        shape = (2, chains, iterations)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        values[0, 0, 0], values[1, -1, -1] = -0.0, 5e-324
        d = Draws(("a", "b"), values)
        write_draws(d, path)
        assert path.read_bytes() == oracle_write_draws(d).encode("utf-8")

    @pytest.mark.parametrize("rows", [3, 4095, 4096, 4097, 2 * 4096 + 5])
    def test_write_dataset(self, path, rows):
        rng = np.random.default_rng(rows)
        outcome = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
        outcome[-1] = -0.0
        data = Dataset(outcome=outcome, treatment=rng.integers(0, 2, size=rows))
        write_dataset(data, path)
        assert path.read_bytes() == oracle_write_dataset(data).encode("utf-8")

    # The same row counts at the workloads' scale, where nearly every cell
    # is formatted in numpy, with a few cells %g writes in exponent
    # notation (and -0) mixed in.
    @staticmethod
    def _mix_in_exponent_notation(rng, values: np.ndarray) -> np.ndarray:
        flat = values.reshape(-1)
        where = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        flat[where] = [0.0, -0.0, 1e-5, -1e-5, 1e17, -1e17][: len(where)]
        return values

    @pytest.mark.parametrize(
        "chains, iterations",
        [(1, 2), (3, 1365), (2, 2048), (17, 241), (7, 1171)],  # 2; 4,095; 4,096; 4,097; 8,197 rows
    )
    def test_write_draws_at_workload_scale(self, path, chains, iterations):
        rng = np.random.default_rng(iterations)
        values = rng.normal(-2.5, 1.5, size=(2, chains, iterations))
        d = Draws(("a", "b"), self._mix_in_exponent_notation(rng, values))
        write_draws(d, path)
        assert path.read_bytes() == oracle_write_draws(d).encode("utf-8")

    @pytest.mark.parametrize("rows", [3, 4095, 4096, 4097, 2 * 4096 + 5])
    def test_write_dataset_at_workload_scale(self, path, rows):
        rng = np.random.default_rng(rows)
        outcome = self._mix_in_exponent_notation(rng, rng.normal(52.0, 24.0, size=rows))
        data = Dataset(outcome=outcome, treatment=rng.integers(0, 2, size=rows))
        write_dataset(data, path)
        assert path.read_bytes() == oracle_write_dataset(data).encode("utf-8")


# Doubles at the edges of the writers' numpy formatting: zeros, subnormals
# and the smallest normal, both ends of fixed notation and their
# neighbours, 17-digit ties (which round to ...2 and ...8), 2^53 + 1, the
# largest double, and the largest double below each power of ten in fixed
# notation, where rounding to 17 digits would carry if it could.
FORMAT_EDGES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308,
    *np.nextafter(1e-4, [0.0, 1e-4, 1.0]).tolist(),
    *np.nextafter(1e16, [0.0, 1e16, 1e17]).tolist(),
    99999999999999984.0, 1e17, 1000000000000000.25, 1000000000000000.75,
    9007199254740993.0, 0.1, 123.0, 0.00012, 1.7976931348623157e308,
    *np.nextafter(10.0 ** np.arange(-3, 18), 0.0).tolist(),
]
fixed_notation = st.builds(
    lambda magnitude, negative: -magnitude if negative else magnitude,
    st.floats(1e-4, 1e17, exclude_max=True),
    st.booleans(),
)


class TestBlockFormatter:
    """The writers format a double in numpy wherever ``%g`` writes fixed
    notation, and with one ``%`` per cell elsewhere: cell by cell, the
    bytes must be ``format(v, ".17g")``."""

    @settings(PROPERTY, max_examples=300)
    @given(values=st.lists(st.one_of(finite, fixed_notation), min_size=1, max_size=64))
    @example(values=FORMAT_EDGES)
    @example(values=[-v for v in FORMAT_EDGES])
    @example(values=[0.0])
    def test_cells_are_format_17g(self, values):
        lines = io._format_block([np.array(values)]).decode("ascii").split("\n")
        assert lines.pop() == ""
        assert lines == [format(v, ".17g") for v in values]

    def test_workload_values_never_take_the_per_value_path(self, path, monkeypatch):
        data = simulate_experiment(10_000, 52.0, -2.49, 24.0, seed=1)
        draws = fit(data, ModelSpec(chains=4, iterations=1_100, warmup=100, seed=1)).draws
        for values in (data.outcome, draws.values):
            magnitude = np.abs(values)
            assert ((magnitude >= 1e-4) & (magnitude < 1e17)).all()

        def refuse(x):
            raise AssertionError(f"{len(x)} cells took the per-value path")

        monkeypatch.setattr(io, "_slow_cells", refuse)
        write_dataset(data, path)
        assert path.read_bytes() == oracle_write_dataset(data).encode("utf-8")
        write_draws(draws, path)
        assert path.read_bytes() == oracle_write_draws(draws).encode("utf-8")


class TestChainLabels:
    def test_skipped_label_names_the_line(self, path):
        path.write_text("chain,iter,a\n1,1,0.5\n1,2,0.6\n7,1,0.7\n7,2,0.8\n")
        with pytest.raises(ParseError, match=r"^line 4: expected chain 2, found 7$"):
            read_draws(path)

    def test_first_label_must_be_one(self, path):
        path.write_text("chain,iter,a\n2,1,0.5\n2,2,0.6\n")
        with pytest.raises(ParseError, match=r"^line 2: expected chain 1, found 2$"):
            read_draws(path)

    def test_leading_zeros_name_the_same_chain(self, path):
        path.write_text("chain,iter,a\n1,1,0.5\n01,2,0.6\n002,01,0.7\n2,2,0.8\n")
        assert read_draws(path).values.tolist() == [[[0.5, 0.6], [0.7, 0.8]]]

    def test_huge_label_is_a_parse_error(self, path):
        path.write_text("chain,iter,a\n1,1,0.5\n1,2,0.6\n" + "9" * 5000 + ",1,0.7\n")
        with pytest.raises(ParseError, match=r"^line 4: expected chain 2, found 9+$"):
            read_draws(path)


class TestLineBreaks:
    """Only \\n (and \\r, \\r\\n via universal newlines) end a line."""

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_unicode_line_break_in_a_number_is_rejected(self, path, brk):
        path.write_text(f"chain,iter,a\n1,1,0.5{brk}1,2,0.6\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: expected 3 fields, found 5"):
            read_draws(path)

    def test_non_ascii_digits_are_rejected(self, path):
        path.write_text("chain,iter,a\n1,1,\u0663\n1,2,0.6\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2, column a: not a decimal number"):
            read_draws(path)

    def test_blank_line_is_a_field_count_error(self, path):
        path.write_text("chain,iter,a\n1,1,0.5\n\n1,2,0.6\n")
        with pytest.raises(ParseError, match="line 3: expected 3 fields, found 1"):
            read_draws(path)

    def test_field_counts_are_checked_before_cells(self, path):
        path.write_text("chain,iter,a\n1,1,x\n1,2,0.6,9\n")
        with pytest.raises(ParseError, match="line 3: expected 3 fields, found 4"):
            read_draws(path)


# --- datasets ------------------------------------------------------------------


class TestDatasetProperties:
    @PROPERTY
    @given(data=datasets())
    def test_write_then_read_is_bit_exact(self, path, data):
        write_dataset(data, path)
        assert _same_dataset(read_dataset(path), data)

    @PROPERTY
    @given(data=datasets())
    def test_read_then_write_reproduces_the_bytes(self, path, data):
        text = oracle_write_dataset(data)
        path.write_bytes(text.encode("utf-8"))
        write_dataset(read_dataset(path), path)
        assert path.read_bytes() == text.encode("utf-8")

    @PROPERTY
    @given(data=datasets(), cells=st.data())
    def test_single_cell_corruption_matches_oracle(self, path, data, cells):
        assert_dataset_agree(path, corrupt(oracle_write_dataset(data), cells))

    @PROPERTY
    @given(data=datasets())
    def test_no_final_newline_and_crlf_load(self, path, data):
        text = oracle_write_dataset(data)
        for variant in (text[:-1], text.replace("\n", "\r\n")):
            path.write_bytes(variant.encode("utf-8"))
            assert _same_dataset(read_dataset(path), data)

    def test_spelled_out_treatments_are_accepted(self, path):
        text = "outcome,treatment\n1.5,1.0\n2.5,-0\n3.5,+1e0\n4.5,0.000\n"
        assert_dataset_agree(path, text)
        assert read_dataset(path).treatment.tolist() == [1, 0, 1, 0]

    def test_other_columns_are_opaque_text(self, path):
        text = "id,outcome,note,treatment\na 1,1.5,x\x0cy,0\n2,2.5,,1\n3,3.5,nan,1\n"
        assert_dataset_agree(path, text)
        assert read_dataset(path).outcome.tolist() == [1.5, 2.5, 3.5]

    def test_treatment_error_precedes_later_parse_error(self, path):
        path.write_text("outcome,treatment\n1.5,0\n2.5,2\nx,0\n")
        with pytest.raises(NonBinaryTreatment, match="^line 3: treatment must be 0 or 1, got '2'$"):
            read_dataset(path)


# --- the accepted language against the line-regex oracles -----------------------

# Cells that loadtxt or float() would take but the decimal grammar does
# not, cells inside the byte set [0-9.+-eE] that the grammar rejects,
# characters that str.splitlines() breaks at, and valid spellings.
TRICKY_NUMBERS = [
    " 1", "1 ", "\t1", "1\t", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+Infinity",
    "1_0", "\u0663", "\uff11", "1\x0b2", "1\x852", "1\u20282", "1\x0c", "", "1e", "e1", "E", ".",
    "+", "-", "1.2.3", "1e5e5", "--1", "+-1", "1e+", ".e1", "1.e5", "-.5e-3", "5.", ".5",
    "1E+05", "0x10", "1e999", "00.50", "1,5",
]
TRICKY_INDICES = ["1.0", "1e0", "+1", "01", "001", "", " 1", "1 ", "0", "00", "2", "\u0661", "1,1"]
TRICKY_TREATMENTS = ["0", "1", "1.0", "-0", "+1e0", "0.000", "2", "0.5", "", " 1", "nan", "\u0661"]
TEXT_SAMPLES = ["café", "naïve", "日本", "\u2028", "\x85", "\x0b", "\x0c", "\x00", " ", "nan", "a b"]

rarely = st.sampled_from([False, False, False, True])
seldom = st.integers(0, 11).map(lambda k: k == 0)


@st.composite
def numbers(draw) -> str:
    if draw(seldom):
        return draw(st.sampled_from(TRICKY_NUMBERS))
    return format(draw(values), draw(st.sampled_from([".17g", "", ".3e"])))


@st.composite
def treatments(draw) -> str:
    return draw(st.sampled_from(TRICKY_TREATMENTS if draw(seldom) else ["0", "1"]))


@st.composite
def texts(draw) -> str:
    if draw(st.booleans()):
        return draw(st.sampled_from(TEXT_SAMPLES))
    return draw(
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=",\n\r"), max_size=4)
    )


def _lay_out(draw, lines: list[str]) -> bytes:
    """Join lines with a drawn line end, sometimes with a blank line, a
    trailing comma or no final newline."""
    if draw(rarely):
        lines.insert(draw(st.integers(1, len(lines))), "")
    if draw(rarely):
        lines[draw(st.integers(0, len(lines) - 1))] += ","
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (end.join(lines) + (end if draw(st.booleans()) else "")).encode("utf-8")


@st.composite
def tricky_draws_files(draw) -> bytes:
    params = draw(st.integers(1, 2))
    lines = ["chain,iter," + ",".join(f"p{p}" for p in range(params))]
    for chain in range(1, draw(st.integers(1, 2)) + 1):
        for iteration in range(1, draw(st.integers(2, 3)) + 1):
            index = [str(chain), str(iteration)]
            if draw(seldom):
                index[draw(st.integers(0, 1))] = draw(st.sampled_from(TRICKY_INDICES))
            lines.append(",".join(index + [draw(numbers()) for _ in range(params)]))
    return _lay_out(draw, lines)


@st.composite
def tricky_dataset_files(draw) -> bytes:
    header = ["outcome", "treatment"]
    for name in draw(st.lists(st.sampled_from(["id", "note"]), max_size=2, unique=True)):
        header.insert(draw(st.integers(0, len(header))), name)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(3, 5))):
        cells = {"outcome": numbers(), "treatment": treatments()}
        lines.append(",".join(draw(cells.get(name, texts())) for name in header))
    return _lay_out(draw, lines)


# Byte sequences that are not UTF-8: stray, truncated, overlong, surrogate.
NOT_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe2\x80", b"\xc0\x80", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]


def insert_invalid_utf8(data: bytes, draw) -> bytes:
    at = draw(st.integers(0, len(data)), label="at")
    return data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]


class TestAcceptedLanguage:
    """The readers accept what the line regex accepted, with the same
    values, and reject the rest with the per-line error."""

    @settings(PROPERTY, max_examples=300)
    @given(content=tricky_draws_files())
    @example(content=b"chain,iter,a\n1,1,1.0\n01,2,.5\n2,001,5.\n2,2,-0\n")
    @example(content=b"chain,iter,a\r\n1,1,1\r\n1,2,2")
    @example(content=b"chain,iter,a\n1,1, 1\n1,2,2\n")
    @example(content=b"chain,iter,a\n1,1,1\n\n1,2,2\n")
    @example(content=b"chain,iter,a\n1,1,1,\n1,2,2\n")
    @example(content=b"chain,iter,a\n1,1,Infinity\n1,2,2\n")
    @example(content="chain,iter,a\n1,1,1\x852\n1,2,2\n".encode())
    # numpy's int parser takes a leading "+" and loadtxt skips blank
    # lines; the reader refuses both itself. "1e+20" is a valid "+".
    @example(content=b"chain,iter,a\n1,1,1\n1,+2,2\n")
    @example(content=b"chain,iter,a\n+1,1,1\n1,2,2\n")
    @example(content=b"chain,iter,a\n1,1,1e+20\n1,2,2\n")
    @example(content=b"chain,iter,a\n1,1,+1\n1,2,+2e+5\n")
    @example(content=b"chain,iter,a\n1,1,1\n1,2,2\n\n")
    @example(content=b"")
    @example(content=b"chain,iter,a\n")
    def test_draws_files(self, path, content):
        assert_draws_agree(path, content)
        assert_draws_agree(path, content, oracle=line_regex_read_draws)

    @settings(PROPERTY, max_examples=300)
    @given(content=tricky_dataset_files())
    @example(content="id,outcome,treatment\ncafé,1.5,0\n\u2028,2.5,1\n日本,3,1\n".encode())
    # One line too long and the next too short: the cells regroup into
    # well-formed rows, and loadtxt, given only the used columns, takes
    # both lines.
    @example(content=b"outcome,treatment,note\n1.5,0,x,5\n1,0\n2,1,y\n")
    @example(content=b"outcome,treatment\n1_0,1\n")
    # loadtxt skips a blank line; the two-column typed parse refuses it.
    @example(content=b"outcome,treatment\n1.5,0\n\n2.5,1\n")
    @example(content=b"treatment,outcome\n0,1.5\n1,+2.5e-3\n")
    @example(content=b"outcome,treatment\n1.5,1\n2.5,0,\n")
    @example(content=b"outcome,treatment")
    @example(content=b"")
    @example(content=b"outcome,treatment,outcome\n1,0,2\n")
    # Numbers only: the typed parse, one field per column. An unused cell
    # that loadtxt refuses sends the file to the walk, which accepts it,
    # and a bad used cell gives the walk's line-numbered error.
    @example(content=b"id,outcome,treatment\n1,1.5,0\n2,-2.5e3,1\n3,.5,1\n")
    @example(content=b"id,outcome,treatment\n1.2.3,1.5,0\n,2.5,1\n--,3.5,1\n")
    @example(content=b"id,outcome,treatment\n1,1.5,0\n2,1.2.3,1\n3,3.5,1\n")
    def test_dataset_files(self, path, content):
        assert_dataset_agree(path, content)
        assert_dataset_agree(path, content, oracle=line_regex_read_dataset)

    @settings(PROPERTY, max_examples=200)
    @given(content=st.one_of(tricky_draws_files(), tricky_dataset_files()), data=st.data())
    def test_bytes_that_are_not_utf8(self, path, content, data):
        content = insert_invalid_utf8(content, data.draw)
        if content.startswith(b"chain"):
            assert_draws_agree(path, content)
        else:
            assert_dataset_agree(path, content)

    def test_invalid_utf8_names_its_line(self, path):
        path.write_bytes(b"chain,iter,a\r\n1,1,1.0\r\n1,2,\xff\r\n")
        with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 byte 0xff$"):
            read_draws(path)
        path.write_bytes(b"outcome,treatment,note\n1.5,0,a\n2.5,1,caf\xc3\n")
        with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 byte 0xc3$"):
            read_dataset(path)
        path.write_bytes(b"outcome,treatment,n\xffote\n1.5,0,a\n")
        with pytest.raises(ParseError, match=r"^line 1: invalid UTF-8 byte 0xff$"):
            read_dataset(path)

    def test_utf8_text_in_ignored_columns_loads(self, path):
        path.write_text(
            "note,outcome,treatment\ncafé,1.5,0\n日本\u2028,2.5,1\n\x85,3.5,1\n", encoding="utf-8"
        )
        data = read_dataset(path)
        assert data.outcome.tolist() == [1.5, 2.5, 3.5]
        assert data.treatment.tolist() == [0, 1, 1]


# --- the typed parse's chunks --------------------------------------------------


def _bad_cell_across(edge: int) -> str:
    """A draws file whose body byte ``edge`` falls inside the cell ``1.2.3``
    of line 3; line 2's value is zero-padded to put it there (edge >= 14)."""
    return f"chain,iter,a\n1,1,{'0' * (edge - 14)}1.5\n1,2,1.2.3\n1,3,0.5\n"


def _long_chains_text() -> str:
    """Four chains of an iid ``beta1`` and a random-walk ``slow``, as
    long_chains is shaped, with cells in exponent notation in both."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=(2, 4, 60))
    values[1] = np.cumsum(values[1], axis=1)
    values[0, :, ::7] *= 1e-9
    values[1, :, ::11] *= 1e20
    return oracle_write_draws(Draws(("beta1", "slow"), values))


CHUNK_CORPUS = {
    "figure1": lambda: oracle_write_draws(
        Draws(("theta",), np.random.default_rng(1).normal(-2.49, 1.3, (1, 1, 1000)))
    ),
    "fit": lambda: oracle_write_draws(
        fit(
            simulate_experiment(30, 50.0, -2.5, 24.0, seed=3),
            ModelSpec(chains=2, iterations=40, warmup=10, seed=3),
        ).draws
    ),
    "long_chains": _long_chains_text,
    "dataset": lambda: oracle_write_dataset(simulate_experiment(300, 52.0, -2.49, 24.0, seed=1)),
    "blank line": lambda: "chain,iter,a\n1,1,0.5\n\n1,2,0.6\n",
    "bad cell": lambda: _bad_cell_across(7),
    "bad cell across 16 KiB": lambda: _bad_cell_across(16384),
    "signed index": lambda: "chain,iter,a\n1,1,1\n1,+2,2\n",
}


def _read_in_chunks(monkeypatch, path, size: int | None):
    """The reader's outcome, the tables the typed parse returned and the
    sizes the parser asked for, with chunks of at most ``size`` bytes."""
    tables, sizes = [], []
    typed = io._typed_table

    def spy(*args):
        tables.append(typed(*args))
        return tables[-1]

    class Chunked(BytesIO):
        def read(self, n=-1):
            sizes.append(n)
            return super().read(n if size is None else min(n, size))

    reader = read_draws if path.read_bytes().startswith(b"chain") else read_dataset
    with monkeypatch.context() as m:
        m.setattr(io, "_typed_table", spy)
        m.setattr(io, "BytesIO", Chunked)
        return _outcome(reader, path), tables, sizes


def _same_tables(got: list, want: list) -> bool:
    """Tables of the same records, or None in the same places."""
    if [t is None for t in got] != [t is None for t in want]:
        return False
    pairs = [(a, b) for a, b in zip(got, want) if a is not None]
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in pairs)


class TestChunkEdges:
    """The typed parse reads the body in chunks of 16 KiB. Chunks of any
    size give the same tables, values, errors and messages."""

    @pytest.mark.parametrize("size", [1, 2, 7])
    @pytest.mark.parametrize("name", CHUNK_CORPUS)
    def test_small_chunks_read_the_same(self, path, monkeypatch, name, size):
        path.write_text(CHUNK_CORPUS[name](), encoding="utf-8")
        want, want_tables, sizes = _read_in_chunks(monkeypatch, path, None)
        got, got_tables, _ = _read_in_chunks(monkeypatch, path, size)
        assert set(sizes) == {16384}
        assert _same_outcome(got, want)
        assert len(want_tables) == 1 and _same_tables(got_tables, want_tables)

    @pytest.mark.parametrize("name", ["long_chains", "bad cell across 16 KiB"])
    def test_normal_chunks_match_the_oracle(self, path, name):
        content = CHUNK_CORPUS[name]()
        assert_draws_agree(path, content)
        assert_draws_agree(path, content, oracle=line_regex_read_draws)

    @pytest.mark.parametrize("size", [1, 7])
    def test_every_single_cell_corruption_reads_the_same(self, path, monkeypatch, size):
        for text in [
            *every_single_cell_corruption(oracle_write_draws(SMALL_DRAWS)),
            *every_single_cell_corruption(oracle_write_dataset(SMALL_DATASET)),
        ]:
            path.write_text(text, encoding="utf-8")
            want, want_tables, _ = _read_in_chunks(monkeypatch, path, None)
            got, got_tables, _ = _read_in_chunks(monkeypatch, path, size)
            assert _same_outcome(got, want), text
            assert _same_tables(got_tables, want_tables), text
