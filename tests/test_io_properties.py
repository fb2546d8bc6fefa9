"""Property tests of the CSV readers and writers against per-line oracles.

The oracles below read a file one line and one cell at a time with
Python's ``float()``, exactly as the grammar in ``effectprob.io`` is
documented. The production readers check and parse the whole body at
once; they must agree with the oracles on every input: the same values,
or the same error class with the same message.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effectprob.draws import Draws, validate
from effectprob.errors import EffectProbError, MissingColumn, NonBinaryTreatment, ParseError
from effectprob.io import read_dataset, read_draws, write_dataset, write_draws
from effectprob.regress import Dataset

NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
INDEX = re.compile(r"[0-9]+")

PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


# --- per-line oracles ----------------------------------------------------------


def _oracle_lines(text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty file")
    header = lines[0].split(",")
    rows = [(n, line.split(",")) for n, line in enumerate(lines[1:], start=2)]
    return header, rows


def _oracle_field_counts(rows, fields: int) -> None:
    for n, parts in rows:
        if len(parts) != fields:
            raise ParseError(f"line {n}: expected {fields} fields, found {len(parts)}")


def _oracle_number(token: str, line: int, column: str) -> float:
    if not NUMBER.fullmatch(token):
        raise ParseError(f"line {line}, column {column}: not a decimal number: {token!r}")
    return float(token)


def _oracle_index(token: str, line: int, column: str) -> int:
    if not INDEX.fullmatch(token) or int(token) < 1:
        raise ParseError(f"line {line}, column {column}: expected a positive integer, got {token!r}")
    return int(token)


def oracle_read_draws(text: str) -> Draws:
    header, rows = _oracle_lines(text)
    if len(header) < 3:
        raise ParseError(f"header must be chain,iter,<param,...>, got {header!r}")
    if header[0] != "chain" or header[1] != "iter":
        raise ParseError(f"header must start with 'chain,iter', got {header[0]!r},{header[1]!r}")
    names = header[2:]
    _oracle_field_counts(rows, len(header))
    if not rows:
        raise ParseError("no draw rows after the header")
    blocks: list[list[list[float]]] = []
    for n, parts in rows:
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
    return validate(
        [(name, [[row[p] for row in block] for block in blocks]) for p, name in enumerate(names)]
    )


def oracle_read_dataset(text: str, outcome: str = "outcome", treatment: str = "treatment") -> Dataset:
    header, rows = _oracle_lines(text)
    for column in (outcome, treatment):
        if header.count(column) == 0:
            raise MissingColumn(column)
        if header.count(column) > 1:
            raise ParseError(f"column {column!r} appears more than once in the header")
    y, d = header.index(outcome), header.index(treatment)
    _oracle_field_counts(rows, len(header))
    outcomes, treatments = [], []
    for n, parts in rows:
        outcomes.append(_oracle_number(parts[y], n, outcome))
        value = _oracle_number(parts[d], n, treatment)
        if value not in (0.0, 1.0):
            raise NonBinaryTreatment(f"line {n}: treatment must be 0 or 1, got {parts[d]!r}")
        treatments.append(int(value))
    return Dataset(outcome=outcomes, treatment=treatments)


def oracle_write_draws(d: Draws) -> str:
    lines = ["chain,iter," + ",".join(d.parameter_names)]
    for c in range(d.chains):
        for i in range(d.iterations_per_chain):
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


def assert_draws_agree(path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(read_draws, path)
    want = _outcome(lambda p: oracle_read_draws(p.read_text(encoding="utf-8")), path)
    if isinstance(want, Draws):
        assert isinstance(got, Draws), got
        assert _same_draws(got, want)
    else:
        assert got == want


def assert_dataset_agree(path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(read_dataset, path)
    want = _outcome(lambda p: oracle_read_dataset(p.read_text(encoding="utf-8")), path)
    if isinstance(want, Dataset):
        assert isinstance(got, Dataset), got
        assert _same_dataset(got, want)
    else:
        assert got == want


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
    return validate({name: matrix[p] for p, name in enumerate(params)})


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
SMALLEST = validate(
    {"lo": [[5e-324, -1.7976931348623157e308]], "hi": [[-0.0, 1.7976931348623157e308]]}
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


def test_every_single_cell_corruption_of_a_small_file_matches_oracle(path):
    d = validate({"a": [[0.5, -1.25], [3.0, 1e-300]], "b": [[-0.0, 2.0], [7.0, 0.1]]})
    for text in every_single_cell_corruption(oracle_write_draws(d)):
        assert_draws_agree(path, text)
    data = Dataset(outcome=[1.5, -2.0, 0.1], treatment=[0, 1, 1])
    for text in every_single_cell_corruption(oracle_write_dataset(data)):
        assert_dataset_agree(path, text)


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
