"""Text interchange for draw matrices and experiment datasets.

Both formats are plain comma-separated text. Draw files carry a fixed
``chain,iter`` prefix followed by one column per parameter; dataset files
carry one outcome column and one 0/1 treatment column. Numbers are
written with 17 significant digits, which is lossless for 64-bit floats,
so write-then-read reproduces values bit-exactly.

Lines end at ``\\n``. Files are decoded as UTF-8 with universal newlines,
so ``\\r\\n`` and ``\\r`` line ends load too, and a final newline is
optional. Other characters that :meth:`str.splitlines` treats as line
breaks (``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``,
``\\u2029``) are ordinary characters: a numeric cell containing one is a
parse error.

Draw files must number chains 1..m in file order, each chain in one
contiguous block of rows with iterations numbered from 1. So every
accepted draws file is exactly what :func:`write_draws` would write for
its values, up to the spelling of the numbers.

Cost model. A read decodes the file once, checks every line of the body
against one compiled regular expression (one pass in C), and parses all
numeric cells in numpy's C text parser: O(file bytes) in C, no Python
call per cell. Chain, iteration and treatment columns are then checked
with O(rows) vectorised comparisons. Only when a check fails does a
per-line pass run, to raise the first error with its line number; it
never returns values. A write costs one ``%`` format per row.
"""

from __future__ import annotations

import re
from io import StringIO
from pathlib import Path
from typing import NoReturn

import numpy as np

from .draws import Draws, validate
from .errors import MissingColumn, NonBinaryTreatment, ParseError
from .regress import Dataset

# Strict decimal grammar: optional sign, ASCII digits with optional
# fraction or bare fraction, optional exponent. Deliberately excludes
# nan/inf text, underscores, non-ASCII digits, and surrounding whitespace
# that float() would coerce.
_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_INDEX = r"[0-9]+"
_TEXT = r"[^,\n]*"  # a dataset column that is neither outcome nor treatment
_NUMBER_RE = re.compile(_NUMBER)
_INDEX_RE = re.compile(_INDEX)


def _read(path: str | Path) -> tuple[list[str], str]:
    """Return the header's fields and the body text after the header line."""
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise ParseError("empty file")
    header, _, body = text.partition("\n")
    return header.split(","), body


def _row_count(body: str) -> int:
    return body.count("\n") + (not body.endswith("\n")) if body else 0


def _all_lines_match(cells: list[str], body: str, rows: int) -> bool:
    """Whether every body line is the given cell patterns joined by commas.

    A match spans exactly one whole line, so every line matches exactly
    when the number of matches equals the number of lines. ``subn``
    counts them without keeping the matched text.
    """
    line = re.compile("^" + ",".join(cells) + "$", re.MULTILINE)
    return line.subn("", body)[1] == rows


def _parse(body: str, columns: tuple[int, ...] | None = None) -> np.ndarray:
    """Parse a body the grammar check accepted into a (rows, columns) table."""
    return np.loadtxt(
        StringIO(body), delimiter=",", comments=None, ndmin=2, usecols=columns
    )


def _lines(body: str, fields: int) -> list[tuple[int, list[str]]]:
    """Split the body into line-numbered cells, checking field counts first."""
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = [(lineno, line.split(",")) for lineno, line in enumerate(lines, start=2)]
    for lineno, parts in rows:
        if len(parts) != fields:
            raise ParseError(f"line {lineno}: expected {fields} fields, found {len(parts)}")
    return rows


def _check_number(token: str, line: int, column: str) -> None:
    if not _NUMBER_RE.fullmatch(token):
        raise ParseError(f"line {line}, column {column}: not a decimal number: {token!r}")


def _index(token: str, line: int, column: str) -> str:
    """A positive integer cell, returned as its digits without leading zeros."""
    digits = token.lstrip("0")
    if not _INDEX_RE.fullmatch(token) or not digits:
        raise ParseError(f"line {line}, column {column}: expected a positive integer, got {token!r}")
    return digits


def _raise_draws_error(body: str, names: list[str]) -> NoReturn:
    """Raise the first line-numbered error of a draws body that failed a check."""
    chains = count = 0
    for lineno, parts in _lines(body, len(names) + 2):
        chain = _index(parts[0], lineno, "chain")
        iteration = _index(parts[1], lineno, "iter")
        if chain != str(chains):
            if chain != str(chains + 1):
                # Compare lengths first: int() refuses very long digit strings.
                if len(chain) <= len(str(chains)) and int(chain) <= chains:
                    raise ParseError(f"line {lineno}: chain {chain} rows are not contiguous")
                raise ParseError(f"line {lineno}: expected chain {chains + 1}, found {chain}")
            chains += 1
            count = 0
        count += 1
        if iteration != str(count):
            raise ParseError(
                f"line {lineno}: chain {chain}: expected iter {count}, found {iteration}"
            )
        for token, name in zip(parts[2:], names):
            _check_number(token, lineno, name)
    raise ParseError("draws body failed the line grammar")


def write_draws(d: Draws, path: str | Path) -> None:
    """Write a draws file: header ``chain,iter,<params>``, chain-major rows."""
    params, chains, iterations = d.values.shape
    table = np.empty((chains * iterations, 2 + params))
    table[:, 0] = np.repeat(np.arange(1, chains + 1), iterations)
    table[:, 1] = np.tile(np.arange(1, iterations + 1), chains)
    table[:, 2:] = d.values.reshape(params, -1).T
    row = "%d,%d" + ",%.17g" * params
    lines = ["chain,iter," + ",".join(d.parameter_names)]
    lines += [row % tuple(cells) for cells in table.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_draws(path: str | Path) -> Draws:
    """Parse a draws file and validate it into :class:`Draws`.

    Grammar errors (bad header, non-numeric cells, chains not numbered
    1..m in file order, non-contiguous iteration numbers, repeated chain
    blocks) raise :class:`ParseError` with the offending line; structural
    violations (ragged chains, non-finite values, duplicate parameters)
    propagate from draw validation.
    """
    header, body = _read(path)
    if len(header) < 3:
        raise ParseError(f"header must be chain,iter,<param,...>, got {header!r}")
    if header[0] != "chain" or header[1] != "iter":
        raise ParseError(f"header must start with 'chain,iter', got {header[0]!r},{header[1]!r}")
    names = header[2:]

    rows = _row_count(body)
    if not rows:
        raise ParseError("no draw rows after the header")
    if not _all_lines_match([_INDEX, _INDEX] + [_NUMBER] * len(names), body, rows):
        _raise_draws_error(body, names)
    table = _parse(body)

    # Chain c is rows starts[c - 1] up to the next start; a new block
    # begins wherever the chain label changes.
    chain, iteration = table[:, 0], table[:, 1]
    new_block = np.empty(rows, dtype=bool)
    new_block[0] = True
    np.not_equal(chain[1:], chain[:-1], out=new_block[1:])
    block = np.cumsum(new_block)
    starts = np.flatnonzero(new_block)
    expected_iter = np.arange(1, rows + 1) - starts[block - 1]
    if not (np.array_equal(chain, block) and np.array_equal(iteration, expected_iter)):
        _raise_draws_error(body, names)

    # Per parameter, one series per chain; validation rejects ragged chains.
    return validate([(name, np.split(table[:, 2 + p], starts[1:])) for p, name in enumerate(names)])


def write_dataset(
    data: Dataset,
    path: str | Path,
    outcome_column: str = "outcome",
    treatment_column: str = "treatment",
) -> None:
    """Write a dataset file: one header row, one row per unit."""
    lines = [f"{outcome_column},{treatment_column}"]
    lines += [
        "%.17g,%d" % cells
        for cells in zip(data.outcome.tolist(), data.treatment.tolist())
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_dataset(
    path: str | Path, outcome_column: str = "outcome", treatment_column: str = "treatment"
) -> Dataset:
    """Parse a dataset file, enforcing the binary-treatment contract.

    Columns other than the two named ones are ignored and may hold any
    text without a comma.

    Raises
    ------
    MissingColumn
        Either named column is absent from the header.
    ParseError
        A cell does not parse as a decimal number.
    NonBinaryTreatment
        A treatment cell parses to something other than 0 or 1.
    """
    header, body = _read(path)
    for column in (outcome_column, treatment_column):
        if header.count(column) == 0:
            raise MissingColumn(column)
        if header.count(column) > 1:
            raise ParseError(f"column {column!r} appears more than once in the header")
    y_idx = header.index(outcome_column)
    d_idx = header.index(treatment_column)

    rows = _row_count(body)
    cells = [_NUMBER if i in (y_idx, d_idx) else _TEXT for i in range(len(header))]
    if not _all_lines_match(cells, body, rows):
        _raise_dataset_error(body, header, y_idx, d_idx)
    if not rows:
        return Dataset(outcome=[], treatment=[])
    table = _parse(body, (y_idx, d_idx))
    outcome, treatment = table[:, 0], table[:, 1]
    if not ((treatment == 0.0) | (treatment == 1.0)).all():
        _raise_dataset_error(body, header, y_idx, d_idx)
    return Dataset(outcome=outcome, treatment=treatment)


def _raise_dataset_error(body: str, header: list[str], y_idx: int, d_idx: int) -> NoReturn:
    """Raise the first line-numbered error of a dataset body that failed a check."""
    for lineno, parts in _lines(body, len(header)):
        _check_number(parts[y_idx], lineno, header[y_idx])
        _check_number(parts[d_idx], lineno, header[d_idx])
        if float(parts[d_idx]) not in (0.0, 1.0):
            raise NonBinaryTreatment(
                f"line {lineno}: treatment must be 0 or 1, got {parts[d_idx]!r}"
            )
    raise ParseError("dataset body failed the line grammar")
