"""Text interchange for draw matrices and experiment datasets.

Both formats are plain comma-separated text. Draw files carry a fixed
``chain,iter`` prefix followed by one column per parameter; dataset files
carry one outcome column and one 0/1 treatment column. Numbers are
written with 17 significant digits, which is lossless for 64-bit floats,
so write-then-read reproduces values bit-exactly.

Files are UTF-8; a byte that is not raises :class:`ParseError` naming
its line. Lines end at ``\\n``; ``\\r\\n`` and ``\\r`` line ends load too,
and a final newline is optional. Other characters that
:meth:`str.splitlines` treats as line breaks (``\\v``, ``\\f``,
``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``, ``\\u2029``) are ordinary
characters: a numeric cell containing one is a parse error.

Draw files must number chains 1..m in file order, each chain in one
contiguous block of rows with iterations numbered from 1. So every
accepted draws file is exactly what :func:`write_draws` would write for
its values, up to the spelling of the numbers.

Cost model. A read keeps the file as one ``bytes`` buffer. It decodes
the header, but decodes the body only when a dataset's text column holds
non-ASCII bytes or a check fails. One vectorised scan finds every comma
and newline, which gives every cell's span and checks every line's field
count. A 256-entry byte-class table, applied with :meth:`bytes.translate`
and reduced over the cell spans with ``np.maximum.reduceat``, checks that
index cells hold only digits and number cells only ``[0-9.+-eE]``.
numpy's C text parser then reads the numeric cells from the same buffer;
within that byte set it accepts exactly the decimal grammar. All of this
is O(file bytes) in C, with no Python call per cell, and holds about
three times the file's size at its peak. Treatment cells are then
checked in one O(rows) pass, and chain and iteration cells in one O(rows)
comparison with the only layout an accepted file can have: with m the
last chain label and k = rows / m, row r holds chain r // k + 1 and
iteration r % k + 1. The values go to :class:`Draws` as one strided view
of the table, which it copies once. Only when a check fails is the body
decoded and walked line by line, to raise the first error with its line
number (or :class:`RaggedChains` if every line is well formed); that
pass never returns values. A write formats ``_BLOCK_ROWS`` rows at a
time, one ``%`` format per row, into one open file, so it holds one
block's text rather than the file's.
"""

from __future__ import annotations

import re
from io import BytesIO
from pathlib import Path
from typing import NoReturn

import numpy as np

from .draws import Draws
from .errors import MissingColumn, NonBinaryTreatment, ParseError, RaggedChains
from .regress import Dataset

# Strict decimal grammar: optional sign, ASCII digits with optional
# fraction or bare fraction, optional exponent. Deliberately excludes
# nan/inf text, underscores, non-ASCII digits, and surrounding whitespace
# that float() would coerce.
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_INDEX_RE = re.compile(r"[0-9]+")

# Byte classes, in increasing order. A cell's class is the highest class
# among its bytes and the separator that ends it, so an empty cell has
# class _SEPARATOR.
_SEPARATOR, _DIGIT, _SYMBOL, _ASCII, _NON_ASCII = range(5)
_BYTE_CLASS = bytes(
    _SEPARATOR if byte in b",\n"
    else _DIGIT if byte in b"0123456789"
    else _SYMBOL if byte in b".+-eE"
    else _ASCII if byte < 0x80
    else _NON_ASCII
    for byte in range(256)
)
# The lowest and highest class a column of each kind allows.
_INDEX_CELL = (_DIGIT, _DIGIT)
_NUMBER_CELL = (_DIGIT, _SYMBOL)
_TEXT_CELL = (_SEPARATOR, _NON_ASCII)  # neither outcome nor treatment

_BLOCK_ROWS = 4096  # rows a writer formats per write call


def _read(path: str | Path) -> tuple[bytes, list[str], int]:
    """Return the file with ``\\n`` line ends and a final newline, the
    header's fields, and the offset where the body starts."""
    data = Path(path).read_bytes()
    if not data:
        raise ParseError("empty file")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    start = data.index(b"\n") + 1
    return data, _decode(data, 0, start - 1).split(","), start


def _decode(data: bytes, start: int, stop: int | None = None) -> str:
    """Decode ``data[start:stop]``; a byte that is not UTF-8 is a ParseError."""
    try:
        return str(memoryview(data)[start:stop], "utf-8")
    except UnicodeDecodeError as exc:
        at = start + exc.start
        line = data.count(b"\n", 0, at) + 1
        raise ParseError(f"line {line}: invalid UTF-8 byte {data[at]:#04x}") from None


def _table(
    data: bytes,
    start: int,
    columns: list[tuple[int, int]],
    usecols: tuple[int, ...] | None = None,
) -> np.ndarray | None:
    """Check a non-empty body and parse its numeric cells into a table.

    ``columns`` gives each field's lowest and highest allowed byte class.
    Returns None when a line has the wrong number of fields, a cell holds
    a byte its column does not allow, or numpy does not parse every row.
    """
    fields = len(columns)
    raw = np.frombuffer(data, np.uint8)
    is_end = raw == ord(",")
    is_end |= raw == ord("\n")
    ends = np.flatnonzero(is_end)
    del is_end  # each scan array is freed as soon as it is used
    # Every line, the header included, ends its cells with fields - 1
    # commas and then a newline.
    line_end = np.full(fields, ord(","), np.uint8)
    line_end[-1] = ord("\n")
    if ends.size % fields or not (raw[ends].reshape(-1, fields) == line_end).all():
        return None

    # A body cell spans from one past the previous separator up to the
    # next cell's start, so it includes its own ending separator.
    ends += 1
    classes = np.frombuffer(data.translate(_BYTE_CLASS), np.uint8)
    cells = np.maximum.reduceat(classes, ends[fields - 1 : -1]).reshape(-1, fields)
    del classes, ends
    lowest, highest = np.array(columns, dtype=np.uint8).T
    if not ((lowest <= cells) & (cells <= highest)).all():
        return None
    if (cells == _NON_ASCII).any():
        _decode(data, start)  # text cells may hold any UTF-8, and only UTF-8

    try:
        table = np.loadtxt(
            BytesIO(data), delimiter=",", comments=None, skiprows=1, ndmin=2,
            usecols=usecols, encoding="latin1",
        )
    except ValueError:
        return None
    return table if table.shape == (len(cells), len(usecols or columns)) else None


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


def _raise_draws_error(data: bytes, start: int, names: list[str]) -> NoReturn:
    """Raise the first line-numbered error of a draws body that failed a
    check, or :class:`RaggedChains` if every line is well formed."""
    chains = count = 0
    for lineno, parts in _lines(_decode(data, start), len(names) + 2):
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
    # Every line is well formed and the chains run 1..m in order, so the
    # layout check failed because the chains differ in length.
    raise RaggedChains(f"parameter {names[0]!r}: chains have unequal lengths")


def write_draws(d: Draws, path: str | Path) -> None:
    """Write a draws file: header ``chain,iter,<params>``, chain-major rows."""
    params, chains, iterations = d.values.shape
    rows = chains * iterations
    columns = d.values.reshape(params, rows)
    row = "%d,%d" + ",%.17g" * params + "\n"
    with Path(path).open("w", encoding="utf-8") as out:
        out.write("chain,iter," + ",".join(d.parameter_names) + "\n")
        for first in range(0, rows, _BLOCK_ROWS):
            stop = min(first + _BLOCK_ROWS, rows)
            chain, iteration = np.divmod(np.arange(first, stop), iterations)
            values = columns[:, first:stop].tolist()
            cells = zip((chain + 1).tolist(), (iteration + 1).tolist(), *values)
            out.write("".join([row % line for line in cells]))


def read_draws(path: str | Path) -> Draws:
    """Parse a draws file into :class:`Draws`.

    Grammar errors (bad header, non-numeric cells, chains not numbered
    1..m in file order, non-contiguous iteration numbers, repeated chain
    blocks, bytes that are not UTF-8) raise :class:`ParseError` with the
    offending line; chains of unequal length raise :class:`RaggedChains`;
    the checks of :class:`Draws` (non-finite values, duplicate or empty
    parameter names, one iteration per chain) raise its errors.
    """
    data, header, start = _read(path)
    if len(header) < 3:
        raise ParseError(f"header must be chain,iter,<param,...>, got {header!r}")
    if header[0] != "chain" or header[1] != "iter":
        raise ParseError(f"header must start with 'chain,iter', got {header[0]!r},{header[1]!r}")
    names = header[2:]

    if start == len(data):
        raise ParseError("no draw rows after the header")
    table = _table(data, start, [_INDEX_CELL] * 2 + [_NUMBER_CELL] * len(names))
    if table is None:
        _raise_draws_error(data, start, names)

    # Every chain has k = rows / m rows, m being the last chain label: row
    # r holds chain r // k + 1 and iteration r % k + 1. m is checked to be
    # at most the row count first, so a huge label never reaches int().
    rows, fields = table.shape
    last = table[-1, 0]
    if not (1 <= last <= rows and rows % last == 0):
        _raise_draws_error(data, start, names)
    m = int(last)
    k = rows // m
    blocks = table.reshape(m, k, fields)
    if not (
        (blocks[:, :, 0] == np.arange(1, m + 1)[:, None]).all()
        and (blocks[:, :, 1] == np.arange(1, k + 1)).all()
    ):
        _raise_draws_error(data, start, names)
    return Draws(parameter_names=tuple(names), values=blocks[:, :, 2:].transpose(2, 0, 1))


def write_dataset(
    data: Dataset,
    path: str | Path,
    outcome_column: str = "outcome",
    treatment_column: str = "treatment",
) -> None:
    """Write a dataset file: one header row, one row per unit."""
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(f"{outcome_column},{treatment_column}\n")
        for first in range(0, len(data.outcome), _BLOCK_ROWS):
            block = slice(first, first + _BLOCK_ROWS)
            cells = zip(data.outcome[block].tolist(), data.treatment[block].tolist())
            out.write("".join(["%.17g,%d\n" % line for line in cells]))


def read_dataset(
    path: str | Path, outcome_column: str = "outcome", treatment_column: str = "treatment"
) -> Dataset:
    """Parse a dataset file, enforcing the binary-treatment contract.

    Columns other than the two named ones are ignored and may hold any
    UTF-8 text without a comma.

    Raises
    ------
    MissingColumn
        Either named column is absent from the header.
    ParseError
        A cell does not parse as a decimal number, or a byte is not UTF-8.
    NonBinaryTreatment
        A treatment cell parses to something other than 0 or 1.
    """
    data, header, start = _read(path)
    for column in (outcome_column, treatment_column):
        if header.count(column) == 0:
            raise MissingColumn(column)
        if header.count(column) > 1:
            raise ParseError(f"column {column!r} appears more than once in the header")
    y_idx = header.index(outcome_column)
    d_idx = header.index(treatment_column)

    if start == len(data):
        return Dataset(outcome=[], treatment=[])
    columns = [_NUMBER_CELL if i in (y_idx, d_idx) else _TEXT_CELL for i in range(len(header))]
    table = _table(data, start, columns, (y_idx, d_idx))
    if table is None:
        _raise_dataset_error(data, start, header, y_idx, d_idx)
    outcome, treatment = table[:, 0], table[:, 1]
    if not ((treatment == 0.0) | (treatment == 1.0)).all():
        _raise_dataset_error(data, start, header, y_idx, d_idx)
    return Dataset(outcome=outcome, treatment=treatment)


def _raise_dataset_error(
    data: bytes, start: int, header: list[str], y_idx: int, d_idx: int
) -> NoReturn:
    """Raise the first line-numbered error of a dataset body that failed a check."""
    for lineno, parts in _lines(_decode(data, start), len(header)):
        _check_number(parts[y_idx], lineno, header[y_idx])
        _check_number(parts[d_idx], lineno, header[d_idx])
        if float(parts[d_idx]) not in (0.0, 1.0):
            raise NonBinaryTreatment(
                f"line {lineno}: treatment must be 0 or 1, got {parts[d_idx]!r}"
            )
    raise ParseError("dataset body failed the line grammar")
