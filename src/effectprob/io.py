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

A writer refuses, with :class:`InvalidArgument` and before it opens the
file, a header name its reader would not read back: one holding ``,``,
``\\n`` or ``\\r``, one not encodable as UTF-8, or two equal dataset
column names.

Cost model. A read keeps the file as one ``bytes`` buffer. A body made
only of the number alphabet ``[0-9.+-eE,\\n]`` takes the typed parse,
three O(file bytes) passes in C with no Python call per cell: one
:meth:`bytes.translate` deletes the alphabet and must leave only what it
leaves of the header; one ``np.loadtxt`` call checks every line's field
count and parses every cell into typed records, and within the alphabet
accepts exactly the decimal grammar; one line count must equal the rows
parsed, because loadtxt skips blank lines. A draws record holds two
int64 index fields, whose parser refuses empty and non-integer cells
but takes a leading ``+`` (so a body holding a ``+`` is searched for an
index cell that starts with one), and one float64 field per parameter.
One O(rows) pass compares the index fields with the only layout an
accepted file can have, and the values go to :class:`Draws` as one
strided view of the records, which it copies once. A dataset record
holds one float64 field per header column, whatever the column count,
and one O(rows) pass checks the treatment cells. Either read peaks at
about twice the file's size.

Any other body is decoded and walked line by line: every line's field
count first, then each line's cells against the grammar. A dataset that
holds text, an unused cell loadtxt refuses (``1.2.3``, an empty cell) or
a treatment that is not 0/1 takes the walk, which returns the values of
an accepted body and raises the first line-numbered error otherwise. It
makes Python calls per line: a 200k-row dataset with one text column
reads in about 0.6 s on one core of a 2-vCPU Xeon VM, peaking at about
6.3 times the file's size. A draws body takes the walk only after a
check failed, to raise its first line-numbered error, or
:class:`RaggedChains` if every line is well formed.

A write formats ``_BLOCK_ROWS`` rows at a time into one open file, with
one ``%``: the row format repeated once per row, applied to the block's
cells interleaved row by row. It holds one block's text, not the file's.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Iterator
from io import BytesIO
from pathlib import Path
from typing import NoReturn

import numpy as np

from .draws import Draws
from .errors import InvalidArgument, MissingColumn, NonBinaryTreatment, ParseError, RaggedChains
from .regress import Dataset

# Strict decimal grammar: optional sign, ASCII digits with optional
# fraction or bare fraction, optional exponent. Deliberately excludes
# nan/inf text, underscores, non-ASCII digits, and surrounding whitespace
# that float() would coerce.
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_INDEX_RE = re.compile(r"[0-9]+")

# Every byte a body the typed parse takes may hold. The typed parse and
# the sign checks in _draws_table hold a draws file's index cells to digits.
_NUMBERS_ALPHABET = b"0123456789.+-eE,\n"
# A line whose iteration cell starts with "+", after a chain cell that
# the int parser took.
_SIGNED_ITER = re.compile(rb"\n-?[0-9]+,\+")

# What a header name must not hold for its reader to read it back: a
# comma, a line end, or a surrogate, which UTF-8 cannot encode.
_BAD_NAME = re.compile("[,\n\r\ud800-\udfff]")

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


def _lines(body: str, fields: int) -> Iterator[tuple[int, list[str]]]:
    """Check every line's field count, then return its cells lazily, line-numbered."""
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=2):
        if line.count(",") != fields - 1:
            raise ParseError(f"line {lineno}: expected {fields} fields, found {line.count(',') + 1}")
    return ((lineno, line.split(",")) for lineno, line in enumerate(lines, start=2))


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
    """Write a draws file: header ``chain,iter,<params>``, chain-major rows.
    A name the reader would not read back raises :class:`InvalidArgument`."""
    _check_names(d.parameter_names)
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
            out.write(_format_rows(row, [(chain + 1).tolist(), (iteration + 1).tolist(), *values]))


def _check_names(names: tuple[str, ...]) -> None:
    for name in names:
        if _BAD_NAME.search(name):
            raise InvalidArgument(
                f"column name {name!r} holds a comma, a line end or a character UTF-8 cannot encode"
            )


def _format_rows(row: str, columns: list[list]) -> str:
    """Lines of ``row`` format, one per row of the equal-length ``columns``,
    made by one ``%``: the format repeated per row, applied to the cells
    interleaved row by row."""
    width, rows = len(columns), len(columns[0])
    cells = [None] * (width * rows)
    for j, column in enumerate(columns):
        cells[j::width] = column
    return (row * rows) % tuple(cells)


def _typed_table(data: bytes, start: int, dtype: list) -> np.ndarray | None:
    """Parse a non-empty body of numeric cells into records of ``dtype``,
    or return None if a byte is outside ``[0-9.+-eE,\\n]``, a line has
    the wrong number of fields, or a cell does not parse."""
    if data.translate(None, _NUMBERS_ALPHABET) != data[:start].translate(None, _NUMBERS_ALPHABET):
        return None
    try:
        with warnings.catch_warnings():
            # Some numpy releases parse "1.0" into an int field with a
            # DeprecationWarning rather than refusing it.
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                BytesIO(data), dtype=dtype, delimiter=",", comments=None, skiprows=1,
                ndmin=1, encoding="latin1",
            )
    except (ValueError, DeprecationWarning):
        return None
    # loadtxt skips blank lines.
    return table if len(table) == data.count(b"\n", start) else None


def _draws_table(data: bytes, start: int, params: int) -> np.ndarray | None:
    """Parse a non-empty draws body into records of ``index`` (chain,
    iter) and ``values``, or return None if it is outside the grammar."""
    table = _typed_table(data, start, [("index", np.int64, (2,)), ("values", np.float64, (params,))])
    if table is None:
        return None
    # loadtxt's int parser takes a leading "+".
    if data.find(b"+", start) >= 0 and (
        data.find(b"\n+", start - 1) >= 0 or _SIGNED_ITER.search(data, start - 1)
    ):
        return None
    return table


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
    table = _draws_table(data, start, len(names))
    if table is None:
        _raise_draws_error(data, start, names)

    # Every chain has k = rows / m rows, m being the last chain label: row
    # r holds chain r // k + 1 and iteration r % k + 1.
    index = table["index"]
    rows = len(index)
    last = index[-1, 0]
    if not (1 <= last <= rows and rows % last == 0):
        _raise_draws_error(data, start, names)
    m = int(last)
    k = rows // m
    blocks = index.reshape(m, k, 2)
    if not (
        (blocks[:, :, 0] == np.arange(1, m + 1)[:, None]).all()
        and (blocks[:, :, 1] == np.arange(1, k + 1)).all()
    ):
        _raise_draws_error(data, start, names)
    values = table["values"].reshape(m, k, len(names)).transpose(2, 0, 1)
    return Draws(parameter_names=tuple(names), values=values)


def write_dataset(
    data: Dataset,
    path: str | Path,
    outcome_column: str = "outcome",
    treatment_column: str = "treatment",
) -> None:
    """Write a dataset file: one header row, one row per unit. Equal
    names, or one the reader would not read back, raise :class:`InvalidArgument`."""
    _check_names((outcome_column, treatment_column))
    if outcome_column == treatment_column:
        raise InvalidArgument(f"outcome and treatment columns are both named {outcome_column!r}")
    with Path(path).open("w", encoding="utf-8") as out:
        out.write(f"{outcome_column},{treatment_column}\n")
        for first in range(0, len(data.outcome), _BLOCK_ROWS):
            block = slice(first, first + _BLOCK_ROWS)
            columns = [data.outcome[block].tolist(), data.treatment[block].tolist()]
            out.write(_format_rows("%.17g,%d\n", columns))


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
    # A body of numbers only takes the typed parse, one float64 field per
    # column; any other body, or a treatment cell that is not 0 or 1, the walk.
    table = _typed_table(data, start, [("cells", np.float64, (len(header),))])
    cells = None if table is None else table["cells"]
    if cells is not None and ((cells[:, d_idx] == 0.0) | (cells[:, d_idx] == 1.0)).all():
        outcome, treatment = cells[:, y_idx], cells[:, d_idx]
    else:
        outcome, treatment = _walk_dataset(data, start, header, y_idx, d_idx)
    del data  # the file's bytes go before Dataset makes its copies
    return Dataset(outcome=outcome, treatment=treatment)


def _walk_dataset(
    data: bytes, start: int, header: list[str], y_idx: int, d_idx: int
) -> tuple[list[float], list[float]]:
    """Read a dataset body line by line: the outcome and treatment values
    of an accepted body, or the first line-numbered error."""
    outcome, treatment = [], []
    for lineno, parts in _lines(_decode(data, start), len(header)):
        _check_number(parts[y_idx], lineno, header[y_idx])
        _check_number(parts[d_idx], lineno, header[d_idx])
        arm = float(parts[d_idx])
        if arm not in (0.0, 1.0):
            raise NonBinaryTreatment(
                f"line {lineno}: treatment must be 0 or 1, got {parts[d_idx]!r}"
            )
        outcome.append(float(parts[y_idx]))
        treatment.append(arm)
    return outcome, treatment
