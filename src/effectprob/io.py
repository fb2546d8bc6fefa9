"""Text interchange for draw matrices and experiment datasets.

Both formats are plain comma-separated text. Draw files carry a fixed
``chain,iter`` prefix followed by one column per parameter; dataset files
carry one outcome column and one 0/1 treatment column. Numbers are
written with 17 significant digits, which is lossless for 64-bit floats,
so write-then-read reproduces values bit-exactly.

Files are UTF-8; a byte that is not raises :class:`ParseError` naming
its line. One byte-order mark at the start of a file, as spreadsheets
export it, is dropped; the writers write none. Lines end at ``\\n``;
``\\r\\n`` and ``\\r`` line ends load too, and a final newline is
optional. Other characters that :meth:`str.splitlines` treats as line
breaks (``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``,
``\\u2029``) are ordinary characters: a numeric cell containing one is a
parse error.

Draw files must number chains 1..m in file order, each chain in one
contiguous block of rows with iterations numbered from 1. So every
accepted draws file is exactly what :func:`write_draws` would write for
its values, up to the spelling of the numbers.

:func:`write_dataset` always writes the header ``outcome,treatment``.

Cost model. A read keeps the file as one ``bytes`` buffer. A body made
only of the number alphabet ``[0-9.+-eE,\\n]`` takes the typed parse,
two O(file bytes) passes in C. One :meth:`bytes.translate` deletes the
alphabet but ``\\n``; past the header's line end it must leave only
``\\n``, one per body line. Then numpy's loadtxt parser reads the body
as one in-memory stream in 16 KiB chunks, one Python call per chunk and
none per line or cell. It checks every line's field count, parses every
cell into typed records, and within the alphabet accepts exactly the
decimal grammar; it skips blank lines, so its rows must number the
body's lines. On one core of a 2-vCPU Xeon VM (best CPU time of 5 reads,
over two runs) a read of long_chains' 4.7 MB draws file takes 54-55 ms,
4 x 9k fitted draws of three parameters 26 ms, 10k draws of one
2.8-3.4 ms and a 200k-row dataset 55-57 ms.

On POSIX, a draws read of a regular file goes through its parse cache,
``.<name>.effectprob`` beside it (README.md says when it is trusted): a
digest of the file's bytes, then the :class:`Draws` values as a ``.npy``.
:func:`write_draws` saves it, and a read only for a file it accepted. A
hit hashes the file, counts its line ends and checks the ``.npy`` header
against them and the CSV's header before it reads the values: on the
same core (best CPU time of 15, two runs) 5.1-5.3 ms for long_chains'
file and 2.8 ms for 4 x 9k draws of three parameters. A miss parses and
saves: 59 ms for long_chains' file, against 57 ms for the parse alone.

A draws record holds two int64 index fields, whose parser refuses empty
and non-integer cells but takes a leading ``+`` (so a body holding a
``+`` is searched for an index cell that starts with one), and one
float64 field per parameter. One O(rows) pass compares the index fields
with the only layout an accepted file can have, and the values go to
:class:`Draws` as one strided view of the records, which it copies
once. A dataset record holds one float64 field per header column,
whatever the column count, and one O(rows) pass checks the treatment
cells. Either read peaks at about twice the file's size.

Any other body is decoded and walked line by line: every line's field
count first, then each line's cells against the grammar. A dataset that
holds text, an unused cell the typed parse refuses (``1.2.3``, an empty
cell) or a treatment that is not 0/1 takes the walk, which returns the
values of an accepted body and raises the first line-numbered error
otherwise. It makes Python calls per line: a 200k-row dataset with one
text column reads in about 0.3 s on the same core, peaking at about 5.7
times the file's size. A draws body takes the walk only after a check
failed, to raise its first line-numbered error, or :class:`RaggedChains`
if every line is well formed.

A write formats ``_BLOCK_ROWS`` rows at a time into one file opened in
binary, so lines end at ``\\n`` on every platform, with the bytes
``%.17g`` and ``%d`` give. A block is O(cells) numpy work, with no Python
call per cell: every cell is a fixed-width slot of bytes, NUL where it
has no character, and one :meth:`bytes.translate` drops the NULs of the
block's matrix. A double that ``%g`` writes in fixed notation (1e-4 <=
|x| < 1e17) gets its 17 digits from an exact product in numpy (see
:func:`_float_cells`); any other double (±0, subnormals, exponent
notation) takes one ``%`` per cell. A write holds one block's scratch,
not the file's: each double's 40-byte slot, the block's matrix and its
bytes, 0.8 MB for a dataset block and 1.7 MB for a draws block of three
parameters (tracemalloc peaks). On one core of a 2-vCPU Xeon VM, best
of 5 over two runs, a 200k-row dataset writes in 28-43 ms (130-177 ms
with ``%.17g`` per value) and 4 x 10k draws of three parameters in
20-26 ms (68-75 ms).

A draws write to a regular file also hashes each block it writes, then
saves the draws' values, 8 bytes each, as its cache: 16.6-17.4 ms for
4 x 9k draws of three parameters against 16.2-16.6 ms without (best CPU
time of 15, two runs).
"""

from __future__ import annotations

import hashlib
import os
import re
import stat
import warnings
from collections.abc import Iterator
from io import BytesIO
from pathlib import Path
from typing import NoReturn

import numpy as np

# The C parser behind np.loadtxt. np.loadtxt streams a file in chunks
# only when given a path, which it opens itself; any other input reaches
# this parser as a line iterator, one Python call and one decode per
# line. _typed_table passes the keywords numpy's _read passes bar
# imaginary_unit (default kept) and skips _read's later steps: ndmin does
# nothing for records, and an empty body, refused anyway, needs no warning.
from numpy._core._multiarray_umath import _load_from_filelike

from .draws import Draws
from .errors import (
    InvalidArgument,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteData,
    ParseError,
    RaggedChains,
)
from .regress import Dataset

# Strict decimal grammar: optional sign, ASCII digits with optional
# fraction or bare fraction, optional exponent. Deliberately excludes
# nan/inf text, underscores, non-ASCII digits, and surrounding whitespace
# that float() would coerce.
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# Every byte a body the typed parse takes may hold, besides "\n". The
# typed parse and the sign check in read_draws hold a draws file's index
# cells to digits.
_NUMBER_BYTES = b"0123456789.+-eE,"
# A line whose chain cell starts with "+", or whose iteration cell does
# after a chain cell that the int parser took.
_SIGNED_INDEX = re.compile(rb"\n(?:[0-9]+,)?\+")

_BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark, as spreadsheets write it

_BLOCK_ROWS = 4096  # rows a writer formats per write call
_COUNT_BLOCK = 1 << 18  # bytes a hit compares per step as it counts line ends

# Hashed before a file's bytes into its cache file's digest, so that a
# cache file saved by another parser is never trusted. Bump the number
# whenever the array saved for the same bytes could change; numpy's
# version stands for its parser's.
_CACHE_KEY = f"effectprob parse cache 2, numpy {np.__version__}\n".encode()

# Veltkamp's splitter, 2^27 + 1, and 10^k, exact for k <= 22, split into
# halves of at most 26 significant bits: _two_product's operands.
_SPLITTER = 134217729.0
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _slot_tables() -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray]:
    """The tables ``_float_cells`` lays a slot out from, for exponents X
    in -4..16 and L, the place of the last nonzero of the 17 digits:

    - the first word, by 2(X + 4) + (1 if negative): a NUL for the
      separator, the sign, and "0." and -X - 1 zeros when X < 0;
    - the digit words, by the number 0..9999 they spell: each digit
      after a 0xFF byte;
    - four masks, one per digit word, by 17(X + 4) + L: 0xFF over each
      digit up to place max(X, L), and "." in the byte before digit X + 1
      when X < L;
    - one table per group of four digits (places 1-4, 5-8, 9-12 and
      13-16): the place of its last nonzero digit, by the number the
      group spells, 0 for 0000. L is the largest of the four.
    """
    exponent = np.arange(-4, 17)[:, None, None]
    first = np.zeros((21, 2, 8), np.uint8)
    first[:, 1, 1] = ord("-")
    first[:, :, 2:4] = (exponent < 0) * np.array([ord("0"), ord(".")], np.uint8)
    first[:, :, 4:7] = (np.arange(3) < -exponent - 1) * np.uint8(ord("0"))

    digits = np.indices((10, 10, 10, 10)).reshape(4, 10_000)  # of 0..9999, highest first
    quads = np.full((10_000, 8), 0xFF, np.uint8)
    quads[:, 1::2] = digits.T + ord("0")

    last, place = np.arange(17)[:, None], np.arange(1, 17)
    masks = np.zeros((21, 17, 32), np.uint8)
    masks[..., 1::2] = (place <= np.maximum(exponent, last)) * np.uint8(0xFF)
    masks[..., 0::2] = ((place - 1 == exponent) & (exponent < last)) * np.uint8(ord("."))
    masks = masks.view(np.uint64).reshape(21 * 17, 4)

    in_group = ((digits != 0) * np.arange(1, 5)[:, None]).max(axis=0)
    groups = ((np.arange(0, 16, 4)[:, None] + in_group) * (in_group > 0)).astype(np.int8)
    return (
        first.view(np.uint64).ravel(),
        quads.view(np.uint64).ravel(),
        [masks[:, j].copy() for j in range(4)],
        groups,
    )


_FIRST_WORDS, _DIGIT_WORDS, _DIGIT_MASKS, _LAST_DIGIT = _slot_tables()
_SLOT = 40  # bytes of a double's slot: the first word and four digit words


def _read(path: str | Path) -> tuple[bytes, list[str], int]:
    """Return the file without a leading byte-order mark, with ``\\n``
    line ends and a final newline, the header's fields, and the offset
    where the body starts."""
    data = Path(path).read_bytes().removeprefix(_BOM)
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
    lines = body.split("\n")[:-1]  # _read ends every file with "\n"
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
    if not (token.isascii() and token.isdigit()) or not digits:
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

    On POSIX, a write to a regular file also saves ``.<name>.effectprob``
    beside it, the parse cache of ``d.values`` that its reads then load."""
    params, chains, iterations = d.values.shape
    rows = chains * iterations
    columns = d.values.reshape(params, rows)
    hashed = hashlib.sha256(_CACHE_KEY)
    with Path(path).open("wb") as out:
        header = ("chain,iter," + ",".join(d.parameter_names) + "\n").encode("utf-8")
        out.write(header)
        hashed.update(header)
        for first in range(0, rows, _BLOCK_ROWS):
            stop = min(first + _BLOCK_ROWS, rows)
            chain, iteration = np.divmod(np.arange(first, stop), iterations)
            lines = _format_block([chain + 1, iteration + 1, *columns[:, first:stop]])
            out.write(lines)
            hashed.update(lines)
    if (cache := _cache(Path(path))) is not None:
        _save(cache, hashed.digest(), d.values)


def _format_block(columns: list[np.ndarray]) -> bytes:
    """Lines of the equal-length ``columns``' cells joined by ``,``, with
    the bytes ``%d`` gives an integer >= 0 and ``%.17g`` a finite double.

    Each cell is a fixed-width slot of bytes, NUL where it has no
    character, whose first byte is the separator before it. The slots
    and a ``\\n`` column are joined into one matrix, and one
    :meth:`bytes.translate` drops its NULs."""
    slots = [_int_cells(c) if c.dtype.kind in "iu" else _float_cells(c) for c in columns]
    for slot in slots[1:]:
        slot[:, 0] = ord(",")
    slots.append(np.full((len(columns[0]), 1), ord("\n"), np.uint8))
    return np.concatenate(slots, axis=1).tobytes().translate(None, b"\0")


def _int_cells(v: np.ndarray) -> np.ndarray:
    """Slots of integers >= 0: a NUL, then digits by repeated ``// 10``,
    a leading zero NUL."""
    width = len(str(int(v.max())))
    cells = np.zeros((len(v), width + 1), np.uint8)
    rest, digit = _divmod(v, 10)
    cells[:, width] = digit + ord("0")
    for place in range(width - 1, 0, -1):
        shown = rest > 0
        rest, digit = _divmod(rest, 10)
        cells[:, place] = (digit + ord("0")) * shown
    return cells


def _divmod(v: np.ndarray, divisor: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod`` of integers by a constant: numpy's ``//`` by a
    scalar, a multiply and a subtract take less time than its ``divmod``."""
    quotient = v // divisor
    return quotient, v - quotient * divisor


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``_SLOT``-byte slots of finite doubles.

    For 1e-4 <= |x| < 1e17, ``%g`` writes fixed notation, and the slot
    is built in numpy. With k = 16 - floor(log10 |x|), corrected until
    1e16 <= |x| 10^k < 1e17 (so 0 <= k <= 21, and 10^k is an exact
    double), the product is formed exactly as p + err. Its round-half-even
    D holds the 17 significant digits ``%.17g`` rounds to, and X = 16 - k,
    in -4..16, is their decimal exponent. p >= 1e16 is an even integer,
    so D = p + rint(err). D never rounds up to 10^17: no double in this
    range lies within a relative 5e-18 below a power of ten.

    The slot's first word holds a NUL for the separator, the sign, "0."
    and -X - 1 zeros when X < 0, and digit 0 in its last byte. Four
    words hold digits 1..16, each after a byte for the decimal point.
    ``%g`` drops trailing zeros and a bare point, so a digit past both X
    and the last nonzero digit is NUL, and the point after digit X is "."
    only when a nonzero digit follows it.

    Every other cell, ±0, |x| < 1e-4 (subnormals among them) or
    |x| >= 1e17, where ``%g`` writes exponent notation, comes from
    :func:`_slow_cells`.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)
    slow = np.flatnonzero(~fast)
    if len(slow):
        a = np.where(fast, a, 1.0)
    # log10 rounds up to 17 just below 1e17.
    k = 16 - np.minimum(np.floor(np.log10(a)), 16).astype(np.int64)
    while True:
        p, err = _two_product(a, k)
        under = (p < 1e16) | ((p == 1e16) & (err < 0))
        over = (p > 1e17) | ((p == 1e17) & (err >= 0))
        if not (under.any() or over.any()):
            break
        k += under
        k -= over
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    exponent = 16 - k

    lead, rest = _divmod(digits, 10**16)
    high, low = _divmod(rest, 10**8)
    groups = [*_divmod(high, 10**4), *_divmod(low, 10**4)]
    last = _LAST_DIGIT[0][groups[0]]
    for j in (1, 2, 3):
        np.maximum(last, _LAST_DIGIT[j][groups[j]], out=last)
    layout = 17 * (exponent + 4) + last
    words = np.empty((len(x), _SLOT // 8), np.uint64)
    words[:, 0] = _FIRST_WORDS[2 * exponent + 8 + (x < 0)]
    for j, group in enumerate(groups):
        words[:, j + 1] = _DIGIT_WORDS[group] & _DIGIT_MASKS[j][layout]
    cells = words.view(np.uint8)
    cells[:, 7] = lead + ord("0")
    if len(slow):
        cells[slow] = _slow_cells(x[slow])
    return cells


def _slow_cells(x: np.ndarray) -> np.ndarray:
    """``_SLOT``-byte slots of doubles, one ``b"%.17g" % v`` each."""
    text = np.array([b"\0%.17g" % v for v in x.tolist()], dtype=f"S{_SLOT}")
    return text.view(np.uint8).reshape(len(x), _SLOT)


def _two_product(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10^k`` as p + err exactly: Dekker's TwoProduct, which needs
    no fused multiply-add."""
    p = a * _POW10[k]
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _typed_table(data: bytes, start: int, dtype: np.dtype) -> np.ndarray | None:
    """Parse a body of numeric cells into records of ``dtype``,
    or return None if a byte is outside ``[0-9.+-eE,\\n]``, a line has
    the wrong number of fields, or a cell does not parse."""
    # Deleting the alphabet but "\n" leaves what it leaves of the header,
    # up to its line end, then the body's "\n"s and any byte outside it.
    kept = data.translate(None, _NUMBER_BYTES)
    head = kept.index(b"\n") + 1
    lines = len(kept) - head
    if kept.count(b"\n", head) != lines:
        return None
    body = BytesIO(data)  # shares data's buffer
    body.seek(start)
    try:
        with warnings.catch_warnings():
            # Some numpy releases parse "1.0" into an int field with a
            # DeprecationWarning rather than refusing it.
            warnings.simplefilter("error", DeprecationWarning)
            table = _load_from_filelike(
                body, delimiter=",", comment=None, quote=None, usecols=None,
                skiplines=0, max_rows=-1, converters=None, dtype=dtype,
                encoding="latin1", filelike=True, byte_converters=False,
            )
    except (ValueError, DeprecationWarning):
        return None
    # The parser skips blank lines.
    return table if len(table) == lines else None


def _line_ends(data: bytes, start: int) -> int:
    """``data.count(b"\\n", start)`` in about a fifth of its time, with
    one bool per byte of a ``_COUNT_BLOCK``, not of the file."""
    view = np.frombuffer(data, np.uint8)
    return sum(
        int(np.count_nonzero(view[first : first + _COUNT_BLOCK] == ord("\n")))
        for first in range(start, len(view), _COUNT_BLOCK)
    )


def _cache(path: Path) -> Path | None:
    """``.<name>.effectprob`` beside a regular file, on POSIX; else None."""
    regular = os.name == "posix" and path.is_file()
    return path.with_name(f".{path.name}.effectprob") if regular else None


def _load(cache: Path, digest: bytes, params: int, rows: int) -> np.ndarray | None:
    """The draws values in ``cache`` if it is a regular file of this user's:
    ``digest``, then a version 1.0 ``.npy`` of native float64 in C order,
    shaped ``(params, m, k)`` with ``m * k == rows``, whose header promises
    the bytes that follow. All of it is checked before the array is allocated."""
    try:
        fd = os.open(cache, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        with open(fd, "rb") as file:
            status = os.fstat(fd)
            mine = stat.S_ISREG(status.st_mode) and status.st_uid == os.getuid()
            if not mine or file.read(32) != digest or np.lib.format.read_magic(file) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(file)
            size = status.st_size - file.tell()
            if (
                dtype != np.float64
                or fortran_order
                or len(shape) != 3
                or shape[0] != params
                or shape[1] * shape[2] != rows
                or 8 * params * rows != size
            ):
                return None
            values = np.empty(shape)
            return values if file.readinto(values) == size else None
    except (OSError, ValueError, EOFError):
        return None


def _save(cache: Path, digest: bytes, table: np.ndarray) -> None:
    """Replace ``cache`` by ``digest`` and ``table`` as a ``.npy``; an
    OSError leaves no new file and is ignored."""
    temporary = cache.with_name(f"{cache.name}.{os.getpid()}")
    try:
        # Left by a process of this pid that was killed while saving.
        temporary.unlink(missing_ok=True)
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    except OSError:
        return
    try:
        with open(fd, "wb") as file:
            file.write(digest)
            np.lib.format.write_array(file, table, version=(1, 0), allow_pickle=False)
        os.replace(temporary, cache)
    except BaseException as exc:
        temporary.unlink(missing_ok=True)
        if not isinstance(exc, OSError):
            raise


def read_draws(path: str | Path) -> Draws:
    """Parse a draws file into :class:`Draws`.

    Grammar errors (bad header, non-numeric cells, chains not numbered
    1..m in file order, non-contiguous iteration numbers, repeated chain
    blocks, bytes that are not UTF-8) raise :class:`ParseError` with the
    offending line; chains of unequal length raise :class:`RaggedChains`;
    the checks of :class:`Draws` (non-finite values, duplicate or empty
    parameter names, one iteration per chain) raise its errors. On POSIX,
    a read of a regular file loads the values from ``.<name>.effectprob``
    beside it if that is this file's cache, and otherwise, if it accepts
    the file, saves the values there.
    """
    data, header, start = _read(path)
    if len(header) < 3:
        raise ParseError(f"header must be chain,iter,<param,...>, got {header!r}")
    if header[0] != "chain" or header[1] != "iter":
        raise ParseError(f"header must start with 'chain,iter', got {header[0]!r},{header[1]!r}")
    names = header[2:]

    if start == len(data):
        raise ParseError("no draw rows after the header")
    # loadtxt's int parser takes a leading "+".
    signed = data.find(b"+", start) >= 0 and _SIGNED_INDEX.search(data, start - 1)
    if (cache := _cache(Path(path))) is not None:
        hashed = hashlib.sha256(_CACHE_KEY)
        hashed.update(data)
        digest = hashed.digest()
        values = None if signed else _load(cache, digest, len(names), _line_ends(data, start))
        if values is not None:
            return Draws(parameter_names=tuple(names), values=values)
    record = np.dtype([("index", np.int64, (2,)), ("values", np.float64, (len(names),))])
    table = _typed_table(data, start, record)
    if table is not None and not signed:
        # Every chain has k = rows / m rows, m being the last chain label:
        # row r holds chain r // k + 1 and iteration r % k + 1.
        index = table["index"]
        rows, m = len(index), int(index[-1, 0])
        if 1 <= m <= rows and rows % m == 0:
            k = rows // m
            blocks = index.reshape(m, k, 2)
            if (blocks[:, :, 0] == np.arange(1, m + 1)[:, None]).all() and (
                blocks[:, :, 1] == np.arange(1, k + 1)
            ).all():
                values = table["values"].reshape(m, k, len(names)).transpose(2, 0, 1)
                draws = Draws(parameter_names=tuple(names), values=values)
                if cache is not None:
                    _save(cache, digest, draws.values)
                return draws
    _raise_draws_error(data, start, names)


def write_dataset(data: Dataset, path: str | Path) -> None:
    """Write a dataset file: header ``outcome,treatment``, one row per unit."""
    with Path(path).open("wb") as out:
        out.write(b"outcome,treatment\n")
        for first in range(0, len(data.outcome), _BLOCK_ROWS):
            block = slice(first, first + _BLOCK_ROWS)
            out.write(_format_block([data.outcome[block], data.treatment[block]]))


def read_dataset(
    path: str | Path, outcome_column: str = "outcome", treatment_column: str = "treatment"
) -> Dataset:
    """Parse a dataset file, enforcing the binary-treatment contract.

    Columns other than the two named ones are ignored and may hold any
    UTF-8 text without a comma. A read writes no file.

    Raises
    ------
    InvalidArgument
        The two names are the same, checked before the file is read.
    MissingColumn
        Either named column is absent from the header.
    ParseError
        A cell does not parse as a decimal number, or a byte is not UTF-8.
    NonBinaryTreatment
        A treatment cell parses to something other than 0 or 1.
    NonFiniteData
        An outcome cell overflows a double, such as ``1e999``; checked
        after every line's grammar and treatment.
    """
    if outcome_column == treatment_column:
        raise InvalidArgument(f"outcome and treatment are the same column, {outcome_column!r}")
    data, header, start = _read(path)
    for column in (outcome_column, treatment_column):
        if header.count(column) == 0:
            raise MissingColumn(column)
        if header.count(column) > 1:
            raise ParseError(f"column {column!r} appears more than once in the header")
    y_idx = header.index(outcome_column)
    d_idx = header.index(treatment_column)

    # A body of numbers only takes the typed parse, one float64 field per
    # column; any other body, or a treatment cell that is not 0 or 1, the walk.
    table = _typed_table(data, start, np.dtype([("cells", np.float64, (len(header),))]))
    cells = None if table is None else table["cells"]
    if cells is not None and ((cells[:, d_idx] == 0.0) | (cells[:, d_idx] == 1.0)).all():
        outcome, treatment = cells[:, y_idx], cells[:, d_idx]
    else:
        outcome, treatment = _walk_dataset(data, start, header, y_idx, d_idx)
    del data  # the file's bytes go before Dataset makes its copies
    # The grammar takes no nan or inf text, so a non-finite outcome is a
    # cell that overflows. Blank lines are refused: row r is line r + 2.
    overflows = np.flatnonzero(np.isinf(outcome))
    if len(overflows):
        row, value = overflows[0], float(outcome[overflows[0]])
        raise NonFiniteData(f"line {row + 2}, column {outcome_column!r}: overflows to {value!r}")
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
