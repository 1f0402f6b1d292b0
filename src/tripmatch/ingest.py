"""Loaders for the dataset CSV tables and the train-history JSON.

Every CSV table (the GTFS files and the stage outputs read back included)
goes through one chunked columnar reader, read_table: a loader declares its
columns and gets them back as arrays. Every loader is strict by default: a
malformed row raises IngestError naming the file, line and column. With
permissive=True row errors are downgraded to diagnostics and the row is
skipped; file-level problems (missing file, bad header) always raise. No row
is ever silently dropped.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime
from itertools import chain, count, groupby, islice
from pathlib import Path
from typing import (Any, Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, TypeVar)

import numpy as np

from .types import (
    ACTIVITIES,
    Activity,
    DeviceModelEntry,
    DevicePoint,
    FilteredPoint,
    FleetColumns,
    LINE_TYPES,
    LineType,
    LIVE_LINE_TYPES,
    LOG_LINE_TYPES,
    ManualTrip,
    TIME_REF,
    TraceColumns,
    as_seconds,
    from_seconds,
)

log = logging.getLogger(__name__)

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

T = TypeVar("T")


class IngestError(Exception):
    """A dataset file could not be parsed or failed validation."""

    #: the message of a header that lacks the required columns missing
    MISSING_COLUMNS = "missing required column(s) {missing}; found {found}"

    def __init__(self, message: str, *, path=None, line: int | None = None,
                 column: str | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        self.column = column
        where = []
        if self.path:
            where.append(self.path)
        if line is not None:
            where.append(f"line {line}")
        if column is not None:
            where.append(f"column {column!r}")
        prefix = ": ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


def parse_timestamp(text: str, *, default_date: date | None = None) -> datetime:
    """Parse a naive local timestamp.

    Accepts 'YYYY-MM-DD HH:MM:SS', the ISO 'T' variant, and a bare
    'HH:MM:SS' clock time resolved against default_date. Fractional seconds
    are truncated (the data model is seconds-precision).
    """
    text = text.strip()
    if "." in text:
        text = text.split(".", 1)[0]
    for fmt in (TIMESTAMP_FORMAT, "%Y-%m-%dT%H:%M:%S"):
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    if default_date is not None:
        try:
            clock = datetime.strptime(text, "%H:%M:%S")
            return datetime.combine(default_date, clock.time())
        except ValueError:
            pass
    raise ValueError(f"unparseable timestamp {text!r}")


def format_timestamp(t: datetime) -> str:
    return t.strftime(TIMESTAMP_FORMAT)


# --- the table reader ---


class Column(NamedTuple):
    """A column a loader reads. parse turns a stripped cell into its value,
    raising ValueError (or an IngestError) with the message of a bad cell;
    a blank cell of a required column is a 'missing value' instead. Unless
    header is False the header must name the column; if absent, its cells
    read as blank."""

    name: str
    parse: Callable[[str], Any] = str
    required: bool = True
    header: bool = True


def word(text: bytes) -> np.uint64:
    """The little-endian uint64 word of 8 bytes."""
    return np.uint64(int.from_bytes(text, "little"))


#: the high bit of every byte of a word
_HIGH_BITS = word(b"\x80" * 8)


def words_at(chunk: bytes, offsets: np.ndarray) -> np.ndarray:
    """The little-endian uint64 word of the 8 bytes of chunk from each
    offset, read in place. An offset past the chunk's last full word reads
    that word instead, which only a cell too short for the word asks for."""
    chunk = chunk.ljust(8, b"\0")
    windows = np.ndarray((len(chunk) - 7,), "<u8", chunk, strides=(1,))
    return windows[np.minimum(offsets, len(chunk) - 8)]


def word_digits(words: np.ndarray, zero, span) -> tuple[np.ndarray, np.ndarray]:
    """words less zero bytewise, as the 8 uint8 digits of each word in text
    order (whatever the host's byte order) along a new last axis, and which
    words have every byte between that of zero and that of zero + span
    (span bytes < 0x80).

    Per byte, digit = byte - zero. A byte below its zero wraps around and
    sets the digit's high bit (a borrow it passes on only spoils a word that
    already fails); any other digit is below 0x80, and then (span | 0x80) -
    digit keeps its high bit exactly where digit <= span."""
    digits = words - zero
    ok = (((digits & _HIGH_BITS) == 0)
          & ((((span | _HIGH_BITS) - digits) & _HIGH_BITS) == _HIGH_BITS))
    return digits.astype("<u8", copy=False)[..., None].view(np.uint8), ok


#: each byte of a clock's word lies between that of _CLOCK_ZERO and that of
#: _CLOCK_ZERO + _CLOCK_SPAN; less _CLOCK_ZERO, the bytes are its digits and
#: a 0 for each ':'
_CLOCK_ZERO = word(b"00:00:00")
_CLOCK_SPAN = word(bytes([9, 9, 0, 5, 9, 0, 5, 9]))
_CLOCK_WEIGHTS = np.array([36000, 3600, 0, 600, 60, 0, 10, 1], np.float64)


def clock_seconds(chunk: bytes, starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int32 seconds of the 'HH:MM:SS' and 'H:MM:SS' cells
    chunk[starts:ends] (hours up to 99), and which cells are of these
    forms. Each cell is read as the word of the 8 bytes from its start; for
    an 'H:MM:SS' cell the byte after it is shifted out and a '0' in, so
    that it reads as '0H:MM:SS'."""
    width = ends - starts
    words = words_at(chunk, starts)
    short = width == 7
    words[short] = (words[short] << np.uint64(8)) | np.uint64(ord("0"))
    digits, ok = word_digits(words, _CLOCK_ZERO, _CLOCK_SPAN)
    return (digits @ _CLOCK_WEIGHTS).astype(np.int32), ok & (short | (width == 8))


#: the words 'YYYY-MM-' and 'Y-MM-DD ' of a timestamp's date, by offset
#: from its start, and the place values of their 16 digits in its yyyymmdd
_DATE_OFFSETS = np.array([0, 3])
_DATE_ZERO = np.array([word(b"0000-00-"), word(b"0-00-00 ")])
_DATE_SPAN = np.array([word(bytes(s)) for s in (
    [9, 9, 9, 9, 0, 1, 9, 0], [9, 0, 1, 9, 0, 3, 9, 0])])
_DATE_WEIGHTS = np.array([1e7, 1e6, 1e5, 1e4, 0, 1e3, 100, 0, 0, 0, 0, 0, 0, 10, 1, 0])


def _day_seconds(yyyymmdd: int) -> float:
    """Seconds after TIME_REF at the start of a date, NaN for no such date."""
    try:
        day = date(yyyymmdd // 10000, yyyymmdd // 100 % 100, yyyymmdd % 100)
    except ValueError:
        return math.nan
    return float((day.toordinal() - TIME_REF.toordinal()) * 86400)


def _word_table(rows) -> np.ndarray:
    """uint64 words of byte strings, 8 bytes a word, a column per string."""
    return np.array([np.frombuffer(row, "<u8") for row in rows], np.uint64).T


#: by cell size k = 0 .. 24, the masks of the 24 bytes that end at a cell
#: in 3 + 3 words: one that keeps its bytes, then '0's in the bytes before it
_CELL_MASKS = _word_table(bytes(24 - k) + b"\xff" * k + b"0" * (24 - k) + bytes(k)
                          for k in range(25))
_ZEROS, _NINES = word(b"0" * 8), word(b"\x09" * 8)
#: multipliers that leave in a word's top byte the sum of its bytes (below
#: 256), and, for the k-th word of a cell's 24 bytes holding a single byte 1
#: at byte i of the 24, the 23 - i bytes after that one (a product's top
#: byte is the sum of byte b of the word times byte 7 - b of the multiplier)
_BYTE_SUM = word(b"\x01" * 8)
_PLACES_AFTER = _word_table([bytes(16 - 8 * k + b for k in range(3)
                                   for b in range(8))])
_POW10 = np.array([10 ** k for k in range(19)], np.uint64)
#: the bits that the significand a decimal mantissa is divided in has
#: below a float64's, and the powers of ten it is divided by, in that
#: type. An x87 (63) or IEEE quad (112) long double, stored in 16 bytes
#: and read little-endian, holds every mantissa below 10**19 exactly;
#: elsewhere the division is float64's, exact for mantissas below 2**53
#: (Clinger's case)
_NMANT = np.finfo(np.longdouble).nmant
_EXTRA_BITS = (_NMANT - 52 if sys.byteorder == "little" and _NMANT in (63, 112)
               and np.dtype(np.longdouble).itemsize == 16 else 0)
_WIDE_POW10 = _POW10.astype(np.longdouble if _EXTRA_BITS else np.float64)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The numbers of uint64 words of 8 digits (0-9 per byte, the first
    digit in the low byte): digit pairs, then quads, then all eight folded
    by one multiply each (Lemire 2021)."""
    words = words * np.uint64(10) + (words >> np.uint64(8))
    pairs = np.uint64(0x000000FF000000FF)
    return ((words & pairs) * np.uint64(100 + (1000000 << 32))
            + ((words >> np.uint64(16)) & pairs) * np.uint64(1 + (10000 << 32))
            ) >> np.uint64(32)


def digit_values(chunk: bytes, starts: np.ndarray,
                 ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uint64 values of the cells chunk[starts:ends] of 1 to 8 ASCII digits,
    and which cells are of that form. Each cell is read as the word of the
    8 bytes that end at it, the bytes before it set to '0'."""
    if len(ends) == 0 or ends.min() < 8:  # bytes before the chunk read as NULs
        chunk, starts, ends = bytes(8) + chunk, starts + 8, ends + 8
    size = ends - starts
    masks = _CELL_MASKS[[2, 5]].take(np.minimum(size, 8), axis=1)
    digits, ok = word_digits(words_at(chunk, ends - 8) & masks[0] | masks[1],
                             _ZEROS, _NINES)
    return (_eight_digits(digits.reshape(-1).view("<u8")),
            ok & (size >= 1) & (size <= 8))


def _float_values(chunk: bytes, starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 values of the cells chunk[starts:ends], and which of them
    are '[-]digits[.digits]' cells (either digit run may be empty, not both)
    of at most 19 bytes after the sign, decoded to float()'s value.

    Each cell is read as the three words of the 24 bytes that end at it,
    the bytes before its digits set to '0' and its dot read as a '0'; the
    digits give the uint64 mantissa eight at a time, and the dot's 0 is
    taken out by one division by a power of ten. The mantissa is divided by
    the exact power of ten of its fraction digits in _WIDE_POW10's type and
    rounded once more to float64. That is float()'s value (Clinger 1990)
    unless the first rounding landed on a float64 midpoint: such a cell is
    not taken, nor, without a wider type, one of a mantissa from 2**53."""
    if len(ends) == 0 or ends.min() < 24:  # bytes before the chunk read as NULs
        chunk, starts, ends = bytes(24) + chunk, starts + 24, ends + 24
    n = len(ends)
    negative = np.frombuffer(chunk, np.uint8)[starts] == ord("-")
    size = np.minimum(ends - starts - negative, 24)
    # words[k] is the k-th word of each cell's 24 bytes
    tails = np.ndarray((len(chunk) - 23,), "V24", chunk, strides=(1,))
    words = tails[ends - 24].view("<u8").reshape(n, 3).T.copy()
    masks = _CELL_MASKS.take(size, axis=1)
    words = words & masks[:3] | masks[3:]
    dots = (words.astype("<u8", copy=False).view(np.uint8) == ord(".")).view("<u8")
    digits, ok = word_digits(words + dots * np.uint64(2), _ZEROS, _NINES)
    parts = _eight_digits(digits.reshape(3, -1).view("<u8"))
    mantissa = parts[0] * _POW10[16] + parts[1] * _POW10[8] + parts[2]
    count = dots.sum(axis=0) * _BYTE_SUM >> np.uint64(56)
    point = np.minimum((dots * _PLACES_AFTER >> np.uint64(56)).sum(axis=0), 18)
    # m = 10 q + r with the dot's 0 as q's last digit: (m + 9 r) / 10 = q + r
    mantissa = np.where(count > 0,
                        (mantissa + (mantissa % _POW10[point]) * np.uint64(9))
                        // np.uint64(10), mantissa)
    ok = ok.all(axis=0) & (count <= 1) & (size > count) & (size <= 19)
    quotient = mantissa / _WIDE_POW10[point]
    values = quotient.astype(np.float64)
    if _EXTRA_BITS:
        low = quotient.view(np.uint64)[::2] & np.uint64((1 << _EXTRA_BITS) - 1)
        ok &= low != np.uint64(1 << _EXTRA_BITS - 1)
    else:
        ok &= mantissa < np.uint64(1 << 53)
    np.negative(values, out=values, where=negative)
    return values, ok


@dataclass(frozen=True)
class Floats:
    """parse of a float column: float() of the cell, then valid, a range
    rule over float64 values that fails with message.format(value).
    '[-]digits[.digits]' cells are decoded a chunk at a time from their
    bytes (scan, exactly as float() reads them), any other cell through
    parse."""

    valid: Callable[[Any], Any] | None = None
    message: str = ""

    def __call__(self, text: str) -> float:
        value = float(text)
        if self.valid is not None and not self.valid(np.float64(value)):
            raise ValueError(self.message.format(value))
        return value

    def scan(self, chunk: bytes, starts: np.ndarray,
             ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """_float_values of the cells, with the cells valid rejects
        rejected too."""
        values, ok = _float_values(chunk, starts, ends)
        if self.valid is not None:
            ok &= self.valid(values)
        return values, ok

    decode = staticmethod(np.ndarray.tolist)


@dataclass(frozen=True)
class Stamps:
    """parse of a timestamp column into float seconds after TIME_REF, NaN
    for a blank cell: 'YYYY-MM-DD HH:MM:SS' cells are decoded a chunk at a
    time from their bytes (scan) as a date and a clock, any other cell
    through parse_timestamp."""

    default_date: date | None = None

    def __call__(self, text: str) -> float:
        if text == "":
            return math.nan
        return as_seconds(parse_timestamp(text, default_date=self.default_date))

    @staticmethod
    def scan(chunk: bytes, starts: np.ndarray,
             ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Seconds after TIME_REF of the 'YYYY-MM-DD HH:MM:SS' cells
        chunk[starts:ends], and which are valid times of that form: the
        clock_seconds of bytes 11-18, below 24:00:00, plus the _day_seconds
        of the yyyymmdd of bytes 0-10, taken once per distinct date of the
        chunk."""
        clock, ok = clock_seconds(chunk, starts + 11, starts + 19)
        ok &= (ends - starts == 19) & (clock < 86400)
        digits, valid = word_digits(words_at(chunk, starts[ok, None] + _DATE_OFFSETS),
                                    _DATE_ZERO, _DATE_SPAN)
        keys = np.where(valid[:, 0] & valid[:, 1],
                        digits.reshape(-1, 16) @ _DATE_WEIGHTS, 0)
        dates, which = np.unique(keys, return_inverse=True)  # 0: no date
        days = np.full(len(starts), math.nan)
        days[ok] = np.array([_day_seconds(int(d)) for d in dates.tolist()])[which]
        return days + clock, ok & ~np.isnan(days)

    @staticmethod
    def decode(seconds: np.ndarray) -> list[Optional[datetime]]:
        return [None if s != s else from_seconds(s) for s in seconds.tolist()]


@dataclass(frozen=True, eq=False)
class Known:
    """parse of a text column whose values are mostly known beforehand: a
    cell reads as its stripped text, and a cell equal to levels[k] (levels
    being distinct) takes code k in the column without being parsed."""

    levels: tuple[str, ...]

    def __call__(self, text: str) -> str:
        return text


@dataclass
class Table:
    """The columns of a table read by read_table, over the rows without a
    bad cell: data[name] is, for a column whose parse has a scan form, an
    array of the dtype that form returns (float64 for Floats, and for
    Stamps, a date's seconds plus a clock's; int32 for gtfs.Clocks, read by
    the same clock_seconds, and for gtfs.Int32s, read by digit_values),
    else, for a dictionary column, an int32 array of codes into
    levels[name], the distinct parsed values: for a Known column its known
    values first, each at its index, then the others in order of first
    appearance. report or build reports the bad rows, in file order with
    those that build rejects."""

    label: Any
    error: type[IngestError]
    kinds: dict[str, Callable[[str], Any]]  # parse by column name
    permissive: bool
    diagnostics: list[str]
    data: dict[str, np.ndarray] = field(default_factory=dict)
    levels: dict[str, tuple] = field(default_factory=dict)
    lines: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    # row -> (message, column) of its first bad cell, or None for a row of
    # blank cells, which is skipped without a diagnostic
    bad: dict[int, Optional[tuple[str, str]]] = field(default_factory=dict)

    def array(self, name: str, dtype) -> np.ndarray:
        """The parsed values of a coded column as an array."""
        return np.array(self.levels[name], dtype=dtype)[self.data[name]]

    def values(self, name: str) -> list:
        """The parsed values of a column as Python objects."""
        if name in self.levels:
            return list(map(self.levels[name].__getitem__, self.data[name].tolist()))
        return self.kinds[name].decode(self.data[name])

    def report(self) -> None:
        """Report every row with a bad cell."""
        for row, fault in sorted(self.bad.items()):
            if fault is not None:
                self.reject(row, *fault)

    def build(self, make: Callable[..., T]) -> list[T]:
        """make of the values of each row, in column order, in file order.
        A row with a bad cell, or for which make raises ValueError, is
        reported instead."""
        good = zip(*map(self.values, self.kinds))
        out: list[T] = []
        for row in range(len(self.lines)):
            if row in self.bad:
                if self.bad[row] is not None:
                    self.reject(row, *self.bad[row])
                continue
            try:
                out.append(make(*next(good)))
            except ValueError as exc:
                self.reject(row, str(exc))
        return out

    def reject(self, row: int, message: str, column: str | None = None) -> None:
        """An error located at row: raised, or in permissive mode recorded
        in diagnostics with the row skipped."""
        err = self.error(message, path=self.label, line=int(self.lines[row]),
                         column=column)
        if not self.permissive:
            raise err
        self.diagnostics.append(f"skipped row: {err}")
        log.warning("%s", err)

    def warn(self, message: str) -> None:
        self.diagnostics.append(message)
        log.warning("%s: %s", self.label, message)


#: bytes of a table's first read, and so of its first block and chunk; each
#: later read takes _BULK times as many, which pays each block's fixed work
#: less often. Blocks bound the transient per-cell strings whatever the file
#: size. The first stays small because a joint run whose pieces never
#: repeat is numbered through a whole block before it is given up (_chunks)
_CHUNK_BYTES = 1 << 17
_BULK = 4

#: rows per chunk once a file is read through csv.reader. It is below the
#: cyclic GC's default threshold of 700 net container allocations, so a
#: chunk's row lists are freed before they can trigger a collection (at
#: 1 << 15 rows, collections took about a third of a GTFS load)
_CHUNK_ROWS = 512


def load_table(path, columns: Sequence[Column], *, permissive: bool = False,
               diagnostics: list[str] | None = None) -> Table:
    """read_table of the file at path."""
    path = Path(path)
    if not path.exists():
        raise IngestError("file not found", path=path)
    with open(path, "rb") as fh:
        return read_table(fh, path, columns, permissive=permissive,
                          diagnostics=diagnostics)


def read_table(fh, label, columns: Sequence[Column], *,
               error: type[IngestError] = IngestError, permissive: bool = False,
               diagnostics: list[str] | None = None) -> Table:
    """The columns of the UTF-8 CSV text in the binary file fh; errors are
    of type error and name the file by label.

    Header names may follow a BOM and are stripped and lowercased. A short
    row reads as blank cells; a row's error is its first bad cell in column
    order. Empty lines are skipped, and so is a row of blank cells with a
    bad cell, as such a row has in every table with a required or typed
    column (GTFS trips.txt has none). A byte that is not UTF-8 is an error
    at its line. The file is read in blocks of whole lines (_chunks). A
    block with no quote and no NUL, whose lines all end in an LF or all in
    a CRLF, none of them empty, in rows of the header's width, is split on
    bytes: a column whose parse has a scan form is decoded from the block's
    bytes in place, each cell that form rejects going through parse on its
    own, decoded from its bytes; only the cells of the other (dictionary)
    columns become strs. From the first block that is not so, the rest of
    the file goes through csv.reader.
    """
    def coded(header: list[str]) -> list[int]:
        """The header positions of the columns read without a scan form."""
        at = {h.strip().lower(): i for i, h in enumerate(header)}
        return sorted({at[c.name] for c in columns
                       if c.name in at and not hasattr(c.parse, "scan")})

    chunks = _chunks(fh, label, error, coded)
    names = [h.strip().lower() for h in next(chunks)]
    index = {name: i for i, name in enumerate(names)}
    missing = [c.name for c in columns if c.header and c.name not in index]
    if missing:
        raise error(error.MISSING_COLUMNS.format(missing=missing, found=names),
                    path=label)
    table = Table(label, error, {c.name: c.parse for c in columns}, permissive,
                  diagnostics if diagnostics is not None else [])
    readers = [_ColumnReader(c, index.get(c.name)) for c in columns]
    width, first, lines = len(names), 0, []
    for cells, chunk_lines, data, ends in chunks:
        n = len(chunk_lines)
        faults: dict[int, tuple[str, str]] = {}
        for reader in readers:
            for row, message in reader.add(cells, width, n, data, ends):
                faults.setdefault(row, (message, reader.column.name))
        for row in sorted(faults):
            blank = not _row_text(cells, width, row, data, ends).strip()
            table.bad[first + row] = None if blank else faults[row]
        first += n
        lines.append(chunk_lines)
    table.lines = np.concatenate([table.lines, *lines])
    keep = np.ones(len(table.lines), dtype=bool)
    keep[list(table.bad)] = False
    for reader in readers:
        reader.finish(table, keep)
    return table


def _row_text(cells: dict[int, Sequence[str]], width: int, row: int,
              data: bytes | None, ends: np.ndarray | None) -> str:
    """The cells of a chunk's row joined: read from the chunk's bytes, less
    its commas (and after a CRLF, led by its LF), when it was split on bytes
    (so that no cell is quoted), else from its cells."""
    if data is None:
        return "".join(column[row] for column in cells.values())
    start = ends[row * width - 1] + 1 if row else 0
    return data[start:ends[row * width + width - 1]].decode().replace(",", "")


_NO_CELLS = np.empty(0, np.int64)


class _Joint(NamedTuple):
    """A column's cells in a chunk split as joint pieces (see _chunks):
    its cells of the pieces first seen in the chunk, in order of first
    appearance, and the number of each row's piece."""

    new: list[str]
    ids: np.ndarray


class _ColumnReader:
    """One column's cells, chunk by chunk: a column whose parse has a scan
    form (chunk bytes, cell starts, cell ends -> values, ok) is decoded a
    chunk at a time into arrays of the dtype that form returns, each cell
    it rejects decoded from its bytes and going through parse; any other
    (a dictionary column) is dictionary-encoded from its raw cells with
    each distinct cell parsed once, a parse with levels (Known) seeding the
    codes with its known values. Given as _Joint, a column's cells are
    coded once per joint piece, and its rows take the codes of their
    pieces."""

    def __init__(self, column: Column, at: int | None):
        self.column = column
        self.at = at
        self.scan = getattr(column.parse, "scan", None)
        self.parts = [self.scan(b"", _NO_CELLS, _NO_CELLS)[0] if self.scan
                      else np.empty(0, np.int32)]
        levels = getattr(column.parse, "levels", ())
        self.known = len(levels)
        # code by raw cell, each unseen cell taking the next code
        self.codes: defaultdict[str, int] = defaultdict(
            count(self.known).__next__, zip(levels, count()))
        self.joint = np.empty(0, np.int32)  # code by joint piece number
        self.parsed: list = list(levels)  # value by code; None for a bad cell
        self.faults: dict[int, str] = {}  # message by code of a bad cell

    def parse(self, cell: str) -> tuple[Any, str | None]:
        text = cell.strip()
        if text == "" and self.column.required:
            return None, "missing value"
        try:
            return self.column.parse(text), None
        except (ValueError, IngestError) as exc:
            return None, str(exc)

    def spans(self, cells: dict[int, Sequence[str]], width: int, n: int,
              data: bytes | None,
              ends: np.ndarray | None) -> tuple[bytes, np.ndarray, np.ndarray]:
        """Bytes holding this column's n cells raw, and each cell's start
        and end offset in them: a plain chunk's own data, whose cells end
        at ends, else the cells encoded once and joined, each followed by a
        comma."""
        if data is not None and self.at is not None:
            if self.at:
                starts = ends[self.at - 1::width] + 1
            else:  # a row's first cell starts after the row before's LF,
                # two bytes past that row's last cell end if it is a CRLF's CR
                starts = np.concatenate((
                    [0], ends[width - 1:-1:width] + 1 + (b"\r" in data)))
            return data, starts, ends[self.at::width]
        raw = cells[self.at] if self.at is not None else [""] * n
        encoded = [cell.encode() for cell in raw]
        size = np.fromiter(map(len, encoded), np.int64, len(encoded))
        cell_ends = np.cumsum(size + 1) - 1
        return b",".join(encoded) + b",", cell_ends - size, cell_ends

    def add(self, cells: dict[int, Sequence[str]], width: int, n: int,
            data: bytes | None, ends: np.ndarray | None) -> list[tuple[int, str]]:
        """Take a chunk of n rows of width cells, as _chunks yields it; the
        (row, message) of each bad cell of this column."""
        bad = []
        if self.scan is not None:
            chunk, starts, stops = self.spans(cells, width, n, data, ends)
            values, ok = self.scan(chunk, starts, stops)
            for row in np.flatnonzero(~ok).tolist():
                value, message = self.parse(chunk[starts[row]:stops[row]].decode())
                if message is None:
                    values[row] = value
                else:
                    bad.append((row, message))
            self.parts.append(values)
            return bad
        raw = cells[self.at] if self.at is not None else [""] * n
        if isinstance(raw, _Joint):
            self.joint = np.concatenate((self.joint, np.fromiter(
                map(self.codes.__getitem__, raw.new), np.int32, len(raw.new))))
            codes = self.joint[raw.ids]
        else:
            codes = np.fromiter(map(self.codes.__getitem__, raw), np.int32, n)
        new = list(islice(reversed(self.codes), len(self.codes) - len(self.parsed)))
        new.reverse()  # the cells first seen here, in code order
        if self.column.parse is str:  # plain text: every new cell stripped at once
            values = [cell.strip() for cell in new]
            if self.column.required and "" in values:
                for k in [k for k, value in enumerate(values) if value == ""]:
                    self.faults[len(self.parsed) + k] = "missing value"
                    values[k] = None
            self.parsed += values
        else:
            for cell in new:
                value, message = self.parse(cell)
                if message is not None:
                    self.faults[len(self.parsed)] = message
                self.parsed.append(value)
        if self.faults:
            for row in np.flatnonzero(np.isin(codes, list(self.faults))).tolist():
                bad.append((row, self.faults[int(codes[row])]))
        self.parts.append(codes)
        return bad

    def finish(self, table: Table, keep: np.ndarray) -> None:
        """Put the column, over the rows keep selects, into table."""
        name = self.column.name
        values = np.concatenate(self.parts)
        self.parts.clear()
        table.data[name] = values = values[keep] if table.bad else values
        if self.scan is not None:
            return
        if not table.bad and len(set(self.parsed)) == len(self.parsed):
            # each code is its value's first: the codes are already the levels
            table.levels[name] = tuple(self.parsed)
            return
        # the known values keep their codes; the others follow in order of
        # first appearance, unless a dropped row held the first appearance
        # of some cell
        order = range(len(self.parsed))
        if table.bad:
            present, first = np.unique(values, return_index=True)
            k = np.searchsorted(present, self.known)
            order = [*range(self.known),
                     *present[k:][np.argsort(first[k:])].tolist()]
        levels: dict[Any, int] = {}
        remap = np.zeros(len(self.parsed), dtype=np.int32)
        for code in order:
            remap[code] = levels.setdefault(self.parsed[code], len(levels))
        table.data[name] = remap[values]
        table.levels[name] = tuple(levels)


#: a line as a file opened with newline='' splits it, as csv.reader takes
#: it: up to an LF, a CRLF or a bare CR, or the rest of the data
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")

_CR, _LF = ord("\r"), ord("\n")


def _chunks(fh, label, error: type[IngestError],
            coded: Callable[[list[str]], list[int]]) -> Iterator:
    """The header cells of the CSV text in the binary file fh, then its data
    rows, each padded or cut to the header's width, in chunks of (cells,
    lines, data, ends): cells maps a header position to the raw cells of
    its column, as strs in row order or as _Joint; lines holds the line
    that ends each row, as csv.reader counts lines; data and ends are, for
    a chunk split on bytes, its bytes, LF-terminated, and the offset in
    data of the byte after each cell (a comma, or the CR or LF that ends
    its line), else None, None. A chunk split on bytes has cells only at
    the positions that coded(header) lists; one read by csv.reader has them
    at every position.

    The file is read in blocks cut after their last line end (_blocks): the
    first, which gives the header, of about _CHUNK_BYTES, each later one of
    about _BULK times as many. A block is split on bytes only if it holds
    no quote and no NUL, its lines all end in an LF or all in a CRLF, none
    is empty, and its delimiters make rows of the header's width
    (_row_ends); a CRLF's CR stays and ends its line's last cell. The
    split (_split) gives a piece per row for each span of coded positions.
    A span is one position, or a run of adjacent ones while its pieces
    repeat: such a joint piece is numbered and split on its commas once
    per distinct piece (_joint), and the run goes back to a span per
    position for the rest of the file once it has more distinct pieces
    than half the rows read. From the first block that is not split on
    bytes, or that is not UTF-8, the rest of the file goes through
    csv.reader."""
    blocks = _blocks(fh)
    taken = [b"", 0]  # the block of the last line taken, and the offset after it

    def head() -> Iterator[str]:
        """The lines of the blocks, one at a time, as far as the header
        takes them."""
        lines = (match for block in blocks for match in _LINE.finditer(block))
        for i, match in enumerate(lines):
            taken[:] = match.string, match.end()
            yield _decode(match[0], label, error, i, "utf-8" if i else "utf-8-sig")

    def spans() -> list[list[int]]:
        return [span for run in runs
                for span in ([run] if run[0] in joint else [[k] for k in run])]

    lines = head()
    line, reader = 0, csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise error("empty file, header expected", path=label)
        yield header
        width, line = len(header), reader.line_num
        # the runs of adjacent coded positions, and the numbers of the joint
        # pieces of each run of two or more that is still split as one
        runs = [[k for _, k in group] for _, group in
                groupby(enumerate(coded(header)), lambda pair: pair[1] - pair[0])]
        joint = {run[0]: defaultdict(count().__next__) for run in runs if len(run) > 1}
        split_at, split_rows = spans(), 0
        # the header's block is let go, its rest copied, so that no block
        # stays referenced through the read (one that did raised the
        # published-day benchmark's peak RSS by about 1 MB)
        lines.close()
        rest = taken[0][taken[1]:]
        taken.clear()
        if rest:
            blocks = chain([rest], blocks)
        for raw in blocks:
            if b'"' in raw or b"\0" in raw:
                break
            data = raw if raw.endswith(b"\n") else raw + b"\n"
            if (ends := _row_ends(data, width)) is None:
                break
            try:
                pieces = _split(data, ends, width, split_at)
            except UnicodeDecodeError:
                break  # csv.reader's path locates the byte
            cells: dict[int, Any] = {}
            for span, cut in zip(split_at, pieces):
                if len(span) == 1:
                    cells[span[0]] = cut
                else:
                    cells.update(zip(span, _joint(joint[span[0]], cut, len(span))))
            n = len(ends) // width
            yield cells, np.arange(line + 1, line + n + 1, dtype=np.int32), data, ends
            line += n
            split_rows += n
            for k in [k for k, numbers in joint.items() if 2 * len(numbers) > split_rows]:
                del joint[k]
                split_at = spans()
        else:
            return
        reader = csv.reader(_lines(chain([raw], blocks), label, error, line))
        rows: list[list[str]] = []
        row_ends: list[int] = []
        for row in chain(reader, [None]):  # None flushes the last chunk
            if row:
                rows.append(row if len(row) == width
                            else (row + [""] * width)[:width])
                row_ends.append(line + reader.line_num)
            if rows and (row is None or len(rows) == _CHUNK_ROWS):
                yield (dict(enumerate(zip(*rows))), np.array(row_ends, np.int32),
                       None, None)
                rows, row_ends = [], []
    except csv.Error as exc:
        raise error(str(exc), path=label, line=line + reader.line_num) from None


def _split(data: bytes, ends: np.ndarray, width: int,
           spans: list[list[int]]) -> list[list[str]]:
    """For each span of adjacent cells of the rows of width cells in data,
    whose cells end at ends and whose lines all end alike (_row_ends), the
    text of that span in each row. A copy of data has a NUL written over
    the byte before and the byte after each span, the LF of the row before
    for a row's first cell, and is decoded once and split at the NULs, every
    row giving as many pieces. Without spans, data is decoded all the same,
    so that a byte that is not UTF-8 raises UnicodeDecodeError alike."""
    if not spans:
        data.decode("utf-8")
        return []
    n = len(ends) // width
    # spot c < width is the byte after cell c, and spot width the row's LF,
    # which is the byte after its last cell unless the lines end in CRLFs
    spots = sorted({c for span in spans
                    for c in (span[0] - 1 if span[0] else width, span[-1])})
    if b"\r" not in data:
        spots = sorted({min(c, width - 1) for c in spots})
    at = ends.reshape(n, width)[:, [min(c, width - 1) for c in spots]]
    if spots[-1] == width:
        at[:, -1] += 1
    split = bytearray(data)
    np.frombuffer(split, np.uint8)[at] = 0
    pieces = split.decode("utf-8").split("\0")
    m = len(spots)
    return [pieces[spots.index(span[-1]):n * m:m] for span in spans]


def _joint(numbers: defaultdict[str, int], pieces: list[str],
           r: int) -> list[_Joint]:
    """The cells of joint pieces of r cells as r _Joint: each piece numbered
    by numbers, an unseen one taking the next number, and the pieces first
    seen here split on their commas, once each."""
    seen = len(numbers)
    ids = np.fromiter(map(numbers.__getitem__, pieces), np.int32, len(pieces))
    new = list(islice(reversed(numbers), len(numbers) - seen))
    new.reverse()
    cells = ",".join(new).split(",") if new else []
    return [_Joint(cells[j::r], ids) for j in range(r)]


def _row_ends(data: bytes, width: int) -> Optional[np.ndarray]:
    """The offset of the byte after each cell of LF-terminated data, if its
    lines all end in an LF or all in a CRLF (as many CRs as lines, one
    before each LF), and its commas and LFs make lines of width cells:
    width - 1 commas and then a line end each, and so none empty, which for
    width 1 is checked apart. A cell ends at the comma after it, a line's
    last cell at its line end."""
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == _LF))
    n = len(ends) // width
    if len(ends) % width or not ((buf[ends] == _LF).reshape(n, width)
                                 == (np.arange(width) == width - 1)).all():
        return None
    feeds = ends[width - 1::width]  # a view: the line ends are set in ends
    crlf = b"\r" in data
    if crlf and (np.count_nonzero(buf == _CR) != n
                 or not (buf[feeds - 1] == _CR).all()):
        return None
    if width == 1 and (np.diff(feeds, prepend=-1) == 1 + crlf).any():
        return None  # an empty line
    if crlf:
        feeds -= 1
    return ends


def _blocks(fh) -> Iterator[bytes]:
    """The binary file fh in blocks of whole lines: each read up to its last
    line end, after what the reads before it left over, the first read of
    _CHUNK_BYTES bytes and every later one of _BULK * _CHUNK_BYTES. A line
    ends at an LF or at a CR that no LF follows; a CR that ends a read is
    known to end a line only from the next read. The last block may lack
    its line end."""
    rest = [b""]  # the bytes since the last line end
    size = _CHUNK_BYTES
    while block := fh.read(size):
        size = _BULK * _CHUNK_BYTES
        cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if cut:
            yield b"".join([*rest, block[:cut]])
            rest = [block[cut:]]
        elif rest[-1].endswith(b"\r") and block[:1] != b"\n":
            yield b"".join(rest)
            rest = [block]
        else:
            rest.append(block)
    if tail := b"".join(rest):
        yield tail


def _lines(blocks: Iterable[bytes], label, error: type[IngestError],
           line: int) -> Iterator[str]:
    """The text lines of blocks of whole lines, split as a file opened with
    newline='' splits them; line is the line before the first."""
    for block in blocks:
        lines = io.StringIO(_decode(block, label, error, line), newline="").readlines()
        line += len(lines)
        yield from lines


def _decode(data: bytes, label, error: type[IngestError], line: int,
            encoding: str = "utf-8") -> str:
    """data as text; a byte that is not UTF-8 is an error at its line, line
    being the line before data's first."""
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        # exc.object is data less any BOM that the encoding strips
        before = exc.object[:exc.start]
        at = line + 1 + (before.count(b"\n") + before.count(b"\r")
                         - before.count(b"\r\n"))
        raise error(f"byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})",
                    path=label, line=at) from None


# --- the dataset tables ---


def _parse_activity(value: str) -> Activity:
    try:
        return Activity(value)
    except ValueError:
        raise ValueError(f"unknown activity kind {value!r}")


def _parse_int64(value: str) -> int:
    if not -2 ** 63 <= (number := int(value)) < 2 ** 63:
        raise ValueError(f"{number} out of the int64 range")
    return number


def _parse_line_type(value: str, allowed) -> LineType:
    try:
        lt = LineType(value)
    except ValueError:
        raise ValueError(f"unknown line_type {value!r}")
    if lt not in allowed:
        raise ValueError(f"line_type {value!r} not allowed here")
    return lt


#: the range rules of every latitude and longitude column, GTFS's included
LATITUDES = Floats(lambda v: (v >= -90.0) & (v <= 90.0),
                   "latitude {} out of range [-90, 90]")
LONGITUDES = Floats(lambda v: (v >= -180.0) & (v <= 180.0),
                    "longitude {} out of range [-180, 180]")
_COORDINATES = [Column("lat", LATITUDES), Column("lng", LONGITUDES)]


DEVICE_DATA_COLUMNS = [
    "time", "device_id", "lat", "lng", "accuracy",
    "activity_1", "activity_1_conf", "activity_2", "activity_2_conf",
    "activity_3", "activity_3_conf",
]


def load_device_data(path, *, permissive: bool = False,
                     diagnostics: list[str] | None = None,
                     default_date: date | None = None) -> list[DevicePoint]:
    """Load raw device samples, sorted by (time, device_id)."""
    def make(time, device_id, lat, lng, accuracy, *ranked) -> DevicePoint:
        activities = []
        for rank, kind, conf_text in zip((1, 2, 3), ranked[::2], ranked[1::2]):
            if (kind == "") != (conf_text == ""):
                raise ValueError(
                    f"activity_{rank} and activity_{rank}_conf must be "
                    "both present or both empty")
            if kind:
                column = f"column 'activity_{rank}_conf'"
                try:
                    conf = int(conf_text)
                except ValueError as exc:
                    raise ValueError(f"{column}: {exc}") from exc
                if not 0 <= conf <= 100:
                    raise ValueError(f"{column}: {conf} out of range [0, 100]")
                activities.append((_parse_activity(kind), conf))
        confs = [c for _, c in activities]
        if any(later > earlier for earlier, later in zip(confs, confs[1:])):
            raise ValueError(f"confidences {confs} increase with rank")
        return DevicePoint(time, device_id, lat, lng, accuracy,
                           tuple(activities))

    table = load_table(path, [
        Column("time", Stamps(default_date)), Column("device_id", int),
        *_COORDINATES,
        Column("accuracy", Floats(lambda v: ~(v < 0), "{} must be >= 0")),
        *(Column(c, required=False, header=False)
          for c in DEVICE_DATA_COLUMNS[5:])],
        permissive=permissive, diagnostics=diagnostics)
    out = table.build(make)
    out.sort(key=lambda p: (p.time, p.device_id))
    log.info("%s: %d device points", path, len(out))
    return out


FILTERED_COLUMNS = ["time", "device_id", "lat", "lng", "activity"]


def load_filtered_data(path, *, permissive: bool = False,
                       diagnostics: list[str] | None = None,
                       default_date: date | None = None) -> TraceColumns:
    """Load the filtered device table as columns sorted by (device_id, time),
    rows of an equal key in file order."""
    table = load_table(path, [
        Column("time", Stamps(default_date)), Column("device_id", _parse_int64),
        *_COORDINATES,
        Column("activity", lambda v: ACTIVITIES.index(_parse_activity(v)))],
        permissive=permissive, diagnostics=diagnostics)
    table.report()
    trace = TraceColumns(
        table.data["time"], table.array("device_id", np.int64),
        table.data["lat"], table.data["lng"], table.array("activity", np.int8),
    ).by_device()
    shared = (np.diff(trace.device_id) == 0) & (np.diff(trace.times_s) == 0)
    if shared.any():
        table.warn(f"{np.count_nonzero(shared)} row(s) share a (time, device_id) key")
    log.info("%s: %d filtered points", path, len(trace))
    return trace


TRANSIT_LIVE_COLUMNS = ["time", "lat", "lng", "line_type", "line_name", "vehicle_ref"]


def load_transit_live(path, *, permissive: bool = False,
                      diagnostics: list[str] | None = None,
                      default_date: date | None = None) -> FleetColumns:
    """Load live fleet positions as columns in file order (input order is not
    trusted elsewhere; the position index sorts per vehicle).

    Duplicate identical rows are retained and flagged in diagnostics.
    """
    table = load_table(path, [
        Column("time", Stamps(default_date)), *_COORDINATES,
        Column("line_type", lambda v: LINE_TYPES.index(
            _parse_line_type(v, LIVE_LINE_TYPES))),
        Column("line_name", required=False), Column("vehicle_ref")],
        permissive=permissive, diagnostics=diagnostics)
    table.report()
    fleet = FleetColumns(
        times_s=table.data["time"], lats=table.data["lat"], lngs=table.data["lng"],
        line_type=table.array("line_type", np.int8),
        line_name=table.data["line_name"], vehicle_ref=table.data["vehicle_ref"],
        names=table.levels["line_name"], refs=table.levels["vehicle_ref"])
    n_dupes = _count_duplicates(fleet)
    if n_dupes:
        table.warn(f"{n_dupes} duplicate identical row(s) retained")
    log.info("%s: %d vehicle positions", path, len(fleet))
    return fleet


def _count_duplicates(fleet: FleetColumns) -> int:
    """Rows equal in every column to an earlier row."""
    order = np.take(*fleet.time_sorts(fleet.vehicle_ref))
    ref, time = fleet.vehicle_ref[order], fleet.times_s[order]
    tied = np.flatnonzero((ref[1:] == ref[:-1]) & (time[1:] == time[:-1]))
    # duplicates share (vehicle_ref, time), so only rows in such ties can be
    rows = order[np.union1d(tied, tied + 1)]
    # +0.0 folds -0.0 into 0.0, which compare equal as row values
    keys = np.column_stack([fleet.times_s[rows], fleet.lats[rows] + 0.0,
                            fleet.lngs[rows] + 0.0, fleet.line_type[rows],
                            fleet.line_name[rows], fleet.vehicle_ref[rows]])
    return len(rows) - len(np.unique(keys, axis=0))


MANUAL_LOG_ALL_COLUMNS = [
    "device_id", "st_entrance", "st_entry_time", "line_type", "line_name",
    "vehicle_dep_time", "vehicle_dep_stop", "vehicle_arr_time",
    "vehicle_arr_stop", "st_exit_location", "st_exit_time", "comments",
]


def load_manual_log(path, *, permissive: bool = False,
                    diagnostics: list[str] | None = None,
                    default_date: date | None = None) -> list[ManualTrip]:
    """Load the manual travel diary in file order."""
    stamps = Stamps(default_date)

    def optional(name: str, parse=str) -> Column:
        return Column(name, parse, required=False, header=False)

    def make(device_id, line_type, line_name, dep, arr, *rest) -> ManualTrip:
        if dep is not None and arr is not None and dep > arr:
            raise ValueError(
                f"vehicle_dep_time {format_timestamp(dep)} after "
                f"vehicle_arr_time {format_timestamp(arr)}")
        return ManualTrip(device_id, line_type, line_name, dep, arr, *rest)

    table = load_table(path, [
        Column("device_id", int),
        Column("line_type", lambda v: _parse_line_type(v, LOG_LINE_TYPES)),
        Column("line_name", required=False),
        optional("vehicle_dep_time", stamps), optional("vehicle_arr_time", stamps),
        optional("st_entrance"), optional("st_entry_time", stamps),
        optional("vehicle_dep_stop"), optional("vehicle_arr_stop"),
        optional("st_exit_location"), optional("st_exit_time", stamps),
        optional("comments")], permissive=permissive, diagnostics=diagnostics)
    out = table.build(make)
    log.info("%s: %d manual trips", path, len(out))
    return out


def load_device_models(path, *, permissive: bool = False,
                       diagnostics: list[str] | None = None) -> list[DeviceModelEntry]:
    seen: set[int] = set()

    def make(device_id: int, model: str) -> DeviceModelEntry:
        if device_id in seen:
            raise ValueError(f"duplicate device_id {device_id}")
        seen.add(device_id)
        return DeviceModelEntry(device_id, model)

    return load_table(path, [Column("device_id", int),
                             Column("model", required=False)],
                      permissive=permissive, diagnostics=diagnostics).build(make)


@dataclass(frozen=True)
class TrainStops:
    """Opaque parsed train stop-time records; parsed but never matched on."""

    trains: list

    @property
    def train_count(self) -> int:
        return len(self.trains)


def load_train_stops(path) -> TrainStops:
    """Parse the train stop-time JSON, UTF-8 with or without a BOM: a list of
    trains, an object with them as its "junat" list, or {}. A byte that is
    not UTF-8 and invalid JSON are errors at their line, any other shape an
    error of the file."""
    p = Path(path)
    if not p.exists():
        raise IngestError("file not found", path=path)
    text = _decode(p.read_bytes(), path, IngestError, 0, "utf-8-sig")
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON at column {exc.colno}: {exc.msg}",
                          path=path, line=exc.lineno) from None
    trains = (tree.get("junat", None if tree else [])
              if isinstance(tree, dict) else tree)
    if not isinstance(trains, list):
        raise IngestError("expected a list of trains or an object with a "
                          "'junat' list", path=path)
    log.info("%s: %d train records", path, len(trains))
    return TrainStops(trains)


# --- serialization (round-trip partners of the loaders) ---


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The UTF-8 CSV table of header and rows at path, cells spelled by
    csv.writer: every table that the program writes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_device_data(points: Sequence[DevicePoint], path) -> None:
    def row(p: DevicePoint):
        cells = [format_timestamp(p.time), str(p.device_id),
                 repr(p.lat), repr(p.lng), repr(p.accuracy)]
        for rank in range(3):
            if rank < len(p.activities):
                kind, conf = p.activities[rank]
                cells += [kind.value, str(conf)]
            else:
                cells += ["", ""]
        return cells

    write_csv(path, DEVICE_DATA_COLUMNS, (row(p) for p in points))


def write_filtered_data(points: Iterable[FilteredPoint], path) -> None:
    write_csv(path, FILTERED_COLUMNS,
              ([format_timestamp(p.time), str(p.device_id), repr(p.lat),
                repr(p.lng), p.activity.value] for p in points))


def write_transit_live(positions, path) -> None:
    write_csv(path, TRANSIT_LIVE_COLUMNS,
              ([format_timestamp(v.time), repr(v.lat), repr(v.lng),
                v.line_type.value, v.line_name, v.vehicle_ref]
               for v in positions))


def write_manual_log(trips: Sequence[ManualTrip], path) -> None:
    def fmt(t: Optional[datetime]) -> str:
        return format_timestamp(t) if t is not None else ""

    write_csv(path, MANUAL_LOG_ALL_COLUMNS,
              ([str(t.device_id), t.st_entrance, fmt(t.st_entry_time),
                t.line_type.value, t.line_name, fmt(t.vehicle_dep_time),
                t.vehicle_dep_stop, fmt(t.vehicle_arr_time), t.vehicle_arr_stop,
                t.st_exit_location, fmt(t.st_exit_time), t.comments]
               for t in trips))


def write_device_models(entries: Sequence[DeviceModelEntry], path) -> None:
    write_csv(path, ["device_id", "model"],
              ([str(e.device_id), e.model] for e in entries))
