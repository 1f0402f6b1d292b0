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
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime
from itertools import chain, count, islice
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


#: the words of a 'YYYY-MM-DD HH:MM:SS' cell, by offset from its start:
#: 'YYYY-MM-', 'DD HH:MM' and 'HH:MM:SS', which cover its 19 bytes
_STAMP_OFFSETS = np.array([0, 8, 11])
_STAMP_ZERO = np.array([word(b"0000-00-"), word(b"00 00:00"), word(b"00:00:00")])
_STAMP_SPAN = np.array([word(bytes(s)) for s in (
    [9, 9, 9, 9, 0, 1, 9, 0], [3, 9, 0, 2, 9, 0, 5, 9], [2, 9, 0, 5, 9, 0, 5, 9])])
#: the (first digit, digits) of year, month, day, hour, minute and second
#: among the 24 digits of the three words, and their place values
_STAMP_FIELDS = [(0, 4), (5, 2), (8, 2), (16, 2), (19, 2), (22, 2)]
_STAMP_WEIGHTS = np.array([[10.0 ** (at + k - 1 - i) if at <= i < at + k else 0.0
                            for at, k in _STAMP_FIELDS] for i in range(24)])
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.cumsum(_DAYS_IN_MONTH) - _DAYS_IN_MONTH


def _stamp_seconds(chunk: bytes, starts: np.ndarray,
                   ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Seconds after TIME_REF of the 'YYYY-MM-DD HH:MM:SS' cells
    chunk[starts:ends], by the proleptic-Gregorian ordinal that datetime
    uses, and which cells are valid times of that form."""
    digits, ok = word_digits(words_at(chunk, starts[:, None] + _STAMP_OFFSETS),
                             _STAMP_ZERO, _STAMP_SPAN)
    year, month, day, hour, minute, second = (
        digits.reshape(len(starts), 24) @ _STAMP_WEIGHTS).astype(np.int64).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    m = np.clip(month, 1, 12) - 1
    # the spans already keep minute and second below 60
    ok = (ok.all(axis=1) & (ends - starts == 19)
          & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
          & (day <= _DAYS_IN_MONTH[m] + (leap & (m == 1))) & (hour <= 23))
    y = year - 1
    ordinal = (y * 365 + y // 4 - y // 100 + y // 400 + _DAYS_BEFORE_MONTH[m]
               + (leap & (m > 1)) + day)
    return ((ordinal - TIME_REF.toordinal()) * 86400
            + hour * 3600 + minute * 60 + second).astype(np.float64), ok


@dataclass(frozen=True)
class Floats:
    """parse of a float column, which parses whole chunks at once: float()
    of the cell, then valid, a range rule over float64 values that fails
    with message.format(value)."""

    valid: Callable[[Any], Any] | None = None
    message: str = ""

    def __call__(self, text: str) -> float:
        value = float(text)
        if self.valid is not None and not self.valid(np.float64(value)):
            raise ValueError(self.message.format(value))
        return value

    def vector(self, cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The values of raw cells, and which are valid (others go to __call__)."""
        try:
            values = np.fromiter(map(float, cells), np.float64, len(cells))
        except ValueError:
            return np.zeros(len(cells)), np.zeros(len(cells), dtype=bool)
        return values, (np.ones(len(cells), dtype=bool) if self.valid is None
                        else self.valid(values))

    decode = staticmethod(np.ndarray.tolist)


@dataclass(frozen=True)
class Stamps:
    """parse of a timestamp column into float seconds after TIME_REF, NaN
    for a blank cell: 'YYYY-MM-DD HH:MM:SS' cells are decoded a chunk at a
    time from their bytes (scan), any other cell through parse_timestamp."""

    default_date: date | None = None

    def __call__(self, text: str) -> float:
        if text == "":
            return math.nan
        return as_seconds(parse_timestamp(text, default_date=self.default_date))

    scan = staticmethod(_stamp_seconds)

    @staticmethod
    def decode(seconds: np.ndarray) -> list[Optional[datetime]]:
        return [None if s != s else from_seconds(s) for s in seconds.tolist()]


@dataclass
class Table:
    """The columns of a table read by read_table, over the rows without a
    bad cell: data[name] is, for a column whose parse has a vector or scan
    form, an array of the dtype that form returns (float64 for Floats and
    Stamps), else an int32 array of codes into levels[name], the distinct
    parsed values in order of first appearance. report or build reports the
    bad rows, in file order with those that build rejects."""

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


#: bytes of a table read per block, and so split per chunk; bounds the
#: transient per-cell strings whatever the file size
_CHUNK_BYTES = 1 << 17

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
    at its line. The file is read in blocks of whole lines (_chunks): a
    plain block is split on bytes, and a column whose parse has a scan form
    is decoded from the block's bytes in place, each cell that form rejects
    going through parse on its own; from the first block with a quote, a
    NUL, a CR outside a CRLF or a row of another width, the rest of the file
    goes through csv.reader.
    """
    chunks = _chunks(fh, label, error)
    names = [h.strip().lower() for h in next(chunks)]
    index = {name: i for i, name in enumerate(names)}
    missing = [c.name for c in columns if c.header and c.name not in index]
    if missing:
        raise error(error.MISSING_COLUMNS.format(missing=missing, found=names),
                    path=label)
    table = Table(label, error, {c.name: c.parse for c in columns}, permissive,
                  diagnostics if diagnostics is not None else [])
    readers = [_ColumnReader(c, index.get(c.name)) for c in columns]
    lines = []
    for cells, chunk_lines, data, ends in chunks:
        first, n = sum(map(len, lines)), len(chunk_lines)
        faults: dict[int, tuple[str, str]] = {}
        for reader in readers:
            for row, message in reader.add(cells, len(names), n, data, ends):
                faults.setdefault(row, (message, reader.column.name))
        for row in sorted(faults):
            blank = "".join(cells[row * len(names):(row + 1) * len(names)])
            table.bad[first + row] = faults[row] if blank.strip() else None
        lines.append(chunk_lines)
    table.lines = np.concatenate([table.lines, *lines])
    keep = np.ones(len(table.lines), dtype=bool)
    keep[list(table.bad)] = False
    for reader in readers:
        reader.finish(table, keep)
    return table


_NO_CELLS = np.empty(0, np.int64)


class _ColumnReader:
    """One column's cells, chunk by chunk: a column whose parse has a scan
    form (chunk bytes, cell starts, cell ends -> values, ok) or a vector
    form (cells -> values, ok) is parsed a chunk at a time into arrays of
    the dtype that form returns, each cell it rejects going through parse;
    any other is dictionary-encoded with each distinct cell parsed once."""

    def __init__(self, column: Column, at: int | None):
        self.column = column
        self.at = at
        self.scan = getattr(column.parse, "scan", None)
        self.vector = getattr(column.parse, "vector", None)
        self.parts = [self.scan(b"", _NO_CELLS, _NO_CELLS)[0] if self.scan
                      else self.vector([])[0] if self.vector
                      else np.empty(0, np.int32)]
        # code by raw cell, each unseen cell taking the next code
        self.codes: defaultdict[str, int] = defaultdict(count().__next__)
        self.parsed: list = []            # value by code; None for a bad cell
        self.faults: dict[int, str] = {}  # message by code of a bad cell

    def parse(self, cell: str) -> tuple[Any, str | None]:
        text = cell.strip()
        if text == "" and self.column.required:
            return None, "missing value"
        try:
            return self.column.parse(text), None
        except (ValueError, IngestError) as exc:
            return None, str(exc)

    def spans(self, raw: list[str], width: int, data: bytes | None,
              ends: np.ndarray | None) -> tuple[bytes, np.ndarray, np.ndarray]:
        """Bytes holding this column's cells raw, and each cell's start and
        end offset in them: a plain chunk's own data, whose cells end at
        ends, else the cells encoded once and joined, each followed by a
        comma."""
        if data is not None and self.at is not None:
            if self.at:
                starts = ends[self.at - 1::width] + 1
            else:  # the first cell of a row starts after the row before
                starts = np.concatenate(([0], ends[width - 1:-1:width] + 1))
            return data, starts, ends[self.at::width]
        encoded = [cell.encode() for cell in raw]
        size = np.fromiter(map(len, encoded), np.int64, len(encoded))
        cell_ends = np.cumsum(size + 1) - 1
        return b",".join(encoded) + b",", cell_ends - size, cell_ends

    def add(self, cells: list[str], width: int, n: int, data: bytes | None,
            ends: np.ndarray | None) -> list[tuple[int, str]]:
        """Take a chunk of n rows of width cells, with the chunk's bytes and
        cell ends when it was split on bytes; the (row, message) of each bad
        cell of this column."""
        raw = cells[self.at::width] if self.at is not None else [""] * n
        bad = []
        if self.scan is not None or self.vector is not None:
            values, ok = (self.scan(*self.spans(raw, width, data, ends))
                          if self.scan is not None else self.vector(raw))
            for row in np.flatnonzero(~ok).tolist():
                value, message = self.parse(raw[row])
                if message is None:
                    values[row] = value
                else:
                    bad.append((row, message))
            self.parts.append(values)
            return bad
        codes = np.fromiter(map(self.codes.__getitem__, raw), np.int32, n)
        new = len(self.codes) - len(self.parsed)  # cells first seen here
        for cell in reversed(list(islice(reversed(self.codes), new))):
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
        if self.scan is not None or self.vector is not None:
            return
        # codes follow first appearance, unless a dropped row held the first
        # appearance of some cell
        order = range(len(self.parsed))
        if table.bad:
            present, first = np.unique(values, return_index=True)
            order = present[np.argsort(first)].tolist()
        levels: dict[Any, int] = {}
        remap = np.zeros(len(self.parsed), dtype=np.int32)
        for code in order:
            remap[code] = levels.setdefault(self.parsed[code], len(levels))
        table.data[name] = remap[values]
        table.levels[name] = tuple(levels)


#: LF to comma, to split a plain chunk's cells at every delimiter at once
_LF_TO_COMMA = bytes.maketrans(b"\n", b",")

#: a line as a file opened with newline='' splits it, as csv.reader takes
#: it: up to an LF, a CRLF or a bare CR, or the rest of the data
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _chunks(fh, label, error: type[IngestError]) -> Iterator:
    """The header cells of the CSV text in the binary file fh, then its data
    rows in chunks of (cells, lines, data, ends): the cells of the chunk's
    rows in row order, each row padded or cut to the header's width, and
    the line that ends each row, as csv.reader counts lines; for a chunk
    split on bytes also its bytes data, CR-free and LF-terminated, and the
    offset in data of the comma or LF after each cell, else None, None.

    The file is read in blocks of about _CHUNK_BYTES cut after their last
    line end (_blocks), the header coming from the first. A block's CRs are
    deleted; if each came right before an LF, the block holds no quote and
    no NUL, and its delimiters make rows of the header's width, it is split
    on bytes. From the first block that is not, the rest of the file goes
    through csv.reader."""
    blocks = _blocks(fh)
    taken = [b"", 0]  # the block of the last line taken, and the offset after it

    def head() -> Iterator[str]:
        """The lines of the blocks, one at a time, as far as the header
        takes them."""
        lines = (match for block in blocks for match in _LINE.finditer(block))
        for i, match in enumerate(lines):
            taken[:] = match.string, match.end()
            yield _decode(match[0], label, error, i, "utf-8" if i else "utf-8-sig")

    lines = head()
    line, reader = 0, csv.reader(lines)
    try:
        header = next(reader, None)
        if header is None:
            raise error("empty file, header expected", path=label)
        yield header
        width, line = len(header), reader.line_num
        # the header's block is let go, its rest copied, so that no block
        # stays referenced through the read (one that did raised the
        # published-day benchmark's peak RSS by about 1 MB)
        lines.close()
        rest = taken[0][taken[1]:]
        taken.clear()
        if rest:
            blocks = chain([rest], blocks)
        for raw in blocks:
            data = raw.translate(None, b"\r") if b"\r" in raw else raw
            if len(data) != len(raw) and raw.count(b"\r\n") != len(raw) - len(data):
                break  # a CR that is not part of a CRLF
            if b'"' in data or b"\0" in data:
                break
            if not data.endswith(b"\n"):
                data += b"\n"
            # a line of width cells has width - 1 commas and then an LF
            buf = np.frombuffer(data, np.uint8)
            ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
            n = len(ends) // width
            if len(ends) % width or not ((buf[ends] == ord("\n")).reshape(n, width)
                                         == (np.arange(width) == width - 1)).all():
                break
            try:
                cells = data.translate(_LF_TO_COMMA).decode("utf-8").split(",")
            except UnicodeDecodeError:
                break  # csv.reader's path locates the byte
            cells.pop()  # after the last LF
            yield cells, np.arange(line + 1, line + n + 1, dtype=np.int32), data, ends
            line += n
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
                yield (list(chain.from_iterable(rows)), np.array(row_ends, np.int32),
                       None, None)
                rows, row_ends = [], []
    except csv.Error as exc:
        raise error(str(exc), path=label, line=line + reader.line_num) from None


def _blocks(fh) -> Iterator[bytes]:
    """The binary file fh in blocks of whole lines: each read of
    _CHUNK_BYTES bytes up to its last line end, after what the reads before
    it left over. A line ends at an LF or at a CR that no LF follows; a CR
    that ends a read is known to end a line only from the next read. The
    last block may lack its line end."""
    rest = [b""]  # the bytes since the last line end
    while block := fh.read(_CHUNK_BYTES):
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


_COORDINATES = [
    Column("lat", Floats(lambda v: (v >= -90.0) & (v <= 90.0),
                         "latitude {} out of range [-90, 90]")),
    Column("lng", Floats(lambda v: (v >= -180.0) & (v <= 180.0),
                         "longitude {} out of range [-180, 180]"))]


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
    order = np.lexsort((fleet.times_s, fleet.vehicle_ref))
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


class TrainStops:
    """Opaque parsed train stop-time records; parsed but never matched on."""

    def __init__(self, tree: object):
        self.tree = tree

    @property
    def train_count(self) -> int:
        tree = self.tree
        if isinstance(tree, dict):
            tree = tree.get("junat", [])
        if isinstance(tree, list):
            return len(tree)
        return 0


def load_train_stops(path) -> TrainStops:
    """Parse the train stop-time JSON; invalid JSON errors carry the offset."""
    p = Path(path)
    if not p.exists():
        raise IngestError("file not found", path=path)
    text = p.read_text(encoding="utf-8")
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON at byte offset {exc.pos}: {exc.msg}",
                          path=path) from exc
    stops = TrainStops(tree)
    log.info("%s: %d train records", path, stops.train_count)
    return stops


# --- serialization (round-trip partners of the loaders) ---


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
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

    _write_csv(path, DEVICE_DATA_COLUMNS, (row(p) for p in points))


def write_filtered_data(points: Iterable[FilteredPoint], path) -> None:
    _write_csv(path, FILTERED_COLUMNS,
               ([format_timestamp(p.time), str(p.device_id), repr(p.lat),
                 repr(p.lng), p.activity.value] for p in points))


def write_transit_live(positions, path) -> None:
    _write_csv(path, TRANSIT_LIVE_COLUMNS,
               ([format_timestamp(v.time), repr(v.lat), repr(v.lng),
                 v.line_type.value, v.line_name, v.vehicle_ref]
                for v in positions))


def write_manual_log(trips: Sequence[ManualTrip], path) -> None:
    def fmt(t: Optional[datetime]) -> str:
        return format_timestamp(t) if t is not None else ""

    _write_csv(path, MANUAL_LOG_ALL_COLUMNS,
               ([str(t.device_id), t.st_entrance, fmt(t.st_entry_time),
                 t.line_type.value, t.line_name, fmt(t.vehicle_dep_time),
                 t.vehicle_dep_stop, fmt(t.vehicle_arr_time), t.vehicle_arr_stop,
                 t.st_exit_location, fmt(t.st_exit_time), t.comments]
                for t in trips))


def write_device_models(entries: Sequence[DeviceModelEntry], path) -> None:
    _write_csv(path, ["device_id", "model"],
               ([str(e.device_id), e.model] for e in entries))
