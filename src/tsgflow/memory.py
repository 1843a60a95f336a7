"""Blackboard memory: keyed store for structured data plus compact rendering.

Values are scalars, lists of scalars, name->scalar records, or tables
(named, typed columns with row-major cells). Plugins deposit large results
here and hand back references; the context summary of a value is a
deterministic text rendering capped at a byte budget (schema plus a small
row sample for tables), so arbitrarily large payloads never enter an
executor's context wholesale.

Two backends share one interface: an in-memory dict and an append-log file
store whose length-prefixed records replay to the same state. Keys can be
namespaced per run through RunScope so concurrent runs never collide.
"""

from __future__ import annotations

import csv
import io
import json
import re
import struct
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter, methodcaller
from pathlib import Path

from .errors import TsgflowError

COLUMN_TYPES = ("text", "integer", "decimal", "timestamp", "boolean")
DEFAULT_SAMPLE_ROWS = 3
DEFAULT_CONTEXT_BUDGET = 2048


class MemoryStoreError(TsgflowError):
    pass


class InvalidKey(MemoryStoreError):
    pass


class KeyNotFound(MemoryStoreError):
    def __init__(self, key: str):
        super().__init__(f"no value stored under {key!r}")
        self.key = key


class InvalidValue(MemoryStoreError):
    pass


class CorruptLog(MemoryStoreError):
    """A whole record of a FileBackedStore log does not decode."""


def _is_scalar(x) -> bool:
    return isinstance(x, (str, int, float, bool, datetime))


_JSON_ATOMS = frozenset({str, int, float, bool, type(None)})
_TIMESTAMP_ATOMS = _JSON_ATOMS | {datetime}


def _check_encodable(cells, timestamps: bool) -> None:
    """Raise TypeError, as encode_value would, for a cell it cannot encode.

    Only cells that are not plain JSON atoms (nor datetimes in a timestamp
    column) are encoded, one at a time.
    """
    for cell in cells:
        if type(cell) not in _JSON_ATOMS and not (timestamps and isinstance(cell, datetime)):
            json.dumps(cell, sort_keys=True)


def _check_schema(columns, types) -> None:
    if len(columns) != len(types):
        raise InvalidValue("column names and types differ in length")
    for t in types:
        if t not in COLUMN_TYPES:
            raise InvalidValue(f"unknown column type {t!r}")


def _check_widths(rows, width: int, first: int = 0) -> None:
    """Raise InvalidValue naming the first row that does not have `width` cells.

    `first` is the index of rows[0] in its table.
    """
    if set(map(len, rows)) <= {width}:
        return
    for i, row in enumerate(rows, first):
        if len(row) != width:
            raise InvalidValue(f"row {i} has {len(row)} cells, expected {width}")


@dataclass
class Table:
    columns: list[str]
    types: list[str]
    rows: list[list]

    def __post_init__(self):
        _check_schema(self.columns, self.types)
        _check_widths(self.rows, len(self.columns))

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def column_count(self) -> int:
        return len(self.columns)


@dataclass
class MemoryValue:
    kind: str  # scalar | list | record | table
    payload: object

    def __post_init__(self):
        if self.kind == "scalar":
            if not _is_scalar(self.payload):
                raise InvalidValue(f"scalar payload of type {type(self.payload).__name__}")
        elif self.kind == "list":
            if not isinstance(self.payload, list) or not all(_is_scalar(x) for x in self.payload):
                raise InvalidValue("list payload must be a list of scalars")
        elif self.kind == "record":
            if not isinstance(self.payload, dict) or not all(
                isinstance(k, str) and _is_scalar(v) for k, v in self.payload.items()
            ):
                raise InvalidValue("record payload must map names to scalars")
        elif self.kind == "table":
            if not isinstance(self.payload, Table):
                raise InvalidValue("table payload must be a Table")
            t: Table = self.payload
            _check_encodable(t.columns, False)
            for i, col_type in enumerate(t.types):
                timestamps = col_type == "timestamp"
                column = itemgetter(i)
                if not set(map(type, map(column, t.rows))) <= (
                    _TIMESTAMP_ATOMS if timestamps else _JSON_ATOMS
                ):
                    _check_encodable(map(column, t.rows), timestamps)
        else:
            raise InvalidValue(f"unknown value kind {self.kind!r}")

    @cached_property
    def byte_size(self) -> int:
        """Size of encode_value's UTF-8 encoding, computed on first read."""
        return len(encode_value(self).encode("utf-8"))


def memory_value(x) -> MemoryValue:
    """Wrap a plain Python value in a MemoryValue, inferring the kind."""
    if isinstance(x, MemoryValue):
        return x
    if isinstance(x, Table):
        return MemoryValue("table", x)
    if _is_scalar(x):
        return MemoryValue("scalar", x)
    if isinstance(x, list):
        return MemoryValue("list", x)
    if isinstance(x, dict):
        return MemoryValue("record", x)
    raise InvalidValue(f"cannot store value of type {type(x).__name__}")


def value_from_literal(x) -> MemoryValue:
    """Coerce a JSON literal (from a scenario or wire message) to a MemoryValue.

    A dict with "columns", "types" and "rows" keys becomes a table; other
    dicts become records. A table literal that is not lists of columns,
    types and equally long rows, or whose timestamp cell does not parse,
    raises InvalidValue.
    """
    if isinstance(x, dict) and {"columns", "types", "rows"} <= set(x):
        columns, types, rows = x["columns"], x["types"], x["rows"]
        if not (isinstance(columns, list) and isinstance(types, list) and isinstance(rows, list)
                and all(isinstance(row, list) for row in rows)):
            raise InvalidValue("a table literal holds lists of columns, types and rows")
        _check_widths(rows, len(types))  # before types[i] is read; Table checks the rest
        try:
            rows = [[_cell_from_json(cell, types[i]) for i, cell in enumerate(row)] for row in rows]
        except ValueError as exc:  # a timestamp cell that does not parse
            raise InvalidValue(f"table literal: {exc}") from None
        return MemoryValue("table", Table(list(columns), list(types), rows))
    return memory_value(x)


# -- serialization ----------------------------------------------------------

def _scalar_to_json(x):
    if isinstance(x, datetime):
        return {"$ts": format_timestamp(x)}
    return x

def _scalar_from_json(x):
    if isinstance(x, dict) and "$ts" in x:
        return parse_timestamp(x["$ts"])
    return x

def parse_timestamp(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))

def as_utc(dt: datetime) -> datetime:
    """`dt` itself when it has an offset; a naive `dt` is taken as UTC."""
    return dt if dt.tzinfo is not None else dt.replace(tzinfo=timezone.utc)

def format_timestamp(dt: datetime) -> str:
    """ISO-8601 text in UTC with a `Z` suffix; a naive datetime is taken as UTC.
    A time whose UTC form is out of datetime's range keeps its own offset."""
    try:
        return as_utc(dt).astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
    except OverflowError:  # 0001-01-01T00:00:00+05:00 falls before year 1 in UTC
        return dt.isoformat()

def _cell_to_json(cell, col_type: str):
    if col_type == "timestamp" and isinstance(cell, datetime):
        return format_timestamp(cell)
    return cell

def _cell_from_json(cell, col_type: str):
    if col_type == "timestamp" and isinstance(cell, str):
        return parse_timestamp(cell)
    return cell


def encode_value(value: MemoryValue) -> str:
    """Compact JSON encoding; also the basis of byte_size accounting."""
    if value.kind == "scalar":
        payload = _scalar_to_json(value.payload)
    elif value.kind == "list":
        payload = [_scalar_to_json(x) for x in value.payload]
    elif value.kind == "record":
        payload = {k: _scalar_to_json(v) for k, v in value.payload.items()}
    else:
        t: Table = value.payload
        payload = {
            "columns": t.columns,
            "types": t.types,
            "rows": [[_cell_to_json(c, t.types[i]) for i, c in enumerate(row)] for row in t.rows],
        }
    return json.dumps({"kind": value.kind, "payload": payload}, separators=(",", ":"), sort_keys=True)


def decode_value(text: str) -> MemoryValue:
    obj = json.loads(text)
    kind, payload = obj["kind"], obj["payload"]
    if kind == "scalar":
        return MemoryValue("scalar", _scalar_from_json(payload))
    if kind == "list":
        return MemoryValue("list", [_scalar_from_json(x) for x in payload])
    if kind == "record":
        return MemoryValue("record", {k: _scalar_from_json(v) for k, v in payload.items()})
    types = payload["types"]
    rows = [[_cell_from_json(c, types[i]) for i, c in enumerate(row)] for row in payload["rows"]]
    return MemoryValue("table", Table(payload["columns"], types, rows))


# -- context rendering ------------------------------------------------------

@dataclass
class ContextSummary:
    key: str
    kind: str
    row_count: int | None
    column_count: int | None
    sample: list[list[str]] | str
    text: str
    rendered_bytes: int


def _render_cell(cell, cap: int | None) -> str:
    if isinstance(cell, datetime):
        text = format_timestamp(cell)
    elif isinstance(cell, bool):
        text = "true" if cell else "false"
    else:
        text = str(cell)
    if cap is not None and len(text) > cap:
        text = text[: max(cap - 1, 1)] + "…"
    return text


def _render_table(key: str, t: Table, sample_rows: int, visible: int, cap: int | None):
    hidden = t.column_count - visible
    names = [f"{n}:{ty}" for n, ty in zip(t.columns[:visible], t.types[:visible])]
    if hidden > 0:
        names.append(f"… +{hidden} more")
    lines = [
        f"memory[{key}]: table {t.row_count} rows x {t.column_count} cols",
        "columns: " + ", ".join(names),
    ]
    shown = t.rows[: max(sample_rows, 0)]
    sample: list[list[str]] = []
    for i, row in enumerate(shown, start=1):
        cells = [_render_cell(c, cap) for c in row[:visible]]
        if hidden > 0:
            cells.append(f"… +{hidden} more")
        sample.append(cells)
        lines.append(f"row {i}: " + " | ".join(cells))
    return "\n".join(lines), sample


def render_context(
    value: MemoryValue,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    budget: int = DEFAULT_CONTEXT_BUDGET,
    key: str = "",
) -> ContextSummary:
    """Deterministic compact rendering of a value, at most `budget` bytes.

    Tables render a header, the column schema and up to `sample_rows` rows;
    when over budget, cell texts are capped and then the rightmost columns
    are dropped behind an "… +k more" marker until the rendering fits.
    """
    if value.kind == "table":
        t: Table = value.payload
        plan = [(t.column_count, None)]
        plan += [(t.column_count, cap) for cap in (128, 64, 32, 16, 8)]
        plan += [(v, 8) for v in range(t.column_count - 1, 0, -1)]
        text, sample = "", []
        for visible, cap in plan:
            text, sample = _render_table(key, t, sample_rows, visible, cap)
            if len(text.encode("utf-8")) <= budget:
                break
        return ContextSummary(
            key=key,
            kind="table",
            row_count=t.row_count,
            column_count=t.column_count,
            sample=sample,
            text=text,
            rendered_bytes=len(text.encode("utf-8")),
        )

    if value.kind == "scalar":
        body = _render_cell(value.payload, None)
        head = f"memory[{key}]: scalar = "
    elif value.kind == "list":
        body = ", ".join(_render_cell(x, 64) for x in value.payload)
        head = f"memory[{key}]: list len={len(value.payload)} = "
    else:
        body = ", ".join(f"{k}={_render_cell(v, 64)}" for k, v in value.payload.items())
        head = f"memory[{key}]: record fields={len(value.payload)} = "
    text = head + body
    raw = text.encode("utf-8")
    if len(raw) > budget:
        text = raw[: budget - 3].decode("utf-8", errors="ignore") + "…"
    return ContextSummary(
        key=key,
        kind=value.kind,
        row_count=None,
        column_count=None,
        sample=text,
        text=text,
        rendered_bytes=len(text.encode("utf-8")),
    )


@dataclass
class MemoryRef:
    """A stored value's key and kind. `summary`, the value's context rendering
    under `key`, is rendered on first read."""

    key: str
    kind: str
    value: MemoryValue = field(repr=False)

    @cached_property
    def summary(self) -> ContextSummary:
        return render_context(self.value, key=self.key)


# -- stores -----------------------------------------------------------------

_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


def _check_key(key: str) -> None:
    if not key:
        raise InvalidKey("empty key")
    if _CONTROL.search(key):
        raise InvalidKey(f"control character in key {key!r}")


class MemoryStore:
    """Thread-safe in-memory key-value store for MemoryValues."""

    def __init__(self):
        self._lock = threading.Lock()
        self._data: dict[str, MemoryValue] = {}

    def put(self, key: str, value) -> MemoryRef:
        _check_key(key)
        value = memory_value(value)
        with self._lock:
            self._store(key, value)
        return MemoryRef(key, value.kind, value)

    def _store(self, key: str, value: MemoryValue) -> None:
        self._data[key] = value

    def get(self, key: str) -> MemoryValue:
        with self._lock:
            if key not in self._data:
                raise KeyNotFound(key)
            return self._data[key]

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._data)

    def ref(self, key: str) -> MemoryRef:
        value = self.get(key)
        return MemoryRef(key, value.kind, value)


class FileBackedStore(MemoryStore):
    """Append-log store: one length-prefixed JSON record per put.

    Reopening the same path replays the log, so state survives the process.
    Replay stops at the last whole record. A torn tail (a partial length
    header or a record shorter than its header says, as a crash mid-write
    leaves) is not loaded: `torn_tail` holds its size in bytes (0 for a
    whole log), and the next put cuts it off before appending. A whole
    record that does not decode raises CorruptLog.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        self.torn_tail = 0
        self._whole_bytes = 0
        if self.path.exists():
            self._replay()

    def _replay(self) -> None:
        raw = self.path.read_bytes()
        offset = 0
        while offset + 4 <= len(raw):
            (length,) = struct.unpack(">I", raw[offset : offset + 4])
            end = offset + 4 + length
            if end > len(raw):
                break
            try:
                record = json.loads(raw[offset + 4 : end].decode("utf-8"))
                key = record["key"]
                if not isinstance(key, str):
                    raise InvalidKey(f"key {key!r} is not a string")
                _check_key(key)
                self._data[key] = decode_value(record["value"])
            except (ValueError, LookupError, TypeError, AttributeError, MemoryStoreError) as exc:
                raise CorruptLog(f"{self.path}: record at byte {offset}: {exc!r}") from exc
            offset = end
        self._whole_bytes = offset
        self.torn_tail = len(raw) - offset

    def _store(self, key: str, value: MemoryValue) -> None:
        record = json.dumps({"key": key, "value": encode_value(value)}).encode("utf-8")
        with self.path.open("ab") as handle:
            if self.torn_tail:
                handle.truncate(self._whole_bytes)
                self.torn_tail = 0
            handle.write(struct.pack(">I", len(record)))
            handle.write(record)
        self._data[key] = value


class RunScope:
    """View of a store with every key prefixed by a run id."""

    def __init__(self, store: MemoryStore, run_id: str):
        self._store = store
        self.run_id = run_id

    def _full(self, key: str) -> str:
        _check_key(key)
        return f"{self.run_id}::{key}"

    def put(self, key: str, value) -> MemoryRef:
        """Store under the scoped key; the ref, like ref(), names the short key."""
        ref = self._store.put(self._full(key), value)
        return MemoryRef(key, ref.kind, ref.value)

    def get(self, key: str) -> MemoryValue:
        try:
            return self._store.get(self._full(key))
        except KeyNotFound:
            raise KeyNotFound(key) from None

    def contains(self, key: str) -> bool:
        return self._store.contains(self._full(key))

    def keys(self) -> list[str]:
        prefix = f"{self.run_id}::"
        return [k[len(prefix):] for k in self._store.keys() if k.startswith(prefix)]

    def ref(self, key: str) -> MemoryRef:
        value = self.get(key)
        return MemoryRef(key, value.kind, value)


# -- CSV interchange --------------------------------------------------------

CSV_CHUNK_ROWS = 2048

# Column decoders: each maps an iterable of cell texts to an iterator of
# values, with the per-cell work done inside builtins. A timestamp decodes
# exactly as parse_timestamp does; text cells are kept as they are.
_ZULU_TO_OFFSET = methodcaller("replace", "Z", "+00:00")
_COLUMN_DECODERS = {
    "integer": lambda cells: map(int, cells),
    "decimal": lambda cells: map(float, cells),
    "boolean": lambda cells: map("true".__eq__, map(str.lower, map(str.strip, cells))),
    "timestamp": lambda cells: map(datetime.fromisoformat, map(_ZULU_TO_OFFSET, cells)),
}


def table_to_csv(table: Table) -> str:
    """Header row, then a type row, then data rows.

    Lines end in "\n", so the writer would leave a lone "\r" in a cell
    unquoted, which the reader rejects; a row holding one is written with
    every cell quoted.
    """
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    rendered = ([_render_cell(c, None) for c in row] for row in table.rows)
    for cells in chain((table.columns, table.types), rendered):
        (quoted if any("\r" in c for c in cells) else plain).writerow(cells)
    return buf.getvalue()


def _is_plain(text: str) -> bool:
    """True when the excel dialect splits `text` only on "," and "\n".

    That holds when the text has no quote, carriage return or NUL (which
    csv.reader rejects before Python 3.11), no blank line, and no line
    longer than csv.field_size_limit(), so no field can exceed the limit. A
    run of more than `limit` characters without a newline covers a whole
    block of `limit // 2 + 1` characters starting at a multiple of that
    size, so one find per block rules such lines out.
    """
    if any(c in text for c in '"\r\0') or "\n\n" in text or text.startswith("\n"):
        return False
    step = csv.field_size_limit() // 2 + 1
    return all(text.find("\n", i, i + step) >= 0 for i in range(0, len(text) - step + 1, step))


def _plain_chunks(text: str):
    """Yield the header row, the type row, then one flat cell list per chunk.

    The text must be plain (_is_plain): each line is one row, cut at ",".
    Each chunk's lines are sliced out of the text when it is read; an
    io.StringIO would hold a copy of the whole text, four bytes a character.
    """
    start, size = 0, len(text)

    def lines(count: int) -> list[str]:
        """The next `count` lines, without their "\n"."""
        nonlocal start
        if start >= size:
            return []
        end = start
        for _ in range(count):
            end = text.find("\n", end) + 1 or size
            if end == size:
                break
        block = text[start : end - 1 if text[end - 1] == "\n" else end]
        start = end
        return block.split("\n")

    head = [line.split(",") for line in lines(2)]
    yield from head
    width, first = len(head[0]) if head else 0, 0
    while chunk := lines(CSV_CHUNK_ROWS):
        if set(map(str.count, chunk, repeat(","))) != {width - 1}:
            _check_widths([line.split(",") for line in chunk], width, first)
        yield ",".join(chunk).split(",")
        first += len(chunk)


def _read_rows(reader, count: int, first: int) -> list[list[str]]:
    """Up to `count` rows from a csv reader; `first` is the first one's row index.

    A csv.Error (a field over csv.field_size_limit()) becomes InvalidValue
    naming the row: extend keeps the rows read before the error.
    """
    rows: list[list[str]] = []
    try:
        rows.extend(islice(reader, count))
    except csv.Error as exc:
        at = first + len(rows)
        where = f"row {at}" if at >= 0 else ("header row", "type row")[at + 2]
        raise InvalidValue(f"{where}: {exc}") from None
    return rows


def _reader_chunks(text: str):
    """Yield the header row, the type row, then one flat cell list per chunk.

    Everything is read through csv.reader. A table with no columns yields
    its chunks of empty rows instead, since a flat list of no cells cannot
    count them.
    """
    reader = csv.reader(io.StringIO(text))
    head = _read_rows(reader, 2, -2)
    yield from head
    width, first = len(head[0]) if head else 0, 0
    while chunk := _read_rows(reader, CSV_CHUNK_ROWS, first):
        _check_widths(chunk, width, first)
        yield list(chain.from_iterable(chunk)) if width else chunk
        first += len(chunk)


def _decode_chunk(cells: list, columns: list[str], types: list[str], first: int):
    """Rows of decoded values from one chunk's flat cell list.

    Column i is cells[i::width]. A cell its column type cannot decode raises
    InvalidValue naming its row (`first` is the chunk's first row index) and
    column; only the failing column is decoded again, cell by cell, to find
    the row.
    """
    width = len(columns)
    decoded = []
    for i, col_type in enumerate(types):
        texts = cells[i::width]
        decode = _COLUMN_DECODERS.get(col_type)
        if decode is None:
            decoded.append(texts)
            continue
        try:
            decoded.append(list(decode(texts)))
        except ValueError:
            for row, cell in enumerate(texts, first):
                try:
                    next(decode((cell,)))
                except ValueError as exc:
                    raise InvalidValue(f"row {row}, column {columns[i]!r}: {exc}") from None
            raise
    return map(list, zip(*decoded))


def table_from_csv(text: str) -> Table:
    """Inverse of table_to_csv.

    Data rows are read CSV_CHUNK_ROWS at a time into one flat list of cell
    texts per chunk, checked for ragged rows, cut into columns by slicing,
    decoded column by column and transposed into rows, so raw cell texts
    live only as long as their chunk. A plain text (_is_plain) is cut at
    "," and "\n" directly; any other goes through csv.reader. Both give the
    same cells.
    """
    chunks = _plain_chunks(text) if _is_plain(text) else _reader_chunks(text)
    columns, types = next(chunks, None), next(chunks, None)
    if types is None:
        raise InvalidValue("CSV table needs a header row and a type row")
    _check_schema(columns, types)
    rows: list[list] = []
    for cells in chunks:
        if not columns:
            rows += cells  # the reader's empty rows; see _reader_chunks
            continue
        rows += _decode_chunk(cells, columns, types, len(rows))
    return Table(columns, types, rows)
