"""Blackboard memory: keyed store for structured data plus compact rendering.

Values are scalars, lists of scalars, name->scalar records, or tables
(named, typed columns, stored column by column: one list of cells per
column). Plugins deposit large results here and hand back references; the
context summary of a value is a deterministic text rendering capped at a
byte budget (schema plus a small row sample for tables), so arbitrarily
large payloads never enter an executor's context wholesale.

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
import sys
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property, partial
from itertools import chain, islice, repeat
from operator import methodcaller
from pathlib import Path

from .errors import JSON_DECODE_ERRORS, TsgflowError

# The cell types each column type holds: a subclass fits too, but a bool is
# never an integer or a decimal.
_CELL_TYPES = {"text": (str,), "integer": (int,), "decimal": (int, float),
               "timestamp": (datetime,), "boolean": (bool,)}
COLUMN_TYPES = tuple(_CELL_TYPES)
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


_SCALAR_TYPES = tuple(dict.fromkeys(chain.from_iterable(_CELL_TYPES.values())))  # all cell types

# An int inside ±_SHORT_INT has at most 640 digits, the least limit but 0
# (none) that sys.set_int_max_str_digits takes, so any limit lets it be text.
_SHORT_INT = 10 ** 640
# Python before 3.10.7 has no int-to-text limit: read it as 0, none
_int_digits_limit = getattr(sys, "get_int_max_str_digits", int)


def _too_long(x) -> bool:
    """True when `x` is an int with more digits than
    sys.get_int_max_str_digits() lets Python turn into text. Its size is
    read off bit_length() first and compared with a power of ten only where
    that cannot tell, so the check turns nothing into text and cannot raise."""
    if not isinstance(x, int) or -_SHORT_INT < x < _SHORT_INT:
        return False
    limit = _int_digits_limit()
    bound = 10 ** limit  # the least int of limit + 1 digits
    return limit > 0 and (x.bit_length() > bound.bit_length() or abs(x) >= bound)


def _long_int_error(where: str) -> InvalidValue:
    return InvalidValue(f"{where}: an int of more than {_int_digits_limit()} digits, "
                        "past the interpreter's int-to-text limit")


def _fits(col_type: str, cell) -> bool:
    """True when a `col_type` column may hold `cell`."""
    return isinstance(cell, _CELL_TYPES[col_type]) and (
        type(cell) is not bool or col_type == "boolean")


def _misfit(name: str, column: list, fits, want: str) -> InvalidValue:
    """InvalidValue naming the row and column of the first cell fits() refuses."""
    i, cell = next((i, cell) for i, cell in enumerate(column) if not fits(cell))
    return InvalidValue(f"row {i}, column {name!r}: a {type(cell).__name__} cell, expected {want}")


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


def _check_row_types(rows) -> None:
    """Raise InvalidValue when `rows` is not a list or tuple (an iterator
    would be used up by the checks), or naming the first row that is not a
    list or tuple (a string or a dict has a length too, but is no row of
    cells)."""
    if not isinstance(rows, (list, tuple)):
        raise InvalidValue(f"rows is a {type(rows).__name__}, not a list or tuple")
    if set(map(type, rows)) <= {list, tuple}:
        return
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InvalidValue(f"row {i} is a {type(row).__name__}, not a list or tuple")


def _check_cells(t: Table) -> None:
    """Raise InvalidValue naming the first column name that is not text, or
    the first cell its column does not hold or that is an int too long for
    text (_too_long). A column is looked at cell by cell only when it holds
    a type not its own, or, for ints, when an int in it may be too long."""
    for name, col_type, column in zip(t.columns, t.types, t.data):
        if not isinstance(name, str):
            raise InvalidValue(f"column name {name!r} is not text")
        types = set(map(type, column))
        if not types.issubset(_CELL_TYPES[col_type]):
            fits = partial(_fits, col_type)
            if not all(map(fits, column)):
                raise _misfit(name, column, fits, col_type)
        # a column of plain ints is screened by its extremes, one that mixes
        # in other types cell by cell
        if col_type in ("integer", "decimal") and not types <= {float} and (
                not types <= {int} or max(column) >= _SHORT_INT or min(column) <= -_SHORT_INT):
            for i, cell in enumerate(column):
                if _too_long(cell):
                    raise _long_int_error(f"row {i}, column {name!r}")


def _row_lists(data: list, row_count: int, stop: int | None = None) -> list:
    """The first `stop` rows (all when None) of columns `data` holding
    `row_count` rows each, as fresh lists."""
    if not data:  # no columns: only the count says how many empty rows
        return [[] for _ in range(row_count if stop is None else min(stop, row_count))]
    return list(map(list, islice(zip(*data), stop)))


@dataclass(init=False, repr=False)
class Table:
    """Named, typed columns. `data` holds one list of cells per column, in
    column order, and `row_count` the number of rows, which a table without
    columns has too.

    Table(columns, types, rows) takes the cells row by row, each row a list
    or tuple, and transposes them once. `rows` builds fresh row lists on
    each read, so changing them changes no table; equality compares
    columns, types and cells, and the repr shows the rows.
    """

    columns: list[str]
    types: list[str]
    data: list[list]
    row_count: int

    # True when every cell has its column's type by construction: set by
    # table_from_csv and kept by take, so a put skips the cell scan. A class
    # attribute, not a field: no constructor argument sets it, and equality
    # and repr ignore it.
    _cells_typed = False

    def __init__(self, columns: list[str], types: list[str], rows: list[list]):
        _check_schema(columns, types)
        _check_row_types(rows)
        _check_widths(rows, len(columns))
        self.columns = columns
        self.types = types
        self.data = list(map(list, zip(*rows))) if rows else [[] for _ in columns]
        self.row_count = len(rows)

    @classmethod
    def _of_columns(cls, columns: list[str], types: list[str], data: list[list],
                    row_count: int, cells_typed: bool) -> Table:
        """A table holding `data` as it is; the caller vouches for its shape."""
        table = cls.__new__(cls)
        table.columns, table.types, table.data, table.row_count = columns, types, data, row_count
        table._cells_typed = cells_typed
        return table

    def __repr__(self) -> str:
        return f"Table(columns={self.columns!r}, types={self.types!r}, rows={self.rows!r})"

    @property
    def rows(self) -> list[list]:
        """Fresh row lists, built on each read."""
        return _row_lists(self.data, self.row_count)

    def take(self, indices: list[int] | range) -> Table:
        """A table of this table's columns and types holding its rows at
        `indices`, in that order; it keeps this table's typed mark. A step-1
        range inside the table is one slice of each column."""
        if (type(indices) is range and indices.step == 1
                and 0 <= indices.start <= indices.stop <= self.row_count):
            data = [column[indices.start:indices.stop] for column in self.data]
        else:
            data = [list(map(column.__getitem__, indices)) for column in self.data]
        return Table._of_columns(list(self.columns), list(self.types), data,
                                 len(indices), self._cells_typed)

    @property
    def column_count(self) -> int:
        return len(self.columns)


@dataclass
class MemoryValue:
    kind: str  # scalar | list | record | table
    payload: object

    def __post_init__(self):
        if self.kind == "scalar":
            if not isinstance(self.payload, _SCALAR_TYPES):
                raise InvalidValue(f"scalar payload of type {type(self.payload).__name__}")
            if _too_long(self.payload):
                raise _long_int_error("scalar payload")
        elif self.kind == "list":
            if not isinstance(self.payload, list) or not all(
                    map(isinstance, self.payload, repeat(_SCALAR_TYPES))):
                raise InvalidValue("list payload must be a list of scalars")
            for i, x in enumerate(self.payload):
                if _too_long(x):
                    raise _long_int_error(f"list item {i}")
        elif self.kind == "record":
            if not isinstance(self.payload, dict) or not (
                    all(map(isinstance, self.payload, repeat(str)))
                    and all(map(isinstance, self.payload.values(), repeat(_SCALAR_TYPES)))):
                raise InvalidValue("record payload must map names to scalars")
            for name, x in self.payload.items():
                if _too_long(x):
                    raise _long_int_error(f"record field {name!r}")
        elif self.kind == "table":
            if not isinstance(self.payload, Table):
                raise InvalidValue("table payload must be a Table")
            if not self.payload._cells_typed:
                _check_cells(self.payload)
        else:
            raise InvalidValue(f"unknown value kind {self.kind!r}")

    @cached_property
    def byte_size(self) -> int:
        """Size of encode_value's UTF-8 encoding, computed on first read."""
        return len(encode_value(self).encode("utf-8"))


def memory_value(x) -> MemoryValue:
    """Wrap a plain Python value in a MemoryValue, inferring the kind."""
    if type(x) in _SCALAR_TYPES:  # a scalar by its exact type: only an int's length to check
        if type(x) is int and _too_long(x):
            raise _long_int_error("scalar payload")
        value = object.__new__(MemoryValue)
        value.kind, value.payload = "scalar", x
        return value
    if isinstance(x, MemoryValue):
        return x
    for kind, cls in (("table", Table), ("scalar", _SCALAR_TYPES), ("list", list), ("record", dict)):
        if isinstance(x, cls):
            return MemoryValue(kind, x)
    raise InvalidValue(f"cannot store value of type {type(x).__name__}")


_TABLE_LITERAL_KEYS = frozenset(("columns", "types", "rows"))


def value_from_literal(x) -> MemoryValue:
    """Coerce a JSON literal (from a scenario or wire message) to a MemoryValue.

    A dict with "columns", "types" and "rows" keys becomes a table; other
    dicts become records. A table literal that is not lists of columns,
    types and equally long rows, or holds a cell its column does not (a
    timestamp is text that parse_timestamp reads), raises InvalidValue.
    """
    if type(x) in _SCALAR_TYPES:  # most literals, tested first
        return memory_value(x)
    if isinstance(x, dict):
        if x.keys() >= _TABLE_LITERAL_KEYS:
            return _table_from_json(x["columns"], x["types"], x["rows"])
        return MemoryValue("record", x)
    return memory_value(x)


def _table_from_json(columns, types, rows) -> MemoryValue:
    """The table of a table literal or of a log's table record, its
    timestamp columns parsed from text; InvalidValue as value_from_literal
    says, a timestamp column's first fault in row order named first."""
    if not (isinstance(columns, list) and isinstance(types, list) and isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)):
        raise InvalidValue("a table literal holds lists of columns, types and rows")
    table = Table(list(columns), list(types), rows)
    data = table.data
    for i, col_type in enumerate(table.types):
        if col_type == "timestamp":
            try:
                data[i] = list(map(parse_timestamp, data[i]))
            except ValueError as exc:  # text that does not parse
                raise InvalidValue(f"table literal: {exc}") from None
            except (AttributeError, TypeError):  # a cell that is not text
                raise _misfit(table.columns[i], data[i], partial(_fits, "text"),
                              "timestamp text") from None
    return MemoryValue("table", table)  # which checks the cells


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
    """datetime.fromisoformat of `text` with each "Z" replaced by "+00:00"."""
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
        data = [
            list(map(format_timestamp, column)) if col_type == "timestamp" else column
            for col_type, column in zip(t.types, t.data)
        ]
        payload = {"columns": t.columns, "types": t.types, "rows": _row_lists(data, t.row_count)}
    return json.dumps({"kind": value.kind, "payload": payload}, separators=(",", ":"), sort_keys=True)


def decode_value(text: str) -> MemoryValue:
    obj = json.loads(text)
    kind, payload = obj["kind"], obj["payload"]
    container = {"list": list, "record": dict}.get(kind)
    if container is not None and type(payload) is not container:
        raise InvalidValue(f"{kind} payload is a {type(payload).__name__}, not a {container.__name__}")
    if kind == "scalar":
        return MemoryValue("scalar", _scalar_from_json(payload))
    if kind == "list":
        return MemoryValue("list", [_scalar_from_json(x) for x in payload])
    if kind == "record":
        return MemoryValue("record", {k: _scalar_from_json(v) for k, v in payload.items()})
    if kind != "table":
        raise InvalidValue(f"unknown value kind {kind!r}")
    return _table_from_json(payload["columns"], payload["types"], payload["rows"])


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
    shown = _row_lists(t.data, t.row_count, max(sample_rows, 0))
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
    # no control character is printable, so a non-empty printable str needs
    # no search; every other key gets the regex and its message
    if type(key) is str and key and key.isprintable():
        return
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
        if type(value) is not MemoryValue:
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
            except (*JSON_DECODE_ERRORS, LookupError, TypeError, AttributeError, MemoryStoreError) as exc:
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
    """View of a store with every key prefixed by a run id. Every key goes
    through the store's put, get and contains, so a store that overrides
    them sees each one."""

    def __init__(self, store: MemoryStore, run_id: str):
        self._store = store
        self._run_id = run_id
        self._prefix = f"{run_id}::"
        self._kinds: dict[str, str] = {}  # short key -> kind of this scope's last put

    @property
    def run_id(self) -> str:
        """The run id; read-only, as every key's prefix is built from it once."""
        return self._run_id

    def put(self, key: str, value) -> MemoryRef:
        """Store under the scoped key; the ref, like ref(), names the short key."""
        ref = self._put(key, value)
        return MemoryRef(key, ref.kind, ref.value)

    def _put(self, key: str, value) -> MemoryRef:
        """put() for a caller that reads no ref: returns the store's own,
        which names the scoped key."""
        _check_key(key)
        ref = self._store.put(self._prefix + key, value)
        self._kinds[key] = ref.kind
        return ref

    def kind(self, key: str) -> str:
        """The kind this scope last put under `key`; for a key it never put,
        the stored value's kind, or KeyNotFound naming the short key."""
        kind = self._kinds.get(key)
        return kind if kind is not None else self.get(key).kind

    def get(self, key: str) -> MemoryValue:
        _check_key(key)
        try:
            return self._store.get(self._prefix + key)
        except KeyNotFound:
            raise KeyNotFound(key) from None

    def contains(self, key: str) -> bool:
        _check_key(key)
        return self._store.contains(self._prefix + key)

    def ref(self, key: str) -> MemoryRef:
        value = self.get(key)
        return MemoryRef(key, value.kind, value)


# -- CSV interchange --------------------------------------------------------

CSV_CHUNK_ROWS = 2048  # rows per chunk read through csv.reader
CSV_BLOCK_CHARS = 1 << 17  # characters per block cut from a plain text

# Column decoders: each maps a sequence of cell texts to a list of values,
# with the per-cell work done inside builtins. A timestamp decodes exactly
# as parse_timestamp does; text cells are kept as they are. A boolean is
# looked up, and only a column holding a spelling other than "true" or
# "false" is decoded again as cell.strip().lower() == "true".
_ZULU_TO_OFFSET = methodcaller("replace", "Z", "+00:00")
# True when datetime.fromisoformat reads a trailing "Z" as UTC (3.11 on)
try:
    _READS_ZULU = datetime.fromisoformat("2000-01-01T00:00:00Z").tzinfo is timezone.utc
except ValueError:
    _READS_ZULU = False
_BOOLEANS = {"true": True, "false": False}


def _decode_booleans(cells) -> list[bool]:
    values = list(map(_BOOLEANS.get, cells))
    if None in values:
        values = list(map("true".__eq__, map(str.lower, map(str.strip, cells))))
    return values


def _decode_timestamps(cells) -> list[datetime]:
    """parse_timestamp of each cell, read off one join of the cells at ",".

    When the joined text shows every cell ending in its only "Z" and the
    interpreter reads a trailing "Z", the cells go to fromisoformat as they
    are, which gives parse_timestamp's values; otherwise, and when that
    parse refuses a cell, one replace serves them all and the text is split
    again at ",". A column with a cell that holds a "," itself (a quoted
    cell of csv.reader's), which would split in two, is replaced cell by cell.
    """
    n = len(cells)
    joined = ",".join(cells)
    if joined.count(",") != n - 1:
        return list(map(datetime.fromisoformat, map(_ZULU_TO_OFFSET, cells)))
    if (_READS_ZULU and joined.endswith("Z") and joined.count("Z") == n
            and joined.count("Z,") == n - 1):
        try:
            return list(map(datetime.fromisoformat, cells))
        except ValueError:
            pass  # a cell only the replaced text reads, or one neither reads
    return list(map(datetime.fromisoformat, joined.replace("Z", "+00:00").split(",")))


_COLUMN_DECODERS = {
    "text": lambda cells: cells,
    "integer": lambda cells: list(map(int, cells)),
    "decimal": lambda cells: list(map(float, cells)),
    "boolean": _decode_booleans,
    "timestamp": _decode_timestamps,
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
    rendered = [[_render_cell(c, None) for c in column] for column in table.data]
    for cells in chain((table.columns, table.types), _row_lists(rendered, table.row_count)):
        (quoted if any("\r" in c for c in cells) else plain).writerow(cells)
    return buf.getvalue()


def _is_plain(text: str) -> bool:
    """True when the excel dialect splits `text` only on "," and "\n".

    That holds when the text has no quote, carriage return or NUL (which
    csv.reader rejects before Python 3.11), no leading blank line (a later
    one fails _plain_chunks) and no line longer than csv.field_size_limit(),
    so no field can exceed the limit. A run of more than `limit` characters
    without a newline covers a whole block of `limit // 2 + 1` characters
    starting at a multiple of that size, so one find per block rules such
    lines out.
    """
    if any(c in text for c in '"\r\0') or text.startswith("\n"):
        return False
    step = csv.field_size_limit() // 2 + 1
    return all(text.find("\n", i, i + step) >= 0 for i in range(0, len(text) - step + 1, step))


# Every byte but "," and "\n": deleting them leaves a block's separators.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


def _rows_have_width(block: str, width: int) -> bool:
    """True when every line of `block` (a plain text's data rows, "\n"
    between them) has width - 1 commas; a blank line never has.

    With width > 1, one translate of the block's UTF-8 bytes keeps its
    separators in order (no multi-byte character holds a "," or "\n" byte;
    "surrogatepass" encodes a lone surrogate too), and they must be exactly
    width - 1 commas per line with a "\n" between lines, which a blank line
    breaks. A one-column block has no commas to place its lines, so its
    lines are split and checked one by one.
    """
    if width < 2:
        lines = block.split("\n")
        return set(map(str.count, lines, repeat(","))) == {width - 1} and "" not in lines
    separators = block.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    commas = b"," * (width - 1)
    return separators == (commas + b"\n") * separators.count(b"\n") + commas


def _plain_chunks(text: str):
    """Yield the header row, the type row, then one flat cell list per block.

    The text must be plain (_is_plain): each line is one row, cut at ",".
    The data rows are cut in blocks of at most CSV_BLOCK_CHARS characters,
    each ending at the last "\n" inside it (a line longer than a block is a
    block of its own), and a block becomes cells with one replace and one
    split. A block with a blank line or a line of other than width - 1
    commas raises InvalidValue without naming the row; table_from_csv names it.
    """
    size = len(text) - text.endswith("\n")

    def line_end(at: int) -> int:
        end = text.find("\n", at, size)
        return size if end < 0 else end

    start, head = 0, []
    while len(head) < 2 and start < size:
        end = line_end(start)
        head.append(text[start:end].split(","))
        start = end + 1
    yield from head
    width = len(head[0]) if head else 0
    while start <= size:  # start == size after a "\n" at size - 1: a blank last line
        stop = start + CSV_BLOCK_CHARS
        end = size if stop >= size else text.rfind("\n", start, stop + 1)
        if end < 0:  # no line ends within the block
            end = line_end(stop)
        block = text[start:end]
        start = end + 1
        if not _rows_have_width(block, width):
            raise InvalidValue("a ragged row")
        yield block.replace("\n", ",").split(",")


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


def _decode_chunk(cells: list, columns: list[str], types: list[str], first: int) -> list[list]:
    """Columns of decoded values from one chunk's flat cell list.

    Column i is cells[i::width]. A cell its column type cannot decode raises
    InvalidValue naming its row (`first` is the chunk's first row index) and
    column; only the failing column is decoded again, cell by cell, to find
    the row.
    """
    width = len(columns)
    decoded = []
    for i, col_type in enumerate(types):
        texts = cells[i::width]
        decode = _COLUMN_DECODERS[col_type]
        try:
            decoded.append(decode(texts))
        except ValueError:
            for row, cell in enumerate(texts, first):
                try:
                    decode((cell,))
                except ValueError as exc:
                    raise InvalidValue(f"row {row}, column {columns[i]!r}: {exc}") from None
            raise
    return decoded


def _decode_table(chunks) -> Table:
    """The table of a header row, a type row and flat cell lists (see
    _plain_chunks and _reader_chunks), its cells decoded chunk by chunk."""
    columns, types = next(chunks, None), next(chunks, None)
    if types is None:
        raise InvalidValue("CSV table needs a header row and a type row")
    _check_schema(columns, types)
    data: list[list] = [[] for _ in columns]
    row_count = 0
    for cells in chunks:
        if not columns:
            row_count += len(cells)  # the reader's empty rows; see _reader_chunks
            continue
        for column, decoded in zip(data, _decode_chunk(cells, columns, types, row_count)):
            column += decoded
        row_count += len(cells) // len(columns)
    # each column's cells come from its decoder
    return Table._of_columns(columns, types, data, row_count, cells_typed=True)


def table_from_csv(text: str) -> Table:
    """Inverse of table_to_csv.

    Data rows are read a block or chunk at a time into one flat list of
    cell texts, checked for ragged rows, cut into columns by slicing and
    decoded column by column onto the table's columns, so raw cell texts
    live only as long as their block. A plain text (_is_plain) is cut in
    blocks at "," and "\n" directly. Any other text, and a plain one that
    does not decode, goes through csv.reader CSV_CHUNK_ROWS rows at a time,
    so the error raised does not depend on the block size: it is the first
    in chunk order, a chunk's ragged row before its cells that do not
    decode, and those column by column.
    """
    if _is_plain(text):
        try:
            return _decode_table(_plain_chunks(text))
        except InvalidValue:
            pass  # named below, as for any other text
    return _decode_table(_reader_chunks(text))
