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
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import islice
from operator import itemgetter, methodcaller
from pathlib import Path

COLUMN_TYPES = ("text", "integer", "decimal", "timestamp", "boolean")
DEFAULT_SAMPLE_ROWS = 3
DEFAULT_CONTEXT_BUDGET = 2048


class MemoryStoreError(Exception):
    pass


class InvalidKey(MemoryStoreError):
    pass


class KeyNotFound(MemoryStoreError):
    def __init__(self, key: str):
        super().__init__(f"no value stored under {key!r}")
        self.key = key


class InvalidValue(MemoryStoreError):
    pass


Scalar = str | int | float | bool | datetime


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
    dicts become records.
    """
    if isinstance(x, dict) and {"columns", "types", "rows"} <= set(x):
        types = list(x["types"])
        rows = [
            [_cell_from_json(cell, types[i]) for i, cell in enumerate(row)] for row in x["rows"]
        ]
        return MemoryValue("table", Table(list(x["columns"]), types, rows))
    return memory_value(x)


# -- serialization ----------------------------------------------------------

def _scalar_to_json(x):
    if isinstance(x, datetime):
        if x.tzinfo is None:
            x = x.replace(tzinfo=timezone.utc)
        return {"$ts": x.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")}
    return x

def _scalar_from_json(x):
    if isinstance(x, dict) and "$ts" in x:
        return parse_timestamp(x["$ts"])
    return x

def parse_timestamp(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))

def _cell_to_json(cell, col_type: str):
    if col_type == "timestamp" and isinstance(cell, datetime):
        return _scalar_to_json(cell)["$ts"]
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
    schema: list[tuple[str, str]] | None
    sample: list[list[str]] | str
    text: str
    rendered_bytes: int


def _render_cell(cell, cap: int | None) -> str:
    if isinstance(cell, datetime):
        text = _scalar_to_json(cell)["$ts"]
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
            schema=list(zip(t.columns, t.types)),
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
        schema=None,
        sample=text,
        text=text,
        rendered_bytes=len(text.encode("utf-8")),
    )


@dataclass
class MemoryRef:
    key: str
    kind: str
    summary: ContextSummary


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
        return self.ref(key)

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
        return MemoryRef(key=key, kind=value.kind, summary=render_context(value, key=key))


class FileBackedStore(MemoryStore):
    """Append-log store: one length-prefixed JSON record per put.

    Reopening the same path replays the log, so state survives the process.
    """

    def __init__(self, path: str | Path):
        super().__init__()
        self.path = Path(path)
        if self.path.exists():
            self._replay()

    def _replay(self) -> None:
        raw = self.path.read_bytes()
        offset = 0
        while offset + 4 <= len(raw):
            (length,) = struct.unpack(">I", raw[offset : offset + 4])
            offset += 4
            record = json.loads(raw[offset : offset + length].decode("utf-8"))
            offset += length
            self._data[record["key"]] = decode_value(record["value"])

    def _store(self, key: str, value: MemoryValue) -> None:
        record = json.dumps({"key": key, "value": encode_value(value)}).encode("utf-8")
        with self.path.open("ab") as handle:
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
        ref = self._store.put(self._full(key), value)
        return MemoryRef(key=key, kind=ref.kind, summary=ref.summary)

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
        return MemoryRef(key=key, kind=value.kind, summary=render_context(value, key=key))


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
    """Header row, then a type row, then data rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.columns)
    writer.writerow(table.types)
    for row in table.rows:
        writer.writerow([_render_cell(c, None) for c in row])
    return buf.getvalue()


def table_from_csv(text: str) -> Table:
    """Inverse of table_to_csv.

    Data rows are read CSV_CHUNK_ROWS at a time; each chunk is checked for
    ragged rows, transposed, decoded column by column and transposed back,
    so raw cell texts live only as long as their chunk.
    """
    reader = csv.reader(io.StringIO(text))
    columns, types = next(reader, None), next(reader, None)
    if types is None:
        raise InvalidValue("CSV table needs a header row and a type row")
    _check_schema(columns, types)
    decoders = [_COLUMN_DECODERS.get(t, iter) for t in types]
    rows: list[list] = []
    while chunk := list(islice(reader, CSV_CHUNK_ROWS)):
        _check_widths(chunk, len(columns), len(rows))
        if not columns:
            rows += ([] for _ in chunk)  # zip(*chunk) would drop empty rows
            continue
        decoded = [decode(cells) for decode, cells in zip(decoders, zip(*chunk))]
        rows += map(list, zip(*decoded))
    return Table(columns, types, rows)
