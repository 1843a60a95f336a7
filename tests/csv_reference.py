"""table_from_csv as it was before its flat-cell rewrite, kept as the reference.

Every text went through csv.reader; each chunk of rows was width-checked,
transposed with zip(*chunk), decoded column by column and transposed back.
The bodies below are that code, unchanged, with the decoders and checks it
used copied in; tests/test_csv_equivalence.py checks tsgflow.memory's
table_from_csv against it.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime
from itertools import islice
from operator import methodcaller

from tsgflow.memory import InvalidValue, Table

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


COLUMN_TYPES = ("text", "integer", "decimal", "timestamp", "boolean")


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
