from __future__ import annotations

import dataclasses
import gc
import json
import struct
import sys
from datetime import datetime, timedelta, timezone
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgflow import memory
from tsgflow.memory import (
    COLUMN_TYPES,
    CSV_BLOCK_CHARS,
    CSV_CHUNK_ROWS,
    CorruptLog,
    FileBackedStore,
    InvalidKey,
    InvalidValue,
    KeyNotFound,
    MemoryStore,
    MemoryValue,
    RunScope,
    Table,
    decode_value,
    encode_value,
    memory_value,
    render_context,
    table_from_csv,
    table_to_csv,
    value_from_literal,
)


def big_table(rows=394, cols=6) -> Table:
    columns = [f"col_{i}" for i in range(cols)]
    types = ["text", "integer", "decimal", "text", "text", "timestamp"][:cols]
    data = []
    for r in range(rows):
        data.append(
            [
                f"ExceptionKind_{r % 17}_padding_padding",
                r,
                round(r * 0.5, 2),
                f"svc-{r % 5}.westeurope.cloudapp",
                f"operation {r} details and message text",
                datetime(2026, 3, 1, r % 24, r % 60, tzinfo=timezone.utc),
            ][:cols]
        )
    return Table(columns, types, data)


def test_put_get_roundtrip_all_kinds():
    store = MemoryStore()
    values = {
        "scalar": 99.9,
        "text": "DbTimeout",
        "flag": True,
        "when": datetime(2026, 3, 1, tzinfo=timezone.utc),
        "list": [1.0, 2.5, 3.0],
        "record": {"service": "web", "count": 4},
        "table": big_table(rows=5),
    }
    for key, value in values.items():
        ref = store.put(key, value)
        assert ref.key == key
        got = store.get(key)
        assert got == memory_value(value)


def test_put_returns_ref_with_summary():
    store = MemoryStore()
    ref = store.put("avail_A", 99.9)
    assert ref.kind == "scalar"
    assert "99.9" in ref.summary.text


def test_ref_summary_rendered_on_first_read(monkeypatch, fig4_bundle, fig4_scenario):
    import tsgflow.memory
    from tsgflow.backends import ScriptedBackend
    from tsgflow.engine import RunConfig, run

    rendered = []
    real = tsgflow.memory.render_context
    monkeypatch.setattr(tsgflow.memory, "render_context",
                        lambda value, **kw: rendered.append(kw["key"]) or real(value, **kw))
    store = MemoryStore()
    scope = RunScope(store, "run-1")
    put, ref = scope.put("avail", 99.9), scope.ref("avail")
    run(fig4_bundle, ScriptedBackend.from_scenario(fig4_scenario), RunConfig(), store=store)
    assert rendered == []  # neither the puts nor the engine's refs rendered anything
    assert put.summary.text == ref.summary.text == "memory[avail]: scalar = 99.9"
    assert put.summary is put.summary and len(rendered) == 2


def test_run_scope_put_summary_names_the_short_key():
    scope = RunScope(MemoryStore(), "run-1")
    put = scope.put("top", big_table(rows=5))
    assert put.key == "top" and put.summary.key == "top"
    assert put.summary.text.startswith("memory[top]: table 5 rows")
    assert "run-1" not in put.summary.text
    assert put.summary.text == scope.ref("top").summary.text


def test_invalid_keys():
    store = MemoryStore()
    with pytest.raises(InvalidKey):
        store.put("", 1)
    with pytest.raises(InvalidKey):
        store.put("bad\nkey", 1)


def test_get_missing_and_overwrite():
    store = MemoryStore()
    with pytest.raises(KeyNotFound):
        store.get("missing")
    store.put("k", 1)
    store.put("k", 2)
    assert store.get("k").payload == 2


def test_large_table_summary_within_budget():
    table = big_table()
    value = memory_value(table)
    assert value.byte_size >= 25_000
    summary = render_context(value, key="exceptions")
    assert summary.rendered_bytes <= 2048
    assert summary.row_count == 394
    assert summary.column_count == 6
    assert len(summary.sample) == 3
    assert summary.rendered_bytes / value.byte_size <= 0.10


def test_summary_empty_table():
    table = Table(["a", "b"], ["text", "integer"], [])
    summary = render_context(memory_value(table), key="empty")
    assert summary.sample == []
    assert "0 rows" in summary.text
    assert "a:text" in summary.text


def test_summary_huge_cells_truncated():
    table = Table(["blob"], ["text"], [["x" * 5000] for _ in range(10_000)])
    summary = render_context(memory_value(table), key="blob")
    assert summary.rendered_bytes <= 2048
    assert len(summary.sample) == 3
    assert "…" in summary.text


def test_summary_deterministic():
    value = memory_value(big_table())
    a = render_context(value, key="k")
    b = render_context(value, key="k")
    assert a.text == b.text
    assert a.rendered_bytes == b.rendered_bytes


def test_render_respects_sample_rows_param():
    value = memory_value(big_table(rows=10))
    assert len(render_context(value, sample_rows=5, key="k").sample) == 5
    assert len(render_context(value, sample_rows=0, key="k").sample) == 0


def test_render_list_and_record_cap_each_item_at_64_characters():
    when = datetime(2026, 3, 1, tzinfo=timezone.utc)
    listed = render_context(memory_value([1, "x" * 70, True, when, 2.5]), key="k")
    assert listed.text == ("memory[k]: list len=5 = 1, " + "x" * 63 + "…, true, "
                           "2026-03-01T00:00:00Z, 2.5")
    assert listed.sample == listed.text and listed.row_count is None
    record = render_context(memory_value({"a": 1, "b": "y" * 70, "c": False}), key="r")
    assert record.text == "memory[r]: record fields=3 = a=1, b=" + "y" * 63 + "…, c=false"
    assert record.rendered_bytes == len(record.text.encode("utf-8"))


def test_render_scalar_over_budget_is_cut_on_a_character_boundary():
    """The cut keeps budget - 3 bytes, drops a character it would split, and
    ends with a three-byte "…", so the text stays within the budget."""
    summary = render_context(memory_value("é" * 40), key="s", budget=40)
    assert summary.text == "memory[s]: scalar = " + "é" * 8 + "…"
    assert summary.rendered_bytes == 39


def test_file_backed_store_replays(tmp_path):
    path = tmp_path / "memory.log"
    store = FileBackedStore(path)
    store.put("a", [1, 2, 3])
    store.put("b", {"x": "y"})
    store.put("a", [9])  # last write wins after replay too

    reopened = FileBackedStore(path)
    assert reopened.get("a").payload == [9]
    assert reopened.get("b").payload == {"x": "y"}
    assert reopened.keys() == ["a", "b"]


def _log_with_records(path) -> list[int]:
    """Write three records; return the log's size after each."""
    store = FileBackedStore(path)
    sizes = []
    for key, value in (("a", [1, 2, 3]), ("b", {"x": "y"}), ("c", big_table(rows=4))):
        store.put(key, value)
        sizes.append(path.stat().st_size)
    return sizes


def test_file_backed_store_stops_at_a_torn_tail(tmp_path):
    """A log cut at every byte of its last record replays the whole records
    before it and reports the rest as a torn tail."""
    whole = tmp_path / "whole.log"
    sizes = _log_with_records(whole)
    raw = whole.read_bytes()
    assert FileBackedStore(whole).torn_tail == 0
    cut = tmp_path / "cut.log"
    for size in range(sizes[1], sizes[2]):
        cut.write_bytes(raw[:size])
        reopened = FileBackedStore(cut)
        assert reopened.keys() == ["a", "b"], size
        assert reopened.get("b").payload == {"x": "y"}
        assert reopened.torn_tail == size - sizes[1]
        assert cut.read_bytes() == raw[:size]  # replay alone leaves the file as it is


def test_put_after_a_torn_tail_cuts_it_off(tmp_path):
    """2 bytes of header, a header and part of the record, all but one byte."""
    for i, into_last in enumerate((2, 9, -1)):
        path = tmp_path / f"memory{i}.log"
        sizes = _log_with_records(path)
        size = (sizes[2] if into_last < 0 else sizes[1]) + into_last
        path.write_bytes(path.read_bytes()[:size])
        store = FileBackedStore(path)
        assert store.torn_tail == size - sizes[1]
        store.put("d", 7)
        assert store.torn_tail == 0
        reopened = FileBackedStore(path)
        assert reopened.torn_tail == 0
        assert reopened.keys() == ["a", "b", "d"] and reopened.get("d").payload == 7


def test_file_backed_store_names_a_corrupt_record(tmp_path):
    path = tmp_path / "memory.log"
    sizes = _log_with_records(path)
    raw = bytearray(path.read_bytes())
    raw[sizes[0] + 4] = ord("?")  # first byte of record "b"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptLog, match=f"record at byte {sizes[0]}"):
        FileBackedStore(path)


def test_file_backed_store_names_a_record_whose_key_is_not_a_string(tmp_path):
    path = tmp_path / "memory.log"
    record = json.dumps({"key": 5, "value": encode_value(memory_value(1))}).encode("utf-8")
    path.write_bytes(struct.pack(">I", len(record)) + record)
    with pytest.raises(CorruptLog, match=r"record at byte 0: InvalidKey\("):
        FileBackedStore(path)


def test_run_scope_kind_is_the_kind_it_last_put_else_the_stored_kind():
    store = MemoryStore()
    scope = RunScope(store, "run-1")
    scope.put("k", 1)
    scope.put("k", [1, 2])
    assert scope.kind("k") == "list"
    RunScope(store, "run-1").put("old", {"a": 1})  # another scope, the same run id
    assert scope.kind("old") == "record"
    with pytest.raises(KeyNotFound) as info:
        scope.kind("never")
    assert info.value.key == "never" and str(info.value) == "no value stored under 'never'"


def test_run_scope_kind_records_only_a_put_that_succeeds():
    scope = RunScope(MemoryStore(), "run-1")
    scope.put("k", "text")
    with pytest.raises(InvalidValue):
        scope.put("k", {1, 2})
    assert scope.kind("k") == "scalar"
    with pytest.raises(InvalidValue):
        scope.put("fresh", {1, 2})
    with pytest.raises(KeyNotFound):
        scope.kind("fresh")


def test_run_scope_isolation():
    store = MemoryStore()
    one = RunScope(store, "run-1")
    two = RunScope(store, "run-2")
    one.put("k", "first")
    two.put("k", "second")
    assert one.get("k").payload == "first"
    assert two.get("k").payload == "second"
    with pytest.raises(KeyNotFound):
        RunScope(store, "run-3").get("k")


def test_csv_roundtrip():
    table = Table(
        ["name", "count", "ratio", "ok", "at"],
        ["text", "integer", "decimal", "boolean", "timestamp"],
        [
            ["a", 1, 0.5, True, datetime(2026, 3, 1, tzinfo=timezone.utc)],
            ["b", 2, 1.25, False, datetime(2026, 3, 2, 12, 30, tzinfo=timezone.utc)],
        ],
    )
    text = table_to_csv(table)
    assert text.splitlines()[0] == "name,count,ratio,ok,at"
    assert text.splitlines()[1] == "text,integer,decimal,boolean,timestamp"
    assert table_from_csv(text) == table


def test_csv_carriage_return_roundtrip():
    table = Table(["s"], ["text"], [["a\rb"]])
    assert table_from_csv(table_to_csv(table)) == table
    odd = Table(["x\ry", "n"], ["text", "integer"], [["\r", 1], ["plain", 2], ["a\r\nb", 3]])
    text = table_to_csv(odd)
    assert text.split("\n")[3] == "plain,2"  # rows without a \r stay minimally quoted
    assert table_from_csv(text) == odd


def test_value_from_literal_table():
    value = value_from_literal(
        {"columns": ["t", "v"], "types": ["timestamp", "decimal"],
         "rows": [["2026-03-01T00:00:00Z", 99.9]]}
    )
    assert value.kind == "table"
    assert value.payload.rows[0][0] == datetime(2026, 3, 1, tzinfo=timezone.utc)


def test_table_literal_timestamp_column_parses_only_its_text_cells():
    """A literal writes each timestamp as text: a cell of another type is
    refused, and of such a cell and a text that does not parse, the first in
    row order is named."""
    for rows, message in [
        ([["2026-03-01T00:00:00Z"], [None], [7]],
         "row 1, column 't': a NoneType cell, expected timestamp text"),
        ([["2026-03-01T00:00:00Z"], [7]], "row 1, column 't': a int cell, expected timestamp text"),
        ([[None], ["soon"]], "row 0, column 't': a NoneType cell, expected timestamp text"),
        ([["soon"], [None]], "table literal: Invalid isoformat string: 'soon'"),
    ]:
        with pytest.raises(InvalidValue, match=f"^{message}$"):
            value_from_literal({"columns": ["t"], "types": ["timestamp"], "rows": rows})


# Table literals whose cells, or a column name, their table does not hold.
_REFUSED_CELLS = {
    "null-integer": ({"columns": ["n"], "types": ["integer"], "rows": [[1], [None]]},
                     "row 1, column 'n': a NoneType cell, expected integer"),
    "text-integer": ({"columns": ["n"], "types": ["integer"], "rows": [["x"]]},
                     "row 0, column 'n': a str cell, expected integer"),
    "true-decimal": ({"columns": ["d"], "types": ["decimal"], "rows": [[1.5], [2], [True]]},
                     "row 2, column 'd': a bool cell, expected decimal"),
    "number-timestamp": ({"columns": ["t"], "types": ["timestamp"], "rows": [[7]]},
                         "row 0, column 't': a int cell, expected timestamp text"),
    "null-timestamp": ({"columns": ["t"], "types": ["timestamp"], "rows": [[None]]},
                       "row 0, column 't': a NoneType cell, expected timestamp text"),
    "list-text": ({"columns": ["s"], "types": ["text"], "rows": [["a"], [["x"]]]},
                  "row 1, column 's': a list cell, expected text"),
    "object-text": ({"columns": ["s"], "types": ["text"], "rows": [[{"k": 1}]]},
                    "row 0, column 's': a dict cell, expected text"),
    "number-boolean": ({"columns": ["b"], "types": ["boolean"], "rows": [[False], [1]]},
                       "row 1, column 'b': a int cell, expected boolean"),
    "number-column-name": ({"columns": [7], "types": ["text"], "rows": []},
                           "column name 7 is not text"),
}


_NOT_LISTS = "a table literal holds lists of columns, types and rows"


@pytest.mark.parametrize("literal, message", [
    ({"columns": ["t"], "types": "timestamp", "rows": []}, _NOT_LISTS),
    ({"columns": ["t"], "types": ["timestamp"], "rows": 5}, _NOT_LISTS),
    ({"columns": ["t"], "types": ["timestamp"], "rows": [1.5]}, _NOT_LISTS),
    ({"columns": ["t"], "types": ["timestamp"], "rows": [["2026-03-01T00:00:00Z", 1]]},
     "row 0 has 2 cells, expected 1"),
    ({"columns": ["t"], "types": ["timestamp"], "rows": [["yesterday"]]},
     "table literal: Invalid isoformat string: 'yesterday'"),
    *_REFUSED_CELLS.values(),
], ids=["types-not-a-list", "rows-not-a-list", "row-not-a-list", "row-too-long", "bad-timestamp",
        *_REFUSED_CELLS])
def test_malformed_table_literal_is_invalid_value(literal, message):
    with pytest.raises(InvalidValue, match=f"^{message}$"):
        value_from_literal(literal)


_TABLE_RECORD_PAYLOADS = {
    "string-row": {"columns": ["a", "b"], "types": ["integer", "integer"], "rows": ["12"]},
    "dict-row": {"columns": ["a"], "types": ["text"], "rows": [{"k": 1}]},
    "rows-a-string": {"columns": ["a"], "types": ["text"], "rows": "ab"},
    "long-row": {"columns": ["a"], "types": ["text"], "rows": [["x", "y"]]},
    "short-row": {"columns": ["a", "b"], "types": ["integer", "integer"], "rows": [[1]]},
    "bad-timestamp": {"columns": ["t"], "types": ["timestamp"], "rows": [["yesterday"]]},
    "schema-lengths-differ": {"columns": ["a", "b"], "types": ["text"], "rows": []},
    **{name: literal for name, (literal, _) in _REFUSED_CELLS.items()},
}


@pytest.mark.parametrize("payload", _TABLE_RECORD_PAYLOADS.values(), ids=_TABLE_RECORD_PAYLOADS)
def test_log_table_record_decodes_as_a_table_literal(tmp_path, payload):
    """A log's table record goes through value_from_literal's reader, so it
    raises CorruptLog naming the very InvalidValue the literal raises."""
    with pytest.raises(InvalidValue) as literal:
        value_from_literal(payload)
    path = tmp_path / "memory.log"
    value = json.dumps({"kind": "table", "payload": payload})
    record = json.dumps({"key": "k", "value": value}).encode("utf-8")
    path.write_bytes(struct.pack(">I", len(record)) + record)
    with pytest.raises(CorruptLog) as logged:
        FileBackedStore(path)
    assert str(logged.value) == f"{path}: record at byte 0: {literal.value!r}"


def test_table_literal_with_two_faults_names_its_schema_fault_first():
    """Table checks the schema before the row widths, and a literal is read
    through Table's checks alone."""
    for literal, message in [
        ({"columns": ["a"], "types": ["nope"], "rows": [["x", "y"]]}, "unknown column type 'nope'"),
        ({"columns": ["a", "b"], "types": ["text"], "rows": [["x", "y"]]},
         "column names and types differ in length"),
        ({"columns": ["a"], "types": ["text"], "rows": [["x", "y"]]}, "row 0 has 2 cells, expected 1"),
        # the cells, and a column name that is not text, come last
        ({"columns": [7], "types": ["text"], "rows": [["x", "y"]]}, "row 0 has 2 cells, expected 1"),
        ({"columns": [7, "t"], "types": ["text", "timestamp"], "rows": [["x", "soon"]]},
         "table literal: Invalid isoformat string: 'soon'"),
    ]:
        with pytest.raises(InvalidValue, match=f"^{message}$"):
            value_from_literal(literal)


def test_log_table_record_round_trips(tmp_path):
    table = Table(["at", "n", "s"], ["timestamp", "integer", "text"],
                  [[datetime(2026, 3, 1, tzinfo=timezone.utc), 1, "x"],
                   [datetime(2026, 3, 1, 0, 5, tzinfo=timezone.utc), 2, "2026-03-01T00:00:00Z"]])
    value = memory_value(table)
    assert decode_value(encode_value(value)) == value
    path = tmp_path / "memory.log"
    FileBackedStore(path).put("k", table)
    assert FileBackedStore(path).get("k") == value


_CONTAINER_RECORD_PAYLOADS = {
    "list-of-a-string": ("list", "ab", "str"),
    "list-of-an-object": ("list", {"k": 1}, "dict"),
    "record-of-a-list": ("record", [["k", 1]], "list"),
    "record-of-a-string": ("record", "k", "str"),
}


@pytest.mark.parametrize("kind, payload, got", _CONTAINER_RECORD_PAYLOADS.values(),
                         ids=_CONTAINER_RECORD_PAYLOADS)
def test_log_list_or_record_record_of_another_shape_is_corrupt(tmp_path, kind, payload, got):
    """A list record replays only a JSON list and a record record only a
    JSON object; anything else is CorruptLog naming the InvalidValue."""
    path = tmp_path / "memory.log"
    value = json.dumps({"kind": kind, "payload": payload})
    record = json.dumps({"key": "k", "value": value}).encode("utf-8")
    path.write_bytes(struct.pack(">I", len(record)) + record)
    want = "list" if kind == "list" else "dict"
    with pytest.raises(CorruptLog) as logged:
        FileBackedStore(path)
    assert str(logged.value) == (
        f"{path}: record at byte 0: InvalidValue('{kind} payload is a {got}, not a {want}')")


def test_log_record_of_an_unknown_kind_is_corrupt(tmp_path):
    """A record of a kind other than scalar, list, record and table is not
    read as a table."""
    path = tmp_path / "memory.log"
    value = json.dumps({"kind": "nope", "payload": {"columns": [], "types": [], "rows": []}})
    record = json.dumps({"key": "k", "value": value}).encode("utf-8")
    path.write_bytes(struct.pack(">I", len(record)) + record)
    with pytest.raises(CorruptLog) as logged:
        FileBackedStore(path)
    assert str(logged.value) == (
        f"{path}: record at byte 0: InvalidValue(\"unknown value kind 'nope'\")")


def test_log_list_and_record_records_round_trip(tmp_path):
    at = datetime(2026, 3, 1, tzinfo=timezone.utc)
    path = tmp_path / "memory.log"
    store = FileBackedStore(path)
    store.put("l", ["a", 1, 2.5, True, at])
    store.put("r", {"s": "x", "n": 1, "at": at})
    store.put("empty", [])
    reopened = FileBackedStore(path)
    assert reopened.keys() == ["empty", "l", "r"]
    for key in reopened.keys():
        assert reopened.get(key) == store.get(key)
    assert reopened.get("l").payload == ["a", 1, 2.5, True, at]
    assert reopened.get("r").payload == {"s": "x", "n": 1, "at": at}


def test_timestamp_out_of_range_in_utc_keeps_its_offset():
    """Year 1 at +05:00 has no UTC form inside datetime's range."""
    early = datetime(1, 1, 1, tzinfo=timezone(timedelta(hours=5)))
    table = Table(["t"], ["timestamp"], [[early]])
    assert table_to_csv(table) == "t\ntimestamp\n0001-01-01T00:00:00+05:00\n"
    assert decode_value(encode_value(memory_value(table))).payload == table


_scalars = st.one_of(
    st.text(max_size=30),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.datetimes(
        min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1)
    ).map(lambda d: d.replace(tzinfo=timezone.utc, microsecond=0)),
)


@given(st.one_of(_scalars, st.lists(_scalars, max_size=10),
                 st.dictionaries(st.text(min_size=1, max_size=8), _scalars, max_size=5)))
def test_encode_decode_roundtrip(payload):
    value = memory_value(payload)
    assert decode_value(encode_value(value)) == value


def test_byte_size_consistency():
    value = memory_value([1, 2, 3])
    assert value.byte_size == len(encode_value(value).encode("utf-8"))
    assert MemoryValue("scalar", "x").byte_size > 0


def test_unknown_kinds_and_payloads_are_invalid_values():
    for make, message in [
        (lambda: MemoryValue("blob", 1), "unknown value kind 'blob'"),
        (lambda: MemoryValue("table", [[1]]), "table payload must be a Table"),
        (lambda: memory_value({1}), "cannot store value of type set"),
    ]:
        with pytest.raises(InvalidValue, match=f"^{message}$"):
            make()


def test_a_str_subclass_is_stored_as_a_scalar():
    class Name(str):
        pass

    store = MemoryStore()
    ref = store.put("k", Name("web"))
    assert ref.kind == "scalar" and type(store.get("k").payload) is Name
    assert decode_value(encode_value(store.get("k"))) == MemoryValue("scalar", "web")


def test_unencodable_table_cell_rejected_at_construction():
    for bad in (object(), datetime(2024, 1, 1, tzinfo=timezone.utc)):
        with pytest.raises(InvalidValue, match="^row 1, column 'note': "):
            MemoryValue("table", Table(["note"], ["text"], [["fine"], [bad]]))
    with pytest.raises(InvalidValue, match="^column name <object object at .*> is not text$"):
        MemoryValue("table", Table([object()], ["text"], []))


def test_table_row_that_is_not_a_list_or_tuple_is_invalid():
    for rows, message in [
        ([["a", "b"], "xy"], "row 1 is a str, not a list or tuple"),  # taken as ["x", "y"] before
        ([{"a": 1, "b": 2}], "row 0 is a dict, not a list or tuple"),  # taken as its keys before
        ([("a", "b"), 7], "row 1 is a int, not a list or tuple"),
        ([("a", "b"), ["c", "d"], range(2)], "row 2 is a range, not a list or tuple"),
    ]:
        with pytest.raises(InvalidValue, match=f"^{message}$"):
            Table(["a", "b"], ["text", "text"], rows)
    table = Table(["a", "b"], ["text", "text"], [("a", "b"), ["c", "d"]])
    assert table.rows == [["a", "b"], ["c", "d"]]


def test_table_rows_that_are_not_a_list_or_tuple_are_invalid():
    """An iterator of rows would be used up by the checks before the
    transpose; it is named instead of failing in len()."""
    for rows, kind in [
        ((["a", "b"] for _ in range(2)), "generator"),
        (iter([["a", "b"]]), "list_iterator"),
        (map(list, ["ab"]), "map"),
        ({("a", "b")}, "set"),
    ]:
        with pytest.raises(InvalidValue, match=f"^rows is a {kind}, not a list or tuple$"):
            Table(["a", "b"], ["text", "text"], rows)
    assert Table(["a", "b"], ["text", "text"], (("a", "b"),)).rows == [["a", "b"]]


def test_byte_size_computed_on_first_read():
    when = datetime(2024, 1, 1, tzinfo=timezone.utc)
    value = MemoryValue("table", Table(["at", "tags"], ["timestamp", "text"], [[when, "a,b"]]))
    assert "byte_size" not in vars(value)
    assert value.byte_size == len(encode_value(value).encode("utf-8"))
    assert vars(value)["byte_size"] == value.byte_size


def test_csv_ragged_rows_name_the_row():
    with pytest.raises(InvalidValue, match=r"^row 1 has 3 cells, expected 2$"):
        table_from_csv("a,b\ntext,integer\nx,1\ny,2,3\n")
    with pytest.raises(InvalidValue, match=r"^row 1 has 1 cells, expected 2$"):
        table_from_csv("a,b\ntext,integer\nx,1\ny\n")
    late = CSV_CHUNK_ROWS + 5
    lines = ["a,b", "text,integer"] + [f"x{i},{i}" for i in range(2 * CSV_CHUNK_ROWS)]
    lines[2 + late] += ",extra"
    with pytest.raises(InvalidValue, match=rf"^row {late} has 3 cells, expected 2$"):
        table_from_csv("\n".join(lines) + "\n")


def test_csv_undecodable_cell_names_row_and_column():
    with pytest.raises(InvalidValue, match=(
            r"^row 1, column 'n': invalid literal for int\(\) with base 10: 'x'$")):
        table_from_csv("s,n\ntext,integer\na,1\nb,x\n")
    with pytest.raises(InvalidValue, match=r"^row 0, column 'd': could not convert string"):
        table_from_csv('s,d\ntext,decimal\n"a,b",high\n')  # through csv.reader
    late = CSV_CHUNK_ROWS + 3
    lines = ["s,at", "text,timestamp"] + [f"x{i},2026-03-01T00:00:00Z" for i in range(late + 4)]
    lines[2 + late] = f"x{late},soon"
    with pytest.raises(InvalidValue, match=rf"^row {late}, column 'at': Invalid isoformat string"):
        table_from_csv("\n".join(lines))


@pytest.mark.parametrize("block", [CSV_BLOCK_CHARS, 50])
def test_csv_faults_in_the_first_row_after_a_block_boundary_name_the_row(block):
    rows = [f"x{i:05d},{i % 100:02d}" for i in range(3 * block // 10)]  # 9 characters each
    per_block = (block + 1) // 10  # lines whose newline is within the first block
    head = "s,n\ntext,integer\n"
    with mock.patch.object(memory, "CSV_BLOCK_CHARS", block):
        chunks = memory._plain_chunks(head + "\n".join(rows))
        assert len(list(chunks)[2]) == 2 * per_block  # so row per_block starts a block
        ragged = rows[:per_block] + [rows[per_block] + ",7"] + rows[per_block + 1:]
        with pytest.raises(InvalidValue, match=rf"^row {per_block} has 3 cells, expected 2$"):
            table_from_csv(head + "\n".join(ragged))
        bad = rows[:per_block] + [f"x{per_block:05d},1.5"] + rows[per_block + 1:]
        with pytest.raises(InvalidValue, match=(
                rf"^row {per_block}, column 'n': "
                r"invalid literal for int\(\) with base 10: '1.5'$")):
            table_from_csv(head + "\n".join(bad) + "\n")
        # two ragged rows whose commas add up, within a block and across a boundary;
        # each line keeps its length, so the blocks are cut where they were
        for at in (per_block - 2, per_block - 1):
            uneven = list(rows)
            uneven[at] = uneven[at][:3] + "," + uneven[at][4:]
            uneven[at + 1] = uneven[at + 1].replace(",", "0")
            with pytest.raises(InvalidValue, match=rf"^row {at} has 3 cells, expected 2$"):
                table_from_csv(head + "\n".join(uneven))


@pytest.mark.parametrize("faults, message", [
    # the first CSV_CHUNK_ROWS-row chunk holding a fault decides; within it a
    # ragged row comes before a cell that does not decode, and a cell in a
    # lower column before one in a higher
    ({100: "x00100,1.5", CSV_CHUNK_ROWS + 400: "x,1,2"}, r"^row 100, column 'n': "),
    ({1500: "x,1,2", 100: "x00100,1.5"}, r"^row 1500 has 3 cells, expected 2$"),
    ({50: "x00050,1.5", CSV_CHUNK_ROWS + 50: "x,1,2"}, r"^row 50, column 'n': "),
    ({CSV_CHUNK_ROWS + 9: "x,1,2", CSV_CHUNK_ROWS - 1: "x,1", 100: "x,1,2,3"},
     r"^row 100 has 4 cells"),
    ({CSV_CHUNK_ROWS - 2: "x,1,2", CSV_CHUNK_ROWS + 2: "x"},
     rf"^row {CSV_CHUNK_ROWS - 2} has 3 cells"),
])
def test_csv_with_several_faults_names_the_first_in_chunk_order(faults, message):
    rows = [f"x{i:05d},{i % 100}" for i in range(3 * CSV_CHUNK_ROWS)]
    for at, line in faults.items():
        rows[at] = line
    with pytest.raises(InvalidValue, match=message):
        table_from_csv("s,n\ntext,integer\n" + "\n".join(rows) + "\n")


def test_csv_cells_in_two_columns_that_do_not_decode_name_the_lower_column():
    rows = [f"{i},{i}" for i in range(3 * CSV_CHUNK_ROWS)]
    rows[1000] = "1000,x"
    rows[2000] = "y,2000"
    with pytest.raises(InvalidValue, match=r"^row 2000, column 'a': "):
        table_from_csv("a,b\ninteger,integer\n" + "\n".join(rows))
    rows[2000], rows[CSV_CHUNK_ROWS + 10] = "2000,2000", "y,1"
    with pytest.raises(InvalidValue, match=r"^row 1000, column 'b': "):
        table_from_csv("a,b\ninteger,integer\n" + "\n".join(rows))


def test_csv_rows_cut_in_blocks_keep_their_order_and_count():
    rows = [f"x{i:05d},{i}" for i in range(3 * CSV_BLOCK_CHARS // 8)]
    for end in ("", "\n"):
        table = table_from_csv("s,n\ntext,integer\n" + "\n".join(rows) + end)
        assert table.rows == [[f"x{i:05d}", i] for i in range(len(rows))]
    with mock.patch.object(memory, "CSV_BLOCK_CHARS", 4):  # every line longer than a block
        table = table_from_csv("s,n\ntext,integer\nab,1\ncdefgh,22\n")
    assert table.rows == [["ab", 1], ["cdefgh", 22]]


def test_csv_boolean_spellings_other_than_true_and_false():
    text = "b\nboolean\ntrue\nfalse\n TRUE \nno\n\u0130\n"  # \u0130 lowers to two characters
    assert table_from_csv(text).rows == [[True], [False], [True], [False], [False]]
    assert table_from_csv("b\nboolean\ntrue\nfalse\n").rows == [[True], [False]]


def test_decoded_table_is_put_without_a_cell_scan(monkeypatch):
    scanned = []
    monkeypatch.setattr(memory, "_check_cells", scanned.append)
    text = "s,n,at\ntext,integer,timestamp\na,1,2026-03-01T00:00:00Z\nb,2,2026-03-01T00:00:01Z\n"
    decoded = table_from_csv(text)
    store = MemoryStore()
    store.put("decoded", decoded)
    store.put("derived", decoded.take([1]))
    RunScope(store, "run").put("scoped", decoded)
    assert scanned == []
    by_hand = Table(list(decoded.columns), list(decoded.types), [list(r) for r in decoded.rows])
    literal = {"columns": ["s"], "types": ["text"], "rows": [["a"]]}
    for value in (by_hand, by_hand.take([]), value_from_literal(literal),
                  decode_value(encode_value(memory_value(decoded)))):
        store.put("other", value)
    assert len(scanned) == 4


def test_hand_built_table_with_a_bad_cell_fails_at_put():
    when = datetime(2024, 1, 1, tzinfo=timezone.utc)
    for columns, types, rows in [
        (["note"], ["text"], [["fine"], [object()]]),
        (["note"], ["text"], [["fine"], [when]]),  # a datetime outside a timestamp column
        (["n", "at"], ["integer", "timestamp"], [[when, 1]]),
    ]:
        table = Table(columns, types, rows)
        with pytest.raises(InvalidValue, match=rf"^row \d, column '{columns[0]}': "):
            MemoryStore().put("t", table)
        with pytest.raises(InvalidValue, match=rf"^row \d, column '{columns[0]}': "):
            MemoryStore().put("t", table.take(list(range(table.row_count))))


def test_decoder_mark_is_not_a_field():
    decoded = table_from_csv("s,n\ntext,integer\na,1\n")
    by_hand = Table(["s", "n"], ["text", "integer"], [["a", 1]])
    assert [f.name for f in dataclasses.fields(Table)] == ["columns", "types", "data", "row_count"]
    assert decoded == by_hand
    assert repr(decoded) == repr(by_hand) == (
        "Table(columns=['s', 'n'], types=['text', 'integer'], rows=[['a', 1]])")
    assert dataclasses.asdict(decoded) == dataclasses.asdict(by_hand)
    with pytest.raises(TypeError):
        Table(["s"], ["text"], [], _cells_typed=True)


def _live_lists() -> int:
    return sum(type(o) is list for o in gc.get_objects())


def test_decoded_table_keeps_a_list_per_column_not_per_row():
    text = "s,n,x\ntext,integer,decimal\n" + "".join(f"k{r},{r},{r}.5\n" for r in range(20_000))
    before = _live_lists()
    table = table_from_csv(text)
    grown = _live_lists() - before
    assert table.row_count == 20_000
    assert grown < 10 * table.column_count, grown


def test_changing_the_rows_read_changes_no_table():
    text = "s,n,at\ntext,integer,timestamp\na,1,2026-03-01T00:00:00Z\nb,2,2026-03-01T00:00:01Z\n"
    for table, twin in ((table_from_csv(text), table_from_csv(text)),
                        (big_table(rows=4), big_table(rows=4))):
        size = MemoryValue("table", table).byte_size
        rows = table.rows
        rows[0][0] = "changed"
        rows[1].append("extra")
        rows.append(list(rows[0]))
        assert table.rows != rows
        assert table == twin
        assert table.rows == twin.rows
        assert MemoryValue("table", table).byte_size == size


_PY_TYPES = {"text": str, "integer": int, "decimal": float, "boolean": bool, "timestamp": datetime}


def test_csv_cells_have_their_column_type():
    text = "t,i,d,b,at\ntext,integer,decimal,boolean,timestamp\n" + "".join(
        f"x{r},{r},{r}.5,{'true' if r % 2 else 'no'},2026-03-01T00:00:{r % 60:02d}Z\n"
        for r in range(CSV_CHUNK_ROWS + 3)
    )
    table = table_from_csv(text)
    assert table.row_count == CSV_CHUNK_ROWS + 3
    for row in table.rows:
        assert type(row) is list
        assert [type(cell) for cell in row] == [_PY_TYPES[t] for t in table.types]
    assert table.rows[1] == ["x1", 1, 1.5, True,
                             datetime(2026, 3, 1, 0, 0, 1, tzinfo=timezone.utc)]


_CSV_CELLS = {
    "text": st.one_of(
        st.text(max_size=12),
        st.sampled_from(["a,b", 'say "hi", twice', "two\nlines", "", " padded ", "a\rb", "\r\n"]),
    ),
    "integer": st.integers(min_value=-(2**70), max_value=2**70),
    "decimal": st.floats(allow_nan=False),
    # spellings, decoded as cell.strip().lower() == "true"
    "boolean": st.sampled_from([" True ", "FALSE", "true", "false", "TRUE", "yes", ""]),
    "timestamp": st.datetimes(
        min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1),
        timezones=st.just(timezone.utc),
    ),
}


@st.composite
def _csv_tables(draw):
    """(CSV text with free-form boolean spellings, the Table it decodes to)."""
    types = draw(st.lists(st.sampled_from(COLUMN_TYPES), min_size=1, max_size=5))
    distinct = draw(st.lists(st.tuples(*(_CSV_CELLS[t] for t in types)), min_size=1, max_size=6))
    n = draw(st.one_of(st.integers(0, 40), st.integers(CSV_CHUNK_ROWS - 2, 3 * CSV_CHUNK_ROWS)))
    spelled = [list(distinct[i % len(distinct)]) for i in range(n)]
    columns = [f"c{i}" for i in range(len(types))]
    bools = [i for i, t in enumerate(types) if t == "boolean"]
    as_text = [("text" if t == "boolean" else t) for t in types]
    body = table_to_csv(Table(columns, as_text, spelled)).split("\n", 2)[2]
    text = ",".join(columns) + "\n" + ",".join(types) + "\n" + body
    rows = [list(r) for r in spelled]
    for row in rows:
        for i in bools:
            row[i] = row[i].strip().lower() == "true"
    return text, Table(columns, types, rows)


@settings(max_examples=40, deadline=None)
@given(_csv_tables())
def test_csv_decode_roundtrip(case):
    text, table = case
    assert table_from_csv(text) == table
    assert table_from_csv(table_to_csv(table)) == table


# A decimal column reads its cells back as floats, so an int past 2**53
# would come back rounded; every int here is one a float holds exactly.
_EXACT_INTS = st.integers(min_value=-(2**53), max_value=2**53)
_DATETIMES = st.datetimes(timezones=st.one_of(st.none(), st.timezones()))
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _EXACT_INTS, st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=2),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4,
)
# each column type's own cells
_TYPED_CELLS = {
    "text": st.text(max_size=8),
    "integer": _EXACT_INTS,
    "decimal": st.one_of(_EXACT_INTS, st.floats()),
    "timestamp": _DATETIMES,
    "boolean": st.booleans(),
}


@st.composite
def _mixed_tables(draw):
    """A table whose columns each hold their own type's cells or, one in
    four, any JSON values and datetimes, under text or numeric column names."""
    types = draw(st.lists(st.sampled_from(COLUMN_TYPES), max_size=4))
    columns = [draw(st.one_of(st.text(max_size=4), _EXACT_INTS)) for _ in types]
    n = draw(st.integers(0, 5))
    mixed = st.one_of(_JSON_VALUES, _DATETIMES)
    data = [draw(st.lists(mixed if draw(st.integers(0, 3)) == 0 else _TYPED_CELLS[t],
                          min_size=n, max_size=n))
            for t in types]
    return columns, types, [list(row) for row in zip(*data)] if types else [[]] * n


def _exact(cell) -> bool:
    """True for a cell the CSV interchange gives back equal: text, a bool,
    an int, a finite float or an aware timestamp."""
    if isinstance(cell, float):
        return cell == cell and abs(cell) != float("inf")
    if isinstance(cell, datetime):
        return cell.tzinfo is not None
    return isinstance(cell, (str, int))


@settings(max_examples=200, deadline=None)
@given(_mixed_tables())
def test_every_table_a_put_accepts_survives_the_csv_interchange(case):
    columns, types, rows = case
    try:
        table = Table(columns, types, rows)
        MemoryStore().put("t", table)
    except InvalidValue:
        return
    back = table_from_csv(table_to_csv(table))
    if all(map(_exact, chain.from_iterable(table.data))):
        assert back == table


# -- ints too long for text ---------------------------------------------------
# Python refuses to turn an int of more than sys.get_int_max_str_digits()
# digits into text, so every reader of a stored value would fail on one: a
# put refuses it by name instead.


@pytest.fixture
def int_digits():
    """sys.set_int_max_str_digits, with the limit put back after the test."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


_PAST = "an int of more than 4300 digits, past the interpreter's int-to-text limit"
_LONG = 10 ** 4300  # 4301 digits

_LONG_INT_VALUES = {
    "scalar": (_LONG, "scalar payload"),
    "negative scalar": (-_LONG, "scalar payload"),
    "list item": ([1, "a", _LONG], "list item 2"),
    "record value": ({"a": 1, "b": -_LONG}, "record field 'b'"),
    "integer cell": (Table(["n"], ["integer"], [[1], [_LONG]]), "row 1, column 'n'"),
    "decimal int cell": (Table(["s", "x"], ["text", "decimal"], [["a", 0.5], ["b", _LONG]]),
                         "row 1, column 'x'"),
    "decimal column of ints": (Table(["x"], ["decimal"], [[-_LONG], [1]]), "row 0, column 'x'"),
    "decimal int cell after a NaN": (Table(["x"], ["decimal"], [[float("nan")], [_LONG]]),
                                     "row 1, column 'x'"),
    "int subclass cell": (Table(["n"], ["integer"], [[type("Big", (int,), {})(_LONG)]]),
                          "row 0, column 'n'"),
}


@pytest.mark.parametrize("value, where", _LONG_INT_VALUES.values(), ids=_LONG_INT_VALUES)
def test_a_put_refuses_an_int_too_long_for_text(int_digits, tmp_path, value, where):
    int_digits(4300)
    message = f"^{where}: {_PAST}$"
    with pytest.raises(InvalidValue, match=message):
        MemoryStore().put("k", value)
    with pytest.raises(InvalidValue, match=message):
        RunScope(MemoryStore(), "run-1").put("k", value)
    path = tmp_path / "memory.log"
    store = FileBackedStore(path)
    store.put("before", 1)
    logged = path.read_bytes()
    with pytest.raises(InvalidValue, match=message):
        store.put("k", value)
    assert path.read_bytes() == logged and store.keys() == ["before"]
    assert FileBackedStore(path).keys() == ["before"]


def test_a_literal_refuses_an_int_too_long_for_text(int_digits):
    int_digits(4300)
    for literal, where in [
        (_LONG, "scalar payload"),
        ([_LONG], "list item 0"),
        ({"n": _LONG}, "record field 'n'"),
        ({"columns": ["n"], "types": ["integer"], "rows": [[_LONG]]}, "row 0, column 'n'"),
    ]:
        with pytest.raises(InvalidValue, match=f"^{where}: {_PAST}$"):
            value_from_literal(literal)


@pytest.mark.parametrize("limit", [640, 1000, 4300])
def test_every_int_a_put_accepts_converts_to_text(int_digits, limit):
    """At the edge of the limit, and at each bit length near it, a put takes
    exactly the ints that str() converts, and every reader of them works."""
    int_digits(limit)
    edge = 10 ** limit
    bits = edge.bit_length()
    candidates = [edge - 1, edge, edge + 1, 1 << (bits - 2), 1 << (bits - 1), (1 << bits) - 1,
                  1 << bits]
    for x in candidates + [-x for x in candidates]:
        try:
            str(x)
        except ValueError:
            converts = False
        else:
            converts = True
        for value in (x, [x], {"n": x}, Table(["n", "x"], ["integer", "decimal"], [[x, x]])):
            try:
                MemoryStore().put("k", value)
            except InvalidValue:
                assert not converts, (limit, x.bit_length())
                continue
            assert converts, (limit, x.bit_length())
            stored = memory_value(value)
            render_context(stored)
            encode_value(stored)
            if stored.kind == "table":
                table_to_csv(stored.payload)


def test_a_limit_of_0_takes_every_int(int_digits, tmp_path):
    int_digits(0)
    store = FileBackedStore(tmp_path / "memory.log")
    table = Table(["n"], ["integer"], [[10 ** 5000]])
    store.put("scalar", -10 ** 5000)
    store.put("table", table)
    replayed = FileBackedStore(store.path)
    assert replayed.get("table").payload == table and replayed.get("scalar").payload == -10 ** 5000
    assert render_context(store.get("scalar")).text.startswith("memory[]: scalar = -1000")
    assert table_from_csv(table_to_csv(table)) == table
