from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsgflow.memory import (
    FileBackedStore,
    InvalidKey,
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


def test_run_scope_isolation():
    store = MemoryStore()
    one = RunScope(store, "run-1")
    two = RunScope(store, "run-2")
    one.put("k", "first")
    two.put("k", "second")
    assert one.get("k").payload == "first"
    assert two.get("k").payload == "second"
    assert one.keys() == ["k"]
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


def test_value_from_literal_table():
    value = value_from_literal(
        {"columns": ["t", "v"], "types": ["timestamp", "decimal"],
         "rows": [["2026-03-01T00:00:00Z", 99.9]]}
    )
    assert value.kind == "table"
    assert value.payload.rows[0][0] == datetime(2026, 3, 1, tzinfo=timezone.utc)


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


def test_unencodable_table_cell_rejected_at_construction():
    for bad in (object(), datetime(2024, 1, 1, tzinfo=timezone.utc)):
        with pytest.raises(TypeError):
            MemoryValue("table", Table(["note"], ["text"], [["fine"], [bad]]))
    with pytest.raises(TypeError):
        MemoryValue("table", Table([object()], ["text"], []))


def test_byte_size_computed_on_first_read():
    when = datetime(2024, 1, 1, tzinfo=timezone.utc)
    value = MemoryValue("table", Table(["at", "tags"], ["timestamp", "text"], [[when, None]]))
    assert "byte_size" not in vars(value)
    assert value.byte_size == len(encode_value(value).encode("utf-8"))
    assert vars(value)["byte_size"] == value.byte_size
