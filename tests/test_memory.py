from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgflow.memory import (
    COLUMN_TYPES,
    CSV_CHUNK_ROWS,
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
        st.text(st.characters(blacklist_characters="\r"), max_size=12),
        st.sampled_from(["a,b", 'say "hi", twice', "two\nlines", "", " padded "]),
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
