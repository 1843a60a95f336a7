"""Column-major tables against row-major references.

A `Table` keeps one list per column. Every reference here is written in
plain Python over `table.rows`, as the code read tables when it kept one list
per row: the metric window filter, `top_k`, the numeric aggregates and
Pearson, `render_context`, `encode_value`/`byte_size`, `table_to_csv` and a
`FileBackedStore` log and its replay. The tables are drawn from a fixed seed
and include ties, naive and aware timestamps, empty tables and tables with
no columns.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from datetime import datetime, timedelta, timezone
from random import Random

import pytest

from tsgflow import memory
from tsgflow.memory import (
    COLUMN_TYPES,
    FileBackedStore,
    MemoryStore,
    MemoryValue,
    Table,
    as_utc,
    encode_value,
    format_timestamp,
    parse_timestamp,
    render_context,
    table_from_csv,
    table_to_csv,
)
from tsgflow.plugins import (
    LengthMismatch,
    NonNumeric,
    ZeroVariance,
    analysis_aggregate,
    analysis_pearson,
    build_mock_registry,
    pearson_correlation,
)

SEED = 20261019
T0 = datetime(2026, 3, 1, tzinfo=timezone.utc)
_TEXTS = ["", "a,b", 'say "hi"', "two\nlines", "a\rb", "é ✓ 漢", " padded ", "k1", "k2"]


def _cell(rng: Random, col_type: str):
    if col_type == "text":
        return rng.choice(_TEXTS + ["x" * rng.randint(20, 300)])
    if col_type == "integer":  # a narrow range gives ties
        return rng.choice([rng.randint(-3, 3), rng.randint(-(2**70), 2**70)])
    if col_type == "decimal":
        return rng.choice([float(rng.randint(-3, 3)), rng.uniform(-1e6, 1e6), 0.5])
    if col_type == "boolean":
        return rng.random() < 0.5
    at = T0 + timedelta(seconds=rng.randint(0, 86_400))
    return at.replace(tzinfo=None) if rng.random() < 0.3 else at


def _random_table(rng: Random, types: list[str] | None = None, rows: int | None = None) -> Table:
    if types is None:
        types = [rng.choice(COLUMN_TYPES) for _ in range(rng.randint(0, 6))]
    if rows is None:
        rows = rng.choice([0, 1, 2, rng.randint(3, 40)])
    columns = [f"c{i}" for i in range(len(types))]
    return Table(columns, list(types), [[_cell(rng, t) for t in types] for _ in range(rows)])


def _tables(count: int) -> list[Table]:
    """Hand-built tables, and the same tables decoded from their CSV text."""
    rng = Random(SEED)
    built = [_random_table(rng) for _ in range(count)]
    built += [Table([], [], [[]] * 4), Table(["n"], ["integer"], [])]
    return built + [table_from_csv(table_to_csv(t)) for t in built]


# -- references over rows ----------------------------------------------------------

def _cell_to_json(cell, col_type):
    return format_timestamp(cell) if col_type == "timestamp" and isinstance(cell, datetime) else cell


def _encode_reference(t: Table) -> str:
    rows = [[_cell_to_json(c, ty) for c, ty in zip(row, t.types)] for row in t.rows]
    payload = {"columns": t.columns, "types": t.types, "rows": rows}
    return json.dumps({"kind": "table", "payload": payload}, separators=(",", ":"), sort_keys=True)


def _csv_reference(t: Table) -> str:
    buf = io.StringIO()
    plain = csv.writer(buf, lineterminator="\n")
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    lines = [t.columns, t.types] + [[memory._render_cell(c, None) for c in row] for row in t.rows]
    for cells in lines:
        (quoted if any("\r" in c for c in cells) else plain).writerow(cells)
    return buf.getvalue()


def _render_reference(t: Table, key: str, sample_rows: int, budget: int):
    """(text, sample) of a table as render_context plans it, from its rows."""
    rows, width = t.rows, len(t.columns)
    plan = [(width, None)] + [(width, cap) for cap in (128, 64, 32, 16, 8)]
    plan += [(visible, 8) for visible in range(width - 1, 0, -1)]
    text, sample = "", []
    for visible, cap in plan:
        more = [f"… +{width - visible} more"] if visible < width else []
        names = [f"{n}:{ty}" for n, ty in zip(t.columns[:visible], t.types[:visible])] + more
        lines = [f"memory[{key}]: table {len(rows)} rows x {width} cols", "columns: " + ", ".join(names)]
        sample = [[memory._render_cell(c, cap) for c in row[:visible]] + more
                  for row in rows[: max(sample_rows, 0)]]
        lines += [f"row {i}: " + " | ".join(cells) for i, cells in enumerate(sample, start=1)]
        text = "\n".join(lines)
        if len(text.encode("utf-8")) <= budget:
            break
    return text, sample


def _outcome(fn, *args):
    """fn's result, or the type and message of the plugin error it raised."""
    try:
        return fn(*args)
    except (NonNumeric, LengthMismatch, ZeroVariance) as exc:
        return type(exc), str(exc)


# -- tests -----------------------------------------------------------------------

def _metric_csv(rng: Random, rows: int, naive_share: float) -> str:
    """host,timestamp,value text; a timestamp is written without an offset
    with probability `naive_share`."""
    lines = ["host,timestamp,value", "text,timestamp,decimal"]
    for _ in range(rows):
        at = T0 + timedelta(minutes=rng.randint(0, 24 * 60))
        stamp = at.strftime("%Y-%m-%dT%H:%M:%S") + ("" if rng.random() < naive_share else "Z")
        lines.append(f"h{rng.randint(0, 3)},{stamp},{rng.uniform(0, 100)!r}")
    return "\n".join(lines) + "\n"


def test_metric_fetch_matches_a_row_filter(tmp_path):
    rng = Random(SEED + 1)
    metrics = tmp_path / "fx" / "t" / "metrics"
    metrics.mkdir(parents=True)
    cases = []
    for i, naive_share in enumerate([0.0, 1.0, 0.5, 0.0, 0.5, 1.0]):
        text = _metric_csv(rng, rng.choice([0, 1, rng.randint(2, 300)]), naive_share)
        (metrics / f"m{i}.csv").write_text(text, encoding="utf-8")
        cases.append((f"m{i}", table_from_csv(text)))
    registry = build_mock_registry(tmp_path / "fx", "t")
    selected = set()
    windows = [("2026-03-01T05:00:00Z", "2026-03-01T17:30:00Z"),
               ("2026-03-01T05:00:00", "2026-03-01T05:00:00+00:00"),
               ("2030-01-01T00:00:00Z", "2031-01-01T00:00:00Z"),  # empty
               ("2000-01-01T00:00:00Z", "2100-01-01T00:00:00Z"),  # every row
               ("2026-03-01T18:00:00Z", "2026-03-01T06:00:00Z")]  # from after to
    for metric, table in cases:
        # a window whose ends are cells of the table, given without an offset
        ends = sorted(format_timestamp(row[1]).rstrip("Z") for row in table.rows[:2])
        for lo, hi in windows + ([tuple(ends)] if len(ends) == 2 else []):
            store = MemoryStore()
            result = registry.invoke("metric_fetch", {"metric": metric, "from": lo, "to": hi}, store)
            out = store.get(result.refs[0].key).payload
            want = [row for row in table.rows
                    if as_utc(parse_timestamp(lo)) <= as_utc(row[1]) <= as_utc(parse_timestamp(hi))]
            assert out.rows == want
            assert out == Table(table.columns, table.types, want)
            assert out._cells_typed
            assert result.message == f"{len(want)} points"
            selected.add("none" if not want else "all" if want == table.rows else "some")
    assert selected == {"none", "some", "all"}


def test_top_k_and_aggregates_match_row_references():
    tables = [t for t in _tables(80) if "integer" in t.types or "decimal" in t.types]
    rng = Random(SEED + 2)
    tables += [_random_table(rng, ["text", "integer"], 30) for _ in range(5)]  # many ties
    assert len(tables) > 60
    for t in tables:
        store = MemoryStore()
        store.put("t", t)
        rows = t.rows
        for col, (name, col_type) in enumerate(zip(t.columns, t.types)):
            key = f"t#{name}"
            if col_type not in ("integer", "decimal"):
                with pytest.raises(NonNumeric, match="column is not numeric"):
                    analysis_aggregate(store, key, "top_k", 3)
                continue
            for k in (0, 1, 3, len(rows), len(rows) + 5):
                top = analysis_aggregate(store, key, "top_k", k)
                want = sorted(rows, key=lambda row: row[col], reverse=True)[:k]
                assert top.rows == want
                assert top == Table(t.columns, t.types, want)
                assert top._cells_typed == t._cells_typed
            series = [float(row[col]) for row in rows]
            for op, reference in (("mean", lambda s: sum(s) / len(s)), ("max", max), ("min", min)):
                want = reference(series) if series else (NonNumeric, f"{key}: empty series")
                assert _outcome(analysis_aggregate, store, key, op) == want
        assert analysis_aggregate(store, "t", "count") == len(rows)


def test_pearson_matches_a_row_reference():
    rng = Random(SEED + 3)
    checked = 0
    for _ in range(60):
        n = rng.choice([0, 1, 2, rng.randint(3, 50)])
        pair = [_random_table(rng, [rng.choice(["integer", "decimal"]), "text", "timestamp"][::rng.choice([1, -1])],
                              n + rng.choice([0, 0, 0, 1]))
                for _ in range(2)]
        store = MemoryStore()
        series = []
        for name, t in zip("xy", pair):
            store.put(name, t if rng.random() < 0.5 else table_from_csv(table_to_csv(t)))
            col = next(i for i, ty in enumerate(t.types) if ty in ("integer", "decimal"))
            series.append([float(row[col]) for row in t.rows])
        want = _outcome(pearson_correlation, *series)
        assert _outcome(analysis_pearson, store, "x", "y") == want
        checked += isinstance(want, float)
    assert checked > 20


def test_render_context_matches_a_row_reference():
    for t in _tables(40):
        value = MemoryValue("table", t)
        for budget in (40, 120, 300, 2048, 10**6):
            for sample_rows in (-1, 0, 1, 3, 7):
                got = render_context(value, sample_rows=sample_rows, budget=budget, key="k")
                text, sample = _render_reference(t, "k", sample_rows, budget)
                assert (got.text, got.sample) == (text, sample)
                assert (got.row_count, got.column_count) == (len(t.rows), len(t.columns))
                assert got.rendered_bytes == len(text.encode("utf-8"))


def test_encoding_csv_and_log_match_row_references(tmp_path):
    tables = _tables(40)
    log = tmp_path / "memory.log"
    store = FileBackedStore(log)
    want_log = b""
    for i, t in enumerate(tables):
        value = MemoryValue("table", t)
        encoded = _encode_reference(t)
        assert encode_value(value) == encoded
        assert value.byte_size == len(encoded.encode("utf-8"))
        assert table_to_csv(t) == _csv_reference(t)
        store.put(f"t{i}", t)
        record = json.dumps({"key": f"t{i}", "value": encoded}).encode("utf-8")
        want_log += struct.pack(">I", len(record)) + record
    assert log.read_bytes() == want_log
    replayed = FileBackedStore(log)
    for i, t in enumerate(tables):
        got = replayed.get(f"t{i}").payload
        # a naive time is written as UTC and read back as an aware one
        want = [[as_utc(c) if ty == "timestamp" and isinstance(c, datetime) else c
                 for c, ty in zip(row, t.types)] for row in t.rows]
        assert (got.columns, got.types, got.rows) == (t.columns, t.types, want)
