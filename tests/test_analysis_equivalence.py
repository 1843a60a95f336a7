"""The analysis kernels against tests/analysis_reference.py.

pearson_correlation, the mean/max/min aggregates and metric_fetch's window
now work a column at a time inside builtins. Over seeded random series and
stamp columns (NaN, infinities, ties, empty columns, integers past 2**53 and
past the float range, non-numeric values; sorted, unsorted, naive, aware and
mixed stamps, with bounds on equal stamps and lo > hi) each must give the
reference's result bit for bit, or raise the same exception class with the
same message. A table refuses a non-numeric value at put, so such values are
compared as lists.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone
from random import Random

import pytest

import analysis_reference as reference
from tsgflow.memory import (
    InvalidValue,
    MemoryStore,
    Table,
    as_utc,
    table_from_csv,
    table_to_csv,
)
from tsgflow.plugins import (
    _time_window,
    analysis_aggregate,
    analysis_pearson,
    build_mock_registry,
    pearson_correlation,
)


def _outcome(fn, *args):
    """("ok", type and repr of the result) or (exception class, message)."""
    try:
        result = fn(*args)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    if isinstance(result, Table):
        return "ok", _table_bits(result)
    return "ok", type(result), repr(result)  # repr tells -0.0 from 0.0 and keeps NaN


def _table_bits(t: Table):
    """Everything a table holds, offsets of timestamps included (== on two
    aware datetimes compares instants only)."""
    return (t.columns, t.types, repr(t.data), t.row_count, t._cells_typed,
            [type(column) for column in t.data])


_SPECIALS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 2**53 + 1, -(2**53) - 3, 10**400,
             -(10**400), 5e-324, 1.7976931348623157e308]


def _number(rng: Random, pool: list):
    roll = rng.random()
    if roll < 0.3 and pool:
        return rng.choice(pool)  # a tie
    if roll < 0.4:
        return rng.choice(_SPECIALS)
    if roll < 0.7:
        return rng.randint(-(2**60), 2**60)
    return rng.uniform(-1e6, 1e6)


def _series(rng: Random, n: int, special: float) -> list:
    out: list = []
    for _ in range(n):
        out.append(_number(rng, out) if rng.random() < special else rng.gauss(50.0, 10.0))
    return out


def _store_series(rng: Random, store: MemoryStore, key: str, values: list) -> str:
    """Store `values` as a list or a one-numeric-column table; the key to read it.

    A table refuses a value that is not a number at put, so such values are
    stored as a list, which the reference reads too.
    """
    shape = rng.choice(("list", "table", "column"))
    if shape != "list":
        col_type = "integer" if all(type(v) is int for v in values) and values else "decimal"
        table = Table(["name", "v"], ["text", col_type], [[f"r{i}", v] for i, v in enumerate(values)])
        if not any(isinstance(v, (bool, str)) for v in values):
            store.put(key, table)
            return key if shape == "table" else f"{key}#v"
        with pytest.raises(InvalidValue, match="^row [0-9]+, column 'v': a (bool|str) cell, "):
            store.put(key, table)
    store.put(key, values)
    return key


@pytest.mark.parametrize("seed", range(8))
def test_pearson_matches_the_reference(seed):
    rng = Random(20261020 + seed)
    for _ in range(300):
        n = rng.choice([0, 1, 2, 3, 5, 40, 200])
        special = rng.choice([0.0, 0.0, 0.05, 0.5])
        xs = _series(rng, n, special)
        ys = _series(rng, n if rng.random() < 0.9 else rng.randint(0, 6), special)
        if rng.random() < 0.1:
            ys = [ys[0]] * len(ys) if ys else ys  # zero variance
        if rng.random() < 0.2:  # as the plugin passes them: floats, or the OverflowError
            try:
                xs, ys = list(map(float, xs)), list(map(float, ys))
            except OverflowError:
                pass
        want = _outcome(reference.pearson_correlation, xs, ys)
        assert _outcome(pearson_correlation, xs, ys) == want, (xs, ys)


@pytest.mark.parametrize("seed", range(8))
def test_stored_series_aggregates_and_pearson_match_the_reference(seed):
    rng = Random(20261120 + seed)
    for case in range(150):
        store = MemoryStore()
        n = rng.choice([0, 1, 2, 7, 60])
        special = rng.choice([0.0, 0.1, 0.6])
        values = _series(rng, n, special)
        if rng.random() < 0.05 and values:
            values[rng.randrange(n)] = rng.choice([True, "7"])  # not a number
        kx = _store_series(rng, store, f"x{case}", values)
        ky = _store_series(rng, store, f"y{case}", _series(rng, n, special))
        for op in ("mean", "max", "min"):
            want = _outcome(reference.aggregate, store, kx, op)
            assert _outcome(analysis_aggregate, store, kx, op) == want, (values, op)
        want = _outcome(reference.analysis_pearson, store, kx, ky)
        assert _outcome(analysis_pearson, store, kx, ky) == want, (kx, ky)


def test_aggregate_errors_match_the_reference():
    store = MemoryStore()
    store.put("empty", [])
    store.put("huge", [1, 10**400])
    store.put("flags", [1.0, True])
    store.put("record", {"a": 1})
    store.put("t", Table(["a", "b"], ["integer", "decimal"], [[1, 2.0]]))
    with pytest.raises(InvalidValue, match="^row 0, column 'n': a str cell, expected integer$"):
        store.put("cells", Table(["s", "n"], ["text", "integer"], [["x", "7"], ["y", None]]))
    store.put("cells", ["x", "7"])
    store.put("none", Table(["n"], ["decimal"], []))
    keys = ["empty", "huge", "flags", "record", "t", "t#a", "t#b", "t#c", "cells#s", "cells#n",
            "cells", "none", "none#n", "missing", "record#a"]
    for key in keys:
        for op in ("mean", "max", "min", "median"):
            want = _outcome(reference.aggregate, store, key, op)
            assert _outcome(analysis_aggregate, store, key, op) == want, (key, op)


_T0 = datetime(2026, 3, 1, 12, tzinfo=timezone.utc)
_ZONES = [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-8))]


def _stamps(rng: Random, n: int, shape: str) -> list[datetime]:
    seconds = sorted(rng.randint(0, 400) for _ in range(n))  # ties among them
    stamps = [(_T0 + timedelta(seconds=s)).astimezone(rng.choice(_ZONES)) for s in seconds]
    if shape == "unsorted":
        rng.shuffle(stamps)
    elif shape == "naive":
        stamps = [ts.astimezone(timezone.utc).replace(tzinfo=None) for ts in stamps]
    elif shape == "mixed" and stamps:
        i = rng.randrange(n)
        stamps[i] = stamps[i].astimezone(timezone.utc).replace(tzinfo=None)
    elif shape == "descending":
        stamps.reverse()
    return stamps


def _bound(rng: Random, stamps: list[datetime]) -> datetime:
    if stamps and rng.random() < 0.6:  # on a stamp, so ties sit on the edge
        return as_utc(rng.choice(stamps)).astimezone(rng.choice(_ZONES))
    return (_T0 + timedelta(seconds=rng.randint(-50, 450))).astimezone(rng.choice(_ZONES))


def _window_table(rng: Random, n: int, shape: str) -> Table:
    stamps = _stamps(rng, n, shape)
    values = [rng.uniform(90, 100) for _ in range(n)]
    if rng.random() < 0.5:  # typed by construction, as the CSV decoder leaves it
        return Table._of_columns(["ts", "value"], ["timestamp", "decimal"], [stamps, values], n, True)
    return Table(["host", "ts", "value"], ["text", "timestamp", "decimal"],
                 [[f"h{i}", ts, v] for i, (ts, v) in enumerate(zip(stamps, values))])


@pytest.mark.parametrize("shape", ["sorted", "descending", "unsorted", "naive", "mixed"])
def test_window_matches_the_reference(shape):
    rng = Random(f"window-{shape}")
    for _ in range(400):
        table = _window_table(rng, rng.choice([0, 1, 2, 3, 10, 80]), shape)
        stamps = table.data[table.types.index("timestamp")]
        lo, hi = _bound(rng, stamps), _bound(rng, stamps)
        if rng.random() < 0.3:
            lo, hi = sorted((lo, hi))
        want = _outcome(reference.window, table, lo, hi)
        got = _outcome(_time_window, table, lo, hi)
        assert got == want, (stamps, lo, hi)
        out = _time_window(table, lo, hi)
        assert all(column is not source for column, source in zip(out.data, table.data))


def test_metric_fetch_stores_the_reference_window(tmp_path):
    rng = Random(20261021)
    metrics = tmp_path / "t" / "metrics"
    metrics.mkdir(parents=True)
    registry = build_mock_registry(tmp_path, "t")
    for i, shape in enumerate(["sorted", "sorted", "unsorted", "naive", "mixed", "descending"]):
        table = _window_table(rng, 50, shape)
        text = table_to_csv(table)
        (metrics / f"m{i}.csv").write_text(text, encoding="utf-8")
        stamps = table.data[table.types.index("timestamp")]
        lo, hi = sorted((_bound(rng, stamps), _bound(rng, stamps)))
        store = MemoryStore()
        result = registry.invoke("metric_fetch", {"metric": f"m{i}", "from": lo.isoformat(),
                                                  "to": hi}, store)
        want = reference.window(table_from_csv(text), lo, hi)
        assert _table_bits(store.get(result.refs[0].key).payload) == _table_bits(want)
        assert result.message == f"{want.row_count} points"


def test_take_slices_only_a_step_one_range_inside_the_table():
    t = Table(["a", "b"], ["integer", "text"], [[i, f"r{i}"] for i in range(6)])
    for indices in (range(1, 4), range(0, 6), range(3, 3), range(4, 2), range(0, 6, 2),
                    range(5, 0, -1), range(-3, 2), range(-2, 0)):
        assert t.take(indices).rows == [t.rows[i] for i in indices], indices
    for indices in (range(2, 7), range(6, 7)):
        with pytest.raises(IndexError):
            t.take(indices)
    assert Table([], [], [[], []]).take(range(0, 2)).row_count == 2
