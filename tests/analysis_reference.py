"""The analysis kernels as they were before their column-at-a-time rewrite,
kept as the reference.

pearson_correlation summed through generators, the mean, max and min
aggregates built a list of floats per call, and metric_fetch filtered its
window with a comprehension and copied each column index by index. The
bodies below are that code, unchanged but for two cuts: `aggregate` is
analysis_aggregate's mean/max/min branch alone, and `window` is the part of
metric_fetch between reading the series and storing the result, with
Table.take written in as `_take`. tests/test_analysis_equivalence.py checks
tsgflow.plugins against them.
"""

from __future__ import annotations

import math

from tsgflow.memory import KeyNotFound, Table, as_utc
from tsgflow.plugins import LengthMismatch, NonNumeric, PluginError, ZeroVariance


def pearson_correlation(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson correlation via the centered two-pass formula."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise LengthMismatch(f"need at least 2 points, got {n}")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("a series has zero variance")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _floats(key: str, values) -> list[float]:
    """`values` as floats; NonNumeric for an integer too large for a float."""
    try:
        return list(map(float, values))
    except OverflowError:
        raise NonNumeric(f"{key}: a value is too large for a float") from None


def _numeric_series(store, key: str) -> list[float]:
    """Numeric list, or the single numeric column of a table, under `key`."""
    value = store.get(key)
    if value.kind == "list":
        for x in value.payload:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise NonNumeric(f"{key}: list holds a non-numeric value")
        return _floats(key, value.payload)
    if value.kind == "table":
        t: Table = value.payload
        numeric = [i for i, ty in enumerate(t.types) if ty in ("integer", "decimal")]
        if len(numeric) != 1:
            raise NonNumeric(
                f"{key}: expected exactly one numeric column, found {len(numeric)}"
            )
        return _floats(key, t.data[numeric[0]])
    raise NonNumeric(f"{key}: value kind {value.kind!r} is not a numeric series")


def analysis_pearson(store, key_x: str, key_y: str) -> float:
    """Pearson correlation of two stored series; result stored under a derived key."""
    xs = _numeric_series(store, key_x)
    ys = _numeric_series(store, key_y)
    r = pearson_correlation(xs, ys)
    store.put(f"pearson:{key_x}:{key_y}", r)
    return r


def _column_series(store, key: str):
    """Split `key` or `key#column` into (value, optional column index)."""
    if "#" in key:
        base, _, column = key.rpartition("#")
        value = store.get(base)
        if value.kind != "table":
            raise NonNumeric(f"{base}: column reference on a non-table value")
        t: Table = value.payload
        if column not in t.columns:
            raise KeyNotFound(f"{base}#{column}")
        return value, t.columns.index(column)
    return store.get(key), None


def aggregate(store, key: str, op: str):
    """analysis_aggregate for op mean, max or min."""
    value, col = _column_series(store, key)

    if op not in ("mean", "max", "min"):
        raise PluginError(f"unknown aggregate op {op!r}")

    if col is not None:  # a key#column reference, so a table's column
        t = value.payload
        if t.types[col] not in ("integer", "decimal"):
            raise NonNumeric(f"{key}: column is not numeric")
        series = _floats(key, t.data[col])
    else:
        series = _numeric_series(store, key)
    if not series:
        raise NonNumeric(f"{key}: empty series")
    if op == "mean":
        return sum(series) / len(series)
    return max(series) if op == "max" else min(series)


def _take(table: Table, indices: list[int]) -> Table:
    data = [list(map(column.__getitem__, indices)) for column in table.data]
    return Table._of_columns(list(table.columns), list(table.types), data,
                             len(indices), table._cells_typed)


def window(table: Table, lo, hi) -> Table:
    """metric_fetch's rows of `table` in [lo, hi]; `lo` and `hi` are aware."""
    stamps = table.data[table.types.index("timestamp")]
    try:
        chosen = [i for i, ts in enumerate(stamps) if lo <= ts <= hi]
    except TypeError:  # cells without an offset: read them as UTC, like an argument
        chosen = [i for i, ts in enumerate(stamps) if lo <= as_utc(ts) <= hi]
    return _take(table, chosen)
