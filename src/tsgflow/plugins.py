"""Plugin contract plus fixture-backed mock plugins and fixed analysis ops.

A registry maps plugin names to (descriptor, callable). Plugins return a
PluginResult: inline scalars/records for small answers, memory references
for anything tabular. Tabular payloads never travel inline.

Mock plugins resolve against a fixture directory:

    fixtures/<tsg_id>/queries/index.json   entries mapping a query to a CSV
    fixtures/<tsg_id>/queries/*.csv        result tables (header + type row)
    fixtures/<tsg_id>/metrics/<name>.csv   timestamp,value series
    fixtures/<tsg_id>/devops.json          deployments and code changes

A query index entry is either {"query": "<exact text>", "file": "x.csv"} or
{"template": "<name>", "bindings": {...}, "file": "x.csv"}; lookup tries
exact query text first, then template name plus bindings.
"""

from __future__ import annotations

import heapq
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime
from functools import partial
from itertools import islice, repeat
from operator import le, mul, sub
from pathlib import Path

from .errors import JSON_DECODE_ERRORS, TsgflowError
from .memory import (
    KeyNotFound,
    MemoryRef,
    MemoryStoreError,
    Table,
    _fits,
    as_utc,
    parse_timestamp,
    table_from_csv,
)


class PluginError(TsgflowError):
    pass


class UnknownPlugin(PluginError):
    pass


class ArgSchemaViolation(PluginError):
    pass


class PluginFailure(PluginError):
    """Step-level failure: the scheduler treats it as retry-eligible."""


class LengthMismatch(PluginError):
    pass


class ZeroVariance(PluginError):
    pass


class NonNumeric(PluginError):
    pass


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # text | integer | decimal | timestamp | boolean | record
    required: bool = True


@dataclass(frozen=True)
class PluginDescriptor:
    name: str
    params: tuple[ParamSpec, ...]
    result: str  # "inline" or "memory_ref"


@dataclass
class PluginResult:
    status: str  # ok | error
    inline: object = None
    refs: list[MemoryRef] = field(default_factory=list)
    message: str = ""


def _is_timestamp(v) -> bool:
    """A datetime, or a text that parse_timestamp reads."""
    if not isinstance(v, str):
        return isinstance(v, datetime)
    try:
        parse_timestamp(v)
    except ValueError:
        return False
    return True


_KIND_CHECKS = {
    # a text, integer, decimal or boolean argument is a cell of that column type
    **{kind: partial(_fits, kind) for kind in ("text", "integer", "decimal", "boolean")},
    "timestamp": _is_timestamp,
    "record": lambda v: isinstance(v, dict),
}


class PluginRegistry:
    """Immutable-after-construction name -> plugin mapping."""

    def __init__(self):
        self._plugins: dict[str, tuple[PluginDescriptor, object]] = {}

    def register(self, descriptor: PluginDescriptor, fn) -> None:
        if descriptor.name in self._plugins:
            raise PluginError(f"plugin {descriptor.name!r} already registered")
        required_done = False
        for p in descriptor.params:
            if p.kind not in _KIND_CHECKS:
                raise PluginError(
                    f"plugin {descriptor.name!r}: parameter {p.name!r} has unknown kind {p.kind!r}")
            if not p.required:
                required_done = True
            elif required_done:
                raise PluginError(
                    f"plugin {descriptor.name!r}: required parameter {p.name!r} "
                    "listed after an optional one"
                )
        self._plugins[descriptor.name] = (descriptor, fn)

    def names(self) -> list[str]:
        return sorted(self._plugins)

    def summaries(self) -> list[dict]:
        """Each descriptor, by name, as a step context lists it: name, params,
        result contract."""
        return [
            {"name": d.name,
             "params": [{"name": p.name, "kind": p.kind, "required": p.required} for p in d.params],
             "result": d.result}
            for d in (self._plugins[n][0] for n in self.names())
        ]

    def invoke(self, name: str, args: dict, store) -> PluginResult:
        if name not in self._plugins:
            raise UnknownPlugin(name)
        descriptor, fn = self._plugins[name]
        known = {p.name for p in descriptor.params}
        for arg in args:
            if arg not in known:
                raise ArgSchemaViolation(f"{name}: unexpected argument {arg!r}")
        for p in descriptor.params:
            if p.name not in args:
                if p.required:
                    raise ArgSchemaViolation(f"{name}: missing required argument {p.name!r}")
                continue
            if not _KIND_CHECKS[p.kind](args[p.name]):
                raise ArgSchemaViolation(
                    f"{name}: argument {p.name!r} is not a {p.kind}"
                )
        return fn(args, store)


def _next_key(store, prefix: str) -> str:
    """A free key `prefix.n`, found with O(log n) `store.contains` lookups.

    Probes n = 1, 2, 4, ... until one is free, then bisects between the last
    used and that free n. Plugins number their keys 1, 2, 3, ..., so when the
    used keys are such a run the result is the next number; with gaps it may
    skip some, but it is never a key the store already holds.
    """
    used, free = 0, 1
    while store.contains(f"{prefix}.{free}"):
        used, free = free, free * 2
    while free - used > 1:
        mid = (used + free) // 2
        if store.contains(f"{prefix}.{mid}"):
            used = mid
        else:
            free = mid
    return f"{prefix}.{free}"


def _table_result(store, prefix: str, table: Table, noun: str) -> PluginResult:
    """Put `table` under the next free key `prefix.n` and return its ref,
    with a message counting its rows as `noun`."""
    ref = store.put(_next_key(store, prefix), table)
    return PluginResult(status="ok", refs=[ref], message=f"{table.row_count} {noun}")


def _as_datetime(v) -> datetime:
    """A timestamp argument as an aware datetime; a naive one is taken as UTC."""
    return as_utc(parse_timestamp(v) if isinstance(v, str) else v)


def _time_window(table: Table, lo: datetime, hi: datetime) -> Table:
    """The rows of `table` whose first timestamp cell lies in [lo, hi], in
    table order; `lo` and `hi` are aware.

    A column in time order holds the window as one run of rows, cut with two
    bisections and sliced out. Any other column is filtered cell by cell,
    and one holding cells without an offset reads them as UTC, like an
    argument.
    """
    stamps = table.data[table.types.index("timestamp")]
    try:
        if all(map(le, stamps, islice(stamps, 1, None))):
            chosen = range(bisect_left(stamps, lo), bisect_right(stamps, hi))
        else:
            chosen = [i for i, ts in enumerate(stamps) if lo <= ts <= hi]
    except TypeError:  # a naive cell meets an aware one or a bound
        chosen = [i for i, ts in enumerate(stamps) if lo <= as_utc(ts) <= hi]
    return table.take(chosen)


# -- analysis operations -----------------------------------------------------

def pearson_correlation(xs: list[float], ys: list[float]) -> float:
    """Sample Pearson correlation via the centered two-pass formula."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise LengthMismatch(f"need at least 2 points, got {n}")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    dx = list(map(sub, xs, repeat(mean_x)))
    dy = list(map(sub, ys, repeat(mean_y)))
    sxx = sum(map(mul, dx, dx))
    syy = sum(map(mul, dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("a series has zero variance")
    r = sum(map(mul, dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _floats(key: str, values) -> list[float]:
    """`values` as floats; NonNumeric for an integer too large for a float."""
    try:
        return list(map(float, values))
    except OverflowError:
        raise NonNumeric(f"{key}: a value is too large for a float") from None


def _numeric_values(store, key: str) -> list:
    """Numeric list, or the single numeric column of a table, under `key`,
    as stored."""
    value = store.get(key)
    if value.kind == "list":
        for x in value.payload:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise NonNumeric(f"{key}: list holds a non-numeric value")
        return value.payload
    if value.kind == "table":
        t: Table = value.payload
        numeric = [i for i, ty in enumerate(t.types) if ty in ("integer", "decimal")]
        if len(numeric) != 1:
            raise NonNumeric(
                f"{key}: expected exactly one numeric column, found {len(numeric)}"
            )
        return t.data[numeric[0]]
    raise NonNumeric(f"{key}: value kind {value.kind!r} is not a numeric series")


def analysis_pearson(store, key_x: str, key_y: str) -> float:
    """Pearson correlation of two stored series; result stored under a derived key."""
    xs = _floats(key_x, _numeric_values(store, key_x))
    ys = _floats(key_y, _numeric_values(store, key_y))
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


def analysis_aggregate(store, key: str, op: str, k: int = 3):
    """Exact aggregate over a stored series; top_k returns a small table."""
    value, col = _column_series(store, key)

    if op == "count":
        if value.kind == "table":
            return value.payload.row_count
        if value.kind == "list":
            return len(value.payload)
        raise NonNumeric(f"{key}: cannot count a {value.kind}")

    if op not in ("top_k", "mean", "max", "min"):
        raise PluginError(f"unknown aggregate op {op!r}")
    if op == "top_k" and col is None:
        raise NonNumeric("top_k needs a table column reference (key#column)")
    if col is not None:  # a key#column reference, so a table's column
        t: Table = value.payload
        if t.types[col] not in ("integer", "decimal"):
            raise NonNumeric(f"{key}: column is not numeric")
    if op == "top_k":
        if k < 0:
            raise PluginError(f"top_k needs k >= 0, got {k}")
        # ties keep row order, as nlargest over the rows themselves would
        return t.take(heapq.nlargest(k, range(t.row_count), key=t.data[col].__getitem__))

    column = _numeric_values(store, key) if col is None else t.data[col]
    if not column:
        raise NonNumeric(f"{key}: empty series")
    # one pass over the cells as floats, with no list of them
    try:
        if op == "mean":
            return sum(map(float, column)) / len(column)
        return (max if op == "max" else min)(map(float, column))
    except OverflowError:
        raise NonNumeric(f"{key}: a value is too large for a float") from None


# -- fixture-backed mock plugins ---------------------------------------------

def _objects(value, keys: tuple[str, ...]) -> bool:
    """True when `value` is a list of objects that each hold every key in `keys`."""
    return isinstance(value, list) and all(
        isinstance(x, dict) and all(k in x for k in keys) for x in value
    )


def _texts(path: Path, obj: dict, keys: tuple[str, ...]) -> tuple[str, ...]:
    """obj's texts at `keys`, "" for one absent; PluginFailure naming `path` otherwise."""
    values = tuple(obj.get(k, "") for k in keys)
    for k, v in zip(keys, values):
        if not isinstance(v, str):
            raise PluginFailure(f"{path}: {k!r} is a {type(v).__name__}, not text")
    return values


class FixtureSet:
    """Read-only view of fixtures/<tsg_id>/ for the mock plugins.

    Each fixture file is read with one open on every call. A missing query
    index, metric series or devops.json raises PluginFailure saying which is
    missing; any other file that cannot be read (missing, a directory,
    unreadable), or that is not UTF-8, not JSON, not a CSV table or not of
    the shape its plugin reads, raises PluginFailure naming its path. In
    devops.json a deployment's "id", "service" and "ring" and a code
    change's "change_id", "file", "author" and "summary" are text.

    The query index, the metric series and devops.json are decoded once per
    file text: a call whose file holds the text last decoded from that path
    reuses what that decoding gave, and any other text is decoded again. A
    decode that fails is not kept. Query result tables are decoded on every
    call, since each goes into run memory whole. A series leaves as a window
    copy, and devops.json as tuples of its texts and times.
    """

    def __init__(self, fixtures_dir: str | Path, tsg_id: str):
        self.root = Path(fixtures_dir) / tsg_id
        # path -> (text, what decoding it gave). No lock: two threads that miss
        # on one path at once each decode the same text and store equal values.
        self._decoded: dict[Path, tuple[str, object]] = {}

    @staticmethod
    def _read(path: Path, missing: str | None) -> str:
        """The file's text; PluginFailure(`missing`) when it does not exist and
        `missing` is given, PluginFailure naming the path for any other OSError."""
        try:
            return path.read_text(encoding="utf-8")
        except OSError as exc:
            if missing is not None and isinstance(exc, FileNotFoundError):
                raise PluginFailure(missing) from None
            raise PluginFailure(f"{path}: cannot read fixture file: {exc.strerror or exc}") from exc

    def _read_decoded(self, path: Path, missing: str | None, decode):
        """decode(text) of the file's text, or what it gave for that same text
        before."""
        text = self._read(path, missing)
        hit = self._decoded.get(path)
        if hit is not None and hit[0] == text:
            return hit[1]
        value = decode(text)
        self._decoded[path] = (text, value)
        return value

    def _json(self, path: Path, missing: str):
        try:
            return self._read_decoded(path, missing, json.loads)
        except JSON_DECODE_ERRORS as exc:  # bad JSON or bad UTF-8
            raise PluginFailure(f"{path}: not a UTF-8 JSON file: {exc}") from exc

    def _table(self, path: Path, missing: str | None = None, once: bool = False) -> Table:
        """The CSV table in the file; with `once`, decoded once per file text."""
        try:
            if once:
                return self._read_decoded(path, missing, table_from_csv)
            return table_from_csv(self._read(path, missing))
        except (ValueError, MemoryStoreError) as exc:  # bad UTF-8 or a bad table
            raise PluginFailure(f"{path}: not a CSV table: {exc}") from exc

    def query_table(self, query: str, template: str | None, bindings: dict | None) -> Table:
        index_path = self.root / "queries" / "index.json"
        entries = self._json(index_path, f"no query fixtures at {index_path}")
        if not _objects(entries, ("file",)) or not all(isinstance(e["file"], str) for e in entries):
            raise PluginFailure(f'{index_path}: expected a list of {{"file": ..., ...}} objects')
        chosen = None
        for entry in entries:
            if entry.get("query") == query:
                chosen = entry
                break
        if chosen is None and template is not None:
            for entry in entries:
                if entry.get("template") == template and entry.get("bindings", {}) == (
                    bindings or {}
                ):
                    chosen = entry
                    break
        if chosen is None:
            raise PluginFailure("no fixture matches the query")
        return self._table(self.root / "queries" / chosen["file"])

    def metric_series(self, metric: str) -> Table:
        path = self.root / "metrics" / f"{metric}.csv"
        table = self._table(path, f"no fixture series for metric {metric!r}", once=True)
        if "timestamp" not in table.types:
            raise PluginFailure(f"{path}: a series needs a timestamp column")
        return table

    def _devops(self) -> tuple[Path, dict]:
        path = self.root / "devops.json"
        data = self._json(path, f"no devops fixture at {path}")
        if not isinstance(data, dict):
            raise PluginFailure(f"{path}: expected a JSON object")
        return path, data

    def deployments(self) -> list[tuple]:
        """(id, service, ring, started, finished) per deployment; finished is
        None for one still running, whose "finished" is absent or null. A time
        without an offset is read as UTC, like a plugin argument."""
        path, data = self._devops()
        deployments = data.get("deployments", [])
        if not _objects(deployments, ("id", "started")):
            raise PluginFailure(f'{path}: "deployments" must list {{"id", "started", ...}} objects')
        try:
            return [
                (
                    *_texts(path, d, ("id", "service", "ring")),
                    as_utc(parse_timestamp(d["started"])),
                    None if d.get("finished") is None else as_utc(parse_timestamp(d["finished"])),
                )
                for d in deployments
            ]
        except (ValueError, AttributeError) as exc:  # AttributeError: not a string
            raise PluginFailure(f"{path}: a deployment time is not a timestamp: {exc}") from exc

    def code_changes(self, deployment_id: str) -> list[tuple[str, ...]]:
        """(change_id, file, author, summary) per change; an absent field is ""."""
        path, data = self._devops()
        changes = data.get("code_changes", {})
        found = changes.get(deployment_id, []) if isinstance(changes, dict) else None
        if not _objects(found, ("change_id",)):
            raise PluginFailure(
                f'{path}: "code_changes" must map ids to lists of {{"change_id", ...}} objects'
            )
        return [_texts(path, c, ("change_id", "file", "author", "summary")) for c in found]


def build_mock_registry(fixtures_dir: str | Path, tsg_id: str) -> PluginRegistry:
    """Registry with the full mock suite bound to one fixture set."""
    fixtures = FixtureSet(fixtures_dir, tsg_id)
    registry = PluginRegistry()

    def log_query(args, store):
        table = fixtures.query_table(
            args["query"], args.get("template"), args.get("bindings")
        )
        return _table_result(store, "plugin.log_query", table, "rows")

    registry.register(
        PluginDescriptor(
            "log_query",
            (
                ParamSpec("query", "text"),
                ParamSpec("template", "text", required=False),
                ParamSpec("bindings", "record", required=False),
            ),
            result="memory_ref",
        ),
        log_query,
    )

    def metric_fetch(args, store):
        table = fixtures.metric_series(args["metric"])
        out = _time_window(table, _as_datetime(args["from"]), _as_datetime(args["to"]))
        return _table_result(store, "plugin.metric_fetch", out, "points")

    registry.register(
        PluginDescriptor(
            "metric_fetch",
            (
                ParamSpec("metric", "text"),
                ParamSpec("from", "timestamp"),
                ParamSpec("to", "timestamp"),
            ),
            result="memory_ref",
        ),
        metric_fetch,
    )

    def devops_deployments(args, store):
        lo = _as_datetime(args["from"])
        hi = _as_datetime(args["to"])
        rows = [
            [dep_id, service, ring, started]
            for dep_id, service, ring, started, finished in fixtures.deployments()
            if started <= hi and (finished is None or finished >= lo)
        ]
        table = Table(
            ["id", "service", "ring", "started"],
            ["text", "text", "text", "timestamp"],
            rows,
        )
        return _table_result(store, "plugin.devops_deployments", table, "deployments")

    registry.register(
        PluginDescriptor(
            "devops_deployments",
            (ParamSpec("from", "timestamp"), ParamSpec("to", "timestamp")),
            result="memory_ref",
        ),
        devops_deployments,
    )

    def devops_code_changes(args, store):
        table = Table(
            ["change_id", "file", "author", "summary"],
            ["text", "text", "text", "text"],
            fixtures.code_changes(args["deployment_id"]),
        )
        return _table_result(store, "plugin.devops_code_changes", table, "changes")

    registry.register(
        PluginDescriptor(
            "devops_code_changes",
            (ParamSpec("deployment_id", "text"),),
            result="memory_ref",
        ),
        devops_code_changes,
    )

    def pearson_plugin(args, store):
        r = analysis_pearson(store, args["key_x"], args["key_y"])
        ref = store.ref(f"pearson:{args['key_x']}:{args['key_y']}")
        return PluginResult(status="ok", inline=r, refs=[ref], message=f"r={r!r}")

    registry.register(
        PluginDescriptor(
            "analysis.pearson",
            (ParamSpec("key_x", "text"), ParamSpec("key_y", "text")),
            result="inline",
        ),
        pearson_plugin,
    )

    def aggregate_plugin(args, store):
        result = analysis_aggregate(store, args["key"], args["op"], args.get("k", 3))
        if isinstance(result, Table):
            return _table_result(store, f"aggregate.{args['op']}", result, "rows")
        return PluginResult(status="ok", inline=result, message=str(result))

    registry.register(
        PluginDescriptor(
            "analysis.aggregate",
            (
                ParamSpec("key", "text"),
                ParamSpec("op", "text"),
                ParamSpec("k", "integer", required=False),
            ),
            result="inline",
        ),
        aggregate_plugin,
    )

    return registry
