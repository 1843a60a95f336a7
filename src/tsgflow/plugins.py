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
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from .memory import KeyNotFound, MemoryRef, Table, parse_timestamp, table_from_csv


class PluginError(Exception):
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
    kind: str  # text | integer | decimal | timestamp | boolean | record | any
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


_KIND_CHECKS = {
    "text": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "decimal": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "timestamp": lambda v: isinstance(v, str) or hasattr(v, "isoformat"),
    "record": lambda v: isinstance(v, dict),
    "any": lambda v: True,
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

    def descriptors(self) -> list[PluginDescriptor]:
        return [self._plugins[n][0] for n in self.names()]

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


def _as_datetime(v):
    if isinstance(v, str):
        return parse_timestamp(v)
    return v


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
    dx = [x - mean_x for x in xs]
    dy = [y - mean_y for y in ys]
    sxx = sum(d * d for d in dx)
    syy = sum(d * d for d in dy)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("a series has zero variance")
    r = sum(a * b for a, b in zip(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _numeric_series(store, key: str) -> list[float]:
    """Numeric list, or the single numeric column of a table, under `key`."""
    value = store.get(key)
    if value.kind == "list":
        out = []
        for x in value.payload:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise NonNumeric(f"{key}: list holds a non-numeric value")
            out.append(float(x))
        return out
    if value.kind == "table":
        t: Table = value.payload
        numeric = [i for i, ty in enumerate(t.types) if ty in ("integer", "decimal")]
        if len(numeric) != 1:
            raise NonNumeric(
                f"{key}: expected exactly one numeric column, found {len(numeric)}"
            )
        return list(map(float, map(itemgetter(numeric[0]), t.rows)))
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


def analysis_aggregate(store, key: str, op: str, k: int = 3):
    """Exact aggregate over a stored series; top_k returns a small table."""
    value, col = _column_series(store, key)

    if op == "count":
        if value.kind == "table":
            return value.payload.row_count
        if value.kind == "list":
            return len(value.payload)
        raise NonNumeric(f"{key}: cannot count a {value.kind}")

    if op == "top_k":
        if value.kind != "table" or col is None:
            raise NonNumeric("top_k needs a table column reference (key#column)")
        t: Table = value.payload
        if t.types[col] not in ("integer", "decimal"):
            raise NonNumeric(f"{key}: column is not numeric")
        if k < 0:
            raise PluginError(f"top_k needs k >= 0, got {k}")
        top = heapq.nlargest(k, t.rows, key=itemgetter(col))
        return Table(list(t.columns), list(t.types), [list(r) for r in top])

    if op not in ("mean", "max", "min"):
        raise PluginError(f"unknown aggregate op {op!r}")

    if value.kind == "table":
        if col is None:
            series = _numeric_series(store, key)
        else:
            t = value.payload
            if t.types[col] not in ("integer", "decimal"):
                raise NonNumeric(f"{key}: column is not numeric")
            series = list(map(float, map(itemgetter(col), t.rows)))
    else:
        series = _numeric_series(store, key)
    if not series:
        raise NonNumeric(f"{key}: empty series")
    if op == "mean":
        return sum(series) / len(series)
    return max(series) if op == "max" else min(series)


# -- fixture-backed mock plugins ---------------------------------------------

class FixtureSet:
    """Read-only view of fixtures/<tsg_id>/ for the mock plugins."""

    def __init__(self, fixtures_dir: str | Path, tsg_id: str):
        self.root = Path(fixtures_dir) / tsg_id

    def query_table(self, query: str, template: str | None, bindings: dict | None) -> Table:
        index_path = self.root / "queries" / "index.json"
        if not index_path.exists():
            raise PluginFailure(f"no query fixtures at {index_path}")
        entries = json.loads(index_path.read_text(encoding="utf-8"))
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
        return table_from_csv((self.root / "queries" / chosen["file"]).read_text(encoding="utf-8"))

    def metric_series(self, metric: str) -> Table:
        path = self.root / "metrics" / f"{metric}.csv"
        if not path.exists():
            raise PluginFailure(f"no fixture series for metric {metric!r}")
        return table_from_csv(path.read_text(encoding="utf-8"))

    def devops(self) -> dict:
        path = self.root / "devops.json"
        if not path.exists():
            raise PluginFailure(f"no devops fixture at {path}")
        return json.loads(path.read_text(encoding="utf-8"))


def build_mock_registry(fixtures_dir: str | Path, tsg_id: str) -> PluginRegistry:
    """Registry with the full mock suite bound to one fixture set."""
    fixtures = FixtureSet(fixtures_dir, tsg_id)
    registry = PluginRegistry()

    def log_query(args, store):
        table = fixtures.query_table(
            args["query"], args.get("template"), args.get("bindings")
        )
        ref = store.put(_next_key(store, "plugin.log_query"), table)
        return PluginResult(
            status="ok", refs=[ref], message=f"{table.row_count} rows"
        )

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
        lo = _as_datetime(args["from"])
        hi = _as_datetime(args["to"])
        ts_col = table.types.index("timestamp")
        rows = [row for row in table.rows if lo <= row[ts_col] <= hi]
        out = Table(list(table.columns), list(table.types), rows)
        ref = store.put(_next_key(store, "plugin.metric_fetch"), out)
        return PluginResult(status="ok", refs=[ref], message=f"{out.row_count} points")

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
        rows = []
        for dep in fixtures.devops().get("deployments", []):
            started = parse_timestamp(dep["started"])
            finished = parse_timestamp(dep["finished"]) if dep.get("finished") else None
            if started <= hi and (finished is None or finished >= lo):
                rows.append([dep["id"], dep.get("service", ""), dep.get("ring", ""), started])
        table = Table(
            ["id", "service", "ring", "started"],
            ["text", "text", "text", "timestamp"],
            rows,
        )
        ref = store.put(_next_key(store, "plugin.devops_deployments"), table)
        return PluginResult(status="ok", refs=[ref], message=f"{table.row_count} deployments")

    registry.register(
        PluginDescriptor(
            "devops_deployments",
            (ParamSpec("from", "timestamp"), ParamSpec("to", "timestamp")),
            result="memory_ref",
        ),
        devops_deployments,
    )

    def devops_code_changes(args, store):
        changes = fixtures.devops().get("code_changes", {}).get(args["deployment_id"], [])
        rows = [
            [c["change_id"], c.get("file", ""), c.get("author", ""), c.get("summary", "")]
            for c in changes
        ]
        table = Table(
            ["change_id", "file", "author", "summary"],
            ["text", "text", "text", "text"],
            rows,
        )
        ref = store.put(_next_key(store, "plugin.devops_code_changes"), table)
        return PluginResult(status="ok", refs=[ref], message=f"{table.row_count} changes")

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
            ref = store.put(_next_key(store, f"aggregate.{args['op']}"), result)
            return PluginResult(status="ok", refs=[ref], message=f"{result.row_count} rows")
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
