from __future__ import annotations

import statistics
from datetime import datetime, timezone
from random import Random

import pytest

from conftest import FIG4_DIR
from tsgflow.memory import MemoryStore, RunScope, Table
from tsgflow.plugins import (
    ArgSchemaViolation,
    LengthMismatch,
    NonNumeric,
    ParamSpec,
    PluginDescriptor,
    PluginError,
    PluginFailure,
    PluginRegistry,
    PluginResult,
    UnknownPlugin,
    ZeroVariance,
    analysis_aggregate,
    analysis_pearson,
    build_mock_registry,
    pearson_correlation,
)
from tsgflow.plugins import _next_key
from tsgflow.queryprep import prepare_query

FIXTURES = FIG4_DIR / "fixtures"


@pytest.fixture()
def registry():
    return build_mock_registry(FIXTURES, "availability-drop")


@pytest.fixture()
def store():
    return MemoryStore()


def _prepared_top_exceptions(bundle):
    tmpl = next(t for t in bundle.templates if t.name == "top_exceptions")
    return prepare_query(
        tmpl,
        {
            "service": "web-frontend",
            "ring": "prod",
            "start_time": "2026-03-01T00:00:00Z",
            "end_time": "2026-03-01T09:00:00Z",
        },
    )


def test_log_query_by_template_and_bindings(registry, store, fig4_bundle):
    prepared = _prepared_top_exceptions(fig4_bundle)
    result = registry.invoke(
        "log_query",
        {"query": prepared.text, "template": "top_exceptions", "bindings": prepared.bindings},
        store,
    )
    assert result.status == "ok"
    assert result.inline is None  # tabular data only ever travels by reference
    assert len(result.refs) == 1
    ref = result.refs[0]
    assert ref.key == "plugin.log_query.1"
    table = store.get(ref.key).payload
    assert table.rows[0][0] == "DbConnectionTimeout"


def test_log_query_unmatched_is_failure(registry, store):
    with pytest.raises(PluginFailure):
        registry.invoke("log_query", {"query": "no such query"}, store)


def test_unknown_plugin(registry, store):
    with pytest.raises(UnknownPlugin):
        registry.invoke("nope", {}, store)


def test_arg_schema_violations(registry, store):
    with pytest.raises(ArgSchemaViolation):
        registry.invoke("log_query", {}, store)  # missing required
    with pytest.raises(ArgSchemaViolation):
        registry.invoke("log_query", {"query": "x", "surprise": 1}, store)
    with pytest.raises(ArgSchemaViolation):
        registry.invoke("metric_fetch", {"metric": 5, "from": "x", "to": "y"}, store)


def test_metric_fetch_window(registry, store):
    result = registry.invoke(
        "metric_fetch",
        {"metric": "availability_web",
         "from": "2026-03-01T02:00:00Z", "to": "2026-03-01T05:00:00Z"},
        store,
    )
    table = store.get(result.refs[0].key).payload
    assert table.column_count == 2
    assert table.row_count == 4
    assert table.rows[0][0] == datetime(2026, 3, 1, 2, tzinfo=timezone.utc)


def test_devops_plugins(registry, store):
    result = registry.invoke(
        "devops_deployments",
        {"from": "2026-03-01T00:00:00Z", "to": "2026-03-01T09:00:00Z"},
        store,
    )
    deployments = store.get(result.refs[0].key).payload
    assert [row[0] for row in deployments.rows] == ["dep-2026-03-01-a"]

    result = registry.invoke("devops_code_changes", {"deployment_id": "dep-2026-03-01-a"}, store)
    changes = store.get(result.refs[0].key).payload
    assert {row[1] for row in changes.rows} == {"src/frontend/render.ts", "src/frontend/cache.ts"}


def test_pearson_trivial_cases(store):
    store.put("x", [1, 2, 3])
    store.put("y", [2, 4, 6])
    store.put("z", [6, 4, 2])
    assert analysis_pearson(store, "x", "y") == 1.0
    assert analysis_pearson(store, "x", "z") == -1.0
    assert store.get("pearson:x:y").payload == 1.0


def test_pearson_derived_example(store):
    store.put("x", [1, 2, 3, 4])
    store.put("y", [1, 3, 2, 4])
    assert analysis_pearson(store, "x", "y") == 0.8


def test_pearson_errors(store):
    store.put("x", [1, 2, 3])
    store.put("short", [1, 2])
    store.put("flat", [5, 5, 5])
    with pytest.raises(LengthMismatch):
        analysis_pearson(store, "x", "short")
    with pytest.raises(ZeroVariance):
        analysis_pearson(store, "x", "flat")
    with pytest.raises(Exception):
        analysis_pearson(store, "x", "missing")


def test_pearson_accepts_single_numeric_column_tables(store):
    store.put("a", Table(["t", "v"], ["timestamp", "decimal"],
                         [[datetime(2026, 3, 1, h, tzinfo=timezone.utc), float(h)] for h in range(5)]))
    store.put("b", [0.0, 1.0, 2.0, 3.0, 4.0])
    assert analysis_pearson(store, "a", "b") == 1.0


def test_pearson_matches_direct_definition_oracle():
    rng = Random(42)
    for _ in range(100):
        n = rng.randint(2, 100)
        xs = [rng.uniform(-50, 50) for _ in range(n)]
        ys = [rng.uniform(-50, 50) for _ in range(n)]
        if statistics.pstdev(xs) == 0 or statistics.pstdev(ys) == 0:
            continue
        want = statistics.covariance(xs, ys) / (statistics.stdev(xs) * statistics.stdev(ys))
        assert abs(pearson_correlation(xs, ys) - want) <= 1e-9


def test_pearson_symmetry_and_affinity():
    rng = Random(7)
    xs = [rng.uniform(0, 10) for _ in range(50)]
    ys = [rng.uniform(0, 10) for _ in range(50)]
    assert abs(pearson_correlation(xs, ys) - pearson_correlation(ys, xs)) <= 1e-12
    scaled = [3.5 * x + 2.0 for x in xs]
    assert abs(pearson_correlation(xs, scaled) - 1.0) <= 1e-9


def test_aggregate_ops(store):
    store.put("nums", [2, 4])
    assert analysis_aggregate(store, "nums", "mean") == 3
    assert analysis_aggregate(store, "nums", "count") == 2
    assert analysis_aggregate(store, "nums", "max") == 4
    assert analysis_aggregate(store, "nums", "min") == 2

    from test_memory import big_table

    store.put("exceptions", big_table())
    assert analysis_aggregate(store, "exceptions", "count") == 394


def test_aggregate_top_k(store):
    table = Table(
        ["kind", "count"],
        ["text", "integer"],
        [["a", 3], ["b", 41], ["c", 7], ["d", 19], ["e", 2]],
    )
    store.put("exc", table)
    top = analysis_aggregate(store, "exc#count", "top_k", k=3)
    hand_sorted = sorted(table.rows, key=lambda r: r[1], reverse=True)[:3]
    assert top.rows == hand_sorted

    # tied counts keep the order in which their rows were stored
    store.put("tied", Table(["kind", "count"], ["text", "integer"],
                            [["a", 5], ["b", 7], ["c", 5], ["d", 7], ["e", 3], ["f", 5]]))
    top = analysis_aggregate(store, "tied#count", "top_k", k=4)
    assert top.rows == [["b", 7], ["d", 7], ["a", 5], ["c", 5]]
    assert analysis_aggregate(store, "tied#count", "top_k", k=0).rows == []
    with pytest.raises(PluginError):
        analysis_aggregate(store, "tied#count", "top_k", k=-1)


def test_aggregate_errors(store):
    store.put("words", ["a", "b"])
    with pytest.raises(NonNumeric):
        analysis_aggregate(store, "words", "mean")
    with pytest.raises(PluginError):
        analysis_aggregate(store, "words", "median")


def test_aggregate_plugin_returns_table_as_ref(registry, store):
    store.put("exc", Table(["kind", "count"], ["text", "integer"], [["a", 3], ["b", 41]]))
    result = registry.invoke("analysis.aggregate", {"key": "exc#count", "op": "top_k", "k": 1}, store)
    assert result.inline is None
    assert len(result.refs) == 1
    assert store.get(result.refs[0].key).payload.rows == [["b", 41]]


def test_results_never_inline_tables(registry, store, fig4_bundle):
    """Every mock plugin honors the by-reference contract for tabular data."""
    prepared = _prepared_top_exceptions(fig4_bundle)
    invocations = [
        ("log_query", {"query": prepared.text, "template": "top_exceptions",
                       "bindings": prepared.bindings}),
        ("metric_fetch", {"metric": "availability_web",
                          "from": "2026-03-01T00:00:00Z", "to": "2026-03-01T09:00:00Z"}),
        ("devops_deployments", {"from": "2026-03-01T00:00:00Z", "to": "2026-03-01T09:00:00Z"}),
        ("devops_code_changes", {"deployment_id": "dep-2026-03-01-a"}),
    ]
    for name, args in invocations:
        result = registry.invoke(name, args, store)
        assert result.status == "ok"
        assert not isinstance(result.inline, Table)
        assert result.refs, name


def test_registry_rejects_duplicate_and_bad_param_order():
    registry = PluginRegistry()
    desc = PluginDescriptor("p", (ParamSpec("a", "text"),), result="inline")
    registry.register(desc, lambda args, store: PluginResult(status="ok"))
    with pytest.raises(PluginError):
        registry.register(desc, lambda args, store: PluginResult(status="ok"))
    bad = PluginDescriptor(
        "q",
        (ParamSpec("opt", "text", required=False), ParamSpec("req", "text")),
        result="inline",
    )
    with pytest.raises(PluginError):
        registry.register(bad, lambda args, store: PluginResult(status="ok"))


def test_mock_determinism(registry, store, fig4_bundle):
    prepared = _prepared_top_exceptions(fig4_bundle)
    args = {"query": prepared.text, "template": "top_exceptions", "bindings": prepared.bindings}
    first = registry.invoke("log_query", args, store)
    second = registry.invoke("log_query", args, store)
    assert store.get(first.refs[0].key) == store.get(second.refs[0].key)
    assert second.refs[0].key == "plugin.log_query.2"


def test_log_query_394_row_fixture(tmp_path, store):
    """A query mapped to a large fixture comes back as one table ref whose
    context summary stays within budget."""
    import csv
    import io
    import json as json_mod

    root = tmp_path / "big-tsg" / "queries"
    root.mkdir(parents=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ExceptionType", "Count", "Service", "FirstSeen", "Message", "StackId"])
    writer.writerow(["text", "integer", "text", "timestamp", "text", "text"])
    for i in range(394):
        writer.writerow([
            f"ExceptionKind_{i % 13}_with_namespace_padding", i,
            f"svc-{i % 7}.westeurope.cloudapp.example",
            f"2026-03-01T{i % 24:02d}:{i % 60:02d}:00Z",
            f"operation {i} failed with a fairly long diagnostic message body",
            f"stack-{i:06d}",
        ])
    (root / "exceptions.csv").write_text(buf.getvalue(), encoding="utf-8")
    query = "ServiceLogs | summarize Count = count() by ExceptionType"
    (root / "index.json").write_text(
        json_mod.dumps([{"query": query, "file": "exceptions.csv"}]), encoding="utf-8")

    registry = build_mock_registry(tmp_path, "big-tsg")
    result = registry.invoke("log_query", {"query": query}, store)
    assert result.status == "ok"
    assert len(result.refs) == 1
    ref = result.refs[0]
    stored = store.get(ref.key)
    assert stored.payload.row_count == 394
    assert stored.byte_size >= 25_000
    assert ref.summary.rendered_bytes <= 2048
    assert len(ref.summary.sample) == 3


def test_store_single_key_atomicity():
    import threading

    store = MemoryStore()
    errors: list[Exception] = []

    def writer(worker: int) -> None:
        try:
            for i in range(200):
                store.put("shared", [worker, i])
                store.put(f"own-{worker}", i)
                value = store.get("shared")
                assert value.kind == "list" and len(value.payload) == 2
        except Exception as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    for w in range(4):
        assert store.get(f"own-{w}").payload == 199


def test_next_key_numbers_contiguously_from_one():
    for store in (MemoryStore(), RunScope(MemoryStore(), "run-1")):
        keys = []
        for i in range(6):
            keys.append(_next_key(store, "plugin.log_query"))
            store.put(keys[-1], i)
        assert keys == [f"plugin.log_query.{n}" for n in range(1, 7)]


def test_next_key_never_overwrites():
    store = MemoryStore()
    store.put("plugin.log_query.4", "precious")
    keys = []
    for i in range(4):
        key = _next_key(store, "plugin.log_query")
        assert not store.contains(key)
        store.put(key, i)
        keys.append(key)
    assert len(set(keys)) == 4
    assert store.get("plugin.log_query.4").payload == "precious"


class _CountingStore(MemoryStore):
    """Counts keys looked at: one per contains(), one per key keys() returns."""

    def __init__(self):
        super().__init__()
        self.looked_at = 0

    def contains(self, key):
        self.looked_at += 1
        return super().contains(key)

    def keys(self):
        found = super().keys()
        self.looked_at += len(found)
        return found


def test_next_key_lookups_grow_logarithmically():
    store = _CountingStore()
    bound = 2 * (2000).bit_length() + 1  # doubling probes, then a bisection
    for i in range(2000):
        store.looked_at = 0
        store.put(_next_key(store, "plugin.metric_fetch"), i)
        assert store.looked_at <= bound, i
    assert store.contains("plugin.metric_fetch.2000")
