from __future__ import annotations

import json
import shutil
import statistics
import sys
import threading
from datetime import date, datetime, timezone
from pathlib import Path
from random import Random

import pytest

from conftest import FIG4_DIR
from tsgflow import memory, plugins
from tsgflow.memory import KeyNotFound, MemoryStore, RunScope, Table, table_from_csv, table_to_csv
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


def test_aggregate_names_a_count_of_a_record_and_a_top_k_without_a_column(store):
    store.put("record", {"a": 1})
    with pytest.raises(NonNumeric, match=r"^record: cannot count a record$"):
        analysis_aggregate(store, "record", "count")
    store.put("table", Table(["n"], ["integer"], [[1]]))
    with pytest.raises(NonNumeric, match=r"^top_k needs a table column reference \(key#column\)$"):
        analysis_aggregate(store, "table", "top_k")


@pytest.mark.parametrize("op", ["mean", "max", "min"])
def test_aggregate_of_a_text_column_is_non_numeric(store, op):
    store.put("exc", Table(["kind", "count"], ["text", "integer"], [["a", 3], ["b", 41]]))
    with pytest.raises(NonNumeric) as info:
        analysis_aggregate(store, "exc#kind", op)
    assert str(info.value) == "exc#kind: column is not numeric"


@pytest.mark.parametrize(("key", "op", "error", "message"), [
    ("exc#kind", "top_k", NonNumeric, "exc#kind: column is not numeric"),
    ("exc#kind", "mean", NonNumeric, "exc#kind: column is not numeric"),
    ("exc", "top_k", NonNumeric, "top_k needs a table column reference (key#column)"),
    ("words", "top_k", NonNumeric, "top_k needs a table column reference (key#column)"),
    ("exc#kind", "median", PluginError, "unknown aggregate op 'median'"),
    ("words", "median", PluginError, "unknown aggregate op 'median'"),
    ("missing#kind", "median", KeyNotFound, "no value stored under 'missing'"),
    ("exc#count", "top_k", PluginError, "top_k needs k >= 0, got -1"),
])
def test_aggregate_raises_the_first_of_its_faults(store, key, op, error, message):
    """With k = -1 too, each call has more than one fault; the key comes
    first, then the op, then the column reference, then its type, then k."""
    store.put("exc", Table(["kind", "count"], ["text", "integer"], [["a", 3], ["b", 41]]))
    store.put("words", ["a", "b"])
    with pytest.raises(error) as info:
        analysis_aggregate(store, key, op, k=-1)
    assert (type(info.value), str(info.value)) == (error, message)


def test_integer_too_large_for_a_float_is_non_numeric(store):
    store.put("big", Table(["n"], ["integer"], [[10**400], [1]]))
    store.put("bigs", [10**400, 1])
    for key in ("big#n", "big", "bigs"):
        with pytest.raises(NonNumeric, match="too large for a float"):
            analysis_aggregate(store, key, "mean")


def test_aggregate_plugin_returns_table_as_ref(registry, store):
    store.put("exc", Table(["kind", "count"], ["text", "integer"], [["a", 3], ["b", 41]]))
    result = registry.invoke("analysis.aggregate", {"key": "exc#count", "op": "top_k", "k": 1}, store)
    assert result.inline is None
    assert len(result.refs) == 1
    assert store.get(result.refs[0].key).payload.rows == [["b", 41]]


def test_decoded_tables_and_their_derivatives_are_put_without_a_cell_scan(
        monkeypatch, registry, store, fig4_bundle):
    scanned = []
    monkeypatch.setattr(memory, "_check_cells", scanned.append)
    logs = registry.invoke("log_query", _top_exceptions_args(fig4_bundle), store).refs[0]
    window = registry.invoke("metric_fetch", {"metric": "availability_web", **WINDOW},
                             store).refs[0]
    top = registry.invoke("analysis.aggregate", {"key": logs.key + "#Count", "op": "top_k", "k": 2},
                          store).refs[0]
    assert scanned == []
    assert store.get(window.key).payload.row_count > 0
    assert store.get(top.key).payload.row_count == 2
    deployments = registry.invoke("devops_deployments", WINDOW, store).refs[0]
    assert scanned == [store.get(deployments.key).payload]  # built by hand, so scanned


def test_top_k_of_a_hand_built_table_is_scanned_too(monkeypatch, registry, store):
    scanned = []
    monkeypatch.setattr(memory, "_check_cells", scanned.append)
    store.put("exc", Table(["kind", "count"], ["text", "integer"], [["a", 3], ["b", 41]]))
    top = registry.invoke("analysis.aggregate", {"key": "exc#count", "op": "top_k", "k": 1}, store)
    assert scanned == [store.get("exc").payload, store.get(top.refs[0].key).payload]


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


@pytest.mark.parametrize("kind", ["list", "any", "", "Text"])
def test_registry_refuses_a_parameter_kind_it_cannot_check(kind):
    """A kind with no check is refused when the plugin is registered, naming
    the plugin, the parameter and the kind, not by a KeyError on invoke."""
    registry = PluginRegistry()
    desc = PluginDescriptor("p", (ParamSpec("a", "text"), ParamSpec("x", kind)), result="inline")
    message = rf"^plugin 'p': parameter 'x' has unknown kind {kind!r}$"
    with pytest.raises(PluginError, match=message):
        registry.register(desc, lambda args, store: PluginResult(status="ok"))
    assert registry.names() == []


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


FIG4_TSG = "availability-drop"
WINDOW = {"from": "2026-03-01T00:00:00Z", "to": "2026-03-01T09:00:00Z"}


def _fixture_copy(tmp_path, relative: str, content: str):
    """A copy of the fig4 fixtures with `relative` rewritten, its registry and the file's path."""
    shutil.copytree(FIXTURES / FIG4_TSG, tmp_path / FIG4_TSG)
    path = tmp_path / FIG4_TSG / relative
    path.write_text(content, encoding="utf-8")
    return build_mock_registry(tmp_path, FIG4_TSG), path


def _top_exceptions_args(bundle):
    prepared = _prepared_top_exceptions(bundle)
    return {"query": prepared.text, "template": "top_exceptions", "bindings": prepared.bindings}


def _fails_naming(registry, name, args, path):
    with pytest.raises(PluginFailure) as info:
        registry.invoke(name, args, MemoryStore())
    assert str(path) in str(info.value)
    return str(info.value)


def test_log_query_reads_its_fixture_on_every_call(tmp_path, store, fig4_bundle):
    head = "ExceptionType,Count\ntext,integer\n"
    registry, path = _fixture_copy(tmp_path, "queries/top_exceptions.csv", head + "A,1\n")
    args = _top_exceptions_args(fig4_bundle)
    first = registry.invoke("log_query", args, store).refs[0]
    path.write_text(head + "B,2\nC,3\n", encoding="utf-8")
    second = registry.invoke("log_query", args, store).refs[0]
    assert store.get(first.key).payload.rows == [["A", 1]]
    assert store.get(second.key).payload.rows == [["B", 2], ["C", 3]]


SERIES_HEAD = "ts,value\ntimestamp,decimal\n"
WEB_SERIES = "metrics/availability_web.csv"


def _rows(registry, name, args):
    store = MemoryStore()
    return store.get(registry.invoke(name, args, store).refs[0].key).payload.rows


def _series_rows(registry):
    return _rows(registry, "metric_fetch", {"metric": "availability_web", **WINDOW})


def test_a_series_is_decoded_once_per_text_and_a_result_table_per_call(monkeypatch, fig4_bundle):
    """An unchanged series is decoded once; a query result table on every call."""
    decoded = []

    def counting(text):
        decoded.append(text.splitlines()[0])
        return table_from_csv(text)

    monkeypatch.setattr(plugins, "table_from_csv", counting)
    registry = build_mock_registry(FIXTURES, FIG4_TSG)
    for _ in range(3):
        _series_rows(registry)
        registry.invoke("log_query", _top_exceptions_args(fig4_bundle), MemoryStore())
    assert decoded == ["ts,value", "ExceptionType,Count"] + ["ExceptionType,Count"] * 2


def test_a_rewritten_series_is_decoded_again(tmp_path):
    registry, path = _fixture_copy(tmp_path, WEB_SERIES, SERIES_HEAD + "2026-03-01T01:00:00Z,1\n")
    assert _series_rows(registry) == [[datetime(2026, 3, 1, 1, tzinfo=timezone.utc), 1.0]]
    assert _series_rows(registry) == [[datetime(2026, 3, 1, 1, tzinfo=timezone.utc), 1.0]]
    path.write_text(SERIES_HEAD + "2026-03-01T02:00:00Z,2\n2026-03-01T03:00:00Z,3\n",
                    encoding="utf-8")
    assert _series_rows(registry) == [[datetime(2026, 3, 1, 2, tzinfo=timezone.utc), 2.0],
                                      [datetime(2026, 3, 1, 3, tzinfo=timezone.utc), 3.0]]


def test_a_rewritten_devops_file_is_decoded_again(tmp_path):
    def devops(dep_id, change_id):
        return json.dumps({"deployments": [{"id": dep_id, "started": "2026-03-01T01:00:00Z"}],
                           "code_changes": {dep_id: [{"change_id": change_id}]}})

    registry, path = _fixture_copy(tmp_path, "devops.json", devops("d1", "c1"))
    for _ in range(2):
        assert [row[0] for row in _rows(registry, "devops_deployments", WINDOW)] == ["d1"]
        assert _rows(registry, "devops_code_changes", {"deployment_id": "d1"}) == [["c1", "", "", ""]]
    path.write_text(devops("d2", "c2"), encoding="utf-8")
    assert [row[0] for row in _rows(registry, "devops_deployments", WINDOW)] == ["d2"]
    assert _rows(registry, "devops_code_changes", {"deployment_id": "d2"}) == [["c2", "", "", ""]]


def test_a_rewritten_query_index_is_decoded_again(tmp_path, fig4_bundle):
    index_path = FIXTURES / FIG4_TSG / "queries" / "index.json"
    registry, path = _fixture_copy(tmp_path, "queries/index.json",
                                   index_path.read_text(encoding="utf-8"))
    args = _top_exceptions_args(fig4_bundle)
    top = _rows(registry, "log_query", args)
    assert top == _rows(registry, "log_query", args)
    path.write_text(json.dumps([{"query": args["query"], "file": "full_stack.csv"}]),
                    encoding="utf-8")
    full_stack = table_from_csv((path.parent / "full_stack.csv").read_text(encoding="utf-8"))
    assert _rows(registry, "log_query", args) == full_stack.rows != top


def test_a_series_deleted_after_a_call_is_missing(tmp_path):
    registry, root = _fixture_tree(tmp_path)
    assert _series_rows(registry)
    (root / WEB_SERIES).unlink()
    with pytest.raises(PluginFailure, match="^no fixture series for metric 'availability_web'$"):
        _series_rows(registry)


def test_a_series_rewritten_as_not_utf8_names_its_path(tmp_path):
    registry, root = _fixture_tree(tmp_path)
    assert _series_rows(registry)
    path = root / WEB_SERIES
    path.write_bytes(SERIES_HEAD.encode() + b"2026-03-01T01:00:00Z,\xff\n")
    message = _fails_naming(registry, "metric_fetch", {"metric": "availability_web", **WINDOW}, path)
    assert "not a CSV table" in message


def test_a_failed_decode_is_not_kept(tmp_path):
    registry, path = _fixture_copy(tmp_path, WEB_SERIES, SERIES_HEAD + "2026-03-01T01:00:00Z,x\n")
    for _ in range(2):
        _fails_naming(registry, "metric_fetch", {"metric": "availability_web", **WINDOW}, path)
    path.write_text(SERIES_HEAD + "2026-03-01T01:00:00Z,1\n", encoding="utf-8")
    assert _series_rows(registry) == [[datetime(2026, 3, 1, 1, tzinfo=timezone.utc), 1.0]]


def test_changing_a_fetched_window_leaves_the_next_fetch_unchanged():
    registry = build_mock_registry(FIXTURES, FIG4_TSG)
    store = MemoryStore()
    want = _series_rows(registry)
    window = store.get(registry.invoke(
        "metric_fetch", {"metric": "availability_web", **WINDOW}, store).refs[0].key).payload
    for column in window.data:
        column.reverse()
        column[0] = None
        column.append(None)
    assert _series_rows(registry) == want


def test_threads_fetching_one_series_get_equal_rows():
    """The memo has no lock: threads that miss at once each decode and store."""
    want = _series_rows(build_mock_registry(FIXTURES, FIG4_TSG))
    assert len(want) == 10
    registry = build_mock_registry(FIXTURES, FIG4_TSG)
    start = threading.Barrier(4)
    got = [[] for _ in range(4)]

    def fetch(i):
        start.wait()
        got[i] += [_series_rows(registry) for _ in range(3)]

    threads = [threading.Thread(target=fetch, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want] * 3] * 4


def test_query_index_that_is_not_json_names_its_path(tmp_path, fig4_bundle):
    registry, path = _fixture_copy(tmp_path, "queries/index.json", "[{not json")
    message = _fails_naming(registry, "log_query", _top_exceptions_args(fig4_bundle), path)
    assert "not a UTF-8 JSON file" in message


def test_devops_file_that_is_not_json_names_its_path(tmp_path):
    registry, path = _fixture_copy(tmp_path, "devops.json", '{"deployments": [')
    _fails_naming(registry, "devops_deployments", WINDOW, path)
    _fails_naming(registry, "devops_code_changes", {"deployment_id": "dep-2026-03-01-a"}, path)


@pytest.mark.parametrize("index", ["[1, 2]", '{"query": "x", "file": "a.csv"}',
                                   '[{"query": "x"}]', '[{"query": "x", "file": 3}]'])
def test_query_index_of_the_wrong_shape_names_its_path(tmp_path, fig4_bundle, index):
    registry, path = _fixture_copy(tmp_path, "queries/index.json", index)
    _fails_naming(registry, "log_query", _top_exceptions_args(fig4_bundle), path)


@pytest.mark.parametrize("devops", [
    "[1, 2]",
    '{"deployments": {"id": "d"}}',
    '{"deployments": [1]}',
    '{"deployments": [{"id": "d"}]}',
    '{"deployments": [{"id": "d", "started": "soon"}]}',
    '{"deployments": [{"id": "d", "started": 5}]}',
    '{"deployments": [{"id": "d", "started": "2026-03-01T01:00:00Z", "finished": "later"}]}',
    # a falsy "finished" is no timestamp, not a deployment still running
    '{"deployments": [{"id": "d", "started": "2026-03-01T01:00:00Z", "finished": ""}]}',
    '{"deployments": [{"id": "d", "started": "2026-03-01T01:00:00Z", "finished": 0}]}',
    '{"deployments": [{"id": "d", "started": "2026-03-01T01:00:00Z", "finished": false}]}',
    # a deployment's id, service and ring are text
    '{"deployments": [{"id": ["d"], "started": "2026-03-01T01:00:00Z"}]}',
    '{"deployments": [{"id": "d", "service": {"s": [1]}, "started": "2026-03-01T01:00:00Z"}]}',
    '{"deployments": [{"id": "d", "ring": null, "started": "2026-03-01T01:00:00Z"}]}',
])
def test_devops_deployments_of_the_wrong_shape_name_the_path(tmp_path, devops):
    registry, path = _fixture_copy(tmp_path, "devops.json", devops)
    _fails_naming(registry, "devops_deployments", WINDOW, path)


@pytest.mark.parametrize("devops", [
    "[1, 2]",
    '{"code_changes": []}',
    '{"code_changes": {"d": {"a": 1}}}',
    '{"code_changes": {"d": [1]}}',
    '{"code_changes": {"d": [{"file": "x"}]}}',
    # a change's change_id, file, author and summary are text
    '{"code_changes": {"d": [{"change_id": 7}]}}',
    '{"code_changes": {"d": [{"change_id": "c", "file": ["f"]}]}}',
    '{"code_changes": {"d": [{"change_id": "c", "author": 1.5}]}}',
    '{"code_changes": {"d": [{"change_id": "c", "summary": true}]}}',
])
def test_devops_code_changes_of_the_wrong_shape_name_the_path(tmp_path, devops):
    registry, path = _fixture_copy(tmp_path, "devops.json", devops)
    _fails_naming(registry, "devops_code_changes", {"deployment_id": "d"}, path)


def test_devops_field_that_is_not_text_is_named(tmp_path):
    registry, path = _fixture_copy(tmp_path, "devops.json", json.dumps({
        "deployments": [{"id": ["d"], "started": "2026-03-01T01:00:00Z"}],
        "code_changes": {"d": [{"change_id": "c", "file": {"f": 1}}], "e": [{"change_id": "c"}]},
    }))
    assert _fails_naming(registry, "devops_deployments", WINDOW, path) == (
        f"{path}: 'id' is a list, not text")
    assert _fails_naming(registry, "devops_code_changes", {"deployment_id": "d"}, path) == (
        f"{path}: 'file' is a dict, not text")
    assert plugins.FixtureSet(tmp_path, FIG4_TSG).code_changes("e") == [("c", "", "", "")]


@pytest.mark.parametrize("csv_text", [
    "ExceptionType,Count\ntext,integer\nTimeout,many\n",  # a cell that does not decode
    "ExceptionType,Count\ntext,integer\nTimeout,1,2\n",  # a ragged row
    "ExceptionType,Count\ntext,number\n",  # an unknown column type
    "ExceptionType\n",  # no type row
])
def test_query_csv_that_does_not_decode_names_its_path(tmp_path, fig4_bundle, csv_text):
    registry, path = _fixture_copy(tmp_path, "queries/top_exceptions.csv", csv_text)
    message = _fails_naming(registry, "log_query", _top_exceptions_args(fig4_bundle), path)
    assert "not a CSV table" in message


@pytest.mark.parametrize("csv_text", [
    "ts,value\ntimestamp,decimal\n2026-03-01T02:00:00Z,high\n",
    "ts,value\ntimestamp,decimal\nyesterday,99.5\n",
    "value\ndecimal\n99.5\n",  # no timestamp column to window on
])
def test_metric_csv_that_does_not_decode_names_its_path(tmp_path, csv_text):
    registry, path = _fixture_copy(tmp_path, "metrics/availability_web.csv", csv_text)
    _fails_naming(registry, "metric_fetch", {"metric": "availability_web", **WINDOW}, path)


def test_fixture_csv_that_is_not_utf8_names_its_path(tmp_path, fig4_bundle):
    registry, path = _fixture_copy(tmp_path, "queries/top_exceptions.csv", "")
    path.write_bytes(b"ExceptionType\ntext\n\xff\n")
    _fails_naming(registry, "log_query", _top_exceptions_args(fig4_bundle), path)


def _fixture_tree(tmp_path):
    shutil.copytree(FIXTURES / FIG4_TSG, tmp_path / FIG4_TSG)
    return build_mock_registry(tmp_path, FIG4_TSG), tmp_path / FIG4_TSG


def test_query_csv_named_by_the_index_but_absent_names_its_path(tmp_path, fig4_bundle):
    registry, root = _fixture_tree(tmp_path)
    path = root / "queries" / "top_exceptions.csv"
    path.unlink()
    message = _fails_naming(registry, "log_query", _top_exceptions_args(fig4_bundle), path)
    assert message == f"{path}: cannot read fixture file: No such file or directory"


@pytest.mark.parametrize("relative, name", [
    ("queries/index.json", "log_query"),
    ("queries/top_exceptions.csv", "log_query"),
    ("metrics/availability_web.csv", "metric_fetch"),
    ("devops.json", "devops_deployments"),
    ("devops.json", "devops_code_changes"),
])
def test_fixture_path_that_is_a_directory_names_its_path(tmp_path, fig4_bundle, relative, name):
    registry, root = _fixture_tree(tmp_path)
    path = root / relative
    path.unlink()
    path.mkdir()
    args = {
        "log_query": _top_exceptions_args(fig4_bundle),
        "metric_fetch": {"metric": "availability_web", **WINDOW},
        "devops_deployments": WINDOW,
        "devops_code_changes": {"deployment_id": "dep-2026-03-01-a"},
    }[name]
    message = _fails_naming(registry, name, args, path)
    assert message.startswith(f"{path}: cannot read fixture file: ")


def test_missing_fixture_files_keep_their_messages(tmp_path, fig4_bundle):
    registry, root = _fixture_tree(tmp_path)
    for relative in ("queries/index.json", "metrics/availability_web.csv", "devops.json"):
        (root / relative).unlink()
    for name, args, message in [
        ("log_query", _top_exceptions_args(fig4_bundle),
         f"no query fixtures at {root / 'queries' / 'index.json'}"),
        ("metric_fetch", {"metric": "availability_web", **WINDOW},
         "no fixture series for metric 'availability_web'"),
        ("devops_deployments", WINDOW, f"no devops fixture at {root / 'devops.json'}"),
        ("devops_code_changes", {"deployment_id": "d"}, f"no devops fixture at {root / 'devops.json'}"),
    ]:
        with pytest.raises(PluginFailure) as info:
            registry.invoke(name, args, MemoryStore())
        assert str(info.value) == message


def test_fixture_files_are_read_without_a_separate_stat(monkeypatch, registry, store, fig4_bundle):
    checked = []
    exists = Path.exists

    def spy(self, *args, **kwargs):
        if FIXTURES in self.parents:
            checked.append(self)
        return exists(self, *args, **kwargs)

    monkeypatch.setattr(Path, "exists", spy)
    registry.invoke("log_query", _top_exceptions_args(fig4_bundle), store)
    registry.invoke("metric_fetch", {"metric": "availability_web", **WINDOW}, store)
    registry.invoke("devops_deployments", WINDOW, store)
    registry.invoke("devops_code_changes", {"deployment_id": "dep-2026-03-01-a"}, store)
    assert checked == []


@pytest.mark.parametrize("name, args, bad", [
    ("metric_fetch", {"metric": "availability_web", "from": "yesterday",
                      "to": "2026-03-01T05:00:00Z"}, "from"),
    ("metric_fetch", {"metric": "availability_web", "from": "2026-03-01T02:00:00Z",
                      "to": "2026-13-01T00:00:00Z"}, "to"),
    ("devops_deployments", {"from": "yesterday", "to": "2026-03-01T09:00:00Z"}, "from"),
    ("devops_deployments", {"from": "2026-03-01T00:00:00Z", "to": ""}, "to"),
])
def test_timestamp_argument_that_does_not_parse_is_a_schema_violation(registry, store, name,
                                                                       args, bad):
    with pytest.raises(ArgSchemaViolation, match=rf"^{name}: argument '{bad}' is not a timestamp$"):
        registry.invoke(name, args, store)


@pytest.mark.parametrize("name, extra", [
    ("metric_fetch", {"metric": "availability_web"}),
    ("devops_deployments", {}),
])
@pytest.mark.parametrize("naive", [
    {"from": "2026-03-01T02:00:00", "to": "2026-03-01T05:00:00"},
    {"from": datetime(2026, 3, 1, 2), "to": datetime(2026, 3, 1, 5)},
], ids=["text", "datetime"])
def test_naive_timestamp_argument_is_read_as_utc(registry, name, extra, naive):
    """A time without an offset selects the same rows as that time with `Z`."""
    rows = []
    for window in (naive, {"from": "2026-03-01T02:00:00Z", "to": "2026-03-01T05:00:00Z"}):
        store = MemoryStore()
        result = registry.invoke(name, {**extra, **window}, store)
        rows.append(store.get(result.refs[0].key).payload.rows)
    assert rows[0] == rows[1] != []


@pytest.mark.parametrize("window", [
    WINDOW,
    {"from": "2026-03-01T02:00:00Z", "to": "2026-03-01T05:00:00"},
    {"from": "2026-03-01T04:30:00+02:00", "to": "2026-03-01T04:30:00"},
])
def test_metric_csv_without_offsets_is_read_as_utc(tmp_path, registry, window):
    """Timestamps with `Z` stripped from a metric CSV select the same rows."""
    original = (FIXTURES / FIG4_TSG / "metrics/availability_upstream.csv").read_text(encoding="utf-8")
    assert original.count("Z") > 2
    naive_registry, _ = _fixture_copy(tmp_path, "metrics/availability_upstream.csv",
                                      original.replace("Z", ""))
    csvs = []
    for reg in (registry, naive_registry):
        store = MemoryStore()
        result = reg.invoke("metric_fetch", {"metric": "availability_upstream", **window}, store)
        csvs.append(table_to_csv(store.get(result.refs[0].key).payload))
    assert csvs[0] == csvs[1]
    assert csvs[0].count("\n") > 3  # header, type row and some points


def test_devops_times_without_offsets_are_read_as_utc(tmp_path, registry):
    """`started`/`finished` times with `Z` stripped from devops.json select the
    same deployments, and `started` reads back as the same UTC time."""
    original = (FIXTURES / FIG4_TSG / "devops.json").read_text(encoding="utf-8")
    assert original.count('Z"') > 2
    naive_registry, _ = _fixture_copy(tmp_path, "devops.json", original.replace('Z"', '"'))
    csvs = []
    for reg in (registry, naive_registry):
        store = MemoryStore()
        result = reg.invoke("devops_deployments", WINDOW, store)
        csvs.append(table_to_csv(store.get(result.refs[0].key).payload))
    assert csvs[0] == csvs[1]
    assert csvs[0].count("\n") > 2  # header, type row and a deployment


@pytest.mark.parametrize("name, extra", [
    ("metric_fetch", {"metric": "availability_web"}),
    ("devops_deployments", {}),
])
def test_date_argument_is_a_schema_violation(registry, store, name, extra):
    args = {**extra, "from": date(2026, 3, 1), "to": "2026-03-01T05:00:00Z"}
    with pytest.raises(ArgSchemaViolation, match=rf"^{name}: argument 'from' is not a timestamp$"):
        registry.invoke(name, args, store)


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
