"""End-to-end run of the availability bundle with a plugin-driven backend.

Every step resolves its edges from real mock-plugin results: log queries by
template+bindings, DevOps lookups, metric fetches, and the correlation
analysis reading both series out of the blackboard by reference. This is the
cross-plugin data flow the memory system exists for: plugins deposit tables,
executors pass keys around, and only compact summaries ever surface.
"""

from __future__ import annotations

import statistics

from tsgflow.engine import ExecutorBackend, RunConfig, RunStatus, StepOutcome, run
from tsgflow.memory import MemoryStore
from tsgflow.queryprep import prepare_query

KNOWN_ISSUES = {"CacheStampede", "TokenRotationLag"}
CORRELATION_THRESHOLD = 0.8

INCIDENT = {
    "id": "INC-871002",
    "fields": {
        "incident_id": "INC-871002",
        "service": "web-frontend",
        "upstream_service": "user-store",
        "start_time": "2026-03-01T00:00:00Z",
        "end_time": "2026-03-01T09:00:00Z",
        "ring": "prod",
        "metric_service": "availability_web",
        "metric_upstream": "availability_upstream",
    },
}


class DiagnosisBackend(ExecutorBackend):
    """Executes the availability guide for real against the mock plugins."""

    def __init__(self, bundle):
        self.registry = bundle.registry
        self.templates = {t.name: t for t in bundle.templates}

    def _decide(self, ctx, answer: bool | None, summary: str, writes=()) -> StepOutcome:
        decisions = {}
        for edge in ctx.outgoing_edges:
            if edge["condition"] is None:
                decisions[edge["id"]] = "enable"
            else:
                wanted = edge["condition"]["label"] == "Y"
                decisions[edge["id"]] = "enable" if wanted == answer else "disable"
        return StepOutcome(
            result="success", summary=summary, edge_decisions=decisions,
            memory_writes=tuple(writes), duration=1,
        )

    def _query(self, ctx, template_name: str, params: dict) -> str:
        prepared = prepare_query(self.templates[template_name], params)
        result = self.registry.invoke(
            "log_query",
            {"query": prepared.text, "template": template_name, "bindings": prepared.bindings},
            ctx.store,
        )
        return result.refs[0].key

    def execute(self, ctx) -> StepOutcome:
        fields = ctx.incident["fields"]
        store = ctx.store
        node = ctx.node_id

        if node == "step1":
            key = self._query(ctx, "top_exceptions", {
                "service": fields["service"], "ring": fields["ring"],
                "start_time": fields["start_time"], "end_time": fields["end_time"],
            })
            top = store.get(key).payload.rows[0][0]
            store.put("top_exception", top)
            return self._decide(ctx, None, f"top exception {top}", writes=(key, "top_exception"))

        if node == "step2":
            top = store.get("top_exception").payload
            known = top in KNOWN_ISSUES
            return self._decide(ctx, known, f"known issue: {known}")

        if node == "step3.1":
            result = self.registry.invoke(
                "devops_deployments", {"from": fields["start_time"], "to": fields["end_time"]},
                store,
            )
            rows = store.get(result.refs[0].key).payload.rows
            if rows:
                store.put("deployment_id", rows[0][0])
            return self._decide(ctx, bool(rows), f"{len(rows)} deployments",
                                writes=(result.refs[0].key,) + (("deployment_id",) if rows else ()))

        if node == "step3.2":
            deployment = store.get("deployment_id").payload
            result = self.registry.invoke(
                "devops_code_changes", {"deployment_id": deployment}, store)
            table = store.get(result.refs[0].key).payload
            files = [row[1] for row in table.rows]
            store.put("changed_files", files)
            return self._decide(ctx, bool(files), f"{len(files)} changes",
                                writes=(result.refs[0].key, "changed_files"))

        if node == "step3.3":
            top = store.get("top_exception").payload
            key = self._query(ctx, "full_stack", {
                "service": fields["service"], "start_time": fields["start_time"],
                "end_time": fields["end_time"], "top_exception": top,
            })
            stack = store.get(key).payload.rows[0][2]
            store.put("exception_stack", stack)
            return self._decide(ctx, None, "stack retrieved", writes=(key, "exception_stack"))

        if node == "step3.4":
            stack = store.get("exception_stack").payload
            files = store.get("changed_files").payload
            hit = any(f in stack for f in files)
            return self._decide(ctx, hit, f"stack hits changed file: {hit}")

        if node == "step4.1":
            keys = []
            for metric in (fields["metric_service"], fields["metric_upstream"]):
                result = self.registry.invoke(
                    "metric_fetch",
                    {"metric": metric, "from": fields["start_time"], "to": fields["end_time"]},
                    store,
                )
                keys.append(result.refs[0].key)
            return self._decide(ctx, None, "two availability series fetched", writes=keys)

        if node == "step4.2":
            series_keys = [r["key"] for r in ctx.memory_refs if r["key"].startswith("plugin.metric_fetch.")]
            result = self.registry.invoke(
                "analysis.pearson", {"key_x": series_keys[0], "key_y": series_keys[1]}, store)
            r = result.inline
            return self._decide(ctx, r >= CORRELATION_THRESHOLD, f"correlation {r:.3f}")

        if node == "step5":
            return self._decide(ctx, None, "escalated")

        raise AssertionError(f"unexpected node {node}")


def _series(store, key):
    table = store.get(key).payload
    return [row[1] for row in table.rows]


def test_plugin_driven_diagnosis(fig4_bundle):
    store = MemoryStore()
    result = run(
        fig4_bundle,
        DiagnosisBackend(fig4_bundle),
        RunConfig(max_executors=1, retry_limit=0),
        incident=INCIDENT,
        store=store,
        run_id="integration",
    )
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "transfer to upstream team"
    assert result.executed == [
        "step1", "step2", "step3.1", "step3.2", "step3.3", "step3.4", "step4.1", "step4.2",
    ]

    scope_keys = result.state.memory_refs
    assert any(r["key"] == "top_exception" for r in scope_keys)

    from tsgflow.memory import RunScope

    scope = RunScope(store, "integration")
    xs = _series(scope, "plugin.metric_fetch.1")
    ys = _series(scope, "plugin.metric_fetch.2")
    want = statistics.covariance(xs, ys) / (statistics.stdev(xs) * statistics.stdev(ys))
    stored = scope.get("pearson:plugin.metric_fetch.1:plugin.metric_fetch.2").payload
    assert abs(stored - want) <= 1e-12
    assert want >= CORRELATION_THRESHOLD


def test_plugin_driven_parallel_diagnosis(fig5_bundle, fig4_bundle):
    # same backend, parallel DAG: plugins and memory are safe across branches
    backend = DiagnosisBackend(fig4_bundle)  # fixture registry lives in fig4
    backend.templates = {t.name: t for t in fig5_bundle.templates}
    result = run(
        fig5_bundle if fig5_bundle.registry else _with_registry(fig5_bundle, fig4_bundle),
        backend,
        RunConfig(max_executors=3, retry_limit=0),
        incident=INCIDENT,
        run_id="integration-parallel",
    )
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "transfer to upstream team"


def _with_registry(bundle, donor):
    from dataclasses import replace

    return replace(bundle, registry=donor.registry)
