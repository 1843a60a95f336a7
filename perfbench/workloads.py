"""The three workloads: what one operation is, its set-up and its checks.

replay  one run() of an already-loaded bundle against one scripted scenario,
        virtual clock, k cycling 1..4 (the per-incident path).
scale   compile one large guide from markdown and run it once, virtual, k=4.
tables  one run() in wall-clock mode at k=2 whose backend calls the mock
        plugins, so tables move through the blackboard memory.

Operations go in rounds: a round is the workload's fixed list of operations,
and a run measures whole rounds, so every run has the same mix. Checks run
after each operation returns, outside its timing.
"""

from __future__ import annotations

import math
import threading
from pathlib import Path

import gen
from spans import TracedBackend, TracedStore, Tracer

from tsgflow import (
    Bundle,
    ExecutorBackend,
    MemoryStore,
    RunConfig,
    ScriptedBackend,
    StepOutcome,
    extract_dag,
    extract_templates,
    lint,
    load_bundle,
    load_dag,
    load_scenario,
    parse_tsg,
    prepare_query,
    run,
    serialize_dag,
    validate_dag,
)
from tsgflow.dag import structurally_equal
from tsgflow.engine import CancelledSignal, RunState
from tsgflow.oracle import oracle_makespan, serial_simulation

FIXTURE_BUNDLES = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "bundles"


class Op:
    """One operation's outcome as the checks and the metrics see it."""

    def __init__(self, result, steps: int, store: MemoryStore, facts: dict | None = None):
        self.result = result
        self.steps = steps
        self.store = store
        self.facts = facts or {}

    def rows(self) -> int:
        """Rows the run left in memory: a table counts its rows, other values one."""
        total = 0
        for key in self.store.keys():
            value = MemoryStore.get(self.store, key)  # untraced: the operation is over
            total += value.payload.row_count if value.kind == "table" else 1
        return total


def engine_counts(result) -> dict:
    counts = {"dispatches": 0, "retries": 0, "cancelled": 0, "cancelled_running": 0}
    for ev in result.trace:
        if ev.kind == "node_started":
            counts["dispatches"] += 1
        elif ev.kind == "node_retried":
            counts["retries"] += 1
        elif ev.kind == "node_cancelled":
            counts["cancelled"] += 1
            counts["cancelled_running"] += ev.detail.get("phase") == "running"
    return counts


class Workload:
    name = ""
    compiles_in_op = False  # whether each operation runs the offline layers itself

    def __init__(self, seed: int, root: Path, smoke: bool, tracer: Tracer | None):
        self.seed = seed
        self.root = root
        self.smoke = smoke
        self.tracer = tracer

    def call(self, name: str, fn, *args, units: int | None = None):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args, units=units)

    def new_store(self) -> MemoryStore:
        return MemoryStore() if self.tracer is None else TracedStore(self.tracer)

    def backend(self, inner: ExecutorBackend) -> ExecutorBackend:
        return inner if self.tracer is None else TracedBackend(inner, self.tracer)

    def run_engine(self, bundle, backend, config, incident, store):
        """run() as one span; worker-thread spans hang under it."""
        if self.tracer is None:
            return run(bundle, backend, config, incident=incident, store=store)
        span = self.tracer.begin("engine.run", len(bundle.dag.nodes) - 2)
        self.tracer.root = span
        try:
            return run(bundle, backend, config, incident=incident, store=store)
        finally:
            self.tracer.root = None
            self.tracer.end(span)

    def compile(self, text: str):
        """The offline layers on one guide, each call its own span."""
        n = text.count("\n## Step ")
        doc = self.call("document.parse", parse_tsg, text, units=n)
        findings = self.call("lint", lint, doc, units=n)
        dag = self.call("dag.extract", extract_dag, doc, units=n)
        report = self.call("dag.validate", validate_dag, dag, units=n)
        templates = self.call("queryprep.extract", extract_templates, doc, units=n)
        loaded = self.call("dag.roundtrip", _roundtrip, dag, units=n)
        return doc, findings, dag, report, templates, loaded

    def group(self, desc) -> str | None:
        """Sub-population an operation's spans are also filed under."""
        return None

    def probe(self, guides: list[tuple[str, str]]) -> None:
        """Traced run only, after the timed loop: RunState(dag) timed
        standalone, and on workloads that compile only in set-up, every offline
        layer too, so each layer has a per-step figure."""
        for group, text in guides:
            if self.compiles_in_op:
                dag = extract_dag(parse_tsg(text))
            else:
                dag = self.compile(text)[2]
            self.call("engine.runstate_init", RunState, dag, units=len(dag.nodes))
            self.tracer.finish_op(group)


def _roundtrip(dag):
    return load_dag(serialize_dag(dag))


# -- replay --------------------------------------------------------------------------


class Replay(Workload):
    name = "replay"

    def generate(self) -> None:
        self.inputs = gen.replay_inputs(self.seed, self.root / "bundles", self.smoke)
        self.fixture_dirs = sorted(p for p in FIXTURE_BUNDLES.iterdir() if p.is_dir())

    def setup(self) -> None:
        self.cases = []  # (bundle, scenario, planted conclusion or "oracle")
        for path, plants in self.inputs:
            bundle = self.call("harness.load_bundle", load_bundle, path)
            for p in plants:
                self.cases.append((bundle, load_scenario(path, p.name), p.conclusion))
        for path in self.fixture_dirs:
            bundle = self.call("harness.load_bundle", load_bundle, path)
            for scenario in sorted((path / "scenarios").glob("*.json")):
                self.cases.append((bundle, load_scenario(path, str(scenario)), "oracle"))

    def prepare(self) -> None:
        """Verify phase: the oracle's expectations for every case."""
        self.expect = []
        for bundle, scenario, planted in self.cases:
            steps = {n: spec["attempts"] for n, spec in scenario["steps"].items()}
            serial = serial_simulation(bundle.dag, steps, 2)
            bound = self.call("oracle.makespan", oracle_makespan, bundle.dag, scenario, 2)
            conclusion = serial.conclusion if planted == "oracle" else planted
            if serial.conclusion != conclusion:
                raise RuntimeError(f"{bundle.dag.tsg_id}: serial oracle concludes "
                                   f"{serial.conclusion!r}, generator planted {conclusion!r}")
            self.expect.append((serial, bound, conclusion))

    def round(self) -> list:
        return [(i, k) for i in range(len(self.cases)) for k in (1, 2, 3, 4)]

    def op(self, desc) -> Op:
        i, k = desc
        bundle, scenario, _ = self.cases[i]
        store = self.new_store()
        result = self.run_engine(bundle, self.backend(ScriptedBackend.from_scenario(scenario)),
                                 RunConfig(max_executors=k), scenario["incident"], store)
        return Op(result, len(bundle.dag.nodes) - 2, store)

    def check(self, desc, op: Op) -> bool:
        i, k = desc
        serial, bound, conclusion = self.expect[i]
        r = op.result
        if k == 1:
            return (r.status.value == serial.status and r.conclusion == serial.conclusion
                    and r.executed == serial.executed and r.makespan == serial.total_time)
        if conclusion is None:
            return r.status.value == "exhausted" and r.conclusion is None
        return (r.status.value == "concluded" and r.conclusion == conclusion
                and r.makespan >= bound.critical_path_to_conclusion)

    def guides(self) -> list[tuple[str, str]]:
        return [(None, (p / "tsg.md").read_text(encoding="utf-8"))
                for p in [path for path, _ in self.inputs] + self.fixture_dirs]


# -- scale ---------------------------------------------------------------------------


class Scale(Workload):
    name = "scale"
    compiles_in_op = True

    def generate(self) -> None:
        self.inputs = gen.scale_inputs(self.seed, self.root / "bundles", self.smoke)

    def setup(self) -> None:
        self.cases = []
        for si in self.inputs:
            text = si.guide_path.read_text(encoding="utf-8")
            scenario = load_scenario(si.scenario_path.parent.parent, str(si.scenario_path))
            self.cases.append((si, text, scenario))

    def prepare(self) -> None:
        pass

    def round(self) -> list:
        # the 1000-step guide three times, so that the median operation, which
        # is that guide's, has three samples a round
        return [i for i, (si, _, _) in enumerate(self.cases) for _ in range(3 if si.label == "n1000" else 1)]

    def op(self, i) -> Op:
        si, text, scenario = self.cases[i]
        doc, findings, dag, report, templates, loaded = self.compile(text)
        store = self.new_store()
        result = self.run_engine(Bundle(doc, loaded, templates),
                                 self.backend(ScriptedBackend.from_scenario(scenario)),
                                 RunConfig(max_executors=4), scenario["incident"], store)
        facts = {"lint_errors": sum(f.severity == "error" for f in findings),
                 "valid": report.ok, "dag": dag, "loaded": loaded}
        return Op(result, len(doc.steps), store, facts)

    def check(self, i, op: Op) -> bool:
        si = self.cases[i][0]
        f = op.facts
        return (f["lint_errors"] == 0 and f["valid"] and structurally_equal(f["dag"], f["loaded"])
                and op.result.status.value == "concluded" and op.result.conclusion == si.conclusion)

    def group(self, i) -> str:
        return self.cases[i][0].label

    def guides(self) -> list[tuple[str, str]]:
        return [(si.label, text) for si, text, _ in self.cases]


# -- tables --------------------------------------------------------------------------


class TablesBackend(ExecutorBackend):
    """Plays the step executor for the tables guide: prepares the step's query,
    calls the mock plugins through the bundle's registry and decides each edge
    from what they return. What it saw is kept in `facts` for the checks."""

    def __init__(self, bundle: Bundle, plan: dict, incident: dict, wl: Workload):
        self.bundle = bundle
        self.plan = plan
        self.fields = incident["fields"]
        self.wl = wl
        self.facts: dict = {"plugin_rows": []}  # appended from two worker threads
        self.templates = {t.name: t for t in bundle.templates}

    def invoke(self, ctx, name: str, args: dict):
        res = self.wl.call("plugin." + name, self.bundle.registry.invoke, name, args, ctx.store)
        self.facts["plugin_rows"].append(sum(r.summary.row_count or 0 for r in res.refs))
        return res

    def execute(self, ctx):
        if ctx.cancel.is_set():
            return CancelledSignal()
        action = self.plan[ctx.node_id]
        window = {"from": self.fields["start_time"], "to": self.fields["end_time"]}
        facts, writes, yes = self.facts, {}, True
        if action == "logs":
            template = self.templates["exception_log"]
            params = {p: self.fields[p] for p in template.placeholders}
            query = self.wl.call("queryprep.prepare", prepare_query, template, params)
            res = self.invoke(ctx, "log_query", {"query": query.text, "template": query.template_name,
                                                 "bindings": query.bindings})
            key = res.refs[0].key
            facts["log_rows"] = res.refs[0].summary.row_count
            top = self.invoke(ctx, "analysis.aggregate", {"key": key + "#Count", "op": "top_k", "k": 3})
            facts["top3"] = ctx.store.get(top.refs[0].key).payload.rows
            facts["max"] = self.invoke(ctx, "analysis.aggregate", {"key": key + "#Count", "op": "max"}).inline
            facts["mean"] = self.invoke(ctx, "analysis.aggregate", {"key": key + "#Count", "op": "mean"}).inline
            yes = facts["max"] > self.plan["threshold"]
            writes["top_exception"] = facts["top3"][0][1]
        elif action == "metrics":
            keys = []
            for metric in ("availability_service", "availability_upstream"):
                res = self.invoke(ctx, "metric_fetch", {"metric": metric, **window})
                keys.append(res.refs[0].key)
                facts["metric_rows"] = res.refs[0].summary.row_count
            r = self.invoke(ctx, "analysis.pearson", {"key_x": keys[0], "key_y": keys[1]}).inline
            facts["pearson"] = r
            yes = r >= 0.8
            writes["availability_r"] = r
        elif action == "deployments":
            res = self.invoke(ctx, "devops_deployments", window)
            rows = ctx.store.get(res.refs[0].key).payload.rows
            facts["deployments"] = len(rows)
            yes = bool(rows)
            if rows:
                facts["deployment_id"] = rows[0][0]
                writes["deployment_id"] = rows[0][0]
        elif action == "changes":
            res = self.invoke(ctx, "devops_code_changes", {"deployment_id": ctx.store.get("deployment_id").payload})
            facts["changes"] = res.refs[0].summary.row_count
            writes["change_list"] = [row[0] for row in ctx.store.get(res.refs[0].key).payload.rows]
        else:
            writes["window_scope"] = f"{self.fields['service']}/{self.fields['ring']}"
        for key in sorted(writes):
            ctx.store.put(key, writes[key])
        decisions = {}
        for edge in ctx.outgoing_edges:
            label = (edge["condition"] or {}).get("label")
            decisions[edge["id"]] = "enable" if label is None or (label == "Y") == yes else "disable"
        return StepOutcome(result="success", summary=action, edge_decisions=decisions,
                           memory_writes=tuple(sorted(writes)))


class Tables(Workload):
    name = "tables"

    def generate(self) -> None:
        self.inputs = gen.tables_inputs(self.seed, self.root / "bundles", self.smoke)

    def setup(self) -> None:
        self.cases = [(self.call("harness.load_bundle", load_bundle, ti.bundle), ti)
                      for ti in self.inputs]

    def prepare(self) -> None:
        self.threads = threading.active_count()

    def settle(self) -> int:
        """Wait for the engine's worker threads to exit; the live thread count."""
        for t in threading.enumerate():
            if t is not threading.current_thread():
                t.join(timeout=10)
        return threading.active_count()

    def round(self) -> list:
        return list(range(len(self.cases)))

    def op(self, i) -> Op:
        bundle, ti = self.cases[i]
        store = self.new_store()
        backend = TablesBackend(bundle, ti.plan, ti.scenario, self)
        result = self.run_engine(bundle, self.backend(backend),
                                 RunConfig(max_executors=2, clock="wall"), ti.scenario, store)
        return Op(result, len(bundle.dag.nodes) - 2, store, backend.facts)

    def check(self, i, op: Op) -> bool:
        e = self.cases[i][1].expect
        f = op.facts
        top3 = [[gen.iso(r[0]), *r[1:]] for r in f.get("top3", [])]
        close = lambda a, b: a is not None and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)  # noqa: E731
        return (op.result.status.value == "concluded" and op.result.conclusion == e["conclusion"]
                and f.get("log_rows") == e["log_rows"] and top3 == e["top3"]
                and close(f.get("max"), e["max"]) and close(f.get("mean"), e["mean"])
                and f.get("metric_rows") == e["metric_rows"] and close(f.get("pearson"), e["pearson"])
                and f.get("deployments") == e["deployments"]
                and f.get("deployment_id") == e["deployment_id"] and f.get("changes") == e["changes"]
                and self.settle() == self.threads)

    def guides(self) -> list[tuple[str, str]]:
        return [(None, (ti.bundle / "tsg.md").read_text(encoding="utf-8")) for ti in self.inputs]


WORKLOADS = {w.name: w for w in (Replay, Scale, Tables)}
