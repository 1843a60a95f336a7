from __future__ import annotations

import copy
import dataclasses
import gc
import heapq
import json
import sys
import threading
import time
import weakref

import pytest

import tsgflow.dag
import tsgflow.engine
from conftest import FIG5_DIR
from randdag import random_scripted_dag, steps_from_assignment, success_assignments
from tsgflow.backends import ScriptedBackend
from tsgflow.dag import START, DagEdge, DagNode, ExecutionDag, InvalidDag, edge_id
from tsgflow.engine import (
    BackendUnavailable,
    Bundle,
    ConfigInvalid,
    ElementState,
    EngineError,
    ExecutorBackend,
    IncompleteEdgeDecisions,
    InvalidEdgeDecision,
    RunConfig,
    RunState,
    RunStatus,
    Snapshot,
    StaleOutcome,
    StepOutcome,
    Trace,
    TraceEvent,
    UnknownNode,
    apply_outcome,
    run,
)
from tsgflow.errors import TsgflowError
from tsgflow.harness import load_bundle, load_scenario
from tsgflow.linechild import ChildTimeout
from tsgflow.memory import InvalidValue, KeyNotFound, MemoryStore, Table
from tsgflow.oracle import simulate
from tsgflow.plugins import PluginFailure
from tsgflow.queryprep import TemplateError
from tsgflow.scenario import ScenarioIncomplete


def linear_dag(n=1, tsg_id="linear"):
    nodes = [DagNode("start", "start", "run start")]
    edges = []
    prev = "start"
    for i in range(1, n + 1):
        node_id = f"step{i}"
        nodes.append(DagNode(node_id, "step", f"step {i}", step_ref=str(i)))
        edges.append(DagEdge(edge_id(prev, node_id), prev, node_id))
        prev = node_id
    nodes.append(DagNode("end", "end", "run end"))
    edges.append(DagEdge(edge_id(prev, "end"), prev, "end", None, "finished"))
    return ExecutionDag(tsg_id=tsg_id, nodes=nodes, edges=edges)


def scripted(steps: dict[str, list[dict]]) -> ScriptedBackend:
    return ScriptedBackend.from_scenario({"steps": steps})


def bundle_of(dag) -> Bundle:
    return Bundle(doc=None, dag=dag, templates=[])


# -- apply_outcome ------------------------------------------------------------

def _start_next(state: RunState) -> str:
    """Pop the head of the ready queue and mark it running, as run()'s loop
    does; return its node id."""
    node_id = heapq.heappop(state.ready)[2]
    state.queued.discard(node_id)
    state.running.add(node_id)
    state.attempts[node_id] = state.attempts.get(node_id, 0) + 1
    return node_id


def _state_with_running(dag, path):
    """Drive the run state through `path` so the last node is running."""
    state = RunState(dag, retry_limit=2)
    state.resolve_outgoing(START, ElementState.ENABLED, START)
    for node_id, decisions in path[:-1]:
        assert _start_next(state) == node_id
        apply_outcome(state, node_id, StepOutcome("success", edge_decisions=decisions))
    assert _start_next(state) == path[-1][0]
    return state


def _fig4_state_at_step31(dag):
    return _state_with_running(
        dag,
        [
            ("step1", {"edge_step1_step2": "enable"}),
            ("step2", {"edge_step2_end": "disable", "edge_step2_step3.1": "enable"}),
            ("step3.1", None),
        ],
    )


def test_apply_outcome_branch_taken(fig4_bundle):
    dag = fig4_bundle.dag
    state = _fig4_state_at_step31(dag)
    apply_outcome(
        state, "step3.1",
        StepOutcome("success", edge_decisions={
            "edge_step3.1_step3.2": "enable", "edge_step3.1_step4.1": "disable"}),
    )
    assert "step3.2" in state.queued
    assert state.node_state["step4.1"] is ElementState.UNKNOWN  # 3.2/3.4 edges unresolved


def test_apply_outcome_branch_skipped_disables_subtree(fig4_bundle):
    dag = fig4_bundle.dag
    state = _fig4_state_at_step31(dag)
    apply_outcome(
        state, "step3.1",
        StepOutcome("success", edge_decisions={
            "edge_step3.1_step3.2": "disable", "edge_step3.1_step4.1": "enable"}),
    )
    for node_id in ("step3.2", "step3.3", "step3.4"):
        assert state.node_state[node_id] is ElementState.DISABLED
    for eid in ("edge_step3.2_step3.3", "edge_step3.3_step3.4",
                "edge_step3.4_end", "edge_step3.4_step4.1"):
        assert state.edge_state[eid] is ElementState.DISABLED
    assert "step4.1" in state.queued  # one enabled, two disabled incoming


@pytest.mark.parametrize("clock", ["virtual", "wall"])
def test_a_final_failure_disables_a_chain_deeper_than_the_recursion_limit(clock):
    """Rule b walks on an explicit stack: when step1 of a chain longer than
    the recursion limit fails finally, every later step is disabled, each
    edge naming the failure or the node it leaves, and the oracle agrees."""
    n = sys.getrecursionlimit() + 500
    dag = linear_dag(n)
    steps = {"step1": [{"result": "failure", "error": "down"}]}
    result = run(bundle_of(dag), scripted(steps), RunConfig(retry_limit=0, clock=clock))
    assert result.status is RunStatus.EXHAUSTED and result.executed == ["step1"]
    later = [f"step{i}" for i in range(2, n + 1)]
    assert [result.state.node_state[node] for node in later] == [ElementState.DISABLED] * (n - 1)
    vias = [ev.detail["via"] for ev in result.trace if ev.kind == "edge_disabled"]
    assert vias == ["failure", *later]
    assert result.trace[-1].detail["disabled"] == later
    expected = simulate(dag, steps, 0, 1)
    assert expected.status == "exhausted" and expected.executed == ["step1"]
    assert {k: v.value for k, v in result.state.node_state.items()} == expected.node_state
    assert {k: v.value for k, v in result.state.edge_state.items()} == expected.edge_state


def test_apply_outcome_returns_the_written_keys_sorted(fig4_bundle):
    state = _fig4_state_at_step31(fig4_bundle.dag)
    decisions = {"edge_step3.1_step3.2": "enable", "edge_step3.1_step4.1": "disable"}
    written = apply_outcome(state, "step3.1", StepOutcome(
        "success", edge_decisions=decisions, memory_writes=("b", "a")))
    assert written == ("a", "b")
    assert _start_next(state) == "step3.2"
    assert apply_outcome(state, "step3.2", StepOutcome("failure", error="down")) == ()


def test_apply_outcome_contract_violations(fig4_bundle):
    dag = fig4_bundle.dag
    state = _fig4_state_at_step31(dag)
    with pytest.raises(IncompleteEdgeDecisions):
        apply_outcome(state, "step3.1",
                      StepOutcome("success", edge_decisions={"edge_step3.1_step3.2": "enable"}))
    with pytest.raises(UnknownNode):
        apply_outcome(state, "stepX", StepOutcome("success", edge_decisions={}))
    with pytest.raises(StaleOutcome):
        apply_outcome(state, "step2", StepOutcome("success", edge_decisions={}))


_TO_32, _TO_41 = "edge_step3.1_step3.2", "edge_step3.1_step4.1"


@pytest.mark.parametrize("decisions, error, message", [
    ({_TO_32: "enable"}, IncompleteEdgeDecisions, f"step3.1: missing: {_TO_41}"),
    ({_TO_32: "enable", _TO_41: "disable", "edge_x": "enable"}, IncompleteEdgeDecisions,
     "step3.1: not outgoing edges: edge_x"),
    ({_TO_32: "enable", "edge_y": "enable", "edge_x": "disable"}, IncompleteEdgeDecisions,
     f"step3.1: missing: {_TO_41}; not outgoing edges: edge_x, edge_y"),
    (None, IncompleteEdgeDecisions, f"step3.1: missing: {_TO_32}, {_TO_41}"),
    ({}, IncompleteEdgeDecisions, f"step3.1: missing: {_TO_32}, {_TO_41}"),
    ({_TO_32: "maybe", _TO_41: "disable"}, InvalidEdgeDecision,
     f"{_TO_32}: decision must be enable|disable"),
    # a gap is reported before an invalid value
    ({_TO_32: "maybe"}, IncompleteEdgeDecisions, f"step3.1: missing: {_TO_41}"),
], ids=["missing", "extra", "missing-and-extra", "none", "empty",
        "invalid-value", "invalid-and-missing"])
def test_apply_outcome_decision_errors_are_exact(fig4_bundle, decisions, error, message):
    state = _fig4_state_at_step31(fig4_bundle.dag)
    trace_length = len(state.trace)
    with pytest.raises(error) as caught:
        apply_outcome(state, "step3.1", StepOutcome("success", edge_decisions=decisions))
    assert str(caught.value) == message
    assert len(state.trace) == trace_length  # nothing was emitted or resolved
    assert state.edge_state[_TO_32] is ElementState.UNKNOWN


@pytest.mark.parametrize("decisions", [
    [(_TO_32, "disable"), (_TO_41, "enable")],
    ((_TO_41, "enable"), (_TO_32, "disable")),
    {_TO_41: "enable", _TO_32: "disable"}.items(),
], ids=["list-of-pairs", "tuple-of-pairs", "items-view"])
def test_apply_outcome_accepts_whatever_dict_accepts(fig4_bundle, decisions):
    state = _fig4_state_at_step31(fig4_bundle.dag)
    apply_outcome(state, "step3.1", StepOutcome("success", edge_decisions=decisions))
    assert state.edge_state[_TO_32] is ElementState.DISABLED
    assert state.edge_state[_TO_41] is ElementState.ENABLED
    assert "step4.1" in state.queued


def test_runs_leave_the_scenario_unchanged():
    """Outcomes may share the scenario's data; no run may change it."""
    scenario = load_scenario(FIG5_DIR, "dependency_issue")
    before = copy.deepcopy(scenario)
    bundle = load_bundle(FIG5_DIR)
    backend = ScriptedBackend.from_scenario(scenario)
    for k in (1, 2, 3, 4):
        result = run(bundle, backend, RunConfig(max_executors=k), incident=scenario["incident"])
        assert result.status is RunStatus.CONCLUDED
        assert any(ev.kind == "memory_put" for ev in result.trace)
    assert scenario == before


def test_unconditional_edges_must_enable():
    dag = linear_dag(2)
    state = RunState(dag, retry_limit=0)
    state.resolve_outgoing(START, ElementState.ENABLED, START)
    assert _start_next(state) == "step1"
    with pytest.raises(InvalidEdgeDecision):
        apply_outcome(state, "step1",
                      StepOutcome("success", edge_decisions={"edge_step1_step2": "disable"}))


def test_single_failure_exhausts_linear_run():
    dag = linear_dag(1)
    result = run(
        bundle_of(dag),
        scripted({"step1": [{"result": "failure", "latency": 2, "error": "boom"}]}),
        RunConfig(max_executors=1, retry_limit=0),
    )
    assert result.status is RunStatus.EXHAUSTED
    assert result.conclusion is None
    assert result.state.edge_state["edge_step1_end"] is ElementState.DISABLED
    kinds = [e.kind for e in result.trace]
    assert kinds == ["run_started", "edge_enabled", "node_started",
                     "node_failed", "edge_disabled", "run_terminated"]
    terminated = result.trace[-1]
    assert terminated.detail["failed"] == ["step1"]


@pytest.mark.parametrize("clock", ["virtual", "wall"])
def test_a_backend_that_does_not_implement_execute_fails_every_attempt(clock):
    result = run(bundle_of(linear_dag(2)), ExecutorBackend(),
                 RunConfig(retry_limit=1, clock=clock))
    assert result.status is RunStatus.EXHAUSTED
    failed = [ev.detail for ev in result.trace if ev.kind == "node_failed"]
    assert failed == [{"attempt": 1, "error": "NotImplementedError: ", "final": False},
                      {"attempt": 2, "error": "NotImplementedError: ", "final": True}]
    assert result.executed == ["step1"]
    assert result.trace[-1].detail == {"status": "exhausted", "failed": ["step1"],
                                       "disabled": ["step2"]}


def test_retry_then_success():
    dag = linear_dag(1)
    result = run(
        bundle_of(dag),
        scripted({"step1": [
            {"result": "failure", "latency": 1, "error": "flaky"},
            {"result": "success", "latency": 1,
             "edge_decisions": {"edge_step1_end": "enable"}},
        ]}),
        RunConfig(max_executors=1, retry_limit=1),
    )
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "finished"
    kinds = [e.kind for e in result.trace if e.subject == "step1"]
    assert kinds == ["node_started", "node_failed", "node_retried",
                     "node_started", "node_succeeded"]
    assert result.makespan == 2


def test_retries_exhausted_disable_downstream():
    dag = linear_dag(3)
    steps = {
        "step1": [{"result": "success", "latency": 1,
                   "edge_decisions": {"edge_step1_step2": "enable"}}],
        "step2": [{"result": "failure", "latency": 1, "error": "down"},
                  {"result": "failure", "latency": 1, "error": "down again"}],
        "step3": [{"result": "success", "latency": 1,
                   "edge_decisions": {"edge_step3_end": "enable"}}],
    }
    result = run(bundle_of(dag), scripted(steps), RunConfig(max_executors=1, retry_limit=1))
    assert result.status is RunStatus.EXHAUSTED
    assert result.state.node_state["step3"] is ElementState.DISABLED
    assert result.state.edge_state["edge_step3_end"] is ElementState.DISABLED
    started = [e for e in result.trace if e.kind == "node_started" and e.subject == "step2"]
    assert len(started) == 2  # 1 + retry_limit


def test_last_attempt_repeats_when_retried_beyond_script():
    dag = linear_dag(1)
    steps = {"step1": [{"result": "failure", "latency": 1, "error": "always"}]}
    result = run(bundle_of(dag), scripted(steps), RunConfig(max_executors=1, retry_limit=2))
    failures = [e for e in result.trace if e.kind == "node_failed"]
    assert len(failures) == 3  # attempts capped at 1 + retry_limit
    assert result.status is RunStatus.EXHAUSTED


def test_scenario_incomplete():
    dag = linear_dag(2)
    with pytest.raises(ScenarioIncomplete):
        run(bundle_of(dag), scripted({"step1": [
            {"result": "success", "latency": 1,
             "edge_decisions": {"edge_step1_step2": "enable"}}]}),
            RunConfig(max_executors=1))


class _Raising(ExecutorBackend):
    """A backend whose every step raises `error`."""

    def __init__(self, error: Exception):
        self.error = error

    def execute(self, ctx):
        raise self.error


@pytest.mark.parametrize("clock", ["virtual", "wall"])
@pytest.mark.parametrize("error", [
    PluginFailure("no fixture"), InvalidValue("bad cell"), ChildTimeout("no answer"),
    TemplateError("no template"),
], ids=lambda e: type(e).__name__)
def test_other_tsgflow_errors_from_a_backend_fail_the_step(clock, error):
    """Only EngineError and ScenarioIncomplete end a run: any other
    TsgflowError a backend raises fails its step, which is retried."""
    assert isinstance(error, TsgflowError)
    result = run(bundle_of(linear_dag(1)), _Raising(error),
                 RunConfig(max_executors=1, retry_limit=2, clock=clock))
    assert result.status is RunStatus.EXHAUSTED
    failed = [e.detail for e in result.trace if e.kind == "node_failed"]
    message = f"{type(error).__name__}: {error}"
    assert failed == [{"attempt": n, "error": message, "final": n == 3} for n in (1, 2, 3)]
    assert result.trace[-1].detail["failed"] == ["step1"]


@pytest.mark.parametrize("clock", ["virtual", "wall"])
@pytest.mark.parametrize("error", [BackendUnavailable("gone"), ScenarioIncomplete("unscripted")],
                         ids=lambda e: type(e).__name__)
def test_engine_and_scenario_errors_from_a_backend_end_the_run(clock, error):
    with pytest.raises(type(error), match=str(error)):
        run(bundle_of(linear_dag(1)), _Raising(error), RunConfig(max_executors=1, clock=clock))


@pytest.mark.parametrize("clock", ["virtual", "wall"])
@pytest.mark.parametrize("value", [None, {"result": "success"}], ids=["None", "dict"])
def test_a_backend_return_that_is_not_an_outcome_ends_the_run(clock, value):
    class Returns(ExecutorBackend):
        def execute(self, ctx):
            return value

    message = rf"^step1: backend returned {type(value).__name__}, not a StepOutcome$"
    with pytest.raises(EngineError, match=message):
        run(bundle_of(linear_dag(1)), Returns(), RunConfig(max_executors=1, clock=clock))


def _edge_outcome(ctx, duration) -> StepOutcome:
    return StepOutcome(result="success", duration=duration,
                       edge_decisions={e["id"]: "enable" for e in ctx.outgoing_edges})


@pytest.mark.parametrize("clock", ["virtual", "wall"])
@pytest.mark.parametrize("duration", ["2", -5.0, float("nan"), float("inf"), True, 10**400],
                         ids=["str", "negative", "nan", "inf", "bool", "past-float-range"])
def test_a_duration_that_is_not_a_finite_number_ends_the_run(clock, duration):
    class Lasts(ExecutorBackend):
        def execute(self, ctx):
            return _edge_outcome(ctx, duration)

    message = f"step1: duration must be a finite number >= 0, got {duration!r}"
    with pytest.raises(EngineError) as info:
        run(bundle_of(linear_dag(1)), Lasts(), RunConfig(max_executors=1, clock=clock))
    assert str(info.value) == message


@pytest.mark.parametrize("clock", ["virtual", "wall"])
@pytest.mark.parametrize("duration", [0, 0.0, 3, 2.5])
def test_a_finite_duration_is_accepted_on_both_clocks(clock, duration):
    class Lasts(ExecutorBackend):
        def execute(self, ctx):
            return _edge_outcome(ctx, duration)

    result = run(bundle_of(linear_dag(1)), Lasts(), RunConfig(max_executors=1, clock=clock))
    assert result.status == RunStatus.CONCLUDED
    if clock == "virtual":
        assert result.makespan == duration


def test_config_and_dag_validation(fig4_bundle):
    with pytest.raises(ConfigInvalid):
        run(bundle_of(fig4_bundle.dag), scripted({}), RunConfig(max_executors=0))
    broken = ExecutionDag(
        tsg_id="broken",
        nodes=[DagNode("start", "start", ""), DagNode("end", "end", "")],
        edges=[DagEdge("oops", "start", "end")],
    )
    with pytest.raises(InvalidDag):
        run(bundle_of(broken), scripted({}), RunConfig(max_executors=1))


@pytest.mark.parametrize("name,value", [
    ("max_executors", 2.5), ("max_executors", True), ("max_executors", "2"),
    ("max_executors", 0), ("retry_limit", 1.0), ("retry_limit", False), ("retry_limit", "0"),
    ("retry_limit", -1), ("retry_limit", None),
])
def test_run_config_counts_are_ints(name, value):
    with pytest.raises(ConfigInvalid, match=rf"^{name} must be an integer >= [01], got "):
        run(bundle_of(linear_dag(1)), scripted({}), RunConfig(**{name: value}))


def test_run_config_names_an_unknown_clock():
    with pytest.raises(ConfigInvalid, match=r"^clock must be 'virtual' or 'wall', got 'sundial'$"):
        run(bundle_of(linear_dag(1)), scripted({}), RunConfig(clock="sundial"))


def test_apply_outcome_refuses_a_result_other_than_success_or_failure():
    state = RunState(linear_dag(1), retry_limit=0)
    state.resolve_outgoing(START, ElementState.ENABLED, START)
    assert _start_next(state) == "step1"
    with pytest.raises(EngineError, match=r"^outcome result must be success or failure, got 'maybe'$"):
        apply_outcome(state, "step1", StepOutcome("maybe"))


def test_run_state_guards_its_invariants():
    """A node enqueued twice, an edge resolved twice and a node disabled
    twice each raise EngineError naming the element."""
    state = RunState(linear_dag(2), retry_limit=0)
    state.resolve_outgoing(START, ElementState.ENABLED, START)
    with pytest.raises(EngineError, match=r"^step1 enqueued twice for one enablement$"):
        state.enqueue("step1", 0)
    with pytest.raises(EngineError, match=r"^edge edge_start_step1 already resolved to enabled$"):
        state._resolve(state.compiled.edges["edge_start_step1"], ElementState.ENABLED, "start")
    state.disable_node("step2")
    assert state.node_state["step2"] is ElementState.DISABLED
    with pytest.raises(EngineError, match=r"^node step2 already resolved$"):
        state.disable_node("step2")


def test_dependency_issue_run(fig4_bundle, fig4_scenario):
    result = run(
        bundle_of(fig4_bundle.dag),
        ScriptedBackend.from_scenario(fig4_scenario),
        RunConfig(max_executors=1),
        incident=fig4_scenario["incident"],
    )
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "transfer to upstream team"
    assert result.executed == [
        "step1", "step2", "step3.1", "step3.2", "step3.3", "step3.4", "step4.1", "step4.2",
    ]
    assert "step5" not in result.executed
    assert result.makespan == 43


def test_parallel_makespans(fig5_bundle, fig5_scenario):
    makespans = {}
    for k in (1, 2, 3, 4, 5):
        result = run(
            bundle_of(fig5_bundle.dag),
            ScriptedBackend.from_scenario(fig5_scenario),
            RunConfig(max_executors=k),
        )
        assert result.status is RunStatus.CONCLUDED
        assert result.conclusion == "transfer to upstream team"
        makespans[k] = result.makespan
    assert makespans[1] == 35
    assert 22 <= makespans[2] <= 35
    assert makespans[3] == makespans[4] == makespans[5] == 22


def test_parallel_cancellation_mid_flight(fig5_bundle, fig5_scenario):
    result = run(
        bundle_of(fig5_bundle.dag),
        ScriptedBackend.from_scenario(fig5_scenario),
        RunConfig(max_executors=3),
    )
    cancelled = [e for e in result.trace if e.kind == "node_cancelled"]
    assert [e.subject for e in cancelled] == ["step3.4"]
    assert cancelled[0].detail["phase"] == "running"
    started_34 = next(e for e in result.trace if e.kind == "node_started" and e.subject == "step3.4")
    assert started_34.t == 22  # dispatched and cancelled within one instant
    terminated = result.trace[-1]
    assert terminated.kind == "run_terminated"
    assert all(e.kind != "node_started" for e in result.trace[result.trace.index(terminated):])


def test_queued_nodes_are_cancelled_by_enqueue_time_then_node_order():
    """At k=1, step1, step3, step9 and step10 are queued at t=0. step1 runs
    first and queues step2 at t=1; step3 runs next and concludes at t=2. The
    queued three are cancelled by (enqueue t, node_sort_key): step9 before
    step10 although "step10" sorts first as a string, and step2 last
    although its id sorts first."""
    steps = ["step1", "step2", "step3", "step9", "step10"]
    nodes = [DagNode("start", "start", "run start")]
    nodes += [DagNode(s, "step", s, step_ref=s[4:]) for s in steps]
    nodes.append(DagNode("end", "end", "run end"))
    edges = [DagEdge(edge_id("start", s), "start", s) for s in ("step10", "step9", "step3", "step1")]
    edges.append(DagEdge(edge_id("step1", "step2"), "step1", "step2"))
    edges += [DagEdge(edge_id(s, "end"), s, "end", None, f"via {s}") for s in steps[1:]]
    dag = ExecutionDag("queued_cancel", nodes, edges)
    script = {
        s: [{"result": "success", "latency": 1,
             "edge_decisions": {e.id: "enable" for e in edges if e.source == s}}]
        for s in steps
    }
    result = run(bundle_of(dag), scripted(script), RunConfig(max_executors=1))
    assert result.conclusion == "via step3" and result.executed == ["step1", "step3"]
    cancelled = [(e.t, e.subject, e.detail) for e in result.trace if e.kind == "node_cancelled"]
    assert cancelled == [(2, s, {"phase": "queued"}) for s in ("step9", "step10", "step2")]
    assert not (result.state.ready or result.state.queued or result.state.running)


def test_run_result_lists_the_cancelled_nodes_in_trace_order():
    """At k=2 step1 concludes at t=1 while step2 still runs and step3 and
    step4 wait: step2 is cancelled first, then the queued two."""
    steps = ["step1", "step2", "step3", "step4"]
    nodes = [DagNode("start", "start", "run start")]
    nodes += [DagNode(s, "step", s, step_ref=s[4:]) for s in steps]
    nodes.append(DagNode("end", "end", "run end"))
    edges = [DagEdge(edge_id("start", s), "start", s) for s in steps]
    edges += [DagEdge(edge_id(s, "end"), s, "end", None, f"via {s}") for s in steps]
    script = {s: [{"result": "success", "latency": 5 if s == "step2" else 1,
                   "edge_decisions": {edge_id(s, "end"): "enable"}}] for s in steps}
    result = run(bundle_of(ExecutionDag("cancel_order", nodes, edges)), scripted(script),
                 RunConfig(max_executors=2))
    assert result.conclusion == "via step1"
    events = [(e.subject, e.detail["phase"]) for e in result.trace if e.kind == "node_cancelled"]
    assert events == [("step2", "running"), ("step3", "queued"), ("step4", "queued")]
    assert result.cancelled == ["step2", "step3", "step4"]


def test_trace_determinism(fig5_bundle, fig5_scenario):
    def once():
        return run(
            bundle_of(fig5_bundle.dag),
            ScriptedBackend.from_scenario(fig5_scenario),
            RunConfig(max_executors=3),
        ).trace_jsonl()

    assert once() == once()


def test_state_monotonicity_over_traces(fig5_bundle, fig5_scenario):
    result = run(
        bundle_of(fig5_bundle.dag),
        ScriptedBackend.from_scenario(fig5_scenario),
        RunConfig(max_executors=2),
    )
    edge_events: dict[str, int] = {}
    node_resolutions: dict[str, int] = {}
    for event in result.trace:
        if event.kind in ("edge_enabled", "edge_disabled"):
            edge_events[event.subject] = edge_events.get(event.subject, 0) + 1
        if event.kind == "node_disabled":
            node_resolutions[event.subject] = node_resolutions.get(event.subject, 0) + 1
    assert all(count == 1 for count in edge_events.values())
    assert all(count == 1 for count in node_resolutions.values())
    seqs = [event.seq for event in result.trace]
    assert seqs == sorted(seqs) == list(range(len(result.trace)))


def test_single_execution_per_enablement():
    import random

    rng = random.Random(11)
    for _ in range(30):
        dag = random_scripted_dag(rng)
        assignment = success_assignments(dag)[0]
        steps = steps_from_assignment(assignment)
        result = run(bundle_of(dag), scripted(steps), RunConfig(max_executors=2))
        counts: dict[str, int] = {}
        for event in result.trace:
            if event.kind == "node_started":
                counts[event.subject] = counts.get(event.subject, 0) + 1
        assert all(count == 1 for count in counts.values())


def test_memory_writes_traced_and_refs_accumulate(fig4_bundle, fig4_scenario):
    result = run(
        bundle_of(fig4_bundle.dag),
        ScriptedBackend.from_scenario(fig4_scenario),
        RunConfig(max_executors=1),
        incident=fig4_scenario["incident"],
    )
    puts = [e for e in result.trace if e.kind == "memory_put"]
    assert [e.subject for e in puts] == ["top_exception", "deployment_id"]
    assert [r["key"] for r in result.state.memory_refs] == ["top_exception", "deployment_id"]


class _Writing(ExecutorBackend):
    """Each step puts the {key: value} that `writes` holds for its node and
    names `named[node]` in its outcome (by default the keys it wrote). Each
    context's node and refs go to `seen` as the step starts."""

    def __init__(self, writes: dict, named: dict | None = None):
        self.writes, self.named, self.seen = writes, named or {}, []

    def execute(self, ctx):
        self.seen.append((ctx.node_id, list(ctx.memory_refs)))
        writes = self.writes.get(ctx.node_id, {})
        for key, value in writes.items():
            ctx.store.put(key, value)
        return StepOutcome("success", edge_decisions={e["id"]: "enable" for e in ctx.outgoing_edges},
                           memory_writes=self.named.get(ctx.node_id, tuple(writes)), duration=1)


@pytest.mark.parametrize("clock", ["virtual", "wall"])
def test_a_key_an_outcome_names_but_no_step_wrote_raises_key_not_found(clock):
    backend = _Writing({"step1": {"made": 1}}, named={"step1": ("never", "made")})
    with pytest.raises(KeyNotFound) as info:
        run(bundle_of(linear_dag(2)), backend, RunConfig(clock=clock), run_id="run-1")
    assert info.value.key == "never" and str(info.value) == "no value stored under 'never'"
    assert [node for node, _ in backend.seen] == ["step1"]


@pytest.mark.parametrize("clock", ["virtual", "wall"])
def test_a_key_written_again_with_another_kind_is_reffed_with_each_kind(clock):
    backend = _Writing({"step1": {"k": 1}, "step2": {"k": Table(["n"], ["integer"], [[1]])},
                        "step3": {"k": [1, 2]}})
    result = run(bundle_of(linear_dag(4)), backend, RunConfig(clock=clock))
    refs = [{"key": "k", "kind": kind} for kind in ("scalar", "table", "list")]
    assert backend.seen == [("step1", []), ("step2", refs[:1]), ("step3", refs[:2]),
                            ("step4", refs)]
    assert result.state.memory_refs == refs


@pytest.mark.parametrize("clock", ["virtual", "wall"])
def test_a_key_an_earlier_run_wrote_under_the_same_run_id_is_reffed_from_the_store(clock):
    store = MemoryStore()
    run(bundle_of(linear_dag(1)), _Writing({"step1": {"k": {"a": 1}}}), RunConfig(clock=clock),
        store=store, run_id="same")
    backend = _Writing({}, named={"step1": ("k",)})
    result = run(bundle_of(linear_dag(2)), backend, RunConfig(clock=clock), store=store,
                 run_id="same")
    assert result.state.memory_refs == [{"key": "k", "kind": "record"}]
    assert backend.seen == [("step1", []), ("step2", [{"key": "k", "kind": "record"}])]
    with pytest.raises(KeyNotFound, match="^no value stored under 'k'$"):
        run(bundle_of(linear_dag(1)), _Writing({}, named={"step1": ("k",)}),
            RunConfig(clock=clock), store=store, run_id="other")


def test_failure_in_one_branch_does_not_block_conclusion(fig5_bundle, fig5_scenario):
    steps = {k: [dict(a) for a in v["attempts"]] for k, v in fig5_scenario["steps"].items()}
    scenario = {"steps": {k: {"attempts": v} for k, v in steps.items()}}
    scenario["steps"]["step2"] = {"attempts": [{"result": "failure", "latency": 5, "error": "kb down"}]}
    result = run(
        bundle_of(fig5_bundle.dag),
        ScriptedBackend.from_scenario(scenario),
        RunConfig(max_executors=3, retry_limit=0),
    )
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "transfer to upstream team"
    assert result.state.node_state["step2"] is ElementState.ENABLED
    assert "step2" in result.state.failed


def test_fan_out_multiple_conditional_edges_enabled():
    # a successful step may enable several conditional edges at once
    nodes = [
        DagNode("start", "start", ""),
        DagNode("step1", "step", "fan", step_ref="1"),
        DagNode("step2", "step", "a", step_ref="2"),
        DagNode("step3", "step", "b", step_ref="3"),
        DagNode("end", "end", ""),
    ]
    from tsgflow.dag import EdgeCondition

    edges = [
        DagEdge(edge_id("start", "step1"), "start", "step1"),
        DagEdge(edge_id("step1", "step2"), "step1", "step2", EdgeCondition("probe a", "Y")),
        DagEdge(edge_id("step1", "step3"), "step1", "step3", EdgeCondition("probe b", "Y")),
        DagEdge(edge_id("step2", "end"), "step2", "end", None, "via a"),
        DagEdge(edge_id("step3", "end"), "step3", "end", None, "via b"),
    ]
    dag = ExecutionDag("fan", nodes, edges)
    steps = {
        "step1": [{"result": "success", "latency": 1, "edge_decisions": {
            "edge_step1_step2": "enable", "edge_step1_step3": "enable"}}],
        "step2": [{"result": "success", "latency": 5, "edge_decisions": {"edge_step2_end": "enable"}}],
        "step3": [{"result": "success", "latency": 1, "edge_decisions": {"edge_step3_end": "enable"}}],
    }
    result = run(bundle_of(dag), scripted(steps), RunConfig(max_executors=2))
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "via b"  # step3 finishes first
    assert "step2" in result.cancelled


def test_final_failure_disables_long_chain():
    n = 3000
    dag = linear_dag(n)
    result = run(
        bundle_of(dag),
        scripted({"step1": [{"result": "failure", "latency": 1, "error": "down"}]}),
        RunConfig(max_executors=1, retry_limit=0),
    )
    assert result.status is RunStatus.EXHAUSTED
    terminated = result.trace[-1]
    assert terminated.detail["failed"] == ["step1"]
    assert terminated.detail["disabled"] == [f"step{i}" for i in range(2, n + 1)]
    kinds = [e.kind for e in result.trace[4:-1]]
    assert kinds == ["edge_disabled", "node_disabled"] * (n - 1) + ["edge_disabled"]


# -- compile once -------------------------------------------------------------

def _count_validations(monkeypatch) -> list:
    """Count validations: validate_dag and compile_dag both validate
    through tsgflow.dag._validate."""
    calls = []
    real = tsgflow.dag._validate
    monkeypatch.setattr(
        tsgflow.dag, "_validate", lambda dag, *index: calls.append(dag) or real(dag, *index)
    )
    return calls


def test_loaded_bundle_validated_once(monkeypatch, fig5_scenario):
    calls = _count_validations(monkeypatch)
    bundle = load_bundle(FIG5_DIR)
    for k in (1, 2, 3, 1):
        result = run(bundle, ScriptedBackend.from_scenario(fig5_scenario), RunConfig(max_executors=k))
        assert result.conclusion == "transfer to upstream team"
    assert len(calls) == 1


def test_hand_built_bundle_compiled_once_and_frozen(monkeypatch):
    calls = _count_validations(monkeypatch)
    bundle = bundle_of(linear_dag(2))
    assert len(calls) == 1  # compiled when built, before any run
    steps = {
        "step1": [{"result": "success", "edge_decisions": {"edge_step1_step2": "enable"}}],
        "step2": [{"result": "success", "edge_decisions": {"edge_step2_end": "enable"}}],
    }
    for _ in range(3):
        assert run(bundle, scripted(steps)).conclusion == "finished"
    assert len(calls) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.dag = linear_dag(1)
    assert bundle.compiled.dag is bundle.dag and len(bundle.compiled.nodes) == 4


def test_invalid_hand_built_bundle_raises_when_built():
    broken = ExecutionDag(
        tsg_id="broken",
        nodes=[DagNode("start", "start", ""), DagNode("end", "end", "")],
        edges=[DagEdge("oops", "start", "end")],
    )
    with pytest.raises(InvalidDag, match=r"malformed-edge-id\(oops\)") as raised:
        Bundle(doc=None, dag=broken)
    assert [(v.code, v.subject) for v in raised.value.violations] == [("malformed-edge-id", "oops")]
    with pytest.raises(InvalidDag, match=r"malformed-edge-id\(oops\)"):
        RunState(broken)


_REFS = [{"key": "top_exception", "kind": "scalar"}, {"key": "deployment_id", "kind": "scalar"}]

# per dispatch: node, history length, number of memory refs visible
_EXPECTED_CONTEXTS = {
    ("fig4", 1): [("step1", 0, 0), ("step2", 1, 1), ("step3.1", 2, 1), ("step3.2", 3, 2),
                  ("step3.3", 4, 2), ("step3.4", 5, 2), ("step4.1", 6, 2), ("step4.2", 7, 2)],
    ("fig5", 1): [("step1", 0, 0), ("step2", 1, 1), ("step3.1", 2, 1), ("step4.1", 3, 2),
                  ("step3.2", 4, 2), ("step4.2", 5, 2)],
    ("fig5", 3): [("step1", 0, 0), ("step2", 1, 1), ("step3.1", 1, 1), ("step4.1", 1, 1),
                  ("step3.2", 2, 2), ("step4.2", 4, 2), ("step3.3", 5, 2), ("step3.4", 6, 2)],
}
_EXPECTED_CONTEXTS[("fig4", 3)] = _EXPECTED_CONTEXTS[("fig4", 1)]


@pytest.mark.parametrize("fixture,k", sorted(_EXPECTED_CONTEXTS))
def test_step_contexts_of_fixture_runs(fixture, k, request):
    bundle = request.getfixturevalue(f"{fixture}_bundle")
    scenario = request.getfixturevalue(f"{fixture}_scenario")
    scripted_backend = ScriptedBackend.from_scenario(scenario)
    seen = []

    class Recording(ExecutorBackend):
        def execute(self, ctx):
            seen.append(ctx.to_obj())
            return scripted_backend.execute(ctx)

    result = run(bundle, Recording(), RunConfig(max_executors=k), incident=scenario["incident"])
    assert result.conclusion == "transfer to upstream team"
    expected = _EXPECTED_CONTEXTS[(fixture, k)]
    assert [(o["node"], len(o["history"]), len(o["memory_refs"])) for o in seen] == expected
    for obj in seen:
        step = bundle.doc.step(obj["step"]["id"])
        assert obj["node"] == f"step{step.id}"
        assert obj["step"] == {"id": step.id, "title": step.title, "text": step.body_text()}
        assert obj["memory_refs"] == _REFS[: len(obj["memory_refs"])]
        assert obj["templates"] == ["top_exceptions", "full_stack"]
        assert len(obj["plugins"]) == (6 if fixture == "fig4" else 0)
        assert obj["incident"] == scenario["incident"] and obj["attempt"] == 1
    assert seen[0]["step"]["text"].startswith(
        "\nPull the most frequent exception types from the service log"
    )


# -- step contexts: static parts, snapshots, cancel event -----------------------

def _recording(backend, seen):
    class Recording(ExecutorBackend):
        def execute(self, ctx):
            seen.append(ctx)
            return backend.execute(ctx)

    return Recording()


def test_context_snapshots_do_not_see_later_entries(fig4_bundle, fig4_scenario):
    seen = []
    result = run(fig4_bundle, _recording(ScriptedBackend.from_scenario(fig4_scenario), seen),
                 incident=fig4_scenario["incident"])
    history, refs = result.state.history, result.state.memory_refs
    assert (len(history), len(refs)) == (8, 2)
    first, second = seen[0], seen[1]
    assert len(first.history) == 0 and list(first.memory_refs) == []
    assert len(second.history) == 1 and second.history[-1] is history[0]  # shared, not copied
    assert second.history == [history[0]] and second.history[:5] == [history[0]]
    assert second.memory_refs == _REFS[:1] and second.memory_refs[0] is refs[0]
    with pytest.raises(IndexError):
        second.history[1]
    assert not hasattr(second.history, "append")
    assert second.to_obj()["history"] == [history[0]]
    assert type(second.to_obj()["history"]) is list


def test_snapshot_equality_and_repr():
    items = [{"node": "step1"}]
    snapshot = Snapshot(items)
    items.append({"node": "step2"})
    assert snapshot == [{"node": "step1"}] and snapshot == Snapshot(items[:1])
    assert snapshot != Snapshot(items)
    assert snapshot.__eq__(items[0]) is NotImplemented  # neither a Snapshot nor a list
    assert snapshot != {"node": "step1"} and snapshot != "step1"
    assert repr(snapshot) == "Snapshot([{'node': 'step1'}])"


class _NoSlicing(list):
    """A list whose slicing raises, so a view that copies a prefix fails."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            raise AssertionError(f"sliced with {index!r}")
        return super().__getitem__(index)


def test_snapshot_slices_read_only_the_items_they_name():
    items = _NoSlicing(range(7))
    snapshot = Snapshot(items)
    items += [7, 8]  # appended after the snapshot, so never seen
    seen = list(range(7))
    bounds = [None, -10, -7, -4, -1, 0, 1, 3, 6, 7, 12]
    for step in (None, 1, -1, 3, -3):
        for start in bounds:
            for stop in bounds:
                sl = slice(start, stop, step)
                got = snapshot[sl]
                assert type(got) is list and got == seen[sl], sl
    with pytest.raises(ValueError):
        snapshot[::0]


# -- trace columns ------------------------------------------------------------

def _is_atomic(value) -> bool:
    return type(value) in (str, int, float, bool, type(None))


def _events_of(result) -> list[TraceEvent]:
    """The run's events as a plain list, read back from its JSONL trace."""
    return [TraceEvent(**json.loads(line)) for line in result.trace_jsonl().splitlines()]


def test_trace_reads_as_the_list_of_its_events(fig5_bundle, fig5_scenario):
    result = run(fig5_bundle, ScriptedBackend.from_scenario(fig5_scenario),
                 RunConfig(max_executors=3))
    trace, events = result.trace, _events_of(result)
    n = len(events)
    assert type(trace) is Trace and len(trace) == n > 10
    assert list(trace) == events and list(reversed(trace)) == events[::-1]
    assert [ev.seq for ev in trace] == list(range(n))
    for i in range(-n, n):
        assert trace[i] == events[i], i
    for i in (n, n + 3, -n - 1, -n - 5):
        with pytest.raises(IndexError):
            trace[i]
    bounds = [None, -n - 3, -n, -n + 1, -4, -1, 0, 1, 3, n - 1, n, n + 5]
    for step in (None, 1, -1, 3, -3):
        for start in bounds:
            for stop in bounds:
                sl = slice(start, stop, step)
                got = trace[sl]
                assert type(got) is list and got == events[sl], sl
    with pytest.raises(ValueError):
        trace[::0]
    # each read builds a new event around the one detail dict the run emitted,
    # which the collector does not track while it holds only atomic values
    assert trace[3] is not trace[3] and trace[3].detail is trace[3].detail
    assert all(_is_atomic(v) for ev in trace for v in ev.detail.values())
    assert not any(gc.is_tracked(ev.detail) for ev in trace)
    assert result.status is RunStatus.CONCLUDED and result.makespan == trace[-1].t


def test_trace_compares_with_lists_both_ways_and_has_a_repr(fig5_bundle, fig5_scenario):
    def once() -> Trace:
        return run(fig5_bundle, ScriptedBackend.from_scenario(fig5_scenario),
                   RunConfig(max_executors=2)).trace

    trace = once()
    events = list(trace)
    assert trace == events and events == trace and trace == trace and trace == once()
    assert not trace != events and not events != trace
    assert trace != events[:-1] and events[:-1] != trace and trace != events[1:]
    assert trace != [] and [] != trace
    assert trace.__eq__(tuple(events)) is NotImplemented  # neither a Trace nor a list
    assert trace != tuple(events) and trace != events[0]
    assert repr(trace) == f"Trace({events!r})"
    assert trace.index(events[5]) == 5 and events[-1] in trace


def test_a_run_states_trace_sees_events_emitted_after_it_is_read():
    state = RunState(tsgflow.dag.compile_dag(linear_dag(1)))
    trace = state.trace
    assert len(trace) == 0 and trace == [] and repr(trace) == "Trace([])"
    state.emit("run_started", "run", {"clock": "virtual"})
    state.clock = 2
    state.emit("node_disabled", "step1", {"reason": "r"})
    assert trace == [TraceEvent(0, 0, "run_started", "run", {"clock": "virtual"}),
                     TraceEvent(2, 1, "node_disabled", "step1", {"reason": "r"})]
    assert state.trace is trace


def test_a_run_keeps_no_tracked_object_per_trace_event_and_is_freed_without_the_collector():
    n = 1000
    steps = {
        f"step{i}": [{
            "result": "success", "latency": 1,
            "edge_decisions": {edge_id(f"step{i}", f"step{i + 1}" if i < n else "end"): "enable"},
            **({"memory_writes": {f"key{i}": i}} if i % 100 == 0 else {}),
        }]
        for i in range(1, n + 1)
    }
    bundle = bundle_of(linear_dag(n))

    # held, so that none of them is freed and its id reused while the test runs
    earlier = [o for o in gc.get_objects() if type(o) is TraceEvent]

    def new_trace_events() -> int:
        ids = set(map(id, earlier))
        return sum(type(o) is TraceEvent and id(o) not in ids for o in gc.get_objects())

    result = run(bundle, scripted(steps), RunConfig(max_executors=2))
    assert result.status is RunStatus.CONCLUDED and result.conclusion == "finished"
    assert new_trace_events() == 0  # the run built no TraceEvent

    state = result.state
    columns = (state._trace_t, state._trace_kind, state._trace_subject, state._trace_detail)
    assert len(set(map(len, columns))) == 1 and len(result.trace) > 3 * n
    assert sum(1 for kind in state._trace_kind if kind == "memory_put") == n // 100
    assert all(_is_atomic(v) for detail in state._trace_detail for v in detail.values())
    assert not any(gc.is_tracked(item) for column in columns for item in column)

    events = list(result.trace)
    assert new_trace_events() == len(events)
    assert all(ev.detail is detail for ev, detail in zip(events, state._trace_detail))
    del events, columns, state, earlier

    freed = weakref.ref(result.state)
    enabled = gc.isenabled()
    gc.disable()
    try:
        collections = [s["collections"] for s in gc.get_stats()]
        del result
        assert freed() is None  # reference counting alone freed the run
        assert [s["collections"] for s in gc.get_stats()] == collections
    finally:
        if enabled:
            gc.enable()


def test_static_contexts_built_lazily_and_rebuilt_for_a_new_dag(monkeypatch):
    loaded = load_bundle(FIG5_DIR)
    assert loaded.static_contexts == {}  # loading builds no entry
    bundle = bundle_of(linear_dag(2))
    steps = {
        "step1": [{"result": "success", "edge_decisions": {"edge_step1_step2": "enable"}}],
        "step2": [{"result": "success", "edge_decisions": {"edge_step2_end": "enable"}}],
    }
    seen = []
    cache = bundle.static_contexts
    run(bundle, _recording(scripted(steps), seen))
    assert set(cache) == {"step1", "step2"}
    run(bundle, scripted(steps))
    assert bundle.static_contexts is cache  # two runs share one cache
    assert [dict(e) for e in seen[1].outgoing_edges] == [
        {"id": "edge_step2_end", "to": "end", "condition": None, "conclusion": "finished"}
    ]

    calls = _count_validations(monkeypatch)
    shorter = dataclasses.replace(bundle, dag=linear_dag(1, tsg_id="shorter"))
    assert len(calls) == 1 and shorter.compiled.dag is shorter.dag  # the new DAG is compiled
    assert shorter.static_contexts is not cache and shorter.static_contexts == {}
    seen.clear()
    one = {"step1": [{"result": "success", "edge_decisions": {"edge_step1_end": "enable"}}]}
    assert run(shorter, _recording(scripted(one), seen)).conclusion == "finished"
    assert set(shorter.static_contexts) == {"step1"}
    assert [e["id"] for e in seen[0].outgoing_edges] == ["edge_step1_end"]
    assert set(cache) == {"step1", "step2"} and bundle.dag.tsg_id == "linear"


def test_two_runs_of_one_bundle_see_equal_contexts(fig5_scenario):
    bundle = load_bundle(FIG5_DIR)
    runs = []
    for _ in range(2):
        seen = []
        run(bundle, _recording(ScriptedBackend.from_scenario(fig5_scenario), seen),
            RunConfig(max_executors=3), incident=fig5_scenario["incident"])
        runs.append(seen)
    assert [c.to_obj() for c in runs[0]] == [c.to_obj() for c in runs[1]]
    for a, b in zip(*runs):
        assert a.outgoing_edges is b.outgoing_edges  # shared by every run of the bundle
        assert a.cancel is not b.cancel
    assert all(c.cancel is runs[0][0].cancel for c in runs[0])  # one cancel event per run
    edge = next(e for c in runs[0] for e in c.outgoing_edges if e["condition"] is not None)
    assert set(edge["condition"]) == {"question", "label"}
    with pytest.raises(TypeError):
        edge["id"] = "renamed"
    with pytest.raises(AttributeError):
        edge.id = "renamed"
    with pytest.raises(AttributeError):
        edge["condition"].label = "N"

    # the entries are read-only mappingproxies over plain dicts
    assert list(edge) == ["id", "to", "condition", "conclusion"] and len(edge) == 4
    assert list(edge.keys()) == list(edge) and list(edge.values()) == [edge[k] for k in edge]
    with pytest.raises(KeyError):
        edge["from"]
    with pytest.raises(KeyError):
        edge["_values"]
    plain = {"id": edge["id"], "to": edge["to"],
             "condition": dict(edge["condition"]), "conclusion": edge["conclusion"]}
    assert edge == plain and plain == edge and dict(edge) == plain
    assert edge != {**plain, "to": "elsewhere"} and edge != dict(list(plain.items())[:3])
    condition = edge["condition"]
    assert list(condition) == ["question", "label"] and len(condition) == 2
    assert condition == {"question": condition["question"], "label": condition["label"]}
    for name in ("label", "_values", "extra"):
        with pytest.raises(AttributeError, match="'mappingproxy' object has no attribute"):
            setattr(condition, name, "N")
    assert condition["label"] in ("Y", "N")


def _count_edge_mappings(monkeypatch) -> list:
    """Count the mappingproxies the engine builds from here on."""
    built, real = [], tsgflow.engine.MappingProxyType

    def counting(mapping):
        built.append(mapping)
        return real(mapping)

    monkeypatch.setattr(tsgflow.engine, "MappingProxyType", counting)
    return built


def _edge_mappings(outgoing) -> int:
    """The mappingproxies a node's entries hold: one per edge, one per condition."""
    return len(outgoing) + sum(e.condition is not None for e in outgoing)


def test_a_scripted_run_of_a_fresh_bundle_builds_no_edge_entry(monkeypatch, fig5_scenario):
    built = _count_edge_mappings(monkeypatch)
    bundle = load_bundle(FIG5_DIR)
    seen = []
    result = run(bundle, _recording(ScriptedBackend.from_scenario(fig5_scenario), seen),
                 RunConfig(max_executors=2), incident=fig5_scenario["incident"])
    assert result.status is RunStatus.CONCLUDED and len(seen) > 3
    assert built == []
    # len() and truth read no entry
    assert [len(c.outgoing_edges) for c in seen] == [
        len(bundle.compiled.outgoing[c.node_id]) for c in seen]
    assert all(bool(c.outgoing_edges) for c in seen) and built == []

    outgoing = bundle.compiled.outgoing[seen[0].node_id]
    entries = list(seen[0].outgoing_edges)  # the first read builds the node's entries
    assert len(built) == _edge_mappings(outgoing)
    assert [e["id"] for e in entries] == [e.id for e in outgoing]
    assert seen[0].outgoing_edges[0] is entries[0] and len(built) == _edge_mappings(outgoing)


def test_a_reading_backend_builds_each_nodes_entries_once(monkeypatch, fig5_scenario):
    built = _count_edge_mappings(monkeypatch)
    bundle = load_bundle(FIG5_DIR)
    runs = []
    for _ in range(2):
        seen = []
        run(bundle, _recording(ScriptedBackend.from_scenario(fig5_scenario), seen),
            RunConfig(max_executors=2), incident=fig5_scenario["incident"])
        runs.append([(c.node_id, list(c.outgoing_edges)) for c in seen])
    nodes = {node_id for node_id, _ in runs[0]}
    assert len(built) == sum(_edge_mappings(bundle.compiled.outgoing[n]) for n in nodes)
    assert [n for n, _ in runs[0]] == [n for n, _ in runs[1]]
    for (_, first), (_, second) in zip(*runs):
        assert len(first) == len(second) and all(a is b for a, b in zip(first, second))


def test_outgoing_edges_slice_compare_and_repr():
    bundle = load_bundle(FIG5_DIR)
    node_id = max(bundle.compiled.outgoing, key=lambda n: len(bundle.compiled.outgoing[n]))
    edges = bundle.static_contexts[node_id][3]
    entries = tuple(edges)
    assert len(entries) >= 2
    assert edges[1:] == entries[1:] and edges[-1] is entries[-1] and edges[::-1] == entries[::-1]
    with pytest.raises(IndexError):
        edges[len(entries)]
    assert edges == entries and edges == list(entries) and edges == edges
    assert edges != entries[1:] and edges != [] and edges.__eq__(entries[0]) is NotImplemented
    assert repr(edges) == f"_OutgoingEdges({list(entries)!r})"
    assert edges.index(entries[1]) == 1 and entries[0] in edges
    assert [dict(e) for e in reversed(edges)] == [dict(e) for e in entries[::-1]]


def test_two_threads_reading_one_node_get_the_same_entries(monkeypatch):
    # each build sleeps, so the two threads' first reads overlap
    real_build = tsgflow.engine.MappingProxyType

    def slow(mapping):
        time.sleep(0.002)
        return real_build(mapping)

    monkeypatch.setattr(tsgflow.engine, "MappingProxyType", slow)
    real_view = tsgflow.engine._OutgoingEdges

    class SlowView(real_view):
        __slots__ = ()

        def __init__(self, edges):
            time.sleep(0.002)
            super().__init__(edges)

    monkeypatch.setattr(tsgflow.engine, "_OutgoingEdges", SlowView)
    for _ in range(3):
        bundle = load_bundle(FIG5_DIR)
        node_id = next(n for n, out in bundle.compiled.outgoing.items() if len(out) >= 2)
        barrier, got = threading.Barrier(2), [None, None]

        def read(i):
            barrier.wait(timeout=10)
            entry = bundle.static_contexts[node_id]
            got[i] = (entry, list(entry[3]))

        threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        (entry_a, entries_a), (entry_b, entries_b) = got
        assert entry_a is entry_b
        assert len(entries_a) >= 2 and all(a is b for a, b in zip(entries_a, entries_b))
