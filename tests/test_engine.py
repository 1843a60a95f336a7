from __future__ import annotations

import copy

import pytest

import tsgflow.dag
from conftest import FIG5_DIR
from randdag import random_scripted_dag, steps_from_assignment, success_assignments
from tsgflow.backends import ScriptedBackend
from tsgflow.dag import DagEdge, DagNode, ExecutionDag, edge_id
from tsgflow.engine import (
    BackendUnavailable,
    Bundle,
    ConfigInvalid,
    DagInvalid,
    ElementState,
    ExecutorBackend,
    IncompleteEdgeDecisions,
    InvalidEdgeDecision,
    RunConfig,
    RunState,
    RunStatus,
    StaleOutcome,
    StepOutcome,
    UnknownNode,
    _complete_start,
    apply_outcome,
    run,
)
from tsgflow.errors import TsgflowError
from tsgflow.harness import load_bundle, load_scenario
from tsgflow.linechild import ChildTimeout
from tsgflow.memory import InvalidValue
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

def _state_with_running(dag, path):
    """Drive the run state through `path` so the last node is running."""
    state = RunState(dag, retry_limit=2)
    _complete_start(state)
    for node_id, decisions in path[:-1]:
        popped = state.pop_ready()
        assert popped == node_id
        state.mark_running(node_id)
        apply_outcome(state, node_id, StepOutcome("success", edge_decisions=decisions))
    last = path[-1][0]
    popped = state.pop_ready()
    assert popped == last
    state.mark_running(last)
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
    _complete_start(state)
    state.pop_ready()
    state.mark_running("step1")
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


def test_config_and_dag_validation(fig4_bundle):
    with pytest.raises(ConfigInvalid):
        run(bundle_of(fig4_bundle.dag), scripted({}), RunConfig(max_executors=0))
    broken = ExecutionDag(
        tsg_id="broken",
        nodes=[DagNode("start", "start", ""), DagNode("end", "end", "")],
        edges=[DagEdge("oops", "start", "end")],
    )
    with pytest.raises(DagInvalid):
        run(bundle_of(broken), scripted({}), RunConfig(max_executors=1))


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
    assert [r.key for r in result.state.memory_refs] == ["top_exception", "deployment_id"]


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


def test_hand_built_bundle_compiled_on_first_run(monkeypatch):
    calls = _count_validations(monkeypatch)
    bundle = bundle_of(linear_dag(2))
    steps = {
        "step1": [{"result": "success", "edge_decisions": {"edge_step1_step2": "enable"}}],
        "step2": [{"result": "success", "edge_decisions": {"edge_step2_end": "enable"}}],
    }
    for _ in range(3):
        assert run(bundle, scripted(steps)).conclusion == "finished"
    assert len(calls) == 1
    bundle.dag = linear_dag(1)  # a replaced DAG is compiled afresh
    with pytest.raises(ScenarioIncomplete):
        run(bundle, scripted({}))
    assert len(calls) == 2


def test_invalid_hand_built_bundle_raises_on_every_run():
    broken = ExecutionDag(
        tsg_id="broken",
        nodes=[DagNode("start", "start", ""), DagNode("end", "end", "")],
        edges=[DagEdge("oops", "start", "end")],
    )
    bundle = bundle_of(broken)
    for _ in range(3):
        with pytest.raises(DagInvalid, match=r"malformed-edge-id\(oops\)"):
            run(bundle, scripted({}), RunConfig(max_executors=1))


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
    history, refs = result.state.history, result.state.memory_ref_entries
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


def test_static_contexts_built_lazily_and_rebuilt_for_a_new_dag():
    assert load_bundle(FIG5_DIR).static_contexts is None  # loading builds no entry
    bundle = bundle_of(linear_dag(2))
    steps = {
        "step1": [{"result": "success", "edge_decisions": {"edge_step1_step2": "enable"}}],
        "step2": [{"result": "success", "edge_decisions": {"edge_step2_end": "enable"}}],
    }
    seen = []
    run(bundle, _recording(scripted(steps), seen))
    cache = bundle.static_contexts
    assert set(cache) == {"step1", "step2"}
    run(bundle, scripted(steps))
    assert bundle.static_contexts is cache
    assert [dict(e) for e in seen[1].outgoing_edges] == [
        {"id": "edge_step2_end", "to": "end", "condition": None, "conclusion": "finished"}
    ]

    bundle.dag = linear_dag(1, tsg_id="shorter")
    seen.clear()
    one = {"step1": [{"result": "success", "edge_decisions": {"edge_step1_end": "enable"}}]}
    assert run(bundle, _recording(scripted(one), seen)).conclusion == "finished"
    assert bundle.static_contexts is not cache and set(bundle.static_contexts) == {"step1"}
    assert [e["id"] for e in seen[0].outgoing_edges] == ["edge_step1_end"]


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
