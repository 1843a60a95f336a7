from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from test_engine import bundle_of, linear_dag
from tsgflow.dag import DagEdge, DagNode, ExecutionDag, edge_id
from tsgflow.engine import (
    BackendUnavailable,
    CancelledSignal,
    ExecutorBackend,
    ProcessBackend,
    RunConfig,
    RunStatus,
    ScriptedBackend,
    StepOutcome,
    run,
)

LOOPBACK = Path(__file__).parent / "fixtures" / "loopback_backend.py"


def test_process_backend_loopback():
    dag = linear_dag(3, tsg_id="loopback")
    backend = ProcessBackend([sys.executable, str(LOOPBACK)])
    try:
        result = run(bundle_of(dag), backend, RunConfig(max_executors=1))
    finally:
        backend.close()
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "finished"
    assert result.executed == ["step1", "step2", "step3"]
    enabled = {e.subject for e in result.trace if e.kind == "edge_enabled"}
    assert enabled == {eid.id for eid in dag.edges}  # every unconditional edge enabled
    # write-back path: the child returned memory writes, the engine applied them
    puts = [e.subject for e in result.trace if e.kind == "memory_put"]
    assert puts == ["echo.step1", "echo.step2", "echo.step3"]
    assert result.makespan == 3


def test_process_backend_unavailable():
    dag = linear_dag(1)
    backend = ProcessBackend(["/does/not/exist-binary"])
    with pytest.raises(BackendUnavailable):
        run(bundle_of(dag), backend, RunConfig(max_executors=1))


def test_process_backend_child_crash_is_failure():
    dag = linear_dag(1)
    backend = ProcessBackend([sys.executable, "-c", "import sys; sys.exit(0)"])
    try:
        result = run(bundle_of(dag), backend, RunConfig(max_executors=1, retry_limit=0))
    finally:
        backend.close()
    assert result.status is RunStatus.EXHAUSTED
    failed = [e for e in result.trace if e.kind == "node_failed"]
    assert failed and "closed its output" in failed[0].detail["error"]


def _scaled(scenario: dict, factor: float) -> dict:
    steps = {}
    for node, spec in scenario["steps"].items():
        attempts = [dict(a, latency=a.get("latency", 0) * factor) for a in spec["attempts"]]
        steps[node] = {"attempts": attempts}
    return {"incident": scenario.get("incident"), "steps": steps}


def test_wall_clock_parallel_run(fig5_bundle, fig5_scenario):
    scenario = _scaled(fig5_scenario, 0.01)
    backend = ScriptedBackend.from_scenario(scenario, wall=True)
    result = run(
        bundle_of(fig5_bundle.dag),
        backend,
        RunConfig(max_executors=3, clock="wall"),
        incident=scenario["incident"],
    )
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "transfer to upstream team"
    assert set(result.executed) >= {"step1", "step2", "step3.1", "step4.1", "step4.2"}
    # genuinely parallel: three branch roots overlap, so the run beats the serial sum
    assert result.makespan < 0.35


def test_wall_clock_cancellation_event(fig5_bundle, fig5_scenario):
    scenario = _scaled(fig5_scenario, 0.02)
    backend = ScriptedBackend.from_scenario(scenario, wall=True)
    result = run(
        bundle_of(fig5_bundle.dag), backend,
        RunConfig(max_executors=3, clock="wall"),
    )
    assert result.status is RunStatus.CONCLUDED
    for event in result.trace:
        if event.kind == "node_cancelled":
            assert event.detail["phase"] in ("running", "queued")
    terminated = result.trace[-1]
    assert terminated.kind == "run_terminated"


def test_wall_clock_retry():
    dag = linear_dag(1)
    steps = {"step1": [
        {"result": "failure", "latency": 0.01, "error": "flaky"},
        {"result": "success", "latency": 0.01, "edge_decisions": {"edge_step1_end": "enable"}},
    ]}
    backend = ScriptedBackend.from_scenario({"steps": steps}, wall=True)
    result = run(bundle_of(dag), backend, RunConfig(max_executors=1, retry_limit=1, clock="wall"))
    assert result.status is RunStatus.CONCLUDED
    kinds = [e.kind for e in result.trace if e.subject == "step1"]
    assert kinds == ["node_started", "node_failed", "node_retried", "node_started", "node_succeeded"]


def test_wall_clock_engine_error_propagates():
    dag = linear_dag(2)
    backend = ScriptedBackend.from_scenario(
        {"steps": {"step1": {"attempts": [
            {"result": "success", "latency": 0.01,
             "edge_decisions": {"edge_step1_step2": "enable"}}]}}},
        wall=True,
    )
    import pytest as _pytest

    from tsgflow.engine import ScenarioIncomplete

    with _pytest.raises(ScenarioIncomplete):
        run(bundle_of(dag), backend, RunConfig(max_executors=1, clock="wall"))


def test_wall_clock_conclusion_cancels_only_running_nodes():
    """k=2 over three parallel steps: step1 concludes while step2 runs and
    step3 waits in the queue. Only step2 sees the run's cancel event."""
    nodes = [DagNode("start", "start", "run start")]
    edges = []
    for i in (1, 2, 3):
        step = f"step{i}"
        nodes.append(DagNode(step, "step", step, step_ref=str(i)))
        edges += [DagEdge(edge_id("start", step), "start", step),
                  DagEdge(edge_id(step, "end"), step, "end", None, f"via {step}")]
    dag = ExecutionDag("parallel", nodes + [DagNode("end", "end", "run end")], edges)
    steps = {
        step: [{"result": "success", "latency": latency,
                "edge_decisions": {edge_id(step, "end"): "enable"}}]
        for step, latency in (("step1", 0.05), ("step2", 30), ("step3", 30))
    }
    inner = ScriptedBackend.from_scenario({"steps": steps}, wall=True)
    returned = {}
    step2_done = threading.Event()

    class Recording(ExecutorBackend):
        def execute(self, ctx):
            outcome = inner.execute(ctx)
            returned[ctx.node_id] = outcome
            if ctx.node_id == "step2":
                step2_done.set()
            return outcome

    result = run(bundle_of(dag), Recording(), RunConfig(max_executors=2, clock="wall"))
    assert result.conclusion == "via step1"
    cancelled = [(e.subject, e.detail["phase"]) for e in result.trace if e.kind == "node_cancelled"]
    assert cancelled == [("step2", "running"), ("step3", "queued")]
    assert step2_done.wait(timeout=5)  # it returned long before its 30 s latency
    assert isinstance(returned["step1"], StepOutcome)
    assert isinstance(returned["step2"], CancelledSignal)
    assert "step3" not in returned
