from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import BUNDLES
from test_engine import bundle_of, linear_dag
from tsgflow import linechild, load_bundle, load_scenario
from tsgflow.dag import DagEdge, DagNode, ExecutionDag, edge_id
from tsgflow.engine import (
    BackendUnavailable,
    CancelledSignal,
    EngineError,
    ExecutorBackend,
    ProcessBackend,
    RunConfig,
    RunStatus,
    ScriptedBackend,
    StepContext,
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


@pytest.mark.parametrize(
    "answer, problem",
    [
        ("[]", "not a JSON object: list"),
        ('{"result": "success", "duration": "5"}', "duration must be a finite number"),
        ('{"result": "success", "duration": true}', "duration must be a finite number"),
        ('{"result": "success", "duration": -1}', "duration must be a finite number"),
        ('{"result": "success", "duration": NaN}', "duration must be a finite number"),
        ('{"result": "done"}', "result must be success, failure or cancelled"),
        ('{"result": "success", "edge_decisions": []}', "edge_decisions must be an object"),
        ('{"result": "success", "memory_writes": "x"}', "memory_writes must be an object"),
        ('{"result": "success", "summary": 3}', "summary must be a string"),
        ('{"result": "failure", "error": null}', "error must be a string"),
    ],
)
def test_process_backend_bad_outcome_fails_step(answer, problem):
    code = f"import sys\nfor _ in sys.stdin:\n    print({answer!r}, flush=True)"
    backend = ProcessBackend([sys.executable, "-c", code])
    try:
        result = run(bundle_of(linear_dag(1)), backend, RunConfig(retry_limit=0))
    finally:
        backend.close()
    assert result.status is RunStatus.EXHAUSTED
    [failed] = [e for e in result.trace if e.kind == "node_failed"]
    assert failed.detail["error"].startswith(f"bad outcome line: {problem}")


# Reads requests and never answers; with a file argument, first writes its pid there.
HANG = (
    "import os, sys, time\n"
    "if len(sys.argv) > 1:\n"
    "    open(sys.argv[1], 'w').write(str(os.getpid()))\n"
    "sys.stdin.readline()\n"
    "time.sleep(60)\n"
)


def test_process_backend_hung_child_fails_by_deadline(monkeypatch):
    monkeypatch.setattr(linechild, "REQUEST_TIMEOUT_S", 0.5)
    backend = ProcessBackend([sys.executable, "-c", HANG])
    begun = time.monotonic()
    try:
        result = run(bundle_of(linear_dag(1)), backend, RunConfig(retry_limit=0))
    finally:
        backend.close()
    # deadline, then the grace period before the kill, plus slack for a loaded host
    assert time.monotonic() - begun < 0.5 + linechild.CLOSE_GRACE_S + 2
    assert result.status is RunStatus.EXHAUSTED
    [failed] = [e for e in result.trace if e.kind == "node_failed"]
    assert failed.detail["error"] == "ChildTimeout: timed out after 0.5 s"


def test_process_backend_cancel_mid_request(tmp_path):
    pid_file = tmp_path / "pid"
    backend = ProcessBackend([sys.executable, "-c", HANG, str(pid_file)])
    ctx = StepContext(
        run_id="r", node_id="step1", step_id="1", step_title="", step_text="",
        incident={}, outgoing_edges=[], history=[], plugins=[], templates=[],
        memory_refs=[], attempt=1,
    )

    def cancel_once_started():
        while not pid_file.exists() and time.monotonic() - begun < 10:
            time.sleep(0.01)
        ctx.cancel.set()

    begun = time.monotonic()
    canceller = threading.Thread(target=cancel_once_started)
    canceller.start()
    try:
        outcome = backend.execute(ctx)
    finally:
        canceller.join(timeout=15)
        backend.close()
    assert isinstance(outcome, CancelledSignal)
    assert time.monotonic() - begun < 10  # the deadline is 60 s
    assert not canceller.is_alive()
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


def test_process_backend_restarts_after_timeout(monkeypatch, tmp_path):
    """The first child hangs; the retry runs in a second child that answers."""
    monkeypatch.setattr(linechild, "REQUEST_TIMEOUT_S", 0.5)
    pids = tmp_path / "pids"
    code = (
        "import json, os, sys, time\n"
        "log = sys.argv[1]\n"
        "with open(log, 'a') as f:\n"
        "    f.write(f'{os.getpid()}\\n')\n"
        "first = len(open(log).read().split()) == 1\n"
        "for line in sys.stdin:\n"
        "    if first:\n"
        "        time.sleep(60)\n"
        "    edges = json.loads(line)['outgoing_edges']\n"
        "    decisions = {e['id']: 'enable' for e in edges}\n"
        "    print(json.dumps({'result': 'success', 'edge_decisions': decisions}), flush=True)\n"
    )
    backend = ProcessBackend([sys.executable, "-c", code, str(pids)])
    try:
        result = run(bundle_of(linear_dag(1)), backend, RunConfig(retry_limit=1))
    finally:
        backend.close()
    assert result.status is RunStatus.CONCLUDED
    kinds = [e.kind for e in result.trace if e.subject == "step1"]
    assert kinds == ["node_started", "node_failed", "node_retried", "node_started", "node_succeeded"]
    assert len(set(pids.read_text().split())) == 2


def _scaled(scenario: dict, factor: float) -> dict:
    steps = {}
    for node, spec in scenario["steps"].items():
        attempts = [dict(a, latency=a.get("latency", 0) * factor) for a in spec["attempts"]]
        steps[node] = {"attempts": attempts}
    return {"incident": scenario.get("incident"), "steps": steps}


def test_wall_clock_parallel_run(fig5_bundle, fig5_scenario):
    scenario = _scaled(fig5_scenario, 0.01)
    backend = ScriptedBackend.from_scenario(scenario)
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
    backend = ScriptedBackend.from_scenario(scenario)
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
    backend = ScriptedBackend.from_scenario({"steps": steps})
    result = run(bundle_of(dag), backend, RunConfig(max_executors=1, retry_limit=1, clock="wall"))
    assert result.status is RunStatus.CONCLUDED
    kinds = [e.kind for e in result.trace if e.subject == "step1"]
    assert kinds == ["node_started", "node_failed", "node_retried", "node_started", "node_succeeded"]


def test_wall_clock_engine_error_propagates():
    dag = linear_dag(2)
    backend = ScriptedBackend.from_scenario(
        {"steps": {"step1": {"attempts": [
            {"result": "success", "latency": 0.01,
             "edge_decisions": {"edge_step1_step2": "enable"}}]}}}
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
    inner = ScriptedBackend.from_scenario({"steps": steps})
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


@pytest.mark.parametrize("bundle_dir", sorted(BUNDLES.iterdir()), ids=lambda p: p.name)
def test_wall_clock_at_one_executor_replays_the_virtual_trace(bundle_dir):
    """At k=1 nothing runs concurrently, so both clocks give one event
    order; only measured durations and the recorded clock differ."""
    bundle = load_bundle(bundle_dir)

    def events(scenario, clock):
        result = run(bundle, ScriptedBackend.from_scenario(scenario),
                     RunConfig(max_executors=1, clock=clock), incident=scenario["incident"])
        return [(e.kind, e.subject,
                 {k: v for k, v in e.detail.items() if k not in ("duration", "clock")})
                for e in result.trace]

    for path in sorted((bundle_dir / "scenarios").glob("*.json")):
        scenario = _scaled(load_scenario(bundle_dir, str(path)), 0.001)
        assert events(scenario, "wall") == events(scenario, "virtual")


def test_scripted_latency_follows_the_run_clock():
    def timed(latency, clock):
        attempt = {"result": "success", "latency": latency,
                   "edge_decisions": {"edge_step1_end": "enable"}}
        backend = ScriptedBackend.from_scenario({"steps": {"step1": [attempt]}})
        begun = time.monotonic()
        result = run(bundle_of(linear_dag(1)), backend, RunConfig(clock=clock))
        assert result.status is RunStatus.CONCLUDED
        return time.monotonic() - begun, result.makespan

    elapsed, makespan = timed(0.2, "wall")
    assert elapsed >= 0.2 and makespan >= 0.2
    elapsed, makespan = timed(30, "virtual")
    assert elapsed < 1 and makespan == 30


@pytest.mark.parametrize("clock", ["virtual", "wall"])
def test_unrequested_cancel_marker_is_an_engine_error(clock):
    class CancelsUnasked(ExecutorBackend):
        def execute(self, ctx):
            return CancelledSignal()

    with pytest.raises(EngineError, match="step1: backend returned a cancel marker unrequested"):
        run(bundle_of(linear_dag(1)), CancelsUnasked(), RunConfig(clock=clock))
