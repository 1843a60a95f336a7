from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import BUNDLES
from test_engine import bundle_of, linear_dag
from tsgflow import linechild, load_bundle, load_scenario
from tsgflow.backends import ProcessBackend, ScriptedBackend
from tsgflow.dag import DagEdge, DagNode, ExecutionDag, edge_id
from tsgflow.engine import (
    BackendUnavailable,
    CancelledSignal,
    EngineError,
    ExecutorBackend,
    RunConfig,
    RunStatus,
    StepContext,
    StepOutcome,
    run,
)
from tsgflow import memory
from tsgflow.memory import InvalidValue, KeyNotFound, MemoryStore, RunScope
from tsgflow.scenario import ScenarioIncomplete, ScenarioInvalid

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


# the child enables every edge, so wall-clock branches at k >= 2 race into end
@pytest.mark.parametrize(("clock", "k"), [("virtual", 3), ("wall", 1)])
def test_process_backend_sends_a_lone_surrogate_as_its_json_escape(fig5_bundle, fig5_scenario,
                                                                    clock, k):
    """A `\\ud800` escape in an incident decodes to a lone surrogate, which
    no UTF-8 line can hold; the request line writes it as that escape, so
    the run concludes as one whose incident holds plain text."""
    def run_with(note):
        backend = ProcessBackend([sys.executable, str(LOOPBACK)])
        incident = {**fig5_scenario["incident"], "note": note}
        try:
            return run(fig5_bundle, backend, RunConfig(max_executors=k, clock=clock),
                       incident=incident)
        finally:
            backend.close()

    plain, surrogate = run_with("caf\u00e9"), run_with("\ud800")
    assert (plain.status, plain.conclusion) == (RunStatus.CONCLUDED, "known issue")
    assert (surrogate.status, surrogate.conclusion) == (plain.status, plain.conclusion)
    assert not [ev for ev in surrogate.trace if ev.kind == "node_failed"]


ECHO_NOTE = """
import json, sys
for line in sys.stdin:
    ctx = json.loads(line)
    decisions = {edge["id"]: "enable" for edge in ctx["outgoing_edges"]}
    outcome = {"result": "success", "summary": ctx["incident"]["note"], "edge_decisions": decisions}
    print(json.dumps(outcome), flush=True)
"""


def test_process_backend_child_reads_back_a_lone_surrogate():
    note = "a\ud800b\\\udc00 caf\u00e9"  # a backslash before a surrogate stays a backslash
    backend = ProcessBackend([sys.executable, "-c", ECHO_NOTE])
    try:
        result = run(bundle_of(linear_dag(1)), backend, incident={"note": note})
    finally:
        backend.close()
    assert result.status is RunStatus.CONCLUDED
    assert result.state.history[0]["summary"] == note


def two_pass_request(obj: dict) -> bytes:
    """The request bytes as ProcessBackend wrote them while it escaped each
    lone surrogate itself (one encode and decode) and LineChild then
    encoded the line again."""
    request = json.dumps(obj, ensure_ascii=False)
    request = request.encode("utf-8", "backslashreplace").decode("utf-8")
    return (request + "\n").encode()


# answers success, with the hex of the request line's bytes as its summary
ECHO_REQUEST = """
import json, sys
for line in sys.stdin.buffer:
    ctx = json.loads(line)
    decisions = {edge["id"]: "enable" for edge in ctx["outgoing_edges"]}
    print(json.dumps({"summary": line.hex(), "result": "success", "edge_decisions": decisions}),
          flush=True)
"""


@pytest.mark.parametrize("note", ["plain", "caf\u00e9 \u2028", "a\ud800b\\\udc00"])
def test_process_backend_request_bytes_are_the_two_pass_ones(note):
    """One encode in the line client gives the bytes the former two passes
    gave, for contexts with and without a lone surrogate."""
    sent = []

    class Recording(ProcessBackend):
        def execute(self, ctx):
            sent.append(ctx.to_obj())
            return super().execute(ctx)

    backend = Recording([sys.executable, "-c", ECHO_REQUEST])
    try:
        result = run(bundle_of(linear_dag(2)), backend, incident={"note": note})
    finally:
        backend.close()
    assert result.status is RunStatus.CONCLUDED and len(sent) == 2
    for obj, step in zip(sent, result.state.history):
        assert bytes.fromhex(step["summary"]) == two_pass_request(obj)


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
        ('{"result": "done"}', "result must be success or failure"),
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


@pytest.mark.parametrize("clock", ["virtual", "wall"])
def test_process_backend_cancelled_answer_fails_its_step_and_the_run_ends(clock):
    """A child never answers a cancel (a cancel closes it), so a "cancelled"
    answer is a bad outcome line: each attempt of its step fails, and the run
    ends exhausted instead of raising EngineError."""
    code = """import sys\nfor _ in sys.stdin:\n    print('{"result": "cancelled"}', flush=True)"""
    backend = ProcessBackend([sys.executable, "-c", code])
    try:
        result = run(bundle_of(linear_dag(2)), backend,
                     RunConfig(max_executors=2, retry_limit=1, clock=clock))
    finally:
        backend.close()
    assert result.status is RunStatus.EXHAUSTED
    assert result.executed == ["step1"] and result.cancelled == []
    failed = [e.detail["error"] for e in result.trace if e.kind == "node_failed"]
    assert failed == ["bad outcome line: result must be success or failure, got 'cancelled'"] * 2


def test_process_backend_duration_past_the_float_range_fails_step(monkeypatch):
    """An integer duration too large for a float is a bad outcome line, not
    an OverflowError from the finiteness test."""
    backend = ProcessBackend(["never-started"])
    answer = '{"result": "success", "duration": 1%s}' % ("0" * 400)
    monkeypatch.setattr(linechild.LineChild, "request", lambda self, line, cancel=None: answer)
    result = run(bundle_of(linear_dag(1)), backend, RunConfig(retry_limit=0))
    [failed] = [e for e in result.trace if e.kind == "node_failed"]
    assert failed.detail["error"].startswith("bad outcome line: duration must be a finite number")


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

    from tsgflow.scenario import ScenarioIncomplete

    with _pytest.raises(ScenarioIncomplete):
        run(bundle_of(dag), backend, RunConfig(max_executors=1, clock="wall"))


def test_wall_clock_run_that_raises_cancels_its_running_steps():
    """k=2: step1 has no attempts, so run() raises while step2 waits out a
    3 s latency. The raise cancels the run, step2 returns at once, and every
    worker thread the run started exits within about 1 s."""
    nodes = [DagNode("start", "start", "run start")]
    edges = []
    for step in ("step1", "step2"):
        nodes.append(DagNode(step, "step", step, step_ref=step[4:]))
        edges += [DagEdge(edge_id("start", step), "start", step),
                  DagEdge(edge_id(step, "end"), step, "end", None, f"via {step}")]
    dag = ExecutionDag("raising", nodes + [DagNode("end", "end", "run end")], edges)
    inner = ScriptedBackend.from_scenario({"steps": {"step2": [
        {"result": "success", "latency": 3, "edge_decisions": {"edge_step2_end": "enable"}}]}})
    step2_thread = []
    step2_started = threading.Event()

    class Recording(ExecutorBackend):
        def execute(self, ctx):
            if ctx.node_id == "step2":
                step2_thread.append(threading.current_thread())
                step2_started.set()
            return inner.execute(ctx)

    before = set(threading.enumerate())
    with pytest.raises(ScenarioIncomplete, match="step1"):
        run(bundle_of(dag), Recording(), RunConfig(max_executors=2, clock="wall"))
    assert step2_started.wait(timeout=1)
    step2_thread[0].join(timeout=1)
    assert not step2_thread[0].is_alive()
    started = set(threading.enumerate()) - before
    assert len(started | set(step2_thread)) <= 2
    deadline = time.monotonic() + 1
    for thread in started:
        thread.join(timeout=max(0, deadline - time.monotonic()))
        assert not thread.is_alive()


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


def test_scripted_attempts_write_memory_whatever_their_result():
    """A failed attempt puts its writes too, but names no keys, so the
    trace has no memory_put and the contexts no ref for them; the n-th run
    of a step replays its n-th attempt and the last one repeats."""
    attempts = [
        {"result": "failure", "error": "first", "memory_writes": {"tried": 1, "at": "t1"}},
        {"result": "failure", "error": "second", "memory_writes": {"tried": 2}},
        {"result": "success", "edge_decisions": {"edge_step1_end": "enable"},
         "memory_writes": {"found": "yes"}},
    ]
    backend = ScriptedBackend.from_scenario({"steps": {"step1": attempts}})
    store = MemoryStore()
    result = run(bundle_of(linear_dag(1)), backend, RunConfig(retry_limit=2), store=store,
                 run_id="r")
    assert result.status is RunStatus.CONCLUDED
    assert {k: store.get(k).payload for k in store.keys()} == {
        "r::at": "t1", "r::found": "yes", "r::tried": 2}
    assert [(ev.kind, ev.subject) for ev in result.trace if ev.kind == "memory_put"] == [
        ("memory_put", "found")]
    assert [ref["key"] for ref in result.state.memory_refs] == ["found"]
    errors = [ev.detail["error"] for ev in result.trace if ev.kind == "node_failed"]
    assert errors == ["first", "second"]
    backend = ScriptedBackend.from_scenario({"steps": {"step1": attempts[:2]}})
    result = run(bundle_of(linear_dag(1)), backend, RunConfig(retry_limit=3))
    errors = [ev.detail["error"] for ev in result.trace if ev.kind == "node_failed"]
    assert result.status is RunStatus.EXHAUSTED and errors == ["first", "second", "second", "second"]

    failed = {"result": "failure", "error": "x", "latency": 3, "memory_writes": {"t": [1, 2]}}
    scope = RunScope(MemoryStore(), "r")
    ctx = StepContext("r", "step1", "1", "", "", {}, [], [], [], [], [], 1, scope)
    outcome = ScriptedBackend.from_scenario({"steps": {"step1": [failed]}}).execute(ctx)
    assert outcome == StepOutcome("failure", "", None, (), "x", 3)
    assert scope.get("t").payload == [1, 2]
    with pytest.raises(InvalidValue):  # the engine fails the step with it
        ScriptedBackend.from_scenario(
            {"steps": {"step1": [dict(failed, memory_writes={"t": [[1]]})]}}).execute(ctx)


def test_scripted_writes_reach_the_store_put_and_build_only_its_refs(monkeypatch):
    """A step's memory writes go through the underlying store's put, one key
    at a time in key order; the scope records a key's kind only once that put
    succeeds; and no short-key ref is built beside each one the store returns,
    while RunScope.put still returns one."""
    class Recording(MemoryStore):
        def __init__(self):
            super().__init__()
            self.keys = []

        def put(self, key, value):
            if key.endswith("::bad"):
                raise OSError("disk full")
            self.keys.append(key)
            return super().put(key, value)

    built = []

    class CountedRef(memory.MemoryRef):
        def __init__(self, key, kind, value):
            built.append(key)
            super().__init__(key, kind, value)

    monkeypatch.setattr(memory, "MemoryRef", CountedRef)
    store = Recording()
    scope = RunScope(store, "r")
    ctx = StepContext("r", "step1", "1", "", "", {}, [], [], [], [], [], 1, scope)
    writes = {"memory_writes": {"b": [1, 2], "a": "x"}}
    outcome = ScriptedBackend.from_scenario({"steps": {"step1": [writes]}}).execute(ctx)
    assert outcome.memory_writes == ("a", "b") and store.keys == ["r::a", "r::b"]
    assert built == ["r::a", "r::b"]
    assert (scope.kind("a"), scope.kind("b")) == ("scalar", "list")
    failing = {"memory_writes": {"bad": 1}}
    with pytest.raises(OSError):
        ScriptedBackend.from_scenario({"steps": {"step1": [failing]}}).execute(ctx)
    with pytest.raises(KeyNotFound):
        scope.kind("bad")
    ref = scope.put("c", 3)
    assert (type(ref), ref.key, ref.kind, ref.value.payload) == (CountedRef, "c", "scalar", 3)
    assert built[2:] == ["r::c", "c"]


def test_scripted_backend_reads_either_step_form_of_the_scenario_it_is_given():
    """from_scenario keeps the scenario's own steps and reads each step when
    it runs, in either form; a steps value that is not an object still fails
    when the backend is built, not as a failure of every step."""
    edge = {"edge_step1_step2": "enable"}
    steps = {"step1": {"attempts": [{"edge_decisions": edge}]},
             "step2": [{"edge_decisions": {"edge_step2_end": "enable"}}]}
    backend = ScriptedBackend.from_scenario({"steps": steps})
    result = run(bundle_of(linear_dag(2)), backend, RunConfig())
    assert result.status is RunStatus.CONCLUDED and result.executed == ["step1", "step2"]
    for bad in (None, [["step1"]], "step1"):
        with pytest.raises(ScenarioInvalid):
            ScriptedBackend.from_scenario({"steps": bad})
