"""The wall clock's per-run worker pool and ProcessBackend's child pool.

A wall run at k executors starts at most k worker threads, only when no
started one is idle, and each exits once the run is over and its current
step has returned. ProcessBackend gives each step that runs at once a child
of its own, so k steps of a child that sleeps run in parallel. Every run
here keeps k <= 3, so at most a handful of threads and children are alive.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from test_backends import _scaled
from test_engine import _Writing, bundle_of, linear_dag
from tsgflow import linechild
from tsgflow.backends import ProcessBackend, ScriptedBackend
from tsgflow.dag import DagEdge, DagNode, ExecutionDag, edge_id
from tsgflow.engine import (
    CancelledSignal,
    ExecutorBackend,
    RunConfig,
    RunStatus,
    StepContext,
    StepOutcome,
    run,
)
from tsgflow.scenario import ScenarioIncomplete

EXIT_BOUND_S = 1  # how long a worker may outlive run() once its step returned
RUN_BOUND_S = 5  # how long a run that raises at once may take


def wide_dag(width: int, join: bool = True, tsg_id: str = "wide") -> ExecutionDag:
    """start -> step1..step<width>, each into a join step and then end, or,
    without a join, each into end with the conclusion "via step<i>"."""
    steps = [f"step{i}" for i in range(1, width + 1)]
    nodes = [DagNode("start", "start", "run start")]
    nodes += [DagNode(s, "step", s, step_ref=s[4:]) for s in steps]
    edges = [DagEdge(edge_id("start", s), "start", s) for s in steps]
    if join:
        nodes.append(DagNode("join", "step", "join", step_ref="join"))
        edges += [DagEdge(edge_id(s, "join"), s, "join") for s in steps]
        edges.append(DagEdge(edge_id("join", "end"), "join", "end", None, "joined"))
    else:
        edges += [DagEdge(edge_id(s, "end"), s, "end", None, f"via {s}") for s in steps]
    return ExecutionDag(tsg_id, nodes + [DagNode("end", "end", "run end")], edges)


def enable_all(dag: ExecutionDag, latency: float) -> dict[str, list[dict]]:
    """One successful attempt per step, enabling each of its outgoing edges."""
    return {
        n.id: [{"result": "success", "latency": latency,
                "edge_decisions": {e.id: "enable" for e in dag.edges if e.source == n.id}}]
        for n in dag.nodes if n.kind == "step"
    }


class Recording(ExecutorBackend):
    """Runs each step on `inner` and records the thread it ran on, what it
    returned and the most threads started since `before` seen alive at once
    by any step."""

    def __init__(self, inner: ExecutorBackend):
        self.inner = inner
        self.before = set(threading.enumerate())
        self.threads: dict[str, set[threading.Thread]] = {}
        self.returned: dict[str, object] = {}
        self.peak = 0
        self._lock = threading.Lock()

    def new_threads(self) -> set[threading.Thread]:
        return set(threading.enumerate()) - self.before

    def execute(self, ctx: StepContext):
        with self._lock:
            self.threads.setdefault(ctx.node_id, set()).add(threading.current_thread())
            self.peak = max(self.peak, len(self.new_threads()))
        outcome = self.inner.execute(ctx)
        with self._lock:
            self.returned[ctx.node_id] = outcome
        return outcome

    def workers(self) -> set[threading.Thread]:
        return set().union(*self.threads.values())

    def assert_workers_gone(self) -> None:
        """Every thread the run started exits within EXIT_BOUND_S."""
        deadline = time.monotonic() + EXIT_BOUND_S
        for thread in self.new_threads() | self.workers():
            thread.join(timeout=max(0, deadline - time.monotonic()))
            assert not thread.is_alive(), f"{thread.name} outlived run()"


def wall_run(dag, steps, k) -> tuple[Recording, object]:
    backend = Recording(ScriptedBackend.from_scenario({"steps": steps}))
    result = run(bundle_of(dag), backend, RunConfig(max_executors=k, clock="wall"))
    return backend, result


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fig5_wall_run_uses_at_most_k_workers_that_exit(k, fig5_bundle, fig5_scenario):
    scenario = _scaled(fig5_scenario, 0.002)
    backend, result = wall_run(fig5_bundle.dag, scenario["steps"], k)
    assert result.conclusion == "transfer to upstream team"
    workers = backend.workers()
    assert threading.main_thread() not in workers
    assert 1 <= len(workers) <= k and backend.peak <= k
    backend.assert_workers_gone()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wide_wall_run_starts_k_workers_and_reuses_them(k):
    """Six branches and a join: every branch runs on one of k workers, and
    the join on one of them too."""
    dag = wide_dag(6)
    backend, result = wall_run(dag, enable_all(dag, 0.02), k)
    assert result.status is RunStatus.CONCLUDED and result.conclusion == "joined"
    assert len(result.executed) == 7
    assert len(backend.workers()) <= k and backend.peak <= k
    assert backend.threads["join"] <= backend.workers()
    backend.assert_workers_gone()


def test_chain_runs_on_one_worker_whatever_k():
    """A chain never has two steps running, so its one worker is never busy
    when the next step starts and no second one is started; the next run
    starts a worker of its own."""
    dag = linear_dag(5)
    first, result = wall_run(dag, enable_all(dag, 0), 3)
    assert result.executed == [f"step{i}" for i in range(1, 6)]
    assert len(first.workers()) == 1 and first.peak == 1
    first.assert_workers_gone()
    second, _ = wall_run(dag, enable_all(dag, 0), 3)
    assert len(second.workers()) == 1 and not second.workers() & first.workers()
    second.assert_workers_gone()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_conclusion_cancels_exactly_the_running_steps(k):
    """Five branches into end: step1 concludes after 0.05 s while the next
    k-1 branches wait out 30 s. Those, and only those, see the cancel and
    return at once; the rest stay queued and never run."""
    dag = wide_dag(5, join=False)
    steps = enable_all(dag, 30)
    steps["step1"][0]["latency"] = 0.05
    begun = time.monotonic()
    backend, result = wall_run(dag, steps, k)
    assert result.conclusion == "via step1"
    running = [f"step{i}" for i in range(2, k + 1)]
    queued = [f"step{i}" for i in range(k + 1, 6)]
    cancelled = [(e.subject, e.detail["phase"]) for e in result.trace if e.kind == "node_cancelled"]
    assert cancelled == [(s, "running") for s in running] + [(s, "queued") for s in queued]
    backend.assert_workers_gone()  # so every running step has returned
    assert time.monotonic() - begun < 10
    assert isinstance(backend.returned["step1"], StepOutcome)
    assert sorted(backend.returned) == ["step1", *running]
    assert all(isinstance(backend.returned[s], CancelledSignal) for s in running)


class RaisesOn(ExecutorBackend):
    """Raises `error` on `node_id`; runs every other step on `inner`."""

    def __init__(self, inner: ExecutorBackend, node_id: str, error: BaseException):
        self.inner, self.node_id, self.error = inner, node_id, error

    def execute(self, ctx: StepContext):
        if ctx.node_id == self.node_id:
            raise self.error
        return self.inner.execute(ctx)


def run_on_a_thread(make_backend, dag, config) -> tuple[Recording, BaseException | None]:
    """run() on a daemon thread joined within RUN_BOUND_S, so a run that
    hangs fails the test; returns the backend and what run() raised. The
    backend is made on that thread, so it does not count the thread as one
    the run started."""
    box = {}

    def target():
        box["backend"] = backend = make_backend()
        try:
            run(bundle_of(dag), backend, config)
        except BaseException as exc:  # SystemExit and KeyboardInterrupt too
            box["raised"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=RUN_BOUND_S)
    assert not thread.is_alive(), f"run() did not return within {RUN_BOUND_S} s"
    return box["backend"], box.get("raised")


@pytest.mark.parametrize("error, k", [
    pytest.param(e, k, id=str(k) if e is None else f"{type(e).__name__}-{k}")
    for e in (None, SystemExit(3), KeyboardInterrupt()) for k in (1, 2, 3)
])
def test_run_that_raises_stops_its_workers(error, k):
    """step1 has no script, so run() raises ScenarioIncomplete, or step1
    raises `error`, which is not an Exception, while the other branches wait
    out 30 s. Both clocks raise the same; every worker still exits."""
    dag = wide_dag(3, join=False)
    steps = enable_all(dag, 30)
    del steps["step1"]

    def make_backend():
        backend = ScriptedBackend.from_scenario({"steps": steps})
        return Recording(backend if error is None else RaisesOn(backend, "step1", error))

    raised = {}
    for clock in ("virtual", "wall"):
        backend, raised[clock] = run_on_a_thread(
            make_backend, dag, RunConfig(max_executors=k, clock=clock))
    expected = ScenarioIncomplete if error is None else type(error)
    assert type(raised["virtual"]) is type(raised["wall"]) is expected
    if error is None:
        assert "step1" in str(raised["wall"])
    else:
        assert raised["wall"] is error
    backend.assert_workers_gone()
    assert len(backend.workers()) <= k and backend.peak <= k
    assert all(isinstance(backend.returned[s], CancelledSignal) for s in backend.returned)


def test_wall_pool_under_fast_thread_switching():
    """Forty wall runs of six branches and a join at k=3, with the
    interpreter switching threads every microsecond: each run still keeps to
    three workers, and all of them exit."""
    dag = wide_dag(6)
    steps = enable_all(dag, 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            backend, result = wall_run(dag, steps, 3)
            assert result.conclusion == "joined" and len(result.executed) == 7
            assert len(backend.workers()) <= 3 and backend.peak <= 3
            backend.assert_workers_gone()
    finally:
        sys.setswitchinterval(interval)


def test_wall_steps_writing_at_once_each_get_the_kind_they_wrote():
    """Twenty wall runs of six branches that each write a key of their own
    and a join, at k=4 on a two-core host, switching threads every
    microsecond: the join sees every branch's key with the kind it wrote."""
    dag = wide_dag(6)
    values = {f"step{i}": (i, [i], {"i": i})[i % 3] for i in range(1, 7)}
    kinds = {f"k{i}": ("scalar", "list", "record")[i % 3] for i in range(1, 7)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            backend = _Writing({node: {f"k{node[4:]}": v} for node, v in values.items()})
            result = run(bundle_of(dag), backend, RunConfig(max_executors=4, clock="wall"))
            assert result.conclusion == "joined"
            (refs,) = [refs for node, refs in backend.seen if node == "join"]
            assert sorted(refs, key=lambda r: r["key"]) == [
                {"key": key, "kind": kind} for key, kind in sorted(kinds.items())]
    finally:
        sys.setswitchinterval(interval)


def test_process_backend_lends_each_child_to_one_step_at_a_time(monkeypatch):
    """Three threads call execute() 300 times each, switching every
    microsecond, on a backend whose children answer at once: no child is
    lent to two steps at once, at most three exist, and close() finds every
    one given back."""
    lock = threading.Lock()
    in_use, seen, clashes = set(), set(), []

    def request(child, line, cancel=None):
        with lock:
            if child in in_use:
                clashes.append(child)
            in_use.add(child)
            seen.add(child)
        time.sleep(0)
        with lock:
            in_use.discard(child)
        return '{"result": "success"}'

    monkeypatch.setattr(linechild.LineChild, "request", request)
    backend = ProcessBackend(["never-started"])
    ctx = StepContext("r", "step1", "1", "", "", {}, [], [], [], [], [], 1)
    outcomes = []

    def steps():
        outcomes.extend(backend.execute(ctx).result for _ in range(300))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=steps) for _ in range(3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=10)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == ["success"] * 900
    assert not clashes and 1 <= len(seen) <= 3
    closer = threading.Thread(target=backend.close)  # waits while a child is still lent
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive()


# A line-protocol child that appends its pid to the file argv[1] when it
# starts, sleeps argv[2] seconds per step, answers with its pid as the
# summary and enables every outgoing edge; the first attempt of a step named
# in argv[3:] makes it exit without an answer.
SLEEPER = (
    "import json, os, sys, time\n"
    "with open(sys.argv[1], 'a') as f:\n"
    "    f.write(f'{os.getpid()}\\n')\n"
    "for line in sys.stdin:\n"
    "    ctx = json.loads(line)\n"
    "    if ctx['node'] in sys.argv[3:] and ctx['attempt'] == 1:\n"
    "        sys.exit(3)\n"
    "    time.sleep(float(sys.argv[2]))\n"
    "    decisions = {e['id']: 'enable' for e in ctx['outgoing_edges']}\n"
    "    print(json.dumps({'result': 'success', 'summary': str(os.getpid()),\n"
    "                      'edge_decisions': decisions}), flush=True)\n"
)
SLEEP_S = 0.3


def sleeper(pids, *crash) -> ProcessBackend:
    return ProcessBackend([sys.executable, "-c", SLEEPER, str(pids), str(SLEEP_S), *crash])


def started_pids(pids) -> list[int]:
    return [int(p) for p in pids.read_text().split()]


def assert_reaped(pid: int) -> None:
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_process_backend_runs_k_steps_at_once_on_k_children(tmp_path):
    """Three branches and a join at k=3: the branches overlap, so the run
    takes well under the sum of its step durations, on three children that
    a second run reuses; close() stops all three."""
    pids = tmp_path / "pids"
    backend = sleeper(pids)
    try:
        result = run(bundle_of(wide_dag(3)), backend, RunConfig(max_executors=3, clock="wall"))
        second = run(bundle_of(wide_dag(3)), backend, RunConfig(max_executors=3, clock="wall"))
    finally:
        backend.close()
    for r in (result, second):
        assert r.conclusion == "joined"
        durations = [e.detail["duration"] for e in r.trace if e.kind == "node_succeeded"]
        assert len(durations) == 4 and min(durations) >= SLEEP_S
        assert r.makespan < 2 / 3 * sum(durations)  # a serial run takes the sum
    started = started_pids(pids)
    assert len(started) == 3
    answered = {int(e.detail["summary"]) for r in (result, second)
                for e in r.trace if e.kind == "node_succeeded"}
    assert answered == set(started)
    for pid in started:
        assert_reaped(pid)


def test_process_backend_crash_fails_only_its_own_step(tmp_path):
    """step2's child exits mid-step: step2 fails and its retry starts a
    fresh child, while step1 and step3 succeed at once on children of their
    own."""
    pids = tmp_path / "pids"
    backend = sleeper(pids, "step2")
    try:
        result = run(bundle_of(wide_dag(3)), backend,
                     RunConfig(max_executors=3, retry_limit=1, clock="wall"))
    finally:
        backend.close()
    assert result.conclusion == "joined"
    failed = [(e.subject, e.detail["error"]) for e in result.trace if e.kind == "node_failed"]
    assert failed == [("step2", "backend process closed its output")]
    attempts = {e.subject: e.detail["attempt"] for e in result.trace if e.kind == "node_succeeded"}
    assert attempts == {"step1": 1, "step2": 2, "step3": 1, "join": 1}
    started = started_pids(pids)
    assert len(started) == 4  # three at once, and one that replaced the crashed child
    for pid in started:
        assert_reaped(pid)


def test_process_backend_close_waits_for_the_step_in_flight(tmp_path):
    pids = tmp_path / "pids"
    backend = sleeper(pids)
    ctx = StepContext("r", "step1", "1", "", "", {}, [], [], [], [], [], 1)
    outcomes = []
    worker = threading.Thread(target=lambda: outcomes.append(backend.execute(ctx)))
    worker.start()
    deadline = time.monotonic() + 10
    while not (pids.exists() and pids.read_text()) and time.monotonic() < deadline:
        time.sleep(0.01)
    backend.close()  # the step's child is lent out: close() stops it once the step returns
    worker.join(timeout=10)
    [outcome] = outcomes
    assert outcome.result == "success"
    [pid] = started_pids(pids)
    assert_reaped(pid)
