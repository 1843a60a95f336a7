"""Event-driven scheduler and executor pool over an execution DAG.

Every node and edge of a run holds one of three states: unknown, enabled or
disabled, and resolves at most once. The start node begins enabled; when a
node completes successfully its executor decides every outgoing edge, a
failed node (after its retries) disables all outgoing edges, and the closure
rules then propagate:

  a. an unknown node whose incoming edges are all resolved with at least one
     enabled becomes enabled and joins the ready queue;
  b. an unknown non-end node whose incoming edges are all disabled becomes
     disabled, which disables its outgoing edges, recursively;
  c. the end node becomes enabled as soon as ANY incoming edge is enabled;
     the run concludes with that edge's conclusion and everything still
     running or queued is cancelled.

The ready queue is FIFO by enqueue time with ties broken by ascending node
id; completions that land on the same virtual instant are processed in
ascending node id order, and newly ready nodes are dispatched to idle
executors before the next completion is applied, so a node can legitimately
start and then be cancelled within one virtual instant.

One scheduler loop serves both clocks. On the virtual clock a backend
reports each attempt's duration and the loop is a discrete-event simulation,
so runs are fully deterministic; on the wall clock up to k steps run at
once on a pool of at most k worker threads that the run starts and stops,
and durations are measured.
"""

from __future__ import annotations

import heapq
import json
import queue
import sys
import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from types import MappingProxyType

from .dag import END, START, CompiledDag, DagEdge, ExecutionDag, compile_dag
from .document import TsgDocument
from .errors import TsgflowError
from .memory import MemoryStore, RunScope
from .queryprep import QueryTemplate
from .records import frozen_record
from .scenario import ScenarioIncomplete


class EngineError(TsgflowError):
    pass


class ConfigInvalid(EngineError):
    pass


class UnknownNode(EngineError):
    pass


class StaleOutcome(EngineError):
    pass


class IncompleteEdgeDecisions(EngineError):
    pass


class InvalidEdgeDecision(EngineError):
    pass


class BackendUnavailable(EngineError):
    pass


class ElementState(Enum):
    UNKNOWN = "unknown"
    ENABLED = "enabled"
    DISABLED = "disabled"


class RunStatus(Enum):
    RUNNING = "running"
    CONCLUDED = "concluded"
    EXHAUSTED = "exhausted"


# an enum member read through its class costs ten times a global read
_UNKNOWN, _ENABLED, _DISABLED = ElementState
_RUNNING = RunStatus.RUNNING


@frozen_record
class StepOutcome:
    result: str  # "success" | "failure"
    summary: str = ""
    edge_decisions: dict[str, str] | None = None  # edge id -> enable|disable
    memory_writes: tuple[str, ...] = ()
    error: str = ""
    duration: float = 0


class CancelledSignal:
    """Marker a backend returns when it honored a cancel request."""


@dataclass(slots=True)
class TraceEvent:
    t: float
    seq: int
    kind: str
    subject: str
    detail: dict

    def to_obj(self) -> dict:
        return {"t": self.t, "seq": self.seq, "kind": self.kind,
                "subject": self.subject, "detail": self.detail}


class Snapshot(Sequence):
    """Read-only view of an append-only list as long as it is when the view
    is made: items appended later are not seen, and nothing is copied unless
    a caller asks for a list."""

    __slots__ = ("_items", "_length")

    def __init__(self, items: list):
        self._items = items
        self._length = len(items)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._items[: self._length][index]
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("snapshot index out of range")
        return self._items[index]

    def __iter__(self):
        return islice(self._items, self._length)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Snapshot, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Snapshot({list(self)!r})"


@dataclass
class StepContext:
    """Everything an executor may see while working on exactly one step.

    Read-only for backends. `history` and `memory_refs` are snapshots taken
    at dispatch; the plugin, template and memory-ref entries are shared by
    every context of the run, the outgoing-edge mappings (read-only
    mappingproxy entries, see StaticContexts) by every run of the bundle, and
    `cancel` by every context of the run. The engine builds one per
    dispatch and passes the fields by position, so a new field goes last,
    with a default.
    """

    run_id: str
    node_id: str
    step_id: str | None
    step_title: str
    step_text: str
    incident: dict
    outgoing_edges: Sequence[Mapping]
    history: Sequence[dict]
    plugins: list[dict]  # descriptor summaries: name, params, result contract
    templates: list[str]
    memory_refs: Sequence[dict]
    attempt: int
    store: RunScope | None = None
    cancel: threading.Event = field(default_factory=threading.Event)
    clock: str = "virtual"  # the run's RunConfig.clock; not part of to_obj()

    def to_obj(self) -> dict:
        """Plain JSON-ready form; every sequence and mapping is a list or dict."""
        return {
            "run_id": self.run_id,
            "node": self.node_id,
            "step": {"id": self.step_id, "title": self.step_title, "text": self.step_text},
            "incident": self.incident,
            "outgoing_edges": [
                {k: dict(v) if isinstance(v, Mapping) else v for k, v in e.items()}
                for e in self.outgoing_edges
            ],
            "history": list(self.history),
            "plugins": self.plugins,
            "templates": self.templates,
            "memory_refs": list(self.memory_refs),
            "attempt": self.attempt,
        }


class ExecutorBackend:
    """Contract for step execution; implementations decide the edges.

    execute() must return a StepOutcome (or a CancelledSignal after the
    context's cancel event fires). One rule holds on both clocks: an
    Exception fails the step, which goes through the retry machinery;
    EngineError, ScenarioIncomplete and anything that is not an Exception
    (SystemExit, KeyboardInterrupt) end the run, and run() raises them; a
    return that is not an outcome, or an outcome whose duration is not a
    finite int or float >= 0 (a bool is neither), raises EngineError.
    """

    def execute(self, ctx: StepContext) -> StepOutcome | CancelledSignal:
        raise NotImplementedError


@dataclass
class RunConfig:
    max_executors: int = 1
    retry_limit: int = 2
    clock: str = "virtual"  # "virtual" | "wall"

    def validate(self) -> None:
        for name, low in (("max_executors", 1), ("retry_limit", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # not a bool, float or str either
                raise ConfigInvalid(f"{name} must be an integer >= {low}, got {value!r}")
        if self.clock not in ("virtual", "wall"):
            raise ConfigInvalid(f"clock must be 'virtual' or 'wall', got {self.clock!r}")


@dataclass(frozen=True)
class Bundle:
    """A guide ready to run, its `dag` compiled and validated once, when the
    bundle is built: an invalid DAG raises dag.InvalidDag here, not in run().
    Frozen; to run a different DAG, build a new Bundle (dataclasses.replace,
    say). `static_contexts` holds the parts of each node's StepContext that no
    run changes, each built on its node's first dispatch."""

    doc: TsgDocument | None
    dag: ExecutionDag
    templates: list[QueryTemplate] = field(default_factory=list)
    registry: object = None  # a plugins.PluginRegistry, or None
    compiled: CompiledDag = field(init=False, repr=False, compare=False)
    static_contexts: StaticContexts = field(init=False, repr=False, compare=False)
    plugin_summaries: list[dict] = field(init=False, repr=False, compare=False)
    template_names: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        compiled = compile_dag(self.dag)
        self.__dict__.update(  # a frozen dataclass refuses plain assignment
            compiled=compiled,
            static_contexts=StaticContexts(compiled, self.doc),
            plugin_summaries=self.registry.summaries() if self.registry is not None else [],
            template_names=[t.name for t in self.templates],
        )


class RunState:
    """Tri-state of one run plus its trace; owned by a single scheduler loop."""

    def __init__(self, dag: ExecutionDag | CompiledDag, retry_limit: int = RunConfig.retry_limit):
        compiled = dag if isinstance(dag, CompiledDag) else compile_dag(dag)
        self.compiled = compiled
        self.retry_limit = retry_limit
        self.node_state = dict.fromkeys(compiled.nodes, ElementState.UNKNOWN)
        self.edge_state = dict.fromkeys(compiled.edges, ElementState.UNKNOWN)
        self.attempts: dict[str, int] = {}
        self.failed: set[str] = set()
        self.ready: list[tuple[float, tuple, str]] = []  # heap (enqueue t, id key, node)
        self.queued: set[str] = set()
        self.running: set[str] = set()
        self.clock: float = 0
        self.status = RunStatus.RUNNING
        self.conclusion: str | None = None
        self.concluding_edge: str | None = None
        self.trace: list[TraceEvent] = []
        self.history: list[dict] = []
        self.memory_refs: list[dict] = []  # {"key", "kind"} of each write, as contexts see it
        self._in_unresolved = dict(compiled.in_degree)  # counted down to 0 as edges resolve
        self._enabled_in: set[str] = set()  # nodes with an enabled incoming edge
        self.node_state[START] = ElementState.ENABLED

    # -- trace ---------------------------------------------------------------

    def emit(self, kind: str, subject: str, detail: dict) -> None:
        self.trace.append(TraceEvent(self.clock, len(self.trace), kind, subject, detail))

    # -- queue ---------------------------------------------------------------

    def enqueue(self, node_id: str, t: float) -> None:
        if node_id in self.queued or node_id in self.running:
            raise EngineError(f"{node_id} enqueued twice for one enablement")
        self.queued.add(node_id)
        heapq.heappush(self.ready, (t, self.compiled.sort_key[node_id], node_id))

    # -- state transitions ----------------------------------------------------

    def _resolve(self, edge: DagEdge, new_state: ElementState, via: str) -> str | None:
        """Resolve one edge and apply rules a and c to its target; return the
        target when rule b disables it, for the caller to propagate."""
        eid = edge.id
        current = self.edge_state[eid]
        if current is not _UNKNOWN:
            raise EngineError(f"edge {eid} already resolved to {current.value}")
        self.edge_state[eid] = new_state
        enabled = new_state is _ENABLED
        trace = self.trace
        kind = "edge_enabled" if enabled else "edge_disabled"
        trace.append(TraceEvent(self.clock, len(trace), kind, eid, {"via": via}))
        target = edge.target
        if target == END:
            if enabled and self.status is _RUNNING:
                self.node_state[END] = _ENABLED
                self.status = RunStatus.CONCLUDED
                self.conclusion = edge.conclusion or ""
                self.concluding_edge = eid
            return None
        unresolved = self._in_unresolved
        left = unresolved[target] = unresolved[target] - 1
        if enabled:
            self._enabled_in.add(target)
        if not left and self.node_state[target] is _UNKNOWN:
            if target in self._enabled_in:
                self.node_state[target] = _ENABLED
                self.enqueue(target, self.clock)
            else:
                return target
        return None

    def resolve_outgoing(self, node_id: str, new_state: ElementState, via: str) -> None:
        """Resolve a node's outgoing edges to `new_state`, each naming `via`,
        then disable depth-first every node this leaves with all incoming
        edges disabled (rule b); such a node's own edges name it. Rule b
        follows only disabled edges, so every edge the walk reaches takes
        `new_state`. The walk stops once an enabled edge into end concludes
        the run. The explicit stack keeps chain length independent of
        Python's recursion limit."""
        outgoing = self.compiled.outgoing
        pending = [(via, iter(outgoing[node_id]))]
        while pending and self.status is _RUNNING:
            source, edges = pending[-1]
            edge = next(edges, None)
            if edge is None:
                pending.pop()
            elif (target := self._resolve(edge, new_state, source)) is not None:
                self._mark_disabled(target)
                pending.append((target, iter(outgoing[target])))

    def disable_node(self, node_id: str) -> None:
        """Disable a node and resolve its outgoing edges (rule b)."""
        self._mark_disabled(node_id)
        self.resolve_outgoing(node_id, _DISABLED, node_id)

    def _mark_disabled(self, node_id: str) -> None:
        if self.node_state[node_id] is not _UNKNOWN:
            raise EngineError(f"node {node_id} already resolved")
        self.node_state[node_id] = _DISABLED
        self.emit("node_disabled", node_id, {"reason": "all incoming edges disabled"})


def apply_outcome(state: RunState, node_id: str, outcome: StepOutcome) -> tuple[str, ...]:
    """Apply one step outcome and run the propagation closure. Returns a
    success's written keys, sorted once for both its memory_put events and
    its refs; () for a failure.

    Success: every outgoing edge is set per the outcome's decisions (the
    decision map must cover the outgoing edges exactly, and unconditional
    edges must be enabled). Failure within the retry budget re-enqueues the
    node without touching edges; an exhausted failure disables all outgoing
    edges. Conclusion (an enabled edge into end) short-circuits propagation.
    """
    if node_id not in state.running:  # every running node is a node of the run
        if node_id not in state.node_state:
            raise UnknownNode(node_id)
        raise StaleOutcome(f"{node_id} is not running")
    state.running.remove(node_id)
    attempt = state.attempts.get(node_id, 0)

    if outcome.result == "failure":
        final = attempt > state.retry_limit
        state.emit(
            "node_failed",
            node_id,
            {"attempt": attempt, "error": outcome.error, "final": final},
        )
        state.history.append(
            {"node": node_id, "result": "failure", "summary": outcome.error, "attempt": attempt}
        )
        if not final:
            state.emit("node_retried", node_id, {"next_attempt": attempt + 1})
            state.enqueue(node_id, state.clock)
            return ()
        state.failed.add(node_id)
        state.resolve_outgoing(node_id, _DISABLED, "failure")
        return ()

    if outcome.result != "success":
        raise EngineError(f"outcome result must be success or failure, got {outcome.result!r}")

    outgoing = state.compiled.outgoing[node_id]
    decisions = outcome.edge_decisions
    if not isinstance(decisions, dict):
        decisions = dict(decisions or {})
    # one loop passes decisions that name exactly the outgoing edges, each
    # "enable", or "disable" where the edge has a condition; any other map
    # raises in _check_decisions
    if len(decisions) != len(outgoing):
        _check_decisions(node_id, outgoing, decisions)
    for edge in outgoing:
        decision = decisions.get(edge.id)
        if decision != "enable" and (decision != "disable" or edge.condition is None):
            _check_decisions(node_id, outgoing, decisions)

    trace, clock = state.trace, state.clock
    trace.append(TraceEvent(clock, len(trace), "node_succeeded", node_id,
                            {"attempt": attempt, "duration": outcome.duration,
                             "summary": outcome.summary}))
    keys = ()
    if outcome.memory_writes:
        keys = tuple(sorted(outcome.memory_writes))
        append = trace.append
        for key in keys:
            append(TraceEvent(clock, len(trace), "memory_put", key, {"node": node_id}))
    state.history.append(
        {"node": node_id, "result": "success", "summary": outcome.summary, "attempt": attempt}
    )
    resolve = state._resolve
    for edge in outgoing:
        if state.status is not _RUNNING:
            break
        target = resolve(edge, _ENABLED if decisions[edge.id] == "enable" else _DISABLED, node_id)
        if target is not None:
            state.disable_node(target)
    return keys


def _check_decisions(node_id: str, outgoing: tuple[DagEdge, ...], decisions: dict) -> None:
    """Raise for decisions that do not cover `outgoing` exactly, then for
    the first edge, in order, whose decision is not enable or disable or
    that disables an unconditional edge."""
    expected = {e.id for e in outgoing}
    missing = expected - set(decisions)
    extra = set(decisions) - expected
    if missing or extra:
        parts = []
        if missing:
            parts.append("missing: " + ", ".join(sorted(missing)))
        if extra:
            parts.append("not outgoing edges: " + ", ".join(sorted(extra)))
        raise IncompleteEdgeDecisions(f"{node_id}: " + "; ".join(parts))
    for edge in outgoing:
        decision = decisions[edge.id]
        if decision not in ("enable", "disable"):
            raise InvalidEdgeDecision(f"{edge.id}: decision must be enable|disable")
        if edge.condition is None and decision != "enable":
            raise InvalidEdgeDecision(f"{edge.id}: unconditional edges must be enabled")


@dataclass
class RunResult:
    status: RunStatus
    conclusion: str | None
    trace: list[TraceEvent]
    makespan: float
    executed: list[str]
    cancelled: list[str]
    state: "RunState | None" = None

    def trace_jsonl(self) -> str:
        return "".join(json.dumps(ev.to_obj(), ensure_ascii=False) + "\n" for ev in self.trace)


class StaticContexts(dict):
    """Node id -> (step id, title, text, edges): the parts of the node's
    StepContext that no run changes, for one compiled DAG and document. Each
    of the edges is a read-only mappingproxy with the keys id, to, condition
    and conclusion; a condition is None or a mappingproxy of question and
    label. An entry is built on its node's first dispatch, so loading a
    bundle builds none."""

    def __init__(self, compiled: CompiledDag, doc: TsgDocument | None):
        super().__init__()
        self.compiled = compiled
        # reversed, so the first step of each id wins
        self._steps = {step.id: step for step in reversed(doc.steps)} if doc is not None else {}

    def __missing__(self, node_id: str) -> tuple:
        node = self.compiled.nodes[node_id]
        title, text = node.description, ""
        step = self._steps.get(node.step_ref)
        if step is not None:
            title, text = step.title, step.body_text()
        edges = tuple(
            MappingProxyType({
                "id": e.id,
                "to": e.target,
                "condition": MappingProxyType(
                    {"question": e.condition.question, "label": e.condition.label}
                ) if e.condition else None,
                "conclusion": e.conclusion,
            })
            for e in self.compiled.outgoing[node_id]
        )
        entry = self[node_id] = (node.step_ref, title, text, edges)
        return entry


def _finish(state: RunState) -> list[str]:
    """Emit the run's run_terminated event; returns the ids cancelled (none
    when the run is exhausted). A concluded run first cancels its running
    nodes in node order, then its queued ones in the order the ready heap
    would pop them: enqueue time, then node order."""
    cancelled = []
    if state.status is RunStatus.CONCLUDED:
        running = sorted(state.running, key=state.compiled.sort_key.__getitem__)
        queued = [node_id for _, _, node_id in sorted(state.ready)]
        for phase, nodes in (("running", running), ("queued", queued)):
            for node_id in nodes:
                state.emit("node_cancelled", node_id, {"phase": phase})
        cancelled = running + queued
        state.running.clear()
        state.ready.clear()
        state.queued.clear()
        detail = {"status": "concluded", "conclusion": state.conclusion,
                  "edge": state.concluding_edge}
    else:
        state.status = RunStatus.EXHAUSTED
        by_id = state.compiled.sort_key.__getitem__
        disabled = [n for n, s in state.node_state.items() if s is _DISABLED]
        detail = {
            "status": "exhausted",
            "failed": sorted(state.failed, key=by_id),
            "disabled": sorted(disabled, key=by_id),
        }
    state.emit("run_terminated", "run", detail)
    return cancelled


def run(
    bundle: Bundle,
    backend: ExecutorBackend,
    config: RunConfig | None = None,
    incident: dict | None = None,
    store: MemoryStore | None = None,
    run_id: str | None = None,
) -> RunResult:
    """Execute a bundle's DAG against a backend and return status plus trace.

    This is the one scheduler loop, for both clocks: it dispatches ready
    nodes to idle executors, then applies the next completion, until the run
    concludes or nothing is left to run."""
    config = config or RunConfig()
    config.validate()
    incident = incident or {}
    if run_id is None:
        run_id = f"{bundle.dag.tsg_id}/{incident.get('id', 'run')}"
    scope = RunScope(store if store is not None else MemoryStore(), run_id)

    state = RunState(bundle.compiled, retry_limit=config.retry_limit)
    state.emit(
        "run_started",
        "run",
        {
            "tsg_id": bundle.dag.tsg_id,
            "executors": config.max_executors,
            "retry_limit": config.retry_limit,
            "clock": config.clock,
        },
    )

    k, clock_name, cancel = config.max_executors, config.clock, threading.Event()
    clock = (_VirtualClock(backend, state.compiled.sort_key) if clock_name == "virtual"
             else _WallClock(backend))
    statics, plugins, templates = (
        bundle.static_contexts, bundle.plugin_summaries, bundle.template_names)
    ready, queued, running, attempts, trace, history, refs = (
        state.ready, state.queued, state.running, state.attempts, state.trace, state.history,
        state.memory_refs)
    pop, now, start, next_done, kind = (
        heapq.heappop, clock.now, clock.start, clock.next_done, scope.kind)
    try:
        state.resolve_outgoing(START, _ENABLED, START)
        while state.status is _RUNNING:
            while ready and len(running) < k:
                node_id = pop(ready)[2]
                queued.discard(node_id)
                running.add(node_id)
                attempt = attempts[node_id] = attempts.get(node_id, 0) + 1
                step_id, title, text, edges = statics[node_id]
                # positional, in StepContext's field order
                ctx = StepContext(
                    run_id, node_id, step_id, title, text, incident, edges, Snapshot(history),
                    plugins, templates, Snapshot(refs), attempt, scope, cancel, clock_name,
                )
                t = state.clock = now()
                trace.append(TraceEvent(t, len(trace), "node_started", node_id, {"attempt": attempt}))
                start(node_id, ctx)
            if not running:
                break
            state.clock, node_id, outcome = next_done()
            # ref each key a success wrote, in the sorted order of its memory_put
            # events, with the kind this run last wrote under it
            for key in apply_outcome(state, node_id, outcome):
                refs.append({"key": key, "kind": kind(key)})
        state.clock = now()
        cancelled = _finish(state)
    finally:
        # whether the run concluded or raised, the steps still running stop,
        # and each wall-clock worker exits once its step returns
        cancel.set()
        clock.close()

    executed = list(state.attempts)  # in first-start order, as the trace has it
    return RunResult(
        status=state.status,
        conclusion=state.conclusion,
        trace=state.trace,
        makespan=state.trace[-1].t,
        executed=executed,
        cancelled=cancelled,
        state=state,
    )


_DURATION_TYPES, _MAX_DURATION = (int, float), sys.float_info.max


def duration_problem(duration) -> str | None:
    """What is wrong with a step's duration, or None: it must be, by exact
    type, an int or a float (so not a bool), and finite and >= 0."""
    # NaN fails both comparisons; an int past the float range is not finite
    if type(duration) in _DURATION_TYPES and 0 <= duration <= _MAX_DURATION:
        return None
    return f"duration must be a finite number >= 0, got {duration!r}"


def _execute_guarded(backend: ExecutorBackend, ctx: StepContext) -> StepOutcome | CancelledSignal:
    """The one place a backend's error becomes a failure outcome; see
    ExecutorBackend for which errors do and which end the run."""
    try:
        outcome = backend.execute(ctx)
    except (EngineError, ScenarioIncomplete):
        raise
    except Exception as exc:
        return StepOutcome(result="failure", error=f"{type(exc).__name__}: {exc}")
    # a well-formed outcome passes here; every other value is named below
    if (type(outcome) is StepOutcome and type(duration := outcome.duration) in _DURATION_TYPES
            and 0 <= duration <= _MAX_DURATION):
        return outcome
    if not isinstance(outcome, StepOutcome):
        if not isinstance(outcome, CancelledSignal):
            raise EngineError(
                f"{ctx.node_id}: backend returned {type(outcome).__name__}, not a StepOutcome")
        if not ctx.cancel.is_set():
            raise EngineError(f"{ctx.node_id}: backend returned a cancel marker unrequested")
        return outcome
    problem = duration_problem(outcome.duration)
    if problem is not None:
        raise EngineError(f"{ctx.node_id}: {problem}")
    return outcome


class _VirtualClock:
    """Runs a step on the scheduler thread; it completes at its start plus
    its reported duration, same-instant completions in node order."""

    def __init__(self, backend: ExecutorBackend, sort_key: Mapping[str, tuple]):
        self._backend = backend
        self._sort_key = sort_key
        self._t: float = 0
        self._due: list[tuple[float, tuple, str, StepOutcome]] = []  # heap

    def now(self) -> float:
        return self._t

    def start(self, node_id: str, ctx: StepContext) -> None:
        outcome = _execute_guarded(self._backend, ctx)
        end = self._t + outcome.duration
        heapq.heappush(self._due, (end, self._sort_key[node_id], node_id, outcome))

    def next_done(self) -> tuple[float, str, StepOutcome]:
        self._t, _, node_id, outcome = heapq.heappop(self._due)
        return self._t, node_id, outcome

    def close(self) -> None:
        pass  # nothing runs off the scheduler thread


class _WallClock:
    """Runs steps on a pool of daemon worker threads of its run; a step's
    duration is measured.

    A worker is started only when no started one is idle. The scheduler never
    has more than k steps running, so a run starts at most k workers.
    close() posts one stop item per worker, and each worker exits as soon as
    the step it is running returns. The workers are the run's own: none is
    shared between runs or outlives a run by more than its current step.
    Whatever a step raises reaches the scheduler thread, which re-raises it
    as the virtual clock would.
    """

    def __init__(self, backend: ExecutorBackend):
        self._backend = backend
        self._todo = queue.SimpleQueue()  # (node id, ctx), or None to stop a worker
        self._done = queue.SimpleQueue()
        self._workers = 0
        self._busy = 0  # steps handed to the pool whose outcome next_done has not taken
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def start(self, node_id: str, ctx: StepContext) -> None:
        if self._busy == self._workers:
            threading.Thread(target=self._work, daemon=True).start()
            self._workers += 1
        self._busy += 1
        self._todo.put((node_id, ctx))

    def _work(self) -> None:
        backend, todo, done = self._backend, self._todo, self._done
        while (item := todo.get()) is not None:
            node_id, ctx = item
            begun = time.monotonic()
            try:
                outcome = _execute_guarded(backend, ctx)
            except BaseException as exc:  # SystemExit too: next_done re-raises it
                outcome = exc
            done.put((node_id, outcome, time.monotonic() - begun))

    def next_done(self) -> tuple[float, str, StepOutcome]:
        node_id, outcome, elapsed = self._done.get()
        self._busy -= 1
        if isinstance(outcome, BaseException):
            raise outcome
        return self.now(), node_id, replace(outcome, duration=elapsed)

    def close(self) -> None:
        for _ in range(self._workers):
            self._todo.put(None)
