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
so runs are fully deterministic; on the wall clock up to k steps run on
threads of their own and durations are measured.

ScriptedBackend replays scenarios on the run's clock. ProcessBackend sends
each step to a child process through linechild.LineChild, which gives every
step a deadline, honours the run's cancel event and restarts a crashed child.
"""

from __future__ import annotations

import heapq
import json
import math
import queue
import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice

from .dag import END, START, CompiledDag, DagEdge, ExecutionDag, InvalidDag, compile_dag
from .document import TsgDocument, TsgStep
from .linechild import ChildCancelled, ChildUnavailable, LineChild
from .memory import MemoryRef, MemoryStore, RunScope, value_from_literal
from .queryprep import QueryTemplate


class EngineError(Exception):
    pass


class ConfigInvalid(EngineError):
    pass


class DagInvalid(EngineError):
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


class ScenarioIncomplete(EngineError):
    pass


class ElementState(Enum):
    UNKNOWN = "unknown"
    ENABLED = "enabled"
    DISABLED = "disabled"


class RunStatus(Enum):
    RUNNING = "running"
    CONCLUDED = "concluded"
    EXHAUSTED = "exhausted"
    FAILED = "failed"


@dataclass(frozen=True)
class StepOutcome:
    result: str  # "success" | "failure"
    summary: str = ""
    edge_decisions: dict[str, str] | None = None  # edge id -> enable|disable
    memory_writes: tuple[str, ...] = ()
    error: str = ""
    duration: float = 0


class CancelledSignal:
    """Marker a backend returns when it honored a cancel request."""


@dataclass
class TraceEvent:
    t: float
    seq: int
    kind: str
    subject: str
    detail: dict

    def to_obj(self) -> dict:
        return {"t": self.t, "seq": self.seq, "kind": self.kind,
                "subject": self.subject, "detail": self.detail}


def trace_to_jsonl(trace: list[TraceEvent]) -> str:
    return "".join(json.dumps(ev.to_obj(), ensure_ascii=False) + "\n" for ev in trace)


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
    every context of the run, the outgoing-edge mappings by every run of the
    bundle, and `cancel` by every context of the run.
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
    context's cancel event fires). Exceptions other than EngineError are
    surfaced as failure outcomes and go through the retry machinery.
    """

    def execute(self, ctx: StepContext) -> StepOutcome | CancelledSignal:
        raise NotImplementedError


@dataclass
class RunConfig:
    max_executors: int = 1
    retry_limit: int = 2
    clock: str = "virtual"  # "virtual" | "wall"

    def validate(self) -> None:
        if self.max_executors < 1:
            raise ConfigInvalid(f"max_executors must be >= 1, got {self.max_executors}")
        if self.retry_limit < 0:
            raise ConfigInvalid(f"retry_limit must be >= 0, got {self.retry_limit}")
        if self.clock not in ("virtual", "wall"):
            raise ConfigInvalid(f"clock must be 'virtual' or 'wall', got {self.clock!r}")


@dataclass
class Bundle:
    """A guide ready to run. `dag` is compiled and validated once, by
    load_bundle or by the first run(); treat it as immutable from then on and
    build a new Bundle to run a different DAG. `static_contexts` caches the
    parts of each node's StepContext that no run changes."""

    doc: TsgDocument | None
    dag: ExecutionDag
    templates: list[QueryTemplate] = field(default_factory=list)
    registry: object = None
    compiled: CompiledDag | None = field(default=None, repr=False, compare=False)
    static_contexts: StaticContexts | None = field(default=None, repr=False, compare=False)


def _compile(dag: ExecutionDag) -> CompiledDag:
    try:
        return compile_dag(dag)
    except InvalidDag as exc:
        raise DagInvalid(str(exc)) from None


class RunState:
    """Tri-state of one run plus its trace; owned by a single scheduler loop."""

    def __init__(self, dag: ExecutionDag | CompiledDag, retry_limit: int = 2):
        compiled = dag if isinstance(dag, CompiledDag) else _compile(dag)
        self.compiled = compiled
        self.dag = compiled.dag
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
        self.memory_refs: list[MemoryRef] = []
        self.memory_ref_entries: list[dict] = []  # {"key", "kind"} of each ref, for contexts
        self._seq = 0
        self._in_resolved = dict.fromkeys(compiled.nodes, 0)
        self._in_enabled = dict.fromkeys(compiled.nodes, 0)
        self.node_state[START] = ElementState.ENABLED

    def sort_key(self, node_id: str) -> tuple:
        return self.compiled.sort_key[node_id]

    # -- trace ---------------------------------------------------------------

    def emit(self, kind: str, subject: str, detail: dict | None = None) -> TraceEvent:
        event = TraceEvent(self.clock, self._seq, kind, subject, detail or {})
        self._seq += 1
        self.trace.append(event)
        return event

    # -- queue ---------------------------------------------------------------

    def enqueue(self, node_id: str, t: float) -> None:
        if node_id in self.queued or node_id in self.running:
            raise EngineError(f"{node_id} enqueued twice for one enablement")
        self.queued.add(node_id)
        heapq.heappush(self.ready, (t, self.compiled.sort_key[node_id], node_id))

    def pop_ready(self) -> str:
        _, _, node_id = heapq.heappop(self.ready)
        self.queued.discard(node_id)
        return node_id

    def mark_running(self, node_id: str) -> int:
        self.queued.discard(node_id)
        self.running.add(node_id)
        self.attempts[node_id] = self.attempts.get(node_id, 0) + 1
        return self.attempts[node_id]

    # -- state transitions ----------------------------------------------------

    def resolve_edge(self, eid: str, new_state: ElementState, via: str) -> None:
        target = self._resolve(eid, new_state, via)
        if target is not None:
            self.disable_node(target)

    def _resolve(self, eid: str, new_state: ElementState, via: str) -> str | None:
        """Resolve one edge and apply rules a and c to its target; return the
        target when rule b disables it, for the caller to propagate."""
        current = self.edge_state[eid]
        if current is not ElementState.UNKNOWN:
            raise EngineError(f"edge {eid} already resolved to {current.value}")
        self.edge_state[eid] = new_state
        kind = "edge_enabled" if new_state is ElementState.ENABLED else "edge_disabled"
        self.emit(kind, eid, {"via": via})
        edge = self.compiled.edges[eid]
        target = edge.target
        if target == END:
            if new_state is ElementState.ENABLED and self.status is RunStatus.RUNNING:
                self.node_state[END] = ElementState.ENABLED
                self.status = RunStatus.CONCLUDED
                self.conclusion = edge.conclusion or ""
                self.concluding_edge = eid
            return None
        self._in_resolved[target] += 1
        if new_state is ElementState.ENABLED:
            self._in_enabled[target] += 1
        if (
            self.node_state[target] is ElementState.UNKNOWN
            and self._in_resolved[target] == self.compiled.in_degree[target]
        ):
            if self._in_enabled[target] > 0:
                self.node_state[target] = ElementState.ENABLED
                self.enqueue(target, self.clock)
            else:
                return target
        return None

    def disable_node(self, node_id: str) -> None:
        """Disable a node, then depth-first every node it leaves with all
        incoming edges disabled (rule b). The explicit stack keeps chain
        length independent of Python's recursion limit."""
        self._mark_disabled(node_id)
        pending = [(node_id, iter(self.compiled.outgoing[node_id]))]
        while pending and self.status is RunStatus.RUNNING:
            source, edges = pending[-1]
            edge = next(edges, None)
            if edge is None:
                pending.pop()
                continue
            target = self._resolve(edge.id, ElementState.DISABLED, via=source)
            if target is not None:
                self._mark_disabled(target)
                pending.append((target, iter(self.compiled.outgoing[target])))

    def _mark_disabled(self, node_id: str) -> None:
        if self.node_state[node_id] is not ElementState.UNKNOWN:
            raise EngineError(f"node {node_id} already resolved")
        self.node_state[node_id] = ElementState.DISABLED
        self.emit("node_disabled", node_id, {"reason": "all incoming edges disabled"})

    def outgoing_edges(self, node_id: str) -> tuple[DagEdge, ...]:
        return self.compiled.outgoing[node_id]

    def disabled_nodes(self) -> list[str]:
        return sorted(
            (n for n, s in self.node_state.items() if s is ElementState.DISABLED),
            key=self.sort_key,
        )


def apply_outcome(state: RunState, node_id: str, outcome: StepOutcome) -> RunState:
    """Apply one step outcome and run the propagation closure.

    Success: every outgoing edge is set per the outcome's decisions (the
    decision map must cover the outgoing edges exactly, and unconditional
    edges must be enabled). Failure within the retry budget re-enqueues the
    node without touching edges; an exhausted failure disables all outgoing
    edges. Conclusion (an enabled edge into end) short-circuits propagation.
    """
    if node_id not in state.node_state:
        raise UnknownNode(node_id)
    if node_id not in state.running:
        raise StaleOutcome(f"{node_id} is not running")
    state.running.remove(node_id)
    attempt = state.attempts.get(node_id, 0)

    if outcome.result == "failure":
        if attempt <= state.retry_limit:
            state.emit(
                "node_failed",
                node_id,
                {"attempt": attempt, "error": outcome.error, "final": False},
            )
            state.emit("node_retried", node_id, {"next_attempt": attempt + 1})
            state.history.append(
                {"node": node_id, "result": "failure", "summary": outcome.error, "attempt": attempt}
            )
            state.enqueue(node_id, state.clock)
            return state
        state.emit(
            "node_failed",
            node_id,
            {"attempt": attempt, "error": outcome.error, "final": True},
        )
        state.failed.add(node_id)
        state.history.append(
            {"node": node_id, "result": "failure", "summary": outcome.error, "attempt": attempt}
        )
        for edge in state.outgoing_edges(node_id):
            if state.status is not RunStatus.RUNNING:
                break
            state.resolve_edge(edge.id, ElementState.DISABLED, via="failure")
        return state

    if outcome.result != "success":
        raise EngineError(f"outcome result must be success or failure, got {outcome.result!r}")

    outgoing = state.outgoing_edges(node_id)
    decisions = dict(outcome.edge_decisions or {})
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

    state.emit(
        "node_succeeded",
        node_id,
        {"attempt": attempt, "duration": outcome.duration, "summary": outcome.summary},
    )
    for key in sorted(outcome.memory_writes):
        state.emit("memory_put", key, {"node": node_id})
    state.history.append(
        {"node": node_id, "result": "success", "summary": outcome.summary, "attempt": attempt}
    )
    for edge in outgoing:
        if state.status is not RunStatus.RUNNING:
            break
        wanted = ElementState.ENABLED if decisions[edge.id] == "enable" else ElementState.DISABLED
        state.resolve_edge(edge.id, wanted, via=node_id)
    return state


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
        return trace_to_jsonl(self.trace)


def _complete_start(state: RunState) -> None:
    for edge in state.outgoing_edges(START):
        if state.status is not RunStatus.RUNNING:
            break
        state.resolve_edge(edge.id, ElementState.ENABLED, via=START)


class _Record(Mapping):
    """Read-only mapping whose keys are its subclass's slots. A bundle keeps
    its records as long as it lives, and one slotted object takes about a
    quarter of the memory of a dict behind a read-only proxy."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __getitem__(self, key):
        if key not in self.__slots__:
            raise KeyError(key)
        return getattr(self, key)

    def __iter__(self):
        return iter(self.__slots__)

    def __len__(self) -> int:
        return len(self.__slots__)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class EdgeEntry(_Record):
    """An outgoing edge as a step context lists it."""

    __slots__ = ("id", "to", "condition", "conclusion")


class ConditionEntry(_Record):
    """The condition of an EdgeEntry."""

    __slots__ = ("question", "label")


@dataclass(frozen=True, slots=True)
class StaticContext:
    """The parts of a node's StepContext that no run changes."""

    step_id: str | None
    title: str
    text: str
    edges: tuple[EdgeEntry, ...]


class StaticContexts(dict):
    """Node id -> StaticContext for one compiled DAG and document. An entry
    is built on its node's first dispatch, so loading a bundle builds none."""

    def __init__(self, compiled: CompiledDag, doc: TsgDocument | None):
        super().__init__()
        self.compiled = compiled
        self.doc = doc
        self._steps: dict[str, TsgStep] | None = None

    def __missing__(self, node_id: str) -> StaticContext:
        node = self.compiled.nodes[node_id]
        title, text = node.description, ""
        step = self._step(node.step_ref) if node.step_ref is not None else None
        if step is not None:
            title, text = step.title, step.body_text()
        edges = tuple(
            EdgeEntry(
                e.id,
                e.target,
                ConditionEntry(e.condition.question, e.condition.label) if e.condition else None,
                e.conclusion,
            )
            for e in self.compiled.outgoing[node_id]
        )
        entry = self[node_id] = StaticContext(node.step_ref, title, text, edges)
        return entry

    def _step(self, step_id: str) -> TsgStep | None:
        if self._steps is None:
            self._steps = {}
            for step in self.doc.steps if self.doc is not None else ():
                self._steps.setdefault(step.id, step)
        return self._steps.get(step_id)


@dataclass(frozen=True)
class _RunInputs:
    """What every step context of one run shares; built once per run."""

    run_id: str
    incident: dict
    scope: RunScope
    static: StaticContexts
    plugins: list[dict]
    templates: list[str]
    cancel: threading.Event
    clock: str


def _build_context(state: RunState, node_id: str, inputs: _RunInputs) -> StepContext:
    static = inputs.static[node_id]
    return StepContext(
        run_id=inputs.run_id,
        node_id=node_id,
        step_id=static.step_id,
        step_title=static.title,
        step_text=static.text,
        incident=inputs.incident,
        outgoing_edges=static.edges,
        history=Snapshot(state.history),
        plugins=inputs.plugins,
        templates=inputs.templates,
        memory_refs=Snapshot(state.memory_ref_entries),
        attempt=state.attempts.get(node_id, 0) + 1,
        store=inputs.scope,
        cancel=inputs.cancel,
        clock=inputs.clock,
    )


def _record_memory_refs(state: RunState, scope: RunScope | None, outcome: StepOutcome) -> None:
    if scope is None:
        return
    for key in sorted(outcome.memory_writes):
        ref = scope.ref(key)
        state.memory_refs.append(ref)
        state.memory_ref_entries.append({"key": ref.key, "kind": ref.kind})


def _cancel_remaining(state: RunState) -> None:
    for node_id in sorted(state.running, key=state.sort_key):
        state.emit("node_cancelled", node_id, {"phase": "running"})
    state.running.clear()
    while state.ready:
        node_id = state.pop_ready()
        state.emit("node_cancelled", node_id, {"phase": "queued"})


def _finish(state: RunState) -> None:
    if state.status is RunStatus.CONCLUDED:
        _cancel_remaining(state)
        detail = {"status": "concluded", "conclusion": state.conclusion,
                  "edge": state.concluding_edge}
    else:
        state.status = RunStatus.EXHAUSTED
        detail = {
            "status": "exhausted",
            "failed": sorted(state.failed, key=state.sort_key),
            "disabled": state.disabled_nodes(),
        }
    state.emit("run_terminated", "run", detail)


def run(
    bundle: Bundle,
    backend: ExecutorBackend,
    config: RunConfig | None = None,
    incident: dict | None = None,
    store: MemoryStore | None = None,
    run_id: str | None = None,
) -> RunResult:
    """Execute a bundle's DAG against a backend and return status plus trace."""
    config = config or RunConfig()
    config.validate()
    if bundle.compiled is None or bundle.compiled.dag is not bundle.dag:
        bundle.compiled = _compile(bundle.dag)
    static = bundle.static_contexts
    if static is None or static.compiled is not bundle.compiled or static.doc is not bundle.doc:
        static = bundle.static_contexts = StaticContexts(bundle.compiled, bundle.doc)

    incident = incident or {}
    if run_id is None:
        run_id = f"{bundle.dag.tsg_id}/{incident.get('id', 'run')}"
    scope = RunScope(store if store is not None else MemoryStore(), run_id)
    plugin_descriptors = []
    if bundle.registry is not None:
        plugin_descriptors = [
            {
                "name": d.name,
                "params": [
                    {"name": p.name, "kind": p.kind, "required": p.required} for p in d.params
                ],
                "result": d.result,
            }
            for d in bundle.registry.descriptors()
        ]

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

    inputs = _RunInputs(
        run_id=run_id,
        incident=incident,
        scope=scope,
        static=static,
        plugins=plugin_descriptors,
        templates=[t.name for t in bundle.templates],
        cancel=threading.Event(),
        clock=config.clock,
    )
    clock = (_VirtualClock(backend, state.compiled.sort_key) if config.clock == "virtual"
             else _WallClock(backend))
    _schedule(state, clock, config.max_executors, inputs)

    executed, seen = [], set()
    for ev in state.trace:
        if ev.kind == "node_started" and ev.subject not in seen:
            seen.add(ev.subject)
            executed.append(ev.subject)
    cancelled = [ev.subject for ev in state.trace if ev.kind == "node_cancelled"]
    return RunResult(
        status=state.status,
        conclusion=state.conclusion,
        trace=state.trace,
        makespan=state.trace[-1].t,
        executed=executed,
        cancelled=cancelled,
        state=state,
    )


def _execute_guarded(backend: ExecutorBackend, ctx: StepContext) -> StepOutcome | CancelledSignal:
    try:
        outcome = backend.execute(ctx)
    except EngineError:
        raise
    except Exception as exc:  # backend-defined errors become failure outcomes
        return StepOutcome(result="failure", error=f"{type(exc).__name__}: {exc}")
    if isinstance(outcome, CancelledSignal) and not ctx.cancel.is_set():
        raise EngineError(f"{ctx.node_id}: backend returned a cancel marker unrequested")
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


class _WallClock:
    """Runs each step on its own daemon thread; its duration is measured."""

    def __init__(self, backend: ExecutorBackend):
        self._backend = backend
        self._done = queue.SimpleQueue()
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def start(self, node_id: str, ctx: StepContext) -> None:
        threading.Thread(target=self._work, args=(node_id, ctx), daemon=True).start()

    def _work(self, node_id: str, ctx: StepContext) -> None:
        begun = time.monotonic()
        try:
            outcome = _execute_guarded(self._backend, ctx)
        except EngineError as exc:  # re-raised on the scheduler thread
            outcome = exc
        self._done.put((node_id, outcome, time.monotonic() - begun))

    def next_done(self) -> tuple[float, str, StepOutcome]:
        node_id, outcome, elapsed = self._done.get()
        if isinstance(outcome, EngineError):
            raise outcome
        return self.now(), node_id, replace(outcome, duration=elapsed)


def _schedule(
    state: RunState, clock: _VirtualClock | _WallClock, k: int, inputs: _RunInputs
) -> None:
    """The one scheduler loop. The run's cancel event is set at conclusion,
    when the only nodes left to see it are those still running."""
    _complete_start(state)
    while state.status is RunStatus.RUNNING:
        while state.ready and len(state.running) < k:
            node_id = state.pop_ready()
            ctx = _build_context(state, node_id, inputs)
            attempt = state.mark_running(node_id)
            state.clock = clock.now()
            state.emit("node_started", node_id, {"attempt": attempt})
            clock.start(node_id, ctx)
        if not state.running:
            break
        state.clock, node_id, outcome = clock.next_done()
        apply_outcome(state, node_id, outcome)
        if outcome.result == "success":
            _record_memory_refs(state, inputs.scope, outcome)
    state.clock = clock.now()
    if state.status is RunStatus.CONCLUDED:
        inputs.cancel.set()
    _finish(state)


# -- backends -----------------------------------------------------------------

class ScriptedBackend(ExecutorBackend):
    """Deterministic backend replaying per-node attempt scripts.

    The n-th execution of a node replays its n-th attempt; the last attempt
    repeats if the node is retried beyond the script. Attempt latencies
    drive the virtual clock; on the wall clock (`ctx.clock`) they are waited out.
    """

    def __init__(self, steps: dict[str, list[dict]]):
        self._steps = steps

    @classmethod
    def from_scenario(cls, scenario: dict) -> "ScriptedBackend":
        steps = {}
        for node_id, spec in scenario.get("steps", {}).items():
            steps[node_id] = spec["attempts"] if isinstance(spec, dict) else list(spec)
        return cls(steps)

    def execute(self, ctx: StepContext) -> StepOutcome | CancelledSignal:
        attempts = self._steps.get(ctx.node_id)
        if not attempts:
            raise ScenarioIncomplete(f"scenario has no attempts for {ctx.node_id}")
        attempt = attempts[min(ctx.attempt - 1, len(attempts) - 1)]
        latency = attempt.get("latency", 0)
        if ctx.clock == "wall" and latency:
            if ctx.cancel.wait(timeout=latency):
                return CancelledSignal()
        if ctx.store is not None:
            for key in sorted(attempt.get("memory_writes", {})):
                ctx.store.put(key, value_from_literal(attempt["memory_writes"][key]))
        if attempt.get("result") == "failure":
            return StepOutcome(
                result="failure",
                error=attempt.get("error", "scripted failure"),
                duration=latency,
            )
        return StepOutcome(
            result="success",
            summary=attempt.get("summary", ""),
            edge_decisions=dict(attempt.get("edge_decisions", {})),
            memory_writes=tuple(sorted(attempt.get("memory_writes", {}))),
            duration=latency,
        )


class ProcessBackend(ExecutorBackend):
    """Line-protocol backend: one StepContext JSON per line to the child's
    stdin, one StepOutcome JSON per line from its stdout.

    The child is a single long-lived LineChild, so steps are serialized with
    a lock. Each step has the client's deadline: a step whose child does not
    answer in time fails with ChildTimeout. A cancel closes the child's stdin
    and kills it after a grace period; the engine reports the step as
    cancelled, not failed. A crashed or timed-out child is replaced by a fresh
    one on the next step. An answer that is not a well-formed outcome object
    fails its step. The child may return memory writes as {key: literal};
    this wrapper applies them to the run's store.
    """

    def __init__(self, command: list[str]):
        self.command = command
        self._child = LineChild(command)
        self._lock = threading.Lock()

    def close(self) -> None:
        """Stop the child, after any step still talking to it."""
        with self._lock:
            self._child.close()

    def execute(self, ctx: StepContext) -> StepOutcome | CancelledSignal:
        request = json.dumps(ctx.to_obj(), ensure_ascii=False)
        with self._lock:
            try:
                line = self._child.request(request, ctx.cancel)
            except ChildUnavailable as exc:
                raise BackendUnavailable(str(exc)) from exc
            except ChildCancelled:
                return CancelledSignal()
        if line is None:
            return StepOutcome(result="failure", error="backend process closed its output")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return StepOutcome(result="failure", error=f"bad outcome line: {exc}")
        problem = _outcome_problem(obj)
        if problem:
            return StepOutcome(result="failure", error=f"bad outcome line: {problem}")
        if obj.get("result") == "cancelled":
            return CancelledSignal()
        writes = obj.get("memory_writes", {})
        if ctx.store is not None:
            for key in sorted(writes):
                ctx.store.put(key, value_from_literal(writes[key]))
        return StepOutcome(
            result=obj.get("result", "failure"),
            summary=obj.get("summary", ""),
            edge_decisions=obj.get("edge_decisions", {}),
            memory_writes=tuple(sorted(writes)),
            error=obj.get("error", ""),
            duration=obj.get("duration", 0),
        )


def _outcome_problem(obj) -> str | None:
    """What is wrong with a child's decoded outcome, or None. Absent fields
    take StepOutcome's defaults (result: failure)."""
    if not isinstance(obj, dict):
        return f"not a JSON object: {type(obj).__name__}"
    if obj.get("result", "failure") not in ("success", "failure", "cancelled"):
        return f"result must be success, failure or cancelled, got {obj['result']!r}"
    duration = obj.get("duration", 0)
    if (
        isinstance(duration, bool)
        or not isinstance(duration, (int, float))
        or not math.isfinite(duration)
        or duration < 0
    ):
        return f"duration must be a finite number >= 0, got {duration!r}"
    for name in ("edge_decisions", "memory_writes"):
        if not isinstance(obj.get(name, {}), dict):
            return f"{name} must be an object, got {obj[name]!r}"
    for name in ("summary", "error"):
        if not isinstance(obj.get(name, ""), str):
            return f"{name} must be a string, got {obj[name]!r}"
    return None
