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
"""

from __future__ import annotations

import heapq
import json
import queue
import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from types import MappingProxyType

from .dag import END, START, CompiledDag, DagEdge, ExecutionDag, InvalidDag, compile_dag
from .document import TsgDocument
from .errors import TsgflowError
from .memory import MemoryRef, MemoryStore, RunScope
from .queryprep import QueryTemplate
from .scenario import ScenarioIncomplete


class EngineError(TsgflowError):
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


@dataclass(frozen=True)
class StepOutcome:
    result: str  # "success" | "failure"
    summary: str = ""
    edge_decisions: dict[str, str] | None = None  # edge id -> enable|disable
    memory_writes: tuple[str, ...] = ()
    error: str = ""
    duration: float = 0

    def __init__(self, result, summary="", edge_decisions=None, memory_writes=(), error="",
                 duration=0):
        # one update instead of the frozen dataclass's object.__setattr__ per field
        self.__dict__.update(result=result, summary=summary, edge_decisions=edge_decisions,
                             memory_writes=memory_writes, error=error, duration=duration)


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
    every context of the run, the outgoing-edge mappings (read-only
    mappingproxy entries, see StaticContext) by every run of the bundle, and
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
    context's cancel event fires). Exceptions other than EngineError and
    ScenarioIncomplete are surfaced as failure outcomes and go through the
    retry machinery.
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
        self._in_resolved = dict.fromkeys(compiled.nodes, 0)
        self._in_enabled = dict.fromkeys(compiled.nodes, 0)
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

    def pop_ready(self) -> str:
        _, _, node_id = heapq.heappop(self.ready)
        self.queued.discard(node_id)
        return node_id

    def mark_running(self, node_id: str) -> int:
        self.running.add(node_id)
        self.attempts[node_id] = self.attempts.get(node_id, 0) + 1
        return self.attempts[node_id]

    # -- state transitions ----------------------------------------------------

    def resolve_edge(self, edge: DagEdge, new_state: ElementState, via: str) -> None:
        target = self._resolve(edge, new_state, via)
        if target is not None:
            self.disable_node(target)

    def _resolve(self, edge: DagEdge, new_state: ElementState, via: str) -> str | None:
        """Resolve one edge and apply rules a and c to its target; return the
        target when rule b disables it, for the caller to propagate."""
        eid = edge.id
        current = self.edge_state[eid]
        if current is not _UNKNOWN:
            raise EngineError(f"edge {eid} already resolved to {current.value}")
        self.edge_state[eid] = new_state
        enabled = new_state is _ENABLED
        self.emit("edge_enabled" if enabled else "edge_disabled", eid, {"via": via})
        target = edge.target
        if target == END:
            if enabled and self.status is _RUNNING:
                self.node_state[END] = _ENABLED
                self.status = RunStatus.CONCLUDED
                self.conclusion = edge.conclusion or ""
                self.concluding_edge = eid
            return None
        self._in_resolved[target] += 1
        if enabled:
            self._in_enabled[target] += 1
        if (
            self.node_state[target] is _UNKNOWN
            and self._in_resolved[target] == self.compiled.in_degree[target]
        ):
            if self._in_enabled[target] > 0:
                self.node_state[target] = _ENABLED
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
        while pending and self.status is _RUNNING:
            source, edges = pending[-1]
            edge = next(edges, None)
            if edge is None:
                pending.pop()
                continue
            target = self._resolve(edge, _DISABLED, via=source)
            if target is not None:
                self._mark_disabled(target)
                pending.append((target, iter(self.compiled.outgoing[target])))

    def _mark_disabled(self, node_id: str) -> None:
        if self.node_state[node_id] is not _UNKNOWN:
            raise EngineError(f"node {node_id} already resolved")
        self.node_state[node_id] = _DISABLED
        self.emit("node_disabled", node_id, {"reason": "all incoming edges disabled"})


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
            return state
        state.failed.add(node_id)
        for edge in state.compiled.outgoing[node_id]:
            if state.status is not _RUNNING:
                break
            state.resolve_edge(edge, _DISABLED, via="failure")
        return state

    if outcome.result != "success":
        raise EngineError(f"outcome result must be success or failure, got {outcome.result!r}")

    outgoing = state.compiled.outgoing[node_id]
    decisions = outcome.edge_decisions
    if not isinstance(decisions, dict):
        decisions = dict(decisions or {})
    # the decisions must cover the outgoing edges exactly; sets only word the error
    covered = len(decisions) == len(outgoing)
    for edge in outgoing:
        covered = covered and edge.id in decisions
    if not covered:
        expected = {e.id for e in outgoing}
        missing = expected - set(decisions)
        extra = set(decisions) - expected
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
    if outcome.memory_writes:
        for key in sorted(outcome.memory_writes):
            state.emit("memory_put", key, {"node": node_id})
    state.history.append(
        {"node": node_id, "result": "success", "summary": outcome.summary, "attempt": attempt}
    )
    for edge in outgoing:
        if state.status is not _RUNNING:
            break
        state.resolve_edge(edge, _ENABLED if decisions[edge.id] == "enable" else _DISABLED, node_id)
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
    for edge in state.compiled.outgoing[START]:
        if state.status is not _RUNNING:
            break
        state.resolve_edge(edge, _ENABLED, via=START)


@dataclass(slots=True)
class StaticContext:
    """The parts of a node's StepContext that no run changes. Each of
    `edges` is a read-only mappingproxy with the keys id, to, condition and
    conclusion; a condition is None or a mappingproxy of question and label."""

    step_id: str | None
    title: str
    text: str
    edges: tuple[MappingProxyType, ...]


class StaticContexts(dict):
    """Node id -> StaticContext for one compiled DAG and document. An entry
    is built on its node's first dispatch, so loading a bundle builds none."""

    def __init__(self, compiled: CompiledDag, doc: TsgDocument | None):
        super().__init__()
        self.compiled = compiled
        self.doc = doc
        # reversed, so the first step of each id wins
        self._steps = {step.id: step for step in reversed(doc.steps)} if doc is not None else {}

    def __missing__(self, node_id: str) -> StaticContext:
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
        entry = self[node_id] = StaticContext(node.step_ref, title, text, edges)
        return entry


@dataclass(slots=True)
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


def _build_context(state: RunState, node_id: str, attempt: int, inputs: _RunInputs) -> StepContext:
    static = inputs.static[node_id]
    # positional, in StepContext's field order
    return StepContext(
        inputs.run_id, node_id, static.step_id, static.title, static.text, inputs.incident,
        static.edges, Snapshot(state.history), inputs.plugins, inputs.templates,
        Snapshot(state.memory_ref_entries), attempt, inputs.scope, inputs.cancel, inputs.clock,
    )


def _record_memory_refs(state: RunState, scope: RunScope, outcome: StepOutcome) -> None:
    for key in sorted(outcome.memory_writes):
        ref = scope.ref(key)
        state.memory_refs.append(ref)
        state.memory_ref_entries.append({"key": ref.key, "kind": ref.kind})


def _cancel_remaining(state: RunState) -> None:
    for node_id in sorted(state.running, key=state.compiled.sort_key.__getitem__):
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
        by_id = state.compiled.sort_key.__getitem__
        disabled = [n for n, s in state.node_state.items() if s is _DISABLED]
        detail = {
            "status": "exhausted",
            "failed": sorted(state.failed, key=by_id),
            "disabled": sorted(disabled, key=by_id),
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
    try:
        _schedule(state, clock, config.max_executors, inputs)
    finally:
        # whether the run concluded or raised, the steps still running stop
        inputs.cancel.set()

    executed = list(state.attempts)  # in first-start order, as the trace has it
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


# these end the run; any other error a backend raises fails its step
_RUN_ERRORS = (EngineError, ScenarioIncomplete)


def _execute_guarded(backend: ExecutorBackend, ctx: StepContext) -> StepOutcome | CancelledSignal:
    try:
        outcome = backend.execute(ctx)
    except _RUN_ERRORS:
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
        except _RUN_ERRORS as exc:  # re-raised on the scheduler thread
            outcome = exc
        self._done.put((node_id, outcome, time.monotonic() - begun))

    def next_done(self) -> tuple[float, str, StepOutcome]:
        node_id, outcome, elapsed = self._done.get()
        if isinstance(outcome, _RUN_ERRORS):
            raise outcome
        return self.now(), node_id, replace(outcome, duration=elapsed)


def _schedule(
    state: RunState, clock: _VirtualClock | _WallClock, k: int, inputs: _RunInputs
) -> None:
    """The one scheduler loop."""
    _complete_start(state)
    while state.status is _RUNNING:
        while state.ready and len(state.running) < k:
            node_id = state.pop_ready()
            attempt = state.mark_running(node_id)
            ctx = _build_context(state, node_id, attempt, inputs)
            state.clock = clock.now()
            state.emit("node_started", node_id, {"attempt": attempt})
            clock.start(node_id, ctx)
        if not state.running:
            break
        state.clock, node_id, outcome = clock.next_done()
        apply_outcome(state, node_id, outcome)
        if outcome.memory_writes and outcome.result == "success":
            _record_memory_refs(state, inputs.scope, outcome)
    state.clock = clock.now()
    _finish(state)
