"""Independent brute-force oracles for scheduler behavior and makespans.

Every state here comes from a closure computed from scratch, not from the
engine's incremental event-driven propagation, so the two sides of every
check stay independent. Each call, or each Simulator, builds its own view
of the DAG: a topological order (Kahn's algorithm, ties broken by
node_sort_key) and each node's incoming and outgoing edges. It imports
nothing from the engine; it reads scripts through scenario.py
(scenario_steps, scripted_attempt, attempt_fields), the reader
backends.ScriptedBackend uses too, because two readings of one script
would be two formats, not two opinions.

  * fixpoint_states: tri-state closure for a set of applied outcomes,
    settled in one pass over the topological order.
  * simulate: the run a scheduler with k executors must produce: states
    settled once, then attempts placed in time on a completion heap.
    serial_simulation is its k=1 case; with one executor per node it is the
    unbounded run, whose makespan is the earliest possible conclusion T_inf.
    A run raises DecisionsMismatch when it applies a success whose
    decisions do not name exactly its step's outgoing edges, and its
    subclass InvalidEdgeDecision when one of them is neither enable nor
    disable, or disables an unconditional edge.
    A Simulator runs it at several k from one view, each k once.
  * oracle_makespan: the serial makespan, T_inf, and the realized
    parallelism width: the maximum antichain of the unbounded run's
    executed steps.
  * started_work: W_k, the summed latency of the attempts a k-run started,
    for Graham's bound T_k <= W_k/k + T_inf.

Width uses Dilworth's theorem: over the transitive closure restricted to
executed nodes, the maximum antichain equals node count minus a maximum
bipartite matching (Fulkerson's reduction). The closure is one Python-int
bitset per node; the matching is Kuhn's augmenting-path search over it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from .dag import END, START, DagEdge, DagError, ExecutionDag, node_sort_key
from .scenario import ScenarioError, attempt_fields, scenario_steps, scripted_attempt


class NotADag(DagError, ValueError):
    """The graph has a cycle, so it has no topological order."""


class DecisionsMismatch(ScenarioError):
    """A step's scripted decisions do not name exactly its outgoing edges."""


class InvalidEdgeDecision(DecisionsMismatch):
    """A step's scripted decision is neither enable nor disable, or disables
    an unconditional edge; named and worded as the engine's error is."""


@dataclass(frozen=True)
class FinalOutcome:
    result: str  # "success" | "failure"
    decisions: dict[str, str] | None
    total_latency: float
    executions: int


def replay_final_outcome(steps: dict[str, list[dict]], node: str, retry_limit: int) -> FinalOutcome:
    """Replay a node's attempts under the retry budget.

    Returns the outcome that ends the node's lifecycle and the total latency
    consumed across all replayed attempts.
    """
    total = 0.0
    for n in range(1, retry_limit + 2):
        result, latency, decisions = attempt_fields(scripted_attempt(steps, node, n))[:3]
        total += latency
        if result != "failure":
            return FinalOutcome("success", dict(decisions), total, n)
    return FinalOutcome("failure", None, total, retry_limit + 1)


class _View:
    """The oracle's own view of a DAG: topological order and edge lists."""

    def __init__(self, dag: ExecutionDag):
        self.dag = dag
        self.kind = {n.id: n.kind for n in dag.nodes}
        self.incoming: dict[str, list] = {n.id: [] for n in dag.nodes}
        self.outgoing: dict[str, list] = {n.id: [] for n in dag.nodes}
        # lists by edge id: the smallest enabled edge into end concludes
        for e in sorted(dag.edges, key=lambda e: e.id):
            self.outgoing[e.source].append(e)
            self.incoming[e.target].append(e)

        indegree = {n: len(ins) for n, ins in self.incoming.items()}
        frontier = [(node_sort_key(n), n) for n, d in indegree.items() if d == 0]
        heapq.heapify(frontier)
        self.order: list[str] = []
        while frontier:
            _, u = heapq.heappop(frontier)
            self.order.append(u)
            for e in self.outgoing[u]:
                indegree[e.target] -= 1
                if indegree[e.target] == 0:
                    heapq.heappush(frontier, (node_sort_key(e.target), e.target))
        if len(self.order) < len(indegree):
            stuck = min((n for n, d in indegree.items() if d), key=node_sort_key)
            raise NotADag(f"{dag.tsg_id}: cycle through {stuck}: no topological order")


def _settle(
    view: _View, outcome_of: Callable[[str], FinalOutcome | None]
) -> tuple[dict[str, str], dict[str, str]]:
    """Tri-state closure in one pass over the topological order.

    Each node takes its state from its (already settled) incoming edges:
    start is enabled; end is enabled once any edge into it is; any other
    node is resolved once all its incoming edges are, enabled if one of them
    is. Its outgoing edges then follow from that state and, for an enabled
    node, `outcome_of(node)`: None leaves them unknown.
    """
    node_state = {n.id: "unknown" for n in view.dag.nodes}
    edge_state = {e.id: "unknown" for e in view.dag.edges}
    for u in view.order:
        states = [edge_state[e.id] for e in view.incoming[u]]
        if u == START:
            state = "enabled"
        elif u == END:
            state = "enabled" if "enabled" in states else "unknown"
        elif not states or "unknown" in states:
            state = "unknown"
        else:
            state = "enabled" if "enabled" in states else "disabled"
        node_state[u] = state
        outcome = outcome_of(u) if state == "enabled" else None
        for e in view.outgoing[u]:
            if u == START:
                edge_state[e.id] = "enabled"
            elif state == "disabled" or (outcome is not None and outcome.result == "failure"):
                edge_state[e.id] = "disabled"
            elif outcome is not None:
                edge_state[e.id] = "enabled" if outcome.decisions.get(e.id) == "enable" else "disabled"
    return node_state, edge_state


def fixpoint_states(
    dag: ExecutionDag, applied: dict[str, FinalOutcome]
) -> tuple[dict[str, str], dict[str, str]]:
    """Tri-state closure of the applied outcomes, from scratch.

    `applied` maps completed nodes to their final outcomes. Returns
    (node_state, edge_state) with values "unknown" | "enabled" | "disabled".
    """
    return _settle(_View(dag), applied.get)


@dataclass
class SerialSim:
    status: str  # "concluded" | "exhausted"
    conclusion: str | None
    concluding_edge: str | None
    executed: list[str]  # unique node ids, first-start order
    starts: list[str]  # every start incl. retries
    total_time: float
    node_state: dict[str, str]
    edge_state: dict[str, str]


def simulate(dag: ExecutionDag, steps: dict[str, list[dict]], retry_limit: int, k: int) -> SerialSim:
    """The run a scheduler with k executors must produce (see _simulate)."""
    return _simulate(_View(dag), steps, retry_limit, k)


def _simulate(view: _View, steps: dict[str, list[dict]], retry_limit: int, k: int) -> SerialSim:
    """The run a scheduler with k executors must produce.

    One closure settles every element's final state from each step's
    replay_final_outcome; a step with no script decides None, so its edges
    stay unknown and placing it raises ScenarioIncomplete. A loop then places
    attempts on k executors under the README's ordering rules, and a node's
    final completion resolves its edges to their settled states at that
    instant: a target left with no unresolved incoming edge is enqueued if
    enabled and resolved in turn if disabled. A success applied there whose
    decisions do not name exactly the node's outgoing edges raises
    DecisionsMismatch, and one whose decision values the engine would
    refuse raises InvalidEdgeDecision. The first enabled edge into end
    concludes; the end states are the closure of the applied outcomes.
    """
    outcomes: dict[str, FinalOutcome] = {}

    def decide(node: str) -> FinalOutcome | None:
        if view.kind[node] == "step" and steps.get(node):
            outcomes[node] = replay_final_outcome(steps, node, retry_limit)
        return outcomes.get(node)

    node_state, edge_state = _settle(view, decide)
    unresolved = {u: len(ins) for u, ins in view.incoming.items()}
    ready: list[tuple[float, tuple, str]] = []  # heap (enqueue t, id key, node)
    running: list[tuple[float, tuple, str, bool]] = []  # heap (finish t, id key, node, retried)
    attempts: dict[str, int] = {}  # in first-start order
    starts: list[str] = []
    applied: dict[str, FinalOutcome] = {}

    def complete(node: str, t: float) -> DagEdge | None:
        """Resolve `node`'s edges, and those of every node this leaves
        disabled, at time t; return the edge into end that concludes."""
        pending = [node]
        while pending:
            for e in view.outgoing[pending.pop()]:
                if e.target == END:
                    if edge_state[e.id] == "enabled":
                        return e
                    continue
                unresolved[e.target] -= 1
                if not unresolved[e.target]:
                    if node_state[e.target] == "enabled":
                        heapq.heappush(ready, (t, node_sort_key(e.target), e.target))
                    else:
                        pending.append(e.target)
        return None

    t = 0.0
    concluding = complete(START, t)
    while concluding is None:
        while ready and len(running) < k:
            _, key, node = heapq.heappop(ready)
            n = attempts[node] = attempts.get(node, 0) + 1
            result, latency = attempt_fields(scripted_attempt(steps, node, n))[:2]
            starts.append(node)
            heapq.heappush(running, (t + latency, key, node, result == "failure" and n <= retry_limit))
        if not running:
            break
        t, key, node, retried = heapq.heappop(running)
        if retried:
            heapq.heappush(ready, (t, key, node))
        else:
            outcome = applied[node] = outcomes[node]
            if outcome.result == "success":
                _check_coverage(view, node, outcome.decisions)
            concluding = complete(node, t)

    status, conclusion, edge = ("exhausted", None, None) if concluding is None else (
        "concluded", concluding.conclusion or "", concluding.id)
    return SerialSim(status, conclusion, edge, list(attempts), starts, t, *_settle(view, applied.get))


def _check_coverage(view: _View, node: str, decisions: dict[str, str]) -> None:
    """Raise DecisionsMismatch naming the outgoing edges of `node` that
    `decisions` leaves out and the ids it names that are none of them; then
    InvalidEdgeDecision for the first outgoing edge, by id, whose decision
    is neither enable nor disable, or that is unconditional and not enabled."""
    expected = {e.id for e in view.outgoing[node]}
    missing = sorted(expected - set(decisions))
    extra = sorted(set(decisions) - expected)
    if missing or extra:
        parts = ["missing: " + ", ".join(missing)] if missing else []
        parts += ["not outgoing edges: " + ", ".join(extra)] if extra else []
        raise DecisionsMismatch(f"{node}: " + "; ".join(parts))
    for e in view.outgoing[node]:
        if decisions[e.id] not in ("enable", "disable"):
            raise InvalidEdgeDecision(f"{e.id}: decision must be enable|disable")
        if e.condition is None and decisions[e.id] != "enable":
            raise InvalidEdgeDecision(f"{e.id}: unconditional edges must be enabled")


def serial_simulation(dag: ExecutionDag, steps: dict[str, list[dict]], retry_limit: int) -> SerialSim:
    """The k=1 run: one execution at a time, in FIFO order."""
    return simulate(dag, steps, retry_limit, 1)


def max_antichain(dag: ExecutionDag, nodes: list[str]) -> int:
    """Maximum set of mutually unordered nodes among `nodes` (Dilworth); a
    repeated id counts once."""
    return _max_antichain(_View(dag), nodes)


def _max_antichain(view: _View, nodes: list[str]) -> int:
    nodes = list(dict.fromkeys(nodes))
    if not nodes:
        return 0
    # bit i stands for the i-th node in topological order; below[u] is the
    # set of nodes reachable from u, built from its successors' sets
    bit = {u: 1 << i for i, u in enumerate(view.order)}
    below: dict[str, int] = {}
    for u in reversed(view.order):
        reach = 0
        for e in view.outgoing[u]:
            reach |= bit[e.target] | below[e.target]
        below[u] = reach
    chosen = 0
    for u in nodes:
        chosen |= bit[u]
    match: dict[int, str] = {}  # right vertex's bit -> its matched left node

    def augment(root: str) -> bool:
        """Kuhn's depth-first augmenting-path search from `root`, candidates
        lowest bit (earliest in topological order) first. The explicit stack
        keeps path length independent of Python's recursion limit."""
        visited = 0
        stack = [(root, below[root] & chosen)]  # (left node, its right candidates)
        via: list[int] = []  # via[i]: the right vertex that led from stack[i] to stack[i + 1]
        while stack:
            candidates = stack[-1][1] & ~visited
            if not candidates:
                stack.pop()
                if via:
                    via.pop()
                continue
            v = candidates & -candidates
            visited |= v
            via.append(v)
            if v not in match:
                for (left, _), right in zip(stack, via):
                    match[right] = left
                return True
            stack.append((match[v], below[match[v]] & chosen))
        return False

    matching = sum(augment(u) for u in nodes)
    return len(nodes) - matching


@dataclass
class MakespanOracle:
    critical_path_to_conclusion: float | None
    serial_sum: float
    width: int


def started_work(steps: dict[str, list[dict]], starts: list[str]) -> float:
    """The summed latency of every attempt in `starts` (a node's n-th start
    replays its n-th attempt)."""
    seen: dict[str, int] = {}
    work = 0.0
    for node in starts:
        n = seen[node] = seen.get(node, 0) + 1
        work += attempt_fields(scripted_attempt(steps, node, n))[1]
    return work


class Simulator:
    """simulate() for one DAG, script set and retry limit at any k, from one
    view of the DAG; each k is simulated once."""

    def __init__(self, dag: ExecutionDag, steps: dict[str, list[dict]], retry_limit: int):
        self._view = _View(dag)
        self._steps = steps
        self._retry_limit = retry_limit
        self._runs: dict[int, SerialSim] = {}

    def run(self, k: int) -> SerialSim:
        if k not in self._runs:
            self._runs[k] = _simulate(self._view, self._steps, self._retry_limit, k)
        return self._runs[k]

    def makespan(self) -> MakespanOracle:
        """oracle_makespan's bounds: the k=1 run first, then the unbounded one."""
        serial = self.run(1)
        unbounded = self.run(len(self._view.dag.nodes))
        concluded = unbounded.status == "concluded"
        return MakespanOracle(
            critical_path_to_conclusion=unbounded.total_time if concluded else None,
            serial_sum=serial.total_time,
            width=_max_antichain(self._view, unbounded.executed),
        )


def oracle_makespan(dag: ExecutionDag, scenario: dict, retry_limit: int = 2) -> MakespanOracle:
    """Independent bounds for a scenario: the k=1 serial makespan under FIFO
    ordering, and from the unbounded run (one executor per node) the
    earliest conclusion and the realized parallelism width. Raises
    ScenarioIncomplete when either run starts a step that has no script (a
    step that neither run reaches needs none), and DecisionsMismatch when
    either run applies a success whose decisions do not name exactly its
    step's outgoing edges (InvalidEdgeDecision when a value is not enable or
    disable, or disables an unconditional edge)."""
    return Simulator(dag, scenario_steps(scenario), retry_limit).makespan()
