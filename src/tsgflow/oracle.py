"""Independent brute-force oracles for scheduler behavior and makespans.

Everything here recomputes run state from scratch instead of following the
engine's incremental event-driven propagation, so the two sides of every
check stay independent. Each call builds its own view of the DAG: a
topological order (Kahn's algorithm, ties broken by node_sort_key) and each
node's incoming and outgoing edges. It imports nothing from the engine; it
reads scripts through scenario.py (scenario_steps, scripted_attempt,
attempt_fields), the reader backends.ScriptedBackend uses too, because
two readings of one script would be two formats, not two opinions.

  * fixpoint_states: tri-state closure for a set of applied outcomes,
    settled in one pass over the topological order.
  * serial_simulation: the k=1 FIFO execution a scheduler must produce,
    state recomputed from scratch after every step.
  * timed_analysis: earliest possible conclusion time with unbounded
    executors (longest-path over the realized subgraph), the executed node
    set, and the realized parallelism width (maximum antichain).

Width uses Dilworth's theorem: over the transitive closure restricted to
executed nodes, the maximum antichain equals node count minus a maximum
bipartite matching (Fulkerson's reduction). The closure is one Python-int
bitset per node; the matching is Kuhn's augmenting-path search over it.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from .dag import END, START, DagError, ExecutionDag, node_sort_key
from .scenario import attempt_fields, scenario_steps, scripted_attempt


class NotADag(DagError, ValueError):
    """The graph has a cycle, so it has no topological order."""


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
        for e in dag.edges:
            self.outgoing[e.source].append(e)
            self.incoming[e.target].append(e)
        # edges into end by id: the smallest enabled one names the conclusion
        self.into_end = sorted(self.incoming.get(END, []), key=lambda e: e.id)

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


def _conclusion_of(view: _View, edge_state: dict[str, str]) -> tuple[str, str] | None:
    """(edge id, conclusion) of the smallest-id enabled edge into end."""
    for e in view.into_end:
        if edge_state[e.id] == "enabled":
            return e.id, e.conclusion or ""
    return None


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


def serial_simulation(dag: ExecutionDag, steps: dict[str, list[dict]], retry_limit: int) -> SerialSim:
    """Brute-force k=1 FIFO run: one execution at a time, full closure after each.

    Ready ordering matches the scheduler contract: FIFO by enqueue time with
    ties broken by ascending node id; a retried node re-enters the queue at
    its failure time.
    """
    view = _View(dag)
    applied: dict[str, FinalOutcome] = {}
    attempts_done: dict[str, int] = {}
    ready: list[tuple[float, tuple, str]] = []
    ever_enqueued: set[str] = set()
    executed: list[str] = []
    starts: list[str] = []
    t = 0.0

    def refresh(enqueue_time: float) -> tuple[dict[str, str], dict[str, str]]:
        node_state, edge_state = _settle(view, applied.get)
        for node, state in node_state.items():
            if view.kind[node] == "step" and state == "enabled" and node not in ever_enqueued:
                ever_enqueued.add(node)
                heapq.heappush(ready, (enqueue_time, node_sort_key(node), node))
        return node_state, edge_state

    node_state, edge_state = refresh(0.0)
    if node_state[END] == "enabled":  # start wired straight into end
        eid, conclusion = _conclusion_of(view, edge_state)
        return SerialSim("concluded", conclusion, eid, [], [], 0.0, node_state, edge_state)

    while ready:
        _, _, node = heapq.heappop(ready)
        n = attempts_done[node] = attempts_done.get(node, 0) + 1
        result, latency, decisions = attempt_fields(scripted_attempt(steps, node, n))[:3]
        starts.append(node)
        if node not in executed:
            executed.append(node)
        t += latency
        if result == "failure":
            if n <= retry_limit:
                heapq.heappush(ready, (t, node_sort_key(node), node))
                continue
            applied[node] = FinalOutcome("failure", None, 0.0, n)
        else:
            applied[node] = FinalOutcome("success", dict(decisions), 0.0, n)
        node_state, edge_state = refresh(t)
        if node_state[END] == "enabled":
            eid, conclusion = _conclusion_of(view, edge_state)
            return SerialSim("concluded", conclusion, eid, executed, starts, t, node_state, edge_state)

    return SerialSim("exhausted", None, None, executed, starts, t, node_state, edge_state)


@dataclass
class TimedAnalysis:
    conclusion_time: float | None
    concluding_edge: str | None
    executed: list[str]
    width: int
    node_ready: dict[str, float]


def timed_analysis(dag: ExecutionDag, steps: dict[str, list[dict]], retry_limit: int) -> TimedAnalysis:
    """Unbounded-executor timing of the realized run (longest-path analysis)."""
    view = _View(dag)
    applied: dict[str, FinalOutcome] = {}

    def replay(node: str) -> FinalOutcome | None:
        """Every enabled step runs to its final outcome, in topological order."""
        if view.kind[node] != "step":
            return None
        applied[node] = replay_final_outcome(steps, node, retry_limit)
        return applied[node]

    node_state, edge_state = _settle(view, replay)

    edge_time: dict[str, float] = {}
    node_ready: dict[str, float] = {START: 0.0}
    for u in view.order:
        if u != START and node_state[u] not in ("enabled", "disabled"):
            continue
        if u != START:
            ins = view.incoming[u]
            if any(e.id not in edge_time for e in ins):
                continue
            node_ready[u] = max((edge_time[e.id] for e in ins), default=0.0)
        if u == END:
            continue
        latency = applied[u].total_latency if u in applied else 0.0
        finish = node_ready[u] + (latency if node_state[u] == "enabled" else 0.0)
        for e in view.outgoing[u]:
            if edge_state[e.id] != "unknown":
                edge_time[e.id] = finish

    conclusion_time = None
    concluding_edge = None
    for e in view.into_end:
        if edge_state[e.id] == "enabled" and e.id in edge_time:
            if conclusion_time is None or edge_time[e.id] < conclusion_time:
                conclusion_time = edge_time[e.id]
                concluding_edge = e.id

    executed = [
        n.id
        for n in dag.nodes
        if n.kind == "step"
        and node_state[n.id] == "enabled"
        and n.id in node_ready
        and (conclusion_time is None or node_ready[n.id] <= conclusion_time)
    ]
    width = _width(view, executed)
    return TimedAnalysis(conclusion_time, concluding_edge, executed, width, node_ready)


def max_antichain(dag: ExecutionDag, nodes: list[str]) -> int:
    """Maximum set of mutually unordered nodes among `nodes` (Dilworth)."""
    return _width(_View(dag), nodes)


def _width(view: _View, nodes: list[str]) -> int:
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

    matching = sum(augment(u) for u in dict.fromkeys(nodes))
    return len(nodes) - matching


@dataclass
class MakespanOracle:
    critical_path_to_conclusion: float | None
    serial_sum: float
    width: int


def oracle_makespan(dag: ExecutionDag, scenario: dict, retry_limit: int = 2) -> MakespanOracle:
    """Independent bounds for a scenario: earliest conclusion with unbounded
    executors, the k=1 serial makespan under FIFO ordering, and the realized
    parallelism width."""
    steps = scenario_steps(scenario)
    timed = timed_analysis(dag, steps, retry_limit)
    serial = serial_simulation(dag, steps, retry_limit)
    return MakespanOracle(
        critical_path_to_conclusion=timed.conclusion_time,
        serial_sum=serial.total_time,
        width=timed.width,
    )
