"""The oracle as it was before its one-pass rewrite, kept as the reference.

fixpoint_states rescans every edge until nothing changes, timed_analysis
repeats waves of that rescan, _topological sorts its frontier after every
pop, and max_antichain runs Kuhn's matching over the list of closure pairs.
The bodies below are that code, unchanged; tests/test_oracle_equivalence.py
checks the one-pass oracle in tsgflow.oracle against them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from tsgflow.dag import END, START, ExecutionDag, node_sort_key
from tsgflow.engine import ScenarioIncomplete
from tsgflow.oracle import FinalOutcome, SerialSim, replay_final_outcome


# the record timed_analysis returns, as tsgflow.oracle defined it
@dataclass
class TimedAnalysis:
    conclusion_time: float | None
    concluding_edge: str | None
    executed: list[str]
    width: int
    node_ready: dict[str, float]


def fixpoint_states(
    dag: ExecutionDag, applied: dict[str, FinalOutcome]
) -> tuple[dict[str, str], dict[str, str]]:
    """Naive tri-state closure: rescan all rules until nothing changes.

    `applied` maps completed nodes to their final outcomes. Returns
    (node_state, edge_state) with values "unknown" | "enabled" | "disabled".
    """
    node_state = {n.id: "unknown" for n in dag.nodes}
    edge_state = {e.id: "unknown" for e in dag.edges}
    node_state[START] = "enabled"
    edges = sorted(dag.edges, key=lambda e: e.id)
    incoming: dict[str, list] = {n.id: [] for n in dag.nodes}
    for e in dag.edges:
        incoming[e.target].append(e)

    changed = True
    while changed:
        changed = False
        for e in edges:
            if edge_state[e.id] != "unknown":
                continue
            desired = None
            if e.source == START:
                desired = "enabled"
            elif node_state[e.source] == "disabled":
                desired = "disabled"
            elif node_state[e.source] == "enabled" and e.source in applied:
                outcome = applied[e.source]
                if outcome.result == "failure":
                    desired = "disabled"
                else:
                    desired = "enabled" if outcome.decisions.get(e.id) == "enable" else "disabled"
            if desired is not None:
                edge_state[e.id] = desired
                changed = True
        for n in dag.nodes:
            if n.id == START or node_state[n.id] != "unknown":
                continue
            ins = incoming[n.id]
            states = [edge_state[e.id] for e in ins]
            if n.id == END:
                if any(s == "enabled" for s in states):
                    node_state[END] = "enabled"
                    changed = True
                continue
            if ins and all(s != "unknown" for s in states):
                node_state[n.id] = "enabled" if any(s == "enabled" for s in states) else "disabled"
                changed = True
    return node_state, edge_state


def _conclusion_of(dag: ExecutionDag, edge_state: dict[str, str]) -> tuple[str, str] | None:
    """(edge id, conclusion) of the smallest-id enabled edge into end."""
    for e in sorted(dag.edges, key=lambda e: e.id):
        if e.target == END and edge_state[e.id] == "enabled":
            return e.id, e.conclusion or ""
    return None


def serial_simulation(dag: ExecutionDag, steps: dict[str, list[dict]], retry_limit: int) -> SerialSim:
    """Brute-force k=1 FIFO run: one execution at a time, full rescan after each.

    Ready ordering matches the scheduler contract: FIFO by enqueue time with
    ties broken by ascending node id; a retried node re-enters the queue at
    its failure time.
    """
    applied: dict[str, FinalOutcome] = {}
    attempts_done: dict[str, int] = {}
    ready: list[tuple[float, tuple, str]] = []
    queued: set[str] = set()
    ever_enqueued: set[str] = set()
    executed: list[str] = []
    starts: list[str] = []
    t = 0.0

    def refresh(enqueue_time: float) -> tuple[dict[str, str], dict[str, str]]:
        node_state, edge_state = fixpoint_states(dag, applied)
        for n in dag.nodes:
            if (
                n.kind == "step"
                and node_state[n.id] == "enabled"
                and n.id not in ever_enqueued
            ):
                ever_enqueued.add(n.id)
                queued.add(n.id)
                heapq.heappush(ready, (enqueue_time, node_sort_key(n.id), n.id))
        return node_state, edge_state

    node_state, edge_state = refresh(0.0)
    if node_state[END] == "enabled":  # start wired straight into end
        eid, conclusion = _conclusion_of(dag, edge_state)
        return SerialSim("concluded", conclusion, eid, [], [], 0.0, node_state, edge_state)

    while ready:
        _, _, node = heapq.heappop(ready)
        queued.discard(node)
        attempts = steps.get(node)
        if not attempts:
            raise ScenarioIncomplete(f"scenario has no attempts for {node}")
        i = attempts_done.get(node, 0)
        attempt = attempts[min(i, len(attempts) - 1)]
        attempts_done[node] = i + 1
        starts.append(node)
        if node not in executed:
            executed.append(node)
        t += attempt.get("latency", 0)
        if attempt.get("result") == "failure":
            if attempts_done[node] <= retry_limit:
                heapq.heappush(ready, (t, node_sort_key(node), node))
                queued.add(node)
                continue
            applied[node] = FinalOutcome("failure", None, 0.0, attempts_done[node])
        else:
            applied[node] = FinalOutcome(
                "success", dict(attempt.get("edge_decisions", {})), 0.0, attempts_done[node]
            )
        node_state, edge_state = refresh(t)
        if node_state[END] == "enabled":
            eid, conclusion = _conclusion_of(dag, edge_state)
            return SerialSim("concluded", conclusion, eid, executed, starts, t, node_state, edge_state)

    return SerialSim("exhausted", None, None, executed, starts, t, node_state, edge_state)


def _topological(dag: ExecutionDag) -> list[str]:
    indegree = {n.id: 0 for n in dag.nodes}
    for e in dag.edges:
        indegree[e.target] += 1
    frontier = sorted((n for n, d in indegree.items() if d == 0), key=node_sort_key)
    order = []
    while frontier:
        u = frontier.pop(0)
        order.append(u)
        for e in dag.edges:
            if e.source == u:
                indegree[e.target] -= 1
                if indegree[e.target] == 0:
                    frontier.append(e.target)
        frontier.sort(key=lambda n: node_sort_key(n))
    return order


def timed_analysis(dag: ExecutionDag, steps: dict[str, list[dict]], retry_limit: int) -> TimedAnalysis:
    """Unbounded-executor timing of the realized run (longest-path analysis)."""
    applied: dict[str, FinalOutcome] = {}
    while True:
        node_state, edge_state = fixpoint_states(dag, applied)
        new = [
            n.id
            for n in dag.nodes
            if n.kind == "step" and node_state[n.id] == "enabled" and n.id not in applied
        ]
        if not new:
            break
        for node in new:
            attempts = steps.get(node)
            if not attempts:
                raise ScenarioIncomplete(f"scenario has no attempts for {node}")
            applied[node] = replay_final_outcome(steps, node, retry_limit)

    edge_time: dict[str, float] = {}
    node_ready: dict[str, float] = {START: 0.0}
    for u in _topological(dag):
        if u != START and node_state.get(u) not in ("enabled", "disabled"):
            continue
        if u != START:
            ins = [e for e in dag.edges if e.target == u]
            if any(e.id not in edge_time for e in ins):
                continue
            node_ready[u] = max((edge_time[e.id] for e in ins), default=0.0)
        if u == END:
            continue
        latency = applied[u].total_latency if u in applied else 0.0
        finish = node_ready[u] + (latency if node_state[u] == "enabled" else 0.0)
        for e in dag.edges:
            if e.source == u and edge_state[e.id] != "unknown":
                edge_time[e.id] = finish

    conclusion_time = None
    concluding_edge = None
    for e in sorted(dag.edges, key=lambda e: e.id):
        if e.target == END and edge_state[e.id] == "enabled" and e.id in edge_time:
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
    width = max_antichain(dag, executed)
    return TimedAnalysis(conclusion_time, concluding_edge, executed, width, node_ready)


def max_antichain(dag: ExecutionDag, nodes: list[str]) -> int:
    """Maximum set of mutually unordered nodes among `nodes` (Dilworth)."""
    if not nodes:
        return 0
    adjacency: dict[str, set[str]] = {n.id: set() for n in dag.nodes}
    for e in dag.edges:
        adjacency[e.source].add(e.target)
    reach: dict[str, set[str]] = {}

    def reachable(u: str) -> set[str]:
        if u in reach:
            return reach[u]
        seen: set[str] = set()
        frontier = list(adjacency[u])
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            frontier.extend(adjacency[v])
        reach[u] = seen
        return seen

    index = {n: i for i, n in enumerate(nodes)}
    pairs = [
        (index[u], index[v])
        for u in nodes
        for v in reachable(u)
        if v in index and v != u
    ]
    right_of: dict[int, list[int]] = {i: [] for i in range(len(nodes))}
    for u, v in pairs:
        right_of[u].append(v)

    match_right: dict[int, int] = {}

    def augment(root: int) -> bool:
        """Kuhn's depth-first augmenting-path search from `root`. The explicit
        stack visits and matches exactly as the recursive form would, with
        path length independent of Python's recursion limit."""
        visited: set[int] = set()
        stack = [(root, iter(right_of[root]))]
        via: list[int] = []  # via[i]: the right vertex that led from stack[i] to stack[i + 1]
        while stack:
            u, candidates = stack[-1]
            for v in candidates:
                if v in visited:
                    continue
                visited.add(v)
                via.append(v)
                if v not in match_right:
                    for (left, _), right in zip(stack, via):
                        match_right[right] = left
                    return True
                stack.append((match_right[v], iter(right_of[match_right[v]])))
                break
            else:
                stack.pop()
                if via:
                    via.pop()
        return False

    matching = 0
    for u in range(len(nodes)):
        if augment(u):
            matching += 1
    return len(nodes) - matching
