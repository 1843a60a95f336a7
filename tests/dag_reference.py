"""The DAG layer as it was before its edges were indexed in one pass, kept
as the reference.

_adjacency builds a source -> targets map, once for the cycle test and once
for the reachability check; validate_dag keeps its own reverse map and scans
every edge for each start and end node; compile_dag indexes the edges in a
loop of its own after validating. The bodies below are that code, unchanged;
tests/test_dag_equivalence.py checks tsgflow.dag against them.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from tsgflow.dag import (
    END,
    START,
    CompiledDag,
    CycleDetected,
    DagEdge,
    DagNode,
    DanglingTarget,
    DuplicateEdge,
    EdgeCondition,
    ExecutionDag,
    InvalidDag,
    Unreachable,
    ValidationReport,
    Violation,
    edge_id,
    node_sort_key,
)
from tsgflow.document import TsgDocument


def extract_dag(doc: TsgDocument) -> ExecutionDag:
    """Build the execution DAG for a parsed document.

    One node per step plus start/end; the start node points at the entry
    step; every directive becomes an edge, and a standalone Terminate: line
    becomes an unconditional edge into end carrying its conclusion.
    """
    dangling = [d for d in doc.diagnostics if d.code == "dangling-target"]
    if dangling:
        details = "; ".join(f"line {d.line}: {d.message}" for d in dangling)
        raise DanglingTarget(details)

    nodes = [DagNode(START, "start", "run start")]
    for step in doc.steps:
        nodes.append(DagNode(f"step{step.id}", "step", step.title, step_ref=step.id))
    nodes.append(DagNode(END, "end", "run end"))

    edges: list[DagEdge] = []
    seen_edge_ids: set[str] = set()

    def add_edge(source: str, target: str, condition=None, conclusion=None) -> None:
        eid = edge_id(source, target)
        if eid in seen_edge_ids:
            raise DuplicateEdge(
                f"{eid}: multiple directives connect the same node pair; "
                "rewrite them as a single edge"
            )
        seen_edge_ids.add(eid)
        edges.append(DagEdge(eid, source, target, condition=condition, conclusion=conclusion))

    add_edge(START, f"step{doc.steps[0].id}")
    for step in doc.steps:
        src = f"step{step.id}"
        for directive in step.next_directives:
            cond = None
            if directive.condition is not None:
                cond = EdgeCondition(directive.condition.question, directive.condition.label)
            if directive.kind == "terminate":
                add_edge(src, END, condition=cond, conclusion=directive.conclusion or "")
            else:
                for target in directive.targets:
                    add_edge(src, f"step{target}", condition=cond)
        if step.terminal_conclusion is not None:
            add_edge(src, END, conclusion=step.terminal_conclusion)

    dag = ExecutionDag(tsg_id=doc.tsg_id, nodes=nodes, edges=edges)

    cycle = _find_cycle(dag)
    if cycle:
        raise CycleDetected("cycle through edges: " + ", ".join(cycle))
    unreachable = _unreachable_from_start(dag)
    if unreachable:
        raise Unreachable("unreachable from start: " + ", ".join(sorted(unreachable)))
    return dag


def _adjacency(dag: ExecutionDag) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {n.id: [] for n in dag.nodes}
    for e in dag.edges:
        if e.source in adj:
            adj[e.source].append(e.target)
    return adj


def _is_acyclic(adj: dict[str, list[str]]) -> bool:
    """Kahn's in-degree test (Kahn 1962): peel off nodes with no incoming
    edge until none is left; the graph is acyclic iff every node goes.

    Targets outside `adj` count for nothing, as in the depth-first search.
    """
    in_degree = Counter(chain.from_iterable(adj.values()))
    ready = [u for u in adj if not in_degree[u]]
    peeled = 0
    while ready:
        peeled += 1
        for v in adj[ready.pop()]:
            in_degree[v] -= 1
            if not in_degree[v] and v in adj:
                ready.append(v)
    return peeled == len(adj)


def _find_cycle(dag: ExecutionDag) -> list[str]:
    """Return the edge ids of one cycle, or [] when acyclic.

    Kahn's test settles an acyclic graph in O(V + E) without sorting. A
    cyclic one goes on to a depth-first search with an explicit stack, so
    guide depth is not bounded by Python's recursion limit: roots are tried
    in node_sort_key order and successors in edge order, and the cycle
    reported is the first back edge met.
    """
    adj = _adjacency(dag)
    if _is_acyclic(adj):
        return []
    return _dfs_cycle(adj)


def _dfs_cycle(adj: dict[str, list[str]]) -> list[str]:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in adj}
    for root in sorted(adj, key=node_sort_key):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        successors = [iter(adj[root])]
        while successors:
            for v in successors[-1]:
                if v not in color:
                    continue
                if color[v] == GRAY:
                    loop = path[path.index(v):] + [v]
                    return [edge_id(a, b) for a, b in zip(loop, loop[1:])]
                if color[v] == WHITE:
                    color[v] = GRAY
                    path.append(v)
                    successors.append(iter(adj[v]))
                    break
            else:
                successors.pop()
                color[path.pop()] = BLACK
    return []


def _unreachable_from_start(dag: ExecutionDag) -> set[str]:
    adj = _adjacency(dag)
    seen = set()
    frontier = [START] if START in adj else []
    while frontier:
        u = frontier.pop()
        if u in seen:
            continue
        seen.add(u)
        frontier.extend(v for v in adj.get(u, []) if v in adj)
    return {n.id for n in dag.nodes} - seen


def validate_dag(dag: ExecutionDag) -> ValidationReport:
    """Check every ExecutionDag invariant; violations are data, not errors."""
    report = ValidationReport()
    add = report.violations.append

    node_ids = [n.id for n in dag.nodes]
    id_set = set(node_ids)
    seen: set[str] = set()
    for n in dag.nodes:
        if n.id in seen:
            add(Violation("duplicate-node-id", n.id, "node id appears more than once"))
        seen.add(n.id)
        if n.kind not in ("start", "step", "end"):
            add(Violation("bad-node-kind", n.id, f"unknown kind {n.kind!r}"))
        if n.kind == "step" and not n.step_ref:
            add(Violation("missing-step-ref", n.id, "step node lacks a TSG step reference"))

    starts = [n for n in dag.nodes if n.kind == "start"]
    ends = [n for n in dag.nodes if n.kind == "end"]
    if len(starts) != 1:
        add(Violation("start-count", START, f"expected exactly 1 start node, found {len(starts)}"))
    if len(ends) != 1:
        add(Violation("end-count", END, f"expected exactly 1 end node, found {len(ends)}"))

    end_ids = {n.id for n in ends}
    seen_edges: set[str] = set()
    for e in dag.edges:
        if e.id in seen_edges:
            add(Violation("duplicate-edge-id", e.id, "edge id appears more than once"))
        seen_edges.add(e.id)
        if e.id != edge_id(e.source, e.target):
            add(
                Violation(
                    "malformed-edge-id",
                    e.id,
                    f"expected canonical id {edge_id(e.source, e.target)!r}",
                )
            )
        if e.source not in id_set or e.target not in id_set:
            add(Violation("unknown-endpoint", e.id, "edge references a node not in the DAG"))
        if e.condition is not None and (
            e.condition.label not in ("Y", "N") or not e.condition.question.strip()
        ):
            add(Violation("malformed-condition", e.id, "conditional edge needs a question and a Y/N label"))
        if e.conclusion is not None and e.target not in end_ids:
            add(Violation("conclusion-not-terminal", e.id, "conclusion on an edge not into end"))

    for n in dag.nodes:
        if n.kind == "start" and any(e.target == n.id for e in dag.edges):
            add(Violation("start-incoming", n.id, "start node has incoming edges"))
        if n.kind == "end" and any(e.source == n.id for e in dag.edges):
            add(Violation("end-outgoing", n.id, "end node has outgoing edges"))

    cycle = _find_cycle(dag)
    if cycle:
        add(Violation("cycle", cycle[0], "cycle through edges: " + ", ".join(cycle)))
        return report  # reachability is not meaningful on cyclic graphs

    for node_id in sorted(_unreachable_from_start(dag), key=node_sort_key):
        add(Violation("unreachable-node", node_id, "node not reachable from start"))

    # Every node must be able to reach end, so termination points exist on
    # every path; this subsumes "step node with no outgoing edges".
    reverse: dict[str, list[str]] = {n.id: [] for n in dag.nodes}
    for e in dag.edges:
        if e.target in reverse:
            reverse[e.target].append(e.source)
    reaches_end = set()
    frontier = [n.id for n in ends]
    while frontier:
        u = frontier.pop()
        if u in reaches_end:
            continue
        reaches_end.add(u)
        frontier.extend(reverse.get(u, []))
    for node_id in sorted(id_set - reaches_end, key=node_sort_key):
        add(Violation("end-unreachable", node_id, "no path from node to end"))

    report.violations.sort(key=lambda v: (v.code, v.subject))
    return report


def compile_dag(dag: ExecutionDag) -> CompiledDag:
    """Validate `dag` and index it in O(E log E); raise InvalidDag on violations."""
    report = validate_dag(dag)
    if not report.ok:
        raise InvalidDag(report.violations)
    nodes = {n.id: n for n in dag.nodes}
    outgoing: dict[str, list[DagEdge]] = {node_id: [] for node_id in nodes}
    in_degree = dict.fromkeys(nodes, 0)
    for e in dag.edges:
        outgoing[e.source].append(e)
        in_degree[e.target] += 1
    return CompiledDag(
        dag=dag,
        nodes=nodes,
        edges={e.id: e for e in dag.edges},
        outgoing={
            node_id: tuple(sorted(out, key=lambda e: e.id)) for node_id, out in outgoing.items()
        },
        in_degree=in_degree,
        sort_key={node_id: node_sort_key(node_id) for node_id in nodes},
    )
