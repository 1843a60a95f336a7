"""Execution DAG model: extraction from documents, validation, JSON round-trip.

Nodes are "start", "end", and one "step<id>" node per TSG step. Edges carry
canonical ids of the form ``edge_<from>_<to>``; conditional edges carry a
question with a Y/N label, and edges into "end" carry the conclusion text of
the termination point they realize.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from .document import TsgDocument, step_id_key

START = "start"
END = "end"


class DagError(Exception):
    """Raised when a document cannot be turned into a valid DAG."""


class DanglingTarget(DagError):
    pass


class CycleDetected(DagError):
    pass


class Unreachable(DagError):
    pass


class DuplicateEdge(DagError):
    pass


class SchemaViolation(DagError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def edge_id(source: str, target: str) -> str:
    return f"edge_{source}_{target}"


def node_sort_key(node_id: str) -> tuple:
    """Scheduling/sorting order: start, then step ids numerically, then end."""
    if node_id == START:
        return (0, (), "")
    if node_id == END:
        return (2, (), "")
    rest = node_id[4:] if node_id.startswith("step") else node_id
    return (1, step_id_key(rest), node_id)


@dataclass(frozen=True)
class EdgeCondition:
    question: str
    label: str  # "Y" or "N"


@dataclass(frozen=True)
class DagNode:
    id: str
    kind: str  # start | step | end
    description: str = ""
    step_ref: str | None = None


@dataclass(frozen=True)
class DagEdge:
    id: str
    source: str
    target: str
    condition: EdgeCondition | None = None
    conclusion: str | None = None


@dataclass
class ExecutionDag:
    tsg_id: str
    nodes: list[DagNode]
    edges: list[DagEdge]

    def outgoing(self, node_id: str) -> list[DagEdge]:
        return sorted((e for e in self.edges if e.source == node_id), key=lambda e: e.id)

    def step_nodes(self) -> list[DagNode]:
        return [n for n in self.nodes if n.kind == "step"]


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}


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


class InvalidDag(DagError):
    """An ExecutionDag failed validation; `violations` holds the report's entries."""

    def __init__(self, violations: list[Violation]):
        super().__init__("; ".join(f"{v.code}({v.subject})" for v in violations))
        self.violations = violations


@dataclass(frozen=True)
class CompiledDag:
    """An ExecutionDag validated once and indexed for the scheduler.

    Built by compile_dag. Every table is read-only after construction:
    `nodes` and `edges` map ids to elements, `outgoing` holds each node's
    edges sorted by id, `in_degree` counts incoming edges and `sort_key`
    holds node_sort_key of every node.
    """

    dag: ExecutionDag
    nodes: dict[str, DagNode]
    edges: dict[str, DagEdge]
    outgoing: dict[str, tuple[DagEdge, ...]]
    in_degree: dict[str, int]
    sort_key: dict[str, tuple]


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


_json_str = json.encoder.encode_basestring  # the C escaper json.dumps(ensure_ascii=False) uses


def _json_array(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _condition_json(c: EdgeCondition | None) -> str:
    if c is None:
        return "null"
    return (
        f'{{\n        "question": {_json_str(c.question)},\n'
        f'        "label": {_json_str(c.label)}\n      }}'
    )


def serialize_dag(dag: ExecutionDag) -> str:
    """Byte-stable JSON: nodes then edges, each sorted by id.

    The text is exactly json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    of {"tsg_id", "nodes", "edges"}, where each node is {"id", "kind",
    "description", "step_ref"} and each edge is {"id", "from", "to",
    "condition", "conclusion"}, keys in that order; a condition is
    {"question", "label"}. Non-ASCII text is written as is, an empty list as
    [] and a missing step_ref, condition or conclusion as null. Every other
    field must be a str. The layout is built here and only strings go
    through json's C escaper.
    """
    q = _json_str
    nodes = [
        f'    {{\n      "id": {q(n.id)},\n      "kind": {q(n.kind)},\n'
        f'      "description": {q(n.description)},\n'
        f'      "step_ref": {"null" if n.step_ref is None else q(n.step_ref)}\n    }}'
        for n in sorted(dag.nodes, key=attrgetter("id"))
    ]
    edges = [
        f'    {{\n      "id": {q(e.id)},\n      "from": {q(e.source)},\n      "to": {q(e.target)},\n'
        f'      "condition": {_condition_json(e.condition)},\n'
        f'      "conclusion": {"null" if e.conclusion is None else q(e.conclusion)}\n    }}'
        for e in sorted(dag.edges, key=attrgetter("id"))
    ]
    return (
        f'{{\n  "tsg_id": {q(dag.tsg_id)},\n  "nodes": {_json_array(nodes)},\n'
        f'  "edges": {_json_array(edges)}\n}}\n'
    )


_NODE_KINDS = ("start", "step", "end")
_LABELS = ("Y", "N")


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaViolation(path, message)


def _checked_node(path: str, raw) -> DagNode:
    _expect(isinstance(raw, dict), path, "must be an object")
    _expect(isinstance(raw.get("id"), str) and raw["id"], f"{path}/id", "required string")
    _expect(raw.get("kind") in _NODE_KINDS, f"{path}/kind", "must be start|step|end")
    _expect(isinstance(raw.get("description"), str), f"{path}/description", "required string")
    step_ref = raw.get("step_ref")
    _expect(step_ref is None or isinstance(step_ref, str), f"{path}/step_ref", "string or null")
    return DagNode(raw["id"], raw["kind"], raw["description"], step_ref)


def _checked_edge(path: str, raw) -> DagEdge:
    _expect(isinstance(raw, dict), path, "must be an object")
    for key in ("id", "from", "to"):
        _expect(isinstance(raw.get(key), str) and raw[key], f"{path}/{key}", "required string")
    condition = raw.get("condition")
    cond = None
    if condition is not None:
        _expect(isinstance(condition, dict), f"{path}/condition", "object or null")
        _expect(
            isinstance(condition.get("question"), str),
            f"{path}/condition/question",
            "required string",
        )
        _expect(condition.get("label") in _LABELS, f"{path}/condition/label", "must be Y or N")
        cond = EdgeCondition(condition["question"], condition["label"])
    conclusion = raw.get("conclusion")
    _expect(
        conclusion is None or isinstance(conclusion, str), f"{path}/conclusion", "string or null"
    )
    return DagEdge(raw["id"], raw["from"], raw["to"], cond, conclusion)


def load_dag(text: str) -> ExecutionDag:
    """Parse and schema-check a DAG document produced by serialize_dag.

    Each node and edge passes one combined type test; only one that fails it
    goes through the ordered checks (_checked_node, _checked_edge), which
    raise SchemaViolation naming the first field at fault.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation("/", f"not valid JSON: {exc}") from exc
    _expect(isinstance(obj, dict), "/", "document must be an object")
    _expect(isinstance(obj.get("nodes"), list) and obj["nodes"], "/nodes", "required non-empty array")
    _expect(isinstance(obj.get("edges"), list), "/edges", "required array")
    _expect(isinstance(obj.get("tsg_id"), str), "/tsg_id", "required string")

    nodes = [
        DagNode(node_id, kind, description, step_ref)
        if type(raw) is dict
        and type(node_id := raw.get("id")) is str
        and node_id
        and (kind := raw.get("kind")) in _NODE_KINDS
        and type(description := raw.get("description")) is str
        and ((step_ref := raw.get("step_ref")) is None or type(step_ref) is str)
        else _checked_node(f"/nodes/{i}", raw)
        for i, raw in enumerate(obj["nodes"])
    ]
    edges = [
        DagEdge(
            eid, source, target,
            None if c is None else EdgeCondition(c["question"], c["label"]),
            conclusion,
        )
        if type(raw) is dict
        and type(eid := raw.get("id")) is str
        and eid
        and type(source := raw.get("from")) is str
        and source
        and type(target := raw.get("to")) is str
        and target
        and (
            (c := raw.get("condition")) is None
            or (type(c) is dict and type(c.get("question")) is str and c.get("label") in _LABELS)
        )
        and ((conclusion := raw.get("conclusion")) is None or type(conclusion) is str)
        else _checked_edge(f"/edges/{i}", raw)
        for i, raw in enumerate(obj["edges"])
    ]
    return ExecutionDag(tsg_id=obj["tsg_id"], nodes=nodes, edges=edges)


def structurally_equal(a: ExecutionDag, b: ExecutionDag) -> bool:
    key_n = lambda n: n.id  # noqa: E731
    key_e = lambda e: e.id  # noqa: E731
    return (
        a.tsg_id == b.tsg_id
        and sorted(a.nodes, key=key_n) == sorted(b.nodes, key=key_n)
        and sorted(a.edges, key=key_e) == sorted(b.edges, key=key_e)
    )
