"""Execution DAG model: extraction from documents, validation, JSON round-trip.

Nodes are "start", "end", and one "step<id>" node per TSG step. Edges carry
canonical ids of the form ``edge_<from>_<to>``; conditional edges carry a
question with a Y/N label, and edges into "end" carry the conclusion text of
the termination point they realize.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter

from .document import Condition, TsgDocument, step_id_key
from .errors import JSON_DECODE_ERRORS, TsgflowError
from .records import frozen_record

START = "start"
END = "end"

_id = attrgetter("id")
_target = attrgetter("target")


class DagError(TsgflowError):
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
        self.message = message


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


EdgeCondition = Condition  # an edge's question and Y/N label: the directive's own record


@frozen_record
class DagNode:
    id: str
    kind: str  # start | step | end
    description: str = ""
    step_ref: str | None = None


@frozen_record
class DagEdge:
    id: str
    source: str
    target: str
    condition: Condition | None = None
    conclusion: str | None = None


@dataclass
class ExecutionDag:
    tsg_id: str
    nodes: list[DagNode]
    edges: list[DagEdge]


_Edges = dict[str, list[DagEdge]]  # node id -> edges, in edge order


@frozen_record
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
            if directive.kind == "terminate":
                add_edge(src, END, directive.condition, directive.conclusion or "")
            else:
                for target in directive.targets:
                    add_edge(src, f"step{target}", directive.condition)
        if step.terminal_conclusion is not None:
            add_edge(src, END, conclusion=step.terminal_conclusion)

    dag = ExecutionDag(tsg_id=doc.tsg_id, nodes=nodes, edges=edges)

    outgoing, in_degree = _edge_index(dag)
    order = _topological_order(outgoing, in_degree)
    if order is None:
        raise CycleDetected("cycle through edges: " + ", ".join(_find_cycle(outgoing)))
    unreachable = outgoing.keys() - _reached_from_start(order, outgoing)
    if unreachable:
        raise Unreachable("unreachable from start: " + ", ".join(sorted(unreachable)))
    return dag


def _edge_index(dag: ExecutionDag) -> tuple[_Edges, dict[str, int]]:
    """Each node's outgoing edges, in edge order, and its in-degree, from
    one pass over the edges. A repeated node id gets one entry; an edge is
    listed under its source where that is a node, and counted under its
    target where that is a node, so an edge from an unknown node still
    counts as entering its target."""
    outgoing: _Edges = {n.id: [] for n in dag.nodes}
    in_degree = dict.fromkeys(outgoing, 0)
    for e in dag.edges:
        if e.source in outgoing:
            outgoing[e.source].append(e)
        if e.target in in_degree:
            in_degree[e.target] += 1
    return outgoing, in_degree


def _topological_order(outgoing: _Edges, pending: dict[str, int]) -> list[str] | None:
    """Kahn's pass (Kahn 1962): peel off nodes no remaining edge enters.

    `pending` counts each node's incoming edges from nodes and is used up.
    Returns every node in a topological order, or None when a cycle keeps
    some back. Targets that are not nodes count for nothing, as in the
    depth-first search.
    """
    order = [u for u, n in pending.items() if not n]
    for u in order:  # the list grows as nodes are peeled
        for v in map(_target, outgoing[u]):
            if v in pending:
                pending[v] -= 1
                if not pending[v]:
                    order.append(v)
    return order if len(order) == len(pending) else None


def _find_cycle(outgoing: _Edges) -> list[str]:
    """Return the edge ids of one cycle, or [] when acyclic.

    A depth-first search with an explicit stack, so guide depth is not
    bounded by Python's recursion limit: roots are tried in node_sort_key
    order and successors in edge order, and the cycle reported is the first
    back edge met. Callers run it only once Kahn's pass has failed.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in outgoing}
    for root in sorted(outgoing, key=node_sort_key):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        successors = [map(_target, outgoing[root])]
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
                    successors.append(map(_target, outgoing[v]))
                    break
            else:
                successors.pop()
                color[path.pop()] = BLACK
    return []


def _reached_from_start(order: list[str], outgoing: _Edges) -> set[str]:
    """Every id reached from start along edges, in one forward sweep over a
    topological order; an id that is not a node is reached but leads
    nowhere."""
    reached = {START}
    for u in order:
        if u in reached:
            reached.update(map(_target, outgoing[u]))
    return reached


def _reaching_end(order: list[str], outgoing: _Edges, ends: set[str]) -> set[str]:
    """Every node with a path to one of `ends`, in one backward sweep over a
    topological order: a node reaches them when one of its targets does."""
    reaching = set(ends)
    for u in reversed(order):
        if u not in reaching and not reaching.isdisjoint(map(_target, outgoing[u])):
            reaching.add(u)
    return reaching


def validate_dag(dag: ExecutionDag) -> ValidationReport:
    """Check every ExecutionDag invariant; violations are data, not errors."""
    return _validate(dag, *_edge_index(dag))


def _validate(dag: ExecutionDag, outgoing: _Edges, in_degree: dict[str, int]) -> ValidationReport:
    report = ValidationReport()
    add = report.violations.append

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
    pending = dict(in_degree)  # Kahn's count leaves out edges from unknown nodes
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
        if e.source not in outgoing or e.target not in outgoing:
            add(Violation("unknown-endpoint", e.id, "edge references a node not in the DAG"))
            if e.target in pending:
                pending[e.target] -= 1
        if e.condition is not None and (
            e.condition.label not in ("Y", "N") or not e.condition.question.strip()
        ):
            add(Violation("malformed-condition", e.id, "conditional edge needs a question and a Y/N label"))
        if e.conclusion is not None and e.target not in end_ids:
            add(Violation("conclusion-not-terminal", e.id, "conclusion on an edge not into end"))

    for n in dag.nodes:
        if n.kind == "start" and in_degree[n.id]:
            add(Violation("start-incoming", n.id, "start node has incoming edges"))
        if n.kind == "end" and outgoing[n.id]:
            add(Violation("end-outgoing", n.id, "end node has outgoing edges"))

    order = _topological_order(outgoing, pending)
    if order is None:
        cycle = _find_cycle(outgoing)
        add(Violation("cycle", cycle[0], "cycle through edges: " + ", ".join(cycle)))
        return report  # reachability is not meaningful on cyclic graphs

    unreachable = outgoing.keys() - _reached_from_start(order, outgoing)
    for node_id in sorted(unreachable, key=node_sort_key):
        add(Violation("unreachable-node", node_id, "node not reachable from start"))

    # Every node must be able to reach end, so termination points exist on
    # every path; this subsumes "step node with no outgoing edges".
    reaches_end = _reaching_end(order, outgoing, end_ids)
    for node_id in sorted(outgoing.keys() - reaches_end, key=node_sort_key):
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

    Built by compile_dag from the same one-pass edge index its validation
    reads. Every table is read-only after construction: `nodes` and `edges`
    map ids to elements, `outgoing` holds each node's edges sorted by id,
    `in_degree` counts incoming edges and `sort_key` holds node_sort_key of
    every node.
    """

    dag: ExecutionDag
    nodes: dict[str, DagNode]
    edges: dict[str, DagEdge]
    outgoing: dict[str, tuple[DagEdge, ...]]
    in_degree: dict[str, int]
    sort_key: dict[str, tuple]


def compile_dag(dag: ExecutionDag) -> CompiledDag:
    """Validate `dag` and index it in O(E log E) from one pass over its edges;
    raise InvalidDag on violations."""
    outgoing, in_degree = _edge_index(dag)
    report = _validate(dag, outgoing, in_degree)
    if not report.ok:
        raise InvalidDag(report.violations)
    return CompiledDag(
        dag=dag,
        nodes={n.id: n for n in dag.nodes},
        edges={e.id: e for e in dag.edges},
        outgoing={node_id: tuple(sorted(out, key=_id)) for node_id, out in outgoing.items()},
        in_degree=in_degree,
        sort_key={node_id: node_sort_key(node_id) for node_id in outgoing},
    )


_json_str = json.encoder.encode_basestring  # the C escaper json.dumps(ensure_ascii=False) uses


def _json_array(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _condition_json(c: Condition | None) -> str:
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
        for n in sorted(dag.nodes, key=_id)
    ]
    edges = [
        f'    {{\n      "id": {q(e.id)},\n      "from": {q(e.source)},\n      "to": {q(e.target)},\n'
        f'      "condition": {_condition_json(e.condition)},\n'
        f'      "conclusion": {"null" if e.conclusion is None else q(e.conclusion)}\n    }}'
        for e in sorted(dag.edges, key=_id)
    ]
    return (
        f'{{\n  "tsg_id": {q(dag.tsg_id)},\n  "nodes": {_json_array(nodes)},\n'
        f'  "edges": {_json_array(edges)}\n}}\n'
    )


_NODE_KINDS = ("start", "step", "end")
_LABELS = ("Y", "N")


def _loaded_node(i: int, raw) -> DagNode:
    """The node at /nodes/i: object, then id, kind, description, step_ref."""
    if type(raw) is not dict:
        raise SchemaViolation(f"/nodes/{i}", "must be an object")
    node_id = raw.get("id")
    if type(node_id) is not str or not node_id:
        raise SchemaViolation(f"/nodes/{i}/id", "required string")
    kind = raw.get("kind")
    if kind not in _NODE_KINDS:
        raise SchemaViolation(f"/nodes/{i}/kind", "must be start|step|end")
    description = raw.get("description")
    if type(description) is not str:
        raise SchemaViolation(f"/nodes/{i}/description", "required string")
    step_ref = raw.get("step_ref")
    if step_ref is not None and type(step_ref) is not str:
        raise SchemaViolation(f"/nodes/{i}/step_ref", "string or null")
    return DagNode(node_id, kind, description, step_ref)


def _loaded_edge(i: int, raw) -> DagEdge:
    """The edge at /edges/i: object, then id, from, to, condition, conclusion."""
    if type(raw) is not dict:
        raise SchemaViolation(f"/edges/{i}", "must be an object")
    eid, source, target = raw.get("id"), raw.get("from"), raw.get("to")
    if type(eid) is not str or not eid:
        raise SchemaViolation(f"/edges/{i}/id", "required string")
    if type(source) is not str or not source:
        raise SchemaViolation(f"/edges/{i}/from", "required string")
    if type(target) is not str or not target:
        raise SchemaViolation(f"/edges/{i}/to", "required string")
    condition = raw.get("condition")
    if condition is not None:
        if type(condition) is not dict:
            raise SchemaViolation(f"/edges/{i}/condition", "object or null")
        question, label = condition.get("question"), condition.get("label")
        if type(question) is not str:
            raise SchemaViolation(f"/edges/{i}/condition/question", "required string")
        if label not in _LABELS:
            raise SchemaViolation(f"/edges/{i}/condition/label", "must be Y or N")
        condition = Condition(question, label)
    conclusion = raw.get("conclusion")
    if conclusion is not None and type(conclusion) is not str:
        raise SchemaViolation(f"/edges/{i}/conclusion", "string or null")
    return DagEdge(eid, source, target, condition, conclusion)


def load_dag(text: str) -> ExecutionDag:
    """Parse and schema-check a DAG document produced by serialize_dag.

    Checks the top level (the text is JSON and an object, `nodes` a
    non-empty array, `edges` an array, `tsg_id` a string), then each node,
    then each edge; raises SchemaViolation at the first field at fault. Text
    nested too deeply or with too long a number fails at "/" as not JSON.
    """
    try:
        obj = json.loads(text)
    except JSON_DECODE_ERRORS as exc:
        raise SchemaViolation("/", f"not valid JSON: {exc}") from exc
    if type(obj) is not dict:
        raise SchemaViolation("/", "document must be an object")
    nodes, edges, tsg_id = obj.get("nodes"), obj.get("edges"), obj.get("tsg_id")
    if type(nodes) is not list or not nodes:
        raise SchemaViolation("/nodes", "required non-empty array")
    if type(edges) is not list:
        raise SchemaViolation("/edges", "required array")
    if type(tsg_id) is not str:
        raise SchemaViolation("/tsg_id", "required string")
    return ExecutionDag(tsg_id, [_loaded_node(i, raw) for i, raw in enumerate(nodes)],
                        [_loaded_edge(i, raw) for i, raw in enumerate(edges)])


def structurally_equal(a: ExecutionDag, b: ExecutionDag) -> bool:
    return (
        a.tsg_id == b.tsg_id
        and sorted(a.nodes, key=_id) == sorted(b.nodes, key=_id)
        and sorted(a.edges, key=_id) == sorted(b.edges, key=_id)
    )
