"""load_dag as it was before its schema was written once, frozen as the
reference.

Each node and edge first passed a combined type test; one that failed it
went through the ordered checks (_checked_node, _checked_edge), which raise
SchemaViolation naming the first field at fault. The bodies below are that
code, unchanged, and must stay so; tests/test_load_dag_equivalence.py checks
tsgflow.dag.load_dag against them.
"""

from __future__ import annotations

import json

from tsgflow.dag import DagEdge, DagNode, EdgeCondition, ExecutionDag, SchemaViolation

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
