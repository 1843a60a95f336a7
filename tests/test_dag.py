from __future__ import annotations

import random

import pytest

from randdag import random_scripted_dag
from tsgflow.dag import (
    CycleDetected,
    DagEdge,
    DagNode,
    DanglingTarget,
    DuplicateEdge,
    EdgeCondition,
    SchemaViolation,
    Unreachable,
    compile_dag,
    edge_id,
    extract_dag,
    load_dag,
    node_sort_key,
    serialize_dag,
    structurally_equal,
    validate_dag,
)
from tsgflow.document import parse_tsg


def test_fig_dag_reconstruction(fig4_bundle):
    dag = fig4_bundle.dag
    assert len(dag.nodes) == 11
    assert len(dag.edges) == 15
    ids = {n.id for n in dag.nodes}
    assert ids == {
        "start", "step1", "step2", "step3.1", "step3.2", "step3.3", "step3.4",
        "step4.1", "step4.2", "step5", "end",
    }
    by_id = {e.id: e for e in dag.edges}
    known = by_id["edge_step2_end"]
    assert known.condition.label == "Y"
    assert known.conclusion == "known issue"
    fallback = by_id["edge_step3.1_step4.1"]
    assert fallback.condition.label == "N"
    assert fallback.conclusion is None
    assert validate_dag(dag).ok


def test_parallel_dag_shape(fig5_bundle):
    dag = fig5_bundle.dag
    from_step1 = compile_dag(dag).outgoing["step1"]
    assert {e.target for e in from_step1} == {"step2", "step3.1", "step4.1"}
    assert all(e.condition is None for e in from_step1)
    fallbacks = {e.source for e in dag.edges if e.target == "step5"}
    assert fallbacks == {"step2", "step3.1", "step3.2", "step3.4", "step4.2"}
    assert validate_dag(dag).ok


def test_single_terminating_step():
    doc = parse_tsg("# TSG: one — One step\n\n## Step 1: Only\nTerminate: fin\n")
    dag = extract_dag(doc)
    assert sorted(n.id for n in dag.nodes) == ["end", "start", "step1"]
    assert sorted(e.id for e in dag.edges) == ["edge_start_step1", "edge_step1_end"]
    terminal = next(e for e in dag.edges if e.target == "end")
    assert terminal.conclusion == "fin"


def test_extract_requires_no_dangling_targets():
    doc = parse_tsg("# TSG: d — Dangle\n\n## Step 1: A\nNext:\n- Step 9\n")
    with pytest.raises(DanglingTarget):
        extract_dag(doc)


def test_extract_detects_cycles():
    text = """# TSG: cyc — Cycle

## Step 1: A
Next:
- Step 2

## Step 2: B
Next:
- Step 1
"""
    with pytest.raises(CycleDetected):
        extract_dag(parse_tsg(text))


def test_extract_detects_unreachable():
    text = """# TSG: unr — Unreachable

## Step 1: A
Terminate: end here

## Step 2: B
Terminate: never reached
"""
    with pytest.raises(Unreachable):
        extract_dag(parse_tsg(text))


def test_duplicate_edge_rejected():
    text = """# TSG: dup — Duplicate pair

## Step 1: A
Next:
- If the probe fires: Y -> Step 2; N -> Step 2

## Step 2: B
Terminate: end
"""
    with pytest.raises(DuplicateEdge):
        extract_dag(parse_tsg(text))


def _tiny_dag(edges, tsg_id="hand"):
    node_ids = {"start", "end"}
    for source, target, *_ in edges:
        node_ids.add(source)
        node_ids.add(target)
    nodes = []
    for node_id in sorted(node_ids):
        if node_id == "start":
            nodes.append(DagNode("start", "start", "run start"))
        elif node_id == "end":
            nodes.append(DagNode("end", "end", "run end"))
        else:
            nodes.append(DagNode(node_id, "step", node_id, step_ref=node_id[4:]))
    dag_edges = []
    for source, target, *rest in edges:
        condition = rest[0] if rest else None
        conclusion = rest[1] if len(rest) > 1 else ("done" if target == "end" else None)
        dag_edges.append(DagEdge(edge_id(source, target), source, target, condition, conclusion))
    from tsgflow.dag import ExecutionDag

    return ExecutionDag(tsg_id=tsg_id, nodes=nodes, edges=dag_edges)


def test_validate_reports_cycle():
    dag = _tiny_dag([("start", "step1"), ("step1", "step2"), ("step2", "end")])
    dag.edges.append(DagEdge(edge_id("step2", "step1"), "step2", "step1"))
    report = validate_dag(dag)
    assert "cycle" in report.codes()
    violation = next(v for v in report.violations if v.code == "cycle")
    assert "edge_step1_step2" in violation.message and "edge_step2_step1" in violation.message


def test_validate_reports_malformed_edge_id():
    dag = _tiny_dag([("start", "step1"), ("step1", "end")])
    dag.edges[0] = DagEdge("e1", "start", "step1")
    report = validate_dag(dag)
    assert "malformed-edge-id" in report.codes()


def test_validate_reports_unreachable_and_end_unreachable():
    dag = _tiny_dag([("start", "step1"), ("step1", "end"), ("step2", "end")])
    report = validate_dag(dag)
    assert "unreachable-node" in report.codes()

    dag2 = _tiny_dag([("start", "step1"), ("step1", "step2"), ("step1", "end")])
    report2 = validate_dag(dag2)
    assert "end-unreachable" in report2.codes()


def test_validate_reports_condition_and_conclusion_misuse():
    dag = _tiny_dag([("start", "step1"), ("step1", "end")])
    dag.edges.append(
        DagEdge(edge_id("start", "end"), "start", "end", EdgeCondition("", "X"), None)
    )
    report = validate_dag(dag)
    assert "malformed-condition" in report.codes()

    dag2 = _tiny_dag([("start", "step1"), ("step1", "step2"), ("step2", "end")])
    bad = dag2.edges[1]
    dag2.edges[1] = DagEdge(bad.id, bad.source, bad.target, None, "not allowed here")
    assert "conclusion-not-terminal" in validate_dag(dag2).codes()


def test_validate_counts_start_end():
    dag = _tiny_dag([("start", "step1"), ("step1", "end")])
    dag.nodes = [n for n in dag.nodes if n.kind != "end"] + [
        DagNode("end", "end", "run end"),
        DagNode("end2", "end", "another end"),
    ]
    assert "end-count" in validate_dag(dag).codes()


def test_validate_reports_node_kind_and_step_ref():
    dag = _tiny_dag([("start", "step1"), ("step1", "odd"), ("odd", "end")])
    dag.nodes = [DagNode("odd", "middle") if n.id == "odd" else
                 DagNode("step1", "step", "no ref") if n.id == "step1" else n for n in dag.nodes]
    assert [(v.code, v.subject, v.message) for v in validate_dag(dag).violations] == [
        ("bad-node-kind", "odd", "unknown kind 'middle'"),
        ("missing-step-ref", "step1", "step node lacks a TSG step reference"),
    ]


def test_serialize_roundtrip_fixture(fig4_bundle):
    dag = fig4_bundle.dag
    text = serialize_dag(dag)
    assert structurally_equal(load_dag(text), dag)
    assert serialize_dag(load_dag(text)) == text  # byte-stable


def test_serialize_roundtrip_random_dags():
    rng = random.Random(7)
    for _ in range(100):
        dag = random_scripted_dag(rng)
        assert validate_dag(dag).ok
        assert structurally_equal(load_dag(serialize_dag(dag)), dag)


def test_schema_violation_paths():
    with pytest.raises(SchemaViolation) as exc:
        load_dag("{}")
    assert exc.value.path == "/nodes"
    with pytest.raises(SchemaViolation) as exc:
        load_dag('{"tsg_id": "x", "nodes": [{"id": "start", "kind": "weird", '
                 '"description": "", "step_ref": null}], "edges": []}')
    assert exc.value.path == "/nodes/0/kind"


def test_extract_validate_invariants(fig4_bundle, fig5_bundle, triple_bundle):
    for bundle in (fig4_bundle, fig5_bundle, triple_bundle):
        dag = bundle.dag
        assert validate_dag(dag).ok
        assert len(dag.nodes) == len(bundle.doc.steps) + 2
        for e in dag.edges:
            assert e.id == f"edge_{e.source}_{e.target}"
        arms = sum(
            1
            for s in bundle.doc.steps
            for d in s.next_directives
            if d.condition is not None
        )
        assert sum(1 for e in dag.edges if e.condition is not None) == arms


def test_validate_reports_first_cycle_in_edge_order():
    dag = _tiny_dag([
        ("start", "step1"), ("step1", "step3"), ("step1", "step2"),
        ("step3", "step1"), ("step2", "step1"), ("step2", "end"), ("step3", "end"),
    ])
    violation = next(v for v in validate_dag(dag).violations if v.code == "cycle")
    assert violation.subject == "edge_step1_step3"
    assert violation.message == "cycle through edges: edge_step1_step3, edge_step3_step1"


def test_long_chain_within_recursion_limit():
    n = 3000
    text = "# TSG: long — Long chain\n" + "".join(
        f"\n## Step {i}: Stage {i}\n\nNext:\n- Step {i + 1}\n" for i in range(1, n)
    ) + f"\n## Step {n}: Stage {n}\n\nTerminate: done\n"
    dag = extract_dag(parse_tsg(text))
    assert len(dag.nodes) == n + 2
    assert validate_dag(dag).ok
    dag.edges.append(DagEdge(edge_id(f"step{n}", "step1"), f"step{n}", "step1"))
    violation = next(v for v in validate_dag(dag).violations if v.code == "cycle")
    cycle = violation.message.removeprefix("cycle through edges: ").split(", ")
    assert cycle[0] == "edge_step1_step2" and cycle[-1] == f"edge_step{n}_step1"
    assert len(cycle) == n


def test_each_check_builds_the_index_once_and_runs_kahn_once(monkeypatch, fig4_bundle):
    """extract_dag, validate_dag and compile_dag each index the edges once
    and order the nodes once; the cycle search runs only when that order
    fails, and reachability reads the order instead of walking again."""
    from tsgflow import dag as dag_module

    calls = {"index": 0, "kahn": 0, "cycle": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dag_module, "_edge_index", counted("index", dag_module._edge_index))
    monkeypatch.setattr(dag_module, "_topological_order",
                        counted("kahn", dag_module._topological_order))
    monkeypatch.setattr(dag_module, "_find_cycle", counted("cycle", dag_module._find_cycle))

    def check(fn, arg, cycle=0):
        calls.update(index=0, kahn=0, cycle=0)
        try:
            fn(arg)
        except dag_module.DagError:
            pass
        assert calls == {"index": 1, "kahn": 1, "cycle": cycle}, (fn.__name__, calls)

    cyclic = _tiny_dag([("start", "step1"), ("step1", "step2"), ("step2", "step1"),
                        ("step2", "end")])
    unreachable = _tiny_dag([("start", "step1"), ("step1", "end"), ("step2", "end")])
    for dag in (fig4_bundle.dag, unreachable, cyclic):
        cycle = int(dag is cyclic)
        check(validate_dag, dag, cycle)
        check(compile_dag, dag, cycle)
    check(extract_dag, fig4_bundle.doc)
    check(extract_dag, parse_tsg("# TSG: c — C\n## Step 1: A\nNext:\n- Step 2\n"
                                 "## Step 2: B\nNext:\n- Step 1\n"), cycle=1)
    check(extract_dag, parse_tsg("# TSG: u — U\n## Step 1: A\nTerminate: t\n"
                                 "## Step 2: B\nTerminate: t\n"))


def test_node_sort_key_reads_only_decimal_segments_as_numbers():
    """'²' and '①' pass str.isdigit() but int() refuses them; such a
    segment sorts after the numeric ones, as any text does."""
    assert node_sort_key("step²") == (1, ((1, 0, "²"),), "step²")
    assert node_sort_key("step3.①") == (1, ((0, 3, ""), (1, 0, "①")), "step3.①")
    assert sorted(["end", "step²", "step10", "step2", "start"], key=node_sort_key) == [
        "start", "step2", "step10", "step²", "end"]
