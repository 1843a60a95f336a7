"""Random valid DAGs plus exhaustive scripted decision assignments.

Generated graphs keep the enumeration tractable: at most three nodes carry
a conditional Y/N pair, so the full success-decision space has at most
4^3 = 64 assignments per DAG. Edges always point forward (to later steps or
end), which guarantees acyclicity, start-reachability and end-reachability
by construction.
"""

from __future__ import annotations

import itertools
import random

from tsgflow.dag import (
    END, START, DagEdge, DagNode, EdgeCondition, ExecutionDag, compile_dag, edge_id, node_sort_key,
)


def random_scripted_dag(rng: random.Random, max_conditional: int = 3) -> ExecutionDag:
    n_steps = rng.randint(3, 7)
    ids = [str(i) for i in range(1, n_steps + 1)]
    node_ids = [f"step{i}" for i in ids]
    edges: dict[tuple[str, str], DagEdge] = {}

    def add(src: str, dst: str, condition: EdgeCondition | None = None) -> None:
        conclusion = f"done via {src}" if dst == END else None
        edges[(src, dst)] = DagEdge(edge_id(src, dst), src, dst, condition, conclusion)

    conditional_nodes = 0
    for i, src in enumerate(node_ids):
        later = node_ids[i + 1 :] + [END]
        if conditional_nodes < max_conditional and len(later) >= 2 and rng.random() < 0.6:
            t_yes, t_no = rng.sample(later, 2)
            question = f"does probe {ids[i]} hit"
            add(src, t_yes, EdgeCondition(question, "Y"))
            add(src, t_no, EdgeCondition(question, "N"))
            conditional_nodes += 1
        else:
            for dst in rng.sample(later, k=min(len(later), rng.randint(1, 2))):
                add(src, dst)
    for j in range(1, n_steps):
        dst = node_ids[j]
        if not any(d == dst for (_, d) in edges):
            add(node_ids[rng.randrange(0, j)], dst)
    add(START, node_ids[0])

    nodes = (
        [DagNode(START, "start", "run start")]
        + [DagNode(f"step{i}", "step", f"step {i}", step_ref=i) for i in ids]
        + [DagNode(END, "end", "run end")]
    )
    return ExecutionDag(tsg_id=f"rand-{rng.randrange(10**9)}", nodes=nodes, edges=list(edges.values()))


def success_assignments(dag: ExecutionDag) -> list[dict[str, dict[str, str]]]:
    """Every combination of conditional-arm decisions; unconditional edges
    are always enabled."""
    names = sorted((n.id for n in dag.nodes if n.kind == "step"), key=node_sort_key)
    compiled = compile_dag(dag)
    options: list[list[dict[str, str]]] = []
    for node_id in names:
        outgoing = compiled.outgoing[node_id]
        conditional = [e for e in outgoing if e.condition is not None]
        base = {e.id: "enable" for e in outgoing if e.condition is None}
        node_options = []
        for bits in itertools.product(("enable", "disable"), repeat=len(conditional)):
            decisions = dict(base)
            for e, bit in zip(conditional, bits):
                decisions[e.id] = bit
            node_options.append(decisions)
        options.append(node_options)
    return [dict(zip(names, combo)) for combo in itertools.product(*options)]


def steps_from_assignment(
    assignment: dict[str, dict[str, str]],
    failing: set[str] | None = None,
    latency: float = 1,
) -> dict[str, list[dict]]:
    """Scenario attempt lists for an assignment; `failing` nodes fail instead."""
    failing = failing or set()
    steps: dict[str, list[dict]] = {}
    for node_id, decisions in assignment.items():
        if node_id in failing:
            steps[node_id] = [{"result": "failure", "latency": latency, "error": "scripted fault"}]
        else:
            steps[node_id] = [
                {"result": "success", "latency": latency, "edge_decisions": dict(decisions)}
            ]
    return steps


def random_wide_dag(rng: random.Random, n_steps: int) -> ExecutionDag:
    """A valid DAG of n_steps steps that start fans out into, so that several
    steps are often ready at once. Each step has one to three edges to the
    next six steps or to end, about a third of them as a conditional Y/N
    pair; a step left without an incoming edge gets one from start or an
    earlier step."""
    node_ids = [f"step{i}" for i in range(1, n_steps + 1)]
    edges: dict[tuple[str, str], DagEdge] = {}

    def add(src: str, dst: str, condition: EdgeCondition | None = None) -> None:
        conclusion = f"done via {src}" if dst == END else None
        edges[(src, dst)] = DagEdge(edge_id(src, dst), src, dst, condition, conclusion)

    for dst in rng.sample(node_ids, rng.randint(1, min(5, n_steps))):
        add(START, dst)
    for i, src in enumerate(node_ids):
        later = node_ids[i + 1 : i + 7]
        if not later or rng.random() < 0.15:
            later.append(END)
        targets = rng.sample(later, min(len(later), rng.randint(1, 3)))
        if len(targets) >= 2 and rng.random() < 0.35:
            question = f"does probe {i + 1} hit"
            add(src, targets[0], EdgeCondition(question, "Y"))
            add(src, targets[1], EdgeCondition(question, "N"))
        else:
            for dst in targets:
                add(src, dst)
    for j, dst in enumerate(node_ids):
        if not any(d == dst for (_, d) in edges):
            add(rng.choice([START] + node_ids[:j]), dst)

    nodes = (
        [DagNode(START, "start", "run start")]
        + [DagNode(node_id, "step", f"step {i}", step_ref=str(i))
           for i, node_id in enumerate(node_ids, 1)]
        + [DagNode(END, "end", "run end")]
    )
    return ExecutionDag(tsg_id=f"wide-{rng.randrange(10**9)}", nodes=nodes, edges=list(edges.values()))


def random_decisions(rng: random.Random, dag: ExecutionDag) -> dict[str, dict[str, str]]:
    """One complete success-decision map per step: unconditional edges
    enabled, each conditional edge enabled or disabled at random."""
    compiled = compile_dag(dag)
    return {
        n.id: {e.id: "enable" if e.condition is None or rng.random() < 0.5 else "disable"
               for e in compiled.outgoing[n.id]}
        for n in dag.nodes if n.kind == "step"
    }
