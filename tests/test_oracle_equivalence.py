"""The one-pass oracle against the reference oracle it replaced.

tests/oracle_reference.py keeps the fixpoint-rescan, wave and closure-pair
forms of the oracle. Every function here must return the same result as
its reference, compared by repr so dict order counts too, on fixture
bundles, random DAGs with tied latencies, failures and retries, random
applied sets and node subsets, and long chains.

The reference does not check a success's decisions against its step's
outgoing edges: it reads a missing edge as disabled and ignores an id that
is no outgoing edge. The oracle refuses such a success when it applies one
(DecisionsMismatch), so it is compared on the scripts with those decisions
written out (_covering), and on the scripts as given it must return the same
or raise naming a step whose decisions were written out.

The reference's timed_analysis, a longest-path model that does not use
simulate, checks oracle_makespan's unbounded run from a second side:
wherever it returns, the two conclusion times are equal, and the oracle's
width is at most the reference's (the reference also counts steps that
become ready exactly at the conclusion).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

import oracle_reference as reference
from randdag import random_scripted_dag, success_assignments
from test_engine import linear_dag
from tsgflow import load_bundle, load_scenario
from tsgflow.dag import END, START, DagEdge, DagNode, EdgeCondition, ExecutionDag, edge_id
from tsgflow.scenario import ScenarioIncomplete, scenario_steps
from tsgflow.oracle import (
    DecisionsMismatch,
    FinalOutcome,
    NotADag,
    fixpoint_states,
    max_antichain,
    oracle_makespan,
    replay_final_outcome,
    serial_simulation,
)

BUNDLES = Path(__file__).parent / "fixtures" / "bundles"
SCENARIOS = {
    "availability_fig4": "dependency_issue",
    "availability_fig5": "dependency_issue",
    "triple_probe": "all_fallback",
}


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ScenarioIncomplete as exc:
        return f"ScenarioIncomplete: {exc}"


def _covering(dag, steps):
    """`steps` with every success's decisions naming exactly its step's
    outgoing edges, as the reference reads them: a missing edge disabled,
    an id of no outgoing edge left out."""
    outgoing = {n.id: sorted(e.id for e in dag.edges if e.source == n.id) for n in dag.nodes}

    def cover(node, attempt):
        if attempt.get("result", "success") != "success":
            return attempt
        decisions = attempt.get("edge_decisions", {})
        return {**attempt, "edge_decisions": {e: decisions.get(e, "disable")
                                              for e in outgoing.get(node, [])}}

    return {node: [cover(node, a) for a in attempts] for node, attempts in steps.items()}


def _assert_mismatch_named(exc, dag, steps, covering, retry_limit):
    """`exc` names a step whose final success's decisions leave out or add
    exactly the edge ids it lists."""
    node = str(exc).split(":")[0]
    assert steps[node] != covering[node]
    expected = {e.id for e in dag.edges if e.source == node}
    given = set(replay_final_outcome(steps, node, retry_limit).decisions)
    parts = []
    if expected - given:
        parts.append("missing: " + ", ".join(sorted(expected - given)))
    if given - expected:
        parts.append("not outgoing edges: " + ", ".join(sorted(given - expected)))
    assert str(exc) == f"{node}: " + "; ".join(parts)


def assert_same(dag, steps, retry_limit) -> bool:
    """serial_simulation of the written-out scripts (_covering) agrees with
    the reference on the scripts as given, and on those it agrees too or
    raises DecisionsMismatch for a written-out step; wherever the
    reference's timed_analysis returns, oracle_makespan returns its
    conclusion time as T_inf and a width no larger than its width. Returns
    whether the reference returned."""
    covering = _covering(dag, steps)
    expected = _outcome(reference.serial_simulation, dag, steps, retry_limit)
    assert _outcome(serial_simulation, dag, covering, retry_limit) == expected
    try:
        assert _outcome(serial_simulation, dag, steps, retry_limit) == expected
    except DecisionsMismatch as exc:
        _assert_mismatch_named(exc, dag, steps, covering, retry_limit)
    try:
        timed = reference.timed_analysis(dag, steps, retry_limit)
    except ScenarioIncomplete:
        return False
    oracle = oracle_makespan(dag, {"steps": covering}, retry_limit)
    assert oracle.critical_path_to_conclusion == timed.conclusion_time
    assert oracle.width <= timed.width
    return True


def test_fixture_bundles_with_steps_dropped():
    cases = timed = 0
    for name, scenario_name in SCENARIOS.items():
        bundle = load_bundle(BUNDLES / name)
        steps = scenario_steps(load_scenario(BUNDLES / name, scenario_name))
        nodes = sorted(steps)
        dropped = [()] + [(a,) for a in nodes] + [
            (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        for drop in dropped:
            kept = {node: attempts for node, attempts in steps.items() if node not in drop}
            for retry_limit in range(3):
                timed += assert_same(bundle.dag, kept, retry_limit)
                cases += 1
    assert cases > 300 and timed > 9


def _random_attempts(rng: random.Random, decisions: dict[str, str]) -> list[dict]:
    attempts = []
    for _ in range(rng.randint(1, 3)):
        latency = rng.randint(0, 3)
        if rng.random() < 0.3:
            attempts.append({"result": "failure", "latency": latency, "error": "x"})
        else:
            attempts.append({"result": "success", "latency": latency,
                             "edge_decisions": dict(decisions)})
    return attempts


def _forward_dag(rng: random.Random, n: int, density: float) -> ExecutionDag:
    """Start, n steps and end, edges only from earlier to later positions.
    Step ids are a random permutation of positions, so the topological
    tie-break does not follow position; node and edge lists are shuffled;
    some steps may have no incoming edge. Every edge has a condition, so a
    random decision may disable any of them, as the engine allows."""
    ids = [f"step{i}" for i in rng.sample(range(1, n + 1), n)]
    order = [START] + ids + [END]
    edges = {}
    for a, src in enumerate(order[:-1]):
        later = order[a + 1:]
        fanout = [dst for dst in later if rng.random() < density] or [rng.choice(later)]
        for dst in fanout:
            edges[(src, dst)] = DagEdge(edge_id(src, dst), src, dst, EdgeCondition(src, "Y"),
                                        f"via {src}" if dst == END else None)
    nodes = [DagNode(i, "start" if i == START else "end" if i == END else "step", i)
             for i in order]
    edge_list = list(edges.values())
    rng.shuffle(nodes)
    rng.shuffle(edge_list)
    return ExecutionDag("forward", nodes, edge_list)


def _random_decisions(rng: random.Random, dag: ExecutionDag) -> dict[str, dict[str, str]]:
    out = {}
    for node in [n for n in dag.nodes if n.kind == "step"]:
        out[node.id] = {e.id: rng.choice(("enable", "enable", "disable"))
                        for e in dag.edges if e.source == node.id and rng.random() < 0.9}
    return out


def test_random_dags_with_tied_latencies_failures_and_retries():
    rng = random.Random(20261018)
    randdags = timed = 0
    for i in range(1400):
        if i % 4 == 3:
            dag = _forward_dag(rng, rng.randint(1, 12), rng.choice((0.1, 0.3, 0.6)))
            assignment = _random_decisions(rng, dag)
        else:
            dag = random_scripted_dag(rng)
            assignment = rng.choice(success_assignments(dag))
        steps = {node: _random_attempts(rng, decisions) for node, decisions in assignment.items()}
        if rng.random() < 0.15:
            for node in rng.sample(sorted(steps), min(rng.randint(1, 2), len(steps))):
                del steps[node]
        timed += assert_same(dag, steps, rng.randint(0, 2))
        randdags += i % 4 != 3
    assert randdags >= 1000 and timed > 1100


def _random_applied(rng: random.Random, dag: ExecutionDag) -> dict[str, FinalOutcome]:
    applied = {}
    for node, decisions in _random_decisions(rng, dag).items():
        if rng.random() < 0.5:
            continue
        if rng.random() < 0.2:
            applied[node] = FinalOutcome("failure", None, 0.0, 1)
        else:
            applied[node] = FinalOutcome("success", decisions, 0.0, 1)
    return applied


def test_fixpoint_states_on_random_applied_sets():
    rng = random.Random(7)
    for i in range(600):
        dag = (_forward_dag(rng, rng.randint(1, 15), rng.choice((0.1, 0.4)))
               if i % 2 else random_scripted_dag(rng))
        applied = _random_applied(rng, dag)
        assert repr(fixpoint_states(dag, applied)) == repr(reference.fixpoint_states(dag, applied))


def test_max_antichain_on_random_subsets_and_wide_dags():
    rng = random.Random(11)
    for i in range(400):
        dag = (_forward_dag(rng, rng.randint(1, 20), rng.choice((0.05, 0.2, 0.5)))
               if i % 2 else random_scripted_dag(rng))
        ids = [n.id for n in dag.nodes]
        nodes = rng.sample(ids, rng.randint(0, len(ids)))
        assert max_antichain(dag, nodes) == reference.max_antichain(dag, nodes)
    for n, density in ((60, 0.01), (120, 0.02), (200, 0.01), (200, 0.05)):
        dag = _forward_dag(rng, n, density)
        nodes = [node.id for node in dag.nodes if node.kind == "step"]
        assert max_antichain(dag, nodes) == reference.max_antichain(dag, nodes)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 120])
def test_chains(n):
    """Each step succeeds, some after a retried failure; a second run has
    the middle step fail for good."""
    dag = linear_dag(n)
    rng = random.Random(n)
    steps = {}
    for i in range(1, n + 1):
        success = {"result": "success", "latency": rng.randint(0, 3),
                   "edge_decisions": {dag.edges[i].id: "enable"}}
        failure = {"result": "failure", "latency": rng.randint(0, 3), "error": "x"}
        steps[f"step{i}"] = [failure, success] if rng.random() < 0.2 else [success]
    assert_same(dag, steps, retry_limit=2)
    steps[f"step{(n + 1) // 2}"] = [{"result": "failure", "latency": 1, "error": "x"}]
    assert_same(dag, steps, retry_limit=1)
    nodes = [node.id for node in dag.nodes if node.kind == "step"]
    assert max_antichain(dag, nodes) == reference.max_antichain(dag, nodes) == 1


def test_oracle_makespan_on_a_500_step_chain_is_not_cubic():
    dag = linear_dag(500)
    steps = {f"step{i}": [{"result": "success", "latency": 1,
                           "edge_decisions": {dag.edges[i].id: "enable"}}]
             for i in range(1, 501)}
    started = time.monotonic()
    oracle = oracle_makespan(dag, {"steps": steps})
    elapsed = time.monotonic() - started
    assert (oracle.critical_path_to_conclusion, oracle.serial_sum, oracle.width) == (500, 500, 1)
    assert elapsed < 10, f"took {elapsed:.1f}s"


def test_scenario_incomplete_names_the_first_missing_step_in_topological_order():
    """start -> step1 -> step2 and start -> step3: step3 is enabled a wave
    before step2, so the wave-based reference names it; but step2 comes
    first in topological order (ties by id), and the k=1 run, which
    enqueues both at t=0, starts step2 first."""
    edges = [(START, "step1"), ("step1", "step2"), (START, "step3"), ("step2", END), ("step3", END)]
    dag = ExecutionDag(
        "pinned",
        [DagNode(START, "start"), DagNode("step1", "step"), DagNode("step2", "step"),
         DagNode("step3", "step"), DagNode(END, "end")],
        [DagEdge(edge_id(a, b), a, b) for a, b in edges],
    )
    steps = {"step1": [{"result": "success", "edge_decisions": {"edge_step1_step2": "enable"}}]}
    with pytest.raises(ScenarioIncomplete, match="no attempts for step3$"):
        reference.timed_analysis(dag, steps, 0)
    with pytest.raises(ScenarioIncomplete, match="no attempts for step2$"):
        oracle_makespan(dag, {"steps": steps})


def test_cyclic_graph_is_a_named_error():
    edges = [(START, "step1"), ("step1", "step2"), ("step2", "step1"), ("step2", END)]
    dag = ExecutionDag(
        "loop",
        [DagNode(START, "start"), DagNode("step1", "step"), DagNode("step2", "step"),
         DagNode(END, "end")],
        [DagEdge(edge_id(a, b), a, b) for a, b in edges],
    )
    with pytest.raises(NotADag, match="loop: cycle through step1"):
        fixpoint_states(dag, {})
    with pytest.raises(NotADag):
        max_antichain(dag, ["step1"])
