"""The one-pass edge index against the DAG layer it replaced.

tests/dag_reference.py keeps extract_dag, validate_dag, compile_dag and
their graph helpers as they were when each check built its own view of the
edges. tsgflow.dag must give the same validation reports, compiled tables,
InvalidDag messages, cycles and extraction errors on random graphs with
ghost endpoints, self-loops and duplicates, on random valid DAGs, on the
fixture bundles, on long chains and on guides that fail extraction. The
last test pins how often validate_dag and compile_dag walk a DAG's edges.
"""

from __future__ import annotations

import random
from pathlib import Path

import dag_reference as reference
from corpus import build_lint_corpus, build_qpp_corpus
from randdag import random_scripted_dag
from tsgflow.dag import (
    END,
    START,
    CycleDetected,
    DagEdge,
    DagError,
    DagNode,
    DanglingTarget,
    ExecutionDag,
    Unreachable,
    _edge_index,
    _find_cycle,
    compile_dag,
    edge_id,
    extract_dag,
    validate_dag,
)
from tsgflow.document import TsgParseError, parse_tsg

BUNDLES = Path(__file__).parent / "fixtures" / "bundles"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DagError as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)


def _tables(compiled) -> list:
    """Every table of a CompiledDag, in its key order."""
    return [compiled.dag] + [
        list(table.items())
        for table in (compiled.nodes, compiled.edges, compiled.outgoing,
                      compiled.in_degree, compiled.sort_key)
    ]


def assert_same(dag: ExecutionDag) -> bool:
    """validate_dag, compile_dag and the cycle search agree with the
    reference; returns whether the DAG compiled."""
    assert validate_dag(dag) == reference.validate_dag(dag), dag
    assert _find_cycle(_edge_index(dag)[0]) == reference._find_cycle(dag), dag
    new, old = _outcome(compile_dag, dag), _outcome(reference.compile_dag, dag)
    if isinstance(old, tuple):
        assert new == old, dag
        return False
    assert _tables(new) == _tables(old), dag
    return True


def _random_graph(rng: random.Random) -> ExecutionDag:
    """Small graphs, mostly forward edges with the odd back edge or
    self-loop, duplicate edges and node ids, and edges from or to nodes
    that are not in the graph."""
    n = rng.randint(0, 9)
    ids = [START] + [f"step{rng.choice(['', '1.'])}{i}" for i in range(1, n + 1)] + [END]
    nodes = [DagNode(i, "start" if i == START else "end" if i == END else "step", "", "x")
             for i in ids]
    if rng.random() < 0.1:
        nodes.append(rng.choice(nodes))
    rng.shuffle(nodes)
    back = rng.choice([0.0, 0.02, 0.1, 0.3])
    edges = []
    for _ in range(rng.randint(0, 3 * len(ids))):
        a, b = sorted(rng.sample(range(len(ids)), 2)) if len(ids) > 1 else (0, 0)
        if rng.random() < back:
            a, b = b, rng.choice([a, b])
        src, dst = ids[a], ids[b]
        if rng.random() < 0.05:
            src, dst = rng.choice([("ghost", dst), (src, "ghost"), ("step99", "step98")])
        edges.append(DagEdge(edge_id(src, dst), src, dst))
        if rng.random() < 0.1:
            edges.append(edges[-1])
    return ExecutionDag("g", nodes, edges)


def test_random_graphs_match_reference():
    rng = random.Random(20260309)
    cyclic = compiled = 0
    for _ in range(5000):
        dag = _random_graph(rng)
        cyclic += bool(reference._find_cycle(dag))
        compiled += assert_same(dag)
    assert 1000 < cyclic < 4000
    assert compiled > 25


def test_random_dags_match_reference():
    rng = random.Random(7)
    for _ in range(500):
        assert assert_same(random_scripted_dag(rng))


def test_fixture_bundles_match_reference():
    for path in sorted(BUNDLES.iterdir()):
        doc = parse_tsg((path / "tsg.md").read_text(encoding="utf-8"))
        dag = extract_dag(doc)
        assert dag == reference.extract_dag(doc), path.name
        assert assert_same(dag), path.name


def test_long_chains_match_reference():
    ids = [START] + [f"step{i}" for i in range(1, 3001)] + [END]
    nodes = [DagNode(START, "start", "run start")]
    nodes += [DagNode(i, "step", i, i[4:]) for i in ids[1:-1]]
    nodes.append(DagNode(END, "end", "run end"))
    edges = [DagEdge(edge_id(a, b), a, b) for a, b in zip(ids, ids[1:])]
    edges[-1] = DagEdge(edges[-1].id, "step3000", END, conclusion="done")
    assert assert_same(ExecutionDag("chain", nodes, edges))
    edges.append(DagEdge(edge_id("step2999", "step10"), "step2999", "step10"))
    assert not assert_same(ExecutionDag("chain", nodes, edges))


def _random_guide(rng: random.Random) -> str:
    """A guide over a random step graph: forward edges with the odd back
    edge, self-loop, missing target, repeated target or step nobody enters."""
    n = rng.randint(1, 8)
    out = ["# TSG: g — Generated", ""]
    for i in range(1, n + 1):
        out.append(f"## Step {i}: S{i}")
        later = list(range(i + 1, n + 1))
        targets = rng.sample(later, min(len(later), rng.randint(0, 2)))
        if rng.random() < 0.15:
            targets.append(rng.randint(1, i))
        if rng.random() < 0.05:
            targets.append(n + 5)
        if targets and rng.random() < 0.05:
            targets.append(targets[0])
        if targets:
            out.append("Next:")
            out += [f"- Step {t}" for t in targets]
        if not targets or rng.random() < 0.3:
            out.append(f"Terminate: fin {i}")
        out.append("")
    return "\n".join(out)


def test_extract_errors_match_reference():
    rng = random.Random(11)
    texts = [_random_guide(rng) for _ in range(1500)]
    texts += [d.text for d in build_qpp_corpus()] + [d.text for d in build_lint_corpus()]
    seen = set()
    for text in texts:
        try:
            doc = parse_tsg(text)
        except TsgParseError:
            continue
        new, old = _outcome(extract_dag, doc), _outcome(reference.extract_dag, doc)
        assert new == old, text
        seen.add(old[0] if isinstance(old, tuple) else ExecutionDag)
    assert {CycleDetected, Unreachable, DanglingTarget, ExecutionDag} <= seen


class _CountingEdges(list):
    """An edge list that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_validate_and_compile_walk_the_edges_at_most_twice_and_three_times(fig5_bundle):
    for dag in (fig5_bundle.dag, random_scripted_dag(random.Random(3))):
        edges = _CountingEdges(dag.edges)
        counted = ExecutionDag(dag.tsg_id, dag.nodes, edges)
        assert validate_dag(counted).ok
        assert edges.walks <= 2
        edges.walks = 0
        compile_dag(counted)
        assert edges.walks <= 3
