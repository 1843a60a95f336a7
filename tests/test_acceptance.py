"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from corpus import build_lint_corpus, build_qpp_corpus
from randdag import random_scripted_dag, steps_from_assignment, success_assignments
from test_engine import bundle_of, linear_dag, scripted
from tsgflow.dag import validate_dag
from tsgflow.backends import ScriptedBackend
from tsgflow.document import parse_tsg
from tsgflow.engine import RunConfig, RunStatus, run
from tsgflow.harness import sweep
from tsgflow.lint import evaluate_lint, lint
from tsgflow.memory import memory_value, render_context
from tsgflow.oracle import serial_simulation
from tsgflow.plugins import pearson_correlation
from tsgflow.queryprep import extract_templates, prepare_query


def _report(n: int, name: str) -> None:
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_criterion_1_scheduler_closure_equivalence():
    """Engine executed set == brute-force fixpoint oracle on 1000+ random DAGs."""
    started = time.monotonic()
    rng = random.Random(20260301)
    dags = 0
    cases = 0
    mismatches = 0
    while dags < 1000:
        dag = random_scripted_dag(rng)
        assert validate_dag(dag).ok
        dags += 1
        assignments = success_assignments(dag)
        step_ids = sorted(assignments[0])
        scenarios = [steps_from_assignment(a) for a in assignments]
        scenarios += [
            steps_from_assignment(assignments[0], failing={node})
            for node in step_ids[: min(3, len(step_ids))]
        ]
        bundle = bundle_of(dag)  # run() compiles it once, on the first case
        for steps in scenarios:
            cases += 1
            result = run(bundle, scripted(steps), RunConfig(max_executors=1, retry_limit=0))
            sim = serial_simulation(dag, steps, retry_limit=0)
            same = (
                result.executed == sim.executed
                and result.status.value == sim.status
                and result.conclusion == sim.conclusion
                and result.makespan == sim.total_time
            )
            if same and sim.status == "exhausted":
                same = (
                    {n: s.value for n, s in result.state.node_state.items()} == sim.node_state
                    and {e: s.value for e, s in result.state.edge_state.items()} == sim.edge_state
                )
            if not same:
                mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0, f"{mismatches} of {cases} cases diverged"
    assert cases >= 1000
    assert elapsed < 60, f"took {elapsed:.1f}s"
    _report(1, f"scheduler closure equivalence ({dags} dags, {cases} cases, {elapsed:.1f}s)")


def test_criterion_2_dag_reconstruction(fig4_bundle):
    """The availability guide extracts to exactly 11 nodes / 15 edges."""
    dag = fig4_bundle.dag
    assert {n.id for n in dag.nodes} == {
        "start", "step1", "step2", "step3.1", "step3.2", "step3.3", "step3.4",
        "step4.1", "step4.2", "step5", "end",
    }
    assert len(dag.nodes) == 11
    assert len(dag.edges) == 15
    expected_conditions = {
        "edge_step2_end": "Y", "edge_step2_step3.1": "N",
        "edge_step3.1_step3.2": "Y", "edge_step3.1_step4.1": "N",
        "edge_step3.2_step3.3": "Y", "edge_step3.2_step4.1": "N",
        "edge_step3.4_end": "Y", "edge_step3.4_step4.1": "N",
        "edge_step4.2_end": "Y", "edge_step4.2_step5": "N",
    }
    got = {e.id: e.condition.label for e in dag.edges if e.condition is not None}
    assert got == expected_conditions
    conclusions = {e.id: e.conclusion for e in dag.edges if e.conclusion is not None}
    assert conclusions == {
        "edge_step2_end": "known issue",
        "edge_step3.4_end": "rollback",
        "edge_step4.2_end": "transfer to upstream team",
        "edge_step5_end": "engage the on-call engineer",
    }
    assert validate_dag(dag).violations == []
    _report(2, "DAG reconstruction (11 nodes, 15 edges, empty report)")


def test_criterion_3_retry_and_failure_propagation():
    """Six scripted retry/failure cases behave per the retry contract."""
    passed = 0

    # 1. [failure, success] with retry budget completes the run
    dag = linear_dag(1)
    flaky = {"step1": [
        {"result": "failure", "latency": 1, "error": "flaky"},
        {"result": "success", "latency": 1, "edge_decisions": {"edge_step1_end": "enable"}},
    ]}
    result = run(bundle_of(dag), scripted(flaky), RunConfig(1, retry_limit=1))
    assert result.status is RunStatus.CONCLUDED
    kinds = [e.kind for e in result.trace if e.subject == "step1"]
    assert kinds == ["node_started", "node_failed", "node_retried", "node_started", "node_succeeded"]
    passed += 1

    # 2. [failure, failure] beyond the budget disables downstream, exhausts
    dag3 = linear_dag(3)
    steps = {
        "step1": [{"result": "success", "latency": 1,
                   "edge_decisions": {"edge_step1_step2": "enable"}}],
        "step2": [{"result": "failure", "latency": 1, "error": "down"},
                  {"result": "failure", "latency": 1, "error": "still down"}],
        "step3": [{"result": "success", "latency": 1,
                   "edge_decisions": {"edge_step3_end": "enable"}}],
    }
    result = run(bundle_of(dag3), scripted(steps), RunConfig(1, retry_limit=1))
    assert result.status is RunStatus.EXHAUSTED
    assert result.state.node_state["step3"].value == "disabled"
    assert result.state.edge_state["edge_step2_step3"].value == "disabled"
    passed += 1

    # 3. single failure at retry_limit=0 exhausts immediately
    result = run(bundle_of(dag), scripted({"step1": [
        {"result": "failure", "latency": 2, "error": "boom"}]}), RunConfig(1, retry_limit=0))
    assert result.status is RunStatus.EXHAUSTED
    assert result.state.edge_state["edge_step1_end"].value == "disabled"
    passed += 1

    # 4. [failure, failure, success] fits inside retry_limit=2
    attempts = [
        {"result": "failure", "latency": 1, "error": "1"},
        {"result": "failure", "latency": 1, "error": "2"},
        {"result": "success", "latency": 1, "edge_decisions": {"edge_step1_end": "enable"}},
    ]
    result = run(bundle_of(dag), scripted({"step1": attempts}), RunConfig(1, retry_limit=2))
    assert result.status is RunStatus.CONCLUDED
    starts = [e for e in result.trace if e.kind == "node_started"]
    assert len(starts) == 3 == 1 + 2
    passed += 1

    # 5. the same script with retry_limit=1 never reaches the success attempt
    result = run(bundle_of(dag), scripted({"step1": attempts}), RunConfig(1, retry_limit=1))
    assert result.status is RunStatus.EXHAUSTED
    starts = [e for e in result.trace if e.kind == "node_started"]
    assert len(starts) == 2 == 1 + 1
    passed += 1

    # 6. a failed parallel branch does not block a sibling's conclusion
    from conftest import FIG5_DIR
    from tsgflow.harness import load_bundle, load_scenario

    bundle = load_bundle(FIG5_DIR)
    scenario = load_scenario(FIG5_DIR, "dependency_issue")
    scenario["steps"]["step2"] = {"attempts": [
        {"result": "failure", "latency": 5, "error": "known-issue page down"}]}
    result = run(bundle_of(bundle.dag), ScriptedBackend.from_scenario(scenario),
                 RunConfig(3, retry_limit=0))
    assert result.status is RunStatus.CONCLUDED
    assert result.conclusion == "transfer to upstream team"
    assert "step2" in result.state.failed
    passed += 1

    assert passed == 6
    _report(3, "retry and failure propagation (6/6 cases)")


def test_criterion_4_parallel_saturation(fig5_bundle, fig5_scenario, fig4_bundle, fig4_scenario):
    """Makespans saturate at the realized width; reduction matches the oracle."""
    started = time.monotonic()
    report = sweep(fig5_bundle, fig5_scenario, [1, 2, 3, 4, 5],
                   baseline=(fig4_bundle, fig4_scenario))
    makespans = {e.k: e.makespan for e in report.entries}
    assert makespans[3] == makespans[4] == makespans[5] == 22
    assert report.oracle.critical_path_to_conclusion == 22
    assert all(m <= makespans[1] for m in makespans.values())
    assert report.baseline_makespan == 43
    reduction_pct = report.reductions[3] * 100
    assert round(reduction_pct, 1) == 48.8
    assert 32.9 <= reduction_pct <= 70.6
    elapsed = time.monotonic() - started
    assert elapsed < 5
    _report(4, f"parallel saturation (makespans {sorted(makespans.items())}, "
               f"reduction {reduction_pct:.1f}%)")


def test_criterion_5_early_termination(fig5_bundle, fig5_scenario):
    """Conclusion cancels the in-flight sibling; nothing starts afterwards."""
    result = run(bundle_of(fig5_bundle.dag), ScriptedBackend.from_scenario(fig5_scenario),
                 RunConfig(max_executors=3))
    cancelled = [e for e in result.trace if e.kind == "node_cancelled"]
    assert [e.subject for e in cancelled] == ["step3.4"]
    assert cancelled[0].detail["phase"] == "running"
    terminated_index = next(
        i for i, e in enumerate(result.trace) if e.kind == "run_terminated")
    assert all(e.kind != "node_started" for e in result.trace[terminated_index:])
    assert result.trace[terminated_index].t == 22
    _report(5, "early termination (step3.4 cancelled mid-flight)")


def test_criterion_6_qpp_fidelity():
    """96 golden templates: extraction and byte-exact instantiation at 100%."""
    started = time.monotonic()
    corpus = build_qpp_corpus()
    n_templates = 0
    ring_checked = False
    for doc_spec in corpus:
        doc = parse_tsg(doc_spec.text)
        extracted = {t.name: t for t in extract_templates(doc)}
        for golden in doc_spec.templates:
            n_templates += 1
            tmpl = extracted[golden.name]
            assert _whitespace_normalized(tmpl.text) == _whitespace_normalized(golden.text)
            assert list(tmpl.placeholders) == golden.params
            prepared = prepare_query(tmpl, dict(golden.bindings))
            assert prepared.text == golden.prepared
            if golden.bindings.get("ring") == "test":
                assert "| where DeployRing == 'test'" in prepared.text
                ring_checked = True
    elapsed = time.monotonic() - started
    assert n_templates >= 86
    assert ring_checked
    assert elapsed < 10
    _report(6, f"QPP fidelity ({n_templates} templates, byte-exact, {elapsed:.1f}s)")


def _whitespace_normalized(text: str) -> str:
    return "\n".join(" ".join(line.split()) for line in text.strip().splitlines())


def test_criterion_7_memory_compaction():
    """A 394x6, >=25 KB table renders to <=2048 bytes with a 3-row sample."""
    from test_memory import big_table

    value = memory_value(big_table())
    assert value.payload.row_count == 394
    assert value.payload.column_count == 6
    assert value.byte_size >= 25_000
    summary = render_context(value, sample_rows=3, budget=2048, key="exceptions")
    assert summary.rendered_bytes <= 2048
    assert len(summary.sample) == 3
    ratio = summary.rendered_bytes / value.byte_size
    assert ratio <= 0.10
    _report(7, f"memory compaction ({value.byte_size} B -> {summary.rendered_bytes} B, "
               f"ratio {ratio:.1%})")


def test_criterion_8_pearson_correctness():
    """Matches the covariance/sigma definition within 1e-9; +-1 cases exact."""
    assert pearson_correlation([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson_correlation([1, 2, 3], [6, 4, 2]) == -1.0
    assert pearson_correlation([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8
    rng = random.Random(777)
    checked = 0
    while checked < 100:
        n = rng.randint(2, 100)
        xs = [rng.uniform(-100, 100) for _ in range(n)]
        ys = [rng.uniform(-100, 100) for _ in range(n)]
        if statistics.pstdev(xs) == 0 or statistics.pstdev(ys) == 0:
            continue
        oracle = statistics.covariance(xs, ys) / (statistics.stdev(xs) * statistics.stdev(ys))
        assert abs(pearson_correlation(xs, ys) - oracle) <= 1e-9
        checked += 1
    _report(8, "pearson correctness (100 random pairs within 1e-9, degenerates exact)")


def test_criterion_9_lint_precision_recall(tmp_path, fig4_bundle, fig5_bundle, triple_bundle):
    """Seeded corpus at precision=recall=1.0; clean fixtures produce nothing."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    seeded = 0
    for doc_spec in build_lint_corpus():
        (corpus_dir / f"{doc_spec.name}.md").write_text(doc_spec.text, encoding="utf-8")
        (corpus_dir / f"{doc_spec.name}.manifest.json").write_text(
            json.dumps(doc_spec.manifest), encoding="utf-8")
        seeded += len(doc_spec.manifest)
    evaluation = evaluate_lint(corpus_dir)
    assert evaluation.documents >= 10
    assert evaluation.seeded == seeded >= 30
    assert evaluation.aggregate.precision == 1.0
    assert evaluation.aggregate.recall == 1.0
    for bundle in (fig4_bundle, fig5_bundle, triple_bundle):
        assert [f for f in lint(bundle.doc) if f.severity == "error"] == []
    _report(9, f"lint precision/recall ({evaluation.documents} docs, "
               f"{evaluation.seeded} seeds, P=R=1.0)")


def test_criterion_10_trace_determinism(fig4_bundle, fig4_scenario, fig5_bundle,
                                        fig5_scenario, triple_bundle, triple_scenario):
    """Two consecutive virtual runs of every bundle are byte-identical."""
    combos = [
        (fig4_bundle, fig4_scenario, 1),
        (fig4_bundle, fig4_scenario, 2),
        (fig5_bundle, fig5_scenario, 1),
        (fig5_bundle, fig5_scenario, 3),
        (fig5_bundle, fig5_scenario, 5),
        (triple_bundle, triple_scenario, 3),
    ]
    for bundle, scenario, k in combos:
        def trace_once():
            return run(
                bundle_of(bundle.dag),
                ScriptedBackend.from_scenario(scenario),
                RunConfig(max_executors=k),
                incident=scenario.get("incident"),
            ).trace_jsonl()

        first, second = trace_once(), trace_once()
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")
    _report(10, f"trace determinism ({len(combos)} bundle/executor combinations)")
