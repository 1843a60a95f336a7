"""End-to-end walkthrough over the bundled availability-drop guides.

Runs the whole pipeline in order: lint the guide, extract the DAG and the
query templates, instantiate a query, execute the sequential scenario, then
sweep the parallel variant across executor counts and compare against the
independent oracle. Run from the repository root:

    python demos/walkthrough.py
"""

from __future__ import annotations

from pathlib import Path

from tsgflow import (
    RunConfig,
    ScriptedBackend,
    load_bundle,
    load_scenario,
    oracle_makespan,
    prepare_query,
    run,
    serialize_dag,
    sweep,
)
from tsgflow.lint import lint

BUNDLES = Path(__file__).parent.parent / "tests" / "fixtures" / "bundles"


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def main() -> None:
    banner("load + lint")
    sequential = load_bundle(BUNDLES / "availability_fig4")
    findings = lint(sequential.doc)
    print(f"{sequential.dag.tsg_id}: {len(sequential.doc.steps)} steps, "
          f"{len(findings)} lint findings")

    banner("execution DAG")
    dag = sequential.dag
    print(f"{len(dag.nodes)} nodes, {len(dag.edges)} edges")
    for edge in sorted(dag.edges, key=lambda e: e.id):
        label = f" [{edge.condition.label}]" if edge.condition else ""
        conclusion = f" -> {edge.conclusion!r}" if edge.conclusion else ""
        print(f"  {edge.id}{label}{conclusion}")
    print("(serialize_dag emits this byte-stably; first 120 chars)")
    print(serialize_dag(dag)[:120] + "...")

    banner("query preparation")
    template = next(t for t in sequential.templates if t.name == "top_exceptions")
    prepared = prepare_query(template, {
        "service": "web-frontend", "ring": "test",
        "start_time": "2026-03-01T00:00:00Z", "end_time": "2026-03-01T09:00:00Z",
    })
    print(f"template {template.name} placeholders: {', '.join(template.placeholders)}")
    print("\n".join("  " + line for line in prepared.text.splitlines()[:4]) + "\n  ...")

    banner("sequential run")
    scenario = load_scenario(BUNDLES / "availability_fig4", "dependency_issue")
    result = run(sequential, ScriptedBackend.from_scenario(scenario),
                 RunConfig(max_executors=1), incident=scenario["incident"])
    print(f"status={result.status.value} conclusion={result.conclusion!r} "
          f"makespan={result.makespan}")
    print(f"executed: {', '.join(result.executed)}")

    banner("parallel sweep")
    parallel = load_bundle(BUNDLES / "availability_fig5")
    parallel_scenario = load_scenario(BUNDLES / "availability_fig5", "dependency_issue")
    report = sweep(parallel, parallel_scenario, [1, 2, 3, 4, 5],
                   baseline=(sequential, scenario))
    for entry in report.entries:
        print(f"  k={entry.k}: makespan={entry.makespan} "
              f"(reduction vs serial {report.reductions[entry.k] * 100:.1f}%) "
              f"cancelled={entry.cancelled}")
    oracle = oracle_makespan(parallel.dag, parallel_scenario)
    print(f"oracle: critical path {oracle.critical_path_to_conclusion}, "
          f"serial sum {oracle.serial_sum}, width {oracle.width}")
    print(f"bounds_ok={report.bounds_ok} saturation_ok={report.saturation_ok} "
          f"oracle_ok={report.oracle_ok}")

    banner("early termination")
    result = run(parallel, ScriptedBackend.from_scenario(parallel_scenario),
                 RunConfig(max_executors=3), incident=parallel_scenario["incident"])
    for event in result.trace:
        if event.kind in ("node_cancelled", "run_terminated"):
            print(f"  t={event.t} {event.kind} {event.subject} {event.detail}")


if __name__ == "__main__":
    main()
