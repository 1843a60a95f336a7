from __future__ import annotations

import copy
import json
import random
import sys
import time

import pytest

import oracle_reference as reference
from conftest import BUNDLES
from randdag import (
    random_decisions,
    random_scripted_dag,
    random_wide_dag,
    steps_from_assignment,
    success_assignments,
)
from test_engine import bundle_of, linear_dag, scripted
from tsgflow import load_bundle, load_scenario, oracle
from tsgflow.dag import END, START, DagEdge, DagNode, ExecutionDag, edge_id, validate_dag
from tsgflow.engine import ElementState, RunConfig, run
from tsgflow.harness import run_scenario, sweep
from tsgflow.oracle import (
    fixpoint_states,
    max_antichain,
    oracle_makespan,
    replay_final_outcome,
    serial_simulation,
    simulate,
    started_work,
)
from tsgflow.scenario import ScenarioIncomplete, scenario_steps


def assert_engine_matches_oracle(dag, steps, retry_limit=0, k=1):
    """run() at k executors and simulate() agree on what ran, in which
    order, how the run ended and when; a missing script ends both with the
    same ScenarioIncomplete."""
    try:
        result = run(
            bundle_of(dag),
            scripted(steps),
            RunConfig(max_executors=k, retry_limit=retry_limit),
        )
    except ScenarioIncomplete as exc:
        with pytest.raises(ScenarioIncomplete) as raised:
            simulate(dag, steps, retry_limit, k)
        assert str(raised.value) == str(exc)
        return None, None
    sim = simulate(dag, steps, retry_limit, k)
    if k == 1:
        assert serial_simulation(dag, steps, retry_limit) == sim
    assert result.executed == sim.executed
    assert [ev.subject for ev in result.trace if ev.kind == "node_started"] == sim.starts
    assert result.status.value == sim.status
    assert result.conclusion == sim.conclusion
    assert result.makespan == sim.total_time
    if sim.status == "exhausted":
        # states must agree exactly once nothing is racing a conclusion
        assert {n: s.value for n, s in result.state.node_state.items()} == sim.node_state
        assert {e: s.value for e, s in result.state.edge_state.items()} == sim.edge_state
    return result, sim


def test_oracle_fig5_case(fig5_bundle, fig5_scenario):
    # both step forms: {"attempts": [...]} as in the file, and a bare list
    for scenario in (fig5_scenario, {"steps": scenario_steps(fig5_scenario)}):
        oracle = oracle_makespan(fig5_bundle.dag, scenario)
        assert oracle.critical_path_to_conclusion == 22
        assert oracle.serial_sum == 35
        assert oracle.width == 3


# the value each of these attempt fields has when an attempt leaves it out
DEFAULTS = {"result": "success", "latency": 0, "edge_decisions": {}, "summary": ""}


def without_defaults(scenario: dict) -> dict:
    """The scenario with every attempt field that holds its default left out."""
    stripped = copy.deepcopy(scenario)
    for attempts in scenario_steps(stripped).values():
        for attempt in attempts:
            for name, default in DEFAULTS.items():
                value = attempt.get(name)
                if type(value) is type(default) and value == default:
                    del attempt[name]
    return stripped


def test_fields_left_at_their_default_can_be_left_out(tmp_path):
    """A fixture scenario with its default-valued fields left out gives the
    same trace at every k, and the same serial, unbounded and makespan oracles."""
    for path in sorted(BUNDLES.glob("*/scenarios/*.json")):
        bundle_dir = path.parent.parent
        bundle = load_bundle(bundle_dir)
        original = load_scenario(bundle_dir, str(path))
        stripped_path = tmp_path / f"{bundle_dir.name}-{path.name}"
        stripped_path.write_text(json.dumps(without_defaults(original)), encoding="utf-8")
        stripped = load_scenario(bundle_dir, str(stripped_path))
        assert stripped != original
        for k in range(1, 5):
            assert (run_scenario(bundle, stripped, executors=k).trace_jsonl()
                    == run_scenario(bundle, original, executors=k).trace_jsonl())
        for k in (1, len(bundle.dag.nodes)):
            assert (simulate(bundle.dag, scenario_steps(stripped), 2, k)
                    == simulate(bundle.dag, scenario_steps(original), 2, k)), k
        assert oracle_makespan(bundle.dag, stripped) == oracle_makespan(bundle.dag, original)


def test_oracle_linear_chain():
    dag = linear_dag(3)
    steps = {
        "step1": [{"result": "success", "latency": 1,
                   "edge_decisions": {"edge_step1_step2": "enable"}}],
        "step2": [{"result": "success", "latency": 2,
                   "edge_decisions": {"edge_step2_step3": "enable"}}],
        "step3": [{"result": "success", "latency": 3,
                   "edge_decisions": {"edge_step3_end": "enable"}}],
    }
    oracle = oracle_makespan(dag, {"steps": steps})
    assert oracle.critical_path_to_conclusion == 6
    assert oracle.serial_sum == 6
    assert oracle.width == 1


def test_oracle_sequential_fig4(fig4_bundle, fig4_scenario):
    oracle = oracle_makespan(fig4_bundle.dag, fig4_scenario)
    assert oracle.critical_path_to_conclusion == 43
    assert oracle.serial_sum == 43
    assert oracle.width == 1


def test_oracle_triple(triple_bundle, triple_scenario):
    oracle = oracle_makespan(triple_bundle.dag, triple_scenario)
    assert oracle.critical_path_to_conclusion == 45
    assert oracle.serial_sum == 105
    assert oracle.width == 3


def test_oracle_requires_complete_scenario(fig5_bundle, fig5_scenario):
    steps = scenario_steps(fig5_scenario)
    steps.pop("step2")
    with pytest.raises(ScenarioIncomplete):
        oracle_makespan(fig5_bundle.dag, {"steps": steps})


def test_replay_final_outcome():
    attempts = [{"result": "failure", "latency": 2}, {"result": "success", "latency": 3,
                                                      "edge_decisions": {}}]
    out = replay_final_outcome({"step1": attempts}, "step1", retry_limit=1)
    assert out.result == "success"
    assert out.total_latency == 5
    assert out.executions == 2
    out = replay_final_outcome({"step1": attempts[:1]}, "step1", retry_limit=2)
    assert out.result == "failure"
    assert out.total_latency == 6  # last attempt repeats


def test_fixpoint_matches_engine_propagation(fig4_bundle):
    from tsgflow.oracle import FinalOutcome

    dag = fig4_bundle.dag
    applied = {
        "step1": FinalOutcome("success", {"edge_step1_step2": "enable"}, 1, 1),
        "step2": FinalOutcome(
            "success",
            {"edge_step2_end": "disable", "edge_step2_step3.1": "enable"}, 1, 1),
        "step3.1": FinalOutcome(
            "success",
            {"edge_step3.1_step3.2": "disable", "edge_step3.1_step4.1": "enable"}, 1, 1),
    }
    node_state, edge_state = fixpoint_states(dag, applied)
    assert node_state["step3.2"] == "disabled"
    assert node_state["step3.3"] == "disabled"
    assert node_state["step3.4"] == "disabled"
    assert node_state["step4.1"] == "enabled"
    assert edge_state["edge_step3.4_step4.1"] == "disabled"


def test_max_antichain_shapes(fig5_bundle):
    dag = fig5_bundle.dag
    chain = ["step3.1", "step3.2", "step3.3", "step3.4"]
    assert max_antichain(dag, chain) == 1
    assert max_antichain(dag, ["step2", "step3.1", "step4.1"]) == 3
    assert max_antichain(dag, []) == 0


def test_max_antichain_counts_a_repeated_id_once(fig5_bundle):
    dag = fig5_bundle.dag
    assert max_antichain(dag, ["step1", "step1"]) == 1
    assert max_antichain(dag, ["step3.1", "step3.2", "step3.1"]) == 1
    assert max_antichain(dag, ["step3.1", "step3.2"]) == 1
    assert max_antichain(dag, ["step2", "step3.1", "step2", "step4.1"]) == 3


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_max_antichain_long_chain_within_recursion_limit():
    """On a chain the augmenting paths run about 0.9 n deep. A 400-step chain
    with 150 free stack frames stands in for a 1500-step chain under the
    default limit, at a small part of its cubic matching cost."""
    dag = linear_dag(400)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        width = max_antichain(dag, [n.id for n in dag.step_nodes()])
    finally:
        sys.setrecursionlimit(limit)
    assert width == 1


def test_unbounded_simulation_executed_set(fig5_bundle, fig5_scenario):
    dag = fig5_bundle.dag
    unbounded = simulate(dag, scenario_steps(fig5_scenario), 2, len(dag.nodes))
    assert (unbounded.status, unbounded.total_time) == ("concluded", 22)
    assert set(unbounded.executed) == {
        "step1", "step2", "step3.1", "step3.2", "step3.3", "step3.4", "step4.1", "step4.2",
    }
    assert max_antichain(dag, unbounded.executed) == 3
    assert oracle_makespan(dag, fig5_scenario).width == 3


def test_engine_matches_oracle_on_bundles(fig4_bundle, fig4_scenario, fig5_bundle,
                                          fig5_scenario, triple_bundle, triple_scenario):
    for bundle, scenario in (
        (fig4_bundle, fig4_scenario),
        (fig5_bundle, fig5_scenario),
        (triple_bundle, triple_scenario),
    ):
        assert_engine_matches_oracle(bundle.dag, scenario_steps(scenario), retry_limit=2)


def test_engine_matches_oracle_randomized_small():
    rng = random.Random(1234)
    cases = 0
    for _ in range(60):
        dag = random_scripted_dag(rng)
        assert validate_dag(dag).ok
        assignments = success_assignments(dag)
        for assignment in assignments:
            assert_engine_matches_oracle(dag, steps_from_assignment(assignment))
            cases += 1
        step_ids = sorted(assignment)
        for failing in step_ids[: min(3, len(step_ids))]:
            steps = steps_from_assignment(assignments[0], failing={failing})
            assert_engine_matches_oracle(dag, steps)
            cases += 1
    assert cases > 300


def _random_case(rng: random.Random, wide: bool):
    """A valid DAG with a complete script: a randdag DAG with one of its
    success assignments, or a wide DAG of 10-30 steps with random decisions.
    Each step succeeds, fails once and then succeeds, or always fails, each
    attempt with an integer latency 0-3 so that many completions tie."""
    if wide:
        dag = random_wide_dag(rng, rng.randint(10, 30))
        assignment = random_decisions(rng, dag)
    else:
        dag = random_scripted_dag(rng)
        assignment = rng.choice(success_assignments(dag))
    steps = {}
    for node, decisions in assignment.items():
        success = {"result": "success", "latency": rng.randint(0, 3), "edge_decisions": decisions}
        failure = {"result": "failure", "latency": rng.randint(0, 3), "error": "x"}
        steps[node] = rng.choice(([success], [success], [failure, success], [failure]))
    return dag, steps, rng.randint(0, 2)


def test_engine_matches_simulation_at_every_k():
    """Zero mismatches between run() and simulate() at k=1..5 on small and
    wide DAGs; one case in ten drops a step's script."""
    rng = random.Random(20261018)
    cases = incomplete = 0
    for i in range(360):
        dag, steps, retry_limit = _random_case(rng, wide=i % 2 == 1)
        if rng.random() < 0.1:
            del steps[rng.choice(sorted(steps))]
        for k in range(1, 6):
            result, _ = assert_engine_matches_oracle(dag, steps, retry_limit, k)
            cases += 1
            incomplete += result is None
    assert cases >= 1800 and 0 < incomplete < cases / 5


def test_graham_bound_and_saturation_at_the_realized_width():
    """Graham's list-scheduling bound T_k <= W_k / k + T_inf holds for every
    concluded run, where W_k is the work the k-run started and T_inf the
    unbounded-executor conclusion time of the frozen longest-path reference,
    which does not depend on simulate; and, as sweep's saturation_ok
    claims, every k at or above the oracle's realized width gives one
    makespan."""
    rng = random.Random(1969)
    saturated_checks = 0
    for i in range(600):
        dag, steps, retry_limit = _random_case(rng, wide=i % 2 == 1)
        t_inf = reference.timed_analysis(dag, steps, retry_limit).conclusion_time
        width = oracle_makespan(dag, {"steps": steps}, retry_limit).width
        makespans = {}
        for k in range(1, 9):
            sim = simulate(dag, steps, retry_limit, k)
            makespans[k] = sim.total_time
            if sim.status == "concluded":
                work = started_work(steps, sim.starts)
                assert sim.total_time * k <= work + k * t_inf, (i, k)
        saturated = {m for k, m in makespans.items() if k >= width}
        assert len(saturated) <= 1, (i, width, makespans)
        saturated_checks += len(saturated)
    assert saturated_checks > 500


def test_sweep_accepts_a_timing_anomaly():
    """Case 2619 of _random_case under Random(3), a 25-node wide DAG: two
    executors finish later than one (Graham's timing anomaly). The engine
    is right to, so every check of the sweep holds."""
    rng = random.Random(3)
    for i in range(2620):
        dag, steps, retry_limit = _random_case(rng, wide=i % 2 == 1)
    report = sweep(bundle_of(dag), {"steps": steps}, [1, 2, 3], retry_limit)
    assert [entry.makespan for entry in report.entries] == [3, 4, 3]
    assert report.bounds_ok and report.oracle_ok and report.saturation_ok


def _unreached_step_dag():
    """start -> step1 -> end, and start -> step2 -> step3 -> end."""
    edges = [(START, "step1"), ("step1", END), (START, "step2"), ("step2", "step3"),
             ("step3", END)]
    return ExecutionDag(
        "unreached",
        [DagNode(START, "start")]
        + [DagNode(f"step{i}", "step", step_ref=str(i)) for i in (1, 2, 3)]
        + [DagNode(END, "end")],
        [DagEdge(edge_id(a, b), a, b, None, "done" if b == END else None) for a, b in edges],
    )


def test_oracle_leaves_out_a_step_no_run_reaches():
    """step1 (latency 1) concludes before step2 (latency 5) completes, so no
    run starts step3, which has no script."""
    dag = _unreached_step_dag()
    steps = {
        "step1": [{"latency": 1, "edge_decisions": {"edge_step1_end": "enable"}}],
        "step2": [{"latency": 5, "edge_decisions": {"edge_step2_step3": "enable"}}],
    }
    for k in range(1, 4):
        result, _ = assert_engine_matches_oracle(dag, steps, k=k)
        assert (result.conclusion, result.makespan) == ("done", 1)
    oracle = oracle_makespan(dag, {"steps": steps}, 0)
    assert (oracle.critical_path_to_conclusion, oracle.serial_sum, oracle.width) == (1, 1, 2)


def _completes(dag, steps, retry_limit, k) -> bool:
    try:
        run(bundle_of(dag), scripted(steps), RunConfig(max_executors=k, retry_limit=retry_limit))
    except ScenarioIncomplete:
        return False
    return True


def test_oracle_returns_whenever_the_runs_it_models_complete():
    """One case in seven drops a step's script. oracle_makespan returns
    exactly when run() completes at k=1 and with one executor per node, the
    two runs it reports; a script no such run reaches does not matter. A run
    at some k in 1..4 may complete while the unbounded run starts the
    unscripted step before its conclusion: T_inf is then unknown, and the
    oracle raises."""
    rng = random.Random(7)
    dropped = reached_by_k1_only = 0
    unreached = 0  # the frozen longest-path model raised, the oracle returned
    for i in range(3000):
        dag, steps, retry_limit = _random_case(rng, wide=i % 2 == 1)
        if rng.random() >= 1 / 7:
            continue
        del steps[rng.choice(sorted(steps))]
        dropped += 1
        completes = {k: _completes(dag, steps, retry_limit, k)
                     for k in (1, 2, 3, 4, len(dag.nodes))}
        try:
            oracle_makespan(dag, {"steps": steps}, retry_limit)
        except ScenarioIncomplete:
            assert not (completes[1] and completes[len(dag.nodes)]), i
            reached_by_k1_only += any(completes.values())
            continue
        assert completes[1] and completes[len(dag.nodes)], i
        try:
            reference.timed_analysis(dag, steps, retry_limit)
        except ScenarioIncomplete:
            unreached += 1
    assert dropped > 350 and unreached > 40 and reached_by_k1_only < dropped / 20


def test_simulate_settles_at_most_twice(monkeypatch, fig5_bundle, fig5_scenario):
    """One simulate call is two closures however many steps run: on a
    2000-step chain and on a fixture bundle at k=1..4."""
    settles = []
    settle = oracle._settle
    monkeypatch.setattr(oracle, "_settle", lambda *args: settles.append(1) or settle(*args))
    dag = linear_dag(2000)
    steps = {f"step{i}": [{"result": "success", "latency": 1,
                           "edge_decisions": {dag.edges[i].id: "enable"}}]
             for i in range(1, 2001)}
    assert simulate(dag, steps, 2, 1).total_time == 2000
    assert len(settles) <= 2
    for k in range(1, 5):
        settles.clear()
        simulate(fig5_bundle.dag, scenario_steps(fig5_scenario), 2, k)
        assert 0 < len(settles) <= 2


def test_oracle_makespan_on_a_10000_step_chain_is_linear():
    n = 10_000
    dag = linear_dag(n)
    steps = {f"step{i}": [{"result": "success", "latency": 1,
                           "edge_decisions": {dag.edges[i].id: "enable"}}]
             for i in range(1, n + 1)}
    started = time.monotonic()
    result = oracle_makespan(dag, {"steps": steps})
    elapsed = time.monotonic() - started
    assert (result.critical_path_to_conclusion, result.serial_sum, result.width) == (n, n, 1)
    assert elapsed < 30, f"took {elapsed:.1f}s"


def test_makespan_bounds_invariant(fig4_bundle, fig4_scenario, fig5_bundle, fig5_scenario,
                                   triple_bundle, triple_scenario):
    for bundle, scenario in ((fig4_bundle, fig4_scenario), (fig5_bundle, fig5_scenario),
                             (triple_bundle, triple_scenario)):
        oracle = oracle_makespan(bundle.dag, scenario)
        makespans = {}
        for k in range(1, 7):
            result = run(
                bundle_of(bundle.dag),
                scripted(scenario_steps(scenario)),
                RunConfig(max_executors=k, retry_limit=2),
            )
            makespans[k] = result.makespan
        assert makespans[1] == oracle.serial_sum
        for k, makespan in makespans.items():
            assert oracle.critical_path_to_conclusion <= makespan <= makespans[1]
            if k >= oracle.width:
                assert makespan == makespans[oracle.width]


def test_engine_enabled_state_matches_fixpoint_when_exhausted():
    dag = linear_dag(2)
    steps = {
        "step1": [{"result": "success", "latency": 1,
                   "edge_decisions": {"edge_step1_step2": "enable"}}],
        "step2": [{"result": "failure", "latency": 1, "error": "x"}],
    }
    result, sim = assert_engine_matches_oracle(dag, steps, retry_limit=0)
    assert result.state.node_state["step2"] is ElementState.ENABLED
    assert sim.node_state["step2"] == "enabled"
