from __future__ import annotations

import copy
import json
import random
import sys

import pytest

from conftest import BUNDLES
from randdag import random_scripted_dag, steps_from_assignment, success_assignments
from test_engine import bundle_of, linear_dag, scripted
from tsgflow import load_bundle, load_scenario
from tsgflow.dag import validate_dag
from tsgflow.engine import ElementState, RunConfig, run
from tsgflow.harness import run_scenario
from tsgflow.oracle import (
    fixpoint_states,
    max_antichain,
    oracle_makespan,
    replay_final_outcome,
    serial_simulation,
    timed_analysis,
)
from tsgflow.scenario import ScenarioIncomplete, scenario_steps


def assert_engine_matches_serial_oracle(dag, steps, retry_limit=0):
    result = run(
        bundle_of(dag),
        scripted(steps),
        RunConfig(max_executors=1, retry_limit=retry_limit),
    )
    sim = serial_simulation(dag, steps, retry_limit)
    assert result.executed == sim.executed
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
    same trace at every k, and the same serial, timed and makespan oracles."""
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
        for check in (serial_simulation, timed_analysis):
            assert (check(bundle.dag, scenario_steps(stripped), 2)
                    == check(bundle.dag, scenario_steps(original), 2)), check.__name__
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


def test_timed_analysis_executed_set(fig5_bundle, fig5_scenario):
    timed = timed_analysis(fig5_bundle.dag, scenario_steps(fig5_scenario), retry_limit=2)
    assert timed.conclusion_time == 22
    assert set(timed.executed) == {
        "step1", "step2", "step3.1", "step3.2", "step3.3", "step3.4", "step4.1", "step4.2",
    }
    assert timed.width == 3


def test_engine_matches_oracle_on_bundles(fig4_bundle, fig4_scenario, fig5_bundle,
                                          fig5_scenario, triple_bundle, triple_scenario):
    for bundle, scenario in (
        (fig4_bundle, fig4_scenario),
        (fig5_bundle, fig5_scenario),
        (triple_bundle, triple_scenario),
    ):
        assert_engine_matches_serial_oracle(bundle.dag, scenario_steps(scenario), retry_limit=2)


def test_engine_matches_oracle_randomized_small():
    rng = random.Random(1234)
    cases = 0
    for _ in range(60):
        dag = random_scripted_dag(rng)
        assert validate_dag(dag).ok
        assignments = success_assignments(dag)
        for assignment in assignments:
            assert_engine_matches_serial_oracle(dag, steps_from_assignment(assignment))
            cases += 1
        step_ids = sorted(assignment)
        for failing in step_ids[: min(3, len(step_ids))]:
            steps = steps_from_assignment(assignments[0], failing={failing})
            assert_engine_matches_serial_oracle(dag, steps)
            cases += 1
    assert cases > 300


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
    result, sim = assert_engine_matches_serial_oracle(dag, steps, retry_limit=0)
    assert result.state.node_state["step2"] is ElementState.ENABLED
    assert sim.node_state["step2"] == "enabled"
