from __future__ import annotations

import inspect
import json
import re

import pytest

from conftest import FIG4_DIR, FIG5_DIR, TRIPLE_DIR
from tsgflow import harness
from tsgflow.backends import ScriptedBackend
from tsgflow.cli import _build_parser
from tsgflow.engine import RunConfig, RunState
from tsgflow.harness import HarnessError, load_bundle, load_scenario, run_scenario, sweep
from tsgflow.oracle import oracle_makespan
from tsgflow.scenario import ScenarioInvalid, scenario_steps


def test_load_bundle_extracts_when_files_absent(fig4_bundle):
    assert fig4_bundle.dag.tsg_id == "availability-drop"
    assert [t.name for t in fig4_bundle.templates] == ["top_exceptions", "full_stack"]
    assert fig4_bundle.registry is not None  # fixtures/ present
    assert fig4_bundle.registry.names() == [
        "analysis.aggregate", "analysis.pearson", "devops_code_changes",
        "devops_deployments", "log_query", "metric_fetch",
    ]


def test_load_bundle_prefers_existing_dag_file(tmp_path, fig4_bundle):
    import shutil

    bundle_dir = tmp_path / "bundle"
    shutil.copytree(FIG4_DIR, bundle_dir)
    from tsgflow.dag import serialize_dag

    (bundle_dir / "dag.json").write_text(serialize_dag(fig4_bundle.dag), encoding="utf-8")
    bundle = load_bundle(bundle_dir)
    assert len(bundle.dag.edges) == 15


def test_load_scenario_by_name_and_path(fig4_scenario):
    by_name = load_scenario(FIG4_DIR, "dependency_issue")
    by_file = load_scenario(FIG4_DIR, str(FIG4_DIR / "scenarios" / "dependency_issue.json"))
    assert by_name == by_file == fig4_scenario
    with pytest.raises(HarnessError):
        load_scenario(FIG4_DIR, "no_such_scenario")


def test_run_scenario_writes_trace(tmp_path, fig4_bundle, fig4_scenario):
    trace_path = tmp_path / "trace.jsonl"
    result = run_scenario(fig4_bundle, fig4_scenario, executors=1, trace_path=trace_path)
    assert result.makespan == 43
    lines = trace_path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "run_started"
    assert json.loads(lines[-1])["kind"] == "run_terminated"
    assert len(lines) == len(result.trace)


def test_trace_keeps_a_lone_surrogate_as_its_json_escape(tmp_path, fig5_bundle, fig5_scenario):
    """A scenario's "\\ud800" escape decodes to a character UTF-8 cannot hold;
    the trace writes it as that escape again instead of failing."""
    scenario = json.loads(json.dumps(fig5_scenario))
    scenario["steps"]["step1"]["attempts"][0]["summary"] = "top exception \ud800"
    trace = tmp_path / "trace.jsonl"
    run_scenario(fig5_bundle, scenario, trace_path=trace)
    summaries = [json.loads(line)["detail"].get("summary") for line in trace.read_text().splitlines()]
    assert "top exception \ud800" in summaries


def test_sweep_against_sequential_baseline(fig5_bundle, fig5_scenario, fig4_bundle, fig4_scenario):
    report = sweep(
        fig5_bundle, fig5_scenario, [1, 2, 3, 4, 5],
        baseline=(fig4_bundle, fig4_scenario),
    )
    assert report.baseline_kind == "sequential-bundle"
    assert report.baseline_makespan == 43
    assert [e.makespan for e in report.entries] == [35, 26, 22, 22, 22]
    assert report.oracle_ok and report.bounds_ok and report.saturation_ok
    assert round(report.reductions[3] * 100, 1) == 48.8
    obj = report.to_obj()
    assert obj["oracle"] == {
        "critical_path_to_conclusion": 22, "serial_sum": 35, "width": 3,
    }
    assert list(obj["reductions"]) == ["1", "2", "3", "4", "5"]


def test_sweep_self_baseline(triple_bundle, triple_scenario):
    report = sweep(triple_bundle, triple_scenario, [3, 1, 5])  # unordered input
    assert report.baseline_kind == "self-k1"
    assert report.baseline_makespan == 105
    assert [e.k for e in report.entries] == [1, 3, 5]
    assert report.reductions[1] == 0.0
    assert 0.329 <= report.reductions[3] <= 0.706
    assert report.oracle_ok and report.bounds_ok and report.saturation_ok


def test_sweep_self_baseline_without_k1(triple_bundle, triple_scenario):
    report = sweep(triple_bundle, triple_scenario, [3, 4])
    assert report.baseline_kind == "self-k1"
    assert report.baseline_makespan == 105  # computed with an extra k=1 run


def _count_oracle_work(monkeypatch):
    """Counters of the oracle's DAG views built and of its simulations by k."""
    from tsgflow import oracle

    views, runs = [], []
    view, simulate = oracle._View, oracle._simulate
    monkeypatch.setattr(oracle, "_View", lambda dag: views.append(1) or view(dag))
    monkeypatch.setattr(oracle, "_simulate",
                        lambda v, steps, retry, k: runs.append(k) or simulate(v, steps, retry, k))
    return views, runs


@pytest.mark.parametrize("ks", [[1, 2, 3, 4], [3, 4], [2, 1]])
def test_sweep_builds_one_oracle_view_and_simulates_each_k_once(monkeypatch, fig5_bundle,
                                                                 fig5_scenario, ks):
    want = sweep(fig5_bundle, fig5_scenario, ks).to_obj()
    views, runs = _count_oracle_work(monkeypatch)
    assert sweep(fig5_bundle, fig5_scenario, ks).to_obj() == want
    unbounded = len(fig5_bundle.dag.nodes)
    assert views == [1]
    assert sorted(runs) == sorted({1, unbounded, *ks})
    assert runs[:2] == [1, unbounded]  # the oracle's bounds come first, as before


def test_oracle_makespan_builds_one_view(monkeypatch, fig5_bundle, fig5_scenario):
    from tsgflow.oracle import oracle_makespan

    want = oracle_makespan(fig5_bundle.dag, fig5_scenario)
    views, runs = _count_oracle_work(monkeypatch)
    assert oracle_makespan(fig5_bundle.dag, fig5_scenario) == want
    assert views == [1]
    assert runs == [1, len(fig5_bundle.dag.nodes)]


def _tamper(monkeypatch, k, field, change):
    """Make the engine's run at k executors report `change(result)` as its
    `field`."""
    engine_run = harness.run_scenario

    def run_scenario(bundle, scenario, executors=1, **kwargs):
        result = engine_run(bundle, scenario, executors, **kwargs)
        if executors == k:
            setattr(result, field, change(result))
        return result

    monkeypatch.setattr(harness, "run_scenario", run_scenario)


@pytest.mark.parametrize("field,change", [
    ("makespan", lambda r: r.makespan + 1),
    ("executed", lambda r: r.executed[:-1]),
    ("conclusion", lambda r: "other"),
])
def test_sweep_reports_a_run_the_oracle_disagrees_with(monkeypatch, fig5_bundle, fig5_scenario,
                                                      field, change):
    """oracle_ok turns false when one k's run differs from the oracle's
    simulation in its makespan, executed steps or conclusion."""
    _tamper(monkeypatch, 2, field, change)
    assert not sweep(fig5_bundle, fig5_scenario, [1, 2, 3]).oracle_ok
    assert sweep(fig5_bundle, fig5_scenario, [1, 3]).oracle_ok


@pytest.mark.parametrize("makespan", [21.5, 37])
def test_sweep_bounds_reject_a_makespan_outside_graham(monkeypatch, fig5_bundle, fig5_scenario,
                                                        makespan):
    """fig5 at k=3: T_inf = 22, and the k=3 run starts attempts worth
    W_3 = 43, cancelled step3.4's included, so 22 <= T_3 <= 43 / 3 + 22."""
    _tamper(monkeypatch, 3, "makespan", lambda r: makespan)
    assert not sweep(fig5_bundle, fig5_scenario, [1, 2, 3]).bounds_ok
    assert sweep(fig5_bundle, fig5_scenario, [1, 2]).bounds_ok


def test_sweep_reductions_recomputed_from_makespans(fig5_bundle, fig5_scenario):
    report = sweep(fig5_bundle, fig5_scenario, [1, 3])
    for entry in report.entries:
        expected = (report.baseline_makespan - entry.makespan) / report.baseline_makespan
        assert report.reductions[entry.k] == expected


def test_sweep_rejects_bad_k(fig5_bundle, fig5_scenario):
    with pytest.raises(HarnessError):
        sweep(fig5_bundle, fig5_scenario, [])
    with pytest.raises(HarnessError):
        sweep(fig5_bundle, fig5_scenario, [0, 2])


@pytest.mark.parametrize("bad", ["2", 2.5, True])
def test_sweep_names_an_executor_count_that_is_not_an_int(monkeypatch, fig5_bundle,
                                                          fig5_scenario, bad):
    monkeypatch.setattr(harness, "run_scenario", lambda *a, **kw: pytest.fail("a run started"))
    with pytest.raises(HarnessError, match=rf"^executor count {re.escape(repr(bad))} is not an int >= 1$"):
        sweep(fig5_bundle, fig5_scenario, [1, bad])


def test_missing_bundle_dir(tmp_path):
    with pytest.raises(HarnessError):
        load_bundle(tmp_path / "nope")
    assert TRIPLE_DIR.exists() and FIG5_DIR.exists()


@pytest.mark.parametrize(("scenario", "message"), [
    (None, "top level must be a JSON object"),
    ([{"steps": {}}], "top level must be a JSON object"),
    ("steps", "top level must be a JSON object"),
    ({"steps": None}, "steps must map node ids to attempts"),
    ({"steps": [["step1"]]}, "steps must map node ids to attempts"),
    ({"steps": "step1"}, "steps must map node ids to attempts"),
])
def test_every_scenario_reader_names_a_scenario_or_steps_that_is_not_an_object(
        fig5_bundle, scenario, message):
    """scenario_steps, and so the backend, the oracle and a sweep built on
    it, raise ScenarioInvalid worded as read_scenario words the same fault."""
    readers = (scenario_steps, ScriptedBackend.from_scenario,
               lambda s: oracle_makespan(fig5_bundle.dag, s),
               lambda s: sweep(fig5_bundle, s, [1, 2]),
               lambda s: run_scenario(fig5_bundle, s))
    for read in readers:
        with pytest.raises(ScenarioInvalid) as info:
            read(scenario)
        assert str(info.value) == f"scenario: {message}"


def test_run_defaults_are_run_configs(fig5_bundle):
    """The engine, the harness and the CLI take RunConfig's defaults for the
    executor count, the retry limit and the clock."""
    config = RunConfig()
    assert RunState(fig5_bundle.compiled).retry_limit == config.retry_limit
    defaults = {name: p.default for name, p in inspect.signature(run_scenario).parameters.items()}
    assert (defaults["executors"], defaults["retry_limit"], defaults["clock"]) == (
        config.max_executors, config.retry_limit, config.clock)
    assert inspect.signature(sweep).parameters["retry_limit"].default == config.retry_limit
    parse = _build_parser().parse_args
    run_args = parse(["run", "b", "--scenario", "s"])
    assert (run_args.executors, run_args.retry, run_args.mode) == (
        config.max_executors, config.retry_limit, config.clock)
    for argv in (["sweep", "b", "--scenario", "s", "--executors", "1"],
                 ["oracle", "b", "--scenario", "s"]):
        assert parse(argv).retry == config.retry_limit
