from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tsgflow
from conftest import FIG4_DIR, FIG5_DIR
from corpus import build_lint_corpus
from tsgflow import load_bundle
from tsgflow.cli import main
from tsgflow.dag import serialize_dag
from tsgflow.errors import escaped


def test_lint_clean_exits_zero(capsys):
    assert main(["lint", str(FIG4_DIR / "tsg.md")]) == 0
    assert capsys.readouterr().out == ""


def test_lint_findings_exit_one(tmp_path, capsys):
    doc = build_lint_corpus()[1]  # has error-severity seeds
    path = tmp_path / "doc.md"
    path.write_text(doc.text, encoding="utf-8")
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:" in out
    assert "CF-NEXT-DANGLING" in out

    assert main(["lint", str(path), "--json"]) == 1
    parsed = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in parsed} >= {"CF-NEXT-DANGLING", "DF-INPUT-UNKNOWN"}


def test_extract_dag_and_qpp(tmp_path, capsys):
    dag_out = tmp_path / "dag.json"
    assert main(["extract", "dag", str(FIG4_DIR / "tsg.md"), "-o", str(dag_out)]) == 0
    obj = json.loads(dag_out.read_text())
    assert len(obj["nodes"]) == 11 and len(obj["edges"]) == 15
    assert "11 nodes, 15 edges" in capsys.readouterr().out

    qpp_out = tmp_path / "qpp.json"
    assert main(["extract", "qpp", str(FIG4_DIR / "tsg.md"), "-o", str(qpp_out)]) == 0
    manifest = json.loads(qpp_out.read_text())
    assert [t["name"] for t in manifest["templates"]] == ["full_stack", "top_exceptions"]


def test_prepare(tmp_path, capsys):
    qpp_out = tmp_path / "qpp.json"
    main(["extract", "qpp", str(FIG4_DIR / "tsg.md"), "-o", str(qpp_out)])
    capsys.readouterr()
    code = main([
        "prepare", str(qpp_out), "top_exceptions",
        "--param", "service=web-frontend", "--param", "ring=test",
        "--param", "start_time=2026-03-01T00:00:00Z",
        "--param", "end_time=2026-03-01T09:00:00Z",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "| where DeployRing == 'test'" in out
    assert "{service}" not in out and "{ring}" not in out


def test_prepare_missing_param(tmp_path, capsys):
    qpp_out = tmp_path / "qpp.json"
    main(["extract", "qpp", str(FIG4_DIR / "tsg.md"), "-o", str(qpp_out)])
    capsys.readouterr()
    code = main(["prepare", str(qpp_out), "top_exceptions", "--param", "service=x"])
    assert code == 1
    assert "MissingParameter" in capsys.readouterr().err


def test_prepare_unknown_template_is_a_named_error(tmp_path, capsys):
    qpp_out = tmp_path / "qpp.json"
    main(["extract", "qpp", str(FIG4_DIR / "tsg.md"), "-o", str(qpp_out)])
    capsys.readouterr()
    assert main(["prepare", str(qpp_out), "x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: TemplateError: no template named 'x' in manifest\n"


def test_prepare_param_without_equals_is_a_usage_error(tmp_path, capsys):
    qpp_out = tmp_path / "qpp.json"
    main(["extract", "qpp", str(FIG4_DIR / "tsg.md"), "-o", str(qpp_out)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["prepare", str(qpp_out), "top_exceptions", "--param", "x"])
    assert exc.value.code == 2
    assert "argument --param: expected K=V, got 'x'" in capsys.readouterr().err


def test_run_writes_trace_and_summary(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = main([
        "run", str(FIG4_DIR), "--scenario", "dependency_issue",
        "--executors", "1", "--trace", str(trace),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "concluded"
    assert summary["conclusion"] == "transfer to upstream team"
    assert summary["makespan"] == 43
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert events[-1]["kind"] == "run_terminated"


def test_run_exhausted_exits_one(tmp_path, capsys):
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(FIG4_DIR, bundle_dir)
    scenario = json.loads((bundle_dir / "scenarios" / "dependency_issue.json").read_text())
    scenario["steps"]["step1"] = {"attempts": [
        {"result": "failure", "latency": 1, "error": "logs unavailable"}]}
    (bundle_dir / "scenarios" / "fails.json").write_text(json.dumps(scenario))
    code = main(["run", str(bundle_dir), "--scenario", "fails", "--retry", "0"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "exhausted"


def test_sweep_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "sweep", str(FIG5_DIR), "--scenario", "dependency_issue",
        "--executors", "2..5", "--report", str(report_path),
        "--baseline", str(FIG4_DIR),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert [e["k"] for e in report["entries"]] == [2, 3, 4, 5]
    assert report["baseline"] == {"kind": "sequential-bundle", "makespan": 43}
    out = capsys.readouterr().out
    assert "k=3 makespan=22" in out
    assert "reduction=48.8%" in out
    assert report["bounds_ok"] and report["saturation_ok"] and report["oracle_ok"]


def test_oracle_command(capsys):
    code = main(["oracle", str(FIG5_DIR), "--scenario", "dependency_issue"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"critical_path_to_conclusion": 22, "serial_sum": 35, "width": 3}


def test_oracle_and_run_refuse_decisions_that_are_not_the_outgoing_edges(tmp_path, capsys):
    """fig5 with step1 deciding edge_stepX_step2 instead of edge_step1_step2:
    every command exits 1 naming step1 and both edge ids, none with figures."""
    text = (FIG5_DIR / "scenarios" / "dependency_issue.json").read_text(encoding="utf-8")
    assert text.count("edge_step1_step2") == 1
    path = tmp_path / "renamed.json"
    path.write_text(text.replace("edge_step1_step2", "edge_stepX_step2"), encoding="utf-8")
    edges = "step1: missing: edge_step1_step2; not outgoing edges: edge_stepX_step2"
    for command, error in ((["oracle"], "DecisionsMismatch"), (["run"], "IncompleteEdgeDecisions"),
                           (["sweep", "--executors", "1..2"], "DecisionsMismatch")):
        assert main([command[0], str(FIG5_DIR), "--scenario", str(path), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {error}: {edges}\n"


@pytest.mark.parametrize("value, words", [
    ("maybe", "decision must be enable|disable"),
    ("disable", "unconditional edges must be enabled"),
])
def test_oracle_and_run_refuse_a_decision_value_alike(tmp_path, capsys, value, words):
    """fig5 with step1 deciding its unconditional edge_step1_step2 as
    `value`: every command exits 1 with the engine's InvalidEdgeDecision."""
    scenario = json.loads((FIG5_DIR / "scenarios" / "dependency_issue.json").read_text())
    scenario["steps"]["step1"]["attempts"][0]["edge_decisions"]["edge_step1_step2"] = value
    path = tmp_path / "decided.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    for command in (["oracle"], ["run"], ["sweep", "--executors", "1..2"]):
        assert main([command[0], str(FIG5_DIR), "--scenario", str(path), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: InvalidEdgeDecision: edge_step1_step2: {words}\n"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing required arguments
    assert exc.value.code == 2


def test_bad_executor_range_is_a_usage_error(capsys):
    syntax, bound = "expected K or A..B with integers A <= B", "expected executor counts >= 1"
    for bad, message in (("x..3", syntax), ("3..1", syntax), ("2..", syntax), ("two", syntax),
                         ("0", bound), ("0..2", bound), ("-1..2", bound)):
        with pytest.raises(SystemExit) as exc:
            # the = form, as argparse reads a separate "-1..2" as an option
            main(["sweep", str(FIG5_DIR), "--scenario", "dependency_issue", f"--executors={bad}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tsgflow sweep")
        assert f"argument --executors: {message}, got {bad!r}" in err


def test_oracle_and_sweep_leave_out_a_step_no_run_reaches(tmp_path, capsys):
    """fig5 without step5's script: every run concludes before step5 would
    start, so both commands report as they do with it."""
    scenario = json.loads((FIG5_DIR / "scenarios" / "dependency_issue.json").read_text())
    del scenario["steps"]["step5"]
    path = tmp_path / "no_step5.json"
    path.write_text(json.dumps(scenario))
    assert main(["oracle", str(FIG5_DIR), "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "critical_path_to_conclusion": 22, "serial_sum": 35, "width": 3}
    assert main(["sweep", str(FIG5_DIR), "--scenario", str(path), "--executors", "1..5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "baseline=self-k1(35) width=3 bounds_ok=True saturation_ok=True oracle_ok=True")


@pytest.mark.parametrize("command", [["run"], ["sweep", "--executors", "1..2"], ["oracle"]],
                         ids=["run", "sweep", "oracle"])
@pytest.mark.parametrize("text,message", [
    ("{not json", "not valid JSON"),
    ('{"steps": 5}', "steps must map node ids to attempts"),
    ('[1, 2]', "top level must be a JSON object"),
    ('{"steps": {"step1": {"attempts": [{"latency": "slow"}]}}}',
     "steps.step1.attempts[0].latency must be a number >= 0"),
    ('{"incident": "INC-1", "steps": {}}', "incident must be an object"),
    ('{"steps": {"step1": [{"memory_writes": ["x"]}]}}',
     "steps.step1.attempts[0].memory_writes must be a JSON object"),
    ('{"steps": {"step1": [{}, {"summary": 5}]}}', "steps.step1.attempts[1].summary must be a string"),
    ('{"steps": {"step1": [{"result": "failure", "error": null}]}}',
     "steps.step1.attempts[0].error must be a string"),
    ('{"steps": {"step1": [{"result": ["success"]}]}}',
     "steps.step1.attempts[0].result must be 'success' or 'failure'"),
    ('{"steps": {"step1": [{"latency": 1}, {"latency": 1e999}]}}',
     "steps.step1.attempts[1].latency must be a number >= 0"),
    ('{"steps": {"step1": [{"latency": 1.5}, {"latency": 1%s}]}}' % ("0" * 400),
     "steps.step1.attempts[1].latency must be a number >= 0"),
], ids=["bad-json", "steps-not-object", "top-level-list", "latency-text", "incident-text",
        "memory-writes-list", "summary-number", "error-null", "result-list", "latency-infinite",
        "latency-past-float"])
def test_bad_scenario_exits_one_with_named_error(tmp_path, capsys, command, text, message):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    code = main([command[0], str(FIG5_DIR), "--scenario", str(path), *command[1:]])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: ScenarioInvalid: scenario {path}: {message}")


@pytest.mark.parametrize("command", [
    ["run", "--mode", "virtual"], ["run", "--mode", "wall"], ["sweep", "--executors", "1..2"],
    ["oracle"],
], ids=["run-virtual", "run-wall", "sweep", "oracle"])
def test_scenario_without_a_step_exits_one_with_named_error(tmp_path, capsys, command):
    scenario = json.loads((FIG5_DIR / "scenarios" / "dependency_issue.json").read_text())
    del scenario["steps"]["step2"]
    for step in scenario["steps"].values():  # quick on the wall clock; the error is the same
        for attempt in step["attempts"]:
            attempt["latency"] /= 1000
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code = main([command[0], str(FIG5_DIR), "--scenario", str(path), *command[1:]])
    assert code == 1
    assert capsys.readouterr().err == "error: ScenarioIncomplete: scenario has no attempts for step2\n"


def test_cli_outputs_byte_stable(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main([
            "run", str(FIG5_DIR), "--scenario", "dependency_issue",
            "--executors", "3", "--trace", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def _bundle_copy(tmp_path):
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(FIG5_DIR, bundle_dir)
    return bundle_dir


@pytest.mark.parametrize("command", [["run"], ["sweep", "--executors", "1..2"], ["oracle"]],
                         ids=["run", "sweep", "oracle"])
def test_malformed_dag_json_exits_one_with_named_error(tmp_path, capsys, command):
    bundle_dir = _bundle_copy(tmp_path)
    (bundle_dir / "dag.json").write_text("{not json", encoding="utf-8")
    code = main([command[0], str(bundle_dir), "--scenario", "dependency_issue", *command[1:]])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: SchemaViolation: {bundle_dir / 'dag.json'}: /: not valid JSON")


@pytest.mark.parametrize("command", [["run"], ["sweep", "--executors", "1..2"], ["oracle"]],
                         ids=["run", "sweep", "oracle"])
def test_node_id_with_a_non_decimal_digit_runs(tmp_path, capsys, command):
    """fig5 with step1 renamed step² in dag.json and the scenario: '²' is a
    digit to str.isdigit() that int() refuses, and the commands still run."""
    bundle_dir = _bundle_copy(tmp_path)
    dag_text = serialize_dag(load_bundle(FIG5_DIR).dag)
    (bundle_dir / "dag.json").write_text(dag_text.replace("step1", "step²"), encoding="utf-8")
    scenario = (FIG5_DIR / "scenarios" / "dependency_issue.json").read_text(encoding="utf-8")
    path = tmp_path / "renamed.json"
    path.write_text(scenario.replace("step1", "step²"), encoding="utf-8")
    code = main([command[0], str(bundle_dir), "--scenario", str(path), *command[1:]])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_bad_manifest_exits_one_with_named_error(tmp_path, capsys):
    bundle_dir = _bundle_copy(tmp_path)
    (bundle_dir / "qpp.json").write_text("{not json", encoding="utf-8")
    assert main(["run", str(bundle_dir), "--scenario", "dependency_issue"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: ManifestInvalid: {bundle_dir / 'qpp.json'}: not valid JSON")

    manifest = tmp_path / "qpp.json"
    manifest.write_text(json.dumps({"tsg_id": "t", "templates": [{"name": "q"}]}), encoding="utf-8")
    assert main(["prepare", str(manifest), "q"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: ManifestInvalid: {manifest}: templates[0] must be an object with a string name and text")


def test_guide_not_utf8_exits_one_with_named_error(tmp_path, capsys):
    bundle_dir = _bundle_copy(tmp_path)
    guide = bundle_dir / "tsg.md"
    guide.write_bytes(guide.read_bytes().replace("—".encode(), b"\x97", 1))
    for argv in (["lint", str(guide)], ["extract", "dag", str(guide), "-o", str(tmp_path / "d.json")],
                 ["run", str(bundle_dir), "--scenario", "dependency_issue"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: FileNotUtf8: {guide}: not UTF-8")


def test_bundle_files_not_utf8_exit_one_naming_the_file(tmp_path, capsys):
    bundle_dir = _bundle_copy(tmp_path)
    for name in ("dag.json", "qpp.json"):
        path = bundle_dir / name
        path.write_bytes(b"{\x97}")
        assert main(["run", str(bundle_dir), "--scenario", "dependency_issue"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: FileNotUtf8: {path}: not UTF-8: invalid start byte at byte 1")
        path.unlink()

    manifest = tmp_path / "qpp.json"
    manifest.write_bytes(b"{\x97}")
    assert main(["prepare", str(manifest), "q"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: FileNotUtf8: {manifest}: not UTF-8: invalid start byte at byte 1")

    scenario = bundle_dir / "scenarios" / "dependency_issue.json"
    scenario.write_bytes(b"{\x97}")
    for name in ("dependency_issue", str(scenario)):
        assert main(["run", str(bundle_dir), "--scenario", name]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: FileNotUtf8: {scenario}: not UTF-8: invalid start byte at byte 1")


def _cli_strict_utf8(*argv: str) -> subprocess.CompletedProcess:
    """`python -m tsgflow.cli argv` with strict UTF-8 stdout and stderr."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=str(Path(tsgflow.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "tsgflow.cli", *argv], env=env,
                          capture_output=True, timeout=60)


def test_lone_surrogates_reach_stdout_as_escapes(tmp_path):
    """A `\\ud800` escape in dag.json or qpp.json decodes to a lone
    surrogate; run and prepare print it as that escape, not a traceback."""
    bundle_dir = _bundle_copy(tmp_path)
    dag_text = serialize_dag(load_bundle(bundle_dir).dag)
    (bundle_dir / "dag.json").write_text(
        dag_text.replace('"transfer to upstream team"', '"transfer \\ud800"'), encoding="utf-8")
    done = _cli_strict_utf8("run", str(bundle_dir), "--scenario", "dependency_issue")
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout)["conclusion"] == "transfer \ud800"

    manifest = tmp_path / "qpp.json"
    manifest.write_text(json.dumps({"tsg_id": "t", "templates": [
        {"name": "q", "language": "kql", "placeholders": [], "text": "where x == '\ud800'"}]}),
        encoding="utf-8")
    done = _cli_strict_utf8("prepare", str(manifest), "q")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == b"where x == '\\ud800'\n"


def test_escaped_changes_only_lone_surrogates():
    """The one rule for the CLI's output and ProcessBackend's request lines:
    text without a lone surrogate comes back as it is."""
    text = 'caf\u00e9 \u2713 \U0001f600 "\\u00e9" \\'
    assert escaped(text) == text
    assert escaped("a\ud800\\\udfff") == "a\\ud800\\\\udfff"


def test_sweep_of_scenario_with_null_incident(tmp_path, capsys):
    bundle_dir = _bundle_copy(tmp_path)
    scenario = json.loads((bundle_dir / "scenarios" / "dependency_issue.json").read_text())
    scenario["incident"] = None
    (bundle_dir / "scenarios" / "no_incident.json").write_text(json.dumps(scenario))
    report_path = tmp_path / "report.json"
    code = main(["sweep", str(bundle_dir), "--scenario", "no_incident", "--executors", "1..2",
                 "--report", str(report_path)])
    assert code == 0
    assert json.loads(report_path.read_text())["scenario_id"] == "scenario"


@pytest.mark.parametrize("argv", [["lint", str(FIG5_DIR)], ["run", str(FIG5_DIR), "--scenario", "."]],
                         ids=["lint", "run"])
def test_directory_in_place_of_a_file_exits_one(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory: ")


def test_missing_file_exits_one(tmp_path, capsys):
    path = tmp_path / "missing.md"
    assert main(["lint", str(path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{path}'\n"


@pytest.mark.parametrize("argv,message", [
    (["run", "--executors", "0"], "argument --executors: expected an integer >= 1, got '0'"),
    (["run", "--executors", "two"], "argument --executors: expected an integer >= 1, got 'two'"),
    (["run", "--retry", "-1"], "argument --retry: expected an integer >= 0, got '-1'"),
    (["sweep", "--executors", "1..2", "--retry", "-1"],
     "argument --retry: expected an integer >= 0, got '-1'"),
    (["oracle", "--retry", "-1"], "argument --retry: expected an integer >= 0, got '-1'"),
], ids=["run-executors-0", "run-executors-text", "run-retry", "sweep-retry", "oracle-retry"])
def test_out_of_range_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(FIG5_DIR), "--scenario", "dependency_issue", *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tsgflow {argv[0]}")
    assert message in err


@pytest.mark.parametrize("analyzer,message", [
    ("foo 'bar", """argument --analyzer: No closing quotation, got "foo 'bar\""""),
    (" ", "argument --analyzer: expected a command, got ' '"),
    ("", "argument --analyzer: expected a command, got ''"),
], ids=["unclosed-quote", "blank", "empty"])
def test_analyzer_that_is_no_command_is_a_usage_error(capsys, analyzer, message):
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(FIG5_DIR / "tsg.md"), "--analyzer", analyzer])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tsgflow lint")
    assert message in err


def test_walkthrough_demo_runs():
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(root / "demos" / "walkthrough.py")], env=env,
                          cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "bounds_ok=True saturation_ok=True oracle_ok=True" in done.stdout
