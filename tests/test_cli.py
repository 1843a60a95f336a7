from __future__ import annotations

import json
import shutil

import pytest

from conftest import FIG4_DIR, FIG5_DIR
from corpus import build_lint_corpus
from tsgflow.cli import main


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


def test_oracle_command(capsys):
    code = main(["oracle", str(FIG5_DIR), "--scenario", "dependency_issue"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"critical_path_to_conclusion": 22, "serial_sum": 35, "width": 3}


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing required arguments
    assert exc.value.code == 2


def test_bad_executor_range_is_a_usage_error(capsys):
    for bad in ("x..3", "3..1", "2..", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(FIG5_DIR), "--scenario", "dependency_issue", "--executors", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tsgflow sweep")
        assert f"argument --executors: expected K or A..B with integers A <= B, got {bad!r}" in err


@pytest.mark.parametrize("command", [["run"], ["sweep", "--executors", "1..2"], ["oracle"]],
                         ids=["run", "sweep", "oracle"])
@pytest.mark.parametrize("text,message", [
    ("{not json", "not valid JSON"),
    ('{"steps": 5}', "steps must map node ids to attempts"),
    ('[1, 2]', "top level must be a JSON object"),
    ('{"steps": {"step1": {"attempts": [{"latency": "slow"}]}}}',
     "steps.step1.attempts[0].latency must be a number >= 0"),
    ('{"incident": "INC-1", "steps": {}}', "incident must be an object"),
], ids=["bad-json", "steps-not-object", "top-level-list", "latency-text", "incident-text"])
def test_bad_scenario_exits_one_with_named_error(tmp_path, capsys, command, text, message):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    code = main([command[0], str(FIG5_DIR), "--scenario", str(path), *command[1:]])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: ScenarioInvalid: scenario {path}: {message}")


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
    assert capsys.readouterr().err.startswith("error: SchemaViolation: /: not valid JSON")


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
        assert capsys.readouterr().err.startswith(f"error: GuideNotUtf8: {guide}: not UTF-8")


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
