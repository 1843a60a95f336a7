from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

import pytest

from conftest import FIG4_DIR
from corpus import build_lint_corpus
from tsgflow import linechild
from tsgflow.cli import main
from tsgflow.document import parse_tsg
from tsgflow.lint import (
    AnalyzerFailed,
    ExternalAnalyzer,
    LintFinding,
    ManifestMissing,
    evaluate_lint,
    findings_to_json,
    lint,
)

ANALYZER = Path(__file__).parent / "fixtures" / "loopback_analyzer.py"


def rules_of(findings):
    return [(f.rule, f.line) for f in findings]


def test_clean_fixture_documents_have_no_findings(fig4_bundle, fig5_bundle, triple_bundle):
    for bundle in (fig4_bundle, fig5_bundle, triple_bundle):
        assert lint(bundle.doc) == []


def test_hardcoded_time_rule():
    text = """# TSG: di — Hardcoded time
Inputs: service

## Step 1: Probe
```kql name=q1
ServiceLogs
| where TIMESTAMP > datetime(2024-01-01)
| where ServiceName == '{service}'
```
Terminate: done
"""
    findings = lint(parse_tsg(text))
    assert rules_of(findings) == [("DI-HARDCODED-TIME", 7)]
    assert findings[0].severity == "warning"
    assert findings[0].category == "DI"


def test_hardcoded_time_skips_lines_with_placeholders():
    text = """# TSG: di2 — Placeholder on line
Inputs: start_time

## Step 1: Probe
```kql name=q1
ServiceLogs
| where TIMESTAMP > datetime({start_time})
| where IngestTime > ago(5m)
```
Terminate: done
"""
    findings = lint(parse_tsg(text))
    assert rules_of(findings) == [("DI-HARDCODED-TIME", 8)]


def test_unknown_input_rule():
    text = """# TSG: df — Unknown input
Inputs: service

## Step 1: Probe
```kql name=q1
ServiceLogs
| where ClusterId == '{cluster}'
```
Terminate: done
"""
    findings = lint(parse_tsg(text))
    assert rules_of(findings) == [("DF-INPUT-UNKNOWN", 7)]
    assert findings[0].severity == "error"


def test_produces_feed_later_steps():
    text = """# TSG: df2 — Produced input
Inputs: service

## Step 1: Find id
Produces: probe_id
Next:
- Step 2

## Step 2: Use id
```kql name=q2
ServiceLogs
| where ProbeId == '{probe_id}'
```
Terminate: done
"""
    assert lint(parse_tsg(text)) == []


def test_own_produces_do_not_count():
    text = """# TSG: df3 — Own produces
Inputs: service

## Step 1: Use own output
Produces: probe_id
```kql name=q1
ServiceLogs
| where ProbeId == '{probe_id}'
```
Terminate: done
"""
    findings = lint(parse_tsg(text))
    assert [f.rule for f in findings] == ["DF-INPUT-UNKNOWN"]


def test_termination_rules_split_by_position():
    text = """# TSG: cf — Missing continuations

## Step 1: No continuation mid-document
Just prose.

## Step 2: Fine
Next:
- Step 3

## Step 3: Last and unmarked
Also just prose.
"""
    findings = lint(parse_tsg(text))
    assert rules_of(findings) == [
        ("CF-NEXT-MISSING", 3),
        ("PS-TERMINATION-UNMARKED", 10),
    ]


def test_unquantified_condition_rule():
    text = """# TSG: cp — Vague condition

## Step 1: Check load
Next:
- If the error rate is high: Y -> Terminate(saturated); N -> Step 2

## Step 2: Check again
Next:
- If the error rate is above 0.5 percent: Y -> Terminate(bad); N -> Terminate(fine)
"""
    findings = lint(parse_tsg(text))
    assert rules_of(findings) == [("CP-UNQUANTIFIED", 5)]


def test_parse_diagnostics_become_ps_findings():
    text = """# TSG: ps — Parse problems

## Step 1: Fine
Next:
- Leap before looking
- Step 2

## Step 2: End
Terminate: over
"""
    findings = lint(parse_tsg(text))
    assert [f.rule for f in findings] == ["PS-PARSE"]
    assert findings[0].line == 5


def test_render_format():
    finding = LintFinding("DI-HARDCODED-TIME", "DI", 7, "msg", "warning")
    assert finding.render("guide.md") == "guide.md:7: DI-HARDCODED-TIME [DI/warning] msg"
    parsed = json.loads(findings_to_json([finding]))
    assert parsed == [{"rule": "DI-HARDCODED-TIME", "category": "DI", "line": 7,
                       "message": "msg", "severity": "warning"}]


def test_findings_sorted_by_line_then_rule():
    corpus = build_lint_corpus()
    for doc_spec in corpus:
        findings = lint(parse_tsg(doc_spec.text))
        assert findings == sorted(findings, key=lambda f: (f.line, f.rule))


def write_corpus(tmp_path: Path) -> Path:
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for doc_spec in build_lint_corpus():
        (corpus_dir / f"{doc_spec.name}.md").write_text(doc_spec.text, encoding="utf-8")
        (corpus_dir / f"{doc_spec.name}.manifest.json").write_text(
            json.dumps(doc_spec.manifest, indent=2), encoding="utf-8"
        )
    return corpus_dir


def test_evaluate_lint_perfect_on_seeded_corpus(tmp_path):
    corpus_dir = write_corpus(tmp_path)
    evaluation = evaluate_lint(corpus_dir)
    assert evaluation.documents >= 10
    assert evaluation.seeded >= 30
    assert evaluation.aggregate.precision == 1.0
    assert evaluation.aggregate.recall == 1.0
    assert evaluation.aggregate.f1 == 1.0
    for metrics in evaluation.per_category.values():
        assert metrics.precision == 1.0
        assert metrics.recall == 1.0


def test_evaluate_lint_window(tmp_path):
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    doc_spec = build_lint_corpus()[1]  # has a DF seed
    (corpus_dir / "d.md").write_text(doc_spec.text, encoding="utf-8")
    shifted = [dict(m, line=m["line"] + 100) for m in doc_spec.manifest]
    (corpus_dir / "d.manifest.json").write_text(json.dumps(shifted), encoding="utf-8")
    evaluation = evaluate_lint(corpus_dir)
    assert evaluation.aggregate.tp == 0
    assert evaluation.aggregate.fn == len(shifted)
    assert evaluation.aggregate.fp == len(doc_spec.manifest)
    assert evaluation.aggregate.precision == 0.0
    assert evaluation.aggregate.recall == 0.0


def test_evaluate_lint_near_window_matches(tmp_path):
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    doc_spec = build_lint_corpus()[0]
    (corpus_dir / "d.md").write_text(doc_spec.text, encoding="utf-8")
    nudged = [dict(m, line=m["line"] + 5) for m in doc_spec.manifest]  # still inside +/-5
    (corpus_dir / "d.manifest.json").write_text(json.dumps(nudged), encoding="utf-8")
    evaluation = evaluate_lint(corpus_dir)
    assert evaluation.aggregate.recall == 1.0


def test_evaluate_lint_empty_corpus_reports_nulls(tmp_path):
    evaluation = evaluate_lint(tmp_path)
    assert evaluation.documents == 0
    assert evaluation.aggregate.precision is None
    assert evaluation.aggregate.recall is None
    assert evaluation.aggregate.f1 is None


def test_evaluate_lint_missing_manifest(tmp_path):
    (tmp_path / "doc.md").write_text("# TSG: x — y\n\n## Step 1: A\nTerminate: z\n")
    with pytest.raises(ManifestMissing):
        evaluate_lint(tmp_path)


def test_external_analyzer_hook(fig4_bundle):
    analyzer = ExternalAnalyzer([sys.executable, str(ANALYZER)])
    findings = lint(fig4_bundle.doc, analyzer=analyzer)
    assert [f.rule for f in findings] == ["CP-ACTION-VAGUE"]
    assert findings[0].category == "CP"
    assert "availability-drop" in findings[0].message


def _child_printing(stdout: str | None) -> list[str]:
    """A child that reads one request and prints `stdout`, or never answers
    when it is None."""
    if stdout is None:
        code = "import sys, time; sys.stdin.readline(); time.sleep(60)"
    else:
        code = f"import sys; sys.stdin.readline(); sys.stdout.write({stdout!r})"
    return [sys.executable, "-c", code]


def _short_deadline(monkeypatch) -> str:
    """Cut the request deadline to 0.5 s; returns the timeout text it gives."""
    monkeypatch.setattr(linechild, "REQUEST_TIMEOUT_S", 0.5)
    return "timed out after 0.5 s"


@pytest.mark.parametrize(
    "stdout, message",
    [
        (None, "timed out after 60 s"),
        ("not json\n", "not JSON"),
        ('{"rule": "CP-X"}\n[]\n', "not a list"),
        ('"findings"\n', "not a list"),
        ("[1]\n", "finding is malformed"),
        ('[{"line": "seven"}]\n', "finding is malformed"),
    ],
)
def test_external_analyzer_failures_are_named(monkeypatch, fig4_bundle, stdout, message):
    if stdout is None:  # the 60 s text, under a deadline a test can wait for
        message = _short_deadline(monkeypatch)
    with pytest.raises(AnalyzerFailed, match=message):
        lint(fig4_bundle.doc, analyzer=ExternalAnalyzer(_child_printing(stdout)))


def test_external_analyzer_quiet_child_adds_nothing(fig4_bundle):
    assert lint(fig4_bundle.doc, analyzer=ExternalAnalyzer(_child_printing("\n"))) == []
    failing = [sys.executable, "-c", "import sys; sys.stdin.readline(); print('[1]'); sys.exit(3)"]
    assert lint(fig4_bundle.doc, analyzer=ExternalAnalyzer(failing)) == []


def test_cli_lint_analyzer(monkeypatch, capsys):
    tsg = str(FIG4_DIR / "tsg.md")
    command = shlex.join([sys.executable, str(ANALYZER)])
    assert main(["lint", tsg, "--analyzer", command]) == 0
    assert "CP-ACTION-VAGUE [CP/warning]" in capsys.readouterr().out

    _short_deadline(monkeypatch)
    commands = [_child_printing(stdout) for stdout in (None, "not json\n", "{}\n")]
    for command in commands + [["/does/not/exist"]]:
        assert main(["lint", tsg, "--analyzer", shlex.join(command)]) == 1
        assert capsys.readouterr().err.startswith("error: AnalyzerFailed: analyzer ")
