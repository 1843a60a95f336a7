"""Every JSON reader names input that json.loads cannot decode.

json.loads raises RecursionError for nesting deeper than the recursion
limit, and a plain ValueError (not a JSONDecodeError) for an integer longer
than sys.get_int_max_str_digits(). Each reader must turn both into its own
named failure, with the message prefix it gives any other text that is not
JSON, and the CLI must print that as one `error: <Name>: ...` line.

The long integer stands where a schema error follows anyway, so that a
Python without the digit limit (3.10) still sees a named failure.
"""

from __future__ import annotations

import importlib
import shutil
import struct
import sys
from threading import Event

import pytest

from conftest import FIG5_DIR
from tsgflow import backends
from tsgflow.backends import ProcessBackend
from tsgflow.cli import main
from tsgflow.dag import SchemaViolation, load_dag
from tsgflow.document import parse_tsg
from tsgflow.engine import StepContext
from tsgflow.lint import AnalyzerFailed, ExternalAnalyzer, ManifestUnreadable, evaluate_lint
from tsgflow.memory import CorruptLog, FileBackedStore
from tsgflow.plugins import FixtureSet, PluginFailure
from tsgflow.queryprep import ManifestInvalid, load_manifest
from tsgflow.scenario import ScenarioInvalid, read_scenario

PAYLOADS = {"deep-array": "[" * 100000, "long-integer": "9" * 5000}
HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")
GUIDE = FIG5_DIR / "tsg.md"


class _AnsweringChild:
    """Stands in for linechild.LineChild: every request gets `answer`."""

    answer = ""

    def __init__(self, command):
        pass

    def request(self, line, cancel=None):
        return _AnsweringChild.answer

    def close(self):
        return 0


# Each reader takes (tmp_path, text), feeds `text` to one JSON reader and
# returns the message of the named failure and the prefix it must start with.

def _load_dag(tmp_path, text):
    with pytest.raises(SchemaViolation) as info:
        load_dag(text)
    return str(info.value), "/: not valid JSON: "


def _load_manifest(tmp_path, text):
    with pytest.raises(ManifestInvalid) as info:
        load_manifest(text, "qpp.json")
    return str(info.value), "qpp.json: not valid JSON: "


def _read_scenario(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioInvalid) as info:
        read_scenario(path)
    return str(info.value), f"scenario {path}: not valid JSON: "


def _fixture_index(tmp_path, text):
    path = tmp_path / "t" / "queries" / "index.json"
    path.parent.mkdir(parents=True)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PluginFailure) as info:
        FixtureSet(tmp_path, "t").query_table("q", None, None)
    return str(info.value), f"{path}: not a UTF-8 JSON file: "


def _log_record(tmp_path, text):
    path = tmp_path / "memory.log"
    data = text.encode("utf-8")
    path.write_bytes(struct.pack(">I", len(data)) + data)
    with pytest.raises(CorruptLog) as info:
        FileBackedStore(path)
    return str(info.value), f"{path}: record at byte 0: "


def _log_value(tmp_path, text):
    return _log_record(tmp_path, '{"key": "k", "value": "%s"}' % text)


def _analyzer_answer(tmp_path, text):
    _AnsweringChild.answer = text
    with pytest.raises(AnalyzerFailed) as info:
        ExternalAnalyzer(["analyzer"]).findings(parse_tsg(GUIDE.read_text(encoding="utf-8")))
    return str(info.value), "analyzer answer is not "


def _seeded_manifest(tmp_path, text):
    if text.isdecimal() and not HAS_DIGIT_LIMIT:
        pytest.skip("without a digit limit the integer decodes, and no schema check follows")
    shutil.copyfile(GUIDE, tmp_path / "d.md")
    path = tmp_path / "d.manifest.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ManifestUnreadable) as info:
        evaluate_lint(tmp_path)
    return str(info.value), f"{path}: not valid JSON: "


def _process_answer(tmp_path, text):
    _AnsweringChild.answer = text
    ctx = StepContext(
        run_id="r", node_id="step1", step_id="1", step_title="", step_text="",
        incident={}, outgoing_edges=[], history=[], plugins=[], templates=[],
        memory_refs=[], attempt=1, cancel=Event(),
    )
    outcome = ProcessBackend(["child"]).execute(ctx)
    assert outcome.result == "failure"
    return outcome.error, "bad outcome line: "


READERS = [_load_dag, _load_manifest, _read_scenario, _fixture_index, _log_record, _log_value,
           _analyzer_answer, _seeded_manifest, _process_answer]


@pytest.mark.parametrize("payload", PAYLOADS)
@pytest.mark.parametrize("reader", READERS, ids=lambda f: f.__name__.lstrip("_"))
def test_reader_names_json_that_does_not_decode(tmp_path, monkeypatch, reader, payload):
    monkeypatch.setattr(importlib.import_module("tsgflow.lint"), "LineChild", _AnsweringChild)
    monkeypatch.setattr(backends, "LineChild", _AnsweringChild)
    message, prefix = reader(tmp_path, PAYLOADS[payload])
    if payload == "deep-array" or HAS_DIGIT_LIMIT:
        assert message.startswith(prefix), message[:300]
    if payload == "deep-array" and reader is not _analyzer_answer:
        assert "maximum recursion depth exceeded" in message, message[:300]


def _bundle(tmp_path):
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(FIG5_DIR, bundle_dir)
    return bundle_dir


def _run_with(name):
    def argv(tmp_path, text):
        bundle_dir = _bundle(tmp_path)
        (bundle_dir / name).write_text(text, encoding="utf-8")
        return ["run", str(bundle_dir), "--scenario", "dependency_issue"]
    return argv


def _run_with_scenario(tmp_path, text):
    path = tmp_path / "scenario.json"
    path.write_text(text, encoding="utf-8")
    return ["run", str(FIG5_DIR), "--scenario", str(path)]


def _prepare(tmp_path, text):
    path = tmp_path / "qpp.json"
    path.write_text(text, encoding="utf-8")
    return ["prepare", str(path), "q"]


def _lint_analyzer(tmp_path, text):
    """One child process that answers `text` and exits 0."""
    answer = tmp_path / "answer.txt"
    answer.write_text(text + "\n", encoding="utf-8")
    code = "import sys; sys.stdin.readline(); sys.stdout.write(open(sys.argv[1]).read())"
    return ["lint", str(GUIDE), "--analyzer",
            f"{sys.executable} -c '{code}' {answer}"]


@pytest.mark.parametrize("payload", PAYLOADS)
@pytest.mark.parametrize("argv,error", [
    (_run_with("dag.json"), "SchemaViolation"),
    (_run_with("qpp.json"), "ManifestInvalid"),
    (_run_with_scenario, "ScenarioInvalid"),
    (_prepare, "ManifestInvalid"),
    (_lint_analyzer, "AnalyzerFailed"),
], ids=["run-dag", "run-qpp", "run-scenario", "prepare", "lint-analyzer"])
def test_cli_reports_json_that_does_not_decode_in_one_line(tmp_path, capsys, argv, error, payload):
    assert main(argv(tmp_path, PAYLOADS[payload])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1, err[:300]
    assert "Traceback" not in err
