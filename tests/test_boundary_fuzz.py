"""Seeded mutation fuzz over every input boundary.

One fixed seed drives every case. A case takes a valid input of one kind (a
guide, dag.json, qpp.json, a scenario, a fixture index, CSV or devops.json,
an append log, a child's answer line, or CLI argv), mutates it a little and
feeds it to the entry points that read it. Two rules must hold:

  * cli.main returns 0 or 1, or argparse exits 2; it never raises;
  * a library entry point returns, or raises TsgflowError or OSError.

No process starts: child answers come from a stand-in for LineChild, and
argv never holds --analyzer. Runs use the virtual clock, so the fixtures'
latencies cost no time. Every case that breaks a rule is collected and the
test fails listing them by kind and case number.
"""

from __future__ import annotations

import copy
import importlib
import io
import json
import random
import shutil
import struct
import subprocess
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from threading import Event

from conftest import BUNDLES, FIG4_DIR
from tsgflow import backends
from tsgflow.backends import ProcessBackend, ScriptedBackend
from tsgflow.cli import main
from tsgflow.dag import load_dag, serialize_dag
from tsgflow.document import parse_tsg
from tsgflow.engine import ExecutorBackend, RunConfig, run
from tsgflow.errors import TsgflowError
from tsgflow.harness import load_bundle, load_scenario, run_scenario
from tsgflow.lint import ExternalAnalyzer
from tsgflow.memory import FileBackedStore, MemoryStore, Table, table_from_csv
from tsgflow.plugins import build_mock_registry
from tsgflow.queryprep import dump_manifest, load_manifest

SEED = 20260301
CASES = {
    "guide": 120, "dag": 100, "qpp": 60, "scenario": 140, "fixture": 150,
    "log": 120, "answer": 120, "analyzer": 60, "argv": 150,
}

# values a mutated JSON document may hold in place of a valid one
JUNK = [
    None, True, False, 0, -1, 2**70, 2.5, 1e308, float("inf"), float("nan"), "", "x", "step1",
    "end", "enable", "disable", "success", "failure", "2026-03-01T00:00:00",
    "0001-01-01T00:00:00+05:00", "\ud800", 10**400, [], [None], [[1]], {}, {"x": 1},
]
KEYS = ["x", "", "id", "steps", "attempts", "result", "nodes", "edges", "templates", "columns",
        "types", "rows", "$ts", "kind", "payload", "deployments", "code_changes"]
# text spliced into guides, CSVs and JSON text
TOKENS = [
    "", " ", "#", "# TSG: x — y", "## Step 9: x", "## Step 1: again", "## Step", "Next:",
    "- Step 2", "- Parallel: Step 2, Step 2", "- If x: Y -> Step 1; N -> Terminate(x)",
    "Terminate()", "-> Step 99", "Produces: top_exception", "Inputs: a, a", "```",
    "```kql name=x", "{", "}", "{x}", "{{", ",", '"', "\r", "\x00", "\t", ":", ";", "0", "-1",
    "1e999", "99999999999999999999999", "NaN", "null", "[", "]", "Z", "+25:00", "é", "—",
    "2026-03-01T00:00:00", "0001-01-01T00:00:00+05:00", "9" * 400, "integer", "decimal",
    "timestamp", "boolean", "text",
]


def _mutate_text(rng: random.Random, text: str) -> str:
    """One to three line edits: delete, copy, swap, replace, splice, cut."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[j])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            lines[i] = rng.choice(TOKENS)
        elif op == 4:
            a = rng.randint(0, len(lines[i]))
            b = rng.randint(a, len(lines[i]))
            lines[i] = lines[i][:a] + rng.choice(TOKENS) + lines[i][b:]
        else:
            lines = text[: rng.randint(0, len(text))].split("\n")
        text = "\n".join(lines)
    return text


def _encode(rng: random.Random, text: str) -> bytes:
    """UTF-8 bytes of `text`; one case in ten gets a byte that is not UTF-8."""
    data = text.encode("utf-8")
    if rng.random() < 0.1:
        k = rng.randint(0, len(data))
        data = data[:k] + bytes([rng.choice([0x80, 0x97, 0xC3, 0xFF])]) + data[k:]
    return data


def _slots(obj) -> list[tuple]:
    """(container, key) for every value nested in a JSON list or object."""
    found, stack = [], [obj]
    while stack:
        container = stack.pop()
        items = container.items() if isinstance(container, dict) else enumerate(container)
        for key, value in items:
            found.append((container, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return found


def _mutate_json(rng: random.Random, obj):
    """A copy of `obj` with one to three values replaced, deleted or copied."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 3)):
        slots = _slots(obj) if isinstance(obj, (dict, list)) else []
        if not slots or rng.random() < 0.03:
            return copy.deepcopy(rng.choice(JUNK))
        container, key = rng.choice(slots)
        op = rng.randrange(4)
        if op < 2:
            container[key] = copy.deepcopy(rng.choice(JUNK))
        elif op == 2:
            del container[key]
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[rng.choice(KEYS)] = copy.deepcopy(container[key])
    return obj


def _json_text(rng: random.Random, obj) -> str:
    """A mutated `obj` as JSON text; one case in five also gets text edits."""
    text = json.dumps(_mutate_json(rng, obj), indent=1)
    return _mutate_text(rng, text) if rng.random() < 0.2 else text


@contextmanager
def _replaced(path: Path, data: bytes):
    original = path.read_bytes()
    path.write_bytes(data)
    try:
        yield
    finally:
        path.write_bytes(original)


class _Check:
    """Runs entry points and collects every case that breaks a rule."""

    def __init__(self):
        self.where = ""
        self.failures: list[str] = []

    def library(self, fn, *args):
        """fn(*args), or None when it raised TsgflowError or OSError."""
        try:
            return fn(*args)
        except (TsgflowError, OSError):
            return None
        except Exception as exc:
            self.failures.append(
                f"{self.where}: {fn.__qualname__} raised {type(exc).__name__}: {exc}"[:300])
            return None

    def cli(self, argv: list[str]) -> None:
        # strict UTF-8 streams, as a terminal's are: text they cannot encode
        # (a lone surrogate) raises here as it would there
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            ok = code in (0, 1)
        except SystemExit as exc:  # argparse's usage error
            code, ok = f"SystemExit({exc.code})", exc.code == 2
        except Exception as exc:
            code, ok = f"{type(exc).__name__}: {exc}", False
        err.flush()
        if not ok or b"Traceback" in err.buffer.getvalue():
            self.failures.append(f"{self.where}: main({argv!r}) gave {code}"[:300])


class _AnsweringChild:
    """Stands in for linechild.LineChild: every request gets `answer`, and
    close() returns `code`."""

    answer: str | None = None
    code: int | None = 0

    def __init__(self, command: list[str]):
        self.command = command

    def request(self, line: str, cancel: Event | None = None) -> str | None:
        return _AnsweringChild.answer

    def close(self) -> int | None:
        return _AnsweringChild.code


def _no_process(*args, **kwargs):
    raise AssertionError("the boundary fuzz must start no process")


class _Recording(ExecutorBackend):
    def __init__(self, backend: ExecutorBackend):
        self.backend = backend
        self.contexts = []

    def execute(self, ctx):
        self.contexts.append(ctx)
        return self.backend.execute(ctx)


# -- the inputs every case starts from ----------------------------------------

class _Inputs:
    """Copies of the fixture bundles under `root`, with the documents read."""

    def __init__(self, root: Path):
        self.out = root / "out"
        self.out.mkdir()
        self.plain = {}  # bundle name -> copy as committed: tsg.md and scenarios
        self.full = {}  # bundle name -> copy with dag.json and qpp.json added
        self.bundles, self.scenarios, self.guides, self.dags, self.manifests = {}, {}, {}, {}, {}
        for src in sorted(p for p in BUNDLES.iterdir() if p.is_dir()):
            name = src.name
            self.plain[name] = shutil.copytree(src, root / "plain" / name)
            full = self.full[name] = shutil.copytree(src, root / "full" / name)
            bundle = load_bundle(src)
            (full / "dag.json").write_text(serialize_dag(bundle.dag), encoding="utf-8")
            (full / "qpp.json").write_text(
                dump_manifest(bundle.doc.tsg_id, bundle.templates), encoding="utf-8")
            self.bundles[name] = load_bundle(full)
            scenario_path = sorted((src / "scenarios").glob("*.json"))[0]
            self.scenarios[name] = (scenario_path.stem, load_scenario(src, scenario_path.stem))
            self.guides[name] = (src / "tsg.md").read_text(encoding="utf-8")
            self.dags[name] = json.loads((full / "dag.json").read_text(encoding="utf-8"))
            self.manifests[name] = json.loads((full / "qpp.json").read_text(encoding="utf-8"))
        self.names = sorted(self.full)
        self.tsg_id = load_bundle(FIG4_DIR).doc.tsg_id
        self.fixtures = self.full["availability_fig4"] / "fixtures"
        self.fixture_files = sorted(
            p for p in (self.fixtures / self.tsg_id).rglob("*") if p.is_file())
        self.index = json.loads((self.fixtures / self.tsg_id / "queries" / "index.json")
                                .read_text(encoding="utf-8"))


def _run_argv(rng: random.Random, inputs: _Inputs, name: str, root: Path, scenario: str):
    """A run, sweep or oracle command line on the virtual clock."""
    bundle = str(root)
    return rng.choice([
        ["run", bundle, "--scenario", scenario, "--executors", str(rng.randint(1, 3)),
         "--trace", str(inputs.out / "trace.jsonl")],
        ["sweep", bundle, "--scenario", scenario, "--executors", "1..3",
         "--report", str(inputs.out / "report.json")],
        ["oracle", bundle, "--scenario", scenario],
    ])


# -- one function per input kind ----------------------------------------------

def _guide_case(rng, check, inputs):
    name = rng.choice(inputs.names)
    root = inputs.plain[name]
    text = _mutate_text(rng, inputs.guides[name])
    check.library(parse_tsg, text)
    with _replaced(root / "tsg.md", _encode(rng, text)):
        bundle = check.library(load_bundle, root)
        if bundle is not None:
            check.library(run_scenario, bundle, inputs.scenarios[name][1])
        tsg = str(root / "tsg.md")
        check.cli(rng.choice([
            ["lint", tsg, "--json"],
            ["extract", "dag", tsg, "-o", str(inputs.out / "dag.json")],
            ["extract", "qpp", tsg, "-o", str(inputs.out / "qpp.json")],
            _run_argv(rng, inputs, name, root, inputs.scenarios[name][0]),
        ]))


def _dag_case(rng, check, inputs):
    name = rng.choice(inputs.names)
    root = inputs.full[name]
    text = _json_text(rng, inputs.dags[name])
    check.library(load_dag, text)
    with _replaced(root / "dag.json", _encode(rng, text)):
        bundle = check.library(load_bundle, root)
        if bundle is not None:
            check.library(run_scenario, bundle, inputs.scenarios[name][1])
        check.cli(_run_argv(rng, inputs, name, root, inputs.scenarios[name][0]))


def _qpp_case(rng, check, inputs):
    name = "availability_fig4"
    root = inputs.full[name]
    text = _json_text(rng, inputs.manifests[name])
    check.library(load_manifest, text, "qpp.json")
    with _replaced(root / "qpp.json", _encode(rng, text)):
        check.library(load_bundle, root)
        entry = rng.choice(inputs.index)
        params = [f"--param={k}={v}" for k, v in entry["bindings"].items()]
        check.cli(["prepare", str(root / "qpp.json"), entry["template"], *params])


def _scenario_case(rng, check, inputs):
    name = rng.choice(inputs.names)
    root = inputs.full[name]
    path = root / "scenarios" / "fuzz.json"
    path.write_bytes(_encode(rng, _json_text(rng, inputs.scenarios[name][1])))
    scenario = check.library(load_scenario, root, "fuzz")
    if scenario is not None:
        check.library(run_scenario, inputs.bundles[name], scenario, rng.randint(1, 3))
    check.cli(_run_argv(rng, inputs, name, root, "fuzz"))


def _plugin_calls(inputs: _Inputs) -> list[tuple[str, dict]]:
    window = {"from": "2026-03-01T00:00:00Z", "to": "2026-03-01T09:00:00Z"}
    return [
        *(("log_query", {"query": "", "template": e["template"], "bindings": e["bindings"]})
          for e in inputs.index),
        ("metric_fetch", {"metric": "availability_web", **window}),
        ("metric_fetch", {"metric": "availability_upstream", **window}),
        ("devops_deployments", window),
        ("devops_code_changes", {"deployment_id": "dep-2026-03-01-a"}),
        ("analysis.aggregate", {"key": "plugin.log_query.1#Count", "op": "top_k", "k": 2}),
        ("analysis.aggregate", {"key": "plugin.log_query.1#Count", "op": "mean"}),
        ("analysis.aggregate", {"key": "plugin.metric_fetch.1#value", "op": "mean"}),
        ("analysis.pearson", {"key_x": "plugin.metric_fetch.1", "key_y": "plugin.metric_fetch.2"}),
    ]


def _fixture_case(rng, check, inputs):
    path = rng.choice(inputs.fixture_files)
    original = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        text = _json_text(rng, json.loads(original))
    else:
        text = _mutate_text(rng, original)
        check.library(table_from_csv, text)
    calls = _plugin_calls(inputs)
    if rng.random() < 0.3:  # a mutated argument list too
        k = rng.randrange(len(calls))
        args = _mutate_json(rng, calls[k][1])
        calls[k] = (calls[k][0], args if isinstance(args, dict) else {"x": args})
    with _replaced(path, _encode(rng, text)):
        registry = build_mock_registry(inputs.fixtures, inputs.tsg_id)
        store = MemoryStore()
        for plugin, args in calls:
            check.library(registry.invoke, plugin, args, store)


_LOG_VALUES = {
    "count": 3,
    "name": "DbConnectionTimeout",
    "series": [99.9, 98.5, 97],
    "record": {"when": datetime(2026, 3, 1, 2, 40, tzinfo=timezone.utc), "ok": True},
    "table": Table(["ts", "value"], ["timestamp", "decimal"],
                   [[datetime(2026, 3, 1, tzinfo=timezone.utc), 99.9]]),
}


def _log_case(rng, check, inputs, records: list[dict]):
    if rng.random() < 0.5:  # bytes of a whole log, edited
        data = bytearray(b"".join(struct.pack(">I", len(r)) + r for r in map(_log_bytes, records)))
        for _ in range(rng.randint(1, 3)):
            if not data:
                break
            k = rng.randrange(len(data))
            op = rng.randrange(4)
            if op == 0:
                data[k] = rng.randrange(256)
            elif op == 1:
                del data[k : k + rng.randint(1, 8)]
            elif op == 2:
                data[k:k] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
            else:
                del data[k:]
    else:  # one record's key or value replaced, the length headers kept right
        records = copy.deepcopy(records)
        i = rng.randrange(len(records))
        if rng.random() < 0.3:
            records[i] = _mutate_json(rng, records[i])
        else:
            records[i]["value"] = json.dumps(_mutate_json(rng, json.loads(records[i]["value"])))
        data = b"".join(struct.pack(">I", len(r)) + r for r in map(_log_bytes, records))
    path = inputs.out / "memory.log"
    path.write_bytes(bytes(data))
    store = check.library(FileBackedStore, path)
    if store is not None:
        for key in check.library(store.keys) or ():
            check.library(store.get, key)
        check.library(store.put, "after", 1)
        check.library(FileBackedStore, path)


def _log_bytes(record) -> bytes:
    return json.dumps(record).encode("utf-8")


def _answer_case(rng, check, inputs, contexts):
    ctx = replace(rng.choice(contexts), cancel=Event())
    decisions = {e["id"]: "enable" for e in ctx.outgoing_edges}
    answer = {
        "result": "success", "summary": "ok", "edge_decisions": decisions, "error": "",
        "duration": 1.5,
        "memory_writes": {
            "count": 3,
            "table": {"columns": ["ts", "value"], "types": ["timestamp", "decimal"],
                      "rows": [["2026-03-01T00:00:00Z", 99.9]]},
        },
    }
    _AnsweringChild.answer = rng.choice([None, "", _json_text(rng, answer)])
    check.library(ProcessBackend(["child"]).execute, ctx)


def _analyzer_case(rng, check, inputs):
    name = rng.choice(inputs.names)
    doc = inputs.bundles[name].doc
    findings = [{"rule": "CP-X", "line": 3, "message": "vague step", "severity": "warning"},
                {"rule": "CP-Y", "line": 9, "message": "no owner", "severity": "error"}]
    _AnsweringChild.answer = rng.choice([None, "", _json_text(rng, findings)])
    _AnsweringChild.code = rng.choice([0, 0, 0, 1, None])
    check.library(ExternalAnalyzer(["analyzer"]).findings, doc)


def _argv_templates(inputs: _Inputs) -> list[list[str]]:
    fig4, fig5 = inputs.full["availability_fig4"], inputs.full["availability_fig5"]
    entry = inputs.index[0]
    return [
        ["lint", str(fig5 / "tsg.md"), "--json"],
        ["extract", "dag", str(fig4 / "tsg.md"), "-o", str(inputs.out / "dag.json")],
        ["extract", "qpp", str(fig4 / "tsg.md"), "-o", str(inputs.out / "qpp.json")],
        ["prepare", str(fig4 / "qpp.json"), entry["template"],
         *(x for k, v in entry["bindings"].items() for x in ("--param", f"{k}={v}"))],
        ["run", str(fig5), "--scenario", "dependency_issue", "--executors", "2",
         "--mode", "virtual", "--retry", "1", "--trace", str(inputs.out / "trace.jsonl")],
        ["sweep", str(fig5), "--scenario", "dependency_issue", "--executors", "1..3",
         "--report", str(inputs.out / "report.json"), "--baseline", str(fig4)],
        ["oracle", str(fig4), "--scenario", "dependency_issue", "--retry", "2"],
    ]


def _argv_case(rng, check, inputs, templates, vocabulary, pristine):
    argv = list(rng.choice(templates))
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(argv))
        op = rng.randrange(5)
        if op == 0:
            del argv[i]
        elif op == 1:
            argv.insert(i, argv[rng.randrange(len(argv))])
        elif op == 2:
            j = rng.randrange(len(argv))
            argv[i], argv[j] = argv[j], argv[i]
        elif op == 3:
            argv[i] = rng.choice(vocabulary)
        else:
            argv.insert(i, rng.choice(vocabulary))
        if not argv:
            break
    check.cli(argv)
    for path, data in pristine.items():  # an output path may have landed on an input
        path.write_bytes(data)


def test_every_boundary_fails_by_name(tmp_path, monkeypatch):
    monkeypatch.setattr(subprocess, "Popen", _no_process)
    # the package exports a lint() function under the module's name
    monkeypatch.setattr(importlib.import_module("tsgflow.lint"), "LineChild", _AnsweringChild)
    monkeypatch.setattr(backends, "LineChild", _AnsweringChild)
    monkeypatch.chdir(tmp_path)
    inputs = _Inputs(tmp_path)
    rng = random.Random(SEED)
    check = _Check()

    store = FileBackedStore(inputs.out / "pristine.log")
    for key, value in _LOG_VALUES.items():
        store.put(key, value)
    raw = (inputs.out / "pristine.log").read_bytes()
    records, offset = [], 0
    while offset < len(raw):
        (length,) = struct.unpack(">I", raw[offset : offset + 4])
        records.append(json.loads(raw[offset + 4 : offset + 4 + length]))
        offset += 4 + length

    recording = _Recording(ScriptedBackend.from_scenario(inputs.scenarios["availability_fig4"][1]))
    run(inputs.bundles["availability_fig4"], recording, RunConfig(max_executors=2))
    contexts = recording.contexts

    templates = _argv_templates(inputs)
    vocabulary = sorted({token for argv in templates for token in argv}) + [
        "-1", "0", "1", "3", "1..2", "3..1", "1..", "x", "", "--", "--param", "k", "=v",
        "--json", "--bogus"]
    pristine = {p: p.read_bytes() for p in (tmp_path / "full").rglob("*") if p.is_file()}

    kinds = {
        "guide": lambda: _guide_case(rng, check, inputs),
        "dag": lambda: _dag_case(rng, check, inputs),
        "qpp": lambda: _qpp_case(rng, check, inputs),
        "scenario": lambda: _scenario_case(rng, check, inputs),
        "fixture": lambda: _fixture_case(rng, check, inputs),
        "log": lambda: _log_case(rng, check, inputs, records),
        "answer": lambda: _answer_case(rng, check, inputs, contexts),
        "analyzer": lambda: _analyzer_case(rng, check, inputs),
        "argv": lambda: _argv_case(rng, check, inputs, templates, vocabulary, pristine),
    }
    for kind, count in CASES.items():
        for n in range(count):
            check.where = f"{kind} case {n}"
            kinds[kind]()
    assert not check.failures, "\n".join(check.failures)
