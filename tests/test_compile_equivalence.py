"""The offline compile layers against plain reference forms.

serialize_dag, _find_cycle and parse_tsg have fast forms whose output must
not differ from the straightforward code they replaced. That code is kept
here as the reference: json.dumps for the DAG text, the sorted depth-first
search for cycles, and parse_tsg with its first-character dispatch turned
off. load_dag's errors are pinned in a table of (document -> message).
"""

from __future__ import annotations

import copy
import inspect
import json
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import build_lint_corpus, build_qpp_corpus
from randdag import random_scripted_dag
from tsgflow import document
from tsgflow.dag import (
    END,
    START,
    DagEdge,
    DagError,
    DagNode,
    EdgeCondition,
    ExecutionDag,
    SchemaViolation,
    _edge_index,
    _find_cycle,
    compile_dag,
    edge_id,
    extract_dag,
    load_dag,
    node_sort_key,
    serialize_dag,
    structurally_equal,
)
from tsgflow.document import TsgParseError, parse_tsg

BUNDLES = Path(__file__).parent / "fixtures" / "bundles"


# -- serialize_dag -------------------------------------------------------------------


def reference_serialize(dag: ExecutionDag) -> str:
    def node_obj(n):
        return {"id": n.id, "kind": n.kind, "description": n.description, "step_ref": n.step_ref}

    def edge_obj(e):
        condition = None
        if e.condition is not None:
            condition = {"question": e.condition.question, "label": e.condition.label}
        return {"id": e.id, "from": e.source, "to": e.target, "condition": condition,
                "conclusion": e.conclusion}

    obj = {
        "tsg_id": dag.tsg_id,
        "nodes": [node_obj(n) for n in sorted(dag.nodes, key=lambda n: n.id)],
        "edges": [edge_obj(e) for e in sorted(dag.edges, key=lambda e: e.id)],
    }
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# Quotes, backslashes, every control character, DEL, line and paragraph
# separators, a lone surrogate and non-ASCII text from several planes.
_AWKWARD = '"\\/' + "".join(map(chr, range(0x20))) + "\x7f  \ud800é中😀 aZ9"
texts = st.text(st.sampled_from(_AWKWARD) | st.characters(), max_size=8)
optional_texts = st.none() | texts

nodes = st.builds(DagNode, texts, texts, texts, optional_texts)
conditions = st.none() | st.builds(EdgeCondition, texts, texts)
edges = st.builds(DagEdge, texts, texts, texts, conditions, optional_texts)
dags = st.builds(ExecutionDag, texts, st.lists(nodes, max_size=4), st.lists(edges, max_size=4))


@settings(max_examples=100, deadline=None)
@given(dags)
def test_serialize_matches_json_dumps(dag):
    assert serialize_dag(dag) == reference_serialize(dag)


def test_serialize_empty_lists_and_nulls():
    dag = ExecutionDag("t", [DagNode("n", "step", "", None)], [])
    assert serialize_dag(dag) == reference_serialize(dag)
    assert '"edges": []\n}' in serialize_dag(dag)
    assert '"step_ref": null' in serialize_dag(dag)
    empty = ExecutionDag("", [], [])
    assert serialize_dag(empty) == reference_serialize(empty) == (
        '{\n  "tsg_id": "",\n  "nodes": [],\n  "edges": []\n}\n'
    )


def test_serialize_matches_on_fixtures_and_random_dags():
    dags = [extract_dag(parse_tsg((p / "tsg.md").read_text(encoding="utf-8")))
            for p in sorted(BUNDLES.iterdir())]
    rng = random.Random(5)
    dags += [random_scripted_dag(rng) for _ in range(200)]
    for dag in dags:
        assert serialize_dag(dag) == reference_serialize(dag)


loadable_dags = st.builds(
    ExecutionDag,
    texts,
    st.lists(st.builds(DagNode, texts.filter(bool), st.sampled_from(["start", "step", "end"]),
                       texts, optional_texts), min_size=1, max_size=4),
    st.lists(st.builds(DagEdge, texts.filter(bool), texts.filter(bool), texts.filter(bool),
                       st.none() | st.builds(EdgeCondition, texts, st.sampled_from("YN")),
                       optional_texts), max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(loadable_dags)
def test_load_reads_back_what_serialize_writes(dag):
    assert structurally_equal(load_dag(serialize_dag(dag)), dag)


# -- load_dag errors -----------------------------------------------------------------

_BASE_DOC = {
    "tsg_id": "t",
    "nodes": [
        {"id": "start", "kind": "start", "description": "run start", "step_ref": None},
        {"id": "step1", "kind": "step", "description": "probe", "step_ref": "1"},
        {"id": "end", "kind": "end", "description": "run end", "step_ref": None},
    ],
    "edges": [
        {"id": "edge_start_step1", "from": "start", "to": "step1", "condition": None,
         "conclusion": None},
        {"id": "edge_step1_end", "from": "step1", "to": "end",
         "condition": {"question": "is it up", "label": "Y"}, "conclusion": "done"},
    ],
}
_DELETE = object()
_BAD_VALUES = {"missing": _DELETE, "null": None, "int": 1, "empty": "", "list": [], "dict": {},
               "true": True, "word": "bogus"}


def _mutated(path, value) -> dict:
    doc = copy.deepcopy(_BASE_DOC)
    *parents, last = path
    target = doc
    for p in parents:
        target = target[p]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def _load_cases() -> dict[str, str]:
    """Name -> document: one field of the base document replaced at a time,
    plus documents with two faults, where the first in check order wins."""
    out = {"not-json": "{", "top-list": "[]", "top-null": "null"}
    for field in ("tsg_id", "nodes", "edges"):
        for name, value in _BAD_VALUES.items():
            out[f"{field}={name}"] = json.dumps(_mutated((field,), value))
    for name, value in _BAD_VALUES.items():
        out[f"nodes/1={name}"] = json.dumps(_mutated(("nodes", 1), value))
        out[f"edges/1={name}"] = json.dumps(_mutated(("edges", 1), value))
        for field in ("id", "kind", "description", "step_ref"):
            out[f"nodes/1/{field}={name}"] = json.dumps(_mutated(("nodes", 1, field), value))
        for field in ("id", "from", "to", "condition", "conclusion"):
            out[f"edges/1/{field}={name}"] = json.dumps(_mutated(("edges", 1, field), value))
        for field in ("question", "label"):
            out[f"edges/1/condition/{field}={name}"] = json.dumps(
                _mutated(("edges", 1, "condition", field), value)
            )
    two = _mutated(("nodes", 2, "kind"), "middle")
    two["nodes"][2]["id"] = 7
    out["nodes/2 id and kind"] = json.dumps(two)
    two = _mutated(("edges", 0, "to"), "")
    two["edges"][0]["condition"] = {"label": "Y"}
    out["edges/0 to and condition"] = json.dumps(two)
    two = _mutated(("edges", 0, "conclusion"), 3)
    two["nodes"][0]["description"] = None
    out["nodes before edges"] = json.dumps(two)
    out["edges/1/condition/label=y"] = json.dumps(_mutated(("edges", 1, "condition", "label"), "y"))
    return out


# The message load_dag raised for each case before the combined type test
# (None: the document loads).
_PINNED_ERRORS = {
    "not-json": "/: not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    "top-list": "/: document must be an object",
    "top-null": "/: document must be an object",
    "tsg_id=missing": "/tsg_id: required string",
    "tsg_id=null": "/tsg_id: required string",
    "tsg_id=int": "/tsg_id: required string",
    "tsg_id=empty": None,
    "tsg_id=list": "/tsg_id: required string",
    "tsg_id=dict": "/tsg_id: required string",
    "tsg_id=true": "/tsg_id: required string",
    "tsg_id=word": None,
    "nodes=missing": "/nodes: required non-empty array",
    "nodes=null": "/nodes: required non-empty array",
    "nodes=int": "/nodes: required non-empty array",
    "nodes=empty": "/nodes: required non-empty array",
    "nodes=list": "/nodes: required non-empty array",
    "nodes=dict": "/nodes: required non-empty array",
    "nodes=true": "/nodes: required non-empty array",
    "nodes=word": "/nodes: required non-empty array",
    "edges=missing": "/edges: required array",
    "edges=null": "/edges: required array",
    "edges=int": "/edges: required array",
    "edges=empty": "/edges: required array",
    "edges=list": None,
    "edges=dict": "/edges: required array",
    "edges=true": "/edges: required array",
    "edges=word": "/edges: required array",
    "nodes/1=missing": None,
    "edges/1=missing": None,
    "nodes/1/id=missing": "/nodes/1/id: required string",
    "nodes/1/kind=missing": "/nodes/1/kind: must be start|step|end",
    "nodes/1/description=missing": "/nodes/1/description: required string",
    "nodes/1/step_ref=missing": None,
    "edges/1/id=missing": "/edges/1/id: required string",
    "edges/1/from=missing": "/edges/1/from: required string",
    "edges/1/to=missing": "/edges/1/to: required string",
    "edges/1/condition=missing": None,
    "edges/1/conclusion=missing": None,
    "edges/1/condition/question=missing": "/edges/1/condition/question: required string",
    "edges/1/condition/label=missing": "/edges/1/condition/label: must be Y or N",
    "nodes/1=null": "/nodes/1: must be an object",
    "edges/1=null": "/edges/1: must be an object",
    "nodes/1/id=null": "/nodes/1/id: required string",
    "nodes/1/kind=null": "/nodes/1/kind: must be start|step|end",
    "nodes/1/description=null": "/nodes/1/description: required string",
    "nodes/1/step_ref=null": None,
    "edges/1/id=null": "/edges/1/id: required string",
    "edges/1/from=null": "/edges/1/from: required string",
    "edges/1/to=null": "/edges/1/to: required string",
    "edges/1/condition=null": None,
    "edges/1/conclusion=null": None,
    "edges/1/condition/question=null": "/edges/1/condition/question: required string",
    "edges/1/condition/label=null": "/edges/1/condition/label: must be Y or N",
    "nodes/1=int": "/nodes/1: must be an object",
    "edges/1=int": "/edges/1: must be an object",
    "nodes/1/id=int": "/nodes/1/id: required string",
    "nodes/1/kind=int": "/nodes/1/kind: must be start|step|end",
    "nodes/1/description=int": "/nodes/1/description: required string",
    "nodes/1/step_ref=int": "/nodes/1/step_ref: string or null",
    "edges/1/id=int": "/edges/1/id: required string",
    "edges/1/from=int": "/edges/1/from: required string",
    "edges/1/to=int": "/edges/1/to: required string",
    "edges/1/condition=int": "/edges/1/condition: object or null",
    "edges/1/conclusion=int": "/edges/1/conclusion: string or null",
    "edges/1/condition/question=int": "/edges/1/condition/question: required string",
    "edges/1/condition/label=int": "/edges/1/condition/label: must be Y or N",
    "nodes/1=empty": "/nodes/1: must be an object",
    "edges/1=empty": "/edges/1: must be an object",
    "nodes/1/id=empty": "/nodes/1/id: required string",
    "nodes/1/kind=empty": "/nodes/1/kind: must be start|step|end",
    "nodes/1/description=empty": None,
    "nodes/1/step_ref=empty": None,
    "edges/1/id=empty": "/edges/1/id: required string",
    "edges/1/from=empty": "/edges/1/from: required string",
    "edges/1/to=empty": "/edges/1/to: required string",
    "edges/1/condition=empty": "/edges/1/condition: object or null",
    "edges/1/conclusion=empty": None,
    "edges/1/condition/question=empty": None,
    "edges/1/condition/label=empty": "/edges/1/condition/label: must be Y or N",
    "nodes/1=list": "/nodes/1: must be an object",
    "edges/1=list": "/edges/1: must be an object",
    "nodes/1/id=list": "/nodes/1/id: required string",
    "nodes/1/kind=list": "/nodes/1/kind: must be start|step|end",
    "nodes/1/description=list": "/nodes/1/description: required string",
    "nodes/1/step_ref=list": "/nodes/1/step_ref: string or null",
    "edges/1/id=list": "/edges/1/id: required string",
    "edges/1/from=list": "/edges/1/from: required string",
    "edges/1/to=list": "/edges/1/to: required string",
    "edges/1/condition=list": "/edges/1/condition: object or null",
    "edges/1/conclusion=list": "/edges/1/conclusion: string or null",
    "edges/1/condition/question=list": "/edges/1/condition/question: required string",
    "edges/1/condition/label=list": "/edges/1/condition/label: must be Y or N",
    "nodes/1=dict": "/nodes/1/id: required string",
    "edges/1=dict": "/edges/1/id: required string",
    "nodes/1/id=dict": "/nodes/1/id: required string",
    "nodes/1/kind=dict": "/nodes/1/kind: must be start|step|end",
    "nodes/1/description=dict": "/nodes/1/description: required string",
    "nodes/1/step_ref=dict": "/nodes/1/step_ref: string or null",
    "edges/1/id=dict": "/edges/1/id: required string",
    "edges/1/from=dict": "/edges/1/from: required string",
    "edges/1/to=dict": "/edges/1/to: required string",
    "edges/1/condition=dict": "/edges/1/condition/question: required string",
    "edges/1/conclusion=dict": "/edges/1/conclusion: string or null",
    "edges/1/condition/question=dict": "/edges/1/condition/question: required string",
    "edges/1/condition/label=dict": "/edges/1/condition/label: must be Y or N",
    "nodes/1=true": "/nodes/1: must be an object",
    "edges/1=true": "/edges/1: must be an object",
    "nodes/1/id=true": "/nodes/1/id: required string",
    "nodes/1/kind=true": "/nodes/1/kind: must be start|step|end",
    "nodes/1/description=true": "/nodes/1/description: required string",
    "nodes/1/step_ref=true": "/nodes/1/step_ref: string or null",
    "edges/1/id=true": "/edges/1/id: required string",
    "edges/1/from=true": "/edges/1/from: required string",
    "edges/1/to=true": "/edges/1/to: required string",
    "edges/1/condition=true": "/edges/1/condition: object or null",
    "edges/1/conclusion=true": "/edges/1/conclusion: string or null",
    "edges/1/condition/question=true": "/edges/1/condition/question: required string",
    "edges/1/condition/label=true": "/edges/1/condition/label: must be Y or N",
    "nodes/1=word": "/nodes/1: must be an object",
    "edges/1=word": "/edges/1: must be an object",
    "nodes/1/id=word": None,
    "nodes/1/kind=word": "/nodes/1/kind: must be start|step|end",
    "nodes/1/description=word": None,
    "nodes/1/step_ref=word": None,
    "edges/1/id=word": None,
    "edges/1/from=word": None,
    "edges/1/to=word": None,
    "edges/1/condition=word": "/edges/1/condition: object or null",
    "edges/1/conclusion=word": None,
    "edges/1/condition/question=word": None,
    "edges/1/condition/label=word": "/edges/1/condition/label: must be Y or N",
    "nodes/2 id and kind": "/nodes/2/id: required string",
    "edges/0 to and condition": "/edges/0/to: required string",
    "nodes before edges": "/nodes/0/description: required string",
    "edges/1/condition/label=y": "/edges/1/condition/label: must be Y or N",
}


def _built_directly(obj: dict) -> ExecutionDag:
    def condition(c):
        return None if c is None else EdgeCondition(c["question"], c["label"])

    return ExecutionDag(
        obj["tsg_id"],
        [DagNode(n["id"], n["kind"], n["description"], n.get("step_ref")) for n in obj["nodes"]],
        [DagEdge(e["id"], e["from"], e["to"], condition(e.get("condition")), e.get("conclusion"))
         for e in obj["edges"]],
    )


def test_load_errors_match_pinned_table():
    cases = _load_cases()
    assert set(cases) == set(_PINNED_ERRORS)
    for name, text in cases.items():
        expected = _PINNED_ERRORS[name]
        if expected is None:
            assert load_dag(text) == _built_directly(json.loads(text)), name
            continue
        with pytest.raises(SchemaViolation) as info:
            load_dag(text)
        assert str(info.value) == expected, name
        assert info.value.path == expected.split(": ", 1)[0], name


# -- acyclicity ----------------------------------------------------------------------


def reference_find_cycle(dag: ExecutionDag) -> list[str]:
    """The plain depth-first search: roots in node_sort_key order,
    successors in edge order, the first back edge met is the cycle."""
    adj: dict[str, list[str]] = {n.id: [] for n in dag.nodes}
    for e in dag.edges:
        if e.source in adj:
            adj[e.source].append(e.target)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in adj}
    for root in sorted(adj, key=node_sort_key):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        successors = [iter(adj[root])]
        while successors:
            for v in successors[-1]:
                if v not in color:
                    continue
                if color[v] == GRAY:
                    loop = path[path.index(v):] + [v]
                    return [edge_id(a, b) for a, b in zip(loop, loop[1:])]
                if color[v] == WHITE:
                    color[v] = GRAY
                    path.append(v)
                    successors.append(iter(adj[v]))
                    break
            else:
                successors.pop()
                color[path.pop()] = BLACK
    return []


def test_long_cyclic_chain_reports_the_dfs_cycle():
    ids = [START] + [f"step{i}" for i in range(1, 3001)] + [END]
    edges = [DagEdge(edge_id(a, b), a, b) for a, b in zip(ids, ids[1:])]
    edges.append(DagEdge(edge_id("step2999", "step10"), "step2999", "step10"))
    dag = ExecutionDag("long", [DagNode(i, "step", "", "x") for i in ids], edges)
    outgoing, _ = _edge_index(dag)
    assert _find_cycle(outgoing) == reference_find_cycle(dag)
    assert len(_find_cycle(outgoing)) == 2990


# -- parse_tsg -----------------------------------------------------------------------


class _EveryCharacter:
    """A dispatch set that holds every character, so parse_tsg runs as it
    did before the first-character dispatch: every line goes through the
    overlay patterns."""

    def __contains__(self, item) -> bool:
        return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TsgParseError, DagError) as exc:
        return type(exc), str(exc)


def _assert_parse_matches_reference(text: str) -> None:
    fast = _outcome(parse_tsg, text)
    with mock.patch.object(document, "_OVERLAY_FIRST_CHARS", _EveryCharacter()):
        slow = _outcome(parse_tsg, text)
    assert fast == slow
    if not isinstance(fast, tuple):
        reference_dag = _outcome(extract_dag, slow)
        assert _outcome(extract_dag, fast) == reference_dag


def test_parse_matches_reference_on_corpus_and_fixtures():
    texts = [(p / "tsg.md").read_text(encoding="utf-8") for p in sorted(BUNDLES.iterdir())]
    texts += [d.text for d in build_qpp_corpus()]
    texts += [d.text for d in build_lint_corpus()]
    for text in texts:
        _assert_parse_matches_reference(text)


_LINE_PIECES = [
    "# TSG: g — Generated", "# TSG:", "#TSG: g — x", "Inputs: a, b, 9x", "Inputs:",
    "## Step 1: One", "## Step 2: Two", "## Step 3.1: Three", "## Step 2: Again", "## Step x",
    "## Steps", "### Step 1: deeper", "Next:", "Next: ", "Next", "- Step 2", "- Step 3.1",
    "- Step 9", "- Step 1", "- Parallel: Step 2, Step 3.1", "- Parallel: Step 2",
    "- If up: Y -> Step 2; N -> Terminate(down)", "- If up: Y -> Step 3.1",
    "- If bad: Y -> nowhere", "- Terminate: done", "- something else", "-no space",
    "Produces: x, y", "Produces: 1bad", "Terminate: fin", "Terminate:", "Terminated early",
    "```kql name=q1", "```kql name=q2", "```", "```text", " ```", "", " ", "\t- Step 2",
    "body text", "  indented Next:", "Normal prose", "Perhaps", "It", "Then", "|x|", "*x*",
    "1. item", "* Step 2", "+ Step 2", "> quote", "{placeholder}", "é accents", " nbsp",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_LINE_PIECES) | st.text(max_size=6), max_size=40),
       st.sampled_from(["\n", "\r\n"]))
def test_parse_matches_reference_on_generated_guides(lines, newline):
    _assert_parse_matches_reference(newline.join(lines))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parse_matches_reference_on_random_scripted_guides(data):
    """Whole guides rendered from random DAGs, with body lines in between."""
    dag = random_scripted_dag(random.Random(data.draw(st.integers(0, 10**6))))
    outgoing = compile_dag(dag).outgoing
    out = ["# TSG: r — Random", "Inputs: service"]
    for node in sorted([n for n in dag.nodes if n.kind == "step"], key=lambda n: node_sort_key(n.id)):
        out.append(f"## Step {node.step_ref}: {node.description}")
        out += data.draw(st.lists(st.sampled_from(_LINE_PIECES[-20:]), max_size=3))
        out.append("Next:")
        for e in outgoing[node.id]:
            target = "Terminate(fin)" if e.target == END else f"Step {e.target[4:]}"
            if e.condition is None:
                out.append(f"- {target}" if e.target != END else "- Terminate: fin")
            else:
                out.append(f"- If {e.condition.question}: {e.condition.label} -> {target}")
    _assert_parse_matches_reference("\n".join(out) + "\n")


def test_overlay_patterns_start_with_a_dispatch_character():
    """Every pattern parse_tsg matches against a whole line is anchored and
    starts with a literal in _OVERLAY_FIRST_CHARS, as does every prefix it
    tests with startswith; a new overlay form outside the set would be read
    as body text."""
    source = inspect.getsource(parse_tsg)
    names = set(re.findall(r"\b(_[A-Z_]+_RE)\.match\(raw\)", source))
    names |= set(re.findall(r"\b(_DIR_[A-Z_]+_RE)\b", inspect.getsource(document._parse_directive)))
    assert {"_FENCE_RE", "_STEP_HEADER_RE", "_DOC_HEADER_RE", "_INPUTS_RE", "_DIR_STEP_RE"} <= names
    for name in sorted(names):
        pattern = getattr(document, name).pattern
        assert pattern.startswith("^"), name
        first = pattern[1]
        assert first not in "\\.[](){}*+?|^$", f"{name} does not start with a literal"
        assert first in document._OVERLAY_FIRST_CHARS, name
    prefixes = re.findall(r"raw\.startswith\(\"([^\"]+)\"\)", source)
    assert prefixes
    for prefix in prefixes:
        assert prefix[0] in document._OVERLAY_FIRST_CHARS, prefix

