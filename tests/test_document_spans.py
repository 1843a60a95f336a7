"""Step bodies as slices of the document's lines, against the parser that
stored a tuple per line.

tests/document_reference.py keeps parse_tsg and serialize_tsg as they were
when every body and preamble line was appended as its own (line_no, raw)
tuple. tsgflow.document must give the same steps, bodies (numbered from the
line after each header), body texts, preamble text, diagnostics, errors and
serialized bytes on the bundled guides, on guides generated from random DAGs
and on seeded line soups that mix every str.splitlines separator with
fences, headers and directives.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import document_reference as reference
from corpus import build_lint_corpus, build_qpp_corpus
from randdag import random_scripted_dag
from tsgflow.dag import END, compile_dag, node_sort_key
from tsgflow.document import (
    TsgDocument,
    TsgParseError,
    TsgStep,
    parse_tsg,
    serialize_tsg,
)

BUNDLES = Path(__file__).parent / "fixtures" / "bundles"

# Every line boundary str.splitlines knows.
SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TsgParseError as exc:
        return type(exc), str(exc)


def assert_same_parse(text: str) -> TsgDocument | None:
    """parse_tsg and serialize_tsg agree with the reference on `text`;
    returns the new parse, or None when both raised the same error."""
    new, old = _outcome(parse_tsg, text), _outcome(reference.parse_tsg, text)
    if isinstance(old, tuple):
        assert new == old, text
        return None
    for f in dataclasses.fields(TsgDocument):
        if f.name not in ("steps", "preamble"):
            assert getattr(new, f.name) == getattr(old, f.name), (f.name, text)
    assert type(new.preamble) is list and all(type(raw) is str for raw in new.preamble)
    assert new.preamble == [raw for _, raw in old.preamble], text
    assert len(new.steps) == len(old.steps)
    for step, ref in zip(new.steps, old.steps):
        for f in dataclasses.fields(TsgStep):
            if f.name != "body":
                assert getattr(step, f.name) == getattr(ref, f.name), (f.name, text)
        assert type(step.body) is list and all(type(raw) is str for raw in step.body)
        assert list(enumerate(step.body, step.line + 1)) == ref.body, text
        assert step.body_text() == "\n".join(raw for _, raw in ref.body), text
    rendered = serialize_tsg(new)
    assert rendered == reference.serialize_tsg(old), text
    assert serialize_tsg(parse_tsg(rendered)) == reference.serialize_tsg(reference.parse_tsg(rendered))
    return new


def test_bundled_guides_match_reference():
    for path in sorted(BUNDLES.iterdir()):
        assert assert_same_parse((path / "tsg.md").read_text(encoding="utf-8")), path.name


def test_corpus_guides_match_reference():
    for doc in build_qpp_corpus() + build_lint_corpus():
        assert_same_parse(doc.text)


_PROSE = ["", "Look at the dashboard.", "  indented", "{placeholder} text", "é accents", "|x|"]


def _guide_from_dag(rng: random.Random) -> str:
    """A whole guide rendered from a random DAG, with prose, query blocks
    and standalone Terminate: lines between the overlay lines."""
    dag = random_scripted_dag(rng)
    outgoing = compile_dag(dag).outgoing
    out = ["# TSG: r — Random", "Inputs: service, start_time", rng.choice(_PROSE)]
    for node in sorted([n for n in dag.nodes if n.kind == "step"], key=lambda n: node_sort_key(n.id)):
        out.append(f"## Step {node.step_ref}: {node.description}")
        out += rng.sample(_PROSE, rng.randint(0, 3))
        if rng.random() < 0.4:
            out += [f"```kql name=q{node.step_ref.replace('.', '_')}", "T | where x == {service}", "```"]
        out.append("Next:")
        for e in outgoing[node.id]:
            target = "Terminate(fin)" if e.target == END else f"Step {e.target[4:]}"
            if e.condition is None:
                out.append(f"- {target}" if e.target != END else "- Terminate: fin")
            else:
                out.append(f"- If {e.condition.question}: {e.condition.label} -> {target}")
        out += rng.sample(_PROSE, rng.randint(0, 2))
    return rng.choice(["\n", "\r\n"]).join(out) + rng.choice(["", "\n"])


def test_generated_guides_match_reference():
    rng = random.Random(20261019)
    for _ in range(300):
        assert assert_same_parse(_guide_from_dag(rng))


_SOUP = [
    # headers, well-formed and not
    "# TSG: soup — Line soup", "# TSG:", "Inputs: a, b, 9x", "Inputs: c",
    "## Step 1: One", "## Step 2: Two", "## Step 3.1: Three", "## Step 2: Again",
    "## Step x", "## Steps", "## Step 4", "### Step 1: deeper",
    # fences, with and without a name; a step header is body inside one
    "```kql name=q1", "```kql name=q2", "```", "```text", " ```",
    # directives under Next: and outside it
    "Next:", "Next", "- Step 2", "- Step 3.1", "- Step 9", "- Parallel: Step 2, Step 3.1",
    "- If up: Y -> Step 2; N -> Terminate(down)", "- If bad: Y -> nowhere",
    "- Terminate: done", "- something else",
    # step-level lines, repeated Terminate: included
    "Produces: x, y", "Produces: 1bad", "Terminate: fin", "Terminate: again", "Terminate:",
    # prose
    "", " ", "body text", "{placeholder}", "é accents", "\t- Step 2",
]


def _line_soup(rng: random.Random) -> str:
    """Seeded lines joined by a random mix of separators. Text before the
    first step, a step header inside a fence, an unterminated fence, a
    malformed header, a directive outside Next: and a repeated Terminate:
    appear in most soups."""
    lines = [rng.choice(["Preamble prose", "Inputs: a", "```", "# TSG: s — S"])]
    lines += [rng.choice(_SOUP) for _ in range(rng.randint(0, 30))]
    specials = [
        ["```", "## Step 7: fenced", "```"],
        ["## Step 5"],
        ["- Step 1", "Terminate: one", "Terminate: two"],
        ["```kql name=open", "## Step 8: never a header"],
    ]
    for block in rng.sample(specials, rng.randint(0, len(specials))):
        at = rng.randint(0, len(lines))
        lines[at:at] = block
    return "".join(line + rng.choice(SEPARATORS) for line in lines)[: rng.choice([None, -1])]


def test_line_soups_match_reference():
    rng = random.Random(961019)
    codes = set()
    for _ in range(3000):
        doc = assert_same_parse(_line_soup(rng))
        if doc is not None:
            codes.update(d.code for d in doc.diagnostics)
    assert {"unterminated-fence", "malformed-header", "duplicate-terminate",
            "unparseable-directive", "dangling-target", "missing-document-header"} <= codes


def test_every_separator_splits_a_body():
    for sep in SEPARATORS:
        text = sep.join(["# TSG: s — S", "## Step 1: One", "a", "b", "Terminate: t"])
        doc = assert_same_parse(text)
        assert doc.steps[0].body == ["a", "b", "Terminate: t"]


def test_hand_built_step_with_a_list_body_renders_as_before():
    step = TsgStep("1", "One", 2, body=["a", "Terminate: t"], terminal_conclusion="t")
    doc = TsgDocument("s", "S", [], [step], source="")
    numbered = dataclasses.replace(step, body=[(3, "a"), (4, "Terminate: t")])
    old = TsgDocument("s", "S", [], [numbered], source="")
    assert step.body_text() == "a\nTerminate: t"
    assert serialize_tsg(doc) == reference.serialize_tsg(old) == "# TSG: s — S\n## Step 1: One\na\nTerminate: t\n"
    assert parse_tsg(serialize_tsg(doc)).steps[0] == step
