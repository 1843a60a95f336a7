from __future__ import annotations

import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overlay_reference
from tsgflow.document import (
    _ARM_RE,
    _ARM_SPLIT_RE,
    _DIR_IF_RE,
    DuplicateStepId,
    MissingEntryStep,
    _split_arms,
    parse_tsg,
    serialize_tsg,
    step_id_key,
)

MINIMAL = """# TSG: mini — Minimal guide
Inputs: service

## Step 1: Check
Look at the dashboard.
Terminate: done
"""


def structural_view(doc):
    """Everything but source positions, for round-trip comparisons."""
    return (
        doc.tsg_id,
        doc.title,
        tuple(doc.incident_fields),
        tuple(
            (
                s.id,
                s.title,
                tuple((d.kind, d.targets, d.condition, d.conclusion) for d in s.next_directives),
                tuple((q.name, q.language, q.text) for q in s.query_blocks),
                tuple(s.produces),
                s.terminal_conclusion,
            )
            for s in doc.steps
        ),
    )


def test_minimal_document():
    doc = parse_tsg(MINIMAL)
    assert doc.tsg_id == "mini"
    assert doc.title == "Minimal guide"
    assert doc.incident_fields == ["service"]
    assert len(doc.steps) == 1
    step = doc.steps[0]
    assert step.terminal_conclusion == "done"
    assert step.next_directives == []
    assert doc.diagnostics == []


def test_fig_tsg_step_ids(fig4_bundle):
    assert fig4_bundle.doc.step("2").id == "2"
    with pytest.raises(KeyError):
        fig4_bundle.doc.step("99")
    assert fig4_bundle.doc.step_ids() == ["1", "2", "3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "5"]


def test_dangling_target_is_a_diagnostic():
    text = MINIMAL.replace("Terminate: done", "Next:\n- Step 9")
    doc = parse_tsg(text)
    diags = [d for d in doc.diagnostics if d.code == "dangling-target"]
    assert len(diags) == 1
    assert "'9'" in diags[0].message
    assert diags[0].line == text.splitlines().index("- Step 9") + 1


def test_duplicate_step_id_raises():
    text = MINIMAL + "\n## Step 1: Again\nTerminate: twice\n"
    with pytest.raises(DuplicateStepId):
        parse_tsg(text)


def test_no_steps_raises():
    with pytest.raises(MissingEntryStep):
        parse_tsg("# TSG: empty — Nothing here\n\njust prose\n")


def test_entry_step_is_first_in_source_order():
    doc = parse_tsg(MINIMAL)
    assert doc.steps[0].id == "1"
    out_of_order = """# TSG: ooo — Out of order

## Step 2: Written first
Next:
- Step 1

## Step 1: Written second
Terminate: end
"""
    assert parse_tsg(out_of_order).steps[0].id == "2"


def test_conditional_directive_parsing(fig4_bundle):
    step2 = fig4_bundle.doc.step("2")
    kinds = [(d.kind, d.targets, d.condition.label if d.condition else None) for d in step2.next_directives]
    assert kinds == [("terminate", (), "Y"), ("conditional", ("3.1",), "N")]
    assert step2.next_directives[0].conclusion == "known issue"
    assert step2.next_directives[0].condition.question == (
        "the top exception appears on the known-issue list"
    )


def test_parallel_directive(fig5_bundle):
    step1 = fig5_bundle.doc.step("1")
    assert [d.kind for d in step1.next_directives] == ["parallel"]
    assert step1.next_directives[0].targets == ("2", "3.1", "4.1")


def test_query_block_extraction(fig4_bundle):
    step1 = fig4_bundle.doc.step("1")
    assert [q.name for q in step1.query_blocks] == ["top_exceptions"]
    block = step1.query_blocks[0]
    assert block.language == "kql"
    assert block.text.startswith("ServiceLogs")
    assert "{service}" in block.text


def test_produces_and_inputs(fig4_bundle):
    doc = fig4_bundle.doc
    assert doc.incident_fields == [
        "incident_id", "service", "upstream_service", "start_time", "end_time", "ring",
    ]
    assert doc.step("4.1").produces == ["avail_service", "avail_upstream"]


def test_unparseable_directive_collected():
    text = """# TSG: bad — Bad directive

## Step 1: Start
Next:
- Step 2
- Jump to the moon

## Step 2: End
Terminate: over
"""
    doc = parse_tsg(text)
    assert [d.code for d in doc.diagnostics] == ["unparseable-directive"]
    assert len(doc.steps[0].next_directives) == 1


def test_each_malformed_directive_form_is_named():
    text = """# TSG: bad — Bad directives

## Step 1: Start
Next:
- Parallel: Step 2, Node 3
- Parallel: Step 2
- If up?: Y -> Step 2; N ->
- If up?: Y -> Step 2; Y -> Step 3
- If up?: Y -> Step 2; N -> Somewhere
- If up?: Y -> Step 2; N maybe
- If up?: Y -> Terminate(out; N -> Step 2
Terminate: over

## Step 2: B
Terminate: two

## Step 3: C
Terminate: three
"""
    doc = parse_tsg(text)
    assert [(d.code, d.line, d.message) for d in doc.diagnostics] == [
        ("unparseable-directive", 5, "bad parallel target 'Node 3'"),
        ("unparseable-directive", 6, "parallel directive needs at least two targets"),
        ("unparseable-directive", 7, "bad conditional arm 'N ->'"),
        ("unparseable-directive", 8, "duplicate 'Y' arm"),
        ("unparseable-directive", 9, "bad arm target 'Somewhere'"),
        # an arm is cut at each ";" outside a Terminate(...), so the broken one is named
        ("unparseable-directive", 10, "bad conditional arm 'N maybe'"),
        ("unparseable-directive", 11, "bad arm target 'Terminate(out'"),
    ]
    assert doc.steps[0].next_directives == []


@pytest.mark.parametrize("arms, conclusion", [
    ("Y -> Terminate(escalate; page); N -> Step 2", "escalate; page"),
    ("Y -> Terminate(page (on call; now)); N -> Step 2", "page (on call; now)"),
    ("Y -> Terminate(a) ; b); N -> Step 2", "a) ; b"),
    ("Y -> Terminate(escalate; see (runbook)); N -> Step 2", "escalate; see (runbook)"),
])
def test_semicolon_inside_a_terminate_arm_stays_in_its_conclusion(arms, conclusion):
    doc = parse_tsg(f"""# TSG: t — Arms
## Step 1: A
Next:
- If up?: {arms}

## Step 2: B
Terminate: two
""")
    assert doc.diagnostics == []
    yes, no = doc.steps[0].next_directives
    assert (yes.kind, yes.conclusion, yes.condition.label) == ("terminate", conclusion, "Y")
    assert (no.kind, no.targets, no.condition.label) == ("conditional", ("2",), "N")


def test_malformed_step_header_is_diagnostic():
    text = """# TSG: bad — Malformed header

## Step 1: Fine
Terminate: ok

## Step : missing id
"""
    doc = parse_tsg(text)
    assert [d.code for d in doc.diagnostics] == ["malformed-header"]
    assert len(doc.steps) == 1


def test_step_header_inside_fence_is_body():
    text = """# TSG: fence — Fenced header

## Step 1: Only step
```kql name=q1
## Step 2: not a real step
print 1
```
Terminate: end
"""
    doc = parse_tsg(text)
    assert doc.step_ids() == ["1"]
    assert doc.steps[0].query_blocks[0].text == "## Step 2: not a real step\nprint 1"


def test_roundtrip_fixture_documents(fig4_bundle, fig5_bundle, triple_bundle):
    for bundle in (fig4_bundle, fig5_bundle, triple_bundle):
        doc = bundle.doc
        reparsed = parse_tsg(serialize_tsg(doc))
        assert structural_view(reparsed) == structural_view(doc)
        again = parse_tsg(serialize_tsg(reparsed))
        assert structural_view(again) == structural_view(reparsed)


def test_parse_is_pure(fig4_bundle):
    text = fig4_bundle.doc.source
    assert structural_view(parse_tsg(text)) == structural_view(parse_tsg(text))


def test_line_fidelity(fig4_bundle):
    doc = fig4_bundle.doc
    lines = doc.source.splitlines()
    for step in doc.steps:
        assert lines[step.line - 1] == f"## Step {step.id}: {step.title}"
        for directive in step.next_directives:
            assert lines[directive.line - 1].startswith("- ")
        for block in step.query_blocks:
            assert lines[block.line - 1].startswith("```")


def test_dotted_id_ordering():
    assert step_id_key("3.10") > step_id_key("3.2")
    assert step_id_key("3.1") < step_id_key("3.2")
    assert step_id_key("10") > step_id_key("9")


@given(st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=4),
       st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=4))
def test_id_key_matches_segment_comparison(a, b):
    ida = ".".join(map(str, a))
    idb = ".".join(map(str, b))
    assert (step_id_key(ida) < step_id_key(idb)) == (a < b)
    assert (step_id_key(ida) == step_id_key(idb)) == (a == b)


_TERMINATE_ARM_RE = re.compile(r"^[YN]\s*->\s*Terminate\(.*\)$")


def terminate_arm_re_split_arms(arms: str) -> list[str]:
    """_split_arms as it was when a whole Terminate(...) arm had a pattern
    of its own, _TERMINATE_ARM_RE."""
    out = []
    for piece in _ARM_SPLIT_RE.split(arms):
        out += [piece] if _TERMINATE_ARM_RE.match(piece.strip()) else piece.split(";")
    return out


# arrows, labels, Terminate( and its parenthesis, the ";" both splits cut at,
# and spaces that str.strip() and \s both take, ASCII and Unicode alike
_ARM_PIECES = st.sampled_from(
    ["Y", "N", "->", " -> ", "Terminate(", ")", "(", ";", "; ", "Step 2", "x", " ", "\t",
     "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u2028", "\u3000"])
_SPACES = st.lists(st.sampled_from(["", " ", "\t", "\x1c", "\xa0", "\u3000"]), max_size=2).map(
    "".join)
# an arm that is close to well formed: each part may be missing or off by a little
_ARM = st.tuples(
    _SPACES, st.sampled_from(["Y", "N", "", "x"]), _SPACES, st.sampled_from(["->", "-", ""]),
    _SPACES, st.sampled_from(["Terminate(", "Terminate", "Step 2", ""]),
    st.lists(_ARM_PIECES, max_size=3).map("".join), st.sampled_from([")", "", ")x"]), _SPACES,
).map("".join)
_ARMS = (st.lists(_ARM_PIECES, max_size=14).map("".join)
         | st.lists(st.tuples(_ARM, st.sampled_from([";", "; ", ";\u3000", ""])).map("".join),
                    min_size=1, max_size=3).map("".join))


@settings(max_examples=1000, deadline=None)
@given(_ARMS)
def test_split_arms_equals_the_terminate_arm_pattern(arms):
    """_ARM_RE plus _ARM_TERMINATE_RE keep the same pieces whole as the one
    pattern for a whole Terminate(...) arm did, and each piece comes with
    its own _ARM_RE match."""
    pieces = _split_arms(arms)
    assert [piece for piece, _ in pieces] == terminate_arm_re_split_arms(arms)
    for piece, am in pieces:
        want = _ARM_RE.match(piece.strip())
        assert (am and (am.re, am.string, am.span(), am.groups())) == (
            want and (want.re, want.string, want.span(), want.groups()))


def test_if_question_ends_at_the_colon_the_lazy_form_chose():
    """Every If line of up to five pieces matches _DIR_IF_RE as the lazy
    `.+?` question did: a colon as the first character, later colons whose
    rest is also a valid arm list, and line breaks the question must not
    cross."""
    pieces = [":", "x", " ", "Y->x", "N ->x", ";", "\n", "\r"]
    lines = 0
    for size in range(6):
        for parts in product(pieces, repeat=size):
            line = "- If " + "".join(parts)
            want, got = overlay_reference._DIR_IF_RE.match(line), _DIR_IF_RE.match(line)
            assert (got and (got.span(), got.groups())) == (want and (want.span(), want.groups()))
            lines += 1
    assert lines == sum(len(pieces) ** size for size in range(6))
