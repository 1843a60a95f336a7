"""Parser for the conforming troubleshooting-guide (TSG) markdown format.

A conforming document is ordinary markdown with a line-oriented overlay:

    # TSG: <tsg_id> — <title>
    Inputs: <name>, <name>, ...

    ## Step <id>: <title>
    free-form body text
    ```<lang> name=<template_name>
    query text with {placeholder} markers ({{ and }} are literal braces)
    ```
    Produces: <name>, <name>, ...
    Terminate: <conclusion>
    Next:
    - Step <id>
    - Parallel: Step <id>, Step <id>, ...
    - If <question>: Y -> Step <id>; N -> Terminate(<conclusion>)
    - Terminate: <conclusion>

Step ids are dotted decimals ("3.1"), compared segment-wise numerically, so
"3.10" sorts after "3.2". A standalone ``Terminate:`` line marks the step as
a termination point without adding a next directive; ``- Terminate:`` under
``Next:`` does the same as an explicit directive. Anything the overlay does
not claim is kept verbatim as step body text, and reparsing a serialized
document yields the same structure.

Recoverable problems (a directive line that matches no form, a malformed
step header, a target that names no step) are collected as parse
diagnostics on the document rather than raised, so the linter can surface
them. Structural defects (duplicate step ids, a document with no steps)
raise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# FileNotUtf8 and read_utf8 are re-exported: they live in errors, which scenario may import
from .errors import FileNotUtf8, TsgflowError, read_utf8
from .records import frozen_record


class TsgParseError(TsgflowError):
    """Fatal structural problem in a TSG document."""


class DuplicateStepId(TsgParseError):
    pass


class MissingEntryStep(TsgParseError):
    pass


# A payload before "\s*$" is ".*\S|.": it ends at the line's last non-space
# character, or is one character when the rest is all spaces, as ".+?" did,
# but re does not try the "\s*$" tail at every character of it.
_DOC_HEADER_RE = re.compile(r"^# TSG:\s*(?P<id>\S+)\s+—\s+(?P<title>.*\S|.)\s*$")
_STEP_HEADER_RE = re.compile(r"^## Step (?P<id>\d+(?:\.\d+)*):\s*(?P<title>.*\S|.)\s*$")
_STEP_HEADER_PREFIX_RE = re.compile(r"^## Step\b")
_INPUTS_RE = re.compile(r"^Inputs:\s*(?P<names>.*\S|.)\s*$")
_PRODUCES_RE = re.compile(r"^Produces:\s*(?P<names>.*\S|.)\s*$")
_TERMINATE_RE = re.compile(r"^Terminate:\s*(?P<conclusion>.*\S|.)\s*$")
_NEXT_HEADING_RE = re.compile(r"^Next:\s*$")
_FENCE_RE = re.compile(r"^```(?P<info>(?:.*\S)?)\s*$")
_FENCE_INFO_RE = re.compile(r"^(?P<lang>\S+)\s+name=(?P<name>[A-Za-z][A-Za-z0-9_]*)$")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

_DIR_STEP_RE = re.compile(r"^- Step (?P<id>\d+(?:\.\d+)*)\s*$")
_DIR_PARALLEL_RE = re.compile(r"^- Parallel:\s*(?P<targets>.*\S|.)\s*$")
_DIR_IF_RE = re.compile(r"^- If (?P<question>.+?):\s*(?P<arms>[YN]\s*->(?:.*\S|.))\s*$")
_DIR_TERMINATE_RE = re.compile(r"^- Terminate:\s*(?P<conclusion>.*\S|.)\s*$")
_ARM_SPLIT_RE = re.compile(r";\s*(?=[YN]\s*->)")
_ARM_RE = re.compile(r"^(?P<label>[YN])\s*->\s*(?P<target>.*\S|.)\s*$")
_STEP_REF_RE = re.compile(r"^Step (?P<id>\d+(?:\.\d+)*)$")  # a parallel item or an arm's target
_ARM_TERMINATE_RE = re.compile(r"^Terminate\((?P<conclusion>.*)\)$")

# First characters of every overlay line form: the fence, the step and
# document headers, Inputs:, Next:, Produces:, Terminate: and "- " directives.
# Each line pattern is anchored and starts with one of these literals, so a
# line starting with anything else (or empty) can only be body text.
_OVERLAY_FIRST_CHARS = frozenset("`#INPT-")


def step_id_key(step_id: str) -> tuple:
    """Sort key for dotted-decimal step ids. A segment of decimal digits
    compares as a number; any other segment sorts after those as text,
    including digits int() cannot read, such as '²'."""
    parts = []
    for seg in step_id.split("."):
        if seg.isdecimal():
            parts.append((0, int(seg), ""))
        else:
            parts.append((1, 0, seg))
    return tuple(parts)


@frozen_record
class Condition:
    question: str
    label: str  # "Y" or "N"


@frozen_record
class NextDirective:
    kind: str  # unconditional | conditional | parallel | terminate
    targets: tuple[str, ...]
    line: int
    condition: Condition | None = None
    conclusion: str | None = None


@frozen_record
class QueryBlock:
    name: str
    language: str
    text: str
    line: int  # line of the opening fence


@frozen_record
class ParseDiagnostic:
    code: str
    line: int
    message: str


@dataclass(slots=True)
class TsgStep:
    """One step of a guide. `body` holds the raw text of every line after
    its header up to the next step header, so body line i is source line
    `line + 1 + i`."""

    id: str
    title: str
    line: int
    body: list[str] = field(default_factory=list)
    query_blocks: list[QueryBlock] = field(default_factory=list)
    next_directives: list[NextDirective] = field(default_factory=list)
    produces: list[str] = field(default_factory=list)
    terminal_conclusion: str | None = None

    def body_text(self) -> str:
        return "\n".join(self.body)


@dataclass
class TsgDocument:
    tsg_id: str
    title: str
    incident_fields: list[str]
    steps: list[TsgStep]
    source: str
    preamble: list[str] = field(default_factory=list)
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    def step_ids(self) -> list[str]:
        return [s.id for s in self.steps]

    def step(self, step_id: str) -> TsgStep:
        for s in self.steps:
            if s.id == step_id:
                return s
        raise KeyError(step_id)


def _parse_name_list(raw: str) -> tuple[list[str], list[str]]:
    names, bad = [], []
    for item in raw.split(","):
        name = item.strip()
        if not name:
            continue
        if _NAME_RE.match(name):
            names.append(name)
        else:
            bad.append(name)
    return names, bad


def _split_arms(arms: str) -> list[tuple[str, re.Match | None]]:
    """An If line's arms, each with its _ARM_RE match (None for text that is
    no arm): the text cut at each ";" before a "Y ->" or "N ->", then each
    piece that is not a whole Terminate(...) arm cut again at every ";", so a
    conclusion keeps its ";" and an arm without an arrow stands alone."""
    out = []
    for piece in _ARM_SPLIT_RE.split(arms):
        am = _ARM_RE.match(piece.strip())
        if ";" not in piece or am and _ARM_TERMINATE_RE.match(am["target"]):
            out.append((piece, am))
        else:
            out += [(part, _ARM_RE.match(part.strip())) for part in piece.split(";")]
    return out


def _parse_directive(text: str, line: int) -> tuple[list[NextDirective], str | None]:
    """Parse one `- ...` line under Next:. Returns (directives, error message).

    Each form has its own first character after the "- ", so only the
    pattern for that character is tried.
    """
    first = text[2:3]
    m = first == "S" and _DIR_STEP_RE.match(text)
    if m:
        return [NextDirective("unconditional", (m.group("id"),), line)], None
    m = first == "T" and _DIR_TERMINATE_RE.match(text)
    if m:
        return [NextDirective("terminate", (), line, conclusion=m.group("conclusion"))], None
    m = first == "P" and _DIR_PARALLEL_RE.match(text)
    if m:
        targets = []
        for item in m.group("targets").split(","):
            im = _STEP_REF_RE.match(item.strip())
            if not im:
                return [], f"bad parallel target {item.strip()!r}"
            targets.append(im.group("id"))
        if len(targets) < 2:
            return [], "parallel directive needs at least two targets"
        return [NextDirective("parallel", tuple(targets), line)], None
    m = first == "I" and _DIR_IF_RE.match(text)
    if m:
        question = m.group("question")
        directives = []
        labels_seen = set()
        for arm_text, am in _split_arms(m.group("arms")):
            if not am:
                return [], f"bad conditional arm {arm_text.strip()!r}"
            label = am.group("label")
            if label in labels_seen:
                return [], f"duplicate {label!r} arm"
            labels_seen.add(label)
            target = am.group("target")
            cond = Condition(question=question, label=label)
            sm = _STEP_REF_RE.match(target)
            if sm:
                directives.append(
                    NextDirective("conditional", (sm.group("id"),), line, condition=cond)
                )
                continue
            tm = _ARM_TERMINATE_RE.match(target)
            if tm:
                directives.append(
                    NextDirective(
                        "terminate", (), line, condition=cond, conclusion=tm.group("conclusion")
                    )
                )
                continue
            return [], f"bad arm target {target!r}"
        return directives, None
    return [], "directive matches no known form"


def parse_tsg(text: str) -> TsgDocument:
    """Parse conforming TSG markdown into a TsgDocument.

    Raises DuplicateStepId / MissingEntryStep on structural defects; all
    recoverable issues land in doc.diagnostics.

    A step's body is every line after its header up to the next step header
    outside a fence, so it is kept as a slice of the document's lines.
    The preamble is every line before the first step header except the
    document header and the Inputs: line that were read as such.
    """
    lines = text.splitlines()
    diagnostics: list[ParseDiagnostic] = []
    tsg_id = ""
    title = ""
    header_line = 0
    incident_fields: list[str] = []
    inputs_line = 0
    steps: list[TsgStep] = []
    first_line_of: dict[str, int] = {}
    query_names: dict[str, int] = {}

    current: TsgStep | None = None
    in_fence = False
    fence_name = ""
    fence_lang = ""
    fence_start = 0
    next_mode = False

    for line_no, raw in enumerate(lines, start=1):
        if in_fence:
            # a line of splitlines holds no line break, so each one that
            # starts with ``` matches _FENCE_RE
            if raw.startswith("```"):
                in_fence = False
                if fence_name and current is not None:
                    if fence_name in query_names:
                        diagnostics.append(
                            ParseDiagnostic(
                                "duplicate-query-name",
                                fence_start,
                                f"query block name {fence_name!r} already used at line "
                                f"{query_names[fence_name]}",
                            )
                        )
                    else:
                        query_names[fence_name] = fence_start
                    query = "\n".join(lines[fence_start:line_no - 1])
                    current.query_blocks.append(
                        QueryBlock(fence_name, fence_lang, query, fence_start)
                    )
                fence_name = ""
            continue

        # Each overlay form starts with a literal, so a pattern is tried only
        # on a line that starts with that literal. A line that no form takes
        # ends a Next: list, as does every form but the document header,
        # the Inputs: line and a directive.
        first = raw[:1]
        if first not in _OVERLAY_FIRST_CHARS:
            pass
        elif first == "-":
            if next_mode and raw.startswith("- "):
                directives, err = _parse_directive(raw, line_no)
                if err:
                    diagnostics.append(
                        ParseDiagnostic("unparseable-directive", line_no, err)
                    )
                elif current is not None:
                    current.next_directives.extend(directives)
                continue
        elif first == "#":
            hm = _STEP_HEADER_RE.match(raw)
            if hm:
                step_id = hm.group("id")
                if step_id in first_line_of:
                    raise DuplicateStepId(
                        f"step {step_id!r} redefined at line {line_no} "
                        f"(first defined at line {first_line_of[step_id]})"
                    )
                first_line_of[step_id] = line_no
                # the body is set once the next header is known
                current = TsgStep(id=step_id, title=hm.group("title"), line=line_no)
                steps.append(current)
            elif _STEP_HEADER_PREFIX_RE.match(raw):
                diagnostics.append(
                    ParseDiagnostic(
                        "malformed-header", line_no, f"step header not parseable: {raw!r}"
                    )
                )
            elif not header_line and current is None:
                dm = _DOC_HEADER_RE.match(raw)
                if dm:
                    header_line = line_no
                    tsg_id = dm.group("id")
                    title = dm.group("title")
                    continue
        elif first == "N":
            if _NEXT_HEADING_RE.match(raw):
                next_mode = True
                continue
        elif first == "P":
            pm = current is not None and _PRODUCES_RE.match(raw)
            if pm:
                names, bad = _parse_name_list(pm.group("names"))
                current.produces.extend(names)
                for b in bad:
                    diagnostics.append(
                        ParseDiagnostic("bad-produces-name", line_no, f"bad produces name {b!r}")
                    )
        elif first == "`":
            fm = _FENCE_RE.match(raw)
            if fm:
                in_fence = True
                fence_start = line_no
                fence_name = ""
                fence_lang = ""
                im = _FENCE_INFO_RE.match(fm.group("info").strip())
                if im:
                    fence_name = im.group("name")
                    fence_lang = im.group("lang")
        elif first == "T":
            tm = current is not None and _TERMINATE_RE.match(raw)
            if tm:
                if current.terminal_conclusion is None:
                    current.terminal_conclusion = tm.group("conclusion")
                else:
                    diagnostics.append(
                        ParseDiagnostic(
                            "duplicate-terminate", line_no, "step already has a Terminate: line"
                        )
                    )
        elif current is None and not inputs_line:  # first == "I"
            im = _INPUTS_RE.match(raw)
            if im:
                inputs_line = line_no
                names, bad = _parse_name_list(im.group("names"))
                incident_fields = names
                for b in bad:
                    diagnostics.append(
                        ParseDiagnostic("bad-input-name", line_no, f"bad input name {b!r}")
                    )
                continue
        next_mode = False

    if in_fence:
        diagnostics.append(
            ParseDiagnostic("unterminated-fence", fence_start, "code fence never closed")
        )
    if not header_line:
        diagnostics.append(
            ParseDiagnostic("missing-document-header", 1, "no '# TSG:' header found")
        )
    if not steps:
        raise MissingEntryStep("document defines no steps")

    # A header at line n is lines[n - 1]; its body runs up to the next header.
    stops = [step.line - 1 for step in steps]
    stops.append(len(lines))
    for step, stop in zip(steps, stops[1:]):
        step.body = lines[step.line:stop]
    preamble = [
        raw
        for line_no, raw in enumerate(lines[: stops[0]], start=1)
        if line_no != header_line and line_no != inputs_line
    ]

    known = set(first_line_of)
    for step in steps:
        for directive in step.next_directives:
            for target in directive.targets:
                if target not in known:
                    diagnostics.append(
                        ParseDiagnostic(
                            "dangling-target",
                            directive.line,
                            f"directive targets unknown step {target!r}",
                        )
                    )

    return TsgDocument(
        tsg_id=tsg_id,
        title=title,
        incident_fields=incident_fields,
        steps=steps,
        source=text,
        preamble=preamble,
        diagnostics=diagnostics,
    )


def serialize_tsg(doc: TsgDocument) -> str:
    """Render a TsgDocument back to conforming markdown.

    Body lines are emitted verbatim, so parse(serialize(parse(t))) is
    structurally identical to parse(t).
    """
    out = [f"# TSG: {doc.tsg_id} — {doc.title}"]
    if doc.incident_fields:
        out.append("Inputs: " + ", ".join(doc.incident_fields))
    out.extend(doc.preamble)
    for step in doc.steps:
        out.append(f"## Step {step.id}: {step.title}")
        out.extend(step.body)
    return "\n".join(out) + "\n"
