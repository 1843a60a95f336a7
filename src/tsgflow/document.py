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
from pathlib import Path


class TsgParseError(Exception):
    """Fatal structural problem in a TSG document."""


class DuplicateStepId(TsgParseError):
    pass


class MissingEntryStep(TsgParseError):
    pass


class GuideNotUtf8(TsgParseError):
    pass


def read_guide(path: str | Path) -> str:
    """The text of a guide file; raises GuideNotUtf8, naming the file, when
    it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GuideNotUtf8(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


_DOC_HEADER_RE = re.compile(r"^# TSG:\s*(?P<id>\S+)\s+—\s+(?P<title>.+?)\s*$")
_STEP_HEADER_RE = re.compile(r"^## Step (?P<id>\d+(?:\.\d+)*):\s*(?P<title>.+?)\s*$")
_STEP_HEADER_PREFIX_RE = re.compile(r"^## Step\b")
_INPUTS_RE = re.compile(r"^Inputs:\s*(?P<names>.+?)\s*$")
_PRODUCES_RE = re.compile(r"^Produces:\s*(?P<names>.+?)\s*$")
_TERMINATE_RE = re.compile(r"^Terminate:\s*(?P<conclusion>.+?)\s*$")
_NEXT_HEADING_RE = re.compile(r"^Next:\s*$")
_FENCE_RE = re.compile(r"^```(?P<info>.*?)\s*$")
_FENCE_INFO_RE = re.compile(r"^(?P<lang>\S+)\s+name=(?P<name>[A-Za-z][A-Za-z0-9_]*)$")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

_DIR_STEP_RE = re.compile(r"^- Step (?P<id>\d+(?:\.\d+)*)\s*$")
_DIR_PARALLEL_RE = re.compile(r"^- Parallel:\s*(?P<targets>.+?)\s*$")
_DIR_IF_RE = re.compile(r"^- If (?P<question>.+?):\s*(?P<arms>[YN]\s*->.+?)\s*$")
_DIR_TERMINATE_RE = re.compile(r"^- Terminate:\s*(?P<conclusion>.+?)\s*$")
_ARM_SPLIT_RE = re.compile(r";\s*(?=[YN]\s*->)")
_ARM_RE = re.compile(r"^(?P<label>[YN])\s*->\s*(?P<target>.+?)\s*$")
_ARM_STEP_RE = re.compile(r"^Step (?P<id>\d+(?:\.\d+)*)$")
_ARM_TERMINATE_RE = re.compile(r"^Terminate\((?P<conclusion>.*)\)$")
_PARALLEL_ITEM_RE = re.compile(r"^Step (?P<id>\d+(?:\.\d+)*)$")

# First characters of every overlay line form: the fence, the step and
# document headers, Inputs:, Next:, Produces:, Terminate: and "- " directives.
# Each line pattern is anchored and starts with one of these literals, so a
# line starting with anything else (or empty) can only be body text.
_OVERLAY_FIRST_CHARS = frozenset("`#INPT-")


def step_id_key(step_id: str) -> tuple:
    """Sort key for dotted-decimal step ids; non-numeric segments sort after."""
    parts = []
    for seg in step_id.split("."):
        if seg.isdigit():
            parts.append((0, int(seg), ""))
        else:
            parts.append((1, 0, seg))
    return tuple(parts)


@dataclass(frozen=True)
class Condition:
    question: str
    label: str  # "Y" or "N"


@dataclass(frozen=True)
class NextDirective:
    kind: str  # unconditional | conditional | parallel | terminate
    targets: tuple[str, ...]
    line: int
    condition: Condition | None = None
    conclusion: str | None = None


@dataclass(frozen=True)
class QueryBlock:
    name: str
    language: str
    text: str
    line: int  # line of the opening fence


@dataclass(frozen=True)
class ParseDiagnostic:
    code: str
    line: int
    message: str


@dataclass
class TsgStep:
    id: str
    title: str
    line: int
    body: list[tuple[int, str]] = field(default_factory=list)
    query_blocks: list[QueryBlock] = field(default_factory=list)
    next_directives: list[NextDirective] = field(default_factory=list)
    produces: list[str] = field(default_factory=list)
    terminal_conclusion: str | None = None

    def body_text(self) -> str:
        return "\n".join(text for _, text in self.body)


@dataclass
class TsgDocument:
    tsg_id: str
    title: str
    incident_fields: list[str]
    steps: list[TsgStep]
    source: str
    preamble: list[tuple[int, str]] = field(default_factory=list)
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


def _parse_directive(text: str, line: int) -> tuple[list[NextDirective], str | None]:
    """Parse one `- ...` line under Next:. Returns (directives, error message)."""
    m = _DIR_STEP_RE.match(text)
    if m:
        return [NextDirective("unconditional", (m.group("id"),), line)], None
    m = _DIR_TERMINATE_RE.match(text)
    if m:
        return [NextDirective("terminate", (), line, conclusion=m.group("conclusion"))], None
    m = _DIR_PARALLEL_RE.match(text)
    if m:
        targets = []
        for item in m.group("targets").split(","):
            im = _PARALLEL_ITEM_RE.match(item.strip())
            if not im:
                return [], f"bad parallel target {item.strip()!r}"
            targets.append(im.group("id"))
        if len(targets) < 2:
            return [], "parallel directive needs at least two targets"
        return [NextDirective("parallel", tuple(targets), line)], None
    m = _DIR_IF_RE.match(text)
    if m:
        question = m.group("question")
        directives = []
        labels_seen = set()
        for arm_text in _ARM_SPLIT_RE.split(m.group("arms")):
            am = _ARM_RE.match(arm_text.strip())
            if not am:
                return [], f"bad conditional arm {arm_text.strip()!r}"
            label = am.group("label")
            if label in labels_seen:
                return [], f"duplicate {label!r} arm"
            labels_seen.add(label)
            target = am.group("target")
            cond = Condition(question=question, label=label)
            sm = _ARM_STEP_RE.match(target)
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
    """
    lines = text.splitlines()
    diagnostics: list[ParseDiagnostic] = []
    tsg_id = ""
    title = ""
    header_seen = False
    incident_fields: list[str] = []
    inputs_seen = False
    preamble: list[tuple[int, str]] = []
    steps: list[TsgStep] = []
    first_line_of: dict[str, int] = {}
    query_names: dict[str, int] = {}

    current: TsgStep | None = None
    in_fence = False
    fence_name = ""
    fence_lang = ""
    fence_start = 0
    fence_lines: list[str] = []
    next_mode = False

    def body_of(line_no: int, raw: str) -> None:
        if current is not None:
            current.body.append((line_no, raw))
        else:
            preamble.append((line_no, raw))

    for line_no, raw in enumerate(lines, start=1):
        if in_fence:
            body_of(line_no, raw)
            if raw.startswith("```") and _FENCE_RE.match(raw):
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
                    current.query_blocks.append(
                        QueryBlock(fence_name, fence_lang, "\n".join(fence_lines), fence_start)
                    )
                fence_name = ""
                fence_lines = []
            else:
                fence_lines.append(raw)
            continue

        if raw[:1] not in _OVERLAY_FIRST_CHARS:
            next_mode = False
            body_of(line_no, raw)
            continue

        fm = _FENCE_RE.match(raw)
        if fm and raw.startswith("```"):
            in_fence = True
            fence_start = line_no
            fence_lines = []
            fence_name = ""
            fence_lang = ""
            info = fm.group("info").strip()
            im = _FENCE_INFO_RE.match(info)
            if im:
                fence_name = im.group("name")
                fence_lang = im.group("lang")
            next_mode = False
            body_of(line_no, raw)
            continue

        hm = _STEP_HEADER_RE.match(raw)
        if hm:
            step_id = hm.group("id")
            if step_id in first_line_of:
                raise DuplicateStepId(
                    f"step {step_id!r} redefined at line {line_no} "
                    f"(first defined at line {first_line_of[step_id]})"
                )
            first_line_of[step_id] = line_no
            current = TsgStep(id=step_id, title=hm.group("title"), line=line_no)
            steps.append(current)
            next_mode = False
            continue
        if _STEP_HEADER_PREFIX_RE.match(raw):
            diagnostics.append(
                ParseDiagnostic("malformed-header", line_no, f"step header not parseable: {raw!r}")
            )
            body_of(line_no, raw)
            next_mode = False
            continue

        if not header_seen and current is None:
            dm = _DOC_HEADER_RE.match(raw)
            if dm:
                header_seen = True
                tsg_id = dm.group("id")
                title = dm.group("title")
                continue

        if current is None and not inputs_seen:
            im = _INPUTS_RE.match(raw)
            if im:
                inputs_seen = True
                names, bad = _parse_name_list(im.group("names"))
                incident_fields = names
                for b in bad:
                    diagnostics.append(
                        ParseDiagnostic("bad-input-name", line_no, f"bad input name {b!r}")
                    )
                continue

        if next_mode:
            if raw.startswith("- "):
                body_of(line_no, raw)
                directives, err = _parse_directive(raw, line_no)
                if err:
                    diagnostics.append(
                        ParseDiagnostic("unparseable-directive", line_no, err)
                    )
                elif current is not None:
                    current.next_directives.extend(directives)
                continue
            next_mode = False

        if _NEXT_HEADING_RE.match(raw):
            next_mode = True
            body_of(line_no, raw)
            continue

        pm = _PRODUCES_RE.match(raw)
        if pm and current is not None:
            names, bad = _parse_name_list(pm.group("names"))
            current.produces.extend(names)
            for b in bad:
                diagnostics.append(
                    ParseDiagnostic("bad-produces-name", line_no, f"bad produces name {b!r}")
                )
            body_of(line_no, raw)
            continue

        tm = _TERMINATE_RE.match(raw)
        if tm and current is not None:
            if current.terminal_conclusion is None:
                current.terminal_conclusion = tm.group("conclusion")
            else:
                diagnostics.append(
                    ParseDiagnostic(
                        "duplicate-terminate", line_no, "step already has a Terminate: line"
                    )
                )
            body_of(line_no, raw)
            continue

        body_of(line_no, raw)

    if in_fence:
        diagnostics.append(
            ParseDiagnostic("unterminated-fence", fence_start, "code fence never closed")
        )
    if not header_seen:
        diagnostics.append(
            ParseDiagnostic("missing-document-header", 1, "no '# TSG:' header found")
        )
    if not steps:
        raise MissingEntryStep("document defines no steps")

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


def entry_step(doc: TsgDocument) -> str:
    """Id of the first step in source order."""
    if not doc.steps:
        raise MissingEntryStep("document defines no steps")
    return doc.steps[0].id


def serialize_tsg(doc: TsgDocument) -> str:
    """Render a TsgDocument back to conforming markdown.

    Body lines are emitted verbatim, so parse(serialize(parse(t))) is
    structurally identical to parse(t).
    """
    out = [f"# TSG: {doc.tsg_id} — {doc.title}"]
    if doc.incident_fields:
        out.append("Inputs: " + ", ".join(doc.incident_fields))
    out.extend(text for _, text in doc.preamble)
    for step in doc.steps:
        out.append(f"## Step {step.id}: {step.title}")
        out.extend(text for _, text in step.body)
    return "\n".join(out) + "\n"
