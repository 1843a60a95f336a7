r"""The overlay patterns and the placeholder scans as they were when every
payload pattern ended in a lazy ``(.+?)\s*$``, kept as the reference.

Below, unchanged, are the document line patterns, _split_arms,
_parse_directive and parse_tsg of that parser, the generator-based
iter_placeholders and scan_placeholders with extract_templates, and lint
with its two time-constant patterns. Only the record types, errors and the
helpers that did not change come from tsgflow. tests/overlay_check.py and
tests/test_overlay_equivalence.py compare the current code against them.
"""

from __future__ import annotations

import re

from tsgflow.document import (
    Condition,
    DuplicateStepId,
    MissingEntryStep,
    NextDirective,
    ParseDiagnostic,
    QueryBlock,
    TsgDocument,
    TsgStep,
    _parse_name_list,
    step_id_key,
)
from tsgflow.lint import LintFinding, _finding
from tsgflow.queryprep import DuplicateTemplateName, EmptyTemplate, QueryTemplate

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
_STEP_REF_RE = re.compile(r"^Step (?P<id>\d+(?:\.\d+)*)$")  # a parallel item or an arm's target
_ARM_TERMINATE_RE = re.compile(r"^Terminate\((?P<conclusion>.*)\)$")

_OVERLAY_FIRST_CHARS = frozenset("`#INPT-")


def _split_arms(arms: str) -> list[str]:
    """An If line's arms: its text cut at each ";" before a "Y ->" or "N ->",
    then each piece that is not a whole Terminate(...) arm cut again at every
    ";", so a conclusion keeps its ";" and an arm without an arrow stands alone."""
    out = []
    for piece in _ARM_SPLIT_RE.split(arms):
        am = _ARM_RE.match(piece.strip())
        out += [piece] if am and _ARM_TERMINATE_RE.match(am["target"]) else piece.split(";")
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
        for arm_text in _split_arms(m.group("arms")):
            am = _ARM_RE.match(arm_text.strip())
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
                    query = "\n".join(lines[fence_start:line_no - 1])
                    current.query_blocks.append(
                        QueryBlock(fence_name, fence_lang, query, fence_start)
                    )
                fence_name = ""
            continue

        first = raw[:1]
        if first not in _OVERLAY_FIRST_CHARS:
            next_mode = False
            continue

        # Each overlay form starts with a literal, so a pattern is tried only
        # on a line that starts with that literal.
        fm = first == "`" and _FENCE_RE.match(raw)
        if fm and raw.startswith("```"):
            in_fence = True
            fence_start = line_no
            fence_name = ""
            fence_lang = ""
            info = fm.group("info").strip()
            im = _FENCE_INFO_RE.match(info)
            if im:
                fence_name = im.group("name")
                fence_lang = im.group("lang")
            next_mode = False
            continue

        hm = first == "#" and _STEP_HEADER_RE.match(raw)
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
            next_mode = False
            continue
        if first == "#" and _STEP_HEADER_PREFIX_RE.match(raw):
            diagnostics.append(
                ParseDiagnostic("malformed-header", line_no, f"step header not parseable: {raw!r}")
            )
            next_mode = False
            continue

        if first == "#" and not header_line and current is None:
            dm = _DOC_HEADER_RE.match(raw)
            if dm:
                header_line = line_no
                tsg_id = dm.group("id")
                title = dm.group("title")
                continue

        if first == "I" and current is None and not inputs_line:
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

        if next_mode:
            if raw.startswith("- "):
                directives, err = _parse_directive(raw, line_no)
                if err:
                    diagnostics.append(
                        ParseDiagnostic("unparseable-directive", line_no, err)
                    )
                elif current is not None:
                    current.next_directives.extend(directives)
                continue
            next_mode = False

        if first == "N" and _NEXT_HEADING_RE.match(raw):
            next_mode = True
            continue

        pm = first == "P" and _PRODUCES_RE.match(raw)
        if pm and current is not None:
            names, bad = _parse_name_list(pm.group("names"))
            current.produces.extend(names)
            for b in bad:
                diagnostics.append(
                    ParseDiagnostic("bad-produces-name", line_no, f"bad produces name {b!r}")
                )
            continue

        tm = first == "T" and _TERMINATE_RE.match(raw)
        if tm and current is not None:
            if current.terminal_conclusion is None:
                current.terminal_conclusion = tm.group("conclusion")
            else:
                diagnostics.append(
                    ParseDiagnostic(
                        "duplicate-terminate", line_no, "step already has a Terminate: line"
                    )
                )

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



_TOKEN_RE = re.compile(r"\{\{|\}\}|\{(?P<name>[A-Za-z][A-Za-z0-9_]*)\}")


def iter_placeholders(text: str):
    """Yield (name, start, end) for each placeholder marker, skipping escapes."""
    for m in _TOKEN_RE.finditer(text):
        if m.group(0) in ("{{", "}}"):
            continue
        yield m.group("name"), m.start(), m.end()


def scan_placeholders(text: str) -> list[str]:
    """Ordered, de-duplicated placeholder names in a template."""
    return list(dict.fromkeys(name for name, _, _ in iter_placeholders(text)))


def extract_templates(doc: TsgDocument) -> list[QueryTemplate]:
    """One QueryTemplate per named query block, in document order."""
    templates: list[QueryTemplate] = []
    seen: set[str] = set()
    for step in doc.steps:
        for block in step.query_blocks:
            if block.name in seen:
                raise DuplicateTemplateName(block.name)
            seen.add(block.name)
            if not block.text.strip():
                raise EmptyTemplate(f"{block.name} (line {block.line})")
            templates.append(
                QueryTemplate(
                    name=block.name,
                    language_tag=block.language,
                    text=block.text,
                    placeholders=tuple(scan_placeholders(block.text)),
                    origin=(doc.tsg_id, step.id, block.line),
                )
            )
    return templates



_AGO_RE = re.compile(r"\bago\(\s*\d+(?:\.\d+)?\s*(?:ms|s|m|h|d)\s*\)")
_DATETIME_RE = re.compile(r"\bdatetime\([^)]*\)")
_VAGUE_RE = re.compile(r"\b(high|low|many|few|significant|large|small)\b", re.IGNORECASE)
_DIGIT_RE = re.compile(r"\d")


def lint(doc: TsgDocument, analyzer: "ExternalAnalyzer | None" = None) -> list[LintFinding]:
    """Evaluate every rule; findings sorted by (line, rule id)."""
    findings: list[LintFinding] = []
    known = set(doc.step_ids())

    for diag in doc.diagnostics:
        if diag.code == "dangling-target":
            continue  # reported by CF-NEXT-DANGLING with the same line
        findings.append(_finding("PS-PARSE", diag.line, f"{diag.code}: {diag.message}"))

    produced_before: set[str] = set(doc.incident_fields)
    prev_key = None
    for idx, step in enumerate(doc.steps):
        last = idx == len(doc.steps) - 1

        if not step.next_directives and step.terminal_conclusion is None:
            if last:
                findings.append(
                    _finding(
                        "PS-TERMINATION-UNMARKED",
                        step.line,
                        f"step {step.id} ends the guide without a marked termination point",
                    )
                )
            else:
                findings.append(
                    _finding(
                        "CF-NEXT-MISSING",
                        step.line,
                        f"step {step.id} has no next step and no termination",
                    )
                )

        questions_seen: set[tuple[int, str]] = set()
        for directive in step.next_directives:
            for target in directive.targets:
                if target not in known:
                    findings.append(
                        _finding(
                            "CF-NEXT-DANGLING",
                            directive.line,
                            f"step {step.id} points at unknown step {target!r}",
                        )
                    )
            if directive.condition is not None:
                question = directive.condition.question
                if (directive.line, question) in questions_seen:
                    continue  # both arms of one If line share the question
                questions_seen.add((directive.line, question))
                if (
                    _VAGUE_RE.search(question)
                    and not _DIGIT_RE.search(question)
                    and next(iter_placeholders(question), None) is None
                ):
                    word = _VAGUE_RE.search(question).group(0)
                    findings.append(
                        _finding(
                            "CP-UNQUANTIFIED",
                            directive.line,
                            f"condition uses {word!r} with no numeric threshold",
                        )
                    )

        key = step_id_key(step.id)
        if prev_key is not None and key <= prev_key:
            findings.append(
                _finding(
                    "PS-STEP-ORDER",
                    step.line,
                    f"step {step.id} appears after a later-numbered step",
                )
            )
        prev_key = max(prev_key, key) if prev_key is not None else key

        for block in step.query_blocks:
            block_lines = block.text.splitlines()
            reported: set[str] = set()
            for offset, text in enumerate(block_lines):
                line_no = block.line + 1 + offset
                has_placeholder = False
                for name, _, _ in iter_placeholders(text):
                    has_placeholder = True
                    if name in produced_before or name in reported:
                        continue
                    reported.add(name)
                    findings.append(
                        _finding(
                            "DF-INPUT-UNKNOWN",
                            line_no,
                            f"placeholder {{{name}}} is neither an incident field nor "
                            "produced by an earlier step",
                        )
                    )
                if not has_placeholder and (
                    _AGO_RE.search(text) or _DATETIME_RE.search(text)
                ):
                    findings.append(
                        _finding(
                            "DI-HARDCODED-TIME",
                            line_no,
                            "query line hardcodes a time constant instead of a placeholder",
                        )
                    )

        produced_before.update(step.produces)

    if analyzer is not None:
        findings.extend(analyzer.findings(doc))

    findings.sort(key=lambda f: (f.line, f.rule))
    return findings
