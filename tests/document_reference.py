"""parse_tsg and serialize_tsg as they were when every body line was
stored as its own (line_no, raw) tuple, kept as the reference.

The bodies below are that code, unchanged; the types, patterns and line
helpers come from tsgflow.document. tests/test_document_spans.py checks
the parser that records each step's body as a span of the document's lines
against them.
"""

from __future__ import annotations

from tsgflow.document import (
    _DOC_HEADER_RE,
    _FENCE_INFO_RE,
    _FENCE_RE,
    _INPUTS_RE,
    _NEXT_HEADING_RE,
    _OVERLAY_FIRST_CHARS,
    _PRODUCES_RE,
    _STEP_HEADER_PREFIX_RE,
    _STEP_HEADER_RE,
    _TERMINATE_RE,
    DuplicateStepId,
    MissingEntryStep,
    ParseDiagnostic,
    QueryBlock,
    TsgDocument,
    TsgStep,
    _parse_directive,
    _parse_name_list,
)


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
