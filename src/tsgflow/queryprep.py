"""Query templates: extraction from TSG query blocks and strict substitution.

Placeholders are ``{identifier}`` markers (identifier = letter followed by
letters, digits or underscores). ``{{`` and ``}}`` are escapes for literal
braces; they pass through extraction and preparation byte-identically and
are never treated as placeholders, so re-scanning a prepared query always
yields an empty placeholder set.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone

from .document import TsgDocument


class TemplateError(Exception):
    pass


class DuplicateTemplateName(TemplateError):
    pass


class EmptyTemplate(TemplateError):
    pass


class MissingParameter(TemplateError):
    def __init__(self, name: str):
        super().__init__(f"missing parameter {name!r}")
        self.name = name


class UnknownParameter(TemplateError):
    def __init__(self, name: str):
        super().__init__(f"unknown parameter {name!r} (not a template placeholder)")
        self.name = name


class UnrenderableValue(TemplateError):
    pass


class ManifestInvalid(TemplateError):
    pass


_TOKEN_RE = re.compile(r"\{\{|\}\}|\{(?P<name>[A-Za-z][A-Za-z0-9_]*)\}")


def iter_placeholders(text: str):
    """Yield (name, start, end) for each placeholder marker, skipping escapes."""
    for m in _TOKEN_RE.finditer(text):
        if m.group(0) in ("{{", "}}"):
            continue
        yield m.group("name"), m.start(), m.end()


def scan_placeholders(text: str) -> list[str]:
    """Ordered, de-duplicated placeholder names in a template."""
    seen: list[str] = []
    for name, _, _ in iter_placeholders(text):
        if name not in seen:
            seen.append(name)
    return seen


@dataclass(frozen=True)
class QueryTemplate:
    name: str
    language_tag: str
    text: str
    placeholders: tuple[str, ...]
    origin: tuple[str, str, int] | None = None  # (tsg_id, step id, line)


@dataclass(frozen=True)
class PreparedQuery:
    template_name: str
    text: str
    bindings: dict[str, str]


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


def render_param(value) -> str:
    """Canonical text for a parameter value.

    Strings pass through verbatim (quoting belongs to the template), bools
    render as true/false, numbers in decimal form, datetimes as ISO-8601
    UTC, lists as comma-joined renderings of their items.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, datetime):
        if value.tzinfo is None:
            value = value.replace(tzinfo=timezone.utc)
        return value.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")
    if isinstance(value, (list, tuple)):
        return ", ".join(render_param(v) for v in value)
    raise UnrenderableValue(f"no text rendering for {type(value).__name__}")


def prepare_query(template: QueryTemplate, params: dict) -> PreparedQuery:
    """Substitute every placeholder; reject missing and unknown parameters."""
    placeholder_set = set(template.placeholders)
    for name in params:
        if name not in placeholder_set:
            raise UnknownParameter(name)
    for name in template.placeholders:
        if name not in params:
            raise MissingParameter(name)

    bindings = {name: render_param(params[name]) for name in template.placeholders}
    pieces: list[str] = []
    cursor = 0
    for name, start, end in iter_placeholders(template.text):
        pieces.append(template.text[cursor:start])
        pieces.append(bindings[name])
        cursor = end
    pieces.append(template.text[cursor:])
    return PreparedQuery(template_name=template.name, text="".join(pieces), bindings=bindings)


def dump_manifest(tsg_id: str, templates: list[QueryTemplate]) -> str:
    """Byte-stable QPP manifest JSON, templates sorted by name."""
    obj = {
        "tsg_id": tsg_id,
        "templates": [
            {
                "name": t.name,
                "language": t.language_tag,
                "placeholders": list(t.placeholders),
                "text": t.text,
            }
            for t in sorted(templates, key=lambda t: t.name)
        ],
    }
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def load_manifest(text: str, source: str = "manifest") -> tuple[str, list[QueryTemplate]]:
    """Read a manifest as dump_manifest writes it. Raises ManifestInvalid,
    naming `source` and the first part at fault, for text that is not JSON,
    a template that is not an object with a string name and text, or a
    placeholder list that is not the placeholders of its template's text."""

    def bad(what: str):
        raise ManifestInvalid(f"{source}: {what}")

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestInvalid(f"{source}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("templates", []), list):
        bad("top level must be an object with a templates array")
    if not isinstance(obj.get("tsg_id", ""), str):
        bad("tsg_id must be a string")
    templates = []
    for i, raw in enumerate(obj.get("templates", [])):
        if not (isinstance(raw, dict) and isinstance(raw.get("name"), str)
                and isinstance(raw.get("text"), str)):
            bad(f"templates[{i}] must be an object with a string name and text")
        if not isinstance(raw.get("language", ""), str):
            bad(f"templates[{i}].language must be a string")
        found = scan_placeholders(raw["text"])
        placeholders = raw.get("placeholders", found)
        if not (
            isinstance(placeholders, list)
            and all(isinstance(name, str) for name in placeholders)
            and sorted(placeholders) == sorted(found)
        ):
            bad(f"templates[{i}].placeholders must list the placeholders of its text")
        templates.append(
            QueryTemplate(
                name=raw["name"],
                language_tag=raw.get("language", ""),
                text=raw["text"],
                placeholders=tuple(placeholders),
            )
        )
    return obj.get("tsg_id", ""), templates
