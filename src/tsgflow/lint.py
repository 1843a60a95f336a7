"""Deterministic quality checks over parsed TSG documents.

Rules, by category:

  CF-NEXT-MISSING   (error)   non-terminal step with no next directive
  CF-NEXT-DANGLING  (error)   directive target names no known step
  DF-INPUT-UNKNOWN  (error)   query placeholder with no declared source
  DI-HARDCODED-TIME (warning) literal time constant in a query line
  PS-TERMINATION-UNMARKED (error) last step with neither next nor Terminate
  PS-STEP-ORDER     (warning) step ids out of ascending order
  PS-PARSE          (error)   parse diagnostics surfaced as findings
  CP-UNQUANTIFIED   (warning) vague comparative condition with no threshold

A step with no directives and no Terminate is an unmarked termination point
when it is the last step in source order, and a missing-next-step defect
otherwise. Semantic clarity checks beyond these rules are delegated to an
optional external analyzer: a child process started for each request and
spoken to through linechild.LineChild, the client that
backends.ProcessBackend uses too. Its findings are reported under CP and are not part of
the deterministic contract; a child that cannot start, times out or answers
malformed findings raises AnalyzerFailed.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .document import TsgDocument, parse_tsg, read_utf8, step_id_key
from .errors import JSON_DECODE_ERRORS, TsgflowError
from .linechild import ChildTimeout, ChildUnavailable, LineChild
from .queryprep import scan_placeholders

# rule id -> severity; a rule's category is the prefix of its id
RULE_SEVERITY = {
    "CF-NEXT-MISSING": "error",
    "CF-NEXT-DANGLING": "error",
    "DF-INPUT-UNKNOWN": "error",
    "DI-HARDCODED-TIME": "warning",
    "PS-TERMINATION-UNMARKED": "error",
    "PS-STEP-ORDER": "warning",
    "PS-PARSE": "error",
    "CP-UNQUANTIFIED": "warning",
}


class LintError(TsgflowError):
    pass


class ManifestMissing(LintError):
    pass


class ManifestUnreadable(LintError):
    """A seeded-defect manifest that does not decode as JSON."""


class ManifestInvalid(ManifestUnreadable):
    """A seeded-defect manifest that is JSON but not a list of
    {"rule": str, "line": int} objects."""


class AnalyzerFailed(LintError):
    """The external analyzer could not start, timed out or answered something
    other than a JSON list of finding objects."""


@dataclass(frozen=True)
class LintFinding:
    rule: str
    category: str
    line: int
    message: str
    severity: str

    def render(self, file: str = "<doc>") -> str:
        return f"{file}:{self.line}: {self.rule} [{self.category}/{self.severity}] {self.message}"


def _category(rule: str) -> str:
    return rule.split("-", 1)[0]


def _finding(rule: str, line: int, message: str) -> LintFinding:
    return LintFinding(rule, _category(rule), line, message, RULE_SEVERITY[rule])


# an ago(<n><unit>) span or a datetime(...) literal
_TIME_CONSTANT_RE = re.compile(r"\bago\(\s*\d+(?:\.\d+)?\s*(?:ms|s|m|h|d)\s*\)|\bdatetime\([^)]*\)")
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
                    and not scan_placeholders(question)
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
                names = scan_placeholders(text)
                for name in names:
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
                if not names and _TIME_CONSTANT_RE.search(text):
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


def findings_to_json(findings: list[LintFinding]) -> str:
    """A JSON list of findings, each an object of LintFinding's fields in order."""
    return json.dumps([asdict(f) for f in findings], indent=2, ensure_ascii=False) + "\n"


class ExternalAnalyzer:
    """Optional judgment-based analyzer behind the line protocol.

    The child reads one JSON request {"tsg_id", "text"} per line and answers
    with a JSON list of {"rule", "line", "message", "severity"} findings; a
    finding's line is an int of at least 1, and 1 when it is absent.
    Findings land in the CP category and are excluded from the deterministic
    precision/recall contract.
    """

    def __init__(self, command: list[str]):
        self.command = command

    def findings(self, doc: TsgDocument) -> list[LintFinding]:
        """Findings of one request; AnalyzerFailed when the child cannot
        start, times out or answers something other than a list of findings.

        A child that exits non-zero or gives no or a blank answer contributes
        no findings.
        """
        request = json.dumps({"tsg_id": doc.tsg_id, "text": doc.source})
        child = LineChild(self.command)
        try:
            line = child.request(request)
        except (ChildUnavailable, ChildTimeout) as exc:
            raise AnalyzerFailed(f"analyzer {exc}") from exc
        finally:
            code = child.close()
        if code != 0 or line is None or not line.strip():
            return []
        try:
            answer = json.loads(line)
        except JSON_DECODE_ERRORS as exc:
            raise AnalyzerFailed(f"analyzer answer is not JSON: {line[:80]!r}") from exc
        if not isinstance(answer, list):
            raise AnalyzerFailed(f"analyzer answer is not a list: {line[:80]!r}")
        out = []
        for raw in answer:
            try:
                finding = LintFinding(
                    rule=raw.get("rule", "CP-EXTERNAL"),
                    category="CP",
                    line=raw.get("line", 1),
                    message=raw.get("message", ""),
                    severity=raw.get("severity", "warning"),
                )
            except AttributeError as exc:
                raise AnalyzerFailed(f"analyzer finding is malformed: {raw!r}") from exc
            if ({type(finding.rule), type(finding.message), type(finding.severity)} != {str}
                    or type(finding.line) is not int or finding.line < 1):
                raise AnalyzerFailed(f"analyzer finding is malformed: {raw!r}")
            out.append(finding)
        return out


# -- seeded-corpus evaluation -------------------------------------------------

MATCH_WINDOW = 5  # lines


@dataclass
class CategoryMetrics:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float | None:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else None

    @property
    def recall(self) -> float | None:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else None

    @property
    def f1(self) -> float | None:
        p, r = self.precision, self.recall
        if p is None or r is None or (p + r) == 0:
            return None
        return 2 * p * r / (p + r)


@dataclass
class LintEvaluation:
    documents: int
    seeded: int
    per_category: dict[str, CategoryMetrics] = field(default_factory=dict)
    aggregate: CategoryMetrics = field(default_factory=CategoryMetrics)


def _match_document(
    findings: list[LintFinding], manifest: list[dict], evaluation: LintEvaluation
) -> None:
    unmatched = list(findings)
    for entry in manifest:
        rule, line = entry["rule"], entry["line"]
        best = None
        for f in unmatched:
            if f.rule != rule or abs(f.line - line) > MATCH_WINDOW:
                continue
            if best is None or abs(f.line - line) < abs(best.line - line):
                best = f
        category = _category(rule) if rule in RULE_SEVERITY else "PS"
        metrics = evaluation.per_category.setdefault(category, CategoryMetrics())
        if best is not None:
            unmatched.remove(best)
            metrics.tp += 1
            evaluation.aggregate.tp += 1
        else:
            metrics.fn += 1
            evaluation.aggregate.fn += 1
    for f in unmatched:
        metrics = evaluation.per_category.setdefault(f.category, CategoryMetrics())
        metrics.fp += 1
        evaluation.aggregate.fp += 1


def _check_manifest(manifest, path: Path) -> None:
    """Raise ManifestInvalid naming `path` unless `manifest` is a list of
    {"rule": str, "line": int} objects (a bool is no line number)."""
    if not isinstance(manifest, list):
        raise ManifestInvalid(
            f"{path}: expected a list of seeded defects, got {type(manifest).__name__}")
    for i, entry in enumerate(manifest):
        if not (isinstance(entry, dict) and isinstance(entry.get("rule"), str)
                and isinstance(entry.get("line"), int) and not isinstance(entry["line"], bool)):
            raise ManifestInvalid(f'{path}: entry {i} is not a {{"rule": str, "line": int}} object: '
                                  f"{entry!r}")


def evaluate_lint(corpus_dir: str | Path) -> LintEvaluation:
    """Precision/recall/F1 of the rules against seeded-defect manifests.

    The corpus directory holds `<name>.md` documents with sidecar
    `<name>.manifest.json` files listing seeded {"rule", "line"} defects;
    a finding matches a seed of the same rule within +/-5 lines. Raises
    ManifestMissing for a document without a manifest, ManifestUnreadable
    for a manifest that is not JSON, ManifestInvalid for one that is not a
    list of {"rule": str, "line": int} objects and FileNotUtf8 for a guide
    or manifest that is not UTF-8.
    """
    corpus = Path(corpus_dir)
    docs = sorted(corpus.glob("*.md"))
    evaluation = LintEvaluation(documents=len(docs), seeded=0)
    for doc_path in docs:
        manifest_path = doc_path.with_name(doc_path.stem + ".manifest.json")
        if not manifest_path.exists():
            raise ManifestMissing(str(manifest_path))
        try:
            manifest = json.loads(read_utf8(manifest_path))
        except JSON_DECODE_ERRORS as exc:
            raise ManifestUnreadable(f"{manifest_path}: not valid JSON: {exc}") from None
        _check_manifest(manifest, manifest_path)
        evaluation.seeded += len(manifest)
        doc = parse_tsg(read_utf8(doc_path))
        _match_document(lint(doc), manifest, evaluation)
    return evaluation
