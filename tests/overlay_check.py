"""Compare the overlay patterns and placeholder scans with their lazy-form
reference (tests/overlay_reference.py) on line and document soups.

The soups mix the pieces the patterns turn on: ASCII and Unicode spaces,
":", ";", ",", "->", "Y"/"N", "Terminate(", ")", step references, brace
escapes and placeholders, after the literal that starts each overlay form,
and payloads that are nothing but spaces. Standard library only, so it
also runs where pytest is missing; tests/test_overlay_equivalence.py draws
from the same pieces with hypothesis.

    PYTHONPATH=src:tests python tests/overlay_check.py [--seed N] [--lines N] [--documents N]

prints the number of lines and documents compared, and each difference
found, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import asdict

import overlay_reference as ref
from tsgflow import document
from tsgflow.document import TsgParseError, _parse_directive, _split_arms, parse_tsg
from tsgflow.lint import lint
from tsgflow.queryprep import TemplateError, extract_templates, scan_placeholders

# (name, reference pattern, current pattern) for every payload pattern
PATTERN_PAIRS = [
    (name, getattr(ref, name), getattr(document, name))
    for name in (
        "_DOC_HEADER_RE", "_STEP_HEADER_RE", "_INPUTS_RE", "_PRODUCES_RE", "_TERMINATE_RE",
        "_FENCE_RE", "_DIR_PARALLEL_RE", "_DIR_IF_RE", "_DIR_TERMINATE_RE", "_ARM_RE",
    )
]

# the literal that starts each line form, and a few near misses
PREFIXES = [
    "", "# TSG: ", "# TSG: soup — ", "# TSG: a —", "## Step 1: ", "## Step 1.2:", "## Step x: ",
    "Inputs:", "Inputs: ", "Produces:", "Produces: ", "Terminate:", "Terminate: ", "Next:",
    "```", "``` ", "```kql name=", "- Step ", "- Step 1.2", "- Parallel:", "- Parallel: ",
    "- If ", "- If q: ", "- If q: Y -> ", "- Terminate:", "- Terminate: ", "Y -> ", "N ->",
]
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000"]
PIECES = SPACES + [
    ":", ";", ",", "->", " -> ", "Y", "N", "Terminate(", ")", "(", "Step 1.2", "Step 2",
    "Step ", "1", ".", "{{", "}}", "{name}", "{x1}", "{", "}", "x", "q", "\u2014", "\xe9", "name=",
    "ago(1h)", "datetime(2026-01-01)", "high", "7",
]
# line breaks str.splitlines cuts at, so no line of a parsed document holds
# one; the patterns and _parse_directive are compared on them all the same
BREAKS = ["\n", "\r"]


def _spaces(rng: random.Random, most: int = 2) -> str:
    return "".join(rng.choice(SPACES) for _ in range(rng.randint(0, most)))


def _soup(rng: random.Random, most: int) -> str:
    return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, most)))


def _target(rng: random.Random) -> str:
    """A step reference or a Terminate(...) arm target, now and then a near miss."""
    if rng.random() < 0.8:
        return rng.choice([f"Step {rng.randint(1, 3)}", f"Step 1.{rng.randint(1, 3)}",
                           f"Terminate({_soup(rng, 3)})"])
    return rng.choice(["Step 2.", "Step x", "step 2", "Terminate(done", _soup(rng, 2)])


def directive_line(rng: random.Random) -> str:
    """A Parallel: or If line close to well formed: items and arms that are
    mostly right, spaces around every part, and now and then a piece
    missing, repeated or out of place."""
    if rng.random() < 0.5:
        items = [_spaces(rng) + _target(rng) + _spaces(rng) for _ in range(rng.randint(1, 4))]
        return "- Parallel:" + _spaces(rng) + rng.choice([",", ", ", ",,"]).join(items) + _spaces(rng)
    arms = [rng.choice(["Y", "N", "Y", "N", "x", ""]) + _spaces(rng) + rng.choice(["->", "->", "-"])
            + _spaces(rng) + _target(rng) for _ in range(rng.randint(1, 3))]
    question = rng.choice(["q", "high load", "errors above 5", "{name} is high", "a: b"]) + _soup(rng, 2)
    return ("- If " + question + ":" + _spaces(rng) + rng.choice([";", "; ", ";\u3000"]).join(arms)
            + _spaces(rng))


def soup_line(rng: random.Random) -> str:
    """An overlay prefix, then pieces, then a run of spaces; or a prefix and
    spaces alone; or a directive line close to well formed."""
    if rng.random() < 0.2:
        return directive_line(rng)
    line = rng.choice(PREFIXES)
    if rng.random() < 0.2:
        return line + "".join(rng.choice(SPACES) for _ in range(rng.randint(0, 3)))
    line += "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))
    if rng.random() < 0.05:
        line += rng.choice(BREAKS) + "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 3)))
    return line + "".join(rng.choice(SPACES) for _ in range(rng.choice([0, 0, 1, 2])))


def _match_view(m):
    return m and (m.span(), m.groups())


def _arm_view(m):
    return m and (m.string, _match_view(m))


def line_differences(line: str, pairs=PATTERN_PAIRS) -> list[str]:
    """Where the current code reads `line` otherwise than the reference:
    each pattern pair's match, span and groups; _parse_directive's
    directives and error text; _split_arms' pieces and arm matches; and
    the placeholder names of scan_placeholders."""
    out = []
    for name, old, new in pairs:
        want, got = _match_view(old.match(line)), _match_view(new.match(line))
        if want != got:
            out.append(f"{name} on {line!r}: {want!r} != {got!r}")
    want, got = ref._parse_directive(line, 7), _parse_directive(line, 7)
    if want != got:
        out.append(f"_parse_directive on {line!r}: {want!r} != {got!r}")
    pieces = _split_arms(line)
    want = ref._split_arms(line)
    if [piece for piece, _ in pieces] != want:
        out.append(f"_split_arms on {line!r}: {want!r} != {pieces!r}")
    else:
        for piece, am in pieces:
            old = ref._ARM_RE.match(piece.strip())
            if _arm_view(old) != _arm_view(am):
                out.append(f"arm {piece!r} of {line!r}: {_arm_view(old)!r} != {_arm_view(am)!r}")
    want, got = ref.scan_placeholders(line), scan_placeholders(line)
    if want != got:
        out.append(f"scan_placeholders on {line!r}: {want!r} != {got!r}")
    return out


def soup_document(rng: random.Random) -> str:
    """A guide whose overlay lines, query lines and If questions are soups.
    Its preamble mixes the header and Inputs: lines with Next: and
    directives, which a header or Inputs: line does not end."""
    preamble = [rng.choice(["# TSG: soup \u2014 Soup guide", soup_line(rng)]),
                rng.choice(["Inputs: name, x1", soup_line(rng)]),
                "Next:", "- Step 1", rng.choice(["- nothing", directive_line(rng)])]
    out = rng.sample(preamble, rng.randint(2, len(preamble)))
    for i in range(1, rng.randint(2, 6)):
        out.append(rng.choice([f"## Step {i}: Step {i}", f"## Step {i}:" + soup_line(rng)]))
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.3:
                out.append(rng.choice(["```kql name=q", "``` kql name=q"]) + f"{i}" + rng.choice(SPACES))
                out += [soup_line(rng).lstrip("`") for _ in range(rng.randint(0, 3))]
                out.append("```" + rng.choice(["", " ", "\xa0"]))
            elif kind < 0.6:
                out.append("Next:")
                out += ["- " + soup_line(rng).lstrip("- ") for _ in range(rng.randint(1, 3))]
                question = rng.choice(["high load", "high {name}", "few {{x}}", "low 5", "ok"])
                out.append(rng.choice([f"- Step {i + 1}", f"- If {question}: Y -> Step {i + 1}"]))
            else:
                out.append(soup_line(rng))
    return "\n".join(out) + "\n"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (TsgParseError, TemplateError) as exc:
        return type(exc), str(exc)


def document_differences(text: str) -> list[str]:
    """Where parse_tsg, lint or extract_templates read `text` otherwise than
    the reference."""
    want, doc = _outcome(ref.parse_tsg, text), _outcome(parse_tsg, text)
    if want != doc:
        return [f"parse_tsg on {text!r}: {want!r} != {doc!r}"]
    if isinstance(doc, tuple):
        return []
    out = []
    want, got = [asdict(f) for f in ref.lint(doc)], [asdict(f) for f in lint(doc)]
    if want != got:
        out.append(f"lint on {text!r}: {want!r} != {got!r}")
    want, got = _outcome(ref.extract_templates, doc), _outcome(extract_templates, doc)
    if want != got:
        out.append(f"extract_templates on {text!r}: {want!r} != {got!r}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--lines", type=int, default=5000)
    ap.add_argument("--documents", type=int, default=300)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    found = []
    for _ in range(args.lines):
        found += line_differences(soup_line(rng))
    for _ in range(args.documents):
        found += document_differences(soup_document(rng))
    for difference in found[:20]:
        print(difference)
    print(f"{args.lines} lines and {args.documents} documents compared, "
          f"{len(found)} differences, Python {sys.version.split()[0]}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
