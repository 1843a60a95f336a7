from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import build_qpp_corpus
from tsgflow.document import parse_tsg
from tsgflow.memory import format_timestamp
from tsgflow.queryprep import (
    DuplicateTemplateName,
    EmptyTemplate,
    ManifestInvalid,
    MissingParameter,
    PreparedQuery,
    QueryTemplate,
    UnknownParameter,
    UnrenderableValue,
    TemplateError,
    _TOKEN_RE,
    dump_manifest,
    extract_templates,
    load_manifest,
    prepare_query,
    render_param,
    scan_placeholders,
)


def _template(text, name="t", language="kql"):
    return QueryTemplate(name, language, text, tuple(scan_placeholders(text)))


def test_ring_example():
    tmpl = _template("Events\n| where DeployRing == '{ring}'\n| take 5")
    assert tmpl.placeholders == ("ring",)
    prepared = prepare_query(tmpl, {"ring": "test"})
    assert "| where DeployRing == 'test'" in prepared.text
    assert prepared.bindings == {"ring": "test"}


def test_zero_placeholder_identity():
    tmpl = _template("print 1")
    assert tmpl.placeholders == ()
    assert prepare_query(tmpl, {}).text == "print 1"


def test_escaped_braces_pass_through():
    tmpl = _template("{{literal}} and {start_time}")
    assert tmpl.placeholders == ("start_time",)
    prepared = prepare_query(tmpl, {"start_time": "now"})
    assert prepared.text == "{{literal}} and now"
    assert scan_placeholders(prepared.text) == []


def test_missing_parameter():
    tmpl = _template("{a} {b}")
    with pytest.raises(MissingParameter) as exc:
        prepare_query(tmpl, {"a": "x"})
    assert exc.value.name == "b"


def test_unknown_parameter_rejected():
    tmpl = _template("{a}")
    with pytest.raises(UnknownParameter):
        prepare_query(tmpl, {"a": "x", "typo": "y"})


def test_render_param_kinds():
    assert render_param("as-is") == "as-is"
    assert render_param(7) == "7"
    assert render_param(2.5) == "2.5"
    assert render_param(True) == "true"
    assert render_param(datetime(2026, 3, 1, 4, 0, tzinfo=timezone.utc)) == "2026-03-01T04:00:00Z"
    assert render_param([1, 2, "x"]) == "1, 2, x"
    with pytest.raises(UnrenderableValue):
        render_param({"not": "renderable"})


_SCALARS = (st.text() | st.booleans() | st.integers() | st.floats()
            | st.datetimes(timezones=st.none() | st.timezones()))


@given(st.lists(_SCALARS, max_size=3) | _SCALARS)
def test_render_param_spells_scalars_as_their_kind_does(value):
    """Text as is, bools as true/false, numbers as repr (str of an int or a
    float is its repr), datetimes as format_timestamp; a list joins its items."""
    def spelled(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, datetime):
            return format_timestamp(x)
        return x if isinstance(x, str) else repr(x)

    expected = ", ".join(map(spelled, value)) if isinstance(value, list) else spelled(value)
    assert render_param(value) == expected
    assert render_param(tuple(value) if isinstance(value, list) else value) == expected


@pytest.mark.parametrize("value", [None, {"a": 1}, {1}, b"x", 1j, [1, None]])
def test_render_param_refuses_what_is_not_a_scalar_or_a_list(value):
    with pytest.raises(UnrenderableValue, match=r"^no text rendering for "):
        render_param(value)


def test_extract_templates_in_document_order(fig4_bundle):
    templates = extract_templates(fig4_bundle.doc)
    assert [t.name for t in templates] == ["top_exceptions", "full_stack"]
    assert templates[0].placeholders == ("service", "ring", "start_time", "end_time")
    assert templates[0].origin == ("availability-drop", "1", 14)


def test_extract_rejects_duplicates_and_empty():
    dup = """# TSG: q — Dup

## Step 1: A
```kql name=same
print 1
```
```kql name=same
print 2
```
Terminate: x
"""
    with pytest.raises(DuplicateTemplateName):
        extract_templates(parse_tsg(dup))

    empty = """# TSG: q — Empty

## Step 1: A
```kql name=void
```
Terminate: x
"""
    with pytest.raises(EmptyTemplate):
        extract_templates(parse_tsg(empty))


def test_manifest_roundtrip(fig4_bundle):
    templates = extract_templates(fig4_bundle.doc)
    text = dump_manifest(fig4_bundle.doc.tsg_id, templates)
    tsg_id, loaded = load_manifest(text)
    assert tsg_id == "availability-drop"
    assert [t.name for t in loaded] == sorted(t.name for t in templates)
    assert dump_manifest(tsg_id, loaded) == text


@pytest.mark.parametrize("text,message", [
    ("{not json", "not valid JSON"),
    ("[]", "top level must be an object with a templates array"),
    ('{"templates": {}}', "top level must be an object with a templates array"),
    ('{"tsg_id": 1, "templates": []}', "tsg_id must be a string"),
    ('{"templates": ["q"]}', "templates[0] must be an object with a string name and text"),
    ('{"templates": [{"name": "q"}]}', "templates[0] must be an object with a string name and text"),
    ('{"templates": [{"name": "q", "text": "x", "language": 3}]}',
     "templates[0].language must be a string"),
    ('{"templates": [{"name": "q", "text": "{a} {b}", "placeholders": ["a"]}]}',
     "templates[0].placeholders must list the placeholders of its text"),
    ('{"templates": [{"name": "q", "text": "{a}", "placeholders": "a"}]}',
     "templates[0].placeholders must list the placeholders of its text"),
])
def test_load_manifest_names_the_fault(text, message):
    with pytest.raises(ManifestInvalid) as exc:
        load_manifest(text, "qpp.json")
    assert str(exc.value).startswith(f"qpp.json: {message}")


def test_corpus_extraction_and_instantiation():
    """Desk-scale extraction fidelity: 96 generated templates, all golden."""
    corpus = build_qpp_corpus()
    n_templates = 0
    for doc_spec in corpus:
        doc = parse_tsg(doc_spec.text)
        extracted = {t.name: t for t in extract_templates(doc)}
        for golden in doc_spec.templates:
            n_templates += 1
            tmpl = extracted[golden.name]
            assert _normalize(tmpl.text) == _normalize(golden.text)
            assert list(tmpl.placeholders) == golden.params
            prepared = prepare_query(tmpl, dict(golden.bindings))
            assert prepared.text == golden.prepared  # byte-exact
    assert n_templates >= 86


def _normalize(text: str) -> str:
    return "\n".join(" ".join(line.split()) for line in text.strip().splitlines())


_literal = st.text(
    alphabet=st.characters(blacklist_characters="{}", blacklist_categories=("Cs",)),
    max_size=20,
)
_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), min_size=1, max_size=5, unique=True
)


@given(_names, st.data())
def test_substitution_locality(names, data):
    pieces = []
    for name in names:
        pieces.append(data.draw(_literal))
        pieces.append("{" + name + "}")
    pieces.append(data.draw(_literal))
    text = "".join(pieces)
    tmpl = _template(text)
    params = {n: f"<{n}>" for n in tmpl.placeholders}
    prepared = prepare_query(tmpl, params)
    rebuilt = []
    for i, name in enumerate(names):
        rebuilt.append(pieces[2 * i])
        rebuilt.append(f"<{name}>")
    rebuilt.append(pieces[-1])
    assert prepared.text == "".join(rebuilt)
    assert scan_placeholders(prepared.text) == []


def test_extraction_determinism():
    corpus = build_qpp_corpus(n_docs=2)
    for doc_spec in corpus:
        a = extract_templates(parse_tsg(doc_spec.text))
        b = extract_templates(parse_tsg(doc_spec.text))
        assert a == b


def test_prepared_query_is_frozen_record():
    prepared = PreparedQuery("t", "text", {"a": "1"})
    with pytest.raises(Exception):
        prepared.text = "other"


def iter_placeholders(text: str):
    """Yield (name, start, end) for each placeholder marker, skipping escapes."""
    for m in _TOKEN_RE.finditer(text):
        if m.group(0) in ("{{", "}}"):
            continue
        yield m.group("name"), m.start(), m.end()


def cursor_loop_prepare(template: QueryTemplate, params: dict) -> PreparedQuery:
    """prepare_query as it was before it substituted through the tokenizer:
    the text between placeholders copied by hand with a cursor."""
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


# escapes, placeholders side by side and repeated, and braces that are neither
_TEMPLATE_PIECES = st.sampled_from(
    ["{{", "}}", "{", "}", "{a}", "{b}", "{a_1}", "{{a}}", "{a}{a}", "{1}", "{a", "a}", "{ a}",
     "}{", "{{{", "}}}", " ", "\n", "x", "caf\u00e9", "\u2028"])
_PARAM_VALUES = _SCALARS | st.lists(_SCALARS, max_size=3) | st.tuples(_SCALARS, _SCALARS)


def _outcome(prepare, template, params):
    try:
        return prepare(template, params)
    except (TemplateError, KeyError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEMPLATE_PIECES, max_size=12).map("".join), st.data())
def test_prepare_query_equals_the_cursor_loop(text, data):
    """The tokenizer's substitution gives the cursor loop's text, bindings and
    errors, for every parameter kind, a parameter left out or one too many,
    and a hand-built template whose placeholder list misses a name."""
    found = scan_placeholders(text)
    placeholders = data.draw(st.sampled_from([found, found[1:]]))
    template = QueryTemplate("t", "kql", text, tuple(placeholders))
    names = data.draw(st.lists(st.sampled_from([*found, "zz"]), unique=True)
                      | st.just(placeholders))
    params = {name: data.draw(_PARAM_VALUES) for name in names}
    assert _outcome(prepare_query, template, params) == _outcome(cursor_loop_prepare, template,
                                                                 params)
