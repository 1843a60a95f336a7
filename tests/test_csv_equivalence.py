"""table_from_csv against the csv.reader-only decoder it replaced.

tests/csv_reference.py holds that decoder unchanged. For every input the two
give an equal Table or the same ragged-row message; where the reference
raised a bare ValueError for a cell that does not decode, or csv.Error for
a field over csv.field_size_limit(), table_from_csv raises InvalidValue
naming the row.
"""

from __future__ import annotations

import csv
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import csv_reference
from conftest import BUNDLES
from test_memory import _csv_tables
from tsgflow.memory import (
    COLUMN_TYPES,
    CSV_CHUNK_ROWS,
    InvalidValue,
    Table,
    _is_plain,
    table_from_csv,
)

_DECODE_ERROR = re.compile(r"^row (\d+), column '(.*)': ")


def _outcome(decode, text: str):
    try:
        return Table, decode(text)
    except InvalidValue as exc:
        return InvalidValue, str(exc)
    except ValueError:  # the reference's bare decode error; csv.Error is not one
        return ValueError, None


def assert_matches_reference(text: str) -> None:
    want = _outcome(csv_reference.table_from_csv, text)
    got = _outcome(table_from_csv, text)
    if want[0] is ValueError:
        same = got[0] is InvalidValue and _DECODE_ERROR.match(got[1])
    else:
        same = got == want
    # pytest.fail, not assert: diffing two large tables would take minutes
    if not same:
        pytest.fail(f"{got[0].__name__} from {text[:300]!r}... ({len(text)} chars), "
                    f"reference gave {want[0].__name__}: {str(got[1])[:300]}")


# Plain cells: no quote, carriage return, NUL, comma or newline, but spaces,
# empty cells and non-ASCII text (including characters str.splitlines would
# break a line at).
_PLAIN_TEXT = st.one_of(
    st.text(st.characters(blacklist_characters='",\r\n\0'), max_size=8),
    st.sampled_from(["", " ", "  padded ", "naïve", "日本語", "\x0b\x0c\x1c\x85 ", "#"]),
)
_PLAIN_CELLS = {
    "text": _PLAIN_TEXT,
    "integer": st.one_of(st.integers(-(2**70), 2**70).map(str), st.just(" 7 ")),
    "decimal": st.one_of(st.floats(allow_nan=False).map(repr), st.just("1e3")),
    "boolean": st.sampled_from([" True ", "FALSE", "true", "no", ""]),
    "timestamp": st.datetimes(
        min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1),
        timezones=st.sampled_from([timezone.utc, None]),
    ).map(lambda d: d.isoformat().replace("+00:00", "Z")),
}
_BAD_CELLS = {"integer": "1.5", "decimal": "one", "timestamp": "soon"}


@st.composite
def _plain_texts(draw):
    types = draw(st.lists(st.sampled_from(COLUMN_TYPES), min_size=1, max_size=4))
    distinct = draw(st.lists(st.tuples(*(_PLAIN_CELLS[t] for t in types)), min_size=1, max_size=5))
    n = draw(st.one_of(
        st.integers(0, 12),
        st.sampled_from([CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                         2 * CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS + 1]),
    ))
    rows = [list(distinct[i % len(distinct)]) for i in range(n)]
    if rows and draw(st.booleans()):  # a ragged row
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.append(draw(_PLAIN_TEXT))
        else:
            row.pop()
    if rows and draw(st.integers(0, 4)) == 0:  # a cell that does not decode
        col = draw(st.integers(0, len(types) - 1))
        if types[col] in _BAD_CELLS:
            row = rows[draw(st.integers(0, n - 1))]
            if col < len(row):
                row[col] = _BAD_CELLS[types[col]]
    header = [draw(_PLAIN_TEXT) or f"c{i}" for i in range(len(types))]
    lines = [",".join(header), ",".join(types)] + [",".join(row) for row in rows]
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(_plain_texts())
def test_plain_texts_match_the_reference(text):
    # only a blank line (a row of one empty cell) keeps these texts off the plain path;
    # the operands are named so that a failure does not diff the whole text
    blank_line = "\n\n" in text or text.startswith("\n")
    assert _is_plain(text) is not blank_line
    assert_matches_reference(text)


@seed(20261018)
@settings(max_examples=40, deadline=None)
@given(_csv_tables())
def test_quoted_texts_match_the_reference(case):
    text, _ = case
    assert_matches_reference(text)


@pytest.mark.parametrize("text", [
    "", "\n", "\n\n\n\n", "a", "a\n", "a\ntext", "a\ntext\n", "a\ntext\n\n", "a\ntext\nx\n\ny\n",
    "a,b\ntext,integer\n,\n", "a,b\ntext,integer\nx,\n", " , \ntext,text\n , \n",
    "a,b\ntext\n", "a\nnumber\n", "a,b\ntext,integer\nx,1,\n", "a,b\ntext,integer\nx\n",
    "a,b\ntext,text\nx\ny,z,w\n",  # two ragged rows whose commas add up
    "a\ntext\nx\r\ny\n", 'a\ntext\n"x,y"\n', "a\ntext\nx\0y\n",
])
def test_edge_texts_match_the_reference(text):
    assert_matches_reference(text)


def test_bundled_fixtures_are_plain_and_match_the_reference():
    paths = sorted(BUNDLES.glob("*/fixtures/*/*/*.csv"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert _is_plain(text), path
        assert table_from_csv(text) == csv_reference.table_from_csv(text), path


def test_plain_text_never_reaches_csv_reader(monkeypatch):
    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", no_reader)
    lines = ["name,count,at", "text,integer,timestamp"]
    lines += [f"n{i},{i},2026-03-01T00:00:{i % 60:02d}Z" for i in range(CSV_CHUNK_ROWS + 9)]
    table = table_from_csv("\n".join(lines))
    assert table.row_count == CSV_CHUNK_ROWS + 9
    assert table.rows[-1][:2] == [f"n{CSV_CHUNK_ROWS + 8}", CSV_CHUNK_ROWS + 8]
    for quoted in ('name\ntext\n"a,b"\n', "name\ntext\na\r\n", "name\ntext\n\n"):
        with pytest.raises(AssertionError, match="csv.reader called"):
            table_from_csv(quoted)


@pytest.fixture()
def field_limit_16():
    old = csv.field_size_limit(16)
    yield 16
    csv.field_size_limit(old)


def test_field_over_the_limit_names_the_row(field_limit_16):
    long = "x" * 17
    for text, where in [
        (f"a\ntext\nok\n{long}\n", "row 1"),  # plain but for the long line
        (f'a\ntext\n"x\ny"\nshort\n{long}', "row 2"),  # rows, not lines, are counted
        (f"a,{long}\ntext,text\n", "header row"),
        (f"a\n{long}\n", "type row"),
    ]:
        assert not _is_plain(text)
        with pytest.raises(InvalidValue, match=rf"^{where}: field larger than field limit \(16\)$"):
            table_from_csv(text)
        with pytest.raises(csv.Error):
            csv_reference.table_from_csv(text)


def test_lines_near_the_field_limit_match_the_reference(field_limit_16):
    for text in [
        "a\ntext\n" + "x" * 16 + "\n",  # a field of exactly the limit
        "a,b\ntext,text\n" + "y" * 10 + "," + "z" * 10 + "\n",  # a long line of short fields
        "a\ntext\n" + "x" * 8 + "\n" + "y" * 8,
    ]:
        assert_matches_reference(text)
        assert isinstance(table_from_csv(text), Table)
