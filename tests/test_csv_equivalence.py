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
from datetime import datetime, timedelta, timezone
from random import Random
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import csv_reference
from conftest import BUNDLES
from test_memory import _csv_tables
from tsgflow import memory
from tsgflow.memory import (
    COLUMN_TYPES,
    CSV_BLOCK_CHARS,
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
def _plain_texts(draw, data_chars=None):
    """A plain CSV text, perhaps with a ragged row or a cell that does not
    decode. With `data_chars`, a strategy for a length, the data rows are
    just enough to reach the length it draws, and the faulty rows are drawn
    near that length as often as anywhere."""
    types = draw(st.lists(st.sampled_from(COLUMN_TYPES), min_size=1, max_size=4))
    distinct = draw(st.lists(st.tuples(*(_PLAIN_CELLS[t] for t in types)), min_size=1, max_size=5))
    near = []
    if data_chars is None:
        n = draw(st.one_of(
            st.integers(0, 12),
            st.sampled_from([CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1,
                             2 * CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS + 1]),
        ))
    else:
        target, n, chars = draw(data_chars), 0, 0
        while chars < target:
            chars += len(",".join(distinct[n % len(distinct)])) + 1
            n += 1
        near = list(range(max(n - 3, 0), n))
    row_index = st.integers(0, max(n - 1, 0))
    if near:
        row_index |= st.sampled_from(near)
    rows = [list(distinct[i % len(distinct)]) for i in range(n)]
    if rows and draw(st.booleans()):  # a ragged row
        row = rows[draw(row_index)]
        if draw(st.booleans()):
            row.append(draw(_PLAIN_TEXT))
        else:
            row.pop()
    if rows and draw(st.integers(0, 4)) == 0:  # a cell that does not decode
        col = draw(st.integers(0, len(types) - 1))
        if types[col] in _BAD_CELLS:
            row = rows[draw(row_index)]
            if col < len(row):
                row[col] = _BAD_CELLS[types[col]]
    header = [draw(_PLAIN_TEXT) or f"c{i}" for i in range(len(types))]
    lines = [",".join(header), ",".join(types)] + [",".join(row) for row in rows]
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(_plain_texts())
def test_plain_texts_match_the_reference(text):
    # only a leading blank line keeps these texts off the plain path (a later one fails
    # the block cut); the operands are named so that a failure does not diff the whole text
    leading_blank_line = text.startswith("\n")
    assert _is_plain(text) is not leading_blank_line
    assert_matches_reference(text)


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(_plain_texts(data_chars=st.integers(CSV_BLOCK_CHARS - 40, CSV_BLOCK_CHARS + 40)
                    | st.integers(2 * CSV_BLOCK_CHARS - 40, 2 * CSV_BLOCK_CHARS + 40)))
def test_texts_around_the_block_size_match_the_reference(text):
    assert_matches_reference(text)


def _block_chars(n: int):
    """memory.CSV_BLOCK_CHARS set to n while the context lasts."""
    return mock.patch.object(memory, "CSV_BLOCK_CHARS", n)


@st.composite
def _texts_and_block_sizes(draw):
    """A plain text, and a block size at one of its first data lines' ends,
    one character short of it or one past it."""
    text = draw(_plain_texts())
    data = text.split("\n", 2)[2] if text.count("\n") >= 2 else ""
    ends, at = [], -1
    while len(ends) < 20 and (at := data.find("\n", at + 1)) >= 0:
        ends.append(at)
    end = draw(st.sampled_from(ends + [len(data)]))
    return text, max(end + draw(st.integers(-1, 1)), 1)


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(_texts_and_block_sizes())
def test_small_blocks_match_the_reference(case):
    text, block = case
    with _block_chars(block):
        assert_matches_reference(text)


def _fixed_rows(n: int, width: int = 2) -> list[str]:
    """n data lines of `width` integer cells, each line 8 * width - 1 characters."""
    return [",".join(f"{i:07d}" for _ in range(width)) for i in range(n)]


def test_block_boundaries_match_the_reference():
    line = 15 + 1  # a _fixed_rows line and its newline
    per_block = (CSV_BLOCK_CHARS + 1) // line  # the first row after a boundary
    assert per_block * line - 1 < CSV_BLOCK_CHARS < (per_block + 1) * line - 1  # it straddles
    head = "a,b\ninteger,integer\n"
    rows = _fixed_rows(2 * per_block + 5)
    for text in [
        head + "\n".join(rows),
        head + "\n".join(rows) + "\n",
        head + "\n".join(rows[:per_block]),  # exactly one block
        head + "\n".join(rows[:per_block]) + "\n",
        head + "\n".join(rows[:per_block + 1]),
        head + "\n".join(rows[:per_block + 1]) + "\n",
    ]:
        assert_matches_reference(text)
    # a newline exactly at the block size: 3 characters a line divide it plus one
    assert (CSV_BLOCK_CHARS + 1) % 3 == 0
    short = [f"{i % 100:02d}" for i in range(2 * (CSV_BLOCK_CHARS + 1) // 3 + 2)]
    for n in (len(short), (CSV_BLOCK_CHARS + 1) // 3, (CSV_BLOCK_CHARS + 1) // 3 + 1):
        for end in ("", "\n"):
            assert_matches_reference("n\ninteger\n" + "\n".join(short[:n]) + end)


@pytest.mark.parametrize("block", [None, 40])
def test_faults_in_the_first_row_after_a_boundary_match_the_reference(block):
    block = block or CSV_BLOCK_CHARS
    per_block = (block + 1) // (15 + 1)
    for fault in (",7", ",x"):  # a ragged row, a cell that does not decode
        rows = _fixed_rows(3 * per_block)
        with _block_chars(block):
            blocks = list(memory._plain_chunks("a,b\nt,t\n" + "\n".join(rows)))
            assert len(blocks[2]) == 2 * per_block  # so row per_block starts a block
        if fault == ",7":
            rows[per_block] += fault
        else:
            rows[per_block] = rows[per_block][:8] + "x"
        text = "a,b\ninteger,integer\n" + "\n".join(rows) + "\n"
        with _block_chars(block):
            assert_matches_reference(text)
            with pytest.raises(InvalidValue, match=rf"^row {per_block}[ ,]"):
                table_from_csv(text)


def test_a_line_longer_than_a_block_matches_the_reference():
    long = "x" * 30
    texts = [f"a,b\ntext,text\n{long},{long}\ny,z\n", f"a,b\ntext,text\ny,z\n{long},{long}",
             f"a,b\ntext,text\ny,z\n{long},{long},{long}\ny,z\n", f"a\ntext\n{long}\n{long}\n"]
    with _block_chars(8):
        for text in texts:
            assert_matches_reference(text)
    # at the real block size such a line needs a raised field limit to be plain
    old = csv.field_size_limit(4 * CSV_BLOCK_CHARS)
    try:
        long = "x" * (CSV_BLOCK_CHARS + 5)
        for text in (f"a,b\ntext,text\ny,z\n{long},w\ny,z", f"a\ntext\n{long}\n"):
            assert _is_plain(text)
            assert_matches_reference(text)
    finally:
        csv.field_size_limit(old)


def test_seeded_multi_block_log_matches_the_reference():
    rng = Random(20261019)
    start = datetime(2026, 3, 1, tzinfo=timezone.utc)
    lines = ["TIMESTAMP,ExceptionType,Count,LatencyMs,Retried",
             "timestamp,text,integer,decimal,boolean"]
    for i in range(9000):
        at = (start + timedelta(seconds=rng.randrange(40_000))).isoformat().replace("+00:00", "Z")
        kind = f"{rng.choice(['Timeout', 'Queue', 'Auth'])}Exception{rng.randint(0, 40)}"
        retried = "true" if rng.random() < 0.3 else "false"
        lines.append(f"{at},{kind},{rng.randrange(1, 10**6)},{rng.uniform(1, 900)!r},{retried}")
    text = "\n".join(lines) + "\n"
    assert len(text) > 3 * CSV_BLOCK_CHARS
    assert _is_plain(text)
    table = table_from_csv(text)
    assert table == csv_reference.table_from_csv(text)
    assert table.row_count == 9000
    assert {type(row[4]) for row in table.rows} == {bool}


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
