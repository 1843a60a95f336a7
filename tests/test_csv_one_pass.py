"""Named cases for the two one-pass steps of table_from_csv, each checked
against the frozen decoder in tests/csv_reference.py: the ragged-row check
over a block's separator bytes, and the timestamp column decoded from one
join, its cells parsed as they are when each ends in its only "Z" (where the
interpreter reads a trailing "Z") and after one replace and split otherwise.
The cells where a direct parse and the replace disagree (a "Z" that is
not only a suffix, a date with a "Z", a column mixing "Z" and "+00:00") are
named here, and parse_timestamp is checked over the same strings.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

import csv_reference
from test_csv_equivalence import assert_matches_reference
from tsgflow import memory
from tsgflow.memory import CSV_BLOCK_CHARS, InvalidValue, _is_plain, table_from_csv

_LOG_HEAD = "TIMESTAMP,ExceptionType,Count,LatencyMs,Retried\ntimestamp,text,integer,decimal,boolean\n"


def _log_rows(n: int, kind: str = "TimeoutException") -> list[str]:
    """n rows shaped like the exception logs the mock plugins read."""
    start = datetime(2026, 3, 1, tzinfo=timezone.utc)
    return [
        f"{(start + timedelta(seconds=7 * i)).isoformat().replace('+00:00', 'Z')},"
        f"{kind}{i % 41},{1000 + 37 * i},{(i % 900) * 1.25!r},{'true' if i % 3 else 'false'}"
        for i in range(n)
    ]


def _log(rows: list[str], end: str = "\n") -> str:
    return _LOG_HEAD + "\n".join(rows) + end


def _ragged_pair() -> str:
    rows = _log_rows(60)
    rows[10] += ",extra"  # six cells
    rows[11] = rows[11].rsplit(",", 1)[0]  # four: the block's comma count is unchanged
    return _log(rows)


def _blank_line_mid_block() -> str:
    rows = _log_rows(60)
    rows.insert(25, "")
    return _log(rows)


def _non_ascii(fault: str | None = None) -> str:
    rows = _log_rows(60, kind="Zeitüberschreitung日本語")
    if fault == "ragged":
        rows[30] += ",ü"
    elif fault == "blank":
        rows.insert(30, "")
    return _log(rows)


def _surrogate() -> str:
    # table_from_csv takes any str; a lone surrogate cannot be encoded as strict UTF-8
    rows = _log_rows(20, kind="\ud800")
    return _log(rows)


def _timestamps(*cells: str) -> str:
    """A two-column table whose first column holds `cells`, so an empty
    cell is not a blank line."""
    return "at,n\ntimestamp,integer\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells))


_ON_TIME = "2026-03-01T00:00:00Z"
_QUOTED_FRACTION = 'at,n\ntimestamp,integer\n"2026-03-01T00:00:05,250Z",1\n2026-03-01T00:00:06Z,2\n'

CASES = [
    pytest.param(_ragged_pair(), "row 10 has 6 cells, expected 5",
                 id="two-ragged-rows-whose-commas-add-up"),
    pytest.param(_blank_line_mid_block(), "row 25 has 0 cells, expected 5",
                 id="blank-line-mid-block"),
    pytest.param(_log(_log_rows(60), end="\n\n"), "row 60 has 0 cells, expected 5",
                 id="blank-last-line"),
    pytest.param(_non_ascii(), None, id="non-ascii-block"),
    pytest.param(_non_ascii("ragged"), "row 30 has 6 cells, expected 5",
                 id="non-ascii-block-ragged-row"),
    pytest.param(_non_ascii("blank"), "row 30 has 0 cells, expected 5",
                 id="non-ascii-block-blank-line"),
    pytest.param(_surrogate(), None, id="lone-surrogate"),
    pytest.param("n\ninteger\n1\n2\n3\n", None, id="width-1"),
    pytest.param("n\ninteger\n1\n2\n3", None, id="width-1-no-trailing-newline"),
    pytest.param("n\ninteger\n1\n\n3\n", "row 1 has 0 cells, expected 1", id="width-1-blank-line"),
    pytest.param("n\ninteger\n1\n2\n\n", "row 2 has 0 cells, expected 1",
                 id="width-1-blank-last-line"),
    pytest.param("n\ninteger\n1\n2,3\n", "row 1 has 2 cells, expected 1", id="width-1-comma"),
    pytest.param(_timestamps(_ON_TIME, "2026-03-01T00:00Z", "2026-03-01", "2026-03-01T05:00:00+02:00"),
                 None, id="timestamps"),
    pytest.param(_timestamps(_ON_TIME, "2026-03-01T00:00:00ZZ"),
                 "row 1, column 'at': Invalid isoformat string: '2026-03-01T00:00:00+00:00+00:00'",
                 id="timestamp-two-zs"),
    pytest.param(_timestamps(_ON_TIME, _ON_TIME, "Z2026-03-01"),
                 "row 2, column 'at': Invalid isoformat string: '+00:002026-03-01'",
                 id="timestamp-leading-z"),
    pytest.param(_timestamps("2026-03-01TZ00:00", _ON_TIME), "row 0, column 'at': ",
                 id="timestamp-z-as-separator"),
    pytest.param(_timestamps(_ON_TIME, "2026-03-01T00:00:00z"),
                 "row 1, column 'at': Invalid isoformat string: '2026-03-01T00:00:00z'",
                 id="timestamp-lowercase-z"),
    pytest.param(_timestamps(_ON_TIME, "", _ON_TIME),
                 "row 1, column 'at': Invalid isoformat string: ''", id="timestamp-empty-cell"),
    pytest.param(_timestamps(""), "row 0, column 'at': Invalid isoformat string: ''",
                 id="timestamp-one-empty-cell"),
    pytest.param(_QUOTED_FRACTION, None, id="quoted-timestamp-with-a-comma"),
    pytest.param('at,n\ntimestamp,integer\n"2026-03-01T00:00:05,2,5Z",1\n2026-03-01T00:00:06Z,2\n',
                 "row 0, column 'at': Invalid isoformat string: '2026-03-01T00:00:05,2,5+00:00'",
                 id="quoted-timestamp-with-two-commas"),
    # a direct parse reads "Z" as the date-time separator too; the replace does not
    pytest.param(_timestamps(_ON_TIME, "2026-03-01Z12:00:00Z"),
                 "row 1, column 'at': Invalid isoformat string: '2026-03-01+00:0012:00:00+00:00'",
                 id="timestamp-z-separator-and-suffix"),
    # as many "Z"s as cells, but one is a separator: the cells do not all end in one
    pytest.param(_timestamps("2026-03-01Z12:00:00", _ON_TIME),
                 "row 0, column 'at': Invalid isoformat string: '2026-03-01+00:0012:00:00'",
                 id="timestamp-z-separator-then-suffix"),
    # the replace reads naive midnight where a direct parse refuses the cell
    pytest.param(_timestamps(_ON_TIME, "2026-03-01Z"), None, id="timestamp-date-with-z"),
    pytest.param(_timestamps("2026-03-01Z"), None, id="timestamp-one-date-with-z"),
    pytest.param(_timestamps("20260301T120000Z", _ON_TIME), None, id="timestamp-basic-format"),
    pytest.param(_timestamps(_ON_TIME, "2026-03-01T00:00:00+00:00", "2026-03-01T01:00:00Z",
                             "2026-03-01T01:00:00-00:00"),
                 None, id="timestamp-z-and-offset-mixed"),
    pytest.param(_timestamps(_ON_TIME), None, id="timestamp-one-row"),
    pytest.param(_timestamps("2026-03-01T00:00:00Z", "2026-03-01T00:00:00"), None,
                 id="timestamp-z-and-naive"),
]


@pytest.mark.parametrize("text, error", CASES)
def test_named_cases_match_the_reference(text, error):
    assert_matches_reference(text)
    if error is None:
        got, want = table_from_csv(text), csv_reference.table_from_csv(text)
        assert got == want
        assert repr(got) == repr(want)  # offsets too: == compares instants only
    else:
        with pytest.raises(InvalidValue) as info:
            table_from_csv(text)
        assert str(info.value).startswith(error)


def test_named_cases_match_the_reference_where_no_trailing_z_is_read(monkeypatch):
    # as on Python 3.10, whose fromisoformat refuses a trailing "Z"
    monkeypatch.setattr(memory, "_READS_ZULU", False)
    for case in CASES:
        text, error = case.values
        assert_matches_reference(text)
        if error is None:
            assert repr(table_from_csv(text)) == repr(csv_reference.table_from_csv(text))


def test_faulty_rows_sit_inside_one_plain_block():
    # so the separator check itself, not a block boundary, must catch them
    for text in (_ragged_pair(), _blank_line_mid_block(), _non_ascii("ragged"), _non_ascii("blank")):
        assert _is_plain(text) and len(text) < CSV_BLOCK_CHARS
    assert _ragged_pair().isascii() and not _non_ascii().isascii()


def test_quoted_timestamp_with_a_comma_keeps_its_fraction():
    table = table_from_csv(_QUOTED_FRACTION)
    assert table.rows[0][0] == datetime(2026, 3, 1, 0, 0, 5, 250_000, tzinfo=timezone.utc)
    assert table.rows[1][0] == datetime(2026, 3, 1, 0, 0, 6, tzinfo=timezone.utc)


def test_ascii_fixture_shaped_text_never_reaches_the_reader(monkeypatch):
    def no_reader(text):
        raise AssertionError("_reader_chunks called")

    monkeypatch.setattr(memory, "_reader_chunks", no_reader)
    text = _log(_log_rows(5000))
    assert text.isascii() and len(text) > 2 * CSV_BLOCK_CHARS
    table = table_from_csv(text)
    assert table.row_count == 5000
    assert table.rows[-1][0] == datetime(2026, 3, 1, tzinfo=timezone.utc) + timedelta(seconds=7 * 4999)
    with pytest.raises(AssertionError, match="_reader_chunks called"):
        table_from_csv(_ragged_pair())  # a fault still falls back, to be named


_TIMESTAMP_TEXTS = [_ON_TIME, "2026-03-01T00:00Z", "2026-03-01", "2026-03-01T05:00:00+02:00",
                    "2026-03-01Z12:00:00Z", "2026-03-01Z", "20260301T120000Z",
                    "2026-03-01T00:00:00+00:00", "2026-03-01T00:00:00-00:00",
                    "2026-03-01T00:00:00ZZ", "Z2026-03-01", "2026-03-01TZ00:00",
                    "2026-03-01T00:00:00z", "", "Z", "2026-03-01T00:00:05,250Z",
                    "2026-03-01T00:00:00.123456789Z", "2026-W09-1T12:00Z", "2026-03-01T24:00:00Z"]


def _parsed(parse, text: str):
    try:
        return repr(parse(text))
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", _TIMESTAMP_TEXTS)
def test_parse_timestamp_reads_as_the_replace_rule(text):
    assert _parsed(memory.parse_timestamp, text) == _parsed(
        lambda s: datetime.fromisoformat(s.replace("Z", "+00:00")), text)


def test_parse_timestamp_of_a_non_string_fails_as_the_replace_does():
    for value in (7, None, ["Z"]):
        with pytest.raises(AttributeError, match="has no attribute 'replace'"):
            memory.parse_timestamp(value)
