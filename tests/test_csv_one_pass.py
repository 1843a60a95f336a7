"""Named cases for the two one-pass steps of table_from_csv, each checked
against the frozen decoder in tests/csv_reference.py: the ragged-row check
over a block's separator bytes, and the timestamp column decoded with one
join, replace and split.
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
]


@pytest.mark.parametrize("text, error", CASES)
def test_named_cases_match_the_reference(text, error):
    assert_matches_reference(text)
    if error is None:
        assert table_from_csv(text) == csv_reference.table_from_csv(text)
    else:
        with pytest.raises(InvalidValue) as info:
            table_from_csv(text)
        assert str(info.value).startswith(error)


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
