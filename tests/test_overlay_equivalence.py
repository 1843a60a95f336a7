"""The overlay patterns, _split_arms, _parse_directive, parse_tsg, lint and
the placeholder scans give what their lazy-form, generator-based reference
gave (tests/overlay_reference.py), on lines and guides drawn from the soups
of tests/overlay_check.py."""

from __future__ import annotations

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import overlay_check as check

_SPACES = st.lists(st.sampled_from(check.SPACES), max_size=3).map("".join)
# a prefix, pieces and trailing spaces; a prefix and spaces alone; or a
# directive line close to well formed, from a drawn seed
_LINES = (
    st.tuples(st.sampled_from(check.PREFIXES),
              st.lists(st.sampled_from(check.PIECES + check.BREAKS), max_size=14).map("".join),
              _SPACES).map("".join)
    | st.tuples(st.sampled_from(check.PREFIXES), _SPACES).map("".join)
    | st.integers(0, 2**32).map(lambda seed: check.directive_line(random.Random(seed)))
)


@settings(max_examples=1000, deadline=None)
@given(_LINES)
def test_a_line_reads_as_the_lazy_patterns_read_it(line):
    assert check.line_differences(line) == []


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_a_guide_parses_lints_and_extracts_as_before(seed):
    assert check.document_differences(check.soup_document(random.Random(seed))) == []


def test_the_seeded_soups_match():
    assert check.main(["--seed", "20261021", "--lines", "3000", "--documents", "200"]) == 0


def test_a_greedy_payload_is_caught():
    """A greedy (.+) or (.*) before \\s*$ keeps a payload's trailing spaces,
    and the comparison says so for every pattern."""
    def greedy_form(pattern):
        for payload, wrong in ((r"(?:.*\S|.)", ".+"), (r".*\S|.", ".+"), (r"(?:.*\S)?", ".*")):
            pattern = pattern.replace(payload, wrong)
        return re.compile(pattern)

    greedy = [(name, old, greedy_form(new.pattern)) for name, old, new in check.PATTERN_PAIRS]
    assert all(new.pattern != greedy_form(new.pattern).pattern for _, _, new in check.PATTERN_PAIRS)
    assert check.line_differences("Produces: a \t", greedy)
    assert check.line_differences("- If q: Y -> Step 2\xa0", greedy)
    rng = random.Random(7)
    caught = {d.split(" ", 1)[0] for _ in range(2000)
              for d in check.line_differences(check.soup_line(rng), greedy)}
    assert {name for name, _, _ in greedy} <= caught
