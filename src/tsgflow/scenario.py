"""The scenario format: optional `incident` fields and a `steps` object
mapping node ids to scripted attempts.

This module is the one reader of that format. ScriptedBackend, the oracle
and load_scenario all read scripts through it, so they agree on what a
script means, and it imports none of them.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path

from .errors import JSON_DECODE_ERRORS, TsgflowError, read_utf8


class ScenarioError(TsgflowError):
    pass


class ScenarioIncomplete(ScenarioError):
    pass


class ScenarioInvalid(ScenarioError):
    pass


ATTEMPT_DEFAULTS = {"result": "success", "latency": 0, "edge_decisions": {}, "summary": "",
                    "error": "scripted failure", "memory_writes": {}}


def scenario_steps(scenario: dict) -> dict[str, list[dict]]:
    """Node id -> attempt list, from either step form: a bare list of
    attempts or {"attempts": [...]}. The lists are the scenario's own.
    Raises ScenarioInvalid for a scenario or `steps` that is not an object."""
    if not isinstance(scenario, dict):
        raise ScenarioInvalid("scenario: top level must be a JSON object")
    steps = scenario.get("steps", {})
    if not isinstance(steps, dict):
        raise ScenarioInvalid("scenario: steps must map node ids to attempts")
    return {node_id: spec.get("attempts") if isinstance(spec, dict) else spec
            for node_id, spec in steps.items()}


def scripted_attempt(steps: Mapping[str, list[dict] | dict], node_id: str, n: int) -> dict:
    """The attempt that the n-th execution of a node replays (n counts from
    1); the last attempt repeats when the node runs more often than its
    script is long. `steps` maps node ids to attempt lists, or to steps in
    either form, as a scenario's own `steps` object does."""
    attempts = steps.get(node_id)
    if isinstance(attempts, dict):  # the {"attempts": [...]} form, as in scenario_steps
        attempts = attempts.get("attempts")
    if not attempts:
        raise ScenarioIncomplete(f"scenario has no attempts for {node_id}")
    return attempts[n - 1] if n <= len(attempts) else attempts[-1]


_FIELDS = itemgetter(*ATTEMPT_DEFAULTS)


def attempt_fields(attempt: dict) -> tuple:
    """Every field of an attempt, each one it leaves out at its default, in
    ATTEMPT_DEFAULTS order: result, latency, edge_decisions, summary, error,
    memory_writes."""
    return _FIELDS({**ATTEMPT_DEFAULTS, **attempt})


def read_scenario(path: Path) -> dict:
    """Decode and check the scenario file at `path`; raise FileNotUtf8 for a
    file that is not UTF-8 and ScenarioInvalid for one that is not JSON or
    not a scenario."""
    try:
        scenario = json.loads(read_utf8(path))
    except JSON_DECODE_ERRORS as exc:
        raise ScenarioInvalid(f"scenario {path}: not valid JSON: {exc}") from None
    _check_scenario(scenario, str(path))
    return scenario


# (field, test over a list of values, what a value must be); an attempt that
# leaves a field out is tested on its ATTEMPT_DEFAULTS value
_ATTEMPT_RULES = (
    ("result", lambda vs: set(map(type, vs)) <= {str} and set(vs) <= {"success", "failure"},
     "'success' or 'failure'"),
    # a NaN latency makes the sum NaN, which is not >= 0; the max test, made
    # before the sum, keeps out Infinity and integers too large for a float
    ("latency",
     lambda vs: set(map(type, vs)) <= {int, float} and min(vs, default=0) >= 0
     and max(vs, default=0) <= sys.float_info.max and sum(vs) >= 0,
     "a number >= 0"),
    ("edge_decisions", lambda vs: set(map(type, vs)) <= {dict}, "a JSON object"),
    ("memory_writes", lambda vs: set(map(type, vs)) <= {dict}, "a JSON object"),
    ("summary", lambda vs: set(map(type, vs)) <= {str}, "a string"),
    ("error", lambda vs: set(map(type, vs)) <= {str}, "a string"),
)


def _check_scenario(scenario, source: str) -> None:
    """Raise ScenarioInvalid naming the first part of `scenario` that the
    oracle or ScriptedBackend cannot read: the top level, `incident` and
    `steps` objects, each step's attempt list, each attempt's object and
    every field of _ATTEMPT_RULES. (A `memory_writes` value that memory
    cannot hold fails its attempt with a named error when the step runs.)

    A scenario is as large as its guide, so each rule runs over every
    attempt at once, inside builtins; attempts are looked at one by one only
    to name a bad one."""

    def bad(what: str):
        raise ScenarioInvalid(f"scenario {source}: {what}")

    if not isinstance(scenario, dict):
        bad("top level must be a JSON object")
    if not isinstance(scenario.get("incident") or {}, dict):
        bad("incident must be an object")
    steps = scenario.get("steps", {})
    if not isinstance(steps, dict):
        bad("steps must map node ids to attempts")
    lists = list(scenario_steps(scenario).values())
    if not set(map(type, lists)) <= {list}:
        node = next(node for node, attempts in zip(steps, lists) if type(attempts) is not list)
        bad(f'steps.{node} must be a list of attempts or {{"attempts": [...]}}')

    def where(k: int) -> str:
        for node, attempts in zip(steps, lists):
            if k < len(attempts):
                return f"steps.{node}.attempts[{k}]"
            k -= len(attempts)

    attempts = list(chain.from_iterable(lists))
    if not set(map(type, attempts)) <= {dict}:
        bad(where(next(k for k, a in enumerate(attempts) if type(a) is not dict)) + " must be an object")
    for field, ok, what in _ATTEMPT_RULES:
        values = list(map(dict.get, attempts, repeat(field), repeat(ATTEMPT_DEFAULTS[field])))
        if not ok(values):
            k = next(k for k, v in enumerate(values) if not ok([v]))
            bad(f"{where(k)}.{field} must be {what}")
