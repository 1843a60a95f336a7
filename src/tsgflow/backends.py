"""Executor backends: what runs a step for the engine's scheduler.

ScriptedBackend replays scenarios on the run's clock. ProcessBackend sends
each step to a child process through linechild.LineChild, which gives every
step a deadline, honours the run's cancel event and restarts a crashed child;
it keeps one child per step that runs at once.
"""

from __future__ import annotations

import json
import threading

from .engine import (
    BackendUnavailable,
    CancelledSignal,
    ExecutorBackend,
    StepContext,
    StepOutcome,
    duration_problem,
)
from .errors import JSON_DECODE_ERRORS
from .linechild import ChildCancelled, ChildUnavailable, LineChild
from .memory import RunScope, value_from_literal
from .scenario import attempt_fields, scenario_steps, scripted_attempt


def _put_writes(store: RunScope | None, writes: dict) -> tuple[str, ...]:
    """Put a step's memory writes {key: literal} into the run's store, if
    it has one, in key order, and return the keys in that order for the
    step's outcome."""
    keys = tuple(sorted(writes))
    if store is not None:
        put = store._put  # the short-key ref put() builds is not read here
        for key in keys:
            put(key, value_from_literal(writes[key]))
    return keys


class ScriptedBackend(ExecutorBackend):
    """Deterministic backend replaying per-node attempt scripts.

    Each execution replays the attempt that scripted_attempt picks from
    `steps`, which maps node ids to attempt lists or to steps in either
    scenario form. Attempt latencies drive the virtual clock; on the wall
    clock (`ctx.clock`) they are waited out.
    """

    def __init__(self, steps: dict[str, list[dict] | dict]):
        self._steps = steps

    @classmethod
    def from_scenario(cls, scenario: dict) -> "ScriptedBackend":
        """A backend over the scenario's own `steps` object, each step read
        only when it runs; a scenario or `steps` of another type goes
        through scenario_steps, which raises ScenarioInvalid for it."""
        steps = scenario.get("steps", {}) if isinstance(scenario, dict) else None
        return cls(steps if isinstance(steps, dict) else scenario_steps(scenario))

    def execute(self, ctx: StepContext) -> StepOutcome | CancelledSignal:
        result, latency, decisions, summary, error, writes = attempt_fields(
            scripted_attempt(self._steps, ctx.node_id, ctx.attempt))
        if latency and ctx.clock == "wall" and ctx.cancel.wait(timeout=latency):
            return CancelledSignal()
        # a failed attempt writes its memory too; its outcome names no keys
        keys = _put_writes(ctx.store, writes) if writes else ()
        if result == "failure":
            return StepOutcome("failure", "", None, (), error, latency)
        return StepOutcome("success", summary, dict(decisions), keys, "", latency)


class ProcessBackend(ExecutorBackend):
    """Line-protocol backend: one StepContext JSON per line to the child's
    stdin, one StepOutcome JSON per line from its stdout.

    Each step talks to a long-lived LineChild of its own: it takes an idle
    one from the backend's free list, or makes one when none is idle, and
    gives it back when the step returns. The engine runs at most k steps at
    once, so a run at k executors keeps at most k children. Each step has the
    client's deadline: a step whose child does not answer in time fails with
    ChildTimeout. A cancel closes the child's stdin and kills it after a
    grace period; the engine reports the step as cancelled, not failed. A
    crash, timeout or cancel closes only that step's child, which a later
    step restarts. An answer that is not a well-formed outcome object fails
    its step. The child may return memory writes as {key: literal}; this
    wrapper applies them to the run's store.
    """

    def __init__(self, command: list[str]):
        self.command = command
        self._idle: list[LineChild] = []
        self._lent = 0  # children a step is talking to
        self._returned = threading.Condition()

    def close(self) -> None:
        """Stop every child, each one after the step still talking to it."""
        with self._returned:
            self._returned.wait_for(lambda: not self._lent)
            children, self._idle = self._idle, []
        for child in children:
            child.close()

    def execute(self, ctx: StepContext) -> StepOutcome | CancelledSignal:
        request = json.dumps(ctx.to_obj(), ensure_ascii=False)
        with self._returned:
            child = self._idle.pop() if self._idle else LineChild(self.command)
            self._lent += 1
        try:
            line = child.request(request, ctx.cancel)
        except ChildUnavailable as exc:
            raise BackendUnavailable(str(exc)) from exc
        except ChildCancelled:
            return CancelledSignal()
        finally:
            with self._returned:
                self._idle.append(child)
                self._lent -= 1
                self._returned.notify_all()
        if line is None:
            return StepOutcome(result="failure", error="backend process closed its output")
        try:
            obj = json.loads(line)
        except JSON_DECODE_ERRORS as exc:
            return StepOutcome(result="failure", error=f"bad outcome line: {exc}")
        problem = _outcome_problem(obj)
        if problem:
            return StepOutcome(result="failure", error=f"bad outcome line: {problem}")
        keys = _put_writes(ctx.store, obj.get("memory_writes", {}))
        return StepOutcome(
            result=obj.get("result", "failure"),
            summary=obj.get("summary", ""),
            edge_decisions=obj.get("edge_decisions", {}),
            memory_writes=keys,
            error=obj.get("error", ""),
            duration=obj.get("duration", 0),
        )


def _outcome_problem(obj) -> str | None:
    """What is wrong with a child's decoded outcome, or None. Absent fields
    take StepOutcome's defaults (result: failure)."""
    if not isinstance(obj, dict):
        return f"not a JSON object: {type(obj).__name__}"
    if obj.get("result", "failure") not in ("success", "failure"):
        return f"result must be success or failure, got {obj['result']!r}"
    problem = duration_problem(obj.get("duration", 0))
    if problem is not None:
        return problem
    for name in ("edge_decisions", "memory_writes"):
        if not isinstance(obj.get(name, {}), dict):
            return f"{name} must be an object, got {obj[name]!r}"
    for name in ("summary", "error"):
        if not isinstance(obj.get(name, ""), str):
            return f"{name} must be a string, got {obj[name]!r}"
    return None
