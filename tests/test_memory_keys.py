"""The memory key rule against tests/memory_key_reference.py.

A non-empty printable str key skips the control-character regex. Every
other key, including the non-printable characters that are no control
characters, still goes through it. Each operation of MemoryStore and
RunScope must raise the same exception class with the same message as the
reference, or return the same result, for every key below.
"""

from __future__ import annotations

import pytest

import memory_key_reference as reference
from tsgflow import memory
from tsgflow.memory import MemoryRef, MemoryStore, RunScope, value_from_literal

CONTROL = [chr(c) for c in range(0x20)] + ["\x7f"]


class _Str(str):
    pass


KEYS = (
    ["", "plain.key", "ключ.日本.é", "a b", "~!@#$%^&*()"]
    + CONTROL
    + [f"step{c}out" for c in CONTROL]
    # not printable, but no control character: accepted before and after
    + ["\x85", "\xa0", "\u2028", "\u200b", "a\x85b", "a\u200bb\u2028"]
    + [_Str("sub.key"), _Str("sub\nkey"), _Str("")]
    + [None, 5, b"key", b""]
)
RUN_IDS = ["run-1", "run\x01", "ключ/1"]
VALUES = [1, value_from_literal([1, "x"])]


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(result, MemoryRef):
        return ("ref", result.key, result.kind, result.value)
    return ("returns", result)


def _session(store, key, value) -> list:
    """Every key operation on `store` for `key`: reads before and after a put."""
    return [_outcome(op, key) for op in (store.get, store.ref, store.contains)] + [
        _outcome(store.put, key, value)] + [
        _outcome(op, key) for op in (store.get, store.ref, store.contains)]


def test_keys_cover_the_rule():
    assert all(not c.isprintable() for c in CONTROL)
    assert all(not c.isprintable() and not reference._CONTROL.search(c)
               for c in ("\x85", "\xa0", "\u2028", "\u200b"))
    assert "ключ.日本.é".isprintable()


@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_check_key_matches_reference(key):
    assert _outcome(memory._check_key, key) == _outcome(reference._check_key, key)


@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_store_operations_match_reference(key):
    for value in VALUES:
        assert _session(MemoryStore(), key, value) == _session(reference.MemoryStore(), key, value)


@pytest.mark.parametrize("key", KEYS, ids=repr)
def test_scope_operations_match_reference(key):
    for run_id in RUN_IDS:
        for value in VALUES:
            ours = RunScope(MemoryStore(), run_id)
            theirs = reference.RunScope(reference.MemoryStore(), run_id)
            assert _session(ours, key, value) == _session(theirs, key, value), run_id


def test_control_messages_are_named():
    scope = RunScope(MemoryStore(), "run\x01")
    with pytest.raises(memory.InvalidKey, match=r"^control character in key 'run\\x01::k'$"):
        scope.put("k", 1)
    with pytest.raises(memory.KeyNotFound, match=r"^no value stored under 'k'$"):
        scope.ref("k")
    with pytest.raises(memory.InvalidKey, match=r"^control character in key 'a\\nb'$"):
        RunScope(MemoryStore(), "run-1").ref("a\nb")
    with pytest.raises(memory.InvalidKey, match=r"^empty key$"):
        MemoryStore().put("", 1)


def test_scope_run_id_is_read_only():
    """Every key's prefix is built from the run id once, so it cannot change."""
    scope = RunScope(MemoryStore(), "run-1")
    scope.put("k", 1)
    with pytest.raises(AttributeError):
        scope.run_id = "run-2"
    assert scope.run_id == "run-1"
