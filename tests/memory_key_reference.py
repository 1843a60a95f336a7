"""The memory key rule as it was before its printable-key fast path, kept as
the reference.

Every key went through the control-character regex. The bodies below are
MemoryStore's and RunScope's key-handling methods from that code,
unchanged but for MemoryStore._store, written in place (FileBackedStore is
left out); tests/test_memory_keys.py checks tsgflow.memory against them.
"""

from __future__ import annotations

import re
import threading

from tsgflow.memory import InvalidKey, KeyNotFound, MemoryRef, MemoryValue, memory_value

_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


def _check_key(key: str) -> None:
    if not key:
        raise InvalidKey("empty key")
    if _CONTROL.search(key):
        raise InvalidKey(f"control character in key {key!r}")


class MemoryStore:
    def __init__(self):
        self._lock = threading.Lock()
        self._data: dict[str, MemoryValue] = {}

    def put(self, key: str, value) -> MemoryRef:
        _check_key(key)
        value = memory_value(value)
        with self._lock:
            self._data[key] = value
        return MemoryRef(key, value.kind, value)

    def get(self, key: str) -> MemoryValue:
        with self._lock:
            if key not in self._data:
                raise KeyNotFound(key)
            return self._data[key]

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def ref(self, key: str) -> MemoryRef:
        value = self.get(key)
        return MemoryRef(key, value.kind, value)


class RunScope:
    def __init__(self, store: MemoryStore, run_id: str):
        self._store = store
        self.run_id = run_id

    def _full(self, key: str) -> str:
        _check_key(key)
        return f"{self.run_id}::{key}"

    def put(self, key: str, value) -> MemoryRef:
        ref = self._store.put(self._full(key), value)
        return MemoryRef(key, ref.kind, ref.value)

    def get(self, key: str) -> MemoryValue:
        try:
            return self._store.get(self._full(key))
        except KeyNotFound:
            raise KeyNotFound(key) from None

    def contains(self, key: str) -> bool:
        return self._store.contains(self._full(key))

    def ref(self, key: str) -> MemoryRef:
        value = self.get(key)
        return MemoryRef(key, value.kind, value)
