"""What a backend sees, pinned to fixed digests.

tests/fixtures/context_digests.json holds, for every case of
test_trace_digests (each fixture bundle's scenarios and the seeded random
DAGs, at k=1..4), the SHA-256 of the step contexts the backend was handed:
one line per dispatch, `json.dumps(ctx.to_obj(), ensure_ascii=False)`, which
is the request ProcessBackend writes to its child. A change that alters any
byte of any context fails here. Regenerate the file only for an intended
context change:

    PYTHONPATH=src python tests/test_context_digests.py > tests/fixtures/context_digests.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from test_trace_digests import run_cases
from tsgflow.engine import ExecutorBackend, run

DIGESTS = Path(__file__).parent / "fixtures" / "context_digests.json"


class _Requests(ExecutorBackend):
    """Records each context as ProcessBackend would send it, then delegates."""

    def __init__(self, backend: ExecutorBackend):
        self.backend = backend
        self.lines: list[str] = []

    def execute(self, ctx):
        self.lines.append(json.dumps(ctx.to_obj(), ensure_ascii=False) + "\n")
        return self.backend.execute(ctx)


def context_digests() -> dict[str, str]:
    digests = {}
    for name, bundle, backend, config, incident in run_cases():
        requests = _Requests(backend)
        run(bundle, requests, config, incident=incident)
        digests[name] = hashlib.sha256("".join(requests.lines).encode("utf-8")).hexdigest()
    return digests


def test_contexts_match_pinned_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = context_digests()
    assert sorted(actual) == sorted(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


if __name__ == "__main__":
    print(json.dumps(context_digests(), indent=1, sort_keys=True))
